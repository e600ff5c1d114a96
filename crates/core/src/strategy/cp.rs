//! CodePatch: every write instruction preceded by an inline check
//! (Section 3.3, Figure 6) — the strategy the paper recommends.

use super::{drive, Mechanism};
use crate::monitor::Notification;
use crate::plan::MonitorPlan;
use crate::predicate::{CompiledPredicate, PredEval, WriterMap};
use crate::service::Wms;
use crate::strategy::report::StrategyReport;
use databp_analysis::WriteSafety;
use databp_machine::{Instr, Machine, MachineError, StopConfig, StopReason};
use databp_models::{Approach, TimingVar, TimingVars};
use databp_tinyc::DebugInfo;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The CodePatch strategy.
///
/// The program must be compiled with
/// [`databp_tinyc::Options::codepatch`]: each traced store is preceded by
/// a `chk` of the same effective address ("the check is done in a
/// subroutine with the target address passed via an available register").
/// Every check costs one `SoftwareLookupτ`; no kernel transition ever
/// happens, which is the entire performance argument.
///
/// Programs compiled with [`databp_tinyc::Options::codepatch_loopopt`]
/// carry the Section 9 groups ([`DebugInfo::hoists`]): a loop's
/// *preliminary check* runs once in the preheader; while it misses, body
/// checks on the same loop-invariant target skip their lookups
/// ([`StrategyReport::skipped_lookups`]). The build decides: the groups
/// are honored whenever present.
///
/// With [`CodePatch::with_staticopt`] the static write-safety pass from
/// `databp-analysis` is consulted instead: checks whose store provably
/// cannot hit the plan's address regions
/// ([`MonitorPlan::plan_class`]) skip their lookups entirely
/// ([`StrategyReport::elided_lookups`]). Elision is validated under
/// `debug_assertions`, and independently by the replay oracle in
/// `databp-sim`.
///
/// Programs compiled with [`databp_tinyc::Options::codepatch_ssa`]
/// carry SSA-planned groups instead, each marked
/// [`databp_tinyc::LoopOptInfo::rearm`]: one preheader guard dominating
/// a loop's invariant store targets — including stores through
/// never-reassigned pointers, which Section 9 leaves out. These too are
/// honored whenever present
/// ([`StrategyReport::hoisted_lookups`]); monitor installs re-arm every
/// such group so a mid-loop install is never missed.
#[derive(Debug, Clone, Default)]
pub struct CodePatch {
    /// Static write-safety elision: checks classified provably safe for
    /// the plan's class pay no lookup.
    pub staticopt: Option<Arc<WriteSafety>>,
    /// Monitor predicate: candidate writes (monitor-overlapping) notify
    /// only when the predicate holds. Checks whose predicate is
    /// *statically* false (constant stored value, writer filter, per
    /// [`CompiledPredicate::statically_false`]) skip their lookup
    /// entirely ([`StrategyReport::pred_dead_skips`]); such sites are
    /// excluded from elision/hoist accounting so each check is counted
    /// exactly once.
    pub predicate: Option<CompiledPredicate>,
    /// Primitive costs.
    pub timing: TimingVars,
}

impl CodePatch {
    /// CodePatch with static write-safety elision. `safety` must be the
    /// analysis of the *same CodePatch build* this strategy will run
    /// (its `chk` pcs are matched against stops).
    pub fn with_staticopt(safety: Arc<WriteSafety>) -> Self {
        CodePatch {
            staticopt: Some(safety),
            ..CodePatch::default()
        }
    }

    /// Adds a monitor predicate (compiled against the same program this
    /// strategy will run). Composes with every other option.
    #[must_use]
    pub fn with_predicate(mut self, pred: CompiledPredicate) -> Self {
        self.predicate = Some(pred);
        self
    }

    /// Runs a freshly loaded, CodePatch-compiled machine under this
    /// strategy.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`] from the run.
    ///
    /// # Panics
    ///
    /// Panics if the loaded image contains no `chk` instructions while
    /// the program has traced stores — i.e. it was not compiled with
    /// CodePatch instrumentation.
    pub fn run(
        &self,
        machine: &mut Machine,
        debug: &DebugInfo,
        plan: &dyn MonitorPlan,
        max_steps: u64,
    ) -> Result<StrategyReport, MachineError> {
        let mut elided: HashSet<u32> = match &self.staticopt {
            Some(ws) => ws.elided_chk_pcs(plan.plan_class()).into_iter().collect(),
            None => HashSet::new(),
        };
        // Predicate deadness: a check whose predicate is provably false
        // for every write its site can perform pays no lookup. Writer
        // identity comes from the site itself; the constant stored
        // value (when staticopt carries the SSA analysis of this build)
        // tightens the verdict. Decided before elision and removed from
        // the elided set, so every such check is accounted exactly once
        // — under `pred_dead_skips`, never `elided_lookups` or
        // `hoisted_lookups`.
        let mut pred_dead: HashSet<u32> = HashSet::new();
        if let Some(pred) = &self.predicate {
            let aligned = self
                .staticopt
                .as_ref()
                .filter(|ws| ws.len() == debug.store_sites.len());
            for (i, site) in debug.store_sites.iter().enumerate() {
                let Some(chk_pc) = site.chk_pc else { continue };
                let vc = aligned.and_then(|ws| ws.site_value_const(i));
                if pred.statically_false(vc, Some(site.func)) {
                    pred_dead.insert(chk_pc);
                    elided.remove(&chk_pc);
                }
            }
        }
        let writers = WriterMap::from_debug(debug);
        let mut mech = CpMech {
            opts: self.clone(),
            wms: Wms::new(),
            preheader: HashMap::new(),
            body: HashMap::new(),
            armed: Vec::new(),
            rearm: Vec::new(),
            elided,
            pred_dead,
            pred: self.predicate.clone().map(PredEval::new),
            writers,
        };
        let mut rep = drive(
            &mut mech,
            machine,
            debug,
            plan,
            max_steps,
            StrategyReport::new(Approach::Cp),
        )?;
        rep.wms_counters = mech.wms.counters();
        Ok(rep)
    }
}

struct CpMech {
    opts: CodePatch,
    wms: Wms,
    /// Preheader check pc -> loop-group index.
    preheader: HashMap<u32, usize>,
    /// Body check pc -> loop-group index.
    body: HashMap<u32, usize>,
    /// Whether each loop group's preliminary check hit.
    armed: Vec<bool>,
    /// Each group's [`databp_tinyc::LoopOptInfo::rearm`]: such groups
    /// re-arm on monitor installs and count as
    /// [`StrategyReport::hoisted_lookups`], the others as
    /// [`StrategyReport::skipped_lookups`].
    rearm: Vec<bool>,
    /// `chk` pcs whose lookup the static write-safety pass elides for
    /// this run's plan class.
    elided: HashSet<u32>,
    /// `chk` pcs whose predicate is statically false (disjoint from
    /// `elided` by construction).
    pred_dead: HashSet<u32>,
    /// The session predicate's stateful evaluator.
    pred: Option<PredEval>,
    /// pc → owning function, for `writer in f` filters.
    writers: WriterMap,
}

impl Mechanism for CpMech {
    fn stop_config(&self) -> StopConfig {
        StopConfig {
            chk: true,
            ..StopConfig::default()
        }
    }

    fn prepare(&mut self, m: &mut Machine, debug: &DebugInfo) -> Result<(), MachineError> {
        if debug.traced_store_count > 0 {
            let has_chk = (0..m.code_len()).any(|i| matches!(m.instr_at(i), Ok(Instr::Chk(..))));
            assert!(
                has_chk,
                "CodePatch strategy requires a program compiled with Options::codepatch"
            );
        }
        // Hoist groups are honored whenever the build carries them: the
        // preheader guards are already in the code, so skipping the
        // dominated body checks is always licensed.
        for (idx, l) in debug.hoists.iter().enumerate() {
            self.preheader.insert(l.preheader_pc, idx);
            for &pc in &l.body_pcs {
                self.body.insert(pc, idx);
            }
        }
        self.armed = vec![false; debug.hoists.len()];
        self.rearm = debug.hoists.iter().map(|l| l.rearm).collect();
        Ok(())
    }

    fn install(&mut self, _m: &mut Machine, ba: u32, ea: u32, rep: &mut StrategyReport) {
        self.wms
            .install(ba, ea)
            .expect("tracker ranges are non-empty");
        // A monitor installed after a preheader guard already missed
        // could be hit by the body stores that guard disarmed:
        // conservatively re-arm every such group, so its body checks
        // pay the full lookup until the preheader next runs.
        for (a, &rearm) in self.armed.iter_mut().zip(&self.rearm) {
            *a |= rearm;
        }
        rep.overhead.add(
            TimingVar::SoftwareUpdate,
            self.opts.timing.software_update_us,
        );
    }

    fn remove(&mut self, _m: &mut Machine, ba: u32, ea: u32, rep: &mut StrategyReport) {
        self.wms
            .remove_range(ba, ea)
            .expect("removed monitor was installed");
        rep.overhead.add(
            TimingVar::SoftwareUpdate,
            self.opts.timing.software_update_us,
        );
    }

    fn handle(
        &mut self,
        _m: &mut Machine,
        _debug: &DebugInfo,
        stop: StopReason,
        rep: &mut StrategyReport,
    ) -> Result<(), MachineError> {
        let StopReason::Chk(ev) = stop else {
            unreachable!("CodePatch received unexpected stop {stop:?}")
        };
        let t = &self.opts.timing;
        let (ba, ea) = (ev.addr, ev.addr + ev.len);
        if self.pred_dead.contains(&ev.pc) {
            // The write may well overlap a monitor, but the predicate
            // is provably false for every value this site can store:
            // no notification is possible, so the lookup is never paid.
            // (Predicates reading `hits` are never in this set — their
            // counter would be perturbed for other sites.)
            debug_assert!(
                self.pred.as_ref().is_some_and(|p| !p.predicate().eval(
                    ev.value,
                    ev.old,
                    0,
                    self.writers.writer_of(ev.pc)
                )),
                "pred-dead check at pc {:#x} would have fired for value {:#x}: unsound static predicate evaluation",
                ev.pc,
                ev.value
            );
            rep.counts.miss += 1;
            rep.pred_dead_skips += 1;
            return Ok(());
        }
        if self.elided.contains(&ev.pc) {
            // Statically proven unable to hit this plan's regions: the
            // write happens (a model miss) but the lookup is never paid.
            // In a real deployment the check would not even be emitted.
            debug_assert!(
                !self.wms.would_hit(ba, ea),
                "statically elided check at pc {:#x} would have hit [{ba:#x}, {ea:#x}): unsound write-safety classification",
                ev.pc
            );
            rep.counts.miss += 1;
            rep.elided_lookups += 1;
            return Ok(());
        }
        if let Some(&idx) = self.preheader.get(&ev.pc) {
            // Preliminary check: pure lookup, arms or disarms the
            // loop's body checks. Not a write — no hit/miss counted.
            rep.overhead
                .add(TimingVar::SoftwareLookup, t.software_lookup_us);
            rep.preheader_lookups += 1;
            self.armed[idx] = self.wms.would_hit(ba, ea);
            return Ok(());
        }
        if let Some(&idx) = self.body.get(&ev.pc) {
            if !self.armed[idx] {
                // The write still happens and is still a (model)
                // miss; the lookup cost is elided — that is the
                // optimization.
                debug_assert!(
                    !self.wms.would_hit(ba, ea),
                    "disarmed loop check would have hit: unsound arming"
                );
                rep.counts.miss += 1;
                if self.rearm[idx] {
                    rep.hoisted_lookups += 1;
                } else {
                    rep.skipped_lookups += 1;
                }
                return Ok(());
            }
        }
        rep.overhead
            .add(TimingVar::SoftwareLookup, t.software_lookup_us);
        if self.wms.check_write(ba, ea, ev.pc) {
            rep.counts.hit += 1;
            match self.pred.as_mut() {
                Some(pe) => {
                    // A candidate write: the predicate decides whether
                    // the notification is delivered. Filtered writes
                    // cost only the check they already paid.
                    if pe.observe(ev.value, ev.old, self.writers.writer_of(ev.pc)) {
                        rep.pred_fired += 1;
                        rep.notify(Notification { ba, ea, pc: ev.pc });
                    } else {
                        rep.pred_filtered += 1;
                    }
                }
                None => rep.notify(Notification { ba, ea, pc: ev.pc }),
            }
        } else {
            rep.counts.miss += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{NoMonitors, RangePlan};
    use databp_tinyc::{compile, Options};

    const SRC: &str = r#"
        int g;
        int h;
        int main() {
            int i;
            for (i = 0; i < 10; i = i + 1) g = g + 1;
            h = 3;
            return g + h;
        }
    "#;

    fn load(src: &str, opts: &Options) -> (Machine, DebugInfo) {
        let c = compile(src, opts).unwrap();
        let mut m = Machine::new();
        m.load(&c.program);
        (m, c.debug)
    }

    #[test]
    fn counts_match_trap_patch_semantics() {
        let (mut m, debug) = load(SRC, &Options::codepatch());
        let plan = RangePlan {
            globals: vec![0],
            ..RangePlan::default()
        };
        let rep = CodePatch::default()
            .run(&mut m, &debug, &plan, 10_000_000)
            .unwrap();
        assert_eq!(rep.counts.hit, 10);
        assert_eq!(rep.counts.miss, 12);
        assert_eq!(m.exit_code(), 13);
        let model = databp_models::overhead(Approach::Cp, &rep.counts, &TimingVars::default());
        assert!((rep.overhead.total_us() - model.total_us()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "compiled with Options::codepatch")]
    fn rejects_uninstrumented_program() {
        let (mut m, debug) = load(SRC, &Options::plain());
        let _ = CodePatch::default().run(&mut m, &debug, &NoMonitors, 10_000_000);
    }

    #[test]
    fn loopopt_elides_lookups_for_unmonitored_invariant_targets() {
        let (mut m, debug) = load(SRC, &Options::codepatch_loopopt());
        // Monitor nothing: every loop body check on g and i is disarmed.
        let rep = CodePatch::default()
            .run(&mut m, &debug, &NoMonitors, 10_000_000)
            .unwrap();
        assert!(
            rep.skipped_lookups > 0,
            "invariant-target checks were skipped"
        );
        assert!(rep.preheader_lookups > 0);
        assert_eq!(rep.counts.hit, 0);
        // Misses still counted (they are real writes).
        assert_eq!(rep.counts.miss, 22);
        // Charged lookups < total writes.
        let charged = rep.counts.writes() - rep.skipped_lookups + rep.preheader_lookups;
        let expected = charged as f64 * TimingVars::default().software_lookup_us;
        assert!((rep.overhead.total_us() - expected).abs() < 1e-6);
    }

    #[test]
    fn loopopt_still_notifies_when_monitored() {
        let (mut m, debug) = load(SRC, &Options::codepatch_loopopt());
        let plan = RangePlan {
            globals: vec![0],
            ..RangePlan::default()
        };
        let rep = CodePatch::default()
            .run(&mut m, &debug, &plan, 10_000_000)
            .unwrap();
        // All ten writes to g must still notify: the preheader armed the
        // loop for g.
        assert_eq!(rep.counts.hit, 10);
        assert_eq!(rep.notification_count, 10);
        // Checks on i (unmonitored, invariant) were skipped.
        assert!(rep.skipped_lookups > 0);
    }

    #[test]
    fn loopopt_matches_model_adjustment() {
        let (mut m, debug) = load(SRC, &Options::codepatch_loopopt());
        let plan = RangePlan {
            globals: vec![0],
            ..RangePlan::default()
        };
        let rep = CodePatch::default()
            .run(&mut m, &debug, &plan, 10_000_000)
            .unwrap();
        let model = databp_models::cp_loopopt_overhead(
            &rep.counts,
            rep.skipped_lookups,
            rep.preheader_lookups,
            &TimingVars::default(),
        );
        assert!((rep.overhead.total_us() - model.total_us()).abs() < 1e-6);
    }

    fn safety(src: &str, debug: &DebugInfo) -> Arc<WriteSafety> {
        let hir = databp_tinyc::lower(src).unwrap();
        Arc::new(databp_analysis::analyze_writes(&hir, debug))
    }

    #[test]
    fn staticopt_elides_stack_checks_under_global_plan() {
        let (mut m, debug) = load(SRC, &Options::codepatch());
        let ws = safety(SRC, &debug);
        let plan = RangePlan {
            globals: vec![0],
            ..RangePlan::default()
        };
        let rep = CodePatch::with_staticopt(ws)
            .run(&mut m, &debug, &plan, 10_000_000)
            .unwrap();
        // Notification behavior identical to plain CodePatch...
        assert_eq!(rep.counts.hit, 10);
        assert_eq!(rep.notification_count, 10);
        assert_eq!(rep.counts.miss, 12);
        // ...but the 11 stack stores (i = 0 and ten i = i + 1) pay no
        // lookup.
        assert_eq!(rep.elided_lookups, 11);
        let model = databp_models::cp_staticopt_overhead(
            &rep.counts,
            rep.elided_lookups,
            &TimingVars::default(),
        );
        assert!((rep.overhead.total_us() - model.total_us()).abs() < 1e-6);
    }

    #[test]
    fn staticopt_elides_everything_for_no_monitors() {
        let (mut m, debug) = load(SRC, &Options::codepatch());
        let ws = safety(SRC, &debug);
        let rep = CodePatch::with_staticopt(ws)
            .run(&mut m, &debug, &NoMonitors, 10_000_000)
            .unwrap();
        // Every store in SRC has a provable region, and NoMonitors
        // covers none of them.
        assert_eq!(rep.elided_lookups, rep.counts.writes());
        assert_eq!(rep.overhead.total_us(), 0.0);
    }

    #[test]
    fn staticopt_keeps_checks_the_plan_may_hit() {
        let (mut m, debug) = load(SRC, &Options::codepatch());
        let ws = safety(SRC, &debug);
        let plan = RangePlan {
            globals: vec![0],
            locals: vec![(0, 0)],
            ..RangePlan::default()
        };
        let rep = CodePatch::with_staticopt(ws)
            .run(&mut m, &debug, &plan, 10_000_000)
            .unwrap();
        // Plan covers stack and global regions: nothing elides.
        assert_eq!(rep.elided_lookups, 0);
        let baseline = {
            let (mut m2, d2) = load(SRC, &Options::codepatch());
            CodePatch::default()
                .run(&mut m2, &d2, &plan, 10_000_000)
                .unwrap()
        };
        assert_eq!(rep.counts.hit, baseline.counts.hit);
        assert_eq!(rep.notification_count, baseline.notification_count);
        assert!((rep.overhead.total_us() - baseline.overhead.total_us()).abs() < 1e-6);
    }

    const PTR_SRC: &str = r#"
        int g;
        int main() {
            int i; int s;
            int *p;
            int a[4];
            p = a;
            s = 0;
            for (i = 0; i < 10; i = i + 1) {
                *p = i;
                s = s + *p;
                g = s;
            }
            return s + g + a[0];
        }
    "#;

    #[test]
    fn ssa_hoists_skip_pointer_checks_when_unmonitored() {
        let (mut m, debug) = load(PTR_SRC, &Options::codepatch_ssa());
        assert!(!debug.hoists.is_empty());
        let rep = CodePatch::default()
            .run(&mut m, &debug, &NoMonitors, 10_000_000)
            .unwrap();
        assert!(rep.hoisted_lookups > 0, "hoisted body checks were skipped");
        assert!(rep.preheader_lookups > 0);
        assert_eq!(rep.skipped_lookups, 0, "no Section 9 groups in this build");
        assert_eq!(rep.counts.hit, 0);
        // Charged lookups match the loopopt-shaped model with the
        // hoisted count in the skipped slot.
        let model = databp_models::cp_loopopt_overhead(
            &rep.counts,
            rep.hoisted_lookups,
            rep.preheader_lookups,
            &TimingVars::default(),
        );
        assert!((rep.overhead.total_us() - model.total_us()).abs() < 1e-6);
    }

    #[test]
    fn ssa_hoists_still_notify_when_monitored() {
        let plan = RangePlan {
            globals: vec![0],
            ..RangePlan::default()
        };
        let (mut m, debug) = load(PTR_SRC, &Options::codepatch_ssa());
        let rep = CodePatch::default()
            .run(&mut m, &debug, &plan, 10_000_000)
            .unwrap();
        let baseline = {
            let (mut m2, d2) = load(PTR_SRC, &Options::codepatch());
            CodePatch::default()
                .run(&mut m2, &d2, &plan, 10_000_000)
                .unwrap()
        };
        // Monitor visibility identical to the unhoisted build...
        assert_eq!(rep.counts.hit, baseline.counts.hit);
        assert_eq!(rep.notification_count, baseline.notification_count);
        assert_eq!(
            rep.notifications
                .iter()
                .map(|n| (n.ba, n.ea))
                .collect::<Vec<_>>(),
            baseline
                .notifications
                .iter()
                .map(|n| (n.ba, n.ea))
                .collect::<Vec<_>>()
        );
        // ...while the unmonitored invariant targets skip lookups.
        assert!(rep.hoisted_lookups > 0);
    }

    #[test]
    fn ssa_hoists_compose_with_staticopt() {
        let (mut m, debug) = load(PTR_SRC, &Options::codepatch_ssa());
        let ws = safety(PTR_SRC, &debug);
        let plan = RangePlan {
            globals: vec![0],
            ..RangePlan::default()
        };
        let rep = CodePatch::with_staticopt(ws)
            .run(&mut m, &debug, &plan, 10_000_000)
            .unwrap();
        let baseline = {
            let (mut m2, d2) = load(PTR_SRC, &Options::codepatch());
            CodePatch::default()
                .run(&mut m2, &d2, &plan, 10_000_000)
                .unwrap()
        };
        assert_eq!(rep.counts.hit, baseline.counts.hit);
        assert_eq!(rep.notification_count, baseline.notification_count);
        // Static elision takes the stack stores; the hoist groups can
        // only skip what elision left behind.
        assert!(rep.elided_lookups > 0);
        let model = databp_models::cp_ssaopt_overhead(
            &rep.counts,
            rep.elided_lookups,
            rep.hoisted_lookups,
            rep.preheader_lookups,
            &TimingVars::default(),
        );
        assert!((rep.overhead.total_us() - model.total_us()).abs() < 1e-6);
    }

    fn pred(src: &str, debug: &DebugInfo) -> crate::predicate::CompiledPredicate {
        crate::predicate::Predicate::parse(src)
            .unwrap()
            .compile(|n| debug.func_id(n))
            .unwrap()
    }

    #[test]
    fn predicate_filters_notifications_by_value() {
        let (mut m, debug) = load(SRC, &Options::codepatch());
        let plan = RangePlan {
            globals: vec![0],
            ..RangePlan::default()
        };
        let rep = CodePatch::default()
            .with_predicate(pred("value > 5", &debug))
            .run(&mut m, &debug, &plan, 10_000_000)
            .unwrap();
        // g counts 1..=10; only 6..=10 pass the predicate.
        assert_eq!(rep.counts.hit, 10, "candidates are still WMS hits");
        assert_eq!(rep.notification_count, 5);
        assert_eq!(rep.pred_fired, 5);
        assert_eq!(rep.pred_filtered, 5);
        assert_eq!(rep.pred_dead_skips, 0);
        // Filtered writes still paid their lookup: overhead unchanged.
        let model = databp_models::overhead(Approach::Cp, &rep.counts, &TimingVars::default());
        assert!((rep.overhead.total_us() - model.total_us()).abs() < 1e-6);
    }

    #[test]
    fn hits_predicate_counts_candidates_in_order() {
        let (mut m, debug) = load(SRC, &Options::codepatch());
        let plan = RangePlan {
            globals: vec![0, 1],
            ..RangePlan::default()
        };
        let rep = CodePatch::default()
            .with_predicate(pred("hits % 2 == 0", &debug))
            .run(&mut m, &debug, &plan, 10_000_000)
            .unwrap();
        // 11 candidates (ten g writes + h = 3); the even ones fire.
        assert_eq!(rep.counts.hit, 11);
        assert_eq!(rep.pred_fired, 5);
        assert_eq!(rep.pred_filtered, 6);
    }

    #[test]
    fn old_predicate_sees_overwritten_values() {
        let (mut m, debug) = load(SRC, &Options::codepatch());
        let plan = RangePlan {
            globals: vec![0],
            ..RangePlan::default()
        };
        // g = g + 1 always satisfies value == old + 1; h = 3 over 0 does
        // not.
        let plan_all = RangePlan {
            globals: vec![0, 1],
            ..plan
        };
        let rep = CodePatch::default()
            .with_predicate(pred("value == old + 1", &debug))
            .run(&mut m, &debug, &plan_all, 10_000_000)
            .unwrap();
        assert_eq!(rep.counts.hit, 11);
        assert_eq!(rep.pred_fired, 10);
        assert_eq!(rep.pred_filtered, 1);
    }

    const WRITER_SRC: &str = r#"
        int g;
        int put(int k) { g = k; return 0; }
        int main() {
            int i;
            for (i = 0; i < 4; i = i + 1) g = i;
            put(9);
            put(11);
            return g;
        }
    "#;

    #[test]
    fn writer_filter_is_statically_dead_at_other_sites() {
        let (mut m, debug) = load(WRITER_SRC, &Options::codepatch());
        let plan = RangePlan {
            globals: vec![0],
            ..RangePlan::default()
        };
        let rep = CodePatch::default()
            .with_predicate(pred("writer in put", &debug))
            .run(&mut m, &debug, &plan, 10_000_000)
            .unwrap();
        // Only put's two stores notify; every main-side check is
        // statically dead for this predicate without any staticopt.
        assert_eq!(rep.notification_count, 2);
        assert_eq!(rep.pred_fired, 2);
        assert!(rep.pred_dead_skips > 0, "main's checks skip the lookup");
        assert_eq!(rep.pred_filtered, 0, "no dynamic filtering needed");
    }

    const PRED_DEAD_SRC: &str = r#"
        int g;
        int main() {
            int x;
            int i;
            for (i = 0; i < 5; i = i + 1) { g = 7; }
            x = 3;
            g = 20;
            return x;
        }
    "#;

    /// Satellite regression: a site that is both write-safety elidable
    /// and predicate-dead is accounted exactly once — under
    /// `pred_dead_skips`, never under `elided_lookups` (or
    /// `hoisted_lookups`).
    #[test]
    fn pred_dead_and_elision_count_each_check_exactly_once() {
        let plan = RangePlan {
            globals: vec![0],
            ..RangePlan::default()
        };
        let p = "value > 10";

        // Baseline: staticopt alone elides the three stack stores
        // (i = 0, five i = i + 1, x = 3 → 7 checks).
        let (mut m, debug) = load(PRED_DEAD_SRC, &Options::codepatch());
        let ws = safety(PRED_DEAD_SRC, &debug);
        let base = CodePatch::with_staticopt(Arc::clone(&ws))
            .run(&mut m, &debug, &plan, 10_000_000)
            .unwrap();
        assert_eq!(base.elided_lookups, 7);

        // staticopt + predicate: `x = 3` and `i = 0` (constant stores
        // that cannot satisfy value > 10) and the five `g = 7` stores
        // move to the pred-dead bucket; only the non-constant
        // `i = i + 1` checks stay classically elided.
        let (mut m2, d2) = load(PRED_DEAD_SRC, &Options::codepatch());
        let rep = CodePatch::with_staticopt(ws)
            .with_predicate(pred(p, &d2))
            .run(&mut m2, &d2, &plan, 10_000_000)
            .unwrap();
        assert_eq!(rep.pred_dead_skips, 7, "i=0, five g=7, x=3");
        assert_eq!(rep.elided_lookups, 5, "five i=i+1 checks");
        assert_eq!(rep.hoisted_lookups, 0);
        // Every traced store is in exactly one bucket: pred-dead (7),
        // elided (5), or looked up (1, the g = 20 store).
        assert_eq!(rep.counts.writes(), 13);
        assert_eq!(
            rep.counts.writes() - rep.pred_dead_skips - rep.elided_lookups,
            1
        );
        assert_eq!(rep.counts.hit, 1, "only g = 20 pays and hits the lookup");
        // And notification behavior is unchanged by the accounting:
        // only g = 20 fires.
        assert_eq!(rep.notification_count, 1);
        assert_eq!(rep.pred_fired, 1);

        // The same predicate without staticopt reaches the same
        // notifications dynamically (no value constants available).
        let (mut m3, d3) = load(PRED_DEAD_SRC, &Options::codepatch());
        let dynamic = CodePatch::default()
            .with_predicate(pred(p, &d3))
            .run(&mut m3, &d3, &plan, 10_000_000)
            .unwrap();
        assert_eq!(dynamic.notification_count, 1);
        assert_eq!(dynamic.pred_dead_skips, 0);
        assert_eq!(dynamic.pred_filtered, 5, "five g = 7 candidates");
    }

    #[test]
    fn hits_predicates_are_never_statically_dead() {
        let plan = RangePlan {
            globals: vec![0],
            ..RangePlan::default()
        };
        let (mut m, debug) = load(PRED_DEAD_SRC, &Options::codepatch());
        let ws = safety(PRED_DEAD_SRC, &debug);
        let rep = CodePatch::with_staticopt(ws)
            .with_predicate(pred("value > 10 && hits >= 1", &debug))
            .run(&mut m, &debug, &plan, 10_000_000)
            .unwrap();
        // The stack stores stay elided (write-safety is orthogonal),
        // but nothing is pred-dead: the hits counter must observe every
        // candidate.
        assert_eq!(rep.pred_dead_skips, 0);
        assert_eq!(rep.elided_lookups, 7);
        assert_eq!(rep.counts.hit, 6, "all six g writes are candidates");
        assert_eq!(rep.notification_count, 1);
    }

    #[test]
    fn zero_monitor_cp_still_pays_per_write() {
        let (mut m, debug) = load(SRC, &Options::codepatch());
        let rep = CodePatch::default()
            .run(&mut m, &debug, &NoMonitors, 10_000_000)
            .unwrap();
        assert_eq!(rep.counts.miss, 22);
        assert_eq!(
            rep.overhead.total_us(),
            22.0 * TimingVars::default().software_lookup_us
        );
    }
}
