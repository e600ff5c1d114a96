//! VirtualMemory: page protection + write-fault handler (Section 3.2,
//! Figure 4).

use super::{drive, Mechanism};
use crate::monitor::Notification;
use crate::plan::MonitorPlan;
use crate::predicate::{CompiledPredicate, PredEval, WriterMap};
use crate::service::Wms;
use crate::strategy::report::StrategyReport;
use databp_machine::{Machine, MachineError, NoHooks, PageSize, StopConfig, StopReason};
use databp_models::{Approach, TimingVar, TimingVars};
use databp_tinyc::DebugInfo;
use std::collections::HashMap;

/// How the VirtualMemory fault handler continues past the faulting store
/// (Section 3.2 describes both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VmContinuation {
    /// "An alternative is for the WMS to emulate the faulting
    /// instruction." — perform the store in the handler, leaving the page
    /// protected throughout.
    #[default]
    Emulate,
    /// "This may be accomplished by unprotecting the necessary pages,
    /// single-stepping the program, and reprotecting the pages." — the
    /// control flow the paper's Appendix A.2 microbenchmark actually
    /// times.
    StepReprotect,
}

/// The VirtualMemory strategy.
///
/// Installing a monitor write-protects every page it touches; a store to
/// a protected page faults, the handler looks the address up in the
/// software map, notifies on a hit, and continues past the faulting
/// instruction by one of the two Section 3.2 mechanisms
/// ([`VmContinuation`]; both are folded into the measured
/// `VMFaultHandlerτ`, so they cost the same and must behave the same).
/// Writes that share a page with a monitor but miss it —
/// `VMActivePageMissσ` — pay the full fault cost anyway, which is where
/// this strategy's pathological sessions come from.
#[derive(Debug, Clone, Copy)]
pub struct VirtualMemory {
    /// MMU page size (the paper studies 4 KiB and 8 KiB).
    pub page_size: PageSize,
    /// Fault continuation mechanism.
    pub continuation: VmContinuation,
    /// Primitive costs.
    pub timing: TimingVars,
}

impl VirtualMemory {
    /// VM-4K.
    pub fn k4() -> Self {
        VirtualMemory {
            page_size: PageSize::K4,
            continuation: VmContinuation::default(),
            timing: TimingVars::default(),
        }
    }

    /// VM-8K.
    pub fn k8() -> Self {
        VirtualMemory {
            page_size: PageSize::K8,
            continuation: VmContinuation::default(),
            timing: TimingVars::default(),
        }
    }

    /// The same strategy using the unprotect/single-step/reprotect
    /// continuation.
    pub fn with_continuation(mut self, c: VmContinuation) -> Self {
        self.continuation = c;
        self
    }

    fn approach(&self) -> Approach {
        // The paper's analytical models only distinguish VM-4K and
        // VM-8K; executable runs at the ladder's coarser page sizes
        // report under the nearest modeled approach.
        match self.page_size {
            PageSize::K4 => Approach::Vm4k,
            _ => Approach::Vm8k,
        }
    }

    /// Runs a freshly loaded machine under this strategy.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`] from the run.
    pub fn run(
        &self,
        machine: &mut Machine,
        debug: &DebugInfo,
        plan: &dyn MonitorPlan,
        max_steps: u64,
    ) -> Result<StrategyReport, MachineError> {
        self.run_with_predicate(machine, debug, plan, None, max_steps)
    }

    /// Like [`VirtualMemory::run`], with an optional monitor predicate:
    /// faulting writes that hit a monitor notify only when the predicate
    /// holds (the fault and lookup costs are paid either way — a page
    /// fault cannot be elided statically). The predicate must be
    /// compiled against the same program.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`] from the run.
    pub fn run_with_predicate(
        &self,
        machine: &mut Machine,
        debug: &DebugInfo,
        plan: &dyn MonitorPlan,
        predicate: Option<CompiledPredicate>,
        max_steps: u64,
    ) -> Result<StrategyReport, MachineError> {
        let writers = WriterMap::from_debug(debug);
        let mut mech = VmMech {
            opts: *self,
            wms: Wms::new(),
            page_counts: HashMap::new(),
            pred: predicate.map(PredEval::new),
            writers,
        };
        let mut rep = drive(
            &mut mech,
            machine,
            debug,
            plan,
            max_steps,
            StrategyReport::new(self.approach()),
        )?;
        rep.wms_counters = mech.wms.counters();
        Ok(rep)
    }
}

struct VmMech {
    opts: VirtualMemory,
    wms: Wms,
    /// Active monitor count per MMU page.
    page_counts: HashMap<u32, u32>,
    /// The session predicate's stateful evaluator.
    pred: Option<PredEval>,
    /// pc → owning function, for `writer in f` filters.
    writers: WriterMap,
}

impl Mechanism for VmMech {
    fn stop_config(&self) -> StopConfig {
        StopConfig::default()
    }

    fn prepare(&mut self, m: &mut Machine, _debug: &DebugInfo) -> Result<(), MachineError> {
        m.set_page_size(self.opts.page_size);
        Ok(())
    }

    fn install(&mut self, m: &mut Machine, ba: u32, ea: u32, rep: &mut StrategyReport) {
        let t = &self.opts.timing;
        self.wms
            .install(ba, ea)
            .expect("tracker ranges are non-empty");
        // Figure 4: toggling the (read-only) WMS data page around the
        // update, plus protecting pages that newly gained a monitor.
        rep.overhead.add(TimingVar::VmUnprotect, t.vm_unprotect_us);
        rep.overhead
            .add(TimingVar::SoftwareUpdate, t.software_update_us);
        rep.overhead.add(TimingVar::VmProtect, t.vm_protect_us);
        for page in self.opts.page_size.pages_of_range(ba, ea) {
            let cnt = self.page_counts.entry(page).or_insert(0);
            *cnt += 1;
            if *cnt == 1 {
                rep.counts.vm_protect += 1;
                rep.overhead.add(TimingVar::VmProtect, t.vm_protect_us);
                m.mmu_mut().protect_page(page);
            }
        }
    }

    fn remove(&mut self, m: &mut Machine, ba: u32, ea: u32, rep: &mut StrategyReport) {
        let t = &self.opts.timing;
        self.wms
            .remove_range(ba, ea)
            .expect("removed monitor was installed");
        rep.overhead.add(TimingVar::VmUnprotect, t.vm_unprotect_us);
        rep.overhead
            .add(TimingVar::SoftwareUpdate, t.software_update_us);
        rep.overhead.add(TimingVar::VmProtect, t.vm_protect_us);
        for page in self.opts.page_size.pages_of_range(ba, ea) {
            let cnt = self
                .page_counts
                .get_mut(&page)
                .expect("removal of monitor whose pages were counted");
            *cnt -= 1;
            if *cnt == 0 {
                self.page_counts.remove(&page);
                rep.counts.vm_unprotect += 1;
                rep.overhead.add(TimingVar::VmUnprotect, t.vm_unprotect_us);
                m.mmu_mut().unprotect_page(page);
            }
        }
    }

    fn handle(
        &mut self,
        m: &mut Machine,
        debug: &DebugInfo,
        stop: StopReason,
        rep: &mut StrategyReport,
    ) -> Result<(), MachineError> {
        match stop {
            StopReason::ProtFault(f) => {
                if !debug.is_untraced_store(f.pc) {
                    let t = &self.opts.timing;
                    rep.overhead.add(TimingVar::VmFaultHandler, t.vm_fault_us);
                    rep.overhead
                        .add(TimingVar::SoftwareLookup, t.software_lookup_us);
                    if self.wms.check_write(f.addr, f.addr + f.len, f.pc) {
                        rep.counts.hit += 1;
                        // The fault is pre-commit: the Fault's masked
                        // value/old pair is exactly what the write will
                        // make true, matching what CodePatch's check
                        // observes at its chk.
                        let ev = f.store_event();
                        let fire = match self.pred.as_mut() {
                            Some(pe) => {
                                let fire =
                                    pe.observe(ev.value, ev.old, self.writers.writer_of(f.pc));
                                if fire {
                                    rep.pred_fired += 1;
                                } else {
                                    rep.pred_filtered += 1;
                                }
                                fire
                            }
                            None => true,
                        };
                        if fire {
                            rep.notify(Notification {
                                ba: f.addr,
                                ea: f.addr + f.len,
                                pc: f.pc,
                            });
                        }
                    } else {
                        rep.counts.vm_active_page_miss += 1;
                    }
                }
                // Continue past the faulting store (implicit stores are
                // serviced for free, matching the paper's exclusion of
                // register spills from the study).
                match self.opts.continuation {
                    VmContinuation::Emulate => {
                        m.emulate_pending_store(&mut NoHooks)?;
                    }
                    VmContinuation::StepReprotect => {
                        let ps = self.opts.page_size;
                        let protected: Vec<u32> = ps
                            .pages_of_range(f.addr, f.addr + f.len)
                            .filter(|&p| m.mmu().is_protected(p))
                            .collect();
                        for &p in &protected {
                            m.mmu_mut().unprotect_page(p);
                        }
                        // Single step: re-executes the (now permitted)
                        // faulting store and advances past it.
                        let stop = m.step(&mut NoHooks)?;
                        debug_assert!(stop.is_none(), "single step must not re-fault: {stop:?}");
                        for &p in &protected {
                            m.mmu_mut().protect_page(p);
                        }
                    }
                }
                Ok(())
            }
            other => unreachable!("VirtualMemory received unexpected stop {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RangePlan;
    use databp_tinyc::{compile, Options};

    const SRC: &str = r#"
        int g;
        int h;
        int main() {
            int i;
            for (i = 0; i < 10; i = i + 1) g = g + 1;
            for (i = 0; i < 5; i = i + 1) h = h + 1;
            return g + h;
        }
    "#;

    fn load(src: &str) -> (Machine, DebugInfo) {
        let c = compile(src, &Options::plain()).unwrap();
        let mut m = Machine::new();
        m.load(&c.program);
        (m, c.debug)
    }

    #[test]
    fn predicate_filters_vm_notifications_and_agrees_with_cp() {
        let plan = RangePlan {
            globals: vec![0],
            ..RangePlan::default()
        };
        let pred = |d: &DebugInfo| {
            crate::predicate::Predicate::parse("value > 5")
                .unwrap()
                .compile(|n| d.func_id(n))
                .unwrap()
        };
        let (mut m, debug) = load(SRC);
        let rep = VirtualMemory::k4()
            .run_with_predicate(&mut m, &debug, &plan, Some(pred(&debug)), 10_000_000)
            .unwrap();
        // g counts 1..=10; only 6..=10 pass. Filtered candidates still
        // count as WMS hits and still pay the fault + lookup.
        assert_eq!(rep.counts.hit, 10);
        assert_eq!(rep.pred_fired, 5);
        assert_eq!(rep.pred_filtered, 5);
        assert_eq!(rep.notification_count, 5);

        // CodePatch under the same predicate delivers the same
        // notification sequence (same addresses, same order) even
        // though its checks observe the value at the chk instead of at
        // a protection fault.
        let c = compile(SRC, &Options::codepatch()).unwrap();
        let mut m2 = Machine::new();
        m2.load(&c.program);
        let cp = crate::strategy::CodePatch::default()
            .with_predicate(pred(&c.debug))
            .run(&mut m2, &c.debug, &plan, 10_000_000)
            .unwrap();
        let vm_seq: Vec<(u32, u32)> = rep.notifications.iter().map(|n| (n.ba, n.ea)).collect();
        let cp_seq: Vec<(u32, u32)> = cp.notifications.iter().map(|n| (n.ba, n.ea)).collect();
        assert_eq!(vm_seq, cp_seq);
        assert_eq!(rep.pred_fired, cp.pred_fired);
        assert_eq!(rep.pred_filtered, cp.pred_filtered);
    }

    #[test]
    fn hits_and_active_page_misses() {
        let (mut m, debug) = load(SRC);
        // Monitor only g; h lives on the same data page, so its writes
        // are active-page misses.
        let plan = RangePlan {
            globals: vec![0],
            ..RangePlan::default()
        };
        let rep = VirtualMemory::k4()
            .run(&mut m, &debug, &plan, 10_000_000)
            .unwrap();
        assert_eq!(rep.counts.hit, 10);
        assert_eq!(
            rep.counts.vm_active_page_miss, 5,
            "writes to h share g's page"
        );
        assert_eq!(rep.counts.vm_protect, 1);
        assert_eq!(rep.counts.vm_unprotect, 1);
        assert_eq!(m.exit_code(), 15, "emulation preserves program results");
    }

    #[test]
    fn stack_writes_on_monitored_local_page() {
        // Monitoring a local write-protects its stack page; sibling
        // locals' writes become active-page misses.
        let src = r#"
            int main() {
                int watched; int other; int i;
                watched = 0; other = 0;
                for (i = 0; i < 8; i = i + 1) other = other + 1;
                watched = other;
                return watched;
            }
        "#;
        let (mut m, debug) = load(src);
        let plan = RangePlan {
            locals: vec![(0, 0)],
            ..RangePlan::default()
        };
        let rep = VirtualMemory::k4()
            .run(&mut m, &debug, &plan, 10_000_000)
            .unwrap();
        assert_eq!(rep.counts.hit, 2, "two writes to `watched`");
        // other=0, i=0, 8 increments of other, 8 of i => 18 misses on
        // the same stack page.
        assert_eq!(rep.counts.vm_active_page_miss, 18);
        assert_eq!(m.exit_code(), 8);
    }

    #[test]
    fn page_size_changes_active_page_misses() {
        // Two globals far apart: with 4K pages they are on different
        // pages; with 8K pages they share one.
        let src = r#"
            int g;
            int pad[1300];
            int h;
            int main() {
                int i;
                for (i = 0; i < 6; i = i + 1) h = h + 1;
                g = 1;
                return h;
            }
        "#;
        let (mut m4, debug) = load(src);
        let plan = RangePlan {
            globals: vec![0],
            ..RangePlan::default()
        };
        let r4 = VirtualMemory::k4()
            .run(&mut m4, &debug, &plan, 10_000_000)
            .unwrap();
        let (mut m8, _) = load(src);
        let r8 = VirtualMemory::k8()
            .run(&mut m8, &debug, &plan, 10_000_000)
            .unwrap();
        assert_eq!(r4.counts.hit, 1);
        assert_eq!(r8.counts.hit, 1);
        assert_eq!(
            r4.counts.vm_active_page_miss, 0,
            "h is ~5KB away: other 4K page"
        );
        assert_eq!(r8.counts.vm_active_page_miss, 6, "h shares g's 8K page");
    }

    #[test]
    fn both_continuations_agree_exactly() {
        // Section 3.2's two continuation mechanisms must produce the
        // same counts, the same charged overhead, and the same program
        // results; only the machinery differs.
        let plan = RangePlan {
            globals: vec![0],
            locals: vec![(0, 0)],
            ..RangePlan::default()
        };
        let (mut m1, debug) = load(SRC);
        let emu = VirtualMemory::k4()
            .run(&mut m1, &debug, &plan, 10_000_000)
            .unwrap();
        let (mut m2, _) = load(SRC);
        let step = VirtualMemory::k4()
            .with_continuation(VmContinuation::StepReprotect)
            .run(&mut m2, &debug, &plan, 10_000_000)
            .unwrap();
        assert_eq!(emu.counts, step.counts);
        assert_eq!(emu.notification_count, step.notification_count);
        assert!((emu.overhead.total_us() - step.overhead.total_us()).abs() < 1e-9);
        assert_eq!(m1.exit_code(), m2.exit_code());
        assert_eq!(m1.cpu().pc(), m2.cpu().pc());
        // After the run all protections were torn down symmetrically.
        assert!(m1.mmu().nothing_protected());
        assert!(m2.mmu().nothing_protected());
    }

    #[test]
    fn overhead_matches_figure_4_equation() {
        let (mut m, debug) = load(SRC);
        let plan = RangePlan {
            globals: vec![0],
            ..RangePlan::default()
        };
        let rep = VirtualMemory::k4()
            .run(&mut m, &debug, &plan, 10_000_000)
            .unwrap();
        let model = databp_models::overhead(Approach::Vm4k, &rep.counts, &TimingVars::default());
        assert!(
            (rep.overhead.total_us() - model.total_us()).abs() < 1e-6,
            "exec {} vs model {}",
            rep.overhead.total_us(),
            model.total_us()
        );
    }
}
