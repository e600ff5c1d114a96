//! Static write-safety check elision, measured by executing CodePatch
//! plain, with the Section 9 loop optimization, and with the
//! `databp-analysis` static pass — and *verified* by the replay oracle.
//!
//! The paper stops at the loop optimization sketch; modern
//! instrumentation systems (Whamm, non-intrusive Wasm instrumentation)
//! go further and specialize probes from a static analysis of the
//! program. This table reports what that buys on the paper's workloads:
//! per workload × session, how many stores each variant actually checks
//! and the modeled relative overhead. Every staticopt run is
//! cross-checked: the elided store set is replayed against the full
//! trace for *all* enumerated sessions, and any elided store that
//! overlaps a live monitor aborts the harness.

use crate::pipeline::WorkloadResults;
use crate::render::{fmt_pct, fmt_rel, TextTable};
use databp_analysis::{analyze_writes, WriteSafety};
use databp_core::{CodePatch, MonitorPlan, NoMonitors};
use databp_machine::Machine;
use databp_sessions::{SessionPlan, SessionSet};
use databp_sim::verify_elided_stores;
use databp_tinyc::lower;
use std::sync::Arc;

/// One measured comparison row.
#[derive(Debug, Clone)]
pub struct StaticOptRow {
    /// Workload name.
    pub workload: String,
    /// Session description (or "(no monitors)").
    pub session: String,
    /// Plain CodePatch relative overhead.
    pub cp: f64,
    /// CodePatch + Section 9 loop optimization relative overhead.
    pub cp_loopopt: f64,
    /// CodePatch + static write-safety elision relative overhead.
    pub cp_staticopt: f64,
    /// Dynamic stores checked by plain CodePatch (every traced write).
    pub checked_cp: u64,
    /// Dynamic stores checked with the loop optimization.
    pub checked_loopopt: u64,
    /// Dynamic stores checked with static elision + SSA hoisting.
    pub checked_staticopt: u64,
    /// Dynamic store checks elided by the static pass.
    pub elided: u64,
    /// Dynamic store checks skipped by a dominating preheader guard
    /// (SSA hoist groups).
    pub hoisted: u64,
    /// Notifications (identical across all three variants — soundness).
    pub notifications: u64,
}

impl StaticOptRow {
    /// Fraction of plain-CP checks the optimized variant never pays:
    /// statically elided plus dominator-hoisted, over every traced
    /// write.
    pub fn elision_rate(&self) -> f64 {
        if self.checked_cp == 0 {
            0.0
        } else {
            (self.elided + self.hoisted) as f64 / self.checked_cp as f64
        }
    }
}

/// Which CodePatch variant to run.
#[derive(Debug, Clone, Copy)]
enum Variant {
    Plain,
    LoopOpt,
    StaticOpt,
}

fn run_cp(
    r: &WorkloadResults,
    plan: &dyn MonitorPlan,
    variant: Variant,
    safety: &Arc<WriteSafety>,
) -> databp_core::StrategyReport {
    let build = match variant {
        Variant::LoopOpt => r.prepared.codepatch_loopopt(),
        // The static variant runs the SSA build: its preheader guards
        // carry the dominator-hoisting groups the plan exploits.
        Variant::StaticOpt => r.prepared.codepatch_ssa(),
        Variant::Plain => r.prepared.codepatch(),
    };
    let mut m = Machine::new();
    m.load(&build.program);
    m.set_args(r.prepared.workload.args.clone());
    let strat = match variant {
        Variant::Plain | Variant::LoopOpt => CodePatch::default(),
        Variant::StaticOpt => CodePatch::with_staticopt(Arc::clone(safety)),
    };
    strat
        .run(
            &mut m,
            &build.debug,
            plan,
            r.prepared.workload.max_steps * 2,
        )
        .expect("CodePatch run failed")
}

/// Replays the workload trace and asserts that every store the static
/// pass elides for any enumerated session never overlapped that
/// session's live monitors.
///
/// # Panics
///
/// Panics with the oracle's [`databp_sim::ElisionViolation`] if any
/// elision was unsound — a wrong classification is a hard failure, not a
/// silently wrong table.
fn verify_soundness(r: &WorkloadResults, plain_safety: &WriteSafety) {
    let debug = &r.prepared.plain.debug;
    let set = SessionSet::new(r.sessions.clone(), debug, &r.prepared.trace);
    let elided: Vec<Vec<u32>> = set
        .sessions()
        .iter()
        .map(|&s| plain_safety.elided_store_pcs(SessionPlan::new(s, debug).plan_class()))
        .collect();
    if let Err(v) = verify_elided_stores(&r.prepared.trace, &set, &elided) {
        panic!(
            "write-safety soundness violation in workload {}: {v}",
            r.prepared.workload.name
        );
    }
}

/// Measures CP vs CP+loopopt vs CP+staticopt for one workload: the
/// no-monitor case plus the `samples` highest-hit sessions. Runs the
/// replay soundness oracle over every enumerated session first.
pub fn measure(r: &WorkloadResults, samples: usize) -> Vec<StaticOptRow> {
    let hir = lower(r.prepared.workload.source).expect("workload compiles");
    // The same sites in the same order across builds: the plain build's
    // analysis feeds the trace-pc oracle, the SSA build's feeds the
    // strategy (its chk pcs account for the inserted preheader guards).
    let plain_safety = analyze_writes(&hir, &r.prepared.plain.debug);
    let ssa_safety = Arc::new(analyze_writes(&hir, &r.prepared.codepatch_ssa().debug));
    verify_soundness(r, &plain_safety);

    let mut rows = Vec::new();
    let mut push_row = |plan: &dyn MonitorPlan, session: String| {
        let base = run_cp(r, plan, Variant::Plain, &ssa_safety);
        let lopt = run_cp(r, plan, Variant::LoopOpt, &ssa_safety);
        let sopt = run_cp(r, plan, Variant::StaticOpt, &ssa_safety);
        assert_eq!(
            base.notification_count, sopt.notification_count,
            "static elision must not lose notifications for {session}"
        );
        // The address sequences must agree too (pcs differ across
        // builds; the monitored writes do not) — this dynamically
        // validates every hoist group the run exercised.
        assert_eq!(
            base.notifications
                .iter()
                .map(|n| (n.ba, n.ea))
                .collect::<Vec<_>>(),
            sopt.notifications
                .iter()
                .map(|n| (n.ba, n.ea))
                .collect::<Vec<_>>(),
            "static elision must notify the same writes for {session}"
        );
        assert_eq!(
            base.notification_count, lopt.notification_count,
            "loop optimization must not lose notifications for {session}"
        );
        // Corpus-level effectiveness counters: each traced store counts
        // once (the plain-CP run), against what the optimized variant
        // removed; (elided + hoisted) / base is the TOTAL row's rate,
        // readable from any `--telemetry` snapshot. The `cp.stores_*`
        // counters also absorb the comparison's baseline runs, which by
        // construction elide nothing.
        let reg = databp_telemetry::global();
        reg.counter("staticopt.stores_base")
            .add_always(base.counts.writes());
        reg.counter("staticopt.stores_elided")
            .add_always(sopt.elided_lookups);
        reg.counter("staticopt.stores_hoisted")
            .add_always(sopt.hoisted_lookups);
        rows.push(StaticOptRow {
            workload: r.prepared.workload.name.to_string(),
            session,
            cp: base.relative_overhead(),
            cp_loopopt: lopt.relative_overhead(),
            cp_staticopt: sopt.relative_overhead(),
            checked_cp: base.counts.writes(),
            checked_loopopt: lopt.counts.writes() - lopt.skipped_lookups,
            checked_staticopt: sopt.counts.writes() - sopt.elided_lookups - sopt.hoisted_lookups,
            elided: sopt.elided_lookups,
            hoisted: sopt.hoisted_lookups,
            notifications: sopt.notification_count,
        });
    };

    push_row(&NoMonitors, "(no monitors)".to_string());
    let mut order: Vec<usize> = (0..r.sessions.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(r.counts4[i].hit));
    for &i in order.iter().take(samples) {
        let session = r.sessions[i];
        let plan = SessionPlan::new(session, &r.prepared.plain.debug);
        push_row(&plan, session.describe(&r.prepared.plain.debug));
    }
    rows
}

/// Sessions sampled per workload in the staticopt comparison (the
/// no-monitor row is always included on top of these).
pub const SESSION_SAMPLES: usize = 2;

/// The static write-safety table over all workloads.
pub fn staticopt_table(results: &[WorkloadResults], samples: usize) -> TextTable {
    let _span = databp_telemetry::time!("harness.staticopt");
    let mut t = TextTable::new(
        "Static write-safety elision: checked stores and modeled overhead (executed + verified)",
        &[
            "Program",
            "Session",
            "CP",
            "CP+loopopt",
            "CP+staticopt",
            "checked CP",
            "checked +loopopt",
            "checked +staticopt",
            "elided",
            "hoisted",
            "rate",
            "saved",
        ],
    );
    let (mut tot_cp, mut tot_lopt, mut tot_sopt) = (0u64, 0u64, 0u64);
    let (mut tot_elided, mut tot_hoisted) = (0u64, 0u64);
    for r in results {
        for row in measure(r, samples) {
            let saved = if row.cp > 0.0 {
                1.0 - row.cp_staticopt / row.cp
            } else {
                0.0
            };
            tot_cp += row.checked_cp;
            tot_lopt += row.checked_loopopt;
            tot_sopt += row.checked_staticopt;
            tot_elided += row.elided;
            tot_hoisted += row.hoisted;
            t.row(vec![
                row.workload.clone(),
                row.session.clone(),
                fmt_rel(row.cp),
                fmt_rel(row.cp_loopopt),
                fmt_rel(row.cp_staticopt),
                row.checked_cp.to_string(),
                row.checked_loopopt.to_string(),
                row.checked_staticopt.to_string(),
                row.elided.to_string(),
                row.hoisted.to_string(),
                fmt_pct(row.elision_rate()),
                fmt_pct(saved),
            ]);
        }
    }
    let tot_rate = if tot_cp == 0 {
        0.0
    } else {
        (tot_elided + tot_hoisted) as f64 / tot_cp as f64
    };
    t.row(vec![
        "TOTAL".to_string(),
        String::new(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        tot_cp.to_string(),
        tot_lopt.to_string(),
        tot_sopt.to_string(),
        tot_elided.to_string(),
        tot_hoisted.to_string(),
        fmt_pct(tot_rate),
        "-".to_string(),
    ]);
    t
}

/// The staticopt table at the standard sample depth — the single entry
/// point the `repro` binary uses, so every surface reports the same
/// comparison.
pub fn staticopt_report(results: &[WorkloadResults]) -> TextTable {
    staticopt_table(results, SESSION_SAMPLES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::analyze;
    use databp_workloads::Workload;

    #[test]
    fn staticopt_elides_checks_and_preserves_notifications() {
        let r = analyze(&Workload::by_name("qcd").unwrap().scaled_down());
        let rows = measure(&r, 2);
        assert_eq!(rows.len(), 3);
        // With no monitors every provably-regioned store is elided; the
        // variant must check strictly fewer stores than plain CP.
        let none = &rows[0];
        assert!(none.elided > 0, "nothing elided: {none:?}");
        assert!(
            none.checked_staticopt < none.checked_cp,
            "no reduction: {none:?}"
        );
        assert!(none.cp_staticopt < none.cp, "no improvement: {none:?}");
        // Monitored sessions: identical notifications (asserted inside
        // measure), never more expensive than plain CP.
        for row in &rows[1..] {
            assert!(
                row.cp_staticopt <= row.cp * 1.05,
                "staticopt should not cost more: {row:?}"
            );
            assert!(row.checked_staticopt <= row.checked_cp);
        }
    }

    #[test]
    fn oracle_catches_deliberately_unsound_elision() {
        // Regression guard for the verification plumbing itself: feed
        // the oracle an elision list that is wrong by construction (all
        // store pcs elided for every session) and demand it objects.
        let r = analyze(&Workload::by_name("cc").unwrap().scaled_down());
        let debug = &r.prepared.plain.debug;
        let all_pcs: Vec<u32> = debug.store_sites.iter().map(|s| s.pc).collect();
        let set = SessionSet::new(r.sessions.clone(), debug, &r.prepared.trace);
        let elided: Vec<Vec<u32>> = set.sessions().iter().map(|_| all_pcs.clone()).collect();
        let err = verify_elided_stores(&r.prepared.trace, &set, &elided);
        assert!(
            err.is_err(),
            "eliding every store for every session must be flagged"
        );
    }
}
