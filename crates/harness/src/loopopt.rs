//! Section 9's loop-invariant preliminary-check optimization, measured
//! by executing CodePatch with and without it.
//!
//! The paper only sketches this optimization ("our expectation is that
//! this and other optimizations will significantly reduce the overhead of
//! code patching"); here it is implemented and measured. Executable runs
//! are expensive, so each workload is sampled: the no-monitor case (pure
//! instrumentation overhead — where the optimization matters most for an
//! idle debugger) plus the sessions with the most hits.

use crate::pipeline::WorkloadResults;
use crate::render::{fmt_pct, fmt_rel, TextTable};
use databp_core::{CodePatch, MonitorPlan, NoMonitors};
use databp_machine::Machine;
use databp_sessions::SessionPlan;

/// One measured comparison row.
#[derive(Debug, Clone)]
pub struct LoopOptRow {
    /// Workload name.
    pub workload: String,
    /// Session description (or "(no monitors)").
    pub session: String,
    /// Plain CodePatch relative overhead.
    pub cp: f64,
    /// Optimized CodePatch relative overhead.
    pub cp_opt: f64,
    /// Body-check lookups elided.
    pub skipped: u64,
    /// Preliminary checks executed.
    pub preheader: u64,
    /// Notifications under both runs (must agree — soundness).
    pub notifications: u64,
}

fn run_cp(
    r: &WorkloadResults,
    plan: &dyn MonitorPlan,
    optimized: bool,
) -> databp_core::StrategyReport {
    let build = if optimized {
        r.prepared.codepatch_loopopt()
    } else {
        r.prepared.codepatch()
    };
    let mut m = Machine::new();
    m.load(&build.program);
    m.set_args(r.prepared.workload.args.clone());
    CodePatch::default()
        .run(
            &mut m,
            &build.debug,
            plan,
            r.prepared.workload.max_steps * 2,
        )
        .expect("CodePatch run failed")
}

/// Measures CP vs CP-opt for one workload: the no-monitor case plus the
/// `samples` highest-hit sessions.
pub fn measure(r: &WorkloadResults, samples: usize) -> Vec<LoopOptRow> {
    let mut rows = Vec::new();

    let base = run_cp(r, &NoMonitors, false);
    let opt = run_cp(r, &NoMonitors, true);
    assert_eq!(base.notification_count, opt.notification_count);
    rows.push(LoopOptRow {
        workload: r.prepared.workload.name.to_string(),
        session: "(no monitors)".to_string(),
        cp: base.relative_overhead(),
        cp_opt: opt.relative_overhead(),
        skipped: opt.skipped_lookups,
        preheader: opt.preheader_lookups,
        notifications: opt.notification_count,
    });

    // Highest-hit sessions.
    let mut order: Vec<usize> = (0..r.sessions.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(r.counts4[i].hit));
    for &i in order.iter().take(samples) {
        let session = r.sessions[i];
        let plan = SessionPlan::new(session, &r.prepared.plain.debug);
        let base = run_cp(r, &plan, false);
        let opt = run_cp(r, &plan, true);
        assert_eq!(
            base.notification_count, opt.notification_count,
            "loop optimization must not lose notifications for {session}"
        );
        rows.push(LoopOptRow {
            workload: r.prepared.workload.name.to_string(),
            session: session.describe(&r.prepared.plain.debug),
            cp: base.relative_overhead(),
            cp_opt: opt.relative_overhead(),
            skipped: opt.skipped_lookups,
            preheader: opt.preheader_lookups,
            notifications: opt.notification_count,
        });
    }
    rows
}

/// The Section 9 table over all workloads.
pub fn loopopt_table(results: &[WorkloadResults], samples: usize) -> TextTable {
    let _span = databp_telemetry::time!("harness.loopopt");
    let mut t = TextTable::new(
        "Section 9: CodePatch loop-invariant preliminary checks (executed)",
        &[
            "Program",
            "Session",
            "CP",
            "CP+loopopt",
            "saved",
            "skipped lookups",
            "preheader",
        ],
    );
    for r in results {
        for row in measure(r, samples) {
            let saved = if row.cp > 0.0 {
                1.0 - row.cp_opt / row.cp
            } else {
                0.0
            };
            t.row(vec![
                row.workload,
                row.session,
                fmt_rel(row.cp),
                fmt_rel(row.cp_opt),
                fmt_pct(saved),
                row.skipped.to_string(),
                row.preheader.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::analyze;
    use databp_workloads::Workload;

    #[test]
    fn loopopt_reduces_overhead_and_preserves_notifications() {
        let r = analyze(&Workload::by_name("qcd").unwrap().scaled_down());
        let rows = measure(&r, 2);
        assert_eq!(rows.len(), 3);
        // The no-monitor case must improve (qcd's lattice loops have
        // invariant scalar accumulators).
        let none = &rows[0];
        assert!(none.skipped > 0, "no lookups skipped: {none:?}");
        assert!(none.cp_opt < none.cp, "no improvement: {none:?}");
        // Monitored sessions keep every notification (asserted inside
        // measure) and never get more expensive than ~CP.
        for row in &rows[1..] {
            assert!(
                row.cp_opt <= row.cp * 1.05,
                "optimized run should not cost more: {row:?}"
            );
        }
    }
}
