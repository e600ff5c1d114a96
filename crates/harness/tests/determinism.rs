//! The parallel pipeline must be invisible in the results: workloads
//! come back in `Workload::all()` order and every derived table/CSV is
//! byte-identical run to run, whatever the thread scheduling.

use databp_harness::figures::{figure, Figure};
use databp_harness::{
    analyze_all, analyze_all_jobs, analyze_all_opts, tables, AnalyzeOpts, Scale, WorkloadResults,
};
use databp_workloads::Workload;

/// Every CSV the pipeline feeds, rendered from one result set.
fn all_csvs(results: &[WorkloadResults]) -> Vec<(&'static str, String)> {
    vec![
        ("table1", tables::table1(results).render_csv()),
        ("table3", tables::table3(results).render_csv()),
        ("table4", tables::table4(results).render_csv()),
        ("fig7", figure(results, Figure::Max).render_csv()),
        ("fig8", figure(results, Figure::P90).render_csv()),
        ("fig9", figure(results, Figure::TMean).render_csv()),
    ]
}

#[test]
fn parallel_analyze_all_is_deterministic() {
    // Sequential reference, then two parallel runs with different
    // worker counts (2 interleaves the five workloads; default uses
    // every core).
    let sequential = analyze_all_jobs(Scale::Small, 1);
    let parallel2 = analyze_all_jobs(Scale::Small, 2);
    let parallel_default = analyze_all(Scale::Small);

    let expected_order: Vec<String> = Workload::all()
        .into_iter()
        .map(|w| w.name.to_string())
        .collect();
    for (label, results) in [
        ("jobs=1", &sequential),
        ("jobs=2", &parallel2),
        ("default jobs", &parallel_default),
    ] {
        let order: Vec<String> = results
            .iter()
            .map(|r| r.prepared.workload.name.to_string())
            .collect();
        assert_eq!(order, expected_order, "{label} workload order");
    }

    let reference = all_csvs(&sequential);
    for (label, results) in [("jobs=2", &parallel2), ("default jobs", &parallel_default)] {
        for ((slug, expect), (_, got)) in reference.iter().zip(all_csvs(results)) {
            assert_eq!(
                *expect, got,
                "{label}: {slug}.csv must be byte-identical to the sequential run"
            );
        }
    }
}

#[test]
fn streamed_pipeline_is_csv_identical() {
    // The streaming pipeline overlaps trace generation with replay and
    // discovers heap sessions online — none of that may show in any CSV,
    // at any worker count.
    let materialized = AnalyzeOpts {
        stream: false,
        ..AnalyzeOpts::default()
    };
    let sequential = analyze_all_opts(Scale::Small, 1, &materialized);
    let streamed = AnalyzeOpts {
        stream: true,
        ..AnalyzeOpts::default()
    };
    let stream_seq = analyze_all_opts(Scale::Small, 1, &streamed);
    let stream_par = analyze_all_opts(Scale::Small, 3, &streamed);

    let reference = all_csvs(&sequential);
    for (label, results) in [
        ("stream jobs=1", &stream_seq),
        ("stream jobs=3", &stream_par),
    ] {
        for ((slug, expect), (_, got)) in reference.iter().zip(all_csvs(results)) {
            assert_eq!(
                *expect, got,
                "{label}: {slug}.csv must be byte-identical to the materialized run"
            );
        }
    }
}
