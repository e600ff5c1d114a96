//! The streaming pipeline must be invisible in the results: for every
//! workload, batch size, channel depth, and ladder — the default
//! overlapped path included — it produces exactly the sessions, counts,
//! trace, and base timing of the materialized two-phase run.

use databp_harness::{analyze_opts, AnalyzeOpts, WorkloadResults};
use databp_machine::PageSize;
use databp_workloads::Workload;

/// The reference: trace fully materialized, then replayed.
fn materialized(w: &Workload, ladder: &[PageSize]) -> WorkloadResults {
    analyze_opts(
        w,
        &AnalyzeOpts {
            stream: false,
            ladder: ladder.to_vec(),
            ..AnalyzeOpts::default()
        },
    )
}

fn assert_equivalent(label: &str, st: &WorkloadResults, mat: &WorkloadResults) {
    assert_eq!(st.sessions, mat.sessions, "{label}: sessions");
    assert_eq!(st.candidates, mat.candidates, "{label}: candidates");
    assert_eq!(st.ladder, mat.ladder, "{label}: ladder");
    assert_eq!(st.counts4, mat.counts4, "{label}: counts4");
    assert_eq!(st.counts8, mat.counts8, "{label}: counts8");
    assert_eq!(
        st.ladder_counts, mat.ladder_counts,
        "{label}: ladder_counts"
    );
    assert_eq!(
        st.prepared.base_us, mat.prepared.base_us,
        "{label}: base_us"
    );
}

#[test]
fn streamed_matches_materialized_per_workload() {
    // `AnalyzeOpts::default()` streams, and it is what every table, the
    // service and the benchmark run: it must agree with the reference on
    // all nine programs, the teed trace included.
    for w in Workload::all().into_iter().chain(Workload::bench()) {
        let w = w.scaled_down();
        let mat = materialized(&w, &[PageSize::K4, PageSize::K8]);
        let st = analyze_opts(&w, &AnalyzeOpts::default());
        assert_equivalent(w.name, &st, &mat);
        assert_eq!(
            st.prepared.trace.events(),
            mat.prepared.trace.events(),
            "{}: teed trace",
            w.name
        );
    }
}

#[test]
fn tiny_batches_and_minimal_channel_still_agree() {
    // Worst-case backpressure: three-event batches through a one-batch
    // channel force constant producer/consumer blocking.
    let w = Workload::by_name("qcd").unwrap().scaled_down();
    let mat = materialized(&w, &[PageSize::K4, PageSize::K8]);
    let st = analyze_opts(
        &w,
        &AnalyzeOpts {
            stream: true,
            batch_events: 3,
            channel_batches: 1,
            ..AnalyzeOpts::default()
        },
    );
    assert_equivalent("qcd tiny batches", &st, &mat);
}

#[test]
fn four_size_ladder_streams_identically() {
    let ladder = [PageSize::K4, PageSize::K8, PageSize::K16, PageSize::K32];
    let w = Workload::by_name("spice").unwrap().scaled_down();
    let mat = materialized(&w, &ladder);
    let st = analyze_opts(
        &w,
        &AnalyzeOpts {
            stream: true,
            ladder: ladder.to_vec(),
            ..AnalyzeOpts::default()
        },
    );
    assert_equivalent("spice 4-size ladder", &st, &mat);
    assert_eq!(st.ladder.len(), 4);
}

#[test]
fn inline_streaming_matches_materialized() {
    // `channel_batches: 0` replays on the tracing thread itself — no
    // channel, no consumer thread — and must still be invisible in the
    // results, tee included, even with a tiny batch size.
    let w = Workload::by_name("tex").unwrap().scaled_down();
    let mat = materialized(&w, &[PageSize::K4, PageSize::K8]);
    for batch_events in [5usize, 16 * 1024] {
        let st = analyze_opts(
            &w,
            &AnalyzeOpts {
                stream: true,
                batch_events,
                channel_batches: 0,
                ..AnalyzeOpts::default()
            },
        );
        assert_equivalent(&format!("tex inline batch={batch_events}"), &st, &mat);
        assert_eq!(
            st.prepared.trace.events(),
            mat.prepared.trace.events(),
            "tex inline batch={batch_events}: teed trace"
        );
    }
}
