//! Streaming-pipeline benchmarks: the tentpole perf claims, measured.
//!
//! * `pipeline/materialized_vs_streamed` — end-to-end `analyze` per
//!   workload both ways. Streaming overlaps the traced run with replay,
//!   so its wall time approaches max(phase 1, phase 2) instead of their
//!   sum.
//! * `ladder/2_sizes_vs_4_sizes` — the generalized ladder's marginal
//!   cost: doubling the page sizes shares the same single trace walk,
//!   so it must cost far less than doubling the replay.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use databp_harness::{analyze_opts, AnalyzeOpts};
use databp_machine::PageSize;
use databp_sessions::{enumerate_sessions, SessionSet};
use databp_sim::simulate_sizes;
use databp_workloads::{prepare, Workload};
use std::hint::black_box;

fn bench_materialized_vs_streamed(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline/materialized_vs_streamed");
    g.sample_size(10);
    for name in ["spice", "qcd"] {
        let w = Workload::by_name(name)
            .expect("workload exists")
            .scaled_down();
        let materialized = AnalyzeOpts {
            stream: false,
            ..AnalyzeOpts::default()
        };
        // No tee: the streamed configuration measures the pure overlap,
        // without the materialized copy the default keeps.
        let streamed = AnalyzeOpts {
            keep_trace: false,
            ..AnalyzeOpts::default()
        };
        g.bench_function(format!("{name}/materialized"), |b| {
            b.iter(|| black_box(analyze_opts(&w, &materialized)));
        });
        g.bench_function(format!("{name}/streamed"), |b| {
            b.iter(|| black_box(analyze_opts(&w, &streamed)));
        });
    }
    g.finish();
}

fn bench_ladder_width(c: &mut Criterion) {
    let w = Workload::by_name("spice")
        .expect("workload exists")
        .scaled_down();
    let p = prepare(&w).expect("workload runs");
    let sessions = enumerate_sessions(&p.plain.debug, &p.trace);
    let set = SessionSet::new(sessions, &p.plain.debug, &p.trace);
    let two = [PageSize::K4, PageSize::K8];
    let four = [PageSize::K4, PageSize::K8, PageSize::K16, PageSize::K32];
    let mut g = c.benchmark_group("ladder/2_sizes_vs_4_sizes");
    g.sample_size(10);
    g.throughput(Throughput::Elements(p.trace.len() as u64));
    g.bench_function("2_sizes", |b| {
        b.iter(|| black_box(simulate_sizes(&p.trace, &set, &two)));
    });
    g.bench_function("4_sizes", |b| {
        b.iter(|| black_box(simulate_sizes(&p.trace, &set, &four)));
    });
    g.finish();
}

criterion_group!(benches, bench_materialized_vs_streamed, bench_ladder_width);
criterion_main!(benches);
