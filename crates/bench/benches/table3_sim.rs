//! Table 3 regeneration benchmark: the phase-2 counting simulator over
//! each workload's trace (both page sizes), plus the engine-vs-naive
//! **ablation** showing why the one-pass multi-session design matters.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use databp_machine::PageSize;
use databp_sessions::{enumerate_sessions, SessionSet};
use databp_sim::{simulate_naive, simulate_sizes};
use databp_workloads::{prepare, Prepared, Workload};
use std::hint::black_box;

fn prep(name: &str) -> (Prepared, SessionSet) {
    let w = Workload::by_name(name)
        .expect("workload exists")
        .scaled_down();
    let p = prepare(&w).expect("workload runs");
    let sessions = enumerate_sessions(&p.plain.debug, &p.trace);
    let set = SessionSet::new(sessions, &p.plain.debug, &p.trace);
    (p, set)
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("table3/one_pass_engine");
    g.sample_size(10);
    for name in ["cc", "tex", "spice", "qcd", "bps"] {
        let (p, set) = prep(name);
        // Print the regenerated Table 3 row once (mean counting vars).
        let counts = simulate_sizes(&p.trace, &set, &[PageSize::K4]).remove(0);
        let n = counts.len().max(1) as f64;
        println!(
            "table3 row: {:6} sessions={:5} mean_hit={:9.0} mean_miss={:10.0} mean_apm={:8.0}",
            name,
            counts.len(),
            counts.iter().map(|c| c.hit).sum::<u64>() as f64 / n,
            counts.iter().map(|c| c.miss).sum::<u64>() as f64 / n,
            counts.iter().map(|c| c.vm_active_page_miss).sum::<u64>() as f64 / n,
        );
        g.throughput(Throughput::Elements(p.trace.len() as u64));
        g.bench_function(format!("{name}/4k"), |b| {
            b.iter(|| black_box(simulate_sizes(&p.trace, &set, &[PageSize::K4])));
        });
        g.bench_function(format!("{name}/8k"), |b| {
            b.iter(|| black_box(simulate_sizes(&p.trace, &set, &[PageSize::K8])));
        });
    }
    g.finish();
}

fn bench_engine_vs_naive_ablation(c: &mut Criterion) {
    // Per-session cost comparison on one workload: the naive oracle
    // replays the trace once per session; the engine amortizes one pass
    // over all of them.
    let (p, set) = prep("spice");
    let nsessions = {
        use databp_sim::Membership;
        set.count()
    };
    let mut g = c.benchmark_group("ablation/engine_vs_naive");
    g.sample_size(10);
    g.bench_function(format!("one_pass_all_{nsessions}_sessions"), |b| {
        b.iter(|| black_box(simulate_sizes(&p.trace, &set, &[PageSize::K4])));
    });
    g.bench_function("naive_single_session", |b| {
        b.iter(|| black_box(simulate_naive(&p.trace, &set, PageSize::K4, 0)));
    });
    g.finish();
}

criterion_group!(benches, bench_engine, bench_engine_vs_naive_ablation);
criterion_main!(benches);
