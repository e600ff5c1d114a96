//! Executable-strategy benchmarks: wall-clock cost of *running* each WMS
//! implementation on the simulated machine, plus the Section 9 loopopt
//! ablation and the exec-vs-model agreement check.

use criterion::{criterion_group, criterion_main, Criterion};
use databp_core::{CodePatch, NativeHardware, RangePlan, TrapPatch, VirtualMemory};
use databp_machine::Machine;
use databp_tinyc::{compile, Compiled, Options};
use std::hint::black_box;

const PROGRAM: &str = r#"
    int acc;
    int buf[64];
    int mix(int x) { return (x * 2654435761) >> 7; }
    int main() {
        int i; int j;
        for (i = 0; i < 60; i = i + 1) {
            for (j = 0; j < 64; j = j + 1) {
                buf[j] = mix(buf[j] + i + j);
                acc = acc + buf[j];
            }
        }
        return acc & 255;
    }
"#;

fn builds() -> (Compiled, Compiled, Compiled) {
    (
        compile(PROGRAM, &Options::plain()).expect("compiles"),
        compile(PROGRAM, &Options::codepatch()).expect("compiles"),
        compile(PROGRAM, &Options::codepatch_loopopt()).expect("compiles"),
    )
}

fn bench_strategies(c: &mut Criterion) {
    let (plain, cp, cp_opt) = builds();
    let plan = RangePlan {
        globals: vec![0],
        ..RangePlan::default()
    };
    let mut g = c.benchmark_group("strategies/executable");
    g.sample_size(20);

    g.bench_function("native_hardware", |b| {
        b.iter(|| {
            let mut m = Machine::new();
            m.load(&plain.program);
            black_box(
                NativeHardware::default()
                    .run(&mut m, &plain.debug, &plan, 10_000_000)
                    .unwrap(),
            )
        });
    });
    g.bench_function("virtual_memory_4k", |b| {
        b.iter(|| {
            let mut m = Machine::new();
            m.load(&plain.program);
            black_box(
                VirtualMemory::k4()
                    .run(&mut m, &plain.debug, &plan, 10_000_000)
                    .unwrap(),
            )
        });
    });
    g.bench_function("trap_patch", |b| {
        b.iter(|| {
            let mut m = Machine::new();
            m.load(&plain.program);
            black_box(
                TrapPatch::default()
                    .run(&mut m, &plain.debug, &plan, 10_000_000)
                    .unwrap(),
            )
        });
    });
    g.bench_function("code_patch", |b| {
        b.iter(|| {
            let mut m = Machine::new();
            m.load(&cp.program);
            black_box(
                CodePatch::default()
                    .run(&mut m, &cp.debug, &plan, 10_000_000)
                    .unwrap(),
            )
        });
    });
    g.bench_function("code_patch_loopopt", |b| {
        b.iter(|| {
            let mut m = Machine::new();
            m.load(&cp_opt.program);
            black_box(
                CodePatch::default()
                    .run(&mut m, &cp_opt.debug, &plan, 10_000_000)
                    .unwrap(),
            )
        });
    });
    g.finish();

    // Print the Section 9 ablation result once: modeled overhead saved.
    let mut m = Machine::new();
    m.load(&cp.program);
    let base = CodePatch::default()
        .run(&mut m, &cp.debug, &plan, 10_000_000)
        .unwrap();
    let mut m = Machine::new();
    m.load(&cp_opt.program);
    let opt = CodePatch::default()
        .run(&mut m, &cp_opt.debug, &plan, 10_000_000)
        .unwrap();
    println!(
        "loopopt ablation: CP {:.2}x -> CP+opt {:.2}x ({} lookups skipped, {} preheader)",
        base.relative_overhead(),
        opt.relative_overhead(),
        opt.skipped_lookups,
        opt.preheader_lookups
    );
    assert_eq!(base.notification_count, opt.notification_count);
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
