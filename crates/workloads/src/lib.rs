//! The five benchmark workloads (Section 6), as `tinyc` programs.
//!
//! The paper's programs — GCC, CommonTeX, Spice, QCD, BPS — are
//! unavailable in this environment (and their SPARC toolchain more so),
//! so each is substituted by a synthetic program written to match its
//! *monitor-session profile*, the property the experiments actually
//! depend on:
//!
//! | Name | Paper analogue | Profile mirrored |
//! |------|----------------|------------------|
//! | `cc` | GCC 1.4 on rtl.c | many functions, heap AST/symbol nodes, global cursors, recursion |
//! | `tex` | CommonTeX 2.9 | statics + buffers, **no heap** (zero OneHeap sessions in Table 1) |
//! | `spice` | Spice 3c1 | few long-lived heap arrays, numeric inner loops |
//! | `qcd` | Perfect-Club QCD | global lattice arrays, **no heap**, hot induction variables |
//! | `bps` | Bayesian 8-puzzle solver | thousands of small heap search nodes |
//!
//! Every workload is deterministic (embedded LCG seeds) and parameterized
//! by machine arguments so tests can run scaled-down instances.

use databp_machine::{Machine, MachineError, StopReason};
use databp_tinyc::{compile, Compiled, Options};
use databp_trace::{write_columnar, EventSink, Trace, Tracer};
use std::sync::{Arc, OnceLock};

/// One benchmark workload: a source program plus run parameters.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name (`cc`, `tex`, `spice`, `qcd`, `bps`).
    pub name: &'static str,
    /// The paper's program this one stands in for.
    pub paper_analogue: &'static str,
    /// `tinyc` source text.
    pub source: &'static str,
    /// Machine arguments (workload scale).
    pub args: Vec<i32>,
    /// Instruction budget for one run.
    pub max_steps: u64,
}

const CC_SRC: &str = include_str!("programs/cc.c");
const TEX_SRC: &str = include_str!("programs/tex.c");
const SPICE_SRC: &str = include_str!("programs/spice.c");
const QCD_SRC: &str = include_str!("programs/qcd.c");
const BPS_SRC: &str = include_str!("programs/bps.c");
const MATMUL_SRC: &str = include_str!("programs/matmul.c");
const FIB_SRC: &str = include_str!("programs/fib.c");
const STRUCT_BENCH_SRC: &str = include_str!("programs/struct_bench.c");
const BITWISE_SRC: &str = include_str!("programs/bitwise.c");

impl Workload {
    /// The five workloads at full (harness) scale, in Table 1 row order.
    pub fn all() -> Vec<Workload> {
        vec![
            Workload {
                name: "cc",
                paper_analogue: "GCC v1.4 compiling rtl.c",
                source: CC_SRC,
                args: vec![6],
                max_steps: 80_000_000,
            },
            Workload {
                name: "tex",
                paper_analogue: "CommonTeX v2.9 on a 4-page document",
                source: TEX_SRC,
                args: vec![24],
                max_steps: 80_000_000,
            },
            Workload {
                name: "spice",
                paper_analogue: "Spice v3c1 transient analysis",
                source: SPICE_SRC,
                args: vec![10, 14],
                max_steps: 80_000_000,
            },
            Workload {
                name: "qcd",
                paper_analogue: "Perfect-Club QCD test simulation",
                source: QCD_SRC,
                args: vec![24, 20],
                max_steps: 80_000_000,
            },
            Workload {
                name: "bps",
                paper_analogue: "BPS 8-puzzle Bayesian solver",
                source: BPS_SRC,
                args: vec![400, 1500],
                max_steps: 80_000_000,
            },
        ]
    }

    /// The replay-benchmark corpus: classic kernel shapes (dense
    /// matrix multiply, deep recursion, heap record churn, bit
    /// twiddling) ported to `tinyc`. These are **not** part of the
    /// paper's Table 1 set ([`Workload::all`]) — they exist to feed the
    /// vectorized replay path traces with contrasting event mixes (the
    /// benchmark's `monitor` workload and `repro staticopt` use them too).
    pub fn bench() -> Vec<Workload> {
        vec![
            Workload {
                name: "matmul",
                paper_analogue: "dense integer matrix multiply kernel",
                source: MATMUL_SRC,
                args: vec![20, 60],
                max_steps: 80_000_000,
            },
            Workload {
                name: "fib",
                paper_analogue: "recursive fibonacci (frame-traffic kernel)",
                source: FIB_SRC,
                args: vec![19, 25],
                max_steps: 80_000_000,
            },
            Workload {
                name: "struct_bench",
                paper_analogue: "heap record-update kernel",
                source: STRUCT_BENCH_SRC,
                args: vec![500, 160],
                max_steps: 80_000_000,
            },
            Workload {
                name: "bitwise",
                paper_analogue: "xorshift/popcount bit-twiddling kernel",
                source: BITWISE_SRC,
                args: vec![1536, 120],
                max_steps: 80_000_000,
            },
        ]
    }

    /// Looks up a workload by name, in the Table 1 set first, then the
    /// benchmark corpus.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all()
            .into_iter()
            .chain(Workload::bench())
            .find(|w| w.name == name)
    }

    /// A stable 64-bit content hash of the program and its inputs:
    /// name, source text, machine arguments, and step budget — every
    /// field that determines the phase-1 trace. Two workloads hash
    /// equal exactly when a trace of one is a valid trace of the other,
    /// which is what lets `databp-server`'s trace cache key on it.
    ///
    /// The hash is FNV-1a over a length-prefixed field encoding, so it
    /// is identical across runs, hosts, and (absent workload changes)
    /// builds. The pinned values in this crate's tests exist to make
    /// any accidental drift — which would silently split or poison the
    /// server's cache keyspace — a loud test failure.
    pub fn workload_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(PRIME);
            }
            h
        }
        // Length-prefix variable-size fields so ("ab","c") and
        // ("a","bc") cannot collide.
        fn eat_field(h: u64, bytes: &[u8]) -> u64 {
            eat(eat(h, &(bytes.len() as u64).to_le_bytes()), bytes)
        }
        let mut h = eat_field(OFFSET, self.name.as_bytes());
        h = eat_field(h, self.source.as_bytes());
        h = eat(h, &(self.args.len() as u64).to_le_bytes());
        for &a in &self.args {
            h = eat(h, &a.to_le_bytes());
        }
        eat(h, &self.max_steps.to_le_bytes())
    }

    /// A scaled-down variant for unit tests (same code paths, smaller
    /// trace).
    pub fn scaled_down(mut self) -> Workload {
        self.args = match self.name {
            "cc" => vec![2],
            "tex" => vec![5],
            "spice" => vec![6, 4],
            "qcd" => vec![10, 4],
            "bps" => vec![400, 150],
            "matmul" => vec![8, 6],
            "fib" => vec![12, 3],
            "struct_bench" => vec![80, 20],
            "bitwise" => vec![256, 10],
            _ => self.args,
        };
        self
    }
}

/// A workload compiled, traced, and timed — everything the harness needs
/// for every experiment.
///
/// Only the uninstrumented `plain` build is compiled eagerly (it is the
/// one the trace run needs). The three instrumented variants —
/// [`Prepared::codepatch`], [`Prepared::codepatch_loopopt`],
/// [`Prepared::nop_padded`] — compile lazily on first use, so the hot
/// `analyze` path (trace + replay only) never pays for them.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The workload description.
    pub workload: Workload,
    /// Uninstrumented build (NH / VM / TP runs, trace generation).
    pub plain: Compiled,
    /// CodePatch-instrumented build (lazy).
    codepatch: OnceLock<Compiled>,
    /// CodePatch build with Section 9 loop optimization info (lazy).
    codepatch_loopopt: OnceLock<Compiled>,
    /// CodePatch build with SSA-planned check hoisting (lazy).
    codepatch_ssa: OnceLock<Compiled>,
    /// Nop-padded build for the Section 3.3 dynamic-patching hybrid
    /// (lazy).
    nop_padded: OnceLock<Compiled>,
    /// DBPT encoding of `trace`, zone maps included (lazy, or adopted
    /// from a caller that already holds one) — what the query pushdown
    /// scans instead of the decoded events.
    columnar: OnceLock<Arc<Vec<u8>>>,
    /// The phase-1 program event trace.
    pub trace: Trace,
    /// Base (uninstrumented, unmonitored) execution time, microseconds.
    pub base_us: f64,
    /// Instructions retired by the base run.
    pub instructions: u64,
    /// Program output (for workload integrity checks).
    pub output: Vec<u8>,
}

impl Prepared {
    /// Reassembles a `Prepared` from persisted parts — the warm-start
    /// path of the replay service's trace store, which saves the trace
    /// plus the base-run measurements and recompiles only the plain
    /// build. Instrumented builds stay lazy, exactly as after
    /// [`prepare`].
    pub fn from_parts(
        workload: Workload,
        plain: Compiled,
        trace: Trace,
        base_us: f64,
        instructions: u64,
        output: Vec<u8>,
    ) -> Prepared {
        Prepared {
            workload,
            plain,
            codepatch: OnceLock::new(),
            codepatch_loopopt: OnceLock::new(),
            codepatch_ssa: OnceLock::new(),
            nop_padded: OnceLock::new(),
            columnar: OnceLock::new(),
            trace,
            base_us,
            instructions,
            output,
        }
    }

    fn build<'a>(&self, slot: &'a OnceLock<Compiled>, opts: Options, what: &str) -> &'a Compiled {
        slot.get_or_init(|| {
            compile(self.workload.source, &opts).unwrap_or_else(|e| {
                panic!(
                    "workload {} failed to compile ({what}): {e}",
                    self.workload.name
                )
            })
        })
    }

    /// The CodePatch-instrumented build, compiled on first use.
    pub fn codepatch(&self) -> &Compiled {
        self.build(&self.codepatch, Options::codepatch(), "cp")
    }

    /// The CodePatch + Section 9 loop-optimization build, compiled on
    /// first use.
    pub fn codepatch_loopopt(&self) -> &Compiled {
        self.build(
            &self.codepatch_loopopt,
            Options::codepatch_loopopt(),
            "cp+opt",
        )
    }

    /// The CodePatch + SSA hoist build, compiled on first use.
    pub fn codepatch_ssa(&self) -> &Compiled {
        self.build(&self.codepatch_ssa, Options::codepatch_ssa(), "cp-ssa")
    }

    /// The nop-padded build for dynamic patching, compiled on first use.
    pub fn nop_padded(&self) -> &Compiled {
        self.build(&self.nop_padded, Options::nop_padding(), "nop")
    }

    /// The trace's DBPT encoding (zone maps included), built on
    /// first use and shared thereafter — query pushdown scans these
    /// bytes directly instead of re-walking `trace.events()`.
    ///
    /// # Panics
    ///
    /// Panics if the in-memory encode fails, which it cannot (the sink
    /// is a `Vec`).
    pub fn columnar_bytes(&self) -> &Arc<Vec<u8>> {
        self.columnar.get_or_init(|| {
            let mut buf = Vec::new();
            write_columnar(&self.trace, &[], &mut buf).expect("in-memory encode");
            Arc::new(buf)
        })
    }

    /// Adopts `bytes` as the trace's DBPT encoding, for a caller that
    /// already holds one (read from a trace store, or encoded once to
    /// be saved there), so [`Prepared::columnar_bytes`] never encodes
    /// the trace again. `bytes` must decode to `trace`. No-op when an
    /// encoding is already held.
    pub fn adopt_columnar(&self, bytes: Arc<Vec<u8>>) {
        let _ = self.columnar.set(bytes);
    }
}

/// Compiles and runs `workload` once under the tracer — the paper's
/// phase 1 — returning the trace plus base timing.
///
/// # Errors
///
/// [`MachineError`] if the run faults or exhausts `max_steps`.
///
/// # Panics
///
/// Panics if the embedded workload source fails to compile (a build bug,
/// covered by tests).
pub fn prepare(workload: &Workload) -> Result<Prepared, MachineError> {
    let plain = compile_plain(workload);
    let (mut prepared, trace) = run_traced(workload, plain, Trace::new())?;
    prepared.trace = trace;
    Ok(prepared)
}

/// Compiles the uninstrumented build of `workload`.
///
/// # Panics
///
/// Panics if the embedded workload source fails to compile (a build bug,
/// covered by tests).
pub fn compile_plain(workload: &Workload) -> Compiled {
    compile(workload.source, &Options::plain())
        .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", workload.name))
}

/// Runs `workload`'s pre-compiled `plain` build once under the tracer,
/// emitting the event stream into `sink` — phase 1 against an arbitrary
/// [`EventSink`], which is how the streaming pipeline overlaps replay
/// with the run. The returned [`Prepared`] carries an **empty** `trace`;
/// the caller decides whether the sink materialized one (as
/// [`prepare`]'s [`Trace`] sink does).
///
/// # Errors
///
/// [`MachineError`] if the run faults or exhausts `max_steps`.
///
/// # Panics
///
/// Panics if the run stops for any reason other than halting.
pub fn run_traced<S: EventSink>(
    workload: &Workload,
    plain: Compiled,
    sink: S,
) -> Result<(Prepared, S), MachineError> {
    let _t = databp_telemetry::time!("workloads.trace_run");
    let mut m = Machine::new();
    m.load(&plain.program);
    m.set_args(workload.args.clone());
    let mut tracer = Tracer::with_sink(plain.debug.frame_map(), plain.debug.global_specs(), sink)
        .with_untraced(plain.debug.untraced_store_pcs.clone());
    tracer.begin();
    let stop = m.run(&mut tracer, workload.max_steps)?;
    assert_eq!(
        stop,
        StopReason::Halted,
        "workload {} did not halt",
        workload.name
    );
    let sink = tracer.finish();
    let prepared = Prepared::from_parts(
        workload.clone(),
        plain,
        Trace::new(),
        m.cost().total_us(m.cost_model()),
        m.cost().instructions,
        m.take_output(),
    );
    Ok((prepared, sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use databp_machine::NoHooks;
    use databp_tinyc::interpret;
    use databp_trace::{Event, ObjectDesc};

    fn run_scaled(name: &str) -> Prepared {
        prepare(&Workload::by_name(name).unwrap().scaled_down()).unwrap()
    }

    #[test]
    fn workload_hashes_are_pinned_stable_and_distinct() {
        // Pinned trace-cache keys (full-scale, scaled-down). If this
        // fails because a workload's source or inputs changed, update
        // the pins: the point of the failure is that stale cached
        // traces must never be served for new content.
        let pinned: [(&str, u64, u64); 5] = [
            ("cc", 0x3016_f34b_cbf6_7f40, 0xa40e_5ca2_36ff_4c24),
            ("tex", 0xde7b_4b87_0b2a_bd17, 0xa25e_fb29_5f09_d76a),
            ("spice", 0x55c6_dcc2_6d32_2f21, 0x4d5b_04ba_acbb_ef27),
            ("qcd", 0x5fc8_1783_439e_50f4, 0x6991_73dd_0744_bd46),
            ("bps", 0x13ca_3077_b14e_d200, 0x9d9a_e06b_bde7_712d),
        ];
        let mut seen = std::collections::HashSet::new();
        for (name, full, small) in pinned {
            let w = Workload::by_name(name).unwrap();
            assert_eq!(
                w.workload_hash(),
                full,
                "{name}: full-scale hash drifted (got {:#018x})",
                w.workload_hash()
            );
            let s = w.clone().scaled_down();
            assert_eq!(
                s.workload_hash(),
                small,
                "{name}: scaled-down hash drifted (got {:#018x})",
                s.workload_hash()
            );
            // Hashing is pure: same content, same key.
            assert_eq!(
                w.workload_hash(),
                Workload::by_name(name).unwrap().workload_hash()
            );
            assert!(seen.insert(full), "{name}: full hash collides");
            assert!(seen.insert(small), "{name}: small hash collides");
        }
    }

    #[test]
    fn all_five_workloads_exist() {
        let names: Vec<_> = Workload::all().iter().map(|w| w.name).collect();
        assert_eq!(names, ["cc", "tex", "spice", "qcd", "bps"]);
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn bench_corpus_exists_and_resolves_by_name() {
        let names: Vec<_> = Workload::bench().iter().map(|w| w.name).collect();
        assert_eq!(names, ["matmul", "fib", "struct_bench", "bitwise"]);
        for name in names {
            assert_eq!(Workload::by_name(name).unwrap().name, name);
        }
        // The Table 1 set is untouched by the corpus.
        assert_eq!(Workload::all().len(), 5);
    }

    #[test]
    fn bench_hashes_are_pinned_stable_and_distinct() {
        // Pinned trace-store keys for the benchmark corpus
        // (full-scale, scaled-down) — same contract as the Table 1
        // pins: drift must fail loudly, because stale store entries
        // would otherwise warm-start wrong traces.
        let pinned: [(&str, u64, u64); 4] = [
            ("matmul", 0x07c6_7cc5_ca05_ae5e, 0xa420_c900_2c91_1c08),
            ("fib", 0x1caa_ad3c_de12_f8a4, 0x286d_de09_a79c_9dc1),
            ("struct_bench", 0xf344_d9b5_b19c_9201, 0x00c6_858f_3532_296e),
            ("bitwise", 0x2d04_1757_a3cc_b353, 0x39a5_1394_f7df_9b30),
        ];
        let mut seen = std::collections::HashSet::new();
        for (name, full, small) in pinned {
            let w = Workload::by_name(name).unwrap();
            assert_eq!(
                w.workload_hash(),
                full,
                "{name}: full-scale hash drifted (got {:#018x})",
                w.workload_hash()
            );
            let s = w.clone().scaled_down();
            assert_eq!(
                s.workload_hash(),
                small,
                "{name}: scaled-down hash drifted (got {:#018x})",
                s.workload_hash()
            );
            assert!(seen.insert(full), "{name}: full hash collides");
            assert!(seen.insert(small), "{name}: small hash collides");
        }
    }

    #[test]
    fn bench_workloads_compile_run_and_match_interpreter() {
        for w in Workload::bench() {
            let w = w.scaled_down();
            let p = prepare(&w).unwrap();
            assert!(!p.output.is_empty(), "{} produced no output", w.name);
            let hir = databp_tinyc::lower(w.source).unwrap();
            let oracle = interpret(&hir, &w.args, 400_000_000).unwrap();
            assert_eq!(
                p.output, oracle.output,
                "{}: machine vs interpreter divergence",
                w.name
            );
        }
    }

    #[test]
    fn bench_traces_are_write_rich_and_balanced() {
        for w in Workload::bench() {
            let w = w.scaled_down();
            let p = prepare(&w).unwrap();
            let s = p.trace.stats();
            assert!(s.writes > 1_000, "{}: only {} writes", w.name, s.writes);
            assert_eq!(s.installs, s.removes, "{}: unbalanced trace", w.name);
            assert!(p.base_us > 0.0);
        }
    }

    #[test]
    fn from_parts_matches_prepare() {
        let w = Workload::by_name("matmul").unwrap().scaled_down();
        let p = prepare(&w).unwrap();
        let rebuilt = Prepared::from_parts(
            w.clone(),
            compile_plain(&w),
            p.trace.clone(),
            p.base_us,
            p.instructions,
            p.output.clone(),
        );
        assert_eq!(rebuilt.trace, p.trace);
        assert_eq!(rebuilt.base_us, p.base_us);
        assert_eq!(rebuilt.instructions, p.instructions);
        assert_eq!(rebuilt.output, p.output);
        // The recompiled plain build and the lazy instrumented build
        // both still behave identically after reassembly.
        for build in [&rebuilt.plain, rebuilt.codepatch()] {
            let mut m = Machine::new();
            m.load(&build.program);
            m.set_args(w.args.clone());
            m.run(&mut NoHooks, w.max_steps).unwrap();
            assert_eq!(m.take_output(), p.output);
        }
    }

    #[test]
    fn workloads_compile_run_and_match_interpreter() {
        for w in Workload::all() {
            let w = w.scaled_down();
            let p = prepare(&w).unwrap();
            assert!(!p.output.is_empty(), "{} produced no output", w.name);
            // Differential check against the reference interpreter.
            let hir = databp_tinyc::lower(w.source).unwrap();
            let oracle = interpret(&hir, &w.args, 400_000_000).unwrap();
            assert_eq!(
                p.output, oracle.output,
                "{}: machine vs interpreter divergence",
                w.name
            );
        }
    }

    #[test]
    fn codepatch_builds_behave_identically() {
        for w in Workload::all() {
            let w = w.scaled_down();
            let p = prepare(&w).unwrap();
            for build in [p.codepatch(), p.codepatch_loopopt(), p.nop_padded()] {
                let mut m = Machine::new();
                m.load(&build.program);
                m.set_args(w.args.clone());
                m.run(&mut NoHooks, w.max_steps).unwrap();
                assert_eq!(
                    m.take_output(),
                    p.output,
                    "{} instrumented run differs",
                    w.name
                );
            }
        }
    }

    #[test]
    fn heap_profiles_match_paper_table_1() {
        // CTEX and QCD have zero heap sessions; GCC/Spice/BPS have many.
        let heap_installs = |p: &Prepared| {
            p.trace
                .events()
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        Event::Install {
                            obj: ObjectDesc::Heap { .. },
                            ..
                        }
                    )
                })
                .count()
        };
        assert_eq!(
            heap_installs(&run_scaled("tex")),
            0,
            "tex must not allocate"
        );
        assert_eq!(
            heap_installs(&run_scaled("qcd")),
            0,
            "qcd must not allocate"
        );
        assert!(heap_installs(&run_scaled("cc")) > 20);
        assert!(heap_installs(&run_scaled("spice")) >= 4);
        assert!(
            heap_installs(&run_scaled("bps")) > 100,
            "bps allocates many nodes"
        );
    }

    #[test]
    fn traces_are_write_rich() {
        for w in Workload::all() {
            let w = w.scaled_down();
            let p = prepare(&w).unwrap();
            let s = p.trace.stats();
            assert!(s.writes > 1_000, "{}: only {} writes", w.name, s.writes);
            assert_eq!(s.installs, s.removes, "{}: unbalanced trace", w.name);
            assert!(p.base_us > 0.0);
        }
    }

    /// `analyze_writes` attaches SSA site facts to `DebugInfo::store_sites`
    /// by index; when the two enumerations disagree it classifies every
    /// site as unprovable. Pin that they agree on every bundled program,
    /// in every build.
    #[test]
    fn ssa_sites_align_with_codegen_on_every_workload() {
        for w in Workload::all().into_iter().chain(Workload::bench()) {
            let hir = databp_tinyc::lower(w.source).unwrap();
            let ssa = databp_tinyc::ssa::analyze(&hir);
            for opts in [
                Options::plain(),
                Options::codepatch(),
                Options::codepatch_loopopt(),
                Options::codepatch_ssa(),
                Options::nop_padding(),
            ] {
                let sites = compile(w.source, &opts).unwrap().debug.store_sites;
                assert_eq!(
                    ssa.flat_sites().count(),
                    sites.len(),
                    "{} {opts:?}: total site count",
                    w.name
                );
                for (fid, f) in ssa.funcs.iter().enumerate() {
                    let n = sites.iter().filter(|s| s.func == fid as u16).count();
                    assert_eq!(
                        f.sites.len(),
                        n,
                        "{} {opts:?}: site count of function {fid}",
                        w.name
                    );
                }
            }
        }
    }

    #[test]
    fn loopopt_build_has_hoist_groups() {
        for name in ["cc", "tex", "spice", "qcd", "bps"] {
            let p = run_scaled(name);
            assert!(
                !p.codepatch_loopopt().debug.hoists.is_empty(),
                "{name} has loops with invariant scalar stores"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_scaled("bps");
        let b = run_scaled("bps");
        assert_eq!(a.output, b.output);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.base_us, b.base_us);
    }
}
