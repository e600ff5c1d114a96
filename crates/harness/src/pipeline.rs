//! The phase-1 + phase-2 pipeline shared by every experiment.
//!
//! Phase 2 is the whole cost of the reproduction, so the pipeline is
//! built to spend it once — and, by default, to *overlap* it with
//! phase 1:
//!
//! * [`analyze`] replays the trace through the simulator's fused
//!   page-size ladder (one trace walk yields the counts for every
//!   requested size — the 4K/8K pair by default, any ladder via
//!   [`AnalyzeOpts::ladder`]);
//! * the default path streams: the traced machine run, on the caller's
//!   thread, feeds event batches through a bounded channel to a scoped
//!   consumer thread running the replay engine, so phase 2 finishes
//!   moments after phase 1 halts instead of starting there — with
//!   byte-identical results (session discovery is canonicalized to the
//!   materialized enumeration order). On a one-CPU host the batches are
//!   replayed inline on the tracing thread instead. `stream: false`
//!   keeps the classic materialize-then-replay path as the reference;
//! * [`analyze_all`] fans the five workloads out across worker threads
//!   ([`analyze_all_jobs`]). Results always come back in
//!   [`Workload::all()`] order, independent of thread scheduling, so
//!   every derived table and CSV is byte-identical to a sequential run.

use databp_machine::PageSize;
use databp_models::{overhead, Approach, Counts};
use databp_sessions::{enumerate_sessions, Session, SessionKind, SessionSet, StreamSessionSet};
use databp_sim::{simulate_sizes, StreamingReplay};
use databp_trace::{channel_sink, inline_sink};
use databp_workloads::{compile_plain, run_traced, Prepared, Workload};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which workload scale to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// The full Table-1-like configuration (seconds per workload).
    #[default]
    Full,
    /// Scaled-down inputs for quick runs and tests.
    Small,
}

/// Pipeline configuration for [`analyze_opts`] / [`analyze_all_opts`].
///
/// The default overlaps phase 2 with phase 1: the traced run stays on
/// the caller's thread and a consumer thread replays its batches (inline
/// replay on a one-CPU host). Either path leaves the full trace in
/// [`Prepared::trace`](databp_workloads::Prepared).
#[derive(Debug, Clone)]
pub struct AnalyzeOpts {
    /// Overlap phase 2 with phase 1 through the streaming channel
    /// (default). `false` materializes the whole trace first, then
    /// replays it — the reference the streamed path is tested against.
    pub stream: bool,
    /// Page sizes to count at. 4 KiB and 8 KiB are always included (the
    /// models need them); extra sizes ride along in the same trace
    /// walk.
    pub ladder: Vec<PageSize>,
    /// Events per streamed batch.
    pub batch_events: usize,
    /// Bounded channel capacity, in batches. `0` selects *inline*
    /// streaming: each batch is replayed on the tracing thread itself —
    /// still no materialized trace on the hot path, but no consumer
    /// thread either, which is the right shape on a single-core host
    /// where a second thread only adds context switches. The default is
    /// `0` when only one CPU is available to this thread and 16
    /// otherwise.
    pub channel_batches: usize,
}

impl Default for AnalyzeOpts {
    fn default() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        AnalyzeOpts {
            stream: true,
            ladder: vec![PageSize::K4, PageSize::K8],
            // Sized so the producer rarely blocks: sixteen batches of
            // 16K events absorb a whole scaled-down trace, and ~6 MiB
            // of buffering is still far below materializing a full
            // trace.
            batch_events: 16 * 1024,
            channel_batches: if cpus > 1 { 16 } else { 0 },
        }
    }
}

impl AnalyzeOpts {
    /// The effective ladder: [`normalize_ladder`] of [`AnalyzeOpts::ladder`].
    pub fn normalized_ladder(&self) -> Vec<PageSize> {
        normalize_ladder(&self.ladder)
    }
}

/// The effective ladder for the requested `sizes`: those sizes plus the
/// mandatory 4K/8K pair, ascending and deduplicated. Public because the
/// replay service's trace cache compares request ladders against cached
/// ones in exactly this normalized form.
pub fn normalize_ladder(sizes: &[PageSize]) -> Vec<PageSize> {
    let mut ladder = sizes.to_vec();
    ladder.push(PageSize::K4);
    ladder.push(PageSize::K8);
    ladder.sort_unstable_by_key(|ps| ps.shift());
    ladder.dedup();
    ladder
}

/// Everything the experiments need for one workload: trace, sessions
/// (zero-hit filtered, as in the paper), and per-session counting
/// variables at every ladder page size.
#[derive(Debug)]
pub struct WorkloadResults {
    /// Compiled builds, trace, and base timing.
    pub prepared: Prepared,
    /// Sessions with at least one monitor hit, aligned with the counts
    /// vectors.
    pub sessions: Vec<Session>,
    /// Counting variables at 4 KiB pages.
    pub counts4: Vec<Counts>,
    /// Counting variables at 8 KiB pages.
    pub counts8: Vec<Counts>,
    /// The page-size ladder, ascending (always contains 4K and 8K).
    pub ladder: Vec<PageSize>,
    /// Counting variables per ladder size (`[k][s]` = `ladder[k]`,
    /// session `s`); `counts4`/`counts8` are the 4K/8K rows of this.
    pub ladder_counts: Vec<Vec<Counts>>,
    /// Number of enumerated sessions before zero-hit filtering.
    pub candidates: usize,
}

impl WorkloadResults {
    /// Surviving sessions per kind (Table 1's columns).
    pub fn kind_counts(&self) -> BTreeMap<SessionKind, usize> {
        let mut m = BTreeMap::new();
        for k in SessionKind::ALL {
            m.insert(k, 0usize);
        }
        for s in &self.sessions {
            *m.get_mut(&s.kind()).expect("all kinds pre-inserted") += 1;
        }
        m
    }

    /// Base execution time in milliseconds (Table 1's last column).
    pub fn base_ms(&self) -> f64 {
        self.prepared.base_us / 1000.0
    }
}

/// Runs phase 1 and phase 2 for one workload with default options
/// (overlapped phases, teed trace, 4K/8K ladder).
///
/// # Panics
///
/// Panics if the workload fails to run (covered by workload tests).
pub fn analyze(workload: &Workload) -> WorkloadResults {
    analyze_opts(workload, &AnalyzeOpts::default())
}

/// Runs phase 1 and phase 2 for one workload under `opts`.
///
/// # Panics
///
/// Panics if the workload fails to run (covered by workload tests).
pub fn analyze_opts(workload: &Workload, opts: &AnalyzeOpts) -> WorkloadResults {
    let _span = databp_telemetry::time!("harness.analyze");
    let ladder = opts.normalized_ladder();
    if !opts.stream {
        // The classic two-phase reference: trace fully materialized,
        // then replayed.
        let prepared = {
            let _t = databp_telemetry::time!("harness.prepare");
            databp_workloads::prepare(workload)
                .unwrap_or_else(|e| panic!("workload {} failed: {e}", workload.name))
        };
        return reanalyze(prepared, &ladder);
    }
    let (prepared, all, candidates, per_size) = analyze_streamed(workload, opts, &ladder);
    finish_results(prepared, all, candidates, per_size, ladder)
}

/// Runs phase 2 only, against the materialized trace already inside
/// `prepared`, at a possibly different page-size ladder — the classic
/// materialize-then-replay path. No workload is compiled or traced and
/// no `harness.analyze` span is recorded of its own: this is the
/// replay service's warm-start and cache-hit path for a ladder the
/// cached results don't cover yet (one fresh trace walk, zero phase-1
/// work), and [`analyze_opts`]' `stream: false` reference.
///
/// For the same trace and ladder the results are byte-identical to the
/// streamed [`analyze_opts`] (by test).
///
/// # Panics
///
/// Panics if `prepared.trace` is empty — the caller cached a trace-less
/// build, which is a bug.
pub fn reanalyze(prepared: Prepared, ladder: &[PageSize]) -> WorkloadResults {
    let _span = databp_telemetry::time!("harness.reanalyze");
    assert!(
        !prepared.trace.is_empty(),
        "reanalyze needs a materialized trace (workload {})",
        prepared.workload.name
    );
    let ladder = normalize_ladder(ladder);
    let (all, candidates, set) = {
        let _t = databp_telemetry::time!("harness.sessions");
        let all = enumerate_sessions(&prepared.plain.debug, &prepared.trace);
        let candidates = all.len();
        let set = SessionSet::new(all.clone(), &prepared.plain.debug, &prepared.trace);
        (all, candidates, set)
    };
    let per_size = simulate_sizes(&prepared.trace, &set, &ladder);
    finish_results(prepared, all, candidates, per_size, ladder)
}

/// The shared tail of every analysis path: zero-hit session filtering
/// and the 4K/8K row extraction.
fn finish_results(
    prepared: Prepared,
    all: Vec<Session>,
    candidates: usize,
    per_size: Vec<Vec<Counts>>,
    ladder: Vec<PageSize>,
) -> WorkloadResults {
    // "Monitor sessions that had no monitor hits were discarded under the
    // assumption that they are unlikely candidates during debugging."
    // Hits are page-size-independent, so filtering on any row is
    // filtering on all of them.
    let keep: Vec<usize> = (0..all.len()).filter(|&i| per_size[0][i].hit > 0).collect();
    let sessions: Vec<Session> = keep.iter().map(|&i| all[i]).collect();
    let ladder_counts: Vec<Vec<Counts>> = per_size
        .iter()
        .map(|row| keep.iter().map(|&i| row[i]).collect())
        .collect();
    let p4 = ladder
        .iter()
        .position(|&ps| ps == PageSize::K4)
        .expect("4K is always in the ladder");
    let p8 = ladder
        .iter()
        .position(|&ps| ps == PageSize::K8)
        .expect("8K is always in the ladder");
    WorkloadResults {
        prepared,
        sessions,
        counts4: ladder_counts[p4].clone(),
        counts8: ladder_counts[p8].clone(),
        ladder,
        ladder_counts,
        candidates,
    }
}

/// The streaming path: the traced run produces event batches that are
/// replayed as they fill — through a bounded channel to a scoped
/// consumer thread (`channel_batches >= 1`) while the traced run stays
/// on the caller's thread, or inline on the tracing thread
/// (`channel_batches == 0`) — discovering heap sessions online either
/// way. Results are canonicalized to match the materialized path
/// exactly.
fn analyze_streamed(
    workload: &Workload,
    opts: &AnalyzeOpts,
    ladder: &[PageSize],
) -> (Prepared, Vec<Session>, usize, Vec<Vec<Counts>>) {
    let plain = compile_plain(workload);
    let membership = StreamSessionSet::new(&plain.debug);

    let capacity = opts.batch_events.max(1);
    let (mut prepared, tee, set, per_size_discovered) = if opts.channel_batches == 0 {
        let mut replay = StreamingReplay::new(membership, ladder);
        let sink = inline_sink(capacity, |batch| replay.feed(batch));
        let (prepared, sink) = {
            // Here `harness.prepare` covers the fused phase-1 + phase-2
            // work — replay happens inside the traced run.
            let _t = databp_telemetry::time!("harness.prepare");
            run_traced(workload, plain, sink)
                .unwrap_or_else(|e| panic!("workload {} failed: {e}", workload.name))
        };
        let tee = sink.finish();
        let (set, counts) = replay.finish();
        (prepared, tee, set, counts)
    } else {
        let (sink, stream) = channel_sink(capacity, opts.channel_batches);
        std::thread::scope(|s| {
            let consumer = s.spawn(move || {
                let mut replay = StreamingReplay::new(membership, ladder);
                stream.for_each(|batch| replay.feed(batch));
                replay.finish()
            });
            // The producer half of the `harness.prepare` work: the
            // traced machine run, on the caller's thread. Finishing the
            // sink flushes the tail batch and ends the stream; if the
            // run fails, unwinding drops the sink, which ends it too.
            let (prepared, tee) = {
                let _t = databp_telemetry::time!("harness.prepare");
                let (prepared, sink) = run_traced(workload, plain, sink)
                    .unwrap_or_else(|e| panic!("workload {} failed: {e}", workload.name));
                (prepared, sink.finish())
            };
            let (set, counts) = match consumer.join() {
                Ok(r) => r,
                Err(panic) => std::panic::resume_unwind(panic),
            };
            (prepared, tee, set, counts)
        })
    };
    prepared.trace = tee;
    let (all, candidates, per_size) = {
        let _t = databp_telemetry::time!("harness.sessions");
        let (all, perm) = set.into_canonical();
        let candidates = all.len();
        // Re-index per-session counts from discovery order to the
        // canonical enumeration order.
        let per_size: Vec<Vec<Counts>> = per_size_discovered
            .iter()
            .map(|row| {
                let mut out = vec![Counts::default(); row.len()];
                for (i, c) in row.iter().enumerate() {
                    out[perm[i] as usize] = *c;
                }
                out
            })
            .collect();
        (all, candidates, per_size)
    };
    (prepared, all, candidates, per_size)
}

/// Default worker count for [`analyze_all`]: one thread per available
/// core, capped by the workload count inside [`analyze_all_jobs`].
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the pipeline for all five workloads at the given scale, using
/// [`default_jobs`] worker threads.
pub fn analyze_all(scale: Scale) -> Vec<WorkloadResults> {
    analyze_all_jobs(scale, default_jobs())
}

/// Runs the pipeline for all five workloads at the given scale across
/// up to `jobs` worker threads.
pub fn analyze_all_jobs(scale: Scale, jobs: usize) -> Vec<WorkloadResults> {
    analyze_all_opts(scale, jobs, &AnalyzeOpts::default())
}

/// Runs the pipeline for all five workloads at the given scale across
/// up to `jobs` worker threads, each workload under `opts`.
///
/// Workloads are claimed from a shared queue, but results are returned
/// in [`Workload::all()`] order regardless of which thread finishes
/// when — downstream tables and CSVs are byte-identical to a
/// sequential (`jobs == 1`) run, and to a run with different `opts.stream`.
///
/// # Panics
///
/// Panics if any workload fails to run (propagated from [`analyze`]).
pub fn analyze_all_opts(scale: Scale, jobs: usize, opts: &AnalyzeOpts) -> Vec<WorkloadResults> {
    // Wall-clock over the whole fan-out; individual `harness.analyze`
    // spans sum per-workload time across threads, this one shows what
    // the user actually waits.
    let _span = databp_telemetry::time!("harness.analyze_all");
    let workloads: Vec<Workload> = Workload::all()
        .into_iter()
        .map(|w| match scale {
            Scale::Full => w,
            Scale::Small => w.scaled_down(),
        })
        .collect();
    let jobs = jobs.clamp(1, workloads.len());
    if jobs == 1 {
        return workloads.iter().map(|w| analyze_opts(w, opts)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<WorkloadResults>>> =
        workloads.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(w) = workloads.get(i) else {
                    break;
                };
                let r = analyze_opts(w, opts);
                *slots[i].lock().expect("result slot lock") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no worker panicked")
                .expect("every workload slot filled")
        })
        .collect()
}

/// Per-session relative overheads for one approach — the population each
/// Table 4 cell and each figure summarizes.
pub fn overheads_for(res: &WorkloadResults, approach: Approach) -> Vec<f64> {
    let timing = databp_models::TimingVars::default();
    let counts = if approach == Approach::Vm8k {
        &res.counts8
    } else {
        &res.counts4
    };
    counts
        .iter()
        .map(|c| overhead(approach, c, &timing).relative(res.prepared.base_us))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str) -> WorkloadResults {
        analyze(&Workload::by_name(name).unwrap().scaled_down())
    }

    #[test]
    fn zero_hit_sessions_filtered() {
        let r = small("cc");
        assert!(
            r.sessions.len() < r.candidates,
            "some candidates never get written"
        );
        assert!(r.counts4.iter().all(|c| c.hit > 0));
        assert_eq!(r.sessions.len(), r.counts4.len());
        assert_eq!(r.sessions.len(), r.counts8.len());
    }

    #[test]
    fn tex_and_qcd_have_no_heap_sessions() {
        for name in ["tex", "qcd"] {
            let r = small(name);
            let kc = r.kind_counts();
            assert_eq!(kc[&SessionKind::OneHeap], 0, "{name}");
            assert_eq!(kc[&SessionKind::AllHeapInFunc], 0, "{name}");
            assert!(kc[&SessionKind::OneLocalAuto] > 0, "{name}");
        }
    }

    #[test]
    fn overhead_populations_are_positive_and_ordered() {
        let r = small("cc");
        let tp = overheads_for(&r, Approach::Tp);
        let cp = overheads_for(&r, Approach::Cp);
        assert_eq!(tp.len(), r.sessions.len());
        for (t, c) in tp.iter().zip(&cp) {
            assert!(t > c, "TP must dominate CP per session");
            assert!(*c > 0.0);
        }
    }

    #[test]
    fn vm8k_uses_8k_counts() {
        let r = small("tex");
        let v4 = overheads_for(&r, Approach::Vm4k);
        let v8 = overheads_for(&r, Approach::Vm8k);
        // 8K pages can only see equal-or-more active-page misses.
        let mean4: f64 = v4.iter().sum::<f64>() / v4.len() as f64;
        let mean8: f64 = v8.iter().sum::<f64>() / v8.len() as f64;
        assert!(mean8 >= mean4 * 0.999, "mean4={mean4} mean8={mean8}");
    }

    #[test]
    fn default_ladder_rows_match_counts_fields() {
        let r = small("qcd");
        assert_eq!(r.ladder, vec![PageSize::K4, PageSize::K8]);
        assert_eq!(r.ladder_counts[0], r.counts4);
        assert_eq!(r.ladder_counts[1], r.counts8);
    }

    #[test]
    fn reanalyze_matches_analyze_at_same_and_wider_ladders() {
        let w = Workload::by_name("tex").unwrap().scaled_down();
        let base = analyze(&w);
        // Same ladder: identical counts, sessions, and candidate totals.
        let again = reanalyze(base.prepared.clone(), &base.ladder);
        assert_eq!(again.sessions, base.sessions);
        assert_eq!(again.candidates, base.candidates);
        assert_eq!(again.ladder_counts, base.ladder_counts);
        // Wider ladder: the 4K/8K rows still match a direct analysis.
        let wide = reanalyze(base.prepared.clone(), &[PageSize::K16]);
        assert_eq!(wide.ladder, vec![PageSize::K4, PageSize::K8, PageSize::K16]);
        assert_eq!(wide.counts4, base.counts4);
        assert_eq!(wide.counts8, base.counts8);
        let direct = analyze_opts(
            &w,
            &AnalyzeOpts {
                ladder: vec![PageSize::K16],
                ..AnalyzeOpts::default()
            },
        );
        assert_eq!(wide.ladder_counts, direct.ladder_counts);
    }

    #[test]
    fn ladder_always_includes_the_modeled_pair() {
        let opts = AnalyzeOpts {
            ladder: vec![PageSize::K16],
            ..AnalyzeOpts::default()
        };
        assert_eq!(
            opts.normalized_ladder(),
            vec![PageSize::K4, PageSize::K8, PageSize::K16]
        );
    }
}
