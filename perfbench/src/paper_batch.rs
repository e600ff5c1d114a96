//! `paper-batch`: what a researcher reproducing the paper waits for.
//!
//! Closed loop, one caller. One op analyzes one of the five paper
//! programs on the default materialized path (`analyze_opts`, jobs 1),
//! evaluates the five strategy models over its sessions and renders
//! Tables 1, 3 and 4 for it. Phase 1 (machine + trace hooks) and phase-2
//! replay do nearly all the work; codec, server and strategy code run
//! not at all.
//!
//! Inputs: each program runs at [`GRID`] machine-argument points spaced
//! evenly from its `scaled_down()` args to its `Workload::all()` args.
//! A cycle visits every (program, point) pair once; the seed orders the
//! points of each program across the cycle's rounds and the programs
//! within each round. Windows end on a cycle boundary, so every run
//! measures the same multiset of ops and only their order varies with
//! the seed.

use crate::rng::Rng;
use crate::spans::{Recorder, OP, PROBE};
use crate::{fnv, op_modes, Args, Outcome, FNV_OFFSET};
use databp_harness::tables::{table1, table3, table4};
use databp_harness::{analyze_opts, overheads_for, AnalyzeOpts, WorkloadResults};
use databp_machine::{Machine, NoHooks, StopReason};
use databp_models::{Approach, Counts};
use databp_sessions::{enumerate_sessions, SessionSet};
use databp_sim::{simulate_naive, simulate_sizes};
use databp_trace::Trace;
use databp_workloads::{compile_plain, run_traced, Workload};
use std::collections::HashMap;
use std::time::Instant;

/// Machine-argument points per program: enough that op costs near the
/// median are close together, so `op_p50_ms` does not jump between
/// distant cost levels from run to run.
pub const GRID: usize = 12;

/// Ops whose results the post-window oracle check re-derives.
const CHECK_OPS: usize = 2;

/// Sessions per checked op compared against the naive replay oracle.
const CHECK_SESSIONS: usize = 4;

/// One op: program `program` of `Workload::all()` at grid point `point`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpSpec {
    pub program: usize,
    pub point: usize,
}

impl OpSpec {
    /// The workload this op analyzes.
    pub fn workload(&self) -> Workload {
        let full = Workload::all().swap_remove(self.program);
        let small = full.clone().scaled_down();
        let args = small
            .args
            .iter()
            .zip(&full.args)
            .map(|(&s, &f)| s + (f - s) * self.point as i32 / (GRID - 1) as i32)
            .collect();
        Workload { args, ..full }
    }
}

/// One cycle of the op list.
pub fn cycle(rng: &mut Rng) -> Vec<OpSpec> {
    let programs = Workload::all().len();
    // rounds[r][p]: the grid point program p runs at in round r.
    let mut rounds = vec![vec![0; programs]; GRID];
    for p in 0..programs {
        let mut points: Vec<usize> = (0..GRID).collect();
        rng.shuffle(&mut points);
        for (round, point) in rounds.iter_mut().zip(points) {
            round[p] = point;
        }
    }
    let mut ops = Vec::with_capacity(programs * GRID);
    for round in &rounds {
        let mut order: Vec<usize> = (0..programs).collect();
        rng.shuffle(&mut order);
        ops.extend(order.into_iter().map(|program| OpSpec {
            program,
            point: round[program],
        }));
    }
    ops
}

/// The op list for `seed`, cycle by cycle.
pub fn cycles(seed: u64) -> impl Iterator<Item = Vec<OpSpec>> {
    let mut rng = Rng::new(seed, 1);
    std::iter::repeat_with(move || cycle(&mut rng))
}

/// What one op produces.
struct OpOutput {
    results: WorkloadResults,
    overheads: Vec<Vec<f64>>,
    tables: String,
}

impl OpOutput {
    /// Digest of everything the op computed: counts, models, tables.
    fn fingerprint(&self) -> u64 {
        let r = &self.results;
        let mut h = fnv(FNV_OFFSET, &(r.candidates as u64).to_le_bytes());
        for row in &r.ladder_counts {
            for c in row {
                for v in counts_fields(c) {
                    h = fnv(h, &v.to_le_bytes());
                }
            }
        }
        for o in self.overheads.iter().flatten() {
            h = fnv(h, &o.to_bits().to_le_bytes());
        }
        fnv(h, self.tables.as_bytes())
    }
}

fn counts_fields(c: &Counts) -> [u64; 7] {
    [
        c.install,
        c.remove,
        c.hit,
        c.miss,
        c.vm_protect,
        c.vm_unprotect,
        c.vm_active_page_miss,
    ]
}

fn models(r: &WorkloadResults) -> Vec<Vec<f64>> {
    Approach::ALL.iter().map(|&a| overheads_for(r, a)).collect()
}

fn render_tables(r: &WorkloadResults) -> String {
    let one = std::slice::from_ref(r);
    [table1(one), table3(one), table4(one)]
        .iter()
        .map(|t| t.render())
        .collect()
}

/// The op as a user runs it: one `analyze_opts` call, then models and
/// tables.
fn run_op(w: &Workload) -> OpOutput {
    let results = analyze_opts(w, &AnalyzeOpts::default());
    let overheads = models(&results);
    let tables = render_tables(&results);
    OpOutput {
        results,
        overheads,
        tables,
    }
}

/// The same op split into its layer calls, each timed as a span: the
/// materialized path of `analyze_opts` (compile, traced run, session
/// enumeration, replay, zero-hit filtering), then models and tables.
fn run_op_traced(w: &Workload, rec: &mut Recorder, op: u64) -> OpOutput {
    let plain = rec.time(op, "tinyc.compile_plain", || compile_plain(w));
    let (mut prepared, trace) = rec.time(op, "trace.run", || {
        run_traced(w, plain, Trace::new()).expect("paper workload runs")
    });
    prepared.trace = trace;
    let ladder = AnalyzeOpts::default().normalized_ladder();
    let (all, set) = rec.time(op, "sessions.enumerate", || {
        let all = enumerate_sessions(&prepared.plain.debug, &prepared.trace);
        let set = SessionSet::new(all.clone(), &prepared.plain.debug, &prepared.trace);
        (all, set)
    });
    let per_size = rec.time(op, "sim.replay", || {
        simulate_sizes(&prepared.trace, &set, &ladder)
    });
    // Zero-hit filtering, as `analyze_opts` does it; left outside every
    // span, so it shows as unaccounted time.
    let keep: Vec<usize> = (0..all.len()).filter(|&i| per_size[0][i].hit > 0).collect();
    let ladder_counts: Vec<Vec<Counts>> = per_size
        .iter()
        .map(|row| keep.iter().map(|&i| row[i]).collect())
        .collect();
    let results = WorkloadResults {
        prepared,
        sessions: keep.iter().map(|&i| all[i]).collect(),
        counts4: ladder_counts[0].clone(),
        counts8: ladder_counts[1].clone(),
        ladder,
        ladder_counts,
        candidates: all.len(),
    };
    let overheads = rec.time(op, "models.overheads", || models(&results));
    let tables = rec.time(op, "harness.tables", || render_tables(&results));
    OpOutput {
        results,
        overheads,
        tables,
    }
}

/// Hook-free run of the plain build: the uninstrumented baseline the
/// trace hooks' cost is measured against.
fn run_nohooks(out: &OpOutput, w: &Workload, rec: &mut Recorder) -> Result<(), String> {
    let p = &out.results.prepared;
    let mut m = Machine::new();
    m.load(&p.plain.program);
    m.set_args(w.args.clone());
    let stop = rec.time(PROBE, "machine.nohooks", || {
        m.run(&mut NoHooks, w.max_steps)
    });
    if stop != Ok(StopReason::Halted) || m.cost().instructions != p.instructions {
        return Err(format!(
            "{} {:?}: hook-free run stopped with {stop:?} after {} instructions, traced run retired {}",
            w.name,
            w.args,
            m.cost().instructions,
            p.instructions
        ));
    }
    Ok(())
}

/// Oracle check outside the timed window: re-analyze a seeded sample of
/// the ops, demand the same fingerprint as every timed pass, and compare
/// a seeded sample of sessions against the naive single-session replay.
fn check_naive(seed: u64, fingerprints: &HashMap<OpSpec, u64>) -> Result<usize, String> {
    let mut rng = Rng::new(seed, 2);
    let mut keys: Vec<OpSpec> = fingerprints.keys().copied().collect();
    keys.sort_by_key(|k| (k.program, k.point));
    rng.shuffle(&mut keys);
    let mut checked = 0;
    for spec in keys.into_iter().take(CHECK_OPS) {
        let w = spec.workload();
        let out = run_op(&w);
        if out.fingerprint() != fingerprints[&spec] {
            return Err(format!(
                "{} {:?}: re-analysis differs from the timed passes",
                w.name, w.args
            ));
        }
        let r = &out.results;
        let debug = &r.prepared.plain.debug;
        let set = SessionSet::new(r.sessions.clone(), debug, &r.prepared.trace);
        for _ in 0..CHECK_SESSIONS.min(r.sessions.len()) {
            let s = rng.below(r.sessions.len());
            for (k, &ps) in r.ladder.iter().enumerate() {
                let naive = simulate_naive(&r.prepared.trace, &set, ps, s as u32);
                if naive != r.ladder_counts[k][s] {
                    return Err(format!(
                        "{} {:?} session {s} at {ps}: replay {:?} != naive {naive:?}",
                        w.name, w.args, r.ladder_counts[k][s]
                    ));
                }
            }
            checked += 1;
        }
    }
    Ok(checked)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut out = Outcome::default();
    // Set-up: one small-scale op per program (the `--small` smoke pass),
    // which also warms the allocator and code paths before timing.
    let mut setup_s = Vec::new();
    for _ in 0..args.setups() {
        let t0 = Instant::now();
        for w in Workload::all() {
            std::hint::black_box(run_op(&w.scaled_down()));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let mut fingerprints: HashMap<OpSpec, u64> = HashMap::new();
    let mut rec = Recorder::new(epoch);
    let mut ops_ms = Vec::new();
    // Per mode (untraced, traced): ops and summed op wall seconds.
    let mut modes = [(0usize, 0.0f64); 2];
    let window = args.window();
    let mut i = 0u64;
    'outer: for (n, ops) in cycles(args.seed).enumerate() {
        if n >= 1 && !window.more(out.attempted as usize) {
            break;
        }
        for spec in ops {
            if window.capped() {
                break 'outer;
            }
            let w = spec.workload();
            for &traced in op_modes(args.trace, i) {
                let t0 = Instant::now();
                let op_out = if traced {
                    run_op_traced(&w, &mut rec, i)
                } else {
                    run_op(&w)
                };
                let t1 = Instant::now();
                out.attempted += 1;
                let secs = (t1 - t0).as_secs_f64();
                modes[usize::from(traced)].0 += 1;
                modes[usize::from(traced)].1 += secs;
                if traced {
                    rec.push(i, OP, t0, t1);
                    run_nohooks(&op_out, &w, &mut rec)?;
                    let r = &op_out.results;
                    let events = r.prepared.trace.len() as f64;
                    rec.add("machine.instructions", r.prepared.instructions as f64);
                    rec.add("trace.events", events);
                    rec.add("sessions.candidates", r.candidates as f64);
                    rec.add("sessions.surviving", r.sessions.len() as f64);
                    rec.add("replay.event_sessions", events * r.candidates as f64);
                } else {
                    ops_ms.push(secs * 1e3);
                }
                let fp = op_out.fingerprint();
                if *fingerprints.entry(spec).or_insert(fp) != fp {
                    return Err(format!(
                        "{} {:?}: op {i} differs from an earlier pass of the same input",
                        w.name, w.args
                    ));
                }
            }
            i += 1;
        }
    }
    let window_s = window.elapsed_s();
    let checked = check_naive(args.seed, &fingerprints)?;
    out.note(format!(
        "check: {} distinct inputs identical across passes; {checked} sampled sessions equal simulate_naive at 4K and 8K",
        fingerprints.len()
    ));

    if args.trace {
        let traced_ops = modes[1].0.max(1) as f64;
        let instr = rec.count("machine.instructions");
        let events = rec.count("trace.events");
        let nohooks_ms = rec.total_ms("machine.nohooks");
        out.set("tinyc.compile_plain_ms", rec.mean_ms("tinyc.compile_plain"));
        out.set("machine.ns_per_instr", nohooks_ms * 1e6 / instr);
        out.set("machine.instructions", instr / traced_ops);
        out.set(
            "trace.hooks_ns_per_instr",
            (rec.total_ms("trace.run") - nohooks_ms) * 1e6 / instr,
        );
        out.set("trace.events", events / traced_ops);
        out.set("sessions.enumerate_ms", rec.mean_ms("sessions.enumerate"));
        out.set(
            "sessions.candidates",
            rec.count("sessions.candidates") / traced_ops,
        );
        out.set(
            "sessions.surviving",
            rec.count("sessions.surviving") / traced_ops,
        );
        let replay_ms = rec.total_ms("sim.replay");
        out.set("sim.replay_ns_per_event", replay_ms * 1e6 / events);
        out.set(
            "sim.replay_ps_per_event_session",
            replay_ms * 1e9 / rec.count("replay.event_sessions"),
        );
        out.set("models.overheads_ms", rec.mean_ms("models.overheads"));
        out.set("harness.tables_ms", rec.mean_ms("harness.tables"));
        out.reconcile(&rec, modes[0], modes[1]);
    } else {
        out.end_to_end(&setup_s, &ops_ms, window_s);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op_list(seed: u64, n: usize) -> Vec<OpSpec> {
        cycles(seed).take(n).flatten().collect()
    }

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        assert_eq!(op_list(11, 3), op_list(11, 3));
        assert_ne!(op_list(11, 3), op_list(12, 3));
        let args = |seed| -> Vec<Vec<i32>> {
            op_list(seed, 2).iter().map(|s| s.workload().args).collect()
        };
        assert_eq!(args(5), args(5));
    }

    #[test]
    fn every_cycle_visits_every_point_of_every_program_once() {
        for seed in 0..5 {
            let mut ops = op_list(seed, 1);
            assert_eq!(ops.len(), Workload::all().len() * GRID);
            ops.sort_by_key(|s| (s.program, s.point));
            ops.dedup();
            assert_eq!(ops.len(), Workload::all().len() * GRID);
        }
    }

    #[test]
    fn grid_spans_scaled_down_to_full_args() {
        for (p, full) in Workload::all().into_iter().enumerate() {
            let small = full.clone().scaled_down();
            assert_eq!(
                OpSpec {
                    program: p,
                    point: 0
                }
                .workload()
                .args,
                small.args
            );
            assert_eq!(
                OpSpec {
                    program: p,
                    point: GRID - 1
                }
                .workload()
                .args,
                full.args
            );
        }
    }
}
