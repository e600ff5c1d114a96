//! `monitor`: a debugger user setting one data breakpoint — the paper's
//! headline mechanism.
//!
//! Closed loop, one caller. One op compiles a program's CodePatch + SSA
//! build, runs the static write-safety analysis on it, and executes one
//! monitor session under `CodePatch::with_staticopt` (a third of the ops
//! also with a seeded `with_predicate`). The machine with its inline
//! checks and the WMS lookups do nearly all the work; no trace, replay,
//! codec or server code runs inside an op.
//!
//! Set-up traces the nine bundled programs at small scale once to
//! enumerate their sessions and replay each session's counts — the
//! session list a user picks from and the oracle every op is checked
//! against. A cycle draws [`PER_PROGRAM`] sessions of every program; the
//! seed draws the sessions, the op order and the predicate constants.
//! Windows end on a cycle boundary.

use crate::rng::Rng;
use crate::spans::{Recorder, OP, PROBE};
use crate::{op_modes, Args, Outcome};
use databp_analysis::analyze_writes;
use databp_core::{CodePatch, Predicate, StrategyReport};
use databp_machine::{Machine, NoHooks, PageSize, StopReason};
use databp_models::Counts;
use databp_sessions::{enumerate_sessions, Session, SessionPlan, SessionSet};
use databp_sim::simulate_sizes;
use databp_tinyc::{compile, lower, Compiled, Options};
use databp_workloads::{prepare, Workload};
use std::sync::Arc;
use std::time::Instant;

/// Sessions drawn per program per cycle.
pub const PER_PROGRAM: usize = 8;

/// The nine bundled programs at small scale.
pub fn programs() -> Vec<Workload> {
    Workload::all()
        .into_iter()
        .chain(Workload::bench())
        .map(Workload::scaled_down)
        .collect()
}

/// A seeded monitor predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pred {
    Above(u32),
    Step(u32),
    Changed,
    OldBelow(u32),
}

impl Pred {
    fn draw(rng: &mut Rng) -> Pred {
        match rng.below(4) {
            0 => Pred::Above(rng.range(0, 64) as u32),
            1 => Pred::Step(rng.range(1, 4) as u32),
            2 => Pred::Changed,
            _ => Pred::OldBelow(rng.range(0, 64) as u32),
        }
    }

    pub fn source(&self) -> String {
        match self {
            Pred::Above(c) => format!("value > {c}"),
            Pred::Step(c) => format!("value == old + {c}"),
            Pred::Changed => "value != old".to_string(),
            Pred::OldBelow(c) => format!("old < {c}"),
        }
    }
}

/// One op: a session of program `program`, picked by `draw` from
/// stratum `stratum` of its enumerated sessions, optionally predicated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    pub program: usize,
    pub stratum: usize,
    pub draw: u64,
    pub pred: Option<Pred>,
}

impl OpSpec {
    /// Index of the op's session among `n` enumerated sessions. The
    /// enumeration is grouped by session kind, so drawing one session
    /// per [`PER_PROGRAM`]-th of it gives every cycle the same mix of
    /// kinds whatever the seed.
    pub fn session(&self, n: usize) -> usize {
        let lo = self.stratum * n / PER_PROGRAM;
        let hi = (self.stratum + 1) * n / PER_PROGRAM;
        if hi > lo {
            lo + (self.draw % (hi - lo) as u64) as usize
        } else {
            (self.draw % n as u64) as usize
        }
    }
}

/// One cycle of the op list.
pub fn cycle(rng: &mut Rng) -> Vec<OpSpec> {
    let mut ops: Vec<OpSpec> = (0..programs().len())
        .flat_map(|program| (0..PER_PROGRAM).map(move |stratum| (program, stratum)))
        .map(|(program, stratum)| OpSpec {
            program,
            stratum,
            draw: rng.next_u64(),
            pred: rng.chance(1, 3).then(|| Pred::draw(rng)),
        })
        .collect();
    rng.shuffle(&mut ops);
    ops
}

/// The op list for `seed`, cycle by cycle.
pub fn cycles(seed: u64) -> impl Iterator<Item = Vec<OpSpec>> {
    let mut rng = Rng::new(seed, 3);
    std::iter::repeat_with(move || cycle(&mut rng))
}

/// A program ready for monitoring: its sessions and their replayed
/// 4 KiB counts (the oracle), plus the plain build the session plans
/// resolve against.
struct Program {
    workload: Workload,
    plain: Compiled,
    sessions: Vec<Session>,
    replay: Vec<Counts>,
}

fn setup() -> Vec<Program> {
    programs()
        .into_iter()
        .map(|workload| {
            let p = prepare(&workload).expect("bundled workload runs");
            let sessions = enumerate_sessions(&p.plain.debug, &p.trace);
            let set = SessionSet::new(sessions.clone(), &p.plain.debug, &p.trace);
            let replay = simulate_sizes(&p.trace, &set, &[PageSize::K4]).swap_remove(0);
            Program {
                workload,
                plain: p.plain,
                sessions,
                replay,
            }
        })
        .collect()
}

/// Runs one op, timing its layer calls into `rec` when given.
fn run_op(
    p: &Program,
    spec: &OpSpec,
    mut rec: Option<&mut Recorder>,
    op: u64,
) -> Result<StrategyReport, String> {
    let mut span = |name: &'static str, f: &mut dyn FnMut()| match rec.as_deref_mut() {
        Some(r) => r.time(op, name, f),
        None => f(),
    };
    let w = &p.workload;
    let mut ssa = None;
    span("tinyc.compile_cp_ssa", &mut || {
        ssa = Some(compile(w.source, &Options::codepatch_ssa()));
    });
    let ssa = ssa.expect("ran").map_err(|e| format!("{}: {e}", w.name))?;
    let mut safety = None;
    span("analysis.write_safety", &mut || {
        safety = Some(lower(w.source).map(|hir| Arc::new(analyze_writes(&hir, &ssa.debug))));
    });
    let safety = safety
        .expect("ran")
        .map_err(|e| format!("{}: {e}", w.name))?;
    let mut report = None;
    span("core.cp_run", &mut || {
        report = Some(run_session(p, spec, &ssa, Arc::clone(&safety)));
    });
    report.expect("ran")
}

fn run_session(
    p: &Program,
    spec: &OpSpec,
    ssa: &Compiled,
    safety: Arc<databp_core::WriteSafety>,
) -> Result<StrategyReport, String> {
    let w = &p.workload;
    let session = p.sessions[spec.session(p.sessions.len())];
    let plan = SessionPlan::new(session, &p.plain.debug);
    let mut cp = CodePatch::with_staticopt(safety);
    if let Some(pred) = spec.pred {
        let src = pred.source();
        let compiled = Predicate::parse(&src)
            .and_then(|pr| pr.compile(|n| ssa.debug.func_id(n)))
            .map_err(|e| format!("predicate {src:?}: {e}"))?;
        cp = cp.with_predicate(compiled);
    }
    let mut m = Machine::new();
    m.load(&ssa.program);
    m.set_args(w.args.clone());
    cp.run(&mut m, &ssa.debug, &plan, w.max_steps * 2)
        .map_err(|e| format!("{}: CodePatch run failed: {e}", w.name))
}

/// CodePatch's live counts must equal the phase-2 replay of the same
/// session. A predicate may skip the lookup of statically refuted
/// writes (counted as misses), so predicated hits may fall short of the
/// replay by at most those skips.
fn check(p: &Program, spec: &OpSpec, rep: &StrategyReport) -> Result<(), String> {
    let idx = spec.session(p.sessions.len());
    let want = p.replay[idx];
    let got = rep.counts;
    let hits_ok = match spec.pred {
        None => got.hit == want.hit,
        Some(_) => got.hit <= want.hit && want.hit <= got.hit + rep.pred_dead_skips,
    };
    if got.install != want.install || !hits_ok || got.writes() != want.writes() {
        return Err(format!(
            "{} session {idx} ({:?}): CodePatch install/hit/writes {}/{}/{} != replay {}/{}/{}",
            p.workload.name,
            spec.pred.map(|pr| pr.source()),
            got.install,
            got.hit,
            got.writes(),
            want.install,
            want.hit,
            want.writes()
        ));
    }
    Ok(())
}

/// Hook-free run of the plain build (compiled afresh, as a probe).
fn probe_plain(p: &Program, rec: &mut Recorder) -> Result<(), String> {
    let w = &p.workload;
    let plain = rec.time(PROBE, "tinyc.compile_plain", || {
        compile(w.source, &Options::plain())
    });
    let plain = plain.map_err(|e| format!("{}: {e}", w.name))?;
    let mut m = Machine::new();
    m.load(&plain.program);
    m.set_args(w.args.clone());
    let stop = rec.time(PROBE, "machine.nohooks", || {
        m.run(&mut NoHooks, w.max_steps)
    });
    if stop != Ok(StopReason::Halted) {
        return Err(format!("{}: hook-free run stopped with {stop:?}", w.name));
    }
    rec.add("machine.instructions", m.cost().instructions as f64);
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut progs = Vec::new();
    for _ in 0..args.setups() {
        let t0 = Instant::now();
        progs = setup();
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let mut rec = Recorder::new(epoch);
    let mut ops_ms = Vec::new();
    let mut modes = [(0usize, 0.0f64); 2];
    let mut first_cycle = Vec::new();
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
            let p = &progs[spec.program];
            for &traced in op_modes(args.trace, i) {
                let t0 = Instant::now();
                let rep = run_op(p, &spec, traced.then_some(&mut rec), i);
                let t1 = Instant::now();
                out.attempted += 1;
                let secs = (t1 - t0).as_secs_f64();
                modes[usize::from(traced)].0 += 1;
                modes[usize::from(traced)].1 += secs;
                let rep = match rep {
                    Ok(r) => r,
                    Err(e) => {
                        out.failed += 1;
                        eprintln!("op failed: {e}");
                        continue;
                    }
                };
                check(p, &spec, &rep)?;
                if traced {
                    rec.push(i, OP, t0, t1);
                    probe_plain(p, &mut rec)?;
                    rec.add("core.cp_instructions", rep.instructions as f64);
                    rec.add("core.checked", rep.counts.writes() as f64);
                    rec.add("core.wms_lookups", rep.wms_counters.lookups as f64);
                    rec.add("core.checks_elided", rep.elided_lookups as f64);
                    rec.add("core.checks_hoisted", rep.hoisted_lookups as f64);
                    rec.add(
                        "core.pred_filtered",
                        (rep.pred_filtered + rep.pred_dead_skips) as f64,
                    );
                } else {
                    ops_ms.push(secs * 1e3);
                    if n == 0 {
                        first_cycle.push(rep.relative_overhead());
                    }
                }
            }
            i += 1;
        }
    }
    let window_s = window.elapsed_s();
    out.note(format!(
        "check: {} ops' CodePatch install/hit/write counts equal their sessions' phase-2 replay",
        out.attempted - out.failed
    ));

    if args.trace {
        let n = modes[1].0.max(1) as f64;
        let instr = rec.count("machine.instructions");
        let elim = rec.count("core.checks_elided") + rec.count("core.checks_hoisted");
        out.set("tinyc.compile_plain_ms", rec.mean_ms("tinyc.compile_plain"));
        out.set(
            "tinyc.compile_cp_ssa_ms",
            rec.mean_ms("tinyc.compile_cp_ssa"),
        );
        out.set(
            "analysis.write_safety_ms",
            rec.mean_ms("analysis.write_safety"),
        );
        out.set("analysis.elision_rate", elim / rec.count("core.checked"));
        out.set(
            "machine.ns_per_instr",
            rec.total_ms("machine.nohooks") * 1e6 / instr,
        );
        out.set("machine.instructions", instr / n);
        out.set(
            "core.cp_ns_per_instr",
            rec.total_ms("core.cp_run") * 1e6 / rec.count("core.cp_instructions"),
        );
        for name in [
            "core.wms_lookups",
            "core.checks_elided",
            "core.checks_hoisted",
            "core.pred_filtered",
        ] {
            out.set(name, rec.count(name) / n);
        }
        out.reconcile(&rec, modes[0], modes[1]);
    } else {
        out.end_to_end(&setup_s, &ops_ms, window_s);
        let mean = first_cycle.iter().sum::<f64>() / first_cycle.len().max(1) as f64;
        out.extra("cp_sim_overhead_x", mean, "x", "lower", first_cycle.len());
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
        assert_eq!(op_list(4, 2), op_list(4, 2));
        assert_ne!(op_list(4, 2), op_list(5, 2));
        let ops = op_list(4, 1);
        assert_eq!(ops.len(), programs().len() * PER_PROGRAM);
        for p in 0..programs().len() {
            assert_eq!(ops.iter().filter(|o| o.program == p).count(), PER_PROGRAM);
        }
        assert!(ops.iter().any(|o| o.pred.is_some()));
        for n in [1, 7, 16, 909] {
            assert!(ops.iter().all(|o| o.session(n) < n));
        }
        assert!(ops.iter().any(|o| o.pred.is_none()));
    }

    #[test]
    fn predicates_parse() {
        let mut rng = Rng::new(0, 0);
        for _ in 0..50 {
            let src = Pred::draw(&mut rng).source();
            Predicate::parse(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }
}
