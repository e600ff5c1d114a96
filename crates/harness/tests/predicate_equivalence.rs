//! Differential predicate-semantics suite: random predicates × random
//! `tinyc` pointer programs, four independent evaluators, one answer.
//!
//! Two obligations:
//!
//! 1. **Notification equivalence** — for an all-globals monitor plan,
//!    the reference interpreter (via [`InterpObserver`]), the
//!    VirtualMemory strategy, plain CodePatch, and CodePatch+SSA
//!    (static elision + dominator hoisting) must fire the predicate on
//!    exactly the same write sequence. The interpreter never sees
//!    machine pcs — its writer identity comes from the dynamic call
//!    stack — so agreement here pins the *semantics* of `value`,
//!    `old`, `hits`, and `writer in f` rather than any one
//!    implementation's bookkeeping. The SSA leg additionally checks
//!    that predicate-deadness and check elision never eat a firing
//!    write.
//! 2. **Query equivalence** — every aggregation over the phase-1 trace
//!    answers identically whether the events arrive in one replayed
//!    slab or drip-fed through the online engine in small batches
//!    (the server's cached-trace path vs its streaming path).
//!
//! The program generator is the pointer-heavy one from the SSA
//! equivalence suite: invariant pointers (hoistable), stepped pointers
//! (not hoistable), and a `put()` helper so writer-site filters have a
//! second function to distinguish.

use databp_analysis::analyze_writes;
use databp_core::{
    CodePatch, MonitorPlan, PlanClass, PredEval, Predicate, VirtualMemory, WriterMap, NO_WRITER,
};
use databp_machine::{Machine, StopReason};
use databp_sim::{Query, QueryEngine, QueryResult};
use databp_tinyc::{
    compile, interpret_observed, lower, Compiled, DebugInfo, InterpObserver, Options,
};
use databp_trace::{Trace, Tracer};
use proptest::prelude::*;
use std::sync::Arc;

/// One generated statement (see the SSA equivalence suite for the
/// in-bounds argument: `s` aims at scalars, `p` at 4-element-or-larger
/// blocks indexed 0..=3, `q` is re-aimed before any stepping loop).
#[derive(Debug, Clone)]
enum St {
    SetX(u8),
    SetG(bool, u8),
    AimS(u8),
    StoreS(u8),
    AimP(u8),
    StoreP(u8, u8),
    Put(u8, u8, bool),
    LoopInvariant(u8, u8),
    LoopStepped(u8),
    LoopScalar(u8),
    /// `g0 = g0 + 1;` — feeds `value == old + 1` predicates.
    BumpG,
}

fn render(stmts: &[St]) -> String {
    let mut body = String::new();
    for st in stmts {
        let line = match *st {
            St::SetX(c) => format!("x = {c};"),
            St::SetG(false, c) => format!("g0 = {c};"),
            St::SetG(true, c) => format!("g1 = {c};"),
            St::AimS(0) => "s = &x;".to_string(),
            St::AimS(1) => "s = &y;".to_string(),
            St::AimS(2) => "s = &g0;".to_string(),
            St::AimS(_) => "s = &g1;".to_string(),
            St::StoreS(c) => format!("*s = {c};"),
            St::AimP(0) => "p = arr;".to_string(),
            St::AimP(1) => "p = garr;".to_string(),
            St::AimP(_) => "p = (int*)malloc(32);".to_string(),
            St::StoreP(k, c) => format!("p[{}] = {c};", k % 4),
            St::Put(t, c, capture) => {
                let target = match t % 3 {
                    0 => "s",
                    1 => "&y",
                    _ => "p",
                };
                if capture {
                    format!("s = put({target}, {c});")
                } else {
                    format!("put({target}, {c});")
                }
            }
            St::LoopInvariant(n, k) => format!(
                "q = arr; for (i = 0; i < {}; i = i + 1) {{ q[{}] = i; x = x + 1; }}",
                1 + n % 4,
                k % 4
            ),
            St::LoopStepped(n) => format!(
                "q = garr; for (i = 0; i < {}; i = i + 1) {{ *q = i; q = q + 1; }}",
                1 + n % 4
            ),
            St::LoopScalar(n) => format!(
                "for (i = 0; i < {}; i = i + 1) {{ g0 = g0 + i; y = y + 2; }}",
                1 + n % 4
            ),
            St::BumpG => "g0 = g0 + 1;".to_string(),
        };
        body.push_str("            ");
        body.push_str(&line);
        body.push('\n');
    }
    format!(
        r#"
        int g0;
        int g1;
        int garr[8];
        int *put(int *r, int v) {{ *r = v; return r; }}
        int main() {{
            int x;
            int y;
            int i;
            int arr[4];
            int *s;
            int *p;
            int *q;
            x = 0;
            y = 0;
            s = &x;
            p = arr;
            q = arr;
{body}            return x + y + g0 + g1 + arr[0] + garr[0] + *q;
        }}
    "#
    )
}

fn program() -> impl Strategy<Value = Vec<St>> {
    let st = prop_oneof![
        (0u8..9).prop_map(St::SetX),
        (any::<bool>(), 0u8..9).prop_map(|(g, c)| St::SetG(g, c)),
        (0u8..4).prop_map(St::AimS),
        (0u8..9).prop_map(St::StoreS),
        (0u8..3).prop_map(St::AimP),
        (0u8..4, 0u8..9).prop_map(|(k, c)| St::StoreP(k, c)),
        (0u8..3, 0u8..9, any::<bool>()).prop_map(|(t, c, cap)| St::Put(t, c, cap)),
        (0u8..4, 0u8..4).prop_map(|(n, k)| St::LoopInvariant(n, k)),
        (0u8..4).prop_map(St::LoopStepped),
        (0u8..4).prop_map(St::LoopScalar),
        Just(St::BumpG),
    ];
    prop::collection::vec(st, 1..24)
}

/// One generated predicate, spanning every variable of the language.
#[derive(Debug, Clone)]
enum Pr {
    ValueGt(u8),
    ValueEven,
    Increment,
    OldZero,
    HitsMod(u8),
    HitsGe(u8),
    WriterPut,
    WriterMain,
    GtAndWriter(u8),
    GtOrOddHit(u8),
    NotGt(u8),
}

fn render_pred(p: &Pr) -> String {
    match *p {
        Pr::ValueGt(c) => format!("value > {c}"),
        Pr::ValueEven => "value % 2 == 0".to_string(),
        Pr::Increment => "value == old + 1".to_string(),
        Pr::OldZero => "old == 0".to_string(),
        Pr::HitsMod(k) => format!("hits % {} == 0", 2 + k % 4),
        Pr::HitsGe(n) => format!("hits >= {}", 1 + n % 6),
        Pr::WriterPut => "writer in put".to_string(),
        Pr::WriterMain => "writer in main".to_string(),
        Pr::GtAndWriter(c) => format!("value > {c} && writer in put"),
        Pr::GtOrOddHit(c) => format!("value > {c} || hits % 2 == 1"),
        Pr::NotGt(c) => format!("!(value > {c})"),
    }
}

fn predicate() -> impl Strategy<Value = Pr> {
    prop_oneof![
        (0u8..9).prop_map(Pr::ValueGt),
        Just(Pr::ValueEven),
        Just(Pr::Increment),
        Just(Pr::OldZero),
        (0u8..4).prop_map(Pr::HitsMod),
        (0u8..6).prop_map(Pr::HitsGe),
        Just(Pr::WriterPut),
        Just(Pr::WriterMain),
        (0u8..9).prop_map(Pr::GtAndWriter),
        (0u8..9).prop_map(Pr::GtOrOddHit),
        (0u8..9).prop_map(Pr::NotGt),
    ]
}

/// Monitor every global, nothing else. The class is the globals
/// region, so CodePatch+SSA may elide provably-stack/heap checks.
struct AllGlobals;

impl MonitorPlan for AllGlobals {
    fn monitor_global(&self, _id: u32) -> bool {
        true
    }

    fn plan_class(&self) -> PlanClass {
        PlanClass::GLOBAL
    }
}

/// The interpreter-side evaluator: candidate writes are stores
/// overlapping a monitored global (the interpreter shares the
/// machine's address-space layout, so `DebugInfo` ranges apply
/// directly); writer identity is the innermost live function.
struct Oracle {
    monitors: Vec<(u32, u32)>,
    stack: Vec<u16>,
    pred: PredEval,
    fired: Vec<(u32, u32)>,
}

impl InterpObserver for Oracle {
    fn enter(&mut self, func: u16, _fp: u32) {
        self.stack.push(func);
    }

    fn exit(&mut self, _func: u16, _fp: u32) {
        self.stack.pop();
    }

    fn store(&mut self, addr: u32, len: u32, value: u32, old: u32) {
        let (ba, ea) = (addr, addr + len);
        if self.monitors.iter().any(|&(mba, mea)| ba < mea && mba < ea) {
            let writer = self.stack.last().copied().unwrap_or(NO_WRITER);
            if self.pred.observe(value, old, writer) {
                self.fired.push((ba, ea));
            }
        }
    }
}

fn compile_pred(src: &str, debug: &DebugInfo) -> databp_core::CompiledPredicate {
    Predicate::parse(src)
        .expect("generated predicate parses")
        .compile(|n| debug.func_id(n))
        .expect("generated predicate compiles")
}

fn trace_of(plain: &Compiled) -> Trace {
    let mut m = Machine::new();
    m.load(&plain.program);
    let mut tracer = Tracer::new(plain.debug.frame_map(), plain.debug.global_specs())
        .with_untraced(plain.debug.untraced_store_pcs.clone());
    tracer.begin();
    assert_eq!(m.run(&mut tracer, 10_000_000).unwrap(), StopReason::Halted);
    tracer.finish()
}

fn addrs(rep: &databp_core::StrategyReport) -> Vec<(u32, u32)> {
    rep.notifications.iter().map(|n| (n.ba, n.ea)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Interpreter, VirtualMemory, plain CodePatch, and CodePatch+SSA
    /// fire the predicate on exactly the same writes, in the same
    /// order.
    #[test]
    fn predicate_notifications_agree_across_all_evaluators(
        stmts in program(),
        pr in predicate(),
    ) {
        let src = render(&stmts);
        let psrc = render_pred(&pr);
        let plain = compile(&src, &Options::plain()).expect("generated program compiles");
        let cp = compile(&src, &Options::codepatch()).expect("generated program compiles");
        let ssa = compile(&src, &Options::codepatch_ssa()).expect("generated program compiles");
        let hir = lower(&src).expect("generated program lowers");
        let safety = Arc::new(analyze_writes(&hir, &ssa.debug));
        let plan = AllGlobals;

        // Interpreter oracle: no machine, no trace, no pcs.
        let mut oracle = Oracle {
            monitors: plain.debug.globals.iter().map(|g| (g.ba, g.ea)).collect(),
            stack: Vec::new(),
            pred: PredEval::new(compile_pred(&psrc, &plain.debug)),
            fired: Vec::new(),
        };
        interpret_observed(&hir, &[], 10_000_000, &mut oracle).expect("interpreter runs");
        let want = oracle.fired;

        // VirtualMemory on the plain build.
        let vm_rep = {
            let mut m = Machine::new();
            m.load(&plain.program);
            VirtualMemory::k4()
                .run_with_predicate(
                    &mut m,
                    &plain.debug,
                    &plan,
                    Some(compile_pred(&psrc, &plain.debug)),
                    10_000_000,
                )
                .expect("VM run failed")
        };
        prop_assert_eq!(
            addrs(&vm_rep), want.clone(),
            "VM diverged from the interpreter for `{}` on:\n{}", &psrc, &src);

        // Plain CodePatch.
        let cp_rep = {
            let mut m = Machine::new();
            m.load(&cp.program);
            CodePatch::default()
                .with_predicate(compile_pred(&psrc, &cp.debug))
                .run(&mut m, &cp.debug, &plan, 10_000_000)
                .expect("CP run failed")
        };
        prop_assert_eq!(
            addrs(&cp_rep), want.clone(),
            "CP diverged from the interpreter for `{}` on:\n{}", &psrc, &src);

        // CodePatch + static elision + dominator hoisting +
        // predicate-deadness, all composed.
        let ssa_rep = {
            let mut m = Machine::new();
            m.load(&ssa.program);
            CodePatch::with_staticopt(Arc::clone(&safety))
                .with_predicate(compile_pred(&psrc, &ssa.debug))
                .run(&mut m, &ssa.debug, &plan, 10_000_000)
                .expect("CP+SSA run failed")
        };
        prop_assert_eq!(
            addrs(&ssa_rep), want.clone(),
            "CP+SSA diverged from the interpreter for `{}` on:\n{}", &psrc, &src);

        // Firing counts line up with the shared sequence. Filtered
        // counts are only boundable, not equal: CP diverts candidates
        // at statically-dead sites into `pred_dead_skips` (and a dead
        // check skips the lookup, so its skips also count
        // non-candidate executions), whereas the VM filters every
        // candidate dynamically.
        let n = want.len() as u64;
        prop_assert_eq!(vm_rep.pred_fired, n);
        prop_assert_eq!(cp_rep.pred_fired, n);
        prop_assert_eq!(ssa_rep.pred_fired, n);
        prop_assert!(vm_rep.pred_filtered >= cp_rep.pred_filtered);
        prop_assert!(vm_rep.pred_filtered <= cp_rep.pred_filtered + cp_rep.pred_dead_skips);
    }

    /// Every aggregation answers identically over one replayed slab of
    /// events and over the online engine fed in small batches.
    #[test]
    fn queries_agree_online_and_replayed(
        stmts in program(),
        pr in predicate(),
        agg in 0usize..5,
        batch in 1usize..9,
    ) {
        let src = render(&stmts);
        let agg_kw = ["count", "first", "last", "hist", "watch"][agg];
        let q = format!("{agg_kw} if {}", render_pred(&pr));
        let plain = compile(&src, &Options::plain()).expect("generated program compiles");
        let trace = trace_of(&plain);
        let debug = &plain.debug;

        let replayed = databp_sim::run_query(
            &q,
            trace.events(),
            |n| debug.func_id(n),
            WriterMap::from_debug(debug),
        )
        .expect("query runs");

        let compiled = Query::parse(&q)
            .expect("query parses")
            .compile(|n| debug.func_id(n))
            .expect("query compiles");
        let mut online = QueryEngine::new(compiled, WriterMap::from_debug(debug));
        for chunk in trace.events().chunks(batch) {
            online.feed(chunk);
        }
        prop_assert_eq!(
            online.result(), replayed.clone(),
            "online result diverged from replayed for `{}` on:\n{}", &q, &src);

        // A `count` aggregation's write total is the trace's write
        // count — `hits` in queries ranges over every traced write.
        if let QueryResult::Count { writes, .. } = replayed {
            let traced = trace
                .events()
                .iter()
                .filter(|e| matches!(e, databp_trace::Event::Write { .. }))
                .count() as u64;
            prop_assert_eq!(writes, traced);
        }
    }
}
