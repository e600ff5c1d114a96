//! SSA middle end: the flow-sensitive half of the static write-safety
//! story.
//!
//! A syntactic fold over a store's address expression is
//! flow-*insensitive*: a pointer assigned `&x` then `&g` would summarize
//! every store through it as "stack or global". This module lowers HIR
//! into SSA form — CFG, dominator tree, dominance frontiers, mem2reg for
//! address-never-taken scalars, constant propagation, and
//! reachability-based DCE — and derives each store site's [`AddrDesc`]
//! from the *reaching definition* of its address, so the write-safety
//! fixpoint in `databp-analysis` classifies far more sites as provably
//! stack- or global-only. It is the only source of store-address facts
//! and of loop-hoist plans.
//!
//! Three outputs feed downstream consumers:
//!
//! * [`analyze`] — per-site [`SiteFact`]s (refined descriptor + dead
//!   flag), per-function escape/promotion sets, and the value-flow
//!   [`FlowEdge`]s the region fixpoint needs (call arguments, returns,
//!   stores to in-memory named variables).
//! * [`hoist_plans`] — dominator-based check-hoisting plans per loop:
//!   one preheader guard whose verdict licenses eliding the
//!   per-iteration checks it dominates (the bounds-check-elimination
//!   shape from Section 9 of the paper, extended to loop-invariant
//!   pointer targets). The Section 9 build emits the named-scalar
//!   targets, the SSA build all of them.
//! * [`dump`] — a deterministic text rendering of the whole pipeline
//!   for `repro tinyc --dump-ssa`.
//!
//! Soundness invariants (relied on by `CodePatch::with_staticopt` and
//! replay-verified by `sim::verify_elided_stores`):
//!
//! * The per-function store-site enumeration mirrors codegen's emission
//!   order exactly (parameter spills first; assignments evaluate value,
//!   then address, then store; `if` walks cond/then/else; loops walk
//!   init/cond/body/step; `&&`/`||` walk left then right), so
//!   `SsaInfo::flat_sites` is index-aligned with
//!   `DebugInfo::store_sites`.
//! * A local is *promotable* (its loads resolve to SSA values) only if
//!   its address never escapes under the escape pass's benign-position
//!   rules — the same taken sets the analysis solver saturates — and its
//!   type is a word scalar.
//! * Constant folding is value-exact (wrapping arithmetic, signed
//!   compares); division, remainder, and shifts are never folded.
//! * A hoisted pointer target requires the pointer to be promotable
//!   (no aliased writes possible) and never reassigned anywhere in the
//!   loop, so its value — and the guarded address — is loop-invariant.

use std::mem;

use databp_machine::DATA_BASE;

use crate::debuginfo::{AddrDesc, REGION_GLOBAL, REGION_HEAP, REGION_STACK};
use crate::hir::{BinOp, Builtin, Expr, ExprKind, FuncDef, Hir, Stmt, UnOp};
use crate::types::Type;

// ---- public results ----

/// What SSA analysis concluded about one traced store site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteFact {
    /// Address descriptor, from the reaching definitions of the
    /// store's address at this program point.
    pub desc: AddrDesc,
    /// The stored value, when constant propagation proves it a
    /// compile-time constant at this site (raw, unmasked — callers mask
    /// to the site's store width). Feeds predicate deadness: a monitor
    /// predicate that is provably false for this value never fires here.
    pub value_const: Option<i32>,
    /// True when the store is statically unreachable (dead branch or
    /// code after a terminator): its check can be elided under any
    /// plan.
    pub dead: bool,
}

/// Where a value-flow edge lands in the region fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowTarget {
    /// A named local slot `(fid, var)` — in-memory locals and callee
    /// parameters (call-argument edges).
    Local(u16, u16),
    /// A global slot.
    Global(u32),
    /// The return value of function `fid`.
    Ret(u16),
}

/// One value-flow edge: `desc` (evaluated in function `fid`) flows into
/// `target`. Replaces the flow-insensitive solver's own HIR walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEdge {
    /// Function the source value was computed in (resolves local deps).
    pub fid: u16,
    /// Summary of the flowing value.
    pub desc: AddrDesc,
    /// Destination node.
    pub target: FlowTarget,
}

/// One preheader guard a loop's plan wants emitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HoistTarget {
    /// A direct store to local `var`: guard `fp + offset`.
    Local {
        /// Local index.
        var: u16,
        /// Access width in bytes.
        width: u32,
    },
    /// A direct store to global `gid`.
    Global {
        /// Global id.
        gid: u32,
        /// Access width in bytes.
        width: u32,
    },
    /// A store through loop-invariant pointer local `var` at constant
    /// byte offset `off` (`*p`, `p->f`, `p[2]` with promotable `p`
    /// never reassigned in the loop).
    PtrLocal {
        /// Pointer local index.
        var: u16,
        /// Constant byte offset added to the loaded pointer.
        off: i16,
        /// Access width in bytes.
        width: u32,
    },
}

impl HoistTarget {
    fn width_mut(&mut self) -> &mut u32 {
        match self {
            HoistTarget::Local { width, .. }
            | HoistTarget::Global { width, .. }
            | HoistTarget::PtrLocal { width, .. } => width,
        }
    }

    fn same_key(&self, o: &HoistTarget) -> bool {
        match (self, o) {
            (HoistTarget::Local { var: a, .. }, HoistTarget::Local { var: b, .. }) => a == b,
            (HoistTarget::Global { gid: a, .. }, HoistTarget::Global { gid: b, .. }) => a == b,
            (
                HoistTarget::PtrLocal { var: a, off: x, .. },
                HoistTarget::PtrLocal { var: b, off: y, .. },
            ) => a == b && x == y,
            _ => false,
        }
    }
}

/// The hoist plan for one loop (loops in per-function pre-order, the
/// same order codegen encounters them).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HoistPlan {
    /// Deduplicated guard targets (widest access width per target).
    pub targets: Vec<HoistTarget>,
}

/// Per-function SSA results.
#[derive(Debug, Clone)]
pub struct FuncSsa {
    /// One fact per traced store site, in emission order.
    pub sites: Vec<SiteFact>,
    /// Per-local: address escapes (the solver must saturate its node).
    pub taken: Vec<bool>,
    /// Per-local: promoted to SSA (word scalar, address never taken).
    pub promotable: Vec<bool>,
    /// Reachable basic blocks (stat).
    pub blocks: usize,
    /// Phi nodes placed (stat).
    pub phis: usize,
    /// Sites proven statically unreachable (stat).
    pub dead_sites: usize,
}

/// Whole-program SSA analysis results.
#[derive(Debug, Clone)]
pub struct SsaInfo {
    /// Per-function results; index is the function id.
    pub funcs: Vec<FuncSsa>,
    /// Value-flow edges from statically reachable code.
    pub edges: Vec<FlowEdge>,
    /// Per-global: address escapes into untracked positions.
    pub taken_globals: Vec<bool>,
}

impl SsaInfo {
    /// All site facts in `DebugInfo::store_sites` order (functions
    /// concatenated by id, sites in emission order within each).
    pub fn flat_sites(&self) -> impl Iterator<Item = &SiteFact> + '_ {
        self.funcs.iter().flat_map(|f| f.sites.iter())
    }
}

// ---- entry points ----

/// Runs the SSA pipeline over every function and returns per-site
/// facts plus the value-flow edges for the region fixpoint.
pub fn analyze(hir: &Hir) -> SsaInfo {
    let esc = escape(hir);
    let mut funcs = Vec::with_capacity(hir.funcs.len());
    let mut edges = Vec::new();
    for (fid, f) in hir.funcs.iter().enumerate() {
        let taken = esc.locals[fid].clone();
        let promotable = promotable_locals(f, &taken);
        let solved = solve_func(f, fid as u16, &promotable);
        let mut sites = Vec::with_capacity(solved.site_sum.len());
        let mut dead_sites = 0;
        for (idx, sum) in solved.site_sum.iter().enumerate() {
            let dead = !solved.live[solved.site_block[idx]];
            if dead {
                dead_sites += 1;
            }
            let desc = match sum {
                Some(s) => flatten(s, &solved.values),
                None => AddrDesc::default(),
            };
            sites.push(SiteFact {
                desc,
                value_const: solved.site_val[idx],
                dead,
            });
        }
        for (b, target, sum) in &solved.edges {
            if solved.live[*b] {
                edges.push(FlowEdge {
                    fid: fid as u16,
                    desc: flatten(sum, &solved.values),
                    target: *target,
                });
            }
        }
        funcs.push(FuncSsa {
            sites,
            taken,
            promotable,
            blocks: solved.reach.iter().filter(|&&r| r).count(),
            phis: solved.n_phis,
            dead_sites,
        });
    }
    SsaInfo {
        funcs,
        edges,
        taken_globals: esc.globals,
    }
}

/// Computes per-loop check-hoisting plans for every function, loops in
/// pre-order (the order codegen's `gen_loop` encounters them).
pub fn hoist_plans(hir: &Hir) -> Vec<Vec<HoistPlan>> {
    let esc = escape(hir);
    hir.funcs
        .iter()
        .enumerate()
        .map(|(fid, f)| {
            let promotable = promotable_locals(f, &esc.locals[fid]);
            let mut plans = Vec::new();
            plan_stmts(&f.body, &promotable, &mut plans);
            plans
        })
        .collect()
}

fn promotable_locals(f: &FuncDef, taken: &[bool]) -> Vec<bool> {
    f.locals
        .iter()
        .zip(taken)
        .map(|(l, &t)| !t && matches!(l.ty, Type::Int | Type::Ptr(_)))
        .collect()
}

// ---- escape pass ----
//
// The one escape rule of the write-safety analysis (the solver
// saturates exactly these taken sets): an `&x` is harmless only as the
// immediate child of a load (a plain read) or the address slot of a
// direct assignment (a plain write). Every other position — stored
// values, call arguments, arithmetic — escapes the object.

struct Escape {
    locals: Vec<Vec<bool>>,
    globals: Vec<bool>,
}

fn escape(hir: &Hir) -> Escape {
    let mut esc = Escape {
        locals: hir
            .funcs
            .iter()
            .map(|f| vec![false; f.locals.len()])
            .collect(),
        globals: vec![false; hir.globals.len()],
    };
    for (fid, f) in hir.funcs.iter().enumerate() {
        esc_stmts(&f.body, fid, &mut esc);
    }
    esc
}

fn esc_stmts(stmts: &[Stmt], fid: usize, esc: &mut Escape) {
    for s in stmts {
        match s {
            Stmt::Expr(e) => esc_expr(e, false, fid, esc),
            Stmt::If(c, t, el) => {
                esc_expr(c, false, fid, esc);
                esc_stmts(t, fid, esc);
                esc_stmts(el, fid, esc);
            }
            Stmt::While(c, b) => {
                esc_expr(c, false, fid, esc);
                esc_stmts(b, fid, esc);
            }
            Stmt::For(i, c, st, b) => {
                for e in [i, c, st].into_iter().flatten() {
                    esc_expr(e, false, fid, esc);
                }
                esc_stmts(b, fid, esc);
            }
            Stmt::Return(Some(e)) => esc_expr(e, false, fid, esc),
            Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
        }
    }
}

fn esc_expr(e: &Expr, benign: bool, fid: usize, esc: &mut Escape) {
    match &e.kind {
        ExprKind::Const(_) => {}
        ExprKind::AddrLocal(v) => {
            if !benign {
                esc.locals[fid][*v as usize] = true;
            }
        }
        ExprKind::AddrGlobal(g) => {
            if !benign {
                esc.globals[*g as usize] = true;
            }
        }
        ExprKind::Load(a) => esc_expr(a, true, fid, esc),
        ExprKind::Unary(_, a) | ExprKind::CastChar(a) => esc_expr(a, false, fid, esc),
        ExprKind::Binary(_, a, b) | ExprKind::LogAnd(a, b) | ExprKind::LogOr(a, b) => {
            esc_expr(a, false, fid, esc);
            esc_expr(b, false, fid, esc);
        }
        ExprKind::Assign { addr, value } => {
            esc_expr(addr, true, fid, esc);
            esc_expr(value, false, fid, esc);
        }
        ExprKind::Call(_, args) | ExprKind::Builtin(_, args) => {
            for a in args {
                esc_expr(a, false, fid, esc);
            }
        }
    }
}

// ---- hoist-plan discovery ----

fn plan_stmts(stmts: &[Stmt], promotable: &[bool], plans: &mut Vec<HoistPlan>) {
    for s in stmts {
        match s {
            Stmt::Expr(_) | Stmt::Return(_) | Stmt::Break | Stmt::Continue => {}
            Stmt::If(_, t, e) => {
                plan_stmts(t, promotable, plans);
                plan_stmts(e, promotable, plans);
            }
            Stmt::While(c, b) => plan_loop(Some(c), None, b, promotable, plans),
            Stmt::For(_, c, st, b) => plan_loop(c.as_ref(), st.as_ref(), b, promotable, plans),
        }
    }
}

fn plan_loop(
    cond: Option<&Expr>,
    step: Option<&Expr>,
    body: &[Stmt],
    promotable: &[bool],
    plans: &mut Vec<HoistPlan>,
) {
    let slot = plans.len();
    plans.push(HoistPlan::default());
    // A pointer target is loop-invariant only if the pointer is never
    // reassigned anywhere in the loop subtree — nested loops included,
    // a `for` init excluded (it runs once, before the preheader).
    let mut reassigned = vec![false; promotable.len()];
    if let Some(c) = cond {
        reassigned_expr(c, &mut reassigned);
    }
    reassigned_stmts(body, &mut reassigned);
    if let Some(s) = step {
        reassigned_expr(s, &mut reassigned);
    }
    let mut raw = Vec::new();
    if let Some(c) = cond {
        target_expr(c, promotable, &reassigned, &mut raw);
    }
    target_stmts(body, promotable, &reassigned, &mut raw);
    if let Some(s) = step {
        target_expr(s, promotable, &reassigned, &mut raw);
    }
    // Dedup by target identity keeping the widest access: a miss on the
    // wide range implies a miss on every narrower store it covers.
    let mut targets: Vec<HoistTarget> = Vec::new();
    for t in raw {
        if let Some(prev) = targets.iter_mut().find(|p| p.same_key(&t)) {
            let w = match &t {
                HoistTarget::Local { width, .. }
                | HoistTarget::Global { width, .. }
                | HoistTarget::PtrLocal { width, .. } => *width,
            };
            let pw = prev.width_mut();
            *pw = (*pw).max(w);
        } else {
            targets.push(t);
        }
    }
    plans[slot].targets = targets;
    // Nested loops get their own plans, after this one (pre-order).
    plan_stmts(body, promotable, plans);
}

fn reassigned_stmts(stmts: &[Stmt], out: &mut [bool]) {
    for s in stmts {
        match s {
            Stmt::Expr(e) => reassigned_expr(e, out),
            Stmt::If(c, t, el) => {
                reassigned_expr(c, out);
                reassigned_stmts(t, out);
                reassigned_stmts(el, out);
            }
            Stmt::While(c, b) => {
                reassigned_expr(c, out);
                reassigned_stmts(b, out);
            }
            Stmt::For(i, c, st, b) => {
                for e in [i, c, st].into_iter().flatten() {
                    reassigned_expr(e, out);
                }
                reassigned_stmts(b, out);
            }
            Stmt::Return(Some(e)) => reassigned_expr(e, out),
            Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
        }
    }
}

fn reassigned_expr(e: &Expr, out: &mut [bool]) {
    match &e.kind {
        ExprKind::Assign { addr, value } => {
            if let ExprKind::AddrLocal(v) = addr.kind {
                out[v as usize] = true;
            }
            reassigned_expr(addr, out);
            reassigned_expr(value, out);
        }
        ExprKind::Load(a) | ExprKind::Unary(_, a) | ExprKind::CastChar(a) => {
            reassigned_expr(a, out)
        }
        ExprKind::Binary(_, a, b) | ExprKind::LogAnd(a, b) | ExprKind::LogOr(a, b) => {
            reassigned_expr(a, out);
            reassigned_expr(b, out);
        }
        ExprKind::Call(_, args) | ExprKind::Builtin(_, args) => {
            for a in args {
                reassigned_expr(a, out);
            }
        }
        ExprKind::Const(_) | ExprKind::AddrLocal(_) | ExprKind::AddrGlobal(_) => {}
    }
}

fn target_stmts(
    stmts: &[Stmt],
    promotable: &[bool],
    reassigned: &[bool],
    out: &mut Vec<HoistTarget>,
) {
    for s in stmts {
        match s {
            Stmt::Expr(e) => target_expr(e, promotable, reassigned, out),
            Stmt::If(c, t, el) => {
                target_expr(c, promotable, reassigned, out);
                target_stmts(t, promotable, reassigned, out);
                target_stmts(el, promotable, reassigned, out);
            }
            // Nested loops hoist into their own preheaders.
            Stmt::While(..) | Stmt::For(..) => {}
            Stmt::Return(Some(e)) => target_expr(e, promotable, reassigned, out),
            Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
        }
    }
}

fn target_expr(e: &Expr, promotable: &[bool], reassigned: &[bool], out: &mut Vec<HoistTarget>) {
    match &e.kind {
        ExprKind::Assign { addr, value } => {
            let width = e.ty.access_width();
            match &addr.kind {
                ExprKind::AddrLocal(i) => out.push(HoistTarget::Local { var: *i, width }),
                ExprKind::AddrGlobal(g) => out.push(HoistTarget::Global { gid: *g, width }),
                _ => {
                    if let Some((var, off)) = ptr_target(addr, promotable, reassigned) {
                        out.push(HoistTarget::PtrLocal { var, off, width });
                    } else {
                        target_expr(addr, promotable, reassigned, out);
                    }
                }
            }
            target_expr(value, promotable, reassigned, out);
        }
        ExprKind::Load(a) | ExprKind::Unary(_, a) | ExprKind::CastChar(a) => {
            target_expr(a, promotable, reassigned, out)
        }
        ExprKind::Binary(_, a, b) | ExprKind::LogAnd(a, b) | ExprKind::LogOr(a, b) => {
            target_expr(a, promotable, reassigned, out);
            target_expr(b, promotable, reassigned, out);
        }
        ExprKind::Call(_, args) | ExprKind::Builtin(_, args) => {
            for a in args {
                target_expr(a, promotable, reassigned, out);
            }
        }
        ExprKind::Const(_) | ExprKind::AddrLocal(_) | ExprKind::AddrGlobal(_) => {}
    }
}

/// Matches the two indirect-store address shapes codegen compiles to a
/// `(pointer local, constant offset)` pair: `*p` and `*(p + C)` with a
/// promotable, never-reassigned `p`.
fn ptr_target(addr: &Expr, promotable: &[bool], reassigned: &[bool]) -> Option<(u16, i16)> {
    let ok = |p: u16| promotable[p as usize] && !reassigned[p as usize];
    match &addr.kind {
        ExprKind::Load(inner) => match inner.kind {
            ExprKind::AddrLocal(p) if ok(p) => Some((p, 0)),
            _ => None,
        },
        ExprKind::Binary(BinOp::Add, base, off) => {
            if let (ExprKind::Load(inner), ExprKind::Const(c)) = (&base.kind, &off.kind) {
                if let ExprKind::AddrLocal(p) = inner.kind {
                    if ok(p) {
                        if let Ok(c16) = i16::try_from(*c) {
                            return Some((p, c16));
                        }
                    }
                }
            }
            None
        }
        _ => None,
    }
}

// ---- lowering IR ----

type ValueId = usize;

/// Symbolic constant shape of a value, resolved against capture tokens
/// at rename time.
#[derive(Debug, Clone, Default)]
enum KExpr {
    #[default]
    Unknown,
    Const(i32),
    Cap(usize),
    Unary(UnOp, Box<KExpr>),
    Binary(BinOp, Box<KExpr>, Box<KExpr>),
    CastChar(Box<KExpr>),
}

/// Pre-rename value summary: region/dependency parts plus capture
/// tokens standing in for promoted-local loads.
#[derive(Debug, Clone, Default)]
struct Rhs {
    direct: u8,
    opaque: bool,
    locals: Vec<u16>,
    globals: Vec<u32>,
    calls: Vec<u16>,
    caps: Vec<usize>,
    k: KExpr,
}

impl Rhs {
    fn absorb(&mut self, o: Rhs) {
        self.direct |= o.direct;
        self.opaque |= o.opaque;
        self.locals.extend(o.locals);
        self.globals.extend(o.globals);
        self.calls.extend(o.calls);
        self.caps.extend(o.caps);
    }
}

/// Post-rename value summary: capture tokens became SSA value refs.
#[derive(Debug, Clone, Default)]
struct Sum {
    direct: u8,
    opaque: bool,
    locals: Vec<u16>,
    globals: Vec<u32>,
    calls: Vec<u16>,
    ssa: Vec<ValueId>,
}

#[derive(Debug, Clone)]
enum VKind {
    Leaf(Sum),
    Phi(Vec<Option<ValueId>>),
}

#[derive(Debug, Clone)]
struct Value {
    kind: VKind,
    konst: Option<i32>,
}

#[derive(Debug)]
enum Inst {
    /// Pin the reaching definition of promoted local `var` at this
    /// exact evaluation point under `token` (loads must not observe
    /// later same-block redefinitions).
    Capture { token: usize, var: u16 },
    /// SSA definition of promoted local `var`.
    Def { var: u16, rhs: Rhs },
    /// Traced store site `idx`'s address summary plus the stored
    /// value's fold skeleton (for compile-time-constant detection).
    Site { idx: usize, rhs: Rhs, val: KExpr },
    /// Value flow into a fixpoint node.
    Edge { target: FlowTarget, rhs: Rhs },
}

#[derive(Debug, Clone)]
enum Term {
    Jump(usize),
    Cond { k: KExpr, t: usize, e: usize },
    Ret,
}

#[derive(Debug, Default)]
struct Block {
    insts: Vec<Inst>,
    term: Option<Term>,
    /// Phi nodes `(var, value)` placed during SSA construction.
    phis: Vec<(u16, ValueId)>,
}

fn succs(b: &Block) -> Vec<usize> {
    match &b.term {
        Some(Term::Jump(t)) => vec![*t],
        Some(Term::Cond { t, e, .. }) => vec![*t, *e],
        Some(Term::Ret) | None => vec![],
    }
}

// ---- HIR → CFG builder (mirrors codegen's emission order) ----

struct FuncBuilder<'a> {
    fid: u16,
    promotable: &'a [bool],
    blocks: Vec<Block>,
    cur: usize,
    /// (break target, continue target) per enclosing loop.
    loops: Vec<(usize, usize)>,
    n_caps: usize,
    n_sites: usize,
    site_block: Vec<usize>,
}

impl<'a> FuncBuilder<'a> {
    fn build(f: &FuncDef, fid: u16, promotable: &'a [bool]) -> FuncBuilder<'a> {
        let mut b = FuncBuilder {
            fid,
            promotable,
            blocks: vec![Block::default()],
            cur: 0,
            loops: Vec::new(),
            n_caps: 0,
            n_sites: 0,
            site_block: Vec::new(),
        };
        // Parameter spills: one stack-slot site each, before any body
        // code (mirrors gen_func).
        for _ in 0..f.params {
            // Spilled argument values are call-site dependent: never a
            // site constant.
            b.emit_site(
                Rhs {
                    direct: REGION_STACK,
                    ..Rhs::default()
                },
                KExpr::Unknown,
            );
        }
        b.walk_stmts(&f.body);
        // Falling off the end is an implicit return.
        for blk in &mut b.blocks {
            if blk.term.is_none() {
                blk.term = Some(Term::Ret);
            }
        }
        b
    }

    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn emit(&mut self, inst: Inst) {
        self.blocks[self.cur].insts.push(inst);
    }

    fn emit_site(&mut self, rhs: Rhs, val: KExpr) {
        let idx = self.n_sites;
        self.n_sites += 1;
        self.site_block.push(self.cur);
        self.emit(Inst::Site { idx, rhs, val });
    }

    fn terminate(&mut self, t: Term) {
        let blk = &mut self.blocks[self.cur];
        if blk.term.is_none() {
            blk.term = Some(t);
        }
    }

    fn walk_stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.walk_stmt(s);
        }
    }

    fn walk_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Expr(e) => {
                self.expr(e);
            }
            Stmt::If(c, t, e) => {
                let mut rc = self.expr(c);
                let k = mem::take(&mut rc.k);
                let bt = self.new_block();
                let bend = self.new_block();
                let be = if e.is_empty() { bend } else { self.new_block() };
                self.terminate(Term::Cond { k, t: bt, e: be });
                self.cur = bt;
                self.walk_stmts(t);
                self.terminate(Term::Jump(bend));
                if !e.is_empty() {
                    self.cur = be;
                    self.walk_stmts(e);
                    self.terminate(Term::Jump(bend));
                }
                self.cur = bend;
            }
            Stmt::While(c, b) => self.walk_loop(None, Some(c), None, b),
            Stmt::For(i, c, st, b) => self.walk_loop(i.as_ref(), c.as_ref(), st.as_ref(), b),
            Stmt::Return(e) => {
                if let Some(e) = e {
                    let r = self.expr(e);
                    let fid = self.fid;
                    self.emit(Inst::Edge {
                        target: FlowTarget::Ret(fid),
                        rhs: r,
                    });
                }
                self.terminate(Term::Ret);
                self.cur = self.new_block();
            }
            Stmt::Break => {
                if let Some(&(bend, _)) = self.loops.last() {
                    self.terminate(Term::Jump(bend));
                }
                self.cur = self.new_block();
            }
            Stmt::Continue => {
                if let Some(&(_, bstep)) = self.loops.last() {
                    self.terminate(Term::Jump(bstep));
                }
                self.cur = self.new_block();
            }
        }
    }

    fn walk_loop(
        &mut self,
        init: Option<&Expr>,
        cond: Option<&Expr>,
        step: Option<&Expr>,
        body: &[Stmt],
    ) {
        if let Some(i) = init {
            self.expr(i);
        }
        let bcond = self.new_block();
        let bbody = self.new_block();
        let bstep = self.new_block();
        let bend = self.new_block();
        self.terminate(Term::Jump(bcond));
        self.cur = bcond;
        match cond {
            Some(c) => {
                let mut rc = self.expr(c);
                let k = mem::take(&mut rc.k);
                self.terminate(Term::Cond {
                    k,
                    t: bbody,
                    e: bend,
                });
            }
            None => self.terminate(Term::Jump(bbody)),
        }
        self.cur = bbody;
        self.loops.push((bend, bstep));
        self.walk_stmts(body);
        self.loops.pop();
        self.terminate(Term::Jump(bstep));
        self.cur = bstep;
        if let Some(s) = step {
            self.expr(s);
        }
        self.terminate(Term::Jump(bcond));
        self.cur = bend;
    }

    fn expr(&mut self, e: &Expr) -> Rhs {
        match &e.kind {
            ExprKind::Const(v) => Rhs {
                // Value-mode folding: a constant in the data/heap
                // address range may be a forged object address.
                opaque: (*v as u32) >= DATA_BASE,
                k: KExpr::Const(*v),
                ..Rhs::default()
            },
            ExprKind::AddrLocal(_) => Rhs {
                direct: REGION_STACK,
                ..Rhs::default()
            },
            ExprKind::AddrGlobal(_) => Rhs {
                direct: REGION_GLOBAL,
                ..Rhs::default()
            },
            ExprKind::Load(inner) => match &inner.kind {
                ExprKind::AddrLocal(v) if self.promotable[*v as usize] => {
                    let token = self.n_caps;
                    self.n_caps += 1;
                    self.emit(Inst::Capture { token, var: *v });
                    Rhs {
                        caps: vec![token],
                        k: KExpr::Cap(token),
                        ..Rhs::default()
                    }
                }
                ExprKind::AddrLocal(v) => Rhs {
                    locals: vec![*v],
                    ..Rhs::default()
                },
                ExprKind::AddrGlobal(g) => Rhs {
                    globals: vec![*g],
                    ..Rhs::default()
                },
                _ => {
                    self.expr(inner);
                    Rhs {
                        opaque: true,
                        ..Rhs::default()
                    }
                }
            },
            ExprKind::Unary(op, a) => {
                let mut r = self.expr(a);
                r.k = KExpr::Unary(*op, Box::new(mem::take(&mut r.k)));
                r
            }
            ExprKind::CastChar(a) => {
                let mut r = self.expr(a);
                r.k = KExpr::CastChar(Box::new(mem::take(&mut r.k)));
                r
            }
            ExprKind::Binary(op, a, b) => {
                let mut ra = self.expr(a);
                let mut rb = self.expr(b);
                let k = KExpr::Binary(
                    *op,
                    Box::new(mem::take(&mut ra.k)),
                    Box::new(mem::take(&mut rb.k)),
                );
                match op {
                    // Comparison results carry no region.
                    BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne => Rhs {
                        k,
                        ..Rhs::default()
                    },
                    _ => {
                        ra.absorb(rb);
                        ra.k = k;
                        ra
                    }
                }
            }
            ExprKind::LogAnd(a, b) | ExprKind::LogOr(a, b) => {
                let is_and = matches!(&e.kind, ExprKind::LogAnd(..));
                let mut ra = self.expr(a);
                let ka = mem::take(&mut ra.k);
                let kc = keval(&ka, &|_| None);
                let bb = self.new_block();
                let bend = self.new_block();
                let (t, el) = if is_and { (bb, bend) } else { (bend, bb) };
                self.terminate(Term::Cond { k: ka, t, e: el });
                self.cur = bb;
                let rb = self.expr(b);
                let kb = keval(&rb.k, &|_| None);
                self.terminate(Term::Jump(bend));
                self.cur = bend;
                // Boolean result: no region, folded only when both
                // sides are pure constants.
                let k = match kc {
                    None => KExpr::Unknown,
                    Some(av) => {
                        let a_true = av != 0;
                        if is_and && !a_true {
                            KExpr::Const(0)
                        } else if !is_and && a_true {
                            KExpr::Const(1)
                        } else {
                            match kb {
                                Some(bv) => KExpr::Const((bv != 0) as i32),
                                None => KExpr::Unknown,
                            }
                        }
                    }
                };
                Rhs {
                    k,
                    ..Rhs::default()
                }
            }
            ExprKind::Assign { addr, value } => {
                let mut rv = self.expr(value);
                let ra = self.expr(addr);
                self.emit_site(ra, rv.k.clone());
                match &addr.kind {
                    ExprKind::AddrLocal(v) => {
                        if self.promotable[*v as usize] {
                            self.emit(Inst::Def {
                                var: *v,
                                rhs: rv.clone(),
                            });
                        } else {
                            let fid = self.fid;
                            self.emit(Inst::Edge {
                                target: FlowTarget::Local(fid, *v),
                                rhs: rv.clone(),
                            });
                        }
                    }
                    ExprKind::AddrGlobal(g) => self.emit(Inst::Edge {
                        target: FlowTarget::Global(*g),
                        rhs: rv.clone(),
                    }),
                    // Indirect stores write into escaped objects whose
                    // nodes are already saturated.
                    _ => {}
                }
                if e.ty == Type::Char {
                    // The stored slot truncates but the register value
                    // codegen forwards does not; don't fold through.
                    rv.k = KExpr::Unknown;
                }
                rv
            }
            ExprKind::Call(fid, args) => {
                for (k, a) in args.iter().enumerate() {
                    let r = self.expr(a);
                    self.emit(Inst::Edge {
                        target: FlowTarget::Local(*fid, k as u16),
                        rhs: r,
                    });
                }
                Rhs {
                    calls: vec![*fid],
                    ..Rhs::default()
                }
            }
            ExprKind::Builtin(b, args) => {
                for a in args {
                    self.expr(a);
                }
                match b {
                    Builtin::Malloc | Builtin::Realloc => Rhs {
                        direct: REGION_HEAP,
                        ..Rhs::default()
                    },
                    Builtin::Arg => Rhs::default(),
                    _ => Rhs {
                        opaque: true,
                        ..Rhs::default()
                    },
                }
            }
        }
    }
}

// ---- SSA construction and renaming ----

struct Solved {
    blocks: Vec<Block>,
    values: Vec<Value>,
    preds: Vec<Vec<usize>>,
    idom: Vec<usize>,
    reach: Vec<bool>,
    live: Vec<bool>,
    cond_val: Vec<Option<i32>>,
    site_sum: Vec<Option<Sum>>,
    site_val: Vec<Option<i32>>,
    site_block: Vec<usize>,
    edges: Vec<(usize, FlowTarget, Sum)>,
    n_phis: usize,
}

fn solve_func(f: &FuncDef, fid: u16, promotable: &[bool]) -> Solved {
    let fb = FuncBuilder::build(f, fid, promotable);
    let FuncBuilder {
        mut blocks,
        site_block,
        n_caps,
        n_sites,
        ..
    } = fb;
    let n = blocks.len();

    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (b, block) in blocks.iter().enumerate() {
        for s in succs(block) {
            preds[s].push(b);
        }
    }

    // Iterative postorder DFS from the entry; doubles as reachability.
    let mut state = vec![0u8; n];
    let mut post = Vec::with_capacity(n);
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    state[0] = 1;
    while let Some(&(b, i)) = stack.last() {
        let ss = succs(&blocks[b]);
        if i < ss.len() {
            stack.last_mut().expect("nonempty").1 += 1;
            let s = ss[i];
            if state[s] == 0 {
                state[s] = 1;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    let reach: Vec<bool> = state.iter().map(|&s| s != 0).collect();
    let rpo: Vec<usize> = post.iter().rev().copied().collect();
    let mut rpo_pos = vec![usize::MAX; n];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_pos[b] = i;
    }

    // Cooper-Harvey-Kennedy iterative dominators.
    let mut idom = vec![usize::MAX; n];
    idom[0] = 0;
    let intersect = |mut a: usize, mut b: usize, idom: &[usize]| {
        while a != b {
            while rpo_pos[a] > rpo_pos[b] {
                a = idom[a];
            }
            while rpo_pos[b] > rpo_pos[a] {
                b = idom[b];
            }
        }
        a
    };
    loop {
        let mut changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new = usize::MAX;
            for &p in &preds[b] {
                if !reach[p] || idom[p] == usize::MAX {
                    continue;
                }
                new = if new == usize::MAX {
                    p
                } else {
                    intersect(new, p, &idom)
                };
            }
            if new != usize::MAX && idom[b] != new {
                idom[b] = new;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Dominance frontiers (join blocks only — all we need for phis).
    let mut df: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &b in &rpo {
        let rp: Vec<usize> = preds[b].iter().copied().filter(|&p| reach[p]).collect();
        if rp.len() < 2 {
            continue;
        }
        for &p in &rp {
            let mut r = p;
            while r != idom[b] {
                if !df[r].contains(&b) {
                    df[r].push(b);
                }
                r = idom[r];
            }
        }
    }

    // Phi placement: iterated dominance frontier of each promotable
    // var's definition blocks (the entry defines everything).
    let nvars = f.locals.len();
    let mut values: Vec<Value> = Vec::new();
    let mut def_blocks: Vec<Vec<usize>> = vec![Vec::new(); nvars];
    for (bi, blk) in blocks.iter().enumerate() {
        if !reach[bi] {
            continue;
        }
        for inst in &blk.insts {
            if let Inst::Def { var, .. } = inst {
                def_blocks[*var as usize].push(bi);
            }
        }
    }
    let mut n_phis = 0;
    for v in 0..nvars {
        if !promotable[v] {
            continue;
        }
        let mut work: Vec<usize> = def_blocks[v].clone();
        work.push(0);
        let mut has_phi = vec![false; n];
        let mut queued = vec![false; n];
        for &w in &work {
            queued[w] = true;
        }
        while let Some(d) = work.pop() {
            for &y in &df[d] {
                if has_phi[y] {
                    continue;
                }
                has_phi[y] = true;
                let vid = values.len();
                values.push(Value {
                    kind: VKind::Phi(vec![None; preds[y].len()]),
                    konst: None,
                });
                blocks[y].phis.push((v as u16, vid));
                n_phis += 1;
                if !queued[y] {
                    queued[y] = true;
                    work.push(y);
                }
            }
        }
    }

    // Dominator-tree children, id-ascending for determinism.
    let mut dom_children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for b in 1..n {
        if reach[b] && idom[b] != usize::MAX {
            dom_children[idom[b]].push(b);
        }
    }

    // Rename: entry seeds every promotable var (params with their
    // fixpoint-node atom — the union of call-argument edges — other
    // locals with the empty summary, since an uninitialized value
    // proves nothing and must never license an elision).
    let mut stacks: Vec<Vec<ValueId>> = vec![Vec::new(); nvars];
    for (v, stack) in stacks.iter_mut().enumerate() {
        if !promotable[v] {
            continue;
        }
        let sum = if v < f.params as usize {
            Sum {
                locals: vec![v as u16],
                ..Sum::default()
            }
        } else {
            Sum::default()
        };
        let vid = values.len();
        values.push(Value {
            kind: VKind::Leaf(sum),
            konst: None,
        });
        stack.push(vid);
    }

    let mut site_sum: Vec<Option<Sum>> = vec![None; n_sites];
    let mut site_val: Vec<Option<i32>> = vec![None; n_sites];
    let mut edges: Vec<(usize, FlowTarget, Sum)> = Vec::new();
    let mut cond_val: Vec<Option<i32>> = vec![None; n];
    {
        let mut ren = Renamer {
            blocks: &blocks,
            preds: &preds,
            dom_children: &dom_children,
            values: &mut values,
            stacks,
            captures: vec![None; n_caps],
            site_sum: &mut site_sum,
            site_val: &mut site_val,
            edges: &mut edges,
            cond_val: &mut cond_val,
            push_log: Vec::new(),
        };
        ren.run();
    }

    // Constant-pruned reachability: a branch whose condition folded to
    // a constant contributes only the taken edge.
    let mut live = vec![false; n];
    let mut queue = vec![0usize];
    live[0] = true;
    while let Some(b) = queue.pop() {
        let nexts: Vec<usize> = match &blocks[b].term {
            Some(Term::Jump(t)) => vec![*t],
            Some(Term::Cond { t, e, .. }) => match cond_val[b] {
                Some(0) => vec![*e],
                Some(_) => vec![*t],
                None => vec![*t, *e],
            },
            Some(Term::Ret) | None => vec![],
        };
        for s in nexts {
            if !live[s] {
                live[s] = true;
                queue.push(s);
            }
        }
    }

    Solved {
        blocks,
        values,
        preds,
        idom,
        reach,
        live,
        cond_val,
        site_sum,
        site_val,
        site_block,
        edges,
        n_phis,
    }
}

struct Renamer<'a> {
    blocks: &'a [Block],
    preds: &'a [Vec<usize>],
    dom_children: &'a [Vec<usize>],
    values: &'a mut Vec<Value>,
    stacks: Vec<Vec<ValueId>>,
    captures: Vec<Option<ValueId>>,
    site_sum: &'a mut [Option<Sum>],
    site_val: &'a mut [Option<i32>],
    edges: &'a mut Vec<(usize, FlowTarget, Sum)>,
    cond_val: &'a mut [Option<i32>],
    push_log: Vec<u16>,
}

impl Renamer<'_> {
    fn run(&mut self) {
        let mut frames: Vec<(usize, usize, usize)> = Vec::new();
        let start = self.push_log.len();
        self.visit(0);
        frames.push((0, 0, start));
        while let Some(&(b, i, start)) = frames.last() {
            if i < self.dom_children[b].len() {
                frames.last_mut().expect("nonempty").1 += 1;
                let c = self.dom_children[b][i];
                let cs = self.push_log.len();
                self.visit(c);
                frames.push((c, 0, cs));
            } else {
                for v in self.push_log.split_off(start) {
                    self.stacks[v as usize].pop();
                }
                frames.pop();
            }
        }
    }

    fn visit(&mut self, b: usize) {
        let blocks = self.blocks;
        let preds = self.preds;
        for &(v, vid) in &blocks[b].phis {
            self.stacks[v as usize].push(vid);
            self.push_log.push(v);
        }
        for inst in &blocks[b].insts {
            match inst {
                Inst::Capture { token, var } => {
                    self.captures[*token] = self.stacks[*var as usize].last().copied();
                }
                Inst::Def { var, rhs } => {
                    let sum = self.resolve(rhs);
                    let konst = self.keval_caps(&rhs.k);
                    let vid = self.values.len();
                    self.values.push(Value {
                        kind: VKind::Leaf(sum),
                        konst,
                    });
                    self.stacks[*var as usize].push(vid);
                    self.push_log.push(*var);
                }
                Inst::Site { idx, rhs, val } => {
                    self.site_sum[*idx] = Some(self.resolve(rhs));
                    self.site_val[*idx] = self.keval_caps(val);
                }
                Inst::Edge { target, rhs } => {
                    let sum = self.resolve(rhs);
                    self.edges.push((b, *target, sum));
                }
            }
        }
        if let Some(Term::Cond { k, .. }) = &blocks[b].term {
            self.cond_val[b] = self.keval_caps(k);
        }
        // Fill successor phi operands from this block's current tops.
        for s in succs(&blocks[b]) {
            for (pi, &p) in preds[s].iter().enumerate() {
                if p != b {
                    continue;
                }
                for &(v, vid) in &blocks[s].phis {
                    let top = self.stacks[v as usize].last().copied();
                    if let VKind::Phi(ops) = &mut self.values[vid].kind {
                        ops[pi] = top;
                    }
                }
            }
        }
    }

    fn resolve(&mut self, rhs: &Rhs) -> Sum {
        let mut s = Sum {
            direct: rhs.direct,
            opaque: rhs.opaque,
            locals: rhs.locals.clone(),
            globals: rhs.globals.clone(),
            calls: rhs.calls.clone(),
            ssa: Vec::with_capacity(rhs.caps.len()),
        };
        for &t in &rhs.caps {
            match self.captures[t] {
                Some(v) => s.ssa.push(v),
                None => s.opaque = true,
            }
        }
        s
    }

    fn keval_caps(&self, k: &KExpr) -> Option<i32> {
        keval(k, &|t| self.captures[t].and_then(|v| self.values[v].konst))
    }
}

/// Value-exact constant folding. Division, remainder, and shifts are
/// never folded (their trap/masking semantics belong to the machine).
fn keval(k: &KExpr, res: &dyn Fn(usize) -> Option<i32>) -> Option<i32> {
    match k {
        KExpr::Unknown => None,
        KExpr::Const(v) => Some(*v),
        KExpr::Cap(t) => res(*t),
        KExpr::Unary(op, a) => {
            let v = keval(a, res)?;
            Some(match op {
                UnOp::Neg => v.wrapping_neg(),
                UnOp::Not => (v == 0) as i32,
                UnOp::BitNot => !v,
            })
        }
        KExpr::CastChar(a) => Some(keval(a, res)? as i8 as i32),
        KExpr::Binary(op, a, b) => {
            let x = keval(a, res)?;
            let y = keval(b, res)?;
            match op {
                BinOp::Add => Some(x.wrapping_add(y)),
                BinOp::Sub => Some(x.wrapping_sub(y)),
                BinOp::Mul => Some(x.wrapping_mul(y)),
                BinOp::BitAnd => Some(x & y),
                BinOp::BitOr => Some(x | y),
                BinOp::BitXor => Some(x ^ y),
                BinOp::Lt => Some((x < y) as i32),
                BinOp::Le => Some((x <= y) as i32),
                BinOp::Gt => Some((x > y) as i32),
                BinOp::Ge => Some((x >= y) as i32),
                BinOp::Eq => Some((x == y) as i32),
                BinOp::Ne => Some((x != y) as i32),
                BinOp::Div | BinOp::Rem | BinOp::Shl | BinOp::Shr => None,
                BinOp::LogAnd | BinOp::LogOr => None,
            }
        }
    }
}

/// Collapses a renamed summary into an [`AddrDesc`] by walking the SSA
/// value graph (phi operands union; cycles terminate via the visited
/// set). Dependency lists are sorted for determinism.
fn flatten(sum: &Sum, values: &[Value]) -> AddrDesc {
    let mut d = AddrDesc {
        direct: sum.direct,
        opaque: sum.opaque,
        local_deps: sum.locals.clone(),
        global_deps: sum.globals.clone(),
        call_deps: sum.calls.clone(),
    };
    let mut seen = vec![false; values.len()];
    let mut stack: Vec<ValueId> = sum.ssa.clone();
    while let Some(v) = stack.pop() {
        if seen[v] {
            continue;
        }
        seen[v] = true;
        match &values[v].kind {
            VKind::Leaf(s) => {
                d.direct |= s.direct;
                d.opaque |= s.opaque;
                d.local_deps.extend_from_slice(&s.locals);
                d.global_deps.extend_from_slice(&s.globals);
                d.call_deps.extend_from_slice(&s.calls);
                stack.extend_from_slice(&s.ssa);
            }
            VKind::Phi(ops) => stack.extend(ops.iter().flatten().copied()),
        }
    }
    d.local_deps.sort_unstable();
    d.local_deps.dedup();
    d.global_deps.sort_unstable();
    d.global_deps.dedup();
    d.call_deps.sort_unstable();
    d.call_deps.dedup();
    d
}

// ---- debug dump ----

/// Renders the whole SSA pipeline for `repro tinyc --dump-ssa`:
/// per-function promotion decisions, the renamed CFG, per-site facts,
/// and hoist plans. Deterministic across runs.
pub fn dump(hir: &Hir) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let esc = escape(hir);
    let all_plans = hoist_plans(hir);
    for (fid, f) in hir.funcs.iter().enumerate() {
        let taken = &esc.locals[fid];
        let promotable = promotable_locals(f, taken);
        let _ = writeln!(out, "fn {} (#{fid})", f.name);
        for (i, l) in f.locals.iter().enumerate() {
            let _ = writeln!(
                out,
                "  local v{i} {:<12} {}{}{}",
                l.name,
                if l.is_param { "param " } else { "" },
                if taken[i] { "addr-taken " } else { "" },
                if promotable[i] {
                    "promoted"
                } else {
                    "in-memory"
                }
            );
        }
        let solved = solve_func(f, fid as u16, &promotable);
        for b in 0..solved.blocks.len() {
            if !solved.reach[b] {
                continue;
            }
            let _ = writeln!(
                out,
                "  b{b}: preds={:?} idom=b{}{}",
                solved.preds[b],
                solved.idom[b],
                if solved.live[b] {
                    ""
                } else {
                    "  [const-unreachable]"
                }
            );
            for &(v, vid) in &solved.blocks[b].phis {
                if let VKind::Phi(ops) = &solved.values[vid].kind {
                    let ops: Vec<String> = ops
                        .iter()
                        .map(|o| match o {
                            Some(x) => format!("%{x}"),
                            None => "-".into(),
                        })
                        .collect();
                    let _ = writeln!(out, "    phi v{v} = %{vid} [{}]", ops.join(", "));
                }
            }
            for inst in &solved.blocks[b].insts {
                match inst {
                    Inst::Capture { token, var } => {
                        let _ = writeln!(out, "    cap c{token} = v{var}");
                    }
                    Inst::Def { var, rhs } => {
                        let _ = writeln!(out, "    def v{var} = {}", fmt_rhs(rhs));
                    }
                    Inst::Site { idx, rhs, .. } => {
                        let _ = writeln!(out, "    site {idx} addr {}", fmt_rhs(rhs));
                    }
                    Inst::Edge { target, rhs } => {
                        let _ = writeln!(out, "    edge {target:?} <- {}", fmt_rhs(rhs));
                    }
                }
            }
            match &solved.blocks[b].term {
                Some(Term::Jump(t)) => {
                    let _ = writeln!(out, "    jump b{t}");
                }
                Some(Term::Cond { t, e, .. }) => {
                    let folded = match solved.cond_val[b] {
                        Some(v) => format!("  [konst={v}]"),
                        None => String::new(),
                    };
                    let _ = writeln!(out, "    cond -> b{t} / b{e}{folded}");
                }
                Some(Term::Ret) | None => {
                    let _ = writeln!(out, "    ret");
                }
            }
        }
        for (i, sum) in solved.site_sum.iter().enumerate() {
            let dead = !solved.live[solved.site_block[i]];
            let desc = match sum {
                Some(s) => flatten(s, &solved.values),
                None => AddrDesc::default(),
            };
            let _ = writeln!(
                out,
                "  site {i:3}: {} {}",
                fmt_desc(&desc),
                if dead { "dead" } else { "live" }
            );
        }
        for (li, plan) in all_plans[fid].iter().enumerate() {
            let ts: Vec<String> = plan
                .targets
                .iter()
                .map(|t| match t {
                    HoistTarget::Local { var, width } => format!("local v{var} w{width}"),
                    HoistTarget::Global { gid, width } => format!("global g{gid} w{width}"),
                    HoistTarget::PtrLocal { var, off, width } => {
                        format!("*(v{var}+{off}) w{width}")
                    }
                })
                .collect();
            let _ = writeln!(out, "  loop {li}: hoist [{}]", ts.join(", "));
        }
    }
    out
}

fn fmt_mask(direct: u8) -> String {
    let mut s = String::new();
    if direct & REGION_STACK != 0 {
        s.push('S');
    }
    if direct & REGION_GLOBAL != 0 {
        s.push('G');
    }
    if direct & REGION_HEAP != 0 {
        s.push('H');
    }
    if s.is_empty() {
        s.push('-');
    }
    s
}

fn fmt_desc(d: &AddrDesc) -> String {
    let mut s = format!("[{}", fmt_mask(d.direct));
    if d.opaque {
        s.push_str(" opaque");
    }
    if !d.local_deps.is_empty() {
        s.push_str(&format!(" locals={:?}", d.local_deps));
    }
    if !d.global_deps.is_empty() {
        s.push_str(&format!(" globals={:?}", d.global_deps));
    }
    if !d.call_deps.is_empty() {
        s.push_str(&format!(" calls={:?}", d.call_deps));
    }
    s.push(']');
    s
}

fn fmt_rhs(r: &Rhs) -> String {
    let mut s = format!("[{}", fmt_mask(r.direct));
    if r.opaque {
        s.push_str(" opaque");
    }
    if !r.locals.is_empty() {
        s.push_str(&format!(" locals={:?}", r.locals));
    }
    if !r.globals.is_empty() {
        s.push_str(&format!(" globals={:?}", r.globals));
    }
    if !r.calls.is_empty() {
        s.push_str(&format!(" calls={:?}", r.calls));
    }
    if !r.caps.is_empty() {
        s.push_str(&format!(" caps={:?}", r.caps));
    }
    if let KExpr::Const(v) = r.k {
        s.push_str(&format!(" k={v}"));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, lower, Options};

    #[test]
    fn site_value_constants_track_stored_values() {
        let hir = lower(
            "int g; int main() { int x; int y; x = 7; y = x + 1; g = arg(0); g = y * 2; return 0; }",
        )
        .unwrap();
        let info = analyze(&hir);
        let m = &info.funcs[hir.main as usize];
        let consts: Vec<Option<i32>> = m.sites.iter().map(|s| s.value_const).collect();
        // x = 7 and the propagated y = 8 are constants; arg(0) is not;
        // y * 2 folds through the promoted locals.
        assert_eq!(consts, vec![Some(7), Some(8), None, Some(16)]);
    }

    #[test]
    fn site_value_constants_respect_reaching_definitions() {
        let hir = lower(
            "int g; int main() { int x; x = 1; if (arg(0)) { x = 2; } g = x; g = 5; return 0; }",
        )
        .unwrap();
        let info = analyze(&hir);
        let m = &info.funcs[hir.main as usize];
        let consts: Vec<Option<i32>> = m.sites.iter().map(|s| s.value_const).collect();
        // The merged x is not constant; the literal 5 is.
        assert_eq!(consts, vec![Some(1), Some(2), None, Some(5)]);
    }

    #[test]
    fn flow_sensitivity_refines_pointer_stores() {
        let hir =
            lower("int g; int main() { int x; int *p; p = &x; *p = 1; p = &g; *p = 2; return 0; }")
                .unwrap();
        let info = analyze(&hir);
        let m = &info.funcs[hir.main as usize];
        assert_eq!(m.sites.len(), 4);
        // `*p = 1` sees only the `&x` definition; `*p = 2` only `&g` —
        // a flow-insensitive fold would blur both to stack|global.
        assert_eq!(m.sites[1].desc.direct, REGION_STACK);
        assert!(m.sites[1].desc.local_deps.is_empty());
        assert!(!m.sites[1].desc.opaque);
        assert_eq!(m.sites[3].desc.direct, REGION_GLOBAL);
        assert!(m.sites[3].desc.local_deps.is_empty());
    }

    #[test]
    fn diamond_merge_unions_reaching_definitions() {
        let hir = lower(
            "int g; int main() { int x; int *p; p = &x; if (arg(0)) { p = &g; } *p = 1; return 0; }",
        )
        .unwrap();
        let info = analyze(&hir);
        let m = &info.funcs[hir.main as usize];
        assert_eq!(m.sites.len(), 3);
        assert_eq!(m.sites[2].desc.direct, REGION_STACK | REGION_GLOBAL);
        assert!(m.phis >= 1);
    }

    #[test]
    fn loop_phis_keep_invariant_pointers_tight() {
        let hir = lower(
            "int g; int main() { int i; int *p; p = &g; i = 0; while (i < arg(0)) { *p = i; i = i + 1; } return 0; }",
        )
        .unwrap();
        let info = analyze(&hir);
        let m = &info.funcs[hir.main as usize];
        assert_eq!(m.sites.len(), 4);
        // The back edge feeds the same definition through the loop phi.
        assert_eq!(m.sites[2].desc.direct, REGION_GLOBAL);
        assert!(!m.sites[2].desc.opaque);
        assert!(m.phis >= 1);
    }

    #[test]
    fn constant_propagation_kills_dead_branches() {
        let hir = lower(
            "int main() { int x; int y; x = 0; y = 0; if (x) { y = 2; } return y; y = 3; return y; }",
        )
        .unwrap();
        let info = analyze(&hir);
        let m = &info.funcs[hir.main as usize];
        assert_eq!(m.sites.len(), 4);
        assert!(!m.sites[0].dead && !m.sites[1].dead);
        assert!(m.sites[2].dead, "branch on x==0 is const-unreachable");
        assert!(m.sites[3].dead, "code after return is unreachable");
        assert_eq!(m.dead_sites, 2);
    }

    #[test]
    fn short_circuit_conditions_fold() {
        let hir = lower(
            "int main() { int x; int y; x = arg(0); y = 0; if (x > 0 && x < 10) { y = 1; } if (1 && 0) { y = 2; } return y; }",
        )
        .unwrap();
        let info = analyze(&hir);
        let m = &info.funcs[hir.main as usize];
        assert_eq!(m.sites.len(), 4);
        assert!(!m.sites[2].dead, "runtime condition stays live");
        assert!(m.sites[3].dead, "1 && 0 folds to false");
    }

    #[test]
    fn escaped_locals_are_not_promoted() {
        let hir = lower("int main() { int x; int *p; p = &x; *p = 5; x = 1; return x; }").unwrap();
        let info = analyze(&hir);
        let m = &info.funcs[hir.main as usize];
        // locals: x = 0, p = 1
        assert!(m.taken[0], "&x escapes into p");
        assert!(!m.promotable[0]);
        assert!(!m.taken[1]);
        assert!(m.promotable[1]);
        // The store through p still resolves to x's region.
        assert_eq!(m.sites[1].desc.direct, REGION_STACK);
    }

    #[test]
    fn uninitialized_pointer_proves_nothing() {
        let hir = lower("int main() { int *p; *p = 1; return 0; }").unwrap();
        let info = analyze(&hir);
        let m = &info.funcs[hir.main as usize];
        assert!(m.promotable[0]);
        // Empty summary: mask 0, never elided under any plan.
        assert_eq!(m.sites[0].desc, AddrDesc::default());
        assert!(!m.sites[0].dead);
    }

    #[test]
    fn param_atoms_reference_fixpoint_nodes() {
        let hir = lower(
            "int g; int take(int *p) { *p = 1; return 0; } int main() { int x; take(&x); take(&g); return 0; }",
        )
        .unwrap();
        let info = analyze(&hir);
        let take = &info.funcs[0];
        // Site 0 is the parameter spill; site 1 the store through p,
        // whose entry atom defers to the fixpoint's param node.
        assert_eq!(take.sites.len(), 2);
        assert_eq!(
            take.sites[0].desc,
            AddrDesc {
                direct: REGION_STACK,
                ..AddrDesc::default()
            }
        );
        assert_eq!(take.sites[1].desc.direct, 0);
        assert_eq!(take.sites[1].desc.local_deps, vec![0]);
        // Call-argument edges from main carry the two regions.
        let arg_edges: Vec<&FlowEdge> = info
            .edges
            .iter()
            .filter(|e| e.target == FlowTarget::Local(0, 0))
            .collect();
        assert_eq!(arg_edges.len(), 2);
        assert!(arg_edges.iter().any(|e| e.desc.direct == REGION_STACK));
        assert!(arg_edges.iter().any(|e| e.desc.direct == REGION_GLOBAL));
    }

    #[test]
    fn site_enumeration_aligns_with_codegen() {
        let src = "int g; int gets(int k) { return g + k; } int put(int k) { g = k; return 0; } int main() { int i; int arr[4]; i = 0; while (i < 4) { arr[i] = gets(i); i = i + 1; } put(7); return arr[2]; }";
        let hir = lower(src).unwrap();
        let info = analyze(&hir);
        let compiled = compile(src, &Options::codepatch()).unwrap();
        let flat: Vec<&SiteFact> = info.flat_sites().collect();
        assert_eq!(flat.len(), compiled.debug.store_sites.len());
        for (fid, fs) in info.funcs.iter().enumerate() {
            let n = compiled
                .debug
                .store_sites
                .iter()
                .filter(|s| s.func == fid as u16)
                .count();
            assert_eq!(fs.sites.len(), n, "func {fid} site count");
        }
        // Emission order groups sites by function id ascending, so the
        // per-function concatenation is index-aligned.
        let fids: Vec<u16> = compiled.debug.store_sites.iter().map(|s| s.func).collect();
        let mut sorted = fids.clone();
        sorted.sort_unstable();
        assert_eq!(fids, sorted);
    }

    #[test]
    fn hoist_plans_cover_invariant_targets() {
        let src = "int g; int main() { int i; int s; char *p; char *q; p = malloc(8); q = malloc(8); i = 0; s = 0; while (i < 3) { *p = 1; *(q + 1) = 2; s = s + 1; g = g + 1; i = i + 1; } while (i < 6) { q = q + 1; *q = 3; i = i + 1; } return s; }";
        let hir = lower(src).unwrap();
        let plans = &hoist_plans(&hir)[hir.main as usize];
        assert_eq!(plans.len(), 2);
        // locals: i=0 s=1 p=2 q=3; global g=0
        let p0 = &plans[0].targets;
        assert!(p0.contains(&HoistTarget::PtrLocal {
            var: 2,
            off: 0,
            width: 1
        }));
        assert!(p0.contains(&HoistTarget::PtrLocal {
            var: 3,
            off: 1,
            width: 1
        }));
        assert!(p0.contains(&HoistTarget::Local { var: 1, width: 4 }));
        assert!(p0.contains(&HoistTarget::Local { var: 0, width: 4 }));
        assert!(p0.contains(&HoistTarget::Global { gid: 0, width: 4 }));
        let p1 = &plans[1].targets;
        // q is reassigned in loop 2: its slot still hoists (fixed frame
        // address) but the store through it must not.
        assert!(p1.contains(&HoistTarget::Local { var: 3, width: 4 }));
        assert!(p1.contains(&HoistTarget::Local { var: 0, width: 4 }));
        assert!(!p1.iter().any(|t| matches!(t, HoistTarget::PtrLocal { .. })));
    }

    #[test]
    fn nested_loops_get_preorder_plans() {
        let src = "int main() { int i; int j; int s; s = 0; for (i = 0; i < 3; i = i + 1) { for (j = 0; j < 3; j = j + 1) { s = s + 1; } } return s; }";
        let hir = lower(src).unwrap();
        let plans = &hoist_plans(&hir)[hir.main as usize];
        assert_eq!(plans.len(), 2);
        // Outer plan: i (step), j and s belong to the inner loop.
        assert!(plans[0]
            .targets
            .contains(&HoistTarget::Local { var: 0, width: 4 }));
        assert!(!plans[0]
            .targets
            .contains(&HoistTarget::Local { var: 2, width: 4 }));
        assert!(plans[1]
            .targets
            .contains(&HoistTarget::Local { var: 1, width: 4 }));
        assert!(plans[1]
            .targets
            .contains(&HoistTarget::Local { var: 2, width: 4 }));
    }

    #[test]
    fn dump_renders_pipeline() {
        let src =
            "int g; int main() { int i; i = 0; while (i < 3) { g = g + i; i = i + 1; } return g; }";
        let hir = lower(src).unwrap();
        let d = dump(&hir);
        assert!(d.contains("fn main"));
        assert!(d.contains("promoted"));
        assert!(d.contains("site"));
        assert!(d.contains("loop 0: hoist"));
        assert!(d.contains("phi"));
        // Deterministic.
        assert_eq!(d, dump(&hir));
    }
}
