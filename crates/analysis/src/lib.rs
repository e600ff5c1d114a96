//! `databp-analysis` — static write-safety analysis over tinyc programs.
//!
//! The paper's CodePatch strategy pays an inline check before *every*
//! traced store. Section 9 already removes the checks a loop proves
//! redundant at run time; this crate removes checks *statically*: a store
//! whose effective address provably never lands in a region the debugger
//! is monitoring needs no check at all.
//!
//! The analysis is an inclusion-based points-to pass specialized to the
//! three-segment `spar` address space, fed by the tinyc SSA middle end
//! (`databp_tinyc::ssa`, DESIGN.md §11):
//!
//! * The SSA pass lowers each function into SSA form (dominator tree,
//!   mem2reg for address-never-taken locals, copy/constant propagation,
//!   trivial DCE) and produces one **flow-sensitive** [`AddrDesc`] per
//!   store site — the reaching definitions of the address at that exact
//!   program point, far tighter than a syntactic fold over the HIR. It
//!   also proves some sites statically dead (unreachable branches),
//!   which are elidable under any plan.
//! * This crate resolves the remaining dependencies: it assigns every
//!   named scalar (each local per function, each global) and every
//!   function result a **region mask** — which of stack / global / heap
//!   the pointer values flowing into it may point to — by iterating the
//!   SSA-derived value-flow edges to a fixpoint.
//! * A store site's mask is then its direct bits unioned with the masks
//!   of everything its address depends on; [`WriteSafety::classify`]
//!   compares that mask against a [`PlanClass`] (the regions a monitor
//!   plan can observe) and rules the site [`SiteClass::ProvablySafe`]
//!   only when the intersection is empty *and* the mask is nonempty —
//!   an empty mask means the address was forged from constants and
//!   proves nothing.
//!
//! Escapes are handled conservatively: any `&x` occurring outside the
//! two benign syntactic positions (the immediate child of a load, the
//! address slot of a direct assignment) marks `x`'s *content* as
//! [`REGION_ALL`], because unknown channels may store arbitrary pointers
//! into it. Large integer constants (≥ `DATA_BASE`) and loads through
//! computed addresses poison a value summary entirely.
//!
//! Soundness rests on two assumptions, both verified dynamically by the
//! replay oracle in `databp-sim` (see DESIGN.md): programs do not read
//! uninitialized pointers, and executed stores stay within the object
//! their base address was derived from (spatial safety).

use databp_machine::DATA_BASE;
use databp_tinyc::ssa::{self, FlowTarget, SsaInfo};
use databp_tinyc::{
    AddrDesc, DebugInfo, Hir, REGION_ALL, REGION_GLOBAL, REGION_HEAP, REGION_STACK,
};

pub use databp_tinyc::{BinOp, StoreSiteInfo};

/// The set of address regions a monitor plan can observe. Comparing a
/// store site's region mask against the active plan's class is what
/// licenses check elision: disjoint masks mean the store can never hit a
/// monitored location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanClass(u8);

impl PlanClass {
    /// No monitored regions (the `NoMonitors` plan).
    pub const NONE: PlanClass = PlanClass(0);
    /// Monitors may cover stack (local automatic) addresses.
    pub const STACK: PlanClass = PlanClass(REGION_STACK);
    /// Monitors may cover global/static addresses.
    pub const GLOBAL: PlanClass = PlanClass(REGION_GLOBAL);
    /// Monitors may cover heap addresses.
    pub const HEAP: PlanClass = PlanClass(REGION_HEAP);
    /// Monitors may cover anything — elides nothing. The safe default
    /// for plans that cannot describe themselves more precisely.
    pub const ALL: PlanClass = PlanClass(REGION_ALL);

    /// The union of two classes.
    #[must_use]
    pub fn union(self, other: PlanClass) -> PlanClass {
        PlanClass(self.0 | other.0)
    }

    /// The raw region bitmask (`REGION_*` bits).
    pub fn mask(self) -> u8 {
        self.0
    }
}

/// The verdict for one store site under one plan class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// The store can never write a monitored address; its CodePatch
    /// check may be elided.
    ProvablySafe,
    /// The store may hit a monitored address (or proves nothing about
    /// its target); the check must stay.
    MayHitMonitor,
}

/// The result of the write-safety pass: a region mask per store site, in
/// the same order as [`DebugInfo::store_sites`].
#[derive(Debug, Clone)]
pub struct WriteSafety {
    pcs: Vec<u32>,
    chk_pcs: Vec<Option<u32>>,
    masks: Vec<u8>,
    dead: Vec<bool>,
    funcs: Vec<u16>,
    /// Stored value when it is a compile-time constant, already masked
    /// to the site's store width — directly comparable to the `value` a
    /// monitor predicate observes at run time.
    value_consts: Vec<Option<u32>>,
}

/// Runs the write-safety pass over a lowered program and the debug info
/// of one of its builds. Plain, CodePatch, and nop-padded builds of the
/// same source emit the same store sites in the same order, so the
/// per-index masks agree across builds (only the pcs differ).
pub fn analyze_writes(hir: &Hir, debug: &DebugInfo) -> WriteSafety {
    let _t = databp_telemetry::time!("analysis.writeopt");
    let ssa = ssa::analyze(hir);
    let mut solver = Solver::new(hir);
    solver.collect(&ssa);
    solver.solve();
    let facts: Vec<&ssa::SiteFact> = ssa.flat_sites().collect();
    // SSA enumerates sites in the code generator's emission order
    // (pinned on every bundled workload); should the counts ever
    // disagree, no fact can be attached and every site is unprovable.
    let aligned = facts.len() == debug.store_sites.len();
    let (mut pcs, mut chk_pcs, mut masks, mut dead) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut funcs, mut value_consts) = (Vec::new(), Vec::new());
    for (i, site) in debug.store_sites.iter().enumerate() {
        pcs.push(site.pc);
        chk_pcs.push(site.chk_pc);
        funcs.push(site.func);
        if aligned {
            masks.push(solver.eval(site.func, &facts[i].desc));
            dead.push(facts[i].dead);
            // Mask the folded constant exactly as the machine masks the
            // store: a byte store of 0x1ff observes value 0xff.
            let width_mask = if site.len == 1 { 0xff } else { u32::MAX };
            value_consts.push(facts[i].value_const.map(|v| v as u32 & width_mask));
        } else {
            masks.push(0);
            dead.push(false);
            value_consts.push(None);
        }
    }
    databp_telemetry::count!("analysis.sites", pcs.len() as u64);
    WriteSafety {
        pcs,
        chk_pcs,
        masks,
        dead,
        funcs,
        value_consts,
    }
}

impl WriteSafety {
    /// Number of store sites analyzed.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// True when the program has no traced stores.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// The region mask of site `i` (`REGION_*` bits; `0` = forged /
    /// unprovable origin).
    pub fn site_mask(&self, i: usize) -> u8 {
        self.masks[i]
    }

    /// The store pc of site `i` (this build's pc).
    pub fn site_pc(&self, i: usize) -> u32 {
        self.pcs[i]
    }

    /// The `chk` pc of site `i` (CodePatch builds only).
    pub fn site_chk_pc(&self, i: usize) -> Option<u32> {
        self.chk_pcs[i]
    }

    /// The function id owning site `i`'s store instruction — the static
    /// `writer` a monitor predicate's `writer in f` filter observes.
    pub fn site_func(&self, i: usize) -> u16 {
        self.funcs[i]
    }

    /// The stored value at site `i` when constant propagation proved it
    /// a compile-time constant, masked to the store width (the exact
    /// `value` every run-time write at this site presents to a monitor
    /// predicate). `None` when the value is run-time dependent.
    pub fn site_value_const(&self, i: usize) -> Option<u32> {
        self.value_consts[i]
    }

    /// True when site `i` is statically unreachable.
    pub fn site_dead(&self, i: usize) -> bool {
        self.dead[i]
    }

    /// Classifies site `i` against a plan class.
    pub fn classify(&self, i: usize, class: PlanClass) -> SiteClass {
        if self.elidable(i, class) {
            SiteClass::ProvablySafe
        } else {
            SiteClass::MayHitMonitor
        }
    }

    fn elidable(&self, i: usize, class: PlanClass) -> bool {
        if self.dead[i] {
            // Statically unreachable: the check never executes, so
            // eliding it is trivially sound under any plan.
            return true;
        }
        let m = self.masks[i];
        m != 0 && m & class.mask() == 0
    }

    /// Byte pcs of the store instructions whose checks may be elided
    /// under `class`, ascending. These are *this build's* store pcs —
    /// use the plain build's analysis to cross-check trace pcs.
    pub fn elided_store_pcs(&self, class: PlanClass) -> Vec<u32> {
        (0..self.len())
            .filter(|&i| self.elidable(i, class))
            .map(|i| self.pcs[i])
            .collect()
    }

    /// Byte pcs of the `chk` instructions that may be elided under
    /// `class`, ascending (CodePatch builds only; empty otherwise).
    pub fn elided_chk_pcs(&self, class: PlanClass) -> Vec<u32> {
        (0..self.len())
            .filter(|&i| self.elidable(i, class))
            .filter_map(|i| self.chk_pcs[i])
            .collect()
    }

    /// Number of sites elidable under `class`.
    pub fn elided_count(&self, class: PlanClass) -> u32 {
        (0..self.len()).filter(|&i| self.elidable(i, class)).count() as u32
    }
}

// ---- the constraint solver ----

/// Value-flow constraint solver. Nodes are the named scalars (one per
/// local per function, one per global) plus one result node per
/// function; each holds a region mask. Edges carry an [`AddrDesc`] value
/// summary (interpreted in a particular function's namespace) into a
/// target node; iteration to a fixpoint is the standard inclusion-based
/// propagation, tiny here because tinyc programs have a few hundred
/// scalars at most. The edges and escape sets come from the SSA pass,
/// which only emits flow from statically reachable code.
struct Solver<'a> {
    hir: &'a Hir,
    /// Node masks: globals, then per-function locals, then returns.
    masks: Vec<u8>,
    /// `(namespace function, value summary, target node)`.
    edges: Vec<(u16, AddrDesc, usize)>,
    local_base: Vec<usize>,
    ret_base: usize,
}

impl<'a> Solver<'a> {
    fn new(hir: &'a Hir) -> Solver<'a> {
        let mut local_base = Vec::with_capacity(hir.funcs.len());
        let mut next = hir.globals.len();
        for f in &hir.funcs {
            local_base.push(next);
            next += f.locals.len();
        }
        let ret_base = next;
        let mut s = Solver {
            hir,
            masks: vec![0; ret_base + hir.funcs.len()],
            edges: Vec::new(),
            local_base,
            ret_base,
        };
        s.seed_globals();
        s
    }

    fn global_node(&self, g: u32) -> usize {
        g as usize
    }

    fn local_node(&self, fid: u16, v: u16) -> usize {
        self.local_base[fid as usize] + v as usize
    }

    fn ret_node(&self, fid: u16) -> usize {
        self.ret_base + fid as usize
    }

    /// A scalar global whose constant initializer already encodes an
    /// address (a string-literal pointer, or a forged integer ≥
    /// `DATA_BASE`) starts at top: its initial content points somewhere
    /// the dataflow never saw assigned.
    fn seed_globals(&mut self) {
        for (g, def) in self.hir.globals.iter().enumerate() {
            if def.is_literal || def.init.len() != 4 {
                continue;
            }
            let word = u32::from_le_bytes([def.init[0], def.init[1], def.init[2], def.init[3]]);
            if word >= DATA_BASE {
                let n = self.global_node(g as u32);
                self.masks[n] = REGION_ALL;
            }
        }
    }

    fn mark_taken(&mut self, node: usize) {
        self.masks[node] = REGION_ALL;
    }

    /// Imports the SSA pass's results: escaped scalars saturate their
    /// nodes (their content may be written through channels the solver
    /// cannot see), and the flow-sensitive value edges become the
    /// fixpoint's constraint set.
    fn collect(&mut self, ssa: &SsaInfo) {
        for (fid, f) in ssa.funcs.iter().enumerate() {
            for (v, &taken) in f.taken.iter().enumerate() {
                if taken {
                    let n = self.local_node(fid as u16, v as u16);
                    self.mark_taken(n);
                }
            }
        }
        for (g, &taken) in ssa.taken_globals.iter().enumerate() {
            if taken {
                let n = self.global_node(g as u32);
                self.mark_taken(n);
            }
        }
        for e in &ssa.edges {
            let node = match e.target {
                FlowTarget::Local(fid, v) => self.local_node(fid, v),
                FlowTarget::Global(g) => self.global_node(g),
                FlowTarget::Ret(fid) => self.ret_node(fid),
            };
            self.edges.push((e.fid, e.desc.clone(), node));
        }
    }

    fn solve(&mut self) {
        loop {
            let mut changed = false;
            for i in 0..self.edges.len() {
                let (fid, target) = (self.edges[i].0, self.edges[i].2);
                let sum = std::mem::take(&mut self.edges[i].1);
                let m = self.eval(fid, &sum);
                self.edges[i].1 = sum;
                if self.masks[target] | m != self.masks[target] {
                    self.masks[target] |= m;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Resolves a value summary in function `fid`'s namespace to a
    /// region mask.
    fn eval(&self, fid: u16, sum: &AddrDesc) -> u8 {
        if sum.opaque {
            return REGION_ALL;
        }
        let mut m = sum.direct;
        for &v in &sum.local_deps {
            m |= self.masks[self.local_node(fid, v)];
        }
        for &g in &sum.global_deps {
            m |= self.masks[self.global_node(g)];
        }
        for &f in &sum.call_deps {
            m |= self.masks[self.ret_node(f)];
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use databp_tinyc::{compile, lower, Options, REGION_GLOBAL, REGION_HEAP, REGION_STACK};

    fn analyze(src: &str) -> (WriteSafety, DebugInfo) {
        let hir = lower(src).expect("compiles");
        let c = compile(src, &Options::plain()).unwrap();
        (analyze_writes(&hir, &c.debug), c.debug)
    }

    /// Store-site masks for `src`, in emission order.
    fn masks(src: &str) -> Vec<u8> {
        let (ws, _) = analyze(src);
        (0..ws.len()).map(|i| ws.site_mask(i)).collect()
    }

    #[test]
    fn plan_class_algebra() {
        assert_eq!(PlanClass::NONE.mask(), 0);
        assert_eq!(PlanClass::STACK.union(PlanClass::HEAP).mask(), 0b101);
        assert_eq!(
            PlanClass::STACK
                .union(PlanClass::GLOBAL)
                .union(PlanClass::HEAP),
            PlanClass::ALL
        );
    }

    #[test]
    fn direct_stores_have_direct_masks() {
        let m = masks(
            r#"
            int g;
            int main() {
                int x;
                x = 1;
                g = 2;
                *(malloc(4)) = 3;
                return 0;
            }
            "#,
        );
        assert_eq!(m, vec![REGION_STACK, REGION_GLOBAL, REGION_HEAP]);
    }

    #[test]
    fn pointer_assignments_propagate_regions() {
        let m = masks(
            r#"
            int g;
            int main() {
                int x;
                int *p;
                p = &x;
                *p = 1;
                p = &g;
                *p = 2;
                return 0;
            }
            "#,
        );
        // Sites: p=&x (stack), *p, p=&g (stack), *p.
        // Flow-sensitive: each indirect store sees only the reaching
        // definition of p at that point.
        assert_eq!(m[1], REGION_STACK);
        assert_eq!(m[3], REGION_GLOBAL);
    }

    #[test]
    fn heap_flows_through_locals_and_returns() {
        let (ws, _) = analyze(
            r#"
            int *mk() { return (int *)malloc(8); }
            int main() {
                int *p;
                int *q;
                p = (int *)malloc(4);
                *p = 1;
                q = mk();
                *q = 2;
                return 0;
            }
            "#,
        );
        let m: Vec<u8> = (0..ws.len()).map(|i| ws.site_mask(i)).collect();
        // Sites: p=malloc, *p, q=mk(), *q.
        assert_eq!(m[1], REGION_HEAP);
        assert_eq!(m[3], REGION_HEAP);
        assert_eq!(
            ws.classify(1, PlanClass::STACK.union(PlanClass::GLOBAL)),
            SiteClass::ProvablySafe
        );
        assert_eq!(ws.classify(1, PlanClass::HEAP), SiteClass::MayHitMonitor);
    }

    #[test]
    fn arguments_propagate_into_params() {
        let (ws, _) = analyze(
            r#"
            int set(int *r) { *r = 5; return 0; }
            int main() {
                int x;
                set(&x);
                return x;
            }
            "#,
        );
        // Site 0 is `*r = 5` in `set` (functions are emitted in id
        // order; set is fid 0).
        assert_eq!(ws.site_mask(0), REGION_ALL & !REGION_GLOBAL & !REGION_HEAP);
        assert_eq!(ws.classify(0, PlanClass::HEAP), SiteClass::ProvablySafe);
        assert_eq!(ws.classify(0, PlanClass::STACK), SiteClass::MayHitMonitor);
    }

    #[test]
    fn escaped_objects_saturate() {
        let m = masks(
            r#"
            int main() {
                int x;
                int *p;
                int **q;
                p = &x;
                q = &p;
                *q = (int *)malloc(4);
                *p = 7;
                return 0;
            }
            "#,
        );
        // `&p` escapes p (value position) → p's content is ALL → the
        // store through p may hit anything.
        assert_eq!(*m.last().unwrap(), REGION_ALL);
    }

    #[test]
    fn array_index_bases_escape() {
        let m = masks(
            r#"
            int main() {
                int a[4];
                int i;
                for (i = 0; i < 4; i = i + 1) {
                    a[i] = i;
                }
                return a[0];
            }
            "#,
        );
        // `a[i] = i` stores through a computed address whose base is a
        // direct &a — the descriptor still proves "stack".
        let store_into_a = m[1];
        assert_eq!(store_into_a, REGION_STACK);
    }

    #[test]
    fn forged_addresses_prove_nothing() {
        let (ws, _) = analyze(
            r#"
            int main() {
                int *p;
                p = (int *)1048576;
                *p = 1;
                return 0;
            }
            "#,
        );
        // The forged constant saturates p; the indirect store is never
        // elidable.
        let last = ws.len() - 1;
        assert_eq!(ws.site_mask(last), REGION_ALL);
        for class in [PlanClass::STACK, PlanClass::GLOBAL, PlanClass::HEAP] {
            assert_eq!(ws.classify(last, class), SiteClass::MayHitMonitor);
        }
    }

    #[test]
    fn site_value_consts_and_funcs_surface() {
        let (ws, debug) = analyze(
            r#"
            int g;
            int put(int k) { g = k; return 0; }
            int main() {
                int x;
                x = 300;
                g = 7;
                put(9);
                return 0;
            }
            "#,
        );
        // Sites: put's param spill, g = k (put), x = 300, g = 7 (main).
        assert_eq!(ws.len(), 4);
        let put = debug.func_id("put").unwrap();
        let main = debug.func_id("main").unwrap();
        assert_eq!(ws.site_func(0), put);
        assert_eq!(ws.site_func(1), put);
        assert_eq!(ws.site_func(2), main);
        assert_eq!(ws.site_func(3), main);
        assert_eq!(ws.site_value_const(0), None, "spilled argument");
        assert_eq!(ws.site_value_const(1), None, "parameter value");
        assert_eq!(ws.site_value_const(2), Some(300));
        assert_eq!(ws.site_value_const(3), Some(7));
        assert!(!ws.site_dead(3));
        assert_eq!(ws.site_chk_pc(3), None, "plain build has no chks");
    }

    #[test]
    fn elided_pc_lists_align_with_builds() {
        let src = r#"
            int g;
            int main() {
                int x;
                x = 1;
                g = 2;
                return 0;
            }
        "#;
        let hir = lower(src).unwrap();
        let plain = compile(src, &Options::plain()).unwrap();
        let cp = compile(src, &Options::codepatch()).unwrap();
        let ws_plain = analyze_writes(&hir, &plain.debug);
        let ws_cp = analyze_writes(&hir, &cp.debug);
        // Masks agree index-wise across builds.
        for i in 0..ws_plain.len() {
            assert_eq!(ws_plain.site_mask(i), ws_cp.site_mask(i));
        }
        // Under a global-only plan the stack store is elidable.
        let class = PlanClass::GLOBAL;
        assert_eq!(ws_plain.elided_count(class), 1);
        assert_eq!(
            ws_plain.elided_store_pcs(class).len(),
            ws_cp.elided_chk_pcs(class).len()
        );
        assert!(ws_plain.elided_chk_pcs(class).is_empty());
        assert_eq!(ws_cp.elided_count(class), 1);
        // Everything stays checked under ALL; nothing under NONE plans
        // still elides the provable sites (NONE means "monitors nothing").
        assert_eq!(ws_cp.elided_count(PlanClass::ALL), 0);
        assert_eq!(ws_cp.elided_count(PlanClass::NONE), 2);
    }
}
