//! Code generation: HIR → `spar` machine code.
//!
//! The generated code follows the paper's compilation regime: named
//! variables are always in memory; only expression temporaries use
//! registers (`t0..t15`, a simple evaluation stack). Function prologues
//! and epilogues bracket the body with `enter`/`exit` marks, and the
//! implicit stores they perform (return-address/frame-pointer saves,
//! temporary spills around calls) are recorded as *untraced*.
//!
//! With [`Options::codepatch`], every traced store is preceded by a `chk`
//! of the same effective address — the paper's CodePatch instrumentation
//! ("a minimum of two additional instructions" per write). The two
//! hoisting builds add *preliminary checks* in loop preheaders, planned
//! by [`crate::ssa::hoist_plans`] and recorded in [`DebugInfo::hoists`]:
//! [`Options::codepatch_loopopt`] keeps the paper's Section 9 scope
//! (loop-invariant named scalars); [`Options::codepatch_ssa`] emits
//! every planned target, pointer targets included, as groups a monitor
//! install re-arms.

use crate::debuginfo::{DebugInfo, FuncInfo, GlobalInfo, LocalInfo, LoopOptInfo, StoreSiteInfo};
use crate::hir::{BinOp, Builtin, Expr, ExprKind, FuncDef, Hir, Stmt, UnOp};
use crate::ssa::{HoistPlan, HoistTarget};
use crate::types::align_up;
use crate::Compiled;
use databp_machine::{asm, Instr, Program, CODE_BASE, DATA_BASE};
use std::collections::HashMap;

/// Which build to generate: one of the five constructors below.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Options(Build);

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Build {
    #[default]
    Plain,
    CodePatch,
    CodePatchLoopOpt,
    CodePatchSsa,
    NopPadding,
}

impl Options {
    /// Plain code, no instrumentation (NativeHardware / VirtualMemory /
    /// TrapPatch runs).
    pub fn plain() -> Self {
        Options(Build::Plain)
    }

    /// CodePatch instrumentation: a `chk` before every traced store.
    pub fn codepatch() -> Self {
        Options(Build::CodePatch)
    }

    /// CodePatch with the paper's Section 9 loop-invariant preliminary
    /// checks for named scalar targets ([`DebugInfo::hoists`]).
    pub fn codepatch_loopopt() -> Self {
        Options(Build::CodePatchLoopOpt)
    }

    /// CodePatch with SSA-planned dominator-based check hoisting:
    /// loop-invariant store targets — including stores through
    /// never-reassigned promotable pointers — get one guard in the
    /// preheader that licenses skipping the per-iteration checks it
    /// dominates ([`DebugInfo::hoists`]).
    pub fn codepatch_ssa() -> Self {
        Options(Build::CodePatchSsa)
    }

    /// A `nop` before every traced store instead of a `chk` — the
    /// paper's Section 3.3 hybrid: padding that a *dynamic* code patcher
    /// can overwrite with checks at run time.
    pub fn nop_padding() -> Self {
        Options(Build::NopPadding)
    }
}

// Register conventions (see databp_machine::reg).
const AT: u8 = 1; // scratch for addresses / wide constants
const RV: u8 = 2;
const A0: u8 = 4;
const T0: u8 = 8;
const NTEMP: u32 = 16;
const SP: u8 = 29;
const FP: u8 = 30;

const SYS_EXIT: u16 = 1;

fn treg(depth: u32) -> u8 {
    assert!(depth < NTEMP, "expression too deep: needs temp t{depth}");
    T0 + depth as u8
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StoreTarget {
    Local(u16),
    Global(u32),
    /// Store through local pointer `var` at constant byte offset — only
    /// planned by [`Options::codepatch_ssa`], whose planner guarantees
    /// the pointer is promotable and loop-invariant.
    Ptr(u16, i16),
}

struct Gen<'a> {
    hir: &'a Hir,
    build: Build,
    code: Vec<Instr>,
    func_entries: Vec<usize>,
    call_fixups: Vec<(usize, u16)>,
    labels: Vec<Option<usize>>,
    branch_fixups: Vec<(usize, usize)>,
    /// (break label, continue label) stack.
    loop_labels: Vec<(usize, usize)>,
    /// Hoist plans per function, indexed by loop pre-order ordinal
    /// (empty unless the build hoists).
    plans: Vec<Vec<HoistPlan>>,
    /// Pre-order ordinal of the next loop in the current function.
    loop_ordinal: usize,
    /// Innermost-loop hoist registry: target -> `groups` index.
    hoist_stack: Vec<HashMap<StoreTarget, usize>>,
    untraced: Vec<u32>,
    pads: Vec<u32>,
    /// Emitted hoist groups ([`DebugInfo::hoists`]).
    groups: Vec<LoopOptInfo>,
    traced_store_count: u32,
    store_sites: Vec<StoreSiteInfo>,
    cur: Option<&'a FuncDef>,
    cur_fid: u16,
    epilogue: usize,
}

/// Generates machine code and debug info for a checked program.
pub fn generate(hir: &Hir, opts: &Options) -> Compiled {
    let plans = match opts.0 {
        Build::CodePatchSsa => crate::ssa::hoist_plans(hir),
        Build::CodePatchLoopOpt => {
            // Section 9 hoists named scalars only.
            let mut plans = crate::ssa::hoist_plans(hir);
            for plan in plans.iter_mut().flatten() {
                plan.targets
                    .retain(|t| !matches!(t, HoistTarget::PtrLocal { .. }));
            }
            plans
        }
        Build::Plain | Build::CodePatch | Build::NopPadding => Vec::new(),
    };
    let mut g = Gen {
        hir,
        build: opts.0,
        code: Vec::new(),
        func_entries: vec![0; hir.funcs.len()],
        call_fixups: Vec::new(),
        labels: Vec::new(),
        branch_fixups: Vec::new(),
        loop_labels: Vec::new(),
        plans,
        loop_ordinal: 0,
        hoist_stack: Vec::new(),
        untraced: Vec::new(),
        pads: Vec::new(),
        groups: Vec::new(),
        traced_store_count: 0,
        store_sites: Vec::new(),
        cur: None,
        cur_fid: 0,
        epilogue: 0,
    };

    // Entry stub: call main, pass its result to exit.
    g.call_fixups.push((g.code.len(), hir.main));
    g.emit(asm::jal(0));
    g.emit(asm::addi(A0, RV, 0));
    g.emit(asm::trap(SYS_EXIT));

    for (fid, f) in hir.funcs.iter().enumerate() {
        g.gen_func(fid as u16, f);
    }

    // Patch calls.
    for (idx, fid) in std::mem::take(&mut g.call_fixups) {
        g.code[idx] = asm::jal(g.func_entries[fid as usize] as u32);
    }
    // Branch fixups are resolved per function (labels are global though).
    for (idx, label) in std::mem::take(&mut g.branch_fixups) {
        let target = g.labels[label].expect("label must be bound before fixup");
        let off = target as i64 - (idx as i64 + 1);
        assert!(
            (i16::MIN as i64..=i16::MAX as i64).contains(&off),
            "branch offset out of range: {off}"
        );
        g.code[idx] = match g.code[idx] {
            Instr::Beq(a, b, _) => Instr::Beq(a, b, off as i16),
            Instr::Bne(a, b, _) => Instr::Bne(a, b, off as i16),
            Instr::Blt(a, b, _) => Instr::Blt(a, b, off as i16),
            Instr::Bge(a, b, _) => Instr::Bge(a, b, off as i16),
            other => panic!("fixup on non-branch {other:?}"),
        };
    }

    let mut data = vec![0u8; hir.data_size as usize];
    for gl in &hir.globals {
        data[gl.offset as usize..(gl.offset + gl.size) as usize].copy_from_slice(&gl.init);
    }

    g.untraced.sort_unstable();
    let debug = DebugInfo {
        functions: hir
            .funcs
            .iter()
            .enumerate()
            .map(|(fid, f)| FuncInfo {
                name: f.name.clone(),
                entry_pc: CODE_BASE + 4 * g.func_entries[fid] as u32,
                params: f.params,
                locals: f
                    .locals
                    .iter()
                    .enumerate()
                    .map(|(i, l)| LocalInfo {
                        name: l.name.clone(),
                        var: i as u16,
                        offset: l.offset,
                        size: l.size,
                        is_param: l.is_param,
                    })
                    .collect(),
            })
            .collect(),
        globals: hir
            .globals
            .iter()
            .enumerate()
            .map(|(id, gl)| GlobalInfo {
                name: gl.name.clone(),
                id: id as u32,
                ba: DATA_BASE + gl.offset,
                ea: DATA_BASE + gl.offset + gl.size,
                owner: gl.owner,
                is_literal: gl.is_literal,
            })
            .collect(),
        untraced_store_pcs: g.untraced,
        pad_pcs: g.pads,
        hoists: g.groups,
        data_size: hir.data_size,
        traced_store_count: g.traced_store_count,
        store_sites: g.store_sites,
    };

    Compiled {
        program: Program {
            code: g.code,
            data,
            entry: CODE_BASE,
        },
        debug,
    }
}

impl<'a> Gen<'a> {
    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn here_pc(&self) -> u32 {
        CODE_BASE + 4 * self.code.len() as u32
    }

    fn new_label(&mut self) -> usize {
        self.labels.push(None);
        self.labels.len() - 1
    }

    fn bind(&mut self, label: usize) {
        assert!(self.labels[label].is_none(), "label bound twice");
        self.labels[label] = Some(self.code.len());
    }

    fn branch_to(&mut self, i: Instr, label: usize) {
        let idx = self.emit(i);
        self.branch_fixups.push((idx, label));
    }

    fn jump_to(&mut self, label: usize) {
        // Unconditional branch: beq r0, r0.
        self.branch_to(asm::beq(0, 0, 0), label);
    }

    /// Loads a 32-bit constant into `rd`.
    fn load_const(&mut self, rd: u8, v: i32) {
        if (-32768..=32767).contains(&v) {
            self.emit(asm::addi(rd, 0, v as i16));
        } else {
            let u = v as u32;
            self.emit(asm::lui(rd, (u >> 16) as u16));
            let lo = (u & 0xffff) as u16;
            if lo != 0 {
                self.emit(asm::ori(rd, rd, lo));
            }
        }
    }

    /// Loads the absolute address of global `gid` into `rd`.
    fn load_global_addr(&mut self, rd: u8, gid: u32) {
        let addr = DATA_BASE + self.hir.globals[gid as usize].offset;
        self.load_const(rd, addr as i32);
    }

    fn local_offset(&self, idx: u16) -> i16 {
        let off = self.cur.expect("inside a function").locals[idx as usize].offset;
        assert!((-32768..0).contains(&off), "frame too large: offset {off}");
        off as i16
    }

    // ---- functions ----

    fn gen_func(&mut self, fid: u16, f: &'a FuncDef) {
        self.cur = Some(f);
        self.cur_fid = fid;
        self.loop_ordinal = 0;
        self.func_entries[fid as usize] = self.code.len();
        let total = align_up(f.frame_size, 8);
        assert!(total <= 32760, "frame of '{}' too large", f.name);

        self.emit(asm::addi(SP, SP, -(total as i16)));
        self.untraced.push(self.here_pc());
        self.emit(asm::sw(31, SP, (total - 4) as i16)); // save ra
        self.untraced.push(self.here_pc());
        self.emit(asm::sw(FP, SP, (total - 8) as i16)); // save caller fp
        self.emit(asm::addi(FP, SP, total as i16));
        self.emit(asm::mark_enter(fid));
        // Spill parameters into their (traced) frame slots.
        for p in 0..f.params {
            let off = self.local_offset(p);
            let width = f.locals[p as usize].ty.access_width();
            self.checked_store(A0 + p as u8, FP, off, width, None);
        }

        self.epilogue = self.new_label();
        let body: &'a [Stmt] = &f.body;
        self.gen_stmts(fid, body);

        let epi = self.epilogue;
        self.bind(epi);
        self.emit(asm::mark_exit(fid));
        self.emit(asm::lw(31, FP, -4));
        self.emit(asm::addi(SP, FP, 0));
        self.emit(asm::lw(FP, FP, -8));
        self.emit(asm::jalr(0, 31, 0));
        self.cur = None;
    }

    fn gen_stmts(&mut self, fid: u16, stmts: &'a [Stmt]) {
        for s in stmts {
            self.gen_stmt(fid, s);
        }
    }

    fn gen_stmt(&mut self, fid: u16, s: &'a Stmt) {
        match s {
            Stmt::Expr(e) => {
                self.expr(e, 0);
            }
            Stmt::If(c, t, e) => {
                let lelse = self.new_label();
                let lend = self.new_label();
                self.expr(c, 0);
                self.branch_to(asm::beq(T0, 0, 0), lelse);
                self.gen_stmts(fid, t);
                if e.is_empty() {
                    self.bind(lelse);
                    self.labels[lend] = Some(self.code.len()); // unused
                } else {
                    self.jump_to(lend);
                    self.bind(lelse);
                    self.gen_stmts(fid, e);
                    self.bind(lend);
                }
            }
            Stmt::While(c, body) => {
                self.gen_loop(fid, None, Some(c), None, body);
            }
            Stmt::For(init, cond, step, body) => {
                self.gen_loop(fid, init.as_ref(), cond.as_ref(), step.as_ref(), body);
            }
            Stmt::Return(v) => {
                if let Some(v) = v {
                    self.expr(v, 0);
                    self.emit(asm::addi(RV, T0, 0));
                }
                let epi = self.epilogue;
                self.jump_to(epi);
            }
            Stmt::Break => {
                let (brk, _) = *self.loop_labels.last().expect("break inside loop");
                self.jump_to(brk);
            }
            Stmt::Continue => {
                let (_, cont) = *self.loop_labels.last().expect("continue inside loop");
                self.jump_to(cont);
            }
        }
    }

    fn gen_loop(
        &mut self,
        fid: u16,
        init: Option<&'a Expr>,
        cond: Option<&'a Expr>,
        step: Option<&'a Expr>,
        body: &'a [Stmt],
    ) {
        let ordinal = self.loop_ordinal;
        self.loop_ordinal += 1;
        if let Some(i) = init {
            self.expr(i, 0);
        }

        // Preliminary checks: one preheader `chk` per loop-invariant
        // target licenses skipping the body checks it covers. `chk` never
        // accesses memory, so guarding through a possibly-uninitialized
        // pointer slot cannot fault.
        let mut groups = HashMap::new();
        let plan = self
            .plans
            .get_mut(self.cur_fid as usize)
            .and_then(|per_loop| per_loop.get_mut(ordinal))
            .map(std::mem::take);
        for t in plan.into_iter().flat_map(|p| p.targets) {
            let (target, pre_pc) = match t {
                HoistTarget::Local { var, width } => {
                    let pc = self.here_pc();
                    let off = self.local_offset(var);
                    self.emit(asm::chk(FP, off, width as u8));
                    (StoreTarget::Local(var), pc)
                }
                HoistTarget::Global { gid, width } => {
                    // load_global_addr may emit 1 or 2 instructions; the
                    // chk is the *next* word.
                    self.load_global_addr(AT, gid);
                    let pc = self.here_pc();
                    self.emit(asm::chk(AT, 0, width as u8));
                    (StoreTarget::Global(gid), pc)
                }
                HoistTarget::PtrLocal { var, off, width } => {
                    let poff = self.local_offset(var);
                    self.emit(asm::lw(AT, FP, poff));
                    let pc = self.here_pc();
                    self.emit(asm::chk(AT, off, width as u8));
                    (StoreTarget::Ptr(var, off), pc)
                }
            };
            self.groups.push(LoopOptInfo {
                preheader_pc: pre_pc,
                body_pcs: Vec::new(),
                rearm: self.build == Build::CodePatchSsa,
            });
            groups.insert(target, self.groups.len() - 1);
        }
        self.hoist_stack.push(groups);

        let lcond = self.new_label();
        let lstep = self.new_label();
        let lend = self.new_label();
        self.bind(lcond);
        if let Some(c) = cond {
            self.expr(c, 0);
            self.branch_to(asm::beq(T0, 0, 0), lend);
        }
        self.loop_labels.push((lend, lstep));
        self.gen_stmts(fid, body);
        self.loop_labels.pop();
        self.bind(lstep);
        if let Some(st) = step {
            self.expr(st, 0);
        }
        self.jump_to(lcond);
        self.bind(lend);
        self.hoist_stack.pop();
    }

    // ---- expressions ----

    /// Emits code leaving the value of `e` in `treg(depth)`.
    fn expr(&mut self, e: &'a Expr, depth: u32) {
        let rd = treg(depth);
        match &e.kind {
            ExprKind::Const(v) => self.load_const(rd, *v),
            ExprKind::AddrLocal(i) => {
                let off = self.local_offset(*i);
                self.emit(asm::addi(rd, FP, off));
            }
            ExprKind::AddrGlobal(g) => self.load_global_addr(rd, *g),
            ExprKind::Load(addr) => {
                let width = e.ty.access_width();
                match &addr.kind {
                    ExprKind::AddrLocal(i) => {
                        let off = self.local_offset(*i);
                        self.emit(load_instr(width, rd, FP, off));
                    }
                    ExprKind::AddrGlobal(g) => {
                        self.load_global_addr(rd, *g);
                        self.emit(load_instr(width, rd, rd, 0));
                    }
                    _ => {
                        self.expr(addr, depth);
                        self.emit(load_instr(width, rd, rd, 0));
                    }
                }
            }
            ExprKind::Unary(op, inner) => {
                self.expr(inner, depth);
                match op {
                    UnOp::Neg => {
                        self.emit(asm::sub(rd, 0, rd));
                    }
                    UnOp::Not => {
                        self.emit(asm::sltu(rd, 0, rd));
                        self.emit(asm::xori(rd, rd, 1));
                    }
                    UnOp::BitNot => {
                        self.emit(asm::addi(AT, 0, -1));
                        self.emit(asm::xor(rd, rd, AT));
                    }
                }
            }
            ExprKind::CastChar(inner) => {
                self.expr(inner, depth);
                self.emit(asm::slli(rd, rd, 24));
                self.emit(asm::srai(rd, rd, 24));
            }
            ExprKind::Binary(op, a, b) => {
                self.expr(a, depth);
                self.expr(b, depth + 1);
                let rb = treg(depth + 1);
                self.bin_op(*op, rd, rd, rb);
            }
            ExprKind::LogAnd(a, b) => {
                let lfalse = self.new_label();
                let lend = self.new_label();
                self.expr(a, depth);
                self.branch_to(asm::beq(rd, 0, 0), lfalse);
                self.expr(b, depth);
                self.emit(asm::sltu(rd, 0, rd));
                self.jump_to(lend);
                self.bind(lfalse);
                self.emit(asm::addi(rd, 0, 0));
                self.bind(lend);
            }
            ExprKind::LogOr(a, b) => {
                let ltrue = self.new_label();
                let lend = self.new_label();
                self.expr(a, depth);
                self.branch_to(asm::bne(rd, 0, 0), ltrue);
                self.expr(b, depth);
                self.emit(asm::sltu(rd, 0, rd));
                self.jump_to(lend);
                self.bind(ltrue);
                self.emit(asm::addi(rd, 0, 1));
                self.bind(lend);
            }
            ExprKind::Assign { addr, value } => {
                let width = e.ty.access_width();
                self.expr(value, depth);
                match &addr.kind {
                    ExprKind::AddrLocal(i) => {
                        let off = self.local_offset(*i);
                        self.checked_store(rd, FP, off, width, Some(StoreTarget::Local(*i)));
                    }
                    ExprKind::AddrGlobal(g) => {
                        self.load_global_addr(AT, *g);
                        self.checked_store(rd, AT, 0, width, Some(StoreTarget::Global(*g)));
                    }
                    ExprKind::Binary(BinOp::Add, base, off) if matches!(off.kind, ExprKind::Const(c) if (-32768..=32767).contains(&c)) =>
                    {
                        let c = match off.kind {
                            ExprKind::Const(c) => c as i16,
                            _ => unreachable!(),
                        };
                        let target = ptr_store_target(base, c);
                        self.expr(base, depth + 1);
                        let rbase = treg(depth + 1);
                        self.checked_store(rd, rbase, c, width, target);
                    }
                    _ => {
                        let target = ptr_store_target(addr, 0);
                        self.expr(addr, depth + 1);
                        let rbase = treg(depth + 1);
                        self.checked_store(rd, rbase, 0, width, target);
                    }
                }
            }
            ExprKind::Call(fid, args) => self.gen_call(*fid, args, depth),
            ExprKind::Builtin(b, args) => self.gen_builtin(*b, args, depth),
        }
    }

    fn bin_op(&mut self, op: BinOp, rd: u8, ra: u8, rb: u8) {
        match op {
            BinOp::Add => self.emit(asm::add(rd, ra, rb)),
            BinOp::Sub => self.emit(asm::sub(rd, ra, rb)),
            BinOp::Mul => self.emit(asm::mul(rd, ra, rb)),
            BinOp::Div => self.emit(asm::div(rd, ra, rb)),
            BinOp::Rem => self.emit(asm::rem(rd, ra, rb)),
            BinOp::BitAnd => self.emit(asm::and(rd, ra, rb)),
            BinOp::BitOr => self.emit(asm::or(rd, ra, rb)),
            BinOp::BitXor => self.emit(asm::xor(rd, ra, rb)),
            BinOp::Shl => self.emit(asm::sll(rd, ra, rb)),
            BinOp::Shr => self.emit(asm::sra(rd, ra, rb)),
            BinOp::Lt => self.emit(asm::slt(rd, ra, rb)),
            BinOp::Gt => self.emit(asm::slt(rd, rb, ra)),
            BinOp::Le => {
                self.emit(asm::slt(rd, rb, ra));
                self.emit(asm::xori(rd, rd, 1))
            }
            BinOp::Ge => {
                self.emit(asm::slt(rd, ra, rb));
                self.emit(asm::xori(rd, rd, 1))
            }
            BinOp::Eq => {
                self.emit(asm::xor(rd, ra, rb));
                self.emit(asm::sltu(rd, 0, rd));
                self.emit(asm::xori(rd, rd, 1))
            }
            BinOp::Ne => {
                self.emit(asm::xor(rd, ra, rb));
                self.emit(asm::sltu(rd, 0, rd))
            }
            BinOp::LogAnd | BinOp::LogOr => unreachable!("lowered to LogAnd/LogOr nodes"),
        };
    }

    /// Emits a traced store (CodePatch-checked or nop-padded, per the
    /// build) of `rsrc` to `off(rbase)`, recording the store site and
    /// registering its check with the innermost loop's hoist group for
    /// `target`, if any.
    fn checked_store(
        &mut self,
        rsrc: u8,
        rbase: u8,
        off: i16,
        width: u32,
        target: Option<StoreTarget>,
    ) {
        let mut chk_pc = None;
        match self.build {
            Build::Plain => {}
            Build::NopPadding => {
                self.pads.push(self.here_pc());
                self.emit(asm::nop());
            }
            Build::CodePatch | Build::CodePatchLoopOpt | Build::CodePatchSsa => {
                let pc = self.here_pc();
                chk_pc = Some(pc);
                self.emit(asm::chk(rbase, off, width as u8));
                let group = target.and_then(|t| self.hoist_stack.last()?.get(&t).copied());
                if let Some(idx) = group {
                    self.groups[idx].body_pcs.push(pc);
                }
            }
        }
        self.traced_store_count += 1;
        self.store_sites.push(StoreSiteInfo {
            pc: self.here_pc(),
            chk_pc,
            func: self.cur_fid,
            len: width,
        });
        match width {
            1 => self.emit(asm::sb(rsrc, rbase, off)),
            4 => self.emit(asm::sw(rsrc, rbase, off)),
            _ => unreachable!("store width is 1 or 4"),
        };
    }

    fn gen_call(&mut self, fid: u16, args: &'a [Expr], depth: u32) {
        for (k, a) in args.iter().enumerate() {
            self.expr(a, depth + k as u32);
        }
        for k in 0..args.len() {
            self.emit(asm::addi(A0 + k as u8, treg(depth + k as u32), 0));
        }
        // Save live temporaries (untraced spills).
        if depth > 0 {
            self.emit(asm::addi(SP, SP, -(4 * depth as i16)));
            for i in 0..depth {
                self.untraced.push(self.here_pc());
                self.emit(asm::sw(treg(i), SP, (4 * i) as i16));
            }
        }
        self.call_fixups.push((self.code.len(), fid));
        self.emit(asm::jal(0));
        if depth > 0 {
            for i in 0..depth {
                self.emit(asm::lw(treg(i), SP, (4 * i) as i16));
            }
            self.emit(asm::addi(SP, SP, 4 * depth as i16));
        }
        self.emit(asm::addi(treg(depth), RV, 0));
    }

    fn gen_builtin(&mut self, b: Builtin, args: &'a [Expr], depth: u32) {
        for (k, a) in args.iter().enumerate() {
            self.expr(a, depth + k as u32);
        }
        for k in 0..args.len() {
            self.emit(asm::addi(A0 + k as u8, treg(depth + k as u32), 0));
        }
        let code: u16 = match b {
            Builtin::Exit => 1,
            Builtin::PrintInt => 2,
            Builtin::PrintChar => 3,
            Builtin::Malloc => 4,
            Builtin::Free => 5,
            Builtin::Realloc => 6,
            Builtin::Arg => 7,
            Builtin::PrintStr => 8,
        };
        self.emit(asm::trap(code));
        if matches!(b, Builtin::Malloc | Builtin::Realloc | Builtin::Arg) {
            self.emit(asm::addi(treg(depth), RV, 0));
        }
    }
}

fn load_instr(width: u32, rd: u8, rbase: u8, off: i16) -> Instr {
    match width {
        1 => asm::lb(rd, rbase, off),
        4 => asm::lw(rd, rbase, off),
        _ => unreachable!("load width is 1 or 4"),
    }
}

/// Identifies a store through a named local pointer at constant offset
/// `off` — the key the SSA hoist planner uses for `*p` / `p[k]` stores.
/// `base` is the store's base-address expression (the full address for
/// offset-0 stores, the addend base otherwise).
fn ptr_store_target(base: &Expr, off: i16) -> Option<StoreTarget> {
    match &base.kind {
        ExprKind::Load(inner) => match inner.kind {
            ExprKind::AddrLocal(p) => Some(StoreTarget::Ptr(p, off)),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower;
    use databp_machine::{Machine, NoHooks, StopReason};

    fn run(src: &str, args: &[i32]) -> (Vec<u8>, i32) {
        run_opts(src, args, &Options::plain())
    }

    fn run_opts(src: &str, args: &[i32], opts: &Options) -> (Vec<u8>, i32) {
        let hir = lower(src).expect("compile error");
        let compiled = generate(&hir, opts);
        let mut m = Machine::new();
        m.load(&compiled.program);
        m.set_args(args.to_vec());
        match m.run(&mut NoHooks, 50_000_000) {
            Ok(StopReason::Halted) => {}
            other => panic!(
                "unexpected stop: {other:?}\noutput so far: {:?}",
                String::from_utf8_lossy(m.output())
            ),
        }
        (m.take_output(), m.exit_code())
    }

    #[test]
    fn returns_exit_code() {
        let (_, code) = run("int main() { return 42; }", &[]);
        assert_eq!(code, 42);
    }

    #[test]
    fn arithmetic_and_precedence() {
        let (out, _) = run(
            r#"int main() {
                print_int(2 + 3 * 4);
                print_int((2 + 3) * 4);
                print_int(10 / 3);
                print_int(10 % 3);
                print_int(-7 / 2);
                print_int(1 << 10);
                print_int(-16 >> 2);
                print_int(5 & 3);
                print_int(5 | 3);
                print_int(5 ^ 3);
                print_int(~0);
                return 0;
            }"#,
            &[],
        );
        assert_eq!(out, b"14\n20\n3\n1\n-3\n1024\n-4\n1\n7\n6\n-1\n");
    }

    #[test]
    fn comparisons() {
        let (out, _) = run(
            r#"int main() {
                print_int(1 < 2); print_int(2 < 1); print_int(2 <= 2);
                print_int(3 > 2); print_int(2 >= 3);
                print_int(4 == 4); print_int(4 != 4);
                print_int(-1 < 0);
                return 0;
            }"#,
            &[],
        );
        assert_eq!(out, b"1\n0\n1\n1\n0\n1\n0\n1\n");
    }

    #[test]
    fn short_circuit_side_effects() {
        let (out, _) = run(
            r#"
            int hits;
            int bump() { hits = hits + 1; return 1; }
            int main() {
                hits = 0;
                if (0 && bump()) { print_int(99); }
                print_int(hits);
                if (1 || bump()) { print_int(7); }
                print_int(hits);
                print_int(2 && 3);
                print_int(0 || 0);
                return 0;
            }"#,
            &[],
        );
        assert_eq!(out, b"0\n7\n0\n1\n0\n");
    }

    #[test]
    fn loops_and_break_continue() {
        let (out, _) = run(
            r#"int main() {
                int i; int sum;
                sum = 0;
                for (i = 0; i < 10; i = i + 1) {
                    if (i == 3) continue;
                    if (i == 8) break;
                    sum = sum + i;
                }
                print_int(sum);
                while (sum > 20) sum = sum - 7;
                print_int(sum);
                return 0;
            }"#,
            &[],
        );
        // 0+1+2+4+5+6+7 = 25; 25-7 = 18
        assert_eq!(out, b"25\n18\n");
    }

    #[test]
    fn recursion() {
        let (out, _) = run(
            r#"
            int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
            int main() { print_int(fib(15)); return 0; }
            "#,
            &[],
        );
        assert_eq!(out, b"610\n");
    }

    #[test]
    fn globals_and_statics() {
        let (out, _) = run(
            r#"
            int g = 100;
            int counter() { static int n = 0; n = n + 1; return n; }
            int main() {
                g = g + 1;
                print_int(g);
                counter(); counter();
                print_int(counter());
                return 0;
            }"#,
            &[],
        );
        assert_eq!(out, b"101\n3\n");
    }

    #[test]
    fn arrays_pointers_structs() {
        let (out, _) = run(
            r#"
            struct Node { int val; struct Node *next; };
            int main() {
                int a[5];
                int i;
                int *p;
                struct Node *n;
                struct Node *m;
                for (i = 0; i < 5; i = i + 1) a[i] = i * i;
                p = a + 2;
                print_int(*p);        // 4
                print_int(p[2]);      // 16
                n = (struct Node*)malloc(sizeof(struct Node));
                m = (struct Node*)malloc(sizeof(struct Node));
                n->val = 11; n->next = m;
                m->val = 22; m->next = (struct Node*)0;
                print_int(n->next->val);  // 22
                print_int(n->val + m->val); // 33
                free((char*)n); free((char*)m);
                return 0;
            }"#,
            &[],
        );
        assert_eq!(out, b"4\n16\n22\n33\n");
    }

    #[test]
    fn char_semantics() {
        let (out, _) = run(
            r#"int main() {
                char c;
                char buf[4];
                c = 300;        // truncates to 44
                print_int(c);
                c = -1;
                print_int(c);   // sign-extends back to -1
                buf[0] = 'h'; buf[1] = 'i'; buf[2] = '\n'; buf[3] = '\0';
                print_str(buf);
                print_int((char)511);
                return 0;
            }"#,
            &[],
        );
        assert_eq!(out, b"44\n-1\nhi\n-1\n");
    }

    #[test]
    fn string_literals_and_args() {
        let (out, code) = run(
            r#"int main() {
                print_str("arg0=");
                print_int(arg(0));
                return arg(1);
            }"#,
            &[5, 9],
        );
        assert_eq!(out, b"arg0=5\n");
        assert_eq!(code, 9);
    }

    #[test]
    fn realloc_preserves_prefix() {
        let (out, _) = run(
            r#"int main() {
                int *p;
                p = (int*)malloc(8);
                p[0] = 123; p[1] = 456;
                p = (int*)realloc((char*)p, 40);
                p[9] = 789;
                print_int(p[0]); print_int(p[1]); print_int(p[9]);
                free((char*)p);
                return 0;
            }"#,
            &[],
        );
        assert_eq!(out, b"123\n456\n789\n");
    }

    #[test]
    fn address_of_and_swap() {
        let (out, _) = run(
            r#"
            void swap(int *a, int *b) { int t; t = *a; *a = *b; *b = t; }
            int main() {
                int x; int y;
                x = 1; y = 2;
                swap(&x, &y);
                print_int(x); print_int(y);
                return 0;
            }"#,
            &[],
        );
        assert_eq!(out, b"2\n1\n");
    }

    #[test]
    fn nested_calls_preserve_temporaries() {
        // Deep expression with calls in the middle: temps must be saved
        // around the inner calls.
        let (out, _) = run(
            r#"
            int id(int x) { return x; }
            int main() {
                print_int(1 + id(2 + id(3)) * id(4) - id(5));
                return 0;
            }"#,
            &[],
        );
        assert_eq!(out, b"16\n");
    }

    #[test]
    fn codepatch_inserts_chk_per_traced_store() {
        let hir = lower("int g; int main() { g = 1; g = 2; return g; }").unwrap();
        let plain = generate(&hir, &Options::plain());
        let cp = generate(&hir, &Options::codepatch());
        let chks = cp
            .program
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Chk(..)))
            .count();
        // 2 global stores; main has no locals/params.
        assert_eq!(chks, 2);
        assert_eq!(plain.debug.traced_store_count, cp.debug.traced_store_count);
        // Outputs must be identical either way.
        let (o1, c1) = run_opts(
            "int g; int main() { g = 1; g = 2; return g; }",
            &[],
            &Options::plain(),
        );
        let (o2, c2) = run_opts(
            "int g; int main() { g = 1; g = 2; return g; }",
            &[],
            &Options::codepatch(),
        );
        assert_eq!((o1, c1), (o2, c2));
    }

    #[test]
    fn untraced_stores_cover_prologue_and_spills() {
        let hir = lower(
            r#"
            int f(int x) { return x; }
            int main() { return 1 + f(2); }
            "#,
        )
        .unwrap();
        let c = generate(&hir, &Options::plain());
        // Each function has 2 prologue saves; the call inside the addition
        // spills one live temp.
        assert!(
            c.debug.untraced_store_pcs.len() >= 5,
            "{:?}",
            c.debug.untraced_store_pcs
        );
        // Untraced pcs point at actual store instructions.
        for &pc in &c.debug.untraced_store_pcs {
            let idx = ((pc - CODE_BASE) / 4) as usize;
            assert!(
                c.program.code[idx].is_store(),
                "pc {pc:#x} is {:?}",
                c.program.code[idx]
            );
        }
    }

    #[test]
    fn loopopt_tags_invariant_scalar_stores() {
        let src = r#"
            int g;
            int main() {
                int i; int acc;
                int a[4];
                acc = 0;
                for (i = 0; i < 10; i = i + 1) {
                    acc = acc + i;   // hoistable: scalar local
                    g = acc;         // hoistable: scalar global
                    a[i % 4] = i;    // NOT hoistable: computed address
                }
                return acc + g + a[0];
            }
        "#;
        let hir = lower(src).unwrap();
        let c = generate(&hir, &Options::codepatch_loopopt());
        // Targets: i (step), acc, g — three hoist groups.
        assert_eq!(c.debug.hoists.len(), 3, "{:?}", c.debug.hoists);
        for l in &c.debug.hoists {
            assert!(!l.body_pcs.is_empty());
            assert!(!l.rearm, "Section 9 groups are not re-armed");
            // Preheader pcs point at chk instructions.
            let idx = ((l.preheader_pc - CODE_BASE) / 4) as usize;
            assert!(matches!(c.program.code[idx], Instr::Chk(..)));
        }
        // Semantics unchanged.
        let (o1, c1) = run_opts(src, &[], &Options::plain());
        let (o2, c2) = run_opts(src, &[], &Options::codepatch_loopopt());
        assert_eq!((o1, c1), (o2, c2));
    }

    #[test]
    fn exit_builtin_stops_program() {
        let (out, code) = run(
            "int main() { print_int(1); exit(33); print_int(2); return 0; }",
            &[],
        );
        assert_eq!(out, b"1\n");
        assert_eq!(code, 33);
    }

    #[test]
    fn large_constants_load() {
        let (out, _) = run(
            "int main() { print_int(1000000); print_int(-1000000); print_int(0x7fffffff); return 0; }",
            &[],
        );
        assert_eq!(out, b"1000000\n-1000000\n2147483647\n");
    }

    const SITES_SRC: &str = r#"
        int g;
        int main() {
            int x;
            int a[4];
            int *p;
            x = 1;
            g = 2;
            p = a;
            p[1] = 3;
            *p = 4;
            return x + a[1] + g;
        }
    "#;

    #[test]
    fn store_sites_cover_every_traced_store() {
        let hir = lower(SITES_SRC).unwrap();
        for (opts, checked) in [
            (Options::plain(), false),
            (Options::codepatch(), true),
            (Options::nop_padding(), false),
        ] {
            let c = generate(&hir, &opts);
            let sites = &c.debug.store_sites;
            assert_eq!(sites.len() as u32, c.debug.traced_store_count);
            // Emission order = pc-ascending, every pc is a real store.
            for w in sites.windows(2) {
                assert!(w[0].pc < w[1].pc);
            }
            for s in sites {
                let idx = ((s.pc - CODE_BASE) / 4) as usize;
                assert!(matches!(c.program.code[idx], Instr::Sb(..) | Instr::Sw(..)));
                if checked {
                    let chk = s.chk_pc.expect("codepatch builds record chk pcs");
                    assert_eq!(chk + 4, s.pc, "chk immediately precedes its store");
                    let cidx = ((chk - CODE_BASE) / 4) as usize;
                    assert!(matches!(c.program.code[cidx], Instr::Chk(..)));
                } else {
                    assert_eq!(s.chk_pc, None);
                }
            }
        }
    }

    #[test]
    fn store_sites_align_across_builds() {
        let hir = lower(SITES_SRC).unwrap();
        let plain = generate(&hir, &Options::plain());
        let cp = generate(&hir, &Options::codepatch());
        let (a, b) = (&plain.debug.store_sites, &cp.debug.store_sites);
        assert_eq!(a.len(), b.len());
        for (sa, sb) in a.iter().zip(b) {
            assert_eq!((sa.func, sa.len), (sb.func, sb.len));
        }
    }

    const SSA_HOIST_SRC: &str = r#"
        int g;
        int main() {
            int i; int s;
            int *p;
            int a[4];
            p = a;
            s = 0;
            for (i = 0; i < 8; i = i + 1) {
                *p = i;          // hoistable: invariant promotable pointer
                p[1] = i + 1;    // hoistable: same pointer, offset 4
                s = s + *p;      // hoistable: scalar local
                g = s;           // hoistable: scalar global
            }
            return s + g + a[0] + a[1];
        }
    "#;

    #[test]
    fn ssa_hoist_emits_pointer_preheaders() {
        let hir = lower(SSA_HOIST_SRC).unwrap();
        let c = generate(&hir, &Options::codepatch_ssa());
        // Targets: *p, p[1], s, g, and the step's i — five hoist groups.
        assert_eq!(c.debug.hoists.len(), 5, "{:?}", c.debug.hoists);
        let chk_pcs: Vec<u32> = c
            .debug
            .store_sites
            .iter()
            .filter_map(|s| s.chk_pc)
            .collect();
        for h in &c.debug.hoists {
            let idx = ((h.preheader_pc - CODE_BASE) / 4) as usize;
            assert!(matches!(c.program.code[idx], Instr::Chk(..)));
            assert!(!h.body_pcs.is_empty(), "{:?}", c.debug.hoists);
            assert!(h.rearm, "SSA groups re-arm on installs");
            for &pc in &h.body_pcs {
                assert!(chk_pcs.contains(&pc), "body pc is a store-site chk");
            }
        }
        // Semantics unchanged.
        let (o1, c1) = run_opts(SSA_HOIST_SRC, &[], &Options::plain());
        let (o2, c2) = run_opts(SSA_HOIST_SRC, &[], &Options::codepatch_ssa());
        assert_eq!((o1, c1), (o2, c2));
    }

    #[test]
    fn loopopt_build_drops_pointer_targets() {
        let hir = lower(SSA_HOIST_SRC).unwrap();
        let lo = generate(&hir, &Options::codepatch_loopopt());
        let ssa = generate(&hir, &Options::codepatch_ssa());
        // Section 9 keeps s, g, and the step's i; *p and p[1] go, and
        // with them the `lw` each pointer guard loads its base with.
        assert_eq!(lo.debug.hoists.len(), 3, "{:?}", lo.debug.hoists);
        assert!(lo.debug.hoists.iter().all(|h| !h.rearm));
        assert_eq!(lo.program.code.len() + 4, ssa.program.code.len());
        let (o1, c1) = run_opts(SSA_HOIST_SRC, &[], &Options::plain());
        let (o2, c2) = run_opts(SSA_HOIST_SRC, &[], &Options::codepatch_loopopt());
        assert_eq!((o1, c1), (o2, c2));
    }

    #[test]
    fn ssa_hoist_skips_reassigned_pointers() {
        let src = r#"
            int main() {
                int i;
                int *q;
                int a[8];
                q = a;
                for (i = 0; i < 8; i = i + 1) {
                    *q = i;
                    q = q + 1;
                }
                return a[3];
            }
        "#;
        let hir = lower(src).unwrap();
        let c = generate(&hir, &Options::codepatch_ssa());
        // q is reassigned in the body: only q itself and the step's i
        // hoist, never the *q store.
        assert_eq!(c.debug.hoists.len(), 2, "{:?}", c.debug.hoists);
        let (o1, c1) = run_opts(src, &[], &Options::plain());
        let (o2, c2) = run_opts(src, &[], &Options::codepatch_ssa());
        assert_eq!((o1, c1), (o2, c2));
    }

    #[test]
    fn ssa_build_aligns_and_leaves_other_builds_untouched() {
        let hir = lower(SSA_HOIST_SRC).unwrap();
        let cp = generate(&hir, &Options::codepatch());
        let ssa = generate(&hir, &Options::codepatch_ssa());
        // Store sites align by index across cp and cp+ssa builds.
        assert_eq!(cp.debug.store_sites.len(), ssa.debug.store_sites.len());
        for (a, b) in cp.debug.store_sites.iter().zip(&ssa.debug.store_sites) {
            assert_eq!((a.func, a.len), (b.func, b.len));
        }
        // Only the SSA build records re-armed hoist groups.
        assert!(cp.debug.hoists.is_empty());
        assert!(generate(&hir, &Options::codepatch_loopopt())
            .debug
            .hoists
            .iter()
            .all(|h| !h.rearm));
    }
}
