//! The machine proper: instruction execution, fault delivery, system
//! calls, and code patching.
//!
//! ## Execution and stop protocol
//!
//! A driving *strategy* (or plain tracer) calls [`Machine::run`] in a loop.
//! `run` executes instructions until the program halts or something needs
//! the driver's attention:
//!
//! * [`StopReason::ProtFault`] — a store touched a write-protected page.
//!   The store **has not committed** and `pc` still addresses the store.
//!   The driver typically calls [`Machine::emulate_pending_store`] (the
//!   paper's "emulating the faulting instruction") and resumes.
//! * [`StopReason::WatchFault`] — a store overlapped a watchpoint
//!   register. The store **has committed** and `pc` has advanced (monitor
//!   notifications happen after the write succeeds). The driver just
//!   notifies and resumes.
//! * [`StopReason::Trap`] — a `trap` with a non-syscall code (TrapPatch).
//!   `pc` still addresses the trap; the driver looks up the displaced
//!   instruction and calls [`Machine::emulate_instr`].
//!
//! High-frequency events that must not stop the loop — stores, CodePatch
//! checks, function boundaries, heap service — are delivered through the
//! [`Hooks`] trait.

use crate::cost::{CostModel, Cycles};
use crate::cpu::{reg, Cpu};
use crate::error::MachineError;
use crate::heap::HeapAlloc;
use crate::isa::{decode, encode, Instr, MarkKind, Reg, SYS_TRAP_MAX};
use crate::layout::{CODE_BASE, DATA_BASE, STACK_LIMIT};
use crate::mem::Memory;
use crate::mmu::{Mmu, PageSize};
use crate::watch::{WatchRegs, DEFAULT_WATCH_REGS};

/// A committed (or about-to-commit) memory write, as seen by [`Hooks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreEvent {
    /// Program counter of the write (or check) instruction.
    pub pc: u32,
    /// Target byte address.
    pub addr: u32,
    /// Width in bytes (1 or 4).
    pub len: u32,
    /// The value being written, masked to the store width. For a `chk`
    /// event this is peeked from the source register of the following
    /// store; a `chk` with no matching following store (an SSA
    /// preheader guard) reports 0.
    pub value: u32,
    /// The value the target held *before* the write, masked to the
    /// store width (0 when the target was unmapped).
    pub old: u32,
}

/// Details of a write fault or watchpoint hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Program counter of the faulting store.
    pub pc: u32,
    /// Target byte address of the store.
    pub addr: u32,
    /// Width in bytes.
    pub len: u32,
    /// The value being stored (low byte significant for `sb`).
    pub value: u32,
    /// The value the target held before the store, masked to the store
    /// width. For a [`StopReason::ProtFault`] the store has not
    /// committed, so this is the current memory content; for a
    /// [`StopReason::WatchFault`] it is the overwritten content.
    pub old: u32,
}

impl Fault {
    /// The store as a [`StoreEvent`].
    pub fn store_event(&self) -> StoreEvent {
        StoreEvent {
            pc: self.pc,
            addr: self.addr,
            len: self.len,
            value: mask_to_len(self.value, self.len),
            old: self.old,
        }
    }
}

/// Masks a store value to its width (`sb` stores commit only the low
/// byte).
fn mask_to_len(value: u32, len: u32) -> u32 {
    if len == 1 {
        value & 0xff
    } else {
        value
    }
}

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// `halt` or the exit system call executed.
    Halted,
    /// Store to a protected page; not committed; `pc` at the store.
    ProtFault(Fault),
    /// Store overlapping a watchpoint; committed; `pc` advanced.
    WatchFault(Fault),
    /// Non-syscall trap (TrapPatch); `pc` at the trap instruction.
    Trap {
        /// The trap code (≥ [`SYS_TRAP_MAX`]).
        code: u16,
        /// Program counter of the trap word.
        pc: u32,
    },
    /// Function-boundary mark executed ([`StopConfig::marks`]); `pc`
    /// advanced past the mark.
    Mark {
        /// Enter or exit.
        kind: MarkKind,
        /// Function id.
        fid: u16,
        /// Frame pointer at the mark.
        fp: u32,
        /// Stack pointer at the mark.
        sp: u32,
    },
    /// Heap object allocated ([`StopConfig::heap`]); `pc` advanced.
    HeapAlloc {
        /// Allocation sequence number.
        seq: u32,
        /// Beginning address.
        ba: u32,
        /// Ending address (exclusive).
        ea: u32,
    },
    /// Heap object freed ([`StopConfig::heap`]); `pc` advanced.
    HeapFree {
        /// Allocation sequence number.
        seq: u32,
        /// Beginning address.
        ba: u32,
        /// Ending address (exclusive).
        ea: u32,
    },
    /// Heap object moved by `realloc` ([`StopConfig::heap`]); `pc`
    /// advanced.
    HeapRealloc {
        /// Allocation sequence number (unchanged — same object).
        seq: u32,
        /// Old range.
        old_ba: u32,
        /// Old range end (exclusive).
        old_ea: u32,
        /// New range.
        new_ba: u32,
        /// New range end (exclusive).
        new_ea: u32,
    },
    /// A CodePatch check executed ([`StopConfig::chk`]); `pc` advanced;
    /// the checked store has *not* executed yet.
    Chk(StoreEvent),
}

/// Which high-frequency events should stop [`Machine::run`] in addition
/// to firing [`Hooks`]. Strategy drivers that must act punctually (e.g.
/// install monitors the moment a frame is live) enable these; tracers
/// leave them off and rely on hooks alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StopConfig {
    /// Stop at `enter`/`exit` marks ([`StopReason::Mark`]).
    pub marks: bool,
    /// Stop after heap alloc/free/realloc system calls.
    pub heap: bool,
    /// Stop after each `chk` instruction ([`StopReason::Chk`]).
    pub chk: bool,
}

/// System-call numbers (trap codes below [`SYS_TRAP_MAX`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Syscall {
    /// Terminate; exit code in `a0`.
    Exit = 1,
    /// Print `a0` as a signed decimal followed by a newline.
    PrintInt = 2,
    /// Print the low byte of `a0`.
    PrintChar = 3,
    /// `rv = malloc(a0)`.
    Malloc = 4,
    /// `free(a0)`.
    Free = 5,
    /// `rv = realloc(a0, a1)`.
    Realloc = 6,
    /// `rv =` program argument number `a0` (0 when absent).
    Arg = 7,
    /// Print the NUL-terminated string at `a0`.
    PrintStr = 8,
}

impl Syscall {
    /// Decodes a trap code into a syscall.
    pub fn from_code(code: u16) -> Option<Syscall> {
        Some(match code {
            1 => Syscall::Exit,
            2 => Syscall::PrintInt,
            3 => Syscall::PrintChar,
            4 => Syscall::Malloc,
            5 => Syscall::Free,
            6 => Syscall::Realloc,
            7 => Syscall::Arg,
            8 => Syscall::PrintStr,
            _ => return None,
        })
    }
}

// Host service time per syscall, microseconds. These stand in for the
// paper's untraced library/kernel time: they contribute to base execution
// time but generate no trace events.
const US_EXIT: f64 = 5.0;
const US_PRINT: f64 = 25.0;
const US_MALLOC: f64 = 8.0;
const US_FREE: f64 = 6.0;
const US_REALLOC: f64 = 15.0;
const US_ARG: f64 = 2.0;

/// High-frequency execution callbacks.
///
/// All methods default to no-ops so tracers and strategies implement only
/// what they need. Methods receive plain-data events one at a time, in
/// program order; implementations must not re-enter the machine. Any
/// batching (e.g. handing events to another thread) is the consumer's
/// business, not the machine's.
pub trait Hooks {
    /// A store committed.
    fn on_store(&mut self, _ev: &StoreEvent) {}
    /// A CodePatch `chk` executed (before its store commits).
    fn on_chk(&mut self, _ev: &StoreEvent) {}
    /// Function `fid`'s frame is set up; `fp`/`sp` delimit it.
    fn on_enter(&mut self, _fid: u16, _fp: u32, _sp: u32) {}
    /// Function `fid`'s frame is about to be torn down.
    fn on_exit(&mut self, _fid: u16, _fp: u32, _sp: u32) {}
    /// Heap object `seq` allocated at `[ba, ea)`.
    fn on_heap_alloc(&mut self, _seq: u32, _ba: u32, _ea: u32) {}
    /// Heap object `seq` at `[ba, ea)` freed.
    fn on_heap_free(&mut self, _seq: u32, _ba: u32, _ea: u32) {}
    /// Heap object `seq` moved from `old` to `new` by `realloc` (the
    /// paper treats it as the same object).
    fn on_heap_realloc(&mut self, _seq: u32, _old: (u32, u32), _new: (u32, u32)) {}
}

/// A [`Hooks`] implementation that ignores everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl Hooks for NoHooks {}

/// A loadable program image.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Instructions, loaded at [`CODE_BASE`].
    pub code: Vec<Instr>,
    /// Initial data segment image, loaded at [`DATA_BASE`].
    pub data: Vec<u8>,
    /// Entry point (byte address); [`CODE_BASE`] if constructed via
    /// [`Program::from_asm`].
    pub entry: u32,
}

impl Program {
    /// A program with the given instructions, no data, entry at the first
    /// instruction.
    pub fn from_asm(code: &[Instr]) -> Self {
        Program {
            code: code.to_vec(),
            data: Vec::new(),
            entry: CODE_BASE,
        }
    }

    /// Number of instruction words.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Count of write instructions — the static figure behind the paper's
    /// CodePatch space-expansion estimate.
    pub fn store_count(&self) -> usize {
        self.code.iter().filter(|i| i.is_store()).count()
    }
}

/// The simulated machine.
///
/// See the crate-level documentation for the execution protocol.
#[derive(Debug, Clone)]
pub struct Machine {
    cpu: Cpu,
    mem: Memory,
    mmu: Mmu,
    watch: WatchRegs,
    heap: HeapAlloc,
    code: Vec<u32>,
    /// Predecoded shadow of `code` — the run loop fetches instructions
    /// here instead of decoding `code[idx]` on every step. Kept in sync
    /// by [`Machine::load`] and [`Machine::patch_instr`], the only code
    /// writers.
    decoded: Vec<Instr>,
    cost_model: CostModel,
    cost: Cycles,
    args: Vec<i32>,
    output: Vec<u8>,
    exit_code: i32,
    pending_fault: Option<Fault>,
    stop_config: StopConfig,
}

impl Default for Machine {
    fn default() -> Self {
        Self::new()
    }
}

impl Machine {
    /// A machine with default configuration: 4 KiB pages, four watchpoint
    /// registers, the default [`CostModel`].
    pub fn new() -> Self {
        Machine {
            cpu: Cpu::new(),
            mem: Memory::new(),
            mmu: Mmu::new(PageSize::K4),
            watch: WatchRegs::new(DEFAULT_WATCH_REGS),
            heap: HeapAlloc::new(),
            code: Vec::new(),
            decoded: Vec::new(),
            cost_model: CostModel::default(),
            cost: Cycles::default(),
            args: Vec::new(),
            output: Vec::new(),
            exit_code: 0,
            pending_fault: None,
            stop_config: StopConfig::default(),
        }
    }

    /// Replaces the MMU with one of the given page size.
    ///
    /// # Panics
    ///
    /// Panics if any page is currently protected (changing geometry under
    /// live protections would silently drop them).
    pub fn set_page_size(&mut self, ps: PageSize) {
        assert!(
            self.mmu.nothing_protected(),
            "cannot change page size while pages are protected"
        );
        self.mmu = Mmu::new(ps);
    }

    /// Replaces the watchpoint bank (e.g. [`WatchRegs::unlimited`] for the
    /// paper's idealized hardware).
    pub fn set_watch_regs(&mut self, watch: WatchRegs) {
        self.watch = watch;
    }

    /// Sets the program arguments readable via [`Syscall::Arg`].
    pub fn set_args(&mut self, args: Vec<i32>) {
        self.args = args;
    }

    /// Configures which events stop the run loop (see [`StopConfig`]).
    pub fn set_stop_config(&mut self, cfg: StopConfig) {
        self.stop_config = cfg;
    }

    /// The current stop configuration.
    pub fn stop_config(&self) -> StopConfig {
        self.stop_config
    }

    /// Loads `program`, resetting all machine state (memory, heap, cost,
    /// output, protections, watchpoints).
    pub fn load(&mut self, program: &Program) {
        self.code = program.code.iter().map(|&i| encode(i)).collect();
        self.decoded = program.code.clone();
        self.mem = Memory::new();
        self.mem
            .write_bytes(DATA_BASE, &program.data)
            .expect("program data segment exceeds memory");
        self.cpu = Cpu::new();
        self.cpu.set_pc(program.entry);
        self.heap = HeapAlloc::new();
        self.cost.reset();
        self.output.clear();
        self.exit_code = 0;
        self.mmu.clear();
        self.watch.clear();
        self.pending_fault = None;
    }

    // ---- accessors ----

    /// Architectural CPU state.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable CPU state (fault handlers, tests).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Data memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable data memory (loaders, emulation helpers).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The MMU.
    pub fn mmu(&self) -> &Mmu {
        &self.mmu
    }

    /// Mutable MMU (the VirtualMemory strategy protects/unprotects).
    pub fn mmu_mut(&mut self) -> &mut Mmu {
        &mut self.mmu
    }

    /// The watchpoint bank.
    pub fn watch(&self) -> &WatchRegs {
        &self.watch
    }

    /// Mutable watchpoint bank (the NativeHardware strategy).
    pub fn watch_mut(&mut self) -> &mut WatchRegs {
        &mut self.watch
    }

    /// The heap allocator.
    pub fn heap(&self) -> &HeapAlloc {
        &self.heap
    }

    /// Accumulated execution cost.
    pub fn cost(&self) -> &Cycles {
        &self.cost
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Replaces the cost model.
    pub fn set_cost_model(&mut self, m: CostModel) {
        self.cost_model = m;
    }

    /// Program output written so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Takes ownership of the output buffer, leaving it empty.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.output)
    }

    /// Exit code passed to [`Syscall::Exit`] (0 if the program `halt`ed).
    pub fn exit_code(&self) -> i32 {
        self.exit_code
    }

    /// Number of loaded instruction words.
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    // ---- code patching ----

    /// Converts a byte-address `pc` to a code word index.
    ///
    /// # Errors
    ///
    /// [`MachineError::BadPc`] when outside the image or misaligned.
    pub fn pc_to_index(&self, pc: u32) -> Result<usize, MachineError> {
        if pc < CODE_BASE || !pc.is_multiple_of(4) {
            return Err(MachineError::BadPc { pc });
        }
        let idx = ((pc - CODE_BASE) / 4) as usize;
        if idx >= self.code.len() {
            return Err(MachineError::BadPc { pc });
        }
        Ok(idx)
    }

    /// Decodes the instruction at code word `index`.
    ///
    /// # Errors
    ///
    /// [`MachineError::BadPc`] if out of range;
    /// [`MachineError::InvalidOpcode`] if the word does not decode (only
    /// possible after a bad patch).
    pub fn instr_at(&self, index: usize) -> Result<Instr, MachineError> {
        let word = *self.code.get(index).ok_or(MachineError::BadPc {
            pc: CODE_BASE + 4 * index as u32,
        })?;
        decode(word).map_err(|w| MachineError::InvalidOpcode {
            word: w,
            pc: CODE_BASE + 4 * index as u32,
        })
    }

    /// Overwrites the instruction word at `index` with `instr`, returning
    /// the displaced instruction — the TrapPatch primitive.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::instr_at`].
    pub fn patch_instr(&mut self, index: usize, instr: Instr) -> Result<Instr, MachineError> {
        let old = self.instr_at(index)?;
        self.code[index] = encode(instr);
        self.decoded[index] = instr;
        Ok(old)
    }

    // ---- execution ----

    /// Runs until the program halts, a stop is delivered, or `max_steps`
    /// instructions retire.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`] aborts the run;
    /// [`MachineError::StepLimitExceeded`] if the budget runs out.
    pub fn run<H: Hooks + ?Sized>(
        &mut self,
        hooks: &mut H,
        max_steps: u64,
    ) -> Result<StopReason, MachineError> {
        let mut steps = 0u64;
        let result = loop {
            if self.cpu.is_halted() {
                break Ok(StopReason::Halted);
            }
            if steps >= max_steps {
                break Err(MachineError::StepLimitExceeded { limit: max_steps });
            }
            steps += 1;
            match self.step_inner(hooks) {
                Ok(None) => {}
                Ok(Some(stop)) => break Ok(stop),
                Err(e) => break Err(e),
            }
        };
        // One batched add for the whole run instead of an atomic
        // increment per retired instruction.
        databp_telemetry::count!("machine.instructions.retired", steps);
        result
    }

    /// Executes one instruction; returns a stop reason when the driver
    /// must intervene.
    ///
    /// # Errors
    ///
    /// Any fatal [`MachineError`].
    pub fn step<H: Hooks + ?Sized>(
        &mut self,
        hooks: &mut H,
    ) -> Result<Option<StopReason>, MachineError> {
        databp_telemetry::count!("machine.instructions.retired");
        self.step_inner(hooks)
    }

    fn step_inner<H: Hooks + ?Sized>(
        &mut self,
        hooks: &mut H,
    ) -> Result<Option<StopReason>, MachineError> {
        let pc = self.cpu.pc();
        let idx = self.pc_to_index(pc)?;
        let instr = self.decoded[idx];
        self.cost.instructions += 1;
        self.cost.cycles += self.cost_model.cycles_for(CostModel::classify(&instr));
        self.exec(instr, hooks, false)
    }

    /// Re-executes the store that raised the pending [`StopReason::ProtFault`],
    /// bypassing page protection (the paper's fault-handler emulation),
    /// and advances past it.
    ///
    /// # Errors
    ///
    /// Any fatal [`MachineError`].
    ///
    /// # Panics
    ///
    /// Panics if no protection fault is pending.
    pub fn emulate_pending_store<H: Hooks + ?Sized>(
        &mut self,
        hooks: &mut H,
    ) -> Result<Option<StopReason>, MachineError> {
        let fault = self
            .pending_fault
            .take()
            .expect("emulate_pending_store called with no pending fault");
        let idx = self.pc_to_index(fault.pc)?;
        let instr = self.instr_at(idx)?;
        self.exec(instr, hooks, true)
    }

    /// Executes `instr` as if it were at the current `pc`, bypassing page
    /// protection — the TrapPatch primitive for running a displaced store
    /// out of line.
    ///
    /// # Errors
    ///
    /// Any fatal [`MachineError`].
    pub fn emulate_instr<H: Hooks + ?Sized>(
        &mut self,
        instr: Instr,
        hooks: &mut H,
    ) -> Result<Option<StopReason>, MachineError> {
        self.exec(instr, hooks, true)
    }

    fn exec<H: Hooks + ?Sized>(
        &mut self,
        instr: Instr,
        hooks: &mut H,
        bypass_mmu: bool,
    ) -> Result<Option<StopReason>, MachineError> {
        use Instr::*;
        let pc = self.cpu.pc();
        match instr {
            Add(d, a, b) => self.alu(d, a, b, u32::wrapping_add),
            Sub(d, a, b) => self.alu(d, a, b, u32::wrapping_sub),
            Mul(d, a, b) => self.alu(d, a, b, u32::wrapping_mul),
            Div(d, a, b) => {
                let (x, y) = (self.cpu.read(a) as i32, self.cpu.read(b) as i32);
                if y == 0 {
                    return Err(MachineError::DivideByZero { pc });
                }
                self.cpu.write(d, x.wrapping_div(y) as u32);
                self.cpu.advance();
            }
            Rem(d, a, b) => {
                let (x, y) = (self.cpu.read(a) as i32, self.cpu.read(b) as i32);
                if y == 0 {
                    return Err(MachineError::DivideByZero { pc });
                }
                self.cpu.write(d, x.wrapping_rem(y) as u32);
                self.cpu.advance();
            }
            And(d, a, b) => self.alu(d, a, b, |x, y| x & y),
            Or(d, a, b) => self.alu(d, a, b, |x, y| x | y),
            Xor(d, a, b) => self.alu(d, a, b, |x, y| x ^ y),
            Sll(d, a, b) => self.alu(d, a, b, |x, y| x.wrapping_shl(y & 31)),
            Srl(d, a, b) => self.alu(d, a, b, |x, y| x.wrapping_shr(y & 31)),
            Sra(d, a, b) => self.alu(d, a, b, |x, y| ((x as i32).wrapping_shr(y & 31)) as u32),
            Slt(d, a, b) => self.alu(d, a, b, |x, y| ((x as i32) < (y as i32)) as u32),
            Sltu(d, a, b) => self.alu(d, a, b, |x, y| (x < y) as u32),
            Addi(d, a, imm) => {
                let v = self.cpu.read(a).wrapping_add(imm as i32 as u32);
                self.cpu.write(d, v);
                self.cpu.advance();
            }
            Andi(d, a, imm) => {
                let v = self.cpu.read(a) & imm as u32;
                self.cpu.write(d, v);
                self.cpu.advance();
            }
            Ori(d, a, imm) => {
                let v = self.cpu.read(a) | imm as u32;
                self.cpu.write(d, v);
                self.cpu.advance();
            }
            Xori(d, a, imm) => {
                let v = self.cpu.read(a) ^ imm as u32;
                self.cpu.write(d, v);
                self.cpu.advance();
            }
            Slti(d, a, imm) => {
                let v = ((self.cpu.read(a) as i32) < imm as i32) as u32;
                self.cpu.write(d, v);
                self.cpu.advance();
            }
            Lui(d, imm) => {
                self.cpu.write(d, (imm as u32) << 16);
                self.cpu.advance();
            }
            Slli(d, a, sh) => {
                let v = self.cpu.read(a).wrapping_shl(sh as u32);
                self.cpu.write(d, v);
                self.cpu.advance();
            }
            Srli(d, a, sh) => {
                let v = self.cpu.read(a).wrapping_shr(sh as u32);
                self.cpu.write(d, v);
                self.cpu.advance();
            }
            Srai(d, a, sh) => {
                let v = ((self.cpu.read(a) as i32).wrapping_shr(sh as u32)) as u32;
                self.cpu.write(d, v);
                self.cpu.advance();
            }
            Lw(d, a, imm) => {
                let addr = self.cpu.read(a).wrapping_add(imm as i32 as u32);
                let v = self.mem.load_u32(addr, pc)?;
                self.cpu.write(d, v);
                self.cpu.advance();
            }
            Lb(d, a, imm) => {
                let addr = self.cpu.read(a).wrapping_add(imm as i32 as u32);
                let v = self.mem.load_u8(addr, pc)? as i8 as i32 as u32;
                self.cpu.write(d, v);
                self.cpu.advance();
            }
            Lbu(d, a, imm) => {
                let addr = self.cpu.read(a).wrapping_add(imm as i32 as u32);
                let v = self.mem.load_u8(addr, pc)? as u32;
                self.cpu.write(d, v);
                self.cpu.advance();
            }
            Sw(src, base, imm) => {
                let addr = self.cpu.read(base).wrapping_add(imm as i32 as u32);
                return self.do_store(pc, addr, 4, self.cpu.read(src), hooks, bypass_mmu);
            }
            Sb(src, base, imm) => {
                let addr = self.cpu.read(base).wrapping_add(imm as i32 as u32);
                return self.do_store(pc, addr, 1, self.cpu.read(src), hooks, bypass_mmu);
            }
            Beq(a, b, off) => self.branch(self.cpu.read(a) == self.cpu.read(b), off),
            Bne(a, b, off) => self.branch(self.cpu.read(a) != self.cpu.read(b), off),
            Blt(a, b, off) => {
                self.branch((self.cpu.read(a) as i32) < (self.cpu.read(b) as i32), off)
            }
            Bge(a, b, off) => {
                self.branch((self.cpu.read(a) as i32) >= (self.cpu.read(b) as i32), off)
            }
            Jal(target) => {
                let sp = self.cpu.reg(reg::SP);
                if sp < STACK_LIMIT {
                    return Err(MachineError::StackOverflow { sp, pc });
                }
                self.cpu.write(Reg::new(reg::RA), pc.wrapping_add(4));
                self.cpu.set_pc(CODE_BASE + target * 4);
            }
            Jalr(d, a, imm) => {
                let target = self.cpu.read(a).wrapping_add(imm as i32 as u32) & !3;
                self.cpu.write(d, pc.wrapping_add(4));
                self.cpu.set_pc(target);
            }
            Trap(code) => {
                if code < SYS_TRAP_MAX {
                    return self.syscall(code, hooks);
                }
                databp_telemetry::count!("machine.faults.trap");
                return Ok(Some(StopReason::Trap { code, pc }));
            }
            Halt => {
                self.cpu.halt();
                return Ok(Some(StopReason::Halted));
            }
            Nop => self.cpu.advance(),
            Mark(kind, fid) => {
                let (fp, sp) = (self.cpu.reg(reg::FP), self.cpu.reg(reg::SP));
                match kind {
                    MarkKind::Enter => hooks.on_enter(fid, fp, sp),
                    MarkKind::Exit => hooks.on_exit(fid, fp, sp),
                }
                self.cpu.advance();
                if self.stop_config.marks {
                    return Ok(Some(StopReason::Mark { kind, fid, fp, sp }));
                }
            }
            Chk(base, imm, len) => {
                let addr = self.cpu.read(base).wrapping_add(imm as i32 as u32);
                let (value, old) = self.peek_checked_store(pc, addr, len as u32);
                let ev = StoreEvent {
                    pc,
                    addr,
                    len: len as u32,
                    value,
                    old,
                };
                hooks.on_chk(&ev);
                self.cpu.advance();
                if self.stop_config.chk {
                    return Ok(Some(StopReason::Chk(ev)));
                }
            }
        }
        Ok(None)
    }

    fn alu(&mut self, d: Reg, a: Reg, b: Reg, f: impl Fn(u32, u32) -> u32) {
        let v = f(self.cpu.read(a), self.cpu.read(b));
        self.cpu.write(d, v);
        self.cpu.advance();
    }

    fn branch(&mut self, taken: bool, off: i16) {
        let pc = self.cpu.pc();
        if taken {
            let delta = 4i64 + 4 * off as i64;
            self.cpu.set_pc((pc as i64 + delta) as u32);
        } else {
            self.cpu.advance();
        }
    }

    fn do_store<H: Hooks + ?Sized>(
        &mut self,
        pc: u32,
        addr: u32,
        len: u32,
        value: u32,
        hooks: &mut H,
        bypass_mmu: bool,
    ) -> Result<Option<StopReason>, MachineError> {
        let old = self.peek_mem(addr, len);
        if !bypass_mmu && self.mmu.store_faults(addr, len) {
            let fault = Fault {
                pc,
                addr,
                len,
                value,
                old,
            };
            self.pending_fault = Some(fault);
            databp_telemetry::count!("machine.faults.prot");
            return Ok(Some(StopReason::ProtFault(fault)));
        }
        match len {
            4 => self.mem.store_u32(addr, value, pc)?,
            1 => self.mem.store_u8(addr, value as u8, pc)?,
            _ => unreachable!("store width is 1 or 4"),
        }
        hooks.on_store(&StoreEvent {
            pc,
            addr,
            len,
            value: mask_to_len(value, len),
            old,
        });
        self.cpu.advance();
        if self.watch.store_hits(addr, len) {
            databp_telemetry::count!("machine.faults.watch");
            return Ok(Some(StopReason::WatchFault(Fault {
                pc,
                addr,
                len,
                value,
                old,
            })));
        }
        Ok(None)
    }

    /// Reads the current memory content at `[addr, addr+len)` without
    /// faulting — loads ignore page protection, and an unmapped target
    /// reads as 0 (the subsequent store reports the real error).
    fn peek_mem(&mut self, addr: u32, len: u32) -> u32 {
        let pc = self.cpu.pc();
        match len {
            4 => self.mem.load_u32(addr, pc).unwrap_or(0),
            _ => self.mem.load_u8(addr, pc).unwrap_or(0) as u32,
        }
    }

    /// Resolves the written/overwritten values for the store a `chk` at
    /// `pc` guards. The code generator places each store-site `chk`
    /// immediately before its store (pinned by codegen tests), so the
    /// value is read from the following store's source register; an SSA
    /// preheader guard has no matching following store and reports
    /// `(0, 0)`.
    fn peek_checked_store(&mut self, pc: u32, addr: u32, len: u32) -> (u32, u32) {
        let Ok(idx) = self.pc_to_index(pc.wrapping_add(4)) else {
            return (0, 0);
        };
        let (src, base, imm, slen) = match self.decoded.get(idx) {
            Some(&Instr::Sw(src, base, imm)) => (src, base, imm, 4),
            Some(&Instr::Sb(src, base, imm)) => (src, base, imm, 1),
            _ => return (0, 0),
        };
        let saddr = self.cpu.read(base).wrapping_add(imm as i32 as u32);
        if saddr != addr || slen != len {
            return (0, 0);
        }
        let value = mask_to_len(self.cpu.read(src), len);
        (value, self.peek_mem(addr, len))
    }

    fn syscall<H: Hooks + ?Sized>(
        &mut self,
        code: u16,
        hooks: &mut H,
    ) -> Result<Option<StopReason>, MachineError> {
        let call = Syscall::from_code(code).ok_or(MachineError::InvalidOpcode {
            word: code as u32,
            pc: self.cpu.pc(),
        })?;
        let a0 = self.cpu.reg(reg::A0);
        let a1 = self.cpu.reg(reg::A0 + 1);
        match call {
            Syscall::Exit => {
                self.cost.syscall_us += US_EXIT;
                self.exit_code = a0 as i32;
                self.cpu.halt();
                return Ok(Some(StopReason::Halted));
            }
            Syscall::PrintInt => {
                self.cost.syscall_us += US_PRINT;
                self.output
                    .extend_from_slice(format!("{}\n", a0 as i32).as_bytes());
            }
            Syscall::PrintChar => {
                self.cost.syscall_us += US_PRINT;
                self.output.push(a0 as u8);
            }
            Syscall::Malloc => {
                self.cost.syscall_us += US_MALLOC;
                let (addr, seq) = self.heap.alloc(a0)?;
                let (size, _) = self.heap.live_block(addr).expect("just allocated");
                self.cpu.set_reg(reg::RV, addr);
                hooks.on_heap_alloc(seq, addr, addr + size);
                if self.stop_config.heap {
                    self.cpu.advance();
                    return Ok(Some(StopReason::HeapAlloc {
                        seq,
                        ba: addr,
                        ea: addr + size,
                    }));
                }
            }
            Syscall::Free => {
                self.cost.syscall_us += US_FREE;
                let (size, seq) = self.heap.free(a0)?;
                hooks.on_heap_free(seq, a0, a0 + size);
                if self.stop_config.heap {
                    self.cpu.advance();
                    return Ok(Some(StopReason::HeapFree {
                        seq,
                        ba: a0,
                        ea: a0 + size,
                    }));
                }
            }
            Syscall::Realloc => {
                self.cost.syscall_us += US_REALLOC;
                let (old_size, seq) = self
                    .heap
                    .live_block(a0)
                    .ok_or(MachineError::BadFree { addr: a0 })?;
                let saved = self.mem.read_bytes(a0, old_size)?.to_vec();
                self.heap.free(a0)?;
                let new_addr = self.heap.alloc_with_seq(a1, seq)?;
                let (new_size, _) = self.heap.live_block(new_addr).expect("just allocated");
                let keep = old_size.min(new_size) as usize;
                self.mem.write_bytes(new_addr, &saved[..keep])?;
                self.heap.note_realloc();
                self.cpu.set_reg(reg::RV, new_addr);
                hooks.on_heap_realloc(seq, (a0, a0 + old_size), (new_addr, new_addr + new_size));
                if self.stop_config.heap {
                    self.cpu.advance();
                    return Ok(Some(StopReason::HeapRealloc {
                        seq,
                        old_ba: a0,
                        old_ea: a0 + old_size,
                        new_ba: new_addr,
                        new_ea: new_addr + new_size,
                    }));
                }
            }
            Syscall::Arg => {
                self.cost.syscall_us += US_ARG;
                let v = self.args.get(a0 as usize).copied().unwrap_or(0);
                self.cpu.set_reg(reg::RV, v as u32);
            }
            Syscall::PrintStr => {
                self.cost.syscall_us += US_PRINT;
                for addr in a0..a0.saturating_add(65536) {
                    let b = self.mem.load_u8(addr, self.cpu.pc())?;
                    if b == 0 {
                        break;
                    }
                    self.output.push(b);
                }
            }
        }
        self.cpu.advance();
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;
    use crate::layout::{DATA_BASE, HEAP_BASE, STACK_TOP};

    fn run_prog(code: &[Instr]) -> Machine {
        let mut m = Machine::new();
        m.load(&Program::from_asm(code));
        let stop = m.run(&mut NoHooks, 1_000_000).expect("run failed");
        assert_eq!(stop, StopReason::Halted);
        m
    }

    #[test]
    fn arithmetic_program() {
        let m = run_prog(&[
            asm::addi(8, 0, 6),
            asm::addi(9, 0, 7),
            asm::mul(10, 8, 9),
            asm::addi(2, 10, 0),
            asm::halt(),
        ]);
        assert_eq!(m.cpu().reg(2), 42);
        assert_eq!(m.cost().instructions, 5);
    }

    #[test]
    fn store_and_load_roundtrip() {
        let m = run_prog(&[
            asm::lui(8, (DATA_BASE >> 16) as u16),
            asm::addi(9, 0, 1234),
            asm::sw(9, 8, 16),
            asm::lw(2, 8, 16),
            asm::halt(),
        ]);
        assert_eq!(m.cpu().reg(2), 1234);
        assert_eq!(m.mem().load_u32(DATA_BASE + 16, 0).unwrap(), 1234);
    }

    #[test]
    fn branch_loop_sums() {
        // sum 1..=10 into r2.
        let m = run_prog(&[
            asm::addi(8, 0, 10), // i = 10
            asm::addi(2, 0, 0),  // acc = 0
            // loop:
            asm::add(2, 2, 8),
            asm::addi(8, 8, -1),
            asm::bne(8, 0, -3),
            asm::halt(),
        ]);
        assert_eq!(m.cpu().reg(2), 55);
    }

    #[test]
    fn jal_and_jalr_call_return() {
        // main: jal f; halt.  f: rv = 99; jalr r0, ra.
        let m = run_prog(&[
            asm::jal(2),
            asm::halt(),
            asm::addi(2, 0, 99),
            asm::jalr(0, 31, 0),
        ]);
        assert_eq!(m.cpu().reg(2), 99);
    }

    #[test]
    fn div_by_zero_is_fatal() {
        let mut m = Machine::new();
        m.load(&Program::from_asm(&[asm::div(2, 0, 0), asm::halt()]));
        assert_eq!(
            m.run(&mut NoHooks, 10),
            Err(MachineError::DivideByZero { pc: CODE_BASE })
        );
    }

    #[test]
    fn step_limit_enforced() {
        // Infinite loop.
        let mut m = Machine::new();
        m.load(&Program::from_asm(&[asm::beq(0, 0, -1)]));
        assert_eq!(
            m.run(&mut NoHooks, 100),
            Err(MachineError::StepLimitExceeded { limit: 100 })
        );
    }

    #[test]
    fn store_hook_fires_per_store() {
        #[derive(Default)]
        struct Counter {
            stores: Vec<StoreEvent>,
        }
        impl Hooks for Counter {
            fn on_store(&mut self, ev: &StoreEvent) {
                self.stores.push(*ev);
            }
        }
        let mut m = Machine::new();
        m.load(&Program::from_asm(&[
            asm::lui(8, (DATA_BASE >> 16) as u16),
            asm::sw(0, 8, 0),
            asm::sb(0, 8, 4),
            asm::halt(),
        ]));
        let mut c = Counter::default();
        m.run(&mut c, 100).unwrap();
        assert_eq!(c.stores.len(), 2);
        assert_eq!(c.stores[0].addr, DATA_BASE);
        assert_eq!(c.stores[0].len, 4);
        assert_eq!(c.stores[1].addr, DATA_BASE + 4);
        assert_eq!(c.stores[1].len, 1);
    }

    #[test]
    fn prot_fault_blocks_store_until_emulated() {
        let mut m = Machine::new();
        m.load(&Program::from_asm(&[
            asm::lui(8, (DATA_BASE >> 16) as u16),
            asm::addi(9, 0, 77),
            asm::sw(9, 8, 0),
            asm::halt(),
        ]));
        m.mmu_mut().protect_range(DATA_BASE, DATA_BASE + 4);
        let stop = m.run(&mut NoHooks, 100).unwrap();
        let fault = match stop {
            StopReason::ProtFault(f) => f,
            other => panic!("expected ProtFault, got {other:?}"),
        };
        assert_eq!(fault.addr, DATA_BASE);
        assert_eq!(fault.value, 77);
        // Store did not commit; pc still at the store.
        assert_eq!(m.mem().load_u32(DATA_BASE, 0).unwrap(), 0);
        assert_eq!(m.cpu().pc(), CODE_BASE + 8);
        // Emulate and continue: store commits despite protection.
        m.emulate_pending_store(&mut NoHooks).unwrap();
        assert_eq!(m.mem().load_u32(DATA_BASE, 0).unwrap(), 77);
        assert_eq!(m.run(&mut NoHooks, 100).unwrap(), StopReason::Halted);
    }

    #[test]
    fn watch_fault_fires_after_commit() {
        let mut m = Machine::new();
        m.load(&Program::from_asm(&[
            asm::lui(8, (DATA_BASE >> 16) as u16),
            asm::addi(9, 0, 5),
            asm::sw(9, 8, 8),
            asm::halt(),
        ]));
        m.watch_mut()
            .install(DATA_BASE + 8, DATA_BASE + 12)
            .unwrap();
        let stop = m.run(&mut NoHooks, 100).unwrap();
        match stop {
            StopReason::WatchFault(f) => {
                assert_eq!(f.addr, DATA_BASE + 8);
                // Committed and pc advanced.
                assert_eq!(m.mem().load_u32(DATA_BASE + 8, 0).unwrap(), 5);
                assert_eq!(m.cpu().pc(), CODE_BASE + 12);
            }
            other => panic!("expected WatchFault, got {other:?}"),
        }
        assert_eq!(m.run(&mut NoHooks, 100).unwrap(), StopReason::Halted);
    }

    #[test]
    fn trap_patch_roundtrip() {
        let mut m = Machine::new();
        m.load(&Program::from_asm(&[
            asm::lui(8, (DATA_BASE >> 16) as u16),
            asm::addi(9, 0, 31),
            asm::sw(9, 8, 0),
            asm::halt(),
        ]));
        // Patch the store with a TP trap.
        let orig = m.patch_instr(2, Instr::Trap(0x100)).unwrap();
        assert!(orig.is_store());
        let stop = m.run(&mut NoHooks, 100).unwrap();
        assert_eq!(
            stop,
            StopReason::Trap {
                code: 0x100,
                pc: CODE_BASE + 8
            }
        );
        // Handler emulates the displaced store.
        m.emulate_instr(orig, &mut NoHooks).unwrap();
        assert_eq!(m.mem().load_u32(DATA_BASE, 0).unwrap(), 31);
        assert_eq!(m.run(&mut NoHooks, 100).unwrap(), StopReason::Halted);
    }

    #[test]
    fn chk_hook_reports_effective_address() {
        struct Chks(Vec<StoreEvent>);
        impl Hooks for Chks {
            fn on_chk(&mut self, ev: &StoreEvent) {
                self.0.push(*ev);
            }
        }
        let mut m = Machine::new();
        m.load(&Program::from_asm(&[
            asm::lui(8, (DATA_BASE >> 16) as u16),
            asm::chk(8, 12, 4),
            asm::sw(0, 8, 12),
            asm::halt(),
        ]));
        let mut c = Chks(Vec::new());
        m.run(&mut c, 100).unwrap();
        assert_eq!(
            c.0,
            vec![StoreEvent {
                pc: CODE_BASE + 4,
                addr: DATA_BASE + 12,
                len: 4,
                value: 0,
                old: 0
            }]
        );
    }

    #[test]
    fn syscall_print_and_exit() {
        let mut m = Machine::new();
        m.load(&Program::from_asm(&[
            asm::addi(4, 0, -7),
            asm::trap(Syscall::PrintInt as u16),
            asm::addi(4, 0, 3),
            asm::trap(Syscall::Exit as u16),
        ]));
        assert_eq!(m.run(&mut NoHooks, 100).unwrap(), StopReason::Halted);
        assert_eq!(m.output(), b"-7\n");
        assert_eq!(m.exit_code(), 3);
        assert!(m.cost().syscall_us > 0.0);
    }

    #[test]
    fn syscall_malloc_free_with_events() {
        #[derive(Default)]
        struct HeapEvents {
            allocs: Vec<(u32, u32, u32)>,
            frees: Vec<(u32, u32, u32)>,
        }
        impl Hooks for HeapEvents {
            fn on_heap_alloc(&mut self, seq: u32, ba: u32, ea: u32) {
                self.allocs.push((seq, ba, ea));
            }
            fn on_heap_free(&mut self, seq: u32, ba: u32, ea: u32) {
                self.frees.push((seq, ba, ea));
            }
        }
        let mut m = Machine::new();
        m.load(&Program::from_asm(&[
            asm::addi(4, 0, 16),
            asm::trap(Syscall::Malloc as u16),
            asm::addi(4, 2, 0), // a0 = allocated ptr
            asm::trap(Syscall::Free as u16),
            asm::halt(),
        ]));
        let mut h = HeapEvents::default();
        m.run(&mut h, 100).unwrap();
        assert_eq!(h.allocs.len(), 1);
        assert_eq!(h.frees.len(), 1);
        let (seq, ba, ea) = h.allocs[0];
        assert_eq!(seq, 0);
        assert_eq!(ba, HEAP_BASE);
        assert_eq!(ea - ba, 16);
        assert_eq!(h.frees[0], (seq, ba, ea));
    }

    #[test]
    fn syscall_realloc_keeps_identity_and_bytes() {
        type ReallocEvent = (u32, (u32, u32), (u32, u32));
        struct Re(Vec<ReallocEvent>);
        impl Hooks for Re {
            fn on_heap_realloc(&mut self, seq: u32, old: (u32, u32), new: (u32, u32)) {
                self.0.push((seq, old, new));
            }
        }
        let mut m = Machine::new();
        m.load(&Program::from_asm(&[
            asm::addi(4, 0, 8),
            asm::trap(Syscall::Malloc as u16), // rv = p
            asm::addi(10, 2, 0),               // r10 = p
            asm::addi(9, 0, 4242),
            asm::sw(9, 10, 0), // *p = 4242
            asm::addi(4, 10, 0),
            asm::addi(5, 0, 64),
            asm::trap(Syscall::Realloc as u16), // rv = q
            asm::lw(2, 2, 0),                   // rv = *q
            asm::halt(),
        ]));
        let mut r = Re(Vec::new());
        m.run(&mut r, 100).unwrap();
        assert_eq!(m.cpu().reg(2), 4242, "realloc must preserve contents");
        assert_eq!(r.0.len(), 1);
        let (seq, old, new) = r.0[0];
        assert_eq!(seq, 0, "realloc keeps the allocation sequence number");
        assert_eq!(old.1 - old.0, 8);
        assert_eq!(new.1 - new.0, 64);
    }

    #[test]
    fn syscall_args() {
        let mut m = Machine::new();
        m.load(&Program::from_asm(&[
            asm::addi(4, 0, 1),
            asm::trap(Syscall::Arg as u16),
            asm::halt(),
        ]));
        m.set_args(vec![10, 20, 30]);
        m.run(&mut NoHooks, 100).unwrap();
        assert_eq!(m.cpu().reg(2), 20);
    }

    #[test]
    fn mark_hooks_fire() {
        #[derive(Default)]
        struct Marks {
            enters: Vec<u16>,
            exits: Vec<u16>,
        }
        impl Hooks for Marks {
            fn on_enter(&mut self, fid: u16, _fp: u32, _sp: u32) {
                self.enters.push(fid);
            }
            fn on_exit(&mut self, fid: u16, _fp: u32, _sp: u32) {
                self.exits.push(fid);
            }
        }
        let mut m = Machine::new();
        m.load(&Program::from_asm(&[
            asm::mark_enter(7),
            asm::mark_exit(7),
            asm::halt(),
        ]));
        let mut marks = Marks::default();
        m.run(&mut marks, 100).unwrap();
        assert_eq!(marks.enters, vec![7]);
        assert_eq!(marks.exits, vec![7]);
    }

    #[test]
    fn load_resets_state() {
        let mut m = Machine::new();
        m.load(&Program::from_asm(&[
            asm::lui(8, (DATA_BASE >> 16) as u16),
            asm::sw(8, 8, 0),
            asm::halt(),
        ]));
        m.run(&mut NoHooks, 100).unwrap();
        assert!(m.cost().instructions > 0);
        m.load(&Program::from_asm(&[asm::halt()]));
        assert_eq!(m.cost().instructions, 0);
        assert_eq!(m.mem().load_u32(DATA_BASE, 0).unwrap(), 0);
        assert_eq!(m.cpu().pc(), CODE_BASE);
        assert_eq!(m.cpu().reg(reg::SP), STACK_TOP);
    }

    #[test]
    fn stack_overflow_detected_on_call() {
        // Infinite recursion: f: addi sp, sp, -4096; jal f.
        let mut m = Machine::new();
        m.load(&Program::from_asm(&[asm::addi(29, 29, -4096), asm::jal(0)]));
        let err = m.run(&mut NoHooks, 1_000_000).unwrap_err();
        assert!(
            matches!(err, MachineError::StackOverflow { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn bad_pc_detected() {
        let mut m = Machine::new();
        m.load(&Program::from_asm(&[asm::jalr(0, 0, 0)])); // jump to address 0
        assert!(matches!(
            m.run(&mut NoHooks, 10),
            Err(MachineError::BadPc { .. })
        ));
    }

    #[test]
    fn program_store_count() {
        let p = Program::from_asm(&[
            asm::sw(1, 2, 0),
            asm::sb(1, 2, 0),
            asm::lw(1, 2, 0),
            asm::halt(),
        ]);
        assert_eq!(p.store_count(), 2);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }
}
