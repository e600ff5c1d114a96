//! `spar` — a deterministic simulated 32-bit RISC machine.
//!
//! This crate is the hardware/OS substrate for the databp reproduction of
//! *Efficient Data Breakpoints* (Wahbe, ASPLOS 1992). The paper's
//! experiments need four architectural services that no single host exposes
//! in a portable, instrumentable way, so we simulate them:
//!
//! 1. **A load/store ISA** whose write instructions can be statically
//!    rewritten — [`Instr`], with a real 32-bit binary encoding so that
//!    trap-patching literally overwrites instruction words
//!    ([`Machine::patch_instr`]).
//! 2. **An MMU with per-page write protection** and precise, restartable
//!    write faults ([`Mmu`], [`StopReason::ProtFault`]).
//! 3. **Hardware watchpoint ("monitor") registers** that trap after a
//!    monitored write commits ([`WatchRegs`], [`StopReason::WatchFault`]).
//! 4. **A cycle-accurate cost accountant** ([`CostModel`], [`Cycles`])
//!    converting executed instructions into base-program time at a
//!    SPARCstation-2-like 40 MHz clock.
//!
//! The machine is Harvard-style: code lives in a patchable instruction
//! image, data in a flat 16 MiB byte-addressed memory. Heap allocation is a
//! host-side service reached by `trap` (like SunOS system calls); allocator
//! metadata never touches simulated memory, matching the paper's exclusion
//! of library/system writes from the trace.
//!
//! # Examples
//!
//! ```
//! use databp_machine::{Machine, Program, asm, StopReason, NoHooks};
//!
//! // r2 = 40 + 2, then halt.
//! let prog = Program::from_asm(&[
//!     asm::addi(2, 0, 40),
//!     asm::addi(2, 2, 2),
//!     asm::halt(),
//! ]);
//! let mut m = Machine::new();
//! m.load(&prog);
//! let stop = m.run(&mut NoHooks, 1_000).unwrap();
//! assert_eq!(stop, StopReason::Halted);
//! assert_eq!(m.cpu().reg(2), 42);
//! ```

mod cost;
mod cpu;
mod error;
mod heap;
mod isa;
mod layout;
mod machine;
mod mem;
mod mmu;
mod watch;

pub mod asm;
pub mod disasm;

pub use cost::{CostModel, Cycles, InstrClass};
pub use cpu::{reg, Cpu};
pub use error::MachineError;
pub use heap::{HeapAlloc, HeapStats};
pub use isa::{decode, encode, Instr, MarkKind, Reg, SYS_TRAP_MAX, TP_TRAP_BASE};
pub use layout::{CODE_BASE, DATA_BASE, HEAP_BASE, HEAP_END, MEM_SIZE, STACK_LIMIT, STACK_TOP};
pub use machine::{
    Fault, Hooks, Machine, NoHooks, Program, StopConfig, StopReason, StoreEvent, Syscall,
};
pub use mem::Memory;
pub use mmu::{Mmu, PageSize};
pub use watch::{WatchRegs, DEFAULT_WATCH_REGS};
