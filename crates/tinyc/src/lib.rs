//! `tinyc` — a small C-subset compiler targeting the `spar` machine.
//!
//! The paper's phase 1 compiles five C programs with GCC 1.4 (`-g`, no
//! variables in registers) and post-processes the assembly to emit a
//! program event trace. Our substitute workloads are written in this
//! dialect and compiled here. Design choices deliberately mirror the
//! paper's setup:
//!
//! * **Named variables live in memory, never in registers** — every read
//!   and write of a declared variable is a real load/store, so data
//!   breakpoints see them (only expression temporaries use registers).
//! * **Function boundaries are marked** (`enter`/`exit` pseudo-ops) so the
//!   tracer can install/remove monitors for local automatics per
//!   instantiation.
//! * **Implicit writes are distinguishable**: prologue/epilogue register
//!   saves and expression-temporary spills are recorded in
//!   [`DebugInfo::untraced_store_pcs`], matching the paper's "implicit
//!   writes (e.g., register spilling) do not appear in the trace".
//! * **CodePatch instrumentation is a build kind**
//!   ([`Options::codepatch`]): a `chk` precedes every traced store. The
//!   loop-invariant preliminary-check optimization sketched in the
//!   paper's Section 9 is the [`Options::codepatch_loopopt`] build, and
//!   [`Options::codepatch_ssa`] extends it to pointer targets; the
//!   [`ssa`] pass plans the preheader checks of both.
//!
//! The supported language: `int`, `char`, pointers, fixed arrays, named
//! structs, `static` function-locals, the usual statements
//! (`if`/`while`/`for`/`return`/`break`/`continue`), short-circuit
//! logicals, casts, `sizeof`, string literals, and builtins `malloc`,
//! `free`, `realloc`, `print_int`, `print_char`, `print_str`, `arg`,
//! `exit`.
//!
//! # Examples
//!
//! ```
//! use databp_tinyc::{compile, Options};
//! use databp_machine::{Machine, NoHooks};
//!
//! let src = r#"
//!     int main() { print_int(6 * 7); return 0; }
//! "#;
//! let compiled = compile(src, &Options::default()).expect("compiles");
//! let mut m = Machine::new();
//! m.load(&compiled.program);
//! m.run(&mut NoHooks, 1_000_000).unwrap();
//! assert_eq!(m.output(), b"42\n");
//! ```

mod ast;
mod codegen;
mod debuginfo;
mod error;
mod hir;
mod interp;
mod lexer;
mod parser;
mod sema;
pub mod ssa;
mod types;

pub use codegen::Options;
pub use debuginfo::{
    AddrDesc, DebugInfo, FuncInfo, GlobalInfo, LocalInfo, LoopOptInfo, StoreSiteInfo, REGION_ALL,
    REGION_GLOBAL, REGION_HEAP, REGION_NONE, REGION_STACK,
};
pub use error::CompileError;
pub use hir::{BinOp, Builtin, Expr, ExprKind, FuncDef, GlobalDef, Hir, LocalDef, Stmt, UnOp};
pub use interp::{interpret, interpret_observed, InterpObserver, InterpResult, NoObserver};
pub use types::Type;

use databp_machine::Program;

/// A compiled program: the machine image plus the debug information the
/// tracer and session enumerator need.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Loadable machine program.
    pub program: Program,
    /// Symbol/layout information.
    pub debug: DebugInfo,
}

/// Compiles `source` with the given options.
///
/// # Errors
///
/// Returns a [`CompileError`] (with a line number) for lexical, syntactic,
/// or semantic faults.
pub fn compile(source: &str, options: &Options) -> Result<Compiled, CompileError> {
    let _t = databp_telemetry::time!("tinyc.compile");
    databp_telemetry::count!("tinyc.compiles");
    let hir = lower(source)?;
    Ok(codegen::generate(&hir, options))
}

/// Parses and type-checks `source` into [`Hir`] without generating code —
/// the input both to the code generator (via [`compile`]) and to the reference
/// interpreter ([`interpret`]).
///
/// # Errors
///
/// Returns a [`CompileError`] for lexical, syntactic, or semantic faults.
pub fn lower(source: &str) -> Result<Hir, CompileError> {
    let tokens = lexer::lex(source)?;
    let ast = parser::parse(&tokens)?;
    sema::check(&ast)
}
