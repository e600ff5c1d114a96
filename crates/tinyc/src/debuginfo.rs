//! Debug information emitted alongside generated code.
//!
//! This is the compiler's half of the paper's instrumentation contract:
//! the tracer needs frame layouts and global placements to turn function
//! boundaries into monitor install/remove events, and the session
//! enumerator needs the symbol inventory to generate every
//! `OneLocalAuto` / `AllLocalInFunc` / `OneGlobalStatic` candidate.

use databp_trace::{FrameMap, FrameVar, GlobalSpec};

/// Address-region bit: the store target may be in the stack segment.
pub const REGION_STACK: u8 = 1;
/// Address-region bit: the store target may be in the data segment
/// (file-scope globals, function statics, string literals).
pub const REGION_GLOBAL: u8 = 2;
/// Address-region bit: the store target may be in the heap segment.
pub const REGION_HEAP: u8 = 4;
/// All regions — the top of the write-safety lattice ("could be
/// anywhere").
pub const REGION_ALL: u8 = REGION_STACK | REGION_GLOBAL | REGION_HEAP;
/// No regions — the address is not derived from any tracked object base
/// (constants, comparison results). Distinct from [`REGION_ALL`]: a
/// forged address proves nothing, so such sites are never elided either.
pub const REGION_NONE: u8 = 0;

/// A summary of where one value — a store's address, or a value flowing
/// into a named scalar — came from, derived by the SSA pass
/// ([`crate::ssa`]) from reaching definitions. It records the origin
/// without judging it; the `databp-analysis` crate resolves the
/// dependencies against its points-to masks to classify the site.
///
/// A summary is the (term-wise) union over its `+`/`-` terms: direct
/// bases contribute region bits, loads of named scalars contribute
/// dependencies, and anything untrackable sets [`AddrDesc::opaque`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AddrDesc {
    /// Regions the address is *directly* derived from: `&local` sets
    /// [`REGION_STACK`], `&global` sets [`REGION_GLOBAL`], a direct
    /// `malloc`/`realloc` result sets [`REGION_HEAP`].
    pub direct: u8,
    /// Locals of the owning function whose loaded value feeds the
    /// address (`*p`, `p[i]` contribute `p` — and `i`, whose mask is
    /// empty for plain integers).
    pub local_deps: Vec<u16>,
    /// Globals whose loaded value feeds the address.
    pub global_deps: Vec<u32>,
    /// Functions whose return value feeds the address.
    pub call_deps: Vec<u16>,
    /// True when some contribution cannot be tracked (a load through a
    /// computed address, a builtin with no meaningful value). Opaque
    /// sites classify as "may hit" under every plan.
    pub opaque: bool,
}

/// One traced store instruction, in emission (= pc-ascending) order.
/// Plain, CodePatch, and nop-padded builds of the same program emit the
/// same sites in the same order (only the pcs differ), which is what lets
/// the harness map plain-build trace pcs to CodePatch-build check pcs by
/// index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSiteInfo {
    /// Byte pc of the store instruction itself.
    pub pc: u32,
    /// Byte pc of the preceding `chk` (CodePatch builds only).
    pub chk_pc: Option<u32>,
    /// Owning function id.
    pub func: u16,
    /// Store width in bytes (1 for `sb`, 4 for `sw`) — the mask applied
    /// to the written value, which predicate deadness must mirror.
    pub len: u32,
}

/// One local automatic variable (parameters included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalInfo {
    /// Source name.
    pub name: String,
    /// Variable index within the function (stable across runs).
    pub var: u16,
    /// Frame-pointer-relative byte offset of the variable base.
    pub offset: i32,
    /// Size in bytes.
    pub size: u32,
    /// True for parameters.
    pub is_param: bool,
}

/// One function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncInfo {
    /// Source name.
    pub name: String,
    /// Entry address (byte pc).
    pub entry_pc: u32,
    /// Number of parameters.
    pub params: u16,
    /// Local automatic variables, parameters first.
    pub locals: Vec<LocalInfo>,
}

/// One global, function-static, or string literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalInfo {
    /// Source name (statics are `func::name`, literals `@strN`).
    pub name: String,
    /// Global id (index).
    pub id: u32,
    /// Beginning address.
    pub ba: u32,
    /// Ending address (exclusive).
    pub ea: u32,
    /// Owning function for `static` locals.
    pub owner: Option<u16>,
    /// True for string-literal storage.
    pub is_literal: bool,
}

/// One preheader check group as emitted: one record per (loop, store
/// target), for Section 9 and SSA groups alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopOptInfo {
    /// Byte pc of the preliminary check in the loop preheader.
    pub preheader_pc: u32,
    /// Byte pcs of the body checks covered by the preliminary check.
    pub body_pcs: Vec<u32>,
    /// Whether a monitor install re-arms the group: `false` for the
    /// Section 9 groups of `Options::codepatch_loopopt` builds, `true`
    /// for the SSA groups of `Options::codepatch_ssa` builds, whose
    /// pointer targets a mid-loop install could make hittable.
    pub rearm: bool,
}

/// Everything the tracer, session enumerator, and WMS strategies need to
/// know about a compiled program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DebugInfo {
    /// Functions; index is the function id.
    pub functions: Vec<FuncInfo>,
    /// Globals; index is the global id.
    pub globals: Vec<GlobalInfo>,
    /// Byte pcs of *implicit* stores (prologue saves, temporary spills)
    /// that must not appear in the trace and are not patched/checked by
    /// the WMS strategies, matching the paper's exclusion of register
    /// spilling. Sorted ascending.
    pub untraced_store_pcs: Vec<u32>,
    /// Byte pcs of `nop` pads preceding traced stores (only when
    /// compiled with `nop_padding`); a dynamic code patcher overwrites
    /// these with checks at run time.
    pub pad_pcs: Vec<u32>,
    /// Hoisted check groups: one preheader `chk` dominating — and
    /// licensing the run-time skip of — each listed body check. Only
    /// `Options::codepatch_loopopt` builds (Section 9: named scalar
    /// targets) and `Options::codepatch_ssa` builds (also stores through
    /// loop-invariant promotable pointers) carry any.
    pub hoists: Vec<LoopOptInfo>,
    /// Data segment size in bytes.
    pub data_size: u32,
    /// Static count of traced write instructions (the paper's CodePatch
    /// space-expansion numerator).
    pub traced_store_count: u32,
    /// Every traced store site in emission order (pc ascending). The
    /// SSA pass enumerates the same sites in the same order, which is
    /// how `databp-analysis` attaches its per-site facts.
    pub store_sites: Vec<StoreSiteInfo>,
}

impl DebugInfo {
    /// True if the store at byte address `pc` is an implicit (untraced)
    /// store.
    pub fn is_untraced_store(&self, pc: u32) -> bool {
        self.untraced_store_pcs.binary_search(&pc).is_ok()
    }

    /// Builds the tracer's [`FrameMap`] view.
    pub fn frame_map(&self) -> FrameMap {
        FrameMap {
            funcs: self
                .functions
                .iter()
                .map(|f| {
                    f.locals
                        .iter()
                        .map(|l| FrameVar {
                            var: l.var,
                            offset: l.offset,
                            size: l.size,
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// Builds the tracer's [`GlobalSpec`] table. String literals are
    /// excluded: they are read-only and never monitor-session candidates.
    pub fn global_specs(&self) -> Vec<GlobalSpec> {
        self.globals
            .iter()
            .filter(|g| !g.is_literal)
            .map(|g| GlobalSpec {
                id: g.id,
                ba: g.ba,
                ea: g.ea,
            })
            .collect()
    }

    /// Looks up a function id by name (example/test convenience).
    pub fn func_id(&self, name: &str) -> Option<u16> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u16)
    }

    /// Looks up a non-literal global by name.
    pub fn global(&self, name: &str) -> Option<&GlobalInfo> {
        self.globals
            .iter()
            .find(|g| g.name == name && !g.is_literal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DebugInfo {
        DebugInfo {
            functions: vec![FuncInfo {
                name: "main".into(),
                entry_pc: 0x10000,
                params: 0,
                locals: vec![LocalInfo {
                    name: "x".into(),
                    var: 0,
                    offset: -12,
                    size: 4,
                    is_param: false,
                }],
            }],
            globals: vec![
                GlobalInfo {
                    name: "g".into(),
                    id: 0,
                    ba: 0x100000,
                    ea: 0x100004,
                    owner: None,
                    is_literal: false,
                },
                GlobalInfo {
                    name: "@str0".into(),
                    id: 1,
                    ba: 0x100004,
                    ea: 0x100007,
                    owner: None,
                    is_literal: true,
                },
            ],
            untraced_store_pcs: vec![0x10004, 0x10008],
            pad_pcs: vec![],
            hoists: vec![],
            data_size: 8,
            traced_store_count: 3,
            store_sites: vec![],
        }
    }

    #[test]
    fn untraced_lookup() {
        let d = sample();
        assert!(d.is_untraced_store(0x10004));
        assert!(!d.is_untraced_store(0x1000c));
    }

    #[test]
    fn frame_map_mirrors_locals() {
        let fm = sample().frame_map();
        assert_eq!(fm.vars(0).len(), 1);
        assert_eq!(fm.vars(0)[0].offset, -12);
        assert!(fm.vars(9).is_empty());
    }

    #[test]
    fn global_specs_exclude_literals() {
        let gs = sample().global_specs();
        assert_eq!(gs.len(), 1);
        assert_eq!(gs[0].id, 0);
    }

    #[test]
    fn name_lookups() {
        let d = sample();
        assert_eq!(d.func_id("main"), Some(0));
        assert_eq!(d.func_id("nope"), None);
        assert!(d.global("g").is_some());
        assert!(d.global("@str0").is_none());
    }
}
