//! The monitor predicate language.
//!
//! A *predicated* breakpoint fires only when the write satisfies a small
//! boolean expression over the written value, the overwritten value, the
//! writing function, and the running hit count. Predicates are parsed
//! once into a tiny expression IR ([`Predicate`]), resolved against a
//! program's function table ([`CompiledPredicate`]), and then evaluated
//! by every layer that observes writes — the code-patch check sequence,
//! the virtual-memory fault handler, the replay engine, and the trace
//! query engine — so all of them agree event-for-event.
//!
//! # Grammar
//!
//! ```text
//! pred  := or
//! or    := and ("||" and)*
//! and   := cmp ("&&" cmp)*
//! cmp   := sum (("==" | "!=" | "<=" | ">=" | "<" | ">") sum)?
//! sum   := term (("+" | "-") term)*
//! term  := unary (("*" | "/" | "%") unary)*
//! unary := ("!" | "-") unary | atom
//! atom  := "value" | "old" | "hits" | "true" | "false"
//!        | INT | "(" or ")" | "writer" "in" IDENT
//! ```
//!
//! Integer literals are decimal or `0x` hexadecimal, up to `i64`.
//!
//! # Semantics
//!
//! All arithmetic is wrapping two's-complement `i64`; division and
//! remainder by zero evaluate to `0` (the language is total — a
//! predicate can never fault). Comparisons and the logical operators
//! produce `0` or `1`; any nonzero value is truthy. `value` and `old`
//! are the store's written/overwritten bytes masked to the store width:
//! word stores present the full 32-bit pattern zero-extended (so
//! `0xffff_ffff` compares as `4294967295`, not `-1`), byte stores
//! present `0..=255`. `hits` is the number of *candidate* writes — writes
//! that overlapped a live monitor of the session — observed so far,
//! counting the current one, *before* predicate filtering. `writer in f`
//! is true when the store instruction lies in function `f` (a static
//! property of the store site, not the dynamic call stack).
#![allow(clippy::type_complexity)]

use std::error::Error;
use std::fmt;

/// Nesting depth (parentheses plus unary operators) beyond which parsing
/// gives up with [`PredicateError::TooDeep`] instead of risking stack
/// overflow on adversarial input.
pub const MAX_PREDICATE_DEPTH: usize = 64;

/// Writer id reported for a pc that lies in no known function.
pub const NO_WRITER: u16 = u16::MAX;

/// Errors from parsing or compiling a predicate. Every malformed input
/// maps to one of these — the parser never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredicateError {
    /// The source was empty (or all whitespace).
    Empty,
    /// A character that starts no token, e.g. a lone `&` or `@`.
    UnexpectedChar {
        /// Byte offset in the source.
        pos: usize,
        /// The offending character.
        ch: char,
    },
    /// A well-formed token in a position where it cannot appear.
    UnexpectedToken {
        /// Byte offset in the source.
        pos: usize,
        /// The token text.
        found: String,
        /// What the parser was looking for.
        expected: &'static str,
    },
    /// The source ended mid-expression.
    UnexpectedEnd {
        /// What the parser was looking for.
        expected: &'static str,
    },
    /// An identifier that is not `value`, `old`, `hits`, `true`,
    /// `false`, or the `writer in f` form.
    UnknownIdent {
        /// Byte offset in the source.
        pos: usize,
        /// The identifier.
        name: String,
    },
    /// An integer literal that does not fit in `i64`.
    LiteralOverflow {
        /// Byte offset in the source.
        pos: usize,
        /// The literal text.
        text: String,
    },
    /// Nesting exceeded [`MAX_PREDICATE_DEPTH`].
    TooDeep,
    /// A complete expression followed by more tokens.
    TrailingInput {
        /// Byte offset of the first extra token.
        pos: usize,
        /// The extra token's text.
        found: String,
    },
    /// `writer in f` named a function the program does not define
    /// (raised at compile time, when names are resolved).
    UnknownFunction {
        /// The unresolved function name.
        name: String,
    },
}

impl fmt::Display for PredicateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredicateError::Empty => write!(f, "empty predicate"),
            PredicateError::UnexpectedChar { pos, ch } => {
                write!(f, "unexpected character {ch:?} at offset {pos}")
            }
            PredicateError::UnexpectedToken {
                pos,
                found,
                expected,
            } => write!(f, "expected {expected}, found `{found}` at offset {pos}"),
            PredicateError::UnexpectedEnd { expected } => {
                write!(f, "expected {expected}, found end of predicate")
            }
            PredicateError::UnknownIdent { pos, name } => write!(
                f,
                "unknown identifier `{name}` at offset {pos} \
                 (predicates know `value`, `old`, `hits`, and `writer in f`)"
            ),
            PredicateError::LiteralOverflow { pos, text } => {
                write!(f, "integer literal `{text}` at offset {pos} overflows i64")
            }
            PredicateError::TooDeep => write!(
                f,
                "predicate nesting exceeds the limit of {MAX_PREDICATE_DEPTH}"
            ),
            PredicateError::TrailingInput { pos, found } => {
                write!(f, "trailing input `{found}` at offset {pos}")
            }
            PredicateError::UnknownFunction { name } => {
                write!(
                    f,
                    "`writer in {name}`: program defines no function `{name}`"
                )
            }
        }
    }
}

impl Error for PredicateError {}

/// Binary operators of the predicate IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// The expression IR, generic over how `writer in f` names the function:
/// `String` before resolution ([`Predicate`]), `u16` after
/// ([`CompiledPredicate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Expr<W> {
    Value,
    Old,
    Hits,
    Lit(i64),
    WriterIn(W),
    Not(Box<Expr<W>>),
    Neg(Box<Expr<W>>),
    Bin(BinOp, Box<Expr<W>>, Box<Expr<W>>),
}

impl<W> Expr<W> {
    fn map_writer<V, E>(self, f: &mut impl FnMut(W) -> Result<V, E>) -> Result<Expr<V>, E> {
        Ok(match self {
            Expr::Value => Expr::Value,
            Expr::Old => Expr::Old,
            Expr::Hits => Expr::Hits,
            Expr::Lit(n) => Expr::Lit(n),
            Expr::WriterIn(w) => Expr::WriterIn(f(w)?),
            Expr::Not(e) => Expr::Not(Box::new(e.map_writer(f)?)),
            Expr::Neg(e) => Expr::Neg(Box::new(e.map_writer(f)?)),
            Expr::Bin(op, l, r) => {
                Expr::Bin(op, Box::new(l.map_writer(f)?), Box::new(r.map_writer(f)?))
            }
        })
    }

    fn uses_hits(&self) -> bool {
        match self {
            Expr::Hits => true,
            Expr::Value | Expr::Old | Expr::Lit(_) | Expr::WriterIn(_) => false,
            Expr::Not(e) | Expr::Neg(e) => e.uses_hits(),
            Expr::Bin(_, l, r) => l.uses_hits() || r.uses_hits(),
        }
    }
}

fn truthy(v: i64) -> i64 {
    i64::from(v != 0)
}

impl Expr<u16> {
    /// Concrete evaluation: total, deterministic, wrapping `i64`.
    fn eval(&self, value: i64, old: i64, hits: i64, writer: u16) -> i64 {
        match self {
            Expr::Value => value,
            Expr::Old => old,
            Expr::Hits => hits,
            Expr::Lit(n) => *n,
            Expr::WriterIn(f) => i64::from(writer == *f),
            Expr::Not(e) => i64::from(e.eval(value, old, hits, writer) == 0),
            Expr::Neg(e) => e.eval(value, old, hits, writer).wrapping_neg(),
            Expr::Bin(op, l, r) => {
                let a = l.eval(value, old, hits, writer);
                // && and || keep C short-circuit semantics (observable
                // only through hit-free subexpressions, but cheap).
                match op {
                    BinOp::And => {
                        return if a == 0 {
                            0
                        } else {
                            truthy(r.eval(value, old, hits, writer))
                        }
                    }
                    BinOp::Or => {
                        return if a != 0 {
                            1
                        } else {
                            truthy(r.eval(value, old, hits, writer))
                        }
                    }
                    _ => {}
                }
                let b = r.eval(value, old, hits, writer);
                match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                    BinOp::Eq => i64::from(a == b),
                    BinOp::Ne => i64::from(a != b),
                    BinOp::Lt => i64::from(a < b),
                    BinOp::Le => i64::from(a <= b),
                    BinOp::Gt => i64::from(a > b),
                    BinOp::Ge => i64::from(a >= b),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Interval abstract evaluation (block-level refutation)
// ---------------------------------------------------------------------

/// An inclusive `i64` interval — the abstract domain block-level
/// refutation evaluates predicates in. `TOP` is the full range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Iv {
    lo: i64,
    hi: i64,
}

const TOP: Iv = Iv {
    lo: i64::MIN,
    hi: i64::MAX,
};

impl Iv {
    fn point(v: i64) -> Iv {
        Iv { lo: v, hi: v }
    }

    fn bool_any() -> Iv {
        Iv { lo: 0, hi: 1 }
    }

    fn contains_zero(self) -> bool {
        self.lo <= 0 && 0 <= self.hi
    }

    fn is_zero(self) -> bool {
        self == Iv::point(0)
    }

    fn singleton(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Tri-state boolean as an interval: definitely-false `[0,0]`,
    /// definitely-true `[1,1]`, unknown `[0,1]`.
    fn tri(t: Option<bool>) -> Iv {
        match t {
            Some(true) => Iv::point(1),
            Some(false) => Iv::point(0),
            None => Iv::bool_any(),
        }
    }

    /// The exact (wrapping) result of `f` when both operands are
    /// singletons, as the total concrete arithmetic computes it.
    fn exact(self, b: Iv, f: fn(i64, i64) -> i64) -> Option<Iv> {
        Some(Iv::point(f(self.singleton()?, b.singleton()?)))
    }

    fn add(self, b: Iv) -> Iv {
        if let Some(p) = self.exact(b, i64::wrapping_add) {
            return p;
        }
        match (self.lo.checked_add(b.lo), self.hi.checked_add(b.hi)) {
            (Some(lo), Some(hi)) => Iv { lo, hi },
            _ => TOP,
        }
    }

    fn sub(self, b: Iv) -> Iv {
        if let Some(p) = self.exact(b, i64::wrapping_sub) {
            return p;
        }
        match (self.lo.checked_sub(b.hi), self.hi.checked_sub(b.lo)) {
            (Some(lo), Some(hi)) => Iv { lo, hi },
            _ => TOP,
        }
    }

    fn mul(self, b: Iv) -> Iv {
        if let Some(p) = self.exact(b, i64::wrapping_mul) {
            return p;
        }
        // A product over a box attains its extremes at the corners; if
        // every corner is representable, so is every interior product.
        let corners = [
            self.lo.checked_mul(b.lo),
            self.lo.checked_mul(b.hi),
            self.hi.checked_mul(b.lo),
            self.hi.checked_mul(b.hi),
        ];
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for c in corners {
            match c {
                Some(v) => {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                None => return TOP,
            }
        }
        Iv { lo, hi }
    }

    fn div(self, b: Iv) -> Iv {
        // Exact only on singletons (matching the total `/`: b == 0 → 0);
        // anything wider is conservatively TOP.
        match (self.singleton(), b.singleton()) {
            (Some(_), Some(0)) => Iv::point(0),
            (Some(a), Some(b)) => Iv::point(a.wrapping_div(b)),
            _ => TOP,
        }
    }

    fn rem(self, b: Iv) -> Iv {
        match (self.singleton(), b.singleton()) {
            (Some(_), Some(0)) => Iv::point(0),
            (Some(a), Some(b)) => Iv::point(a.wrapping_rem(b)),
            _ if self.lo >= 0 && b.lo >= 1 => Iv {
                lo: 0,
                hi: b.hi - 1,
            },
            _ => TOP,
        }
    }

    fn neg(self) -> Iv {
        if let Some(v) = self.singleton() {
            return Iv::point(v.wrapping_neg());
        }
        match (self.hi.checked_neg(), self.lo.checked_neg()) {
            (Some(lo), Some(hi)) => Iv { lo, hi },
            _ => TOP,
        }
    }

    fn lt(self, b: Iv) -> Iv {
        if self.hi < b.lo {
            Iv::point(1)
        } else if self.lo >= b.hi {
            Iv::point(0)
        } else {
            Iv::bool_any()
        }
    }

    fn le(self, b: Iv) -> Iv {
        if self.hi <= b.lo {
            Iv::point(1)
        } else if self.lo > b.hi {
            Iv::point(0)
        } else {
            Iv::bool_any()
        }
    }

    fn eq(self, b: Iv) -> Iv {
        if self.hi < b.lo || b.hi < self.lo {
            Iv::point(0)
        } else if let (Some(a), Some(b)) = (self.singleton(), b.singleton()) {
            Iv::point(i64::from(a == b))
        } else {
            Iv::bool_any()
        }
    }

    fn not(self) -> Iv {
        if self.is_zero() {
            Iv::point(1)
        } else if !self.contains_zero() {
            Iv::point(0)
        } else {
            Iv::bool_any()
        }
    }
}

/// Per-block write ranges a predicate is refuted against: inclusive
/// min/max of the written value, the overwritten value, and the `hits`
/// counter values the block's writes will observe. A query engine
/// derives `hits` from cumulative per-block write counts (zone maps),
/// so skipped blocks still advance the counter exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSpan {
    /// Inclusive `(min, max)` of written values in the block.
    pub value: (u32, u32),
    /// Inclusive `(min, max)` of overwritten values in the block.
    pub old: (u32, u32),
    /// Inclusive `(min, max)` of the 1-based `hits` ordinal across the
    /// block's writes.
    pub hits: (u64, u64),
}

impl Expr<u16> {
    /// Interval abstract evaluation: returns an interval guaranteed to
    /// contain [`Expr::eval`]'s result for every concrete
    /// `(value, old, hits, writer)` consistent with `span` and
    /// `writer_in` — the soundness invariant block skipping rests on.
    fn range_eval(&self, span: &WriteSpan, writer_in: &mut dyn FnMut(u16) -> Option<bool>) -> Iv {
        match self {
            Expr::Value => Iv {
                lo: i64::from(span.value.0),
                hi: i64::from(span.value.1),
            },
            Expr::Old => Iv {
                lo: i64::from(span.old.0),
                hi: i64::from(span.old.1),
            },
            // Concrete eval clamps hits to i64::MAX, so saturating here
            // matches it exactly.
            Expr::Hits => Iv {
                lo: i64::try_from(span.hits.0).unwrap_or(i64::MAX),
                hi: i64::try_from(span.hits.1).unwrap_or(i64::MAX),
            },
            Expr::Lit(n) => Iv::point(*n),
            Expr::WriterIn(f) => Iv::tri(writer_in(*f)),
            Expr::Not(e) => e.range_eval(span, writer_in).not(),
            Expr::Neg(e) => e.range_eval(span, writer_in).neg(),
            Expr::Bin(op, l, r) => {
                let a = l.range_eval(span, writer_in);
                let b = r.range_eval(span, writer_in);
                match op {
                    BinOp::Add => a.add(b),
                    BinOp::Sub => a.sub(b),
                    BinOp::Mul => a.mul(b),
                    BinOp::Div => a.div(b),
                    BinOp::Rem => a.rem(b),
                    BinOp::Eq => a.eq(b),
                    BinOp::Ne => a.eq(b).not(),
                    BinOp::Lt => a.lt(b),
                    BinOp::Le => a.le(b),
                    BinOp::Gt => b.lt(a),
                    BinOp::Ge => b.le(a),
                    // Concrete `&&`/`||` return 0 or 1 with
                    // short-circuit; the abstraction only needs
                    // zero-membership of each side.
                    BinOp::And => {
                        if a.is_zero() || b.is_zero() {
                            Iv::point(0)
                        } else if !a.contains_zero() && !b.contains_zero() {
                            Iv::point(1)
                        } else {
                            Iv::bool_any()
                        }
                    }
                    BinOp::Or => {
                        if !a.contains_zero() || !b.contains_zero() {
                            Iv::point(1)
                        } else if a.is_zero() && b.is_zero() {
                            Iv::point(0)
                        } else {
                            Iv::bool_any()
                        }
                    }
                }
            }
        }
    }

    fn uses_value(&self) -> bool {
        match self {
            Expr::Value => true,
            Expr::Old | Expr::Hits | Expr::Lit(_) | Expr::WriterIn(_) => false,
            Expr::Not(e) | Expr::Neg(e) => e.uses_value(),
            Expr::Bin(_, l, r) => l.uses_value() || r.uses_value(),
        }
    }

    fn uses_old(&self) -> bool {
        match self {
            Expr::Old => true,
            Expr::Value | Expr::Hits | Expr::Lit(_) | Expr::WriterIn(_) => false,
            Expr::Not(e) | Expr::Neg(e) => e.uses_old(),
            Expr::Bin(_, l, r) => l.uses_old() || r.uses_old(),
        }
    }

    fn uses_writer(&self) -> bool {
        match self {
            Expr::WriterIn(_) => true,
            Expr::Value | Expr::Old | Expr::Hits | Expr::Lit(_) => false,
            Expr::Not(e) | Expr::Neg(e) => e.uses_writer(),
            Expr::Bin(_, l, r) => l.uses_writer() || r.uses_writer(),
        }
    }
}

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    LParen,
    RParen,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Bang,
    AndAnd,
    OrOr,
    EqEq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Tok {
    fn text(&self) -> String {
        match self {
            Tok::Ident(s) => s.clone(),
            Tok::Int(n) => n.to_string(),
            Tok::LParen => "(".into(),
            Tok::RParen => ")".into(),
            Tok::Plus => "+".into(),
            Tok::Minus => "-".into(),
            Tok::Star => "*".into(),
            Tok::Slash => "/".into(),
            Tok::Percent => "%".into(),
            Tok::Bang => "!".into(),
            Tok::AndAnd => "&&".into(),
            Tok::OrOr => "||".into(),
            Tok::EqEq => "==".into(),
            Tok::Ne => "!=".into(),
            Tok::Lt => "<".into(),
            Tok::Le => "<=".into(),
            Tok::Gt => ">".into(),
            Tok::Ge => ">=".into(),
        }
    }
}

fn tokenize(src: &str) -> Result<Vec<(Tok, usize)>, PredicateError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                toks.push((Tok::LParen, i));
                i += 1;
            }
            ')' => {
                toks.push((Tok::RParen, i));
                i += 1;
            }
            '+' => {
                toks.push((Tok::Plus, i));
                i += 1;
            }
            '-' => {
                toks.push((Tok::Minus, i));
                i += 1;
            }
            '*' => {
                toks.push((Tok::Star, i));
                i += 1;
            }
            '/' => {
                toks.push((Tok::Slash, i));
                i += 1;
            }
            '%' => {
                toks.push((Tok::Percent, i));
                i += 1;
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    toks.push((Tok::AndAnd, i));
                    i += 2;
                } else {
                    return Err(PredicateError::UnexpectedChar { pos: i, ch: '&' });
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    toks.push((Tok::OrOr, i));
                    i += 2;
                } else {
                    return Err(PredicateError::UnexpectedChar { pos: i, ch: '|' });
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::EqEq, i));
                    i += 2;
                } else {
                    return Err(PredicateError::UnexpectedChar { pos: i, ch: '=' });
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::Ne, i));
                    i += 2;
                } else {
                    toks.push((Tok::Bang, i));
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::Le, i));
                    i += 2;
                } else {
                    toks.push((Tok::Lt, i));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::Ge, i));
                    i += 2;
                } else {
                    toks.push((Tok::Gt, i));
                    i += 1;
                }
            }
            '0'..='9' => {
                let start = i;
                let (radix, digits_start) =
                    if c == '0' && matches!(bytes.get(i + 1), Some(b'x') | Some(b'X')) {
                        (16, i + 2)
                    } else {
                        (10, i)
                    };
                i = digits_start;
                let mut n: i64 = 0;
                let mut any = false;
                while i < bytes.len() {
                    let d = match (bytes[i] as char).to_digit(radix) {
                        Some(d) => d,
                        None => break,
                    };
                    any = true;
                    n = n
                        .checked_mul(radix as i64)
                        .and_then(|n| n.checked_add(d as i64))
                        .ok_or_else(|| {
                            // Consume the rest of the literal for the
                            // error message.
                            let mut j = i;
                            while j < bytes.len() && (bytes[j] as char).is_digit(radix) {
                                j += 1;
                            }
                            PredicateError::LiteralOverflow {
                                pos: start,
                                text: src[start..j].to_string(),
                            }
                        })?;
                    i += 1;
                }
                if !any {
                    return Err(PredicateError::UnexpectedChar {
                        pos: digits_start.min(bytes.len().saturating_sub(1)),
                        ch: bytes.get(digits_start).map_or('x', |&b| b as char),
                    });
                }
                toks.push((Tok::Int(n), start));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i] as char, 'a'..='z' | 'A'..='Z' | '0'..='9' | '_')
                {
                    i += 1;
                }
                toks.push((Tok::Ident(src[start..i].to_string()), start));
            }
            _ => return Err(PredicateError::UnexpectedChar { pos: i, ch: c }),
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    toks: &'a [(Tok, usize)],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self, expected: &'static str) -> Result<(Tok, usize), PredicateError> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or(PredicateError::UnexpectedEnd { expected })?;
        self.pos += 1;
        Ok(t)
    }

    fn or(&mut self, depth: usize) -> Result<Expr<String>, PredicateError> {
        let mut e = self.and(depth)?;
        while self.peek() == Some(&Tok::OrOr) {
            self.pos += 1;
            let r = self.and(depth)?;
            e = Expr::Bin(BinOp::Or, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn and(&mut self, depth: usize) -> Result<Expr<String>, PredicateError> {
        let mut e = self.cmp(depth)?;
        while self.peek() == Some(&Tok::AndAnd) {
            self.pos += 1;
            let r = self.cmp(depth)?;
            e = Expr::Bin(BinOp::And, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn cmp(&mut self, depth: usize) -> Result<Expr<String>, PredicateError> {
        let l = self.sum(depth)?;
        let op = match self.peek() {
            Some(Tok::EqEq) => BinOp::Eq,
            Some(Tok::Ne) => BinOp::Ne,
            Some(Tok::Lt) => BinOp::Lt,
            Some(Tok::Le) => BinOp::Le,
            Some(Tok::Gt) => BinOp::Gt,
            Some(Tok::Ge) => BinOp::Ge,
            _ => return Ok(l),
        };
        self.pos += 1;
        let r = self.sum(depth)?;
        // Comparison does not chain: `1 < value < 3` errors at the
        // second `<` rather than silently comparing a boolean.
        Ok(Expr::Bin(op, Box::new(l), Box::new(r)))
    }

    fn sum(&mut self, depth: usize) -> Result<Expr<String>, PredicateError> {
        let mut e = self.term(depth)?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => return Ok(e),
            };
            self.pos += 1;
            let r = self.term(depth)?;
            e = Expr::Bin(op, Box::new(e), Box::new(r));
        }
    }

    fn term(&mut self, depth: usize) -> Result<Expr<String>, PredicateError> {
        let mut e = self.unary(depth)?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Rem,
                _ => return Ok(e),
            };
            self.pos += 1;
            let r = self.unary(depth)?;
            e = Expr::Bin(op, Box::new(e), Box::new(r));
        }
    }

    fn unary(&mut self, depth: usize) -> Result<Expr<String>, PredicateError> {
        if depth >= MAX_PREDICATE_DEPTH {
            return Err(PredicateError::TooDeep);
        }
        match self.peek() {
            Some(Tok::Bang) => {
                self.pos += 1;
                Ok(Expr::Not(Box::new(self.unary(depth + 1)?)))
            }
            Some(Tok::Minus) => {
                self.pos += 1;
                Ok(Expr::Neg(Box::new(self.unary(depth + 1)?)))
            }
            _ => self.atom(depth),
        }
    }

    fn atom(&mut self, depth: usize) -> Result<Expr<String>, PredicateError> {
        let (tok, pos) = self.next("a value, literal, or `(`")?;
        match tok {
            Tok::Int(n) => Ok(Expr::Lit(n)),
            Tok::LParen => {
                if depth >= MAX_PREDICATE_DEPTH {
                    return Err(PredicateError::TooDeep);
                }
                let e = self.or(depth + 1)?;
                match self.next("`)`")? {
                    (Tok::RParen, _) => Ok(e),
                    (t, pos) => Err(PredicateError::UnexpectedToken {
                        pos,
                        found: t.text(),
                        expected: "`)`",
                    }),
                }
            }
            Tok::Ident(name) => match name.as_str() {
                "value" => Ok(Expr::Value),
                "old" => Ok(Expr::Old),
                "hits" => Ok(Expr::Hits),
                "true" => Ok(Expr::Lit(1)),
                "false" => Ok(Expr::Lit(0)),
                "writer" => {
                    match self.next("`in`")? {
                        (Tok::Ident(kw), _) if kw == "in" => {}
                        (t, pos) => {
                            return Err(PredicateError::UnexpectedToken {
                                pos,
                                found: t.text(),
                                expected: "`in`",
                            })
                        }
                    }
                    match self.next("a function name")? {
                        (Tok::Ident(f), _) => Ok(Expr::WriterIn(f)),
                        (t, pos) => Err(PredicateError::UnexpectedToken {
                            pos,
                            found: t.text(),
                            expected: "a function name",
                        }),
                    }
                }
                _ => Err(PredicateError::UnknownIdent { pos, name }),
            },
            t => Err(PredicateError::UnexpectedToken {
                pos,
                found: t.text(),
                expected: "a value, literal, or `(`",
            }),
        }
    }
}

// ---------------------------------------------------------------------
// Public types
// ---------------------------------------------------------------------

/// A parsed predicate. Function names in `writer in f` filters are still
/// symbolic; [`Predicate::compile`] resolves them against a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate {
    src: String,
    root: Expr<String>,
}

impl Predicate {
    /// Parses `src`.
    ///
    /// # Errors
    ///
    /// Any [`PredicateError`] except
    /// [`UnknownFunction`](PredicateError::UnknownFunction) (that one is
    /// a compile-time error). Never panics, for any input.
    pub fn parse(src: &str) -> Result<Predicate, PredicateError> {
        let toks = tokenize(src)?;
        if toks.is_empty() {
            return Err(PredicateError::Empty);
        }
        let mut p = Parser {
            toks: &toks,
            pos: 0,
        };
        let root = p.or(0)?;
        if let Some((t, pos)) = p.toks.get(p.pos) {
            return Err(PredicateError::TrailingInput {
                pos: *pos,
                found: t.text(),
            });
        }
        Ok(Predicate {
            src: src.trim().to_string(),
            root,
        })
    }

    /// The trimmed source text.
    pub fn src(&self) -> &str {
        &self.src
    }

    /// Function names referenced by `writer in f` filters, in source
    /// order (with duplicates).
    pub fn writer_names(&self) -> Vec<&str> {
        fn walk<'a>(e: &'a Expr<String>, out: &mut Vec<&'a str>) {
            match e {
                Expr::WriterIn(f) => out.push(f),
                Expr::Not(e) | Expr::Neg(e) => walk(e, out),
                Expr::Bin(_, l, r) => {
                    walk(l, out);
                    walk(r, out);
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }

    /// Resolves `writer in f` names to function ids via `resolve` (e.g.
    /// `DebugInfo::func_id`).
    ///
    /// # Errors
    ///
    /// [`PredicateError::UnknownFunction`] for a name `resolve` rejects.
    pub fn compile(
        &self,
        mut resolve: impl FnMut(&str) -> Option<u16>,
    ) -> Result<CompiledPredicate, PredicateError> {
        let root = self.root.clone().map_writer(&mut |name: String| {
            resolve(&name).ok_or(PredicateError::UnknownFunction { name })
        })?;
        Ok(CompiledPredicate {
            src: self.src.clone(),
            uses_hits: root.uses_hits(),
            root,
        })
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.src)
    }
}

/// A predicate with `writer in f` filters resolved to function ids —
/// ready to evaluate against observed writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPredicate {
    src: String,
    root: Expr<u16>,
    uses_hits: bool,
}

impl CompiledPredicate {
    /// The trimmed source text.
    pub fn src(&self) -> &str {
        &self.src
    }

    /// True when the predicate reads `hits`. Such predicates are never
    /// statically dead: skipping a site's candidate writes would perturb
    /// the counter every *other* site observes.
    pub fn uses_hits(&self) -> bool {
        self.uses_hits
    }

    /// Evaluates against one candidate write. `value`/`old` are masked
    /// to the store width; `hits` counts candidate writes including this
    /// one; `writer` is the function containing the store ([`NO_WRITER`]
    /// when unknown).
    pub fn eval(&self, value: u32, old: u32, hits: u64, writer: u16) -> bool {
        let hits = i64::try_from(hits).unwrap_or(i64::MAX);
        self.root
            .eval(i64::from(value), i64::from(old), hits, writer)
            != 0
    }

    /// True when the predicate reads `value`.
    pub fn uses_value(&self) -> bool {
        self.root.uses_value()
    }

    /// True when the predicate reads `old`.
    pub fn uses_old(&self) -> bool {
        self.root.uses_old()
    }

    /// True when the predicate has any `writer in f` filter.
    pub fn uses_writer(&self) -> bool {
        self.root.uses_writer()
    }

    /// Decides the predicate over a whole *range* of writes at once —
    /// the block-level pushdown test. `span` bounds the written/old
    /// values and the `hits` ordinals the writes will observe;
    /// `writer_in(f)` answers whether the writes' writer can/must be
    /// `f`: `Some(true)` = every write's writer is `f`, `Some(false)` =
    /// no write's writer is `f`, `None` = mixed or unknown.
    ///
    /// Returns `Some(false)` when **no** write in the span can satisfy
    /// the predicate (the block is refutable and need not be decoded),
    /// `Some(true)` when **every** write must satisfy it, and `None`
    /// when the range is inconclusive. Sound by interval abstraction:
    /// each subexpression evaluates to an interval that contains its
    /// concrete value for every write consistent with the inputs, so a
    /// definite answer here can never disagree with per-event
    /// evaluation.
    pub fn decide_over(
        &self,
        span: &WriteSpan,
        writer_in: &mut dyn FnMut(u16) -> Option<bool>,
    ) -> Option<bool> {
        let iv = self.root.range_eval(span, writer_in);
        if iv.is_zero() {
            Some(false)
        } else if !iv.contains_zero() {
            Some(true)
        } else {
            None
        }
    }

    /// True when the predicate provably evaluates to false for *every*
    /// write a site can perform, given what is statically known:
    /// `value` when the stored value is a compile-time constant (already
    /// masked to the store width), `writer` when the owning function is
    /// known. Conservative — an unknown `value`, and `old`, range over
    /// every `u32`; an unknown writer is any function; and a predicate
    /// that reads `hits` is never statically false (see
    /// [`CompiledPredicate::uses_hits`]).
    pub fn statically_false(&self, value: Option<u32>, writer: Option<u16>) -> bool {
        let span = WriteSpan {
            value: value.map_or((0, u32::MAX), |v| (v, v)),
            old: (0, u32::MAX),
            hits: (1, u64::MAX),
        };
        !self.uses_hits
            && self
                .root
                .range_eval(&span, &mut |f| writer.map(|w| w == f))
                .is_zero()
    }
}

impl fmt::Display for CompiledPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.src)
    }
}

/// Stateful per-session evaluator: owns the `hits` counter so every
/// observer of the same write stream (code-patch checks, the VM fault
/// handler, the replay engine, the query engine) agrees on it.
#[derive(Debug, Clone)]
pub struct PredEval {
    pred: CompiledPredicate,
    hits: u64,
}

impl PredEval {
    /// A fresh evaluator with `hits == 0`.
    pub fn new(pred: CompiledPredicate) -> Self {
        PredEval { pred, hits: 0 }
    }

    /// The predicate being evaluated.
    pub fn predicate(&self) -> &CompiledPredicate {
        &self.pred
    }

    /// Candidate writes observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Observes one candidate write (a write that overlapped a live
    /// monitor of the session) and decides whether the notification
    /// fires. The hit counter increments *before* evaluation, so the
    /// first candidate sees `hits == 1`.
    pub fn observe(&mut self, value: u32, old: u32, writer: u16) -> bool {
        self.hits += 1;
        self.pred.eval(value, old, self.hits, writer)
    }
}

/// Maps a program counter to the function containing it, for
/// `writer in f` filters. Built from `(entry_pc, func_id)` pairs; a pc
/// belongs to the function with the greatest entry at or below it
/// (tinyc lays functions out contiguously), and pcs below every entry
/// report [`NO_WRITER`].
#[derive(Debug, Clone, Default)]
pub struct WriterMap {
    starts: Vec<(u32, u16)>,
}

impl WriterMap {
    /// Builds the map; entries need not be sorted.
    pub fn new(entries: impl IntoIterator<Item = (u32, u16)>) -> Self {
        let mut starts: Vec<(u32, u16)> = entries.into_iter().collect();
        starts.sort_unstable();
        WriterMap { starts }
    }

    /// The map of a compiled program's functions (their entry pcs and
    /// ids).
    pub fn from_debug(debug: &databp_tinyc::DebugInfo) -> Self {
        WriterMap::new(
            debug
                .functions
                .iter()
                .enumerate()
                .map(|(id, f)| (f.entry_pc, id as u16)),
        )
    }

    /// The function containing `pc`, or [`NO_WRITER`].
    pub fn writer_of(&self, pc: u32) -> u16 {
        let idx = self.starts.partition_point(|&(entry, _)| entry <= pc);
        if idx == 0 {
            NO_WRITER
        } else {
            self.starts[idx - 1].1
        }
    }

    /// The sorted `(entry_pc, func_id)` segments: pcs in
    /// `[entry_i, entry_{i+1})` belong to `func_id_i`. Block-level
    /// refutation walks these to bound which functions a pc *range* can
    /// touch.
    pub fn segments(&self) -> &[(u32, u16)] {
        &self.starts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(src: &str) -> CompiledPredicate {
        Predicate::parse(src)
            .unwrap()
            .compile(|name| match name {
                "main" => Some(0),
                "put" => Some(1),
                _ => None,
            })
            .unwrap()
    }

    #[test]
    fn literal_value_comparisons() {
        let p = compiled("value > 10");
        assert!(p.eval(11, 0, 1, 0));
        assert!(!p.eval(10, 0, 1, 0));
        let p = compiled("value == old + 1");
        assert!(p.eval(5, 4, 1, 0));
        assert!(!p.eval(5, 5, 1, 0));
    }

    #[test]
    fn value_is_unsigned_32_bit() {
        let p = compiled("value == 0xffffffff");
        assert!(p.eval(u32::MAX, 0, 1, 0));
        let p = compiled("value > 0");
        assert!(p.eval(u32::MAX, 0, 1, 0), "no sign extension");
    }

    #[test]
    fn hits_conditions() {
        let p = compiled("hits % 3 == 0");
        let fires: Vec<bool> = (1..=7).map(|h| p.eval(0, 0, h, 0)).collect();
        assert_eq!(fires, [false, false, true, false, false, true, false]);
        let p = compiled("hits >= 3");
        assert!(!p.eval(0, 0, 2, 0));
        assert!(p.eval(0, 0, 3, 0));
    }

    #[test]
    fn writer_filters() {
        let p = compiled("writer in put");
        assert!(p.eval(0, 0, 1, 1));
        assert!(!p.eval(0, 0, 1, 0));
        assert!(!p.eval(0, 0, 1, NO_WRITER));
        let p = compiled("!(writer in main) && value != 0");
        assert!(p.eval(7, 0, 1, 1));
        assert!(!p.eval(7, 0, 1, 0));
        assert!(!p.eval(0, 0, 1, 1));
    }

    #[test]
    fn precedence_and_logic() {
        // * binds tighter than +, + tighter than ==, == tighter than &&.
        let p = compiled("value == 2 + 2 * 3 || old == 0");
        assert!(p.eval(8, 1, 1, 0));
        assert!(p.eval(9, 0, 1, 0));
        assert!(!p.eval(9, 1, 1, 0));
        let p = compiled("true && !false");
        assert!(p.eval(0, 0, 1, 0));
    }

    #[test]
    fn total_arithmetic_never_faults() {
        // Division and remainder by zero are 0, not a fault.
        assert!(!compiled("value / old > 0").eval(5, 0, 1, 0));
        assert!(compiled("value % old == 0").eval(5, 0, 1, 0));
        // Wrapping multiply, not overflow panic.
        let p = compiled("value * value * value * value * value >= 0");
        let _ = p.eval(u32::MAX, 0, 1, 0);
    }

    #[test]
    fn unary_minus_and_negative_literals() {
        let p = compiled("value - 5 == -2");
        assert!(p.eval(3, 0, 1, 0));
        assert!(compiled("-(1) == 0 - 1").eval(0, 0, 1, 0));
    }

    #[test]
    fn hits_counter_semantics() {
        let mut ev = PredEval::new(compiled("hits % 2 == 0"));
        // First candidate sees hits == 1.
        assert!(!ev.observe(0, 0, 0));
        assert!(ev.observe(0, 0, 0));
        assert!(!ev.observe(0, 0, 0));
        assert_eq!(ev.hits(), 3);
        // The counter advances even for filtered-out candidates.
        let mut ev = PredEval::new(compiled("value > 100 && hits >= 2"));
        assert!(!ev.observe(200, 0, 0), "hits == 1");
        assert!(ev.observe(200, 0, 0), "hits == 2");
    }

    #[test]
    fn compile_resolves_and_rejects_functions() {
        let p = Predicate::parse("writer in nosuch").unwrap();
        assert_eq!(p.writer_names(), ["nosuch"]);
        assert_eq!(
            p.compile(|_| None),
            Err(PredicateError::UnknownFunction {
                name: "nosuch".into()
            })
        );
    }

    #[test]
    fn static_deadness() {
        let p = compiled("value > 10");
        assert!(p.statically_false(Some(3), None));
        assert!(!p.statically_false(Some(11), None));
        assert!(!p.statically_false(None, None));

        let p = compiled("writer in put");
        assert!(p.statically_false(None, Some(0)));
        assert!(!p.statically_false(None, Some(1)));

        // Logical domination: one known-false conjunct kills the whole
        // predicate even when the other side is unknown.
        let p = compiled("value == 7 && old != 0");
        assert!(p.statically_false(Some(8), None));
        assert!(!p.statically_false(Some(7), None));
        let p = compiled("old != 0 || value == 7");
        assert!(!p.statically_false(Some(8), None), "old side unknown");

        // `old` is never statically known.
        assert!(!compiled("old > 10").statically_false(Some(3), Some(0)));

        // Predicates reading `hits` are never statically dead, even
        // when another conjunct is provably false — skipping the site
        // would perturb the counter other sites observe.
        let p = compiled("value > 10 && hits % 2 == 0");
        assert!(p.uses_hits());
        assert!(!p.statically_false(Some(3), Some(0)));
        assert!(!compiled("false && hits > 0").statically_false(None, None));
        assert!(compiled("false && old > 0").statically_false(None, None));
    }

    #[test]
    fn static_verdicts_table() {
        // (predicate, known value, known writer, statically false?)
        let table: &[(&str, Option<u32>, Option<u16>, bool)] = &[
            ("value > 10", Some(3), None, true),
            ("value > 10", Some(11), None, false),
            ("value > 10", None, Some(0), false),
            // An unknown value or `old` is still a `u32`.
            ("value < 0", None, None, true),
            ("old < 0", None, None, true),
            ("old > 10", Some(3), Some(0), false),
            ("value % 4 > 3", None, None, true),
            ("writer in put", None, Some(0), true),
            ("writer in put", None, Some(1), false),
            ("writer in put", None, None, false),
            ("!(writer in main) && value == 1", Some(1), Some(0), true),
            ("value == 7 && old != 0", Some(8), None, true),
            ("value == 7 && old != 0", Some(7), None, false),
            ("old != 0 || value == 7", Some(8), None, false),
            ("old != 0 || value == 7", Some(7), None, false),
            ("value - 1 == 4294967295", Some(0), None, true),
            ("-value == 0 - 5", Some(5), None, false),
            ("value / 0 != 0", Some(5), None, true),
            // Only a wrapping product reaches zero.
            ("value * 4611686018427387904 * 4 != 0", Some(1), None, true),
            ("value * 4611686018427387904 * 4 != 0", None, None, false),
            ("-(0 - 9223372036854775807 - 1) > 0", None, None, true),
            ("value + 9223372036854775807 > 0", Some(1), None, true),
            ("value > 10 && hits % 2 == 0", Some(3), Some(0), false),
            ("false && hits > 0", None, None, false),
            ("false && old > 0", None, None, true),
        ];
        for &(src, value, writer, dead) in table {
            assert_eq!(
                compiled(src).statically_false(value, writer),
                dead,
                "{src} with value {value:?}, writer {writer:?}"
            );
        }
    }

    #[test]
    fn writer_map_ranges() {
        let wm = WriterMap::new([(0x100, 2), (0x40, 0), (0x80, 1)]);
        assert_eq!(wm.writer_of(0x3c), NO_WRITER);
        assert_eq!(wm.writer_of(0x40), 0);
        assert_eq!(wm.writer_of(0x7c), 0);
        assert_eq!(wm.writer_of(0x80), 1);
        assert_eq!(wm.writer_of(0xfc), 1);
        assert_eq!(wm.writer_of(0x100), 2);
        assert_eq!(wm.writer_of(0xffff_fffc), 2);
        assert_eq!(WriterMap::default().writer_of(0), NO_WRITER);
    }

    #[test]
    fn displays_round_trip_source() {
        let p = Predicate::parse("  value > 10 && hits % 2 == 0 ").unwrap();
        assert_eq!(p.to_string(), "value > 10 && hits % 2 == 0");
        assert_eq!(compiled("writer in put").to_string(), "writer in put");
    }

    /// Satellite: table-driven negative tests. Every malformed input
    /// must produce a clean [`PredicateError`] — never a panic — and
    /// the error kind must be the expected one.
    #[test]
    fn malformed_predicates_error_cleanly() {
        use PredicateError as E;
        fn kind(e: &E) -> &'static str {
            match e {
                E::Empty => "empty",
                E::UnexpectedChar { .. } => "char",
                E::UnexpectedToken { .. } => "token",
                E::UnexpectedEnd { .. } => "end",
                E::UnknownIdent { .. } => "ident",
                E::LiteralOverflow { .. } => "overflow",
                E::TooDeep => "deep",
                E::TrailingInput { .. } => "trailing",
                E::UnknownFunction { .. } => "function",
            }
        }
        let deep_parens = format!("{}1{}", "(".repeat(200), ")".repeat(200));
        let deep_bangs = format!("{}1", "!".repeat(200));
        let cases: &[(&str, &str)] = &[
            ("", "empty"),
            ("   \t\n", "empty"),
            ("(value > 1", "end"),
            ("value > 1)", "trailing"),
            ("((value) > (1)", "end"),
            ("value >", "end"),
            ("value > 1 value", "trailing"),
            ("1 < value < 3", "trailing"),
            ("value > 99999999999999999999999", "overflow"),
            ("0xffffffffffffffffff == value", "overflow"),
            ("valu > 3", "ident"),
            ("foo", "ident"),
            ("writer in", "end"),
            ("writer in 3", "token"),
            ("writer value", "token"),
            ("in main", "ident"),
            ("value & 1", "char"),
            ("value | 1", "char"),
            ("value = 1", "char"),
            ("value @ 1", "char"),
            ("value ># 1", "char"),
            ("&& value", "token"),
            ("value > > 1", "token"),
            ("()", "token"),
            ("0x", "char"),
            (&deep_parens, "deep"),
            (&deep_bangs, "deep"),
        ];
        for (src, want) in cases {
            let got = Predicate::parse(src).expect_err(&format!("`{src}` must not parse"));
            assert_eq!(
                kind(&got),
                *want,
                "`{src}` gave {got:?}, wanted kind {want}"
            );
            // Every error formats without panicking and nonempty.
            assert!(!got.to_string().is_empty());
        }
    }

    /// Deep-but-legal nesting just under the limit still parses.
    #[test]
    fn nesting_just_under_the_limit_parses() {
        let n = MAX_PREDICATE_DEPTH - 1;
        let src = format!("{}1{}", "(".repeat(n), ")".repeat(n));
        assert!(Predicate::parse(&src).is_ok());
    }

    /// Throwing arbitrary byte soup at the parser never panics (cheap
    /// deterministic fuzz — no generator dependency needed here).
    #[test]
    fn parser_survives_byte_soup() {
        let alphabet: Vec<char> = "value old hits writer in ()!&|=<>+-*/% 0123456789x\u{e9}"
            .chars()
            .collect();
        let mut state: u64 = 0x243f_6a88_85a3_08d3;
        for _ in 0..2000 {
            let mut src = String::new();
            for _ in 0..32 {
                // xorshift64* — deterministic, no RNG dependency.
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let r = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
                src.push(alphabet[(r % alphabet.len() as u64) as usize]);
            }
            let _ = Predicate::parse(&src); // must not panic
        }
    }

    #[test]
    fn decide_over_refutes_and_affirms_ranges() {
        let span = |vlo, vhi| WriteSpan {
            value: (vlo, vhi),
            old: (0, u32::MAX),
            hits: (1, 1000),
        };
        let p = compiled("value > 100");
        assert_eq!(p.decide_over(&span(0, 100), &mut |_| None), Some(false));
        assert_eq!(p.decide_over(&span(101, 500), &mut |_| None), Some(true));
        assert_eq!(p.decide_over(&span(50, 500), &mut |_| None), None);

        // Writer tri-state: `put` is id 1.
        let p = compiled("writer in put");
        assert_eq!(
            p.decide_over(&span(0, 0), &mut |f| Some(f == 1)),
            Some(true)
        );
        assert_eq!(
            p.decide_over(&span(0, 0), &mut |_| Some(false)),
            Some(false)
        );
        assert_eq!(p.decide_over(&span(0, 0), &mut |_| None), None);

        // hits bounds refute hits-only predicates per block.
        let p = compiled("hits > 5000");
        assert_eq!(p.decide_over(&span(0, 0), &mut |_| None), Some(false));
        let wide = WriteSpan {
            value: (0, 0),
            old: (0, 0),
            hits: (5001, 6000),
        };
        assert_eq!(p.decide_over(&wide, &mut |_| None), Some(true));

        // Conjunction: one refuted side kills the block even when the
        // other is unknown.
        let p = compiled("value > 100 && old == 3");
        assert_eq!(p.decide_over(&span(0, 90), &mut |_| None), Some(false));
        assert_eq!(p.decide_over(&span(101, 500), &mut |_| None), None);

        // Arithmetic stays sound under potential overflow: intervals
        // widen to TOP rather than pretending wrapping is monotonic.
        let p = compiled("value * value * value > 0");
        assert_eq!(p.decide_over(&span(0, u32::MAX), &mut |_| None), None);
    }

    #[test]
    fn column_introspection() {
        let p = compiled("value > 1 && writer in put");
        assert!(p.uses_value() && p.uses_writer());
        assert!(!p.uses_old() && !p.uses_hits());
        let p = compiled("old % 2 == hits % 2");
        assert!(p.uses_old() && p.uses_hits());
        assert!(!p.uses_value() && !p.uses_writer());
    }

    /// Interval soundness, sampled: for random predicates over random
    /// spans, a definite `decide_over` answer must agree with concrete
    /// evaluation at every sampled point inside the span.
    #[test]
    fn decide_over_agrees_with_concrete_eval() {
        let pool = [
            "value > 1000",
            "value + old > 1000",
            "value - old == 1",
            "value * 2 >= old",
            "value % 7 == 3",
            "value / 2 > old",
            "hits % 2 == 0",
            "hits > 10 && value < 50",
            "writer in put || value == 0",
            "!(value > 10) && old <= 5",
            "-value < -10",
            "value == old",
            "value != 0 || old != 0",
            "(value + 1) * (old + 1) > 100",
        ];
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut rng = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for _ in 0..400 {
            let p = compiled(pool[(rng() % pool.len() as u64) as usize]);
            let a = (rng() % 2000) as u32;
            let b = (rng() % 2000) as u32;
            let (vlo, vhi) = (a.min(b), a.max(b));
            let a = (rng() % 2000) as u32;
            let b = (rng() % 2000) as u32;
            let (olo, ohi) = (a.min(b), a.max(b));
            let hlo = 1 + rng() % 100;
            let hhi = hlo + rng() % 100;
            let span = WriteSpan {
                value: (vlo, vhi),
                old: (olo, ohi),
                hits: (hlo, hhi),
            };
            // Writer is either pinned to one id or unknown.
            let pinned = (rng() % 2 == 0).then(|| (rng() % 3) as u16);
            let decided = p.decide_over(&span, &mut |f| pinned.map(|w| w == f));
            let Some(want) = decided else { continue };
            for _ in 0..64 {
                let value = vlo + (rng() % (u64::from(vhi - vlo) + 1)) as u32;
                let old = olo + (rng() % (u64::from(ohi - olo) + 1)) as u32;
                let hits = hlo + rng() % (hhi - hlo + 1);
                let writer = pinned.unwrap_or((rng() % 4) as u16);
                assert_eq!(
                    p.eval(value, old, hits, writer),
                    want,
                    "{} decided {want} over {span:?} but concrete \
                     (v={value}, o={old}, h={hits}, w={writer}) disagrees",
                    p.src()
                );
            }
        }
    }

    #[test]
    fn writer_map_segments_are_sorted() {
        let wm = WriterMap::new([(0x100, 2), (0x40, 0), (0x80, 1)]);
        assert_eq!(wm.segments(), &[(0x40, 0), (0x80, 1), (0x100, 2)]);
    }
}
