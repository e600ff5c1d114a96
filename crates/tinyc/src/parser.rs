//! Recursive-descent parser.

use crate::ast::*;
use crate::error::CompileError;
use crate::lexer::{Kw, Tok, Token};

/// Nesting depth beyond which parsing fails: statements inside
/// statements, operands inside expressions (parentheses included), and
/// left-associative chains (`a + b + …`, `a[i][j]…`), each link of which
/// pushes the tree built so far one level down. The semantic pass, the
/// code generators and the interpreter all recurse on the tree, so
/// bounding it here bounds them.
pub const MAX_NESTING: usize = 128;

/// Binary operators by precedence, loosest first; all associate left.
const BINARY_LEVELS: [&[(&str, BinOp)]; 10] = [
    &[("||", BinOp::LogOr)],
    &[("&&", BinOp::LogAnd)],
    &[("|", BinOp::BitOr)],
    &[("^", BinOp::BitXor)],
    &[("&", BinOp::BitAnd)],
    &[("==", BinOp::Eq), ("!=", BinOp::Ne)],
    &[
        ("<=", BinOp::Le),
        (">=", BinOp::Ge),
        ("<", BinOp::Lt),
        (">", BinOp::Gt),
    ],
    &[("<<", BinOp::Shl), (">>", BinOp::Shr)],
    &[("+", BinOp::Add), ("-", BinOp::Sub)],
    &[("*", BinOp::Mul), ("/", BinOp::Div), ("%", BinOp::Rem)],
];

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    /// Depth of the node being parsed (0 at a function body).
    depth: usize,
    /// The deepest level any node parsed since the innermost enclosing
    /// chain began will sit at, chain links counted.
    deepest: usize,
}

type PResult<T> = Result<T, CompileError>;

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &Tok {
        let i = (self.pos + n).min(self.toks.len() - 1);
        &self.toks[i].kind
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> &Tok {
        let t = &self.toks[self.pos].kind;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(CompileError::new(self.line(), msg))
    }

    fn too_deep<T>(&self) -> PResult<T> {
        self.err(format!("nesting exceeds the limit of {MAX_NESTING}"))
    }

    /// Parses a child one level below the current node.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        if self.depth >= MAX_NESTING {
            return self.too_deep();
        }
        self.depth += 1;
        self.deepest = self.deepest.max(self.depth);
        let r = parse(self);
        self.depth -= 1;
        r
    }

    /// Starts a left-associative chain at the current depth; returns
    /// the enclosing chain's watermark for [`Parser::end_chain`].
    fn begin_chain(&mut self) -> usize {
        std::mem::replace(&mut self.deepest, self.depth)
    }

    /// One more link of the current chain: everything parsed so far
    /// moves one level down.
    fn link(&mut self) -> PResult<()> {
        if self.deepest >= MAX_NESTING {
            return self.too_deep();
        }
        self.deepest += 1;
        Ok(())
    }

    fn end_chain(&mut self, outer: usize) {
        self.deepest = self.deepest.max(outer);
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> PResult<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected '{p}', found {:?}", self.peek()))
        }
    }

    fn eat_kw(&mut self, k: Kw) -> bool {
        if matches!(self.peek(), Tok::Kw(q) if *q == k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> PResult<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    /// True when the upcoming tokens start a type (`int`, `char`, `void`,
    /// `struct Name`).
    fn at_type(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Kw(Kw::Int) | Tok::Kw(Kw::Char) | Tok::Kw(Kw::Void) | Tok::Kw(Kw::Struct)
        )
    }

    /// Parses a base type plus pointer stars.
    fn parse_type(&mut self) -> PResult<TypeExpr> {
        let base = if self.eat_kw(Kw::Int) {
            TypeExpr::Int
        } else if self.eat_kw(Kw::Char) {
            TypeExpr::Char
        } else if self.eat_kw(Kw::Void) {
            TypeExpr::Void
        } else if self.eat_kw(Kw::Struct) {
            TypeExpr::Struct(self.expect_ident()?)
        } else {
            return self.err(format!("expected type, found {:?}", self.peek()));
        };
        let mut ty = base;
        let mut stars = 0;
        while self.eat_punct("*") {
            stars += 1;
            if stars > MAX_NESTING {
                return self.too_deep();
            }
            ty = TypeExpr::Ptr(Box::new(ty));
        }
        Ok(ty)
    }

    fn parse_declarator(&mut self) -> PResult<Declarator> {
        let line = self.line();
        let name = self.expect_ident()?;
        let array = if self.eat_punct("[") {
            let n = match self.peek() {
                Tok::Int(v) if *v > 0 => *v as u32,
                _ => return self.err("array length must be a positive integer literal"),
            };
            self.bump();
            self.expect_punct("]")?;
            Some(n)
        } else {
            None
        };
        Ok(Declarator { name, array, line })
    }

    // ---- items ----

    fn parse_program(&mut self) -> PResult<Vec<Item>> {
        let mut items = Vec::new();
        while !matches!(self.peek(), Tok::Eof) {
            items.push(self.parse_item()?);
        }
        Ok(items)
    }

    fn parse_item(&mut self) -> PResult<Item> {
        // struct definition: "struct Name {" — otherwise it is a type use.
        if matches!(self.peek(), Tok::Kw(Kw::Struct))
            && matches!(self.peek_at(1), Tok::Ident(_))
            && matches!(self.peek_at(2), Tok::Punct("{"))
        {
            return Ok(Item::Struct(self.parse_struct()?));
        }
        let ty = self.parse_type()?;
        let line = self.line();
        let name = self.expect_ident()?;
        if self.eat_punct("(") {
            // function definition
            let mut params = Vec::new();
            if !self.eat_punct(")") {
                loop {
                    let pty = self.parse_type()?;
                    let pname = self.expect_ident()?;
                    params.push((pty, pname));
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct(")")?;
            }
            if !matches!(self.peek(), Tok::Punct("{")) {
                return self.err("expected function body (declarations are not supported)");
            }
            let body = match self.parse_stmt()? {
                Stmt::Block(b) => b,
                _ => unreachable!("parse_stmt at '{{' returns a block"),
            };
            Ok(Item::Func(FuncDecl {
                ret: ty,
                name,
                params,
                body,
                line,
            }))
        } else {
            // global variable
            let array = if self.eat_punct("[") {
                let n = match self.peek() {
                    Tok::Int(v) if *v > 0 => *v as u32,
                    _ => return self.err("array length must be a positive integer literal"),
                };
                self.bump();
                self.expect_punct("]")?;
                Some(n)
            } else {
                None
            };
            let init = if self.eat_punct("=") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            self.expect_punct(";")?;
            Ok(Item::Global(GlobalDecl {
                ty,
                decl: Declarator { name, array, line },
                init,
            }))
        }
    }

    fn parse_struct(&mut self) -> PResult<StructDef> {
        let line = self.line();
        self.bump(); // struct
        let name = self.expect_ident()?;
        self.expect_punct("{")?;
        let mut members = Vec::new();
        while !self.eat_punct("}") {
            let ty = self.parse_type()?;
            let d = self.parse_declarator()?;
            self.expect_punct(";")?;
            members.push((ty, d));
        }
        self.expect_punct(";")?;
        Ok(StructDef {
            name,
            members,
            line,
        })
    }

    // ---- statements ----

    fn parse_stmt(&mut self) -> PResult<Stmt> {
        let line = self.line();
        if self.eat_punct("{") {
            let mut stmts = Vec::new();
            while !self.eat_punct("}") {
                if matches!(self.peek(), Tok::Eof) {
                    return self.err("unterminated block");
                }
                stmts.push(self.nested(Self::parse_stmt)?);
            }
            return Ok(Stmt::Block(stmts));
        }
        if self.eat_punct(";") {
            return Ok(Stmt::Empty);
        }
        if self.eat_kw(Kw::If) {
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            let then = Box::new(self.nested(Self::parse_stmt)?);
            let els = if self.eat_kw(Kw::Else) {
                Some(Box::new(self.nested(Self::parse_stmt)?))
            } else {
                None
            };
            return Ok(Stmt::If(cond, then, els));
        }
        if self.eat_kw(Kw::While) {
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            return Ok(Stmt::While(cond, Box::new(self.nested(Self::parse_stmt)?)));
        }
        if self.eat_kw(Kw::For) {
            self.expect_punct("(")?;
            let init = if matches!(self.peek(), Tok::Punct(";")) {
                None
            } else {
                Some(self.parse_expr()?)
            };
            self.expect_punct(";")?;
            let cond = if matches!(self.peek(), Tok::Punct(";")) {
                None
            } else {
                Some(self.parse_expr()?)
            };
            self.expect_punct(";")?;
            let step = if matches!(self.peek(), Tok::Punct(")")) {
                None
            } else {
                Some(self.parse_expr()?)
            };
            self.expect_punct(")")?;
            return Ok(Stmt::For(
                init,
                cond,
                step,
                Box::new(self.nested(Self::parse_stmt)?),
            ));
        }
        if self.eat_kw(Kw::Return) {
            let value = if matches!(self.peek(), Tok::Punct(";")) {
                None
            } else {
                Some(self.parse_expr()?)
            };
            self.expect_punct(";")?;
            return Ok(Stmt::Return(value, line));
        }
        if self.eat_kw(Kw::Break) {
            self.expect_punct(";")?;
            return Ok(Stmt::Break(line));
        }
        if self.eat_kw(Kw::Continue) {
            self.expect_punct(";")?;
            return Ok(Stmt::Continue(line));
        }
        let is_static = self.eat_kw(Kw::Static);
        if is_static || self.at_type() {
            let ty = self.parse_type()?;
            let decl = self.parse_declarator()?;
            let init = if self.eat_punct("=") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            self.expect_punct(";")?;
            return Ok(Stmt::Decl {
                is_static,
                ty,
                decl,
                init,
            });
        }
        let e = self.parse_expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::Expr(e))
    }

    // ---- expressions (precedence climbing) ----

    fn parse_expr(&mut self) -> PResult<Expr> {
        self.parse_assign()
    }

    fn parse_assign(&mut self) -> PResult<Expr> {
        let lhs = self.parse_binary(0)?;
        if self.eat_punct("=") {
            let line = lhs.line;
            let rhs = self.nested(Self::parse_assign)?;
            return Ok(Expr {
                kind: ExprKind::Assign(Box::new(lhs), Box::new(rhs)),
                line,
            });
        }
        Ok(lhs)
    }

    /// The binary operator at the cursor and its index in
    /// `BINARY_LEVELS`.
    fn peek_binary(&self) -> Option<(usize, BinOp)> {
        let Tok::Punct(p) = self.peek() else {
            return None;
        };
        BINARY_LEVELS
            .iter()
            .enumerate()
            .find_map(|(level, ops)| ops.iter().find(|(q, _)| q == p).map(|&(_, op)| (level, op)))
    }

    /// Precedence climbing over the left-associative binary operators
    /// of `BINARY_LEVELS[min_level..]`.
    fn parse_binary(&mut self, min_level: usize) -> PResult<Expr> {
        let outer = self.begin_chain();
        let mut lhs = self.parse_unary()?;
        while let Some((level, op)) = self.peek_binary().filter(|&(l, _)| l >= min_level) {
            let line = self.line();
            self.bump();
            self.link()?;
            let rhs = self.nested(|p| p.parse_binary(level + 1))?;
            lhs = Expr {
                kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
                line,
            };
        }
        self.end_chain(outer);
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> PResult<Expr> {
        let line = self.line();
        if self.eat_punct("-") {
            let e = self.nested(Self::parse_unary)?;
            return Ok(Expr {
                kind: ExprKind::Unary(UnOp::Neg, Box::new(e)),
                line,
            });
        }
        if self.eat_punct("!") {
            let e = self.nested(Self::parse_unary)?;
            return Ok(Expr {
                kind: ExprKind::Unary(UnOp::Not, Box::new(e)),
                line,
            });
        }
        if self.eat_punct("~") {
            let e = self.nested(Self::parse_unary)?;
            return Ok(Expr {
                kind: ExprKind::Unary(UnOp::BitNot, Box::new(e)),
                line,
            });
        }
        if self.eat_punct("*") {
            let e = self.nested(Self::parse_unary)?;
            return Ok(Expr {
                kind: ExprKind::Deref(Box::new(e)),
                line,
            });
        }
        if self.eat_punct("&") {
            let e = self.nested(Self::parse_unary)?;
            return Ok(Expr {
                kind: ExprKind::AddrOf(Box::new(e)),
                line,
            });
        }
        // Cast: '(' type … ')'
        if matches!(self.peek(), Tok::Punct("("))
            && matches!(
                self.peek_at(1),
                Tok::Kw(Kw::Int) | Tok::Kw(Kw::Char) | Tok::Kw(Kw::Void) | Tok::Kw(Kw::Struct)
            )
        {
            self.bump();
            let ty = self.parse_type()?;
            self.expect_punct(")")?;
            let e = self.nested(Self::parse_unary)?;
            return Ok(Expr {
                kind: ExprKind::Cast(ty, Box::new(e)),
                line,
            });
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> PResult<Expr> {
        let outer = self.begin_chain();
        let mut e = self.parse_primary()?;
        loop {
            let line = self.line();
            if matches!(self.peek(), Tok::Punct("[" | "." | "->")) {
                self.link()?;
            }
            if self.eat_punct("[") {
                let idx = self.nested(Self::parse_expr)?;
                self.expect_punct("]")?;
                e = Expr {
                    kind: ExprKind::Index(Box::new(e), Box::new(idx)),
                    line,
                };
            } else if self.eat_punct(".") {
                let m = self.expect_ident()?;
                e = Expr {
                    kind: ExprKind::Member(Box::new(e), m),
                    line,
                };
            } else if self.eat_punct("->") {
                let m = self.expect_ident()?;
                e = Expr {
                    kind: ExprKind::Arrow(Box::new(e), m),
                    line,
                };
            } else if matches!(self.peek(), Tok::Punct("(")) {
                // Call: only valid directly after an identifier.
                let name = match &e.kind {
                    ExprKind::Ident(n) => n.clone(),
                    _ => return self.err("only named functions can be called"),
                };
                self.bump();
                let mut args = Vec::new();
                if !self.eat_punct(")") {
                    loop {
                        args.push(self.nested(Self::parse_expr)?);
                        if !self.eat_punct(",") {
                            break;
                        }
                    }
                    self.expect_punct(")")?;
                }
                e = Expr {
                    kind: ExprKind::Call(name, args),
                    line: e.line,
                };
            } else {
                self.end_chain(outer);
                return Ok(e);
            }
        }
    }

    fn parse_primary(&mut self) -> PResult<Expr> {
        let line = self.line();
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::Int(v),
                    line,
                })
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::Str(s),
                    line,
                })
            }
            Tok::Ident(name) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::Ident(name),
                    line,
                })
            }
            Tok::Kw(Kw::Sizeof) => {
                self.bump();
                self.expect_punct("(")?;
                let ty = self.parse_type()?;
                self.expect_punct(")")?;
                Ok(Expr {
                    kind: ExprKind::Sizeof(ty),
                    line,
                })
            }
            Tok::Punct("(") => {
                self.bump();
                let e = self.nested(Self::parse_expr)?;
                self.expect_punct(")")?;
                Ok(e)
            }
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }
}

/// Parses a token stream into top-level items.
///
/// # Errors
///
/// Syntax errors with the offending line.
pub fn parse(tokens: &[Token]) -> Result<Vec<Item>, CompileError> {
    assert!(
        matches!(tokens.last().map(|t| &t.kind), Some(Tok::Eof)),
        "token stream must end with Eof"
    );
    Parser {
        toks: tokens,
        pos: 0,
        depth: 0,
        deepest: 0,
    }
    .parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<Vec<Item>, CompileError> {
        parse(&lex(src).unwrap())
    }

    #[test]
    fn parses_struct_global_func() {
        let items = parse_src(
            r#"
            struct Node { int val; struct Node *next; };
            int counter = 3;
            int arr[10];
            struct Node *head;
            int main() { return 0; }
            "#,
        )
        .unwrap();
        assert_eq!(items.len(), 5);
        assert!(matches!(items[0], Item::Struct(_)));
        assert!(matches!(items[1], Item::Global(_)));
        assert!(matches!(items[4], Item::Func(_)));
    }

    #[test]
    fn parses_statements() {
        let items = parse_src(
            r#"
            int f(int n) {
                int i;
                static int cache = 0;
                for (i = 0; i < n; i = i + 1) {
                    if (i % 2 == 0) continue;
                    if (i > 100) break;
                }
                while (n) n = n - 1;
                return n;
            }
            "#,
        )
        .unwrap();
        let Item::Func(f) = &items[0] else {
            panic!("expected func")
        };
        assert_eq!(f.name, "f");
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.body.len(), 5);
    }

    #[test]
    fn precedence_binds_correctly() {
        let items = parse_src("int main() { return 1 + 2 * 3 == 7 && 1; }").unwrap();
        let Item::Func(f) = &items[0] else { panic!() };
        let Stmt::Return(Some(e), _) = &f.body[0] else {
            panic!()
        };
        // top node must be &&
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::LogAnd, _, _)));
    }

    #[test]
    fn postfix_chains() {
        let items = parse_src("int main() { return p->next->data[i + 1]; }").unwrap();
        let Item::Func(f) = &items[0] else { panic!() };
        let Stmt::Return(Some(e), _) = &f.body[0] else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::Index(..)));
    }

    #[test]
    fn cast_vs_paren() {
        let items =
            parse_src("int main() { int x; x = (int)1; x = (x); return (struct T*)0 == 0; }")
                .unwrap();
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn assignment_is_right_associative() {
        let items = parse_src("int main() { a = b = 1; return 0; }").unwrap();
        let Item::Func(f) = &items[0] else { panic!() };
        let Stmt::Expr(e) = &f.body[0] else { panic!() };
        let ExprKind::Assign(_, rhs) = &e.kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, ExprKind::Assign(..)));
    }

    #[test]
    fn error_cases() {
        assert!(parse_src("int main() { return 1 }").is_err()); // missing ;
        assert!(parse_src("int f();").is_err()); // declarations unsupported
        assert!(parse_src("int a[0];").is_err()); // zero-length array
        assert!(parse_src("int main() { (1)(2); }").is_err()); // call on non-ident
        assert!(parse_src("int main() { {").is_err()); // unterminated block
        assert!(parse_src("struct S { int x; }").is_err()); // missing ;
    }

    #[test]
    fn sizeof_parses() {
        let items = parse_src("int main() { return sizeof(struct Node) + sizeof(int*); }");
        assert!(items.is_ok());
    }
}
