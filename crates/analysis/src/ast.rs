//! A pragmatic recursive-descent parser over the token stream: enough
//! item/statement/expression structure for the dataflow rules.
//!
//! This is *not* a full Rust parser — it is the subset the dataflow rule
//! passes need to be reliable on this workspace:
//!
//! * every `fn` body becomes a statement tree with real `if`/`while`/
//!   `loop`/`for`/`match` structure (the CFG builder consumes these);
//! * expressions keep paths, field projections, method calls, calls,
//!   casts, binary/assignment operators, struct literals, and closures —
//!   everything unit inference and taint propagation walk;
//! * `struct` items contribute field declarations (`name: Type`) to the
//!   per-file unit vocabulary;
//! * macro invocations are opaque leaves: nothing inside a macro's
//!   argument tokens is parsed or analyzed.
//!
//! The parser never fails: any construct it does not understand becomes
//! an [`ExprKind::Opaque`] leaf (or is skipped), which keeps the
//! analyzer usable on work-in-progress source. Unknownness is always
//! conservative in the rule passes — an `Opaque` expression has no unit
//! domain and carries no taint.

use crate::lexer::{Token, TokenKind};

/// Index of an expression in [`Arena::exprs`].
pub type ExprId = usize;
/// Index of a statement in [`Arena::stmts`].
pub type StmtId = usize;

/// Flat storage for the statement/expression trees of one file.
#[derive(Debug, Default)]
pub struct Arena {
    /// All expressions, referenced by [`ExprId`].
    pub exprs: Vec<Expr>,
    /// All statements, referenced by [`StmtId`].
    pub stmts: Vec<Stmt>,
}

impl Arena {
    /// The expression behind `id` (ids handed out by this arena are
    /// always in range; a stale id yields a positionless `Opaque`).
    pub fn expr(&self, id: ExprId) -> &Expr {
        static OPAQUE: Expr = Expr {
            kind: ExprKind::Opaque,
            line: 0,
            col: 0,
        };
        self.exprs.get(id).unwrap_or(&OPAQUE)
    }

    /// The statement behind `id`.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        static EMPTY: Stmt = Stmt::Empty;
        self.stmts.get(id).unwrap_or(&EMPTY)
    }

    fn push_expr(&mut self, kind: ExprKind, line: u32, col: u32) -> ExprId {
        self.exprs.push(Expr { kind, line, col });
        self.exprs.len() - 1
    }

    fn push_stmt(&mut self, s: Stmt) -> StmtId {
        self.stmts.push(s);
        self.stmts.len() - 1
    }
}

/// Parsed view of one source file.
#[derive(Debug, Default)]
pub struct FileAst {
    /// Every function with a body, in source order (nested fns included).
    pub fns: Vec<FnDef>,
    /// Struct field declarations seen anywhere in the file.
    pub fields: Vec<FieldDecl>,
    /// Statement/expression storage shared by all functions.
    pub arena: Arena,
}

/// One `name: Type` field of a `struct` item.
#[derive(Debug)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// The declared type, as space-joined tokens (`Option < u64 >`).
    pub ty: String,
    /// 1-based line of the field name.
    pub line: u32,
    /// 1-based column of the field name.
    pub col: u32,
}

/// One function definition with a body.
#[derive(Debug)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Parameters as `(name, type-string)`; `self` receivers included.
    pub params: Vec<Param>,
    /// Return type as space-joined tokens; empty for `()`.
    pub ret_ty: String,
    /// The body.
    pub body: Block,
}

/// One parameter of a function.
#[derive(Debug)]
pub struct Param {
    /// Binding name (patterns collapse to their single binding, or `_`).
    pub name: String,
    /// Declared type, space-joined.
    pub ty: String,
}

/// A `{ … }` statement sequence.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<StmtId>,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let [mut] name[: Ty] = init;` — complex patterns record every
    /// bound name (`names`), a single-binding pattern exactly one.
    Let {
        /// Names bound by the pattern.
        names: Vec<String>,
        /// Declared type if written, space-joined.
        ty: Option<String>,
        /// Initializer.
        init: Option<ExprId>,
    },
    /// An expression statement (with or without `;`).
    Expr(ExprId),
    /// `if cond { … } [else { … }]` — `else if` chains nest in `els`.
    If {
        /// The condition.
        cond: ExprId,
        /// The then-branch.
        then_blk: Block,
        /// The else-branch, if any.
        els: Option<Block>,
    },
    /// `while cond { … }` (`while let` keeps only the scrutinee).
    While {
        /// Loop condition.
        cond: ExprId,
        /// Loop body.
        body: Block,
    },
    /// `loop { … }`.
    Loop {
        /// Loop body.
        body: Block,
    },
    /// `for pat in iter { … }`.
    For {
        /// Names bound by the loop pattern.
        names: Vec<String>,
        /// The iterated expression.
        iter: ExprId,
        /// Loop body.
        body: Block,
    },
    /// `match scrutinee { arms }`; `if let` desugars here too.
    Match {
        /// The matched expression.
        scrutinee: ExprId,
        /// Arms as `(pattern binding names, body)`.
        arms: Vec<(Vec<String>, Block)>,
    },
    /// `return [expr];`
    Return(Option<ExprId>),
    /// `break [expr];`
    Break,
    /// `continue;`
    Continue,
    /// A nested item (fn/struct/use/…), skipped by the rule passes.
    Item,
    /// Nothing (stray `;`, or recovery).
    Empty,
}

/// One expression with its source position.
#[derive(Debug)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// 1-based line of the expression's first token.
    pub line: u32,
    /// 1-based column of the expression's first token.
    pub col: u32,
}

/// Expression shapes the rule passes understand.
#[derive(Debug)]
pub enum ExprKind {
    /// Numeric/string/char/bool literal.
    Lit,
    /// `a::b::c` (single identifiers are one-segment paths).
    Path(Vec<String>),
    /// `base.name` (tuple indices appear as `"0"`, `"1"`, …).
    Field {
        /// The projected expression.
        base: ExprId,
        /// Field name or tuple index.
        name: String,
    },
    /// `base.name(args)`.
    MethodCall {
        /// Receiver.
        base: ExprId,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<ExprId>,
    },
    /// `callee(args)`.
    Call {
        /// The called expression (usually a path).
        callee: ExprId,
        /// Arguments.
        args: Vec<ExprId>,
    },
    /// `lhs op rhs` for a non-assignment binary operator.
    Binary {
        /// Operator text (`+`, `==`, `&&`, …).
        op: String,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// `target op value` for `=`, `+=`, `-=`, ….
    Assign {
        /// Operator text (`=`, `+=`, …).
        op: String,
        /// Assignment target.
        target: ExprId,
        /// Assigned value.
        value: ExprId,
    },
    /// `expr as Ty`.
    Cast {
        /// The cast expression.
        expr: ExprId,
    },
    /// `Path { field: value, … }`.
    StructLit {
        /// The struct path's last segment.
        path: String,
        /// Fields as `(name, value)`; shorthand fields get a synthetic
        /// path expression as their value.
        fields: Vec<(String, ExprId)>,
    },
    /// `name!(…)` — contents are not parsed.
    MacroCall,
    /// `|args| body` / `move |args| body`.
    Closure {
        /// The body expression.
        body: ExprId,
    },
    /// `&e`, `&mut e`, `*e`, `!e`, unary `-e` — transparent wrappers.
    Unary {
        /// The wrapped expression.
        expr: ExprId,
    },
    /// `{ stmts }` in expression position; also holds `if`/`match`/
    /// `loop` expressions (as their statement form in a one-stmt block).
    BlockExpr {
        /// The statements.
        block: Block,
    },
    /// `(a, b, …)` / `[a, b, …]`.
    Tuple {
        /// Elements.
        elems: Vec<ExprId>,
    },
    /// `base[index]`.
    Index {
        /// Indexed expression.
        base: ExprId,
        /// Index expression.
        index: ExprId,
    },
    /// Anything the parser does not model.
    Opaque,
}

/// Parse a comment-free token slice (the caller filters comments and
/// test-masked tokens) into a [`FileAst`].
pub fn parse(toks: &[&Token]) -> FileAst {
    let mut p = Parser {
        t: toks,
        i: 0,
        out: FileAst::default(),
        depth: 0,
    };
    p.top_level();
    p.out
}

/// Multi-character operators, longest first (the lexer emits single
/// punctuation characters; adjacency re-joins them).
const OPS: [&str; 22] = [
    "<<=", ">>=", "..=", "&&", "||", "==", "!=", "<=", ">=", "->", "=>", "::", "+=", "-=", "*=",
    "/=", "%=", "^=", "&=", "|=", "<<", "..",
];

struct Parser<'a> {
    t: &'a [&'a Token],
    i: usize,
    out: FileAst,
    depth: u32,
}

impl<'a> Parser<'a> {
    // -- token helpers ----------------------------------------------------

    fn tok(&self, off: usize) -> Option<&'a Token> {
        self.t.get(self.i + off).copied()
    }

    fn ident(&self, off: usize) -> Option<&'a str> {
        match self.tok(off) {
            Some(t) if t.kind == TokenKind::Ident => Some(t.text.as_str()),
            _ => None,
        }
    }

    fn is_ident(&self, off: usize, s: &str) -> bool {
        self.ident(off) == Some(s)
    }

    fn is_punct(&self, off: usize, ch: char) -> bool {
        matches!(self.tok(off), Some(t) if t.kind == TokenKind::Punct && t.text.starts_with(ch))
    }

    fn pos(&self) -> (u32, u32) {
        self.tok(0).map(|t| (t.line, t.col)).unwrap_or((0, 0))
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    /// The longest known multi-char operator at the cursor, if its
    /// punctuation tokens are source-adjacent.
    fn op(&self) -> Option<&'static str> {
        let first = self.tok(0)?;
        if first.kind != TokenKind::Punct {
            return None;
        }
        'op: for cand in OPS {
            let n = cand.chars().count();
            let mut col = first.col;
            for (k, want) in cand.chars().enumerate() {
                match self.tok(k) {
                    Some(t)
                        if t.kind == TokenKind::Punct
                            && t.text.starts_with(want)
                            && t.line == first.line
                            && t.col == col =>
                    {
                        col += 1;
                    }
                    _ => continue 'op,
                }
            }
            let _ = n;
            return Some(cand);
        }
        None
    }

    /// Is exactly this multi-char operator at the cursor?
    fn at_op(&self, want: &str) -> bool {
        self.op() == Some(want)
    }

    fn bump_op(&mut self, op: &str) {
        self.i += op.chars().count();
    }

    /// Skip a balanced `(…)`, `[…]`, or `{…}` group starting at the
    /// cursor; no-op if the cursor is not on `open`.
    fn skip_group(&mut self, open: char, close: char) {
        if !self.is_punct(0, open) {
            return;
        }
        let mut depth = 0i32;
        while self.i < self.t.len() {
            if self.is_punct(0, open) {
                depth += 1;
            } else if self.is_punct(0, close) {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    /// Skip generic arguments `<…>` (handles `->` inside fn-pointer
    /// types and nested angles); no-op unless the cursor is on `<`.
    fn skip_angles(&mut self) {
        if !self.is_punct(0, '<') {
            return;
        }
        let mut depth = 0i32;
        while self.i < self.t.len() {
            if self.at_op("->") {
                self.bump_op("->");
                continue;
            }
            if self.is_punct(0, '<') {
                depth += 1;
            } else if self.is_punct(0, '>') {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            } else if self.is_punct(0, '(') {
                self.skip_group('(', ')');
                continue;
            }
            self.bump();
        }
    }

    /// Skip one `#[…]` / `#![…]` attribute at the cursor.
    fn skip_attr(&mut self) -> bool {
        if !self.is_punct(0, '#') {
            return false;
        }
        self.bump();
        if self.is_punct(0, '!') {
            self.bump();
        }
        self.skip_group('[', ']');
        true
    }

    // -- items ------------------------------------------------------------

    /// Scan the whole file for `struct` and `fn` items; everything else
    /// is skipped token-by-token (which safely descends into `impl` and
    /// `mod` bodies).
    fn top_level(&mut self) {
        while self.i < self.t.len() {
            if self.skip_attr() {
                continue;
            }
            if self.is_ident(0, "struct") {
                self.struct_item();
            } else if self.is_ident(0, "fn") {
                self.fn_item();
            } else if self.is_punct(0, '"') {
                self.bump();
            } else {
                match self.tok(0).map(|t| t.kind) {
                    // Never look for items inside literals.
                    Some(TokenKind::Str) | Some(TokenKind::Char) => self.bump(),
                    _ => self.bump(),
                }
            }
        }
    }

    /// `struct Name [<…>] { fields } | ( … ); | ;`
    fn struct_item(&mut self) {
        self.bump(); // struct
        if self.ident(0).is_none() {
            return;
        }
        self.bump();
        self.skip_angles();
        // Skip a `where` clause.
        while self.i < self.t.len() && !self.is_punct(0, '{') && !self.is_punct(0, '(') {
            if self.is_punct(0, ';') {
                self.bump();
                return; // unit struct
            }
            self.bump();
        }
        if self.is_punct(0, '(') {
            self.skip_group('(', ')'); // tuple struct: no named fields
            if self.is_punct(0, ';') {
                self.bump();
            }
            return;
        }
        if !self.is_punct(0, '{') {
            return;
        }
        self.bump(); // {
        while self.i < self.t.len() && !self.is_punct(0, '}') {
            if self.skip_attr() {
                continue;
            }
            if self.is_ident(0, "pub") {
                self.bump();
                if self.is_punct(0, '(') {
                    self.skip_group('(', ')');
                }
                continue;
            }
            let (Some(fname), true) = (self.ident(0), self.is_punct(1, ':')) else {
                self.bump();
                continue;
            };
            let (line, col) = self.pos();
            let fname = fname.to_string();
            self.bump(); // name
            self.bump(); // :
            let ty = self.type_until(&[',', '}']);
            self.out.fields.push(FieldDecl {
                name: fname,
                ty,
                line,
                col,
            });
            if self.is_punct(0, ',') {
                self.bump();
            }
        }
        if self.is_punct(0, '}') {
            self.bump();
        }
    }

    /// Collect type tokens until one of `stops` at bracket depth zero;
    /// the stop token is left at the cursor.
    fn type_until(&mut self, stops: &[char]) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut angle = 0i32;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while let Some(t) = self.tok(0) {
            if self.at_op("->") {
                parts.push("->".into());
                self.bump_op("->");
                continue;
            }
            if t.kind == TokenKind::Punct {
                let c = t.text.chars().next().unwrap_or(' ');
                match c {
                    '<' => angle += 1,
                    '>' => angle -= 1,
                    '(' => paren += 1,
                    ')' => {
                        paren -= 1;
                        if paren < 0 {
                            break;
                        }
                    }
                    '[' => bracket += 1,
                    ']' => bracket -= 1,
                    _ => {}
                }
                if angle <= 0 && paren <= 0 && bracket <= 0 && stops.contains(&c) {
                    break;
                }
            }
            parts.push(t.text.clone());
            self.bump();
        }
        parts.join(" ")
    }

    /// `fn name [<…>] (params) [-> Ty] [where …] { body } | ;`
    fn fn_item(&mut self) {
        self.bump(); // fn
        let Some(name) = self.ident(0) else {
            return; // `fn(` pointer type or malformed — not an item
        };
        let name = name.to_string();
        self.bump();
        self.skip_angles();
        if !self.is_punct(0, '(') {
            return;
        }
        let params = self.params();
        let mut ret_ty = String::new();
        if self.at_op("->") {
            self.bump_op("->");
            ret_ty = self.type_until(&['{', ';']);
        }
        // Skip a `where` clause (type_until stops at `{`).
        if self.is_ident(0, "where") {
            self.bump();
            let _ = self.type_until(&['{', ';']);
        }
        if self.is_punct(0, ';') {
            self.bump();
            return; // trait method declaration
        }
        if !self.is_punct(0, '{') {
            return;
        }
        let body = self.block();
        self.out.fns.push(FnDef {
            name,
            params,
            ret_ty,
            body,
        });
    }

    /// Parse `(name: Ty, …)`; the cursor is on `(`.
    fn params(&mut self) -> Vec<Param> {
        let mut params = Vec::new();
        self.bump(); // (
        while self.i < self.t.len() && !self.is_punct(0, ')') {
            if self.skip_attr() {
                continue;
            }
            // `self`, `&self`, `&mut self`, `mut self`.
            let mut off = 0usize;
            while self.tok(off).is_some_and(|t| {
                (t.kind == TokenKind::Punct && t.text.starts_with('&'))
                    || t.kind == TokenKind::Lifetime
                    || (t.kind == TokenKind::Ident && t.text == "mut")
            }) {
                off += 1;
            }
            if self.ident(off) == Some("self") {
                self.i += off + 1;
                params.push(Param {
                    name: "self".into(),
                    ty: "Self".into(),
                });
                if self.is_punct(0, ',') {
                    self.bump();
                }
                continue;
            }
            // `name: Ty` (or a pattern — collapse to its first ident).
            let mut name = String::from("_");
            let mut guard = 0usize;
            while self.i < self.t.len() && !self.is_punct(0, ':') && !self.is_punct(0, ')') {
                if let Some(id) = self.ident(0) {
                    if name == "_" && id != "mut" && id != "ref" {
                        name = id.to_string();
                    }
                }
                self.bump();
                guard += 1;
                if guard > 32 {
                    break;
                }
            }
            if self.is_punct(0, ':') {
                self.bump();
                let ty = self.type_until(&[',', ')']);
                params.push(Param { name, ty });
            }
            if self.is_punct(0, ',') {
                self.bump();
            }
        }
        if self.is_punct(0, ')') {
            self.bump();
        }
        params
    }

    // -- statements -------------------------------------------------------

    /// Parse a `{ … }` block; the cursor is on `{`.
    fn block(&mut self) -> Block {
        let mut blk = Block::default();
        if !self.is_punct(0, '{') {
            return blk;
        }
        self.bump(); // {
        self.depth += 1;
        if self.depth > 192 {
            // Deep nesting: consume the group opaquely rather than
            // recursing further.
            self.i = self.i.saturating_sub(1);
            self.skip_group('{', '}');
            self.depth -= 1;
            return blk;
        }
        while self.i < self.t.len() && !self.is_punct(0, '}') {
            let before = self.i;
            if let Some(s) = self.stmt() {
                blk.stmts.push(s);
            }
            if self.i == before {
                self.bump(); // always make progress
            }
        }
        if self.is_punct(0, '}') {
            self.bump();
        }
        self.depth -= 1;
        blk
    }

    /// One statement; `None` for stray semicolons and skipped tokens.
    fn stmt(&mut self) -> Option<StmtId> {
        while self.skip_attr() {}
        if self.is_punct(0, ';') {
            self.bump();
            return None;
        }
        let id = match self.ident(0) {
            Some("let") => self.let_stmt(),
            Some("if") => self.if_stmt(),
            Some("while") => self.while_stmt(),
            Some("loop") => {
                self.bump();
                let body = self.block();
                self.out.arena.push_stmt(Stmt::Loop { body })
            }
            Some("for") => self.for_stmt(),
            Some("match") => self.match_stmt(),
            Some("return") => {
                self.bump();
                let value = if self.is_punct(0, ';') || self.is_punct(0, '}') {
                    None
                } else {
                    Some(self.expr(true))
                };
                self.out.arena.push_stmt(Stmt::Return(value))
            }
            Some("break") => {
                self.bump();
                while self.i < self.t.len() && !self.is_punct(0, ';') && !self.is_punct(0, '}') {
                    self.bump();
                }
                self.out.arena.push_stmt(Stmt::Break)
            }
            Some("continue") => {
                self.bump();
                self.out.arena.push_stmt(Stmt::Continue)
            }
            Some("unsafe") if self.is_punct(1, '{') => {
                self.bump();
                let block = self.block();
                let (l, c) = self.pos();
                let e = self.out.arena.push_expr(ExprKind::BlockExpr { block }, l, c);
                self.out.arena.push_stmt(Stmt::Expr(e))
            }
            Some("fn") => {
                self.fn_item();
                self.out.arena.push_stmt(Stmt::Item)
            }
            Some("struct") => {
                self.struct_item();
                self.out.arena.push_stmt(Stmt::Item)
            }
            Some(kw @ ("use" | "mod" | "impl" | "trait" | "enum" | "type" | "static" | "const"))
                // `const` in statement position is a nested item; type
                // ascription etc. never start a statement with it.
                if kw != "const" || self.ident(1).is_some() =>
            {
                self.skip_item();
                self.out.arena.push_stmt(Stmt::Item)
            }
            _ => {
                let e = self.expr(true);
                self.out.arena.push_stmt(Stmt::Expr(e))
            }
        };
        if self.is_punct(0, ';') {
            self.bump();
        }
        Some(id)
    }

    /// Skip a nested non-fn item: through its `{…}` body or to `;`.
    fn skip_item(&mut self) {
        while self.i < self.t.len() {
            if self.is_punct(0, ';') {
                self.bump();
                return;
            }
            if self.is_punct(0, '{') {
                self.skip_group('{', '}');
                return;
            }
            self.bump();
        }
    }

    /// `let PAT [: Ty] [= init] [else { … }] ;`
    fn let_stmt(&mut self) -> StmtId {
        self.bump(); // let
        let names = self.pattern_names(&[':', '=', ';']);
        let ty = if self.is_punct(0, ':') {
            self.bump();
            Some(self.type_until(&['=', ';']))
        } else {
            None
        };
        let init = if self.is_punct(0, '=') && !self.at_op("==") {
            self.bump();
            Some(self.expr(true))
        } else {
            None
        };
        if self.is_ident(0, "else") {
            self.bump();
            let _ = self.block(); // diverging else: contents not modeled
        }
        self.out.arena.push_stmt(Stmt::Let { names, ty, init })
    }

    /// Collect the binding names of a pattern, stopping at any of
    /// `stops` at bracket depth zero. Uppercase-initial idents
    /// (constructors) and keywords are not bindings.
    fn pattern_names(&mut self, stops: &[char]) -> Vec<String> {
        let mut names = Vec::new();
        let mut paren = 0i32;
        while let Some(t) = self.tok(0) {
            if self.at_op("=>") {
                break;
            }
            match t.kind {
                TokenKind::Punct => {
                    let c = t.text.chars().next().unwrap_or(' ');
                    match c {
                        '(' | '[' | '{' => paren += 1,
                        ')' | ']' | '}' => {
                            paren -= 1;
                            if paren < 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if paren <= 0 && stops.contains(&c) {
                        break;
                    }
                }
                TokenKind::Ident => {
                    let id = t.text.as_str();
                    let keyword = matches!(id, "mut" | "ref" | "box" | "_" | "in" | "if");
                    let ctor = id.starts_with(|ch: char| ch.is_ascii_uppercase());
                    // A lowercase ident followed by `::` or `(` is a
                    // path/call in a guard, not a binding.
                    let pathish = self.at_op_at(1, "::") || self.is_punct(1, '(');
                    if id == "in" || (id == "if" && paren == 0) {
                        break;
                    }
                    if !keyword && !ctor && !pathish && !names.contains(&id.to_string()) {
                        names.push(id.to_string());
                    }
                }
                _ => {}
            }
            self.bump();
        }
        names
    }

    /// Is the multi-char operator `want` at cursor offset `off`?
    fn at_op_at(&self, off: usize, want: &str) -> bool {
        let save = Parser {
            t: self.t,
            i: self.i + off,
            out: FileAst::default(),
            depth: 0,
        };
        save.at_op(want)
    }

    /// `if [let PAT =] cond { … } [else …]`; `if let` desugars to Match.
    fn if_stmt(&mut self) -> StmtId {
        self.bump(); // if
        if self.is_ident(0, "let") {
            self.bump();
            let names = self.pattern_names(&['=']);
            if self.is_punct(0, '=') {
                self.bump();
            }
            let scrutinee = self.expr(false);
            let then_blk = self.block();
            let mut arms = vec![(names, then_blk)];
            if self.is_ident(0, "else") {
                self.bump();
                let els = if self.is_ident(0, "if") {
                    let s = self.if_stmt();
                    Block { stmts: vec![s] }
                } else {
                    self.block()
                };
                arms.push((Vec::new(), els));
            }
            return self.out.arena.push_stmt(Stmt::Match { scrutinee, arms });
        }
        let cond = self.expr(false);
        let then_blk = self.block();
        let els = if self.is_ident(0, "else") {
            self.bump();
            if self.is_ident(0, "if") {
                let s = self.if_stmt();
                Some(Block { stmts: vec![s] })
            } else {
                Some(self.block())
            }
        } else {
            None
        };
        self.out.arena.push_stmt(Stmt::If {
            cond,
            then_blk,
            els,
        })
    }

    /// `while [let PAT =] cond { … }`.
    fn while_stmt(&mut self) -> StmtId {
        self.bump(); // while
        if self.is_ident(0, "let") {
            self.bump();
            let _ = self.pattern_names(&['=']);
            if self.is_punct(0, '=') {
                self.bump();
            }
        }
        let cond = self.expr(false);
        let body = self.block();
        self.out.arena.push_stmt(Stmt::While { cond, body })
    }

    /// `for PAT in iter { … }`.
    fn for_stmt(&mut self) -> StmtId {
        self.bump(); // for
        let names = self.pattern_names(&[]);
        if self.is_ident(0, "in") {
            self.bump();
        }
        let iter = self.expr(false);
        let body = self.block();
        self.out.arena.push_stmt(Stmt::For { names, iter, body })
    }

    /// `match scrutinee { PAT [| PAT] [if guard] => body, … }`.
    fn match_stmt(&mut self) -> StmtId {
        self.bump(); // match
        let scrutinee = self.expr(false);
        let mut arms = Vec::new();
        if self.is_punct(0, '{') {
            self.bump();
            while self.i < self.t.len() && !self.is_punct(0, '}') {
                while self.skip_attr() {}
                let names = self.pattern_names(&[]);
                // Skip a guard expression up to `=>`.
                while self.i < self.t.len() && !self.at_op("=>") && !self.is_punct(0, '}') {
                    if self.is_punct(0, '(') {
                        self.skip_group('(', ')');
                    } else if self.is_punct(0, '{') {
                        self.skip_group('{', '}');
                    } else {
                        self.bump();
                    }
                }
                if !self.at_op("=>") {
                    break;
                }
                self.bump_op("=>");
                let body = if self.is_punct(0, '{') {
                    self.block()
                } else {
                    let e = self.expr(true);
                    let s = self.out.arena.push_stmt(Stmt::Expr(e));
                    Block { stmts: vec![s] }
                };
                arms.push((names, body));
                if self.is_punct(0, ',') {
                    self.bump();
                }
            }
            if self.is_punct(0, '}') {
                self.bump();
            }
        }
        self.out.arena.push_stmt(Stmt::Match { scrutinee, arms })
    }

    // -- expressions ------------------------------------------------------

    /// Pratt expression parser. `allow_struct` gates `Path { … }`
    /// literals (conditions disallow them, like Rust itself).
    fn expr(&mut self, allow_struct: bool) -> ExprId {
        self.depth += 1;
        let e = if self.depth > 192 {
            let (l, c) = self.pos();
            self.out.arena.push_expr(ExprKind::Opaque, l, c)
        } else {
            self.assign_expr(allow_struct)
        };
        self.depth -= 1;
        e
    }

    fn assign_expr(&mut self, allow_struct: bool) -> ExprId {
        let (line, col) = self.pos();
        let lhs = self.range_expr(allow_struct);
        for op in ["<<=", ">>=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|="] {
            if self.at_op(op) {
                self.bump_op(op);
                let value = self.assign_expr(allow_struct);
                return self.out.arena.push_expr(
                    ExprKind::Assign {
                        op: op.into(),
                        target: lhs,
                        value,
                    },
                    line,
                    col,
                );
            }
        }
        if self.is_punct(0, '=') && !self.at_op("==") && !self.at_op("=>") {
            self.bump();
            let value = self.assign_expr(allow_struct);
            return self.out.arena.push_expr(
                ExprKind::Assign {
                    op: "=".into(),
                    target: lhs,
                    value,
                },
                line,
                col,
            );
        }
        lhs
    }

    fn range_expr(&mut self, allow_struct: bool) -> ExprId {
        let (line, col) = self.pos();
        // Prefix range `..end` / `..=end`.
        if self.at_op("..=") || self.at_op("..") {
            let op = if self.at_op("..=") { "..=" } else { ".." };
            self.bump_op(op);
            if self.range_operand_follows() {
                let _ = self.binary_expr(0, allow_struct);
            }
            return self.out.arena.push_expr(ExprKind::Opaque, line, col);
        }
        let lhs = self.binary_expr(0, allow_struct);
        if self.at_op("..=") || self.at_op("..") {
            let op = if self.at_op("..=") { "..=" } else { ".." };
            self.bump_op(op);
            if self.range_operand_follows() {
                let _ = self.binary_expr(0, allow_struct);
            }
            return self.out.arena.push_expr(ExprKind::Opaque, line, col);
        }
        lhs
    }

    fn range_operand_follows(&self) -> bool {
        match self.tok(0) {
            None => false,
            Some(t) if t.kind == TokenKind::Punct => !matches!(
                t.text.chars().next().unwrap_or(' '),
                ')' | ']' | '}' | ',' | ';' | '='
            ),
            Some(_) => true,
        }
    }

    /// Binary operators by precedence-climbing. `min_bp` is the minimum
    /// binding power to continue.
    fn binary_expr(&mut self, min_bp: u8, allow_struct: bool) -> ExprId {
        let (line, col) = self.pos();
        let mut lhs = self.unary_expr(allow_struct);
        loop {
            let (op, bp): (&str, u8) = if self.at_op("||") {
                ("||", 1)
            } else if self.at_op("&&") {
                ("&&", 2)
            } else if self.at_op("==") {
                ("==", 3)
            } else if self.at_op("!=") {
                ("!=", 3)
            } else if self.at_op("<=") {
                ("<=", 3)
            } else if self.at_op(">=") {
                (">=", 3)
            } else if self.is_punct(0, '<') && !self.at_op("<<") {
                ("<", 3)
            } else if self.is_punct(0, '>') && !self.at_op(">>") {
                (">", 3)
            } else if self.is_punct(0, '|') && !self.at_op("||") && !self.at_op("|=") {
                ("|", 4)
            } else if self.is_punct(0, '^') && !self.at_op("^=") {
                ("^", 5)
            } else if self.is_punct(0, '&') && !self.at_op("&&") && !self.at_op("&=") {
                ("&", 6)
            } else if self.at_op("<<") {
                ("<<", 7)
            } else if self.at_op(">>") {
                (">>", 7)
            } else if self.is_punct(0, '+') && !self.at_op("+=") {
                ("+", 8)
            } else if self.is_punct(0, '-') && !self.at_op("-=") && !self.at_op("->") {
                ("-", 8)
            } else if self.is_punct(0, '*') && !self.at_op("*=") {
                ("*", 9)
            } else if self.is_punct(0, '/') && !self.at_op("/=") {
                ("/", 9)
            } else if self.is_punct(0, '%') && !self.at_op("%=") {
                ("%", 9)
            } else {
                break;
            };
            if bp < min_bp {
                break;
            }
            if op.len() == 1 {
                self.bump();
            } else {
                self.bump_op(op);
            }
            let rhs = self.binary_expr(bp + 1, allow_struct);
            lhs = self.out.arena.push_expr(
                ExprKind::Binary {
                    op: op.into(),
                    lhs,
                    rhs,
                },
                line,
                col,
            );
        }
        lhs
    }

    fn unary_expr(&mut self, allow_struct: bool) -> ExprId {
        let (line, col) = self.pos();
        if self.is_punct(0, '&') && !self.at_op("&&") {
            self.bump();
            if self.is_ident(0, "mut") {
                self.bump();
            }
            let expr = self.unary_expr(allow_struct);
            return self
                .out
                .arena
                .push_expr(ExprKind::Unary { expr }, line, col);
        }
        if self.at_op("&&") {
            // `&&x` — two reference levels.
            self.bump_op("&&");
            let expr = self.unary_expr(allow_struct);
            return self
                .out
                .arena
                .push_expr(ExprKind::Unary { expr }, line, col);
        }
        if self.is_punct(0, '*') || self.is_punct(0, '!') || self.is_punct(0, '-') {
            self.bump();
            let expr = self.unary_expr(allow_struct);
            return self
                .out
                .arena
                .push_expr(ExprKind::Unary { expr }, line, col);
        }
        self.postfix_expr(allow_struct)
    }

    fn postfix_expr(&mut self, allow_struct: bool) -> ExprId {
        let (line, col) = self.pos();
        let mut e = self.primary_expr(allow_struct);
        loop {
            if self.is_punct(0, '?') {
                self.bump();
                continue;
            }
            if self.is_ident(0, "as") && self.i > 0 {
                self.bump();
                self.skip_cast_type();
                e = self
                    .out
                    .arena
                    .push_expr(ExprKind::Cast { expr: e }, line, col);
                continue;
            }
            if self.is_punct(0, '.') && !self.at_op("..") {
                self.bump();
                // `.await` (none in this workspace, but harmless).
                if self.is_ident(0, "await") {
                    self.bump();
                    continue;
                }
                // Tuple index `.0`.
                if let Some(t) = self.tok(0) {
                    if t.kind == TokenKind::Num {
                        let name = t.text.clone();
                        let (l, c) = (t.line, t.col);
                        self.bump();
                        e = self
                            .out
                            .arena
                            .push_expr(ExprKind::Field { base: e, name }, l, c);
                        continue;
                    }
                }
                let Some(name) = self.ident(0) else { continue };
                let name = name.to_string();
                let (l, c) = self.pos();
                self.bump();
                // Turbofish `::<…>`.
                if self.at_op("::") {
                    self.bump_op("::");
                    self.skip_angles();
                }
                if self.is_punct(0, '(') {
                    let args = self.call_args();
                    e = self.out.arena.push_expr(
                        ExprKind::MethodCall {
                            base: e,
                            name,
                            args,
                        },
                        l,
                        c,
                    );
                } else {
                    e = self
                        .out
                        .arena
                        .push_expr(ExprKind::Field { base: e, name }, l, c);
                }
                continue;
            }
            if self.is_punct(0, '(') {
                let args = self.call_args();
                let (l, c) = (line, col);
                e = self
                    .out
                    .arena
                    .push_expr(ExprKind::Call { callee: e, args }, l, c);
                continue;
            }
            if self.is_punct(0, '[') {
                self.bump();
                let index = self.expr(true);
                if self.is_punct(0, ']') {
                    self.bump();
                }
                e = self
                    .out
                    .arena
                    .push_expr(ExprKind::Index { base: e, index }, line, col);
                continue;
            }
            break;
        }
        e
    }

    /// Skip the type operand of `as` — conservative: idents, `::`, one
    /// angle group, and `&`/`*` prefixes.
    fn skip_cast_type(&mut self) {
        loop {
            if self.at_op("::") {
                self.bump_op("::");
                continue;
            }
            match self.tok(0) {
                Some(t) if t.kind == TokenKind::Ident => {
                    self.bump();
                    if self.is_punct(0, '<') {
                        self.skip_angles();
                    }
                    if !self.at_op("::") {
                        break;
                    }
                }
                // `&T`, or a raw pointer cast `as *const T`.
                Some(t)
                    if t.kind == TokenKind::Punct
                        && (t.text.starts_with('&') || t.text.starts_with('*')) =>
                {
                    self.bump();
                }
                _ => break,
            }
        }
    }

    /// `(a, b, …)` call arguments; the cursor is on `(`.
    fn call_args(&mut self) -> Vec<ExprId> {
        let mut args = Vec::new();
        self.bump(); // (
        while self.i < self.t.len() && !self.is_punct(0, ')') {
            let before = self.i;
            args.push(self.expr(true));
            // Consume the separator — or force progress on a token the
            // expression grammar refused (same recovery either way).
            if self.is_punct(0, ',') || self.i == before {
                self.bump();
            }
        }
        if self.is_punct(0, ')') {
            self.bump();
        }
        args
    }

    fn primary_expr(&mut self, allow_struct: bool) -> ExprId {
        let (line, col) = self.pos();
        let Some(t) = self.tok(0) else {
            return self.out.arena.push_expr(ExprKind::Opaque, line, col);
        };
        match t.kind {
            TokenKind::Num | TokenKind::Str | TokenKind::Char | TokenKind::Lifetime => {
                self.bump();
                self.out.arena.push_expr(ExprKind::Lit, line, col)
            }
            TokenKind::Punct if t.text.starts_with('(') || t.text.starts_with('[') => {
                let close = if t.text.starts_with('(') { ')' } else { ']' };
                self.bump();
                let mut elems = Vec::new();
                while self.i < self.t.len() && !self.is_punct(0, close) {
                    let before = self.i;
                    elems.push(self.expr(true));
                    // Separator, `[expr; N]` length marker, or forced
                    // progress past an unparseable token.
                    if self.is_punct(0, ',') || self.is_punct(0, ';') || self.i == before {
                        self.bump();
                    }
                }
                if self.is_punct(0, close) {
                    self.bump();
                }
                if elems.len() == 1 && close == ')' {
                    // Parenthesized expression: transparent.
                    elems.remove(0)
                } else {
                    self.out
                        .arena
                        .push_expr(ExprKind::Tuple { elems }, line, col)
                }
            }
            TokenKind::Punct if t.text.starts_with('{') => {
                let block = self.block();
                self.out
                    .arena
                    .push_expr(ExprKind::BlockExpr { block }, line, col)
            }
            TokenKind::Punct if t.text.starts_with('|') => self.closure_expr(line, col),
            TokenKind::Ident => self.ident_expr(line, col, allow_struct),
            _ => {
                self.bump();
                self.out.arena.push_expr(ExprKind::Opaque, line, col)
            }
        }
    }

    /// `|params| body` / `move |params| body` / `|| body`.
    fn closure_expr(&mut self, line: u32, col: u32) -> ExprId {
        if self.at_op("||") {
            self.bump_op("||");
        } else {
            self.bump(); // |
            let mut depth = 0i32;
            while self.i < self.t.len() {
                if self.is_punct(0, '(') || self.is_punct(0, '[') || self.is_punct(0, '<') {
                    depth += 1;
                } else if self.is_punct(0, ')') || self.is_punct(0, ']') || self.is_punct(0, '>') {
                    depth -= 1;
                } else if self.is_punct(0, '|') && depth <= 0 {
                    self.bump();
                    break;
                }
                self.bump();
            }
        }
        // Optional `-> Ty` before a braced body.
        if self.at_op("->") {
            self.bump_op("->");
            let _ = self.type_until(&['{']);
        }
        let body = self.expr(true);
        self.out
            .arena
            .push_expr(ExprKind::Closure { body }, line, col)
    }

    /// Identifier-led expression: path, call, struct literal, macro,
    /// closure (`move |…|`), or control-flow in expression position.
    fn ident_expr(&mut self, line: u32, col: u32, allow_struct: bool) -> ExprId {
        let head = self.ident(0).unwrap_or("").to_string();
        match head.as_str() {
            "if" | "match" | "loop" | "while" | "for" | "unsafe" => {
                // Control flow in expression position: parse its
                // statement form into a one-statement block.
                let s = match head.as_str() {
                    "if" => self.if_stmt(),
                    "match" => self.match_stmt(),
                    "while" => self.while_stmt(),
                    "for" => self.for_stmt(),
                    "unsafe" => {
                        self.bump();
                        let block = self.block();
                        let e = self
                            .out
                            .arena
                            .push_expr(ExprKind::BlockExpr { block }, line, col);
                        self.out.arena.push_stmt(Stmt::Expr(e))
                    }
                    _ => {
                        self.bump();
                        let body = self.block();
                        self.out.arena.push_stmt(Stmt::Loop { body })
                    }
                };
                let block = Block { stmts: vec![s] };
                return self
                    .out
                    .arena
                    .push_expr(ExprKind::BlockExpr { block }, line, col);
            }
            "move" if self.is_punct(1, '|') => {
                self.bump();
                return self.closure_expr(line, col);
            }
            "return" => {
                self.bump();
                let value =
                    if self.is_punct(0, ';') || self.is_punct(0, '}') || self.is_punct(0, ',') {
                        None
                    } else {
                        Some(self.expr(true))
                    };
                let s = self.out.arena.push_stmt(Stmt::Return(value));
                let block = Block { stmts: vec![s] };
                return self
                    .out
                    .arena
                    .push_expr(ExprKind::BlockExpr { block }, line, col);
            }
            "break" | "continue" => {
                self.bump();
                let s = self.out.arena.push_stmt(if head == "break" {
                    Stmt::Break
                } else {
                    Stmt::Continue
                });
                let block = Block { stmts: vec![s] };
                return self
                    .out
                    .arena
                    .push_expr(ExprKind::BlockExpr { block }, line, col);
            }
            _ => {}
        }
        // Path: seg (:: seg)* with optional `::<…>` turbofish segments.
        let mut segs = vec![head];
        self.bump();
        while self.at_op("::") {
            self.bump_op("::");
            if self.is_punct(0, '<') {
                self.skip_angles();
                continue;
            }
            match self.ident(0) {
                Some(seg) => {
                    segs.push(seg.to_string());
                    self.bump();
                }
                None => break,
            }
        }
        // Macro call: contents opaque.
        if self.is_punct(0, '!') && !self.at_op("!=") {
            self.bump();
            if self.is_punct(0, '(') {
                self.skip_group('(', ')');
            } else if self.is_punct(0, '[') {
                self.skip_group('[', ']');
            } else if self.is_punct(0, '{') {
                self.skip_group('{', '}');
            }
            return self.out.arena.push_expr(ExprKind::MacroCall, line, col);
        }
        // Struct literal: `Path { field: value, … }` — only when the
        // context allows it and the head looks like a type.
        let typeish = segs
            .last()
            .is_some_and(|s| s.starts_with(|c: char| c.is_ascii_uppercase()));
        if allow_struct && typeish && self.is_punct(0, '{') && !self.struct_lit_is_block() {
            let path = segs.last().cloned().unwrap_or_default();
            let fields = self.struct_lit_fields();
            return self
                .out
                .arena
                .push_expr(ExprKind::StructLit { path, fields }, line, col);
        }
        self.out.arena.push_expr(ExprKind::Path(segs), line, col)
    }

    /// Heuristic: `Type {` followed immediately by `}` or `ident:` or
    /// `ident,`/`ident}` (shorthand) or `..` is a struct literal; other
    /// brace contents mean a block (e.g. `match x { … }` arms).
    fn struct_lit_is_block(&self) -> bool {
        if self.is_punct(1, '}') {
            return false; // `Type {}`
        }
        if self.at_op_at(1, "..") {
            return false; // `Type { ..default }`
        }
        match self.ident(1) {
            Some(_) => {
                !(self.is_punct(2, ':') || self.is_punct(2, ',') || self.is_punct(2, '}'))
                    || self.at_op_at(2, "::")
            }
            None => true,
        }
    }

    /// Fields of a struct literal; the cursor is on `{`.
    fn struct_lit_fields(&mut self) -> Vec<(String, ExprId)> {
        let mut fields = Vec::new();
        self.bump(); // {
        while self.i < self.t.len() && !self.is_punct(0, '}') {
            if self.at_op("..") {
                // Functional update `..base`.
                self.bump_op("..");
                let _ = self.expr(true);
                continue;
            }
            let Some(name) = self.ident(0) else {
                self.bump();
                continue;
            };
            let name = name.to_string();
            let (l, c) = self.pos();
            self.bump();
            let value = if self.is_punct(0, ':') && !self.at_op("::") {
                self.bump();
                self.expr(true)
            } else {
                // Shorthand `Transfer { start, done }`.
                self.out
                    .arena
                    .push_expr(ExprKind::Path(vec![name.clone()]), l, c)
            };
            fields.push((name, value));
            if self.is_punct(0, ',') {
                self.bump();
            }
        }
        if self.is_punct(0, '}') {
            self.bump();
        }
        fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse_src(src: &str) -> FileAst {
        let toks = tokenize(src);
        let filtered: Vec<&Token> = toks.iter().filter(|t| !t.is_comment()).collect();
        parse(&filtered)
    }

    #[test]
    fn fn_signature_and_body() {
        let ast = parse_src("fn f(a: u64, b: Picos) -> Picos { let c = a + 1; b }");
        assert_eq!(ast.fns.len(), 1);
        let f = &ast.fns[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[1].ty, "Picos");
        assert_eq!(f.ret_ty, "Picos");
        assert_eq!(f.body.stmts.len(), 2);
    }

    #[test]
    fn struct_fields_collected() {
        let ast = parse_src("pub struct T { pub a: Picos, b: Option<u64> }");
        assert_eq!(ast.fields.len(), 2);
        assert_eq!(ast.fields[0].ty, "Picos");
        assert_eq!(ast.fields[1].ty, "Option < u64 >");
    }

    #[test]
    fn control_flow_statements() {
        let ast = parse_src(
            "fn f(x: u64) { if x > 1 { return; } while x < 2 { } loop { break; } \
             for i in 0..x { } match x { 0 => {}, n => { let _ = n; } } }",
        );
        let f = &ast.fns[0];
        let kinds: Vec<&Stmt> = f.body.stmts.iter().map(|&s| ast.arena.stmt(s)).collect();
        assert!(matches!(kinds[0], Stmt::If { .. }));
        assert!(matches!(kinds[1], Stmt::While { .. }));
        assert!(matches!(kinds[2], Stmt::Loop { .. }));
        assert!(matches!(kinds[3], Stmt::For { .. }));
        assert!(matches!(kinds[4], Stmt::Match { .. }));
    }

    #[test]
    fn match_arms_carry_bindings() {
        let ast = parse_src(
            "fn f(x: Option<u64>) { match x { Some(ps) => { let _ = ps; }, None => {} } }",
        );
        let f = &ast.fns[0];
        let Stmt::Match { arms, .. } = ast.arena.stmt(f.body.stmts[0]) else {
            panic!("expected match");
        };
        assert_eq!(arms[0].0, vec!["ps".to_string()]);
        assert!(arms[1].0.is_empty());
    }

    #[test]
    fn method_chains_and_casts() {
        let ast = parse_src("fn f(p: Picos) -> u64 { (p.0 as u64).max(1) }");
        let f = &ast.fns[0];
        let Stmt::Expr(e) = ast.arena.stmt(f.body.stmts[0]) else {
            panic!("expected expr");
        };
        let ExprKind::MethodCall { base, name, .. } = &ast.arena.expr(*e).kind else {
            panic!("expected method call, got {:?}", ast.arena.expr(*e).kind);
        };
        assert_eq!(name, "max");
        assert!(matches!(ast.arena.expr(*base).kind, ExprKind::Cast { .. }));
    }

    #[test]
    fn struct_literals_and_shorthand() {
        let ast = parse_src("fn f(start: Picos, done: Picos) -> T { Transfer { start, done } }");
        let f = &ast.fns[0];
        let Stmt::Expr(e) = ast.arena.stmt(f.body.stmts[0]) else {
            panic!("expected expr");
        };
        let ExprKind::StructLit { path, fields } = &ast.arena.expr(*e).kind else {
            panic!("expected struct literal, got {:?}", ast.arena.expr(*e).kind);
        };
        assert_eq!(path, "Transfer");
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn closures_parse_into_bodies() {
        let ast = parse_src("fn f() { let g = |k: usize| { k + 1 }; spawn(move || loop { }); }");
        assert_eq!(ast.fns.len(), 1);
        let f = &ast.fns[0];
        assert_eq!(f.body.stmts.len(), 2);
        let Stmt::Let { init: Some(e), .. } = ast.arena.stmt(f.body.stmts[0]) else {
            panic!("expected let with init");
        };
        assert!(matches!(ast.arena.expr(*e).kind, ExprKind::Closure { .. }));
    }

    #[test]
    fn macros_are_opaque() {
        let ast = parse_src("fn f() { assert!(SystemTime::now() > 0); format!(\"{}\", x); }");
        let f = &ast.fns[0];
        for &s in &f.body.stmts {
            let Stmt::Expr(e) = ast.arena.stmt(s) else {
                panic!("expected expr stmt");
            };
            assert!(matches!(ast.arena.expr(*e).kind, ExprKind::MacroCall));
        }
    }

    #[test]
    fn if_let_desugars_to_match() {
        let ast = parse_src("fn f(x: Option<u64>) { if let Some(v) = x { let _ = v; } }");
        let f = &ast.fns[0];
        let Stmt::Match { arms, .. } = ast.arena.stmt(f.body.stmts[0]) else {
            panic!("expected desugared match");
        };
        assert_eq!(arms[0].0, vec!["v".to_string()]);
    }

    #[test]
    fn never_panics_on_garbage() {
        for src in [
            "fn f( {",
            "fn f() { let = ; }",
            "struct S { x: }",
            "fn f() { a.b.c(((((((",
            "impl X for Y { fn g() { match } }",
            "fn f() { |x| }",
        ] {
            let _ = parse_src(src);
        }
    }
}
