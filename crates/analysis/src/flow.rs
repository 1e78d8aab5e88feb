//! The dataflow rules: unit consistency and nondeterminism taint over
//! the parsed AST and per-function CFGs.
//!
//! These passes run on every non-test file, after the token passes in
//! [`crate::rules`]. They are built to be conservative in the *non-flagging* direction: anything the parser or
//! the inference cannot understand has no unit domain and carries no
//! taint, so an imprecise analysis produces silence, never noise. The
//! acceptance bar is zero findings on the live workspace with every bad
//! fixture still caught.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{self, Arena, Block, ExprId, ExprKind, FileAst, Stmt, StmtId};
use crate::cfg::{self, Event};
use crate::dataflow;
use crate::diag::{Diagnostic, RuleId, WaiverStatus};
use crate::lexer::Token;
use crate::FileClass;

/// Run every dataflow pass that applies to this non-test file. `toks`
/// is the comment-free, test-mask-free token view (the same stream the
/// token passes use).
pub fn run(rel: &str, class: &FileClass, toks: &[&Token], diags: &mut Vec<Diagnostic>) {
    let ast = ast::parse(toks);
    if class.unit_checked {
        unit_pass(rel, &ast, diags);
    }
    if class.is_lib {
        taint_pass(rel, &ast, diags);
    }
}

fn diag(rel: &str, line: u32, col: u32, rule: RuleId, message: String) -> Diagnostic {
    Diagnostic {
        file: rel.to_string(),
        line,
        col,
        rule,
        message,
        waiver: WaiverStatus::None,
    }
}

// ---------------------------------------------------------------------------
// Unit-consistency
// ---------------------------------------------------------------------------

/// A quantity's unit, as far as names and declarations reveal it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Domain {
    /// Simulated picoseconds (the `Picos` newtype, `_ps` names).
    Ps,
    /// Nanoseconds.
    Ns,
    /// Microseconds.
    Us,
    /// Milliseconds.
    Ms,
    /// Seconds.
    Sec,
    /// Processor cycles.
    Cycles,
    /// Bytes.
    Bytes,
    /// Memory references.
    Refs,
}

impl Domain {
    fn name(self) -> &'static str {
        match self {
            Domain::Ps => "picoseconds",
            Domain::Ns => "nanoseconds",
            Domain::Us => "microseconds",
            Domain::Ms => "milliseconds",
            Domain::Sec => "seconds",
            Domain::Cycles => "cycles",
            Domain::Bytes => "bytes",
            Domain::Refs => "references",
        }
    }
}

/// Cross-file vocabulary: field/variable names whose unit the workspace
/// fixes by convention (`BankTiming`, `SystemConfig`, the engine's
/// clock). Per-file declarations override these.
const UNIT_VOCAB: [(&str, Domain); 7] = [
    ("quantum_time", Domain::Ps),
    ("t_rp", Domain::Ps),
    ("t_rcd", Domain::Ps),
    ("t_cas", Domain::Ps),
    ("busy_until", Domain::Ps),
    ("quantum_refs", Domain::Refs),
    ("unit_bytes", Domain::Bytes),
];

/// Methods whose operands must share a unit (order/difference
/// preserving); the result keeps the receiver's unit.
const SAME_UNIT_METHODS: [&str; 9] = [
    "max",
    "min",
    "saturating_add",
    "saturating_sub",
    "wrapping_add",
    "wrapping_sub",
    "checked_add",
    "checked_sub",
    "abs_diff",
];

/// Methods transparent to unit inference: the result keeps the
/// receiver's unit.
const IDENTITY_METHODS: [&str; 8] = [
    "clone",
    "copied",
    "cloned",
    "to_owned",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap",
    "expect",
];

/// Unit-suffix inference from a snake_case name: the name's trailing
/// segments name the unit (`t_ns`, `budget_ms`, `slice_ps`, bare `ps`).
/// Rate names (`bytes_per_ms`) carry a *ratio* of units, not a unit, and
/// are never inferred.
fn suffix_domain(name: &str) -> Option<Domain> {
    if name.split('_').any(|seg| seg == "per") {
        return None;
    }
    let last = name.rsplit('_').next().unwrap_or(name);
    match last {
        "ps" | "picos" => Some(Domain::Ps),
        "ns" | "nanos" => Some(Domain::Ns),
        "us" | "micros" => Some(Domain::Us),
        "ms" | "millis" => Some(Domain::Ms),
        "sec" | "secs" | "seconds" => Some(Domain::Sec),
        "cycles" => Some(Domain::Cycles),
        "bytes" => Some(Domain::Bytes),
        "refs" => Some(Domain::Refs),
        _ => None,
    }
}

/// Unit from a declared type string (`Picos`, `Option < Picos >`).
fn type_domain(ty: &str) -> Option<Domain> {
    if ty.split_whitespace().any(|t| t == "Picos") {
        Some(Domain::Ps)
    } else {
        None
    }
}

/// Is a declared type a raw machine integer (possibly behind `Option`)?
fn is_raw_int(ty: &str) -> bool {
    let parts: Vec<&str> = ty
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|s| !s.is_empty())
        .collect();
    let ints = ["u64", "u32", "u16", "usize", "i64", "i32", "isize"];
    match parts.as_slice() {
        [one] => ints.contains(one),
        ["Option", inner] => ints.contains(inner),
        _ => false,
    }
}

/// Name segments that mark a quantity as simulated/wall time for the
/// declaration check (`quantum_time`, `slice_ps`, …). Rates
/// (`bytes_per_ms`) are ratios, not times.
fn time_named(name: &str) -> bool {
    let segs: Vec<&str> = name.split('_').collect();
    !segs.contains(&"per")
        && segs
            .iter()
            .any(|seg| matches!(*seg, "ps" | "ns" | "us" | "ms" | "time" | "picos" | "nanos"))
}

struct UnitCtx<'a> {
    rel: &'a str,
    arena: &'a Arena,
    /// Field name → unit, from this file's struct declarations
    /// (conflicting declarations drop the name).
    fields: BTreeMap<String, Domain>,
    /// Function name → unit of its return type, when declared `Picos`.
    fn_ret: BTreeMap<String, Domain>,
    /// Parameter name → unit for the function being analyzed.
    params: BTreeMap<String, Domain>,
    /// Emit diagnostics (final pass) or stay silent (fixpoint rounds).
    emit: bool,
    /// Sites already reported, to dedupe across blocks.
    seen: BTreeSet<(u32, u32)>,
    out: Vec<Diagnostic>,
}

type UnitEnv = BTreeMap<String, Domain>;

/// The unit-consistency pass: declaration hygiene plus flow-sensitive
/// mixed-unit arithmetic detection.
fn unit_pass(rel: &str, ast: &FileAst, diags: &mut Vec<Diagnostic>) {
    // Declaration check: a field named like a time quantity must not be
    // a raw integer — wrap it in the `Picos` newtype.
    for f in &ast.fields {
        if time_named(&f.name) && is_raw_int(&f.ty) {
            diags.push(diag(
                rel,
                f.line,
                f.col,
                RuleId::UnitMix,
                format!(
                    "field `{}: {}` declares a time quantity as a raw integer — wrap it in \
                     the `Picos` newtype so the unit survives arithmetic",
                    f.name,
                    f.ty.replace(' ', "")
                ),
            ));
        }
    }

    // Per-file field and return-type vocabulary.
    let mut fields: BTreeMap<String, Domain> = BTreeMap::new();
    let mut dropped: BTreeSet<String> = BTreeSet::new();
    for f in &ast.fields {
        let d = type_domain(&f.ty).or_else(|| suffix_domain(&f.name));
        if let Some(d) = d {
            match fields.get(&f.name) {
                Some(&prev) if prev != d => {
                    dropped.insert(f.name.clone());
                }
                _ => {
                    fields.insert(f.name.clone(), d);
                }
            }
        }
    }
    for name in dropped {
        fields.remove(&name);
    }
    let mut fn_ret = BTreeMap::new();
    for f in &ast.fns {
        if let Some(d) = type_domain(&f.ret_ty) {
            fn_ret.insert(f.name.clone(), d);
        }
    }

    for f in &ast.fns {
        let mut params = BTreeMap::new();
        for p in &f.params {
            if let Some(d) = type_domain(&p.ty).or_else(|| suffix_domain(&p.name)) {
                params.insert(p.name.clone(), d);
            }
        }
        let mut ctx = UnitCtx {
            rel,
            arena: &ast.arena,
            fields: fields.clone(),
            fn_ret: fn_ret.clone(),
            params,
            emit: false,
            seen: BTreeSet::new(),
            out: Vec::new(),
        };
        let graph = cfg::build(&ast.arena, &f.body);
        let entries = dataflow::forward(
            &graph,
            UnitEnv::new(),
            unit_join,
            |ev, env: &mut UnitEnv| ctx.transfer(ev, env),
        );
        ctx.emit = true;
        for (bix, blk) in graph.blocks.iter().enumerate() {
            let mut env = entries.get(bix).cloned().unwrap_or_default();
            for ev in &blk.events {
                ctx.transfer(ev, &mut env);
            }
        }
        diags.append(&mut ctx.out);
    }
}

/// Join unit environments: a variable keeps its unit only where every
/// incoming path agrees.
fn unit_join(acc: &mut UnitEnv, inc: &UnitEnv) {
    acc.retain(|k, v| inc.get(k) == Some(v));
}

impl<'a> UnitCtx<'a> {
    fn transfer(&mut self, ev: &Event, env: &mut UnitEnv) {
        match ev {
            Event::Stmt(sid) => self.stmt(*sid, env),
            Event::Cond(eid) => {
                let _ = self.infer(*eid, env);
            }
            Event::ArmBind { stmt, arm } => match self.arena.stmt(*stmt) {
                Stmt::Match { scrutinee, arms } => {
                    let d = self.infer(*scrutinee, env);
                    if let Some((names, _)) = arms.get(*arm) {
                        bind_names(env, names, d);
                    }
                }
                Stmt::For { names, .. } => {
                    // Iterating a collection loses element units; clear.
                    bind_names(env, names, None);
                }
                _ => {}
            },
        }
    }

    fn stmt(&mut self, sid: StmtId, env: &mut UnitEnv) {
        match self.arena.stmt(sid) {
            Stmt::Let {
                names, ty, init, ..
            } => {
                let declared = ty.as_deref().and_then(type_domain);
                let inferred = init.map(|e| self.infer(e, env)).unwrap_or(None);
                let d = declared.or(inferred);
                bind_names(env, names, d);
            }
            Stmt::Expr(e) => {
                let _ = self.infer(*e, env);
            }
            Stmt::Return(Some(e)) => {
                let _ = self.infer(*e, env);
            }
            _ => {}
        }
    }

    /// Infer the unit of an expression, checking same-unit operations
    /// along the way. `None` means unknown — compatible with anything.
    fn infer(&mut self, eid: ExprId, env: &mut UnitEnv) -> Option<Domain> {
        let e = self.arena.expr(eid);
        match &e.kind {
            ExprKind::Lit | ExprKind::MacroCall | ExprKind::Opaque => None,
            ExprKind::Path(segs) => match segs.as_slice() {
                [name] => env
                    .get(name)
                    .copied()
                    .or_else(|| self.params.get(name).copied())
                    .or_else(|| vocab_domain(name))
                    .or_else(|| suffix_domain(name)),
                [.., last] => suffix_domain(&last.to_ascii_lowercase()),
                [] => None,
            },
            ExprKind::Field { base, name } => {
                let base_d = self.infer(*base, env);
                if name == "0" {
                    // Newtype projection (`picos.0`) keeps the unit.
                    return base_d;
                }
                self.fields
                    .get(name)
                    .copied()
                    .or_else(|| vocab_domain(name))
                    .or_else(|| suffix_domain(name))
            }
            ExprKind::Cast { expr, .. } => self.infer(*expr, env),
            ExprKind::Unary { expr } => self.infer(*expr, env),
            ExprKind::Binary { op, lhs, rhs } => {
                let (le, re) = (*lhs, *rhs);
                let l = self.infer(le, env);
                let r = self.infer(re, env);
                match op.as_str() {
                    "+" | "-" | "%" | "==" | "!=" | "<" | ">" | "<=" | ">=" => {
                        self.check_pair(e.line, e.col, op, l, r);
                        if matches!(op.as_str(), "+" | "-" | "%") {
                            l.or(r)
                        } else {
                            None // comparisons yield bool
                        }
                    }
                    // Multiplication/division change the unit.
                    _ => None,
                }
            }
            ExprKind::Assign { op, target, value } => {
                let (te, ve) = (*target, *value);
                let t = self.lvalue_domain(te, env);
                let v = self.infer(ve, env);
                if matches!(op.as_str(), "=" | "+=" | "-=" | "%=") && op != "=" {
                    self.check_pair(e.line, e.col, op, t, v);
                }
                if op == "=" {
                    self.check_pair(e.line, e.col, op, t, v);
                    if let ExprKind::Path(segs) = &self.arena.expr(te).kind {
                        if let [name] = segs.as_slice() {
                            match v {
                                Some(d) => {
                                    env.insert(name.clone(), d);
                                }
                                None => {
                                    env.remove(name);
                                }
                            }
                        }
                    }
                }
                None
            }
            ExprKind::MethodCall { base, name, args } => {
                let (be, nm) = (*base, name.clone());
                let argv = args.clone();
                let b = self.infer(be, env);
                let mut arg_ds = Vec::new();
                for &a in &argv {
                    arg_ds.push(self.infer(a, env));
                }
                if SAME_UNIT_METHODS.contains(&nm.as_str()) {
                    if let Some(&a0) = arg_ds.first() {
                        self.check_pair(e.line, e.col, &nm, b, a0);
                        return b.or(a0);
                    }
                    return b;
                }
                if IDENTITY_METHODS.contains(&nm.as_str()) {
                    return b;
                }
                // Conversion methods: `as_nanos_f64` → nanoseconds,
                // `cycles_ceil` → cycles, `wall_ms`-style suffixes.
                method_result_domain(&nm)
            }
            ExprKind::Call { callee, args } => {
                let (ce, argv) = (*callee, args.clone());
                let mut arg_ds = Vec::new();
                for &a in &argv {
                    arg_ds.push(self.infer(a, env));
                }
                if let ExprKind::Path(segs) = &self.arena.expr(ce).kind {
                    let segs = segs.clone();
                    if let Some(last) = segs.last() {
                        // `Picos(raw)` constructor: the argument must be
                        // picoseconds (or unknown), and the result is.
                        if last == "Picos" {
                            if let Some(&a0) = arg_ds.first() {
                                self.check_expected(e.line, e.col, "Picos(..)", Domain::Ps, a0);
                            }
                            return Some(Domain::Ps);
                        }
                        // `Picos::from_nanos(x)` and friends: the
                        // argument's unit is named by the constructor.
                        if segs.len() >= 2 && segs[segs.len() - 2] == "Picos" {
                            let expected = match last.as_str() {
                                "from_nanos" => Some(Domain::Ns),
                                "from_micros" => Some(Domain::Us),
                                "from_millis" => Some(Domain::Ms),
                                _ => None,
                            };
                            if let (Some(exp), Some(&a0)) = (expected, arg_ds.first()) {
                                self.check_expected(e.line, e.col, last, exp, a0);
                                return Some(Domain::Ps);
                            }
                            if last == "from_nanos"
                                || last == "from_micros"
                                || last == "from_millis"
                            {
                                return Some(Domain::Ps);
                            }
                        }
                        if let Some(&d) = self.fn_ret.get(last) {
                            return Some(d);
                        }
                        return method_result_domain(last);
                    }
                }
                None
            }
            ExprKind::StructLit { path, fields } => {
                let fs = fields.clone();
                for (fname, fval) in &fs {
                    let v = self.infer(*fval, env);
                    let declared = self
                        .fields
                        .get(fname)
                        .copied()
                        .or_else(|| vocab_domain(fname));
                    if let Some(d) = declared {
                        let fe = self.arena.expr(*fval);
                        self.check_expected(fe.line, fe.col, &format!("{path}.{fname}"), d, v);
                    }
                }
                None
            }
            ExprKind::BlockExpr { block } => {
                let blk = block.clone();
                self.block_tail(&blk, env)
            }
            ExprKind::Closure { body } => {
                let b = *body;
                let _ = self.infer(b, env);
                None
            }
            ExprKind::Tuple { elems } => {
                let es = elems.clone();
                for &el in &es {
                    let _ = self.infer(el, env);
                }
                None
            }
            ExprKind::Index { base, index } => {
                let (b, ix) = (*base, *index);
                let _ = self.infer(ix, env);
                self.infer(b, env)
            }
        }
    }

    /// Walk a block in expression position: side-effect every statement
    /// and return the tail expression's unit (joined across branches).
    fn block_tail(&mut self, blk: &Block, env: &mut UnitEnv) -> Option<Domain> {
        let mut tail = None;
        for (ix, &sid) in blk.stmts.iter().enumerate() {
            let last = ix + 1 == blk.stmts.len();
            match self.arena.stmt(sid) {
                Stmt::Expr(e) if last => {
                    tail = self.infer(*e, env);
                }
                Stmt::If {
                    cond,
                    then_blk,
                    els,
                } if last => {
                    let (c, tb, eb) = (*cond, then_blk.clone(), els.clone());
                    let _ = self.infer(c, env);
                    let mut then_env = env.clone();
                    let a = self.block_tail(&tb, &mut then_env);
                    let b = match eb {
                        Some(eb) => {
                            let mut else_env = env.clone();
                            self.block_tail(&eb, &mut else_env)
                        }
                        None => None,
                    };
                    tail = if a == b { a } else { None };
                }
                Stmt::Match { scrutinee, arms } if last => {
                    let (sc, arms) = (*scrutinee, arms.clone());
                    let d = self.infer(sc, env);
                    let mut agreed: Option<Option<Domain>> = None;
                    for (names, body) in &arms {
                        let mut arm_env = env.clone();
                        bind_names(&mut arm_env, names, d);
                        let t = self.block_tail(body, &mut arm_env);
                        agreed = match agreed {
                            None => Some(t),
                            Some(prev) if prev == t => Some(prev),
                            Some(_) => Some(None),
                        };
                    }
                    tail = agreed.flatten();
                }
                _ => {
                    self.stmt(sid, env);
                    tail = None;
                }
            }
        }
        tail
    }

    /// The unit of an assignment target, without treating it as a read.
    fn lvalue_domain(&mut self, eid: ExprId, env: &mut UnitEnv) -> Option<Domain> {
        match &self.arena.expr(eid).kind {
            ExprKind::Path(segs) => match segs.as_slice() {
                [name] => env
                    .get(name)
                    .copied()
                    .or_else(|| self.params.get(name).copied())
                    .or_else(|| suffix_domain(name)),
                _ => None,
            },
            _ => self.infer(eid, env),
        }
    }

    /// Two operands of a same-unit operation must agree.
    fn check_pair(&mut self, line: u32, col: u32, op: &str, l: Option<Domain>, r: Option<Domain>) {
        if let (Some(a), Some(b)) = (l, r) {
            if a != b {
                self.report(
                    line,
                    col,
                    format!(
                        "`{op}` mixes {} with {} — convert one side explicitly (units do \
                         not survive raw integer arithmetic)",
                        a.name(),
                        b.name()
                    ),
                );
            }
        }
    }

    /// An operand with a fixed expected unit (constructor arguments,
    /// struct fields) must match it.
    fn check_expected(
        &mut self,
        line: u32,
        col: u32,
        what: &str,
        expected: Domain,
        got: Option<Domain>,
    ) {
        if let Some(g) = got {
            if g != expected {
                self.report(
                    line,
                    col,
                    format!(
                        "`{what}` expects {} but the value is {} — convert it explicitly",
                        expected.name(),
                        g.name()
                    ),
                );
            }
        }
    }

    fn report(&mut self, line: u32, col: u32, message: String) {
        if !self.emit || !self.seen.insert((line, col)) {
            return;
        }
        self.out
            .push(diag(self.rel, line, col, RuleId::UnitMix, message));
    }
}

/// The unit a method/function's *result* carries, inferred from its
/// name (`as_nanos_f64` → nanoseconds, `cycles_ceil` → cycles,
/// `wall_ms` → milliseconds). The *last* unit segment wins, so
/// conversion names like `cycles_to_secs` yield the target unit.
/// Constructor-style `from_*` names are not inferred this way: their
/// suffix names the *argument's* unit.
fn method_result_domain(name: &str) -> Option<Domain> {
    if name.starts_with("from_") {
        return None;
    }
    name.split('_').rev().find_map(|seg| match seg {
        "ps" | "picos" => Some(Domain::Ps),
        "ns" | "nanos" => Some(Domain::Ns),
        "us" | "micros" => Some(Domain::Us),
        "ms" | "millis" => Some(Domain::Ms),
        "sec" | "secs" | "seconds" => Some(Domain::Sec),
        "cycles" => Some(Domain::Cycles),
        _ => None,
    })
}

fn vocab_domain(name: &str) -> Option<Domain> {
    UNIT_VOCAB.iter().find(|(n, _)| *n == name).map(|&(_, d)| d)
}

fn bind_names(env: &mut UnitEnv, names: &[String], d: Option<Domain>) {
    match (names, d) {
        ([one], Some(d)) => {
            env.insert(one.clone(), d);
        }
        _ => {
            for n in names {
                env.remove(n);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Nondeterminism taint
// ---------------------------------------------------------------------------

/// Struct literals whose fields must never hold wall-clock-derived
/// values: these are the payloads serialized into `cells.json` /
/// `journal.jsonl` `done` records and compared bit-for-bit on replay.
const TAINT_SINK_STRUCTS: [&str; 2] = ["Cell", "FrozenCell"];

/// Calls whose arguments must be deterministic: the simulation entry
/// points (their inputs decide simulated results) and fingerprinting.
const TAINT_SINK_CALLS: [&str; 3] = ["run_config", "run_config_traced", "fingerprint"];

type TaintEnv = BTreeSet<String>;

struct TaintCtx<'a> {
    rel: &'a str,
    arena: &'a Arena,
    emit: bool,
    seen: BTreeSet<(u32, u32)>,
    out: Vec<Diagnostic>,
}

/// The taint pass: wall-clock/env/thread-identity values must not flow
/// into simulated state, fingerprints, or serialized cell payloads.
fn taint_pass(rel: &str, ast: &FileAst, diags: &mut Vec<Diagnostic>) {
    for f in &ast.fns {
        let mut ctx = TaintCtx {
            rel,
            arena: &ast.arena,
            emit: false,
            seen: BTreeSet::new(),
            out: Vec::new(),
        };
        let graph = cfg::build(&ast.arena, &f.body);
        let entries = dataflow::forward(
            &graph,
            TaintEnv::new(),
            |acc: &mut TaintEnv, inc: &TaintEnv| {
                for v in inc {
                    acc.insert(v.clone());
                }
            },
            |ev, env: &mut TaintEnv| ctx.transfer(ev, env),
        );
        ctx.emit = true;
        for (bix, blk) in graph.blocks.iter().enumerate() {
            let mut env = entries.get(bix).cloned().unwrap_or_default();
            for ev in &blk.events {
                ctx.transfer(ev, &mut env);
            }
        }
        diags.append(&mut ctx.out);
    }
}

impl<'a> TaintCtx<'a> {
    fn transfer(&mut self, ev: &Event, env: &mut TaintEnv) {
        match ev {
            Event::Stmt(sid) => self.stmt(*sid, env),
            Event::Cond(eid) => {
                let _ = self.tainted(*eid, env);
            }
            Event::ArmBind { stmt, arm } => {
                if let Stmt::Match { scrutinee, arms } = self.arena.stmt(*stmt) {
                    let t = self.tainted(*scrutinee, env);
                    if let Some((names, _)) = arms.get(*arm) {
                        for n in names {
                            if t {
                                env.insert(n.clone());
                            } else {
                                env.remove(n);
                            }
                        }
                    }
                }
            }
        }
    }

    fn stmt(&mut self, sid: StmtId, env: &mut TaintEnv) {
        match self.arena.stmt(sid) {
            Stmt::Let { names, init, .. } => {
                let t = init.map(|e| self.tainted(e, env)).unwrap_or(false);
                for n in names {
                    if t {
                        env.insert(n.clone());
                    } else {
                        env.remove(n);
                    }
                }
            }
            Stmt::Expr(e) | Stmt::Return(Some(e)) => {
                let _ = self.tainted(*e, env);
            }
            _ => {}
        }
    }

    /// Is this expression wall-clock/env/thread-identity derived? Sink
    /// checks fire as a side effect.
    fn tainted(&mut self, eid: ExprId, env: &mut TaintEnv) -> bool {
        let e = self.arena.expr(eid);
        match &e.kind {
            ExprKind::Lit | ExprKind::MacroCall | ExprKind::Opaque => false,
            ExprKind::Path(segs) => {
                matches!(segs.as_slice(), [name] if env.contains(name))
                    || segs.iter().any(|s| s == "SystemTime")
            }
            ExprKind::Field { base, .. } => self.tainted(*base, env),
            ExprKind::Cast { expr, .. } | ExprKind::Unary { expr } => self.tainted(*expr, env),
            ExprKind::Binary { lhs, rhs, .. } => {
                let (l, r) = (*lhs, *rhs);
                let a = self.tainted(l, env);
                let b = self.tainted(r, env);
                a || b
            }
            ExprKind::Assign { target, value, .. } => {
                let (te, ve) = (*target, *value);
                let t = self.tainted(ve, env);
                if let ExprKind::Path(segs) = &self.arena.expr(te).kind {
                    if let [name] = segs.as_slice() {
                        if t {
                            env.insert(name.clone());
                        } else {
                            env.remove(name);
                        }
                    }
                }
                t
            }
            ExprKind::MethodCall { base, args, .. } => {
                let (b, argv) = (*base, args.clone());
                let mut t = self.tainted(b, env);
                for &a in &argv {
                    t |= self.tainted(a, env);
                }
                t
            }
            ExprKind::Call { callee, args } => {
                let (ce, argv) = (*callee, args.clone());
                let mut arg_taint = Vec::new();
                for &a in &argv {
                    arg_taint.push((a, self.tainted(a, env)));
                }
                let source = match &self.arena.expr(ce).kind {
                    ExprKind::Path(segs) => taint_source(segs),
                    _ => false,
                };
                if let ExprKind::Path(segs) = &self.arena.expr(ce).kind {
                    if let Some(last) = segs.last() {
                        if TAINT_SINK_CALLS.contains(&last.as_str()) {
                            let last = last.clone();
                            for &(a, t) in &arg_taint {
                                if t {
                                    let ae = self.arena.expr(a);
                                    self.report(
                                        ae.line,
                                        ae.col,
                                        format!(
                                            "wall-clock-derived value passed to `{last}` — \
                                             deterministic inputs only; keep timing in \
                                             progress/telemetry channels"
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
                source || arg_taint.iter().any(|&(_, t)| t)
            }
            ExprKind::StructLit { path, fields } => {
                let (p, fs) = (path.clone(), fields.clone());
                let mut any = false;
                for (fname, fval) in &fs {
                    let t = self.tainted(*fval, env);
                    any |= t;
                    if t && (TAINT_SINK_STRUCTS.contains(&p.as_str()) || fname == "cell") {
                        let fe = self.arena.expr(*fval);
                        self.report(
                            fe.line,
                            fe.col,
                            format!(
                                "wall-clock-derived value stored in `{p}.{fname}` — this \
                                 payload is serialized and replayed bit-for-bit; derive it \
                                 from simulated state instead"
                            ),
                        );
                    }
                }
                any
            }
            ExprKind::BlockExpr { block } => {
                let blk = block.clone();
                let mut tail = false;
                for (ix, &sid) in blk.stmts.iter().enumerate() {
                    if ix + 1 == blk.stmts.len() {
                        if let Stmt::Expr(e) = self.arena.stmt(sid) {
                            tail = self.tainted(*e, env);
                            continue;
                        }
                    }
                    self.stmt(sid, env);
                }
                tail
            }
            ExprKind::Closure { body } => {
                let b = *body;
                let _ = self.tainted(b, env);
                false
            }
            ExprKind::Tuple { elems } => {
                let es = elems.clone();
                let mut t = false;
                for &el in &es {
                    t |= self.tainted(el, env);
                }
                t
            }
            ExprKind::Index { base, index } => {
                let (b, ix) = (*base, *index);
                let _ = self.tainted(ix, env);
                self.tainted(b, env)
            }
        }
    }

    fn report(&mut self, line: u32, col: u32, message: String) {
        if !self.emit || !self.seen.insert((line, col)) {
            return;
        }
        self.out
            .push(diag(self.rel, line, col, RuleId::NondetTaint, message));
    }
}

/// Does this call path read a nondeterministic source?
fn taint_source(segs: &[String]) -> bool {
    let joined: Vec<&str> = segs.iter().map(|s| s.as_str()).collect();
    match joined.as_slice() {
        [.., "Instant", "now"] | [.., "SystemTime", "now"] => true,
        [.., "thread", "current"] => true,
        [.., "env", m] if matches!(*m, "var" | "vars" | "var_os" | "vars_os") => true,
        [.., m] if *m == "wall_ms" => true,
        _ => false,
    }
}
