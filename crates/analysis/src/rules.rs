//! The per-file pass: token-stream lints, the AST/CFG dataflow rules
//! (see [`crate::flow`]), and waiver resolution.
//!
//! Every token pass works on the lexed token stream, without type
//! information: receivers and destinations are matched by name.

use crate::diag::{Diagnostic, RuleId, WaiverStatus};
use crate::lexer::{tokenize, Token, TokenKind};
use crate::FileClass;

/// Macros whose presence in library code demands an `// invariant:`
/// comment or a `# Panics` doc section.
const PANIC_MACROS: [&str; 5] = ["panic", "unreachable", "assert", "assert_eq", "assert_ne"];

/// Methods we hop through when resolving a receiver chain like
/// `self.journal.lock().write_all(…)` back to the field name.
const RECEIVER_WRAPPERS: [&str; 8] = [
    "lock",
    "borrow",
    "borrow_mut",
    "read",
    "write",
    "as_ref",
    "as_mut",
    "get_mut",
];

/// Error enums whose `match`es must stay exhaustive (no `_ =>` arm).
const ERROR_ENUMS: [&str; 6] = [
    "ConfigError",
    "CacheIoError",
    "TraceIoError",
    "DramConfigError",
    "CorpusError",
    "BlockDecodeError",
];

/// A parsed `// lint: allow(<rule>) — <reason>` comment.
struct Waiver {
    line: u32,
    col: u32,
    rule: Option<RuleId>,
    raw_id: String,
    has_reason: bool,
    used: bool,
}

/// Analyze one file: run every applicable rule and resolve waivers.
/// The file is tokenized exactly once; the dataflow rules parse the
/// same comment-free, test-mask-free view the token passes index.
pub fn analyze_source(rel: &str, class: &FileClass, text: &str) -> Vec<Diagnostic> {
    let toks = tokenize(text);
    let mask = test_mask(&toks);
    let code = Code::new(&toks, &mask);
    let comments: Vec<&Token> = toks
        .iter()
        .zip(mask.iter())
        .filter(|(t, &m)| t.is_comment() && !m)
        .map(|(t, _)| t)
        .collect();

    let mut diags = Vec::new();
    if class.is_lib && !class.is_test {
        panic_doc_pass(rel, &toks, &code, &comments, &mut diags);
        error_match_pass(rel, &code, &mut diags);
    }
    if !class.is_test {
        journal_append_pass(rel, &code, &mut diags);
        let filtered: Vec<&Token> = code.ix.iter().map(|&i| &toks[i]).collect();
        crate::flow::run(rel, class, &filtered, &mut diags);
    }

    apply_waivers(rel, &comments, &mut diags);
    diags.sort_by_key(|d| (d.line, d.col, d.rule));
    diags
}

// ---------------------------------------------------------------------------
// Token-stream plumbing
// ---------------------------------------------------------------------------

/// Comment-free, test-mask-free view of the token stream.
struct Code<'a> {
    toks: &'a [Token],
    /// Indices into `toks` of live code tokens, in order.
    ix: Vec<usize>,
}

impl<'a> Code<'a> {
    fn new(toks: &'a [Token], mask: &[bool]) -> Self {
        let ix = (0..toks.len())
            .filter(|&i| !toks[i].is_comment() && !mask.get(i).copied().unwrap_or(false))
            .collect();
        Code { toks, ix }
    }

    fn len(&self) -> usize {
        self.ix.len()
    }

    fn tok(&self, i: usize) -> Option<&Token> {
        self.ix.get(i).map(|&orig| &self.toks[orig])
    }

    fn kind(&self, i: usize) -> Option<TokenKind> {
        self.tok(i).map(|t| t.kind)
    }

    fn ident(&self, i: usize) -> Option<&str> {
        match self.tok(i) {
            Some(t) if t.kind == TokenKind::Ident => Some(t.text.as_str()),
            _ => None,
        }
    }

    fn is_ident(&self, i: usize, s: &str) -> bool {
        self.ident(i) == Some(s)
    }

    fn is_punct(&self, i: usize, ch: char) -> bool {
        matches!(self.tok(i), Some(t) if t.kind == TokenKind::Punct && t.text.starts_with(ch))
    }

    fn pos(&self, i: usize) -> (u32, u32) {
        self.tok(i).map(|t| (t.line, t.col)).unwrap_or((0, 0))
    }
}

/// Compute which tokens sit inside `#[cfg(test)]` / `#[test]` items.
/// The mask covers the attribute itself through the end of the item it
/// decorates (matching brace or top-level semicolon).
fn test_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let at = |ci: usize| -> Option<&Token> { code.get(ci).map(|&i| &toks[i]) };
    let is_p = |ci: usize, ch: char| -> bool {
        matches!(at(ci), Some(t) if t.kind == TokenKind::Punct && t.text.starts_with(ch))
    };

    let mut ci = 0usize;
    while ci < code.len() {
        if !(is_p(ci, '#') && is_p(ci + 1, '[')) {
            ci += 1;
            continue;
        }
        // Find the matching `]`.
        let Some(close) = matching_close(&code, toks, ci + 1, '[', ']') else {
            break;
        };
        let content: Vec<&Token> = ((ci + 2)..close).filter_map(at).collect();
        if !is_test_attr(&content) {
            ci = close + 1;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut p = close + 1;
        while is_p(p, '#') && is_p(p + 1, '[') {
            match matching_close(&code, toks, p + 1, '[', ']') {
                Some(c) => p = c + 1,
                None => break,
            }
        }
        // Consume the item: to the matching `}` of its first brace, or a
        // top-level `;`.
        let mut brace = 0i32;
        let mut q = p;
        while q < code.len() {
            if is_p(q, '{') {
                brace += 1;
            } else if is_p(q, '}') {
                brace -= 1;
                if brace == 0 {
                    break;
                }
            } else if is_p(q, ';') && brace == 0 {
                break;
            }
            q += 1;
        }
        let q = q.min(code.len().saturating_sub(1));
        if let (Some(&a), Some(&b)) = (code.get(ci), code.get(q)) {
            for m in mask.iter_mut().take(b + 1).skip(a) {
                *m = true;
            }
        }
        ci = q + 1;
    }
    mask
}

/// Find the code index of the bracket matching `code[open_ci]`.
fn matching_close(
    code: &[usize],
    toks: &[Token],
    open_ci: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0i32;
    for (off, &orig) in code.iter().enumerate().skip(open_ci) {
        let t = &toks[orig];
        if t.kind == TokenKind::Punct {
            let c = t.text.chars().next()?;
            if c == open {
                depth += 1;
            } else if c == close {
                depth -= 1;
                if depth == 0 {
                    return Some(off);
                }
            }
        }
    }
    None
}

/// Does this attribute content make its item test-only? Only a predicate
/// that requires `test` does: `test`, `cfg(test)`, or `cfg(all(…))` with
/// `test` as a direct argument. `cfg(any(test, feature = "fault"))` and
/// `cfg(not(test))` items still compile outside tests.
fn is_test_attr(content: &[&Token]) -> bool {
    let text: Vec<&str> = content.iter().map(|t| t.text.as_str()).collect();
    match text.as_slice() {
        ["test"] | ["cfg", "(", "test", ")"] => true,
        ["cfg", "(", "all", "(", args @ .., ")", ")"] => {
            let mut depth = 0i32;
            args.iter().enumerate().any(|(i, &t)| {
                match t {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
                depth == 0
                    && t == "test"
                    && (i == 0 || args[i - 1] == ",")
                    && args.get(i + 1).is_none_or(|&next| next == ",")
            })
        }
        _ => false,
    }
}

/// Resolve the receiver of a `.method(` call at code index `j` back to a
/// simple identifier, hopping through `lock()`-style wrappers.
fn receiver_ident(code: &Code<'_>, mut j: usize) -> Option<String> {
    loop {
        if j < 2 || !code.is_punct(j - 1, '.') {
            return None;
        }
        let r = j - 2;
        match code.kind(r) {
            Some(TokenKind::Ident) => return code.ident(r).map(str::to_string),
            Some(TokenKind::Punct) if code.is_punct(r, ')') => {
                // Walk back to the matching `(` and hop through known
                // wrapper calls: `journal.lock().write_all(…)` → receiver
                // `journal`.
                let mut depth = 0i32;
                let mut k = r;
                loop {
                    if code.is_punct(k, ')') {
                        depth += 1;
                    } else if code.is_punct(k, '(') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if k == 0 {
                        return None;
                    }
                    k -= 1;
                }
                match code.ident(k.wrapping_sub(1)) {
                    Some(callee) if RECEIVER_WRAPPERS.contains(&callee) => {
                        j = k - 1;
                    }
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
}

// ---------------------------------------------------------------------------
// Panic discipline
// ---------------------------------------------------------------------------

/// `panic!`/`unreachable!`/`assert!` in library code must sit within 3
/// lines of an `// invariant:` comment, or inside a fn documented with
/// `# Panics`.
fn panic_doc_pass(
    rel: &str,
    toks: &[Token],
    code: &Code<'_>,
    comments: &[&Token],
    diags: &mut Vec<Diagnostic>,
) {
    // Map each fn's body-opening brace (code index) to whether its doc
    // comment carries a `# Panics` section.
    let mut fn_body_doc: Vec<(usize, bool)> = Vec::new();
    for j in 0..code.len() {
        if !code.is_ident(j, "fn") {
            continue;
        }
        let has_doc = fn_docs_mention_panics(toks, code, j);
        // The signature ends at the first `{` (body) or `;` (trait decl).
        for k in (j + 1)..(j + 96).min(code.len()) {
            if code.is_punct(k, '{') {
                fn_body_doc.push((k, has_doc));
                break;
            }
            if code.is_punct(k, ';') {
                break;
            }
        }
    }

    let blocks = comment_blocks(comments);
    let mut depth = 0i32;
    let mut frames: Vec<(i32, bool)> = Vec::new(); // (depth after open, has # Panics)
    let mut body_iter = fn_body_doc.iter().peekable();
    for j in 0..code.len() {
        if code.is_punct(j, '{') {
            depth += 1;
            if let Some(&&(open_ix, has_doc)) = body_iter.peek() {
                if open_ix == j {
                    frames.push((depth, has_doc));
                    body_iter.next();
                }
            }
        } else if code.is_punct(j, '}') {
            if matches!(frames.last(), Some(&(d, _)) if d == depth) {
                frames.pop();
            }
            depth -= 1;
        }
        let Some(mac) = code.ident(j) else { continue };
        if !PANIC_MACROS.contains(&mac) || !code.is_punct(j + 1, '!') {
            continue;
        }
        if frames.iter().any(|&(_, has_doc)| has_doc) {
            continue;
        }
        let (line, col) = code.pos(j);
        // A comment block counts if any of its lines says `invariant:`
        // and its last line is within 3 lines above the panic site.
        let documented = blocks
            .iter()
            .any(|&(start, end, inv)| inv && line >= start && line <= end + 3);
        if !documented {
            diags.push(diag(
                rel,
                line,
                col,
                RuleId::PanicDoc,
                format!(
                    "`{mac}!` in library code without an `// invariant:` comment or a \
                 `# Panics` doc section"
                ),
            ));
        }
    }
}

/// Coalesce comments on consecutive lines into blocks of
/// `(first_line, last_line, mentions_invariant)`.
fn comment_blocks(comments: &[&Token]) -> Vec<(u32, u32, bool)> {
    let mut blocks: Vec<(u32, u32, bool)> = Vec::new();
    for c in comments {
        let end = c.line + c.text.matches('\n').count() as u32;
        let inv = c.text.contains("invariant:");
        match blocks.last_mut() {
            Some(b) if c.line <= b.1 + 1 => {
                b.1 = end.max(b.1);
                b.2 |= inv;
            }
            _ => blocks.push((c.line, end, inv)),
        }
    }
    blocks
}

/// Walk back from the `fn` keyword through attributes and qualifiers to
/// its doc comments; true if any mention `# Panics`.
fn fn_docs_mention_panics(toks: &[Token], code: &Code<'_>, fn_code_ix: usize) -> bool {
    let Some(&orig) = code.ix.get(fn_code_ix) else {
        return false;
    };
    let mut i = orig;
    // Walking backwards: `]`/`)` open an attribute or visibility group,
    // `[`/`(` close it. Anything inside a group is skipped wholesale.
    let mut bracket = 0i32;
    let mut paren = 0i32;
    while i > 0 {
        i -= 1;
        let t = &toks[i];
        match t.kind {
            TokenKind::DocComment if t.text.contains("# Panics") => return true,
            TokenKind::DocComment | TokenKind::LineComment | TokenKind::BlockComment => {}
            TokenKind::Punct => {
                match t.text.chars().next() {
                    Some(']') => bracket += 1,
                    Some('[') => bracket -= 1,
                    Some(')') => paren += 1,
                    Some('(') => paren -= 1,
                    // A `;`, `{`, or `}` outside any group ends the
                    // item above this fn.
                    Some(';') | Some('{') | Some('}') if bracket == 0 && paren == 0 => {
                        return false;
                    }
                    _ => {}
                }
            }
            TokenKind::Ident if bracket == 0 && paren == 0 => {
                let q = t.text.as_str();
                if !matches!(
                    q,
                    "pub"
                        | "crate"
                        | "in"
                        | "unsafe"
                        | "const"
                        | "async"
                        | "extern"
                        | "super"
                        | "self"
                        | "default"
                ) {
                    return false;
                }
            }
            _ => {} // anything inside an attribute/visibility group
        }
    }
    false
}

/// Wildcard `_ =>` arms in `match`es whose arms pattern-match one of the
/// workspace's typed error enums.
fn error_match_pass(rel: &str, code: &Code<'_>, diags: &mut Vec<Diagnostic>) {
    for j in 0..code.len() {
        if !code.is_ident(j, "match") {
            continue;
        }
        // The match body is the first `{` outside parens after the
        // scrutinee expression.
        let mut paren = 0i32;
        let mut open = None;
        for k in (j + 1)..(j + 128).min(code.len()) {
            if code.is_punct(k, '(') {
                paren += 1;
            } else if code.is_punct(k, ')') {
                paren -= 1;
            } else if code.is_punct(k, '{') && paren == 0 {
                open = Some(k);
                break;
            } else if code.is_punct(k, ';') && paren == 0 {
                break;
            }
        }
        let Some(open) = open else { continue };
        let mut brace = 1i32;
        let mut k = open + 1;
        let mut enum_arm = false;
        let mut wildcard: Option<usize> = None;
        while k < code.len() && brace > 0 {
            if code.is_punct(k, '{') {
                brace += 1;
            } else if code.is_punct(k, '}') {
                brace -= 1;
            } else if brace == 1 {
                if let Some(id) = code.ident(k) {
                    if ERROR_ENUMS.contains(&id) {
                        enum_arm = true;
                    }
                    if id == "_" && code.is_punct(k + 1, '=') && code.is_punct(k + 2, '>') {
                        wildcard.get_or_insert(k);
                    }
                }
            }
            k += 1;
        }
        if enum_arm {
            if let Some(w) = wildcard {
                let (line, col) = code.pos(w);
                diags.push(diag(
                    rel,
                    line,
                    col,
                    RuleId::ErrorMatch,
                    "wildcard `_ =>` arm in a match over a typed error enum — keep \
                     error matches exhaustive so new variants are handled"
                        .to_string(),
                ));
            }
        }
    }
}

/// Raw writes addressed at a sweep journal must go through the
/// checksummed `Journal::append` helper: a bare write skips the FNV
/// line checksum and single-write line atomicity that make torn tails
/// detectable (and concurrent appends safe) on reopen. Three shapes
/// are flagged: `.write_all(…)`/`.write(…)` on a journal-named
/// receiver, `write!`/`writeln!` into a journal-named destination, and
/// `write`-style calls handed a `journal…` path literal.
fn journal_append_pass(rel: &str, code: &Code<'_>, diags: &mut Vec<Diagnostic>) {
    for j in 0..code.len() {
        let Some(id) = code.ident(j) else { continue };
        // `journal_file.write_all(…)` / `journal.write(…)`.
        if (id == "write_all" || id == "write")
            && j >= 1
            && code.is_punct(j - 1, '.')
            && code.is_punct(j + 1, '(')
        {
            if let Some(recv) = receiver_ident(code, j) {
                if recv.to_ascii_lowercase().contains("journal") {
                    let (line, col) = code.pos(j);
                    diags.push(diag(
                        rel,
                        line,
                        col,
                        RuleId::JournalAppend,
                        format!(
                            "raw `.{id}()` on journal handle `{recv}` — journal records must go \
                             through the checksummed Journal::append helper"
                        ),
                    ));
                }
            }
        }
        // `write!(journal_file, …)` / `writeln!(journal_file, …)`.
        if (id == "write" || id == "writeln")
            && code.is_punct(j + 1, '!')
            && code.is_punct(j + 2, '(')
        {
            if let Some(dest) = code.ident(j + 3) {
                if dest.to_ascii_lowercase().contains("journal") && code.is_punct(j + 4, ',') {
                    let (line, col) = code.pos(j);
                    diags.push(diag(
                        rel,
                        line,
                        col,
                        RuleId::JournalAppend,
                        format!(
                            "`{id}!` into journal destination `{dest}` — journal records must go \
                             through the checksummed Journal::append helper"
                        ),
                    ));
                }
            }
        }
        // `fs::write("…journal.jsonl", …)`-style free calls carrying a
        // journal path literal.
        if id == "write"
            && code.is_punct(j + 1, '(')
            && !code.is_punct(j.wrapping_sub(1), '.')
            && !code.is_ident(j.wrapping_sub(1), "fn")
        {
            let mut depth = 0i32;
            for k in (j + 1)..(j + 64).min(code.len()) {
                if code.is_punct(k, '(') {
                    depth += 1;
                } else if code.is_punct(k, ')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if code.kind(k) == Some(TokenKind::Str)
                    && code.tok(k).is_some_and(|t| t.text.contains("journal"))
                {
                    let (line, col) = code.pos(j);
                    diags.push(diag(
                        rel,
                        line,
                        col,
                        RuleId::JournalAppend,
                        "`write` call given a journal path — journal records must go through \
                         the checksummed Journal::append helper"
                            .to_string(),
                    ));
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

/// Parse waivers out of the comments, suppress matching diagnostics on
/// the waiver's line or the line below it, and report malformed or
/// unused waivers.
fn apply_waivers(rel: &str, comments: &[&Token], diags: &mut Vec<Diagnostic>) {
    // Doc comments never carry waivers: prose *describing* the waiver
    // syntax (like the analyzer's own docs) must not act as one.
    let mut waivers: Vec<Waiver> = comments
        .iter()
        .filter(|c| c.kind != TokenKind::DocComment)
        .filter_map(|c| parse_waiver(c))
        .collect();
    for d in diags.iter_mut() {
        for w in waivers.iter_mut() {
            let lines_match = w.line == d.line || w.line + 1 == d.line;
            if w.has_reason && w.rule == Some(d.rule) && lines_match {
                d.waiver = WaiverStatus::Waived;
                w.used = true;
                break;
            }
        }
    }
    for w in &waivers {
        if !w.has_reason {
            diags.push(diag(
                rel,
                w.line,
                w.col,
                RuleId::WaiverMissingReason,
                format!(
                    "waiver `lint: allow({})` has no reason — append `— <why this is safe>`",
                    w.raw_id
                ),
            ));
        } else if w.rule.is_none() {
            diags.push(diag(
                rel,
                w.line,
                w.col,
                RuleId::UnusedWaiver,
                format!("waiver names unknown rule `{}`", w.raw_id),
            ));
        } else if !w.used {
            diags.push(diag(
                rel,
                w.line,
                w.col,
                RuleId::UnusedWaiver,
                format!(
                    "waiver `lint: allow({})` matched no diagnostic on this or the next line",
                    w.raw_id
                ),
            ));
        }
    }
}

/// Parse one comment as a waiver: `lint: allow(<id>) — <reason>`.
fn parse_waiver(c: &Token) -> Option<Waiver> {
    let text = &c.text;
    let lint_at = text.find("lint:")?;
    let rest = &text[lint_at + 5..];
    let allow_at = rest.find("allow(")?;
    let after = &rest[allow_at + 6..];
    let close = after.find(')')?;
    let raw_id = after[..close].trim().to_string();
    let reason = after[close + 1..]
        .trim_start_matches(|ch: char| ch.is_whitespace() || matches!(ch, '—' | '–' | '-' | ':'));
    Some(Waiver {
        line: c.line,
        col: c.col,
        rule: RuleId::from_waiver_str(&raw_id),
        raw_id,
        has_reason: !reason.trim().is_empty(),
        used: false,
    })
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
