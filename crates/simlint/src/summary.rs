//! Per-file structural summaries: the input to the cross-file taint pass.
//!
//! [`summarize`] walks the token stream once and extracts just enough
//! structure for [`crate::taint`] to build a workspace call graph: which
//! functions the file defines (and for which `impl` type), which calls
//! each function makes, what `use` imports are in scope, plus the
//! rule-relevant sites — nondeterminism sources, `Ordering::Relaxed`
//! uses, panic hazards, and `catch_unwind` boundaries. Summaries are pure
//! functions of file content, which is what makes the incremental cache
//! ([`crate::cache`]) sound.

use crate::lexer::{Tok, TokKind};
use crate::rules;
use crate::FileCtx;

#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileSummary {
    /// Crate identifier as it appears in `use` paths (`xmem_sim`, ...).
    pub crate_key: String,
    pub fns: Vec<FnInfo>,
    pub calls: Vec<CallSite>,
    /// `use` imports: (alias, full path). Alias `*` records a glob prefix.
    pub uses: Vec<(String, String)>,
    pub sources: Vec<SourceSite>,
    /// `Ordering::Relaxed` sites: (fn index, line, col).
    pub relaxed: Vec<(usize, u32, u32)>,
    /// Panic hazards for R8: (fn index, line, col, description).
    pub hazards: Vec<(usize, u32, u32, String)>,
    /// Indices of functions whose body contains `catch_unwind`.
    pub unwind_roots: Vec<usize>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct FnInfo {
    pub name: String,
    /// The `impl` type this is a method of, if any.
    pub self_type: Option<String>,
    pub line: u32,
    /// Body line span (start = `fn` line, end = closing-brace line), used
    /// to attribute externally-detected sites to their enclosing function.
    pub span: (u32, u32),
}

/// How a call names its target; resolution happens workspace-wide in
/// [`crate::taint`].
#[derive(Debug, Clone, PartialEq)]
pub enum Callee {
    /// `name(...)` — resolved against free functions.
    Bare(String),
    /// `.name(...)` — resolved against every impl method of that name.
    Method(String),
    /// `a::b::name(...)` — resolved through `use` imports and crate paths.
    Qualified(Vec<String>),
}

impl Callee {
    pub fn display(&self) -> String {
        match self {
            Callee::Bare(n) => n.clone(),
            Callee::Method(n) => format!(".{n}"),
            Callee::Qualified(segs) => segs.join("::"),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct CallSite {
    pub caller: usize,
    pub callee: Callee,
    pub line: u32,
    pub col: u32,
}

/// A nondeterminism source occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSite {
    pub fn_idx: usize,
    pub line: u32,
    pub col: u32,
    /// e.g. `Instant::now()`.
    pub what: String,
    /// Source family: `wall-clock`, `env`, `thread-id`, `ambient-rand`,
    /// `hash-iter`, `unordered-reduce`.
    pub kind: String,
}

/// The crate identifier a workspace-relative path belongs to, normalized
/// to `use`-path form (package `xmem-sim` imports as `xmem_sim`). Paths
/// outside `crates/` (the root package's `src/`, `tests/`, `examples/`)
/// belong to the root crate `xmem`.
pub fn crate_key_of(rel_path: &str) -> String {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        let dir = rest.split('/').next().unwrap_or("");
        return match dir {
            "sim" => "xmem_sim".to_string(),
            "bench" => "xmem_bench".to_string(),
            "compress" => "compress_sim".to_string(),
            other => other.replace('-', "_"),
        };
    }
    "xmem".to_string()
}

/// Identifiers that can never be call targets or callee path segments.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "fn"
            | "in"
            | "as"
            | "where"
            | "impl"
            | "dyn"
            | "pub"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "union"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "unsafe"
            | "extern"
            | "Some"
            | "None"
            | "Ok"
            | "Err"
            | "Box"
            | "Vec"
            | "self"
            | "Self"
            | "super"
            | "crate"
            | "await"
            | "async"
    )
}

pub fn summarize(toks: &[Tok], mask: &[bool], ctx: &FileCtx) -> FileSummary {
    let mut s = FileSummary {
        crate_key: crate_key_of(&ctx.rel_path),
        ..Default::default()
    };

    let mut depth: i32 = 0;
    // (brace depth of the frame's `{`, payload).
    let mut impl_stack: Vec<(i32, String)> = Vec::new();
    let mut fn_stack: Vec<(i32, usize)> = Vec::new();
    let mut pending_fn: Option<usize> = None;
    let mut pending_impl: Option<String> = None;
    let mut sig_depth: i32 = 0; // paren/bracket depth inside a pending signature

    let next_code =
        |k: usize| -> Option<&Tok> { toks[k + 1..].iter().find(|t| t.kind != TokKind::Comment) };
    let prev_code =
        |k: usize| -> Option<&Tok> { toks[..k].iter().rev().find(|t| t.kind != TokKind::Comment) };

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Comment {
            i += 1;
            continue;
        }
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    if let Some(fi) = pending_fn.take() {
                        fn_stack.push((depth, fi));
                        pending_impl = None;
                    } else if let Some(ty) = pending_impl.take() {
                        impl_stack.push((depth, ty));
                    }
                }
                "}" => {
                    if fn_stack.last().is_some_and(|&(d, _)| d == depth) {
                        let (_, fi) = fn_stack.pop().unwrap();
                        s.fns[fi].span.1 = t.line;
                    }
                    if impl_stack.last().is_some_and(|&(d, _)| d == depth) {
                        impl_stack.pop();
                    }
                    depth -= 1;
                }
                "(" | "[" if pending_fn.is_some() || pending_impl.is_some() => sig_depth += 1,
                ")" | "]" if pending_fn.is_some() || pending_impl.is_some() => sig_depth -= 1,
                ";" if sig_depth == 0 => {
                    // Trait method declaration / type-position `impl` with
                    // no body.
                    if let Some(fi) = pending_fn.take() {
                        s.fns[fi].span.1 = t.line;
                    }
                    pending_impl = None;
                }
                _ => {}
            }
            i += 1;
            continue;
        }
        if mask[i] || t.kind != TokKind::Ident {
            i += 1;
            continue;
        }

        match t.text.as_str() {
            "use" if fn_stack.is_empty() => {
                i = collect_use(toks, i + 1, "", &mut s.uses);
                continue;
            }
            "impl" if !type_position_impl(prev_code(i)) => {
                pending_impl = impl_type_name(toks, i);
                sig_depth = 0;
            }
            "fn" => {
                if let Some(name) = next_code(i).filter(|n| n.kind == TokKind::Ident) {
                    let self_type = impl_stack
                        .last()
                        .filter(|&&(d, _)| d == depth)
                        .map(|(_, ty)| ty.clone());
                    s.fns.push(FnInfo {
                        name: name.text.clone(),
                        self_type,
                        line: name.line,
                        span: (name.line, name.line),
                    });
                    pending_fn = Some(s.fns.len() - 1);
                    sig_depth = 0;
                }
            }
            "catch_unwind" if !fn_stack.is_empty() => {
                let fi = fn_stack.last().unwrap().1;
                if !s.unwind_roots.contains(&fi) {
                    s.unwind_roots.push(fi);
                }
            }
            "Relaxed" if !fn_stack.is_empty() && prev_code(i).is_some_and(|p| p.is_punct("::")) => {
                s.relaxed.push((fn_stack.last().unwrap().1, t.line, t.col));
            }
            _ => {}
        }

        if let Some(&(_, caller)) = fn_stack.last() {
            collect_call(toks, i, caller, &impl_stack, &mut s.calls);
            collect_hazard(toks, i, caller, &mut s.hazards);
            if ctx.sim_state {
                collect_source(toks, i, caller, &mut s.sources);
            }
        }
        i += 1;
    }

    if ctx.sim_state {
        attach_reduce_sources(toks, mask, &mut s);
    }
    s
}

/// An `impl` preceded by these tokens is a type-position `impl Trait`,
/// not an impl item.
fn type_position_impl(prev: Option<&Tok>) -> bool {
    match prev {
        Some(p) if p.kind == TokKind::Punct => {
            matches!(
                p.text.as_str(),
                "->" | "(" | "," | ":" | "=" | "<" | "&" | "+"
            )
        }
        Some(p) => p.is_ident("dyn"),
        None => false,
    }
}

/// The self type of an `impl` item: the last path segment before the
/// body, taking the `for`-target when present (`impl Display for Atom`
/// → `Atom`), skipping generic parameter lists.
fn impl_type_name(toks: &[Tok], impl_idx: usize) -> Option<String> {
    let mut angle = 0i32;
    let mut last: Option<String> = None;
    for t in &toks[impl_idx + 1..] {
        match t.kind {
            TokKind::Comment => {}
            TokKind::Punct => match t.text.as_str() {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "{" | ";" if angle <= 0 => break,
                _ => {}
            },
            TokKind::Ident if angle <= 0 => match t.text.as_str() {
                "where" => break,
                "for" => last = None,
                "unsafe" | "dyn" | "mut" | "const" => {}
                name => last = Some(name.to_string()),
            },
            _ => {}
        }
    }
    last
}

/// Parses one `use` tree starting at `k` (just past `use` or a group
/// delimiter), appending (alias, path) pairs; returns the index after the
/// tree (past the closing `;` at top level).
fn collect_use(toks: &[Tok], k: usize, prefix: &str, out: &mut Vec<(String, String)>) -> usize {
    let mut path = prefix.to_string();
    let mut last = String::new();
    let mut k = k;
    while k < toks.len() {
        let t = &toks[k];
        match t.kind {
            TokKind::Comment => k += 1,
            TokKind::Ident if t.text == "as" => {
                // `path as Alias`
                if let Some(alias) = toks[k + 1..]
                    .iter()
                    .find(|n| n.kind != TokKind::Comment)
                    .filter(|n| n.kind == TokKind::Ident)
                {
                    out.push((alias.text.clone(), path.clone()));
                }
                // Skip to the end of this tree.
                while k < toks.len()
                    && !(toks[k].kind == TokKind::Punct
                        && matches!(toks[k].text.as_str(), "," | "}" | ";"))
                {
                    k += 1;
                }
                return finish_use(toks, k, None, out);
            }
            TokKind::Ident => {
                if !path.is_empty() {
                    path.push_str("::");
                }
                path.push_str(&t.text);
                last = t.text.clone();
                k += 1;
            }
            TokKind::Punct => match t.text.as_str() {
                "::" => k += 1,
                "*" => {
                    out.push(("*".to_string(), path.clone()));
                    last.clear();
                    k += 1;
                }
                "{" => {
                    k += 1;
                    loop {
                        k = collect_use(toks, k, &path, out);
                        match toks.get(k) {
                            Some(t) if t.is_punct(",") => k += 1,
                            Some(t) if t.is_punct("}") => {
                                k += 1;
                                break;
                            }
                            _ => break,
                        }
                    }
                    return finish_use(toks, k, None, out);
                }
                "," | "}" | ";" => return finish_use(toks, k, named(&last, &path), out),
                _ => k += 1,
            },
            _ => k += 1,
        }
    }
    k
}

fn named(last: &str, path: &str) -> Option<(String, String)> {
    if last.is_empty() || last == "self" {
        // `use a::b::{self, c}` — `self` imports the module under its own
        // name, which call resolution handles via the full path anyway.
        None
    } else {
        Some((last.to_string(), path.to_string()))
    }
}

/// Emits a pending entry and, at top level, consumes the terminating `;`.
fn finish_use(
    toks: &[Tok],
    k: usize,
    entry: Option<(String, String)>,
    out: &mut Vec<(String, String)>,
) -> usize {
    if let Some(e) = entry {
        out.push(e);
    }
    if toks.get(k).is_some_and(|t| t.is_punct(";")) {
        k + 1
    } else {
        k
    }
}

/// Detects a call at token `i` (identifier directly followed by `(`) and
/// classifies it by what precedes the name.
fn collect_call(
    toks: &[Tok],
    i: usize,
    caller: usize,
    impl_stack: &[(i32, String)],
    out: &mut Vec<CallSite>,
) {
    let t = &toks[i];
    if is_keyword(&t.text) {
        return;
    }
    let next = toks[i + 1..].iter().find(|n| n.kind != TokKind::Comment);
    if !next.is_some_and(|n| n.is_punct("(")) {
        return;
    }
    let prev = toks[..i].iter().rev().find(|n| n.kind != TokKind::Comment);
    if prev.is_some_and(|p| p.is_ident("fn")) {
        return; // the definition itself
    }
    let callee = if prev.is_some_and(|p| p.is_punct(".")) {
        Callee::Method(t.text.clone())
    } else if prev.is_some_and(|p| p.is_punct("::")) {
        let mut segs = vec![t.text.clone()];
        // Walk back over `seg::`+ pairs.
        let mut k = i;
        while let Some(sep) = toks[..k].iter().rposition(|n| n.kind != TokKind::Comment) {
            if !toks[sep].is_punct("::") {
                break;
            }
            let Some(seg) = toks[..sep].iter().rposition(|n| n.kind != TokKind::Comment) else {
                break;
            };
            if toks[seg].kind != TokKind::Ident {
                break; // `<T as Trait>::f`, turbofish, ... — keep what we have
            }
            segs.push(toks[seg].text.clone());
            k = seg;
        }
        segs.reverse();
        if segs.len() == 1 {
            Callee::Bare(t.text.clone())
        } else {
            if segs[0] == "Self" {
                if let Some((_, ty)) = impl_stack.last() {
                    segs[0] = ty.clone();
                }
            }
            Callee::Qualified(segs)
        }
    } else {
        Callee::Bare(t.text.clone())
    };
    out.push(CallSite {
        caller,
        callee,
        line: t.line,
        col: t.col,
    });
}

const ENV_FNS: &[&str] = &[
    "var", "var_os", "vars", "vars_os", "args", "args_os", "temp_dir",
];

/// Nondeterminism sources, detected at the identifier that names them.
fn collect_source(toks: &[Tok], i: usize, caller: usize, out: &mut Vec<SourceSite>) {
    let t = &toks[i];
    let nc =
        |k: usize| -> Option<&Tok> { toks[k + 1..].iter().find(|n| n.kind != TokKind::Comment) };
    let mut push = |what: String, kind: &str| {
        out.push(SourceSite {
            fn_idx: caller,
            line: t.line,
            col: t.col,
            what,
            kind: kind.to_string(),
        })
    };
    match t.text.as_str() {
        // `Instant::now(` — the constructor, not type mentions.
        "Instant" | "SystemTime" if path_call_ahead(toks, i, "now") => {
            push(format!("{}::now()", t.text), "wall-clock");
        }
        "elapsed" => {
            let after_dot = i > 0 && toks[i - 1].is_punct(".");
            if after_dot && nc(i).is_some_and(|n| n.is_punct("(")) {
                push(".elapsed()".to_string(), "wall-clock");
            }
        }
        "env" => {
            if let Some(f) = qualified_call_ahead(toks, i, ENV_FNS) {
                push(format!("env::{f}()"), "env");
            }
        }
        "thread" if qualified_call_ahead(toks, i, &["current"]).is_some() => {
            push("thread::current()".to_string(), "thread-id");
        }
        "process" if qualified_call_ahead(toks, i, &["id"]).is_some() => {
            push("process::id()".to_string(), "thread-id");
        }
        "thread_rng" if nc(i).is_some_and(|n| n.is_punct("(")) => {
            push("thread_rng()".to_string(), "ambient-rand");
        }
        "RandomState" => push("RandomState".to_string(), "ambient-rand"),
        _ => {}
    }
}

/// Does `<ident at i>::<member>(` follow, for a specific member?
fn path_call_ahead(toks: &[Tok], i: usize, member: &str) -> bool {
    qualified_call_ahead(toks, i, &[member]).is_some()
}

/// If tokens at `i` form `<ident>::<one of members>(`, returns the member.
fn qualified_call_ahead(toks: &[Tok], i: usize, members: &[&str]) -> Option<String> {
    let mut rest = toks[i + 1..].iter().filter(|n| n.kind != TokKind::Comment);
    let (sep, name, open) = (rest.next()?, rest.next()?, rest.next()?);
    if sep.is_punct("::")
        && name.kind == TokKind::Ident
        && members.contains(&name.text.as_str())
        && open.is_punct("(")
    {
        Some(name.text.clone())
    } else {
        None
    }
}

/// Panic hazards R8 looks for inside `catch_unwind`-reachable code:
/// `.lock()…unwrap/expect`, `.into_inner()…unwrap/expect`, and `RefCell`
/// borrows.
fn collect_hazard(toks: &[Tok], i: usize, caller: usize, out: &mut Vec<(usize, u32, u32, String)>) {
    let t = &toks[i];
    if i == 0 || !toks[i - 1].is_punct(".") {
        return;
    }
    match t.text.as_str() {
        "lock" | "into_inner" => {
            let Some(open) = toks[i + 1..]
                .iter()
                .position(|n| n.kind != TokKind::Comment)
                .map(|p| p + i + 1)
                .filter(|&p| toks[p].is_punct("("))
            else {
                return;
            };
            let Some(close) = rules::matching(toks, open, "(", ")") else {
                return;
            };
            let mut rest = toks[close + 1..]
                .iter()
                .filter(|n| n.kind != TokKind::Comment);
            let (dot, m) = (rest.next(), rest.next());
            if dot.is_some_and(|d| d.is_punct("."))
                && m.is_some_and(|m| m.is_ident("unwrap") || m.is_ident("expect"))
            {
                out.push((
                    caller,
                    t.line,
                    t.col,
                    format!(".{}().{}(…)", t.text, m.unwrap().text),
                ));
            }
        }
        "borrow" | "borrow_mut"
            if toks
                .get(i + 1)
                .is_some_and(|n| n.is_punct("(") || n.is_punct("::")) =>
        {
            out.push((caller, t.line, t.col, format!(".{}()", t.text)));
        }
        _ => {}
    }
}

/// Attributes R10's unordered-float-reduce sites to their enclosing
/// function by line span and records them as taint sources too: the
/// reduced value is order-dependent, so if it reaches a sink the result
/// drifts run-to-run.
fn attach_reduce_sources(toks: &[Tok], mask: &[bool], s: &mut FileSummary) {
    for (line, col, what) in rules::ordered_reduce_sites(toks, mask) {
        if let Some(fi) = enclosing_fn(&s.fns, line) {
            s.sources.push(SourceSite {
                fn_idx: fi,
                line,
                col,
                what,
                kind: "unordered-reduce".to_string(),
            });
        }
    }
    // Unordered iteration anywhere is a hash-iter source even without a
    // float reduction — the iteration order itself can shape results.
    let unordered = rules::unordered_bindings(toks, mask);
    if unordered.is_empty() {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if mask[i]
            || t.kind != TokKind::Ident
            || !matches!(
                t.text.as_str(),
                "iter" | "keys" | "values" | "drain" | "into_iter"
            )
        {
            continue;
        }
        if i < 2 || !toks[i - 1].is_punct(".") {
            continue;
        }
        let recv = &toks[i - 2];
        if recv.kind != TokKind::Ident || !unordered.contains(&recv.text) {
            continue;
        }
        if s.sources
            .iter()
            .any(|src| src.line == t.line && src.col == t.col)
        {
            continue; // already recorded as unordered-reduce
        }
        if let Some(fi) = enclosing_fn(&s.fns, t.line) {
            s.sources.push(SourceSite {
                fn_idx: fi,
                line: t.line,
                col: t.col,
                what: format!("`{}.{}()` (unordered iteration)", recv.text, t.text),
                kind: "hash-iter".to_string(),
            });
        }
    }
}

/// The innermost function whose span contains `line`.
fn enclosing_fn(fns: &[FnInfo], line: u32) -> Option<usize> {
    fns.iter()
        .enumerate()
        .filter(|(_, f)| f.span.0 <= line && line <= f.span.1)
        .min_by_key(|(_, f)| f.span.1 - f.span.0)
        .map(|(k, _)| k)
}
