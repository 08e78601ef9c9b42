//! The simlint rule families (R1–R10) plus the allow-comment mechanism.
//!
//! Local rules work on the token stream from [`crate::lexer`], with a
//! per-token mask excluding `#[cfg(test)]` / `#[test]` items. The
//! cross-file rules (`nondet-taint`, the `Ordering::Relaxed` half of
//! `sync-audit`, `panic-in-worker`) live in [`crate::taint`] and run on
//! the per-file summaries from [`crate::summary`]. See DESIGN.md
//! "Determinism invariants" for the rationale behind each rule.

use crate::lexer::{Tok, TokKind};
use crate::{FileCtx, Finding};

/// Crates whose state feeds simulation results. R1/R3/R5/R6/R7/R9/R10 and
/// the taint sources apply only here; R4 applies to every workspace
/// library crate.
pub const SIM_STATE_DIRS: &[&str] = &[
    "cpu-sim",
    "cache-sim",
    "dram-sim",
    "os-sim",
    "xmem-core",
    "sim",
    "workloads",
];

/// Bumped whenever rule behavior changes, so a stale incremental cache
/// ([`crate::cache`]) can never replay findings from an older rule set.
pub const RULES_VERSION: u32 = 2;

pub const RULE_NONDET_MAP: &str = "nondet-map";
pub const RULE_WALL_CLOCK: &str = "wall-clock";
pub const RULE_NARROWING_CAST: &str = "narrowing-cast";
pub const RULE_UNWRAP: &str = "unwrap";
pub const RULE_FLOAT_CMP: &str = "float-cmp";
pub const RULE_SCALAR_ACCESS: &str = "scalar-access";
/// R7: shared-state synchronization primitives in sim-state crates, and
/// (cross-file, via the call graph) `Ordering::Relaxed` in any function
/// that can reach a result sink.
pub const RULE_SYNC_AUDIT: &str = "sync-audit";
/// R8 (cross-file): panicking calls (`.lock().unwrap()`, `RefCell`
/// borrows) reachable from a `catch_unwind` isolation boundary.
pub const RULE_PANIC_WORKER: &str = "panic-in-worker";
/// R9: explicit wrapping arithmetic on address/cycle-typed expressions.
pub const RULE_WRAPPING: &str = "wrapping-cycle-math";
/// R10: float accumulation over containers whose iteration order is not
/// total.
pub const RULE_ORDERED_REDUCE: &str = "ordered-reduce";
/// The cross-file taint rule: a nondeterminism source whose value can
/// reach a result-emitting sink.
pub const RULE_TAINT: &str = "nondet-taint";
/// Meta-rules: a malformed `// simlint: allow(...)` comment, and an allow
/// comment that suppresses nothing (so stale annotations cannot linger).
pub const RULE_ALLOW_SYNTAX: &str = "allow-syntax";
pub const RULE_UNUSED_ALLOW: &str = "unused-allow";

/// Every rule an allow directive may name.
pub const ALLOWABLE_RULES: &[&str] = &[
    RULE_NONDET_MAP,
    RULE_WALL_CLOCK,
    RULE_NARROWING_CAST,
    RULE_UNWRAP,
    RULE_FLOAT_CMP,
    RULE_SCALAR_ACCESS,
    RULE_SYNC_AUDIT,
    RULE_PANIC_WORKER,
    RULE_WRAPPING,
    RULE_ORDERED_REDUCE,
    RULE_TAINT,
];

/// Maps a rule name back to its `&'static str` constant (the incremental
/// cache stores rule names as text).
pub fn rule_from_name(name: &str) -> Option<&'static str> {
    for rule in ALLOWABLE_RULES {
        if *rule == name {
            return Some(rule);
        }
    }
    match name {
        "allow-syntax" => Some(RULE_ALLOW_SYNTAX),
        "unused-allow" => Some(RULE_UNUSED_ALLOW),
        _ => None,
    }
}

pub fn hint_for(rule: &str) -> &'static str {
    match rule {
        RULE_NONDET_MAP => {
            "HashMap/HashSet iteration order is nondeterministic; use BTreeMap/BTreeSet, \
             or add `// simlint: allow(nondet-map, reason = \"...\")` for lookup-only use"
        }
        RULE_WALL_CLOCK => {
            "wall-clock and ambient randomness make byte-identity tests flaky; derive \
             time from simulated cycles (measurement harnesses are allowlisted in simlint.toml)"
        }
        RULE_NARROWING_CAST => {
            "narrowing `as` on address/cycle values truncates silently; use the checked \
             helpers in xmem_core::addr (addr_to_index, cycles_to_u32, ...) or try_into"
        }
        RULE_UNWRAP => {
            "non-test library code must not panic implicitly; return a typed error or add \
             `// simlint: allow(unwrap, reason = \"...\")`"
        }
        RULE_FLOAT_CMP => {
            "float comparison in timing/scheduling paths is rounding-order fragile; compare \
             integer counters or add `// simlint: allow(float-cmp, reason = \"...\")`"
        }
        RULE_SCALAR_ACCESS => {
            "the scalar `fn access(...)` memory API is superseded by `MemoryPath::serve` \
             (see DESIGN.md \"The batched hot path\"); implement `MemoryPath` instead"
        }
        RULE_SYNC_AUDIT => {
            "shared mutable sim state behind locks/atomics invites scheduling-order \
             nondeterminism; keep sim state single-owner and merge results in spec order \
             (the sanctioned worker pool in xmem-sim::harness is allowlisted)"
        }
        RULE_PANIC_WORKER => {
            "a poisoned lock or RefCell double-borrow panics *outside* the per-point \
             `catch_unwind`, so one bad point can take down the whole sweep; keep panic \
             sources out of code shared across worker isolation boundaries"
        }
        RULE_WRAPPING => {
            "wrapping arithmetic on address/cycle values silently discards overflow that \
             `overflow-checks = true` would catch; use checked/widening arithmetic, or \
             annotate intentional modular math"
        }
        RULE_ORDERED_REDUCE => {
            "float accumulation is not associative, so reducing over an unordered \
             container produces run-to-run drift; iterate a BTreeMap/sorted Vec, or \
             accumulate integers"
        }
        RULE_TAINT => {
            "a nondeterminism source (wall clock, environment, thread id, unordered \
             iteration) can flow into a result sink; derive the value from simulated \
             state, or add `// simlint: allow(nondet-taint, reason = \"...\")` at the \
             source if the flow provably never lands in byte-compared output"
        }
        RULE_ALLOW_SYNTAX => {
            "expected `// simlint: allow(<rule>, reason = \"...\")` with a non-empty reason"
        }
        RULE_UNUSED_ALLOW => {
            "this allow comment suppresses no finding on its target line; remove it or fix \
             the rule name (`simlint fix` removes it automatically)"
        }
        _ => "",
    }
}

/// Marks every token inside a `#[test]` or `#[cfg(test)]` item (most
/// commonly the trailing `mod tests { ... }` block). Token-level, so it
/// only needs to find the item's body braces, not parse the item. An
/// inner `#![cfg(test)]` attribute masks the rest of the file.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        // Inner attribute (`#![cfg(test)]` at module scope): everything
        // from here on is test code.
        if toks[i].is_punct("#")
            && i + 2 < toks.len()
            && toks[i + 1].is_punct("!")
            && toks[i + 2].is_punct("[")
        {
            match matching(toks, i + 2, "[", "]") {
                Some(e) => {
                    if attr_mentions_test(&toks[i..=e]) {
                        for m in mask.iter_mut().skip(i) {
                            *m = true;
                        }
                        return mask;
                    }
                    i = e + 1;
                    continue;
                }
                None => break,
            }
        }
        if !(toks[i].is_punct("#") && i + 1 < toks.len() && toks[i + 1].is_punct("[")) {
            i += 1;
            continue;
        }
        let attr_end = match matching(toks, i + 1, "[", "]") {
            Some(e) => e,
            None => break,
        };
        if !attr_mentions_test(&toks[i..=attr_end]) {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes, then mark through the end of the
        // annotated item: either a `;` (e.g. `use` under cfg(test)) or the
        // item's matching `{ ... }` body.
        let mut j = attr_end + 1;
        while j + 1 < toks.len() && toks[j].is_punct("#") && toks[j + 1].is_punct("[") {
            match matching(toks, j + 1, "[", "]") {
                Some(e) => j = e + 1,
                None => return mask,
            }
        }
        let mut depth = 0i32;
        let mut end = toks.len().saturating_sub(1);
        while j < toks.len() {
            let t = &toks[j].text;
            if toks[j].kind == TokKind::Punct {
                match t.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ";" if depth == 0 => {
                        end = j;
                        break;
                    }
                    "{" if depth == 0 => {
                        end = matching(toks, j, "{", "}").unwrap_or(toks.len() - 1);
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        for m in mask.iter_mut().take(end + 1).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// `test` counts when it appears as `#[test]`, `#[cfg(test)]`, or inside
/// `any(...)` — but not under `not(test)`.
fn attr_mentions_test(attr: &[Tok]) -> bool {
    for (k, t) in attr.iter().enumerate() {
        if t.is_ident("test") {
            let negated = k >= 2 && attr[k - 1].is_punct("(") && attr[k - 2].is_ident("not");
            if !negated {
                return true;
            }
        }
    }
    false
}

pub(crate) fn matching(
    toks: &[Tok],
    open: usize,
    open_txt: &str,
    close_txt: &str,
) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == open_txt {
                depth += 1;
            } else if t.text == close_txt {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Allow comments
// ---------------------------------------------------------------------------

/// A parsed `// simlint: allow(<rule>, reason = "...")` comment, resolved
/// to the source line it suppresses: its own line for a trailing comment,
/// or the line of the next code token for a standalone comment (skipping
/// over `#[...]` attributes, so an allow above an attributed item targets
/// the item itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    pub rule: String,
    pub target_line: u32,
    /// Where the comment itself sits (for unused-allow diagnostics and
    /// `simlint fix`).
    pub line: u32,
    pub col: u32,
}

/// Collects allow directives. Directives inside `#[cfg(test)]`-masked
/// regions are dropped outright unless the whole file is linted as test
/// code (`ctx.test_like`): no rule runs there, so they can neither
/// suppress nor count as unused.
pub fn collect_allows(
    toks: &[Tok],
    mask: &[bool],
    findings: &mut Vec<Finding>,
    ctx: &FileCtx,
) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Comment {
            continue;
        }
        let body = t
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim();
        let Some(rest) = body.strip_prefix("simlint:") else {
            continue;
        };
        if mask.get(i).copied().unwrap_or(false) && !ctx.test_like {
            continue;
        }
        match parse_allow(rest.trim()) {
            Some(rule) => {
                let trailing =
                    i > 0 && toks[i - 1].line == t.line && toks[i - 1].kind != TokKind::Comment;
                let target_line = if trailing {
                    t.line
                } else {
                    standalone_target_line(toks, i).unwrap_or(t.line)
                };
                allows.push(Allow {
                    rule,
                    target_line,
                    line: t.line,
                    col: t.col,
                });
            }
            None => findings.push(Finding::new(
                &ctx.rel_path,
                t.line,
                t.col,
                RULE_ALLOW_SYNTAX,
                format!("malformed simlint directive: `{}`", body),
            )),
        }
    }
    allows
}

/// The line a standalone allow comment applies to: the next code token,
/// skipping comments and whole `#[...]` attribute groups (an allow placed
/// above `#[inline]\nfn f()` targets the `fn` line, not the attribute).
fn standalone_target_line(toks: &[Tok], comment: usize) -> Option<u32> {
    let mut k = comment + 1;
    loop {
        while toks.get(k).map(|t| t.kind == TokKind::Comment) == Some(true) {
            k += 1;
        }
        let t = toks.get(k)?;
        if t.is_punct("#") && toks.get(k + 1).is_some_and(|n| n.is_punct("[")) {
            k = matching(toks, k + 1, "[", "]")? + 1;
            continue;
        }
        return Some(t.line);
    }
}

/// Parses `allow(<rule>, reason = "...")`, requiring a non-empty reason.
fn parse_allow(s: &str) -> Option<String> {
    let inner = s.strip_prefix("allow")?.trim().strip_prefix('(')?;
    let inner = inner.strip_suffix(')')?;
    let (rule, rest) = inner.split_once(',')?;
    let rest = rest
        .trim()
        .strip_prefix("reason")?
        .trim()
        .strip_prefix('=')?;
    let reason = rest.trim().strip_prefix('"')?.strip_suffix('"')?;
    let rule = rule.trim();
    if reason.trim().is_empty() || !ALLOWABLE_RULES.contains(&rule) {
        return None;
    }
    Some(rule.to_string())
}

// ---------------------------------------------------------------------------
// Local rules
// ---------------------------------------------------------------------------

pub fn run_all(toks: &[Tok], mask: &[bool], ctx: &FileCtx, out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if ctx.test_like {
            // Test-like files (integration tests, examples, the bench
            // crate) get exactly one rule — wall-clock — applied without
            // the test mask: a byte-identity test that reads the wall
            // clock is a silent flake source even though it *is* test
            // code.
            wall_clock(t, ctx, out);
            continue;
        }
        if mask[i] {
            continue;
        }
        if ctx.sim_state {
            nondet_map(t, ctx, out);
            narrowing_cast(toks, i, t, ctx, out);
            float_cmp(toks, i, t, ctx, out);
            scalar_access(toks, i, t, ctx, out);
            sync_audit_type(t, ctx, out);
            wrapping_cycle(toks, i, t, ctx, out);
        }
        if ctx.library {
            unwrap_rule(toks, i, t, ctx, out);
        }
    }
    if ctx.sim_state && !ctx.test_like {
        for (line, col, what) in ordered_reduce_sites(toks, mask) {
            out.push(Finding::new(
                &ctx.rel_path,
                line,
                col,
                RULE_ORDERED_REDUCE,
                format!("float reduction over unordered iteration ({what})"),
            ));
        }
    }
}

fn push(out: &mut Vec<Finding>, ctx: &FileCtx, t: &Tok, rule: &'static str, message: String) {
    out.push(Finding::new(&ctx.rel_path, t.line, t.col, rule, message));
}

/// R1: no `HashMap`/`HashSet` in sim-state crates.
fn nondet_map(t: &Tok, ctx: &FileCtx, out: &mut Vec<Finding>) {
    if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
        return;
    }
    push(
        out,
        ctx,
        t,
        RULE_NONDET_MAP,
        format!(
            "`{}` in sim-state crate (iteration order is nondeterministic)",
            t.text
        ),
    );
}

/// R2: no wall-clock / ambient randomness. Applied token-locally to
/// test-like files only — in sim-state library code the same sources are
/// handled by the cross-file taint pass, which flags them exactly when
/// they can reach a result sink.
fn wall_clock(t: &Tok, ctx: &FileCtx, out: &mut Vec<Finding>) {
    const BANNED: &[&str] = &["SystemTime", "Instant", "RandomState", "thread_rng"];
    if t.kind == TokKind::Ident && BANNED.contains(&t.text.as_str()) {
        push(
            out,
            ctx,
            t,
            RULE_WALL_CLOCK,
            format!("`{}` (wall-clock/ambient randomness) in test code", t.text),
        );
    }
}

const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "usize"];

/// Identifier vocabulary that marks an expression as address- or
/// cycle-typed. `contains` matches catch compounds like `as_nanos` /
/// `vaddr`; exact snake_case components catch short names like `row`.
const LEXICON_CONTAINS: &[&str] = &["addr", "cycle", "nanos", "vpn", "pfn"];
const LEXICON_COMPONENT: &[&str] = &[
    "va", "pa", "gpa", "hpa", "row", "col", "bank", "chan", "channel", "rank", "line", "frame",
    "page", "pages", "latency", "stamp",
];

pub(crate) fn lexicon_hit(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    if LEXICON_CONTAINS.iter().any(|w| lower.contains(w)) {
        return true;
    }
    lower
        .split('_')
        .any(|part| LEXICON_COMPONENT.contains(&part))
}

/// The identifiers of the expression the token at `end` binds to, scanning
/// backwards over path segments, field/method chains, and balanced
/// parens/brackets (shared by R3 and R9).
fn operand_idents(toks: &[Tok], end: usize) -> Vec<&str> {
    let mut idents: Vec<&str> = Vec::new();
    let mut depth = 0i32;
    for tok in toks[..end].iter().rev() {
        match tok.kind {
            TokKind::Comment => continue,
            TokKind::Punct => match tok.text.as_str() {
                ")" | "]" => depth += 1,
                "(" | "[" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                "." | "::" | "&" | "?" => {}
                _ if depth > 0 => {}
                _ => break,
            },
            TokKind::Ident => {
                if depth == 0 && is_keyword_boundary(&tok.text) {
                    break;
                }
                idents.push(&tok.text);
            }
            _ => {}
        }
    }
    idents
}

/// R3: `<addr/cycle expression> as <narrower int>`.
fn narrowing_cast(toks: &[Tok], i: usize, t: &Tok, ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !t.is_ident("as") {
        return;
    }
    let Some(ty) = toks[i + 1..].iter().find(|n| n.kind != TokKind::Comment) else {
        return;
    };
    if ty.kind != TokKind::Ident || !NARROW_TYPES.contains(&ty.text.as_str()) {
        return;
    }
    let idents = operand_idents(toks, i);
    if let Some(hit) = idents.iter().find(|id| lexicon_hit(id)) {
        push(
            out,
            ctx,
            t,
            RULE_NARROWING_CAST,
            format!(
                "narrowing cast `as {}` on address/cycle-typed expression (`{}`)",
                ty.text, hit
            ),
        );
    }
}

/// Keywords that terminate a cast operand when scanned backwards
/// (`return x as u32`, `match addr as usize`, ...).
fn is_keyword_boundary(ident: &str) -> bool {
    matches!(
        ident,
        "return"
            | "as"
            | "in"
            | "if"
            | "else"
            | "match"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "break"
            | "while"
            | "for"
            | "loop"
            | "fn"
            | "const"
            | "static"
            | "where"
            | "unsafe"
    )
}

/// R4: `.unwrap()` / `.expect(...)` in non-test library code.
fn unwrap_rule(toks: &[Tok], i: usize, t: &Tok, ctx: &FileCtx, out: &mut Vec<Finding>) {
    if t.kind != TokKind::Ident || (t.text != "unwrap" && t.text != "expect") {
        return;
    }
    let after_dot = i > 0 && toks[i - 1].is_punct(".");
    let called = toks
        .get(i + 1)
        .map(|n| n.is_punct("(") || n.is_punct("::"))
        .unwrap_or(false);
    if after_dot && called {
        push(
            out,
            ctx,
            t,
            RULE_UNWRAP,
            format!("`.{}()` in non-test library code", t.text),
        );
    }
}

/// R6: no new scalar `fn access(` definitions in sim-state crates
/// (`MemoryPath::serve` replaced them).
fn scalar_access(toks: &[Tok], i: usize, t: &Tok, ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !t.is_ident("fn") {
        return;
    }
    let mut rest = toks[i + 1..].iter().filter(|n| n.kind != TokKind::Comment);
    let (Some(name), Some(open)) = (rest.next(), rest.next()) else {
        return;
    };
    if name.is_ident("access") && open.is_punct("(") {
        push(
            out,
            ctx,
            name,
            RULE_SCALAR_ACCESS,
            "scalar `fn access(...)` in sim-state crate (use the batched `MemoryPath` API)"
                .to_string(),
        );
    }
}

const CMP_OPS: &[&str] = &["==", "!=", "<", ">", "<=", ">="];

/// R5: comparison with a float literal operand in sim-state crates.
fn float_cmp(toks: &[Tok], i: usize, t: &Tok, ctx: &FileCtx, out: &mut Vec<Finding>) {
    if t.kind != TokKind::Punct || !CMP_OPS.contains(&t.text.as_str()) {
        return;
    }
    let is_float = |tok: Option<&Tok>| {
        matches!(
            tok,
            Some(Tok {
                kind: TokKind::Num { float: true },
                ..
            })
        )
    };
    let prev = toks[..i].iter().rev().find(|n| n.kind != TokKind::Comment);
    let next = toks[i + 1..].iter().find(|n| n.kind != TokKind::Comment);
    if is_float(prev) || is_float(next) {
        push(
            out,
            ctx,
            t,
            RULE_FLOAT_CMP,
            format!("float comparison `{}` in sim-state crate", t.text),
        );
    }
}

/// Synchronization primitives R7 flags in sim-state crates (the local
/// half of `sync-audit`; the `Ordering::Relaxed` half is cross-file).
const SYNC_TYPES: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "Once",
    "OnceLock",
    "LazyLock",
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicPtr",
];

/// R7 (local half): shared-state synchronization in sim-state crates.
fn sync_audit_type(t: &Tok, ctx: &FileCtx, out: &mut Vec<Finding>) {
    if t.kind == TokKind::Ident && SYNC_TYPES.contains(&t.text.as_str()) {
        push(
            out,
            ctx,
            t,
            RULE_SYNC_AUDIT,
            format!(
                "`{}` (shared-state synchronization) in sim-state crate",
                t.text
            ),
        );
    }
}

const WRAPPING_METHODS: &[&str] = &[
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "wrapping_neg",
    "overflowing_add",
    "overflowing_sub",
    "overflowing_mul",
];

/// R9: `.wrapping_*()` / `.overflowing_*()` on an address/cycle-typed
/// receiver or argument. With `overflow-checks = true` in every profile,
/// plain arithmetic on cycles/addresses traps on overflow; explicit
/// wrapping math silently discards it, which on a cycle counter or
/// address is a determinism-preserving but *wrong* result.
fn wrapping_cycle(toks: &[Tok], i: usize, t: &Tok, ctx: &FileCtx, out: &mut Vec<Finding>) {
    if t.kind != TokKind::Ident || !WRAPPING_METHODS.contains(&t.text.as_str()) {
        return;
    }
    if i == 0 || !toks[i - 1].is_punct(".") {
        return;
    }
    let mut idents = operand_idents(toks, i - 1);
    // Arguments can carry the typed value too: `x.wrapping_add(cycles)`.
    if toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
        if let Some(close) = matching(toks, i + 1, "(", ")") {
            for tok in &toks[i + 2..close] {
                if tok.kind == TokKind::Ident {
                    idents.push(&tok.text);
                }
            }
        }
    }
    if let Some(hit) = idents.iter().find(|id| lexicon_hit(id)) {
        push(
            out,
            ctx,
            t,
            RULE_WRAPPING,
            format!(
                "wrapping `{}` on address/cycle-typed expression (`{}`)",
                t.text, hit
            ),
        );
    }
}

/// Iterator adapters whose order mirrors the container's.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// Identifies file-local bindings of `HashMap`/`HashSet` type: `let x =
/// HashMap::new()`, `let x: HashMap<..>`, `x: &HashMap<..>` parameters and
/// struct fields. Bindings inside masked (test/bench) regions are
/// excluded — a test-local `HashMap` must not taint a same-named
/// production variable.
pub fn unordered_bindings(toks: &[Tok], mask: &[bool]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Walk back over the path/reference prelude to the `:` or `=`
        // introducing the binding, then take the identifier before it.
        let mut j = i;
        while j > 0 {
            let p = &toks[j - 1];
            let skip = p.is_punct("::")
                || p.is_punct("&")
                || p.is_ident("std")
                || p.is_ident("collections")
                || p.is_ident("mut")
                || p.kind == TokKind::Lifetime;
            if skip {
                j -= 1;
            } else {
                break;
            }
        }
        if j == 0 {
            continue;
        }
        let intro = &toks[j - 1];
        if !(intro.is_punct(":") || intro.is_punct("=")) || j < 2 {
            continue;
        }
        let name = &toks[j - 2];
        if name.kind == TokKind::Ident && !names.contains(&name.text) {
            names.push(name.text.clone());
        }
    }
    names
}

/// R10 sites: float reductions over the iteration of a file-local
/// `HashMap`/`HashSet` binding. Two shapes are recognized:
///
/// * chain form — `x.values().…sum::<f64>()` / `.product::<f32>()` /
///   `.fold(0.0, …)` within one statement;
/// * loop form — `for v in x.values() { … acc += …float… }`.
///
/// Returns `(line, col, description)` per site; shared between the local
/// R10 rule and the taint pass (these sites double as taint sources).
pub fn ordered_reduce_sites(toks: &[Tok], mask: &[bool]) -> Vec<(u32, u32, String)> {
    let unordered = unordered_bindings(toks, mask);
    if unordered.is_empty() {
        return Vec::new();
    }
    let mut sites = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident || !ITER_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        if i < 2 || !toks[i - 1].is_punct(".") {
            continue;
        }
        let recv = &toks[i - 2];
        if recv.kind != TokKind::Ident || !unordered.contains(&recv.text) {
            continue;
        }
        // Chain form: look forward to the end of the statement for a
        // float reduction.
        if let Some(what) = float_reduce_ahead(toks, i) {
            sites.push((
                t.line,
                t.col,
                format!("`{}.{}()` feeding {what}", recv.text, t.text),
            ));
            continue;
        }
        // Loop form: `for … in recv.iter_method(…) { body }` with a float
        // compound assignment in the body.
        if in_for_header(toks, i) {
            if let Some(body_open) = toks[i..]
                .iter()
                .position(|n| n.is_punct("{"))
                .map(|k| k + i)
            {
                if let Some(body_close) = matching(toks, body_open, "{", "}") {
                    if float_accumulation_in(&toks[body_open..=body_close]) {
                        sites.push((
                            t.line,
                            t.col,
                            format!("`for … in {}.{}()` accumulating floats", recv.text, t.text),
                        ));
                    }
                }
            }
        }
    }
    sites
}

/// Scans forward from an iterator call to the end of its statement for a
/// float-typed reduction; returns a description of the reducer if found.
fn float_reduce_ahead(toks: &[Tok], from: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut k = from;
    while k < toks.len() {
        let t = &toks[k];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                ";" | "{" if depth == 0 => break,
                _ => {}
            }
        }
        if t.kind == TokKind::Ident && (t.text == "sum" || t.text == "product") {
            // Require a float turbofish: `.sum::<f64>()`.
            let tail: Vec<&Tok> = toks[k + 1..]
                .iter()
                .filter(|n| n.kind != TokKind::Comment)
                .take(3)
                .collect();
            if tail.len() == 3
                && tail[0].is_punct("::")
                && tail[1].is_punct("<")
                && (tail[2].is_ident("f32") || tail[2].is_ident("f64"))
            {
                return Some(format!("`.{}::<{}>()`", t.text, tail[2].text));
            }
        }
        if t.kind == TokKind::Ident && (t.text == "fold" || t.text == "rfold") {
            if let Some(open) = toks[k + 1..]
                .iter()
                .position(|n| n.kind != TokKind::Comment)
                .map(|p| p + k + 1)
                .filter(|&p| toks[p].is_punct("("))
            {
                if let Some(close) = matching(toks, open, "(", ")") {
                    if toks[open..=close].iter().any(is_floatish) {
                        return Some(format!("`.{}(…)` over floats", t.text));
                    }
                }
            }
        }
        k += 1;
    }
    None
}

/// Is the iterator call at `i` inside a `for … in …` header (between the
/// `in` keyword and the loop's `{`)?
fn in_for_header(toks: &[Tok], i: usize) -> bool {
    for tok in toks[..i].iter().rev() {
        match tok.kind {
            TokKind::Comment => continue,
            TokKind::Punct if tok.text == "{" || tok.text == ";" || tok.text == "}" => {
                return false
            }
            TokKind::Ident if tok.text == "in" => return true,
            _ => {}
        }
    }
    false
}

fn is_floatish(t: &Tok) -> bool {
    matches!(t.kind, TokKind::Num { float: true })
        || (t.kind == TokKind::Ident && (t.text == "f32" || t.text == "f64"))
}

/// Does a token slice contain a compound assignment fed by float-typed
/// evidence (a float literal, `f32`/`f64`, or an `as f64` cast) within the
/// same statement?
fn float_accumulation_in(body: &[Tok]) -> bool {
    for (k, t) in body.iter().enumerate() {
        if t.kind != TokKind::Punct || !matches!(t.text.as_str(), "+=" | "-=" | "*=") {
            continue;
        }
        // The statement around the compound assignment: back to the
        // previous `;`/`{`, forward to the next `;`.
        let start = body[..k]
            .iter()
            .rposition(|n| n.is_punct(";") || n.is_punct("{"))
            .map(|p| p + 1)
            .unwrap_or(0);
        let end = body[k..]
            .iter()
            .position(|n| n.is_punct(";"))
            .map(|p| p + k)
            .unwrap_or(body.len());
        if body[start..end].iter().any(is_floatish) {
            return true;
        }
    }
    false
}
