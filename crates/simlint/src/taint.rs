//! The cross-file pass: an approximate workspace call graph over the
//! per-file summaries, and the three rules that need it.
//!
//! * `nondet-taint` — a nondeterminism source site is flagged iff some
//!   function on its caller chain can also reach a result-emitting sink
//!   (`to_json`, `write_report`, `write_point_record`, ...). The finding
//!   carries the full source→sink chain as flow steps.
//! * `sync-audit` (graph half) — `Ordering::Relaxed` inside a function
//!   that can reach a result sink.
//! * `panic-in-worker` — panic hazards (`.lock().unwrap()`, `RefCell`
//!   borrows) reachable from a `catch_unwind` isolation boundary, where
//!   a panic escapes per-point isolation (poisoned lock) or double-borrow
//!   panics cannot be soundly contained.
//!
//! The graph is a deliberate over-approximation: bare calls resolve to
//! free functions (same file, then `use` imports, then same crate),
//! method calls resolve to every impl method of that name (except
//! `UBIQUITOUS_METHODS` — names like `map`/`get`/`load` that are
//! overwhelmingly `std` calls and would flood the graph with false
//! edges), qualified calls through `use`-aliases and crate/module
//! paths. `std`/`core`/`alloc` paths are external and contribute no
//! edges. False edges make the pass conservative (more findings,
//! silenced per-site with a reason); missing edges are possible for
//! trait-object dispatch and shadowed ubiquitous names, which is why
//! the local rules still run unconditionally.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::rules::{RULE_PANIC_WORKER, RULE_SYNC_AUDIT, RULE_TAINT};
use crate::summary::Callee;
use crate::{FileAnalysis, Finding, FlowStep};

/// Calls that emit results: the `xmem-report-v1` serializers and sinks.
/// A function *named* one of these is a sink itself; a function calling
/// one is in the sink-reaching set.
const SINK_CALLS: &[&str] = &[
    "to_json",
    "to_json_with",
    "write_report",
    "write_point_record",
    "flat_cells",
];

const EXTERNAL_ROOTS: &[&str] = &["std", "core", "alloc"];

/// Method names that are overwhelmingly `std` container / iterator /
/// atomic / IO calls. An unqualified `.name(...)` with one of these
/// names is *not* resolved against workspace impl methods — linking
/// every `(0..n).map(...)` to a workspace `fn map` (or `done.load(..)`
/// to an unrelated `fn load`) floods the graph with false edges and
/// turns the sink-reaching set into "everything". A workspace method
/// that shadows one of these names only loses its *method-syntax* edges;
/// qualified calls (`Machine::map(...)`) still resolve.
const UBIQUITOUS_METHODS: &[&str] = &[
    // Iterator adapters / consumers.
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "and_then",
    "or_else",
    "fold",
    "for_each",
    "zip",
    "chain",
    "rev",
    "enumerate",
    "take",
    "take_while",
    "skip",
    "skip_while",
    "step_by",
    "collect",
    "count",
    "last",
    "nth",
    "next",
    "peekable",
    "peek",
    "sum",
    "product",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "position",
    "find",
    "find_map",
    "any",
    "all",
    "by_ref",
    "cloned",
    "copied",
    "inspect",
    "windows",
    "chunks",
    "flatten",
    // Container access / mutation.
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "entry",
    "get",
    "get_mut",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "push",
    "pop",
    "len",
    "is_empty",
    "clear",
    "extend",
    "append",
    "truncate",
    "resize",
    "reserve",
    "retain",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "dedup",
    "binary_search",
    "split_at",
    "split_off",
    "first",
    "fill",
    "swap",
    "to_vec",
    "as_slice",
    "as_mut_slice",
    // Option/Result plumbing.
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "map_err",
    // Conversions, strings, comparison.
    "clone",
    "to_owned",
    "to_string",
    "into",
    "parse",
    "as_ref",
    "as_mut",
    "as_str",
    "as_bytes",
    "borrow",
    "borrow_mut",
    "trim",
    "starts_with",
    "ends_with",
    "strip_prefix",
    "strip_suffix",
    "replace",
    "lines",
    "chars",
    "bytes",
    "split",
    "split_whitespace",
    "join",
    "concat",
    "eq",
    "cmp",
    "partial_cmp",
    "hash",
    "fmt",
    // Atomics, locks, IO, threads, numerics.
    "load",
    "store",
    "fetch_add",
    "fetch_sub",
    "compare_exchange",
    "lock",
    "try_lock",
    "read",
    "write",
    "flush",
    "write_all",
    "write_fmt",
    "read_to_string",
    "spawn",
    "send",
    "recv",
    "abs",
    "powi",
    "powf",
    "sqrt",
    "floor",
    "ceil",
    "round",
    "rem_euclid",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "to_le_bytes",
    "to_be_bytes",
    "leading_zeros",
    "trailing_zeros",
    "count_ones",
];

/// A function in the workspace graph: (file index, fn index within file).
type Gid = usize;

struct Graph<'a> {
    files: &'a [FileAnalysis],
    /// gid → (file index, fn index).
    fns: Vec<(usize, usize)>,
    /// edges[g] = calls out of g: (callee gid, call line, call col).
    edges: Vec<Vec<(Gid, u32, u32)>>,
    /// redges[g] = callers of g: (caller gid, line/col of the call site
    /// inside the caller).
    redges: Vec<Vec<(Gid, u32, u32)>>,
    /// Direct sink evidence in g: (sink name, line).
    sink_call: Vec<Option<(String, u32)>>,
    /// g can reach a sink (the up-closure of sink evidence over callers).
    in_e: Vec<bool>,
    /// For g ∈ E without direct evidence: the next call toward the sink.
    next_to_sink: Vec<Option<(Gid, u32)>>,
}

impl<'a> Graph<'a> {
    fn file_of(&self, g: Gid) -> &str {
        &self.files[self.fns[g].0].ctx.rel_path
    }

    fn info(&self, g: Gid) -> &crate::summary::FnInfo {
        let (fi, fj) = self.fns[g];
        &self.files[fi].summary.fns[fj]
    }

    /// Display name: `Type::method` or `free_fn`.
    fn name(&self, g: Gid) -> String {
        let f = self.info(g);
        match &f.self_type {
            Some(ty) => format!("{}::{}", ty, f.name),
            None => f.name.clone(),
        }
    }
}

pub fn run(files: &[FileAnalysis]) -> Vec<Finding> {
    let g = build(files);
    let mut out = Vec::new();
    taint_findings(&g, &mut out);
    relaxed_findings(&g, &mut out);
    panic_findings(&g, &mut out);
    out
}

fn build(files: &[FileAnalysis]) -> Graph<'_> {
    let mut fns = Vec::new();
    let mut base = Vec::with_capacity(files.len());
    for (fi, fa) in files.iter().enumerate() {
        base.push(fns.len());
        for fj in 0..fa.summary.fns.len() {
            fns.push((fi, fj));
        }
    }
    let n = fns.len();

    // Name indexes for resolution.
    let mut free_in_file: BTreeMap<(usize, &str), Vec<Gid>> = BTreeMap::new();
    let mut free_in_crate: BTreeMap<(&str, &str), Vec<Gid>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<Gid>> = BTreeMap::new();
    let mut typed_methods: BTreeMap<(&str, &str), Vec<Gid>> = BTreeMap::new();
    let mut crate_keys: BTreeSet<&str> = BTreeSet::new();
    for (g, &(fi, fj)) in fns.iter().enumerate() {
        let sum = &files[fi].summary;
        crate_keys.insert(&sum.crate_key);
        let f = &sum.fns[fj];
        match &f.self_type {
            Some(ty) => {
                methods.entry(&f.name).or_default().push(g);
                typed_methods
                    .entry((ty.as_str(), f.name.as_str()))
                    .or_default()
                    .push(g);
            }
            None => {
                free_in_file
                    .entry((fi, f.name.as_str()))
                    .or_default()
                    .push(g);
                free_in_crate
                    .entry((sum.crate_key.as_str(), f.name.as_str()))
                    .or_default()
                    .push(g);
            }
        }
    }

    let resolve_path = |fi: usize, segs: &[String]| -> Vec<Gid> {
        // Substitute `use` aliases and `crate` in the leading segment.
        let sum = &files[fi].summary;
        let mut full: Vec<String> = segs.to_vec();
        if full[0] == "crate" {
            full[0] = sum.crate_key.clone();
        } else if let Some((_, path)) = sum
            .uses
            .iter()
            .find(|(alias, _)| alias.as_str() == full[0].as_str())
        {
            let mut expanded: Vec<String> = path.split("::").map(str::to_string).collect();
            expanded.extend(full.into_iter().skip(1));
            full = expanded;
            if full[0] == "crate" {
                full[0] = sum.crate_key.clone();
            }
        }
        if EXTERNAL_ROOTS.contains(&full[0].as_str()) || full.len() < 2 {
            return Vec::new();
        }
        let name = full.last().unwrap().as_str();
        let parent = full[full.len() - 2].as_str();
        if let Some(v) = typed_methods.get(&(parent, name)) {
            return v.clone();
        }
        if crate_keys.contains(parent) {
            return free_in_crate
                .get(&(parent, name))
                .cloned()
                .unwrap_or_default();
        }
        // `module::helper(...)` within the same crate, or a path whose
        // root is another crate with intervening modules.
        let root = full[0].as_str();
        let key = if crate_keys.contains(root) {
            root
        } else {
            sum.crate_key.as_str()
        };
        free_in_crate.get(&(key, name)).cloned().unwrap_or_default()
    };

    let mut edges: Vec<Vec<(Gid, u32, u32)>> = vec![Vec::new(); n];
    let mut redges: Vec<Vec<(Gid, u32, u32)>> = vec![Vec::new(); n];
    let mut sink_call: Vec<Option<(String, u32)>> = vec![None; n];

    for (g, &(fi, fj)) in fns.iter().enumerate() {
        let f = &files[fi].summary.fns[fj];
        if SINK_CALLS.contains(&f.name.as_str()) {
            sink_call[g] = Some((f.name.clone(), f.line));
        }
    }

    for (fi, fa) in files.iter().enumerate() {
        for call in &fa.summary.calls {
            let caller = base[fi] + call.caller;
            let last = match &call.callee {
                Callee::Bare(n) | Callee::Method(n) => n.as_str(),
                Callee::Qualified(segs) => segs.last().map(String::as_str).unwrap_or(""),
            };
            if SINK_CALLS.contains(&last) && sink_call[caller].is_none() {
                sink_call[caller] = Some((last.to_string(), call.line));
            }
            let targets: Vec<Gid> = match &call.callee {
                Callee::Bare(name) => {
                    if let Some(v) = free_in_file.get(&(fi, name.as_str())) {
                        v.clone()
                    } else if let Some((_, path)) =
                        fa.summary.uses.iter().find(|(alias, _)| alias == name)
                    {
                        let segs: Vec<String> = path.split("::").map(str::to_string).collect();
                        resolve_path(fi, &segs)
                    } else {
                        let mut v = free_in_crate
                            .get(&(fa.summary.crate_key.as_str(), name.as_str()))
                            .cloned()
                            .unwrap_or_default();
                        // Glob imports: `use other::*` may bring it in.
                        for (alias, prefix) in &fa.summary.uses {
                            if alias == "*" {
                                let mut segs: Vec<String> =
                                    prefix.split("::").map(str::to_string).collect();
                                segs.push(name.clone());
                                v.extend(resolve_path(fi, &segs));
                            }
                        }
                        v
                    }
                }
                Callee::Method(name) => {
                    if UBIQUITOUS_METHODS.contains(&name.as_str()) {
                        Vec::new()
                    } else {
                        methods.get(name.as_str()).cloned().unwrap_or_default()
                    }
                }
                Callee::Qualified(segs) => resolve_path(fi, segs),
            };
            for t in targets {
                if t != caller {
                    edges[caller].push((t, call.line, call.col));
                    redges[t].push((caller, call.line, call.col));
                }
            }
        }
    }
    for e in edges.iter_mut().chain(redges.iter_mut()) {
        e.sort_unstable();
        e.dedup();
    }

    // E: the up-closure of sink evidence over callers, with the first
    // discovered call-toward-sink recorded for chain reconstruction.
    let mut in_e = vec![false; n];
    let mut next_to_sink: Vec<Option<(Gid, u32)>> = vec![None; n];
    let mut queue: VecDeque<Gid> = (0..n).filter(|&g| sink_call[g].is_some()).collect();
    for &g in &queue {
        in_e[g] = true;
    }
    while let Some(g) = queue.pop_front() {
        for &(caller, line, _) in &redges[g] {
            if !in_e[caller] {
                in_e[caller] = true;
                next_to_sink[caller] = Some((g, line));
                queue.push_back(caller);
            }
        }
    }

    Graph {
        files,
        fns,
        edges,
        redges,
        sink_call,
        in_e,
        next_to_sink,
    }
}

/// The flow steps from `m` (∈ E) down to its sink call, including the
/// terminal "emits via" step. Returns the sink's name.
fn down_chain(g: &Graph, mut m: Gid, flow: &mut Vec<FlowStep>) -> String {
    loop {
        if let Some((sink, line)) = &g.sink_call[m] {
            flow.push(FlowStep {
                path: g.file_of(m).to_string(),
                line: *line,
                note: format!("`{}` emits via `{}(…)`", g.name(m), sink),
            });
            return sink.clone();
        }
        let Some((callee, line)) = g.next_to_sink[m] else {
            return String::new();
        };
        flow.push(FlowStep {
            path: g.file_of(m).to_string(),
            line,
            note: format!("`{}` calls `{}`", g.name(m), g.name(callee)),
        });
        m = callee;
    }
}

/// BFS up the caller chains from `f0` to the nearest function in E.
/// Returns the meeting function and the caller chain `f0 → … → meeting`
/// as flow steps.
fn up_to_sink_reacher(g: &Graph, f0: Gid) -> Option<(Gid, Vec<FlowStep>)> {
    if g.in_e[f0] {
        return Some((f0, Vec::new()));
    }
    let mut parent: BTreeMap<Gid, (Gid, u32)> = BTreeMap::new();
    let mut queue = VecDeque::from([f0]);
    let mut meeting = None;
    'bfs: while let Some(cur) = queue.pop_front() {
        for &(caller, line, _) in &g.redges[cur] {
            if caller == f0 || parent.contains_key(&caller) {
                continue;
            }
            parent.insert(caller, (cur, line));
            if g.in_e[caller] {
                meeting = Some(caller);
                break 'bfs;
            }
            queue.push_back(caller);
        }
    }
    let m = meeting?;
    // Backtrack m → f0, then emit in source-to-sink order.
    let mut rev = Vec::new();
    let mut cur = m;
    while cur != f0 {
        let &(child, line) = parent.get(&cur)?;
        rev.push(FlowStep {
            path: g.file_of(cur).to_string(),
            line,
            note: format!("`{}` called from `{}`", g.name(child), g.name(cur)),
        });
        cur = child;
    }
    rev.reverse();
    Some((m, rev))
}

fn taint_findings(g: &Graph, out: &mut Vec<Finding>) {
    for (fi, fa) in g.files.iter().enumerate() {
        for src in &fa.summary.sources {
            let f0 = g
                .fns
                .iter()
                .position(|&(i, j)| i == fi && j == src.fn_idx)
                .expect("source fn in graph");
            let Some((m, mut flow)) = up_to_sink_reacher(g, f0) else {
                continue;
            };
            let sink = down_chain(g, m, &mut flow);
            let mut finding = Finding::new(
                &fa.ctx.rel_path,
                src.line,
                src.col,
                RULE_TAINT,
                format!(
                    "nondeterminism source `{}` ({}) can reach result sink `{}`",
                    src.what, src.kind, sink
                ),
            );
            finding.flow = flow;
            out.push(finding);
        }
    }
}

fn relaxed_findings(g: &Graph, out: &mut Vec<Finding>) {
    for (fi, fa) in g.files.iter().enumerate() {
        for &(fn_idx, line, col) in &fa.summary.relaxed {
            let f = g
                .fns
                .iter()
                .position(|&(i, j)| i == fi && j == fn_idx)
                .expect("relaxed fn in graph");
            if !g.in_e[f] {
                continue;
            }
            let mut flow = Vec::new();
            let sink = down_chain(g, f, &mut flow);
            let mut finding = Finding::new(
                &fa.ctx.rel_path,
                line,
                col,
                RULE_SYNC_AUDIT,
                format!(
                    "`Ordering::Relaxed` in `{}`, which can reach result sink `{}`",
                    g.name(f),
                    sink
                ),
            );
            finding.flow = flow;
            out.push(finding);
        }
    }
}

fn panic_findings(g: &Graph, out: &mut Vec<Finding>) {
    // Forward reachability from every catch_unwind-containing function.
    let n = g.fns.len();
    let mut from: Vec<Option<(Gid, u32)>> = vec![None; n]; // parent toward root
    let mut reached = vec![false; n];
    let mut roots: Vec<Gid> = Vec::new();
    for (fi, fa) in g.files.iter().enumerate() {
        for &fn_idx in &fa.summary.unwind_roots {
            let r = g
                .fns
                .iter()
                .position(|&(i, j)| i == fi && j == fn_idx)
                .expect("unwind root in graph");
            roots.push(r);
            reached[r] = true;
        }
    }
    roots.sort_unstable();
    let mut queue: VecDeque<Gid> = roots.iter().copied().collect();
    while let Some(cur) = queue.pop_front() {
        for &(callee, line, _) in &g.edges[cur] {
            if !reached[callee] {
                reached[callee] = true;
                from[callee] = Some((cur, line));
                queue.push_back(callee);
            }
        }
    }

    for (fi, fa) in g.files.iter().enumerate() {
        for (fn_idx, line, col, what) in &fa.summary.hazards {
            let h = g
                .fns
                .iter()
                .position(|&(i, j)| i == fi && j == *fn_idx)
                .expect("hazard fn in graph");
            if !reached[h] {
                continue;
            }
            // Chain root → … → h, reconstructed backwards.
            let mut rev = Vec::new();
            let mut cur = h;
            while let Some((parent, call_line)) = from[cur] {
                rev.push(FlowStep {
                    path: g.file_of(parent).to_string(),
                    line: call_line,
                    note: format!("`{}` calls `{}`", g.name(parent), g.name(cur)),
                });
                cur = parent;
            }
            rev.reverse();
            let root_name = g.name(cur);
            let mut finding = Finding::new(
                &fa.ctx.rel_path,
                *line,
                *col,
                RULE_PANIC_WORKER,
                format!(
                    "`{}` can panic across the `catch_unwind` isolation boundary in `{}`",
                    what, root_name
                ),
            );
            finding.flow = rev;
            out.push(finding);
        }
    }
}
