//! The four project-specific lint rules.
//!
//! Each rule works on the token stream from [`crate::lexer`], so string
//! literals, comments, raw strings and lifetimes can never masquerade
//! as code. Rules are deliberately scoped by path: a rule only fires
//! where its invariant actually matters (see the constants below), and
//! `#[cfg(test)]` regions are skipped by every rule.

use crate::lexer::{lex, TokKind, Token};
use crate::report::Finding;
use std::collections::BTreeSet;

/// A lexed source file plus the per-token facts rules share.
pub struct SourceFile {
    /// Repo-relative path, `/` separators.
    pub path: String,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of significant (non-comment) tokens.
    pub sig: Vec<usize>,
    /// Per-`sig`-index: is this token inside a `#[cfg(test)]` item?
    pub in_test: Vec<bool>,
}

impl SourceFile {
    pub fn new(path: &str, source: &str) -> SourceFile {
        let tokens = lex(source);
        let sig: Vec<usize> = (0..tokens.len())
            .filter(|&i| !matches!(tokens[i].kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        let in_test = mark_cfg_test(&tokens, &sig);
        SourceFile {
            path: path.to_string(),
            tokens,
            sig,
            in_test,
        }
    }
}

/// A view over the significant tokens of one file.
struct Sig<'a> {
    f: &'a SourceFile,
}

impl<'a> Sig<'a> {
    fn new(f: &'a SourceFile) -> Sig<'a> {
        Sig { f }
    }
    fn len(&self) -> usize {
        self.f.sig.len()
    }
    fn tok(&self, i: usize) -> Option<&'a Token> {
        self.f.sig.get(i).map(|&ix| &self.f.tokens[ix])
    }
    fn ident(&self, i: usize) -> Option<&'a str> {
        self.tok(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    }
    fn is_ident(&self, i: usize, name: &str) -> bool {
        self.ident(i) == Some(name)
    }
    fn is_punct(&self, i: usize, p: &str) -> bool {
        self.tok(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == p)
    }
    fn line(&self, i: usize) -> u32 {
        self.tok(i).map_or(0, |t| t.line)
    }
    fn in_test(&self, i: usize) -> bool {
        self.f.in_test.get(i).copied().unwrap_or(false)
    }
    fn finding(&self, rule: &'static str, i: usize, message: String) -> Finding {
        Finding {
            rule,
            path: self.f.path.clone(),
            line: self.line(i),
            message,
        }
    }
}

/// Marks every significant token inside a `#[cfg(test)]` item (module,
/// fn, impl, …). Recognizes the attribute, skips any further
/// attributes, then covers the item's balanced `{ … }` body (or up to
/// the `;` for an item without a body).
fn mark_cfg_test(tokens: &[Token], sig: &[usize]) -> Vec<bool> {
    let t = |i: usize| -> Option<&Token> { sig.get(i).map(|&ix| &tokens[ix]) };
    let is_p = |i: usize, p: &str| t(i).is_some_and(|k| k.kind == TokKind::Punct && k.text == p);
    let is_i = |i: usize, n: &str| t(i).is_some_and(|k| k.kind == TokKind::Ident && k.text == n);

    let n = sig.len();
    let mut marked = vec![false; n];
    let mut i = 0;
    while i < n {
        // `# [ cfg ( test ) ]` — also match `#[cfg(all(test, …))]` by
        // scanning the attribute's parens for an ident `test`.
        if is_p(i, "#") && is_p(i + 1, "[") && is_i(i + 2, "cfg") && is_p(i + 3, "(") {
            // Find the attribute's closing `]`, remembering whether a
            // bare `test` appears inside.
            let mut j = i + 4;
            let mut depth = 1usize; // inside the `(`
            let mut saw_test = false;
            while j < n && depth > 0 {
                if is_p(j, "(") {
                    depth += 1;
                } else if is_p(j, ")") {
                    depth -= 1;
                } else if is_i(j, "test") {
                    saw_test = true;
                }
                j += 1;
            }
            // j is now just past the `)`; expect `]`.
            if saw_test && is_p(j, "]") {
                let start = i;
                let mut k = j + 1;
                // Skip any further attributes on the same item.
                while is_p(k, "#") && is_p(k + 1, "[") {
                    let mut d = 1usize;
                    k += 2;
                    while k < n && d > 0 {
                        if is_p(k, "[") {
                            d += 1;
                        } else if is_p(k, "]") {
                            d -= 1;
                        }
                        k += 1;
                    }
                }
                // Scan to the item's body `{` (or a bodiless `;`).
                while k < n && !is_p(k, "{") && !is_p(k, ";") {
                    k += 1;
                }
                let end = if is_p(k, "{") {
                    let mut d = 1usize;
                    k += 1;
                    while k < n && d > 0 {
                        if is_p(k, "{") {
                            d += 1;
                        } else if is_p(k, "}") {
                            d -= 1;
                        }
                        k += 1;
                    }
                    k // one past the closing `}`
                } else {
                    k + 1 // past the `;`
                };
                for slot in marked.iter_mut().take(end.min(n)).skip(start) {
                    *slot = true;
                }
                i = end;
                continue;
            }
        }
        i += 1;
    }
    marked
}

// ---------------------------------------------------------------------------
// Rule scopes
// ---------------------------------------------------------------------------

/// PR 9's hot-path modules, plus the node kernel that runs the sweep
/// and the per-unit dispatch for every host: one allocation or panic
/// here shows up straight in the steady-state throughput numbers.
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/kernel.rs",
    "crates/core/src/sweep.rs",
    "crates/core/src/referencers.rs",
    "crates/core/src/referenced.rs",
    "crates/core/src/egress.rs",
    "crates/rt-net/src/frame.rs",
];

/// Crates whose outputs feed the wire, the conformance oracle, or the
/// deterministic simulator — iteration order there must be stable.
const ORDER_SENSITIVE: &[&str] = &[
    "crates/core/src/",
    "crates/membership/src/",
    "crates/conformance/src/",
    "crates/simnet/src/",
];

/// Runtime crates where a shim-mutex guard held across a blocking call
/// can stall a peer (and where the lockcheck budget will flag it late
/// — this rule flags it at review time).
const LOCK_SCOPE: &[&str] = &["crates/rt-net/src/", "crates/rt-thread/src/"];

fn lib_source(path: &str) -> bool {
    // Library code only: `tests/`, `benches/`, `examples/` run outside
    // the determinism envelope by design.
    path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/"))
}

fn wall_clock_scope(path: &str) -> bool {
    lib_source(path)
        && !path.starts_with("crates/shims/")
        && !path.starts_with("crates/analysis/")
        // The TimeSource seam itself is where wall time is *supposed*
        // to enter the system.
        && path != "crates/obs/src/time.rs"
}

// ---------------------------------------------------------------------------
// Rule: wall-clock
// ---------------------------------------------------------------------------

/// Flags `Instant::now()` / `SystemTime::now()` outside the TimeSource
/// seam. Everything that wants time must go through
/// `obs::time::TimeSource` so simulated runs stay deterministic.
pub fn wall_clock(f: &SourceFile) -> Vec<Finding> {
    if !wall_clock_scope(&f.path) {
        return Vec::new();
    }
    let s = Sig::new(f);
    let mut out = Vec::new();
    for i in 0..s.len() {
        if s.in_test(i) {
            continue;
        }
        let Some(name) = s.ident(i) else { continue };
        if (name == "Instant" || name == "SystemTime")
            && s.is_punct(i + 1, ":")
            && s.is_punct(i + 2, ":")
            && s.is_ident(i + 3, "now")
            && s.is_punct(i + 4, "(")
        {
            out.push(s.finding(
                "wall-clock",
                i,
                format!(
                    "`{name}::now()` outside the TimeSource seam — route time through \
                     `obs::time::TimeSource` so simulated runs stay deterministic"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: unordered-iter
// ---------------------------------------------------------------------------

/// Iteration methods whose order is nondeterministic on hash tables.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

/// Flags iteration over `HashMap`/`HashSet` in protocol, oracle and
/// simulator code, where nondeterministic order leaks into message
/// order or oracle verdicts. Point lookups are fine; use `BTreeMap`/
/// `BTreeSet` or sort after collecting when you must walk one.
pub fn unordered_iter(f: &SourceFile) -> Vec<Finding> {
    if !ORDER_SENSITIVE.iter().any(|p| f.path.starts_with(p)) {
        return Vec::new();
    }
    let s = Sig::new(f);
    let n = s.len();

    // Pass 1: names bound to hash collections in this file — typed
    // declarations (`x: HashMap<…>` in structs/fns) and constructions
    // (`x = HashMap::new()` / `let x = HashMap::with_capacity(…)`).
    let mut hash_names: BTreeSet<&str> = BTreeSet::new();
    let mut direct: Vec<usize> = Vec::new(); // `HashMap::new().iter()`-style chains
    for i in 0..n {
        let Some(name) = s.ident(i) else { continue };
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        direct.push(i);
        // Walk back over path/type noise to the declared name.
        let mut j = i;
        while let Some(prev) = j.checked_sub(1) {
            let skip = s.is_punct(prev, ":")
                || s.is_punct(prev, "&")
                || s.is_punct(prev, "<")
                || s.is_punct(prev, "(")
                || s.is_ident(prev, "mut")
                || s.is_ident(prev, "std")
                || s.is_ident(prev, "collections");
            if !skip {
                break;
            }
            j = prev;
        }
        let Some(prev) = j.checked_sub(1) else {
            continue;
        };
        if let Some(bound) = s.ident(prev) {
            // `bound: … HashMap` (single colon → a declaration;
            // double colon → just a path segment).
            if s.is_punct(prev + 1, ":") && !s.is_punct(prev + 2, ":") {
                hash_names.insert(bound);
            }
        } else if s.is_punct(prev, "=") {
            // `bound = HashMap::new()`.
            if let Some(bound) = s.ident(prev.wrapping_sub(1)) {
                hash_names.insert(bound);
            }
        }
    }

    // Pass 2: flag iteration over those names.
    let mut out = Vec::new();
    let mut flag = |s: &Sig, i: usize, what: &str, via: &str| {
        out.push(s.finding(
            "unordered-iter",
            i,
            format!(
                "iterating `{what}` via `{via}` in order-sensitive code — hash iteration \
                 order is nondeterministic; use BTreeMap/BTreeSet or sort after collecting"
            ),
        ));
    };
    for i in 0..n {
        if s.in_test(i) {
            continue;
        }
        // `name.iter()` / `name.keys()` / …
        if let Some(name) = s.ident(i) {
            if hash_names.contains(name)
                && s.is_punct(i + 1, ".")
                && s.ident(i + 2).is_some_and(|m| ITER_METHODS.contains(&m))
                && s.is_punct(i + 3, "(")
            {
                flag(&s, i, name, s.ident(i + 2).unwrap_or(""));
                continue;
            }
            // `for k in name` / `for (k, v) in &name {`
            if name == "for" {
                // Scan ahead (bounded) for `in <expr>` mentioning a hash name.
                let mut j = i + 1;
                while j < (i + 16).min(n) && !s.is_ident(j, "in") {
                    j += 1;
                }
                if s.is_ident(j, "in") {
                    let mut k = j + 1;
                    while k < (j + 8).min(n) && !s.is_punct(k, "{") {
                        if let Some(nm) = s.ident(k) {
                            if hash_names.contains(nm)
                                // a method call on it is handled above
                                && !s.is_punct(k + 1, ".")
                            {
                                flag(&s, k, nm, "for-in");
                                break;
                            }
                        }
                        k += 1;
                    }
                }
            }
        }
    }
    // Direct chains: `HashMap::from(…).iter()` etc. (rare, but cheap).
    for i in direct {
        if s.in_test(i) {
            continue;
        }
        // Find the matching `)` after `HashMap::method(` then check for `.iter()`.
        if s.is_punct(i + 1, ":") && s.is_punct(i + 2, ":") && s.is_punct(i + 4, "(") {
            let mut d = 1usize;
            let mut j = i + 5;
            while j < n && d > 0 {
                if s.is_punct(j, "(") {
                    d += 1;
                } else if s.is_punct(j, ")") {
                    d -= 1;
                }
                j += 1;
            }
            if s.is_punct(j, ".") && s.ident(j + 1).is_some_and(|m| ITER_METHODS.contains(&m)) {
                flag(
                    &s,
                    j + 1,
                    "a fresh hash collection",
                    s.ident(j + 1).unwrap_or(""),
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: hot-path-panic
// ---------------------------------------------------------------------------

/// Flags `unwrap` / `expect` / `panic!` / `unreachable!` / slice
/// indexing in the PR 9 hot-path modules. One panic there takes down a
/// mutator thread mid-epoch; return the error or handle the `None`.
pub fn hot_path_panic(f: &SourceFile) -> Vec<Finding> {
    if !HOT_PATH_FILES.contains(&f.path.as_str()) {
        return Vec::new();
    }
    let s = Sig::new(f);
    let n = s.len();
    let mut out = Vec::new();
    for i in 0..n {
        if s.in_test(i) {
            continue;
        }
        let Some(t) = s.tok(i) else { continue };
        match t.kind {
            TokKind::Ident => {
                let name = t.text.as_str();
                if (name == "unwrap" || name == "expect")
                    && s.is_punct(i.wrapping_sub(1), ".")
                    && s.is_punct(i + 1, "(")
                {
                    out.push(s.finding(
                        "hot-path-panic",
                        i,
                        format!(
                            "`.{name}()` on a hot-path module — a panic here kills a mutator \
                             thread mid-epoch; handle the None/Err instead"
                        ),
                    ));
                } else if (name == "panic"
                    || name == "unreachable"
                    || name == "todo"
                    || name == "unimplemented"
                    || name == "assert")
                    && s.is_punct(i + 1, "!")
                {
                    out.push(s.finding(
                        "hot-path-panic",
                        i,
                        format!("`{name}!` on a hot-path module — return an error instead"),
                    ));
                }
            }
            TokKind::Punct if t.text == "[" => {
                // Slice/array indexing: `expr[idx]` — `[` directly after
                // an ident, `)` or `]`. (A `[` after `=`/`(`/`,`/operator
                // is an array literal, not an index.)
                let prev = i.wrapping_sub(1);
                let is_index = s.ident(prev).is_some_and(|id| {
                    // `ident [` where ident isn't a keyword introducing
                    // a type or pattern position.
                    !matches!(id, "mut" | "in" | "as" | "dyn" | "impl" | "return" | "box")
                }) || s.is_punct(prev, ")")
                    || s.is_punct(prev, "]");
                // `&x[..]`-style full-range slicing is still a panic
                // site if bounds are wrong, keep it flagged; but skip
                // attribute brackets `#[…]`.
                if is_index && !s.is_punct(prev, "#") {
                    out.push(
                        s.finding(
                            "hot-path-panic",
                            i,
                            "slice indexing on a hot-path module — an out-of-bounds index panics; \
                         use `.get()` and handle the miss"
                                .to_string(),
                        ),
                    );
                }
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: lock-across-send
// ---------------------------------------------------------------------------

/// Calls that can block the calling thread for unbounded time.
const BLOCKING: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "join",
    "wait",
    "wait_timeout",
    "wait_while",
    "accept",
    "connect",
    "write_all",
    "read_exact",
    "flush",
    "sleep",
    "park",
];

/// Flags holding a shim-mutex guard across a channel send or other
/// blocking call in the runtime crates. The guard serializes every
/// other thread behind a peer's flow control; the lockcheck budget
/// catches this at runtime — this rule catches it at review time.
pub fn lock_across_send(f: &SourceFile) -> Vec<Finding> {
    if !LOCK_SCOPE.iter().any(|p| f.path.starts_with(p)) {
        return Vec::new();
    }
    let s = Sig::new(f);
    let n = s.len();

    #[derive(Debug)]
    struct Guard {
        name: Option<String>, // None for a temporary (un-bound) guard
        depth: i32,
        line: u32,
    }

    let mut out = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut claimed_locks: BTreeSet<usize> = BTreeSet::new();
    let mut depth: i32 = 0;
    let mut i = 0;
    while i < n {
        if s.is_punct(i, "{") {
            // A block opening at a temporary guard's depth ends the
            // statement (e.g. an `if cond { … }` condition's
            // temporaries drop before the block runs).
            guards.retain(|g| !(g.name.is_none() && depth == g.depth));
            depth += 1;
        } else if s.is_punct(i, "}") {
            depth -= 1;
            guards.retain(|g| !(g.name.is_some() && depth < g.depth));
            // A temporary guard in a block's tail expression dies with
            // the block too.
            guards.retain(|g| !(g.name.is_none() && depth < g.depth));
        } else if s.is_punct(i, ";") {
            guards.retain(|g| !(g.name.is_none() && depth <= g.depth));
        } else if s.is_ident(i, "let") && !s.in_test(i) {
            // `let [mut] name = … .lock() …;` or
            // `if let Ok(name)/Some(name) = … .try_lock() …`.
            let mut j = i + 1;
            if s.is_ident(j, "mut") {
                j += 1;
            }
            let mut bound = s.ident(j).map(str::to_string);
            if let Some(outer) = &bound {
                if (outer == "Some" || outer == "Ok")
                    && s.is_punct(j + 1, "(")
                    && s.is_punct(j + 3, ")")
                {
                    bound = s.ident(j + 2).map(str::to_string);
                }
            }
            // Scan this statement (to `;` or its body `{`) for a lock.
            let mut k = j;
            let mut d = 0i32;
            let mut lock_at: Option<usize> = None;
            let mut chained = false;
            while k < n && k < i + 400 {
                if s.is_punct(k, "{") && d == 0 {
                    break;
                }
                if s.is_punct(k, "(") {
                    d += 1;
                } else if s.is_punct(k, ")") {
                    d -= 1;
                } else if s.is_punct(k, ";") && d <= 0 {
                    break;
                } else if let Some(m) = s.ident(k) {
                    if (m == "lock" || m == "try_lock")
                        && s.is_punct(k + 1, "(")
                        && !s.is_ident(k.wrapping_sub(1), "fn")
                    {
                        lock_at = Some(k);
                        // `m.lock().field…` — the chain consumes the
                        // guard inside this statement; the bound name
                        // is *not* the guard.
                        let mut close = k + 2;
                        let mut pd = 1i32;
                        while close < n && pd > 0 {
                            if s.is_punct(close, "(") {
                                pd += 1;
                            } else if s.is_punct(close, ")") {
                                pd -= 1;
                            }
                            close += 1;
                        }
                        chained = s.is_punct(close, ".") || s.is_punct(close, "?");
                    }
                }
                k += 1;
            }
            if chained {
                if let Some(at) = lock_at {
                    claimed_locks.insert(at);
                    guards.push(Guard {
                        name: None,
                        depth,
                        line: s.line(at),
                    });
                }
                i += 1;
                continue;
            }
            if let (Some(at), Some(name)) = (lock_at, bound) {
                claimed_locks.insert(at);
                // An `if let` / `while let` binding lives inside the
                // block that follows, not the enclosing scope.
                let scoped =
                    s.is_ident(i.wrapping_sub(1), "if") || s.is_ident(i.wrapping_sub(1), "while");
                guards.push(Guard {
                    name: Some(name),
                    depth: if scoped { depth + 1 } else { depth },
                    line: s.line(at),
                });
            }
        } else if let Some(name) = s.ident(i) {
            if (name == "lock" || name == "try_lock")
                && s.is_punct(i + 1, "(")
                && !s.is_ident(i.wrapping_sub(1), "fn")
                && !claimed_locks.contains(&i)
                && !s.in_test(i)
            {
                // A guard used as a temporary: lives to the end of the
                // enclosing statement.
                guards.push(Guard {
                    name: None,
                    depth,
                    line: s.line(i),
                });
            } else if name == "drop" && s.is_punct(i + 1, "(") {
                if let Some(dropped) = s.ident(i + 2) {
                    if s.is_punct(i + 3, ")") {
                        if let Some(pos) = guards
                            .iter()
                            .rposition(|g| g.name.as_deref() == Some(dropped))
                        {
                            guards.remove(pos);
                        }
                    }
                }
            } else if !guards.is_empty()
                && !s.in_test(i)
                && BLOCKING.contains(&name)
                && s.is_punct(i + 1, "(")
                && (s.is_punct(i.wrapping_sub(1), ".") || s.is_punct(i.wrapping_sub(1), ":"))
            {
                let held = &guards[guards.len() - 1];
                let held_desc = match &held.name {
                    Some(nm) => format!("guard `{nm}`"),
                    None => "a temporary guard".to_string(),
                };
                out.push(s.finding(
                    "lock-across-send",
                    i,
                    format!(
                        "`.{name}()` can block while {held_desc} (locked at line {}) is held — \
                         drop the guard (or move the blocking call out) first",
                        held.line
                    ),
                ));
            }
        }
        i += 1;
    }
    out
}

/// Runs every per-file rule on one file.
pub fn per_file_rules(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(wall_clock(f));
    out.extend(unordered_iter(f));
    out.extend(hot_path_panic(f));
    out.extend(lock_across_send(f));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::new(path, src)
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let f = file(
            "crates/core/src/x.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\nfn after() {}\n",
        );
        let s = Sig::new(&f);
        let live = (0..s.len()).find(|&i| s.is_ident(i, "live")).unwrap();
        let unwrap = (0..s.len()).find(|&i| s.is_ident(i, "unwrap")).unwrap();
        let after = (0..s.len()).find(|&i| s.is_ident(i, "after")).unwrap();
        assert!(!s.in_test(live));
        assert!(s.in_test(unwrap));
        assert!(!s.in_test(after));
    }

    #[test]
    fn wall_clock_fires_only_in_scope() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(wall_clock(&file("crates/core/src/x.rs", src)).len(), 1);
        assert!(wall_clock(&file("crates/core/tests/x.rs", src)).is_empty());
        assert!(wall_clock(&file("crates/shims/x/src/lib.rs", src)).is_empty());
        assert!(wall_clock(&file("crates/obs/src/time.rs", src)).is_empty());
    }

    #[test]
    fn unordered_iter_flags_iteration_not_lookup() {
        let src = "struct S { m: HashMap<u32, u64> }\n\
                   fn f(s: &S) { for (k, v) in s.m.iter() { use_(k, v); } }\n\
                   fn g(s: &S) -> Option<&u64> { s.m.get(&1) }\n";
        let found = unordered_iter(&file("crates/core/src/x.rs", src));
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 2);
        // Same code outside the order-sensitive crates: silent.
        assert!(unordered_iter(&file("crates/obs/src/x.rs", src)).is_empty());
    }

    #[test]
    fn hot_path_panic_catches_unwrap_and_indexing() {
        let src = "fn f(v: &[u8], o: Option<u8>) -> u8 { let a = v[0]; o.unwrap() + a }\n";
        let found = hot_path_panic(&file("crates/core/src/sweep.rs", src));
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(hot_path_panic(&file("crates/core/src/other.rs", src)).is_empty());
    }

    #[test]
    fn lock_across_send_catches_guard_over_send() {
        let src = "fn f(m: &Mutex<u32>, tx: &Sender<u32>) {\n\
                     let g = m.lock();\n\
                     tx.send(*g);\n\
                   }\n";
        let found = lock_across_send(&file("crates/rt-net/src/x.rs", src));
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("line 2"), "{}", found[0].message);
    }

    #[test]
    fn lock_across_send_respects_drop_and_scope() {
        let src = "fn f(m: &Mutex<u32>, tx: &Sender<u32>) {\n\
                     let v = { let g = m.lock(); *g };\n\
                     tx.send(v);\n\
                   }\n\
                   fn h(m: &Mutex<u32>, tx: &Sender<u32>) {\n\
                     let g = m.lock();\n\
                     let v = *g;\n\
                     drop(g);\n\
                     tx.send(v);\n\
                   }\n";
        let found = lock_across_send(&file("crates/rt-net/src/x.rs", src));
        assert!(found.is_empty(), "{found:?}");
    }
}
