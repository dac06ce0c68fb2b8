//! The geometa-lint rule catalog.
//!
//! Each rule is a token-sequence matcher over the stripped token stream
//! from [`crate::lexer`]. Rules are deliberately repo-specific: they
//! encode the determinism and concurrency contracts this codebase
//! actually relies on (simulation determinism, tracked threads, ordered
//! wire output, peer-input error handling), not general Rust style.

use crate::lexer::{Lexed, Tok};

/// A rule violation at a specific line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name, e.g. `wall-clock`.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// Which rules apply to a file, decided from its repo-relative path.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleSet {
    /// `wall-clock`: no `Instant::now`/`SystemTime::now` in
    /// deterministic crates — simulated time comes from the scheduler.
    pub wall_clock: bool,
    /// `unseeded-rng`: no entropy-seeded RNG in deterministic crates —
    /// all randomness flows from the experiment seed.
    pub unseeded_rng: bool,
    /// `untracked-thread`: no raw `std::thread::spawn`/`Builder`
    /// outside `runtime::Spawner` internals.
    pub untracked_thread: bool,
    /// `unordered-iter`: no HashMap/HashSet iteration feeding output
    /// without an explicit ordering step.
    pub unordered_iter: bool,
    /// `net-unwrap`: no `unwrap()`/`expect()` on connection/framing
    /// paths in `crates/net`.
    pub net_unwrap: bool,
    /// `net-deadline`: blocking socket calls in `crates/net` must carry
    /// a deadline — no bare `TcpStream::connect`, and never
    /// `set_read_timeout(None)` / `set_write_timeout(None)`. A socket
    /// without a deadline turns one dark peer into a wedged thread.
    pub net_deadline: bool,
    /// `durability`: in a WAL module, every `.write`/`.write_all` must
    /// have a `sync_data`/`sync_all` in reach — an acked append that
    /// only made it to the page cache is the torn-tail bug the whole
    /// log exists to prevent.
    pub durability: bool,
    /// `hot-alloc`: no allocating construct (`Vec::new`, `.to_vec()`,
    /// `format!`, `BytesMut::with_capacity`, `.collect()`, …) inside a
    /// function marked `// geometa-hot` — the steady-state wire path is
    /// allocation-free by contract (enforced empirically by
    /// `crates/net/tests/alloc_gate.rs`); justified allocations carry a
    /// waiver.
    pub hot_alloc: bool,
}

/// All rule names, for waiver validation.
pub const RULE_NAMES: &[&str] = &[
    "wall-clock",
    "unseeded-rng",
    "untracked-thread",
    "unordered-iter",
    "net-unwrap",
    "net-deadline",
    "durability",
    "hot-alloc",
];

/// Decide the applicable rules for a repo-relative path (forward
/// slashes). Returns `None` for files the linter skips entirely.
pub fn rules_for(path: &str) -> Option<RuleSet> {
    if !path.ends_with(".rs") {
        return None;
    }
    if path.starts_with("vendor/") || path.starts_with("target/") || path.contains("/fixtures/") {
        return None;
    }
    let mut set = RuleSet {
        // Thread tracking applies everywhere first-party, tests and
        // examples included: an unjoined thread in a test outlives the
        // test and corrupts whichever test runs next on its state.
        untracked_thread: true,
        ..RuleSet::default()
    };
    let in_src = |krate: &str| path.starts_with(&format!("crates/{krate}/src/"));
    let deterministic = ["sim", "experiments", "workflow", "cache"];
    if deterministic.iter().any(|k| in_src(k)) {
        set.wall_clock = true;
        set.unseeded_rng = true;
    }
    if in_src("core") {
        set.unseeded_rng = true;
    }
    let ordered = ["sim", "experiments", "workflow", "cache", "core", "net"];
    if ordered.iter().any(|k| in_src(k)) {
        set.unordered_iter = true;
    }
    if in_src("net") {
        set.net_unwrap = true;
        set.net_deadline = true;
    }
    // The alloc-free contract lives where `// geometa-hot` markers do:
    // the wire path (net), the codec/serve path (core), and the store
    // (cache). The rule is inert in files with no markers.
    let hot = ["core", "net", "cache"];
    if hot.iter().any(|k| in_src(k)) {
        set.hot_alloc = true;
    }
    // WAL modules (any crate, `src/wal*.rs`) carry the fsync contract.
    let file = path.rsplit('/').next().unwrap_or(path);
    if path.contains("/src/") && file.starts_with("wal") {
        set.durability = true;
    }
    Some(set)
}

/// Run every applicable rule over one file's lexed view.
pub fn check(lexed: &Lexed, set: RuleSet) -> Vec<Finding> {
    let tokens = &lexed.tokens[..];
    let mut findings = Vec::new();
    if set.wall_clock {
        wall_clock(tokens, &mut findings);
    }
    if set.unseeded_rng {
        unseeded_rng(tokens, &mut findings);
    }
    if set.untracked_thread {
        untracked_thread(tokens, &mut findings);
    }
    if set.unordered_iter {
        unordered_iter(tokens, &mut findings);
    }
    if set.net_unwrap {
        net_unwrap(tokens, &mut findings);
    }
    if set.net_deadline {
        net_deadline(tokens, &mut findings);
    }
    if set.durability {
        durability(tokens, &mut findings);
    }
    if set.hot_alloc {
        hot_alloc(tokens, &lexed.hot_markers, &mut findings);
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

fn is(t: &Tok, s: &str) -> bool {
    t.text == s
}

/// Match `a :: b` at index `i`.
fn path2(tokens: &[Tok], i: usize, a: &str, b: &str) -> bool {
    i + 2 < tokens.len() && is(&tokens[i], a) && is(&tokens[i + 1], "::") && is(&tokens[i + 2], b)
}

fn wall_clock(tokens: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        if tokens[i].in_test {
            continue;
        }
        for ty in ["Instant", "SystemTime"] {
            if path2(tokens, i, ty, "now") {
                out.push(Finding {
                    rule: "wall-clock",
                    line: tokens[i].line,
                    message: format!(
                        "{ty}::now() in a deterministic crate — simulated time must come \
                         from the scheduler clock, not the host"
                    ),
                });
            }
        }
    }
}

fn unseeded_rng(tokens: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.in_test {
            continue;
        }
        let hit = match t.text.as_str() {
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => Some(t.text.clone()),
            "RandomState" if path2(tokens, i, "RandomState", "new") => {
                Some("RandomState::new".into())
            }
            "rand" if path2(tokens, i, "rand", "random") => Some("rand::random".into()),
            _ => None,
        };
        if let Some(what) = hit {
            out.push(Finding {
                rule: "unseeded-rng",
                line: t.line,
                message: format!(
                    "{what} draws entropy from the host — all randomness in \
                     deterministic crates must derive from the experiment seed"
                ),
            });
        }
    }
}

fn untracked_thread(tokens: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        if path2(tokens, i, "thread", "spawn") || path2(tokens, i, "thread", "Builder") {
            let what = &tokens[i + 2].text;
            out.push(Finding {
                rule: "untracked-thread",
                line: tokens[i].line,
                message: format!(
                    "raw std::thread::{what} — route threads through runtime::Spawner \
                     (tracked + joined at shutdown) or use std::thread::scope"
                ),
            });
        }
    }
}

fn net_unwrap(tokens: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.in_test {
            continue;
        }
        if (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && is(&tokens[i - 1], ".")
            && i + 1 < tokens.len()
            && is(&tokens[i + 1], "(")
        {
            out.push(Finding {
                rule: "net-unwrap",
                line: t.line,
                message: format!(
                    ".{}() in crates/net — peer input and connection failures must \
                     surface as errors, not panics in the server process",
                    t.text
                ),
            });
        }
    }
}

fn net_deadline(tokens: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.in_test {
            continue;
        }
        // `TcpStream::connect(` — the kernel's SYN retry schedule holds
        // the caller for minutes against a dark peer.
        if path2(tokens, i, "TcpStream", "connect")
            && i + 3 < tokens.len()
            && is(&tokens[i + 3], "(")
        {
            out.push(Finding {
                rule: "net-deadline",
                line: t.line,
                message: "TcpStream::connect() dials without a deadline — use \
                          connect_timeout so a dark peer costs a bounded wait, \
                          not the kernel's minutes-long SYN retry schedule"
                    .into(),
            });
        }
        // `.set_read_timeout(None)` / `.set_write_timeout(None)` —
        // explicitly clearing the deadline makes the socket block forever.
        if (t.text == "set_read_timeout" || t.text == "set_write_timeout")
            && i > 0
            && is(&tokens[i - 1], ".")
            && i + 2 < tokens.len()
            && is(&tokens[i + 1], "(")
            && is(&tokens[i + 2], "None")
        {
            out.push(Finding {
                rule: "net-deadline",
                line: t.line,
                message: format!(
                    ".{}(None) clears the socket deadline — every blocking \
                     socket in crates/net must keep a timeout so one dark \
                     peer cannot wedge a thread",
                    t.text
                ),
            });
        }
    }
}

/// How far past a `.write`/`.write_all` the `durability` rule looks for
/// a sync call. Wide enough for `f.write_all(&buf).map_err(..)?;
/// f.sync_all()` in one window, narrow enough that a sync in a distant
/// branch (which may not run for this write) does not count as cover.
const DURABILITY_SYNC_WINDOW: usize = 30;

fn durability(tokens: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.in_test {
            continue;
        }
        if (t.text == "write" || t.text == "write_all")
            && i > 0
            && is(&tokens[i - 1], ".")
            && i + 1 < tokens.len()
            && is(&tokens[i + 1], "(")
        {
            // `.write(true)` is the OpenOptions builder flag, not I/O.
            if t.text == "write" && i + 2 < tokens.len() && is(&tokens[i + 2], "true") {
                continue;
            }
            let synced = tokens[i..]
                .iter()
                .take(DURABILITY_SYNC_WINDOW)
                .any(|t| t.text == "sync_data" || t.text == "sync_all");
            if !synced {
                out.push(Finding {
                    rule: "durability",
                    line: t.line,
                    message: format!(
                        ".{}() in a WAL module with no sync_data/sync_all in reach — \
                         acked must imply durable, so sync on the spot or waive with \
                         the policy that guarantees the sync happens before the ack",
                        t.text
                    ),
                });
            }
        }
    }
}

/// Allocating `Type::method` paths the `hot-alloc` rule rejects.
const HOT_ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("String", "new"),
    ("String", "from"),
    ("Box", "new"),
    ("BytesMut", "with_capacity"),
    ("Bytes", "copy_from_slice"),
];

/// Allocating `.method()` calls the `hot-alloc` rule rejects.
const HOT_ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "to_bytes", "collect"];

/// Allocating macros the `hot-alloc` rule rejects.
const HOT_ALLOC_MACROS: &[&str] = &["format", "vec"];

fn hot_alloc(tokens: &[Tok], markers: &[u32], out: &mut Vec<Finding>) {
    for &mark in markers {
        // The marked function: the first `fn` token at or below the
        // marker line (tokens are in source order, so this is the fn
        // the comment annotates).
        let Some(fn_idx) = tokens.iter().position(|t| t.text == "fn" && t.line >= mark) else {
            continue;
        };
        // Its body: the first `{` after the signature, brace-matched.
        let Some(open) = (fn_idx..tokens.len()).find(|&i| is(&tokens[i], "{")) else {
            continue;
        };
        let mut depth = 0i32;
        let mut close = tokens.len() - 1;
        for (i, t) in tokens.iter().enumerate().skip(open) {
            if is(t, "{") {
                depth += 1;
            } else if is(t, "}") {
                depth -= 1;
                if depth == 0 {
                    close = i;
                    break;
                }
            }
        }
        for i in open..=close {
            let t = &tokens[i];
            if t.in_test {
                continue;
            }
            let what: Option<String> = if let Some((ty, m)) = HOT_ALLOC_PATHS
                .iter()
                .find(|(ty, m)| path2(tokens, i, ty, m))
            {
                Some(format!("{ty}::{m}"))
            } else if HOT_ALLOC_METHODS.contains(&t.text.as_str())
                && i > 0
                && is(&tokens[i - 1], ".")
                && i + 1 < tokens.len()
                && is(&tokens[i + 1], "(")
            {
                Some(format!(".{}()", t.text))
            } else if HOT_ALLOC_MACROS.contains(&t.text.as_str())
                && i + 1 < tokens.len()
                && is(&tokens[i + 1], "!")
            {
                Some(format!("{}!", t.text))
            } else {
                None
            };
            if let Some(what) = what {
                out.push(Finding {
                    rule: "hot-alloc",
                    line: t.line,
                    message: format!(
                        "{what} allocates inside a `// geometa-hot` function — the \
                         steady-state wire path is allocation-free by contract (the \
                         alloc_gate test measures it); reuse scratch, hoist to \
                         setup, or waive with the justification"
                    ),
                });
            }
        }
    }
}

/// Methods on a HashMap/HashSet whose iteration order is nondeterministic.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Tokens that, appearing shortly after an unordered iteration, mean
/// the result is order-insensitive or explicitly re-ordered.
const NEUTRALIZERS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sum",
    "product",
    "count",
    "len",
    "all",
    "any",
    "contains",
    "contains_key",
    "fold",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

/// How far past the iteration call we look for a neutralizer. Wide
/// enough to cover `let mut v: Vec<_> = m.keys().cloned().collect();
/// v.sort();` as a single window.
const NEUTRALIZER_WINDOW: usize = 45;

fn unordered_iter(tokens: &[Tok], out: &mut Vec<Finding>) {
    let tracked = unordered_bindings(tokens);
    if tracked.is_empty() {
        return;
    }
    let neutralized = |from: usize| -> bool {
        tokens[from..]
            .iter()
            .take(NEUTRALIZER_WINDOW)
            .any(|t| NEUTRALIZERS.contains(&t.text.as_str()))
    };
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.in_test {
            i += 1;
            continue;
        }
        // `name.iter()` / `name.keys()` / ...
        if tracked.contains(&t.text.as_str())
            && i + 2 < tokens.len()
            && is(&tokens[i + 1], ".")
            && ITER_METHODS.contains(&tokens[i + 2].text.as_str())
            && i + 3 < tokens.len()
            && is(&tokens[i + 3], "(")
            && !neutralized(i + 2)
        {
            out.push(Finding {
                rule: "unordered-iter",
                line: t.line,
                message: format!(
                    "`{}.{}()` iterates a hash collection in nondeterministic order — \
                     sort before the result can reach output or wire bytes, or use a \
                     BTree collection",
                    t.text,
                    tokens[i + 2].text
                ),
            });
            i += 3;
            continue;
        }
        // `for x in name` / `for x in &name` / `for x in &mut name`
        if is(t, "for") {
            if let Some(in_pos) = tokens[i..]
                .iter()
                .take(12)
                .position(|t| is(t, "in"))
                .map(|p| i + p)
            {
                let mut j = in_pos + 1;
                while j < tokens.len() && (is(&tokens[j], "&") || is(&tokens[j], "mut")) {
                    j += 1;
                }
                if j < tokens.len()
                    && tracked.contains(&tokens[j].text.as_str())
                    && j + 1 < tokens.len()
                    && is(&tokens[j + 1], "{")
                    && !tokens[j].in_test
                    && !neutralized(j)
                {
                    out.push(Finding {
                        rule: "unordered-iter",
                        line: tokens[j].line,
                        message: format!(
                            "`for .. in {}` iterates a hash collection in nondeterministic \
                             order — sort the keys first or use a BTree collection",
                            tokens[j].text
                        ),
                    });
                    i = j + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
}

/// Identifiers bound to HashMap/HashSet values in this file: struct
/// fields (`name: HashMap<..>`), let bindings with an annotated type,
/// and let bindings initialized from `HashMap::new()` etc.
fn unordered_bindings(tokens: &[Tok]) -> Vec<&str> {
    let mut names: Vec<&str> = Vec::new();
    let is_hash = |s: &str| s == "HashMap" || s == "HashSet";
    for i in 0..tokens.len() {
        if !is_hash(&tokens[i].text) {
            continue;
        }
        // Walk back over an optional `std :: collections ::` path prefix,
        // then reference sigils (`& mut`) and lifetime names, so
        // `m: &HashMap<..>` and `m: &'a mut HashMap<..>` both track `m`.
        let mut j = i;
        while j >= 2 && is(&tokens[j - 1], "::") {
            j -= 2;
        }
        while j >= 1
            && (is(&tokens[j - 1], "&")
                || is(&tokens[j - 1], "mut")
                || (j >= 2 && is(&tokens[j - 2], "&") && is_ident(&tokens[j - 1].text)))
        {
            j -= 1;
        }
        // `name : [std::collections::] HashMap` — field or annotated let.
        if j >= 2 && is(&tokens[j - 1], ":") && is_ident(&tokens[j - 2].text) {
            names.push(tokens[j - 2].text.as_str());
            continue;
        }
        // `let [mut] name = [std::collections::] HashMap :: new/with_capacity/from...`
        if j >= 2 && is(&tokens[j - 1], "=") {
            let name_idx = j - 2;
            if is_ident(&tokens[name_idx].text) {
                let mut k = name_idx;
                if k > 0 && is(&tokens[k - 1], "mut") {
                    k -= 1;
                }
                if k > 0 && is(&tokens[k - 1], "let") {
                    names.push(tokens[name_idx].text.as_str());
                }
            }
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c == '_' || c.is_alphabetic())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str, set: RuleSet) -> Vec<Finding> {
        check(&lex(src, false), set)
    }

    #[test]
    fn wall_clock_flags_instant_now() {
        let f = run(
            "fn f() { let t = Instant::now(); }",
            RuleSet {
                wall_clock: true,
                ..Default::default()
            },
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
    }

    #[test]
    fn wall_clock_ignores_test_modules() {
        let f = run(
            "#[cfg(test)] mod t { fn f() { let t = Instant::now(); } }",
            RuleSet {
                wall_clock: true,
                ..Default::default()
            },
        );
        assert!(f.is_empty());
    }

    #[test]
    fn untracked_thread_flags_spawn_and_builder() {
        let set = RuleSet {
            untracked_thread: true,
            ..Default::default()
        };
        assert_eq!(run("fn f() { std::thread::spawn(|| {}); }", set).len(), 1);
        assert_eq!(
            run("fn f() { thread::Builder::new().spawn(|| {}); }", set).len(),
            1
        );
        // Scoped threads join by construction: not flagged.
        assert!(run(
            "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }",
            set
        )
        .is_empty());
    }

    #[test]
    fn net_unwrap_flags_unwrap_and_expect() {
        let set = RuleSet {
            net_unwrap: true,
            ..Default::default()
        };
        let f = run("fn f() { x.unwrap(); y.expect(\"m\"); }", set);
        assert_eq!(f.len(), 2);
        // `unwrap_or_else` is handled error flow, not flagged.
        assert!(run("fn f() { x.unwrap_or_else(|| 0); }", set).is_empty());
    }

    #[test]
    fn net_deadline_flags_unbounded_socket_calls() {
        let set = RuleSet {
            net_deadline: true,
            ..Default::default()
        };
        let f = run("fn f() { let s = TcpStream::connect(addr)?; }", set);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "net-deadline");
        assert_eq!(
            run("fn f(s: &TcpStream) { s.set_read_timeout(None)?; }", set).len(),
            1
        );
        assert_eq!(
            run("fn f(s: &TcpStream) { s.set_write_timeout(None)?; }", set).len(),
            1
        );
        // Deadline-carrying forms are the contract, not violations.
        assert!(run(
            "fn f() { let s = TcpStream::connect_timeout(&addr, DIAL)?; \
             s.set_read_timeout(Some(TICK))?; }",
            set
        )
        .is_empty());
    }

    #[test]
    fn unseeded_rng_flags_entropy_sources() {
        let set = RuleSet {
            unseeded_rng: true,
            ..Default::default()
        };
        assert_eq!(run("fn f() { let r = thread_rng(); }", set).len(), 1);
        assert_eq!(run("fn f() { let s = RandomState::new(); }", set).len(), 1);
        assert!(run("fn f() { let r = StdRng::seed_from_u64(7); }", set).is_empty());
    }

    #[test]
    fn unordered_iter_flags_hash_iteration() {
        let set = RuleSet {
            unordered_iter: true,
            ..Default::default()
        };
        let f = run(
            "fn f(m: HashMap<u32, u32>) { for (k, v) in &m { emit(k, v); } }",
            set,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unordered-iter");
    }

    #[test]
    fn unordered_iter_accepts_sorted_collection() {
        let set = RuleSet {
            unordered_iter: true,
            ..Default::default()
        };
        let f = run(
            "fn f(m: HashMap<u32, u32>) { let mut ks: Vec<_> = m.keys().collect(); ks.sort(); }",
            set,
        );
        assert!(f.is_empty(), "{f:?}");
        // Order-insensitive reductions are fine too.
        let f = run(
            "fn f(m: HashMap<u32, u32>) { let n = m.values().sum::<u32>(); }",
            set,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unordered_iter_ignores_btree() {
        let set = RuleSet {
            unordered_iter: true,
            ..Default::default()
        };
        let f = run(
            "fn f(m: BTreeMap<u32, u32>) { for (k, v) in &m { emit(k, v); } }",
            set,
        );
        assert!(f.is_empty());
    }

    #[test]
    fn hot_alloc_flags_allocations_only_in_marked_fns() {
        let set = RuleSet {
            hot_alloc: true,
            ..Default::default()
        };
        // Marked fn: every allocating form fires.
        let f = run(
            "// geometa-hot\nfn fast() {\n  let a: Vec<u8> = Vec::new();\n  let b = x.to_vec();\n  let c = format!(\"{y}\");\n  let d = BytesMut::with_capacity(64);\n  let e: Vec<u32> = it.collect();\n}\n",
            set,
        );
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert_eq!(f.len(), 5, "{f:?}");
        assert!(rules.iter().all(|r| *r == "hot-alloc"));
        // Unmarked fn: the same body is fine.
        let f = run(
            "fn cold() {\n  let a: Vec<u8> = Vec::new();\n  let c = format!(\"{y}\");\n}\n",
            set,
        );
        assert!(f.is_empty(), "{f:?}");
        // The marker scopes to exactly one fn: the next one.
        let f = run(
            "// geometa-hot\nfn fast() { x.push(1); }\nfn later() { let v = Vec::new(); }\n",
            set,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn rules_for_scopes_by_path() {
        let sim = rules_for("crates/sim/src/scheduler.rs").unwrap();
        assert!(sim.wall_clock && sim.unseeded_rng && sim.unordered_iter);
        assert!(!sim.net_unwrap);
        let net = rules_for("crates/net/src/server.rs").unwrap();
        assert!(net.net_unwrap && net.net_deadline && net.unordered_iter && !net.wall_clock);
        assert!(net.hot_alloc, "the wire path carries the alloc contract");
        assert!(!rules_for("crates/sim/src/scheduler.rs").unwrap().hot_alloc);
        // Socket deadlines are a crates/net server contract only.
        assert!(
            !rules_for("crates/core/src/runtime.rs")
                .unwrap()
                .net_deadline
        );
        let core = rules_for("crates/core/src/runtime.rs").unwrap();
        assert!(core.unseeded_rng && !core.wall_clock && !core.durability);
        assert!(rules_for("vendor/parking_lot/src/lib.rs").is_none());
        assert!(rules_for("crates/check/tests/fixtures/bad.rs").is_none());
        let test_file = rules_for("crates/cache/tests/properties.rs").unwrap();
        assert!(test_file.untracked_thread && !test_file.wall_clock);
        // The fsync contract binds WAL modules wherever they live, but
        // not files that merely exercise them.
        assert!(rules_for("crates/core/src/wal.rs").unwrap().durability);
        assert!(
            !rules_for("crates/core/tests/wal_properties.rs")
                .unwrap()
                .durability
        );
    }

    #[test]
    fn durability_flags_unsynced_wal_writes() {
        let set = RuleSet {
            durability: true,
            ..Default::default()
        };
        let f = run(
            "fn append(f: &mut File) { f.write_all(&buf).unwrap(); }",
            set,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "durability");
        // A sync in reach covers the write.
        assert!(run(
            "fn append(f: &mut File) { f.write_all(&buf)?; f.sync_data()?; Ok(()) }",
            set
        )
        .is_empty());
        // The OpenOptions builder flag is not an I/O write.
        assert!(run(
            "fn open(p: &Path) { OpenOptions::new().read(true).write(true).open(p); }",
            set
        )
        .is_empty());
    }
}
