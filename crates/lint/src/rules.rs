//! The contract rules.
//!
//! Each rule is a token-pattern detector for a hazard class this codebase
//! has actually fought (see ARCHITECTURE.md "Static analysis & contract
//! enforcement" for the rule ↔ contract mapping). Rules are heuristic by
//! design: they over-approximate, and justified sites carry a
//! `// kamino-lint: allow(rule) -- reason` pragma so every exemption is
//! documented at the site.

use crate::lex::{is_zero_float_literal, TokKind};
use crate::source::{FileCtx, FileKind};

/// Every rule id the engine knows, including the engine-level pragma
/// validator. Sorted; used to validate pragmas and `--json` rule counts.
pub const RULE_IDS: &[&str] = &[
    "bad_pragma",
    "bare_instant",
    "float_fold",
    "hash_order",
    "missing_lint_header",
    "panic_in_serve",
    "raw_rng",
    "twin_drift",
    "unflushed_write",
    "unordered_reduce",
    "wall_clock",
];

/// Crates whose artifacts (reports, HTTP responses, generated corpora,
/// bench JSON) must be byte-stable: hash iteration order is banned there.
const OUTPUT_CRATES: &[&str] = &["bench", "datasets", "eval", "serve"];

/// Crates allowed to construct RNG streams: `dp` owns the
/// planner-registered mechanisms, `core` owns the session's seeded
/// sample/train streams and the snapshot RNG cursor.
const RNG_CRATES: &[&str] = &["core", "dp"];

/// One reported (pre-suppression) rule hit.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Rule id, one of [`RULE_IDS`].
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

/// Run every per-file rule against one file.
pub fn check_file(ctx: &FileCtx) -> Vec<RawFinding> {
    let mut out = Vec::new();
    hash_order(ctx, &mut out);
    wall_clock(ctx, &mut out);
    bare_instant(ctx, &mut out);
    raw_rng(ctx, &mut out);
    float_fold(ctx, &mut out);
    unordered_reduce(ctx, &mut out);
    panic_in_serve(ctx, &mut out);
    unflushed_write(ctx, &mut out);
    missing_lint_header(ctx, &mut out);
    out
}

/// Text of the `ci`-th code token (comment-free view).
fn t(ctx: &FileCtx, ci: usize) -> &str {
    ctx.tokens[ctx.code[ci]].text(&ctx.src)
}

fn pos(ctx: &FileCtx, ci: usize) -> (u32, u32) {
    let tok = &ctx.tokens[ctx.code[ci]];
    (tok.line, tok.col)
}

/// `hash_order`: `HashMap`/`HashSet` anywhere in an output-producing
/// crate (tests included — hash order makes tests flaky too).
fn hash_order(ctx: &FileCtx, out: &mut Vec<RawFinding>) {
    if !OUTPUT_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    for ci in 0..ctx.code.len() {
        let txt = t(ctx, ci);
        if txt == "HashMap" || txt == "HashSet" {
            let (line, col) = pos(ctx, ci);
            out.push(RawFinding {
                rule: "hash_order",
                line,
                col,
                message: format!(
                    "`{txt}` in output-producing crate `{}`: iteration order varies per process, breaking byte-stable artifacts",
                    ctx.crate_name
                ),
                hint: "use BTreeMap/BTreeSet, or sort entries before anything order-sensitive"
                    .into(),
            });
        }
    }
}

/// `wall_clock`: `Instant::now()` / `SystemTime` reads outside tests and
/// benches. Timing-producing modules annotate each site.
fn wall_clock(ctx: &FileCtx, out: &mut Vec<RawFinding>) {
    if matches!(ctx.kind, FileKind::TestDir | FileKind::Bench) {
        return;
    }
    let n = ctx.code.len();
    for ci in 0..n {
        if ctx.is_test_code(ci) {
            continue;
        }
        let txt = t(ctx, ci);
        let hit =
            (txt == "Instant" && ci + 2 < n && t(ctx, ci + 1) == "::" && t(ctx, ci + 2) == "now")
                || txt == "SystemTime";
        if hit {
            let (line, col) = pos(ctx, ci);
            out.push(RawFinding {
                rule: "wall_clock",
                line,
                col,
                message: "wall-clock read in deterministic-contract code: timestamps leaking into artifacts break byte-identical re-runs".into(),
                hint: "keep timing behind a --timings gate and out of default artifacts; annotate gated sites with a reason".into(),
            });
        }
    }
}

/// `bare_instant`: any `Instant::now()` / `SystemTime` read outside
/// tests and benches, in *every* crate. Distinct from [`wall_clock`]
/// (which is about timestamps reaching artifacts): this rule funnels all
/// timing through `kamino_obs::clock`, the workspace's single choke
/// point, so "does observability read the clock?" stays auditable at one
/// site. Both rules fire on a raw read; `kamino_obs::clock` itself
/// carries the one dual pragma.
fn bare_instant(ctx: &FileCtx, out: &mut Vec<RawFinding>) {
    if matches!(ctx.kind, FileKind::TestDir | FileKind::Bench) {
        return;
    }
    let n = ctx.code.len();
    for ci in 0..n {
        if ctx.is_test_code(ci) {
            continue;
        }
        let txt = t(ctx, ci);
        let hit =
            (txt == "Instant" && ci + 2 < n && t(ctx, ci + 1) == "::" && t(ctx, ci + 2) == "now")
                || txt == "SystemTime";
        if hit {
            let (line, col) = pos(ctx, ci);
            out.push(RawFinding {
                rule: "bare_instant",
                line,
                col,
                message: "raw clock read bypasses the kamino_obs::clock choke point, making observability's clock usage unauditable".into(),
                hint: "call kamino_obs::clock::now_nanos()/secs_since() instead; the choke point itself holds the single allow pragma".into(),
            });
        }
    }
}

/// `raw_rng`: RNG construction outside `kamino-dp`'s planner-registered
/// mechanisms and `kamino-core`'s session-seeded streams. Entropy-based
/// sources are flagged everywhere, even in tests.
fn raw_rng(ctx: &FileCtx, out: &mut Vec<RawFinding>) {
    let n = ctx.code.len();
    for ci in 0..n {
        let txt = t(ctx, ci);
        let is_call = ci + 1 < n && t(ctx, ci + 1) == "(";
        if matches!(txt, "thread_rng" | "from_entropy" | "OsRng") {
            let (line, col) = pos(ctx, ci);
            out.push(RawFinding {
                rule: "raw_rng",
                line,
                col,
                message: format!(
                    "`{txt}`: entropy-seeded randomness is never planner-accounted and breaks fixed-seed determinism"
                ),
                hint: "derive every stream from the session seed via kamino-dp mechanisms or kamino-core's session-seeded streams".into(),
            });
            continue;
        }
        if matches!(txt, "from_seed" | "seed_from_u64" | "from_state")
            && is_call
            && !matches!(ctx.kind, FileKind::TestDir | FileKind::Bench)
            && !ctx.is_test_code(ci)
            && !RNG_CRATES.contains(&ctx.crate_name.as_str())
        {
            let (line, col) = pos(ctx, ci);
            out.push(RawFinding {
                rule: "raw_rng",
                line,
                col,
                message: format!(
                    "RNG constructed via `{txt}` outside kamino-dp/kamino-core: ad-hoc streams bypass the budget planner's accounting",
                    ),
                hint: "take the stream from the session (planner-registered mechanism or the session seed); annotate justified harness/baseline streams with a reason".into(),
            });
        }
    }
}

/// `float_fold`: an `f64` fold accumulator seeded with literal `+0.0`.
/// The fold identity for float sums is `-0.0` (the PR 5 parity-bug
/// class); max/min folds annotate instead.
fn float_fold(ctx: &FileCtx, out: &mut Vec<RawFinding>) {
    let n = ctx.code.len();
    for ci in 0..n.saturating_sub(2) {
        if t(ctx, ci) == "fold" && t(ctx, ci + 1) == "(" {
            let lit = &ctx.tokens[ctx.code[ci + 2]];
            if lit.kind == TokKind::Num && is_zero_float_literal(lit.text(&ctx.src)) {
                let (line, col) = (lit.line, lit.col);
                out.push(RawFinding {
                    rule: "float_fold",
                    line,
                    col,
                    message: "float fold accumulator starts at +0.0: the sum fold identity is -0.0, and the +0.0 seed silently breaks tiled/serial bit-parity".into(),
                    hint: "seed sums with -0.0 (matching `Sum for f64`); for max/min folds annotate the site with a reason".into(),
                });
            }
        }
    }
}

/// `unordered_reduce`: pushing/extending a shared locked collection —
/// arrival order under concurrent scheduling is nondeterministic.
fn unordered_reduce(ctx: &FileCtx, out: &mut Vec<RawFinding>) {
    let n = ctx.code.len();
    for ci in 0..n {
        if !(t(ctx, ci) == "lock" && ci + 2 < n && t(ctx, ci + 1) == "(" && t(ctx, ci + 2) == ")") {
            continue;
        }
        // walk the rest of the expression chain: .unwrap()/.expect(…)
        // wrappers, then look for an order-sensitive append
        let mut j = ci + 3;
        loop {
            if j + 1 >= n || t(ctx, j) != "." {
                break;
            }
            let name = t(ctx, j + 1);
            if matches!(name, "unwrap" | "expect") {
                // skip past the call's parentheses
                let mut k = j + 2;
                let mut depth = 0usize;
                while k < n {
                    match t(ctx, k) {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                j = k + 1;
                continue;
            }
            if matches!(name, "push" | "extend") {
                let (line, col) = pos(ctx, j + 1);
                out.push(RawFinding {
                    rule: "unordered_reduce",
                    line,
                    col,
                    message: format!(
                        "`.lock().{name}(..)`: appends to a shared locked collection land in scheduling order, which is not deterministic",
                    ),
                    hint: "collect into per-worker or index-addressed slots and merge in a fixed order (see ScoreSet::merge / the repro matrix slots)".into(),
                });
            }
            break;
        }
    }
}

/// `panic_in_serve`: `unwrap`/`expect`/`panic!` in `kamino-serve`
/// non-test code. `lock().unwrap()` (poison propagation) is exempt.
fn panic_in_serve(ctx: &FileCtx, out: &mut Vec<RawFinding>) {
    if ctx.crate_name != "serve" || matches!(ctx.kind, FileKind::TestDir | FileKind::Bench) {
        return;
    }
    let n = ctx.code.len();
    for ci in 0..n {
        if ctx.is_test_code(ci) {
            continue;
        }
        let txt = t(ctx, ci);
        let preceded_by_lock = ci >= 4
            && t(ctx, ci - 1) == "."
            && t(ctx, ci - 2) == ")"
            && t(ctx, ci - 3) == "("
            && t(ctx, ci - 4) == "lock";
        let hit = match txt {
            "panic" => ci + 1 < n && t(ctx, ci + 1) == "!",
            "unwrap" => {
                ci + 2 < n
                    && t(ctx, ci + 1) == "("
                    && t(ctx, ci + 2) == ")"
                    && ci >= 1
                    && t(ctx, ci - 1) == "."
                    && !preceded_by_lock
            }
            "expect" => {
                // Option/Result::expect takes a &str message; a non-string
                // argument means some other method named `expect`
                ci + 2 < n
                    && t(ctx, ci + 1) == "("
                    && ctx.tokens[ctx.code[ci + 2]].kind == TokKind::Str
                    && !preceded_by_lock
            }
            _ => false,
        };
        if hit {
            let (line, col) = pos(ctx, ci);
            out.push(RawFinding {
                rule: "panic_in_serve",
                line,
                col,
                message: format!(
                    "`{txt}` on a serving path: a panic tears down the request thread and can poison shared model state",
                ),
                hint: "map the error to an HTTP status instead (lock().unwrap() poison propagation is exempt); annotate justified sites with a reason".into(),
            });
        }
    }
}

/// How many code tokens after a `File::create` the rule scans for a
/// `sync_all` before declaring the write unflushed. The scan stops early
/// at the next `fn` so a sync in the following function never gets
/// credited.
const SYNC_WINDOW: usize = 80;

/// `unflushed_write`: persistence writes in `kamino-serve` that bypass
/// the `serve::durable` fsync/rename protocol. `fs::write` has no handle
/// to sync; a `File::create` with no `sync_all` in the statements that
/// follow leaves bytes in the page cache that a crash can drop, exactly
/// the torn-snapshot class the atomic installer exists to prevent.
fn unflushed_write(ctx: &FileCtx, out: &mut Vec<RawFinding>) {
    if ctx.crate_name != "serve" || matches!(ctx.kind, FileKind::TestDir | FileKind::Bench) {
        return;
    }
    let n = ctx.code.len();
    for ci in 0..n {
        if ctx.is_test_code(ci) {
            continue;
        }
        let path_call = |what: &str| {
            t(ctx, ci) == what
                && ci + 3 < n
                && t(ctx, ci + 1) == "::"
                && t(ctx, ci + 2) == if what == "fs" { "write" } else { "create" }
                && t(ctx, ci + 3) == "("
        };
        let (hit, message) = if path_call("fs") {
            (
                true,
                "`fs::write` on a serve persistence path: the convenience writer has no handle to fsync, so a crash can drop or tear the file",
            )
        } else if path_call("File") {
            let mut synced = false;
            let mut j = ci + 4;
            let end = (ci + SYNC_WINDOW).min(n);
            while j < end {
                match t(ctx, j) {
                    "sync_all" => {
                        synced = true;
                        break;
                    }
                    "fn" => break,
                    _ => {}
                }
                j += 1;
            }
            (
                !synced,
                "`File::create` on a serve persistence path with no `sync_all` before the function ends: unsynced bytes sit in the page cache a crash can drop",
            )
        } else {
            (false, "")
        };
        if hit {
            let (line, col) = pos(ctx, ci);
            out.push(RawFinding {
                rule: "unflushed_write",
                line,
                col,
                message: message.into(),
                hint: "route the write through serve::durable::write_atomic (write-tmp, fsync, rename, fsync dir), or sync_all the handle; annotate best-effort debug artifacts with a reason".into(),
            });
        }
    }
}

/// `missing_lint_header`: every crate root must carry
/// `#![warn(missing_docs)]` and `#![forbid(unsafe_code)]`.
fn missing_lint_header(ctx: &FileCtx, out: &mut Vec<RawFinding>) {
    let is_crate_root = ctx.rel_path == "src/lib.rs"
        || (ctx.rel_path.starts_with("crates/") && ctx.rel_path.ends_with("/src/lib.rs"));
    if !is_crate_root {
        return;
    }
    let mut has_docs = false;
    let mut has_unsafe = false;
    let n = ctx.code.len();
    let mut ci = 0;
    while ci + 2 < n {
        if t(ctx, ci) == "#" && t(ctx, ci + 1) == "!" && t(ctx, ci + 2) == "[" {
            let mut idents = Vec::new();
            let mut j = ci + 2;
            let mut depth = 0usize;
            while j < n {
                match t(ctx, j) {
                    "[" | "(" => depth += 1,
                    "]" | ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    other => idents.push(other.to_string()),
                }
                j += 1;
            }
            let has = |s: &str| idents.iter().any(|i| i == s);
            if has("warn") && has("missing_docs") {
                has_docs = true;
            }
            if has("forbid") && has("unsafe_code") {
                has_unsafe = true;
            }
            ci = j + 1;
            continue;
        }
        ci += 1;
    }
    for (ok, attr) in [
        (has_docs, "#![warn(missing_docs)]"),
        (has_unsafe, "#![forbid(unsafe_code)]"),
    ] {
        if !ok {
            out.push(RawFinding {
                rule: "missing_lint_header",
                line: 1,
                col: 1,
                message: format!("crate root lacks `{attr}`"),
                hint: "add the inner attribute below the crate docs; every workspace crate carries both".into(),
            });
        }
    }
}

/// `twin_drift`: a workspace-level pass. Every `*_ref`/`*_reference`
/// function (and `*Ref` struct) defined in library code must be
/// referenced from at least one test or bench — unexercised parity twins
/// rot silently.
pub fn twin_drift(files: &[FileCtx]) -> Vec<(usize, RawFinding)> {
    // pass 1: definitions in non-test library code
    struct Twin {
        name: String,
        file_idx: usize,
        line: u32,
        col: u32,
    }
    let mut twins: Vec<Twin> = Vec::new();
    for (fi, ctx) in files.iter().enumerate() {
        if !matches!(ctx.kind, FileKind::Lib) {
            continue;
        }
        let n = ctx.code.len();
        for ci in 0..n.saturating_sub(1) {
            if ctx.is_test_code(ci) {
                continue;
            }
            let kw = t(ctx, ci);
            let name = t(ctx, ci + 1);
            let is_twin = (kw == "fn" && (name.ends_with("_ref") || name.ends_with("_reference")))
                || (kw == "struct" && name.ends_with("Ref"));
            if is_twin {
                let (line, col) = pos(ctx, ci + 1);
                twins.push(Twin {
                    name: name.to_string(),
                    file_idx: fi,
                    line,
                    col,
                });
            }
        }
    }
    if twins.is_empty() {
        return Vec::new();
    }
    // pass 2: references from test or bench code anywhere in the tree
    let mut used = vec![false; twins.len()];
    for ctx in files {
        let whole_file_counts = matches!(ctx.kind, FileKind::TestDir | FileKind::Bench);
        for ci in 0..ctx.code.len() {
            if !whole_file_counts && !ctx.is_test_code(ci) {
                continue;
            }
            let txt = t(ctx, ci);
            for (wi, twin) in twins.iter().enumerate() {
                if !used[wi] && twin.name == txt {
                    used[wi] = true;
                }
            }
        }
    }
    twins
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(twin, _)| {
            (
                twin.file_idx,
                RawFinding {
                    rule: "twin_drift",
                    line: twin.line,
                    col: twin.col,
                    message: format!(
                        "reference twin `{}` is not exercised by any test or bench; an unchecked twin stops guaranteeing parity",
                        twin.name
                    ),
                    hint: "add a parity test or bench pairing the twin with its optimized path, or delete the twin".into(),
                },
            )
        })
        .collect()
}
