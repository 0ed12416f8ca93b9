//! The project rule set.
//!
//! Five rules guard the workspace's core invariant — every seeded
//! artifact is byte-identical across thread counts, drivers and
//! refactors — plus one meta-rule for the annotation syntax itself:
//!
//! * **rng-discipline** — `SeedTree::new(` (ad-hoc seeding) is forbidden
//!   in library code outside the harness crates; in `oscar-protocol`,
//!   draws from the driver-supplied RNG are forbidden too (protocol
//!   randomness must flow through token streams).
//! * **label-registry** — `const LBL_*` declarations must live in the
//!   generated registry `crates/types/src/labels.rs`; the registry
//!   itself must not repeat a value within one derivation scope.
//! * **iter-order** — `HashMap`/`HashSet` iteration in the deterministic
//!   crates (`oscar-protocol`, `oscar-sim`) is non-deterministic and
//!   forbidden.
//! * **wall-clock** — `Instant::now`/`SystemTime::now` are forbidden
//!   outside `oscar-runtime` stats and bench timing.
//! * **panic-policy** — `unwrap`/`expect`/`panic!` in `oscar-protocol`
//!   library paths are forbidden: state machines must surface faults as
//!   events, not kill a worker thread.
//!
//! Any finding can be waived in place with a `// lint:allow` comment —
//! arguments `rule-name, reason` — on the offending line or alone on
//! the line above; the reason string is mandatory (**allow-syntax**
//! errors otherwise), and an allow that suppresses nothing is stale and
//! reported too.

use crate::lexer::{lex, test_regions, Comment, Tok, TokKind};
use std::cell::Cell;
use std::fmt;

/// Crates whose library code must stay deterministic (iter-order scope).
pub const DETERMINISTIC_CRATES: &[&str] = &["oscar-protocol", "oscar-sim"];

/// Harness crates exempt from rng-discipline (experiment drivers own
/// their root seeds) and wall-clock (they time things by design).
pub const HARNESS_CRATES: &[&str] = &["oscar-bench", "oscar-lint"];

/// Crates allowed to read the wall clock in library code.
pub const WALL_CLOCK_CRATES: &[&str] = &["oscar-runtime", "oscar-bench", "oscar-lint"];

/// Repo-relative path of the generated seed-label registry.
pub const REGISTRY_PATH: &str = "crates/types/src/labels.rs";

/// All rule names, for allow-annotation validation.
pub const RULE_NAMES: &[&str] = &[
    "rng-discipline",
    "label-registry",
    "iter-order",
    "wall-clock",
    "panic-policy",
];

/// What kind of source file this is, by path convention.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Crate library code — the full rule set applies.
    Lib,
    /// `src/main.rs` or `src/bin/` entry point: owns a root seed, may
    /// time itself.
    Bin,
    /// `tests/` integration harness.
    TestHarness,
    /// `examples/` demo.
    Example,
}

/// Where a file sits in the workspace, for rule scoping.
#[derive(Clone, Debug)]
pub struct FileCtx {
    /// Package name (`oscar-sim`, …; `oscar` for the root facade).
    pub crate_name: String,
    /// Repo-relative path with `/` separators.
    pub rel_path: String,
    /// Path-convention class.
    pub kind: FileKind,
}

/// One rule violation (or annotation error).
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule name (`rng-discipline`, …, or `allow-syntax`).
    pub rule: &'static str,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Human explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed `lint:allow` annotation and the lines it covers.
struct Allow {
    rule: String,
    has_reason: bool,
    /// Lines this allow waives (its own line, plus the next code line
    /// when the comment stands alone).
    covers: Vec<u32>,
    line: u32,
    used: Cell<bool>,
}

/// Everything the rules need about one file.
struct FileScan<'a> {
    ctx: &'a FileCtx,
    lines: Vec<&'a str>,
    toks: Vec<Tok>,
    regions: Vec<(u32, u32)>,
    allows: Vec<Allow>,
}

impl FileScan<'_> {
    fn in_test_region(&self, line: u32) -> bool {
        self.regions.iter().any(|&(a, b)| line >= a && line <= b)
    }

    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// True (and marks the allow used) iff `rule` is waived on `line`.
    fn allowed(&self, rule: &str, line: u32) -> bool {
        for a in &self.allows {
            if a.rule == rule && a.has_reason && a.covers.contains(&line) {
                a.used.set(true);
                return true;
            }
        }
        false
    }

    fn push(&self, out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
        if self.allowed(rule, line) {
            return;
        }
        out.push(Finding {
            rule,
            file: self.ctx.rel_path.clone(),
            line,
            snippet: self.snippet(line),
            message,
        });
    }
}

/// Lints one file's source against every in-scope rule.
pub fn lint_file(ctx: &FileCtx, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let regions = test_regions(&lexed.toks);
    let scan = FileScan {
        ctx,
        lines: src.lines().collect(),
        toks: lexed.toks,
        regions,
        allows: collect_allows(&lexed.comments, src),
    };
    let mut out = Vec::new();
    allow_syntax(&scan, &mut out);
    rng_discipline(&scan, &mut out);
    label_registry(&scan, &mut out);
    iter_order(&scan, &mut out);
    wall_clock(&scan, &mut out);
    panic_policy(&scan, &mut out);
    stale_allows(&scan, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Parses `lint:allow` annotations — `rule, reason` — out of the comments.
fn collect_allows(comments: &[Comment], src: &str) -> Vec<Allow> {
    let code_lines: Vec<u32> = {
        // Lines carrying any non-comment code, for own-line targeting.
        let lexed = lex(src);
        let mut ls: Vec<u32> = lexed.toks.iter().map(|t| t.line).collect();
        ls.dedup();
        ls
    };
    let mut out = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("lint:allow(") else {
            continue;
        };
        let body = &c.text[pos + "lint:allow(".len()..];
        let end = body.rfind(')').unwrap_or(body.len());
        let inner = &body[..end];
        let (rule, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim().to_string(), !why.trim().is_empty()),
            None => (inner.trim().to_string(), false),
        };
        let mut covers = vec![c.line];
        if c.own_line {
            if let Some(&next) = code_lines.iter().find(|&&l| l > c.line) {
                covers.push(next);
            }
        }
        out.push(Allow {
            rule,
            has_reason: reason,
            covers,
            line: c.line,
            used: Cell::new(false),
        });
    }
    out
}

/// allow-syntax: malformed annotations are themselves findings.
fn allow_syntax(scan: &FileScan, out: &mut Vec<Finding>) {
    for a in &scan.allows {
        if scan.in_test_region(a.line) {
            continue;
        }
        if !RULE_NAMES.contains(&a.rule.as_str()) {
            out.push(Finding {
                rule: "allow-syntax",
                file: scan.ctx.rel_path.clone(),
                line: a.line,
                snippet: scan.snippet(a.line),
                message: format!(
                    "unknown rule `{}` in lint:allow (rules: {})",
                    a.rule,
                    RULE_NAMES.join(", ")
                ),
            });
        } else if !a.has_reason {
            out.push(Finding {
                rule: "allow-syntax",
                file: scan.ctx.rel_path.clone(),
                line: a.line,
                snippet: scan.snippet(a.line),
                message: format!(
                    "lint:allow({}) needs a reason: lint:allow({}, why this is sound)",
                    a.rule, a.rule
                ),
            });
        }
    }
}

/// Reports allows that waived nothing (stale after a refactor).
fn stale_allows(scan: &FileScan, out: &mut Vec<Finding>) {
    for a in &scan.allows {
        if scan.in_test_region(a.line) || !RULE_NAMES.contains(&a.rule.as_str()) || !a.has_reason {
            continue;
        }
        if !a.used.get() {
            out.push(Finding {
                rule: "allow-syntax",
                file: scan.ctx.rel_path.clone(),
                line: a.line,
                snippet: scan.snippet(a.line),
                message: format!("stale lint:allow({}): it suppresses nothing", a.rule),
            });
        }
    }
}

/// rng-discipline (see module docs).
fn rng_discipline(scan: &FileScan, out: &mut Vec<Finding>) {
    if scan.ctx.kind != FileKind::Lib || HARNESS_CRATES.contains(&scan.ctx.crate_name.as_str()) {
        return;
    }
    let toks = &scan.toks;
    for i in 0..toks.len() {
        if scan.in_test_region(toks[i].line) {
            continue;
        }
        if toks[i].is_ident("SeedTree")
            && i + 3 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("new")
        {
            scan.push(
                out,
                "rng-discipline",
                toks[i].line,
                "SeedTree::new outside an allowlisted entry point: derive from the caller's \
                 seed tree instead of rooting a new one"
                    .to_string(),
            );
        }
        // Protocol-crate randomness must be token-carried: calls on the
        // driver-supplied RngCore are flagged.
        if scan.ctx.crate_name == "oscar-protocol"
            && toks[i].is_punct('.')
            && i + 1 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && matches!(
                toks[i + 1].text.as_str(),
                "gen" | "gen_range" | "gen_bool" | "next_u32" | "next_u64" | "fill_bytes"
            )
        {
            scan.push(
                out,
                "rng-discipline",
                toks[i + 1].line,
                format!(
                    "driver-RNG draw `.{}` in protocol code: deterministic decisions must \
                     draw from the token-carried TokenRng",
                    toks[i + 1].text
                ),
            );
        }
    }
}

/// label-registry stray-declaration half; the registry's own
/// self-consistency is checked by [`crate::registry::check_registry`].
fn label_registry(scan: &FileScan, out: &mut Vec<Finding>) {
    if scan.ctx.rel_path == REGISTRY_PATH {
        return;
    }
    if matches!(scan.ctx.kind, FileKind::TestHarness | FileKind::Example) {
        return;
    }
    let toks = &scan.toks;
    for i in 0..toks.len().saturating_sub(1) {
        if scan.in_test_region(toks[i].line) {
            continue;
        }
        if toks[i].is_ident("const")
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 1].text.starts_with("LBL_")
        {
            scan.push(
                out,
                "label-registry",
                toks[i].line,
                format!(
                    "seed label `{}` declared outside the registry: add it to {} \
                     (oscar-lint --write-registry) and import it",
                    toks[i + 1].text,
                    REGISTRY_PATH
                ),
            );
        }
    }
}

/// iter-order (see module docs).
fn iter_order(scan: &FileScan, out: &mut Vec<Finding>) {
    if scan.ctx.kind != FileKind::Lib
        || !DETERMINISTIC_CRATES.contains(&scan.ctx.crate_name.as_str())
    {
        return;
    }
    let toks = &scan.toks;
    // Pass 1: names bound to hash containers — `name: HashMap<…>` fields
    // and params, `name = HashMap::new()` / `with_capacity` bindings.
    let mut hash_names: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("HashMap") || toks[i].is_ident("HashSet")) {
            continue;
        }
        // Walk back over a `std::collections::` path prefix, then over
        // wrapper generics (`Mutex<HashMap<…>`) and reference sigils so
        // `actors: RwLock<HashMap<…>>` still binds `actors`.
        let mut j = i;
        while j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
            j -= 3; // `ident ::` before the current path segment
        }
        loop {
            if j >= 2 && toks[j - 1].is_punct('<') && toks[j - 2].kind == TokKind::Ident {
                j -= 2;
            } else if j >= 1 && (toks[j - 1].is_punct('&') || toks[j - 1].is_ident("mut")) {
                j -= 1;
            } else {
                break;
            }
        }
        if j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].kind == TokKind::Ident {
            // `name : [path::]HashMap`
            hash_names.push(toks[j - 2].text.clone());
        } else if j >= 2 && toks[j - 1].is_punct('=') && toks[j - 2].kind == TokKind::Ident {
            // `name = [path::]HashMap::new()`
            hash_names.push(toks[j - 2].text.clone());
        }
    }
    hash_names.sort();
    hash_names.dedup();
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
    // Pass 2: iteration over those names.
    for i in 0..toks.len() {
        if scan.in_test_region(toks[i].line) {
            continue;
        }
        if toks[i].kind != TokKind::Ident || !hash_names.contains(&toks[i].text) {
            continue;
        }
        let name = &toks[i].text;
        // `name.iter()` family.
        if i + 2 < toks.len()
            && toks[i + 1].is_punct('.')
            && toks[i + 2].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i + 2].text.as_str())
        {
            scan.push(
                out,
                "iter-order",
                toks[i].line,
                format!(
                    "iteration over hash container `{name}.{}()`: order is nondeterministic — \
                     use BTreeMap/BTreeSet or collect-and-sort",
                    toks[i + 2].text
                ),
            );
        }
        // `for pat in [&][mut] name {` — direct hash iteration.
        let mut k = i;
        while k > 0 && (toks[k - 1].is_punct('&') || toks[k - 1].is_ident("mut")) {
            k -= 1;
        }
        if k > 0 && toks[k - 1].is_ident("in") && i + 1 < toks.len() && toks[i + 1].is_punct('{') {
            scan.push(
                out,
                "iter-order",
                toks[i].line,
                format!(
                    "for-loop over hash container `{name}`: order is nondeterministic — \
                     use BTreeMap/BTreeSet or collect-and-sort"
                ),
            );
        }
    }
}

/// wall-clock (see module docs).
fn wall_clock(scan: &FileScan, out: &mut Vec<Finding>) {
    if scan.ctx.kind != FileKind::Lib || WALL_CLOCK_CRATES.contains(&scan.ctx.crate_name.as_str()) {
        return;
    }
    let toks = &scan.toks;
    for i in 0..toks.len().saturating_sub(3) {
        if scan.in_test_region(toks[i].line) {
            continue;
        }
        if (toks[i].is_ident("Instant") || toks[i].is_ident("SystemTime"))
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("now")
        {
            scan.push(
                out,
                "wall-clock",
                toks[i].line,
                format!(
                    "{}::now in deterministic code: wall-clock reads belong in oscar-runtime \
                     stats or bench timing; simulations advance VirtualTime",
                    toks[i].text
                ),
            );
        }
    }
}

/// panic-policy (see module docs).
fn panic_policy(scan: &FileScan, out: &mut Vec<Finding>) {
    if scan.ctx.crate_name != "oscar-protocol" || scan.ctx.kind != FileKind::Lib {
        return;
    }
    let toks = &scan.toks;
    for i in 0..toks.len() {
        if scan.in_test_region(toks[i].line) {
            continue;
        }
        if toks[i].is_punct('.')
            && i + 1 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && matches!(
                toks[i + 1].text.as_str(),
                "unwrap" | "unwrap_err" | "expect" | "expect_err"
            )
        {
            scan.push(
                out,
                "panic-policy",
                toks[i + 1].line,
                format!(
                    "`.{}` in a protocol path: a poisoned machine kills its worker thread — \
                     recover and emit ProtocolEvent::Fault instead",
                    toks[i + 1].text
                ),
            );
        }
        if toks[i].kind == TokKind::Ident
            && matches!(
                toks[i].text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('!')
        {
            scan.push(
                out,
                "panic-policy",
                toks[i].line,
                format!(
                    "`{}!` in a protocol path: state machines must return errors or emit \
                     ProtocolEvent::Fault, not panic",
                    toks[i].text
                ),
            );
        }
    }
}
