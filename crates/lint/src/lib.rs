//! `oscar-lint` — the workspace determinism & concurrency gate.
//!
//! Guards the *source* invariants every seeded artifact depends on.
//! Zero external dependencies; a lightweight tokenizer ([`lexer`]) feeds a small rule set ([`rules`]),
//! a registry checker ([`registry`]) and a workspace walker
//! ([`workspace`]). The binary front-end lives in `src/main.rs` and is
//! wired into CI next to clippy.

pub mod lexer;
pub mod registry;
pub mod rules;
pub mod workspace;

use registry::{parse_int, Label, Registry, Scope};
use rules::{FileCtx, FileKind, Finding, REGISTRY_PATH};
use std::fs;
use std::path::Path;
use workspace::{crate_table, crate_table_span, CRATE_TABLE_DOC};

/// Lints the whole workspace under `root`. Findings are sorted by
/// (file, line, rule); an unreadable file is itself a finding.
pub fn run_workspace(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    for (ctx, path) in workspace::workspace_files(root) {
        match fs::read_to_string(&path) {
            Ok(src) => out.extend(rules::lint_file(&ctx, &src)),
            Err(e) => out.push(Finding {
                rule: "allow-syntax",
                file: ctx.rel_path.clone(),
                line: 0,
                snippet: String::new(),
                message: format!("unreadable file: {e}"),
            }),
        }
    }
    match fs::read_to_string(root.join(REGISTRY_PATH)) {
        Ok(src) => out.extend(registry::check_registry(&src)),
        Err(e) => out.push(Finding {
            rule: "label-registry",
            file: REGISTRY_PATH.to_string(),
            line: 0,
            snippet: String::new(),
            message: format!("missing seed-label registry: {e}"),
        }),
    }
    out.extend(check_crate_table(root));
    out.sort_by(|a, b| {
        (&a.file, a.line, a.rule)
            .partial_cmp(&(&b.file, b.line, b.rule))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

/// ARCHITECTURE.md's generated crate table against the manifests: a
/// finding when the marked block is missing or is not what
/// [`crate_table`] renders today. A workspace without the document has
/// nothing that can drift.
fn check_crate_table(root: &Path) -> Option<Finding> {
    let doc = fs::read_to_string(root.join(CRATE_TABLE_DOC)).ok()?;
    let (line, message) = match crate_table_span(&doc) {
        Some(span) if doc[span.clone()] == crate_table(root) => return None,
        Some(span) => (
            doc[..span.start].lines().count() as u32,
            "crate table is stale against the manifests: regenerate it with \
             `oscar-lint --write-registry`",
        ),
        None => (0, "no `<!-- crate-table:begin/end -->` block to check"),
    };
    Some(Finding {
        rule: "crate-table",
        file: CRATE_TABLE_DOC.to_string(),
        line,
        snippet: String::new(),
        message: message.to_string(),
    })
}

/// Human-readable findings table (aligned `file:line  rule  message`).
pub fn render_table(findings: &[Finding]) -> String {
    if findings.is_empty() {
        return "oscar-lint: clean (0 findings)\n".to_string();
    }
    let locs: Vec<String> = findings
        .iter()
        .map(|f| format!("{}:{}", f.file, f.line))
        .collect();
    let loc_w = locs.iter().map(|l| l.len()).max().unwrap_or(0);
    let rule_w = findings.iter().map(|f| f.rule.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (f, loc) in findings.iter().zip(&locs) {
        out.push_str(&format!(
            "{loc:<loc_w$}  {:<rule_w$}  {}\n",
            f.rule, f.message
        ));
        if !f.snippet.is_empty() {
            out.push_str(&format!("{:loc_w$}  {:rule_w$}  | {}\n", "", "", f.snippet));
        }
    }
    out.push_str(&format!(
        "\noscar-lint: {} finding{}\n",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" }
    ));
    out
}

/// Machine-readable findings, one JSON object with a `findings` array.
/// Hand-rolled — no serde.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"snippet\": {}, \"message\": {}}}",
            json_str(f.rule),
            json_str(&f.file),
            f.line,
            json_str(&f.snippet),
            json_str(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"count\": {}\n}}\n", findings.len()));
    out
}

/// JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Regenerates the workspace's generated files. The seed-label
/// registry: parses the existing one (if any), merges in stray
/// `const LBL_*` declarations found in library and binary code, and
/// rewrites `crates/types/src/labels.rs` canonically. ARCHITECTURE.md's
/// crate table: re-rendered from the manifests between its markers,
/// where the document and the markers exist. Returns the number of
/// labels migrated in.
pub fn write_registry(root: &Path) -> std::io::Result<usize> {
    let reg_path = root.join(REGISTRY_PATH);
    let mut reg = match fs::read_to_string(&reg_path) {
        Ok(src) => registry::parse_registry(&src).0,
        Err(_) => Registry::default(),
    };
    let mut migrated = 0usize;
    for (ctx, path) in workspace::workspace_files(root) {
        if ctx.rel_path == REGISTRY_PATH
            || matches!(ctx.kind, FileKind::TestHarness | FileKind::Example)
        {
            continue;
        }
        let Ok(src) = fs::read_to_string(&path) else {
            continue;
        };
        for label in stray_labels(&src) {
            let scope_name = scope_for(&ctx);
            let scope = match reg.scopes.iter_mut().find(|s| s.name == scope_name) {
                Some(s) => s,
                None => {
                    reg.scopes.push(Scope {
                        name: scope_name.clone(),
                        labels: Vec::new(),
                        line: 0,
                    });
                    reg.scopes.last_mut().expect("just pushed")
                }
            };
            if !scope.labels.iter().any(|l| l.name == label.name) {
                scope.labels.push(label);
                migrated += 1;
            }
        }
    }
    fs::write(&reg_path, registry::render_registry(&reg))?;
    let doc_path = root.join(CRATE_TABLE_DOC);
    if let Ok(mut doc) = fs::read_to_string(&doc_path) {
        if let Some(span) = crate_table_span(&doc) {
            doc.replace_range(span, &crate_table(root));
            fs::write(&doc_path, doc)?;
        }
    }
    Ok(migrated)
}

/// Non-test `const LBL_* = <int>;` declarations in one file.
fn stray_labels(src: &str) -> Vec<Label> {
    let lexed = lexer::lex(src);
    let regions = lexer::test_regions(&lexed.toks);
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if regions
            .iter()
            .any(|&(a, b)| toks[i].line >= a && toks[i].line <= b)
        {
            continue;
        }
        if !toks[i].is_ident("const") || !toks[i + 1].text.starts_with("LBL_") {
            continue;
        }
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct(';') && !toks[j].is_punct('=') {
            j += 1;
        }
        if j + 1 < toks.len() && toks[j].is_punct('=') {
            let lit = toks[j + 1].text.clone();
            if let Some(value) = parse_int(&lit) {
                out.push(Label {
                    name: toks[i + 1].text.clone(),
                    value,
                    literal: lit,
                    line: toks[i].line,
                });
            }
        }
    }
    out
}

/// Mechanical derivation-scope name for a file:
/// `crates/sim/src/overlay.rs` → `sim_overlay`,
/// `crates/bench/src/storm.rs` → `bench_storm`,
/// `src/lib.rs` → `oscar`.
pub fn scope_for(ctx: &FileCtx) -> String {
    let rel = ctx
        .rel_path
        .strip_prefix("crates/")
        .unwrap_or(&ctx.rel_path);
    let rel = rel.strip_suffix(".rs").unwrap_or(rel);
    let parts: Vec<&str> = rel
        .split('/')
        .filter(|p| !matches!(*p, "src" | "bin"))
        .collect();
    match parts.as_slice() {
        [] | ["lib"] => "oscar".to_string(),
        [krate, "lib"] => krate.to_string(),
        other => other.join("_"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_names_are_mechanical() {
        let ctx = |rel: &str, kind| FileCtx {
            crate_name: "x".into(),
            rel_path: rel.into(),
            kind,
        };
        assert_eq!(
            scope_for(&ctx("crates/sim/src/overlay.rs", FileKind::Lib)),
            "sim_overlay"
        );
        assert_eq!(
            scope_for(&ctx("crates/runtime/src/lib.rs", FileKind::Lib)),
            "runtime"
        );
        assert_eq!(
            scope_for(&ctx("crates/bench/src/storm.rs", FileKind::Lib)),
            "bench_storm"
        );
        assert_eq!(scope_for(&ctx("src/lib.rs", FileKind::Lib)), "oscar");
    }

    #[test]
    fn stray_label_extraction_skips_tests() {
        let src = "const LBL_A: u64 = 0x2A;\n#[cfg(test)]\nmod t { const LBL_B: u64 = 3; }\n";
        let labels = stray_labels(src);
        assert_eq!(labels.len(), 1);
        assert_eq!(labels[0].name, "LBL_A");
        assert_eq!(labels[0].value, 0x2A);
        assert_eq!(labels[0].literal, "0x2A");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        let f = Finding {
            rule: "iter-order",
            file: "f.rs".into(),
            line: 3,
            snippet: "for k in map.keys() {".into(),
            message: "m".into(),
        };
        let json = render_json(&[f]);
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"rule\": \"iter-order\""));
    }

    #[test]
    fn table_is_aligned_and_counts() {
        let f = |file: &str, line, rule: &'static str| Finding {
            rule,
            file: file.into(),
            line,
            snippet: "x".into(),
            message: "msg".into(),
        };
        let t = render_table(&[
            f("a.rs", 1, "iter-order"),
            f("longer/path.rs", 22, "wall-clock"),
        ]);
        assert!(t.contains("2 findings"));
        assert!(render_table(&[]).contains("clean"));
    }
}
