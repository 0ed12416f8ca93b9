//! `oscar-lint` — the two workspace checks no compiler pass can make.
//!
//! The determinism rules that are properties of *code* (no ad-hoc
//! `SeedTree::new`, no wall clock, no hash-order iteration, no panics in
//! the machines, no waiver without a reason) belong to clippy: see
//! `clippy.toml`, each library crate's `lib.rs` attribute and
//! ARCHITECTURE.md § "Static analysis & determinism rules". What is left
//! here are the two properties of the *tree*:
//!
//! * **label-registry** — every `const LBL_*` seed label lives in the
//!   generated registry `crates/types/src/labels.rs`, and the registry
//!   repeats no value within one derivation scope ([`registry`]);
//! * **crate-table** — ARCHITECTURE.md's crate table is what the
//!   manifests render to ([`workspace`]).
//!
//! Zero dependencies, line-based. The binary front-end lives in
//! `src/main.rs`; `--write-registry` regenerates both generated files.

pub mod registry;
pub mod workspace;

use registry::Scope;
use std::fs;
use std::path::Path;
use workspace::{crate_table, crate_table_span, CRATE_TABLE_DOC};

/// Repo-relative path of the generated seed-label registry.
pub const REGISTRY_PATH: &str = "crates/types/src/labels.rs";

/// One finding of either check.
#[derive(Clone, Debug)]
pub struct Finding {
    /// `label-registry` or `crate-table`.
    pub rule: &'static str,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line (0: the file as a whole).
    pub line: u32,
    /// Human explanation.
    pub message: String,
}

impl Finding {
    fn label(file: &str, line: u32, message: String) -> Self {
        Finding {
            rule: "label-registry",
            file: file.to_string(),
            line,
            message,
        }
    }
}

/// Checks the whole workspace under `root`. Findings are sorted by
/// (file, line, rule); an unreadable file is itself a finding.
pub fn run_workspace(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    for (rel, path) in workspace::source_files(root) {
        let src = match fs::read_to_string(&path) {
            Ok(src) => src,
            Err(e) => {
                out.push(Finding::label(&rel, 0, format!("unreadable file: {e}")));
                continue;
            }
        };
        for (line, name, _) in registry::stray_labels(&src) {
            let message = format!(
                "seed label `{name}` declared outside the registry: add it to {REGISTRY_PATH} \
                 (oscar-lint --write-registry) and import it"
            );
            out.push(Finding::label(&rel, line, message));
        }
    }
    match fs::read_to_string(root.join(REGISTRY_PATH)) {
        Ok(src) => out.extend(registry::check_registry(&src)),
        Err(e) => {
            let message = format!("missing seed-label registry: {e}");
            out.push(Finding::label(REGISTRY_PATH, 0, message));
        }
    }
    out.extend(check_crate_table(root));
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
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
    }
    out.push_str(&format!(
        "\noscar-lint: {} finding{}\n",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" }
    ));
    out
}

/// Regenerates the workspace's generated files. The seed-label
/// registry: parses the existing one (if any), merges in the stray
/// `const LBL_*` declarations found in the workspace, and rewrites
/// `crates/types/src/labels.rs` canonically. ARCHITECTURE.md's crate
/// table: re-rendered from the manifests between its markers, where the
/// document and the markers exist. Returns the number of labels
/// migrated in.
pub fn write_registry(root: &Path) -> std::io::Result<usize> {
    let reg_path = root.join(REGISTRY_PATH);
    let mut scopes = match fs::read_to_string(&reg_path) {
        Ok(src) => registry::parse_registry(&src).0,
        Err(_) => Vec::new(),
    };
    let mut migrated = 0usize;
    for (rel, path) in workspace::source_files(root) {
        let Ok(src) = fs::read_to_string(&path) else {
            continue;
        };
        for (_, _, label) in registry::stray_labels(&src) {
            let Some(label) = label else { continue };
            let scope_name = scope_for(&rel);
            let at = scopes.iter().position(|s| s.name == scope_name);
            let at = at.unwrap_or_else(|| {
                scopes.push(Scope {
                    name: scope_name,
                    labels: Vec::new(),
                    line: 0,
                });
                scopes.len() - 1
            });
            let scope = &mut scopes[at];
            if !scope.labels.iter().any(|l| l.name == label.name) {
                scope.labels.push(label);
                migrated += 1;
            }
        }
    }
    fs::write(&reg_path, registry::render_registry(&scopes))?;
    let doc_path = root.join(CRATE_TABLE_DOC);
    if let Ok(mut doc) = fs::read_to_string(&doc_path) {
        if let Some(span) = crate_table_span(&doc) {
            doc.replace_range(span, &crate_table(root));
            fs::write(&doc_path, doc)?;
        }
    }
    Ok(migrated)
}

/// Mechanical derivation-scope name for a repo-relative file:
/// `crates/sim/src/overlay.rs` → `sim_overlay`,
/// `crates/bench/src/storm.rs` → `bench_storm`,
/// `src/lib.rs` → `oscar`.
pub fn scope_for(rel_path: &str) -> String {
    let rel = rel_path.strip_prefix("crates/").unwrap_or(rel_path);
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
        assert_eq!(scope_for("crates/sim/src/overlay.rs"), "sim_overlay");
        assert_eq!(scope_for("crates/runtime/src/lib.rs"), "runtime");
        assert_eq!(scope_for("crates/bench/src/storm.rs"), "bench_storm");
        assert_eq!(scope_for("src/lib.rs"), "oscar");
    }

    #[test]
    fn table_is_aligned_and_counts() {
        let f = |file: &str, line, rule: &'static str| Finding {
            rule,
            file: file.into(),
            line,
            message: "msg".into(),
        };
        let t = render_table(&[
            f("a.rs", 1, "label-registry"),
            f("ARCHITECTURE.md", 22, "crate-table"),
        ]);
        assert!(
            t.contains("a.rs:1              label-registry  msg\n"),
            "{t}"
        );
        assert!(
            t.contains("ARCHITECTURE.md:22  crate-table     msg\n"),
            "{t}"
        );
        assert!(t.contains("2 findings"));
        assert!(render_table(&[]).contains("clean"));
    }
}
