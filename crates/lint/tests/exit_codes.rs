//! Binary contract: exit 0 on a clean workspace, 1 on findings, 2 on a
//! bad command line — and the real workspace is clean.
//!
//! Each case materialises a miniature workspace under
//! `CARGO_TARGET_TMPDIR`, drops one fixture into a crate, and runs the
//! real `oscar-lint` binary against it.

use std::path::{Path, PathBuf};
use std::process::Command;

const CLEAN_REGISTRY: &str = "pub mod demo {\n    pub const LBL_DEMO: u64 = 1;\n}\n";

/// Builds `tmp/<name>` as `[workspace]` + `crates/<krate>/src/lib.rs`
/// holding `fixture`, plus a valid seed-label registry.
fn mini_workspace(name: &str, krate: &str, fixture: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&root);
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::create_dir_all(root.join(format!("crates/{krate}/src"))).unwrap();
    std::fs::create_dir_all(root.join("crates/types/src")).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
    std::fs::write(root.join("crates/types/src/labels.rs"), CLEAN_REGISTRY).unwrap();
    std::fs::copy(
        src.join(fixture),
        root.join(format!("crates/{krate}/src/lib.rs")),
    )
    .unwrap();
    root
}

fn run_lint(root: &Path, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_oscar-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn oscar-lint");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn clean_workspace_exits_zero() {
    let root = mini_workspace("lint_clean", "sim", "label_registry_good.rs");
    let (code, out) = run_lint(&root, &[]);
    assert_eq!(code, 0, "stdout:\n{out}");
    assert!(out.contains("clean"));
}

#[test]
fn stray_label_exits_nonzero() {
    let root = mini_workspace("lint_stray", "sim", "label_registry_bad.rs");
    let (code, out) = run_lint(&root, &[]);
    assert_eq!(code, 1, "a stray label must fail the gate; stdout:\n{out}");
    assert!(out.contains("crates/sim/src/lib.rs:2"), "{out}");
    assert!(out.contains("label-registry"), "{out}");
    assert!(out.contains("LBL_ROGUE"), "{out}");
}

#[test]
fn duplicate_value_within_a_scope_exits_nonzero() {
    let root = mini_workspace("lint_dup_value", "sim", "label_registry_good.rs");
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::copy(
        fixtures.join("registry_dup_value.rs"),
        root.join("crates/types/src/labels.rs"),
    )
    .unwrap();
    let (code, out) = run_lint(&root, &[]);
    assert_eq!(code, 1, "stdout:\n{out}");
    assert!(out.contains("crates/types/src/labels.rs:4"), "{out}");
    assert!(out.contains("share value 5"), "{out}");
}

#[test]
fn bad_flag_is_a_usage_error() {
    for flag in ["--json", "--root"] {
        let out = Command::new(env!("CARGO_BIN_EXE_oscar-lint"))
            .arg(flag)
            .output()
            .expect("spawn oscar-lint");
        assert_eq!(out.status.code(), Some(2), "`{flag}` is not a command line");
    }
}

#[test]
fn missing_registry_is_a_finding() {
    let root = mini_workspace("lint_no_registry", "sim", "label_registry_good.rs");
    std::fs::remove_file(root.join("crates/types/src/labels.rs")).unwrap();
    let (code, out) = run_lint(&root, &[]);
    assert_eq!(code, 1, "stdout:\n{out}");
    assert!(out.contains("missing seed-label registry"), "{out}");
}

#[test]
fn write_registry_adopts_stray_labels_and_cleans_the_gate() {
    let root = mini_workspace("lint_adopt", "sim", "label_registry_bad.rs");
    let (code, _) = run_lint(&root, &[]);
    assert_eq!(code, 1, "stray label must fail first");
    let (code, out) = run_lint(&root, &["--write-registry"]);
    assert_eq!(code, 1, "stray decl still present after adoption:\n{out}");
    let registry = std::fs::read_to_string(root.join("crates/types/src/labels.rs")).unwrap();
    assert!(registry.contains("LBL_ROGUE"), "{registry}");
    assert!(registry.contains("mod sim "), "{registry}");
}

#[test]
fn stale_crate_table_fails_the_gate_and_write_registry_renders_it() {
    let root = mini_workspace("lint_crate_table", "sim", "label_registry_good.rs");
    std::fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = []\n\n[dependencies]\noscar-sim.workspace = true\n",
    )
    .unwrap();
    std::fs::write(
        root.join("crates/sim/Cargo.toml"),
        "[dependencies]\noscar-types.workspace = true\nrand = { path = \"x\" }\n\n[dev-dependencies]\nproptest.workspace = true\n",
    )
    .unwrap();
    let doc = root.join("ARCHITECTURE.md");

    std::fs::write(&doc, "# A\n\nno generated block here\n").unwrap();
    let (code, out) = run_lint(&root, &[]);
    assert_eq!(code, 1, "a document without the markers must fail:\n{out}");
    assert!(out.contains("crate-table"), "{out}");

    std::fs::write(
        &doc,
        "# A\n\n<!-- crate-table:begin -->\n| `oscar-gone` | types |\n<!-- crate-table:end -->\ntail\n",
    )
    .unwrap();
    let (code, out) = run_lint(&root, &[]);
    assert_eq!(code, 1, "a stale table must fail:\n{out}");
    assert!(out.contains("ARCHITECTURE.md:3"), "{out}");
    assert!(out.contains("stale"), "{out}");

    let (code, out) = run_lint(&root, &["--write-registry"]);
    assert_eq!(code, 0, "regenerated table must pass:\n{out}");
    let text = std::fs::read_to_string(&doc).unwrap();
    assert!(text.starts_with("# A\n\n<!-- crate-table:begin -->\n| crate |"));
    assert!(text.contains("| `oscar-sim` | types, `rand` |\n"), "{text}");
    assert!(text.contains("| `oscar-types` | nothing |\n"), "{text}");
    assert!(text.contains("| `oscar` (facade) | sim |\n"), "{text}");
    assert!(
        text.contains(
            "2 crates under `crates/`; the facade re-exports 1 of them (all but `oscar-types`).\n"
        ),
        "{text}"
    );
    assert!(text.ends_with("<!-- crate-table:end -->\ntail\n"));
}

/// The gate itself: the real workspace is clean, so CI can fail on any
/// finding.
#[test]
fn workspace_is_clean() {
    let root = oscar_lint::workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let findings = oscar_lint::run_workspace(&root);
    assert!(
        findings.is_empty(),
        "workspace must lint clean:\n{}",
        oscar_lint::render_table(&findings)
    );
}
