//! Workspace walking: find the repo root and enumerate the `.rs` files
//! the label scan reads.
//!
//! The layout is fixed by convention, not read from Cargo metadata:
//! everything under `crates/` plus the root facade's
//! `src`/`tests`/`examples`. `vendor/` (dependency stubs), `target/`,
//! the registry itself and the lint fixture corpus are never scanned.
//!
//! The same walk renders ARCHITECTURE.md's crate table
//! ([`crate_table`]) from the members' manifests, so the document's
//! dependency edges and crate counts cannot drift from `Cargo.toml`.

use crate::REGISTRY_PATH;
use std::fs;
use std::path::{Path, PathBuf};

/// Finds the workspace root: the nearest ancestor of `start` holding a
/// `Cargo.toml` with a `[workspace]` table.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Every scanned file under `root` as `(repo-relative path, path)`,
/// sorted by path so output is stable.
pub fn source_files(root: &Path) -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_tree(root, &root.join(top), &mut out);
    }
    out.sort();
    out
}

/// The members under `crates/` as `(package name, directory)`, sorted by
/// directory; `crates/sim` holds `oscar-sim`, by the convention above.
fn members(root: &Path) -> Vec<(String, PathBuf)> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs.into_iter()
        .filter_map(|d| Some((format!("oscar-{}", d.file_name()?.to_str()?), d)))
        .collect()
}

/// Repo-relative path of the document carrying the generated crate table.
pub const CRATE_TABLE_DOC: &str = "ARCHITECTURE.md";
const CRATE_TABLE_BEGIN: &str = "<!-- crate-table:begin -->\n";
const CRATE_TABLE_END: &str = "<!-- crate-table:end -->";

/// The `[dependencies]` keys of the manifest in `dir`, in file order
/// (none when it cannot be read). Line-based: this workspace's manifests
/// hold one `key = value` or `key.workspace = true` per line.
fn dependencies(dir: &Path) -> Vec<String> {
    let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[dependencies]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter_map(|line| line.split_once('='))
        .map(|(key, _)| key.split('.').next().unwrap_or(key).trim().to_string())
        .collect()
}

/// The crate table of ARCHITECTURE.md, rendered from the manifests: one
/// row per member of `crates/` and one for the root facade, each listing
/// its `[dependencies]` — workspace crates by short name, anything else
/// in backticks — then the counts, stated here and nowhere else.
pub fn crate_table(root: &Path) -> String {
    let members = members(root);
    let facade_deps = dependencies(root);
    let outside: Vec<String> = members
        .iter()
        .filter(|(name, _)| !facade_deps.contains(name))
        .map(|(name, _)| format!("`{name}`"))
        .collect();
    let rows = members
        .iter()
        .map(|(name, dir)| (format!("`{name}`"), dependencies(dir)))
        .chain([("`oscar` (facade)".to_string(), facade_deps)]);
    let mut out = String::from("| crate | depends on |\n|---|---|\n");
    for (label, deps) in rows {
        let cells: Vec<String> = deps
            .iter()
            .map(|d| match d.strip_prefix("oscar-") {
                Some(short) => short.to_string(),
                None => format!("`{d}`"),
            })
            .collect();
        let cells = if cells.is_empty() {
            "nothing".to_string()
        } else {
            cells.join(", ")
        };
        out.push_str(&format!("| {label} | {cells} |\n"));
    }
    out.push_str(&format!(
        "\n{} crates under `crates/`; the facade re-exports {} of them (all but {}).\n",
        members.len(),
        members.len() - outside.len(),
        outside.join(", ")
    ));
    out
}

/// Where the generated block sits in `doc`: the bytes between the
/// crate-table markers; `None` when the markers are missing.
pub fn crate_table_span(doc: &str) -> Option<std::ops::Range<usize>> {
    let start = doc.find(CRATE_TABLE_BEGIN)? + CRATE_TABLE_BEGIN.len();
    let end = start + doc[start..].find(CRATE_TABLE_END)?;
    Some(start..end)
}

/// Recursively collects `.rs` files under `base` into `out`, skipping
/// the registry and the fixture corpus.
fn collect_tree(root: &Path, base: &Path, out: &mut Vec<(String, PathBuf)>) {
    let mut stack = vec![base.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                let rel = rel.to_string_lossy().replace('\\', "/");
                if rel != REGISTRY_PATH && !rel.contains("/fixtures/") {
                    out.push((rel, path));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").exists());
        let files = source_files(&root);
        let rels: Vec<&str> = files.iter().map(|(rel, _)| rel.as_str()).collect();
        assert!(rels.contains(&"crates/sim/src/overlay.rs"));
        assert!(rels.contains(&"crates/lint/tests/exit_codes.rs"));
        assert!(rels.contains(&"examples/quickstart.rs"));
        // The registry, fixtures and vendor stubs are never scanned.
        assert!(!rels.contains(&REGISTRY_PATH));
        assert!(rels.iter().all(|r| !r.contains("/fixtures/")));
        assert!(rels.iter().all(|r| !r.starts_with("vendor/")));
        // Sorted for stable output.
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted);
    }
}
