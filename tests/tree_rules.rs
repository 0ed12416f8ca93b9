//! Rules about the *tree* — what no compiler pass sees — as line-level
//! tests over the checkout. Rules about *code* are clippy's; that two
//! labels of one scope differ is rustc's (`crates/types/src/labels.rs`).
//! See ARCHITECTURE.md § "Static analysis & determinism rules".

use std::fs;
use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
const LABELS: &str = "crates/types/src/labels.rs";

const DETERMINISM: &[&str] = &[
    "clippy::disallowed_methods",
    "clippy::iter_over_hash_type",
    "clippy::allow_attributes_without_reason",
];
const PANIC_POLICY: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

/// Crate directory → the rules whose clippy lints its `lib.rs` must deny
/// outside `cfg(test)`: ARCHITECTURE.md's crate × rule matrix. Every
/// directory under `crates/` has a row, so a new crate picks its rules
/// here; `oscar-bench` is the harness — it roots seeds, reads clocks and
/// unwraps by design.
const RULES_OWED: &[(&str, &[&[&str]])] = &[
    ("crates/bench", &[]),
    ("crates/core", &[DETERMINISM]),
    ("crates/degree", &[DETERMINISM]),
    ("crates/keydist", &[DETERMINISM]),
    ("crates/protocol", &[DETERMINISM, PANIC_POLICY]),
    ("crates/ring", &[DETERMINISM, PANIC_POLICY]),
    ("crates/runtime", &[DETERMINISM, PANIC_POLICY]),
    ("crates/sim", &[DETERMINISM, PANIC_POLICY]),
    ("crates/types", &[DETERMINISM]),
    (".", &[DETERMINISM]),
];

/// Every file under `dir`, as sorted repo-relative paths. `target/`,
/// `vendor/` and dot-directories (`.git`, build caches; none holds a
/// manifest) are not part of the tree the rules are about.
fn files_under(dir: &str) -> Vec<String> {
    let mut out = Vec::new();
    for entry in fs::read_dir(Path::new(ROOT).join(dir))
        .expect(dir)
        .flatten()
    {
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel = format!("{dir}/{name}");
        if !entry.path().is_dir() {
            out.push(rel);
        } else if name != "target" && name != "vendor" && !name.starts_with('.') {
            out.extend(files_under(&rel));
        }
    }
    out.sort();
    out
}

/// The directories under `crates/`, sorted: `crates/sim` holds package
/// `oscar-sim`.
fn crate_dirs() -> Vec<String> {
    let entries = fs::read_dir(Path::new(ROOT).join("crates")).expect("crates/");
    let mut dirs: Vec<String> = entries
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    dirs.sort();
    dirs
}

fn read(rel: &str) -> String {
    fs::read_to_string(Path::new(ROOT).join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Is `line`, as a whole, `[pub[(…)]] const LBL_…`?
fn declares_label(line: &str) -> bool {
    let Some((vis, decl)) = line.trim().split_once("const ") else {
        return false;
    };
    let vis = vis.trim_end();
    (vis.is_empty() || vis == "pub" || (vis.starts_with("pub(") && vis.ends_with(')')))
        && decl.trim_start().starts_with("LBL_")
}

#[test]
fn no_seed_label_outside_the_registry() {
    let roots = ["crates", "src", "tests", "examples"];
    let mut strays = Vec::new();
    for rel in roots.map(files_under).concat() {
        if rel.ends_with(".rs") && rel != LABELS {
            for (line, n) in read(&rel).lines().zip(1..) {
                if declares_label(line) {
                    strays.push(format!("{rel}:{n}"));
                }
            }
        }
    }
    assert!(
        strays.is_empty(),
        "seed label declared outside {LABELS} — move it into its scope there and import it: \
         {strays:?}"
    );
}

#[test]
fn every_crate_denies_the_lints_it_owes() {
    let rows = RULES_OWED
        .iter()
        .filter_map(|(dir, _)| dir.strip_prefix("crates/"));
    assert_eq!(
        rows.collect::<Vec<_>>(),
        crate_dirs(),
        "RULES_OWED has one row per directory under crates/: say which rules a crate owes"
    );
    for (dir, owed) in RULES_OWED {
        let lib = read(&format!("{dir}/src/lib.rs")).replace([' ', '\n'], "");
        let denied: Vec<&str> = lib
            .split_once("#![cfg_attr(not(test),deny(")
            .and_then(|(_, rest)| rest.split_once("))]"))
            .map_or("", |(lints, _)| lints)
            .split(',')
            .collect();
        for lint in owed.iter().copied().flatten() {
            assert!(
                denied.contains(lint),
                "{dir}/src/lib.rs must carry #![cfg_attr(not(test), deny(…))] naming {lint}; \
                 it names {denied:?}"
            );
        }
    }
}

#[test]
fn no_clippy_toml_beyond_the_two_known() {
    // The nearest file to a manifest wins outright, so a new one would
    // silently replace the shared list for the crates beneath it.
    let mut found = files_under(".");
    found.retain(|rel| rel.ends_with("clippy.toml"));
    assert_eq!(found, ["./clippy.toml", "./crates/protocol/clippy.toml"]);
}

/// The `[dependencies]` keys of `dir`'s manifest, in file order: this
/// workspace's manifests hold one `key = …` or `key.workspace = true`
/// per line.
fn dependencies(dir: &str) -> Vec<String> {
    read(&format!("{dir}/Cargo.toml"))
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[dependencies]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter_map(|line| line.split_once('='))
        .map(|(key, _)| key.split('.').next().unwrap_or(key).trim().to_string())
        .collect()
}

/// ARCHITECTURE.md's crate table: one row per `crates/<dir>` (package
/// `oscar-<dir>`) and one for the facade, each listing its dependencies
/// — workspace crates by short name, others in backticks — then the
/// counts, stated there and nowhere else.
fn crate_table() -> String {
    let members = crate_dirs();
    let facade = dependencies(".");
    let outside: Vec<String> = members
        .iter()
        .filter(|m| !facade.contains(&format!("oscar-{m}")))
        .map(|m| format!("`oscar-{m}`"))
        .collect();
    let rows = members
        .iter()
        .map(|m| (format!("`oscar-{m}`"), dependencies(&format!("crates/{m}"))))
        .chain([("`oscar` (facade)".to_string(), facade.clone())]);
    let mut out = String::from("| crate | depends on |\n|---|---|\n");
    for (label, deps) in rows {
        let cells: Vec<String> = deps
            .iter()
            .map(|d| match d.strip_prefix("oscar-") {
                Some(short) => short.to_string(),
                None => format!("`{d}`"),
            })
            .collect();
        out.push_str(&format!("| {label} | {} |\n", cells.join(", ")));
    }
    out.push_str(&format!(
        "\n{} crates under `crates/`; the facade re-exports {} of them (all but {}).\n",
        members.len(),
        members.len() - outside.len(),
        outside.join(", ")
    ));
    out
}

#[test]
fn architecture_crate_table_matches_the_manifests() {
    let doc = read("ARCHITECTURE.md");
    let (begin, end) = ("<!-- crate-table:begin -->\n", "<!-- crate-table:end -->");
    let one_pair = "ARCHITECTURE.md must hold exactly one crate-table:begin/end marker pair";
    let [_, rest] = doc.split(begin).collect::<Vec<_>>()[..] else {
        panic!("{one_pair}");
    };
    let [block, _] = rest.split(end).collect::<Vec<_>>()[..] else {
        panic!("{one_pair}");
    };
    let expected = crate_table();
    assert!(
        block == expected,
        "ARCHITECTURE.md's crate table drifted from the manifests: paste this between the \
         crate-table markers\n{expected}"
    );
}

#[test]
fn the_protocol_crate_depends_on_types_and_rand_only() {
    // The kernels and the machines stay sans-IO: no world they run in
    // (simulator, runtime, the overlays built on them) is a dependency.
    assert_eq!(dependencies("crates/protocol"), ["oscar-types", "rand"]);
}
