//! The seed-label registry: parse, check, regenerate.
//!
//! `crates/types/src/labels.rs` is the single home of every `LBL_*`
//! seed-derivation label in the workspace, grouped into **derivation
//! scopes** (one module per deriving file). Within a scope, label
//! values address children of one `SeedTree` node, so a duplicated
//! value silently correlates two "independent" random streams — the
//! exact bug class the registry exists to make structurally impossible.
//! Across scopes, equal values are fine: the parent seeds differ.
//!
//! The file is generated: `oscar-lint --write-registry` collects any
//! stray `const LBL_*` declarations left in the workspace, merges them
//! into the registry under their file's scope, and rewrites the file
//! canonically (scopes sorted by name, labels by value, literals kept
//! as written). Because it is generated, it is read back line by line
//! in exactly the shape [`render_registry`] writes; anything else on a
//! line is a finding, not something to parse around.

use crate::{Finding, REGISTRY_PATH};

/// One label: name, parsed value, and the literal as written.
#[derive(Clone, Debug)]
pub struct Label {
    /// Constant name (`LBL_REWIRE`).
    pub name: String,
    /// Parsed numeric value.
    pub value: u64,
    /// Source literal (`0xDE5`, `11`), preserved on rewrite.
    pub literal: String,
    /// 1-based line of the declaration.
    pub line: u32,
}

/// One derivation scope (a `pub mod` in the registry).
#[derive(Clone, Debug)]
pub struct Scope {
    /// Module name (`sim_overlay`, `protocol_machine`, …).
    pub name: String,
    /// Labels in source order.
    pub labels: Vec<Label>,
    /// 1-based line of the `mod` item.
    pub line: u32,
}

/// The `LBL_*` declaration on `line`, if it is one: `[pub[(…)]] const
/// LBL_NAME: <type> = <int literal>;` as a whole line. Returns the name
/// and the parsed label (`None` when the value is not an integer
/// literal). A declaration split over lines, or sharing its line with
/// other code, is not seen; one at the start of a line inside a string
/// literal or block comment is.
fn label_decl(line: &str, number: u32) -> Option<(&str, Option<Label>)> {
    let (vis, decl) = line.trim().split_once("const ")?;
    let vis = vis.trim_end();
    let is_vis = vis.is_empty() || vis == "pub" || (vis.starts_with("pub(") && vis.ends_with(')'));
    let decl = decl.trim_start();
    if !is_vis || !decl.starts_with("LBL_") {
        return None;
    }
    let name_len = decl
        .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .unwrap_or(decl.len());
    let name = &decl[..name_len];
    if !decl[name_len..].trim_start().starts_with(':') {
        return None;
    }
    let label = decl.split_once('=').and_then(|(_, value)| {
        let literal = value.trim().strip_suffix(';')?.trim();
        Some(Label {
            name: name.to_string(),
            value: parse_int(literal)?,
            literal: literal.to_string(),
            line: number,
        })
    });
    Some((name, label))
}

/// Stray `const LBL_*` declarations in one source file, as `(line, name,
/// label)`; the label is `None` when its value cannot be adopted.
pub fn stray_labels(src: &str) -> Vec<(u32, &str, Option<Label>)> {
    src.lines()
        .zip(1u32..)
        .filter_map(|(line, number)| {
            let (name, label) = label_decl(line, number)?;
            Some((number, name, label))
        })
        .collect()
}

/// Parses the registry source into its scopes, in source order.
/// Structural surprises (a label outside a scope, an unparsable value, a
/// line the generator does not write) come back as findings, not panics.
pub fn parse_registry(src: &str) -> (Vec<Scope>, Vec<Finding>) {
    let mut scopes = Vec::new();
    let mut findings = Vec::new();
    let mut current: Option<Scope> = None;
    for (raw, number) in src.lines().zip(1u32..) {
        let line = raw.trim();
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        let mut bad = |message| findings.push(Finding::label(REGISTRY_PATH, number, message));
        if let Some(name) = line
            .strip_prefix("pub mod ")
            .and_then(|rest| rest.strip_suffix('{'))
        {
            scopes.extend(current.replace(Scope {
                name: name.trim().to_string(),
                labels: Vec::new(),
                line: number,
            }));
        } else if line == "}" {
            scopes.extend(current.take());
        } else if let Some((name, label)) = label_decl(line, number) {
            match (label, current.as_mut()) {
                (Some(label), Some(scope)) => scope.labels.push(label),
                (_, None) => bad(format!("label `{name}` declared outside any scope module")),
                (None, Some(_)) => bad(format!("label `{name}` has no parsable integer value")),
            }
        } else {
            bad("not a line the generator writes: run `oscar-lint --write-registry`".to_string());
        }
    }
    scopes.extend(current);
    (scopes, findings)
}

/// Parses `42`, `0xDE5`, `0b101`, with `_` separators and type suffixes.
pub fn parse_int(s: &str) -> Option<u64> {
    let s = s.replace('_', "");
    let s = s
        .strip_suffix("u64")
        .or_else(|| s.strip_suffix("u32"))
        .unwrap_or(&s);
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else if let Some(bin) = s.strip_prefix("0b") {
        u64::from_str_radix(bin, 2).ok()
    } else {
        s.parse().ok()
    }
}

/// Registry self-consistency: no duplicate value and no duplicate name
/// within one derivation scope, no duplicate scope names.
pub fn check_registry(src: &str) -> Vec<Finding> {
    let (scopes, mut findings) = parse_registry(src);
    let mut bad = |line, message| findings.push(Finding::label(REGISTRY_PATH, line, message));
    for (i, scope) in scopes.iter().enumerate() {
        let scope_name = &scope.name;
        if scopes[..i].iter().any(|s| s.name == *scope_name) {
            bad(
                scope.line,
                format!("duplicate derivation scope `{scope_name}`"),
            );
        }
        for (k, a) in scope.labels.iter().enumerate() {
            for b in &scope.labels[k + 1..] {
                if a.value == b.value {
                    bad(
                        b.line,
                        format!(
                            "scope `{scope_name}`: labels `{}` and `{}` share value {} — their \
                             derived streams would be identical",
                            a.name, b.name, a.value
                        ),
                    );
                }
                if a.name == b.name {
                    let name = &a.name;
                    bad(
                        b.line,
                        format!("scope `{scope_name}`: label `{name}` declared twice"),
                    );
                }
            }
        }
    }
    findings
}

/// Renders the canonical registry source for `scopes` (stray labels
/// already merged by the caller). Deterministic: scopes sorted by name,
/// labels by value; literals preserved.
pub fn render_registry(scopes: &[Scope]) -> String {
    let mut scopes = scopes.to_vec();
    scopes.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = String::new();
    out.push_str(
        "//! GENERATED — the workspace seed-label registry.\n\
         //!\n\
         //! Regenerate with `cargo run -p oscar-lint -- --write-registry`; the\n\
         //! lint gate (`oscar-lint`) rejects `const LBL_*` declarations anywhere\n\
         //! else and duplicate values within a scope. One module = one\n\
         //! **derivation scope** (the labels address children of a single\n\
         //! `SeedTree` node, so equal values within a module would correlate\n\
         //! streams; across modules the parents differ and reuse is harmless).\n\
         //!\n\
         //! Values are part of the reproduction contract: changing one changes\n\
         //! every committed seeded artifact downstream of its stream.\n",
    );
    for scope in &scopes {
        let mut labels = scope.labels.clone();
        labels.sort_by_key(|l| l.value);
        out.push_str(&format!(
            "\n/// Seed-tree labels of derivation scope `{}`.\npub mod {} {{\n",
            scope.name, scope.name
        ));
        for l in &labels {
            out.push_str(&format!(
                "    /// Label `{}` (= {}).\n    pub const {}: u64 = {};\n",
                l.name, l.value, l.name, l.literal
            ));
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registry sources are assembled from pieces so that no line of
    /// *this* file starts with a label declaration the gate would adopt.
    fn registry(scopes: &[(&str, &[(&str, &str)])]) -> String {
        let mut out = String::from("//! docs\n");
        for (scope, labels) in scopes {
            out.push_str(&format!("pub mod {scope} {{\n    /// one\n"));
            for (name, literal) in *labels {
                out.push_str(&format!("    pub const {name}: u64 = {literal};\n"));
            }
            out.push_str("}\n");
        }
        out
    }

    fn good() -> String {
        registry(&[
            ("alpha", &[("LBL_A", "1"), ("LBL_B", "0x2")]),
            ("beta", &[("LBL_A", "1")]),
        ])
    }

    #[test]
    fn parses_scopes_and_values() {
        let (scopes, errs) = parse_registry(&good());
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(scopes.len(), 2);
        assert_eq!(scopes[0].name, "alpha");
        assert_eq!(scopes[0].labels[1].value, 2);
        assert_eq!(scopes[0].labels[1].literal, "0x2");
        assert_eq!(scopes[0].labels[1].line, 5);
    }

    #[test]
    fn cross_scope_value_reuse_is_fine() {
        assert!(check_registry(&good()).is_empty());
    }

    #[test]
    fn duplicate_value_in_scope_is_an_error() {
        let bad = registry(&[("s", &[("LBL_A", "7"), ("LBL_B", "0x7")])]);
        let errs = check_registry(&bad);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("share value 7"));
    }

    #[test]
    fn duplicate_name_in_scope_is_an_error() {
        let bad = registry(&[("s", &[("LBL_A", "1"), ("LBL_A", "2")])]);
        let errs = check_registry(&bad);
        assert!(errs.iter().any(|f| f.message.contains("declared twice")));
    }

    #[test]
    fn label_outside_scope_is_an_error() {
        let (_, errs) = parse_registry(&format!("pub const {}: u64 = 3;\n", "LBL_LOOSE"));
        assert!(errs[0].message.contains("outside any scope"));
    }

    #[test]
    fn hand_written_lines_are_findings() {
        let bad = format!("{}pub fn helper() {{}}\n", good());
        let (scopes, errs) = parse_registry(&bad);
        assert_eq!(scopes.len(), 2);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("--write-registry"), "{errs:?}");
        let (_, errs) = parse_registry(&registry(&[("s", &[("LBL_A", "1 + 1")])]));
        assert!(errs[0].message.contains("no parsable integer"), "{errs:?}");
    }

    #[test]
    fn render_is_canonical_and_reparsable() {
        let (scopes, _) = parse_registry(&good());
        let rendered = render_registry(&scopes);
        let (reparsed, errs) = parse_registry(&rendered);
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(reparsed.len(), 2);
        // Idempotent: rendering the reparse reproduces the bytes.
        assert_eq!(render_registry(&reparsed), rendered);
    }

    #[test]
    fn stray_declarations_are_found_on_lines() {
        let src = format!(
            "use x::y;\n{c} LBL_A: u64 = 0x2A;\n    pub(crate) {c} LBL_B: u64 = 3;\n\
             // {c} LBL_IN_A_COMMENT: u64 = 4;\nlet s = \"{c} LBL_IN_A_STRING: u64 = 5;\";\n\
             pub {c} LBL_C: u64 = compute();\n{c} OTHER: u64 = 6;\n",
            c = "const"
        );
        let found = stray_labels(&src);
        let names: Vec<&str> = found.iter().map(|(_, n, _)| *n).collect();
        assert_eq!(names, ["LBL_A", "LBL_B", "LBL_C"]);
        let a = found[0].2.as_ref().expect("adoptable");
        assert_eq!((found[0].0, a.value, a.literal.as_str()), (2, 0x2A, "0x2A"));
        assert!(found[2].2.is_none(), "a computed value cannot be adopted");
    }

    #[test]
    fn int_literals_parse() {
        assert_eq!(parse_int("42"), Some(42));
        assert_eq!(parse_int("0xDE5"), Some(0xDE5));
        assert_eq!(parse_int("1_000"), Some(1000));
        assert_eq!(parse_int("0x4E_45"), Some(0x4E45));
        assert_eq!(parse_int("7u64"), Some(7));
        assert_eq!(parse_int("abc"), None);
    }
}
