//! CLI front-end: `oscar-lint [--root DIR] [--write-registry]`.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/environment error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut write_registry = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--write-registry" => write_registry = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--help" | "-h" => {
                println!(
                    "oscar-lint [--root DIR] [--write-registry]\n\n\
                     Walks the workspace and checks what clippy cannot see: every\n\
                     const LBL_* seed label lives in the generated registry, which\n\
                     repeats no value within a scope (label-registry), and\n\
                     ARCHITECTURE.md's crate table is fresh (crate-table). The\n\
                     other determinism rules are clippy's (clippy.toml).\n\
                     --write-registry regenerates both generated files:\n\
                     crates/types/src/labels.rs from stray const LBL_* decls and\n\
                     that table from the crates' manifests."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("oscar-lint: cannot read cwd: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match root.or_else(|| oscar_lint::workspace::find_root(&cwd)) {
        Some(r) => r,
        None => {
            eprintln!(
                "oscar-lint: no workspace Cargo.toml above {}",
                cwd.display()
            );
            return ExitCode::from(2);
        }
    };
    if write_registry {
        match oscar_lint::write_registry(&root) {
            Ok(n) => eprintln!("oscar-lint: registry rewritten, {n} label(s) migrated in"),
            Err(e) => {
                eprintln!("oscar-lint: cannot write registry: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let findings = oscar_lint::run_workspace(&root);
    print!("{}", oscar_lint::render_table(&findings));
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("oscar-lint: {msg} (see --help)");
    ExitCode::from(2)
}
