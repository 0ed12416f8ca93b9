//! The registry is the harness's single source of truth: these tests hold
//! the binary's dispatch, its `--list` output and the knob table in
//! `ARCHITECTURE.md` to it.

use oscar_bench::registry::{render_knob_table, EXPERIMENTS};
use std::ffi::OsStr;
use std::process::{Command, Output};

/// Runs `oscar-repro` with exactly the given arguments and environment.
fn oscar_repro<V: AsRef<OsStr>>(args: &[&str], env: &[(&str, V)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_oscar-repro"))
        .args(args)
        .env_clear()
        .envs(env.iter().map(|(k, v)| (k, v)))
        .output()
        .expect("oscar-repro runs")
}

const NO_ENV: &[(&str, &str)] = &[];

#[test]
fn experiment_names_are_unique_and_knobs_documented() {
    let table = render_knob_table();
    for (i, e) in EXPERIMENTS.iter().enumerate() {
        assert!(
            EXPERIMENTS[i + 1..]
                .iter()
                .all(|other| other.name != e.name),
            "duplicate experiment name {}",
            e.name
        );
        for knob in e.knobs {
            assert!(
                table.contains(&format!("| `{knob}` |")),
                "{} reads {knob}, which the knob table does not document",
                e.name
            );
        }
    }
    // Header + separator + one row per knob.
    assert_eq!(table.lines().count(), 2 + 5, "{table}");
}

#[test]
fn list_prints_every_experiment() {
    let out = oscar_repro(&["--list"], NO_ENV);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for e in &EXPERIMENTS {
        assert!(
            stdout
                .lines()
                .any(|l| l.trim_start().starts_with(e.name) && l.ends_with(e.about)),
            "--list is missing {}:\n{stdout}",
            e.name
        );
    }
    assert!(stdout.contains(&render_knob_table()));
}

#[test]
fn usage_errors_exit_2_before_running_anything() {
    let stderr_of = |out: &Output| String::from_utf8_lossy(&out.stderr).into_owned();

    let out = oscar_repro(&["fig9z"], NO_ENV);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("fig9z"));

    assert_eq!(oscar_repro(&[], NO_ENV).status.code(), Some(2));

    // A knob the experiment would ignore, a typo of one it reads, and a
    // retired knob on the experiment that used to read it.
    for (experiment, var) in [
        ("fig1a", "OSCAR_CHURN_WINDOWS"),
        ("phase", "OSCAR_CHURN_WINDOW"),
        ("faults", "OSCAR_CHURN_WINDOWS"),
        ("churn-machine", "OSCAR_MAX_RETRIES"),
    ] {
        let out = oscar_repro(&[experiment], &[(var, "4")]);
        assert_eq!(out.status.code(), Some(2), "{experiment} with {var}");
        assert!(stderr_of(&out).contains(var), "{}", stderr_of(&out));
        assert!(out.stdout.is_empty(), "{experiment} ran despite {var}");
    }

    // A malformed value of a knob it does read.
    let out = oscar_repro(&["churn-machine"], &[("OSCAR_SCALE", "2k")]);
    assert_eq!(out.status.code(), Some(2));
    let out = oscar_repro(
        &["churn-machine"],
        &[("OSCAR_SCALE", "100"), ("OSCAR_CHURN_WINDOWS", "many")],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("OSCAR_CHURN_WINDOWS"));
}

/// The process environment is not ours: a variable that is not Unicode
/// is ignored unless it is an `OSCAR_*` one, and then it is refused by
/// name — never a panic, never read as "unset".
#[cfg(unix)]
#[test]
fn non_unicode_environment_is_ignored_or_refused_by_name() {
    use std::os::unix::ffi::OsStrExt;
    let not_unicode = OsStr::from_bytes(b"\xff");
    let scratch = OsStr::new(env!("CARGO_TARGET_TMPDIR"));

    let out = oscar_repro(
        &["fig1a"],
        &[("FOO", not_unicode), ("OSCAR_RESULTS_DIR", scratch)],
    );
    assert_eq!(out.status.code(), Some(0), "{:?}", out);

    let out = oscar_repro(&["fig1a"], &[("OSCAR_SCALE", not_unicode)]);
    assert_eq!(out.status.code(), Some(2), "{:?}", out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("OSCAR_SCALE"));
    assert!(
        out.stdout.is_empty(),
        "fig1a ran despite an unreadable scale"
    );
}

#[test]
fn architecture_knob_table_matches_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ARCHITECTURE.md");
    let doc = std::fs::read_to_string(path).expect("ARCHITECTURE.md is readable");
    let (begin, end) = ("<!-- knob-table:begin -->\n", "<!-- knob-table:end -->");
    let start = doc.find(begin).expect("knob-table:begin marker") + begin.len();
    let len = doc[start..].find(end).expect("knob-table:end marker");
    assert_eq!(
        &doc[start..start + len],
        render_knob_table(),
        "ARCHITECTURE.md's knob table drifted from the registry: paste the table \
         `oscar-repro --list` prints between the knob-table markers"
    );
}
