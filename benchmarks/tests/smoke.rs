//! All three workloads, untraced and traced, at a tiny scale (n = 300, a
//! few seconds in all): every metric `BENCHMARK.json` declares is printed
//! exactly once, with its unit, and nothing else is; the result files of
//! `run` feed `compare`.
//!
//! The percentile picker, the quartiles and the span self-time
//! arithmetic are unit-tested beside their code (`src/stats.rs`,
//! `src/trace.rs`, `src/compare.rs`).

use oscar_perfbench::json::{self, Value};
use oscar_perfbench::spec::Spec;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");
const PEERS: &str = "300";

/// A scratch working directory per test, under Cargo's target directory:
/// the program writes `benchmarks/out/` relative to where it runs.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

fn perfbench(dir: &PathBuf, args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("start perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    if !out.status.success() {
        eprintln!("{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), stdout)
}

/// Runs one workload and checks its output against the declaration.
/// Returns the names it measured (as opposed to printed as not exercised).
fn check_workload(dir: &PathBuf, spec: &Spec, workload: &str, trace: bool) -> BTreeSet<String> {
    let (ok, stdout) = perfbench(
        dir,
        &[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            if trace { "1" } else { "0" },
            "--n",
            PEERS,
        ],
    );
    assert!(ok, "{workload} trace={trace} exited with an error");
    let declared = spec.metrics_for(trace);

    // The result line: exactly the four keys, exactly the declared metrics.
    let last = stdout.lines().last().expect("some output");
    let result = json::parse(last).expect("the last line is one JSON object");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let metrics = result.get("metrics").and_then(Value::as_obj).unwrap();
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(printed, wanted, "{workload} trace={trace}");
    for (d, (_, m)) in declared.iter().zip(metrics) {
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit.as_str()));
        let value = m.get("value").and_then(Value::as_f64).expect("a number");
        assert!(value.is_finite(), "{} = {value}", d.name);
    }

    // The readable part: each declared metric on exactly one line, by
    // name, with its unit; plus the two operation counts and the digest.
    let mut measured = BTreeSet::new();
    for d in declared {
        let lines: Vec<&str> = stdout
            .lines()
            .filter(|l| l.split_whitespace().next() == Some(d.name.as_str()))
            .collect();
        assert_eq!(lines.len(), 1, "`{}` printed {} times", d.name, lines.len());
        let fields: Vec<&str> = lines[0].split_whitespace().collect();
        assert_eq!(fields[2], d.unit, "unit of `{}`", d.name);
        if fields.len() == 3 {
            measured.insert(d.name.clone());
        }
    }
    for extra in ["ops_attempted", "ops_failed", "digest"] {
        assert_eq!(
            stdout
                .lines()
                .filter(|l| l.split_whitespace().next() == Some(extra))
                .count(),
            1,
            "`{extra}` line"
        );
    }
    measured
}

#[test]
fn every_declared_metric_is_printed_once_per_workload() {
    let dir = scratch("metrics");
    let spec = Spec::load();
    assert_eq!(spec.workloads, ["grow", "storm", "churn_des"]);
    let mut measured_layers = BTreeSet::new();
    for workload in &spec.workloads {
        let e2e = check_workload(&dir, &spec, workload, false);
        assert_eq!(
            e2e.len(),
            spec.end_to_end.len(),
            "{workload} measures every end-to-end metric"
        );
        measured_layers.extend(check_workload(&dir, &spec, workload, true));
        // The traced churn run also writes its runtime twin's spans.
        let twin = (workload == "churn_des").then_some("churn_rt");
        for traced in [workload.as_str()].into_iter().chain(twin) {
            let trace_file = dir.join(format!("benchmarks/out/trace_{traced}.jsonl"));
            let spans =
                std::fs::read_to_string(&trace_file).expect("the traced run wrote its spans");
            let first = json::parse(spans.lines().next().expect("at least one span")).unwrap();
            for field in ["id", "name", "start_ns", "end_ns", "parent", "op"] {
                assert!(first.get(field).is_some(), "span field `{field}`");
            }
        }
    }
    // A per-layer metric no workload measures would read zero forever.
    let declared: BTreeSet<String> = spec.per_layer.iter().map(|d| d.name.clone()).collect();
    assert_eq!(measured_layers, declared);
}

#[test]
fn run_writes_result_files_that_compare_reads() {
    let dir = scratch("run_compare");
    let run = |label: &str| {
        let (ok, stdout) = perfbench(
            &dir,
            &[
                "run",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--n",
                PEERS,
                "--label",
                label,
            ],
        );
        assert!(ok, "run {label} failed");
        assert!(stdout.contains(&format!("result file: benchmarks/out/{label}.json")));
    };
    run("a");
    run("b");
    let file = std::fs::read_to_string(dir.join("benchmarks/out/a.json")).unwrap();
    let file = json::parse(&file).unwrap();
    for field in ["seed", "seconds", "git", "nproc", "workers", "workloads"] {
        assert!(file.get(field).is_some(), "result file field `{field}`");
    }
    // Same seed, same work: the seed-determined outputs repeat exactly.
    let other =
        json::parse(&std::fs::read_to_string(dir.join("benchmarks/out/b.json")).unwrap()).unwrap();
    for workload in ["grow", "churn_des"] {
        let pick = |f: &Value, path: &[&str]| {
            path.iter()
                .fold(f.get("workloads").unwrap().get(workload), |v, k| v?.get(k))
                .cloned()
        };
        assert_eq!(
            pick(&file, &["digest"]),
            pick(&other, &["digest"]),
            "{workload} digest"
        );
        for metric in ["search_cost_hops", "delivery_rate", "msgs_per_window"] {
            assert_eq!(
                pick(&file, &["metrics", metric, "value"]),
                pick(&other, &["metrics", metric, "value"]),
                "{workload} {metric}"
            );
        }
    }

    let out = Command::new(BIN)
        .args([
            "compare",
            "benchmarks/out/a.json",
            "--",
            "benchmarks/out/b.json",
        ])
        .current_dir(&dir)
        .output()
        .expect("start perfbench compare");
    // Timings of a one-second run are noise: any verdict is fine, a
    // verdict for every workload × end-to-end metric is not optional.
    assert!(matches!(out.status.code(), Some(0 | 1)));
    let table = String::from_utf8(out.stdout).unwrap();
    let verdicts = table
        .lines()
        .filter(|l| {
            let mut fields = l.split_whitespace();
            let workload = fields.next().unwrap_or("");
            let verdict = fields.last().unwrap_or("");
            ["grow", "storm", "churn_des"].contains(&workload)
                && ["improved", "unchanged", "regressed", "unresolved"].contains(&verdict)
        })
        .count();
    assert_eq!(verdicts, 3 * Spec::load().end_to_end.len(), "{table}");
}

#[test]
fn an_unknown_workload_is_refused() {
    let dir = scratch("refused");
    let (ok, _) = perfbench(
        &dir,
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    );
    assert!(!ok);
}
