//! Printing one workload's result, and the `run` command that runs all
//! declared workloads, each in a fresh child process.

use crate::json::{self, obj, Value};
use crate::spec::Spec;
use crate::trace::Recorder;
use crate::{sys, Outcome, RunCfg};
use std::path::PathBuf;
use std::process::Command;

/// Where result files and traces go, relative to the working directory
/// (the repository root for the declared command).
const OUT_DIR: &str = "benchmarks/out";

/// Writes a traced run's spans to `benchmarks/out/trace_<workload>.jsonl`;
/// a write error fails the run.
pub fn write_trace(out: &mut Outcome, workload: &str, recorder: &Recorder) {
    let path = PathBuf::from(OUT_DIR).join(format!("trace_{workload}.jsonl"));
    if let Err(e) = recorder.write_jsonl(&path) {
        out.failures
            .push(format!("writing {}: {e}", path.display()));
    }
}

/// The one-line result object: every declared metric of the list this
/// run reports, by name, with its declared unit.
///
/// An end-to-end metric the workload did not measure is an error. A
/// per-layer metric it did not measure reads zero: the workload does not
/// exercise that layer. Measuring a name that is not declared is an
/// error either way.
pub fn result_object(outcome: &Outcome, spec: &Spec, trace: bool) -> Result<Value, String> {
    let declared = spec.metrics_for(trace);
    if let Some(stray) = outcome
        .values
        .keys()
        .find(|k| !declared.iter().any(|d| &d.name == *k))
    {
        return Err(format!(
            "`{stray}` was measured but BENCHMARK.json does not declare it"
        ));
    }
    let mut metrics = Vec::with_capacity(declared.len());
    for d in declared {
        let value = match outcome.values.get(&d.name) {
            Some(&v) if v.is_finite() => v,
            Some(v) => return Err(format!("`{}` measured as {v}", d.name)),
            None if trace => 0.0,
            None => return Err(format!("`{}` is declared but was not measured", d.name)),
        };
        metrics.push((
            d.name.clone(),
            obj(vec![
                ("value", Value::Num(value)),
                ("unit", Value::Str(d.unit.clone())),
            ]),
        ));
    }
    Ok(obj(vec![
        ("correct", Value::Bool(outcome.failures.is_empty())),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]))
}

/// Prints every metric by name with its unit, then the result line.
/// Returns the process exit code.
pub fn print_result(cfg: &RunCfg, outcome: &Outcome, spec: &Spec) -> i32 {
    let object = match result_object(outcome, spec, cfg.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for d in spec.metrics_for(cfg.trace) {
        match outcome.values.get(&d.name) {
            Some(v) => println!("  {:<40} {:>16.4} {}", d.name, v, d.unit),
            None => println!(
                "  {:<40} {:>16} {}  (layer not exercised)",
                d.name, 0, d.unit
            ),
        }
    }
    println!("  {:<40} {:>16}", "ops_attempted", outcome.attempted);
    println!("  {:<40} {:>16}", "ops_failed", outcome.failed);
    println!("digest {:016x}", outcome.digest);
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", object.render());
    if outcome.failures.is_empty() {
        0
    } else {
        1
    }
}

fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// `run`: every declared workload, each in a fresh child process of this
/// executable, then a result file under `benchmarks/out/`.
pub fn run_all(seed: u64, seconds: u64, trace: bool, n: Option<usize>, label: &str) -> i32 {
    let spec = Spec::load();
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find my own executable: {e}");
            return 2;
        }
    };
    let mut code = 0;
    let mut workloads = Vec::new();
    for workload in &spec.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if let Some(n) = n {
            cmd.args(["--n", &n.to_string()]);
        }
        // `output` waits for the child to end before returning.
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: cannot start the `{workload}` child: {e}");
                return 2;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        if !output.status.success() {
            eprintln!(
                "perfbench: workload `{workload}` failed ({})",
                output.status
            );
            code = 1;
        }
        let digest = stdout
            .lines()
            .find_map(|l| l.strip_prefix("digest "))
            .unwrap_or("")
            .to_string();
        match stdout.lines().last().map(json::parse) {
            Some(Ok(Value::Obj(mut members))) => {
                members.push(("digest".to_string(), Value::Str(digest)));
                workloads.push((workload.clone(), Value::Obj(members)));
            }
            _ => {
                eprintln!("perfbench: workload `{workload}` printed no result line");
                code = 1;
            }
        }
    }
    let file = obj(vec![
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds as f64)),
        ("trace", Value::Bool(trace)),
        ("git", Value::Str(git_revision())),
        ("nproc", Value::Num(sys::nproc() as f64)),
        ("workers", Value::Num(sys::RUNTIME_WORKERS as f64)),
        ("workloads", Value::Obj(workloads)),
    ]);
    let path = PathBuf::from(OUT_DIR).join(format!("{label}.json"));
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, file.render() + "\n"));
    match written {
        Ok(()) => println!("result file: {}", path.display()),
        Err(e) => {
            eprintln!("perfbench: writing {}: {e}", path.display());
            code = 2;
        }
    }
    code
}
