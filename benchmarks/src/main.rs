//! `perfbench` — command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!     one workload in this process; the last line of standard output is
//!     the result object (end-to-end metrics with --trace 0, per-layer
//!     metrics with --trace 1)
//! perfbench run --seed <u64> [--seconds <n>] [--trace] [--label <name>]
//!     every declared workload, each in a fresh child process, and a result
//!     file benchmarks/out/<label>.json
//! perfbench compare <A.json>... -- <B.json>...
//!     verdict per workload and end-to-end metric under the declared bounds
//! ```

use oscar_perfbench::spec::Spec;
use oscar_perfbench::{compare, report, workloads, RunCfg};
use std::process::exit;

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <grow|storm|churn_des> --seed <u64> --seconds <n> \
         --trace <0|1>\n       perfbench run --seed <u64> [--seconds <n>] [--trace] [--label <name>]\n       \
         perfbench compare <A.json>... -- <B.json>..."
    );
    exit(2);
}

/// `--flag value` pairs (and bare `--trace` for `run`).
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    n: Option<usize>,
    label: Option<String>,
}

fn parse_flags(args: &[String], bare_trace: bool) -> Flags {
    let mut f = Flags {
        workload: None,
        seed: None,
        seconds: None,
        trace: None,
        n: None,
        label: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--trace" && bare_trace {
            f.trace = Some(true);
            continue;
        }
        let Some(value) = it.next() else {
            usage(&format!("`{flag}` needs a value"));
        };
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("`{flag} {value}`: not a whole number")))
        };
        match flag.as_str() {
            "--workload" => f.workload = Some(value.clone()),
            "--seed" => f.seed = Some(number()),
            "--seconds" => f.seconds = Some(number().max(1)),
            "--trace" => f.trace = Some(number() != 0),
            "--n" => f.n = Some(number() as usize),
            "--label" => f.label = Some(value.clone()),
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    f
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => {
            let mut sides = args[1..].split(|a| a == "--");
            match (sides.next(), sides.next(), sides.next()) {
                (Some(a), Some(b), None) if !a.is_empty() && !b.is_empty() => compare::run(a, b),
                _ => usage("compare takes two non-empty lists of result files separated by `--`"),
            }
        }
        Some("run") => {
            let f = parse_flags(&args[1..], true);
            let seed = f.seed.unwrap_or_else(|| usage("run needs --seed"));
            let seconds = f.seconds.unwrap_or_else(|| Spec::load().run_seconds);
            let trace = f.trace.unwrap_or(false);
            let label = f.label.unwrap_or_else(|| {
                format!("run_seed{seed}_{}", if trace { "trace" } else { "e2e" })
            });
            report::run_all(seed, seconds, trace, f.n, &label)
        }
        _ => {
            let f = parse_flags(&args, false);
            let cfg = RunCfg {
                workload: f
                    .workload
                    .unwrap_or_else(|| usage("--workload is required")),
                seed: f.seed.unwrap_or_else(|| usage("--seed is required")),
                seconds: f.seconds.unwrap_or_else(|| usage("--seconds is required")),
                trace: f.trace.unwrap_or_else(|| usage("--trace is required")),
                n: f.n,
            };
            let spec = Spec::load();
            match workloads::run(&cfg) {
                Some(outcome) => report::print_result(&cfg, &outcome, &spec),
                None => usage(&format!("no workload called `{}`", cfg.workload)),
            }
        }
    };
    exit(code);
}
