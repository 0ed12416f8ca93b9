//! `oscar-repro <experiment>` — the one harness binary.
//!
//! ```sh
//! cargo run --release -p oscar-bench -- --list     # experiments + knobs
//! cargo run --release -p oscar-bench -- all        # every paper figure, paper scale
//! OSCAR_SCALE=2000 OSCAR_THREADS=4 ./target/release/oscar-repro churn-machine
//! ```
//!
//! Prints Markdown tables on stdout and writes CSVs, reports and
//! `BENCH_<name>.json` summaries under `results/`
//! (`OSCAR_RESULTS_DIR`). Exit codes: 0 done; 1 an experiment failed —
//! I/O, or one of the behavioural gates its `--list` line names; 2 usage —
//! unknown experiment, malformed knob, or an `OSCAR_*` variable the
//! experiment does not read.

use oscar_bench::registry::{find, render_list};
use oscar_bench::{reject_unused_knobs, Scale};
use oscar_types::Error;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [arg] = args.as_slice() else {
        eprint!("{}", render_list());
        return ExitCode::from(2);
    };
    if arg == "--list" {
        print!("{}", render_list());
        return ExitCode::SUCCESS;
    }
    let Some(experiment) = find(arg) else {
        eprintln!("oscar-repro: no experiment named {arg:?} (see `oscar-repro --list`)");
        return ExitCode::from(2);
    };
    let scale = match reject_unused_knobs(experiment.knobs).and_then(|()| Scale::from_env()) {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("oscar-repro: {e}");
            return ExitCode::from(2);
        }
    };
    match (experiment.run)(&scale) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("oscar-repro {}: {e}", experiment.name);
            match e.downcast_ref::<Error>() {
                Some(Error::InvalidConfig(_)) => ExitCode::from(2),
                _ => ExitCode::from(1),
            }
        }
    }
}
