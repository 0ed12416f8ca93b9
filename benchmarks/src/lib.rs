//! # oscar-perfbench — the repository's one benchmark
//!
//! Three workloads (`grow`, `storm`, `churn_des`), each run in
//! a process of its own, measured from outside the crates through their
//! public functions. `BENCHMARK.json` at the repository root declares the
//! workloads and every metric; `README.md` beside this package says why
//! each exists and what moves what.
//!
//! Module map: [`workloads`] holds the three workloads and their output
//! checks; [`driver`] is the timing `ProtocolDriver` wrapper the churn
//! workloads run through; [`probes`] and [`replay`] produce the per-layer
//! numbers of a traced run; [`trace`] records spans; [`report`] prints a
//! run and [`compare`] judges two sets of runs against the declared
//! bounds.

pub mod compare;
pub mod driver;
pub mod json;
pub mod probes;
pub mod replay;
pub mod report;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;

/// Seed-tree labels of the benchmark's own derivation scope: every input
/// (identifiers, keys, query sources, probe arguments) is a labelled
/// child of `--seed`.
pub mod labels {
    pub const IDS: u64 = 1;
    pub const JOIN: u64 = 2;
    pub const REWIRE: u64 = 3;
    pub const QUERY: u64 = 4;
    pub const FLEET: u64 = 5;
    pub const CHURN: u64 = 6;
    pub const PROBE: u64 = 7;
    pub const REPLAY: u64 = 8;
}

/// What one invocation runs.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed region the work is sized for, on the 2-core
    /// box the sizes were calibrated on. Work counts are a fixed function
    /// of this value, so the same `(seed, seconds)` is the same work.
    pub seconds: u64,
    pub trace: bool,
    /// Overrides the workload's peer count. The smoke test's only knob:
    /// the declared benchmark never passes it.
    pub n: Option<usize>,
}

impl RunCfg {
    /// `--seconds` for one pass over the timed region. A traced run makes
    /// two passes, spans off then on, at half the size each, so it costs
    /// what an untraced run does; the ratio of the two walls is the cost
    /// of tracing.
    pub fn pass_seconds(&self) -> u64 {
        if self.trace {
            self.seconds.div_ceil(2)
        } else {
            self.seconds
        }
    }
}

/// What one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations issued (joins, rewires, queries).
    pub attempted: u64,
    /// Operations that did not succeed.
    pub failed: u64,
    /// FNV digest of the workload's deterministic outputs.
    pub digest: u64,
    /// Every metric measured, by declared name.
    pub values: BTreeMap<String, f64>,
    /// Output checks that did not hold; empty means the run is correct.
    pub failures: Vec<String>,
    /// Context lines for the human reader (sample counts, percentiles
    /// actually used, share sums).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        let previous = self.values.insert(name.to_string(), value);
        assert!(previous.is_none(), "metric `{name}` measured twice");
    }

    /// Records `what` as a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// `a / b`, zero when `b` is zero (a phase that did not run).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
