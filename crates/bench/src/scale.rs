//! Experiment scale configuration.
//!
//! The paper's experiments run to 10,000 peers with checkpoints every
//! 1,000. A full regeneration takes minutes; `OSCAR_SCALE` scales the
//! whole schedule proportionally, both down for quick validation runs and
//! up for the large-scale smokes the order-statistic ring enables:
//!
//! ```sh
//! OSCAR_SCALE=2000 cargo run --release -p oscar-bench -- fig1c
//! OSCAR_SCALE=100000 cargo run --release -p oscar-bench -- fig1c
//! ```
//!
//! A malformed `OSCAR_*` value is a hard error, not a silent fallback: a
//! typo like `OSCAR_SCALE=2k` used to run the full paper schedule for
//! minutes and then be mistaken for the intended quick run. Which
//! experiment reads which knob is declared in [`crate::registry`].

use oscar_types::{Error, Result};
use std::str::FromStr;

/// Reads the knob `name` from the environment: unset is `None`; a value
/// that parses as `T` and passes `valid` is `Some`; anything else — a
/// value that is not Unicode included — is [`Error::InvalidConfig`]
/// naming the knob and what it `expects`.
fn knob<T: FromStr>(name: &str, expects: &str, valid: impl Fn(&T) -> bool) -> Result<Option<T>> {
    let Some(raw) = std::env::var_os(name) else {
        return Ok(None);
    };
    match raw.to_str().and_then(|s| s.trim().parse::<T>().ok()) {
        Some(v) if valid(&v) => Ok(Some(v)),
        _ => Err(Error::InvalidConfig(format!(
            "{name} must be {expects}, got {raw:?}"
        ))),
    }
}

/// Scale and seed of an experiment run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Final network size (paper: 10,000).
    pub target: usize,
    /// Checkpoint spacing (paper: 1,000).
    pub step: usize,
    /// Root experiment seed.
    pub seed: u64,
    /// Worker-thread budget for the parallel experiment drivers
    /// (`OSCAR_THREADS`): `0` means "all available parallelism", `1` is
    /// fully sequential. Every run derives its randomness from its own
    /// seed-tree child, so the thread count never changes any result —
    /// only wall time (asserted by `tests/parallel_determinism.rs`).
    pub threads: usize,
}

impl Scale {
    /// The paper's scale.
    pub fn paper() -> Self {
        Scale {
            target: 10_000,
            step: 1_000,
            seed: 42,
            threads: 0,
        }
    }

    /// Same scale with an explicit thread budget.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The resolved worker-thread budget (`threads`, or all available
    /// parallelism when 0).
    pub fn thread_count(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Scale from the environment: `OSCAR_SCALE` (target size; step is
    /// target/10), `OSCAR_SEED` and `OSCAR_THREADS`. Defaults to
    /// [`Scale::paper`] when the variables are unset.
    pub fn from_env() -> Result<Self> {
        let mut scale = Scale::paper();
        if let Some(target) = knob(
            "OSCAR_SCALE",
            "a positive integer peer count",
            |&n: &usize| n >= 1,
        )? {
            if target < 100 {
                // The schedule floor, announced rather than silent.
                eprintln!("oscar-repro: OSCAR_SCALE={target} below the 100-peer floor; using 100");
            }
            scale.target = target.max(100);
            scale.step = (scale.target / 10).max(50);
        }
        if let Some(seed) = knob("OSCAR_SEED", "an unsigned 64-bit integer", |_: &u64| true)? {
            scale.seed = seed;
        }
        if let Some(threads) = knob(
            "OSCAR_THREADS",
            "a thread count >= 1 (unset it for all cores)",
            |&t: &usize| t >= 1,
        )? {
            scale.threads = threads;
        }
        Ok(scale)
    }

    /// Reduced scale for tests (sequential by default: tests assert on
    /// single-run behaviour, and determinism tests opt in to threads
    /// explicitly).
    pub fn small(target: usize, seed: u64) -> Self {
        Scale {
            target,
            step: (target / 5).max(20),
            seed,
            threads: 1,
        }
    }

    /// Steady-churn measurement windows per level (`churn`,
    /// `churn-machine`) or per phase cell (`phase`) from
    /// `OSCAR_CHURN_WINDOWS`; default 8. Must be >= 2 — the steady-state
    /// aggregate is the last half of the windows.
    pub fn churn_windows_from_env() -> Result<usize> {
        Ok(
            knob("OSCAR_CHURN_WINDOWS", "an integer >= 2", |&n: &usize| {
                n >= 2
            })?
            .unwrap_or(8),
        )
    }

    /// The checkpoint sizes: `step, 2·step, …, target`.
    pub fn checkpoints(&self) -> Vec<usize> {
        let mut cps: Vec<usize> = (1..)
            .map(|k| k * self.step)
            .take_while(|&s| s < self.target)
            .collect();
        cps.push(self.target);
        cps
    }

    /// Checkpoints the figures plot (the paper's x axis starts at 2·step:
    /// 2,000..10,000).
    pub fn figure_checkpoints(&self) -> Vec<usize> {
        self.checkpoints()
            .into_iter()
            .filter(|&s| s >= 2 * self.step)
            .collect()
    }
}

/// The knobs every experiment accepts: the [`Scale`] family plus the
/// output directory.
pub const BASE_KNOBS: [&str; 4] = [
    "OSCAR_SCALE",
    "OSCAR_SEED",
    "OSCAR_THREADS",
    "OSCAR_RESULTS_DIR",
];

/// Rejects `OSCAR_*` environment variables the experiment would
/// silently ignore. `extra` lists the knobs it reads beyond
/// [`BASE_KNOBS`] — its [`crate::registry::Experiment::knobs`].
///
/// An exported-but-unread knob used to be a silent no-op: setting
/// `OSCAR_CHURN_WINDOWS` for `fig1a`, or typo'ing `OSCAR_CHURN_WINDOW`,
/// ran the default experiment and was then mistaken for the tuned one.
/// Like the parse errors above, ignoring is worse than refusing. Names
/// are read lossily: a non-Unicode `OSCAR_*` name matches no knob and is
/// refused with the rest; any other variable is none of our business.
pub fn reject_unused_knobs(extra: &[&str]) -> Result<()> {
    let mut unused: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| {
            k.starts_with("OSCAR_")
                && !BASE_KNOBS.contains(&k.as_str())
                && !extra.contains(&k.as_str())
        })
        .collect();
    if unused.is_empty() {
        return Ok(());
    }
    unused.sort();
    Err(Error::InvalidConfig(format!(
        "this experiment does not read {}: unset it, or see `oscar-repro --list` \
         (the knob table of ARCHITECTURE.md) for which experiment does",
        unused.join(", ")
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_the_paper() {
        let s = Scale::paper();
        assert_eq!(s.target, 10_000);
        assert_eq!(s.checkpoints().len(), 10);
        assert_eq!(s.checkpoints()[0], 1000);
        assert_eq!(*s.checkpoints().last().unwrap(), 10_000);
        assert_eq!(s.figure_checkpoints()[0], 2000);
    }

    #[test]
    fn checkpoints_cover_uneven_targets() {
        let s = Scale {
            target: 2500,
            step: 1000,
            seed: 1,
            threads: 1,
        };
        assert_eq!(s.checkpoints(), vec![1000, 2000, 2500]);
    }

    #[test]
    fn from_env_parses_or_errors_loudly() {
        let _lock = crate::env_guard::lock();
        let _cleanup =
            crate::env_guard::RemoveOnDrop(&["OSCAR_SCALE", "OSCAR_SEED", "OSCAR_THREADS"]);
        std::env::remove_var("OSCAR_SCALE");
        std::env::remove_var("OSCAR_SEED");
        std::env::remove_var("OSCAR_THREADS");
        assert_eq!(Scale::from_env().unwrap(), Scale::paper());
        assert!(Scale::paper().thread_count() >= 1);

        std::env::set_var("OSCAR_SCALE", "2000");
        std::env::set_var("OSCAR_SEED", "7");
        std::env::set_var("OSCAR_THREADS", "4");
        let s = Scale::from_env().unwrap();
        assert_eq!((s.target, s.step, s.seed, s.threads), (2000, 200, 7, 4));
        assert_eq!(s.thread_count(), 4);

        // thread typos and zero are hard errors, like the other knobs
        std::env::set_var("OSCAR_THREADS", "four");
        let err = Scale::from_env().unwrap_err();
        assert!(err.to_string().contains("OSCAR_THREADS"), "{err}");
        std::env::set_var("OSCAR_THREADS", "0");
        let err = Scale::from_env().unwrap_err();
        assert!(err.to_string().contains("OSCAR_THREADS"), "{err}");
        std::env::remove_var("OSCAR_THREADS");

        // the typo that used to silently run the full paper schedule
        std::env::set_var("OSCAR_SCALE", "2k");
        let err = Scale::from_env().unwrap_err();
        assert!(err.to_string().contains("OSCAR_SCALE"), "{err}");

        // zero parses but is not a runnable peer count
        std::env::set_var("OSCAR_SCALE", "0");
        let err = Scale::from_env().unwrap_err();
        assert!(err.to_string().contains("got \"0\""), "{err}");

        std::env::set_var("OSCAR_SCALE", "2000");
        std::env::set_var("OSCAR_SEED", "-1");
        let err = Scale::from_env().unwrap_err();
        assert!(err.to_string().contains("OSCAR_SEED"), "{err}");
    }

    #[test]
    fn churn_windows_parse_or_error_loudly() {
        let _lock = crate::env_guard::lock();
        let _cleanup = crate::env_guard::RemoveOnDrop(&["OSCAR_CHURN_WINDOWS"]);
        std::env::remove_var("OSCAR_CHURN_WINDOWS");
        assert_eq!(Scale::churn_windows_from_env().unwrap(), 8);
        std::env::set_var("OSCAR_CHURN_WINDOWS", "12");
        assert_eq!(Scale::churn_windows_from_env().unwrap(), 12);
        for bad in ["1", "0", "eight", "-3"] {
            std::env::set_var("OSCAR_CHURN_WINDOWS", bad);
            let err = Scale::churn_windows_from_env().unwrap_err();
            assert!(err.to_string().contains("OSCAR_CHURN_WINDOWS"), "{err}");
        }
    }

    #[test]
    fn unused_knobs_error_loudly() {
        let _lock = crate::env_guard::lock();
        let _cleanup =
            crate::env_guard::RemoveOnDrop(&["OSCAR_CHURN_WINDOWS", "OSCAR_CHURN_WINDOW"]);
        std::env::remove_var("OSCAR_CHURN_WINDOWS");
        std::env::remove_var("OSCAR_CHURN_WINDOW");
        // Base knobs and declared extras pass.
        reject_unused_knobs(&[]).unwrap();
        std::env::set_var("OSCAR_CHURN_WINDOWS", "12");
        reject_unused_knobs(&["OSCAR_CHURN_WINDOWS"]).unwrap();
        // A knob the experiment does not read is refused, not ignored.
        let err = reject_unused_knobs(&[]).unwrap_err();
        assert!(err.to_string().contains("OSCAR_CHURN_WINDOWS"), "{err}");
        std::env::remove_var("OSCAR_CHURN_WINDOWS");
        // So is a typo of one it does read.
        std::env::set_var("OSCAR_CHURN_WINDOW", "12");
        let err = reject_unused_knobs(&["OSCAR_CHURN_WINDOWS"]).unwrap_err();
        assert!(err.to_string().contains("OSCAR_CHURN_WINDOW"), "{err}");
        std::env::remove_var("OSCAR_CHURN_WINDOW");
    }

    #[test]
    fn small_scale_has_five_checkpoints() {
        let s = Scale::small(500, 9);
        assert_eq!(s.checkpoints(), vec![100, 200, 300, 400, 500]);
        assert_eq!(s.seed, 9);
    }
}
