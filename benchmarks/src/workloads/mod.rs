//! The three workloads. Each runs in a process of its own, makes its
//! inputs from `--seed`, measures, and checks its outputs.

pub mod churn;
pub mod grow;
pub mod storm;

use crate::{Outcome, RunCfg};

/// Runs the workload `cfg` names; `None` for a name that is not declared.
pub fn run(cfg: &RunCfg) -> Option<Outcome> {
    Some(match cfg.workload.as_str() {
        "grow" => grow::run(cfg),
        "storm" => storm::run(cfg),
        "churn_des" => churn::run(cfg),
        _ => return None,
    })
}
