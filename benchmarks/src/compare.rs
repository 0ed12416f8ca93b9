//! `compare A.json… -- B.json…`: two sets of result files judged against
//! the bounds `BENCHMARK.json` declares, per workload and end-to-end
//! metric.

use crate::json::{self, Value};
use crate::spec::{MetricDecl, Spec};
use crate::stats;
use std::collections::BTreeMap;

/// What the two sets of runs say about one metric on one workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of B reads better than every run of A, and the medians
    /// differ by more than A's own inter-quartile distance.
    Improved,
    /// B's median is no worse than A's by more than the bound.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sets
    /// interleave: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for one metric. Both slices must be non-empty.
pub fn judge(decl: &MetricDecl, a: &[f64], b: &[f64]) -> Verdict {
    let bound = decl.bound.unwrap_or(0.0);
    // Orient so that larger is better.
    let sign = if decl.higher_is_better { 1.0 } else { -1.0 };
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let (q1, q3) = stats::quartiles(a);
    let min = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MAX, f64::min);
    let max = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MIN, f64::max);
    let b_all_better = min(b) > max(a);
    let b_all_worse = max(b) < min(a);
    if b_all_better && (med_b - med_a).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    let worse_by = sign * (med_a - med_b) / med_a.abs().max(f64::MIN_POSITIVE);
    let spread = stats::spread(a).max(stats::spread(b));
    if spread > bound && !b_all_better && !b_all_worse {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// `workload → metric → values` over a set of result files.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let file = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let workloads = file
            .get("workloads")
            .and_then(Value::as_obj)
            .ok_or(format!("{path}: no `workloads` object"))?;
        for (workload, result) in workloads {
            let metrics = result
                .get("metrics")
                .and_then(Value::as_obj)
                .ok_or(format!("{path}: `{workload}` has no `metrics` object"))?;
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or(format!("{path}: `{workload}`.`{name}` has no value"))?;
                runs.entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(runs)
}

/// Prints the comparison table. Exit code 0 when nothing regressed, 1
/// when something did, 2 on unreadable input.
pub fn run(a_paths: &[String], b_paths: &[String]) -> i32 {
    let spec = Spec::load();
    let (a, b) = match (load(a_paths), load(b_paths)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<10} {:<18} {:>6} | {:>12} {:>12} {:>12} {:>7} | {:>12} {:>12} {:>12} {:>7} | {:>8}  verdict",
        "workload", "metric", "bound", "A q1", "A median", "A q3", "A iqr", "B q1", "B median",
        "B q3", "B iqr", "B vs A"
    );
    let mut regressed = 0;
    let mut compared = 0;
    for workload in &spec.workloads {
        for decl in &spec.end_to_end {
            let values = |runs: &Runs| runs.get(workload)?.get(&decl.name).cloned();
            let (Some(va), Some(vb)) = (values(&a), values(&b)) else {
                continue;
            };
            let verdict = judge(decl, &va, &vb);
            let (qa, qb) = (stats::quartiles(&va), stats::quartiles(&vb));
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "{:<10} {:<18} {:>5.0}% | {:>12.4} {:>12.4} {:>12.4} {:>6.2}% | {:>12.4} {:>12.4} \
                 {:>12.4} {:>6.2}% | {:>+7.2}%  {}",
                workload,
                decl.name,
                decl.bound.unwrap_or(0.0) * 100.0,
                qa.0,
                ma,
                qa.1,
                stats::spread(&va) * 100.0,
                qb.0,
                mb,
                qb.1,
                stats::spread(&vb) * 100.0,
                (mb / ma - 1.0) * 100.0,
                verdict.label()
            );
            compared += 1;
            regressed += (verdict == Verdict::Regressed) as u32;
        }
    }
    println!(
        "{compared} workload × metric pairs from {} + {} result files; {regressed} regressed",
        a_paths.len(),
        b_paths.len()
    );
    if compared == 0 {
        eprintln!("perfbench compare: the two sets share no end-to-end metric");
        return 2;
    }
    (regressed > 0) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate(bound: f64) -> MetricDecl {
        MetricDecl {
            name: "rate".into(),
            unit: "1/s".into(),
            higher_is_better: true,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&rate(0.1), &base, &[100.5, 99.5, 100.0]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&rate(0.1), &base, &[80.0, 81.0, 79.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&rate(0.1), &base, &[120.0, 121.0, 119.0]),
            Verdict::Improved
        );
        // Spread far beyond the bound, sets interleaved: cannot tell.
        assert_eq!(
            judge(&rate(0.01), &[100.0, 120.0, 80.0], &[90.0, 110.0, 95.0]),
            Verdict::Unresolved
        );
        // Lower-is-better flips the direction.
        let latency = MetricDecl {
            higher_is_better: false,
            ..rate(0.1)
        };
        assert_eq!(
            judge(&latency, &base, &[120.0, 121.0, 119.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&latency, &base, &[80.0, 81.0, 79.0]),
            Verdict::Improved
        );
    }
}
