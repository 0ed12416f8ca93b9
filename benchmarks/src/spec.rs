//! `BENCHMARK.json` as the program sees it. The file is compiled in, so
//! the names, units and bounds the program prints and judges by cannot
//! drift from the ones the repository declares.

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

/// The declared benchmark.
#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Spec {
    /// Parses the compiled-in declaration.
    ///
    /// # Panics
    /// On a malformed `BENCHMARK.json`: the file is part of this
    /// repository, so that is a bug here, not an input error.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is malformed")
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let root = json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            root.get(key)
                .and_then(Value::as_arr)
                .ok_or(format!("`{key}` must be a list"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .ok_or(format!("a `{key}` entry lacks `{f}`"))
                    };
                    Ok(MetricDecl {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("`run_seconds` must be a number")? as u64,
            workloads: root
                .get("workloads")
                .and_then(Value::as_arr)
                .ok_or("`workloads` must be a list")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metric list a run with the given `--trace` value reports.
    pub fn metrics_for(&self, trace: bool) -> &[MetricDecl] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
