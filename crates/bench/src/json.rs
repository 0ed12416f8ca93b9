//! The one JSON emitter behind every `results/BENCH_<name>.json`.
//!
//! The summaries are flat documents: a top-level object whose values are
//! strings, integers, fixed-precision floats (`null` when not finite:
//! JSON has no token for them), or arrays of flat row objects. [`Object`]
//! keeps keys in insertion order (the files are diffed by humans and
//! pinned byte-for-byte by the acceptance runs) and every float carries
//! its own decimal count, so a key's precision is stated once, where the
//! key is written.
//!
//! ```text
//! {
//!   "bench": "faults",
//!   "cells": [
//!     { "driver": "des", "loss_pct": 2, "delivery_pct": 100.00 }
//!   ]
//! }
//! ```

use crate::report::Report;
use std::path::PathBuf;

/// A JSON value the summaries use.
#[derive(Clone, Debug)]
enum Value {
    Str(String),
    Int(u64),
    /// A float and the number of decimals it is written with.
    Float(f64, usize),
    /// An array of flat objects, one per line.
    Rows(Vec<Object>),
}

/// A JSON object with keys in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Object(Vec<(String, Value)>);

impl Object {
    /// Empty object.
    pub fn new() -> Self {
        Object::default()
    }

    fn push(mut self, key: impl Into<String>, value: Value) -> Self {
        self.0.push((key.into(), value));
        self
    }

    /// Appends a string member.
    pub fn str(self, key: impl Into<String>, v: impl Into<String>) -> Self {
        self.push(key, Value::Str(v.into()))
    }

    /// Appends an integer member.
    pub fn int(self, key: impl Into<String>, v: impl TryInto<u64>) -> Self {
        let v = v.try_into().ok().expect("summary counts fit u64");
        self.push(key, Value::Int(v))
    }

    /// Appends a float member written with exactly `decimals` decimals.
    pub fn float(self, key: impl Into<String>, v: f64, decimals: usize) -> Self {
        self.push(key, Value::Float(v, decimals))
    }

    /// Appends an array of row objects (each rendered on one line).
    pub fn rows(self, key: impl Into<String>, rows: Vec<Object>) -> Self {
        self.push(key, Value::Rows(rows))
    }

    /// The document: one member per line at two-space indent, rows at
    /// four, trailing newline.
    pub fn render(&self) -> String {
        let members: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("  {}: {}", quote(k), v.render()))
            .collect();
        format!("{{\n{}\n}}\n", members.join(",\n"))
    }

    /// One row: `{ "k": v, "k": v }`.
    fn render_inline(&self) -> String {
        let members: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), v.render()))
            .collect();
        format!("{{ {} }}", members.join(", "))
    }

    /// Writes the document to `<results dir>/<file_name>`, announces the
    /// path on stdout like [`Report::emit`] does for CSVs, and returns it.
    pub fn write(&self, file_name: &str) -> std::io::Result<PathBuf> {
        let dir = Report::results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(file_name);
        std::fs::write(&path, self.render())?;
        println!("json: {}", path.display());
        Ok(path)
    }
}

impl Value {
    fn render(&self) -> String {
        match self {
            Value::Str(s) => quote(s),
            Value::Int(n) => n.to_string(),
            Value::Float(v, decimals) if v.is_finite() => format!("{v:.decimals$}"),
            Value::Float(..) => "null".to_string(),
            Value::Rows(rows) => {
                let lines: Vec<String> = rows
                    .iter()
                    .map(|r| format!("    {}", r.render_inline()))
                    .collect();
                format!("[\n{}\n  ]", lines.join(",\n"))
            }
        }
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_floats_render_as_null() {
        let doc = Object::new()
            .float("nan", f64::NAN, 2)
            .rows("cells", vec![Object::new().float("inf", f64::INFINITY, 0)])
            .float("neg", f64::NEG_INFINITY, 4);
        assert_eq!(
            doc.render(),
            "{\n  \"nan\": null,\n  \"cells\": [\n    { \"inf\": null }\n  ],\n  \"neg\": null\n}\n"
        );
    }

    #[test]
    fn golden_document() {
        // Key order is insertion order, floats keep their stated
        // decimals (rounded, zero-padded), rows sit one per line, and a
        // member may follow an array.
        let doc = Object::new()
            .str("bench", "demo \"quoted\" 0.5%/win")
            .int("n_peers", 400usize)
            .float("secs", 1.005, 2)
            .float("rate", 94999.6, 0)
            .rows(
                "cells",
                vec![
                    Object::new()
                        .str("driver", "des")
                        .int("loss_pct", 5u32)
                        .float("delivery_pct", 99.75, 2),
                    Object::new()
                        .str("driver", "runtime")
                        .int("loss_pct", 10u32)
                        .float("delivery_pct", 86.8, 2),
                ],
            )
            .float(format!("d{}_ns_per_join", 400), 703_512.4, 0);
        assert_eq!(
            doc.render(),
            "{\n  \"bench\": \"demo \\\"quoted\\\" 0.5%/win\",\n  \"n_peers\": 400,\n  \
             \"secs\": 1.00,\n  \"rate\": 95000,\n  \"cells\": [\n    \
             { \"driver\": \"des\", \"loss_pct\": 5, \"delivery_pct\": 99.75 },\n    \
             { \"driver\": \"runtime\", \"loss_pct\": 10, \"delivery_pct\": 86.80 }\n  ],\n  \
             \"d400_ns_per_join\": 703512\n}\n"
        );
    }
}
