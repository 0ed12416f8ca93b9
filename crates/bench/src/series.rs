//! Labelled data series with CSV and Markdown rendering.
//!
//! A [`Series`] is one curve of a figure: `(x, y)` points plus a label.
//! The experiments collect one series per curve and [`Report`](crate::Report)
//! renders them as a wide table (x column + one y column per series) — the
//! exact rows the paper plots.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One labelled curve.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Curve label (legend entry).
    pub label: String,
    /// The points, in insertion order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Empty series with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at exactly `x`, if present.
    fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(px, _)| px == x)
            .map(|&(_, y)| y)
    }
}

/// Renders aligned series as CSV: header `x,<label1>,<label2>,…`, one row
/// per distinct x (union of all series; missing values are empty cells).
pub fn to_csv(series: &[Series]) -> String {
    let xs = x_union(series);
    let mut out = String::new();
    out.push('x');
    for s in series {
        out.push(',');
        out.push_str(&escape_csv(&s.label));
    }
    out.push('\n');
    for &x in &xs {
        let _ = write!(out, "{x}");
        for s in series {
            out.push(',');
            if let Some(y) = s.y_at(x) {
                let _ = write!(out, "{y}");
            }
        }
        out.push('\n');
    }
    out
}

/// Renders aligned series as a Markdown table (the harness's stdout).
pub fn to_markdown(series: &[Series], x_header: &str) -> String {
    let xs = x_union(series);
    let mut out = String::new();
    let _ = write!(out, "| {x_header} |");
    for s in series {
        let _ = write!(out, " {} |", s.label);
    }
    out.push('\n');
    let _ = write!(out, "|---|");
    for _ in series {
        out.push_str("---|");
    }
    out.push('\n');
    for &x in &xs {
        let _ = write!(out, "| {x} |");
        for s in series {
            match s.y_at(x) {
                Some(y) => {
                    let _ = write!(out, " {y:.2} |");
                }
                None => {
                    let _ = write!(out, " |");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Writes CSV to a file, creating parent directories.
pub fn write_csv(series: &[Series], path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, to_csv(series))
}

fn x_union(series: &[Series]) -> Vec<f64> {
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(x, _)| x))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN x values"));
    xs.dedup();
    xs
}

fn escape_csv(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_series() -> Vec<Series> {
        let mut a = Series::new("oscar");
        a.push(1000.0, 5.2);
        a.push(2000.0, 5.9);
        let mut b = Series::new("mercury");
        b.push(1000.0, 9.1);
        b.push(3000.0, 12.4);
        vec![a, b]
    }

    #[test]
    fn csv_has_header_and_union_rows() {
        let csv = to_csv(&sample_series());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,oscar,mercury");
        assert_eq!(lines.len(), 4, "3 distinct x values + header");
        assert_eq!(lines[1], "1000,5.2,9.1");
        assert_eq!(lines[2], "2000,5.9,");
        assert_eq!(lines[3], "3000,,12.4");
    }

    #[test]
    fn csv_escapes_labels() {
        let mut s = Series::new("weird,\"label\"");
        s.push(1.0, 2.0);
        let csv = to_csv(&[s]);
        assert!(csv.starts_with("x,\"weird,\"\"label\"\"\""));
    }

    #[test]
    fn markdown_table_shape() {
        let md = to_markdown(&sample_series(), "network size");
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| network size | oscar | mercury |");
        assert!(lines[1].starts_with("|---|"));
        assert!(lines[2].contains("5.20"));
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn write_csv_creates_directories() {
        let dir = std::env::temp_dir().join("oscar_series_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.csv");
        write_csv(&sample_series(), &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("x,oscar,mercury"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
