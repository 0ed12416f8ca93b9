//! Uniform output for the experiments: Markdown table to stdout, CSV to
//! `results/`.

use crate::series::{self, Series};
use std::path::PathBuf;

/// A figure report in progress.
pub struct Report {
    title: String,
    series: Vec<Series>,
    x_header: String,
    notes: Vec<String>,
}

impl Report {
    /// New report for one figure.
    pub fn new(title: impl Into<String>, x_header: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            series: Vec::new(),
            x_header: x_header.into(),
            notes: Vec::new(),
        }
    }

    /// Adds a curve.
    pub fn add_series(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Adds a free-form note printed under the table.
    pub fn add_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// The collected series.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Where CSVs land: `$OSCAR_RESULTS_DIR` or `results/`.
    pub fn results_dir() -> PathBuf {
        std::env::var_os("OSCAR_RESULTS_DIR")
            .map_or_else(|| PathBuf::from("results"), PathBuf::from)
    }

    /// Prints the report (table + notes) and writes `name.csv`.
    pub fn emit(&self, name: &str) -> std::io::Result<PathBuf> {
        println!("\n==== {} ====\n", self.title);
        println!("{}", series::to_markdown(&self.series, &self.x_header));
        for note in &self.notes {
            println!("note: {note}");
        }
        let path = Self::results_dir().join(format!("{name}.csv"));
        series::write_csv(&self.series, &path)?;
        println!("csv: {}", path.display());
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_writes_csv_and_returns_path() {
        let _lock = crate::env_guard::lock();
        let _cleanup = crate::env_guard::RemoveOnDrop(&["OSCAR_RESULTS_DIR"]);
        let dir = std::env::temp_dir().join("oscar_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("OSCAR_RESULTS_DIR", &dir);
        let mut r = Report::new("test figure", "x");
        let mut s = Series::new("curve");
        s.push(1.0, 2.0);
        r.add_series(s);
        r.add_note("a note");
        let path = r.emit("test_out").unwrap();
        assert!(path.exists());
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("curve"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
