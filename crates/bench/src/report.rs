//! Markdown/CSV experiment reports under `target/experiments/`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;
use tskit::io::{markdown_table, write_csv_rows};

/// Formats a float with three decimals (the paper's table convention).
pub fn fmt3(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "-".into()
    }
}

/// Human-readable duration.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.1}min", s / 60.0)
    }
}

/// Writes the `BENCH_*.json` record `file` and returns its path: into the
/// working directory for a full run, under [`Experiment::dir`] for a
/// reduced (`--quick` or `--smoke`) run, so only a full run replaces a
/// committed record.
pub fn write_bench_json(file: &str, json: &str, reduced: bool) -> PathBuf {
    let path = if reduced { Experiment::dir().join(file) } else { PathBuf::from(file) };
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    path
}

/// A named experiment report that accumulates sections and tables.
pub struct Experiment {
    name: String,
    body: String,
}

impl Experiment {
    /// Starts a report for `name` (e.g. `"table2"`).
    pub fn new(name: &str, title: &str) -> Self {
        let mut body = String::new();
        let _ = writeln!(body, "# {title}\n");
        Experiment { name: name.to_string(), body }
    }

    /// Output directory (`target/experiments`).
    pub fn dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments")
    }

    /// Appends a paragraph.
    pub fn para(&mut self, text: &str) {
        let _ = writeln!(self.body, "{text}\n");
    }

    /// Appends a markdown table (also printed to stdout).
    pub fn table(&mut self, caption: &str, headers: &[&str], rows: &[Vec<String>]) {
        let md = markdown_table(headers, rows);
        let _ = writeln!(self.body, "## {caption}\n\n{md}");
        println!("\n== {caption} ==\n{md}");
    }

    /// Writes a companion CSV next to the report.
    pub fn csv(&self, suffix: &str, headers: &[&str], rows: &[Vec<String>]) {
        let path = Self::dir().join(format!("{}_{suffix}.csv", self.name));
        if let Err(e) = write_csv_rows(&path, headers, rows) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }

    /// Flushes the markdown report to disk and returns its path.
    pub fn finish(self) -> PathBuf {
        let path = Self::dir().join(format!("{}.md", self.name));
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&path, &self.body) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("\nreport written to {}", path.display());
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats() {
        assert_eq!(fmt3(0.12345), "0.123");
        assert_eq!(fmt3(f64::NAN), "-");
        assert_eq!(fmt_duration(Duration::from_micros(50)), "50.0µs");
        assert_eq!(fmt_duration(Duration::from_millis(300)), "300.0ms");
        assert_eq!(fmt_duration(Duration::from_secs(5)), "5.0s");
        assert_eq!(fmt_duration(Duration::from_secs(300)), "5.0min");
    }

    #[test]
    fn experiment_report_roundtrip() {
        let mut e = Experiment::new("unit_test_report", "Unit test");
        e.para("hello");
        e.table("numbers", &["a"], &[vec!["1".into()]]);
        let path = e.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("hello"));
        assert!(text.contains("| a |"));
        std::fs::remove_file(path).ok();
    }
}
