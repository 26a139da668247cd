//! Minimal CSV / markdown output helpers for the experiment harness.

use crate::error::Result;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Writes a CSV file from named columns of floats. Columns may have
/// different lengths; missing cells are left empty.
pub fn write_csv_columns(path: &Path, headers: &[&str], columns: &[Vec<f64>]) -> Result<()> {
    assert_eq!(headers.len(), columns.len(), "write_csv_columns: header/column count mismatch");
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(fs::File::create(path)?);
    writeln!(out, "{}", headers.join(","))?;
    let rows = columns.iter().map(Vec::len).max().unwrap_or(0);
    for r in 0..rows {
        let line: Vec<String> = columns
            .iter()
            .map(|c| c.get(r).map(|v| format!("{v}")).unwrap_or_default())
            .collect();
        writeln!(out, "{}", line.join(","))?;
    }
    out.flush()?;
    Ok(())
}

/// Writes a CSV of string rows.
pub fn write_csv_rows(path: &Path, headers: &[&str], rows: &[Vec<String>]) -> Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(fs::File::create(path)?);
    writeln!(out, "{}", headers.join(","))?;
    for row in rows {
        writeln!(out, "{}", row.join(","))?;
    }
    out.flush()?;
    Ok(())
}

/// Renders a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut s = String::new();
    s.push_str("| ");
    s.push_str(&headers.join(" | "));
    s.push_str(" |\n|");
    for _ in headers {
        s.push_str("---|");
    }
    s.push('\n');
    for row in rows {
        s.push_str("| ");
        s.push_str(&row.join(" | "));
        s.push_str(" |\n");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tskit-io-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn csv_roundtrip() {
        let dir = tmpdir();
        let path = dir.join("cols.csv");
        write_csv_columns(&path, &["a", "b"], &[vec![1.0, 2.0, 3.0], vec![4.5, 5.5, 6.5]])
            .unwrap();
        // the header row, then one row per index, each value as it prints
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,4.5\n2,5.5\n3,6.5\n");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn ragged_columns_pad_with_empty() {
        let dir = tmpdir();
        let path = dir.join("ragged.csv");
        write_csv_columns(&path, &["x", "y"], &[vec![1.0], vec![2.0, 3.0]]).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[2], ",3");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn markdown_table_shape() {
        let md = markdown_table(
            &["method", "mae"],
            &[vec!["stl".into(), "0.1".into()], vec!["oneshot".into(), "0.05".into()]],
        );
        assert!(md.contains("| method | mae |"));
        assert!(md.contains("| oneshot | 0.05 |"));
        assert_eq!(md.lines().count(), 4);
    }

    #[test]
    fn rows_writer_and_empty_read() {
        let dir = tmpdir();
        let path = dir.join("rows.csv");
        write_csv_rows(&path, &["k", "v"], &[vec!["a".into(), "1".into()]]).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("k,v\n"));
        fs::remove_dir_all(dir).ok();
    }
}
