//! Table and CSV emission.
//!
//! Experiment binaries print markdown tables (for EXPERIMENTS.md) and
//! write CSV files (for external plotting). Both are hand-rolled — the
//! data is small and flat, so a serialization framework would be pure
//! overhead.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;

/// A simple column-aligned table builder.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header count.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width does not match header count"
        );
        self.rows.push(cells);
        self
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            out.push('|');
            for (w, c) in widths.iter().zip(cells) {
                let _ = write!(out, " {c:<w$} |");
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{}|", "-".repeat(w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }

    /// Render as CSV text (RFC-4180 quoting for cells containing commas,
    /// quotes, or newlines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            let line: Vec<String> = cells.iter().map(|c| csv_escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        emit(&self.headers, &mut out);
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }

    /// The canonical summary-statistics column block emitted by
    /// [`Table::push_summary_row`]; splice into a header list after the
    /// sweep-specific key columns.
    pub const SUMMARY_HEADERS: [&'static str; 8] = [
        "trials", "mean", "std", "sem", "min", "median", "max", "censored",
    ];

    /// Append a row of `prefix` key cells, the canonical
    /// [`Summary`](crate::stats::Summary) block (count, mean, std, sem,
    /// min, median, max, censored), and any `suffix` cells — the shape
    /// every per-cell experiment table shares. The table's headers must
    /// have been built with [`Table::SUMMARY_HEADERS`] in the matching
    /// position, which `row`'s width check enforces.
    pub fn push_summary_row(
        &mut self,
        prefix: Vec<String>,
        s: &crate::stats::Summary,
        censored: usize,
        suffix: Vec<String>,
    ) -> &mut Self {
        let mut cells = prefix;
        cells.extend([
            s.count.to_string(),
            fmt_f64(s.mean),
            fmt_f64(s.std_dev),
            fmt_f64(s.sem),
            fmt_f64(s.min),
            fmt_f64(s.median),
            fmt_f64(s.max),
            censored.to_string(),
        ]);
        cells.extend(suffix);
        self.row(cells)
    }

    /// Write the CSV form to `path`, creating parent directories.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(self.to_csv().as_bytes())
    }
}

fn csv_escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Format a float with a sensible number of digits for tables: integers
/// print bare, large values with one decimal, small with three.
pub fn fmt_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_alignment() {
        let mut t = Table::new(vec!["n", "mean"]);
        t.row(vec!["12", "345.6"]);
        t.row(vec!["120", "7.0"]);
        let md = t.to_markdown();
        assert!(md.contains("| n   | mean  |"));
        assert!(md.lines().nth(1).unwrap().starts_with("|--"));
        assert_eq!(md.lines().count(), 4);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["x,y", "he said \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\",\"he said \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        Table::new(vec!["a"]).row(vec!["1", "2"]);
    }

    #[test]
    fn write_csv_roundtrip() {
        let dir = std::env::temp_dir().join("pp_analysis_test");
        let path = dir.join("t.csv");
        let mut t = Table::new(vec!["x"]);
        t.row(vec!["1"]);
        t.write_csv(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, "x\n1\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn push_summary_row_matches_canonical_headers() {
        let mut headers: Vec<String> = vec!["k".into(), "n".into()];
        headers.extend(Table::SUMMARY_HEADERS.iter().map(|h| h.to_string()));
        headers.push("extra".into());
        let mut t = Table::new(headers);
        let s = crate::stats::Summary::of_u64(&[10, 20, 30]);
        t.push_summary_row(vec!["4".into(), "96".into()], &s, 2, vec!["tail".into()]);
        let csv = t.to_csv();
        let row = csv.lines().nth(1).unwrap();
        assert_eq!(row, "4,96,3,20,10,5.774,10,20,30,2,tail");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(1234.56), "1234.6");
        assert_eq!(fmt_f64(0.12345), "0.123");
    }
}
