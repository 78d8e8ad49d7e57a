//! Minimal table rendering (markdown to stdout, CSV to `results/`).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A rectangular results table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn row<I: IntoIterator<Item = String>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push(row);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as github-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n## {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Writes the CSV rendition to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }

    /// Prints the markdown rendition to stdout and writes the CSV to
    /// `results/<name>.csv`, reporting where it went.
    pub fn emit(&self, name: &str) {
        print!("{}", self.to_markdown());
        let path = format!("results/{name}.csv");
        match self.write_csv(&path) {
            Ok(()) => println!("\n(raw series written to {path})"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}

/// Formats a float with one decimal (the tables' precision).
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with three decimals (figure series precision).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_and_csv_shapes() {
        let mut t = Table::new("Demo", &["n", "value"]);
        t.row(["10".into(), f1(1.25)]);
        t.row(["20".into(), f1(2.0)]);
        let md = t.to_markdown();
        assert!(md.contains("## Demo"));
        assert!(md.contains("| 10 | 1.2 |") || md.contains("| 10 | 1.3 |"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("n,value"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_are_rejected() {
        let mut t = Table::new("Bad", &["a", "b"]);
        t.row(["only-one".to_string()]);
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let mut t = Table::new("Disk", &["x"]);
        t.row(["7".into()]);
        let dir = std::env::temp_dir().join("clr_experiments_test");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert!(back.contains('7'));
        let _ = std::fs::remove_dir_all(dir);
    }
}
