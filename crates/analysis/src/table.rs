//! Result tables and series, rendered as markdown/CSV for the experiment
//! harness.

use std::fmt::Write as _;

/// A simple markdown table builder used by the experiment harness to print
/// paper-style result tables.
///
/// # Examples
///
/// ```
/// use trix_analysis::Table;
///
/// let mut t = Table::new("Skew vs. D", &["D", "measured", "bound"]);
/// t.row(&["16", "10.1", "58.3"]);
/// let md = t.to_markdown();
/// assert!(md.contains("| D | measured | bound |"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity does not match the headers.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|s| (*s).to_owned()).collect());
    }

    /// Appends a row of formatted values.
    pub fn row_values(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Appends all rows of `other` (a shard of the same logical table,
    /// e.g. one scenario's slice of a parameter sweep).
    ///
    /// # Panics
    ///
    /// Panics if the headers differ — merging shards of different tables
    /// is always a bug in the sweep decomposition.
    pub fn merge(&mut self, other: Table) {
        assert_eq!(
            self.headers, other.headers,
            "cannot merge table shards with different headers"
        );
        self.rows.extend(other.rows);
    }

    /// Renders the table as github-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
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

    /// Renders the table as CSV (headers + rows, no title).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Formats a float with sensible precision for tables.
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_owned()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["1", "2"]);
        t.row_values(&["3".into(), "4".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("### T"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 3 | 4 |"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_rendering() {
        let mut t = Table::new("T", &["x", "y"]);
        t.row(&["1", "2"]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    fn merge_concatenates_shards_in_order() {
        let mut a = Table::new("T", &["x"]);
        a.row(&["1"]);
        let mut b = Table::new("T", &["x"]);
        b.row(&["2"]);
        b.row(&["3"]);
        a.merge(b);
        assert_eq!(
            a.rows(),
            &[vec!["1".to_owned()], vec!["2".into()], vec!["3".into()]]
        );
        assert_eq!(a.title(), "T");
        assert_eq!(a.headers(), &["x".to_owned()]);
    }

    #[test]
    #[should_panic(expected = "different headers")]
    fn merge_rejects_mismatched_headers() {
        let mut a = Table::new("T", &["x"]);
        a.merge(Table::new("T", &["y"]));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_wrong_arity() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["1"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1234.56), "1235");
        assert_eq!(fmt_f64(12.345), "12.35");
        assert_eq!(fmt_f64(0.12345), "0.1235");
    }
}
