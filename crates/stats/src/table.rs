//! Plain-text table and CSV rendering for the experiment harness.
//!
//! Every figure and table `bh-bench` renders prints its results both as an
//! aligned text table (for reading in a terminal) and as CSV (for plotting),
//! using the small renderer defined here — no external dependency needed.

use std::fmt::Write as _;

/// A simple column-aligned table with a header row.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row length differs from the header length.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as an aligned plain-text block.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<width$}", width = widths[i]);
            }
            out.push('\n');
        };
        render_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV (RFC-4180-style quoting for cells containing
    /// commas, quotes or newlines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let render = |out: &mut String, cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        render(&mut out, &self.header);
        for row in &self.rows {
            render(&mut out, row);
        }
        out
    }
}

/// Formats a float with 3 decimal places, the convention used in result rows.
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float as a percentage with one decimal place.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_counts() {
        let mut t = Table::new(["mechanism", "speedup"]);
        assert!(t.is_empty());
        t.push_row(["PARA+BH", "1.846"]);
        t.push_row(["Graphene+BH", "1.2"]);
        assert_eq!(t.len(), 2);
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("mechanism"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns are aligned: "speedup" starts at the same offset in each row.
        let col = lines[0].find("speedup").unwrap();
        assert_eq!(&lines[2][col..col + 5], "1.846");
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn mismatched_row_length_panics() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new(["name", "note"]);
        t.push_row(["plain", "ok"]);
        t.push_row(["comma,inside", "quote\"inside"]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,note");
        assert_eq!(lines[1], "plain,ok");
        assert_eq!(lines[2], "\"comma,inside\",\"quote\"\"inside\"");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt3(1.23456), "1.235");
        assert_eq!(fmt_pct(0.901), "90.1%");
    }
}
