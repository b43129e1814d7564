//! Plain-text table rendering for experiment output.

use std::fmt;

/// A fixed-width text table: header row plus data rows, rendered with
/// column-wise alignment. The bench harness uses it to print paper-style
/// tables (e.g. Table I) to stdout.
///
/// # Example
///
/// ```
/// use dcn_metrics::TextTable;
/// let mut t = TextTable::new(vec!["scheme".into(), "avg FCT (ms)".into()]);
/// t.add_row(vec!["SRPT".into(), "1.20".into()]);
/// t.add_row(vec!["fast BASRPT".into(), "2.10".into()]);
/// let s = t.to_string();
/// assert!(s.contains("SRPT"));
/// assert!(s.lines().count() >= 4); // header, rule, two rows
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the header's.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row has {} cells, table has {} columns",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        widths
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (cell, w) in cells.iter().zip(&widths) {
                if !first {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<w$}", w = *w)?;
                first = false;
            }
            writeln!(f)
        };
        render(f, &self.header)?;
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(rule))?;
        for row in &self.rows {
            render(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a".into(), "metric".into()]);
        t.add_row(vec!["longer-cell".into(), "1".into()]);
        t.add_row(vec!["x".into(), "22".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rendered lines share the same width of the widest row.
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("longer-cell"));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row has")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(vec!["a".into()]);
        t.add_row(vec!["1".into(), "2".into()]);
    }
}
