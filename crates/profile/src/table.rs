//! Aligned-text and CSV tables for benchmark output.

use std::fmt;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Renders as comma-separated values (headers first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        writeln!(f, "# {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (w, c) in widths.iter().zip(cells) {
                if !first {
                    write!(f, "  ")?;
                }
                write!(f, "{c:>w$}", w = w)?;
                first = false;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for r in &self.rows {
            line(f, r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Table {
        /// Number of data rows.
        pub(crate) fn len(&self) -> usize {
            self.rows.len()
        }

        /// Whether the table has no data rows.
        pub(crate) fn is_empty(&self) -> bool {
            self.rows.is_empty()
        }
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1.5".into()]);
        t.row(&["longer".into(), "2".into()]);
        let s = format!("{t}");
        assert!(s.contains("# demo"));
        assert!(s.contains("name"));
        assert!(s.lines().count() >= 5);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic]
    fn ragged_row_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only one".into()]);
    }
}
