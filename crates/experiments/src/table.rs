//! Minimal ASCII table / CSV rendering for experiment reports.

/// A simple column-aligned table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Render as an aligned ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", c, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|s| esc(s))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|s| esc(s)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format seconds with one decimal.
pub(crate) fn secs(d: geometa_sim::time::SimDuration) -> String {
    format!("{:.1}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-column"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["wide-cell".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("a          long-column"));
        assert!(s.lines().count() >= 5);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("x", &["c1", "c2"]);
        t.row(vec!["a,b".into(), "q\"q".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"q\"\"q\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
