//! Plain-text table rendering for experiment reports.

use std::fmt::Write as _;

/// A simple aligned text table.
///
/// ```
/// use p5_experiments::report::TextTable;
///
/// let mut t = TextTable::new(vec!["bench".into(), "IPC".into()]);
/// t.row(vec!["cpu_int".into(), "1.14".into()]);
/// let s = t.render();
/// assert!(s.contains("cpu_int"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: Vec<String>) -> TextTable {
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows
    /// extend the column count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut TextTable {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let columns = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; columns];
        let all_rows = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }

        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String]| {
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map_or("", String::as_str);
                if i + 1 == widths.len() {
                    let _ = write!(out, "{cell}");
                } else {
                    let _ = write!(out, "{cell:<width$}  ");
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(rule));
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Formats a float with 3 decimals (the paper's IPC precision is 2–3).
#[must_use]
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 2 decimals.
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a value with its 95% confidence half-width as `value ±ci95`
/// when the half-width is nonzero (sampled plans), or as the plain
/// value when it is zero — detailed plans are exact and their rendering
/// must stay byte-identical to what it was before intervals existed.
#[must_use]
pub fn f3_ci(x: f64, ci95: f64) -> String {
    if ci95 > 0.0 {
        format!("{} ±{}", f3(x), f3(ci95))
    } else {
        f3(x)
    }
}

/// Two-decimal variant of [`f3_ci`], for cycle-count tables.
#[must_use]
pub fn f2_ci(x: f64, ci95: f64) -> String {
    if ci95 > 0.0 {
        format!("{} ±{}", f2(x), f2(ci95))
    } else {
        f2(x)
    }
}

/// Formats a ratio as `1.23x`.
#[must_use]
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a fraction as a signed percentage, e.g. `+23.7%`.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["name".into(), "value".into()]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // Header, rule, 2 rows.
        assert_eq!(lines.len(), 4);
        // The value column starts at the same offset in both data rows.
        let off2 = lines[2].find('1').unwrap();
        let off3 = lines[3].find('2').unwrap();
        assert_eq!(off2, off3);
    }

    #[test]
    fn pads_short_rows() {
        let mut t = TextTable::new(vec!["a".into(), "b".into(), "c".into()]);
        t.row(vec!["x".into()]);
        let s = t.render();
        assert!(s.contains('x'));
    }

    #[test]
    fn len_and_is_empty() {
        let mut t = TextTable::new(vec!["a".into()]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(ratio(2.5), "2.50x");
        assert_eq!(pct(0.237), "+23.7%");
        assert_eq!(pct(-0.132), "-13.2%");
    }

    #[test]
    fn ci_formatters_collapse_to_exact_on_zero_halfwidth() {
        assert_eq!(f3_ci(1.23456, 0.0), "1.235");
        assert_eq!(f3_ci(1.23456, 0.0123), "1.235 ±0.012");
        assert_eq!(f2_ci(1860.0, 0.0), "1860.00");
        assert_eq!(f2_ci(1860.0, 12.345), "1860.00 ±12.35");
    }
}
