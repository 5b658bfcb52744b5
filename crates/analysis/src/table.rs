//! Minimal aligned-table printer for the experiment binaries. Every
//! `exp_*` binary prints the rows the paper's (hypothetical) evaluation
//! table would contain; this keeps the formatting consistent and
//! greppable.

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// An in-memory table with a header and uniform column alignment.
///
/// ```
/// use rr_analysis::Table;
///
/// let mut t = Table::new(vec!["n", "steps"]);
/// t.row(vec!["1024", "55"]);
/// t.row(vec!["65536", "135"]);
/// let out = t.render();
/// assert_eq!(out.lines().count(), 4); // header + rule + 2 rows
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    align: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers; the first column is
    /// left-aligned, the rest right-aligned (label + numbers — the common
    /// case). Use [`Table::with_alignment`] for full control.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        let align =
            (0..header.len()).map(|i| if i == 0 { Align::Left } else { Align::Right }).collect();
        Self { header, align, rows: Vec::new() }
    }

    /// Creates a table with explicit per-column alignment.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn with_alignment<S: Into<String>>(header: Vec<S>, align: Vec<Align>) -> Self {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert_eq!(header.len(), align.len());
        Self { header, align, rows: Vec::new() }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if the arity differs from the header's.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with two-space column separation and a dashed rule under
    /// the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut out = String::new();
            for i in 0..cols {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i] - cells[i].chars().count();
                match self.align[i] {
                    Align::Left => {
                        out.push_str(&cells[i]);
                        if i + 1 < cols {
                            out.push_str(&" ".repeat(pad));
                        }
                    }
                    Align::Right => {
                        out.push_str(&" ".repeat(pad));
                        out.push_str(&cells[i]);
                    }
                }
            }
            out
        };
        let mut lines = vec![fmt_row(&self.header)];
        lines.push(widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
        for row in &self.rows {
            lines.push(fmt_row(row));
        }
        lines.join("\n")
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a float with `digits` decimals, trimming to a compact form.
pub fn fnum(x: f64, digits: usize) -> String {
    if x.is_infinite() {
        return if x > 0.0 { "inf".into() } else { "-inf".into() };
    }
    format!("{x:.digits$}")
}

/// Formats a probability in scientific notation when small.
pub fn fprob(p: f64) -> String {
    if p == 0.0 {
        "0".into()
    } else if p < 1e-3 {
        format!("{p:.1e}")
    } else {
        format!("{p:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["n", "steps", "ratio"]);
        t.row(vec!["1024", "35", "3.50"]);
        t.row(vec!["1048576", "71", "3.55"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have equal display width per column boundary: the
        // last column is right-aligned so line lengths match.
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[0].starts_with("n"));
        assert!(lines[1].chars().all(|c| c == '-' || c == ' '));
    }

    #[test]
    fn first_column_left_rest_right() {
        let mut t = Table::new(vec!["algo", "x"]);
        t.row(vec!["ab", "1"]);
        t.row(vec!["longer", "22"]);
        let out = t.render();
        assert!(out.contains("ab    "), "left pad on label column:\n{out}");
        assert!(out.contains(" 1"), "right align numbers:\n{out}");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        Table::new(vec!["a", "b"]).row(vec!["1"]);
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1"]);
        assert_eq!(t.to_string(), t.render());
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(fnum(f64::INFINITY, 2), "inf");
        assert_eq!(fprob(0.0), "0");
        assert_eq!(fprob(0.5), "0.5000");
        assert!(fprob(1e-9).contains('e'));
    }

    #[test]
    fn custom_alignment() {
        let mut t = Table::with_alignment(vec!["x", "y"], vec![Align::Right, Align::Left]);
        t.row(vec!["1", "abc"]);
        let out = t.render();
        assert!(out.lines().count() == 3);
    }
}
