//! Minimal CSV rendering for experiment results (hand-rolled to keep the
//! dependency set at the workspace's approved list). Figures build their
//! tables with [`Csv`] and hand the text to the harness, which alone
//! writes `results/` (see [`crate::harness`]).

/// Format a float with 2 decimals for CSV cells.
#[must_use]
pub fn f2(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.2}")
    } else {
        "inf".to_string()
    }
}

/// Incremental CSV builder: a fixed header plus typed row emission, so
/// figures never hand-assemble cells or text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    /// Builder for rows under `header`, the file's comma-separated first
    /// line.
    #[must_use]
    pub fn new(header: &str) -> Self {
        Self {
            header: header.split(',').map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Start one row; cells are appended with [`Row::s`]/[`Row::f`]/
    /// [`Row::n`] and the row is committed when the builder drops.
    pub fn row(&mut self) -> Row<'_> {
        Row {
            csv: self,
            cells: Vec::new(),
        }
    }

    /// Append every row of `other` (e.g. a per-task builder from a
    /// parallel figure).
    ///
    /// # Panics
    /// Panics if the headers differ.
    pub fn append(&mut self, other: Csv) {
        assert_eq!(self.header, other.header, "merging mismatched CSVs");
        self.rows.extend(other.rows);
    }

    /// The file text: the comma-joined header, then one comma-joined line
    /// per row, each ending in `\n`.
    ///
    /// # Panics
    /// Panics if any row's width differs from the header's.
    #[must_use]
    pub fn render(&self) -> String {
        let mut text = self.header.join(",");
        text.push('\n');
        for (i, row) in self.rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                self.header.len(),
                "row {i} width mismatches header {:?}",
                self.header
            );
            text.push_str(&row.join(","));
            text.push('\n');
        }
        text
    }
}

/// One in-progress [`Csv`] row; committed on drop.
#[derive(Debug)]
pub struct Row<'a> {
    csv: &'a mut Csv,
    cells: Vec<String>,
}

impl Row<'_> {
    /// Append a string cell.
    pub fn s(mut self, cell: impl Into<String>) -> Self {
        self.cells.push(cell.into());
        self
    }

    /// Append a float cell, [`f2`]-formatted.
    pub fn f(self, v: f64) -> Self {
        self.s(f2(v))
    }

    /// Append an integer cell.
    pub fn n(self, v: usize) -> Self {
        self.s(v.to_string())
    }
}

impl Drop for Row<'_> {
    fn drop(&mut self) {
        self.csv.rows.push(std::mem::take(&mut self.cells));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut csv = Csv::new("a,b");
        csv.row().s("1").s("2");
        csv.row().f(1.23456).f(f64::INFINITY);
        assert_eq!(csv.render(), "a,b\n1,2\n1.23,inf\n");
    }

    #[test]
    fn appended_builders_render_in_order() {
        let mut csv = Csv::new("a,b,c");
        csv.row().s("x").f(1.23456).n(7);
        let mut other = Csv::new("a,b,c");
        other.row().s("y").f(f64::INFINITY).n(0);
        csv.append(other);
        assert_eq!(csv.render(), "a,b,c\nx,1.23,7\ny,inf,0\n");
    }

    #[test]
    #[should_panic(expected = "width mismatches header")]
    fn builder_rejects_ragged_rows() {
        let mut csv = Csv::new("a,b");
        csv.row().s("only-one");
        let _ = csv.render();
    }

    #[test]
    fn an_empty_table_renders_its_header() {
        assert_eq!(Csv::new("a").render(), "a\n");
    }
}
