//! Plain-text table and CSV emitters for the experiment binaries.

/// A simple fixed-width text table with a CSV dump, used by every
//  experiment binary so the output is both human-readable and greppable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        TextTable {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as there are headers).
    ///
    /// # Panics
    ///
    /// Panics when the cell count differs from the header count.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Renders the table as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (header row + data rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the text rendering followed by the CSV rendering.
    pub fn print(&self) {
        println!("{}", self.to_text());
        println!("--- CSV ---\n{}", self.to_csv());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_text_and_csv() {
        let mut t = TextTable::new("Demo", &["model", "batch", "speedup"]);
        t.add_row(vec!["DLRM(1)".into(), "1".into(), "6.41".into()]);
        t.add_row(vec!["DLRM(4)".into(), "128".into(), "0.67".into()]);
        let text = t.to_text();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("DLRM(1)"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("model,batch,speedup"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new("Demo", &["a", "b"]);
        t.add_row(vec!["only one".into()]);
    }
}
