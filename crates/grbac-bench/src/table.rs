//! Minimal aligned-table rendering for the harness binaries.

/// A simple text table with a title and aligned columns.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|&h| h.to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded or truncated to the header width).
    pub fn row(&mut self, cells: &[String]) {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:<width$}", h, width = widths[i]))
            .collect();
        out.push_str(&header_line.join("  "));
        out.push('\n');
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&rule.join("  "));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect();
            out.push_str(line.join("  ").trim_end());
            out.push('\n');
        }
        out
    }
}

/// Prints `tables` to stdout: rendered one after another, or with
/// `json` as one JSON document.
pub fn print(tables: &[Table], json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(tables).expect("tables serialize")
        );
    } else {
        for table in tables {
            println!("{}", table.render());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["short".into(), "1".into()]);
        t.row(&["a_longer_name".into(), "22".into()]);
        let rendered = t.render();
        assert!(rendered.starts_with("## demo\n"));
        assert!(rendered.contains("name           value"));
        assert!(rendered.contains("a_longer_name  22"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("x", &["a", "b", "c"]);
        t.row(&["1".into()]);
        assert_eq!(t.rows[0].len(), 3);
    }
}
