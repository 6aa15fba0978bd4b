//! Minimal plain-text table formatting for the `repro` binary.

/// Render rows of cells as an aligned table with a header rule.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width must match header");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:width$}", cell, width = widths[i]));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    let rule_len = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(rule_len));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(|s| s.as_str()).collect(), &widths));
    }
    out
}

/// Format a float with 3 decimal places.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a float as a percentage with 1 decimal place.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Format virtual seconds as microseconds with 1 decimal place.
pub fn us(v: f64) -> String {
    format!("{:.1}", v * 1e6)
}

/// Format a ratio as `N.NNx`.
pub fn speedup(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["a", "long-header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width for the rule row coverage.
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[0].contains("long-header"));
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(speedup(2.2), "2.20x");
        assert_eq!(us(0.0000123456), "12.3");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        let _ = render_table(&["a", "b"], &[vec!["x".into()]]);
    }
}
