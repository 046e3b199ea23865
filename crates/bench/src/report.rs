//! Plain-text table rendering for the `repro` binary.

/// Renders an aligned table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Formats a float with three decimals (the paper's precision).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a signed delta with three decimals.
pub fn d3(x: f64) -> String {
    format!("{x:+.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let out = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.000".into()],
                vec!["longer".into(), "2.5".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.000"));
    }

    #[test]
    fn float_formats() {
        assert_eq!(f3(0.12), "0.120");
        assert_eq!(d3(0.25), "+0.250");
        assert_eq!(d3(-0.25), "-0.250");
    }
}
