//! Shared plumbing for the figure-regeneration binaries: text-table
//! formatting and the in-process sweep pipeline ([`sweep`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod sweep;

use std::fmt::Display;

/// Render a simple aligned text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let head: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:width$}", h, width = widths[i]))
        .collect();
    out.push_str(&head.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

/// Format a float with one decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a float with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Human-readable byte size (KB/MB/GB powers of two).
pub fn human_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{}GB", b >> 30)
    } else if b >= 1 << 20 {
        format!("{}MB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}KB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// Join any display values into row cells.
pub fn cells<T: Display>(vals: impl IntoIterator<Item = T>) -> Vec<String> {
    vals.into_iter().map(|v| v.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            "T",
            &["a", "bbbb"],
            &[vec!["xx".into(), "y".into()], vec!["1".into(), "22222".into()]],
        );
        assert!(t.contains("== T =="));
        assert!(t.contains("xx"));
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines.len() >= 5);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(4 << 10), "4KB");
        assert_eq!(human_bytes(512 << 20), "512MB");
        assert_eq!(human_bytes(4 << 30), "4GB");
    }
}
