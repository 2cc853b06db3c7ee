//! # nm-bench — harness regenerating every table and figure of the paper
//!
//! One binary per experiment (see `src/bin/`):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1_params`   | Table I + Table II |
//! | `table3_hardware` | Table III |
//! | `fig7_stepwise`   | Fig. 7 (V1/V2/V3 vs cuBLAS, 3 GPUs) |
//! | `fig8_blocking`   | Fig. 8 (kernel size classes on shapes A–F) |
//! | `fig9_comparison` | Fig. 9 (100-point Llama dataset, 4 baselines) |
//! | `fig10_roofline`  | Fig. 10 (roofline on the NCU-locked A100) |
//! | `ablations`       | DESIGN.md ablation studies |
//!
//! plus criterion wall-clock benches of the real CPU implementation
//! (`benches/`).

#![warn(missing_docs)]

use std::fmt::Display;

/// Geometric mean of a non-empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let s: f64 = xs.iter().map(|x| x.ln()).sum();
    (s / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of an **unsorted** slice;
/// the latency-distribution helper `bench_serving` reports p50/p95/p99
/// with. Returns 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Minimal fixed-width table printer for harness output.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// New table with the given column headers.
    pub fn new<S: Display>(headers: &[S]) -> Self {
        Self {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Display>(&mut self, cells: &[S]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!("{:>w$}", c, w = widths[i]));
                if i + 1 < ncols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Format a speedup with two decimals and an `x`.
pub fn spd(x: f64) -> String {
    format!("{x:.2}x")
}

/// Whether each of the switches `known` was given; any other argument
/// prints `usage` and exits 2 before any work (`--ful` never runs).
pub fn switches<const K: usize>(usage: &str, known: [&str; K]) -> [bool; K] {
    let mut given = [false; K];
    for arg in std::env::args().skip(1) {
        let Some(i) = known.iter().position(|&k| k == arg) else {
            eprintln!("unknown argument `{arg}`\n{usage}");
            std::process::exit(2);
        };
        given[i] = true;
    }
    given
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_known() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_known() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["a", "long-header"]);
        t.row(&["1", "2"]);
        t.row(&["333", "4"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["1"]);
    }

    #[test]
    fn formatting() {
        assert_eq!(pct(0.875), "87.5%");
        assert_eq!(spd(1.5), "1.50x");
    }
}
