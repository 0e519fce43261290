//! Shared harness utilities for the benchmark binaries that regenerate the
//! paper's tables and figures: `table1`, `table2` and `fig4` (each writes
//! its JSON report under `results/`), plus `perfgate` and `tracecat`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gate;

use std::time::Instant;

/// Run a closure `reps` times and return the mean runtime in seconds of the
/// result-producing runs (the first run's result is returned).
pub fn time_mean<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    assert!(reps >= 1);
    let mut first = None;
    let mut total = 0.0;
    for _ in 0..reps {
        let start = Instant::now();
        let r = f();
        total += start.elapsed().as_secs_f64();
        first.get_or_insert(r);
    }
    (first.expect("reps >= 1"), total / reps as f64)
}

/// Geometric mean of a slice of positive numbers (0.0 for an empty slice).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Percentage slowdown of `measured` relative to `baseline`
/// (positive = slower than the baseline, as in the paper's Table 1).
pub fn slowdown_pct(baseline: f64, measured: f64) -> f64 {
    if baseline <= 0.0 {
        return 0.0;
    }
    (measured / baseline - 1.0) * 100.0
}

/// Pretty seconds for table output.
pub fn fmt_secs(secs: f64) -> String {
    if secs < 0.001 {
        format!("{:.1}µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{secs:.2}s")
    }
}

/// Format a virtual-time makespan (simulator ticks) in mega-ticks.
pub fn fmt_ticks(ticks: u64) -> String {
    format!("{:.2}Mt", ticks as f64 / 1e6)
}

/// Simple fixed-width table printer used by all harness binaries.
pub struct TableWriter {
    widths: Vec<usize>,
}

impl TableWriter {
    /// A table with the given column widths.
    pub fn new(widths: &[usize]) -> Self {
        TableWriter {
            widths: widths.to_vec(),
        }
    }

    /// Render one row.
    pub fn row(&self, cells: &[String]) -> String {
        cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    }

    /// Render a separator line.
    pub fn separator(&self) -> String {
        self.widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    }
}

/// Write `value` as pretty-printed JSON to `results/<name>` and print the
/// path.  The table on stdout is the harness's result, so a report that
/// cannot be written is skipped rather than failing the run.
pub fn write_report(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(name);
        if std::fs::write(&path, serde_json::to_string_pretty(value).unwrap()).is_ok() {
            println!("(wrote {})", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_of_identical_values_is_the_value() {
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn geometric_mean_is_between_min_and_max() {
        let g = geometric_mean(&[1.0, 4.0]);
        assert!(g > 1.0 && g < 4.0);
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_percentages() {
        assert!((slowdown_pct(1.0, 1.1) - 10.0).abs() < 1e-9);
        assert!((slowdown_pct(2.0, 1.0) + 50.0).abs() < 1e-9);
        assert_eq!(slowdown_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(0.0000005), "0.5µs");
        assert_eq!(fmt_secs(0.25), "250.00ms");
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_ticks(2_500_000), "2.50Mt");
    }

    #[test]
    fn table_writer_alignment() {
        let t = TableWriter::new(&[5, 3]);
        assert_eq!(t.row(&["ab".into(), "c".into()]), "   ab    c");
        assert_eq!(t.separator(), "-----  ---");
    }

    #[test]
    fn timing_helpers_return_results() {
        let (v, mean) = time_mean(3, || 7);
        assert_eq!(v, 7);
        assert!(mean >= 0.0);
    }
}
