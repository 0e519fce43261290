//! The CI performance gate (see `yewpar_bench::gate`).
//!
//! Recomputes the worst-case Irregular speedups on the deterministic
//! virtual cluster and compares them against the committed baseline:
//!
//! ```text
//! cargo run --release -p yewpar-bench --bin perfgate
//! ```
//!
//! Exits non-zero if any skeleton's measured worst-case speedup falls below
//! `baseline × TOLERANCE` (a >15% regression).  The gate always runs with
//! the flight recorder off — and additionally asserts *trace neutrality*:
//! re-running one instance per skeleton with `trace: true` must reproduce
//! the untraced schedule tick for tick, so enabling the recorder can never
//! invalidate the gated numbers.  Knobs:
//!
//! * `--write-baseline` — regenerate `BENCH_BASELINE.json` from the current
//!   engine instead of checking (run after a deliberate performance change,
//!   and commit the result);
//! * `YEWPAR_PERFGATE_INJECT=<factor>` — divide every measured speedup by
//!   `<factor>` before checking.  `YEWPAR_PERFGATE_INJECT=2` demonstrates
//!   that the gate really fails on a 2× slowdown without touching the
//!   engine.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::json;
use yewpar_bench::gate::{
    irregular_worst_speedups, serial_schedule_violations, trace_neutrality_violations, GateRow,
    TOLERANCE,
};

/// The Table 2 cluster shape the committed baseline was recorded on.
const LOCALITIES: usize = 8;
const WORKERS_PER_LOCALITY: usize = 15;

/// Locate `BENCH_BASELINE.json` next to the workspace root: the binary runs
/// from the workspace during CI (`cargo run -p yewpar-bench`), so the
/// manifest-dir two levels up is the repository root.
fn baseline_path() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root")
        .join("BENCH_BASELINE.json")
}

fn measure() -> Vec<GateRow> {
    let mut rows = irregular_worst_speedups(LOCALITIES, WORKERS_PER_LOCALITY);
    if let Ok(factor) = std::env::var("YEWPAR_PERFGATE_INJECT") {
        let factor: f64 = factor
            .parse()
            .expect("YEWPAR_PERFGATE_INJECT must be a number");
        assert!(factor > 0.0, "YEWPAR_PERFGATE_INJECT must be positive");
        eprintln!("perfgate: injecting a synthetic {factor}x slowdown (YEWPAR_PERFGATE_INJECT)");
        for row in &mut rows {
            row.worst_speedup /= factor;
        }
    }
    rows
}

fn write_baseline(path: &Path, rows: &[GateRow]) {
    let doc = json!({
        "experiment": "perfgate",
        "cluster": format!("{LOCALITIES}x{WORKERS_PER_LOCALITY}"),
        "tolerance": TOLERANCE,
        "rows": rows.iter().map(|r| json!({
            "skeleton": r.skeleton.clone(),
            "worst_speedup": r.worst_speedup,
        })).collect::<Vec<_>>(),
    });
    std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("perfgate: wrote baseline {}", path.display());
}

/// Extract `(skeleton, worst_speedup)` pairs from the baseline file.  The
/// file is written by `--write-baseline` below, so the layout is stable:
/// each row holds a `"skeleton": "<name>"` line followed by a
/// `"worst_speedup": <number>` line.  (The vendored serde_json shim is
/// write-only, hence this scanner instead of a parser.)
fn parse_baseline_rows(text: &str) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some(rest) = line.strip_prefix("\"skeleton\": ") {
            current = Some(rest.trim_matches('"').to_string());
        } else if let Some(rest) = line.strip_prefix("\"worst_speedup\": ") {
            if let Some(name) = current.take() {
                rows.push((name, rest.parse().expect("numeric worst_speedup")));
            }
        }
    }
    rows
}

fn main() -> ExitCode {
    let write = std::env::args().any(|a| a == "--write-baseline");
    let path = baseline_path();
    let measured = measure();

    if write {
        write_baseline(&path, &measured);
        return ExitCode::SUCCESS;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} (run `perfgate --write-baseline` once and commit it): {e}",
            path.display()
        )
    });
    let rows = parse_baseline_rows(&text);
    assert!(
        !rows.is_empty(),
        "{} holds no baseline rows",
        path.display()
    );

    let mut failed = false;
    println!(
        "perfgate: worst-case Irregular speedups on the {LOCALITIES}x{WORKERS_PER_LOCALITY} \
         virtual cluster (tolerance {TOLERANCE})"
    );
    for (skeleton, expected) in rows {
        let Some(got) = measured.iter().find(|m| m.skeleton == skeleton) else {
            println!("  {skeleton:>15}: MISSING from measured rows");
            failed = true;
            continue;
        };
        let floor = expected * TOLERANCE;
        let ok = got.worst_speedup >= floor;
        println!(
            "  {skeleton:>15}: measured {:>7.2} vs baseline {:>7.2} (floor {:>7.2}) {}",
            got.worst_speedup,
            expected,
            floor,
            if ok { "ok" } else { "REGRESSION" }
        );
        failed |= !ok;
    }

    // The traced-off numbers above are only trustworthy if turning the
    // recorder on costs zero virtual ticks — assert exact neutrality.
    let violations = trace_neutrality_violations(LOCALITIES, WORKERS_PER_LOCALITY);
    for v in &violations {
        println!("  trace-neutrality: {v}");
        failed = true;
    }
    if violations.is_empty() {
        println!("  trace-neutrality: ok (recording moved no schedule)");
    }

    // The baselines were recorded one search at a time; under the serial
    // Fifo default the multiplexed scheduler must reproduce that schedule
    // exactly (closed form, no lease ever renegotiated).
    let violations = serial_schedule_violations(WORKERS_PER_LOCALITY);
    for v in &violations {
        println!("  serial-schedule: {v}");
        failed = true;
    }
    if violations.is_empty() {
        println!("  serial-schedule: ok (Fifo matches the closed-form serial schedule)");
    }

    if failed {
        eprintln!(
            "perfgate: FAILED — a worst-case speedup regressed more than {:.0}% below the \
             committed baseline.  If the regression is intentional, regenerate with \
             `cargo run --release -p yewpar-bench --bin perfgate -- --write-baseline` \
             and commit BENCH_BASELINE.json with an explanation.",
            (1.0 - TOLERANCE) * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("perfgate: ok");
    ExitCode::SUCCESS
}
