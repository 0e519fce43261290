//! `tracecat` — inspect, summarize and analyze flight-recorder traces.
//!
//! ```text
//! tracecat [--baseline-nodes N] [--workers-per-locality N] FILE.jsonl [FILE.jsonl …]
//! ```
//!
//! Each file must be a canonical JSONL trace (one event per line, as written
//! by `JsonlSink`).  For every file the tool prints the [`TraceSummary`] and
//! the search-anomaly analyzer's findings.
//!
//! * `--baseline-nodes N` — the sequential node count the work-inflation
//!   rule compares against (without it that rule stays silent);
//! * `--workers-per-locality N` — the contiguous-block locality topology
//!   of the traced run; enables the locality-imbalance rule (without it
//!   the trace carries no topology and that rule stays silent).
//!
//! Parsing is strict: a malformed line fails the whole run with a non-zero
//! exit and a `file:line: message` diagnostic, so CI catches exporter
//! regressions rather than silently analyzing a truncated trace.
//!
//! [`TraceSummary`]: yewpar::trace::analyze::TraceSummary

use std::process::ExitCode;

use yewpar::trace::analyze::{analyze, summarize, AnalyzeConfig};
use yewpar::trace::sink::read_jsonl;

fn usage() -> ExitCode {
    eprintln!(
        "usage: tracecat [--baseline-nodes N] [--workers-per-locality N] FILE.jsonl [FILE.jsonl ...]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_nodes: Option<u64> = None;
    let mut workers_per_locality: usize = 0;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline-nodes" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => baseline_nodes = Some(n),
                _ => return usage(),
            },
            "--workers-per-locality" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => workers_per_locality = n,
                _ => return usage(),
            },
            "--help" | "-h" => return usage(),
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        return usage();
    }

    let config = AnalyzeConfig {
        baseline_nodes,
        workers_per_locality,
        ..AnalyzeConfig::default()
    };
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Strict parse: any malformed line is a hard error, not a skip.
        let records = match read_jsonl(&text) {
            Ok(records) => records,
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{file}:");
        println!("{}", summarize(&records));
        let findings = analyze(&records, &config);
        for f in &findings {
            println!("finding [{}] {}", f.kind.name(), f.summary);
        }
        if findings.is_empty() {
            println!("no anomalies flagged");
        }
        println!();
    }
    ExitCode::SUCCESS
}
