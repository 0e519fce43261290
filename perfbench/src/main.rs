//! The repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `README.md`), checks every answer, and prints as
//! its last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`.

mod probes;
mod report;
mod stats;
mod workloads;

use std::process::ExitCode;

use workloads::Args;

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: {} seed {} for {}s, trace {}, {} workers per search, {parallelism} cores available",
        args.workload, args.seed, args.seconds, args.trace, workloads::WORKERS
    );
    match workloads::run(&args).and_then(|report| report.finish(&args.workload, args.trace)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload sim_cluster --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim_cluster", 3, 10.0, true)
        );
        assert!(args("--workload sim_cluster --seed 3 --seconds 10").is_err());
        assert!(args("--workload x --seed -1 --seconds 10 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --trace 2").is_err());
    }
}
