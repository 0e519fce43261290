//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! `catalogue_matches_benchmark_json` test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Display;

/// Coordination names, in the order every table uses.
pub const COORDS: [&str; 5] = ["seq", "depthbounded", "stacksteal", "budget", "ordered"];
/// The parallel coordinations (ratios against `seq` exist only for these).
pub const PARALLEL: [&str; 4] = ["depthbounded", "stacksteal", "budget", "ordered"];

/// One metric: name, unit, and which direction is better.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

fn metric(name: impl Into<String>, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric {
        name: name.into(),
        unit,
        higher_is_better,
    }
}

fn each(out: &mut Vec<Metric>, prefix: &str, coords: &[&str], unit: &'static str, higher: bool) {
    for c in coords {
        out.push(metric(format!("{prefix}.{c}"), unit, higher));
    }
}

/// The end-to-end metrics: every workload reports all of them untraced.
pub fn end_to_end() -> Vec<Metric> {
    let mut out = vec![metric("setup_s", "s", false)];
    each(&mut out, "solve_s", &COORDS, "s", false);
    out.push(metric("searches_per_s", "1/s", true));
    out.push(metric("latency_ms.p50", "ms", false));
    out.push(metric("latency_ms.p99", "ms", false));
    out
}

/// The per-layer metrics: every workload reports all of them traced, with 0
/// for a layer it does not exercise (see [`measures`]).
pub fn per_layer() -> Vec<Metric> {
    let mut out = vec![
        metric("instances.gen_s", "s", false),
        metric("apps.ns_per_node", "ns", false),
        metric("apps.baseline_s", "s", false),
        metric("skeleton.tax", "ratio", false),
    ];
    each(
        &mut out,
        "skeleton.work_overhead",
        &PARALLEL,
        "ratio",
        false,
    );
    each(&mut out, "skeleton.nodes", &COORDS, "count", false);
    each(
        &mut out,
        "skeleton.work_inflation",
        &PARALLEL,
        "ratio",
        false,
    );
    each(&mut out, "skeleton.imbalance", &PARALLEL, "ratio", false);
    out.push(metric("workpool.push_pop_ns", "ns", false));
    out.push(metric("workpool.steal_ns", "ns", false));
    each(&mut out, "workpool.spawns", &PARALLEL, "count", false);
    each(
        &mut out,
        "workpool.lock_acquisitions",
        &PARALLEL,
        "count",
        false,
    );
    each(&mut out, "workpool.steal_success", &PARALLEL, "ratio", true);
    each(
        &mut out,
        "knowledge.incumbent_updates",
        &COORDS,
        "count",
        false,
    );
    each(
        &mut out,
        "lifecycle.polls_per_knode",
        &COORDS,
        "1/knode",
        false,
    );
    out.push(metric("ordered.priority_inversions", "count", false));
    out.push(metric("ordered.speculative_nodes", "count", false));
    for p in ["p50", "p99"] {
        out.push(metric(format!("runtime.overhead_us.{p}"), "us", false));
    }
    for p in ["p50", "p99"] {
        out.push(metric(format!("runtime.queue_wait_us.{p}"), "us", false));
    }
    out.push(metric("runtime.submit_us.p50", "us", false));
    out.push(metric("runtime.grant_changes", "count", false));
    out.push(metric("runtime.workers_preempted", "count", false));
    each(&mut out, "sim.makespan", &COORDS, "ticks", false);
    each(&mut out, "sim.virtual_speedup", &PARALLEL, "ratio", true);
    each(&mut out, "sim.knodes_per_s", &COORDS, "knode/s", true);
    each(&mut out, "trace.busy_frac", &PARALLEL, "ratio", true);
    each(&mut out, "trace.idle_frac", &PARALLEL, "ratio", false);
    each(&mut out, "trace.steal_wait_frac", &PARALLEL, "ratio", false);
    out.push(metric("trace.steal_rtt_us.p50", "us", false));
    each(&mut out, "trace.overhead", &COORDS, "ratio", false);
    out.push(metric("trace.dropped", "count", false));
    out
}

/// Whether `workload` measures the per-layer metric `name`.  The rest of
/// the catalogue is reported as 0: that layer does no work there.
pub fn measures(workload: &str, name: &str) -> bool {
    let group = |prefix: &str| name.starts_with(prefix);
    let threaded = !group("runtime.") && !group("sim.");
    match workload {
        "enum_irregular" | "optim_clique" => threaded,
        // The runtime-wide trace interleaves concurrent searches on shared
        // worker ids, so busy/idle/steal time is not attributable per
        // search; one-worker passes and the skeleton tax would measure the
        // facade, not the burst.
        "runtime_burst" => {
            !group("sim.")
                && !group("skeleton.work_overhead")
                && !group("skeleton.tax")
                && !group("trace.busy_frac")
                && !group("trace.idle_frac")
                && !group("trace.steal_wait_frac")
                && name != "trace.steal_rtt_us.p50"
        }
        // The simulator has no facade overhead, incumbent counter or
        // wall-clock steal round-trip to measure.
        "sim_cluster" => {
            !group("runtime.")
                && !group("skeleton.tax")
                && !group("skeleton.work_overhead")
                && !group("knowledge.")
                && name != "trace.steal_rtt_us.p50"
        }
        _ => false,
    }
}

/// Operation counts, measured values and the run's verdict.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Count one operation; a wrong answer counts as failed and is logged.
    pub fn check(&mut self, ok: bool, what: impl Display) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}");
        }
        ok
    }

    /// Count one operation that panicked or never produced an answer.
    pub fn fail(&mut self, what: impl Display) {
        self.check(false, what);
    }

    /// Check the measured set against the catalogue, zero-fill the layers
    /// `workload` does not exercise, and render the result line.
    pub fn finish(mut self, workload: &str, trace: bool) -> Result<String, String> {
        let catalogue = if trace { per_layer() } else { end_to_end() };
        for name in self.values.keys() {
            let declared =
                catalogue.iter().any(|m| &m.name == name) && (!trace || measures(workload, name));
            if !declared {
                return Err(format!("{workload} set undeclared metric {name}"));
            }
        }
        for m in &catalogue {
            let expected = !trace || measures(workload, &m.name);
            match self.values.get(&m.name) {
                None if expected => return Err(format!("{workload} did not measure {}", m.name)),
                None => {
                    self.values.insert(m.name.clone(), 0.0);
                }
                Some(v) if !v.is_finite() => return Err(format!("{} is {v}", m.name)),
                Some(_) => {}
            }
        }
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, self.values[&m.name], m.unit
                )
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_unique_and_within_limits() {
        let e2e = end_to_end();
        let layer = per_layer();
        assert!(e2e.len() <= 16, "{} end-to-end metrics", e2e.len());
        assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
        let mut all: Vec<&str> = e2e.iter().chain(&layer).map(|m| m.name.as_str()).collect();
        assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
        let total = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), total, "duplicate metric names");
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let section = &json[start..];
            let section = &section[..section.find(']').expect("list end")];
            section
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name end")].to_string())
                .collect()
        };
        let names = |ms: &[Metric]| ms.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        let (e2e, layer) = (end_to_end(), per_layer());
        assert_eq!(listed("end_to_end"), names(&e2e));
        assert_eq!(listed("per_layer"), names(&layer));
        assert_eq!(listed("workloads"), crate::workloads::NAMES);
        for m in e2e.iter().chain(&layer) {
            let entry = &json[json
                .find(&format!("\"name\": \"{}\"", m.name))
                .expect("listed")..];
            let entry = &entry[..entry.find('}').expect("entry end")];
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert!(
                entry.contains(&format!("\"unit\": \"{}\"", m.unit)),
                "{entry}"
            );
            assert!(
                entry.contains(&format!("\"better\": \"{better}\"")),
                "{entry}"
            );
        }
    }

    #[test]
    fn a_wrong_answer_is_counted_as_failed() {
        let mut report = Report::default();
        assert!(report.check(42 == 42, "right"));
        assert!(!report.check(41 == 42, "deliberately wrong"));
        report.fail("panicked");
        assert_eq!((report.attempted, report.failed), (3, 2));
        for m in end_to_end() {
            report.set(m.name, 1.0);
        }
        let line = report
            .finish("enum_irregular", false)
            .expect("complete set");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 2"));
    }

    #[test]
    fn incomplete_or_undeclared_sets_are_refused() {
        let mut report = Report::default();
        report.set("setup_s", 1.0);
        assert!(report.finish("enum_irregular", false).is_err());
        let mut report = Report::default();
        report.set("sim.makespan.seq", 1.0);
        assert!(report.finish("enum_irregular", true).is_err());
    }
}
