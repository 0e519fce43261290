//! The four workloads and what they share: coordination parameters chosen
//! by one stated rule, and the threaded solve matrix behind the two
//! blocking-facade workloads.

pub mod enum_irregular;
pub mod optim_clique;
pub mod runtime_burst;
pub mod sim_cluster;

use std::time::Instant;

use yewpar::{Coordination, Metrics, SearchProblem, SearchStatus, Skeleton};

use crate::probes::{attribute, secs, timed, Spans, TimeShares};
use crate::report::{Report, COORDS};
use crate::stats::{median, percentile, ratio};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "enum_irregular",
    "optim_clique",
    "runtime_burst",
    "sim_cluster",
];

/// Workers per threaded search.  The benchmark is sized for a two-core
/// machine: one search never has more workers than cores.
pub const WORKERS: usize = 2;

/// The parameter rule: every parallel coordination should hand each worker
/// at least this many tasks, so that no run hinges on which worker draws
/// one large subtree (Depth-Bounded at cutoff 2 on Irregular is bimodal).
pub const TASKS_PER_WORKER: u64 = 64;

/// Ring size per worker for traced runs: large enough that the biggest
/// traced solve here drops nothing.
pub const TRACE_CAPACITY: usize = 1 << 18;

/// One run's command-line inputs.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Run one workload; the report holds the end-to-end metrics (untraced)
/// or the per-layer metrics (traced).
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut spans = Spans::new(args.trace);
    match args.workload.as_str() {
        "enum_irregular" => enum_irregular::run(args, &mut report, &mut spans),
        "optim_clique" => optim_clique::run(args, &mut report, &mut spans),
        "runtime_burst" => runtime_burst::run(args, &mut report, &mut spans),
        "sim_cluster" => sim_cluster::run(args, &mut report, &mut spans),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {NAMES:?}"
            ))
        }
    }
    if args.trace {
        eprintln!("{}", spans.summary());
    }
    Ok(report)
}

/// The smallest depth whose level holds at least `tasks` nodes (the depth
/// at which Depth-Bounded and Ordered stop spawning).
pub fn spawn_depth<P: SearchProblem>(problem: &P, tasks: u64) -> usize {
    let mut level = vec![problem.root()];
    let mut depth = 0;
    while (level.len() as u64) < tasks && !level.is_empty() {
        level = level.iter().flat_map(|n| problem.generator(n)).collect();
        depth += 1;
    }
    depth.max(1)
}

/// The five coordinations for a problem of `nodes` nodes on `workers`
/// workers, by the rule above: Depth-Bounded and Ordered spawn down to the
/// first level with `TASKS_PER_WORKER × workers` nodes, Budget offloads
/// after `nodes / (TASKS_PER_WORKER × workers)` backtracks, and
/// Stack-Stealing steals whole sibling chunks.
pub fn coordinations<P: SearchProblem>(
    problem: &P,
    workers: usize,
    nodes: u64,
) -> [Coordination; 5] {
    let tasks = TASKS_PER_WORKER * workers as u64;
    let depth = spawn_depth(problem, tasks);
    [
        Coordination::Sequential,
        Coordination::depth_bounded(depth),
        Coordination::stack_stealing_chunked(),
        Coordination::budget((nodes / tasks).max(1)),
        Coordination::ordered(depth),
    ]
}

/// A skeleton for `coordination`: one worker for Sequential, `workers`
/// otherwise, with the flight recorder on when `traced`.
pub fn skeleton(coordination: Coordination, workers: usize, traced: bool) -> Skeleton {
    let workers = if coordination.is_parallel() {
        workers
    } else {
        1
    };
    let skeleton = Skeleton::new(coordination).workers(workers);
    if traced {
        skeleton.trace_capacity(TRACE_CAPACITY)
    } else {
        skeleton
    }
}

/// How one pass of the matrix runs its solves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pass {
    /// Two workers, untraced: the end-to-end measurement.
    Timed,
    /// One worker per parallel coordination: the work-overhead probe.
    OneWorker,
    /// Two workers with the flight recorder on.
    Traced,
}

/// What one (instance, coordination) cell of a pass collected.
#[derive(Debug, Default, Clone)]
pub struct Cell {
    pub times: Vec<f64>,
    pub metrics: Option<Metrics>,
    pub shares: Vec<(f64, TimeShares)>,
    pub dropped: u64,
}

/// All solves of one pass: `cells[instance][coordination]`.
#[derive(Debug, Default)]
pub struct Matrix {
    pub cells: Vec<Vec<Cell>>,
}

impl Matrix {
    /// Sum over instances of each instance's median solve time for the
    /// coordination at `c` (an index into [`COORDS`]).
    pub fn solve_s(&self, c: usize) -> f64 {
        self.cells.iter().map(|row| median(&row[c].times)).sum()
    }

    /// Sum over instances of a count from the last solve's metrics.
    pub fn total(&self, c: usize, count: impl Fn(&Metrics) -> u64) -> f64 {
        self.cells
            .iter()
            .filter_map(|row| row[c].metrics.as_ref())
            .map(|m| count(m) as f64)
            .sum()
    }

    /// The end-to-end measurements of a timed pass.
    pub fn end_to_end(&self, setup_s: f64) -> EndToEnd {
        let latencies_ms = self.latencies_ms();
        EndToEnd {
            setup_s,
            solve_s: std::array::from_fn(|c| self.solve_s(c)),
            busy_s: latencies_ms.iter().sum::<f64>() / 1e3,
            latencies_ms,
        }
    }

    /// Every verified solve's time, in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let cells = self.cells.iter().flatten();
        cells
            .flat_map(|cell| cell.times.iter().map(|t| t * 1e3))
            .collect()
    }
}

/// Solve every instance with every coordination in each of `passes`,
/// interleaved and with the order rotated each cycle so slow drifts of the
/// machine spread evenly over all cells, until `seconds` have passed (at
/// least one whole cycle).  `solve` runs one search and says whether its
/// answer was right; `between` runs, untimed, after each cycle.  Returns
/// one matrix per pass.
pub fn run_matrix<I, const P: usize>(
    instances: &[(I, [Coordination; 5])],
    passes: [Pass; P],
    seconds: f64,
    report: &mut Report,
    spans: &mut Spans,
    solve: impl Fn(&Skeleton, &I) -> (bool, SearchStatus, Metrics),
    between: &mut dyn FnMut(),
) -> [Matrix; P] {
    let mut matrices: [Matrix; P] = std::array::from_fn(|_| Matrix {
        cells: vec![vec![Cell::default(); COORDS.len()]; instances.len()],
    });
    let span = spans.open("passes", None);
    let mut paused = 0.0;
    let start = Instant::now();
    let mut cycle = 0;
    while cycle == 0 || secs(start) - paused < seconds {
        for (i, (instance, coords)) in instances.iter().enumerate() {
            for k in 0..COORDS.len() * passes.len() {
                let slot = (k + cycle + i) % (COORDS.len() * passes.len());
                let (c, p) = (slot % COORDS.len(), slot / COORDS.len());
                let pass = passes[p];
                if pass == Pass::OneWorker && c == 0 {
                    continue;
                }
                let workers = if pass == Pass::OneWorker { 1 } else { WORKERS };
                let skel = skeleton(coords[c], workers, pass == Pass::Traced);
                let solve_span = spans.open(format!("solve.{pass:?}.{}", COORDS[c]), span);
                let outcome = timed(skel.config().workers, || solve(&skel, instance));
                spans.close(solve_span);
                let cell = &mut matrices[p].cells[i][c];
                let what = format!("{} instance {i} pass {pass:?}", COORDS[c]);
                let Some(((ok, status, metrics), t)) = outcome else {
                    report.fail(format!("{what}: panicked"));
                    continue;
                };
                if report.check(ok && status == SearchStatus::Complete, &what) {
                    cell.times.push(t);
                }
                if pass == Pass::Traced {
                    let records = skel.take_trace();
                    cell.shares.push((t, attribute(&records, metrics.workers)));
                    cell.dropped += skel.trace_dropped();
                }
                cell.metrics = Some(metrics);
            }
        }
        let pause = Instant::now();
        between();
        paused += secs(pause);
        cycle += 1;
    }
    spans.close(span);
    matrices
}

/// A workload's end-to-end measurements, in reference seconds.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub solve_s: [f64; 5],
    /// Every verified search's latency.
    pub latencies_ms: Vec<f64>,
    /// Time spent running the measured searches.
    pub busy_s: f64,
}

/// Set every end-to-end metric.
pub fn report_end_to_end(report: &mut Report, e: &EndToEnd) {
    report.set("setup_s", e.setup_s);
    for (c, name) in COORDS.iter().enumerate() {
        report.set(format!("solve_s.{name}"), e.solve_s[c]);
    }
    report.set("searches_per_s", e.latencies_ms.len() as f64 / e.busy_s);
    report.set("latency_ms.p50", percentile(&e.latencies_ms, 50.0));
    report.set("latency_ms.p99", percentile(&e.latencies_ms, 99.0));
}

/// The per-layer metrics the three threaded passes give: counts, work
/// overhead and inflation, and the flight recorder's time attribution.
pub fn report_threaded_layers(report: &mut Report, timed: &Matrix, one: &Matrix, traced: &Matrix) {
    let seq_s = timed.solve_s(0);
    let seq_nodes = timed.total(0, Metrics::nodes);
    for (c, name) in COORDS.iter().enumerate() {
        let nodes = timed.total(c, Metrics::nodes);
        report.set(format!("skeleton.nodes.{name}"), nodes);
        let updates = timed.total(c, |m| m.totals.incumbent_updates);
        report.set(format!("knowledge.incumbent_updates.{name}"), updates);
        let polls = timed.total(c, |m| m.totals.poll_checks);
        report.set(
            format!("lifecycle.polls_per_knode.{name}"),
            ratio(polls * 1e3, nodes),
        );
        report.set(
            format!("trace.overhead.{name}"),
            ratio(traced.solve_s(c), timed.solve_s(c)),
        );
    }
    let mut rtts = Vec::new();
    for (c, name) in COORDS.iter().enumerate().skip(1) {
        report.set(
            format!("skeleton.work_overhead.{name}"),
            ratio(one.solve_s(c), seq_s),
        );
        let nodes = timed.total(c, Metrics::nodes);
        report.set(
            format!("skeleton.work_inflation.{name}"),
            ratio(nodes, seq_nodes),
        );
        let cells = || timed.cells.iter().filter_map(|row| row[c].metrics.as_ref());
        let imbalance: Vec<f64> = cells().map(Metrics::imbalance).collect();
        report.set(format!("skeleton.imbalance.{name}"), median(&imbalance));
        report.set(
            format!("workpool.spawns.{name}"),
            timed.total(c, Metrics::spawns),
        );
        let locks = timed.total(c, |m| m.totals.lock_acquisitions);
        report.set(format!("workpool.lock_acquisitions.{name}"), locks);
        let steals = timed.total(c, |m| m.totals.steals);
        let failed = timed.total(c, |m| m.totals.failed_steals);
        report.set(
            format!("workpool.steal_success.{name}"),
            ratio(steals, steals + failed),
        );
        // Time-weighted mean of the per-solve shares.
        let shares: Vec<&(f64, TimeShares)> =
            traced.cells.iter().flat_map(|row| &row[c].shares).collect();
        let weight: f64 = shares.iter().map(|(t, _)| t).sum();
        let mean =
            |f: fn(&TimeShares) -> f64| ratio(shares.iter().map(|(t, s)| t * f(s)).sum(), weight);
        report.set(format!("trace.busy_frac.{name}"), mean(|s| s.busy));
        report.set(format!("trace.idle_frac.{name}"), mean(|s| s.idle));
        report.set(
            format!("trace.steal_wait_frac.{name}"),
            mean(|s| s.steal_wait),
        );
        rtts.extend(
            shares
                .iter()
                .flat_map(|(_, s)| s.steal_rtts.iter().map(|ns| ns / 1e3)),
        );
    }
    report.set("trace.steal_rtt_us.p50", median(&rtts));
    let dropped: u64 = traced.cells.iter().flatten().map(|cell| cell.dropped).sum();
    report.set("trace.dropped", dropped as f64);
    let ordered = COORDS.len() - 1;
    report.set(
        "ordered.priority_inversions",
        timed.total(ordered, |m| m.totals.priority_inversions),
    );
    report.set(
        "ordered.speculative_nodes",
        timed.total(ordered, |m| m.totals.speculative_nodes),
    );
}

/// The workpool probes, timed from the benchmark thread.
pub fn report_workpool_probes(report: &mut Report) {
    report.set("workpool.push_pop_ns", crate::probes::pool_push_pop_ns());
    report.set("workpool.steal_ns", crate::probes::pool_steal_ns());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{end_to_end, per_layer};

    fn names_in(line: &str) -> Vec<String> {
        let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
        metrics
            .split("\": {\"value\"")
            .filter_map(|part| part.rsplit('"').next())
            .filter(|name| name.starts_with(|c: char| c.is_ascii_alphanumeric()))
            .map(String::from)
            .collect()
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "one cycle of every workload: run with --release"
    )]
    fn every_workload_emits_its_declared_set_and_verifies_its_answers() {
        for workload in NAMES {
            for (trace, catalogue) in [(false, end_to_end()), (true, per_layer())] {
                let mut sets = Vec::new();
                for seed in [1, 2] {
                    let args = Args {
                        workload: workload.to_string(),
                        seed,
                        seconds: 1e-3,
                        trace,
                    };
                    let report = run(&args).expect("known workload");
                    assert!(
                        report.attempted > 0 && report.failed == 0,
                        "{workload} trace {trace}"
                    );
                    let line = report.finish(workload, trace).expect("declared set");
                    assert!(line.starts_with("{\"correct\": true"), "{line}");
                    sets.push(names_in(&line));
                }
                let expected: Vec<String> = catalogue.into_iter().map(|m| m.name).collect();
                assert_eq!(sets[0], expected, "{workload} trace {trace}");
                assert_eq!(sets[1], expected, "{workload} trace {trace}, second seed");
            }
        }
    }

    #[test]
    fn the_parameter_rule_gives_every_worker_enough_tasks() {
        let problem = enum_irregular::instance(1);
        let depth = spawn_depth(&problem, TASKS_PER_WORKER * WORKERS as u64);
        let level = |d| {
            let mut level = vec![yewpar::SearchProblem::root(&problem)];
            for _ in 0..d {
                level = level
                    .iter()
                    .flat_map(|n| yewpar::SearchProblem::generator(&problem, n))
                    .collect();
            }
            level.len() as u64
        };
        assert!(level(depth) >= TASKS_PER_WORKER * WORKERS as u64);
        assert!(level(depth - 1) < TASKS_PER_WORKER * WORKERS as u64);
    }
}
