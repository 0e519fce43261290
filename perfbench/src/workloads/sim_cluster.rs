//! `sim_cluster`: the simulator running each coordination on a virtual
//! cluster of 8 localities × 15 workers.
//!
//! Without it the `sim` layer, the second engine, goes unmeasured.  Virtual
//! time is deterministic, so makespans repeat exactly; the wall-clock time
//! to simulate is what a user waits for.

use yewpar::{Coordination, SearchStatus, Skeleton};
use yewpar_apps::irregular::Irregular;
use yewpar_sim::{simulate_enumerate, SimConfig};

use super::{coordinations, report_end_to_end, Args, EndToEnd};
use crate::probes::{attribute, dfs_nodes, measure, median_secs, secs, timed, SetupTimer, Spans};
use crate::report::{Report, COORDS};
use crate::stats::{median, ratio, SeedStream};

/// Irregular tree depth: 115,206 nodes.
pub const DEPTH: usize = 13;
/// The virtual cluster.
pub const LOCALITIES: usize = 8;
pub const WORKERS_PER_LOCALITY: usize = 15;
/// Set-up samples taken after each measurement cycle, and set-ups per
/// sample (one set-up takes about a hundred nanoseconds).
const SETUP_REPS: usize = 2;
const SETUP_BATCH: usize = 2048;

/// The instance for `seed`.
pub fn instance(seed: u64) -> Irregular {
    Irregular::new(DEPTH, SeedStream::new(seed).irregular_seed())
}

/// Sequential runs on one simulated worker (the speed-up base); the
/// parallel coordinations on the whole cluster.
fn sim_config(coordination: Coordination, traced: bool) -> SimConfig {
    let mut config = if coordination.is_parallel() {
        SimConfig::new(coordination, LOCALITIES, WORKERS_PER_LOCALITY)
    } else {
        SimConfig::new(coordination, 1, 1)
    };
    config.trace = traced;
    config
}

/// Per coordination: wall times, and the last outcome's counters.
#[derive(Default, Clone)]
struct Cell {
    times: Vec<f64>,
    outcome: Option<yewpar_sim::SimOutcome<yewpar::monoid::Sum<u64>>>,
}

/// Simulate every coordination with tracing off and on as `traced` lists,
/// interleaved and rotated each cycle, until `seconds` have passed (at
/// least one cycle); `between` runs, untimed, after each cycle.  Returns
/// the cells for each entry of `traced`.
/// What every simulation of a run simulates, and the count it must return.
struct Target {
    problem: Irregular,
    coords: [Coordination; 5],
    expected: u64,
}

fn run_passes<const P: usize>(
    target: &Target,
    traced: [bool; P],
    seconds: f64,
    report: &mut Report,
    spans: &mut Spans,
    between: &mut dyn FnMut(),
) -> [Vec<Cell>; P] {
    let mut cells: [Vec<Cell>; P] = std::array::from_fn(|_| vec![Cell::default(); COORDS.len()]);
    let span = spans.open("passes", None);
    let mut paused = 0.0;
    let start = std::time::Instant::now();
    let mut cycle = 0;
    while cycle == 0 || secs(start) - paused < seconds {
        for k in 0..COORDS.len() * P {
            let slot = (k + cycle) % (COORDS.len() * P);
            let (c, p) = (slot % COORDS.len(), slot / COORDS.len());
            let config = sim_config(target.coords[c], traced[p]);
            let sim_span = spans.open(format!("simulate.{}.{}", traced[p], COORDS[c]), span);
            let outcome = timed(1, || simulate_enumerate(&target.problem, &config));
            spans.close(sim_span);
            let what = format!("simulated {} traced {}", COORDS[c], traced[p]);
            let Some((outcome, t)) = outcome else {
                report.fail(format!("{what}: panicked"));
                continue;
            };
            let cell = &mut cells[p][c];
            // Virtual time must repeat exactly from one simulation to the next.
            let same = cell
                .outcome
                .as_ref()
                .is_none_or(|o| o.makespan == outcome.makespan);
            let ok = outcome.result.0 == target.expected
                && outcome.status == SearchStatus::Complete
                && same;
            if report.check(ok, &what) {
                cell.times.push(t);
            }
            cell.outcome = Some(outcome);
        }
        let pause = std::time::Instant::now();
        between();
        paused += secs(pause);
        cycle += 1;
    }
    spans.close(span);
    cells
}

pub fn run(args: &Args, report: &mut Report, spans: &mut Spans) {
    let problem = instance(args.seed);
    // The reference, outside set-up: the threaded Sequential result, which
    // must itself equal the plain traversal's count.
    let (dfs, dfs_s) = measure(1, || dfs_nodes(&problem));
    let threaded = Skeleton::new(Coordination::Sequential)
        .enumerate(&problem)
        .value
        .0;
    report.check(threaded == dfs, "threaded Sequential reference");
    let coords = coordinations(&problem, LOCALITIES * WORKERS_PER_LOCALITY, threaded);
    let target = Target {
        problem,
        coords,
        expected: threaded,
    };

    if !args.trace {
        // Set-up: generate the instance and configure its five simulations.
        let mut setup = SetupTimer::new(SETUP_BATCH);
        let mut sample = || {
            setup.sample(SETUP_REPS, || {
                (instance(args.seed), coords.map(|c| sim_config(c, false)))
            })
        };
        let [cells] = run_passes(&target, [false], args.seconds, report, spans, &mut sample);
        let latencies_ms: Vec<f64> = cells
            .iter()
            .flat_map(|c| c.times.iter().map(|t| t * 1e3))
            .collect();
        let e2e = EndToEnd {
            setup_s: setup.median(),
            solve_s: std::array::from_fn(|c| median(&cells[c].times)),
            busy_s: latencies_ms.iter().sum::<f64>() / 1e3,
            latencies_ms,
        };
        report_end_to_end(report, &e2e);
        return;
    }

    let [cells, traced] = run_passes(
        &target,
        [false, true],
        args.seconds,
        report,
        spans,
        &mut || (),
    );
    let outcome = |c: usize| cells[c].outcome.as_ref();
    let seq_makespan = outcome(0).map_or(0, |o| o.makespan) as f64;
    let seq_nodes = outcome(0).map_or(0, |o| o.nodes) as f64;
    for (c, name) in COORDS.iter().enumerate() {
        let Some(o) = outcome(c) else { continue };
        let wall = median(&cells[c].times);
        report.set(format!("sim.makespan.{name}"), o.makespan as f64);
        report.set(
            format!("sim.knodes_per_s.{name}"),
            ratio(o.nodes as f64 / 1e3, wall),
        );
        report.set(format!("skeleton.nodes.{name}"), o.nodes as f64);
        report.set(
            format!("lifecycle.polls_per_knode.{name}"),
            ratio(o.poll_checks as f64 * 1e3, o.nodes as f64),
        );
        report.set(
            format!("trace.overhead.{name}"),
            ratio(median(&traced[c].times), wall),
        );
        if c == 0 {
            continue;
        }
        report.set(
            format!("sim.virtual_speedup.{name}"),
            o.speedup_vs(seq_makespan as u64),
        );
        report.set(
            format!("skeleton.work_inflation.{name}"),
            ratio(o.nodes as f64, seq_nodes),
        );
        report.set(format!("workpool.spawns.{name}"), o.spawns as f64);
        report.set(
            format!("workpool.lock_acquisitions.{name}"),
            o.lock_acquisitions as f64,
        );
        let records = traced[c]
            .outcome
            .as_ref()
            .map(|o| o.trace.as_slice())
            .unwrap_or_default();
        let summary = yewpar::trace::analyze::summarize(records);
        let (hits, misses) = (summary.steal_hits as f64, summary.steal_misses as f64);
        report.set(
            format!("workpool.steal_success.{name}"),
            ratio(hits, hits + misses),
        );
        report.set(format!("skeleton.imbalance.{name}"), summary.busy_imbalance);
        let shares = attribute(records, o.workers);
        report.set(format!("trace.busy_frac.{name}"), shares.busy);
        report.set(format!("trace.idle_frac.{name}"), shares.idle);
        report.set(format!("trace.steal_wait_frac.{name}"), shares.steal_wait);
    }
    let ordered = outcome(COORDS.len() - 1);
    report.set(
        "ordered.priority_inversions",
        ordered.map_or(0, |o| o.priority_inversions) as f64,
    );
    report.set(
        "ordered.speculative_nodes",
        ordered.map_or(0, |o| o.speculative_nodes) as f64,
    );
    // Simulated traces are unbounded vectors: nothing can be dropped.
    report.set("trace.dropped", 0.0);
    super::report_workpool_probes(report);
    let span = spans.open("setup", None);
    report.set(
        "instances.gen_s",
        median_secs(1000, 21, || instance(args.seed)),
    );
    spans.close(span);
    report.set("apps.baseline_s", dfs_s);
    report.set("apps.ns_per_node", dfs_s * 1e9 / dfs as f64);
}
