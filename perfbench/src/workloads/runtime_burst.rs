//! `runtime_burst`: a closed loop of short searches through a `Runtime`
//! with the `FairShare` policy on two workers.
//!
//! One generator thread keeps two searches in flight and collects them in
//! submission order, reshuffling the pool on every pass through it.  The
//! searches come from a fixed seeded pool: every
//! pool instance runs once under each coordination, as an enumeration, a
//! maximisation and a satisfiable decision (whose short-circuit exercises
//! the cancellation path).  The `runtime` and `schedule` layers (dispatcher,
//! grants, re-planning, one driver thread per search) do most of their work
//! here and none in the other workloads.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use yewpar::monoid::Sum;
use yewpar::{
    Coordination, Decide, DecideOutcome, EnumOutcome, FairShare, Metrics, OptimOutcome, Optimise,
    Runtime, RuntimeConfig, SearchConfig, SearchHandle, SearchStatus,
};
use yewpar_apps::irregular::Irregular;

use super::{coordinations, report_end_to_end, Args, EndToEnd, WORKERS};
use crate::probes::{
    dfs_maximise, dfs_nodes, kernel_s, measure, median_secs, scaled, secs, SetupTimer, Spans,
};
use crate::report::{Report, COORDS};
use crate::stats::{median, percentile, ratio, SeedStream};

/// Irregular depth of every pool search: 49,550 nodes, about a
/// millisecond of work.
pub const DEPTH: usize = 12;
/// Distinct instances per search kind.
pub const REPLICAS: usize = 4;
/// Searches kept in flight by the generator.
pub const IN_FLIGHT: usize = 2;
/// A run's closed loop is cut into this many segments, each about as long
/// as one of the machine's speed phases; between segments, with no search
/// in flight, `KERNEL_REPS` calibration kernels and `SETUP_REPS` set-up
/// samples are timed.
const SEGMENTS: usize = 24;
const KERNEL_REPS: usize = 3;
const SETUP_REPS: usize = 2;
/// Traced passes drain the runtime's flight recorder this often (in
/// completed searches), so its bounded rings never overflow.
const DRAIN_EVERY: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Enumerate,
    Maximise,
    Decide,
}

/// One search of the pool and its reference answer.
#[derive(Debug, Clone)]
struct Search {
    problem: Irregular,
    kind: Kind,
    coord: usize,
    config: SearchConfig,
    /// Node count (enumeration) or optimum (maximisation); a decision must
    /// return a witness reaching the target.
    expected: u64,
}

/// The pool's instances for `seed`: `REPLICAS` per kind.
pub fn instances(seed: u64) -> Vec<Irregular> {
    let mut seeds = SeedStream::new(seed);
    (0..3 * REPLICAS)
        .map(|_| Irregular::new(DEPTH, seeds.irregular_seed()))
        .collect()
}

fn config(coordination: Coordination) -> SearchConfig {
    let mut config = SearchConfig::new(coordination);
    config.workers = if coordination.is_parallel() {
        WORKERS
    } else {
        1
    };
    config
}

fn runtime(traced: bool) -> Runtime {
    Runtime::with_policy(
        RuntimeConfig::default().workers(WORKERS).trace(traced),
        Box::new(FairShare),
    )
}

enum Pending {
    Enumerate(SearchHandle<EnumOutcome<Sum<u64>>>),
    Maximise(SearchHandle<OptimOutcome<(usize, u64), u64>>),
    Decide(SearchHandle<DecideOutcome<(usize, u64)>>),
}

fn submit(rt: &Runtime, s: &Search) -> Pending {
    let p = s.problem.clone();
    match s.kind {
        Kind::Enumerate => Pending::Enumerate(rt.enumerate(p, &s.config)),
        Kind::Maximise => Pending::Maximise(rt.maximise(p, &s.config)),
        Kind::Decide => Pending::Decide(rt.decide(p, &s.config)),
    }
}

/// Wait for a search; whether its answer is right, its status, metrics.
fn wait(pending: Pending, s: &Search) -> (bool, SearchStatus, Metrics) {
    match pending {
        Pending::Enumerate(h) => {
            let out = h.wait();
            (out.value.0 == s.expected, out.status, out.metrics)
        }
        Pending::Maximise(h) => {
            let out = h.wait();
            let ok = out.best.is_some_and(|(_, score)| score == s.expected);
            (ok, out.status, out.metrics)
        }
        Pending::Decide(h) => {
            let out = h.wait();
            let ok = out
                .witness
                .is_some_and(|w| s.problem.objective(&w) >= s.problem.target());
            (ok, out.status, out.metrics)
        }
    }
}

/// What one pass through the closed loop measured.
#[derive(Debug, Default)]
struct Burst {
    /// Submit → verified result, reference seconds, per coordination.
    latency: Vec<Vec<f64>>,
    metrics: Vec<Vec<Metrics>>,
    /// Latency minus queue wait minus search time, and queue wait, in µs.
    overhead_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    submit_us: Vec<f64>,
    completed: u64,
    /// Reference seconds the segments of this pass ran.
    busy_s: f64,
    grant_changes: u64,
    workers_preempted: u64,
    dropped: u64,
}

/// Run the closed loop for `seconds` in `SEGMENTS` segments, alternating
/// over the entries of `traced` (flight recorder off or on).  Each segment
/// starts a runtime, drains its searches and shuts the runtime down; then,
/// with none of the library's threads alive, calibration kernels are timed
/// and `between` runs, untimed.  A segment's times are scaled by the mean
/// of the kernel medians taken just before and just after it.
fn run_burst<const P: usize>(
    pool: &[Search],
    seeds: &mut SeedStream,
    traced: [bool; P],
    seconds: f64,
    report: &mut Report,
    spans: &mut Spans,
    between: &mut dyn FnMut(),
) -> [Burst; P] {
    let mut bursts: [Burst; P] = std::array::from_fn(|_| Burst {
        latency: vec![Vec::new(); COORDS.len()],
        metrics: vec![Vec::new(); COORDS.len()],
        ..Burst::default()
    });
    let kernel = || {
        let samples: Vec<f64> = (0..KERNEL_REPS).map(|_| kernel_s(WORKERS)).collect();
        median(&samples)
    };
    let mut order: Vec<usize> = (0..pool.len()).collect();
    let mut next = 0;
    let mut paused = 0.0;
    let mut kernel_before = kernel();
    let start = Instant::now();
    for segment in 0..SEGMENTS {
        let rt = runtime(traced[segment % P]);
        let burst = &mut bursts[segment % P];
        let span = spans.open(format!("segment.traced.{}", traced[segment % P]), None);
        let segment_start = Instant::now();
        let mut in_flight: VecDeque<(usize, Instant, Pending, Option<usize>)> = VecDeque::new();
        let mut latencies = Vec::new();
        loop {
            while in_flight.len() < IN_FLIGHT
                && secs(start) - paused < seconds * (segment + 1) as f64 / SEGMENTS as f64
            {
                if next % order.len() == 0 {
                    seeds.shuffle(&mut order);
                }
                let i = order[next % order.len()];
                next += 1;
                let search_span = spans.open(format!("search.{}", COORDS[pool[i].coord]), span);
                let submitted = Instant::now();
                let pending = submit(&rt, &pool[i]);
                burst.submit_us.push(secs(submitted) * 1e6);
                in_flight.push_back((i, submitted, pending, search_span));
            }
            let Some((i, submitted, pending, search_span)) = in_flight.pop_front() else {
                break;
            };
            let s = &pool[i];
            let outcome = catch_unwind(AssertUnwindSafe(|| wait(pending, s)));
            let latency = secs(submitted);
            spans.close(search_span);
            let what = format!("{:?} search {i} under {}", s.kind, COORDS[s.coord]);
            let Ok((ok, status, metrics)) = outcome else {
                report.fail(format!("{what}: panicked"));
                continue;
            };
            if report.check(ok && status == SearchStatus::Complete, &what) {
                burst.completed += 1;
                latencies.push((s.coord, latency));
                let queue = metrics.queue_wait.as_secs_f64();
                let inside = metrics.elapsed.as_secs_f64();
                burst.overhead_us.push((latency - queue - inside) * 1e6);
                burst.queue_wait_us.push(queue * 1e6);
                burst.metrics[s.coord].push(metrics);
            }
            if traced[segment % P] && burst.completed % DRAIN_EVERY as u64 == 0 {
                drop(rt.drain_trace());
            }
        }
        let segment_s = secs(segment_start);
        spans.close(span);
        let pause = Instant::now();
        let stats = rt.stats();
        burst.grant_changes += stats.grant_changes;
        burst.workers_preempted += stats.workers_preempted;
        burst.dropped += rt.trace_dropped();
        drop(rt);
        let kernel_after = kernel();
        let k = (kernel_before + kernel_after) / 2.0;
        kernel_before = kernel_after;
        burst.busy_s += scaled(segment_s, k);
        for (c, latency) in latencies {
            burst.latency[c].push(scaled(latency, k));
        }
        between();
        paused += secs(pause);
    }
    bursts
}

pub fn run(args: &Args, report: &mut Report, spans: &mut Spans) {
    let problems = instances(args.seed);
    // References, outside set-up, by the benchmark's own search; its time
    // over the pool is the hand-written baseline.
    let (mut dfs_s, mut dfs_total_nodes) = (0.0, 0);
    let mut pool = Vec::new();
    for (n, problem) in problems.iter().enumerate() {
        let kind = [Kind::Enumerate, Kind::Maximise, Kind::Decide][n / REPLICAS];
        let ((expected, nodes), t) = measure(1, || match kind {
            Kind::Enumerate => {
                let nodes = dfs_nodes(problem);
                (nodes, nodes)
            }
            Kind::Maximise => dfs_maximise(problem, None),
            Kind::Decide => dfs_maximise(problem, Some(&problem.target())),
        });
        dfs_s += t;
        dfs_total_nodes += nodes;
        if kind == Kind::Decide {
            report.check(
                expected >= problem.target(),
                format!("decision {n} is satisfiable"),
            );
        }
        let coords = coordinations(problem, WORKERS, nodes);
        for (coord, c) in coords.into_iter().enumerate() {
            pool.push(Search {
                problem: problem.clone(),
                kind,
                coord,
                config: config(c),
                expected,
            });
        }
    }
    // The submission order: the pool, reshuffled on every pass through it,
    // so that which searches share the workers varies within a run rather
    // than between seeds.
    let mut seeds = SeedStream::new(args.seed ^ 0x5EED);

    if !args.trace {
        // Set-up: generate the pool's instances and configurations and
        // start the runtime (its shutdown is not timed).
        let mut setup = SetupTimer::new(1);
        let mut sample = || {
            setup.sample(SETUP_REPS, || {
                let configs: Vec<SearchConfig> =
                    pool.iter().map(|s| config(s.config.coordination)).collect();
                (instances(args.seed), configs, runtime(false))
            })
        };
        let [burst] = run_burst(
            &pool,
            &mut seeds,
            [false],
            args.seconds,
            report,
            spans,
            &mut sample,
        );
        let e2e = EndToEnd {
            setup_s: setup.median(),
            solve_s: std::array::from_fn(|c| median(&burst.latency[c])),
            latencies_ms: burst.latency.iter().flatten().map(|t| t * 1e3).collect(),
            busy_s: burst.busy_s,
        };
        report_end_to_end(report, &e2e);
        return;
    }

    let [timed, traced] = run_burst(
        &pool,
        &mut seeds,
        [false, true],
        args.seconds,
        report,
        spans,
        &mut || (),
    );
    let per_search = |c: usize, f: &dyn Fn(&Metrics) -> u64| {
        let ms = &timed.metrics[c];
        ratio(ms.iter().map(|m| f(m) as f64).sum(), ms.len() as f64)
    };
    let seq_nodes = per_search(0, &Metrics::nodes);
    for (c, name) in COORDS.iter().enumerate() {
        let nodes = per_search(c, &Metrics::nodes);
        report.set(format!("skeleton.nodes.{name}"), nodes);
        report.set(
            format!("knowledge.incumbent_updates.{name}"),
            per_search(c, &|m| m.totals.incumbent_updates),
        );
        let polls = per_search(c, &|m| m.totals.poll_checks);
        report.set(
            format!("lifecycle.polls_per_knode.{name}"),
            ratio(polls * 1e3, nodes),
        );
        let overhead = ratio(median(&traced.latency[c]), median(&timed.latency[c]));
        report.set(format!("trace.overhead.{name}"), overhead);
        if c == 0 {
            continue;
        }
        report.set(
            format!("skeleton.work_inflation.{name}"),
            ratio(nodes, seq_nodes),
        );
        let imbalance: Vec<f64> = timed.metrics[c].iter().map(Metrics::imbalance).collect();
        report.set(format!("skeleton.imbalance.{name}"), median(&imbalance));
        report.set(
            format!("workpool.spawns.{name}"),
            per_search(c, &Metrics::spawns),
        );
        report.set(
            format!("workpool.lock_acquisitions.{name}"),
            per_search(c, &|m| m.totals.lock_acquisitions),
        );
        let steals = per_search(c, &|m| m.totals.steals);
        let failed = per_search(c, &|m| m.totals.failed_steals);
        report.set(
            format!("workpool.steal_success.{name}"),
            ratio(steals, steals + failed),
        );
    }
    let ordered = COORDS.len() - 1;
    report.set(
        "ordered.priority_inversions",
        per_search(ordered, &|m| m.totals.priority_inversions),
    );
    report.set(
        "ordered.speculative_nodes",
        per_search(ordered, &|m| m.totals.speculative_nodes),
    );
    for (name, values) in [
        ("overhead_us", &timed.overhead_us),
        ("queue_wait_us", &timed.queue_wait_us),
    ] {
        report.set(format!("runtime.{name}.p50"), percentile(values, 50.0));
        report.set(format!("runtime.{name}.p99"), percentile(values, 99.0));
    }
    report.set("runtime.submit_us.p50", median(&timed.submit_us));
    report.set("runtime.grant_changes", timed.grant_changes as f64);
    report.set("runtime.workers_preempted", timed.workers_preempted as f64);
    report.set("trace.dropped", traced.dropped as f64);
    super::report_workpool_probes(report);
    let span = spans.open("setup", None);
    report.set(
        "instances.gen_s",
        median_secs(100, 21, || instances(args.seed)),
    );
    spans.close(span);
    report.set("apps.baseline_s", dfs_s);
    report.set("apps.ns_per_node", dfs_s * 1e9 / dfs_total_nodes as f64);
}
