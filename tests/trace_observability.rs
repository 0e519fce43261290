//! Flight-recorder observability, end-to-end across the workspace: a
//! drained trace must *reconstruct* the search's metrics exactly (the
//! recorder is a superset of the counters, not an approximation of them);
//! ring overflow must be reported, never silent; the exporters must
//! round-trip; the runtime's control-plane and gauge events must appear;
//! and the search-anomaly analyzer must flag the PR 6 steal strip-mining
//! pathology on a live *threaded* trace and a recorded *simulated*
//! reconstruction alike, while the default blind-random remote stealing
//! on the 8×15 virtual cluster shows neither it nor a locality imbalance.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::ThreadId;
use std::time::Duration;

use proptest::prelude::*;
use yewpar::monoid::Sum;
use yewpar::trace::analyze::{analyze, summarize, AnalyzeConfig, FindingKind};
use yewpar::trace::sink::{read_jsonl, write_trace_file, ChromeTraceSink, JsonlSink};
use yewpar::trace::{TraceEvent, TraceRecord};
use yewpar::{
    Coordination, Enumerate, Runtime, RuntimeConfig, SearchConfig, SearchProblem, Skeleton,
};
use yewpar_apps::irregular::Irregular;
use yewpar_sim::{simulate_enumerate, SimConfig};

/// The counters a trace must reproduce: run-task deltas summed from
/// `TaskEnd`, steal counters counted from the steal events, and the depth
/// high-water mark.
#[derive(Debug, Default, PartialEq, Eq)]
struct Reconstructed {
    nodes: u64,
    prunes: u64,
    backtracks: u64,
    spawns: u64,
    batch_pushes: u64,
    poll_checks: u64,
    max_depth: u64,
    steals: u64,
    failed_steals: u64,
    starts: u64,
    ends: u64,
}

fn reconstruct(records: &[TraceRecord]) -> Reconstructed {
    let mut r = Reconstructed::default();
    for record in records {
        match record.event {
            TraceEvent::TaskStart { .. } => r.starts += 1,
            TraceEvent::TaskEnd {
                nodes,
                prunes,
                backtracks,
                spawns,
                batch_pushes,
                poll_checks,
                max_depth,
            } => {
                r.ends += 1;
                r.nodes += nodes;
                r.prunes += prunes;
                r.backtracks += backtracks;
                r.spawns += spawns;
                r.batch_pushes += batch_pushes;
                r.poll_checks += poll_checks;
                r.max_depth = r.max_depth.max(max_depth);
            }
            TraceEvent::StealHit { .. } => r.steals += 1,
            TraceEvent::StealMiss { .. } => r.failed_steals += 1,
            _ => {}
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole property: over random trees, coordinations and worker
    /// counts, summing a drained trace's `TaskEnd` deltas (and counting its
    /// steal events) reproduces the aggregated `WorkerMetrics` exactly.
    /// (Ordered is excluded: its speculation-discard rewrites committed
    /// totals after the fact, which the per-task deltas deliberately keep.)
    #[test]
    fn a_drained_trace_reconstructs_the_worker_metrics(
        depth in 6usize..9,
        seed in 1u64..1000,
        workers_sel in 0usize..3,
        coord_sel in 0usize..4,
    ) {
        let workers = [1usize, 2, 4][workers_sel];
        let coord = [
            Coordination::depth_bounded(2),
            Coordination::stack_stealing(),
            Coordination::stack_stealing_chunked(),
            Coordination::budget(64),
        ][coord_sel];
        let p = Irregular::new(depth, seed);
        let skel = Skeleton::new(coord)
            .workers(workers)
            .trace(true)
            .trace_capacity(1 << 18);
        let out = skel.enumerate(&p);
        prop_assert_eq!(
            skel.trace_dropped(), 0,
            "precondition: the ring must not have overflowed"
        );
        let records = skel.take_trace();
        let got = reconstruct(&records);
        let t = &out.metrics.totals;
        let label = format!("{coord} workers={workers} depth={depth} seed={seed}");
        prop_assert_eq!(got.starts, got.ends, "unbalanced task boundaries: {}", &label);
        prop_assert_eq!(got.nodes, t.nodes, "nodes: {}", &label);
        prop_assert_eq!(got.prunes, t.prunes, "prunes: {}", &label);
        prop_assert_eq!(got.backtracks, t.backtracks, "backtracks: {}", &label);
        prop_assert_eq!(got.spawns, t.spawns, "spawns: {}", &label);
        prop_assert_eq!(got.batch_pushes, t.batch_pushes, "batch_pushes: {}", &label);
        prop_assert_eq!(got.poll_checks, t.poll_checks, "poll_checks: {}", &label);
        prop_assert_eq!(got.max_depth, t.max_depth, "max_depth: {}", &label);
        prop_assert_eq!(got.steals, t.steals, "steals: {}", &label);
        prop_assert_eq!(got.failed_steals, t.failed_steals, "failed_steals: {}", &label);
    }
}

#[test]
fn ring_overflow_is_reported_never_silent() {
    let p = Irregular::new(11, 1);
    let skel = Skeleton::new(Coordination::depth_bounded(3))
        .workers(4)
        .trace(true)
        .trace_capacity(8);
    let _ = skel.enumerate(&p);
    let records = skel.take_trace();
    assert!(!records.is_empty());
    // The capacity is per worker ring, so 4 workers bound the drain at 4×8.
    assert!(
        records.len() <= 8 * 4,
        "keep-first overflow must cap the rings, drained {}",
        records.len()
    );
    assert!(
        skel.trace_dropped() > 0,
        "8-record rings cannot hold hundreds of depth-≤3 tasks; the drop counter must say so"
    );
}

/// A single wide root frontier over tiny binary bushes: worker 0's bottom
/// frame holds the depth-1 children for most of the run, so with one-child
/// splits it stays the dominant steal victim — the strip-mining shape.
struct WideRoot {
    arms: usize,
    bush_depth: u8,
}

impl SearchProblem for WideRoot {
    /// `None` is the root; `Some(b)` a bush node with `b` binary levels
    /// left below it.
    type Node = Option<u8>;
    type Gen<'a> = std::vec::IntoIter<Option<u8>>;
    fn root(&self) -> Option<u8> {
        None
    }
    fn generator(&self, node: &Option<u8>) -> Self::Gen<'_> {
        match *node {
            None => vec![Some(self.bush_depth); self.arms].into_iter(),
            Some(b) if b > 0 => vec![Some(b - 1); 2].into_iter(),
            Some(_) => vec![].into_iter(),
        }
    }
}

impl Enumerate for WideRoot {
    type Value = Sum<u64>;
    fn value(&self, _n: &Option<u8>) -> Sum<u64> {
        Sum(1)
    }
}

/// Bushes the thief must have begun before worker 0 runs at full speed:
/// the analyzer's strip-mining rule needs `AnalyzeConfig::min_steals` (8)
/// steal hits, and every bush the thief begins is one it stole.
const THIEF_BUSHES: u64 = 8;

/// Most yields worker 0 spends waiting for the thief.  The thief needs a
/// few per bush, so the bound is generous; it exists so that a thief that
/// never gets a core cannot keep worker 0 yielding on every node of the
/// tree — the run then ends at full speed and the assertion reports it.
const MAX_YIELDS: u64 = 50_000;

/// [`WideRoot`] with worker 0 slowed down until the thief is under way.
/// Worker 0 answers steal requests only between its own steps, so it must
/// not be parked on a latch the thief opens: it yields once per generator
/// call instead, while the thief has begun fewer than [`THIEF_BUSHES`]
/// bushes.  Without this, a descheduled thief can wake to find worker 0
/// has walked the whole tree alone.
struct PacedWideRoot {
    tree: WideRoot,
    /// Worker 0's thread: the facade runs worker 0 inline on the caller's.
    home: ThreadId,
    /// Bushes begun on another thread, i.e. by the thief.
    thief_bushes: AtomicU64,
    /// Yields worker 0 has spent.
    yields: AtomicU64,
}

impl PacedWideRoot {
    fn new(tree: WideRoot) -> Self {
        PacedWideRoot {
            tree,
            home: std::thread::current().id(),
            thief_bushes: AtomicU64::new(0),
            yields: AtomicU64::new(0),
        }
    }
}

impl SearchProblem for PacedWideRoot {
    type Node = Option<u8>;
    type Gen<'a> = std::vec::IntoIter<Option<u8>>;
    fn root(&self) -> Option<u8> {
        self.tree.root()
    }
    fn generator(&self, node: &Option<u8>) -> Self::Gen<'_> {
        // ordering: test-only pacing counters; a stale read only changes
        // how many times worker 0 yields.
        if std::thread::current().id() != self.home {
            if *node == Some(self.tree.bush_depth) {
                self.thief_bushes.fetch_add(1, Ordering::Relaxed);
            }
        } else if self.thief_bushes.load(Ordering::Relaxed) < THIEF_BUSHES
            && self.yields.fetch_add(1, Ordering::Relaxed) < MAX_YIELDS
        {
            std::thread::yield_now();
        }
        self.tree.generator(node)
    }
}

impl Enumerate for PacedWideRoot {
    type Value = Sum<u64>;
    fn value(&self, _n: &Option<u8>) -> Sum<u64> {
        Sum(1)
    }
}

/// The simulated strip-mining reconstruction, recorded as JSONL: stack
/// stealing with one-child splits on 8 localities × 1 worker over
/// `WideRoot { arms: 60, bush_depth: 6 }`, with *remote* victims chosen by
/// the shallowest advertised frontier.  The simulator no longer has that
/// victim rule (remote steals are blind-random), so the trace it produced
/// is kept as a fixture.
const SIM_STRIP_MINING: &str = include_str!("fixtures/sim_strip_mining.jsonl");

#[test]
fn strip_mining_fires_on_threaded_and_simulated_traces_alike() {
    let sim_trace = read_jsonl(SIM_STRIP_MINING).expect("the fixture is canonical JSONL");
    let sim_findings = analyze(&sim_trace, &AnalyzeConfig::default());
    assert!(
        sim_findings
            .iter()
            .any(|f| f.kind == FindingKind::StealStripMining),
        "simulated strip-mining reconstruction must be flagged; findings: {sim_findings:?}"
    );

    // Bushes of 2^11−1 nodes keep the threaded run alive for milliseconds —
    // long enough for the thief to cycle through dozens of real steals once
    // it is under way, which the pacing waits for.
    let p = PacedWideRoot::new(WideRoot {
        arms: 60,
        bush_depth: 10,
    });

    // Threaded: two workers, one-child splits.  The lone thief keeps
    // returning to worker 0's 60-wide root frame, so the victim histogram
    // concentrates just like the simulated pathology.
    let skel = Skeleton::new(Coordination::stack_stealing())
        .workers(2)
        .trace(true);
    let out = skel.enumerate(&p);
    assert_eq!(
        out.value.0,
        yewpar::node::subtree_size(&p, &p.root()),
        "the run counts the whole tree"
    );
    let records = skel.take_trace();
    let findings = analyze(&records, &AnalyzeConfig::default());
    assert!(
        findings
            .iter()
            .any(|f| f.kind == FindingKind::StealStripMining),
        "threaded trace must agree with the simulated one; findings: {findings:?}\n{}",
        summarize(&records)
    );
}

/// The converse of the strip-mining test: remote victims are chosen
/// blind-random, so chunked stack stealing over the 8×15 virtual cluster
/// concentrates steals on no victim and loads no locality unevenly.
#[test]
fn default_remote_stealing_shows_no_strip_mining_or_locality_imbalance() {
    let p = Irregular::new(12, 1);
    let baseline_nodes =
        simulate_enumerate(&p, &SimConfig::new(Coordination::Sequential, 1, 1)).nodes;
    let mut cfg = SimConfig::new(Coordination::stack_stealing_chunked(), 8, 15);
    cfg.trace = true;
    let out = simulate_enumerate(&p, &cfg);
    assert_eq!(
        out.nodes, baseline_nodes,
        "enumeration expands every node once"
    );
    let findings = analyze(
        &out.trace,
        &AnalyzeConfig {
            baseline_nodes: Some(baseline_nodes),
            workers_per_locality: 15,
            ..AnalyzeConfig::default()
        },
    );
    for kind in [
        FindingKind::StealStripMining,
        FindingKind::LocalityImbalance,
    ] {
        assert!(
            findings.iter().all(|f| f.kind != kind),
            "blind-random remote stealing must not show {kind:?}; findings: {findings:?}\n{}",
            summarize(&out.trace)
        );
    }
}

#[test]
fn runtime_trace_records_the_search_lifecycle_and_gauges() {
    let runtime = Runtime::new(RuntimeConfig::default().workers(2).trace(true));
    let mut cfg = SearchConfig::new(Coordination::depth_bounded(2));
    cfg.workers = 2;
    cfg.deadline = Some(Duration::from_millis(40));
    // 1 447 550 nodes under a 40 ms deadline: a debug build is cut by the
    // deadline, a release build may finish first.  Either way the search
    // passes through the lifecycle checked below, so no status is asserted.
    let out = runtime.enumerate(Irregular::new(16, 1), &cfg).wait();
    let id = out.metrics.search_id;
    // `wait()` resolves on result delivery, a beat *before* the dispatcher
    // records `SearchFinished`, reclaims the lease and ends its round with a
    // gauge snapshot — drain until the control plane catches up rather
    // than racing it.
    let finished_and_gauged = |records: &[TraceRecord]| {
        records
            .iter()
            .position(|r| r.event == TraceEvent::SearchFinished { search_id: id })
            .is_some_and(|at| {
                records[at..]
                    .iter()
                    .any(|r| matches!(r.event, TraceEvent::RuntimeGauge { .. }))
            })
    };
    let mut records = runtime.drain_trace();
    let started = std::time::Instant::now();
    while !finished_and_gauged(&records) {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "dispatcher never recorded SearchFinished and a gauge after it for {id}"
        );
        std::thread::sleep(Duration::from_millis(1));
        records.extend(runtime.drain_trace());
    }

    let lifecycle = |records: &[TraceRecord], want: &str| {
        records
            .iter()
            .filter(|r| match r.event {
                TraceEvent::SearchQueued { search_id } => want == "queued" && search_id == id,
                TraceEvent::SearchGranted { search_id, .. } => want == "granted" && search_id == id,
                TraceEvent::SearchFinished { search_id } => want == "finished" && search_id == id,
                _ => false,
            })
            .count()
    };
    assert_eq!(
        lifecycle(&records, "queued"),
        1,
        "one SearchQueued for {id}"
    );
    assert_eq!(
        lifecycle(&records, "granted"),
        1,
        "one SearchGranted for {id}"
    );
    assert_eq!(
        lifecycle(&records, "finished"),
        1,
        "one SearchFinished for {id}"
    );
    let gauges = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::RuntimeGauge { .. }))
        .count();
    assert!(
        gauges >= 2,
        "the dispatcher snapshots the gauges after the grant and after the finish, got {gauges}"
    );
    // Drained means drained: a second drain only sees newer events, and
    // this runtime is idle now.
    assert!(runtime
        .drain_trace()
        .iter()
        .all(|r| matches!(r.event, TraceEvent::RuntimeGauge { .. })));
}

#[test]
fn exported_traces_round_trip_and_malformed_lines_fail_loudly() {
    // A virtual-tick simulator trace and a nanosecond threaded one: the
    // exporters must round-trip the records of both engines.
    let mut cfg = SimConfig::new(Coordination::depth_bounded(1), 2, 2);
    cfg.trace = true;
    let sim = simulate_enumerate(
        &WideRoot {
            arms: 8,
            bush_depth: 2,
        },
        &cfg,
    );
    let skel = Skeleton::new(Coordination::stack_stealing_chunked())
        .workers(4)
        .trace(true);
    skel.enumerate(&Irregular::new(12, 1));
    let traces = [("sim", sim.trace), ("threaded", skel.take_trace())];

    let dir = std::env::temp_dir().join(format!("yewpar_trace_rt_{}", std::process::id()));
    for (name, trace) in &traces {
        assert!(!trace.is_empty(), "{name}: empty trace");
        let jsonl = write_trace_file(&dir, name, &JsonlSink, trace).unwrap();
        let text = std::fs::read_to_string(&jsonl).unwrap();
        assert_eq!(
            &read_jsonl(&text).unwrap(),
            trace,
            "{name}: lossless round-trip"
        );

        // The Chrome exporter shares the stem but not the extension, so
        // both files coexist; the output must at least be one JSON array.
        let chrome = write_trace_file(&dir, name, &ChromeTraceSink, trace).unwrap();
        assert_ne!(jsonl, chrome);
        let ctext = std::fs::read_to_string(&chrome).unwrap();
        assert!(ctext.trim_start().starts_with('['), "{name}");
        assert!(ctext.trim_end().ends_with(']'), "{name}");

        // Strictness: corrupt one line and the parser must name it.
        let mut corrupted: Vec<&str> = text.lines().collect();
        corrupted[1] = "{\"ts\":0,\"worker\":0,\"event\":\"no_such_event\"}";
        let err = read_jsonl(&corrupted.join("\n")).unwrap_err();
        assert_eq!(
            err.line, 2,
            "{name}: the diagnostic must point at the bad line"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
