//! The anytime-search acceptance matrix, through the persistent [`Runtime`]:
//! a search submitted with a 10 ms deadline on a multi-second tree returns
//! `DeadlineExceeded` with a non-empty partial incumbent and drained
//! termination counters across all five coordinations at 1/4/8 workers;
//! `handle.cancel()` from another thread does the same with `Cancelled`;
//! and the progress stream reports incumbents, heartbeats and the final
//! status.
//!
//! [`Runtime`]: yewpar::Runtime

use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{Latch, OpenAtExpansion, ParkAtExpansion};

use yewpar::{Coordination, ProgressEvent, Runtime, RuntimeConfig, SearchConfig, SearchStatus};

/// A deterministic irregular tree far too large to finish: fan-out
/// `state % 4 + 1` up to depth 64 (≫ 10^20 nodes), objective
/// `state % 1000`.  Any full search takes (much) longer than seconds, so
/// only the lifecycle interruption under test can end a run.
#[derive(Clone)]
struct Endless;

impl yewpar::SearchProblem for Endless {
    type Node = (u32, u64);
    type Gen<'a> = std::vec::IntoIter<(u32, u64)>;
    fn root(&self) -> (u32, u64) {
        (0, 1)
    }
    fn generator(&self, node: &(u32, u64)) -> Self::Gen<'_> {
        let (depth, seed) = *node;
        if depth >= 64 {
            return vec![].into_iter();
        }
        let fanout = (seed % 4) as usize + 1;
        (0..fanout)
            .map(|i| {
                (
                    depth + 1,
                    seed.wrapping_mul(6364136223846793005)
                        .wrapping_add(i as u64),
                )
            })
            .collect::<Vec<_>>()
            .into_iter()
    }
}

impl yewpar::Optimise for Endless {
    type Score = u64;
    fn objective(&self, node: &(u32, u64)) -> u64 {
        node.1 % 1000
    }
}

fn every_coordination() -> [Coordination; 5] {
    [
        Coordination::Sequential,
        Coordination::depth_bounded(3),
        Coordination::stack_stealing_chunked(),
        Coordination::budget(100),
        Coordination::ordered(3),
    ]
}

fn config(coordination: Coordination, workers: usize) -> SearchConfig {
    SearchConfig {
        coordination,
        workers,
        ..SearchConfig::default()
    }
}

/// Each search parks at its first expansion for one whole budget (see
/// [`ParkAtExpansion`]): the root is scored first, and the deadline expires
/// while the worker is parked, however the threads are scheduled.
#[test]
fn ten_ms_deadline_returns_partial_incumbent_across_the_whole_matrix() {
    let runtime = Runtime::new(RuntimeConfig::default().workers(8));
    let budget = Duration::from_millis(10);
    for coordination in every_coordination() {
        for workers in [1usize, 4, 8] {
            let mut cfg = config(coordination, workers);
            cfg.deadline = Some(budget);
            let out = runtime
                .maximise(ParkAtExpansion::new(Endless, 1, budget), &cfg)
                .wait();
            let label = format!("{coordination} workers={workers}");
            assert_eq!(out.status, SearchStatus::DeadlineExceeded, "{label}");
            assert!(
                out.try_node().is_some(),
                "{label}: a 10 ms run must have committed at least the root"
            );
            assert!(*out.try_score().unwrap() <= 999, "{label}");
            assert_eq!(
                out.metrics.outstanding_tasks, 0,
                "{label}: termination counter not drained"
            );
        }
    }
}

/// The canceller waits for the search's first expansion (see
/// [`OpenAtExpansion`]), so it cancels a running search whose root is
/// already scored, however the threads are scheduled.
#[test]
fn cross_thread_cancel_resolves_the_whole_matrix() {
    let runtime = Runtime::new(RuntimeConfig::default().workers(8));
    for coordination in every_coordination() {
        for workers in [1usize, 4, 8] {
            let latch = Arc::new(Latch::default());
            let problem = OpenAtExpansion::new(Endless, Arc::clone(&latch));
            let handle = runtime.maximise(problem, &config(coordination, workers));
            assert!(!handle.is_finished());
            let token = handle.cancel_token();
            let canceller = std::thread::spawn(move || {
                latch.wait();
                token.cancel();
            });
            let out = handle.wait();
            canceller.join().unwrap();
            let label = format!("{coordination} workers={workers}");
            assert_eq!(out.status, SearchStatus::Cancelled, "{label}");
            assert!(
                out.try_node().is_some(),
                "{label}: a cancelled run must keep its partial incumbent"
            );
            assert_eq!(out.metrics.outstanding_tasks, 0, "{label}");
        }
    }
}

#[test]
fn handle_cancel_method_stops_a_running_search() {
    let runtime = Runtime::new(RuntimeConfig::default().workers(4));
    let mut handle = runtime.maximise(Endless, &config(Coordination::depth_bounded(3), 4));
    std::thread::sleep(Duration::from_millis(10));
    handle.cancel();
    // The handle resolves promptly — poll rather than block, to exercise
    // try_result/is_finished.
    let started = std::time::Instant::now();
    let out = loop {
        if let Some(out) = handle.try_result() {
            break out;
        }
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "cancelled search did not resolve"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(handle.is_finished());
    assert_eq!(out.status, SearchStatus::Cancelled);
}

#[test]
fn progress_stream_carries_incumbents_heartbeats_and_the_final_status() {
    let runtime = Runtime::new(RuntimeConfig::default().workers(4));
    let mut cfg = config(Coordination::depth_bounded(3), 4);
    cfg.deadline = Some(Duration::from_millis(100));
    let handle = runtime.maximise(Endless, &cfg);
    let mut saw_incumbent = false;
    let mut max_nodes = 0u64;
    let finished = loop {
        match handle.progress().next_timeout(Duration::from_secs(30)) {
            Some(ProgressEvent::Incumbent { score, .. }) => {
                saw_incumbent = true;
                let parsed: u64 = score.parse().expect("u64 scores render as integers");
                assert!(parsed <= 999);
            }
            Some(ProgressEvent::Heartbeat { nodes, .. }) => {
                // Workers publish in batches and their events can interleave
                // out of order, so the stream is only *approximately*
                // monotone — assert on the running maximum instead.
                max_nodes = max_nodes.max(nodes);
            }
            Some(ProgressEvent::Stats { stats, .. }) => {
                // Runtime-attached searches interleave gauge snapshots with
                // the heartbeats; this single-search run holds one grant.
                assert!(stats.granted_workers <= 4);
            }
            Some(ProgressEvent::Finished { status }) => break status,
            None => panic!("stream ended without Finished"),
        }
    };
    assert_eq!(finished, SearchStatus::DeadlineExceeded);
    assert!(
        saw_incumbent,
        "a 100 ms maximise must improve the incumbent"
    );
    assert!(
        max_nodes > 0,
        "a 100 ms run processes well over one heartbeat stride of nodes"
    );
    let out = handle.wait();
    assert_eq!(out.status, SearchStatus::DeadlineExceeded);
}

#[test]
fn queued_submissions_respect_their_own_deadlines() {
    // Three deadline-bounded searches queued FIFO on one runtime: each
    // budget starts when its job starts executing, so all three resolve
    // with DeadlineExceeded rather than the queue wait eating the budgets.
    // Each parks at its first expansion, after scoring its root, until its
    // own budget is spent.
    let runtime = Runtime::new(RuntimeConfig::default().workers(4));
    let budget = Duration::from_millis(15);
    let mut cfg = config(Coordination::budget(100), 4);
    cfg.deadline = Some(budget);
    let handles: Vec<_> = (0..3)
        .map(|_| runtime.maximise(ParkAtExpansion::new(Endless, 1, budget), &cfg))
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let out = handle.wait();
        assert_eq!(out.status, SearchStatus::DeadlineExceeded, "search {i}");
        assert!(out.try_node().is_some(), "search {i}");
    }
}

#[test]
fn runtime_drop_drains_queued_searches() {
    let runtime = Runtime::new(RuntimeConfig::default().workers(2));
    let mut cfg = config(Coordination::depth_bounded(2), 2);
    cfg.deadline = Some(Duration::from_millis(5));
    let handles: Vec<_> = (0..4).map(|_| runtime.maximise(Endless, &cfg)).collect();
    // Dropping the runtime blocks until every queued job ran; the handles
    // must all be resolved afterwards.
    drop(runtime);
    for (i, handle) in handles.into_iter().enumerate() {
        assert!(handle.is_finished(), "search {i} left unresolved by drop");
        let out = handle.wait();
        assert_eq!(out.status, SearchStatus::DeadlineExceeded, "search {i}");
    }
}
