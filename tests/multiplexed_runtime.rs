//! The multiplexed-runtime scheduler matrix: concurrent searches over
//! partitioned worker subsets of one persistent pool, across
//! {Fifo, FairShare} × 1/4/8-worker pools.
//!
//! What must hold (ISSUE 5 acceptance):
//!
//! * concurrently granted searches run on **disjoint** pool-thread subsets
//!   (asserted via each outcome's `Metrics::granted_slots`) and produce
//!   results identical to running alone;
//! * `Termination::outstanding() == 0` on every exit path, co-scheduled or
//!   not;
//! * the Ordered coordination's replicability guarantee (identical
//!   committed node counts across worker counts and runs) is unaffected by
//!   co-scheduling;
//! * cancelling a session scope cancels every child search's handle.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use yewpar::{
    Coordination, DeadlineShare, FairShare, Fifo, Priority, Runtime, RuntimeConfig, SchedulePolicy,
    SearchConfig, SearchStatus, Skeleton,
};

/// Deterministic irregular tree; node = (depth, seed).
#[derive(Clone)]
struct Irregular {
    depth: usize,
    seed: u64,
}

impl yewpar::SearchProblem for Irregular {
    type Node = (usize, u64);
    type Gen<'a> = std::vec::IntoIter<(usize, u64)>;
    fn root(&self) -> (usize, u64) {
        (0, self.seed)
    }
    fn generator(&self, node: &(usize, u64)) -> Self::Gen<'_> {
        let (depth, seed) = *node;
        if depth >= self.depth {
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

impl yewpar::Enumerate for Irregular {
    type Value = yewpar::monoid::Sum<u64>;
    fn value(&self, _n: &(usize, u64)) -> yewpar::monoid::Sum<u64> {
        yewpar::monoid::Sum(1)
    }
}

impl yewpar::Optimise for Irregular {
    type Score = u64;
    fn objective(&self, node: &(usize, u64)) -> u64 {
        node.1 % 1000
    }
}

impl yewpar::Decide for Irregular {
    fn target(&self) -> u64 {
        997
    }
}

/// A tree whose root expansion *blocks until `parties` searches have
/// reached it*: a deterministic proof of concurrency.  Under a serialising
/// scheduler the first search would wait forever (the test fails via the
/// rendezvous timeout panic); under a multiplexing one every co-scheduled
/// search reaches the gate and they all proceed.
#[derive(Clone)]
struct Rendezvous {
    gate: Arc<AtomicUsize>,
    parties: usize,
    inner: Irregular,
}

impl yewpar::SearchProblem for Rendezvous {
    type Node = (usize, u64);
    type Gen<'a> = std::vec::IntoIter<(usize, u64)>;
    fn root(&self) -> (usize, u64) {
        self.inner.root()
    }
    fn generator(&self, node: &(usize, u64)) -> Self::Gen<'_> {
        if *node == self.inner.root() {
            self.gate.fetch_add(1, Ordering::SeqCst);
            let started = Instant::now();
            while self.gate.load(Ordering::SeqCst) < self.parties {
                assert!(
                    started.elapsed() < Duration::from_secs(20),
                    "rendezvous timed out: the scheduler did not run \
                     {} searches concurrently",
                    self.parties
                );
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        self.inner.generator(node)
    }
}

impl yewpar::Enumerate for Rendezvous {
    type Value = yewpar::monoid::Sum<u64>;
    fn value(&self, _n: &(usize, u64)) -> yewpar::monoid::Sum<u64> {
        yewpar::monoid::Sum(1)
    }
}

fn config(coordination: Coordination, workers: usize) -> SearchConfig {
    SearchConfig {
        coordination,
        workers,
        ..SearchConfig::default()
    }
}

fn subtree_size(p: &Irregular) -> u64 {
    fn walk(p: &Irregular, node: (usize, u64)) -> u64 {
        1 + p.generator(&node).map(|child| walk(p, child)).sum::<u64>()
    }
    use yewpar::SearchProblem;
    walk(p, p.root())
}

/// Acceptance: two searches on an 8-worker FairShare runtime run
/// *concurrently* (proved by the rendezvous gate — a serialising scheduler
/// would deadlock/time out) on *disjoint* worker subsets (proved by the
/// per-search metrics), complete, and produce exactly the solo results.
#[test]
fn two_fair_share_searches_run_concurrently_on_disjoint_subsets() {
    let runtime = Runtime::with_policy(RuntimeConfig::default().workers(8), Box::new(FairShare));
    let gate = Arc::new(AtomicUsize::new(0));
    let problems: Vec<Rendezvous> = [1u64, 7]
        .into_iter()
        .map(|seed| Rendezvous {
            gate: Arc::clone(&gate),
            parties: 2,
            inner: Irregular { depth: 8, seed },
        })
        .collect();
    let expected: Vec<u64> = problems.iter().map(|r| subtree_size(&r.inner)).collect();
    let cfg = config(Coordination::depth_bounded(2), 4);
    let handles: Vec<_> = problems
        .iter()
        .map(|p| runtime.enumerate(p.clone(), &cfg))
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    for (out, expected) in outcomes.iter().zip(&expected) {
        assert_eq!(out.status, SearchStatus::Complete);
        assert_eq!(
            out.value.0, *expected,
            "co-scheduling must not change results"
        );
        assert_eq!(out.metrics.outstanding_tasks, 0);
        assert_eq!(out.metrics.granted_workers, 4);
        assert_eq!(out.metrics.granted_slots.len(), 4);
    }
    assert!(
        outcomes[0]
            .metrics
            .granted_slots
            .iter()
            .all(|slot| !outcomes[1].metrics.granted_slots.contains(slot)),
        "concurrent searches must hold disjoint leases: {:?} vs {:?}",
        outcomes[0].metrics.granted_slots,
        outcomes[1].metrics.granted_slots
    );
    let stats = runtime.stats();
    assert!(
        stats.peak_active_searches >= 2,
        "the pool must actually have multiplexed: {stats:?}"
    );
}

/// The scheduler matrix: 3 concurrent submissions × {Fifo, FairShare} ×
/// {1, 4, 8}-worker pools, enumeration results identical to solo runs and
/// clean task accounting on every exit.
#[test]
fn scheduler_matrix_preserves_results_and_accounting() {
    let problems: Vec<Irregular> = [(8usize, 1u64), (8, 7), (7, 23)]
        .into_iter()
        .map(|(depth, seed)| Irregular { depth, seed })
        .collect();
    let expected: Vec<u64> = problems.iter().map(subtree_size).collect();
    let policies: Vec<fn() -> Box<dyn SchedulePolicy>> =
        vec![|| Box::new(Fifo), || Box::new(FairShare)];
    for make_policy in policies {
        for pool_workers in [1usize, 4, 8] {
            let policy = make_policy();
            let label = format!("policy={} pool={pool_workers}", policy.name());
            let runtime =
                Runtime::with_policy(RuntimeConfig::default().workers(pool_workers), policy);
            let cfg = config(Coordination::depth_bounded(2), pool_workers.min(4));
            let handles: Vec<_> = problems
                .iter()
                .map(|p| runtime.enumerate(p.clone(), &cfg))
                .collect();
            for (i, handle) in handles.into_iter().enumerate() {
                let out = handle.wait();
                assert_eq!(out.status, SearchStatus::Complete, "{label} search {i}");
                assert_eq!(out.value.0, expected[i], "{label} search {i}");
                assert_eq!(
                    out.metrics.outstanding_tasks, 0,
                    "{label} search {i}: outstanding tasks leaked"
                );
                assert!(
                    out.metrics.granted_workers >= 1 && out.metrics.granted_workers <= cfg.workers,
                    "{label} search {i}: grant {} outside [1, {}]",
                    out.metrics.granted_workers,
                    cfg.workers
                );
            }
            let stats = runtime.stats();
            assert_eq!(stats.queued_searches, 0, "{label}");
        }
    }
}

/// Ordered replicability under co-scheduling: the committed node count of a
/// decision search is identical whether the search runs alone (blocking
/// facade, 1/2/4 workers) or co-scheduled with a competitor on a FairShare
/// pool — speculation never leaks into the committed counts.
#[test]
fn ordered_replicability_is_unaffected_by_co_scheduling() {
    let problem = Irregular { depth: 9, seed: 1 };
    let solo = Skeleton::new(Coordination::ordered(2))
        .workers(4)
        .decide(&problem);
    assert!(solo.status.is_complete());
    // Replicability baseline across solo worker counts.
    for workers in [1usize, 2] {
        let out = Skeleton::new(Coordination::ordered(2))
            .workers(workers)
            .decide(&problem);
        assert_eq!(
            out.metrics.nodes(),
            solo.metrics.nodes(),
            "solo replicability broken at {workers} workers"
        );
    }
    // Two co-scheduled Ordered searches of the same instance: committed
    // counts unchanged, both equal to the solo count, on every run.
    let runtime = Runtime::with_policy(RuntimeConfig::default().workers(8), Box::new(FairShare));
    let cfg = config(Coordination::ordered(2), 4);
    for round in 0..3 {
        let handles: Vec<_> = (0..2)
            .map(|_| runtime.decide(problem.clone(), &cfg))
            .collect();
        for handle in handles {
            let out = handle.wait();
            assert!(out.status.is_complete(), "round {round}");
            assert_eq!(
                out.found(),
                solo.found(),
                "round {round}: co-scheduling changed the decision"
            );
            assert_eq!(
                out.metrics.nodes(),
                solo.metrics.nodes(),
                "round {round}: committed counts must be replicable under \
                 co-scheduling (granted {} workers)",
                out.metrics.granted_workers
            );
            assert_eq!(out.metrics.outstanding_tasks, 0, "round {round}");
        }
    }
}

/// Cancelling a session scope cancels every child: running children stop at
/// their next poll, queued children resolve without executing, and all
/// handles resolve with clean accounting.
#[test]
fn parent_cancel_kills_every_child_handle() {
    for (pool_workers, policy) in [
        (4usize, Box::new(Fifo) as Box<dyn SchedulePolicy>),
        (4, Box::new(FairShare)),
        (1, Box::new(FairShare)),
    ] {
        let label = format!("pool={pool_workers}");
        let runtime = Runtime::with_policy(RuntimeConfig::default().workers(pool_workers), policy);
        let session = runtime.session();
        // Endless searches: depth 64 on fanout up to 4 never finishes.
        // (Odd seeds only: seeds ≡ 0 mod 4 degenerate into a fanout-1
        // chain that completes instantly.)
        let cfg = config(Coordination::depth_bounded(3), 2);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                session.maximise(
                    Irregular {
                        depth: 64,
                        seed: 2 * i + 1,
                    },
                    &cfg,
                )
            })
            .collect();
        std::thread::sleep(Duration::from_millis(10));
        session.cancel();
        for (i, handle) in handles.into_iter().enumerate() {
            let out = handle.wait();
            assert_eq!(
                out.status,
                SearchStatus::Cancelled,
                "{label} child {i} not cancelled by the parent scope"
            );
            assert_eq!(
                out.metrics.outstanding_tasks, 0,
                "{label} child {i} leaked tasks"
            );
        }
        let status = session.status();
        assert_eq!(status.cancelled, 4, "{label}");
        assert!(status.all_finished(), "{label}");
        assert_eq!(status.aggregate(), Some(SearchStatus::Cancelled), "{label}");
    }
}

fn priority_config(
    coordination: Coordination,
    workers: usize,
    priority: Priority,
    deadline: Option<Duration>,
) -> SearchConfig {
    SearchConfig {
        priority,
        deadline,
        ..config(coordination, workers)
    }
}

/// An endless background search (depth-64 irregular trees never finish);
/// the deadline is a safety net so a broken scheduler fails the test
/// instead of hanging it.
fn endless(seed: u64) -> Irregular {
    Irregular { depth: 64, seed }
}

/// Elastic grow is invisible in results: a search that is grown mid-run
/// (FairShare leases the idle remainder of the pool onto it) enumerates
/// exactly the solo count with clean task accounting, and the runtime
/// records the lease change.
#[test]
fn grown_search_produces_solo_results() {
    // Deep enough that the search spans many 1 ms replan periods even in
    // a release build — a depth-10 run finishes in ~200 µs, before the
    // replanner ever fires, and the grow assertion below goes flaky.
    let problem = Irregular { depth: 13, seed: 1 };
    let expected = subtree_size(&problem);
    let runtime = Runtime::with_policy(
        RuntimeConfig::default()
            .workers(8)
            .replan_period(Duration::from_millis(1)),
        Box::new(FairShare),
    );
    // Requested 2 of 8: the replanner grows the lease into the 6 idle
    // workers within a few ticks of admission.
    let out = runtime
        .enumerate(problem.clone(), &config(Coordination::depth_bounded(3), 2))
        .wait();
    assert_eq!(out.status, SearchStatus::Complete);
    assert_eq!(
        out.value.0, expected,
        "growing a lease must not change results"
    );
    assert_eq!(out.metrics.outstanding_tasks, 0);
    assert!(
        out.metrics.grant_changes >= 1,
        "no lease change was recorded: {:?}",
        out.metrics
    );
    assert!(runtime.stats().grant_changes >= 1);
}

/// Ordered replicability across elastic resizes: a decision search
/// submitted with 1/2/4/8 workers on a FairShare pool is grown into idle
/// capacity, shrunk back to its request when a competitor arrives, and
/// re-grown when the competitor finishes — through all of which its
/// committed node count equals the solo count.
#[test]
fn ordered_committed_counts_survive_shrink_and_regrow() {
    let problem = Irregular { depth: 9, seed: 1 };
    let solo = Skeleton::new(Coordination::ordered(2))
        .workers(4)
        .decide(&problem);
    assert!(solo.status.is_complete());
    for requested in [1usize, 2, 4, 8] {
        let runtime = Runtime::with_policy(
            RuntimeConfig::default()
                .workers(8)
                .replan_period(Duration::from_millis(1)),
            Box::new(FairShare),
        );
        let ordered = runtime.decide(
            problem.clone(),
            &config(Coordination::ordered(2), requested),
        );
        // Give the replanner time to grow the lease beyond the request,
        // then force it back down with a pool-wide competitor.
        std::thread::sleep(Duration::from_millis(5));
        let competitor = runtime.enumerate(
            Irregular { depth: 8, seed: 7 },
            &config(Coordination::depth_bounded(2), 8),
        );
        let out = ordered.wait();
        assert!(out.status.is_complete(), "requested={requested}");
        assert_eq!(
            out.found(),
            solo.found(),
            "requested={requested}: resizing changed the decision"
        );
        assert_eq!(
            out.metrics.nodes(),
            solo.metrics.nodes(),
            "requested={requested}: committed counts must be replicable \
             through grow/shrink (grant_changes={})",
            out.metrics.grant_changes
        );
        assert_eq!(out.metrics.outstanding_tasks, 0, "requested={requested}");
        let side = competitor.wait();
        assert!(side.status.is_complete(), "requested={requested}");
        assert_eq!(side.metrics.outstanding_tasks, 0, "requested={requested}");
    }
}

/// DeadlineShare serves a latency-sensitive arrival ahead of a saturating
/// background: the High-priority job is admitted via cooperative
/// revocation (not after the background's makespan) and finishes while the
/// background is still running.
#[test]
fn urgent_arrival_overtakes_a_saturating_background() {
    let runtime = Runtime::with_policy(
        RuntimeConfig::default()
            .workers(8)
            .replan_period(Duration::from_millis(1)),
        Box::new(DeadlineShare),
    );
    let background = runtime.maximise(
        endless(1),
        &priority_config(
            Coordination::depth_bounded(3),
            8,
            Priority::Low,
            Some(Duration::from_millis(400)),
        ),
    );
    std::thread::sleep(Duration::from_millis(20));
    let urgent = runtime.enumerate(
        Irregular { depth: 8, seed: 7 },
        &priority_config(Coordination::depth_bounded(2), 4, Priority::High, None),
    );
    let out = urgent.wait();
    let urgent_done = Instant::now();
    assert_eq!(out.status, SearchStatus::Complete);
    assert_eq!(out.metrics.outstanding_tasks, 0);
    let bg = background.wait();
    let background_done = Instant::now();
    assert_eq!(
        bg.status,
        SearchStatus::DeadlineExceeded,
        "the background must have still been running when the urgent job \
         finished"
    );
    assert!(urgent_done <= background_done);
    assert!(
        bg.metrics.grant_changes >= 1,
        "the background lease was never renegotiated: {:?}",
        bg.metrics
    );
    let stats = runtime.stats();
    assert!(
        stats.workers_preempted >= 1,
        "no revocation was acknowledged: {stats:?}"
    );
    assert!(stats.revocation_latency > Duration::ZERO);
}

/// An Urgent arrival that shrinking alone cannot serve preempts the
/// lowest-priority background outright: the background resolves
/// `Cancelled` with its partial incumbent and clean accounting.
#[test]
fn urgent_arrival_preempts_an_unshrinkable_background() {
    let runtime = Runtime::with_policy(
        RuntimeConfig::default()
            .workers(4)
            .replan_period(Duration::from_millis(1)),
        Box::new(DeadlineShare),
    );
    let background = runtime.maximise(
        endless(1),
        &priority_config(
            Coordination::depth_bounded(3),
            4,
            Priority::Low,
            Some(Duration::from_secs(10)),
        ),
    );
    std::thread::sleep(Duration::from_millis(20));
    // Wants the whole pool: shrinking leaves the background one worker,
    // so DeadlineShare must preempt it to make room.
    let urgent = runtime.enumerate(
        Irregular { depth: 8, seed: 7 },
        &priority_config(Coordination::depth_bounded(2), 4, Priority::Urgent, None),
    );
    let out = urgent.wait();
    assert_eq!(out.status, SearchStatus::Complete);
    let bg = background.wait();
    assert_eq!(
        bg.status,
        SearchStatus::Cancelled,
        "preemption resolves the victim as Cancelled, not DeadlineExceeded"
    );
    assert!(
        bg.try_score().is_some(),
        "the partial incumbent survives preemption"
    );
    assert_eq!(
        bg.metrics.outstanding_tasks, 0,
        "preempted search leaked tasks"
    );
}

/// Session quotas queue rather than error: a 2-worker-capped session on a
/// 4-worker pool runs its submissions back to back while an uncapped
/// session (and half the pool) stays free, and the capped session reports
/// the time its submissions spent quota-throttled.
#[test]
fn session_quota_throttles_without_blocking_the_pool() {
    let runtime = Runtime::with_policy(
        RuntimeConfig::default()
            .workers(4)
            .replan_period(Duration::from_millis(1)),
        Box::new(FairShare),
    );
    let capped = runtime.session().with_max_workers(2);
    let cfg = priority_config(
        Coordination::depth_bounded(3),
        2,
        Priority::Normal,
        Some(Duration::from_millis(100)),
    );
    let first = capped.maximise(endless(1), &cfg);
    let second = capped.maximise(endless(3), &cfg);
    // The other half of the pool is still open for business: an uncapped
    // submission completes while the capped session is saturated.
    let side = runtime
        .enumerate(
            Irregular { depth: 8, seed: 7 },
            &config(Coordination::depth_bounded(2), 2),
        )
        .wait();
    assert_eq!(side.status, SearchStatus::Complete);
    let first = first.wait();
    let second = second.wait();
    assert_eq!(first.status, SearchStatus::DeadlineExceeded);
    assert_eq!(second.status, SearchStatus::DeadlineExceeded);
    assert!(
        second.metrics.queue_wait >= Duration::from_millis(30),
        "the over-quota submission must have queued behind the first: {:?}",
        second.metrics.queue_wait
    );
    let status = capped.status();
    assert_eq!(status.submitted, 2);
    assert!(
        status.throttled > Duration::ZERO,
        "quota-throttled time must be reported: {status:?}"
    );
}

/// A tree whose root expansion holds its search until a gate opens and
/// then for at least the `Duration` the gate was opened with, measured from
/// when the root expansion began.  The gate carries the span of the
/// submission window, so every held search runs longer than the spacing
/// between any two submissions made inside that window.
#[derive(Clone)]
struct HeldRoot {
    gate: Arc<std::sync::OnceLock<Duration>>,
    inner: Irregular,
}

impl yewpar::SearchProblem for HeldRoot {
    type Node = (usize, u64);
    type Gen<'a> = std::vec::IntoIter<(usize, u64)>;
    fn root(&self) -> (usize, u64) {
        self.inner.root()
    }
    fn generator(&self, node: &(usize, u64)) -> Self::Gen<'_> {
        if *node == self.inner.root() {
            let entered = Instant::now();
            let hold = loop {
                if let Some(hold) = self.gate.get() {
                    break *hold;
                }
                assert!(
                    entered.elapsed() < Duration::from_secs(20),
                    "gate never opened"
                );
                std::thread::sleep(Duration::from_micros(100));
            };
            if let Some(rest) = hold.checked_sub(entered.elapsed()) {
                std::thread::sleep(rest);
            }
        }
        self.inner.generator(node)
    }
}

impl yewpar::Enumerate for HeldRoot {
    type Value = yewpar::monoid::Sum<u64>;
    fn value(&self, _n: &(usize, u64)) -> yewpar::monoid::Sum<u64> {
        yewpar::monoid::Sum(1)
    }
}

/// FIFO stays FIFO: queue waits are monotonically non-decreasing in
/// submission order (recorded at grant time on the dispatcher side).
///
/// A wait is grant time minus submission time, so monotone waits need each
/// search to run at least as long as the gap to the next submission.  The
/// gate makes that hold by construction: it opens only after all three
/// submissions, carrying the window they were made in, and each search
/// holds its root at least that long.  Under FIFO the next grant comes
/// after the previous search finished, so grant gaps cover submission gaps
/// under any scheduler.
#[test]
fn fifo_queue_waits_are_monotone_in_submission_order() {
    let runtime = Runtime::new(RuntimeConfig::default().workers(2));
    let cfg = config(Coordination::depth_bounded(2), 2);
    let problem = HeldRoot {
        gate: Arc::new(std::sync::OnceLock::new()),
        inner: Irregular { depth: 9, seed: 1 },
    };
    let window = Instant::now();
    let handles: Vec<_> = (0..3)
        .map(|_| runtime.enumerate(problem.clone(), &cfg))
        .collect();
    problem
        .gate
        .set(window.elapsed())
        .expect("the gate opens once");
    let waits: Vec<Duration> = handles
        .into_iter()
        .map(|h| h.wait().metrics.queue_wait)
        .collect();
    assert!(
        waits.windows(2).all(|w| w[0] <= w[1]),
        "FIFO queue waits must be monotone: {waits:?}"
    );
}
