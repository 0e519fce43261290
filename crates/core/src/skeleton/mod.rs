//! The 15 search skeletons: {Sequential, Depth-Bounded, Stack-Stealing,
//! Budget, Ordered} × {Enumeration, Decision, Optimisation}.
//!
//! A [`Skeleton`] is configured with a [`Coordination`] (and optionally a
//! worker count and steal seed) and then applied to a search problem through
//! one of three entry points, one per search type:
//!
//! * [`Skeleton::enumerate`] — fold the whole tree into a monoid,
//! * [`Skeleton::maximise`] — branch-and-bound optimisation returning the
//!   best node found and its objective value,
//! * [`Skeleton::decide`] — decision search returning a witness node as soon
//!   as the target objective is reached.
//!
//! This mirrors the paper's composition model (Fig. 3 and Listing 5): the
//! user picks a coordination, supplies a lazy node generator (a
//! [`SearchProblem`] impl) and chooses the search type; everything else is
//! generic library code.

pub(crate) mod budget;
pub(crate) mod depth_bounded;
pub(crate) mod driver;
pub(crate) mod ordered;
pub(crate) mod sequential;
pub(crate) mod stack_stealing;

use std::sync::Arc;
use std::time::Duration;

use crate::lifecycle::{CancelToken, Lifecycle, ProgressSender, SearchStatus};
use crate::metrics::{Metrics, WorkerMetrics};
use crate::node::SearchProblem;
use crate::objective::{Decide, Enumerate, Optimise};
use crate::params::{Coordination, SearchConfig};
use crate::runtime::WorkerPool;
use crate::termination::{StopCause, Termination};
use crate::trace::{TraceBuffer, TraceRecord, Tracer};

use driver::{DecideDriver, Driver, EnumDriver, OptimDriver};

/// Result of an enumeration search.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumOutcome<V> {
    /// The monoid fold of the objective over every node of the search tree —
    /// or, when [`status`](EnumOutcome::status) is not
    /// [`SearchStatus::Complete`], over every node processed before the
    /// search was stopped (a partial fold).
    pub value: V,
    /// How the search ended.
    pub status: SearchStatus,
    /// Execution metrics (nodes, prunes, spawns, steals, elapsed time, …).
    pub metrics: Metrics,
}

/// Result of an optimisation search.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimOutcome<N, S> {
    /// The maximal node found and its objective value.  With
    /// [`status`](OptimOutcome::status) [`SearchStatus::Complete`] this is
    /// the proven optimum; on a cancelled or timed-out search it is the
    /// *partial incumbent* — the best node found before the stop (anytime
    /// semantics).  `None` only when the search was stopped before its root
    /// task committed any node.
    pub best: Option<(N, S)>,
    /// How the search ended.
    pub status: SearchStatus,
    /// Execution metrics.
    pub metrics: Metrics,
}

impl<N, S> OptimOutcome<N, S> {
    /// The best node found, if any node was recorded.
    pub fn try_node(&self) -> Option<&N> {
        self.best.as_ref().map(|(n, _)| n)
    }

    /// The best objective value found, if any node was recorded.
    pub fn try_score(&self) -> Option<&S> {
        self.best.as_ref().map(|(_, s)| s)
    }
}

/// Result of a decision search.
#[derive(Debug, Clone, PartialEq)]
pub struct DecideOutcome<N> {
    /// A node witnessing the target objective, or `None` if the whole tree
    /// was explored without reaching the target — or, when
    /// [`status`](DecideOutcome::status) is not [`SearchStatus::Complete`],
    /// if no witness had been found before the search was stopped.
    pub witness: Option<N>,
    /// How the search ended.
    pub status: SearchStatus,
    /// Execution metrics.
    pub metrics: Metrics,
}

impl<N> DecideOutcome<N> {
    /// True if the target objective was reached.
    pub fn found(&self) -> bool {
        self.witness.is_some()
    }
}

/// A configured search skeleton (coordination + worker count), the blocking
/// facade over the unified engine.  For a persistent pool with non-blocking
/// handles, submit through [`Runtime`](crate::runtime::Runtime) instead —
/// it drives this same facade internally.
///
/// ```
/// use yewpar::{Coordination, Skeleton};
/// let skel = Skeleton::new(Coordination::budget(1_000)).workers(4);
/// assert_eq!(skel.config().workers, 4);
/// ```
#[derive(Debug, Clone)]
pub struct Skeleton {
    config: SearchConfig,
    /// External cancellation flag checked by every worker's per-step poll.
    cancel: Option<CancelToken>,
    /// Progress sink for incumbent updates, heartbeats and the final
    /// status (runtime submissions attach one; the plain facade has none).
    progress: Option<ProgressSender>,
    /// Persistent pool to run workers on instead of spawning scoped
    /// threads (runtime submissions only).
    pool: Option<Arc<WorkerPool>>,
    /// The scheduler's worker allotment (runtime submissions only): the
    /// effective worker count and the leased pool-thread slots, granted at
    /// dispatch time rather than config time.
    grant: Option<crate::runtime::ExecutionGrant>,
    /// The flight recorder's store, present when
    /// [`SearchConfig::trace`] is set.  Clones of the skeleton share it, so
    /// drain between searches ([`take_trace`](Skeleton::take_trace)) to keep
    /// runs separate.
    trace: Option<Arc<TraceBuffer>>,
    /// Heartbeat-time runtime-stats snapshotter (runtime submissions only).
    stats_probe: Option<crate::lifecycle::StatsProbe>,
}

impl Skeleton {
    /// A skeleton for the given coordination with a default worker count
    /// (one worker for Sequential, all available cores otherwise).
    pub fn new(coordination: Coordination) -> Self {
        Skeleton::from_config(SearchConfig::new(coordination))
    }

    /// A skeleton from a full [`SearchConfig`].
    pub fn from_config(config: SearchConfig) -> Self {
        let trace = config
            .trace
            .then(|| Arc::new(TraceBuffer::new(TraceBuffer::DEFAULT_CAPACITY)));
        Skeleton {
            config,
            cancel: None,
            progress: None,
            pool: None,
            grant: None,
            trace,
            stats_probe: None,
        }
    }

    /// Set the number of worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    /// Set the seed used for random victim selection.
    pub fn steal_seed(mut self, seed: u64) -> Self {
        self.config.steal_seed = seed;
        self
    }

    /// Set a wall-clock deadline for each search run through this skeleton
    /// (see [`SearchConfig::deadline`]): the run stops once the budget
    /// elapses and the outcome reports
    /// [`SearchStatus::DeadlineExceeded`] with the partial incumbent.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.config.deadline = Some(budget);
        self
    }

    /// Attach an external cancellation token: pulling it (from any thread)
    /// stops the search at its next per-step poll, and the outcome reports
    /// [`SearchStatus::Cancelled`] with the partial incumbent.  Tokens are
    /// single-use — attach a fresh one per search.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Switch the flight recorder on or off (see [`SearchConfig::trace`]),
    /// (re)allocating per-worker rings of [`TraceBuffer::DEFAULT_CAPACITY`]
    /// records.  Use [`trace_capacity`](Skeleton::trace_capacity) to size
    /// the rings explicitly.
    pub fn trace(self, on: bool) -> Self {
        if on {
            self.trace_capacity(TraceBuffer::DEFAULT_CAPACITY)
        } else {
            let mut skel = self;
            skel.config.trace = false;
            skel.trace = None;
            skel
        }
    }

    /// Switch the flight recorder on with rings of `capacity` records per
    /// worker (overflow beyond that is counted, keep-first, in
    /// [`trace_dropped`](Skeleton::trace_dropped)).
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.config.trace = true;
        self.trace = Some(Arc::new(TraceBuffer::new(capacity)));
        self
    }

    /// Drain the flight recorder: every event recorded since the last drain,
    /// merged across workers and sorted by timestamp.  Empty when tracing is
    /// off.  Call between searches — the buffer is shared by consecutive
    /// runs of the same skeleton.
    pub fn take_trace(&self) -> Vec<TraceRecord> {
        self.trace.as_ref().map(|b| b.drain()).unwrap_or_default()
    }

    /// Events dropped to ring overflow so far (0 when tracing is off).  A
    /// non-zero value marks every drained trace as lossy; it is never reset,
    /// so "no drops" can be asserted after the fact.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.as_ref().map(|b| b.dropped()).unwrap_or(0)
    }

    /// Attach a progress sink (runtime submissions).
    pub(crate) fn attach_progress(mut self, progress: ProgressSender) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Attach a runtime-stats snapshotter for `ProgressEvent::Stats`
    /// heartbeats (runtime submissions).
    pub(crate) fn attach_stats_probe(mut self, probe: crate::lifecycle::StatsProbe) -> Self {
        self.stats_probe = Some(probe);
        self
    }

    /// Attach an externally owned flight-recorder buffer (runtime
    /// submissions record into the runtime-wide buffer so dispatcher and
    /// search events share one timeline).
    pub(crate) fn attach_trace_buffer(mut self, buffer: Arc<TraceBuffer>) -> Self {
        self.trace = Some(buffer);
        self
    }

    /// Attach a persistent worker pool (runtime submissions).
    pub(crate) fn attach_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attach the scheduler's worker grant (runtime submissions): the
    /// engine then runs with the granted worker count on the leased slots
    /// instead of the configured count on the whole pool.
    pub(crate) fn attach_grant(mut self, grant: crate::runtime::ExecutionGrant) -> Self {
        self.grant = Some(grant);
        self
    }

    /// The effective configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The per-execution lifecycle: external stop conditions, progress
    /// sink, pool, and the resolved absolute deadline.
    fn lifecycle(&self) -> Lifecycle {
        let mut lifecycle = Lifecycle {
            cancel: self.cancel.clone(),
            progress: self.progress.clone(),
            pool: self.pool.clone(),
            grant: self.grant.clone(),
            tracer: match &self.trace {
                Some(buffer) => Tracer::new(Arc::clone(buffer)),
                None => Tracer::off(),
            },
            stats_probe: self.stats_probe.clone(),
            ..Lifecycle::inert()
        };
        lifecycle.begin(self.config.deadline);
        lifecycle
    }

    /// Run an enumeration search: fold the objective of every node of the
    /// search tree into the accumulator monoid.
    pub fn enumerate<P: Enumerate>(&self, problem: &P) -> EnumOutcome<P::Value> {
        let lifecycle = self.lifecycle();
        let driver = EnumDriver::<P>::new();
        let run = run_coordination(problem, &driver, &self.config, &lifecycle);
        lifecycle.finish(run.status);
        EnumOutcome {
            value: driver.into_value(),
            status: run.status,
            metrics: run.metrics,
        }
    }

    /// Run an optimisation search: find a node maximising the objective,
    /// pruning subtrees whose bound cannot beat the incumbent.  On a
    /// cancelled or timed-out run the outcome carries the partial incumbent.
    pub fn maximise<P: Optimise>(&self, problem: &P) -> OptimOutcome<P::Node, P::Score> {
        let lifecycle = self.lifecycle();
        let driver =
            OptimDriver::<P>::with_progress(lifecycle.progress_sender(), lifecycle.tracer.clone());
        let mut run = run_coordination(problem, &driver, &self.config, &lifecycle);
        run.metrics.totals.incumbent_updates = driver.incumbent_updates();
        lifecycle.finish(run.status);
        OptimOutcome {
            best: driver.into_best(),
            status: run.status,
            metrics: run.metrics,
        }
    }

    /// Run a decision search: stop as soon as a node reaches the target
    /// objective and return it as a witness.
    pub fn decide<P: Decide>(&self, problem: &P) -> DecideOutcome<P::Node> {
        let lifecycle = self.lifecycle();
        let driver = DecideDriver::<P>::with_progress(
            problem.target(),
            lifecycle.progress_sender(),
            lifecycle.tracer.clone(),
        );
        let mut run = run_coordination(problem, &driver, &self.config, &lifecycle);
        run.metrics.totals.incumbent_updates = driver.incumbent_updates();
        lifecycle.finish(run.status);
        DecideOutcome {
            witness: driver.into_witness(),
            status: run.status,
            metrics: run.metrics,
        }
    }
}

/// What one coordinated execution hands back to the outcome constructors.
struct RunOutput {
    metrics: Metrics,
    status: SearchStatus,
}

/// Dispatch a driver over the configured coordination, under the given
/// lifecycle (external stops, progress, pool).
fn run_coordination<P, D>(
    problem: &P,
    driver: &D,
    config: &SearchConfig,
    lifecycle: &Lifecycle,
) -> RunOutput
where
    P: SearchProblem,
    D: Driver<P>,
{
    config.validate().expect("invalid skeleton configuration");
    let term = Termination::new(1);
    // An already-expired deadline or pre-pulled token stops the run before
    // any worker starts; the seeded root is then drained by the source
    // discard, so even a zero-budget run exits with clean accounting.
    lifecycle.poll(&term);
    let (workers, elapsed): (Vec<WorkerMetrics>, Duration) = match config.coordination {
        Coordination::Sequential => sequential::run(problem, driver, &term, lifecycle),
        Coordination::DepthBounded { dcutoff } => {
            depth_bounded::run(problem, driver, config, dcutoff, &term, lifecycle)
        }
        Coordination::StackStealing { chunked } => {
            stack_stealing::run(problem, driver, config, chunked, &term, lifecycle)
        }
        Coordination::Budget { backtracks } => {
            budget::run(problem, driver, config, backtracks, &term, lifecycle)
        }
        Coordination::Ordered { spawn_depth } => {
            ordered::run(problem, driver, config, spawn_depth, &term, lifecycle)
        }
    };
    let status = match term.stop_cause() {
        Some(StopCause::Cancelled) => SearchStatus::Cancelled,
        Some(StopCause::Deadline) => SearchStatus::DeadlineExceeded,
        // A decision short-circuit *is* a completed search.
        Some(StopCause::ShortCircuit) | None => SearchStatus::Complete,
    };
    let mut metrics = Metrics::from_workers(workers, elapsed);
    metrics.outstanding_tasks = term.outstanding();
    // Tag the outcome with the scheduler's grant so per-search dashboards
    // (and the disjointness tests) can see what this search actually ran on.
    if let Some(grant) = &lifecycle.grant {
        metrics.search_id = grant.search_id;
        metrics.granted_workers = grant.workers;
        metrics.granted_slots = grant.slots.clone();
        metrics.queue_wait = grant.queue_wait;
        // Elastic grants can change the live worker set mid-run, so the
        // per-worker vec length is scheduling-dependent; report the
        // *granted* count (deterministic) plus the lease-change counters.
        if let Some(core) = &grant.core {
            use crate::sync::Ordering;
            metrics.workers = grant.workers.max(1);
            // ordering: read after every worker joined (the scoped run has
            // returned), so the join supplies the happens-before; the
            // counters themselves are advisory tallies.
            metrics.grant_changes = core.grant_changes.load(Ordering::Relaxed);
            metrics.workers_preempted = core.workers_preempted.load(Ordering::Relaxed);
            // ordering: as above — post-join advisory read.
            metrics.revocation_latency =
                Duration::from_nanos(core.revocation_ns.load(Ordering::Relaxed));
        }
    }
    RunOutput { metrics, status }
}

/// All five coordinations, convenient for "try every skeleton" sweeps such as
/// the Table 2 experiment.  `dcutoff` doubles as the Ordered spawn depth —
/// both bound the eager-spawn region of the tree.
pub fn all_coordinations(dcutoff: usize, budget: u64, chunked: bool) -> Vec<Coordination> {
    vec![
        Coordination::Sequential,
        Coordination::DepthBounded { dcutoff },
        Coordination::StackStealing { chunked },
        Coordination::Budget { backtracks: budget },
        Coordination::Ordered {
            spawn_depth: dcutoff,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::Sum;

    /// An irregular synthetic tree: node value is a state, children shrink.
    struct Irregular {
        depth: usize,
    }

    impl SearchProblem for Irregular {
        type Node = (usize, u64);
        type Gen<'a> = std::vec::IntoIter<(usize, u64)>;
        fn root(&self) -> (usize, u64) {
            (0, 1)
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

    impl Enumerate for Irregular {
        type Value = Sum<u64>;
        fn value(&self, _n: &(usize, u64)) -> Sum<u64> {
            Sum(1)
        }
    }

    impl Optimise for Irregular {
        type Score = u64;
        fn objective(&self, node: &(usize, u64)) -> u64 {
            node.1 % 1000
        }
        fn bound(&self, _node: &(usize, u64)) -> Option<u64> {
            Some(1000)
        }
    }

    impl Decide for Irregular {
        fn target(&self) -> u64 {
            990
        }
    }

    fn reference_count(p: &Irregular) -> u64 {
        crate::node::subtree_size(p, &p.root())
    }

    #[test]
    fn all_skeletons_count_the_same_tree() {
        let p = Irregular { depth: 8 };
        let expected = reference_count(&p);
        for coord in all_coordinations(2, 50, true) {
            let out = Skeleton::new(coord).workers(3).enumerate(&p);
            assert_eq!(
                out.value.0, expected,
                "coordination {coord} returned a wrong count"
            );
            assert_eq!(
                out.metrics.nodes(),
                expected,
                "every node must be processed exactly once"
            );
        }
    }

    #[test]
    fn all_skeletons_agree_on_the_optimum() {
        let p = Irregular { depth: 7 };
        let seq = Skeleton::new(Coordination::Sequential).maximise(&p);
        for coord in all_coordinations(3, 25, false) {
            let out = Skeleton::new(coord).workers(3).maximise(&p);
            assert_eq!(
                out.try_score(),
                seq.try_score(),
                "coordination {coord} found a different optimum"
            );
            assert!(out.status.is_complete());
        }
    }

    #[test]
    fn decision_finds_a_witness_with_every_skeleton() {
        let p = Irregular { depth: 9 };
        for coord in all_coordinations(2, 10, true) {
            let out = Skeleton::new(coord).workers(3).decide(&p);
            if let Some(w) = &out.witness {
                assert!(p.objective(w) >= 990, "witness does not reach the target");
            }
            // The witness existence must agree with the sequential result.
            let seq = Skeleton::new(Coordination::Sequential).decide(&p);
            assert_eq!(
                out.found(),
                seq.found(),
                "coordination {coord} disagrees on decidability"
            );
        }
    }

    /// The sharded-workpool acceptance check: at 8 workers on the synthetic
    /// irregular tree, the pooled coordinations must put the shards to work
    /// (at least one recorded cross-shard steal) while still processing
    /// every node exactly once.
    #[test]
    fn eight_workers_steal_across_shards_and_count_exactly() {
        let p = Irregular { depth: 12 };
        let seq = Skeleton::new(Coordination::Sequential).enumerate(&p);
        for coord in [Coordination::depth_bounded(3), Coordination::budget(40)] {
            let mut steals = 0;
            // Whether thieves win a task is pure OS-scheduling
            // nondeterminism (steal_seed does not influence the pooled
            // coordinations' shard scan); on a fast machine one worker
            // routinely finishes alone, so keep retrying until some run
            // records a steal — each run is a couple of milliseconds.
            for _attempt in 0..50 {
                let out = Skeleton::new(coord).workers(8).enumerate(&p);
                assert_eq!(
                    out.value.0, seq.value.0,
                    "coordination {coord} count diverged"
                );
                assert_eq!(out.metrics.nodes(), seq.metrics.nodes());
                steals += out.metrics.totals.steals;
                if steals > 0 {
                    break;
                }
            }
            assert!(
                steals >= 1,
                "coordination {coord} recorded no steal at 8 workers"
            );
        }
    }

    #[test]
    fn outcome_accessors() {
        let p = Irregular { depth: 4 };
        let out = Skeleton::new(Coordination::Sequential).maximise(&p);
        let node = out.try_node().expect("complete search records the root");
        let score = out.try_score().expect("complete search records the root");
        assert_eq!(p.objective(node), *score);
        assert!(out.status.is_complete());
        let dec = Skeleton::new(Coordination::Sequential).decide(&p);
        assert_eq!(dec.found(), dec.witness.is_some());
        assert!(dec.status.is_complete());
    }

    #[test]
    fn skeleton_builder_clamps_zero_workers() {
        let skel = Skeleton::new(Coordination::depth_bounded(1)).workers(0);
        assert_eq!(skel.config().workers, 1);
    }
}
