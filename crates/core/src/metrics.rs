//! Search execution metrics.
//!
//! Every skeleton execution returns a [`Metrics`] value aggregating
//! per-worker counters: nodes processed, prunes, backtracks, spawned tasks,
//! steals, and the elapsed wall-clock time.  The benchmark harnesses use
//! these to report workload statistics next to runtimes (useful because the
//! paper's performance anomalies — §2.1 — manifest as changes in *work*
//! rather than pure scheduling effects).

use std::time::Duration;

/// Counters collected by a single worker during a search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Nodes processed (the (accumulate)/(strengthen)/(skip) rules).
    pub nodes: u64,
    /// Subtrees pruned by the bound function (the (prune) rule).
    pub prunes: u64,
    /// Backtracks performed (the (backtrack) rule).
    pub backtracks: u64,
    /// Tasks spawned into a workpool or handed to a thief.
    pub spawns: u64,
    /// Successful steals (tasks obtained from a victim or remote pool).
    pub steals: u64,
    /// Steal attempts that returned no work.
    pub failed_steals: u64,
    /// Number of times this worker updated the global incumbent.
    pub incumbent_updates: u64,
    /// Deepest depth reached.
    pub max_depth: u64,
    /// Tasks spawned with a sequence key into the ordered workpool (Ordered
    /// coordination only).
    pub ordered_spawns: u64,
    /// Ordered pops that ran ahead of the sequential frontier: the popped
    /// task's sequence key was greater than that of a task still in flight.
    /// Zero on a single worker; quantifies speculation under parallelism.
    pub priority_inversions: u64,
    /// Nodes expanded speculatively by the Ordered coordination but discarded
    /// at commit time (their task was sequentially after the committed
    /// decision witness).  Excluded from `nodes`, which therefore stays
    /// replicable across worker counts.
    pub speculative_nodes: u64,
    /// Speculative tasks reclaimed by the Ordered coordination's cancellation
    /// signal: queued tasks purged when a pending witness was recorded,
    /// post-witness tasks skipped at pop time, and in-flight tasks that
    /// observed the broadcast witness key mid-traversal and exited early
    /// (their partial work lands in `speculative_nodes`).  Zero when
    /// cancellation is disabled or no witness is ever recorded; never affects
    /// the committed `nodes` count.
    pub cancelled_tasks: u64,
    /// Workpool lock acquisitions attributed to this worker (pushes, pops,
    /// steals and their batched variants — one count per locked pool
    /// operation, relaxed).  The batching PR's headline diagnostic: with
    /// batched spawn/pop paths this should grow far slower than `nodes`.
    /// Counted in both the threaded engine and the simulator (where it
    /// counts simulated pool operations).
    pub lock_acquisitions: u64,
    /// Non-empty batched releases: generator bursts handed to the workpool
    /// in a single operation.  `spawns / batch_pushes` is the realised
    /// amortisation factor.
    pub batch_pushes: u64,
    /// Stride-gated lifecycle poll checks actually performed (cancel-token +
    /// deadline evaluations).  With the adaptive stride this should be a
    /// small fraction of `nodes`; a regression here means the poll gate is
    /// back on the per-node path.
    pub poll_checks: u64,
}

impl WorkerMetrics {
    /// Merge another worker's counters into this one.
    pub fn merge(&mut self, other: &WorkerMetrics) {
        self.nodes += other.nodes;
        self.prunes += other.prunes;
        self.backtracks += other.backtracks;
        self.spawns += other.spawns;
        self.steals += other.steals;
        self.failed_steals += other.failed_steals;
        self.incumbent_updates += other.incumbent_updates;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.ordered_spawns += other.ordered_spawns;
        self.priority_inversions += other.priority_inversions;
        self.speculative_nodes += other.speculative_nodes;
        self.cancelled_tasks += other.cancelled_tasks;
        self.lock_acquisitions += other.lock_acquisitions;
        self.batch_pushes += other.batch_pushes;
        self.poll_checks += other.poll_checks;
    }
}

/// Aggregated metrics for a whole skeleton execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Sum (max for `max_depth`) of all per-worker counters.
    pub totals: WorkerMetrics,
    /// The individual per-worker counters, indexed by worker id.
    pub per_worker: Vec<WorkerMetrics>,
    /// Wall-clock duration of the search (excludes problem construction).
    pub elapsed: Duration,
    /// Number of workers used.
    pub workers: usize,
    /// The termination counter's outstanding-task count observed after the
    /// run.  Zero on every clean exit — completed, short-circuited,
    /// cancelled or timed out — because every spawned task is accounted
    /// exactly once (completed, discarded or drained).  A non-zero value
    /// would indicate a task-accounting leak; the failure-mode tests assert
    /// on it.
    pub outstanding_tasks: u64,
    /// Runtime-unique id of the search when it ran as a
    /// [`Runtime`](crate::runtime::Runtime) submission (matches
    /// [`SearchHandle::id`](crate::runtime::SearchHandle::id)); 0 for the
    /// blocking facade.
    pub search_id: u64,
    /// The worker count the scheduler granted at dispatch time.  For a
    /// runtime submission this is the policy's grant (which may be less
    /// than the requested `SearchConfig::workers` under
    /// [`FairShare`](crate::schedule::FairShare)); for the blocking facade
    /// it equals [`workers`](Metrics::workers).
    pub granted_workers: usize,
    /// The pool-thread slots leased to this search — **disjoint** between
    /// concurrently multiplexed searches, which is exactly what the
    /// scheduler-matrix tests assert.  Empty for the blocking facade and
    /// for single-worker grants (worker 0 runs on the driver thread, not a
    /// pool thread).
    pub granted_slots: Vec<usize>,
    /// Time the submission waited in the runtime's queue before its grant,
    /// measured on the **dispatcher's** clock (receipt → grant), so it is
    /// comparable across submitters.  Zero for the blocking facade.
    pub queue_wait: Duration,
    /// Times this search's lease was renegotiated after dispatch: one count
    /// per executed [`Grow`](crate::schedule::Adjustment::Grow) or
    /// [`Shrink`](crate::schedule::Adjustment::Shrink).  Zero under
    /// [`Fifo`](crate::schedule::Fifo) and for the blocking facade.
    pub grant_changes: u64,
    /// Workers this search gave back under cooperative revocation
    /// (acknowledged `Shrink` requests, including those issued on the way
    /// to a [`Preempt`](crate::schedule::Adjustment::Preempt)).
    pub workers_preempted: u64,
    /// Total revocation latency: the sum over acknowledged revocations of
    /// request → worker-departure time.  Divide by
    /// [`workers_preempted`](Metrics::workers_preempted) for the mean; the
    /// `components/elastic_regrant` bench tracks this against the
    /// lifecycle poll stride.
    pub revocation_latency: Duration,
}

impl Metrics {
    /// Build aggregate metrics from per-worker counters.
    pub fn from_workers(per_worker: Vec<WorkerMetrics>, elapsed: Duration) -> Self {
        let mut totals = WorkerMetrics::default();
        for w in &per_worker {
            totals.merge(w);
        }
        Metrics {
            granted_workers: per_worker.len(),
            workers: per_worker.len(),
            totals,
            per_worker,
            elapsed,
            outstanding_tasks: 0,
            search_id: 0,
            granted_slots: Vec::new(),
            queue_wait: Duration::ZERO,
            grant_changes: 0,
            workers_preempted: 0,
            revocation_latency: Duration::ZERO,
        }
    }

    /// Total nodes processed across all workers.
    pub fn nodes(&self) -> u64 {
        self.totals.nodes
    }

    /// Total tasks spawned across all workers.
    pub fn spawns(&self) -> u64 {
        self.totals.spawns
    }

    /// Nodes processed per second of wall-clock time (0 if instantaneous).
    pub fn node_throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.totals.nodes as f64 / secs
        } else {
            0.0
        }
    }

    /// Sum of every count-like counter a worker accumulated — its total
    /// recorded *activity*, whether productive (nodes, spawns) or not
    /// (failed steals, poll checks).  `max_depth` is a high-water mark, not
    /// a count, and is excluded.
    fn activity(w: &WorkerMetrics) -> u64 {
        w.nodes
            + w.prunes
            + w.backtracks
            + w.spawns
            + w.steals
            + w.failed_steals
            + w.incumbent_updates
            + w.ordered_spawns
            + w.priority_inversions
            + w.speculative_nodes
            + w.cancelled_tasks
            + w.lock_acquisitions
            + w.batch_pushes
            + w.poll_checks
    }

    /// A crude load-balance indicator: ratio of the busiest worker's
    /// *activity* (the sum of all its count-like counters, not just
    /// `nodes`) to the mean activity (1.0 = perfectly balanced).  Falling
    /// back over every counter means a worker that spent the run stealing
    /// and failing no longer reads as perfectly idle.  For a time-resolved
    /// variant fed by the trace clock instead of counters, see
    /// [`trace::analyze::busy_time_imbalance`](crate::trace::analyze::busy_time_imbalance).
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.per_worker.iter().map(Self::activity).sum();
        if self.per_worker.is_empty() || total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.per_worker.len() as f64;
        let max = self
            .per_worker
            .iter()
            .map(Self::activity)
            .max()
            .unwrap_or(0) as f64;
        max / mean
    }
}

/// A snapshot of a [`Runtime`](crate::runtime::Runtime)'s pool-wide
/// scheduler gauges (see [`Runtime::stats`](crate::runtime::Runtime::stats)).
/// Counters are cumulative since the runtime started; gauges reflect the
/// instant of the snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Searches currently running (granted workers, not yet finished).
    pub active_searches: usize,
    /// High-water mark of `active_searches` — >1 proves searches were
    /// actually multiplexed.
    pub peak_active_searches: usize,
    /// Workers currently leased out across all active searches.
    pub granted_workers: usize,
    /// Submissions waiting in the queue for a grant.
    pub queued_searches: usize,
    /// Searches that finished (including cancelled / timed-out / panicked).
    pub completed_searches: u64,
    /// Sum of every granted search's queue wait (dispatcher clock); divide
    /// by [`completed_searches`](RuntimeStats::completed_searches) for the
    /// mean.
    pub total_queue_wait: Duration,
    /// Executed lease renegotiations across all searches (one per `Grow`
    /// or `Shrink` adjustment the dispatcher carried out).  Stays zero
    /// under [`Fifo`](crate::schedule::Fifo).
    pub grant_changes: u64,
    /// Workers reclaimed through acknowledged cooperative revocations
    /// across all searches (preempted searches return their remaining
    /// lease through the normal finish path instead).
    pub workers_preempted: u64,
    /// Sum of request → acknowledgement latency over every revocation the
    /// pool has executed; divide by
    /// [`workers_preempted`](RuntimeStats::workers_preempted) for the mean.
    pub revocation_latency: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(nodes: u64, prunes: u64, max_depth: u64) -> WorkerMetrics {
        WorkerMetrics {
            nodes,
            prunes,
            max_depth,
            ..WorkerMetrics::default()
        }
    }

    #[test]
    fn merge_sums_counts_and_maxes_depth() {
        let mut a = worker(10, 2, 5);
        a.merge(&worker(7, 1, 9));
        assert_eq!(a.nodes, 17);
        assert_eq!(a.prunes, 3);
        assert_eq!(a.max_depth, 9);
    }

    #[test]
    fn merge_sums_ordered_counters() {
        let mut a = WorkerMetrics {
            ordered_spawns: 3,
            priority_inversions: 1,
            speculative_nodes: 10,
            cancelled_tasks: 2,
            ..WorkerMetrics::default()
        };
        a.merge(&WorkerMetrics {
            ordered_spawns: 4,
            priority_inversions: 2,
            speculative_nodes: 5,
            cancelled_tasks: 1,
            ..WorkerMetrics::default()
        });
        assert_eq!(a.ordered_spawns, 7);
        assert_eq!(a.priority_inversions, 3);
        assert_eq!(a.speculative_nodes, 15);
        assert_eq!(a.cancelled_tasks, 3);
    }

    #[test]
    fn merge_sums_hot_path_counters() {
        let mut a = WorkerMetrics {
            lock_acquisitions: 5,
            batch_pushes: 2,
            poll_checks: 7,
            ..WorkerMetrics::default()
        };
        a.merge(&WorkerMetrics {
            lock_acquisitions: 3,
            batch_pushes: 1,
            poll_checks: 4,
            ..WorkerMetrics::default()
        });
        assert_eq!(a.lock_acquisitions, 8);
        assert_eq!(a.batch_pushes, 3);
        assert_eq!(a.poll_checks, 11);
    }

    #[test]
    fn from_workers_aggregates() {
        let m = Metrics::from_workers(
            vec![worker(4, 0, 2), worker(6, 1, 3)],
            Duration::from_millis(10),
        );
        assert_eq!(m.workers, 2);
        assert_eq!(m.nodes(), 10);
        assert_eq!(m.totals.prunes, 1);
        assert_eq!(m.totals.max_depth, 3);
        assert!(m.node_throughput() > 0.0);
    }

    #[test]
    fn imbalance_of_balanced_workers_is_one() {
        let m = Metrics::from_workers(
            vec![worker(5, 0, 1), worker(5, 0, 1)],
            Duration::from_millis(1),
        );
        assert!((m.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_detects_skew() {
        let m = Metrics::from_workers(
            vec![worker(10, 0, 1), worker(0, 0, 0)],
            Duration::from_millis(1),
        );
        assert!((m.imbalance() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_counts_unproductive_activity_too() {
        // A worker that spent the whole run stealing-and-failing used to
        // read as perfectly idle (imbalance 2.0 on two workers); with the
        // all-counter fallback the pair reads balanced.
        let thief = WorkerMetrics {
            failed_steals: 10,
            ..WorkerMetrics::default()
        };
        let m = Metrics::from_workers(vec![worker(10, 0, 1), thief], Duration::from_millis(1));
        assert!(
            (m.imbalance() - 1.0).abs() < 1e-9,
            "equal activity must read balanced, got {}",
            m.imbalance()
        );
    }

    #[test]
    fn empty_metrics_are_sane() {
        let m = Metrics::default();
        assert_eq!(m.nodes(), 0);
        assert_eq!(m.node_throughput(), 0.0);
        assert_eq!(m.imbalance(), 1.0);
    }
}
