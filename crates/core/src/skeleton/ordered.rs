//! Ordered (replicable) search coordination.
//!
//! The four PR-1 coordinations trade search order for load balance: whichever
//! worker is free grabs whatever task the heuristic ranks best *right now*,
//! so the set of expanded nodes varies run to run and worker count to worker
//! count (the paper's §2.1 performance anomalies).  The Ordered coordination
//! instead processes subtrees in **sequential (discrepancy) order** and
//! commits decision short-circuits in that order, making the expanded-node
//! count of a decision search a pure function of the instance — identical
//! across 1, 2, 4, … workers, and identical to the Sequential skeleton.
//!
//! Three mechanisms cooperate:
//!
//! 1. **Sequence-keyed spawning** ([`OrderedSource`] with the
//!    [`spawns_children`](crate::params::Coordination::spawns_children)
//!    rule): the children of every node shallower than the spawn depth
//!    become tasks tagged with their [`SeqKey`] (path of heuristic child
//!    indices).  The tasks live in a global [`OrderedPool`], and every pop
//!    takes the smallest key — so the leftmost (sequential-order) frontier
//!    task is always the next one issued, and the worker holding the
//!    smallest in-flight key plays the role of the pinned sequential worker
//!    at any instant.  With one worker the pop sequence *is* depth-first
//!    preorder.
//! 2. **Speculation with in-order commit**: spare workers run later subtrees
//!    speculatively.  A witness found by a task does **not** stop the search
//!    immediately; it is recorded, and the stop is committed only once every
//!    task with a smaller sequence key has retired without finding an
//!    earlier witness.  Tasks sequentially after the committed witness are
//!    aborted and their partial work is reported as
//!    [`speculative_nodes`](crate::metrics::WorkerMetrics::speculative_nodes)
//!    instead of `nodes` — committed metrics never exceed the Sequential
//!    skeleton's on a decision search.
//! 3. **Deterministic task traces**: a decision search prunes against the
//!    fixed target (never the racy incumbent), so each task's committed
//!    trace — full subtree, pruned, or stopped at its first witness — is a
//!    pure function of the task.  Summing committed traces is therefore
//!    replicable.
//!
//! A fourth mechanism reclaims the cores speculation would otherwise waste:
//!
//! 4. **Key-scoped cancellation**: the moment a pending witness is recorded,
//!    every *queued* task with a later sequence key is purged from the pool,
//!    and the witness key is broadcast so every *in-flight* task with a later
//!    key observes it on its next traversal step (the engine's per-step poll)
//!    and exits with [`Flow::Cancelled`].  Cancelled work is reported via
//!    [`cancelled_tasks`](crate::metrics::WorkerMetrics::cancelled_tasks)
//!    and its partial node count via `speculative_nodes`; the committed
//!    count is untouched because only keys strictly after the pending
//!    witness — which can only move *earlier* — are ever cancelled, and
//!    those are exactly the tasks the commit would discard anyway.
//!
//! The commit rule itself — in-flight keys, witness fold, purge, straggler
//! test, commit readiness and the committed/speculative split — lives in
//! [`CommitLog`], which the virtual-time simulator drives too; this module
//! adds only the locking, the broadcast and the termination accounting.
//!
//! The coordination runs on the same engine worker loop as the other four
//! (so the (expand)/(backtrack)/(prune)/(shortcircuit) rules, spawn
//! accounting, per-step polling, idle back-off and revocation stay
//! identical); it differs only in its source's hooks.  The after-task hook
//! retires each task into the commit log instead of short-circuiting on
//! the spot, the pop skips tasks keyed after a pending witness, and a
//! revoked worker never offloads mid-task.

use crate::sync::{AtomicU64, Mutex, Ordering};
use std::time::Duration;

use crate::engine::{self, Flow, WorkSource};
use crate::lifecycle::Lifecycle;
use crate::metrics::WorkerMetrics;
use crate::node::SearchProblem;
use crate::params::SearchConfig;
use crate::skeleton::driver::Driver;
use crate::termination::Termination;
use crate::trace::{TraceEvent, TraceHandle, Tracer};
use crate::workpool::{CommitLog, KeyArena, OrderedPool, SeqKey, Task};

/// Per-worker state of the ordered source.
pub(crate) struct OrderedLocal {
    /// The worker this state belongs to (commit records are per worker).
    worker: usize,
    /// Flight-recorder handle (`None` when tracing is off).
    trace: Option<TraceHandle>,
    /// The [`OrderedPool`] insertion shard this worker releases through, so
    /// concurrent spawn bursts never contend on one insertion lock.
    shard: usize,
    /// Recycling arena for [`SeqKey`] path allocations: every key this
    /// worker retires (skipped task, replaced `current`) feeds the next
    /// batch of minted child keys.
    arena: KeyArena,
    /// Sequence key of the task this worker is currently executing.
    current: SeqKey,
    /// Child index counter for tasks released by the current task.
    next_child: u32,
    /// Pops that ran ahead of a smaller in-flight key.
    inversions: u64,
    /// Tasks this worker released with a sequence key.
    ordered_spawns: u64,
    /// Speculative tasks this worker reclaimed: queued tasks it purged or
    /// skipped at pop time, plus its own in-flight tasks that exited early.
    cancelled: u64,
    /// The [`CancelSignal`] epoch this worker last synchronised with
    /// (0 = never; the signal starts at epoch 0 = no witness).
    cancel_epoch: u64,
    /// This worker's cached copy of the broadcast witness frontier, valid
    /// for `cancel_epoch`.
    cancel_frontier: Option<SeqKey>,
}

/// The broadcast half of speculation cancellation: the pending witness key,
/// readable with one atomic epoch load on the per-step poll.  Workers cache
/// the frontier in their [`OrderedLocal`] and re-read the mutex-protected key
/// only when the epoch moves, so the commit-critical tasks (the ones the
/// pending witness is waiting on) never contend on a shared lock per node
/// expansion — at worst they cancel one epoch late, which costs a few
/// speculative steps, never correctness.
struct CancelSignal {
    /// Bumped after every frontier move; 0 means no witness broadcast yet.
    epoch: AtomicU64,
    /// The pending witness key.  Only ever moves earlier (it is published
    /// under the commit lock whenever the [`CommitLog`]'s witness moves), so
    /// a key observed as "after the frontier" stays after every later
    /// frontier — cancellation can never hit a task the commit would keep.
    frontier: Mutex<Option<SeqKey>>,
}

impl CancelSignal {
    fn new() -> Self {
        CancelSignal {
            epoch: AtomicU64::new(0),
            frontier: Mutex::new(None),
        }
    }

    /// Publish `key` as the new pending witness.
    fn broadcast(&self, key: &SeqKey) {
        *self.frontier.lock() = Some(key.clone());
        // Bump *after* the frontier is in place: a reader that observes the
        // new epoch is guaranteed to read (at least) this frontier.
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Should the task `local` is executing abandon its subtree?  One atomic
    /// load on the fast path; the frontier mutex is touched only on an epoch
    /// change (i.e. O(witness updates) times per worker, not O(nodes)).
    fn should_cancel(&self, local: &mut OrderedLocal) -> bool {
        let epoch = self.epoch.load(Ordering::Acquire);
        if epoch == 0 {
            return false;
        }
        if local.cancel_epoch != epoch {
            local.cancel_epoch = epoch;
            local.cancel_frontier = self.frontier.lock().clone();
        }
        local
            .cancel_frontier
            .as_ref()
            .is_some_and(|w| local.current > *w)
    }
}

/// Per-task counters the commit log keeps: the worker that ran the task and
/// its private metrics.
type TaskRecord = (usize, WorkerMetrics);

/// The Ordered coordination's work source: a global priority-ordered pool,
/// the in-order [`CommitLog`], and the speculation-cancellation signal.
pub(crate) struct OrderedSource<N> {
    pool: OrderedPool<Task<N>>,
    commit: Mutex<CommitLog<TaskRecord>>,
    cancel: CancelSignal,
    tracer: Tracer,
}

impl<N> OrderedSource<N> {
    pub(crate) fn new(workers: usize, tracer: Tracer) -> Self {
        OrderedSource {
            pool: OrderedPool::with_shards(workers),
            commit: Mutex::new(CommitLog::new()),
            cancel: CancelSignal::new(),
            tracer,
        }
    }

    /// Assemble the final per-worker metrics: committed task records merge
    /// into `nodes`/`prunes`/…, speculative records (sequentially after the
    /// committed witness) surface only as `speculative_nodes`.
    ///
    /// When a witness decided the run and tracing is on, the commit/discard
    /// split is also recorded on the flight recorder's control ring (two
    /// aggregate events, not one per task, so the bounded control ring is
    /// never at risk from large runs).
    fn finalize(&self, base: &mut [WorkerMetrics]) {
        let commit = self.commit.lock();
        let mut committed_nodes = 0u64;
        let mut discarded_nodes = 0u64;
        for (worker, metrics) in commit.committed_records() {
            committed_nodes += metrics.nodes;
            base[*worker].merge(metrics);
        }
        for (worker, metrics) in commit.speculative_records() {
            discarded_nodes += metrics.nodes;
            base[*worker].speculative_nodes += metrics.nodes;
        }
        if self.tracer.enabled() && commit.witness().is_some() {
            self.tracer.control(TraceEvent::SpeculationCommit {
                nodes: committed_nodes,
            });
            if discarded_nodes > 0 {
                self.tracer.control(TraceEvent::SpeculationDiscard {
                    nodes: discarded_nodes,
                });
            }
        }
    }
}

impl<P: SearchProblem> WorkSource<P> for OrderedSource<P::Node> {
    type Local = OrderedLocal;

    /// Ordered workers leave only *between* tasks: offloading a task's
    /// subtree mid-run would mint sequence keys under the wrong parent and
    /// corrupt the replicable commit order.
    const OFFLOADS_ON_REVOKE: bool = false;

    fn register(&self, worker: usize) -> OrderedLocal {
        OrderedLocal {
            worker,
            trace: self.tracer.handle(worker as u32),
            shard: worker % self.pool.shards(),
            arena: KeyArena::new(),
            current: SeqKey::root(),
            next_child: 0,
            inversions: 0,
            ordered_spawns: 0,
            cancelled: 0,
            cancel_epoch: 0,
            cancel_frontier: None,
        }
    }

    fn seed(&self, task: Task<P::Node>) {
        self.pool.push_from(0, SeqKey::root(), task);
    }

    /// Pop the smallest-key task and atomically mark it in flight (the
    /// commit lock spans the pool pop, so the commit check can never observe
    /// a task that is neither queued nor in flight).
    ///
    /// While a witness is pending, tasks keyed after it are skipped instead
    /// of issued: children of committed-side tasks can legitimately land in
    /// the pool *after* the witness purge (a parent's key sorts before the
    /// witness but a child's may sort after), and issuing them would only
    /// create work the commit discards.  Each skip is retired on the spot —
    /// counted in `cancelled_tasks` and drained from the termination
    /// counter.
    fn pop(&self, local: &mut OrderedLocal, term: &Termination) -> Option<Task<P::Node>> {
        let mut commit = self.commit.lock();
        loop {
            let (key, task) = self.pool.pop()?;
            if commit.after_witness(&key) {
                // The task never runs: drain it as discarded, exactly like
                // the purge and commit-clear disposal paths.
                local.cancelled += 1;
                local.arena.recycle(key);
                term.tasks_discarded(1);
                continue;
            }
            if commit.issue(key.clone()) {
                local.inversions += 1;
            }
            let previous = std::mem::replace(&mut local.current, key);
            local.arena.recycle(previous);
            local.next_child = 0;
            return Some(task);
        }
    }

    /// There is no separate steal path: the pool is global and every pop
    /// already takes the globally best (smallest-key) task.
    fn acquire(
        &self,
        _local: &mut OrderedLocal,
        _term: &Termination,
        _metrics: &mut WorkerMetrics,
    ) -> Option<Task<P::Node>> {
        None
    }

    /// Batched release: one generator burst becomes one insertion-shard lock
    /// acquisition, with child keys minted from the worker's recycling
    /// arena instead of fresh per-key allocations.
    fn release(&self, local: &mut OrderedLocal, tasks: &mut Vec<Task<P::Node>>) {
        if tasks.is_empty() {
            return;
        }
        let base = local.next_child;
        local.next_child += tasks.len() as u32;
        local.ordered_spawns += tasks.len() as u64;
        let OrderedLocal {
            shard,
            arena,
            current,
            ..
        } = local;
        self.pool.push_batch_from(
            *shard,
            tasks
                .drain(..)
                .enumerate()
                .map(|(i, task)| (arena.child_of(current, base + i as u32), task)),
        );
    }

    /// The engine's per-step cancellation poll: cancel the executing task as
    /// soon as a broadcast witness key sorts before it.
    fn cancelled(&self, local: &mut OrderedLocal) -> bool {
        self.cancel.should_cancel(local)
    }

    /// Instead of short-circuiting on the spot, retire the task (with its
    /// own counters) into the commit log.  When its witness becomes the
    /// pending one, the log has purged the later-keyed queue; broadcast the
    /// key so in-flight tasks with later keys exit at their next traversal
    /// step.  When the log commits — once every sequentially earlier task
    /// has retired — stop the search and drain the pool.  Aborted tasks
    /// (post-commit `ShortCircuited` flows) always carry keys after the
    /// witness, so the log's fold ignores them.
    fn on_task_end(
        &self,
        local: &mut OrderedLocal,
        flow: Flow,
        task: WorkerMetrics,
        _metrics: &mut WorkerMetrics,
        term: &Termination,
    ) {
        if flow == Flow::Cancelled {
            local.cancelled += 1;
            if let Some(trace) = &local.trace {
                trace.emit(TraceEvent::SpeculationCancel { nodes: task.nodes });
            }
        }
        let mut commit = self.commit.lock();
        let retired = commit.retire(
            &self.pool,
            local.current.clone(),
            (local.worker, task),
            flow == Flow::ShortCircuited,
        );
        if let (Some(purged), Some(witness)) = (retired.purged, commit.witness()) {
            self.cancel.broadcast(witness);
            local.cancelled += purged as u64;
            term.tasks_discarded(purged as u64);
        }
        if retired.committed {
            term.short_circuit();
            term.tasks_discarded(self.pool.clear() as u64);
        }
    }

    /// Stragglers: a post-commit in-flight task may still have released
    /// children after the commit cleared the pool.  Those tasks never run.
    fn discard(&self) -> usize {
        self.pool.clear()
    }

    fn on_exit(&self, local: &mut OrderedLocal, metrics: &mut WorkerMetrics) {
        metrics.priority_inversions += local.inversions;
        metrics.ordered_spawns += local.ordered_spawns;
        metrics.cancelled_tasks += local.cancelled;
    }
}

/// Run the Ordered coordination of `config`, whose spawn depth bounds the
/// eager sequence-keyed spawning exactly like Depth-Bounded's cutoff — the
/// ordering lives in the source, not the spawn rule.  The caller's `term`
/// can be read afterwards: every spawned task is drained —
/// completed, purged, skipped or cleared — even when the commit
/// short-circuits the search.
pub(crate) fn run<P, D>(
    problem: &P,
    driver: &D,
    config: &SearchConfig,
    term: &Termination,
    lifecycle: &Lifecycle,
) -> (Vec<WorkerMetrics>, Duration)
where
    P: SearchProblem,
    D: Driver<P>,
{
    let workers = lifecycle.worker_count(config);
    // Under a runtime grant the dispatcher can lease extra workers onto the
    // live search, so shared structures are sized for every worker id the
    // grant could ever mint, not just the initial count.
    let capacity = lifecycle.worker_capacity(config);
    let source = OrderedSource::new(capacity, lifecycle.tracer.clone());
    let (mut all_metrics, elapsed) = engine::run(
        problem,
        driver,
        workers,
        &source,
        config.coordination,
        term,
        lifecycle,
    );
    source.finalize(&mut all_metrics);
    debug_assert_eq!(
        term.outstanding(),
        0,
        "an ordered run must account for every spawned task"
    );
    (all_metrics, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::Sum;
    use crate::objective::{Decide, Enumerate, Optimise};
    use crate::params::Coordination;
    use crate::skeleton::Skeleton;

    /// Deterministic irregular tree; node = (depth, seed).
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

    #[test]
    fn enumeration_counts_match_sequential_for_various_spawn_depths() {
        let p = Irregular { depth: 8 };
        let expected = crate::node::subtree_size(&p, &p.root());
        for spawn_depth in [0, 1, 3, 100] {
            for workers in [1, 4] {
                let out = Skeleton::new(Coordination::ordered(spawn_depth))
                    .workers(workers)
                    .enumerate(&p);
                assert_eq!(
                    out.value.0, expected,
                    "spawn_depth={spawn_depth} workers={workers}"
                );
                assert_eq!(out.metrics.nodes(), expected);
                assert_eq!(out.metrics.totals.speculative_nodes, 0);
            }
        }
    }

    #[test]
    fn optimisation_agrees_with_sequential() {
        let p = Irregular { depth: 7 };
        let seq = Skeleton::new(Coordination::Sequential).maximise(&p);
        let out = Skeleton::new(Coordination::ordered(3))
            .workers(4)
            .maximise(&p);
        assert_eq!(out.try_score(), seq.try_score());
    }

    #[test]
    fn decision_node_counts_are_replicable_across_worker_counts() {
        let p = Irregular { depth: 9 };
        let seq = Skeleton::new(Coordination::Sequential).decide(&p);
        let reference = Skeleton::new(Coordination::ordered(3))
            .workers(1)
            .decide(&p);
        assert_eq!(reference.found(), seq.found());
        assert_eq!(
            reference.metrics.nodes(),
            seq.metrics.nodes(),
            "one ordered worker must replay the sequential visit order"
        );
        for workers in [2, 4, 8] {
            let out = Skeleton::new(Coordination::ordered(3))
                .workers(workers)
                .decide(&p);
            assert_eq!(out.found(), seq.found(), "workers={workers}");
            assert_eq!(
                out.metrics.nodes(),
                reference.metrics.nodes(),
                "committed node count diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn single_worker_never_records_a_priority_inversion() {
        let p = Irregular { depth: 7 };
        let out = Skeleton::new(Coordination::ordered(2))
            .workers(1)
            .enumerate(&p);
        assert_eq!(out.metrics.totals.priority_inversions, 0);
        assert!(
            out.metrics.totals.ordered_spawns > 0,
            "spawn_depth 2 must create keyed tasks"
        );
        assert_eq!(
            out.metrics.totals.ordered_spawns,
            out.metrics.spawns(),
            "with no discarded work the two spawn counters coincide"
        );
    }

    #[test]
    fn spawn_depth_zero_degenerates_to_a_single_task() {
        let p = Irregular { depth: 6 };
        let expected = crate::node::subtree_size(&p, &p.root());
        let out = Skeleton::new(Coordination::ordered(0))
            .workers(3)
            .enumerate(&p);
        assert_eq!(out.value.0, expected);
        assert_eq!(out.metrics.spawns(), 0);
        assert_eq!(out.metrics.totals.ordered_spawns, 0);
    }

    /// Force speculation: the decision witness sits near the top of the
    /// *second* subtree, so the sequential prefix (the whole first subtree,
    /// ~30k nodes) keeps the commit frontier busy long enough for spare
    /// workers to expand later tasks that the commit then discards.  The
    /// committed count must stay put while the discarded work shows up in
    /// `speculative_nodes`.
    struct LeftWitness;

    impl SearchProblem for LeftWitness {
        type Node = Vec<u32>;
        type Gen<'a> = std::vec::IntoIter<Vec<u32>>;
        fn root(&self) -> Vec<u32> {
            Vec::new()
        }
        fn generator(&self, node: &Vec<u32>) -> Self::Gen<'_> {
            if node.len() >= 10 {
                return vec![].into_iter();
            }
            (0..3u32)
                .map(|i| {
                    let mut child = node.clone();
                    child.push(i);
                    child
                })
                .collect::<Vec<_>>()
                .into_iter()
        }
    }

    impl Optimise for LeftWitness {
        type Score = u64;
        fn objective(&self, node: &Vec<u32>) -> u64 {
            // Only the path 1.0.0.0.0.0.0 reaches the target.
            if node.len() == 7 && node[0] == 1 && node[1..].iter().all(|&i| i == 0) {
                100
            } else {
                0
            }
        }
    }

    impl Decide for LeftWitness {
        fn target(&self) -> u64 {
            100
        }
    }

    /// [`LeftWitness`] with the commit-critical task held back: expanding
    /// ⟨1.0⟩, the task that finds the witness, waits until a task keyed after
    /// it has expanded a node.  Needs at least two workers (the wait gives up
    /// after ten seconds rather than hang a lone worker).
    #[derive(Default)]
    struct HeldWitness {
        speculated: (std::sync::Mutex<bool>, std::sync::Condvar),
    }

    impl SearchProblem for HeldWitness {
        type Node = Vec<u32>;
        type Gen<'a> = std::vec::IntoIter<Vec<u32>>;
        fn root(&self) -> Vec<u32> {
            LeftWitness.root()
        }
        fn generator(&self, node: &Vec<u32>) -> Self::Gen<'_> {
            let (flag, cvar) = &self.speculated;
            if node.as_slice() == [1, 0] {
                let held = flag.lock().unwrap();
                let _released = cvar
                    .wait_timeout_while(held, Duration::from_secs(10), |speculated| !*speculated)
                    .unwrap();
            } else if node.as_slice() > [1, 0].as_slice() && !node.starts_with(&[1, 0]) {
                *flag.lock().unwrap() = true;
                cvar.notify_all();
            }
            LeftWitness.generator(node)
        }
    }

    impl Optimise for HeldWitness {
        type Score = u64;
        fn objective(&self, node: &Vec<u32>) -> u64 {
            LeftWitness.objective(node)
        }
    }

    impl Decide for HeldWitness {
        fn target(&self) -> u64 {
            LeftWitness.target()
        }
    }

    #[test]
    fn speculative_work_is_reported_but_never_committed() {
        let seq = Skeleton::new(Coordination::Sequential).decide(&LeftWitness);
        assert!(seq.found());
        let reference = seq.metrics.nodes();
        for workers in [1, 4, 8] {
            let out = Skeleton::new(Coordination::ordered(2))
                .workers(workers)
                .decide(&LeftWitness);
            assert!(out.found(), "workers={workers}");
            assert_eq!(
                out.metrics.nodes(),
                reference,
                "committed nodes must equal the sequential count at {workers} workers"
            );
            if workers == 1 {
                assert_eq!(out.metrics.totals.speculative_nodes, 0);
            }
        }
        // Speculation is forced, not left to the OS scheduler: the witness
        // task is held until a later-keyed task has expanded a node, and a
        // task keyed after the witness is speculative however far it got
        // before the cancellation broadcast reached it.
        let out = Skeleton::new(Coordination::ordered(2))
            .workers(8)
            .decide(&HeldWitness::default());
        assert_eq!(out.metrics.nodes(), reference);
        let saw_speculation = out.metrics.totals.speculative_nodes > 0;
        assert!(
            saw_speculation,
            "8-worker runs of a left-witness tree must have speculated"
        );
    }

    /// Regression: the commit path clears the workpool, and every
    /// cleared/purged task must still drain the outstanding-task counter —
    /// otherwise `all_done()` stays false forever and only the stop flag
    /// masks the leak.
    #[test]
    fn short_circuited_run_drains_the_outstanding_counter() {
        use crate::skeleton::driver::DecideDriver;
        for workers in [1usize, 4, 8] {
            let driver = DecideDriver::<LeftWitness>::new(100);
            let term = Termination::new(1);
            let config = SearchConfig {
                coordination: Coordination::ordered(2),
                workers,
                ..SearchConfig::default()
            };
            let (_metrics, _elapsed) =
                run(&LeftWitness, &driver, &config, &term, &Lifecycle::inert());
            assert_eq!(
                term.outstanding(),
                0,
                "workers={workers}: purged tasks leaked"
            );
            assert!(
                term.all_done(),
                "workers={workers}: all_done must not be masked by the stop flag"
            );
            assert!(term.short_circuited());
        }
    }

    /// Cancellation preserves committed node counts at every worker count,
    /// and a contended run reclaims speculative tasks (`cancelled_tasks > 0`).
    #[test]
    fn cancellation_preserves_committed_counts_and_reclaims_speculation() {
        let seq = Skeleton::new(Coordination::Sequential).decide(&LeftWitness);
        let reference = seq.metrics.nodes();
        for workers in [1usize, 2, 4, 8] {
            let out = Skeleton::new(Coordination::ordered(2))
                .workers(workers)
                .decide(&LeftWitness);
            assert!(out.found(), "workers={workers}");
            assert_eq!(
                out.metrics.nodes(),
                reference,
                "workers={workers}: committed count diverged"
            );
            if workers == 1 {
                // A single worker runs strictly in preorder, so nothing
                // speculative ever *executes* — purged queued tasks may
                // still be counted as cancelled, but they carry no work.
                assert_eq!(
                    out.metrics.totals.speculative_nodes, 0,
                    "one worker must not record speculative work"
                );
            }
        }
        // Whether spare workers start speculative tasks before the witness
        // is OS-scheduling nondeterminism; retry a few runs before declaring
        // that cancellation never fires.
        let mut saw_cancellation = false;
        for _attempt in 0..5 {
            let out = Skeleton::new(Coordination::ordered(2))
                .workers(8)
                .decide(&LeftWitness);
            assert_eq!(out.metrics.nodes(), reference);
            if out.metrics.totals.cancelled_tasks > 0 {
                saw_cancellation = true;
                break;
            }
        }
        assert!(
            saw_cancellation,
            "8-worker left-witness runs must reclaim some speculation"
        );
    }

    /// Enumeration never records a witness, so the cancel signal must stay
    /// inert: no cancellations, no speculative nodes, exact counts.
    #[test]
    fn cancellation_is_inert_without_a_witness() {
        let p = Irregular { depth: 8 };
        let expected = crate::node::subtree_size(&p, &p.root());
        let out = Skeleton::new(Coordination::ordered(3))
            .workers(4)
            .enumerate(&p);
        assert_eq!(out.value.0, expected);
        assert_eq!(out.metrics.totals.cancelled_tasks, 0);
        assert_eq!(out.metrics.totals.speculative_nodes, 0);
    }

    #[test]
    #[should_panic(expected = "a search worker panicked")]
    fn multi_worker_panic_is_reraised() {
        struct Bomb;
        impl SearchProblem for Bomb {
            type Node = u32;
            type Gen<'a> = std::vec::IntoIter<u32>;
            fn root(&self) -> u32 {
                0
            }
            fn generator(&self, node: &u32) -> Self::Gen<'_> {
                match *node {
                    0 => (1..=8).collect::<Vec<_>>().into_iter(),
                    5 => panic!("poisoned subtree"),
                    _ => vec![].into_iter(),
                }
            }
        }
        impl Enumerate for Bomb {
            type Value = Sum<u64>;
            fn value(&self, _n: &u32) -> Sum<u64> {
                Sum(1)
            }
        }
        let _ = Skeleton::new(Coordination::ordered(1))
            .workers(4)
            .enumerate(&Bomb);
    }
}
