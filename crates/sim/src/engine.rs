//! The discrete-event simulation engine.
//!
//! Workers are advanced one search step at a time in virtual-time order.
//! Every step charges its cost to the worker's clock; the simulation ends
//! when every spawned task has been fully explored (or a decision search
//! short-circuits), and the makespan is the virtual time of that moment.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use yewpar::genstack::GenStack;
use yewpar::monoid::Monoid;
use yewpar::objective::PruneLevel;
use yewpar::params::Coordination;
use yewpar::trace::{TraceEvent, TraceRecord, CONTROL_WORKER, UNKNOWN_VICTIM};
use yewpar::workpool::{
    CommitLog, DepthPool, OrderedPool, Retired, SeqKey, Task, POP_BATCH, STEAL_BATCH,
};
use yewpar::{Decide, Enumerate, Optimise, SearchProblem, SearchStatus};

/// Virtual-time costs of the simulated operations, in abstract "ticks".
///
/// The defaults approximate a cluster where a node expansion costs ~1µs
/// (100 ticks), an intra-locality steal tens of microseconds, a remote steal
/// or an incumbent broadcast ~100µs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of processing (expanding) one search-tree node.
    pub node_cost: u64,
    /// Cost of pushing one task into a workpool (covers the pool lock plus
    /// the first task of a batch).
    pub spawn_cost: u64,
    /// Marginal cost of each *additional* task in a batched pool operation:
    /// a burst of `n` spawns costs `spawn_cost + batch_task_cost × (n-1)`
    /// instead of `spawn_cost × n`, mirroring the threaded engine's batched
    /// release (one lock acquisition per generator burst).
    pub batch_task_cost: u64,
    /// Cost of popping a task from the local workpool.
    pub pop_cost: u64,
    /// Latency of obtaining work from another worker/pool in the same locality.
    pub local_steal_latency: u64,
    /// Latency of obtaining work from a remote locality.
    pub remote_steal_latency: u64,
    /// Delay before an improved incumbent becomes visible at other localities.
    pub bound_broadcast_latency: u64,
    /// Re-poll interval of an idle worker that found no work anywhere.
    pub idle_poll: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            node_cost: 100,
            spawn_cost: 20,
            batch_task_cost: 5,
            pop_cost: 20,
            local_steal_latency: 500,
            remote_steal_latency: 10_000,
            bound_broadcast_latency: 20_000,
            idle_poll: 200,
        }
    }
}

impl CostModel {
    /// Virtual time of one batched pool push of `n` tasks: the full
    /// [`spawn_cost`](CostModel::spawn_cost) buys the lock and the first
    /// task, each further task pays only the marginal
    /// [`batch_task_cost`](CostModel::batch_task_cost).  Zero for an empty
    /// batch (no pool operation happens).
    pub fn batched_spawn_cost(&self, n: usize) -> u64 {
        match n {
            0 => 0,
            n => self.spawn_cost + self.batch_task_cost * (n as u64 - 1),
        }
    }
}

/// Configuration of one simulated execution.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of localities (physical machines in the paper's terminology).
    pub localities: usize,
    /// Search workers per locality (the paper uses 15 on 16-core nodes).
    pub workers_per_locality: usize,
    /// The search coordination to simulate.
    pub coordination: Coordination,
    /// Virtual-time cost model.
    pub costs: CostModel,
    /// Seed for randomised victim selection.
    pub seed: u64,
    /// Virtual-time deadline in ticks, mirroring the threaded engine's
    /// `SearchConfig::deadline`: the simulation stops at the first event at
    /// or past this virtual time, reports
    /// [`SearchStatus::DeadlineExceeded`], and returns the partial result
    /// accumulated so far (anytime semantics).  With the default
    /// [`CostModel`] (~100 ticks per expanded node ≈ 1 µs), one millisecond
    /// is 100 000 ticks.  `None` (the default) runs to completion.  There
    /// is no simulated cancel token — external cancellation is an
    /// asynchronous wall-clock phenomenon with no virtual-time analogue.
    pub deadline_ticks: Option<u64>,
    /// Record flight-recorder events (the same
    /// [`yewpar::trace::TraceEvent`] vocabulary as the threaded
    /// engine, stamped with *virtual* ticks instead of nanoseconds) into
    /// [`SimOutcome::trace`].  Recording never charges virtual time: a
    /// traced run has exactly the same makespan and counters as an untraced
    /// one.  Off by default.
    pub trace: bool,
}

impl SimConfig {
    /// A convenience constructor: `localities × workers_per_locality` workers
    /// with default costs.
    pub fn new(coordination: Coordination, localities: usize, workers_per_locality: usize) -> Self {
        SimConfig {
            localities: localities.max(1),
            workers_per_locality: workers_per_locality.max(1),
            coordination,
            costs: CostModel::default(),
            seed: 0xF1_6004,
            deadline_ticks: None,
            trace: false,
        }
    }

    /// Total number of simulated workers.
    pub fn workers(&self) -> usize {
        self.localities * self.workers_per_locality
    }
}

/// Result of a simulated execution.
#[derive(Debug, Clone)]
pub struct SimOutcome<R> {
    /// The search result (identical to what the threaded skeletons return).
    pub result: R,
    /// Virtual completion time.
    pub makespan: u64,
    /// Total node-processing work performed (ticks, summed over workers).
    pub total_work: u64,
    /// Nodes processed.
    pub nodes: u64,
    /// Subtrees pruned.
    pub prunes: u64,
    /// Tasks spawned into pools or stolen.
    pub spawns: u64,
    /// Successful steals (remote or local).
    pub steals: u64,
    /// Tasks spawned with a sequence key (Ordered coordination only).
    pub ordered_spawns: u64,
    /// Ordered pops that ran ahead of the sequential frontier (a smaller
    /// sequence key was still in flight when the pop happened).
    pub priority_inversions: u64,
    /// Nodes expanded by Ordered tasks sequentially after the committed
    /// decision witness — discarded at commit time and excluded from
    /// `nodes`, which therefore stays replicable across worker counts.
    pub speculative_nodes: u64,
    /// Ordered speculative tasks reclaimed by the cancellation signal
    /// (queued purges, skipped stragglers and in-flight early exits).  Zero
    /// when no witness is recorded.
    pub cancelled_tasks: u64,
    /// Simulated workpool lock acquisitions: one per pool operation (a
    /// push or pop, batched or not — a whole batch counts once).  The
    /// virtual mirror of `WorkerMetrics::lock_acquisitions`; with batching
    /// this grows far slower than `nodes`.
    pub lock_acquisitions: u64,
    /// Non-empty batched releases (generator bursts handed to a pool in one
    /// operation).  `spawns / batch_pushes` is the realised amortisation
    /// factor, mirroring `WorkerMetrics::batch_pushes`.
    pub batch_pushes: u64,
    /// Deadline evaluations performed (one per scheduled event), the
    /// virtual analogue of `WorkerMetrics::poll_checks`.
    pub poll_checks: u64,
    /// Number of workers simulated.
    pub workers: usize,
    /// How the simulated search ended: [`SearchStatus::Complete`], or
    /// [`SearchStatus::DeadlineExceeded`] when
    /// [`SimConfig::deadline_ticks`] expired first (the result is then the
    /// partial anytime answer).
    pub status: SearchStatus,
    /// Virtual ticks the search spent queued before the scheduler granted
    /// it workers.  Zero for a directly simulated search; set by
    /// [`simulate_multiplexed`](crate::multiplex::simulate_multiplexed),
    /// which records it from the virtual scheduler's clock — the mirror of
    /// the threaded runtime's dispatcher-recorded `Metrics::queue_wait`.
    pub queue_wait_ticks: u64,
    /// The worker count the scheduler granted (equals
    /// [`workers`](SimOutcome::workers) for a directly simulated search;
    /// under a multiplexed `FairShare` schedule it may be less than the
    /// submission requested).
    pub granted_workers: usize,
    /// Flight-recorder events captured during the run (empty unless
    /// [`SimConfig::trace`] was set).  Timestamps are virtual ticks on the
    /// same clock as [`makespan`](SimOutcome::makespan), so the records
    /// feed directly into [`yewpar::trace::analyze`] and the
    /// [`yewpar::trace::sink`] exporters alongside threaded traces.
    pub trace: Vec<TraceRecord>,
}

impl<R> SimOutcome<R> {
    /// Parallel efficiency: node work divided by `makespan × workers`.
    pub fn efficiency(&self) -> f64 {
        if self.makespan == 0 || self.workers == 0 {
            return 1.0;
        }
        self.total_work as f64 / (self.makespan as f64 * self.workers as f64)
    }

    /// Speedup relative to a reference makespan (usually the 1-worker run).
    pub fn speedup_vs(&self, reference_makespan: u64) -> f64 {
        if self.makespan == 0 {
            return 1.0;
        }
        reference_makespan as f64 / self.makespan as f64
    }
}

/// What the driver wants the traversal to do after processing a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Expand,
    Prune,
    PruneSiblings,
    ShortCircuit,
}

/// Single-threaded search-type driver with locality-aware knowledge.
trait SimDriver<P: SearchProblem> {
    fn process(&mut self, problem: &P, node: &P::Node, locality: usize, now: u64) -> Action;

    /// Ordered coordination only: the commit log did not adopt the witness
    /// the last [`process`](Self::process) call reported — its task sorts
    /// after the pending witness — so decision drivers go back to reporting
    /// the previous one, keeping the *sequentially first* witness rather
    /// than the temporally last.  Never called by any other coordination,
    /// which stops at the first witness found.
    fn reject_witness(&mut self) {}
}

/// Enumeration: accumulate the monoid; knowledge is purely local.
struct EnumSimDriver<P: Enumerate> {
    acc: P::Value,
}

impl<P: Enumerate> SimDriver<P> for EnumSimDriver<P> {
    fn process(&mut self, problem: &P, node: &P::Node, _locality: usize, _now: u64) -> Action {
        let acc = std::mem::replace(&mut self.acc, P::Value::empty());
        self.acc = acc.combine(problem.value(node));
        Action::Expand
    }
}

/// A recorded incumbent improvement: other localities see it only after the
/// broadcast latency has elapsed.
struct BoundUpdate<S> {
    score: S,
    origin: usize,
    visible_elsewhere_at: u64,
}

/// Optimisation: strengthen a global incumbent, prune against the *visible*
/// bound of the worker's locality (stale bounds lose pruning, not correctness).
struct OptimSimDriver<P: Optimise> {
    best: Option<(P::Score, P::Node)>,
    updates: Vec<BoundUpdate<P::Score>>,
    broadcast_latency: u64,
}

impl<P: Optimise> OptimSimDriver<P> {
    fn new(broadcast_latency: u64) -> Self {
        OptimSimDriver {
            best: None,
            updates: Vec::new(),
            broadcast_latency,
        }
    }

    /// The best score visible from `locality` at time `now`.
    fn visible_bound(&self, locality: usize, now: u64) -> Option<&P::Score> {
        self.updates
            .iter()
            .filter(|u| u.origin == locality || u.visible_elsewhere_at <= now)
            .map(|u| &u.score)
            .max()
    }

    fn strengthen(&mut self, score: P::Score, node: &P::Node, locality: usize, now: u64) {
        let improves = match &self.best {
            Some((best, _)) => score > *best,
            None => true,
        };
        if improves {
            self.best = Some((score.clone(), node.clone()));
            self.updates.push(BoundUpdate {
                score,
                origin: locality,
                visible_elsewhere_at: now + self.broadcast_latency,
            });
        }
    }
}

impl<P: Optimise> SimDriver<P> for OptimSimDriver<P> {
    fn process(&mut self, problem: &P, node: &P::Node, locality: usize, now: u64) -> Action {
        let score = problem.objective(node);
        self.strengthen(score, node, locality, now);
        if let Some(bound) = problem.bound(node) {
            if let Some(best) = self.visible_bound(locality, now) {
                if bound <= *best {
                    return match problem.prune_level() {
                        PruneLevel::Node => Action::Prune,
                        PruneLevel::Siblings => Action::PruneSiblings,
                    };
                }
            }
        }
        Action::Expand
    }
}

/// Decision: optimisation plus a short-circuit at the target.
struct DecideSimDriver<P: Decide> {
    inner: OptimSimDriver<P>,
    target: P::Score,
    witness: Option<P::Node>,
    /// The witness the latest one replaced, restored by
    /// [`reject_witness`](SimDriver::reject_witness) (Ordered only).
    replaced: Option<P::Node>,
}

impl<P: Decide> SimDriver<P> for DecideSimDriver<P> {
    fn reject_witness(&mut self) {
        self.witness = self.replaced.take();
    }

    fn process(&mut self, problem: &P, node: &P::Node, locality: usize, now: u64) -> Action {
        let score = problem.objective(node);
        if score >= self.target {
            self.replaced = self.witness.replace(node.clone());
            return Action::ShortCircuit;
        }
        self.inner.strengthen(score, node, locality, now);
        if let Some(bound) = problem.bound(node) {
            if bound < self.target {
                return match problem.prune_level() {
                    PruneLevel::Node => Action::Prune,
                    PruneLevel::Siblings => Action::PruneSiblings,
                };
            }
        }
        Action::Expand
    }
}

/// Per-worker simulation state.
struct SimWorker<'p, P: SearchProblem> {
    locality: usize,
    /// Resumable depth-first traversal of the current task.
    stack: GenStack<'p, P>,
    /// Stolen (or locally retained) tasks not yet started.
    backlog: Vec<Task<P::Node>>,
    /// Backtracks since the last Budget split.
    backtracks_since_split: u64,
    /// Total node-processing work charged to this worker.
    work: u64,
    /// Nodes processed by the current task (flight-recorder `TaskEnd` delta).
    task_nodes: u64,
    /// Prunes performed by the current task.
    task_prunes: u64,
    /// Backtracks performed by the current task.
    task_backtracks: u64,
}

/// Aggregate counters of a simulation run.
#[derive(Debug, Default, Clone, Copy)]
struct SimStats {
    nodes: u64,
    prunes: u64,
    spawns: u64,
    steals: u64,
    makespan: u64,
    total_work: u64,
    ordered_spawns: u64,
    priority_inversions: u64,
    speculative_nodes: u64,
    cancelled_tasks: u64,
    lock_acquisitions: u64,
    batch_pushes: u64,
    poll_checks: u64,
    /// The virtual deadline fired before the search could finish.
    deadline_hit: bool,
}

/// Virtual-time flight recorder: the simulator's stand-in for the threaded
/// engine's per-worker ring buffers.  Records are appended in event-loop
/// order with the virtual timestamp of the emitting step; emission never
/// charges a tick, so a traced run has exactly the same makespan, node
/// counts and steal schedule as an untraced one (asserted by the
/// `tracing_is_free_in_virtual_time` test).
struct SimTrace {
    on: bool,
    records: Vec<TraceRecord>,
}

impl SimTrace {
    fn new(on: bool) -> Self {
        SimTrace {
            on,
            records: Vec::new(),
        }
    }

    #[inline]
    fn emit(&mut self, ts: u64, worker: u32, event: TraceEvent) {
        if self.on {
            self.records.push(TraceRecord { ts, worker, event });
        }
    }
}

/// Build a [`TraceEvent::TaskEnd`] from the per-task deltas the simulator
/// tracks.  Only nodes, prunes and backtracks have per-task meaning in the
/// virtual cost model; spawn/batch/poll counters and the depth high-water
/// mark are aggregate-only here and reported as zero.
fn task_end_event(nodes: u64, prunes: u64, backtracks: u64) -> TraceEvent {
    TraceEvent::TaskEnd {
        nodes,
        prunes,
        backtracks,
        spawns: 0,
        batch_pushes: 0,
        poll_checks: 0,
        max_depth: 0,
    }
}

/// The `TaskEnd` event of a pool-coordination worker's current task.
fn end_of_task<P: SearchProblem>(worker: &SimWorker<'_, P>) -> TraceEvent {
    task_end_event(
        worker.task_nodes,
        worker.task_prunes,
        worker.task_backtracks,
    )
}

/// Simulate an enumeration search.
pub fn simulate_enumerate<P: Enumerate>(problem: &P, config: &SimConfig) -> SimOutcome<P::Value> {
    let mut driver = EnumSimDriver::<P> {
        acc: P::Value::empty(),
    };
    let mut trace = SimTrace::new(config.trace);
    let stats = simulate(problem, config, &mut driver, &mut trace);
    outcome(stats, config, driver.acc, trace.records)
}

/// Simulate an optimisation search.
pub fn simulate_maximise<P: Optimise>(
    problem: &P,
    config: &SimConfig,
) -> SimOutcome<Option<(P::Node, P::Score)>> {
    let mut driver = OptimSimDriver::<P>::new(config.costs.bound_broadcast_latency);
    let mut trace = SimTrace::new(config.trace);
    let stats = simulate(problem, config, &mut driver, &mut trace);
    outcome(
        stats,
        config,
        driver.best.map(|(s, n)| (n, s)),
        trace.records,
    )
}

/// Simulate a decision search.
pub fn simulate_decide<P: Decide>(problem: &P, config: &SimConfig) -> SimOutcome<Option<P::Node>> {
    let mut driver = DecideSimDriver::<P> {
        inner: OptimSimDriver::<P>::new(config.costs.bound_broadcast_latency),
        target: problem.target(),
        witness: None,
        replaced: None,
    };
    let mut trace = SimTrace::new(config.trace);
    let stats = simulate(problem, config, &mut driver, &mut trace);
    outcome(stats, config, driver.witness, trace.records)
}

fn outcome<R>(
    stats: SimStats,
    config: &SimConfig,
    result: R,
    trace: Vec<TraceRecord>,
) -> SimOutcome<R> {
    SimOutcome {
        result,
        makespan: stats.makespan,
        total_work: stats.total_work,
        nodes: stats.nodes,
        prunes: stats.prunes,
        spawns: stats.spawns,
        steals: stats.steals,
        ordered_spawns: stats.ordered_spawns,
        priority_inversions: stats.priority_inversions,
        speculative_nodes: stats.speculative_nodes,
        cancelled_tasks: stats.cancelled_tasks,
        lock_acquisitions: stats.lock_acquisitions,
        batch_pushes: stats.batch_pushes,
        poll_checks: stats.poll_checks,
        workers: config.workers(),
        status: if stats.deadline_hit {
            SearchStatus::DeadlineExceeded
        } else {
            SearchStatus::Complete
        },
        queue_wait_ticks: 0,
        granted_workers: config.workers(),
        trace,
    }
}

/// The core event loop, generic over the search-type driver.
fn simulate<P, D>(problem: &P, config: &SimConfig, driver: &mut D, trace: &mut SimTrace) -> SimStats
where
    P: SearchProblem,
    D: SimDriver<P>,
{
    // The Ordered coordination gets its own loop: a sequence-keyed global
    // pool with in-order commit semantics cannot be approximated by the
    // per-locality depth pools without losing the replicability guarantee.
    if let Coordination::Ordered { spawn_depth } = config.coordination {
        return simulate_ordered(problem, config, driver, spawn_depth, trace);
    }

    let costs = &config.costs;
    let n_workers = config.workers();
    let n_localities = config.localities;
    let coordination = config.coordination;
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // One order-preserving pool per locality (used by Depth-Bounded, Budget
    // and Sequential; Stack-Stealing steals directly from worker stacks).
    let pools: Vec<DepthPool<P::Node>> = (0..n_localities).map(|_| DepthPool::new()).collect();

    let mut workers: Vec<SimWorker<'_, P>> = (0..n_workers)
        .map(|i| SimWorker {
            locality: i / config.workers_per_locality,
            stack: GenStack::new(),
            backlog: Vec::new(),
            backtracks_since_split: 0,
            work: 0,
            task_nodes: 0,
            task_prunes: 0,
            task_backtracks: 0,
        })
        .collect();

    // The root task starts at locality 0 (worker 0's backlog for
    // stack-stealing; locality 0's pool otherwise).
    let root_task = Task::new(problem.root(), 0);
    let mut outstanding: u64 = 1;
    match coordination {
        Coordination::StackStealing { .. } => workers[0].backlog.push(root_task),
        _ => pools[0].push(root_task),
    }

    let mut stats = SimStats::default();
    // Event heap: (time, worker) — Reverse for a min-heap; ties broken by
    // worker index for determinism.
    let mut events: BinaryHeap<Reverse<(u64, usize)>> =
        (0..n_workers).map(|w| Reverse((0, w))).collect();
    let mut short_circuited = false;

    while let Some(Reverse((now, w))) = events.pop() {
        if outstanding == 0 || short_circuited {
            break;
        }
        // Virtual deadline: events are processed in time order, so the
        // first event at or past the deadline ends the whole run — exactly
        // like the threaded engine's per-step wall-clock poll, with zero
        // nondeterminism.  Every event is one deadline evaluation, the
        // virtual analogue of the threaded stride-gated poll check.
        stats.poll_checks += 1;
        if let Some(d) = config.deadline_ticks.filter(|&d| now >= d) {
            stats.deadline_hit = true;
            // The overshooting event never executes: the run ends at the
            // deadline itself.
            stats.makespan = d;
            break;
        }
        let mut next_time = now;

        // ---- Busy worker: one traversal step of its current task ----------
        if !workers[w].stack.is_empty() {
            // Budget coordination: split before the next step if the budget
            // is exhausted.
            if let Coordination::Budget { backtracks } = coordination {
                if workers[w].backtracks_since_split >= backtracks {
                    let offload = workers[w].stack.split_lowest(true);
                    if !offload.is_empty() {
                        outstanding += offload.len() as u64;
                        stats.spawns += offload.len() as u64;
                        stats.batch_pushes += 1;
                        stats.lock_acquisitions += 1;
                        next_time += costs.batched_spawn_cost(offload.len());
                        pools[workers[w].locality].push_all(offload);
                    }
                    workers[w].backtracks_since_split = 0;
                }
            }
            match workers[w].stack.next_child() {
                Some((child, depth)) => {
                    next_time += costs.node_cost;
                    workers[w].work += costs.node_cost;
                    workers[w].task_nodes += 1;
                    stats.nodes += 1;
                    match driver.process(problem, &child, workers[w].locality, next_time) {
                        Action::Expand => workers[w].stack.push(problem, &child, depth),
                        Action::Prune => {
                            stats.prunes += 1;
                            workers[w].task_prunes += 1;
                        }
                        Action::PruneSiblings => {
                            stats.prunes += 1;
                            workers[w].task_prunes += 1;
                            workers[w].stack.pop();
                            workers[w].backtracks_since_split += 1;
                            workers[w].task_backtracks += 1;
                            if workers[w].stack.is_empty() {
                                trace.emit(next_time, w as u32, end_of_task(&workers[w]));
                                outstanding -= 1;
                                if outstanding == 0 {
                                    stats.makespan = next_time;
                                }
                            }
                        }
                        Action::ShortCircuit => {
                            trace.emit(next_time, w as u32, end_of_task(&workers[w]));
                            stats.makespan = next_time;
                            short_circuited = true;
                        }
                    }
                }
                None => {
                    workers[w].stack.pop();
                    workers[w].backtracks_since_split += 1;
                    workers[w].task_backtracks += 1;
                    next_time += 1; // backtracking is cheap but not free
                    if workers[w].stack.is_empty() {
                        // Task complete.
                        trace.emit(next_time, w as u32, end_of_task(&workers[w]));
                        outstanding -= 1;
                        if outstanding == 0 {
                            stats.makespan = next_time;
                        }
                    }
                }
            }
            events.push(Reverse((next_time, w)));
            continue;
        }

        // ---- Idle worker: start backlog work, pop a pool, or steal --------
        if let Some(task) = pop_backlog(&mut workers[w]) {
            next_time += start_task(
                problem,
                driver,
                &mut workers[w],
                &pools,
                coordination,
                costs,
                &mut outstanding,
                &mut stats,
                &mut short_circuited,
                task,
                now,
                w as u32,
                trace,
            );
            events.push(Reverse((next_time, w)));
            continue;
        }

        let my_locality = workers[w].locality;
        match coordination {
            Coordination::Ordered { .. } => unreachable!("ordered runs in simulate_ordered"),
            Coordination::Sequential
            | Coordination::DepthBounded { .. }
            | Coordination::Budget { .. } => {
                // Local pool first — a batched pop takes up to `POP_BATCH`
                // tasks for one pool operation, capped at this worker's fair
                // share of the pool so a scarce frontier is never hoarded in
                // one backlog (the threaded engine avoids this by sharding
                // the pool per worker; the locality-level pool here must
                // ration instead).  When the pool is empty, gamble on a
                // *random* remote pool — the sharded pool's depth hints are
                // in-process atomics that do not propagate across localities
                // in the distributed model, so remote probing stays blind —
                // and take a small batch on a hit to amortise the steal
                // latency over `STEAL_BATCH` tasks.
                let share = pools[my_locality]
                    .len()
                    .div_ceil(config.workers_per_locality.max(1))
                    .max(1);
                let mut grabbed = VecDeque::new();
                if pools[my_locality].pop_batch(share.min(POP_BATCH), &mut grabbed) > 0 {
                    stats.lock_acquisitions += 1;
                    next_time += costs.pop_cost;
                    workers[w].backlog.extend(grabbed);
                } else if n_localities > 1 {
                    let mut victim = rng.gen_range(0..n_localities - 1);
                    if victim >= my_locality {
                        victim += 1;
                    }
                    // Victim-side rationing: never ship more than half the
                    // victim pool's tasks, so a scarce frontier is spread
                    // across stealing localities instead of hoarded by the
                    // first thief to land.
                    let cap = STEAL_BATCH.min(pools[victim].len().div_ceil(2)).max(1);
                    // Pool-coordination steal events name the victim
                    // *locality* (the pool is the unit stolen from, as in
                    // the threaded sharded pool's cross-shard steal).
                    trace.emit(
                        now,
                        w as u32,
                        TraceEvent::StealRequest {
                            victim: victim as u32,
                        },
                    );
                    let got = pools[victim].pop_batch(cap, &mut grabbed);
                    if got > 0 {
                        stats.lock_acquisitions += 1;
                        stats.steals += 1;
                        trace.emit(
                            now,
                            w as u32,
                            TraceEvent::StealHit {
                                victim: victim as u32,
                                tasks: got as u32,
                                remote: true,
                            },
                        );
                        next_time += costs.remote_steal_latency;
                        workers[w].backlog.extend(grabbed);
                    } else {
                        trace.emit(
                            now,
                            w as u32,
                            TraceEvent::StealMiss {
                                victim: victim as u32,
                            },
                        );
                        next_time += costs.idle_poll;
                    }
                } else {
                    // Single locality: an empty pool means an idle re-poll
                    // with nobody to steal from — still a failed acquisition
                    // for the starvation analysis.
                    trace.emit(
                        now,
                        w as u32,
                        TraceEvent::StealMiss {
                            victim: UNKNOWN_VICTIM,
                        },
                    );
                    next_time += costs.idle_poll;
                }
            }
            Coordination::StackStealing { chunked } => {
                // Steal directly from another worker's stack: prefer a local
                // victim, fall back to a remote one.  The two tiers see
                // different information, mirroring the threaded engine's
                // shared-memory work-hint array:
                //
                // * *Local* picks are hint-guided — the per-worker hints are
                //   cheap in-process atomics, so a thief skips empty stacks
                //   entirely (failing fast for one idle poll when nobody in
                //   the locality has work) and targets the victim whose
                //   stealable frontier is *shallowest* (the heuristically
                //   biggest subtree), breaking ties at random.
                // * *Remote* picks are blind — hints do not propagate across
                //   localities in the distributed model, so the thief
                //   gambles a random remote worker and pays the full steal
                //   latency on a miss.  (This is also a safety valve: were
                //   remote thieves hint-guided too, every idle locality
                //   would strip-mine the first busy worker's shallow
                //   frontier the instant it appears, shipping nearly the
                //   whole root frontier into in-flight transfers at once.)
                let mut stolen = Vec::new();
                let mut latency = costs.idle_poll;
                let mut remote = false;
                let mut chosen: Option<usize> = None;
                let mut best_depth = usize::MAX;
                let mut best: Vec<usize> = Vec::new();
                for (v, victim) in workers.iter_mut().enumerate() {
                    if v == w || victim.locality != my_locality {
                        continue;
                    }
                    if let Some(d) = victim.stack.steal_depth() {
                        match d.cmp(&best_depth) {
                            std::cmp::Ordering::Less => {
                                best_depth = d;
                                best.clear();
                                best.push(v);
                            }
                            std::cmp::Ordering::Equal => best.push(v),
                            std::cmp::Ordering::Greater => {}
                        }
                    }
                }
                if !best.is_empty() {
                    let victim = best[rng.gen_range(0..best.len())];
                    trace.emit(
                        now,
                        w as u32,
                        TraceEvent::StealRequest {
                            victim: victim as u32,
                        },
                    );
                    stolen = workers[victim].stack.split_lowest(chunked);
                    latency = costs.local_steal_latency;
                    chosen = Some(victim);
                } else if n_localities > 1 {
                    let remote_victims: Vec<usize> = (0..n_workers)
                        .filter(|&v| workers[v].locality != my_locality)
                        .collect();
                    let victim = remote_victims[rng.gen_range(0..remote_victims.len())];
                    trace.emit(
                        now,
                        w as u32,
                        TraceEvent::StealRequest {
                            victim: victim as u32,
                        },
                    );
                    chosen = Some(victim);
                    let split = workers[victim].stack.split_lowest(chunked);
                    if !split.is_empty() {
                        stolen = split;
                        latency = costs.remote_steal_latency;
                        remote = true;
                    }
                }
                if !stolen.is_empty() {
                    outstanding += stolen.len() as u64;
                    stats.spawns += stolen.len() as u64;
                    stats.steals += 1;
                    trace.emit(
                        now,
                        w as u32,
                        TraceEvent::StealHit {
                            victim: chosen.expect("a steal hit names its victim") as u32,
                            tasks: stolen.len() as u32,
                            remote,
                        },
                    );
                    workers[w].backlog.extend(stolen);
                } else {
                    trace.emit(
                        now,
                        w as u32,
                        TraceEvent::StealMiss {
                            victim: chosen.map(|v| v as u32).unwrap_or(UNKNOWN_VICTIM),
                        },
                    );
                }
                next_time += latency;
            }
        }
        events.push(Reverse((next_time, w)));
    }

    if stats.makespan == 0 {
        // Short-circuit before any completion event, or a degenerate
        // zero-work run: fall back to the last observed time.
        stats.makespan = stats.nodes * costs.node_cost / n_workers.max(1) as u64;
    }
    stats.total_work = workers.iter().map(|w| w.work).sum();
    stats
}

/// Per-worker state of the simulated Ordered coordination.
struct OrderedSimWorker<'p, P: SearchProblem> {
    /// Resumable depth-first traversal of the current task.
    stack: GenStack<'p, P>,
    /// Sequence key of the current task (`None` when idle).
    key: Option<SeqKey>,
    /// Nodes processed by the current task.
    nodes: u64,
    /// Prunes performed by the current task.
    prunes: u64,
    /// Total node-processing work charged to this worker.
    work: u64,
}

/// Charge a [`CommitLog::retire`] verdict to the simulation's own
/// bookkeeping: the retired task and any purged ones leave `outstanding`,
/// purges count as reclaimed speculation, and the commit — or the last
/// outstanding task — fixes the makespan.
fn settle(retired: Retired, outstanding: &mut u64, stats: &mut SimStats, now: u64) {
    *outstanding -= 1;
    if let Some(purged) = retired.purged {
        *outstanding -= purged as u64;
        stats.cancelled_tasks += purged as u64;
    }
    if retired.committed {
        stats.makespan = now;
    }
    if *outstanding == 0 && stats.makespan == 0 {
        stats.makespan = now;
    }
}

/// The simulated Ordered coordination: a *global* sequence-keyed pool (the
/// whole point of the coordination is that every pop observes the one true
/// sequential frontier, so per-locality pools would break replicability)
/// driven through the threaded skeleton's own [`CommitLog`] — speculation
/// with in-order commit plus purge/straggler/in-flight cancellation.  This
/// loop adds only virtual time.  Committed node counts are a pure function
/// of the instance and spawn depth: identical across worker counts and
/// equal to the threaded Ordered skeleton's committed counts.
fn simulate_ordered<P, D>(
    problem: &P,
    config: &SimConfig,
    driver: &mut D,
    spawn_depth: usize,
    trace: &mut SimTrace,
) -> SimStats
where
    P: SearchProblem,
    D: SimDriver<P>,
{
    let costs = &config.costs;
    let n_workers = config.workers();

    let pool = OrderedPool::new();
    pool.push(SeqKey::root(), Task::new(problem.root(), 0));
    // Per-task `(nodes, prunes)`, classified by the log at the end.
    let mut log: CommitLog<(u64, u64)> = CommitLog::new();
    let mut outstanding = 1u64;
    let mut stats = SimStats::default();

    let mut workers: Vec<OrderedSimWorker<'_, P>> = (0..n_workers)
        .map(|_| OrderedSimWorker {
            stack: GenStack::new(),
            key: None,
            nodes: 0,
            prunes: 0,
            work: 0,
        })
        .collect();

    // Event heap as in `simulate`: (time, worker), ties broken by worker
    // index — the simulation stays fully deterministic (no RNG anywhere).
    let mut events: BinaryHeap<Reverse<(u64, usize)>> =
        (0..n_workers).map(|w| Reverse((0, w))).collect();

    while let Some(Reverse((now, w))) = events.pop() {
        if log.is_committed() || outstanding == 0 {
            break;
        }
        // Virtual deadline, exactly as in `simulate`: the commit-ordered
        // loop stops at the first event past it, and the post-loop record
        // classification still runs so partial work is reported honestly.
        stats.poll_checks += 1;
        if let Some(d) = config.deadline_ticks.filter(|&d| now >= d) {
            stats.deadline_hit = true;
            // The overshooting event never executes: the run ends at the
            // deadline itself.
            stats.makespan = d;
            break;
        }
        let mut next_time = now;
        let locality = w / config.workers_per_locality;

        // ---- Busy worker: one traversal step of its current task ----------
        if !workers[w].stack.is_empty() {
            let key = workers[w]
                .key
                .clone()
                .expect("busy ordered worker has a key");

            // Cooperative cancellation, polled once per step like the
            // threaded engine: a pending witness with an earlier key makes
            // this task's remaining subtree worthless.
            if log.after_witness(&key) {
                let wk = &mut workers[w];
                wk.stack = GenStack::new();
                wk.key = None;
                trace.emit(next_time, w as u32, task_end_event(wk.nodes, wk.prunes, 0));
                trace.emit(
                    next_time,
                    w as u32,
                    TraceEvent::SpeculationCancel { nodes: wk.nodes },
                );
                stats.cancelled_tasks += 1;
                let retired = log.retire(&pool, key, (wk.nodes, wk.prunes), false);
                settle(retired, &mut outstanding, &mut stats, next_time);
                events.push(Reverse((next_time + 1, w)));
                continue;
            }

            let mut finished = false;
            let mut found_witness = false;
            match workers[w].stack.next_child() {
                Some((child, depth)) => {
                    next_time += costs.node_cost;
                    workers[w].work += costs.node_cost;
                    workers[w].nodes += 1;
                    match driver.process(problem, &child, locality, next_time) {
                        Action::Expand => workers[w].stack.push(problem, &child, depth),
                        Action::Prune => workers[w].prunes += 1,
                        Action::PruneSiblings => {
                            workers[w].prunes += 1;
                            workers[w].stack.pop();
                            finished = workers[w].stack.is_empty();
                        }
                        Action::ShortCircuit => {
                            // The task stops at its first witness; whether
                            // the *search* stops is the commit's decision.
                            workers[w].stack = GenStack::new();
                            finished = true;
                            found_witness = true;
                        }
                    }
                }
                None => {
                    workers[w].stack.pop();
                    next_time += 1; // backtracking is cheap but not free
                    finished = workers[w].stack.is_empty();
                }
            }
            if finished {
                let wk = &mut workers[w];
                let (nodes, prunes) = (wk.nodes, wk.prunes);
                wk.key = None;
                trace.emit(next_time, w as u32, task_end_event(nodes, prunes, 0));
                let retired = log.retire(&pool, key, (nodes, prunes), found_witness);
                if found_witness && retired.purged.is_none() {
                    driver.reject_witness();
                }
                settle(retired, &mut outstanding, &mut stats, next_time);
            }
            events.push(Reverse((next_time, w)));
            continue;
        }

        // ---- Idle worker: issue the globally smallest-key task ------------
        loop {
            let Some((key, task)) = pool.pop() else {
                next_time += costs.idle_poll;
                break;
            };
            stats.lock_acquisitions += 1;
            // Post-witness stragglers (children released by committed-side
            // parents after the purge) are reclaimed at pop time — each
            // skip still pays the pop it performed, like the threaded pool.
            if log.after_witness(&key) {
                outstanding -= 1;
                stats.cancelled_tasks += 1;
                next_time += costs.pop_cost;
                continue;
            }
            if log.issue(key.clone()) {
                stats.priority_inversions += 1;
            }
            trace.emit(
                now,
                w as u32,
                TraceEvent::TaskStart {
                    depth: task.depth as u32,
                },
            );
            next_time += costs.pop_cost + costs.node_cost;
            let wk = &mut workers[w];
            wk.key = Some(key.clone());
            wk.nodes = 1;
            wk.prunes = 0;
            wk.work += costs.node_cost;
            let retired = match driver.process(problem, &task.node, locality, next_time) {
                Action::Prune | Action::PruneSiblings => {
                    wk.prunes = 1;
                    wk.key = None;
                    trace.emit(next_time, w as u32, task_end_event(1, 1, 0));
                    log.retire(&pool, key, (1, 1), false)
                }
                Action::ShortCircuit => {
                    wk.key = None;
                    trace.emit(next_time, w as u32, task_end_event(1, 0, 0));
                    let retired = log.retire(&pool, key, (1, 0), true);
                    if retired.purged.is_none() {
                        driver.reject_witness();
                    }
                    retired
                }
                Action::Expand if task.depth < spawn_depth => {
                    // Eager sequence-keyed spawning: every child becomes a
                    // task keyed in heuristic order.
                    let children: Vec<Task<P::Node>> = problem
                        .generator(&task.node)
                        .map(|c| Task::new(c, task.depth + 1))
                        .collect();
                    outstanding += children.len() as u64;
                    stats.spawns += children.len() as u64;
                    stats.ordered_spawns += children.len() as u64;
                    if !children.is_empty() {
                        stats.batch_pushes += 1;
                        stats.lock_acquisitions += 1;
                    }
                    next_time += costs.batched_spawn_cost(children.len());
                    for (i, child) in children.into_iter().enumerate() {
                        pool.push(key.child(i as u32), child);
                    }
                    wk.key = None;
                    trace.emit(next_time, w as u32, task_end_event(1, 0, 0));
                    log.retire(&pool, key, (1, 0), false)
                }
                Action::Expand => {
                    wk.stack.push(problem, &task.node, task.depth);
                    break;
                }
            };
            settle(retired, &mut outstanding, &mut stats, next_time);
            break;
        }
        events.push(Reverse((next_time, w)));
    }

    // Post-commit aborts: in-flight tasks at the stop all carry keys after
    // the witness (the commit waited for everything earlier), so the log
    // classifies their partial work as speculative.
    for (w, wk) in workers.iter_mut().enumerate() {
        if let Some(key) = wk.key.take() {
            trace.emit(
                stats.makespan,
                w as u32,
                task_end_event(wk.nodes, wk.prunes, 0),
            );
            log.retire(&pool, key, (wk.nodes, wk.prunes), false);
        }
    }

    stats.nodes = log.committed_records().map(|&(nodes, _)| nodes).sum();
    stats.prunes = log.committed_records().map(|&(_, prunes)| prunes).sum();
    stats.speculative_nodes = log.speculative_records().map(|&(nodes, _)| nodes).sum();

    if stats.makespan == 0 {
        stats.makespan = stats.nodes * costs.node_cost / n_workers.max(1) as u64;
    }

    // Mirror the threaded Ordered skeleton's commit-time classification
    // events: one aggregate commit (and discard, when speculation was
    // wasted) from the control plane, emitted only when a witness exists —
    // enumeration and optimisation runs have no speculation to classify.
    if log.witness().is_some() {
        trace.emit(
            stats.makespan,
            CONTROL_WORKER,
            TraceEvent::SpeculationCommit { nodes: stats.nodes },
        );
        if stats.speculative_nodes > 0 {
            trace.emit(
                stats.makespan,
                CONTROL_WORKER,
                TraceEvent::SpeculationDiscard {
                    nodes: stats.speculative_nodes,
                },
            );
        }
    }

    stats.total_work = workers.iter().map(|w| w.work).sum();
    stats
}

fn pop_backlog<P: SearchProblem>(worker: &mut SimWorker<'_, P>) -> Option<Task<P::Node>> {
    if worker.backlog.is_empty() {
        None
    } else {
        Some(worker.backlog.remove(0))
    }
}

/// Begin executing a task on a worker: process its root node and either
/// spawn its children (Depth-Bounded above the cutoff) or set up the
/// resumable depth-first traversal.  Returns the virtual time consumed.
#[allow(clippy::too_many_arguments)]
fn start_task<'p, P, D>(
    problem: &'p P,
    driver: &mut D,
    worker: &mut SimWorker<'p, P>,
    pools: &[DepthPool<P::Node>],
    coordination: Coordination,
    costs: &CostModel,
    outstanding: &mut u64,
    stats: &mut SimStats,
    short_circuited: &mut bool,
    task: Task<P::Node>,
    now: u64,
    worker_id: u32,
    trace: &mut SimTrace,
) -> u64
where
    P: SearchProblem,
    D: SimDriver<P>,
{
    trace.emit(
        now,
        worker_id,
        TraceEvent::TaskStart {
            depth: task.depth as u32,
        },
    );
    let mut elapsed = costs.node_cost;
    worker.work += costs.node_cost;
    worker.task_nodes = 1;
    worker.task_prunes = 0;
    worker.task_backtracks = 0;
    stats.nodes += 1;
    match driver.process(problem, &task.node, worker.locality, now + elapsed) {
        Action::Prune | Action::PruneSiblings => {
            stats.prunes += 1;
            worker.task_prunes = 1;
            trace.emit(now + elapsed, worker_id, end_of_task(worker));
            *outstanding -= 1;
            if *outstanding == 0 {
                stats.makespan = now + elapsed;
            }
            return elapsed;
        }
        Action::ShortCircuit => {
            trace.emit(now + elapsed, worker_id, end_of_task(worker));
            stats.makespan = now + elapsed;
            *short_circuited = true;
            return elapsed;
        }
        Action::Expand => {}
    }

    // Eager placement-time spawning: the Depth-Bounded cutoff.  (Ordered —
    // which also spawns eagerly, but into the sequence-keyed pool — has its
    // own loop in `simulate_ordered`.)
    let eager_cutoff = match coordination {
        Coordination::DepthBounded { dcutoff } => Some(dcutoff),
        _ => None,
    };
    if let Some(dcutoff) = eager_cutoff {
        if task.depth < dcutoff {
            // Convert every child into a task on the local pool.
            let children: Vec<Task<P::Node>> = problem
                .generator(&task.node)
                .map(|c| Task::new(c, task.depth + 1))
                .collect();
            *outstanding += children.len() as u64;
            stats.spawns += children.len() as u64;
            if !children.is_empty() {
                stats.batch_pushes += 1;
                stats.lock_acquisitions += 1;
            }
            elapsed += costs.batched_spawn_cost(children.len());
            pools[worker.locality].push_all(children);
            trace.emit(now + elapsed, worker_id, end_of_task(worker));
            *outstanding -= 1;
            if *outstanding == 0 {
                stats.makespan = now + elapsed;
            }
            return elapsed;
        }
    }

    worker.stack.push(problem, &task.node, task.depth);
    worker.backtracks_since_split = 0;
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use yewpar::monoid::Sum;
    use yewpar::{Coordination, Skeleton};

    /// Irregular enumeration tree shared by the tests.
    struct Fib {
        depth: usize,
    }

    impl SearchProblem for Fib {
        type Node = (usize, u64);
        type Gen<'a> = std::vec::IntoIter<(usize, u64)>;
        fn root(&self) -> (usize, u64) {
            (0, 3)
        }
        fn generator(&self, node: &(usize, u64)) -> Self::Gen<'_> {
            let (d, s) = *node;
            if d >= self.depth {
                return vec![].into_iter();
            }
            let width = (s % 3 + 1) as usize;
            (0..width)
                .map(|i| {
                    (
                        d + 1,
                        s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i as u64),
                    )
                })
                .collect::<Vec<_>>()
                .into_iter()
        }
    }

    impl Enumerate for Fib {
        type Value = Sum<u64>;
        fn value(&self, _n: &(usize, u64)) -> Sum<u64> {
            Sum(1)
        }
    }

    impl Optimise for Fib {
        type Score = u64;
        fn objective(&self, node: &(usize, u64)) -> u64 {
            node.1 % 997
        }
        fn bound(&self, _node: &(usize, u64)) -> Option<u64> {
            Some(997)
        }
    }

    impl Decide for Fib {
        fn target(&self) -> u64 {
            990
        }
    }

    fn sim(coord: Coordination, localities: usize, wpl: usize) -> SimConfig {
        SimConfig::new(coord, localities, wpl)
    }

    #[test]
    fn virtual_deadline_stops_every_coordination_with_partial_results() {
        let p = Fib { depth: 12 };
        for coord in [
            Coordination::Sequential,
            Coordination::depth_bounded(2),
            Coordination::stack_stealing_chunked(),
            Coordination::budget(30),
            Coordination::ordered(2),
        ] {
            let full = simulate_enumerate(&p, &sim(coord, 2, 3));
            assert!(full.status.is_complete(), "{coord}");
            let mut cfg = sim(coord, 2, 3);
            cfg.deadline_ticks = Some(full.makespan / 4);
            let partial = simulate_enumerate(&p, &cfg);
            assert_eq!(partial.status, SearchStatus::DeadlineExceeded, "{coord}");
            assert!(
                partial.nodes < full.nodes,
                "{coord}: deadline at a quarter of the makespan must cut work \
                 ({} vs {})",
                partial.nodes,
                full.nodes
            );
            assert!(partial.makespan <= full.makespan / 4, "{coord}");
            // Virtual time is deterministic: the truncated run is exactly
            // reproducible.
            let again = simulate_enumerate(&p, &cfg);
            assert_eq!(again.nodes, partial.nodes, "{coord}");
            assert_eq!(again.makespan, partial.makespan, "{coord}");
        }
    }

    #[test]
    fn virtual_deadline_keeps_the_partial_incumbent() {
        let p = Fib { depth: 12 };
        let mut cfg = sim(Coordination::depth_bounded(2), 2, 3);
        let full = simulate_maximise(&p, &cfg);
        cfg.deadline_ticks = Some(full.makespan / 4);
        let partial = simulate_maximise(&p, &cfg);
        assert_eq!(partial.status, SearchStatus::DeadlineExceeded);
        let partial_best = partial.result.map(|(_, s)| s).expect("root was processed");
        let full_best = full
            .result
            .map(|(_, s)| s)
            .expect("complete run has a best");
        assert!(
            partial_best <= full_best,
            "anytime incumbent can only trail"
        );
    }

    #[test]
    fn simulated_enumeration_matches_the_threaded_skeleton() {
        let p = Fib { depth: 10 };
        let reference = Skeleton::new(Coordination::Sequential).enumerate(&p).value;
        for coord in [
            Coordination::Sequential,
            Coordination::depth_bounded(2),
            Coordination::stack_stealing(),
            Coordination::stack_stealing_chunked(),
            Coordination::budget(30),
            Coordination::ordered(2),
        ] {
            // From one fat locality to eight one-worker localities, where
            // every steal is remote.
            for (localities, wpl) in [(2usize, 3usize), (1, 4), (4, 2), (8, 1)] {
                let out = simulate_enumerate(&p, &sim(coord, localities, wpl));
                assert_eq!(out.result, reference, "{coord} {localities}x{wpl}");
                assert_eq!(out.nodes, reference.0, "{coord} {localities}x{wpl}");
            }
        }
    }

    #[test]
    fn simulated_optimisation_matches_the_threaded_skeleton() {
        let p = Fib { depth: 9 };
        let reference = Skeleton::new(Coordination::Sequential).maximise(&p);
        for coord in [
            Coordination::depth_bounded(3),
            Coordination::stack_stealing(),
            Coordination::budget(20),
            Coordination::ordered(3),
        ] {
            let out = simulate_maximise(&p, &sim(coord, 3, 2));
            assert_eq!(
                out.result.as_ref().map(|(_, s)| *s),
                Some(*reference.try_score().unwrap()),
                "{coord}"
            );
        }
    }

    #[test]
    fn simulated_decision_finds_a_witness() {
        let p = Fib { depth: 12 };
        let seq = Skeleton::new(Coordination::Sequential).decide(&p);
        let out = simulate_decide(&p, &sim(Coordination::depth_bounded(2), 2, 4));
        assert_eq!(out.result.is_some(), seq.found());
    }

    #[test]
    fn more_workers_reduce_the_makespan_of_a_parallel_friendly_tree() {
        let p = Fib { depth: 11 };
        let one = simulate_enumerate(&p, &sim(Coordination::depth_bounded(3), 1, 1));
        let many = simulate_enumerate(&p, &sim(Coordination::depth_bounded(3), 1, 8));
        assert_eq!(one.result, many.result);
        assert!(
            many.makespan < one.makespan,
            "8 workers ({}) should beat 1 worker ({})",
            many.makespan,
            one.makespan
        );
        let speedup = many.speedup_vs(one.makespan);
        assert!(speedup > 2.0, "expected a real speedup, got {speedup:.2}");
        assert!(many.efficiency() <= 1.0 + 1e-9);
    }

    #[test]
    fn remote_steals_are_more_expensive_than_local_ones() {
        let p = Fib { depth: 11 };
        let single_locality =
            simulate_enumerate(&p, &sim(Coordination::stack_stealing_chunked(), 1, 8));
        let many_localities =
            simulate_enumerate(&p, &sim(Coordination::stack_stealing_chunked(), 8, 1));
        assert_eq!(single_locality.result, many_localities.result);
        assert!(
            many_localities.makespan >= single_locality.makespan,
            "8 localities ({}) should not beat 8 local workers ({})",
            many_localities.makespan,
            single_locality.makespan
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let p = Fib { depth: 10 };
        let cfg = sim(Coordination::budget(25), 2, 3);
        let a = simulate_maximise(&p, &cfg);
        let b = simulate_maximise(&p, &cfg);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.steals, b.steals);
    }

    #[test]
    fn simulated_ordered_decision_counts_are_replicable_across_worker_counts() {
        let p = Fib { depth: 12 };
        let seq = simulate_decide(&p, &sim(Coordination::Sequential, 1, 1));
        assert!(seq.result.is_some());
        let mut reference = None;
        for (localities, wpl) in [(1, 1), (1, 2), (2, 2), (2, 4), (4, 2)] {
            let out = simulate_decide(&p, &sim(Coordination::ordered(3), localities, wpl));
            assert_eq!(out.result.is_some(), seq.result.is_some());
            let committed = *reference.get_or_insert(out.nodes);
            assert_eq!(
                out.nodes, committed,
                "{localities}x{wpl}: committed count diverged"
            );
        }
        // A single ordered worker replays the sequential search exactly
        // (Fib's decision objective prunes at node level only).
        assert_eq!(reference, Some(seq.nodes));
    }

    #[test]
    fn simulated_ordered_populates_the_ordered_counters() {
        let p = Fib { depth: 10 };
        let out = simulate_enumerate(&p, &sim(Coordination::ordered(2), 2, 3));
        assert!(out.ordered_spawns > 0, "spawn depth 2 must key tasks");
        assert_eq!(
            out.ordered_spawns, out.spawns,
            "every ordered spawn carries a sequence key"
        );
        assert_eq!(
            out.speculative_nodes, 0,
            "enumeration has no witness, hence no speculation"
        );
        assert_eq!(out.cancelled_tasks, 0);

        // A parallel decision run with speculation: cancellation reclaims
        // tasks while the committed count stays put (checked above).
        let p = Fib { depth: 12 };
        let out = simulate_decide(&p, &sim(Coordination::ordered(3), 2, 4));
        assert!(
            out.cancelled_tasks > 0,
            "a speculating decision run must reclaim tasks"
        );
    }

    #[test]
    fn hot_path_counters_are_populated_and_amortised() {
        let p = Fib { depth: 10 };
        let out = simulate_enumerate(&p, &sim(Coordination::depth_bounded(3), 2, 3));
        assert!(out.batch_pushes > 0, "eager spawning must batch");
        assert!(out.lock_acquisitions > 0, "pool ops must be counted");
        assert!(out.poll_checks > 0, "every event checks the deadline");
        assert!(
            out.spawns >= out.batch_pushes,
            "a non-empty batch carries at least one task"
        );
        // The batched pop path must keep pool operations well below one per
        // spawned task plus one per pop — the whole point of batching.
        assert!(
            out.lock_acquisitions < out.spawns + out.nodes,
            "lock ops ({}) should be amortised below task traffic ({} spawns, {} nodes)",
            out.lock_acquisitions,
            out.spawns,
            out.nodes
        );
    }

    #[test]
    fn tracing_is_free_in_virtual_time_and_mirrors_the_counters() {
        let p = Fib { depth: 11 };
        for coord in [
            Coordination::Sequential,
            Coordination::depth_bounded(2),
            Coordination::stack_stealing_chunked(),
            Coordination::budget(30),
            Coordination::ordered(2),
        ] {
            let off = simulate_enumerate(&p, &sim(coord, 2, 3));
            assert!(
                off.trace.is_empty(),
                "{coord}: untraced runs record nothing"
            );
            let mut cfg = sim(coord, 2, 3);
            cfg.trace = true;
            let on = simulate_enumerate(&p, &cfg);
            // Recording must never charge virtual time or perturb the
            // schedule: the traced run is tick-for-tick identical.
            assert_eq!(on.makespan, off.makespan, "{coord}");
            assert_eq!(on.nodes, off.nodes, "{coord}");
            assert_eq!(on.steals, off.steals, "{coord}");
            assert!(!on.trace.is_empty(), "{coord}");
            // The trace is the event-level mirror of the aggregate
            // counters: TaskEnd node deltas sum to `nodes`, one StealHit
            // per counted steal, and every task that started also ended
            // (the run completed).
            let task_nodes: u64 = on
                .trace
                .iter()
                .filter_map(|r| match r.event {
                    TraceEvent::TaskEnd { nodes, .. } => Some(nodes),
                    _ => None,
                })
                .sum();
            assert_eq!(task_nodes, on.nodes, "{coord}");
            let hits = on
                .trace
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::StealHit { .. }))
                .count() as u64;
            assert_eq!(hits, on.steals, "{coord}");
            let starts = on
                .trace
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::TaskStart { .. }))
                .count();
            let ends = on
                .trace
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::TaskEnd { .. }))
                .count();
            assert_eq!(starts, ends, "{coord}");
            // Virtual timestamps never exceed the makespan.
            assert!(on.trace.iter().all(|r| r.ts <= on.makespan), "{coord}");
        }
    }

    #[test]
    fn sequential_simulation_visits_every_node_exactly_once() {
        let p = Fib { depth: 9 };
        let out = simulate_enumerate(&p, &sim(Coordination::Sequential, 1, 1));
        assert_eq!(out.nodes, out.result.0);
        assert_eq!(out.total_work, out.nodes * CostModel::default().node_cost);
        assert_eq!(out.spawns, 0);
        assert_eq!(out.steals, 0);
    }
}
