//! The discrete-event simulation engine.
//!
//! Workers are advanced one search step at a time in virtual-time order.
//! Every step charges its cost to the worker's clock; the simulation ends
//! when every spawned task has been fully explored (or a decision search
//! short-circuits), and the makespan is the virtual time of that moment.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use yewpar::genstack::{Action, GenStack, Step};
use yewpar::monoid::Monoid;
use yewpar::params::Coordination;
use yewpar::trace::{TraceEvent, TraceRecord, CONTROL_WORKER, UNKNOWN_VICTIM};
use yewpar::workpool::{
    pick_shallowest, CommitLog, DepthPool, OrderedPool, SeqKey, Task, POP_BATCH, STEAL_BATCH,
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
    /// Latency of a Stack-Stealing steal from another worker's stack in the
    /// same locality (pool coordinations pop their locality pool for
    /// [`pop_cost`](CostModel::pop_cost) instead).
    pub local_steal_latency: u64,
    /// Latency of obtaining work from a remote locality, charged on a
    /// successful remote steal.  A blind remote steal that misses costs
    /// [`idle_poll`](CostModel::idle_poll) instead: the model charges no
    /// round trip for a miss.
    pub remote_steal_latency: u64,
    /// Delay before an improved incumbent becomes visible at other localities.
    pub bound_broadcast_latency: u64,
    /// Re-poll interval of an idle worker that found no work anywhere; also
    /// the whole cost of a remote steal that misses.
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
    /// [`simulate_multiplexed`](crate::multiplex::simulate_multiplexed)
    /// from the scheduler ledger's clock — the mirror of the threaded
    /// runtime's dispatcher-recorded `Metrics::queue_wait`.
    pub queue_wait_ticks: u64,
    /// The worker count the scheduler granted at admission (equals
    /// [`workers`](SimOutcome::workers) for a directly simulated search;
    /// under a multiplexed `FairShare` schedule it may be less than the
    /// submission requested, and later lease changes do not alter it).
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
        Action::by_bound(problem, node, |bound| {
            self.visible_bound(locality, now)
                .is_some_and(|best| bound <= best)
        })
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
        Action::by_bound(problem, node, |bound| *bound < self.target)
    }
}

/// Per-worker simulation state.
struct SimWorker<'p, P: SearchProblem> {
    locality: usize,
    /// Resumable depth-first traversal of the current task.
    stack: GenStack<'p, P>,
    /// Stolen (or locally retained) tasks not yet started.
    backlog: Vec<Task<P::Node>>,
    /// Sequence key of the current task (Ordered only; `None` when idle).
    key: Option<SeqKey>,
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

/// Simulate an enumeration search.
pub fn simulate_enumerate<P: Enumerate>(problem: &P, config: &SimConfig) -> SimOutcome<P::Value> {
    let driver = EnumSimDriver::<P> {
        acc: P::Value::empty(),
    };
    simulate(problem, config, driver, |d| d.acc)
}

/// Simulate an optimisation search.
pub fn simulate_maximise<P: Optimise>(
    problem: &P,
    config: &SimConfig,
) -> SimOutcome<Option<(P::Node, P::Score)>> {
    let driver = OptimSimDriver::<P>::new(config.costs.bound_broadcast_latency);
    simulate(problem, config, driver, |d| d.best.map(|(s, n)| (n, s)))
}

/// Simulate a decision search.
pub fn simulate_decide<P: Decide>(problem: &P, config: &SimConfig) -> SimOutcome<Option<P::Node>> {
    let driver = DecideSimDriver::<P> {
        inner: OptimSimDriver::<P>::new(config.costs.bound_broadcast_latency),
        target: problem.target(),
        witness: None,
        replaced: None,
    };
    simulate(problem, config, driver, |d| d.witness)
}

/// Simulate one search: build the shared loop state, seed the root task,
/// drive the coordination's own rules through [`Sim::run`], and read the
/// search result off the driver with `result`.
fn simulate<P, D, R>(
    problem: &P,
    config: &SimConfig,
    mut driver: D,
    result: impl FnOnce(D) -> R,
) -> SimOutcome<R>
where
    P: SearchProblem,
    D: SimDriver<P>,
{
    let mut trace = SimTrace {
        on: config.trace,
        records: Vec::new(),
    };
    let root = Task::new(problem.root(), 0);
    let stats = match config.coordination {
        // A sequence-keyed global pool with in-order commit semantics cannot
        // be approximated by the per-locality depth pools without losing the
        // replicability guarantee.
        Coordination::Ordered { spawn_depth } => {
            let pool = OrderedPool::new();
            pool.push(SeqKey::root(), root);
            let ordered = Ordered {
                spawn_depth,
                pool,
                log: CommitLog::new(),
            };
            let mut sim = Sim::new(problem, config, &mut driver, &mut trace, ordered);
            sim.run();
            sim.close()
        }
        coordination => {
            // One order-preserving pool per locality (used by Depth-Bounded,
            // Budget and Sequential; Stack-Stealing steals directly from
            // worker stacks).
            let pools = Pools {
                coordination,
                pools: (0..config.localities).map(|_| DepthPool::new()).collect(),
                rng: SmallRng::seed_from_u64(config.seed),
                scratch: Vec::new(),
            };
            let mut sim = Sim::new(problem, config, &mut driver, &mut trace, pools);
            // The root task starts at locality 0 (worker 0's backlog for
            // stack-stealing; locality 0's pool otherwise).
            match coordination {
                Coordination::StackStealing { .. } => sim.workers[0].backlog.push(root),
                _ => sim.coord.pools[0].push(root),
            }
            sim.run();
            sim.finish()
        }
    };
    SimOutcome {
        result: result(driver),
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
        trace: trace.records,
    }
}

/// The state of one simulated run: what every coordination shares, plus
/// the coordination's own state `C`.
struct Sim<'a, 'p, P: SearchProblem, D, C> {
    problem: &'p P,
    config: &'a SimConfig,
    driver: &'a mut D,
    trace: &'a mut SimTrace,
    workers: Vec<SimWorker<'p, P>>,
    stats: SimStats,
    /// Tasks spawned and not yet retired.
    outstanding: u64,
    /// The search is over early: a short-circuit, or a committed Ordered
    /// witness.
    stopped: bool,
    coord: C,
}

/// A simulated coordination's rules.  Each returns the virtual time of the
/// worker's next event; [`Sim::run`] calls one of them per event.
trait Rules<'p, P: SearchProblem, D: SimDriver<P>>: Sized {
    /// Idle worker `w` looks for work at `now`.
    fn acquire(sim: &mut Sim<'_, 'p, P, D, Self>, w: usize, now: u64) -> u64;

    /// Busy worker `w` advances its current task at `now`.
    fn step(sim: &mut Sim<'_, 'p, P, D, Self>, w: usize, now: u64) -> u64;
}

impl<'a, 'p, P, D, C> Sim<'a, 'p, P, D, C>
where
    P: SearchProblem,
    D: SimDriver<P>,
    C: Rules<'p, P, D>,
{
    fn new(
        problem: &'p P,
        config: &'a SimConfig,
        driver: &'a mut D,
        trace: &'a mut SimTrace,
        coord: C,
    ) -> Self {
        let workers = (0..config.workers())
            .map(|i| SimWorker {
                locality: i / config.workers_per_locality,
                stack: GenStack::new(),
                backlog: Vec::new(),
                key: None,
                backtracks_since_split: 0,
                work: 0,
                task_nodes: 0,
                task_prunes: 0,
                task_backtracks: 0,
            })
            .collect();
        Sim {
            problem,
            config,
            driver,
            trace,
            workers,
            stats: SimStats::default(),
            outstanding: 1,
            stopped: false,
            coord,
        }
    }

    /// The event loop: workers advance one event at a time in virtual-time
    /// order until every task is retired, the search stops early, or the
    /// deadline passes.
    fn run(&mut self) {
        // Event heap: (time, worker) — Reverse for a min-heap; ties broken by
        // worker index for determinism.
        let mut events: BinaryHeap<Reverse<(u64, usize)>> =
            (0..self.workers.len()).map(|w| Reverse((0, w))).collect();
        while let Some(Reverse((now, w))) = events.pop() {
            if self.outstanding == 0 || self.stopped {
                break;
            }
            // Virtual deadline: events are processed in time order, so the
            // first event at or past the deadline ends the whole run — exactly
            // like the threaded engine's per-step wall-clock poll, with zero
            // nondeterminism.  Every event is one deadline evaluation, the
            // virtual analogue of the threaded stride-gated poll check.
            self.stats.poll_checks += 1;
            if let Some(d) = self.config.deadline_ticks.filter(|&d| now >= d) {
                self.stats.deadline_hit = true;
                // The overshooting event never executes: the run ends at the
                // deadline itself.
                self.stats.makespan = d;
                break;
            }
            let next = if self.workers[w].stack.is_empty() {
                C::acquire(self, w, now)
            } else {
                C::step(self, w, now)
            };
            events.push(Reverse((next, w)));
        }
    }

    /// The run's final counters: the makespan falls back to the node work
    /// spread over all workers when nothing fixed it (a short-circuit
    /// before any completion, or a degenerate zero-work run).
    fn finish(&mut self) -> SimStats {
        if self.stats.makespan == 0 {
            self.stats.makespan =
                self.stats.nodes * self.config.costs.node_cost / self.workers.len().max(1) as u64;
        }
        self.stats.total_work = self.workers.iter().map(|w| w.work).sum();
        self.stats
    }

    /// Start `task` on worker `w`: record the start at `now`, reset the
    /// per-task counters and process the task's root node at time `at`.
    fn begin(&mut self, w: usize, task: &Task<P::Node>, now: u64, at: u64) -> Action {
        let depth = task.depth as u32;
        self.trace
            .emit(now, w as u32, TraceEvent::TaskStart { depth });
        let wk = &mut self.workers[w];
        wk.work += self.config.costs.node_cost;
        wk.task_nodes = 1;
        wk.task_backtracks = 0;
        wk.backtracks_since_split = 0;
        let action = self
            .driver
            .process(self.problem, &task.node, wk.locality, at);
        wk.task_prunes = matches!(action, Action::Prune | Action::PruneSiblings) as u64;
        action
    }

    /// One traversal step of worker `w`'s task through the core
    /// [`GenStack::step`], advancing `clock` by its virtual time: a node
    /// costs `node_cost` (charged before the node is processed), a
    /// backtrack one tick.
    fn advance(&mut self, w: usize, clock: &mut u64) -> Step {
        let (problem, node_cost) = (self.problem, self.config.costs.node_cost);
        let driver = &mut *self.driver;
        let wk = &mut self.workers[w];
        let locality = wk.locality;
        let step = wk.stack.step(problem, |node| {
            *clock += node_cost;
            driver.process(problem, node, locality, *clock)
        });
        if step.node_depth.is_some() {
            wk.work += node_cost;
            wk.task_nodes += 1;
        } else {
            *clock += 1; // backtracking is cheap but not free
        }
        wk.task_prunes += step.pruned as u64;
        if step.popped {
            wk.backtracks_since_split += 1;
            wk.task_backtracks += 1;
        }
        step
    }

    /// Eager spawning: every child of `task` becomes a task, released as one
    /// batch.  Returns the children and the batch's virtual time.
    fn spawn_children(&mut self, task: &Task<P::Node>) -> (Vec<Task<P::Node>>, u64) {
        let children: Vec<Task<P::Node>> = self
            .problem
            .generator(&task.node)
            .map(|c| Task::new(c, task.depth + 1))
            .collect();
        let cost = self.release(children.len());
        (children, cost)
    }

    /// Account `n` fresh tasks released into a pool in one batched push:
    /// they become outstanding, and a non-empty batch is one pool
    /// operation.  Returns the push's virtual time.
    fn release(&mut self, n: usize) -> u64 {
        self.outstanding += n as u64;
        self.stats.spawns += n as u64;
        if n > 0 {
            self.stats.batch_pushes += 1;
            self.stats.lock_acquisitions += 1;
        }
        self.config.costs.batched_spawn_cost(n)
    }
}

/// The blind remote pick: a uniformly random index in `0..n` outside the
/// contiguous range `own` (the thief's own locality), by one `rng` draw;
/// `None`, without a draw, when nothing lies outside it.
fn pick_outside(n: usize, own: Range<usize>, rng: &mut SmallRng) -> Option<usize> {
    let i = (n > own.len()).then(|| rng.gen_range(0..n - own.len()))?;
    Some(if i < own.start { i } else { i + own.len() })
}

/// The Sequential, Depth-Bounded, Budget and Stack-Stealing coordinations:
/// one depth pool per locality (unused by Stack-Stealing, whose thieves
/// split other workers' stacks) and seeded random victim selection.
struct Pools<N> {
    coordination: Coordination,
    pools: Vec<DepthPool<N>>,
    rng: SmallRng,
    /// Reused tie buffer for [`pick_shallowest`].
    scratch: Vec<usize>,
}

impl<'p, P: SearchProblem, D: SimDriver<P>> Rules<'p, P, D> for Pools<P::Node> {
    /// Start backlog work, pop the locality pool, or steal.
    fn acquire(sim: &mut Sim<'_, 'p, P, D, Self>, w: usize, now: u64) -> u64 {
        if !sim.workers[w].backlog.is_empty() {
            let task = sim.workers[w].backlog.remove(0);
            return now + sim.start_task(w, task, now);
        }
        now + match sim.coord.coordination {
            Coordination::StackStealing { chunked } => sim.steal_stack(w, now, chunked),
            _ => sim.pop_or_steal_pool(w, now),
        }
    }

    fn step(sim: &mut Sim<'_, 'p, P, D, Self>, w: usize, now: u64) -> u64 {
        let mut clock = now;
        // Budget coordination: split before the next step if the budget is
        // exhausted.
        if let Coordination::Budget { backtracks } = sim.coord.coordination {
            if sim.workers[w].backtracks_since_split >= backtracks {
                let offload = sim.workers[w].stack.split_lowest(true);
                clock += sim.release(offload.len());
                sim.coord.pools[sim.workers[w].locality].push_all(offload);
                sim.workers[w].backtracks_since_split = 0;
            }
        }
        let step = sim.advance(w, &mut clock);
        sim.stats.nodes += step.node_depth.is_some() as u64;
        sim.stats.prunes += step.pruned as u64;
        if step.short_circuit {
            sim.short_circuit(w, clock);
        } else if step.popped && sim.workers[w].stack.is_empty() {
            sim.retire(w, clock);
        }
        clock
    }
}

impl<'p, P: SearchProblem, D: SimDriver<P>> Sim<'_, 'p, P, D, Pools<P::Node>> {
    /// Begin executing a task on worker `w`: process its root node and either
    /// spawn its children (Depth-Bounded above the cutoff) or set up the
    /// resumable depth-first traversal.  Returns the virtual time consumed.
    fn start_task(&mut self, w: usize, task: Task<P::Node>, now: u64) -> u64 {
        let mut at = now + self.config.costs.node_cost;
        self.stats.nodes += 1;
        match self.begin(w, &task, now, at) {
            Action::Prune | Action::PruneSiblings => {
                self.stats.prunes += 1;
                self.retire(w, at);
            }
            Action::ShortCircuit => self.short_circuit(w, at),
            // Eager placement-time spawning: the Depth-Bounded cutoff.
            Action::Expand => match self.coord.coordination {
                Coordination::DepthBounded { dcutoff } if task.depth < dcutoff => {
                    let (children, cost) = self.spawn_children(&task);
                    at += cost;
                    self.coord.pools[self.workers[w].locality].push_all(children);
                    self.retire(w, at);
                }
                _ => self.workers[w]
                    .stack
                    .push(self.problem, &task.node, task.depth),
            },
        }
        at - now
    }

    /// Record the end of worker `w`'s task at `at`.
    fn end_task(&mut self, w: usize, at: u64) {
        let wk = &self.workers[w];
        let event = task_end_event(wk.task_nodes, wk.task_prunes, wk.task_backtracks);
        self.trace.emit(at, w as u32, event);
    }

    /// Worker `w`'s task is done at `at`; the last outstanding task fixes
    /// the makespan.
    fn retire(&mut self, w: usize, at: u64) {
        self.end_task(w, at);
        self.outstanding -= 1;
        if self.outstanding == 0 {
            self.stats.makespan = at;
        }
    }

    /// Worker `w` found a decision witness at `at`: the search stops.
    fn short_circuit(&mut self, w: usize, at: u64) {
        self.end_task(w, at);
        self.stats.makespan = at;
        self.stopped = true;
    }

    /// Pool coordinations' acquisition.  Returns the virtual time taken.
    ///
    /// Local pool first — a batched pop takes up to `POP_BATCH` tasks for
    /// one pool operation, capped at this worker's fair share of the pool
    /// so a scarce frontier is never hoarded in one backlog (the threaded
    /// engine avoids this by sharding the pool per worker; the
    /// locality-level pool here must ration instead).  When the pool is
    /// empty, gamble on a *random* remote pool — the sharded pool's depth
    /// hints are in-process atomics that do not propagate across
    /// localities in the distributed model, so remote probing stays blind —
    /// and take a small batch on a hit to amortise the steal latency over
    /// `STEAL_BATCH` tasks.  A miss costs one idle poll.
    fn pop_or_steal_pool(&mut self, w: usize, now: u64) -> u64 {
        let costs = &self.config.costs;
        let my_locality = self.workers[w].locality;
        let pools = &self.coord.pools;
        let share = pools[my_locality]
            .len()
            .div_ceil(self.config.workers_per_locality.max(1))
            .max(1);
        let mut grabbed = VecDeque::new();
        if pools[my_locality].pop_batch(share.min(POP_BATCH), &mut grabbed) > 0 {
            self.stats.lock_acquisitions += 1;
            self.workers[w].backlog.extend(grabbed);
            return costs.pop_cost;
        }
        let own = my_locality..my_locality + 1;
        let Some(victim) = pick_outside(self.config.localities, own, &mut self.coord.rng) else {
            // Single locality: an empty pool means an idle re-poll with
            // nobody to steal from — still a failed acquisition for the
            // starvation analysis.
            let victim = UNKNOWN_VICTIM;
            self.trace
                .emit(now, w as u32, TraceEvent::StealMiss { victim });
            return costs.idle_poll;
        };
        // Victim-side rationing: never ship more than half the victim
        // pool's tasks, so a scarce frontier is spread across stealing
        // localities instead of hoarded by the first thief to land.
        let cap = STEAL_BATCH.min(pools[victim].len().div_ceil(2)).max(1);
        // Pool-coordination steal events name the victim *locality* (the
        // pool is the unit stolen from, as in the threaded sharded pool's
        // cross-shard steal).
        let victim_id = victim as u32;
        let request = TraceEvent::StealRequest { victim: victim_id };
        self.trace.emit(now, w as u32, request);
        let got = pools[victim].pop_batch(cap, &mut grabbed);
        if got == 0 {
            let miss = TraceEvent::StealMiss { victim: victim_id };
            self.trace.emit(now, w as u32, miss);
            return costs.idle_poll;
        }
        self.stats.lock_acquisitions += 1;
        self.stats.steals += 1;
        let hit = TraceEvent::StealHit {
            victim: victim_id,
            tasks: got as u32,
            remote: true,
        };
        self.trace.emit(now, w as u32, hit);
        self.workers[w].backlog.extend(grabbed);
        costs.remote_steal_latency
    }

    /// Stack-Stealing's acquisition: split another worker's stack.  Returns
    /// the virtual time taken.
    ///
    /// Prefer a local victim, fall back to a remote one.  The two tiers see
    /// different information, mirroring the threaded engine's shared-memory
    /// work-hint array:
    ///
    /// * *Local* picks are hint-guided — the per-worker hints are cheap
    ///   in-process atomics, so a thief picks by the core victim rule
    ///   [`pick_shallowest`] over its locality's stealable frontiers,
    ///   failing fast (one idle poll) when nobody there has work.
    /// * *Remote* picks are blind — hints do not propagate across
    ///   localities in the distributed model, so the thief gambles a random
    ///   remote worker: a hit pays the remote steal latency, a miss one
    ///   idle poll.  (This is also a safety valve: were remote thieves
    ///   hint-guided too, every idle locality would strip-mine the first
    ///   busy worker's shallow frontier the instant it appears, shipping
    ///   nearly the whole root frontier into in-flight transfers at once.)
    fn steal_stack(&mut self, w: usize, now: u64, chunked: bool) -> u64 {
        let costs = &self.config.costs;
        let my_locality = self.workers[w].locality;
        let locals = self.workers.iter_mut().enumerate();
        let mut frontiers = locals
            .filter(|(_, victim)| victim.locality == my_locality)
            .map(|(v, victim)| (v, victim.stack.steal_depth()));
        let rng = &mut self.coord.rng;
        let local = pick_shallowest(w, &mut frontiers, rng, &mut self.coord.scratch);
        let remote = local.is_none();
        let wpl = self.config.workers_per_locality;
        let own = my_locality * wpl..(my_locality + 1) * wpl;
        let Some(victim) = local.or_else(|| pick_outside(self.workers.len(), own, rng)) else {
            let victim = UNKNOWN_VICTIM;
            self.trace
                .emit(now, w as u32, TraceEvent::StealMiss { victim });
            return costs.idle_poll;
        };
        let latency = match remote {
            true => costs.remote_steal_latency,
            false => costs.local_steal_latency,
        };
        let victim_id = victim as u32;
        let request = TraceEvent::StealRequest { victim: victim_id };
        self.trace.emit(now, w as u32, request);
        let stolen = self.workers[victim].stack.split_lowest(chunked);
        if stolen.is_empty() {
            let miss = TraceEvent::StealMiss { victim: victim_id };
            self.trace.emit(now, w as u32, miss);
            return if remote { costs.idle_poll } else { latency };
        }
        self.outstanding += stolen.len() as u64;
        self.stats.spawns += stolen.len() as u64;
        self.stats.steals += 1;
        let hit = TraceEvent::StealHit {
            victim: victim_id,
            tasks: stolen.len() as u32,
            remote,
        };
        self.trace.emit(now, w as u32, hit);
        self.workers[w].backlog.extend(stolen);
        latency
    }
}

/// The simulated Ordered coordination: a *global* sequence-keyed pool (the
/// whole point of the coordination is that every pop observes the one true
/// sequential frontier, so per-locality pools would break replicability)
/// driven through the threaded skeleton's own [`CommitLog`] — speculation
/// with in-order commit plus purge/straggler/in-flight cancellation.  These
/// rules add only virtual time.  Committed node counts are a pure function
/// of the instance and spawn depth: identical across worker counts and
/// equal to the threaded Ordered skeleton's committed counts.
struct Ordered<N> {
    spawn_depth: usize,
    pool: OrderedPool<Task<N>>,
    /// Per-task `(nodes, prunes)`, classified by the log at the end.
    log: CommitLog<(u64, u64)>,
}

impl<'p, P: SearchProblem, D: SimDriver<P>> Rules<'p, P, D> for Ordered<P::Node> {
    /// Issue the globally smallest-key task.
    fn acquire(sim: &mut Sim<'_, 'p, P, D, Self>, w: usize, now: u64) -> u64 {
        let costs = &sim.config.costs;
        let mut clock = now;
        while let Some((key, task)) = sim.coord.pool.pop() {
            sim.stats.lock_acquisitions += 1;
            // Post-witness stragglers (children released by committed-side
            // parents after the purge) are reclaimed at pop time — each
            // skip still pays the pop it performed, like the threaded pool.
            if sim.coord.log.after_witness(&key) {
                sim.outstanding -= 1;
                sim.stats.cancelled_tasks += 1;
                clock += costs.pop_cost;
                continue;
            }
            if sim.coord.log.issue(key.clone()) {
                sim.stats.priority_inversions += 1;
            }
            clock += costs.pop_cost + costs.node_cost;
            sim.workers[w].key = Some(key.clone());
            match sim.begin(w, &task, now, clock) {
                Action::Expand if task.depth >= sim.coord.spawn_depth => {
                    sim.workers[w]
                        .stack
                        .push(sim.problem, &task.node, task.depth);
                }
                Action::Expand => {
                    // Eager sequence-keyed spawning: every child becomes a
                    // task keyed in heuristic order.
                    let (children, cost) = sim.spawn_children(&task);
                    sim.stats.ordered_spawns += children.len() as u64;
                    clock += cost;
                    for (i, child) in children.into_iter().enumerate() {
                        sim.coord.pool.push(key.child(i as u32), child);
                    }
                    sim.retire(w, key, clock, false);
                }
                action => sim.retire(w, key, clock, action == Action::ShortCircuit),
            }
            return clock;
        }
        clock + costs.idle_poll
    }

    fn step(sim: &mut Sim<'_, 'p, P, D, Self>, w: usize, now: u64) -> u64 {
        let key = sim.workers[w]
            .key
            .clone()
            .expect("busy ordered worker has a key");
        // Cooperative cancellation, polled once per step like the threaded
        // engine: a pending witness with an earlier key makes this task's
        // remaining subtree worthless.
        if sim.coord.log.after_witness(&key) {
            sim.workers[w].stack = GenStack::new();
            sim.retire(w, key, now, false);
            let nodes = sim.workers[w].task_nodes;
            sim.trace
                .emit(now, w as u32, TraceEvent::SpeculationCancel { nodes });
            sim.stats.cancelled_tasks += 1;
            return now + 1;
        }
        let mut clock = now;
        let step = sim.advance(w, &mut clock);
        if step.short_circuit {
            // The task stops at its first witness; whether the *search*
            // stops is the commit's decision.
            sim.workers[w].stack = GenStack::new();
            sim.retire(w, key, clock, true);
        } else if step.popped && sim.workers[w].stack.is_empty() {
            sim.retire(w, key, clock, false);
        }
        clock
    }
}

impl<'p, P: SearchProblem, D: SimDriver<P>> Sim<'_, 'p, P, D, Ordered<P::Node>> {
    /// Retire worker `w`'s task, keyed `key`, through the commit log at
    /// `at`, and charge the verdict to the run: the task and any purged
    /// ones leave `outstanding`, purges count as reclaimed speculation, and
    /// the commit — or the last outstanding task — fixes the makespan.  A
    /// `witnessed` task the log did not adopt (it sorts after the pending
    /// witness) hands the driver back its previous witness.
    fn retire(&mut self, w: usize, key: SeqKey, at: u64, witnessed: bool) {
        let wk = &mut self.workers[w];
        wk.key = None;
        let record = (wk.task_nodes, wk.task_prunes);
        self.trace
            .emit(at, w as u32, task_end_event(record.0, record.1, 0));
        let retired = self
            .coord
            .log
            .retire(&self.coord.pool, key, record, witnessed);
        if witnessed && retired.purged.is_none() {
            self.driver.reject_witness();
        }
        self.outstanding -= 1;
        if let Some(purged) = retired.purged {
            self.outstanding -= purged as u64;
            self.stats.cancelled_tasks += purged as u64;
        }
        if retired.committed {
            self.stats.makespan = at;
            self.stopped = true;
        }
        if self.outstanding == 0 && self.stats.makespan == 0 {
            self.stats.makespan = at;
        }
    }

    /// Classify the run through the commit log and emit its commit-time
    /// events.
    fn close(&mut self) -> SimStats {
        // Post-commit aborts: in-flight tasks at the stop all carry keys after
        // the witness (the commit waited for everything earlier), so the log
        // classifies their partial work as speculative.
        let log = &mut self.coord.log;
        for (w, wk) in self.workers.iter_mut().enumerate() {
            if let Some(key) = wk.key.take() {
                let (nodes, prunes) = (wk.task_nodes, wk.task_prunes);
                let end = task_end_event(nodes, prunes, 0);
                self.trace.emit(self.stats.makespan, w as u32, end);
                log.retire(&self.coord.pool, key, (nodes, prunes), false);
            }
        }
        self.stats.nodes = log.committed_records().map(|&(nodes, _)| nodes).sum();
        self.stats.prunes = log.committed_records().map(|&(_, prunes)| prunes).sum();
        self.stats.speculative_nodes = log.speculative_records().map(|&(nodes, _)| nodes).sum();
        let witnessed = log.witness().is_some();
        let stats = self.finish();

        // Mirror the threaded Ordered skeleton's commit-time classification
        // events: one aggregate commit (and discard, when speculation was
        // wasted) from the control plane, emitted only when a witness exists —
        // enumeration and optimisation runs have no speculation to classify.
        let (at, nodes, speculative) = (stats.makespan, stats.nodes, stats.speculative_nodes);
        if witnessed {
            let commit = TraceEvent::SpeculationCommit { nodes };
            self.trace.emit(at, CONTROL_WORKER, commit);
            if speculative > 0 {
                let discard = TraceEvent::SpeculationDiscard { nodes: speculative };
                self.trace.emit(at, CONTROL_WORKER, discard);
            }
        }
        stats
    }
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
