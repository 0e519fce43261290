//! The unified worker engine behind every search coordination.
//!
//! Historically each parallel coordination (Depth-Bounded, Stack-Stealing,
//! Budget) carried its own copy of the worker-spawn loop, termination
//! polling, panic ("poison") handling and metrics plumbing. This module
//! owns all of that exactly once. A coordination is now just a pair of
//! small strategy objects plugged into the engine's `run` entry point:
//!
//! * a `WorkSource` — where a worker's next task comes from and where
//!   tasks it gives up go (a sharded depth pool, per-worker steal channels,
//!   or a one-shot root holder for the Sequential case);
//! * a `SpawnPolicy` — *when* the traversal splits off work for others
//!   (eagerly above a depth cutoff, after a backtrack budget, or never).
//!
//! The engine drives the shared depth-first traversal (the (expand),
//! (backtrack), (prune) and (shortcircuit) rules) through the search-type
//! driver, polls the [`Termination`] flags, calls the source's per-step
//! hook so on-demand splitting (stack stealing) can happen mid-task, and
//! joins the workers, re-raising any worker panic. Knowledge sharing (the
//! incumbent of optimisation/decision searches) lives inside the drivers
//! and is therefore identical across coordinations by construction.
//!
//! All five coordinations share this one worker loop.  The Ordered
//! coordination differs only in its source's hooks: its
//! `WorkSource::on_task_end` retires each task into an in-order commit log
//! instead of short-circuiting on the spot, its
//! `WorkSource::OFFLOADS_ON_REVOKE` keeps a revoked worker from migrating
//! work mid-task, and its `WorkSource::cancelled` reclaims speculation.

use crate::sync::{AtomicBool, Ordering};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::genstack::{Action, GenStack};
use crate::lifecycle::{Lifecycle, LifecycleLocal};
use crate::metrics::WorkerMetrics;
use crate::node::SearchProblem;
use crate::skeleton::driver::Driver;
use crate::termination::Termination;
use crate::trace::{TraceEvent, TraceHandle, Tracer, UNKNOWN_VICTIM};
use crate::workpool::Task;

/// How a task's (sub)search ended, as handed to
/// [`WorkSource::on_task_end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// The subtree was fully explored (or pruned away).
    Completed,
    /// A short-circuit was requested: the whole search must stop.
    ShortCircuited,
    /// The task was cancelled mid-traversal and the worker should move on —
    /// either the work source learned the task's remaining subtree is
    /// useless (Ordered speculation sequentially after a pending decision
    /// witness, which stops only the *task*), or the whole search was
    /// stopped externally (cancel token / deadline, where the stop flag is
    /// already raised and must *not* be reported as a witness-bearing
    /// short-circuit).
    Cancelled,
}

/// Where workers obtain tasks and publish tasks for others.
///
/// A source is shared by all workers of one skeleton execution; per-worker
/// state (a shard index, a steal-request receiver, a private backlog, …)
/// lives in the associated [`WorkSource::Local`] value claimed once per
/// worker via [`WorkSource::register`].
pub(crate) trait WorkSource<P: SearchProblem>: Sync {
    /// Per-worker state. Claimed once, owned by the worker thread.
    type Local: Send;

    /// May a worker that claims a cooperative revocation in the middle of a
    /// task hand the task's remaining subtree to the survivors as new
    /// tasks?  Sources that say no (Ordered: offloaded children would be
    /// keyed under the *current* node, corrupting the replicable commit
    /// order) keep the worker until the task ends, so it leaves only
    /// between tasks.
    const OFFLOADS_ON_REVOKE: bool = true;

    /// Claim worker `worker`'s local state. Called exactly once per worker,
    /// from that worker's thread, before it processes any task.
    fn register(&self, worker: usize) -> Self::Local;

    /// Install the root task before any worker starts.
    fn seed(&self, task: Task<P::Node>);

    /// Pop the next locally owned task, if any (the owner fast path).
    /// `term` lets a source drain tasks it skips instead of issuing.
    fn pop(&self, local: &mut Self::Local, term: &Termination) -> Option<Task<P::Node>>;

    /// Try to obtain work that is not locally available (the steal path).
    /// Implementations record `steals` / `failed_steals` on `metrics`.
    fn acquire(
        &self,
        local: &mut Self::Local,
        term: &Termination,
        metrics: &mut WorkerMetrics,
    ) -> Option<Task<P::Node>>;

    /// Publish `tasks` so other workers can pick them up, draining the
    /// vector. Callers must have registered the tasks with the termination
    /// counter *before* calling this (see [`StepEnv::spawn`], which does
    /// both).  Taking `&mut Vec` instead of `Vec` lets the engine reuse one
    /// spawn buffer per worker for every generator burst, so the eager
    /// spawn path allocates nothing in steady state; implementations must
    /// leave the vector empty (e.g. via `drain(..)` or a batched pool
    /// push).
    fn release(&self, local: &mut Self::Local, tasks: &mut Vec<Task<P::Node>>);

    /// Per-expansion-step hook, called with the live generator stack of the
    /// executing task. Sources that hand out work on demand (stack
    /// stealing) answer pending steal requests here; pool-backed sources do
    /// nothing.
    fn poll(
        &self,
        local: &mut Self::Local,
        stack: &mut GenStack<'_, P>,
        term: &Termination,
        metrics: &mut WorkerMetrics,
    ) {
        let _ = (local, stack, term, metrics);
    }

    /// Discard every task still queued, returning how many were dropped
    /// (called after a decision short-circuit and once more after the
    /// join).  Callers must hand the count to
    /// [`Termination::tasks_discarded`] so the outstanding-task counter
    /// still drains to zero.
    fn discard(&self) -> usize {
        0
    }

    /// Called once after every task with how the task ended and the task's
    /// own counters.  The default folds the counters into the worker's
    /// `metrics` and applies a short-circuit at once: stop the search and
    /// discard the queued tasks (they never run, so they must drain the
    /// outstanding counter here — otherwise `all_done()` stays false and
    /// only the stop flag masks it).  The Ordered source instead retires
    /// the task into its commit log, which decides when a witness commits.
    fn on_task_end(
        &self,
        local: &mut Self::Local,
        flow: Flow,
        task: WorkerMetrics,
        metrics: &mut WorkerMetrics,
        term: &Termination,
    ) {
        let _ = local;
        metrics.merge(&task);
        if flow == Flow::ShortCircuited {
            term.short_circuit();
            term.tasks_discarded(self.discard() as u64);
        }
    }

    /// Polled once per traversal step of an executing task: should the task
    /// abandon its remaining subtree?  Sources that learn mid-run that a
    /// task's work is useless (the Ordered coordination's speculation
    /// cancellation: the task's sequence key is after a pending decision
    /// witness) answer `true`, making `run_task` return a cancelled flow
    /// so the worker can be reclaimed immediately instead of burning until
    /// the commit fires.  `local` is mutable so implementations can cache
    /// whatever they need to keep this poll off shared state (the Ordered
    /// source caches the broadcast frontier per epoch).  The default never
    /// cancels.
    fn cancelled(&self, _local: &mut Self::Local) -> bool {
        false
    }

    /// Discard every task still held in a worker's private state, returning
    /// how many were dropped.  Called once per worker as its loop exits, so
    /// tasks abandoned in per-worker backlogs (Stack-Stealing) drain the
    /// outstanding counter exactly like pool-level [`discard`]s — after an
    /// external cancel or deadline, `Termination::outstanding()` therefore
    /// reaches zero for *every* coordination.  The default holds no private
    /// tasks.
    ///
    /// [`discard`]: WorkSource::discard
    fn drain_local(&self, _local: &mut Self::Local) -> usize {
        0
    }

    /// Fold the counters gathered in `local` (pool lock acquisitions, the
    /// Ordered source's inversions, spawns and cancellations) into the
    /// worker's metrics.  Called once as a worker's loop exits, so the hot
    /// path pays nothing for them.
    fn on_exit(&self, _local: &mut Self::Local, _metrics: &mut WorkerMetrics) {}

    /// Hand every task still held in the worker's private state back to the
    /// *survivors* of the search — called when a worker leaves an elastic
    /// grant mid-run (cooperative revocation).  The dual of
    /// [`drain_local`]: the search is still running, so nothing may be
    /// discarded or drained from the outstanding counter; tasks must go
    /// somewhere another worker can reach them (the worker's pool shard, a
    /// shared parking queue, …).  Sources whose locals hold no tasks keep
    /// the default no-op.
    ///
    /// [`drain_local`]: WorkSource::drain_local
    fn retire(&self, _local: &mut Self::Local) {}
}

/// When the depth-first traversal splits off work for other workers.
///
/// The two hooks mirror the paper's spawn rules: [`spawn_children`]
/// implements eager, placement-time splitting ((spawn-depth), Listing 2 of
/// the Depth-Bounded coordination) and [`on_step`] implements splitting
/// *during* a task's traversal ((spawn-budget), Listing 4).  On-demand
/// splitting on behalf of a thief ((spawn-stack), Listing 3) is the work
/// source's business, not the policy's, because it is driven by the thief's
/// request rather than by the victim's traversal state.
///
/// [`spawn_children`]: SpawnPolicy::spawn_children
/// [`on_step`]: SpawnPolicy::on_step
pub(crate) trait SpawnPolicy<P: SearchProblem, S: WorkSource<P>>: Sync {
    /// Should a task rooted at `depth` have its children spawned as tasks
    /// instead of being explored in place?
    fn spawn_children(&self, depth: usize) -> bool {
        let _ = depth;
        false
    }

    /// Called once per traversal step of an executing task, before the next
    /// child is generated. `task_backtracks` counts the backtracks this
    /// task performed since the policy last reset it — the Budget policy's
    /// spawn trigger.
    fn on_step(
        &self,
        env: &mut StepEnv<'_, P, S>,
        stack: &mut GenStack<'_, P>,
        task_backtracks: &mut u64,
    ) {
        let _ = (env, stack, task_backtracks);
    }
}

/// If a worker unwinds (a panicking search problem or driver), stop the
/// whole search so surviving workers exit their loops — otherwise the
/// panicked task is never marked completed, the outstanding-task counter
/// never drains, and the scope would block on the join forever instead of
/// re-raising.
struct UnwindGuard<'a>(&'a Termination);

impl Drop for UnwindGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.short_circuit();
        }
    }
}

/// Bounded idle backoff of the worker loop: a few rounds of busy
/// spinning (cheapest wake-up when work arrives within nanoseconds), then
/// scheduler yields, then exponentially growing sleeps capped well below a
/// millisecond.  An idle worker whose source is empty while tasks are still
/// outstanding therefore costs a bounded amount of CPU instead of
/// hot-spinning the pop/steal path, without adding meaningful wake-up
/// latency when work does appear.
struct IdleBackoff {
    rounds: u32,
}

impl IdleBackoff {
    /// Rounds of pure `spin_loop` hints before yielding.
    const SPIN_ROUNDS: u32 = 4;
    /// Rounds (cumulative) before the backoff starts sleeping.
    const YIELD_ROUNDS: u32 = 16;
    /// First sleep duration; doubles each round up to [`MAX_SLEEP`].
    ///
    /// [`MAX_SLEEP`]: IdleBackoff::MAX_SLEEP
    const FIRST_SLEEP_MICROS: u64 = 50;
    /// Ceiling on a single backoff sleep, so termination and cancellation
    /// signals are still observed promptly.
    const MAX_SLEEP: Duration = Duration::from_micros(500);

    fn new() -> Self {
        IdleBackoff { rounds: 0 }
    }

    /// Work was found: restart the backoff from the cheap end.
    fn reset(&mut self) {
        self.rounds = 0;
    }

    /// No work was found: wait a little, escalating spin → yield → sleep.
    fn wait(&mut self) {
        let round = self.rounds;
        self.rounds = self.rounds.saturating_add(1);
        if round < Self::SPIN_ROUNDS {
            for _ in 0..(1u32 << round) {
                std::hint::spin_loop();
            }
        } else if round < Self::YIELD_ROUNDS {
            std::thread::yield_now();
        } else {
            let doublings = (round - Self::YIELD_ROUNDS).min(8);
            let sleep =
                Duration::from_micros(Self::FIRST_SLEEP_MICROS << doublings).min(Self::MAX_SLEEP);
            std::thread::sleep(sleep);
        }
    }
}

/// The policy that never spawns: Sequential, and Stack-Stealing (where all
/// splitting happens in the source's steal-request hook).
pub(crate) struct NoSpawn;

impl<P: SearchProblem, S: WorkSource<P>> SpawnPolicy<P, S> for NoSpawn {}

/// What a [`SpawnPolicy`] sees on each step: enough to hand tasks to the
/// work source with correct termination/metrics accounting.
pub(crate) struct StepEnv<'e, P: SearchProblem, S: WorkSource<P>> {
    source: &'e S,
    local: &'e mut S::Local,
    term: &'e Termination,
    metrics: &'e mut WorkerMetrics,
}

impl<P: SearchProblem, S: WorkSource<P>> StepEnv<'_, P, S> {
    /// Spawn `tasks` into the work source, draining the vector: registers
    /// them with the termination counter first (so the outstanding count can
    /// never reach zero while they are in flight), records them as spawns
    /// and one batched push, then releases the whole burst for other workers
    /// in a single source operation.  The caller keeps the vector's
    /// capacity, so a reused spawn buffer makes this path allocation-free.
    pub(crate) fn spawn(&mut self, tasks: &mut Vec<Task<P::Node>>) {
        if tasks.is_empty() {
            return;
        }
        self.term.task_spawned(tasks.len() as u64);
        self.metrics.spawns += tasks.len() as u64;
        self.metrics.batch_pushes += 1;
        self.source.release(self.local, tasks);
    }
}

/// Run a search: spawn `workers` workers over `source`, splitting per
/// `policy`, and collect per-worker metrics and the elapsed wall-clock time.
///
/// A single worker runs inline on the calling thread — no spawn/join cost,
/// so `Skeleton` overhead measurements (the Table 1 experiment) compare the
/// traversal itself against hand-written baselines, and panics propagate
/// unchanged.  With several workers, panics of worker threads are detected
/// at join and re-raised here ("poison handling"), so a buggy search
/// problem cannot silently drop part of the tree.
///
/// `term` is caller-supplied so the caller can read the stop cause and the
/// outstanding-task counter after the run; `lifecycle` carries the external
/// stop conditions (cancel token, deadline), the progress sink, and an
/// optional persistent worker pool to run on instead of spawning scoped
/// threads.
pub(crate) fn run<P, D, S, Y>(
    problem: &P,
    driver: &D,
    workers: usize,
    source: &S,
    policy: Y,
    term: &Termination,
    lifecycle: &Lifecycle,
) -> (Vec<WorkerMetrics>, Duration)
where
    P: SearchProblem,
    D: Driver<P>,
    S: WorkSource<P>,
    Y: SpawnPolicy<P, S>,
{
    let start = Instant::now();
    let workers = workers.max(1);
    source.seed(Task::new(problem.root(), 0));
    let all_metrics = spawn_and_join(lifecycle, workers, |worker| {
        worker_loop(problem, driver, source, &policy, term, lifecycle, worker)
    });
    // Stragglers: a worker can release spawned tasks after another worker's
    // short-circuit already discarded the source, and then exit on the stop
    // flag without a further discard.  Drain them here so queued tasks are
    // accounted exactly once — together with the per-worker
    // [`WorkSource::drain_local`] on loop exit, `outstanding() == 0` holds
    // after every non-panicking run of every coordination, completed,
    // short-circuited, cancelled or timed out alike.
    term.tasks_discarded(source.discard() as u64);
    (all_metrics, start.elapsed())
}

/// Run `worker_fn` on `workers` worker threads and collect their metrics.
///
/// A single worker runs inline on the calling thread — no spawn/join cost,
/// and panics propagate unchanged.  With several workers, worker 0 always
/// runs inline on the calling thread, which is already running, so the
/// root task never waits for a fresh thread to be scheduled (a search with
/// a short deadline would otherwise end before any worker started).  With
/// no pool on the `lifecycle`, a scoped thread is spawned per other
/// worker; with a persistent [`WorkerPool`](crate::runtime::WorkerPool)
/// (runtime submissions), the pool's one runner dispatches the other
/// workers to the pool threads leased by the scheduler's grant (the whole
/// pool when no grant restricts it) — no per-search thread spawn, and
/// concurrently multiplexed searches stay on disjoint threads.  Either way
/// a worker panic is caught (inline for worker 0, at join for the rest) and
/// re-raised here as "a search worker panicked" ("poison handling").
fn spawn_and_join<F>(lifecycle: &Lifecycle, workers: usize, worker_fn: F) -> Vec<WorkerMetrics>
where
    F: Fn(usize) -> WorkerMetrics + Sync,
{
    let grant = lifecycle.grant.as_ref();
    // An *elastic* grant (concurrent scheduling policy) must go through the
    // pool even at one worker: the dispatcher can lease extra slots onto the
    // live search at any moment, and only the runner's armed hook can
    // accept them.
    let elastic = grant.and_then(|grant| grant.core.as_ref());
    if elastic.is_none() && workers == 1 {
        return vec![worker_fn(0)];
    }
    if let Some(pool) = lifecycle.pool.as_deref() {
        let whole_pool: Vec<usize>;
        let lease = match grant {
            Some(grant) => &grant.slots[..],
            None => {
                whole_pool = (0..pool.size()).collect();
                &whole_pool
            }
        };
        // A zero-thread pool (a workers=1 runtime asked to run a
        // multi-worker search) or a zero-slot fixed lease has no threads to
        // dispatch to; fall through to scoped threads.
        if elastic.is_some() || !lease.is_empty() {
            return pool.scoped_run(elastic, lease, workers, &worker_fn);
        }
    }
    let poisoned = AtomicBool::new(false);
    let mut all_metrics = vec![WorkerMetrics::default(); workers];
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers - 1);
        for worker in 1..workers {
            let worker_fn = &worker_fn;
            handles.push(scope.spawn(move || worker_fn(worker)));
        }
        match catch_unwind(AssertUnwindSafe(|| worker_fn(0))) {
            Ok(metrics) => all_metrics[0] = metrics,
            // ordering: launching-thread-only flag, as in the join loop.
            Err(_) => poisoned.store(true, Ordering::Relaxed),
        }
        for (worker, handle) in (1..workers).zip(handles) {
            match handle.join() {
                Ok(metrics) => all_metrics[worker] = metrics,
                // ordering: written and read by this (the launching) thread
                // only, after join(); the atomic exists for the scope-closure
                // borrow, not for cross-thread publication.
                Err(_) => poisoned.store(true, Ordering::Relaxed),
            }
        }
    });
    // ordering: same-thread read of the flag set in the join loop above.
    if poisoned.load(Ordering::Relaxed) {
        panic!("a search worker panicked");
    }
    all_metrics
}

/// One worker: pop/steal tasks until the search completes, short-circuits,
/// is cancelled, or times out.
fn worker_loop<P, D, S, Y>(
    problem: &P,
    driver: &D,
    source: &S,
    policy: &Y,
    term: &Termination,
    lifecycle: &Lifecycle,
    worker: usize,
) -> WorkerMetrics
where
    P: SearchProblem,
    D: Driver<P>,
    S: WorkSource<P>,
    Y: SpawnPolicy<P, S>,
{
    let _guard = UnwindGuard(term);

    let mut local = source.register(worker);
    let mut metrics = WorkerMetrics::default();
    let mut partial = driver.new_partial();
    let mut backoff = IdleBackoff::new();
    let mut lstate = LifecycleLocal::default();
    let mut spawn_buf: Vec<Task<P::Node>> = Vec::new();
    // Set when this worker claims a pending cooperative revocation (elastic
    // grants only): it finishes (or offloads) its current task, hands its
    // private work to the survivors, and acknowledges instead of draining.
    let mut retiring = false;
    // Hoisted once per worker: when tracing is off this is `None` and every
    // emission below is a branch on a worker-local register — the
    // zero-cost-when-off guarantee the `bench_trace` A/B pins down.
    let trace = lifecycle.tracer.handle(worker as u32);

    loop {
        // Poll the external stop conditions between tasks too: an idle
        // worker in backoff must still observe a deadline even when no task
        // ever reaches it.
        lifecycle.poll(term);
        if term.finished() {
            break;
        }
        // Cooperative revocation: between tasks is the cheapest safe point
        // to leave (mid-task claims happen at `run_task`'s poll gate).
        if retiring || lifecycle.try_claim_retire(worker) {
            retiring = true;
            break;
        }
        let next = match source.pop(&mut local, term) {
            Some(task) => Some(task),
            None => {
                if term.all_done() {
                    break;
                }
                source.acquire(&mut local, term, &mut metrics)
            }
        };
        match next {
            Some(task) => {
                backoff.reset();
                if let Some(t) = &trace {
                    t.emit(TraceEvent::TaskStart {
                        depth: task.depth as u32,
                    });
                }
                let mut task_metrics = WorkerMetrics::default();
                let flow = run_task(
                    problem,
                    driver,
                    &mut partial,
                    &mut task_metrics,
                    term,
                    lifecycle,
                    &mut lstate,
                    source,
                    &mut local,
                    policy,
                    task,
                    &mut spawn_buf,
                    trace.as_ref(),
                    worker,
                    &mut retiring,
                );
                if let Some(t) = &trace {
                    // Per-task counters: summing a drained trace's `TaskEnd`
                    // events reconstructs the exact run-task totals (the
                    // metrics-reconstruction property test).  `max_depth` is
                    // the worker's running maximum — just the task's own for
                    // sources whose hook keeps task counters out of the
                    // worker's metrics (Ordered).
                    t.emit(TraceEvent::TaskEnd {
                        nodes: task_metrics.nodes,
                        prunes: task_metrics.prunes,
                        backtracks: task_metrics.backtracks,
                        spawns: task_metrics.spawns,
                        batch_pushes: task_metrics.batch_pushes,
                        poll_checks: task_metrics.poll_checks,
                        max_depth: metrics.max_depth.max(task_metrics.max_depth),
                    });
                }
                source.on_task_end(&mut local, flow, task_metrics, &mut metrics, term);
                term.task_completed();
            }
            None => backoff.wait(),
        }
    }

    if retiring {
        // Cooperative revocation: the search is still running, so every
        // privately held task goes back to the survivors — nothing is
        // discarded and the outstanding counter is untouched.
        source.retire(&mut local);
    } else {
        // Tasks still in this worker's private state (a Stack-Stealing
        // backlog or a batched pop stash after a stop) never run; drain them
        // so the outstanding counter reaches zero on every exit path.
        term.tasks_discarded(source.drain_local(&mut local) as u64);
    }
    source.on_exit(&mut local, &mut metrics);
    driver.merge(partial);
    if retiring {
        // The ack comes last, after the partial is merged, so the
        // dispatcher observing the released slot can never race an
        // unmerged result.
        lifecycle.ack_retire(worker);
    }
    metrics
}

/// Execute one task: process its root node, then either spawn its children
/// (eager policies) or explore its subtree depth-first, giving the source
/// and policy a chance to split work on every expansion step.
///
/// A stop flag raised by a decision short-circuit returns
/// [`Flow::ShortCircuited`]; one raised externally (cancel token, deadline)
/// returns [`Flow::Cancelled`] so callers never mistake an abandoned task
/// for a witness-bearing one.
///
/// `spawn_buf` is the worker's reusable spawn buffer: eager child bursts are
/// collected into it and handed to the source as one batch, so the spawn
/// path costs one pool operation — and, in steady state, zero allocations —
/// per generator burst.
///
/// `retiring` is the worker's cooperative-revocation flag: for sources that
/// [offload on revoke](WorkSource::OFFLOADS_ON_REVOKE), the poll gate also
/// checks whether an elastic grant wants this worker back, and on a claim
/// sets the flag and offloads the task's entire remaining subtree to the
/// source (so the survivors pick it up) before returning a completed flow.
#[allow(clippy::too_many_arguments)]
fn run_task<P, D, S, Y>(
    problem: &P,
    driver: &D,
    partial: &mut D::Partial,
    metrics: &mut WorkerMetrics,
    term: &Termination,
    lifecycle: &Lifecycle,
    lstate: &mut LifecycleLocal,
    source: &S,
    local: &mut S::Local,
    policy: &Y,
    task: Task<P::Node>,
    spawn_buf: &mut Vec<Task<P::Node>>,
    trace: Option<&TraceHandle>,
    worker: usize,
    retiring: &mut bool,
) -> Flow
where
    P: SearchProblem,
    D: Driver<P>,
    S: WorkSource<P>,
    Y: SpawnPolicy<P, S>,
{
    metrics.nodes += 1;
    metrics.max_depth = metrics.max_depth.max(task.depth as u64);
    match driver.process(problem, &task.node, partial) {
        Action::Expand => {}
        Action::Prune | Action::PruneSiblings => {
            metrics.prunes += 1;
            return Flow::Completed;
        }
        Action::ShortCircuit => return Flow::ShortCircuited,
    }

    if policy.spawn_children(task.depth) {
        // Eager splitting: every child becomes a task, queued in heuristic
        // order and released as one batch. Register the spawns before
        // releasing so the termination counter can never observe an empty
        // system while tasks exist.
        spawn_buf.clear();
        spawn_buf.extend(
            problem
                .generator(&task.node)
                .map(|child| Task::new(child, task.depth + 1)),
        );
        StepEnv {
            source,
            local,
            term,
            metrics,
        }
        .spawn(spawn_buf);
        return Flow::Completed;
    }

    let mut stack = GenStack::new();
    stack.push(problem, &task.node, task.depth);
    let mut task_backtracks: u64 = 0;

    while !stack.is_empty() {
        // External lifecycle: adaptively stride-gated cancel-token/deadline
        // poll and heartbeat emission.  The stop checks below piggyback on
        // the same gate, which hoists all shared-atomic loads off the
        // per-node path: a non-poll step costs one counter decrement here.
        // Staleness is bounded by the stride ceiling, and stops raised
        // between tasks are observed by the worker loop's own poll, so a
        // task never starts after the search has finished.
        if lifecycle.on_step(lstate, term) {
            metrics.poll_checks += 1;
            if let Some(t) = trace {
                // One event per *performed* poll (the same stride gate as
                // `poll_checks`), carrying the worker's live stack depth —
                // the per-worker queue-depth sample of the gauge stream.
                t.emit(TraceEvent::Poll {
                    stack_depth: stack.depth() as u32,
                });
            }
            if term.short_circuited() {
                // An external stop is not a witness: report the task as
                // cancelled so (e.g.) the Ordered commit log never mistakes
                // a timed-out task for a decision short-circuit.
                return if term.stopped_externally() {
                    Flow::Cancelled
                } else {
                    Flow::ShortCircuited
                };
            }
            // Key-scoped cancellation (Ordered speculation): the source
            // knows this task's remaining subtree can only produce discarded
            // work.
            if source.cancelled(local) {
                return Flow::Cancelled;
            }
            // Cooperative revocation mid-task: claim a pending revocation
            // (if any), then hand the task's entire remaining subtree to the
            // survivors as spawned tasks.  Each `split_lowest` burst takes
            // the unexplored children of one frame; looping drains the whole
            // stack, so nothing is stranded — the nodes already processed
            // are counted, so dropping the stack completes this task.
            // The counters are bumped here rather than through
            // `StepEnv::spawn`: an out-of-line call taking `metrics` on this
            // rarely taken path makes the compiler store the task's counters
            // to memory on every step of the per-node loop.
            if S::OFFLOADS_ON_REVOKE && lifecycle.try_claim_retire(worker) {
                *retiring = true;
                loop {
                    let mut tasks = stack.split_lowest(true);
                    if tasks.is_empty() {
                        return Flow::Completed;
                    }
                    term.task_spawned(tasks.len() as u64);
                    metrics.spawns += tasks.len() as u64;
                    metrics.batch_pushes += 1;
                    source.release(local, &mut tasks);
                }
            }
        }
        // Give the source a chance to serve a thief (at most one steal
        // request per expansion step, mirroring Listing 3), then the policy
        // a chance to offload (the budget rule of Listing 4).
        source.poll(local, &mut stack, term, metrics);
        policy.on_step(
            &mut StepEnv {
                source,
                local,
                term,
                metrics,
            },
            &mut stack,
            &mut task_backtracks,
        );
        let step = stack.step(problem, |child| driver.process(problem, child, partial));
        if let Some(depth) = step.node_depth {
            metrics.nodes += 1;
            metrics.max_depth = metrics.max_depth.max(depth as u64);
        }
        if step.short_circuit {
            return Flow::ShortCircuited;
        }
        metrics.prunes += step.pruned as u64;
        if step.popped {
            metrics.backtracks += 1;
            task_backtracks += 1;
        }
    }
    Flow::Completed
}

// ---------------------------------------------------------------------------
// Shared sources
// ---------------------------------------------------------------------------

use crate::workpool::{ShardedPool, POP_BATCH, STEAL_BATCH};
use parking_lot::Mutex;
use std::collections::VecDeque;

/// The degenerate source of the Sequential coordination: a single shared
/// queue that starts with the root task; there is no one to steal from.
pub(crate) struct RootSource<N> {
    queue: Mutex<std::collections::VecDeque<Task<N>>>,
}

impl<N> RootSource<N> {
    pub(crate) fn new() -> Self {
        RootSource {
            queue: Mutex::new(std::collections::VecDeque::new()),
        }
    }
}

impl<P: SearchProblem> WorkSource<P> for RootSource<P::Node> {
    type Local = ();

    fn register(&self, _worker: usize) -> Self::Local {}

    fn seed(&self, task: Task<P::Node>) {
        self.queue.lock().push_back(task);
    }

    fn pop(&self, _local: &mut Self::Local, _term: &Termination) -> Option<Task<P::Node>> {
        self.queue.lock().pop_front()
    }

    fn acquire(
        &self,
        _local: &mut Self::Local,
        _term: &Termination,
        _metrics: &mut WorkerMetrics,
    ) -> Option<Task<P::Node>> {
        None
    }

    fn release(&self, _local: &mut Self::Local, tasks: &mut Vec<Task<P::Node>>) {
        // Only reachable if a spawning policy is paired with this source;
        // keep every task (in heuristic order) so none is lost while
        // registered with the termination counter.
        self.queue.lock().extend(tasks.drain(..));
    }

    fn discard(&self) -> usize {
        // A search stopped before its (single) worker ever popped the root
        // still has to drain the seeded task.
        let mut queue = self.queue.lock();
        let n = queue.len();
        queue.clear();
        n
    }
}

/// A sharded order-preserving pool source: one depth-pool shard per worker.
/// Owners push and pop their own shard without contending with anyone;
/// thieves scan the other shards' atomic depth hints and take a small batch
/// from the one whose shallowest task is globally shallowest (§4.3's
/// heuristic, preserved across shards).  Shared by the Depth-Bounded and
/// Budget coordinations.
///
/// Pops and steals are batched through a per-worker *stash*: an owner pop
/// moves up to [`POP_BATCH`] tasks out of the shard under one lock, and a
/// steal takes up to [`STEAL_BATCH`], so the per-task lock cost is amortised
/// over the batch.  Stashed tasks are invisible to thieves, which is why the
/// batches are small (at most `POP_BATCH - 1` tasks per worker are ever
/// hidden), and the stash is drained into the discard accounting when the
/// worker exits, so the outstanding-task counter still reaches zero on
/// every exit path.
pub(crate) struct PoolSource<N> {
    pool: ShardedPool<N>,
    tracer: Tracer,
}

/// Per-worker state of [`PoolSource`]: the worker's shard index, its batched
/// pop stash, its share of the pool's lock-acquisition count (drained into
/// metrics at loop exit), and its flight-recorder handle (`None` when
/// tracing is off).
pub(crate) struct PoolLocal<N> {
    shard: usize,
    stash: VecDeque<Task<N>>,
    locks: u64,
    trace: Option<TraceHandle>,
}

impl<N> PoolSource<N> {
    /// An untraced pool source (unit tests; the coordinations always go
    /// through [`traced`](PoolSource::traced)).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn new(workers: usize) -> Self {
        Self::traced(workers, Tracer::off())
    }

    /// A pool source whose steal outcomes are recorded by `tracer`.  Steal
    /// events are emitted *here*, at the exact counter-increment sites,
    /// rather than generically in the worker loop — so events and the
    /// `steals`/`failed_steals` counters can never disagree (sources like
    /// [`RootSource`] return `None` from `acquire` without counting).
    pub(crate) fn traced(workers: usize, tracer: Tracer) -> Self {
        PoolSource {
            pool: ShardedPool::new(workers),
            tracer,
        }
    }
}

impl<P: SearchProblem> WorkSource<P> for PoolSource<P::Node> {
    type Local = PoolLocal<P::Node>;

    fn register(&self, worker: usize) -> Self::Local {
        PoolLocal {
            shard: worker % self.pool.shards(),
            stash: VecDeque::with_capacity(POP_BATCH),
            locks: 0,
            trace: self.tracer.handle(worker as u32),
        }
    }

    fn seed(&self, task: Task<P::Node>) {
        self.pool.push(0, task);
    }

    fn pop(&self, local: &mut Self::Local, _term: &Termination) -> Option<Task<P::Node>> {
        if let Some(task) = local.stash.pop_front() {
            return Some(task);
        }
        local.locks += 1;
        self.pool
            .pop_batch_local(local.shard, POP_BATCH, &mut local.stash);
        local.stash.pop_front()
    }

    fn acquire(
        &self,
        local: &mut Self::Local,
        _term: &Termination,
        metrics: &mut WorkerMetrics,
    ) -> Option<Task<P::Node>> {
        local.locks += 1;
        let stolen = self
            .pool
            .steal_batch(local.shard, STEAL_BATCH, &mut local.stash);
        if stolen > 0 {
            metrics.steals += 1;
            if let Some(t) = &local.trace {
                // The sharded pool picks its victim shard internally, so the
                // victim is not attributable to a worker id.
                t.emit(TraceEvent::StealHit {
                    victim: UNKNOWN_VICTIM,
                    tasks: stolen as u32,
                    remote: false,
                });
            }
            local.stash.pop_front()
        } else {
            metrics.failed_steals += 1;
            if let Some(t) = &local.trace {
                t.emit(TraceEvent::StealMiss {
                    victim: UNKNOWN_VICTIM,
                });
            }
            None
        }
    }

    fn release(&self, local: &mut Self::Local, tasks: &mut Vec<Task<P::Node>>) {
        local.locks += 1;
        self.pool.push_batch(local.shard, tasks);
    }

    fn discard(&self) -> usize {
        self.pool.clear()
    }

    fn drain_local(&self, local: &mut Self::Local) -> usize {
        let stashed = local.stash.len();
        local.stash.clear();
        stashed
    }

    fn on_exit(&self, local: &mut Self::Local, metrics: &mut WorkerMetrics) {
        metrics.lock_acquisitions += std::mem::take(&mut local.locks);
    }

    fn retire(&self, local: &mut Self::Local) {
        // Push the batched pop stash back into the worker's shard: the tasks
        // become visible to thieves again through the shard's depth hint, so
        // the survivors reach them without any extra signalling.
        if local.stash.is_empty() {
            return;
        }
        let mut tasks: Vec<Task<P::Node>> = local.stash.drain(..).collect();
        local.locks += 1;
        self.pool.push_batch(local.shard, &mut tasks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::Sum;
    use crate::objective::Enumerate;
    use crate::skeleton::driver::{DecideDriver, EnumDriver};

    /// Drive [`run`] with a fresh termination handle and an inert lifecycle,
    /// as the pre-anytime engine did.
    fn run_plain<P, D, S, Y>(
        problem: &P,
        driver: &D,
        workers: usize,
        source: S,
        policy: Y,
    ) -> (Vec<WorkerMetrics>, Duration)
    where
        P: SearchProblem,
        D: Driver<P>,
        S: WorkSource<P>,
        Y: SpawnPolicy<P, S>,
    {
        let term = Termination::new(1);
        let lifecycle = Lifecycle::inert();
        run(problem, driver, workers, &source, policy, &term, &lifecycle)
    }

    /// Complete binary tree of a fixed depth; node = (depth, label).
    struct Bin {
        depth: usize,
    }

    impl SearchProblem for Bin {
        type Node = (usize, u64);
        type Gen<'a> = std::vec::IntoIter<(usize, u64)>;
        fn root(&self) -> (usize, u64) {
            (0, 1)
        }
        fn generator(&self, node: &(usize, u64)) -> Self::Gen<'_> {
            if node.0 < self.depth {
                vec![(node.0 + 1, node.1 * 2), (node.0 + 1, node.1 * 2 + 1)].into_iter()
            } else {
                vec![].into_iter()
            }
        }
    }

    impl Enumerate for Bin {
        type Value = Sum<u64>;
        fn value(&self, _n: &(usize, u64)) -> Sum<u64> {
            Sum(1)
        }
    }

    impl crate::objective::Optimise for Bin {
        type Score = u64;
        fn objective(&self, node: &(usize, u64)) -> u64 {
            node.1
        }
    }

    impl crate::objective::Decide for Bin {
        fn target(&self) -> u64 {
            6
        }
    }

    #[test]
    fn engine_with_root_source_is_a_full_traversal() {
        let p = Bin { depth: 10 };
        let driver = EnumDriver::<Bin>::new();
        let (metrics, _) = run_plain(&p, &driver, 1, RootSource::new(), NoSpawn);
        assert_eq!(driver.into_value(), Sum(2u64.pow(11) - 1));
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].nodes, 2u64.pow(11) - 1);
        assert_eq!(metrics[0].spawns, 0);
    }

    #[test]
    fn run_task_respects_preexisting_short_circuit() {
        let p = Bin { depth: 16 };
        let driver = EnumDriver::<Bin>::new();
        let mut partial = driver.new_partial();
        let mut metrics = WorkerMetrics::default();
        let term = Termination::new(1);
        term.short_circuit();
        let source = RootSource::new();
        WorkSource::<Bin>::register(&source, 0);
        let lifecycle = Lifecycle::inert();
        let mut lstate = LifecycleLocal::default();
        let flow = run_task(
            &p,
            &driver,
            &mut partial,
            &mut metrics,
            &term,
            &lifecycle,
            &mut lstate,
            &source,
            &mut (),
            &NoSpawn,
            Task::new(p.root(), 0),
            &mut Vec::new(),
            None,
            0,
            &mut false,
        );
        assert_eq!(flow, Flow::ShortCircuited);
        assert!(metrics.nodes <= 2, "the poll happens before each expansion");
    }

    #[test]
    fn decision_short_circuit_discards_pool_tasks() {
        // An always-spawning policy floods the pool; the short-circuit on a
        // decision target must stop the engine without draining the tree.
        struct AlwaysSpawn;
        impl<P: SearchProblem, S: WorkSource<P>> SpawnPolicy<P, S> for AlwaysSpawn {
            fn spawn_children(&self, depth: usize) -> bool {
                depth < 6
            }
        }
        let p = Bin { depth: 14 };
        let driver = DecideDriver::<Bin>::new(6);
        let (metrics, _) = run_plain(&p, &driver, 2, PoolSource::new(2), AlwaysSpawn);
        let witness = driver.into_witness().expect("label 6 exists");
        assert!(witness.1 >= 6);
        let nodes: u64 = metrics.iter().map(|m| m.nodes).sum();
        assert!(
            nodes < 2u64.pow(15) - 1,
            "short-circuit must cut the search off early"
        );
    }

    /// One poisoned subtree among many live tasks: the panicking worker's
    /// unwind guard must stop the search so the surviving workers exit and
    /// the join re-raises, rather than spinning forever on an
    /// outstanding-task counter that can no longer drain.
    #[test]
    #[should_panic(expected = "a search worker panicked")]
    fn multi_worker_panic_is_reraised_not_deadlocked() {
        struct PartialBomb;
        impl SearchProblem for PartialBomb {
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
        impl Enumerate for PartialBomb {
            type Value = Sum<u64>;
            fn value(&self, _n: &u32) -> Sum<u64> {
                Sum(1)
            }
        }
        struct SpawnRoot;
        impl<P: SearchProblem, S: WorkSource<P>> SpawnPolicy<P, S> for SpawnRoot {
            fn spawn_children(&self, depth: usize) -> bool {
                depth == 0
            }
        }
        let driver = EnumDriver::<PartialBomb>::new();
        let _ = run_plain(&PartialBomb, &driver, 4, PoolSource::new(4), SpawnRoot);
    }

    /// With several workers, worker 0 runs on the calling thread, which is
    /// already running (so a root task never waits for a fresh thread to be
    /// scheduled), and every other worker on a thread of its own.
    #[test]
    fn worker_zero_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = std::sync::Mutex::new(vec![None; 4]);
        spawn_and_join(&Lifecycle::inert(), 4, |worker| {
            ran_on.lock().unwrap()[worker] = Some(std::thread::current().id());
            WorkerMetrics::default()
        });
        let ran_on = ran_on.into_inner().unwrap();
        assert_eq!(ran_on[0], Some(caller));
        for id in &ran_on[1..] {
            assert!(id.is_some() && *id != Some(caller), "{ran_on:?}");
        }
    }

    /// Seven of eight workers never receive a task (a never-spawning policy
    /// leaves the whole tree to whoever pops the root): the idle backoff
    /// must keep them from hot-spinning the steal path, so the run finishes
    /// in the same order of magnitude as the single-worker traversal rather
    /// than regressing wall-clock.
    #[test]
    fn idle_workers_back_off_without_burning_wallclock() {
        let p = Bin { depth: 15 }; // ~65k nodes, a few ms of real work
        let driver = EnumDriver::<Bin>::new();
        let start = std::time::Instant::now();
        let (metrics, _) = run_plain(&p, &driver, 8, PoolSource::new(8), NoSpawn);
        let elapsed = start.elapsed();
        assert_eq!(driver.into_value(), Sum(2u64.pow(16) - 1));
        assert_eq!(
            metrics.iter().map(|m| m.nodes).sum::<u64>(),
            2u64.pow(16) - 1
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "1-task/8-worker run took {elapsed:?}; idle workers are burning the clock"
        );
    }

    #[test]
    fn idle_backoff_escalates_and_resets() {
        let mut b = IdleBackoff::new();
        // Never panics and stays bounded over many rounds.
        for _ in 0..64 {
            b.wait();
        }
        assert!(b.rounds >= 64);
        b.reset();
        assert_eq!(b.rounds, 0);
    }

    /// A single worker runs inline, so a panicking search problem
    /// propagates its own panic straight to the caller (the multi-worker
    /// join path re-raises as "a search worker panicked" instead).
    #[test]
    #[should_panic(expected = "boom")]
    fn single_worker_panic_propagates_to_caller() {
        struct Bomb;
        impl SearchProblem for Bomb {
            type Node = u32;
            type Gen<'a> = std::vec::IntoIter<u32>;
            fn root(&self) -> u32 {
                0
            }
            fn generator(&self, node: &u32) -> Self::Gen<'_> {
                if *node > 2 {
                    panic!("boom");
                }
                vec![node + 1].into_iter()
            }
        }
        impl Enumerate for Bomb {
            type Value = Sum<u64>;
            fn value(&self, _n: &u32) -> Sum<u64> {
                Sum(1)
            }
        }
        let driver = EnumDriver::<Bomb>::new();
        let _ = run_plain(&Bomb, &driver, 1, RootSource::new(), NoSpawn);
    }
}
