//! Stack-Stealing search coordination (the (spawn-stack) rule, paper
//! Listing 3).
//!
//! Work is split *on demand*: an idle worker (thief) sends a steal request
//! over a channel to a randomly chosen victim; the victim polls its request
//! channel on every expansion step (the engine's per-step `poll` hook) and,
//! when asked, scans its generator stack bottom-up and gives away its
//! lowest-depth unexplored subtree (or every sibling at that depth when the
//! `chunked` flag is set).  There is no shared workpool — tasks travel
//! directly from victim to thief, with the termination counter tracking
//! tasks in flight.  All worker-loop machinery lives in `crate::engine`;
//! this module is only the steal-channel [`WorkSource`].

use crate::sync::{AtomicUsize, Ordering};
use std::collections::VecDeque;
use std::time::Duration;

use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::engine::{self, NoSpawn, WorkSource};
use crate::genstack::GenStack;
use crate::lifecycle::Lifecycle;
use crate::metrics::WorkerMetrics;
use crate::node::SearchProblem;
use crate::params::SearchConfig;
use crate::skeleton::driver::Driver;
use crate::termination::Termination;
use crate::trace::{TraceEvent, TraceHandle, Tracer, UNKNOWN_VICTIM};
use crate::workpool::{pick_shallowest, Task};

/// How long a waiting thief blocks on a victim's reply before re-answering
/// its own request channel and re-checking for termination.  Purely a
/// latency/CPU trade-off: correctness never depends on it, because a
/// delivered request is always awaited until it resolves.
const STEAL_REPLY_TIMEOUT: Duration = Duration::from_micros(200);

/// A steal request carrying the channel on which the victim should reply.
struct StealRequest<N> {
    reply: Sender<Vec<Task<N>>>,
}

/// Per-worker state: the request receiver, the private task backlog and the
/// victim-selection generator.
pub(crate) struct StealLocal<N> {
    id: usize,
    rx: Receiver<StealRequest<N>>,
    backlog: VecDeque<Task<N>>,
    rng: SmallRng,
    /// The work-hint depth this worker last published (avoids a shared
    /// atomic store on every expansion step — only changes write).
    /// `NO_WORK_HINT` when the worker is advertised idle.
    advertised: usize,
    /// Reused candidate buffer for hint-guided victim selection.
    scratch: Vec<usize>,
    /// The victim targeted by the most recent steal attempt
    /// ([`UNKNOWN_VICTIM`] when no candidate was advertised), so the
    /// hit/miss events recorded in `acquire` carry the real victim id.
    last_victim: u32,
    /// Flight-recorder handle for this worker (`None` when tracing is off).
    trace: Option<TraceHandle>,
}

/// Hint value meaning "this worker has nothing to steal".
const NO_WORK_HINT: usize = usize::MAX;

/// One worker's published steal-depth hint — `NO_WORK_HINT` when idle,
/// otherwise the depth of the bottom of its generator stack (a lower bound
/// on what `split_lowest` would hand out) — padded to a cache line so
/// thieves scanning the hint array never false-share with the victims
/// updating it.  (The vendored crossbeam shim has no `CachePadded`, hence
/// the local wrapper.)
#[repr(align(64))]
struct WorkHint(AtomicUsize);

/// The steal-channel work source: one bounded request channel per worker,
/// every worker holding a sender to every other, plus a per-worker *work
/// hint*.
///
/// The hints fix the blind-victim ramp-up cost: a thief used to pick a
/// victim uniformly at random and then block up to the reply timeout on a
/// worker that might never have held work (during start-up, everyone but the
/// root owner is idle — steal attempts mostly hit other thieves).  Now a
/// worker advertises the depth of the bottom of its generator stack while it
/// is traversing a task (one hint store per task, not per step) and thieves
/// target the *shallowest* advertised victim — heuristically the biggest
/// stealable subtree — breaking ties at random, and failing in nanoseconds
/// when nobody has work instead of serialising on 200 µs timeouts.
pub(crate) struct StealSource<N> {
    /// Request senders, one per worker slot.  Wrapped in a mutex so a worker
    /// *re*-registering a slot vacated by a retired worker (elastic grants
    /// recycle worker ids) can swap in a fresh channel; the steal path locks
    /// per attempt, never per step.
    senders: Vec<Mutex<Sender<StealRequest<N>>>>,
    locals: Mutex<Vec<Option<StealLocal<N>>>>,
    hints: Vec<WorkHint>,
    /// Backlogs handed back by retiring workers (cooperative revocation):
    /// there is no shared pool to push to, so the tasks park here and idle
    /// survivors adopt them before attempting any steal.
    parked: Mutex<VecDeque<Task<N>>>,
    /// Victim-selection seed, kept so re-registered slots get a fresh
    /// deterministic generator.
    seed: u64,
    chunked: bool,
    /// Flight recorder shared by every worker (off by default).
    tracer: Tracer,
}

impl<N> StealSource<N> {
    pub(crate) fn new(workers: usize, seed: u64, chunked: bool, tracer: Tracer) -> Self {
        // Requests are bounded so thieves cannot pile up unbounded requests
        // on a busy victim.
        let mut senders = Vec::with_capacity(workers);
        let mut locals = Vec::with_capacity(workers);
        for id in 0..workers {
            let (tx, rx) = bounded::<StealRequest<N>>(workers);
            senders.push(Mutex::new(tx));
            locals.push(Some(Self::fresh_local(id, rx, seed, workers)));
        }
        StealSource {
            senders,
            locals: Mutex::new(locals),
            hints: (0..workers)
                .map(|_| WorkHint(AtomicUsize::new(NO_WORK_HINT)))
                .collect(),
            parked: Mutex::new(VecDeque::new()),
            seed,
            chunked,
            tracer,
        }
    }

    fn fresh_local(
        id: usize,
        rx: Receiver<StealRequest<N>>,
        seed: u64,
        workers: usize,
    ) -> StealLocal<N> {
        StealLocal {
            id,
            rx,
            backlog: VecDeque::new(),
            rng: SmallRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E3779B97F4A7C15)),
            advertised: NO_WORK_HINT,
            scratch: Vec::with_capacity(workers),
            last_victim: UNKNOWN_VICTIM,
            trace: None,
        }
    }

    /// Publish or retract (`NO_WORK_HINT`) this worker's steal-depth hint
    /// (idempotent; the `advertised` cache keeps stores off the steady path —
    /// the hint only changes between tasks).
    fn advertise(&self, local: &mut StealLocal<N>, depth: usize) {
        if local.advertised != depth {
            // ordering: advisory steal hint — a stale value only sends a
            // thief to a worse victim; actual work moves over channels.
            self.hints[local.id].0.store(depth, Ordering::Relaxed);
            local.advertised = depth;
        }
    }

    /// Reply "no work" to any queued requests so thieves do not wait for the
    /// full timeout when the victim is itself idle.
    fn drain_requests_empty(rx: &Receiver<StealRequest<N>>) {
        while let Ok(req) = rx.try_recv() {
            let _ = req.reply.send(Vec::new());
        }
    }

    /// Pick the victim by [`pick_shallowest`] over the advertised hints and
    /// ask it for work.  With no advertised victim the steal fails
    /// immediately — no request, no timeout — which is what keeps idle
    /// workers cheap while the search ramps up or drains.
    fn attempt_steal(&self, local: &mut StealLocal<N>) -> Option<Vec<Task<N>>> {
        local.last_victim = UNKNOWN_VICTIM;
        let mut hints = self.hints.iter().enumerate().map(|(v, hint)| {
            // ordering: advisory hint read; see advertise() — staleness
            // only degrades victim choice, never correctness.
            let depth = hint.0.load(Ordering::Relaxed);
            (v, (depth != NO_WORK_HINT).then_some(depth))
        });
        let victim = pick_shallowest(local.id, &mut hints, &mut local.rng, &mut local.scratch)?;
        local.last_victim = victim as u32;
        if let Some(trace) = &local.trace {
            trace.emit(TraceEvent::StealRequest {
                victim: victim as u32,
            });
        }
        // Never deliver a request to a victim that has not registered yet:
        // it cannot answer, and on a persistent runtime pool smaller than
        // the search's worker count the victim's worker job may be queued
        // *behind this thief's own pool thread* — waiting on its reply
        // would then deadlock the search.  (Registering between this check
        // and the send is benign: a registered victim answers.)
        if self.locals.lock()[victim].is_some() {
            return None;
        }
        let (reply_tx, reply_rx) = bounded(1);
        if self.senders[victim]
            .lock()
            .try_send(StealRequest { reply: reply_tx })
            .is_err()
        {
            return None;
        }
        // Once the request is delivered the thief must not abandon it: the
        // victim may already have removed subtrees from its generator stack
        // and registered them with the termination counter — dropping
        // `reply_rx` at that instant would destroy them and hang the
        // search, or (after a stop) leak them from the outstanding counter.
        // Waiting until the request *resolves* is safe and bounded: victims
        // poll their channel on every expansion step, answer "no work"
        // whenever they are idle (including below, so waiting thieves
        // cannot deadlock each other), and drop their endpoints on exit —
        // a stopped search therefore resolves every pending request as
        // either a buffered reply (kept, then drained by `drain_local`) or
        // a disconnect, and `Termination::outstanding()` reaches zero even
        // for cancelled or timed-out Stack-Stealing runs.
        loop {
            match reply_rx.recv_timeout(STEAL_REPLY_TIMEOUT) {
                Ok(tasks) if tasks.is_empty() => return None,
                Ok(tasks) => return Some(tasks),
                Err(RecvTimeoutError::Disconnected) => return None,
                Err(RecvTimeoutError::Timeout) => {
                    // Answer anyone asking *us* while we wait; we hold no
                    // work, so "empty" is always the right reply.  Even
                    // when `term.finished()` we keep waiting for the
                    // resolution — it arrives promptly (the victim either
                    // replies on its next step or exits and disconnects).
                    Self::drain_requests_empty(&local.rx);
                }
            }
        }
    }
}

impl<P: SearchProblem> WorkSource<P> for StealSource<P::Node> {
    type Local = StealLocal<P::Node>;

    fn register(&self, worker: usize) -> Self::Local {
        let mut local = match self.locals.lock()[worker].take() {
            Some(local) => local,
            None => {
                // The slot's previous occupant retired (elastic grants
                // recycle worker ids).  Give the new occupant a fresh
                // channel: the old receiver died with the retiree, so any
                // raced request on the old sender resolves on the thief's
                // side as a disconnect (a failed steal), never a hang.
                let workers = self.senders.len();
                let (tx, rx) = bounded::<StealRequest<P::Node>>(workers);
                *self.senders[worker].lock() = tx;
                Self::fresh_local(worker, rx, self.seed, workers)
            }
        };
        local.trace = self.tracer.handle(worker as u32);
        local
    }

    fn seed(&self, task: Task<P::Node>) {
        // The root starts on worker 0's backlog; everyone else steals.
        let mut locals = self.locals.lock();
        locals[0]
            .as_mut()
            .expect("seed before registration")
            .backlog
            .push_back(task);
    }

    fn pop(&self, local: &mut Self::Local) -> Option<Task<P::Node>> {
        local.backlog.pop_front()
    }

    fn acquire(
        &self,
        local: &mut Self::Local,
        _term: &Termination,
        metrics: &mut WorkerMetrics,
    ) -> Option<Task<P::Node>> {
        // Idle: retract the work hint, answer any pending requests with "no
        // work", then adopt any backlog parked by a retired worker before
        // bothering a victim (single worker: no one to steal from).
        self.advertise(local, NO_WORK_HINT);
        Self::drain_requests_empty(&local.rx);
        {
            let mut parked = self.parked.lock();
            if !parked.is_empty() {
                local.backlog.extend(parked.drain(..));
            }
        }
        if let Some(task) = local.backlog.pop_front() {
            return Some(task);
        }
        if self.senders.len() <= 1 {
            return None;
        }
        match self.attempt_steal(local) {
            Some(tasks) => {
                metrics.steals += 1;
                if let Some(trace) = &local.trace {
                    trace.emit(TraceEvent::StealHit {
                        victim: local.last_victim,
                        tasks: tasks.len() as u32,
                        remote: false,
                    });
                }
                local.backlog.extend(tasks);
                local.backlog.pop_front()
            }
            None => {
                metrics.failed_steals += 1;
                if let Some(trace) = &local.trace {
                    trace.emit(TraceEvent::StealMiss {
                        victim: local.last_victim,
                    });
                }
                None
            }
        }
    }

    fn release(&self, local: &mut Self::Local, tasks: &mut Vec<Task<P::Node>>) {
        local.backlog.extend(tasks.drain(..));
    }

    fn poll(
        &self,
        local: &mut Self::Local,
        stack: &mut GenStack<'_, P>,
        term: &Termination,
        metrics: &mut WorkerMetrics,
    ) {
        // This worker is mid-traversal: make it a steal candidate at the
        // depth of its stack base (a store only when the hint changes —
        // once per task, since the base frame is fixed for the task's
        // lifetime).
        self.advertise(local, stack.base_depth().unwrap_or(NO_WORK_HINT));
        // Serve at most one steal request per expansion step (mirrors the
        // per-iteration check in Listing 3).
        let request = match local.rx.try_recv() {
            Ok(request) => request,
            Err(_) => return,
        };
        let stolen = stack.split_lowest(self.chunked);
        if stolen.is_empty() {
            let _ = request.reply.send(Vec::new());
            return;
        }
        // Register the new tasks before they leave this worker so the
        // termination counter never under-counts live work.
        term.task_spawned(stolen.len() as u64);
        metrics.spawns += stolen.len() as u64;
        if let Err(send_err) = request.reply.send(stolen) {
            // The thief gave up waiting (or the search is finishing).  The
            // subtrees were already removed from our generator stack, so
            // keep them in our own backlog; they remain registered as
            // outstanding tasks and will be completed when we execute them
            // ourselves.
            local.backlog.extend(send_err.into_inner());
        }
    }

    /// Tasks abandoned in this worker's private backlog by a stop
    /// (short-circuit, cancel, deadline) never run; the engine drains them
    /// from the outstanding counter as the worker exits.
    fn drain_local(&self, local: &mut Self::Local) -> usize {
        self.advertise(local, NO_WORK_HINT);
        let n = local.backlog.len();
        local.backlog.clear();
        n
    }

    /// Tasks parked by retired workers and never adopted are drained when
    /// the search stops (the engine calls this after the join and on
    /// short-circuits), keeping the outstanding counter exact.
    fn discard(&self) -> usize {
        let mut parked = self.parked.lock();
        let n = parked.len();
        parked.clear();
        n
    }

    /// Cooperative revocation: retract the hint (thieves stop targeting this
    /// slot), flush pending requests, and park the backlog for the survivors
    /// — the tasks stay registered with the termination counter throughout.
    fn retire(&self, local: &mut Self::Local) {
        self.advertise(local, NO_WORK_HINT);
        Self::drain_requests_empty(&local.rx);
        if !local.backlog.is_empty() {
            self.parked.lock().extend(local.backlog.drain(..));
        }
    }
}

/// Run the Stack-Stealing coordination.
pub(crate) fn run<P, D>(
    problem: &P,
    driver: &D,
    config: &SearchConfig,
    chunked: bool,
    term: &Termination,
    lifecycle: &Lifecycle,
) -> (Vec<WorkerMetrics>, Duration)
where
    P: SearchProblem,
    D: Driver<P>,
{
    let workers = lifecycle.worker_count(config);
    // Channels, hints and locals exist for every worker id an elastic grant
    // could mint, not just the initial count.
    let capacity = lifecycle.worker_capacity(config);
    engine::run(
        problem,
        driver,
        workers,
        StealSource::new(
            capacity,
            config.steal_seed,
            chunked,
            lifecycle.tracer.clone(),
        ),
        NoSpawn,
        term,
        lifecycle,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::Sum;
    use crate::objective::{Decide, Enumerate, Optimise};
    use crate::skeleton::driver::{DecideDriver, EnumDriver};

    struct Wide {
        depth: usize,
    }

    impl SearchProblem for Wide {
        type Node = (usize, u64);
        type Gen<'a> = std::vec::IntoIter<(usize, u64)>;
        fn root(&self) -> (usize, u64) {
            (0, 7)
        }
        fn generator(&self, node: &(usize, u64)) -> Self::Gen<'_> {
            let (depth, seed) = *node;
            if depth >= self.depth {
                return vec![].into_iter();
            }
            let width = (seed % 3 + 2) as usize;
            (0..width)
                .map(|i| {
                    (
                        depth + 1,
                        seed.wrapping_mul(2862933555777941757)
                            .wrapping_add(i as u64),
                    )
                })
                .collect::<Vec<_>>()
                .into_iter()
        }
    }

    impl Enumerate for Wide {
        type Value = Sum<u64>;
        fn value(&self, _n: &(usize, u64)) -> Sum<u64> {
            Sum(1)
        }
    }

    impl Optimise for Wide {
        type Score = u64;
        fn objective(&self, node: &(usize, u64)) -> u64 {
            node.1 % 101
        }
    }

    impl Decide for Wide {
        fn target(&self) -> u64 {
            100
        }
    }

    fn config(workers: usize) -> SearchConfig {
        SearchConfig {
            workers,
            ..SearchConfig::default()
        }
    }

    fn run_plain<P, D>(
        problem: &P,
        driver: &D,
        config: &SearchConfig,
        chunked: bool,
    ) -> (Vec<WorkerMetrics>, Duration)
    where
        P: SearchProblem,
        D: Driver<P>,
    {
        run(
            problem,
            driver,
            config,
            chunked,
            &Termination::new(1),
            &Lifecycle::inert(),
        )
    }

    #[test]
    fn single_worker_stack_stealing_degenerates_to_sequential() {
        let p = Wide { depth: 6 };
        let expected = crate::node::subtree_size(&p, &p.root());
        let driver = EnumDriver::<Wide>::new();
        let (metrics, _) = run_plain(&p, &driver, &config(1), false);
        assert_eq!(driver.into_value(), Sum(expected));
        assert_eq!(metrics[0].steals, 0);
    }

    #[test]
    fn multi_worker_counts_match_with_and_without_chunking() {
        let p = Wide { depth: 8 };
        let expected = crate::node::subtree_size(&p, &p.root());
        for chunked in [false, true] {
            let driver = EnumDriver::<Wide>::new();
            let (metrics, _) = run_plain(&p, &driver, &config(4), chunked);
            assert_eq!(driver.into_value(), Sum(expected), "chunked={chunked}");
            let total: u64 = metrics.iter().map(|m| m.nodes).sum();
            assert_eq!(total, expected);
        }
    }

    #[test]
    fn decision_short_circuit_terminates_all_workers() {
        let p = Wide { depth: 20 };
        let driver = DecideDriver::<Wide>::new(100);
        let (_, elapsed) = run_plain(&p, &driver, &config(3), true);
        // A value ≡ 100 (mod 101) appears quickly in this pseudo-random
        // labelling; the whole (enormous) tree is certainly not explored.
        assert!(elapsed < Duration::from_secs(30));
        assert!(driver.into_witness().is_some());
    }
}
