//! Stack-Stealing search coordination (the (spawn-stack) rule, paper
//! Listing 3).
//!
//! Work is split *on demand*: an idle worker (thief) sends a steal request
//! over a channel to the shallowest advertised victim; the victim checks
//! for a request on every expansion step (the engine's per-step `poll`
//! hook) and, when asked, scans its generator stack bottom-up and gives
//! away its lowest-depth unexplored subtree (or every sibling at that depth
//! when the `chunked` flag is set).  There is no shared workpool — tasks
//! travel directly from victim to thief, with the termination counter
//! tracking tasks in flight.  All worker-loop machinery lives in
//! `crate::engine`; this module is only the steal-channel [`WorkSource`].
//!
//! The per-step check is a *counter gate*, not a channel operation: each
//! worker slot carries a pending-request count next to its work hint
//! (`Slot`).  A thief counts its request on the victim's slot before
//! sending it, so the count is never below the number of queued requests;
//! the victim's step does one load of its own count and touches the
//! channel (`try_recv`, in the cold `StealSource::serve`) only when the
//! count is non-zero.  A step with no thief asking is one load and a
//! branch.

use crate::sync::{AtomicUsize, Mutex, Ordering};
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::engine::WorkSource;
use crate::genstack::GenStack;
use crate::metrics::WorkerMetrics;
use crate::node::SearchProblem;
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
    reply: SyncSender<Vec<Task<N>>>,
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

/// One worker slot's shared steal state, padded to a cache line so thieves
/// scanning the slots never false-share with other victims' updates.  (std
/// has no `CachePadded`, hence the local wrapper.)
///
/// * `hint` — the slot's published steal depth: `NO_WORK_HINT` when idle,
///   otherwise the depth of the bottom of its generator stack (a lower
///   bound on what `split_lowest` would hand out).
/// * `pending` — steal requests counted for the slot's channel and not yet
///   taken off it: the *counter gate* of the per-step check.
///
/// The gate's invariant is that `pending` is never below the number of
/// requests queued in the slot's channel.  A thief increments it *before*
/// its `try_send` and undoes the increment if the send fails; the victim
/// decrements it only *after* a `try_recv` returned a request, and the
/// receive happens after the send, which happens after the increment — so
/// in the counter's modification order every request's +1 precedes its
/// −1.  The count may run ahead of the queue (a thief between its
/// increment and its send), which costs the victim one empty `try_recv`,
/// never behind it, so a delivered request is served at the first step
/// whose load observes the increment, as before the gate.  Both thief
/// operations happen under the slot's sender lock, and a recycled slot
/// resets the count under the same lock (see `register`), so no count
/// from a previous occupant's channel survives into the fresh one.
#[repr(align(64))]
struct Slot {
    hint: AtomicUsize,
    pending: AtomicUsize,
}

/// The steal-channel work source: one bounded request channel per worker,
/// every worker holding a sender to every other, plus a per-worker [`Slot`]
/// holding the worker's *work hint* and its pending-request count.
///
/// The count keeps the channel off the per-step path: `poll` loads its own
/// slot's count and calls the out-of-line `serve` (the only place a busy
/// victim touches its channel) only when a thief has counted a request.
/// The idle path (`drain_requests_empty`) is gated the same way.
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
    senders: Vec<Mutex<SyncSender<StealRequest<N>>>>,
    locals: Mutex<Vec<Option<StealLocal<N>>>>,
    slots: Vec<Slot>,
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
            let (tx, rx) = sync_channel::<StealRequest<N>>(workers);
            senders.push(Mutex::new(tx));
            locals.push(Some(Self::fresh_local(id, rx, seed, workers)));
        }
        StealSource {
            senders,
            locals: Mutex::new(locals),
            slots: (0..workers)
                .map(|_| Slot {
                    hint: AtomicUsize::new(NO_WORK_HINT),
                    pending: AtomicUsize::new(0),
                })
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
            self.slots[local.id].hint.store(depth, Ordering::Relaxed);
            local.advertised = depth;
        }
    }

    /// The per-step gate: may a steal request be queued for this worker?
    /// One load of the worker's own slot count — no channel operation.
    #[inline]
    fn requested(&self, local: &StealLocal<N>) -> bool {
        // ordering: Acquire pairs with the thief's Release increment in
        // `send_request`.  The request itself is published by the channel's
        // own synchronisation; the count only decides whether to look.
        self.slots[local.id].pending.load(Ordering::Acquire) != 0
    }

    /// Take one queued request off this worker's channel and uncount it.
    /// `None` when the count ran ahead of the queue (a thief between its
    /// increment and its send): the next check finds the request.
    fn take_request(&self, local: &StealLocal<N>) -> Option<StealRequest<N>> {
        let request = local.rx.try_recv().ok()?;
        // ordering: the receive happens after the thief's send, which
        // follows its increment, so this RMW cannot underflow the count;
        // it publishes nothing (the channel carried the request).
        self.slots[local.id].pending.fetch_sub(1, Ordering::Relaxed);
        Some(request)
    }

    /// Count a steal request on `victim`'s slot, then deliver it.  Returns
    /// the reply receiver, or `None` (the count restored) when the victim's
    /// channel is full.  The increment, the send and the undo all run under
    /// the victim's sender lock, which `register` also holds when it swaps
    /// in a fresh channel and resets the count.
    fn send_request(&self, victim: usize) -> Option<Receiver<Vec<Task<N>>>> {
        let (reply, reply_rx) = sync_channel(1);
        let sender = self.senders[victim].lock();
        let pending = &self.slots[victim].pending;
        // ordering: Release pairs with the victim's Acquire gate load in
        // `requested`; counting before the send keeps the count at or
        // above the number of queued requests.
        pending.fetch_add(1, Ordering::Release);
        if sender.try_send(StealRequest { reply }).is_err() {
            // ordering: undoes this thread's own increment above, under the
            // same lock; a victim that saw the transient count only wasted
            // one empty `try_recv`.
            pending.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        Some(reply_rx)
    }

    /// Reply "no work" to any queued requests so thieves do not wait for the
    /// full timeout when the victim is itself idle.  Gated like the busy
    /// path: the channel is touched only when the count says a request may
    /// be queued.
    fn drain_requests_empty(&self, local: &StealLocal<N>) {
        if !self.requested(local) {
            return;
        }
        while let Some(request) = self.take_request(local) {
            let _ = request.reply.send(Vec::new());
        }
    }

    /// Answer one queued steal request from a busy worker's generator stack
    /// — the rare branch of `poll`, kept out of line so the per-step path
    /// stays one load and a branch whatever the caller's inlining.
    #[cold]
    #[inline(never)]
    fn serve<P: SearchProblem<Node = N>>(
        &self,
        local: &mut StealLocal<N>,
        stack: &mut GenStack<'_, P>,
        term: &Termination,
        metrics: &mut WorkerMetrics,
    ) {
        let Some(request) = self.take_request(local) else {
            return;
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
            local.backlog.extend(send_err.0);
        }
    }

    /// Pick the victim by [`pick_shallowest`] over the advertised hints and
    /// ask it for work.  With no advertised victim the steal fails
    /// immediately — no request, no timeout — which is what keeps idle
    /// workers cheap while the search ramps up or drains.
    fn attempt_steal(&self, local: &mut StealLocal<N>) -> Option<Vec<Task<N>>> {
        local.last_victim = UNKNOWN_VICTIM;
        let mut hints = self.slots.iter().enumerate().map(|(v, slot)| {
            // ordering: advisory hint read; see advertise() — staleness
            // only degrades victim choice, never correctness.
            let depth = slot.hint.load(Ordering::Relaxed);
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
        let reply_rx = self.send_request(victim)?;
        // Once the request is delivered the thief must not abandon it: the
        // victim may already have removed subtrees from its generator stack
        // and registered them with the termination counter — dropping
        // `reply_rx` at that instant would destroy them and hang the
        // search, or (after a stop) leak them from the outstanding counter.
        // Waiting until the request *resolves* is safe and bounded: victims
        // check their request count on every expansion step, answer "no work"
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
                    self.drain_requests_empty(local);
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
                // side as a disconnect (a failed steal), never a hang.  The
                // count restarts at zero under the sender lock thieves hold
                // across increment and send, so a count left by the old
                // channel is wiped and every later one is for the new
                // channel; the retiree's last decrement (its `retire`
                // drain) preceded its revocation ack, hence this reset.
                let workers = self.senders.len();
                let (tx, rx) = sync_channel::<StealRequest<P::Node>>(workers);
                let mut sender = self.senders[worker].lock();
                *sender = tx;
                // ordering: published to thieves by the sender lock they
                // take before incrementing, and read by this thread's own
                // later gate loads.
                self.slots[worker].pending.store(0, Ordering::Relaxed);
                drop(sender);
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

    fn pop(&self, local: &mut Self::Local, _term: &Termination) -> Option<Task<P::Node>> {
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
        self.drain_requests_empty(local);
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
        // per-iteration check in Listing 3); the check is the slot's counter
        // gate, so the channel is touched only when a thief has asked.
        if self.requested(local) {
            self.serve(local, stack, term, metrics);
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
        self.drain_requests_empty(local);
        if !local.backlog.is_empty() {
            self.parked.lock().extend(local.backlog.drain(..));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::lifecycle::Lifecycle;
    use crate::monoid::Sum;
    use crate::objective::{Decide, Enumerate, Optimise};
    use crate::params::{Coordination, SearchConfig};
    use crate::skeleton::driver::{DecideDriver, Driver, EnumDriver};

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
        let source = StealSource::new(config.workers, config.steal_seed, chunked, Tracer::off());
        engine::run(
            problem,
            driver,
            config.workers,
            &source,
            Coordination::StackStealing { chunked },
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

    type Source = StealSource<(usize, u64)>;
    type Local = StealLocal<(usize, u64)>;

    /// A two-slot source with both workers registered: slot 0 is the
    /// victim the tests drive, slot 1 the thief.
    fn two_slots() -> (Source, Local, Local) {
        let source = StealSource::new(2, 7, false, Tracer::off());
        let victim = WorkSource::<Wide>::register(&source, 0);
        let thief = WorkSource::<Wide>::register(&source, 1);
        (source, victim, thief)
    }

    fn pending(source: &Source, slot: usize) -> usize {
        // ordering: single-threaded test read.
        source.slots[slot].pending.load(Ordering::Relaxed)
    }

    /// A victim mid-task on `Wide`: the root's children are unexplored.
    fn busy_stack(p: &Wide) -> GenStack<'_, Wide> {
        let mut stack = GenStack::new();
        stack.push(p, &p.root(), 0);
        stack
    }

    fn poll(
        source: &Source,
        local: &mut Local,
        stack: &mut GenStack<'_, Wide>,
        term: &Termination,
    ) {
        WorkSource::<Wide>::poll(source, local, stack, term, &mut WorkerMetrics::default());
    }

    #[test]
    fn a_queued_request_is_served_on_the_next_poll() {
        let p = Wide { depth: 4 };
        let (source, mut victim, _thief) = two_slots();
        let mut stack = busy_stack(&p);
        let term = Termination::new(1);
        // No request: the gate keeps the poll off the channel.
        poll(&source, &mut victim, &mut stack, &term);
        assert_eq!(pending(&source, 0), 0);

        let reply = source.send_request(0).expect("an empty channel has room");
        assert_eq!(pending(&source, 0), 1);
        poll(&source, &mut victim, &mut stack, &term);
        let tasks = reply.try_recv().expect("served within one step");
        assert_eq!(tasks.len(), 1, "one child, not chunked");
        assert_eq!(tasks[0].depth, 1);
        assert_eq!(pending(&source, 0), 0);
        assert_eq!(term.outstanding(), 2, "the stolen task is registered");
    }

    #[test]
    fn two_queued_requests_are_served_on_two_consecutive_steps() {
        let p = Wide { depth: 4 };
        let (source, mut victim, _thief) = two_slots();
        let mut stack = busy_stack(&p);
        let term = Termination::new(1);
        let first = source.send_request(0).expect("room for one");
        let second = source.send_request(0).expect("room for two");
        assert_eq!(pending(&source, 0), 2);
        // At most one request per step: a flag would have closed the gate
        // after the first and stranded the second.
        poll(&source, &mut victim, &mut stack, &term);
        assert_eq!(first.try_recv().expect("first served").len(), 1);
        assert!(second.try_recv().is_err(), "one request per step");
        assert_eq!(pending(&source, 0), 1);
        poll(&source, &mut victim, &mut stack, &term);
        assert_eq!(second.try_recv().expect("second served").len(), 1);
        assert_eq!(pending(&source, 0), 0);
    }

    #[test]
    fn an_idle_victim_answers_no_work_and_uncounts() {
        let (source, mut victim, _thief) = two_slots();
        let reply = source.send_request(0).expect("room for one");
        let term = Termination::new(1);
        let mut metrics = WorkerMetrics::default();
        // Idle with nobody advertised: the drain answers, the steal fails
        // at once (no victim), and nothing blocks.
        let task = WorkSource::<Wide>::acquire(&source, &mut victim, &term, &mut metrics);
        assert!(task.is_none());
        assert_eq!(metrics.failed_steals, 1);
        assert!(reply.try_recv().expect("answered").is_empty());
        assert_eq!(pending(&source, 0), 0);
    }

    #[test]
    fn a_send_into_a_full_channel_undoes_its_increment() {
        let (source, _victim, _thief) = two_slots();
        // The channel holds as many requests as there are workers.
        let _queued = [source.send_request(0), source.send_request(0)];
        assert_eq!(pending(&source, 0), 2);
        assert!(source.send_request(0).is_none(), "the channel is full");
        assert_eq!(pending(&source, 0), 2, "the failed send is uncounted");
    }

    #[test]
    fn a_recycled_slot_starts_at_zero_and_stale_requests_resolve() {
        let p = Wide { depth: 4 };
        let (source, victim, _thief) = two_slots();
        // A request counted and queued on the old occupant's channel, which
        // the occupant retires without answering.
        let stale = source.send_request(0).expect("room for one");
        assert_eq!(pending(&source, 0), 1);
        drop(victim);
        assert!(
            matches!(
                stale.recv_timeout(Duration::from_secs(5)),
                Err(RecvTimeoutError::Disconnected)
            ),
            "the stale request resolves as a failed steal, never a hang"
        );
        // The recycled slot gets a fresh channel and a zero count: its
        // first step does not touch the channel at all.
        let mut recycled = WorkSource::<Wide>::register(&source, 0);
        assert_eq!(pending(&source, 0), 0);
        let mut stack = busy_stack(&p);
        let term = Termination::new(1);
        poll(&source, &mut recycled, &mut stack, &term);
        // A count that runs ahead of the queue (a thief between increment
        // and send) costs one empty `try_recv` and strands nothing: the
        // request is served on the step after it lands.
        // ordering: single-threaded test write.
        source.slots[0].pending.fetch_add(1, Ordering::Relaxed);
        poll(&source, &mut recycled, &mut stack, &term);
        assert_eq!(pending(&source, 0), 1);
        let (reply, reply_rx) = sync_channel(1);
        assert!(source.senders[0]
            .lock()
            .try_send(StealRequest { reply })
            .is_ok());
        poll(&source, &mut recycled, &mut stack, &term);
        assert_eq!(reply_rx.try_recv().expect("served").len(), 1);
        assert_eq!(pending(&source, 0), 0);
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
