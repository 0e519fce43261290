//! Stack-Stealing search coordination (the (spawn-stack) rule, paper
//! Listing 3).
//!
//! Work is split *on demand*: an idle worker (thief) posts a steal request
//! to the shallowest advertised victim; the victim checks for a request on
//! every expansion step (the engine's per-step `poll` hook) and, when
//! asked, scans its generator stack bottom-up and gives away its
//! lowest-depth unexplored subtree (or every sibling at that depth when the
//! `chunked` flag is set).  There is no shared workpool — tasks travel
//! directly from victim to thief, with the termination counter tracking
//! tasks in flight.  All worker-loop machinery lives in `crate::engine`;
//! this module is only the stealing [`WorkSource`].
//!
//! **The step.**  A step with no thief asking is one load and a branch:
//! the victim loads its own slot's pending-request count through the
//! pointer its local state holds, with no index and no bounds check.  The
//! work hint that thieves read is written only where it can change: when
//! `pop` or `acquire` hands out a task (its base depth, `task.depth + 1`,
//! is fixed for the task's lifetime) and when the worker goes idle, drains
//! or retires.
//!
//! **The handshake.**  Each worker's [`Slot`] is also its mailbox: a queue
//! of the thieves asking it for work, and a reply buffer with an `answered`
//! flag for the worker's own steals.  A thief queues itself on the victim
//! and waits.  The victim splits its stack into a buffer of its own,
//! registers the split with [`Termination`], swaps the buffer into the
//! thief's slot and sets the thief's flag; the flag's Release store hands
//! the buffer over.  The thief spins on the flag for about one round trip,
//! answering requests to itself with "no work" meanwhile, then sleeps on
//! its slot's condition variable.  It checks its own queue under the slot's
//! lock before it sleeps, so of two thieves that ask each other the later
//! one always finds the other's request and answers it; a reply wakes the
//! sleeper, and so does a request to it, which the sleeper then answers at
//! once instead of after its own reply.  Once the buffers have grown, a
//! steal allocates nothing.
//!
//! The handshake is model checked as the shipped type (`model_check`
//! below, under core's `model-check` feature): a `Relaxed` flag store shows
//! as a data race on the reply cell, a wake without the flag as a
//! deadlock.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::engine::WorkSource;
use crate::genstack::GenStack;
use crate::metrics::WorkerMetrics;
use crate::node::SearchProblem;
use crate::sync::{AtomicBool, AtomicUsize, Condvar, Mutex, Ordering, UnsafeCell};
use crate::termination::Termination;
use crate::trace::{TraceEvent, TraceHandle, Tracer, UNKNOWN_VICTIM};
use crate::workpool::{pick_shallowest, Task};

/// How many times a waiting thief polls its reply flag before it sleeps:
/// about one round trip to a victim that answers on its next step (a poll
/// is about 16 ns on a 2-vCPU Xeon host).  The protocol does not depend on
/// it: under the model checker the thief checks once and goes to the
/// sleep path, which keeps the explored schedules few.
const REPLY_SPINS: u32 = if cfg!(feature = "model-check") {
    0
} else {
    256
};

/// Hint value meaning "this worker has nothing to steal".
const NO_WORK_HINT: usize = usize::MAX;

/// Per-worker state: the worker's own slot, the private task backlog and
/// the victim-selection generator.
pub(crate) struct StealLocal<N> {
    id: usize,
    /// This worker's slot (also held by the source), so the per-step gate
    /// is one load through a pointer.
    slot: Arc<Slot<N>>,
    backlog: VecDeque<Task<N>>,
    /// The buffer a split goes into before it is swapped into the thief's
    /// slot.  It comes back holding the thief's emptied buffer, so a served
    /// steal allocates nothing once both buffers have grown.  Empty between
    /// steals.
    give: Vec<Task<N>>,
    rng: SmallRng,
    /// The work-hint depth this worker last published (a store only when
    /// it changes).  `NO_WORK_HINT` when the worker is advertised idle.
    advertised: usize,
    /// Reused candidate buffer for hint-guided victim selection.
    scratch: Vec<usize>,
    /// The victim targeted by the most recent steal attempt
    /// ([`UNKNOWN_VICTIM`] when no candidate was advertised), so the
    /// hit/miss events recorded in `acquire` carry the real victim id.
    last_victim: u32,
    /// Flight-recorder handle for this worker (`None` when tracing is off).
    trace: Option<TraceHandle>,
    /// This occupancy has closed its slot (`drain_local` or `retire`).  The
    /// drop then leaves the slot alone: by then a new occupant may have
    /// reopened it.
    closed: bool,
}

impl<N> StealLocal<N> {
    /// Publish or retract (`NO_WORK_HINT`) this worker's steal-depth hint;
    /// a store only when the hint changes.
    fn advertise(&mut self, depth: usize) {
        if self.advertised != depth {
            // ordering: advisory steal hint — a stale value only sends a
            // thief to a worse victim; tasks move through the slots.
            self.slot.hint.store(depth, Ordering::Relaxed);
            self.advertised = depth;
        }
    }

    /// The worker is leaving the search: retract the hint and close the
    /// slot, answering every queued request with "no work".
    fn close(&mut self) {
        self.advertise(NO_WORK_HINT);
        self.slot.close();
        self.closed = true;
    }
}

impl<N> Drop for StealLocal<N> {
    /// A worker that unwinds (a panicking search problem) never reaches
    /// `drain_local` or `retire`; closing here keeps a thief from waiting
    /// on it for ever, so the panic reaches the caller.
    fn drop(&mut self) {
        if !self.closed {
            self.slot.close();
        }
    }
}

/// One worker's shared steal state, padded to a cache line so thieves
/// scanning the hints never false-share with another victim's updates.
///
/// * `hint` — the published steal depth: `NO_WORK_HINT` when idle,
///   otherwise the base depth of the task being traversed (a lower bound
///   on what a split would hand out).
/// * `pending` — the length of the request queue, written under the
///   mailbox lock and loaded lock-free by the owner's per-step gate.  Only
///   the owner removes requests, so a non-zero count it loads is a request
///   it will find.
/// * `answered`, `reply` — the outcome of the worker's own steal.  The
///   victim that took the worker's request off its queue owns `reply`
///   until it sets `answered` with a Release store; the worker owns it
///   again once its Acquire load sees the flag.  The buffer is empty
///   whenever a request is queued, and "no work" leaves it empty.
/// * `post`, `wake` — the mailbox lock and the condition variable the
///   owner sleeps on while it waits for a reply.
///
/// The invariants the handshake keeps:
/// * a queued request is awaited until it resolves: the victim answers it
///   from a step, from its idle drain, from its own wait for a reply, or
///   when it closes (exit, retire or unwind), and a closed or
///   never-registered slot refuses requests;
/// * stolen tasks are registered with the termination counter before the
///   flag is set, and a reply reaches exactly one backlog;
/// * a thief leaves `acquire` only with its request resolved, so no reply
///   can arrive for a later occupant of a recycled slot, and a retiring
///   victim closes its queue before its slot is handed on.
#[repr(align(64))]
struct Slot<N> {
    hint: AtomicUsize,
    pending: AtomicUsize,
    answered: AtomicBool,
    reply: UnsafeCell<Vec<Task<N>>>,
    post: Mutex<Post<N>>,
    wake: Condvar,
}

// SAFETY: every field but `reply` is `Sync`.  `reply` is accessed only by
// its one owner at a time: the slot's worker, except between the moment a
// victim takes the worker's request off its queue (under the victim's
// lock, which the worker's queuing released) and the victim's Release
// store of `answered`, which the worker's Acquire load observes before
// touching the buffer again.
unsafe impl<N: Send> Sync for Slot<N> {}

/// A worker's mailbox, under the slot's lock.
struct Post<N> {
    /// Requests are accepted: set by `register`, cleared by `close`.
    open: bool,
    /// Thieves waiting on this worker, oldest first.  A thief has at most
    /// one request out, so the queue never outgrows the worker count.
    requests: VecDeque<Arc<Slot<N>>>,
    /// The owner sleeps on `wake` until a reply or a request arrives.
    sleeping: bool,
}

impl<N> Slot<N> {
    fn new(workers: usize) -> Self {
        Slot {
            hint: AtomicUsize::new(NO_WORK_HINT),
            pending: AtomicUsize::new(0),
            answered: AtomicBool::new(false),
            reply: UnsafeCell::new(Vec::new()),
            post: Mutex::new(Post {
                open: false,
                requests: VecDeque::with_capacity(workers),
                sleeping: false,
            }),
            wake: Condvar::new(),
        }
    }

    /// Queue `thief`'s request on this slot and wake the owner if it
    /// sleeps.  False, with nothing queued, when the slot is closed.
    fn post_request(&self, thief: &Arc<Slot<N>>) -> bool {
        let mut post = self.post.lock();
        if !post.open {
            return false;
        }
        post.requests.push_back(Arc::clone(thief));
        // ordering: Release pairs with the owner's Acquire gate load; the
        // request itself is read under the lock.
        self.pending.store(post.requests.len(), Ordering::Release);
        if post.sleeping {
            self.wake.notify_all();
        }
        true
    }

    /// The oldest queued request (the owner only).
    fn take_request(&self) -> Option<Arc<Slot<N>>> {
        let mut post = self.post.lock();
        let thief = post.requests.pop_front()?;
        // ordering: the count is the queue's length and every write is
        // under the lock; the owner's own later gate loads see this one.
        self.pending.store(post.requests.len(), Ordering::Relaxed);
        Some(thief)
    }

    /// Answer every queued request with "no work" (the owner only).  Gated
    /// like the busy path: the lock is taken only when the count says a
    /// request is queued.
    fn drain_requests_empty(&self) {
        // ordering: as the per-step gate in `poll`.
        if self.pending.load(Ordering::Acquire) == 0 {
            return;
        }
        while let Some(thief) = self.take_request() {
            thief.answer(&mut Vec::new());
        }
    }

    /// Answer this slot's queued request with `tasks` (empty: no work).
    /// The tasks are swapped in, so `tasks` comes back holding the slot's
    /// emptied buffer.  The caller has taken the request off its queue.
    fn answer(&self, tasks: &mut Vec<Task<N>>) {
        if !tasks.is_empty() {
            // SAFETY: the caller took this slot's request off its queue, so
            // it owns the reply buffer until the store below.
            unsafe { self.reply.with_mut(|reply| std::mem::swap(reply, tasks)) };
        }
        // ordering: Release hands the reply buffer to the owner's Acquire
        // load in `await_reply`.
        self.answered.store(true, Ordering::Release);
        // The owner checks the flag under this lock before it sleeps, so
        // taking the lock here cannot miss a sleeper.
        let post = self.post.lock();
        if post.sleeping {
            self.wake.notify_all();
        }
    }

    /// Wait until this slot's own request is answered, answering requests
    /// to this (idle) worker with "no work" meanwhile.
    fn await_reply(&self) {
        let mut spins = REPLY_SPINS;
        loop {
            // ordering: Acquire pairs with the Release store in `answer`
            // and hands the reply buffer to this worker.
            if self.answered.load(Ordering::Acquire) {
                return;
            }
            self.drain_requests_empty();
            if spins > 0 {
                spins -= 1;
                std::hint::spin_loop();
                continue;
            }
            let mut post = self.post.lock();
            // A reply and a request both wake the sleeper under this lock,
            // so neither can land between the check and the wait.
            // ordering: Acquire as above.
            while post.requests.is_empty() && !self.answered.load(Ordering::Acquire) {
                post.sleeping = true;
                post = self.wake.wait(post);
                post.sleeping = false;
            }
        }
    }

    /// Accept requests (a worker registering on this slot).
    fn open(&self) {
        let mut post = self.post.lock();
        debug_assert!(post.requests.is_empty(), "a closed slot holds no request");
        post.open = true;
    }

    /// Refuse further requests and answer the queued ones with "no work".
    fn close(&self) {
        self.post.lock().open = false;
        self.drain_requests_empty();
    }
}

/// The stealing work source: one [`Slot`] per worker, holding its work hint
/// and its mailbox.
///
/// The hints fix the blind-victim ramp-up cost: a thief used to pick a
/// victim uniformly at random and then wait on a worker that might never
/// have held work (during start-up, everyone but the root owner is idle —
/// steal attempts mostly hit other thieves).  A worker advertises its
/// task's base depth while it traverses the task, and thieves target the
/// *shallowest* advertised victim — heuristically the biggest stealable
/// subtree — breaking ties at random, and failing in nanoseconds when
/// nobody has work.
pub(crate) struct StealSource<N> {
    slots: Vec<Arc<Slot<N>>>,
    /// Locals made up front, taken by each worker's first registration
    /// (worker 0's holds the root).  A slot vacated by a retired worker
    /// (elastic grants recycle worker ids) gets a fresh local.
    locals: Mutex<Vec<Option<StealLocal<N>>>>,
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
        let slots: Vec<_> = (0..workers).map(|_| Arc::new(Slot::new(workers))).collect();
        let locals = (0..workers)
            .map(|id| Some(Self::fresh_local(id, &slots, seed)))
            .collect();
        StealSource {
            slots,
            locals: Mutex::new(locals),
            parked: Mutex::new(VecDeque::new()),
            seed,
            chunked,
            tracer,
        }
    }

    fn fresh_local(id: usize, slots: &[Arc<Slot<N>>], seed: u64) -> StealLocal<N> {
        StealLocal {
            id,
            slot: Arc::clone(&slots[id]),
            backlog: VecDeque::new(),
            give: Vec::new(),
            rng: SmallRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E3779B97F4A7C15)),
            advertised: NO_WORK_HINT,
            scratch: Vec::with_capacity(slots.len()),
            last_victim: UNKNOWN_VICTIM,
            trace: None,
            closed: false,
        }
    }

    /// Answer the oldest queued request from a busy worker's generator
    /// stack — the rare branch of `poll`, kept out of line so the per-step
    /// path stays one load and a branch whatever the caller's inlining.
    #[cold]
    #[inline(never)]
    fn serve<P: SearchProblem<Node = N>>(
        &self,
        local: &mut StealLocal<N>,
        stack: &mut GenStack<'_, P>,
        term: &Termination,
        metrics: &mut WorkerMetrics,
    ) {
        // Split before taking the request: the split runs the problem's
        // generators, and if one panics the request is still queued for
        // the unwinding local's `close` to answer.
        stack.split_lowest_into(self.chunked, &mut local.give);
        let stolen = local.give.len() as u64;
        if stolen > 0 {
            // Register the new tasks before they leave this worker so the
            // termination counter never under-counts live work.
            term.task_spawned(stolen);
            metrics.spawns += stolen;
        }
        let thief = local
            .slot
            .take_request()
            .expect("a non-zero count is a queued request, and only its owner removes one");
        thief.answer(&mut local.give);
    }

    /// Pick the victim by [`pick_shallowest`] over the advertised hints, ask
    /// it for work and wait for the answer, which lands in the backlog.
    /// False when nothing was received: no advertised victim (no request,
    /// no wait — what keeps idle workers cheap while the search ramps up or
    /// drains), a closed victim, or a "no work" answer.
    fn attempt_steal(&self, local: &mut StealLocal<N>) -> bool {
        local.last_victim = UNKNOWN_VICTIM;
        let mut hints = self.slots.iter().enumerate().map(|(v, slot)| {
            // ordering: advisory hint read; see advertise() — staleness
            // only degrades victim choice, never correctness.
            let depth = slot.hint.load(Ordering::Relaxed);
            (v, (depth != NO_WORK_HINT).then_some(depth))
        });
        let Some(victim) =
            pick_shallowest(local.id, &mut hints, &mut local.rng, &mut local.scratch)
        else {
            return false;
        };
        local.last_victim = victim as u32;
        if let Some(trace) = &local.trace {
            trace.emit(TraceEvent::StealRequest {
                victim: victim as u32,
            });
        }
        // A victim that has not registered yet, or has left, refuses the
        // request: it could not answer.  (On a persistent runtime pool
        // smaller than the search's worker count, an unregistered victim's
        // job may even be queued behind this thief's own pool thread.)
        if !self.slots[victim].post_request(&local.slot) {
            return false;
        }
        Self::collect_reply(local)
    }

    /// Wait for the answer to this worker's queued request and move it into
    /// the backlog; true when it held work.
    ///
    /// Once queued, a request is awaited until it resolves: the victim may
    /// already have registered a split for this thief.  The wait is bounded
    /// — victims check their count on every step, answer "no work" when
    /// idle or waiting themselves, and answer every queued request as they
    /// leave — so `outstanding()` still reaches zero on every exit,
    /// cancelled and timed-out runs included.
    fn collect_reply(local: &mut StealLocal<N>) -> bool {
        local.slot.await_reply();
        // SAFETY: `await_reply` saw `answered` set with Acquire, after the
        // victim's last access to the buffer; nobody else touches it until
        // this worker queues its next request.
        unsafe {
            local
                .slot
                .reply
                .with_mut(|reply| local.backlog.extend(reply.drain(..)));
        }
        // ordering: this worker's own flag, read only by itself; queuing the
        // next request (a lock release) orders this store before the
        // victim's next Release store of it.
        local.slot.answered.store(false, Ordering::Relaxed);
        !local.backlog.is_empty()
    }
}

impl<P: SearchProblem> WorkSource<P> for StealSource<P::Node> {
    type Local = StealLocal<P::Node>;

    fn register(&self, worker: usize) -> Self::Local {
        let taken = self.locals.lock()[worker].take();
        // A recycled slot: its previous occupant retired, closing the slot
        // (every queued request answered) before its revocation was
        // acknowledged, so the new occupant opens an empty queue.
        let mut local = taken.unwrap_or_else(|| Self::fresh_local(worker, &self.slots, self.seed));
        local.slot.open();
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

    /// The next backlog task; its base depth becomes the work hint.
    fn pop(&self, local: &mut Self::Local, _term: &Termination) -> Option<Task<P::Node>> {
        let task = local.backlog.pop_front()?;
        local.advertise(task.depth + 1);
        Some(task)
    }

    fn acquire(
        &self,
        local: &mut Self::Local,
        term: &Termination,
        metrics: &mut WorkerMetrics,
    ) -> Option<Task<P::Node>> {
        // Idle: retract the work hint, answer any pending requests with "no
        // work", then adopt any backlog parked by a retired worker before
        // bothering a victim (single worker: no one to steal from).
        local.advertise(NO_WORK_HINT);
        local.slot.drain_requests_empty();
        {
            let mut parked = self.parked.lock();
            if !parked.is_empty() {
                local.backlog.extend(parked.drain(..));
            }
        }
        if local.backlog.is_empty() && self.slots.len() > 1 {
            let received = self.attempt_steal(local);
            if received {
                metrics.steals += 1;
                if let Some(trace) = &local.trace {
                    trace.emit(TraceEvent::StealHit {
                        victim: local.last_victim,
                        tasks: local.backlog.len() as u32,
                        remote: false,
                    });
                }
            } else {
                metrics.failed_steals += 1;
                if let Some(trace) = &local.trace {
                    trace.emit(TraceEvent::StealMiss {
                        victim: local.last_victim,
                    });
                }
            }
        }
        WorkSource::<P>::pop(self, local, term)
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
        // Serve at most one steal request per expansion step (mirrors the
        // per-iteration check in Listing 3).  The check is the slot's
        // counter gate: the mailbox is touched only when a thief has asked.
        // ordering: Acquire pairs with the Release store in `post_request`;
        // the request itself is read under the mailbox lock.
        if local.slot.pending.load(Ordering::Acquire) != 0 {
            self.serve(local, stack, term, metrics);
        }
    }

    /// Tasks abandoned in this worker's private backlog by a stop
    /// (short-circuit, cancel, deadline) never run; the engine drains them
    /// from the outstanding counter as the worker exits.  The slot closes
    /// first, answering any queued request.
    fn drain_local(&self, local: &mut Self::Local) -> usize {
        local.close();
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

    /// Cooperative revocation: retract the hint and close the slot
    /// (thieves stop targeting it; queued requests are answered), and park
    /// the backlog for the survivors — the tasks stay registered with the
    /// termination counter throughout.
    fn retire(&self, local: &mut Self::Local) {
        local.close();
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
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::time::Duration;

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

    fn hint(source: &Source, slot: usize) -> usize {
        // ordering: single-threaded test read.
        source.slots[slot].hint.load(Ordering::Relaxed)
    }

    /// Queue `thief`'s request on `victim`'s slot, as `attempt_steal` does.
    fn ask(source: &Source, victim: usize, thief: &Local) -> bool {
        source.slots[victim].post_request(&thief.slot)
    }

    /// The thief's answer, if it has one: the tasks it received (empty for
    /// "no work"), moved out of its backlog.
    fn answer(thief: &mut Local) -> Option<Vec<Task<(usize, u64)>>> {
        // ordering: single-threaded test read.
        if !thief.slot.answered.load(Ordering::Relaxed) {
            return None;
        }
        Source::collect_reply(thief);
        Some(thief.backlog.drain(..).collect())
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
        let (source, mut victim, mut thief) = two_slots();
        let mut stack = busy_stack(&p);
        let term = Termination::new(1);
        // No request: the gate keeps the poll off the mailbox.
        poll(&source, &mut victim, &mut stack, &term);
        assert_eq!(pending(&source, 0), 0);

        assert!(ask(&source, 0, &thief), "a registered victim accepts");
        assert_eq!(pending(&source, 0), 1);
        poll(&source, &mut victim, &mut stack, &term);
        let tasks = answer(&mut thief).expect("served within one step");
        assert_eq!(tasks.len(), 1, "one child, not chunked");
        assert_eq!(tasks[0].depth, 1);
        assert_eq!(pending(&source, 0), 0);
        assert_eq!(term.outstanding(), 2, "the stolen task is registered");
    }

    #[test]
    fn two_queued_requests_are_served_on_two_consecutive_steps() {
        let p = Wide { depth: 4 };
        let source = StealSource::new(3, 7, false, Tracer::off());
        let mut victim = WorkSource::<Wide>::register(&source, 0);
        let mut first = WorkSource::<Wide>::register(&source, 1);
        let mut second = WorkSource::<Wide>::register(&source, 2);
        let mut stack = busy_stack(&p);
        let term = Termination::new(1);
        assert!(ask(&source, 0, &first) && ask(&source, 0, &second));
        assert_eq!(pending(&source, 0), 2);
        // At most one request per step, oldest first: a flag would have
        // closed the gate after the first and stranded the second.
        poll(&source, &mut victim, &mut stack, &term);
        assert_eq!(answer(&mut first).expect("first served").len(), 1);
        assert!(answer(&mut second).is_none(), "one request per step");
        assert_eq!(pending(&source, 0), 1);
        poll(&source, &mut victim, &mut stack, &term);
        assert_eq!(answer(&mut second).expect("second served").len(), 1);
        assert_eq!(pending(&source, 0), 0);
    }

    #[test]
    fn an_idle_victim_answers_no_work_and_uncounts() {
        let (source, mut victim, mut thief) = two_slots();
        assert!(ask(&source, 0, &thief));
        let term = Termination::new(1);
        let mut metrics = WorkerMetrics::default();
        // Idle with nobody advertised: the drain answers, the steal fails
        // at once (no victim), and nothing blocks.
        let task = WorkSource::<Wide>::acquire(&source, &mut victim, &term, &mut metrics);
        assert!(task.is_none());
        assert_eq!(metrics.failed_steals, 1);
        assert!(answer(&mut thief).expect("answered").is_empty());
        assert_eq!(pending(&source, 0), 0);
    }

    #[test]
    fn a_closed_or_unregistered_slot_refuses_requests() {
        let source = StealSource::new(3, 7, false, Tracer::off());
        let mut victim = WorkSource::<Wide>::register(&source, 0);
        let thief = WorkSource::<Wide>::register(&source, 1);
        assert!(!ask(&source, 2, &thief), "slot 2 never registered");
        assert_eq!(pending(&source, 2), 0);
        assert_eq!(WorkSource::<Wide>::drain_local(&source, &mut victim), 0);
        assert!(!ask(&source, 0, &thief), "slot 0 has left");
        assert_eq!(pending(&source, 0), 0);
    }

    #[test]
    fn a_leaving_victim_answers_its_queue_and_a_recycled_slot_opens_empty() {
        let p = Wide { depth: 4 };
        let (source, mut victim, mut thief) = two_slots();
        // A request queued on the old occupant, which retires without
        // serving it: the retire answers "no work" and closes the slot.
        assert!(ask(&source, 0, &thief));
        WorkSource::<Wide>::retire(&source, &mut victim);
        assert!(answer(&mut thief).expect("answered on retire").is_empty());
        assert!(!ask(&source, 0, &thief), "a retired slot refuses");
        drop(victim);
        // The recycled slot opens with an empty queue, and the old
        // occupant's drop (after the new one opened) leaves it alone.
        let mut recycled = WorkSource::<Wide>::register(&source, 0);
        assert_eq!(pending(&source, 0), 0);
        let mut stack = busy_stack(&p);
        let term = Termination::new(1);
        assert!(ask(&source, 0, &thief));
        poll(&source, &mut recycled, &mut stack, &term);
        assert_eq!(answer(&mut thief).expect("served").len(), 1);

        // A worker that unwinds never reaches `drain_local`: dropping its
        // local answers the queue and closes the slot.
        assert!(ask(&source, 0, &thief));
        drop(recycled);
        assert!(answer(&mut thief).expect("answered on drop").is_empty());
        assert!(!ask(&source, 0, &thief));
    }

    #[test]
    fn waiting_thieves_asked_by_each_other_answer_no_work() {
        let (source, a, b) = two_slots();
        // Each asks the other and waits: each wait must wake for the request
        // it receives, or both wait for ever.  Then each leaves the search,
        // which answers a request that came in after its own wait ended.
        let steal_then_leave = |mut local: Local, victim: usize| {
            if ask(&source, victim, &local) {
                assert!(
                    !Source::collect_reply(&mut local),
                    "an idle worker has no work"
                );
            }
            WorkSource::<Wide>::drain_local(&source, &mut local);
        };
        std::thread::scope(|scope| {
            scope.spawn(|| steal_then_leave(a, 1));
            steal_then_leave(b, 0);
        });
        assert_eq!((pending(&source, 0), pending(&source, 1)), (0, 0));
    }

    #[test]
    fn poll_never_writes_the_hint() {
        let p = Wide { depth: 4 };
        let (source, mut victim, mut thief) = two_slots();
        let mut stack = busy_stack(&p);
        let term = Termination::new(1);
        // A hint no task depth matches: any store from a step would show.
        // ordering: single-threaded test write.
        source.slots[0].hint.store(42, Ordering::Relaxed);
        poll(&source, &mut victim, &mut stack, &term);
        assert_eq!(hint(&source, 0), 42, "a step with no thief asking");
        assert!(ask(&source, 0, &thief));
        poll(&source, &mut victim, &mut stack, &term);
        assert!(answer(&mut thief).is_some());
        assert_eq!(hint(&source, 0), 42, "a step that serves a thief");
    }

    #[test]
    fn the_hint_is_published_when_a_task_is_handed_out_and_retracted_when_idle() {
        let (source, mut victim, _thief) = two_slots();
        let term = Termination::new(1);
        let mut metrics = WorkerMetrics::default();
        let handed_out = |task: Option<Task<(usize, u64)>>| task.expect("a task").depth;
        // `pop` publishes the task's base depth, one below the task.
        victim.backlog.push_back(Task::new((3, 1), 3));
        let depth = handed_out(WorkSource::<Wide>::pop(&source, &mut victim, &term));
        assert_eq!(hint(&source, 0), depth + 1);
        // `acquire` retracts the hint while idle...
        assert!(WorkSource::<Wide>::acquire(&source, &mut victim, &term, &mut metrics).is_none());
        assert_eq!(hint(&source, 0), NO_WORK_HINT);
        // ...and publishes the depth of a task it hands out (here one
        // parked by a retired worker).
        source.parked.lock().push_back(Task::new((5, 1), 5));
        let depth = handed_out(WorkSource::<Wide>::acquire(
            &source,
            &mut victim,
            &term,
            &mut metrics,
        ));
        assert_eq!(hint(&source, 0), depth + 1);
        // Leaving the search retracts it: the exit drain...
        assert_eq!(WorkSource::<Wide>::drain_local(&source, &mut victim), 0);
        assert_eq!(hint(&source, 0), NO_WORK_HINT);
        // ...and a retire.
        let mut recycled = WorkSource::<Wide>::register(&source, 0);
        recycled.backlog.push_back(Task::new((2, 1), 2));
        handed_out(WorkSource::<Wide>::pop(&source, &mut recycled, &term));
        assert_eq!(hint(&source, 0), 3);
        WorkSource::<Wide>::retire(&source, &mut recycled);
        assert_eq!(hint(&source, 0), NO_WORK_HINT);
    }

    /// The system allocator, counting each thread's allocations (the
    /// counter of `tests/allocations.rs`).
    struct Counting;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    fn count_one() {
        // `try_with`: the thread-local may already be gone during thread exit.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }

    // SAFETY: every method forwards its arguments unchanged to `System`;
    // counting only bumps a thread-local `Cell`, which neither allocates
    // nor registers a destructor.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count_one();
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count_one();
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count_one();
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    #[test]
    fn a_served_steal_allocates_nothing_once_the_buffers_have_grown() {
        let p = Wide { depth: 4 };
        let source = StealSource::new(2, 7, true, Tracer::off());
        let mut victim = WorkSource::<Wide>::register(&source, 0);
        let mut thief = WorkSource::<Wide>::register(&source, 1);
        let term = Termination::new(1);
        // One chunked steal of the root's children: request, serve, reply.
        let mut steal = |stack: &mut GenStack<'_, Wide>| {
            let before = ALLOCATIONS.with(Cell::get);
            assert!(ask(&source, 0, &thief));
            poll(&source, &mut victim, stack, &term);
            assert!(Source::collect_reply(&mut thief));
            let tasks = thief.backlog.len();
            thief.backlog.clear();
            (ALLOCATIONS.with(Cell::get) - before, tasks)
        };
        let mut rounds = Vec::new();
        for _ in 0..6 {
            // A fresh victim stack each round (its set-up is not counted).
            let mut stack = busy_stack(&p);
            rounds.push(steal(&mut stack));
        }
        // The buffers swap between victim and thief, so both have grown
        // after two rounds.
        assert!(rounds.iter().all(|&(_, tasks)| tasks == 3), "{rounds:?}");
        assert!(
            rounds[2..].iter().all(|&(allocations, _)| allocations == 0),
            "allocations per steal: {rounds:?}"
        );
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

/// The steal handshake under the interleaving model checker: the shipped
/// [`StealSource`] and [`Slot`], whose atomics, locks, condition variable
/// and reply cell are the checker's shims under the `model-check` feature.
/// A lost wakeup shows as a deadlock, a reply read without the flag's
/// happens-before edge as a data race on the cell.
#[cfg(all(test, feature = "model-check"))]
mod model_check {
    use super::*;
    use std::mem::ManuallyDrop;
    use std::sync::atomic::{AtomicBool as Witness, AtomicU64 as Tally, Ordering as StdOrdering};
    use yewpar_check::sched::{run, Config, Strategy};
    use yewpar_check::thread;

    /// A root (node 0) with two leaf children.
    struct Fan;

    impl SearchProblem for Fan {
        type Node = u32;
        type Gen<'a> = std::ops::Range<u32>;
        fn root(&self) -> u32 {
            0
        }
        fn generator(&self, node: &u32) -> Self::Gen<'_> {
            if *node == 0 {
                1..3
            } else {
                0..0
            }
        }
    }

    type Source = StealSource<u32>;

    fn config() -> Config {
        Config {
            preemption_bound: Some(3),
            ..Config::default()
        }
    }

    /// A worker's local that an aborted execution does not drop.  When
    /// the checker tears down a failed execution it unwinds every blocked
    /// thread; the local's drop would close its slot there, a model
    /// operation after the teardown, which aborts the test process instead
    /// of printing the counterexample.  Each scenario leaves through
    /// `drain_local` (or drops a local on purpose), so only a failed
    /// execution leaks one.
    type Local = ManuallyDrop<StealLocal<u32>>;

    /// Two registered workers over a fresh source, the root on worker 0.
    fn two_workers() -> (Arc<Source>, Local, Local) {
        let source = Arc::new(StealSource::new(2, 7, false, Tracer::off()));
        WorkSource::<Fan>::seed(&*source, Task::new(0, 0));
        let first = WorkSource::<Fan>::register(&*source, 0);
        let second = WorkSource::<Fan>::register(&*source, 1);
        (source, ManuallyDrop::new(first), ManuallyDrop::new(second))
    }

    /// After every worker has left: no request is queued and no answer is
    /// left unread, so each request was answered once and its answer
    /// consumed once.
    fn assert_quiescent(source: &Source) {
        for (id, slot) in source.slots.iter().enumerate() {
            assert_eq!(slot.pending.load(Ordering::Acquire), 0, "slot {id}: queued");
            assert!(
                !slot.answered.load(Ordering::Acquire),
                "slot {id}: an answer nobody read"
            );
            // SAFETY: every worker has been joined.
            let left = unsafe { slot.reply.with_mut(|reply| reply.len()) };
            assert_eq!(left, 0, "slot {id}: tasks left in the reply buffer");
        }
    }

    /// A victim steps once over its task and leaves while a thief asks it
    /// for work and waits.  The thief receives a split or "no work" (from
    /// the victim's step or from its exit), every stolen task is registered
    /// and ends in the thief's backlog, and the termination counter drains
    /// to zero.
    #[test]
    fn a_victim_serves_while_a_thief_waits() {
        let served = Arc::new(Witness::new(false));
        let witness = Arc::clone(&served);
        let report = run("steal-serve", Strategy::Dfs, &config(), move || {
            let (source, mut victim, mut thief) = two_workers();
            let term = Arc::new(Termination::new(1));
            let spawned = Arc::new(Tally::new(0));
            let victim = {
                let (source, term, spawned) =
                    (Arc::clone(&source), Arc::clone(&term), Arc::clone(&spawned));
                thread::spawn_named("victim", move || {
                    let task = WorkSource::<Fan>::pop(&*source, &mut victim, &term)
                        .expect("the root is on worker 0");
                    let mut stack = GenStack::new();
                    stack.push(&Fan, &task.node, task.depth);
                    let mut metrics = WorkerMetrics::default();
                    WorkSource::<Fan>::poll(&*source, &mut victim, &mut stack, &term, &mut metrics);
                    spawned.store(metrics.spawns, StdOrdering::Relaxed);
                    term.task_completed();
                    let left = WorkSource::<Fan>::drain_local(&*source, &mut victim);
                    term.tasks_discarded(left as u64);
                })
            };
            let received = Arc::new(Tally::new(0));
            let thief = {
                let (source, term, received) = (
                    Arc::clone(&source),
                    Arc::clone(&term),
                    Arc::clone(&received),
                );
                thread::spawn_named("thief", move || {
                    let mut metrics = WorkerMetrics::default();
                    if WorkSource::<Fan>::acquire(&*source, &mut thief, &term, &mut metrics)
                        .is_some()
                    {
                        received.store(1 + thief.backlog.len() as u64, StdOrdering::Relaxed);
                        term.task_completed();
                    }
                    let left = WorkSource::<Fan>::drain_local(&*source, &mut thief);
                    term.tasks_discarded(left as u64);
                })
            };
            victim.join();
            thief.join();
            let spawned = spawned.load(StdOrdering::Relaxed);
            let received = received.load(StdOrdering::Relaxed);
            assert_eq!(spawned, received, "stolen {spawned}, received {received}");
            if received > 0 {
                witness.store(true, StdOrdering::Relaxed);
            }
            assert_eq!(term.outstanding(), 0, "a task was lost or counted twice");
            assert_quiescent(&source);
        });
        report.assert_ok();
        assert!(
            served.load(StdOrdering::Relaxed),
            "no schedule delivered a split"
        );
    }

    /// Two idle workers each ask the other and wait, then leave.  Each wait
    /// wakes for the request it receives and answers it "no work"; a
    /// request that lands after the victim's own wait is answered as it
    /// leaves.  Neither waits for ever.
    #[test]
    fn waiting_thieves_asked_by_each_other_answer_no_work() {
        // Both threads take four locks each: two preemptions already reach
        // every order of the two waits, and a third multiplies the run time.
        let config = Config {
            preemption_bound: Some(2),
            ..Config::default()
        };
        let report = run("steal-mutual", Strategy::Dfs, &config, move || {
            let (source, first, second) = two_workers();
            let workers: Vec<_> = [(first, 1), (second, 0)]
                .into_iter()
                .map(|(mut local, victim)| {
                    let source = Arc::clone(&source);
                    thread::spawn_named("worker", move || {
                        local.backlog.clear();
                        if source.slots[victim].post_request(&local.slot) {
                            assert!(
                                !Source::collect_reply(&mut local),
                                "an idle victim had work"
                            );
                        }
                        WorkSource::<Fan>::drain_local(&*source, &mut local);
                    })
                })
                .collect();
            for worker in workers {
                worker.join();
            }
            assert_quiescent(&source);
        });
        report.assert_ok();
    }

    /// A victim leaves with a request in flight, without stepping: by its
    /// exit drain or by unwinding (its local dropped).  The request is
    /// refused (slot already closed) or answered "no work", never lost.
    #[test]
    fn a_victim_that_leaves_resolves_a_request_in_flight() {
        for unwinds in [false, true] {
            let answered = Arc::new(Witness::new(false));
            let witness = Arc::clone(&answered);
            let report = run("steal-exit", Strategy::Dfs, &config(), move || {
                let (source, mut victim, mut thief) = two_workers();
                let leaver = {
                    let source = Arc::clone(&source);
                    thread::spawn_named("victim", move || {
                        if unwinds {
                            drop(ManuallyDrop::into_inner(victim));
                        } else {
                            WorkSource::<Fan>::drain_local(&*source, &mut victim);
                        }
                    })
                };
                if source.slots[0].post_request(&thief.slot) {
                    assert!(
                        !Source::collect_reply(&mut thief),
                        "a leaving victim gave work"
                    );
                    witness.store(true, StdOrdering::Relaxed);
                }
                leaver.join();
                WorkSource::<Fan>::drain_local(&*source, &mut thief);
                assert_quiescent(&source);
            });
            report.assert_ok();
            assert!(
                answered.load(StdOrdering::Relaxed),
                "no schedule queued the request before the victim left (unwinds: {unwinds})"
            );
        }
    }
}
