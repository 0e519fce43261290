//! A persistent search runtime: long-lived workers, job queueing and
//! non-blocking anytime-search handles.
//!
//! The [`Skeleton`] entry point is a one-shot batch call: it spawns scoped
//! worker threads, runs the search to completion, joins, and returns.  A
//! production service running many searches for many users on one machine
//! wants none of that per-call ceremony: it wants a [`Runtime`] that owns a
//! **long-lived worker pool** (workers park between jobs instead of being
//! respawned per search), accepts submissions from any thread, and hands
//! back a [`SearchHandle`] that can be waited on, polled, cancelled from
//! another thread, or observed mid-run through a progress stream.
//!
//! ```
//! use std::time::Duration;
//! use yewpar::{Coordination, Runtime, RuntimeConfig, SearchConfig, SearchStatus};
//! use yewpar::{Enumerate, SearchProblem, monoid::Sum};
//!
//! struct BinTree { depth: usize }
//! impl SearchProblem for BinTree {
//!     type Node = usize;
//!     type Gen<'a> = std::vec::IntoIter<usize>;
//!     fn root(&self) -> usize { 0 }
//!     fn generator(&self, node: &usize) -> Self::Gen<'_> {
//!         if *node < self.depth { vec![node + 1, node + 1].into_iter() } else { vec![].into_iter() }
//!     }
//! }
//! impl Enumerate for BinTree {
//!     type Value = Sum<u64>;
//!     fn value(&self, _node: &usize) -> Sum<u64> { Sum(1) }
//! }
//!
//! let runtime = Runtime::new(RuntimeConfig::default().workers(2));
//! let mut config = SearchConfig::new(Coordination::depth_bounded(2));
//! config.workers = 2;
//! let handle = runtime.enumerate(BinTree { depth: 10 }, &config);
//! let outcome = handle.wait();
//! assert_eq!(outcome.status, SearchStatus::Complete);
//! assert_eq!(outcome.value.0, 2u64.pow(11) - 1);
//! ```
//!
//! **Scheduling model.**  The dispatcher is an *allocator*: the pool's
//! worker slots belong to the runtime, and every submission is granted an
//! allotment at dispatch time by a pluggable
//! [`SchedulePolicy`], whose decisions the dispatcher carries out through a
//! [`Ledger`] (the same one the virtual-time simulator drives).  Under the
//! default [`Fifo`] policy submissions run one at a time over the whole
//! pool, granted exactly the worker count they asked for — the PR 4
//! behaviour, unchanged.  Under
//! [`FairShare`](crate::schedule::FairShare)
//! ([`Runtime::with_policy`]) the free workers are split proportionally
//! across the pending queue and several searches run **concurrently on
//! disjoint pool-thread subsets**, each with its own driver thread; leases
//! are reclaimed and re-granted as searches finish.  The granted worker
//! count, leased slots and dispatcher-clock queue wait are stamped onto
//! each outcome's [`Metrics`](crate::metrics::Metrics)
//! (`granted_workers`, `granted_slots`, `queue_wait`, `search_id`), and
//! pool-wide gauges are available through [`Runtime::stats`].
//!
//! **Elastic leases.**  Under a concurrent policy a grant is a *lease*, not
//! a fixed allotment: every [`RuntimeConfig::replan_period`] the dispatcher
//! snapshots the running searches and asks the policy to
//! [`replan`](crate::schedule::SchedulePolicy::replan).  A
//! [`Grow`](crate::schedule::Adjustment::Grow) leases additional pool slots
//! onto a live search (the new workers join its work source mid-run); a
//! [`Shrink`](crate::schedule::Adjustment::Shrink) issues cooperative
//! *revocation requests* that running workers claim at their next lifecycle
//! poll — the claiming worker drains its local work back to the survivors,
//! leaves the steal set and returns its slot, never stranding a task; a
//! [`Preempt`](crate::schedule::Adjustment::Preempt) cancels the search so
//! it resolves [`SearchStatus::Cancelled`] with its partial incumbent.
//! Executed adjustments are counted on the outcome's
//! [`Metrics`](crate::metrics::Metrics) (`grant_changes`,
//! `workers_preempted`, `revocation_latency`) and on [`Runtime::stats`],
//! and traced as `grant_grown` / `grant_shrunk` / `worker_revoked` events.
//! Under the serial [`Fifo`] policy none of this machinery runs: grants
//! keep the exact PR 4 fixed-for-life semantics.
//!
//! **Sessions and hierarchical cancellation.**  Cancel tokens form a tree:
//! [`Runtime::session`] opens a [`Session`] scope (a child of the
//! runtime's root token) and searches submitted through it get leaf
//! tokens, so cancelling — or dropping — the session stops its whole group
//! of searches while leaving the rest of the runtime untouched.
//! [`Runtime::shutdown`] takes a [`ShutdownMode`]: `Graceful` drains the
//! queue, `Now` cancels the root scope so running searches stop at their
//! next poll and queued ones resolve `Cancelled` at their pre-start poll
//! (skeleton setup runs, but the search stops before any worker starts).
//!
//! **Anytime semantics.**  A handle's search obeys the same lifecycle rules
//! as the blocking facade: [`SearchConfig::deadline`] bounds its wall-clock
//! budget (counted from when the job *starts executing*, not from
//! submission), [`SearchHandle::cancel`] stops it from outside, and either
//! way the outcome reports an honest [`SearchStatus`] with the partial
//! incumbent preserved.
//!
//! [`Skeleton`]: crate::skeleton::Skeleton
//! [`SearchConfig::deadline`]: crate::params::SearchConfig::deadline

use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, Sender};

use crate::lifecycle::{progress_channel, CancelToken, ProgressStream, SearchStatus};
use crate::metrics::{RuntimeStats, WorkerMetrics};
use crate::objective::{Decide, Enumerate, Optimise};
use crate::params::SearchConfig;
use crate::schedule::{Adjustment, Admitted, Fifo, Ledger, Priority, SchedulePolicy};
use crate::skeleton::{DecideOutcome, EnumOutcome, OptimOutcome, Skeleton};
use crate::trace::{TraceBuffer, TraceEvent, TraceRecord, Tracer};

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

/// A search-worker closure with its lifetime erased so it can cross into a
/// persistent pool thread.  Soundness rests on the latch protocol of
/// [`WorkerPool::scoped_run`]: the caller does not return (and therefore the
/// borrowed closure cannot die) until every job has signalled completion,
/// and a job never touches the pointer after signalling.
struct ScopedJob {
    f: *const (dyn Fn(usize) -> WorkerMetrics + Sync),
    index: usize,
    state: Arc<ScopedState>,
}

// SAFETY: the raw closure pointer is only dereferenced while the
// `scoped_run` caller is blocked on the completion latch, which keeps the
// referent alive; the closure itself is `Sync`, so shared calls from
// several pool threads are fine.
unsafe impl Send for ScopedJob {}

/// Completion latch + result slots shared between one `scoped_run` call and
/// the pool threads executing its jobs.
struct ScopedState {
    /// Jobs not yet completed; guarded by the mutex so the condvar wait is
    /// race-free.
    remaining: Mutex<usize>,
    done: Condvar,
    /// One slot per worker index (index 0 is the inline caller's).
    results: Mutex<Vec<Option<WorkerMetrics>>>,
    /// Set when any job panicked; the caller re-raises after the join.
    poisoned: AtomicBool,
}

/// A pool of persistent, parked worker threads that scoped search workers
/// run on — the engine-facing half of [`Runtime`].  One runner,
/// `scoped_run`, serves fixed leases (Fifo) and elastic ones (concurrent
/// policies) alike.  Public only to the crate; the public API is `Runtime`.
pub struct WorkerPool {
    /// One job channel per thread: the vendored channel shim is single-
    /// consumer, and per-thread queues also keep dispatch deterministic.
    senders: Vec<Sender<ScopedJob>>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool of `threads` parked worker threads.
    pub(crate) fn new(threads: usize) -> Self {
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            // Deep enough that an oversubscribed search (more workers than
            // pool threads) can queue all its extra jobs without blocking
            // the dispatching thread.
            let (tx, rx) = bounded::<ScopedJob>(1024);
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("yewpar-pool-{i}"))
                    .spawn(move || pool_thread(rx))
                    .expect("spawn pool worker"),
            );
        }
        WorkerPool {
            senders,
            threads: handles,
        }
    }

    /// Number of pool threads.
    pub(crate) fn size(&self) -> usize {
        self.senders.len()
    }

    /// Run `count` scoped search workers on the *leased* pool threads in
    /// `slots`: worker 0 inline on the calling thread, workers 1.. on the
    /// listed pool threads (round-robin over the lease; with more workers
    /// than leased threads the surplus run after earlier ones retire, which
    /// is safe — search termination never requires a minimum worker count,
    /// late workers simply find the search finished).  Restricting dispatch
    /// to the lease is what keeps concurrently multiplexed searches on
    /// **disjoint** worker subsets.  Blocks until every worker has
    /// completed; a panic in any worker is re-raised as "a search worker
    /// panicked", matching the scoped-thread path.
    ///
    /// With an *elastic* lease `core` (one slot per initial helper), the
    /// run also accepts workers joining and leaving mid-run.  While it is
    /// live the core's *hook* holds the lifetime-erased worker closure;
    /// [`GrantCore::try_attach`] uses it to dispatch extra workers onto
    /// newly leased slots, bumping the completion latch before the job is
    /// sent so the latch can never reach zero with a worker outstanding.
    /// Result slots are sized to the pool's capacity and indexed by *worker
    /// id* (ids are recycled on revocation, merging stints).  On the way
    /// out the hook is disarmed under the core's lock, after which no
    /// further attach can start — the re-check loop below closes the race
    /// where a grow lands between the latch reaching zero and the disarm.
    pub(crate) fn scoped_run<F>(
        &self,
        core: Option<&Arc<GrantCore>>,
        slots: &[usize],
        count: usize,
        worker_fn: &F,
    ) -> Vec<WorkerMetrics>
    where
        F: Fn(usize) -> WorkerMetrics + Sync,
    {
        assert!(count >= 1);
        assert!(
            count == 1 || !slots.is_empty(),
            "scoped_run with no leased pool threads (callers fall back to scoped threads)"
        );
        debug_assert!(
            slots.iter().all(|&s| s < self.senders.len()),
            "leased slot out of range"
        );
        debug_assert!(
            core.is_none() || count - 1 == slots.len(),
            "elastic grants are 1:1"
        );
        let results = match core {
            Some(_) => (self.size() + 1).max(count),
            None => count,
        };
        let state = Arc::new(ScopedState {
            remaining: Mutex::new(count - 1),
            done: Condvar::new(),
            results: Mutex::new((0..results).map(|_| None).collect()),
            poisoned: AtomicBool::new(false),
        });
        // SAFETY: erase the borrow's lifetime so the pointer can cross into
        // 'static pool threads.  The latch below (and the disarm protocol
        // for attached workers) guarantees this function does not return —
        // and `worker_fn` therefore stays alive — until every job has
        // finished dereferencing it.
        let erased: *const (dyn Fn(usize) -> WorkerMetrics + Sync) = unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize) -> WorkerMetrics + Sync + '_),
                *const (dyn Fn(usize) -> WorkerMetrics + Sync + 'static),
            >(worker_fn)
        };
        if let Some(core) = core {
            core.arm(ElasticHook {
                state: Arc::clone(&state),
                f: erased,
            });
        }
        for index in 1..count {
            let job = ScopedJob {
                f: erased,
                index,
                state: Arc::clone(&state),
            };
            if !self.send_to_slot(slots[(index - 1) % slots.len()], job) {
                // The pool is shutting down; run the worker inline instead
                // of losing it (the latch still expects its completion).
                run_scoped_inline(erased, index, &state);
            }
        }
        // The calling thread is worker 0 — it would otherwise just block.
        let inline = catch_unwind(AssertUnwindSafe(|| worker_fn(0)));
        let inline = match inline {
            Ok(metrics) => Some(metrics),
            Err(_) => {
                // ordering: the latch handshake (store, then decrement under
                // the latch mutex) orders this before the post-wait load; the
                // flag itself needs no ordering.
                state.poisoned.store(true, Ordering::Relaxed);
                None
            }
        };
        // Wait out the helpers before touching the results (and before the
        // borrowed closure can go out of scope).  An elastic run then
        // disarms the hook under the core's lock; `try_attach` increments
        // the latch under that same lock, so after a zero-latch re-check
        // with the lock held no new worker can exist.
        let used = loop {
            let mut remaining = state.remaining.lock().expect("latch lock");
            while *remaining > 0 {
                remaining = state.done.wait(remaining).expect("latch wait");
            }
            drop(remaining);
            match core {
                None => break count,
                Some(core) => {
                    if let Some(used) = core.try_disarm(&state) {
                        break used;
                    }
                }
            }
        };
        let mut results = state.results.lock().expect("results lock");
        if let (Some(slot), Some(metrics)) = (results.get_mut(0), inline) {
            match slot {
                Some(existing) => existing.merge(&metrics),
                None => *slot = Some(metrics),
            }
        }
        let all: Vec<WorkerMetrics> = results
            .iter_mut()
            .take(used.max(1))
            .map(|slot| slot.take().unwrap_or_default())
            .collect();
        drop(results);
        // ordering: every worker decremented the latch under its mutex after
        // any poison store, and we waited that latch out above.
        if state.poisoned.load(Ordering::Relaxed) {
            panic!("a search worker panicked");
        }
        all
    }

    /// Send one scoped job to a specific pool thread.  Returns `false` when
    /// the pool is shutting down (the channel is closed).
    fn send_to_slot(&self, slot: usize, job: ScopedJob) -> bool {
        match self.senders.get(slot) {
            Some(tx) => tx.send(job).is_ok(),
            None => false,
        }
    }

    /// Close the job channels and join every thread.  Called by
    /// [`Runtime`]'s drop after the dispatcher has drained.
    fn shutdown(&mut self) {
        self.senders.clear();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Execute one scoped job, recording its result (or the poison flag) and
/// signalling the latch even on panic.
fn run_scoped_inline(
    f: *const (dyn Fn(usize) -> WorkerMetrics + Sync),
    index: usize,
    state: &Arc<ScopedState>,
) {
    // SAFETY: see `ScopedJob` — the referent outlives the latch.
    let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*f)(index) }));
    let result = match outcome {
        Ok(metrics) => Some(metrics),
        Err(_) => {
            // ordering: ordered before the launcher's post-wait load by this
            // job's latch decrement under the latch mutex.
            state.poisoned.store(true, Ordering::Relaxed);
            None
        }
    };
    let mut results = state.results.lock().expect("results lock");
    // Merge rather than overwrite: elastic runs recycle worker indices
    // (retire → re-grow), so one slot can accumulate several stints.  For
    // fixed grants every index runs exactly once and merge ≡ assign.
    match (&mut results[index], result) {
        (Some(existing), Some(metrics)) => existing.merge(&metrics),
        (slot @ None, metrics) => *slot = metrics,
        (_, None) => {}
    }
    drop(results);
    let mut remaining = state.remaining.lock().expect("latch lock");
    *remaining -= 1;
    if *remaining == 0 {
        state.done.notify_all();
    }
}

/// A pool thread: park on the job channel, run scoped jobs as they arrive,
/// survive job panics (they are reported through the latch, not by killing
/// the thread).
fn pool_thread(rx: Receiver<ScopedJob>) {
    while let Ok(job) = rx.recv() {
        run_scoped_inline(job.f, job.index, &job.state);
    }
}

/// The live half of an elastic run: the worker closure and completion
/// latch of the search currently executing, held by its [`GrantCore`] so
/// [`GrantCore::try_attach`] can dispatch extra workers onto newly leased
/// slots mid-run.  Armed by
/// [`scoped_run`](WorkerPool::scoped_run) before the first
/// worker starts and disarmed (under the core's lock) after the last one
/// finishes.
struct ElasticHook {
    state: Arc<ScopedState>,
    f: *const (dyn Fn(usize) -> WorkerMetrics + Sync),
}

// SAFETY: the raw closure pointer is only dereferenced by jobs dispatched
// while the hook is armed, and `scoped_run` does not return (so the
// referent stays alive) until the latch is zero *and* the hook is disarmed
// under the lock — after which no further dispatch can observe it.  The
// closure is `Sync`, so concurrent calls are fine.
unsafe impl Send for ElasticHook {}

/// Mutexed bookkeeping of one elastic lease (see [`GrantCore`]).
struct GrantInner {
    /// Live workers, *including* worker 0 on the driver thread and workers
    /// that claimed a revocation but have not acknowledged it yet.
    worker_count: usize,
    /// Next fresh worker id; ids freed by revocation are recycled first, so
    /// this never exceeds the pool capacity + 1.
    next_worker_id: usize,
    /// Worker ids freed by acknowledged revocations, available for reuse.
    free_ids: Vec<usize>,
    /// Pool slots currently leased to the search (excludes the driver).
    held_slots: Vec<usize>,
    /// `(worker_id, slot)` for every worker dispatched onto a pool slot.
    assignments: Vec<(usize, usize)>,
    /// Issue timestamps of unacknowledged revocation requests (FIFO); the
    /// front one is consumed at each acknowledgement for its latency.
    revocations: VecDeque<Instant>,
    /// Workers that claimed a revocation and are on their way out — they no
    /// longer count against new revocation requests but still hold their
    /// slot until the acknowledgement.
    retiring: usize,
    hook: Option<ElasticHook>,
}

/// The shared, versioned state of one elastic grant — the renegotiable half
/// of an [`ExecutionGrant`].  The dispatcher grows the lease through
/// [`try_attach`](GrantCore::try_attach) and shrinks it through
/// [`request_revoke`](GrantCore::request_revoke); engine workers observe
/// revocation requests at their lifecycle polls
/// ([`try_claim_retire`](GrantCore::try_claim_retire)) and acknowledge with
/// [`ack_retire`](GrantCore::ack_retire), which returns the slot to the
/// dispatcher via a [`Control::Released`] message.  `None` of this exists
/// for serial-policy grants ([`ExecutionGrant::core`] is `None`): the Fifo
/// fast path carries zero elastic overhead.
pub(crate) struct GrantCore {
    pub(crate) search_id: u64,
    /// Bumped on every lease change (attach, revocation request, ack).
    pub(crate) version: AtomicU64,
    /// Unclaimed revocation requests — the cheap worker-side poll reads
    /// this before ever touching the mutex.
    revoke_pending: AtomicUsize,
    /// Executed adjustments (`Grow`/`Shrink`) against this lease.
    pub(crate) grant_changes: AtomicU64,
    /// Acknowledged revocations (workers that left the search mid-run).
    pub(crate) workers_preempted: AtomicU64,
    /// Summed request → acknowledgement latency, nanoseconds.
    pub(crate) revocation_ns: AtomicU64,
    /// Dispatcher control channel for `Released` notifications.
    released_tx: Sender<Control>,
    inner: Mutex<GrantInner>,
}

impl std::fmt::Debug for GrantCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrantCore")
            .field("search_id", &self.search_id)
            // ordering: diagnostic display of the change tick; staleness ok.
            .field("version", &self.version.load(Ordering::Relaxed))
            .finish()
    }
}

impl GrantCore {
    fn new(search_id: u64, workers: usize, slots: &[usize], released_tx: Sender<Control>) -> Self {
        GrantCore {
            search_id,
            version: AtomicU64::new(0),
            revoke_pending: AtomicUsize::new(0),
            grant_changes: AtomicU64::new(0),
            workers_preempted: AtomicU64::new(0),
            revocation_ns: AtomicU64::new(0),
            released_tx,
            inner: Mutex::new(GrantInner {
                worker_count: workers,
                next_worker_id: workers,
                free_ids: Vec::new(),
                held_slots: slots.to_vec(),
                assignments: (1..workers).map(|i| (i, slots[i - 1])).collect(),
                revocations: VecDeque::new(),
                retiring: 0,
                hook: None,
            }),
        }
    }

    fn arm(&self, hook: ElasticHook) {
        let mut inner = self.inner.lock().expect("grant lock");
        inner.hook = Some(hook);
    }

    /// Disarm the hook if the latch is still zero under the lock; returns
    /// the number of worker-id slots ever used.  `None` means a grow raced
    /// in after the latch was observed zero — wait again.
    fn try_disarm(&self, state: &Arc<ScopedState>) -> Option<usize> {
        let mut inner = self.inner.lock().expect("grant lock");
        let remaining = state.remaining.lock().expect("latch lock");
        if *remaining > 0 {
            return None;
        }
        inner.hook = None;
        Some(inner.next_worker_id)
    }

    /// Lease one more pool slot to the running search: allocate a worker
    /// id, bump the completion latch and dispatch the search's worker
    /// closure onto `slot`.  Returns `false` — leaving the slot with the
    /// caller — when the run is not live (hook unarmed: the search has not
    /// started or is finishing) or the pool is shutting down.
    fn try_attach(&self, slot: usize, pool: &WorkerPool) -> bool {
        let mut inner = self.inner.lock().expect("grant lock");
        let (state, f) = match &inner.hook {
            Some(hook) => (Arc::clone(&hook.state), hook.f),
            None => return false,
        };
        let worker_id = match inner.free_ids.pop() {
            Some(id) => id,
            None => {
                let id = inner.next_worker_id;
                inner.next_worker_id += 1;
                id
            }
        };
        {
            let mut remaining = state.remaining.lock().expect("latch lock");
            *remaining += 1;
        }
        let job = ScopedJob {
            f,
            index: worker_id,
            state: Arc::clone(&state),
        };
        if !pool.send_to_slot(slot, job) {
            let mut remaining = state.remaining.lock().expect("latch lock");
            *remaining -= 1;
            if *remaining == 0 {
                state.done.notify_all();
            }
            drop(remaining);
            inner.free_ids.push(worker_id);
            return false;
        }
        inner.worker_count += 1;
        inner.held_slots.push(slot);
        inner.assignments.push((worker_id, slot));
        // ordering: advisory change tick; lease state mutates under the
        // grant lock above, which provides the real ordering.
        self.version.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Issue up to `want` cooperative revocation requests, never shrinking
    /// the lease below one worker (the driver's worker 0 never claims).
    /// Returns how many were actually issued.
    fn request_revoke(&self, want: usize) -> usize {
        let mut inner = self.inner.lock().expect("grant lock");
        // ordering: relaxed mirror of lock-protected state — only ever
        // written under the grant lock held here, so this read is exact.
        let pending = self.revoke_pending.load(Ordering::Relaxed);
        let committed = inner
            .worker_count
            .saturating_sub(1)
            .saturating_sub(pending + inner.retiring);
        let take = want.min(committed);
        if take == 0 {
            return 0;
        }
        let now = Instant::now();
        for _ in 0..take {
            inner.revocations.push_back(now);
        }
        // ordering: mirror store under the grant lock; unlocked readers
        // (the try_claim_retire fast path) re-check under the lock, so a
        // stale view only delays a claim (model-checked: models/grant.rs).
        self.revoke_pending.store(pending + take, Ordering::Relaxed);
        self.version.fetch_add(1, Ordering::Relaxed);
        self.grant_changes.fetch_add(1, Ordering::Relaxed);
        take
    }

    /// Worker-side: claim one pending revocation request, if any.  The
    /// fast path is a single relaxed load; the claim itself is taken under
    /// the lock so two workers can never claim the same request and a
    /// racing [`request_revoke`](GrantCore::request_revoke) always sees an
    /// accurate committed-worker count.
    pub(crate) fn try_claim_retire(&self) -> bool {
        // ordering: unlocked fast-path peek at the lock-protected mirror; a
        // stale zero just skips this poll and a stale non-zero falls through
        // to the locked re-check below (model-checked: models/grant.rs,
        // whose UnlockedClaim mutation shows the lock re-check is load-bearing).
        if self.revoke_pending.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let mut inner = self.inner.lock().expect("grant lock");
        // ordering: exact — the mirror is only written under the grant lock.
        let pending = self.revoke_pending.load(Ordering::Relaxed);
        if pending == 0 {
            return false;
        }
        self.revoke_pending.store(pending - 1, Ordering::Relaxed);
        inner.retiring += 1;
        true
    }

    /// Worker-side: acknowledge a claimed revocation after the worker has
    /// drained its local work back to the survivors.  Removes the worker
    /// from the lease — the slot is struck from `held_slots` *before* the
    /// [`Control::Released`] message is sent, so the dispatcher can hand it
    /// out again without racing the search's own teardown — and records
    /// the request → acknowledgement latency.
    pub(crate) fn ack_retire(&self, worker_id: usize) {
        let mut inner = self.inner.lock().expect("grant lock");
        let slot = inner
            .assignments
            .iter()
            .position(|(w, _)| *w == worker_id)
            .map(|pos| inner.assignments.remove(pos).1);
        if let Some(slot) = slot {
            inner.held_slots.retain(|&s| s != slot);
        }
        inner.free_ids.push(worker_id);
        inner.worker_count = inner.worker_count.saturating_sub(1);
        inner.retiring = inner.retiring.saturating_sub(1);
        let latency = inner
            .revocations
            .pop_front()
            .map(|requested| requested.elapsed())
            .unwrap_or_default();
        drop(inner);
        // ordering: advisory telemetry tallies (and the change tick); read
        // by metrics snapshots that tolerate skew, publish nothing.
        self.workers_preempted.fetch_add(1, Ordering::Relaxed);
        self.revocation_ns
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
        self.version.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = slot {
            let _ = self.released_tx.send(Control::Released {
                search_id: self.search_id,
                slot,
                latency,
            });
        }
    }

    /// Dispatcher-side teardown at search finish: clear any unclaimed
    /// revocation requests and return the remaining lease
    /// `(workers, slots)` for reclamation.  Every acknowledgement
    /// happens-before the driver's `Finished` message, so the returned
    /// numbers are settled.
    fn teardown(&self) -> (usize, Vec<usize>) {
        let mut inner = self.inner.lock().expect("grant lock");
        inner.hook = None;
        inner.revocations.clear();
        // ordering: mirror reset under the grant lock, like every write.
        self.revoke_pending.store(0, Ordering::Relaxed);
        (inner.worker_count, std::mem::take(&mut inner.held_slots))
    }
}

/// Per-session worker-quota accounting (see [`Session::with_max_workers`]):
/// the dispatcher holds a session's submissions back — and caps what it
/// shows the policy — so the session's total granted workers never exceed
/// the cap, and accumulates how long submissions sat quota-throttled.
#[derive(Debug, Default)]
pub(crate) struct SessionQuota {
    max_workers: usize,
    throttled_ns: AtomicU64,
}

impl SessionQuota {
    fn add_throttled(&self, held: Duration) {
        // ordering: advisory telemetry tally; `stats()` readers tolerate a
        // slightly stale total.
        self.throttled_ns
            .fetch_add(held.as_nanos() as u64, Ordering::Relaxed);
    }

    fn throttled(&self) -> Duration {
        // ordering: advisory telemetry read; see add_throttled.
        Duration::from_nanos(self.throttled_ns.load(Ordering::Relaxed))
    }
}

/// The background gauge sampler ([`RuntimeConfig::gauge_period`]): snapshot
/// the pool-wide gauges every `period` and record them as `RuntimeGauge`
/// events until told to stop.  The period is slept in bounded chunks so
/// shutdown never waits out a long sampling interval.
fn gauge_sampler(stop: Arc<AtomicBool>, gauges: Arc<PoolGauges>, tracer: Tracer, period: Duration) {
    const CHUNK: Duration = Duration::from_millis(10);
    // ordering: pure shutdown flag guarding no data; a stale read costs at
    // most one extra sample/chunk before the next load observes the store.
    while !stop.load(Ordering::Relaxed) {
        let stats = gauges.snapshot();
        tracer.control(TraceEvent::RuntimeGauge {
            active: stats.active_searches as u32,
            granted: stats.granted_workers as u32,
            queued: stats.queued_searches as u32,
            completed: stats.completed_searches,
            peak: stats.peak_active_searches as u32,
        });
        let mut remaining = period;
        // ordering: same shutdown flag as above; staleness only delays exit.
        while !remaining.is_zero() && !stop.load(Ordering::Relaxed) {
            let chunk = remaining.min(CHUNK);
            std::thread::sleep(chunk);
            remaining = remaining.saturating_sub(chunk);
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// Configuration of a [`Runtime`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Maximum search workers that can run in parallel.  The pool keeps
    /// `workers - 1` persistent threads (the dispatching thread itself runs
    /// worker 0 of each search), so a search configured with up to this
    /// many workers executes with zero thread spawns.
    pub workers: usize,
    /// Capacity of each handle's bounded progress channel; events beyond a
    /// lagging consumer are dropped, never blocked on.
    pub progress_capacity: usize,
    /// Capacity of the FIFO submission queue.  Submitting beyond it blocks
    /// the submitter until the dispatcher catches up (backpressure, not an
    /// error).
    pub queue_capacity: usize,
    /// Record every search submitted to this runtime — plus the
    /// dispatcher's queue/grant transitions — on one runtime-wide flight
    /// recorder, drained with [`Runtime::drain_trace`].  Off by default and
    /// free when off (see [`crate::trace`]).
    pub trace: bool,
    /// Period of the background gauge sampler: when set (and `trace` is
    /// on), a sampler thread snapshots the pool-wide [`RuntimeStats`] every
    /// period and records them as
    /// [`RuntimeGauge`](crate::trace::TraceEvent::RuntimeGauge) events.
    /// `None` (the default) disables the sampler.
    pub gauge_period: Option<Duration>,
    /// How often the dispatcher re-plans elastic leases while a concurrent
    /// policy has running or pending searches: each tick it snapshots the
    /// running set and executes the policy's
    /// [`replan`](crate::schedule::SchedulePolicy::replan) adjustments.
    /// Irrelevant — and costless — under a serial policy, which keeps the
    /// dispatcher on a pure blocking receive.  Default 5 ms.
    pub replan_period: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            progress_capacity: 1024,
            queue_capacity: 256,
            trace: false,
            gauge_period: None,
            replan_period: Duration::from_millis(5),
        }
    }
}

impl RuntimeConfig {
    /// Set the maximum parallel search workers.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the per-handle progress-channel capacity.
    pub fn progress_capacity(mut self, capacity: usize) -> Self {
        self.progress_capacity = capacity.max(1);
        self
    }

    /// Switch the runtime-wide flight recorder on or off.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enable the background gauge sampler with the given period (requires
    /// [`trace`](RuntimeConfig::trace) to record anywhere).
    pub fn gauge_period(mut self, period: Duration) -> Self {
        self.gauge_period = Some(period);
        self
    }

    /// Set the elastic re-planning period (see
    /// [`replan_period`](RuntimeConfig::replan_period)).
    pub fn replan_period(mut self, period: Duration) -> Self {
        self.replan_period = period.max(Duration::from_micros(1));
        self
    }
}

/// How [`Runtime::shutdown`] treats work that has not finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShutdownMode {
    /// Stop accepting submissions, run every queued search to its natural
    /// end (deadlines and cancel tokens still apply), wait for running
    /// searches, then join all threads.  This is what dropping a [`Runtime`]
    /// does.
    Graceful,
    /// Stop *now*, deterministically: cancel the runtime's root scope (every
    /// running search stops at its next per-step poll with
    /// [`SearchStatus::Cancelled`]), cancel every queued-but-unstarted
    /// search (its handle resolves `Cancelled` with an empty partial instead
    /// of hanging), then join.  No handle is left unresolved.
    Now,
}

/// The worker allotment the scheduler granted one search at dispatch time.
/// Flows from the dispatcher through [`Skeleton`] into the engine (which
/// sizes its worker set and work source from it) and is stamped onto the
/// outcome's [`Metrics`](crate::metrics::Metrics) so disjointness and
/// queue-wait are observable per search.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExecutionGrant {
    /// Runtime-unique id of the search (1-based; 0 = not a runtime search).
    pub(crate) search_id: u64,
    /// Granted worker count — the engine's effective worker count,
    /// overriding `SearchConfig::workers` (which is the *request*).
    pub(crate) workers: usize,
    /// Leased pool-thread indices (disjoint between concurrently running
    /// searches).  Workers 1.. round-robin over these; worker 0 runs on the
    /// search's driver thread.
    pub(crate) slots: Vec<usize>,
    /// Time from submission to grant, recorded by the dispatcher at grant
    /// time (the submitter never self-reports its wait).
    pub(crate) queue_wait: Duration,
    /// The shared, versioned lease state — `Some` exactly when the grant is
    /// *elastic* (concurrent policy): the dispatcher renegotiates the lease
    /// through it, and the engine routes the run through
    /// [`WorkerPool::scoped_run`] elastically and polls it for revocations.
    /// `None` keeps the fixed-for-life PR 4 semantics.
    pub(crate) core: Option<Arc<GrantCore>>,
}

/// A submitted search job: runs once the scheduler grants it workers.
type Job = Box<dyn FnOnce(ExecutionGrant) + Send + 'static>;

/// A submission travelling from [`Runtime::submit_scoped`] to the
/// dispatcher.
struct Submission {
    search_id: u64,
    requested_workers: usize,
    /// Scheduling priority ([`SearchConfig::priority`]), surfaced to the
    /// policy on every plan/replan.
    priority: Priority,
    /// The request's wall-clock budget ([`SearchConfig::deadline`]),
    /// surfaced to deadline-aware policies for admission ordering.
    deadline: Option<Duration>,
    /// The submitting session's worker quota, if capped.
    quota: Option<Arc<SessionQuota>>,
    /// The search's (leaf) cancel token — the dispatcher pre-cancels queued
    /// submissions on [`ShutdownMode::Now`].
    cancel: CancelToken,
    /// Monotonic timestamp of the submission.  Queue wait is *recorded by
    /// the dispatcher* at grant time (`submitted_at` → grant instant), so a
    /// submitter never self-reports its wait — and time spent in the
    /// channel while the dispatcher runs a FIFO job inline still counts.
    submitted_at: Instant,
    job: Job,
}

/// Dispatcher control messages.  Submissions and driver-completion
/// notifications share one channel so the dispatcher has a single blocking
/// point.
enum Control {
    Submit(Submission),
    /// A concurrently driven search finished; reclaim its lease.
    Finished {
        search_id: u64,
    },
    /// A worker acknowledged a revocation and left its search mid-run; its
    /// slot and one worker of budget return to the free pools.  Sent by
    /// [`GrantCore::ack_retire`] *after* the slot was struck from the
    /// lease, so this never races the search's own `Finished` reclaim.
    Released {
        search_id: u64,
        slot: usize,
        latency: Duration,
    },
    Shutdown(ShutdownMode),
}

/// Pool-wide scheduler gauges, updated by the dispatcher and snapshotted by
/// [`Runtime::stats`].
#[derive(Debug, Default)]
struct PoolGauges {
    active_searches: AtomicUsize,
    peak_active_searches: AtomicUsize,
    granted_workers: AtomicUsize,
    queued_searches: AtomicUsize,
    completed_searches: AtomicU64,
    total_queue_wait_micros: AtomicU64,
    grant_changes: AtomicU64,
    workers_preempted: AtomicU64,
    revocation_ns: AtomicU64,
}

impl PoolGauges {
    fn snapshot(&self) -> RuntimeStats {
        RuntimeStats {
            // ordering: advisory gauges — each field is an independent
            // relaxed tally and the snapshot may be skewed across fields;
            // acceptable for telemetry, nothing is published through them.
            active_searches: self.active_searches.load(Ordering::Relaxed),
            peak_active_searches: self.peak_active_searches.load(Ordering::Relaxed),
            granted_workers: self.granted_workers.load(Ordering::Relaxed),
            // ordering: as above — independent advisory telemetry reads.
            queued_searches: self.queued_searches.load(Ordering::Relaxed),
            completed_searches: self.completed_searches.load(Ordering::Relaxed),
            // ordering: as above — independent advisory telemetry reads.
            total_queue_wait: Duration::from_micros(
                self.total_queue_wait_micros.load(Ordering::Relaxed),
            ),
            grant_changes: self.grant_changes.load(Ordering::Relaxed),
            workers_preempted: self.workers_preempted.load(Ordering::Relaxed),
            // ordering: as above — independent advisory telemetry read.
            revocation_latency: Duration::from_nanos(self.revocation_ns.load(Ordering::Relaxed)),
        }
    }
}

/// A submission the dispatcher has received but not yet granted workers:
/// the payload it keeps in its [`Ledger`].
struct QueuedSearch {
    submission: Submission,
    /// When (on the ledger's clock) the submission last became quota-held;
    /// taken (and accumulated into the session's throttled time) the moment
    /// it is eligible again.
    throttle_started: Option<Duration>,
}

/// Workers held per capped session (see [`Dispatcher::session_load`]).
type SessionLoad = HashMap<*const SessionQuota, usize>;

/// The ledger's `cap` for one planning round at `now`, starting from the
/// sessions' current `load`: quota-eligible submissions only, each request
/// capped to its session's remaining quota.  Over-quota submissions are
/// held back — queued, not errored — and their hold time is accumulated as
/// session throttled time the moment they become eligible again.
fn quota_cap(
    now: Duration,
    mut load: SessionLoad,
) -> impl FnMut(&mut QueuedSearch, usize) -> Option<usize> {
    move |queued, requested| {
        let Some(quota) = &queued.submission.quota else {
            return Some(requested);
        };
        let load = load.entry(Arc::as_ptr(quota)).or_insert(0);
        let remaining = quota.max_workers.saturating_sub(*load);
        if remaining == 0 {
            queued.throttle_started.get_or_insert(now);
            return None;
        }
        if let Some(started) = queued.throttle_started.take() {
            quota.add_throttled(now.saturating_sub(started));
        }
        let requested = requested.min(remaining);
        // Charge the request to the round: two same-session submissions
        // arriving in one control batch must not both be measured against
        // the running load, or one plan round could admit past the cap.
        // Conservative (charges the capped request even if the policy
        // grants less); an under-admitted session becomes eligible again on
        // the next tick.
        *load += requested;
        Some(requested)
    }
}

/// Dispatcher-side state of one running elastic search: the lease's shared
/// core plus what preemption and quotas need.  What the policy sees of the
/// lease lives in the [`Ledger`].
struct ActiveSearch {
    core: Arc<GrantCore>,
    cancel: CancelToken,
    quota: Option<Arc<SessionQuota>>,
}

/// The allocator loop state: carries out the policy's decisions through a
/// [`Ledger`] and owns what is physically the runtime's — the free
/// pool-thread slots, the grant cores and the driver threads.
struct Dispatcher {
    rx: Receiver<Control>,
    /// Clone handed to each driver thread for its `Finished` notification.
    finished_tx: Sender<Control>,
    policy: Box<dyn SchedulePolicy>,
    /// The pending queue, the free worker budget and the running leases,
    /// on a clock that reads the time since `epoch`.
    ledger: Ledger<QueuedSearch>,
    epoch: Instant,
    /// Unleased pool-thread indices.
    free_slots: Vec<usize>,
    /// Driver threads of concurrently running searches, joined on their
    /// `Finished` message.
    drivers: HashMap<u64, JoinHandle<()>>,
    /// Elastic leases of the currently running searches (concurrent
    /// policies only; empty under Fifo).
    elastic: HashMap<u64, ActiveSearch>,
    /// The pool, for dispatching grown workers onto newly leased slots.
    pool: Arc<WorkerPool>,
    /// Elastic re-planning tick ([`RuntimeConfig::replan_period`]).
    replan_period: Duration,
    gauges: Arc<PoolGauges>,
    draining: Option<ShutdownMode>,
    /// Flight recorder for queue/grant/finish transitions (off by default).
    tracer: Tracer,
}

impl Dispatcher {
    fn run(mut self) {
        loop {
            if self.draining.is_some() && self.ledger.is_idle() {
                break;
            }
            // A concurrent policy with anything in flight re-plans on a
            // timer; otherwise the dispatcher parks on a pure blocking
            // receive (the Fifo fast path, unchanged).
            let tick = self.policy.concurrent() && !self.ledger.is_idle();
            let received = if tick {
                match self.rx.recv_timeout(self.replan_period) {
                    Ok(msg) => Ok(Some(msg)),
                    Err(RecvTimeoutError::Timeout) => Ok(None),
                    Err(RecvTimeoutError::Disconnected) => Err(()),
                }
            } else {
                self.rx.recv().map(Some).map_err(|_| ())
            };
            match received {
                Ok(Some(msg)) => self.handle(msg),
                Ok(None) => {}
                Err(()) => {
                    // Unreachable by construction — `finished_tx` keeps the
                    // channel open for this loop's whole lifetime (`Drop`
                    // terminates via an explicit `Shutdown` message).  Kept
                    // as a defensive exit so a refactor that drops that
                    // clone cannot silently hang the dispatcher.
                    if self.draining.is_none() {
                        self.draining = Some(ShutdownMode::Graceful);
                    }
                    if self.ledger.is_idle() {
                        break;
                    }
                }
            }
            // Batch whatever else already arrived before planning, so one
            // planning round sees the whole burst.
            while let Ok(msg) = self.rx.try_recv() {
                self.handle(msg);
            }
            self.dispatch();
            self.replan();
        }
        for (_, driver) in self.drivers.drain() {
            let _ = driver.join();
        }
    }

    fn handle(&mut self, msg: Control) {
        match msg {
            Control::Submit(submission) => {
                if matches!(self.draining, Some(ShutdownMode::Now)) {
                    submission.cancel.cancel();
                }
                // `queued_searches` was already incremented by the
                // submitter, so time spent in the control channel (e.g.
                // while a FIFO job runs inline) shows up in the gauge.
                self.tracer.control(TraceEvent::SearchQueued {
                    search_id: submission.search_id,
                });
                self.ledger.enqueue(
                    submission.search_id,
                    submission.requested_workers,
                    submission.priority,
                    submission.deadline,
                    submission
                        .submitted_at
                        .saturating_duration_since(self.epoch),
                    QueuedSearch {
                        submission,
                        throttle_started: None,
                    },
                );
            }
            Control::Finished { search_id } => {
                self.tracer
                    .control(TraceEvent::SearchFinished { search_id });
                if let Some(entry) = self.elastic.remove(&search_id) {
                    // The launch-time grant is stale after grows/shrinks —
                    // reclaim what the core still holds.  Every
                    // acknowledgement happens-before this message, so the
                    // teardown numbers are settled.
                    let (workers, slots) = entry.core.teardown();
                    let leased = self.reclaim(search_id, slots);
                    debug_assert_eq!(workers, leased, "ledger and grant core disagree");
                }
                if let Some(driver) = self.drivers.remove(&search_id) {
                    // The driver sent `Finished` as its last action; the
                    // join returns promptly and keeps the thread count
                    // bounded by the number of *running* searches.
                    let _ = driver.join();
                }
            }
            Control::Released {
                search_id,
                slot,
                latency,
            } => {
                // The slot was already struck from the lease before this
                // message was sent, so crediting it here cannot
                // double-count against the search's finish-time reclaim.
                self.free_slots.push(slot);
                self.ledger.release(search_id, 1);
                // ordering: advisory telemetry gauges; snapshot() reads them
                // relaxed and tolerates skew.
                self.gauges.granted_workers.fetch_sub(1, Ordering::Relaxed);
                self.gauges
                    .workers_preempted
                    .fetch_add(1, Ordering::Relaxed);
                self.gauges
                    .revocation_ns
                    // ordering: advisory telemetry tally, as above.
                    .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
                self.tracer.control(TraceEvent::WorkerRevoked {
                    search_id,
                    slot: slot as u32,
                    latency_ns: latency.as_nanos() as u64,
                });
            }
            Control::Shutdown(mode) => {
                if matches!(mode, ShutdownMode::Now) {
                    for queued in self.ledger.queued() {
                        queued.submission.cancel.cancel();
                    }
                }
                if !matches!(self.draining, Some(ShutdownMode::Now)) {
                    self.draining = Some(mode);
                }
            }
        }
    }

    /// Workers each capped session holds: the leases of its running
    /// searches, revocations in flight included.  Only concurrent leases
    /// count — a serial policy's inline run has returned before the next
    /// planning round.
    fn session_load(&self) -> SessionLoad {
        let mut load = SessionLoad::new();
        for (&search_id, entry) in &self.elastic {
            if let (Some(quota), Some(lease)) = (&entry.quota, self.ledger.lease(search_id)) {
                *load.entry(Arc::as_ptr(quota)).or_insert(0) += lease.workers;
            }
        }
        load
    }

    /// Close a finished search's lease: its workers return to the ledger's
    /// budget, its slots to the free pool.  Returns the lease's final
    /// worker count.
    fn reclaim(&mut self, search_id: u64, mut slots: Vec<usize>) -> usize {
        let workers = self.ledger.finish(search_id).map_or(0, |l| l.workers);
        self.free_slots.append(&mut slots);
        // ordering: advisory telemetry gauges; snapshots tolerate skew.
        self.gauges.active_searches.fetch_sub(1, Ordering::Relaxed);
        self.gauges
            .granted_workers
            .fetch_sub(workers, Ordering::Relaxed);
        self.gauges
            .completed_searches
            // ordering: advisory telemetry tally, as above.
            .fetch_add(1, Ordering::Relaxed);
        workers
    }

    /// Let the ledger plan admissions and launch them, repeating until the
    /// policy admits nothing (a serial policy's inline run frees the pool,
    /// so one `dispatch` call can drain a whole FIFO queue).
    fn dispatch(&mut self) {
        loop {
            let now = self.epoch.elapsed();
            let cap = quota_cap(now, self.session_load());
            let admitted = self.ledger.plan(self.policy.as_mut(), now, cap);
            if admitted.is_empty() {
                return;
            }
            for admission in admitted {
                self.launch(admission);
            }
        }
    }

    /// Lease pool slots to one admitted search and run it — inline on this
    /// thread under a serial policy (the PR 4 fast path), on a dedicated
    /// driver thread under a concurrent one.
    fn launch(&mut self, admitted: Admitted<QueuedSearch>) {
        let Admitted {
            search_id,
            job: QueuedSearch { submission, .. },
            workers,
            queue_wait,
        } = admitted;
        // Worker 0 runs on the driver; workers 1.. need pool threads.  A
        // FIFO oversubscribed grant takes every free slot and round-robins.
        let lease_len = workers.saturating_sub(1).min(self.free_slots.len());
        let slots: Vec<usize> = self.free_slots.drain(..lease_len).collect();
        // Concurrent policies never oversubscribe (their grants are capped
        // to the free budget, and `free_slots ≥ free_workers − 1 + active`
        // holds inductively), so every concurrent grant is fully leased and
        // therefore elastic: one pool slot per helper, renegotiable.
        let core = self.policy.concurrent().then(|| {
            Arc::new(GrantCore::new(
                search_id,
                workers,
                &slots,
                self.finished_tx.clone(),
            ))
        });
        if let Some(core) = &core {
            self.elastic.insert(
                search_id,
                ActiveSearch {
                    core: Arc::clone(core),
                    cancel: submission.cancel.clone(),
                    quota: submission.quota.clone(),
                },
            );
        }
        let grant = ExecutionGrant {
            search_id,
            workers,
            slots: slots.clone(),
            queue_wait,
            core,
        };
        // ordering: advisory telemetry gauges; snapshots tolerate skew.  The
        // peak update is a lock-free max over the RMW-atomic running count.
        self.gauges.queued_searches.fetch_sub(1, Ordering::Relaxed);
        self.gauges
            .granted_workers
            .fetch_add(workers, Ordering::Relaxed);
        // ordering: advisory gauges, as above; the peak is a lock-free max
        // over this RMW-atomic running count.
        let active_now = self.gauges.active_searches.fetch_add(1, Ordering::Relaxed) + 1;
        self.gauges
            .peak_active_searches
            .fetch_max(active_now, Ordering::Relaxed);
        self.gauges
            .total_queue_wait_micros
            // ordering: advisory telemetry tally, as above.
            .fetch_add(queue_wait.as_micros() as u64, Ordering::Relaxed);
        self.tracer.control(TraceEvent::SearchGranted {
            search_id,
            workers: workers as u32,
        });
        let job = submission.job;
        if self.policy.concurrent() {
            let finished = self.finished_tx.clone();
            let driver = std::thread::Builder::new()
                .name(format!("yewpar-driver-{search_id}"))
                .spawn(move || {
                    // The job catches search panics itself (the handle
                    // re-raises them); this outer catch only guarantees the
                    // lease is returned even if result delivery panics.
                    let _ = catch_unwind(AssertUnwindSafe(|| job(grant)));
                    let _ = finished.send(Control::Finished { search_id });
                })
                .expect("spawn search driver");
            self.drivers.insert(search_id, driver);
        } else {
            // Serial policy: inline on the dispatcher thread — zero handoff
            // latency, identical to the PR 4 FIFO runtime.
            job(grant);
            self.tracer
                .control(TraceEvent::SearchFinished { search_id });
            self.reclaim(search_id, slots);
        }
    }

    /// One elastic re-planning round: let the ledger replan and carry out
    /// the clamped adjustments it returns.  Shrinks issue cooperative
    /// revocation requests (the workers leave, and their slots return,
    /// asynchronously at their next lifecycle polls); preemptions cancel the
    /// search, whose whole lease returns through the normal finish path.
    fn replan(&mut self) {
        let now = self.epoch.elapsed();
        let cap = quota_cap(now, self.session_load());
        let actions = self.ledger.replan(self.policy.as_mut(), now, cap);
        for action in actions {
            match action {
                Adjustment::Grow { search, workers } => self.execute_grow(search, workers),
                Adjustment::Shrink { search, workers } => {
                    let Some(entry) = self.elastic.get(&search) else {
                        continue;
                    };
                    let issued = entry.core.request_revoke(workers);
                    debug_assert_eq!(issued, workers, "ledger and grant core disagree");
                    // ordering: advisory telemetry tally; snapshots tolerate skew.
                    self.gauges.grant_changes.fetch_add(1, Ordering::Relaxed);
                    let lease = self.ledger.lease(search);
                    self.tracer.control(TraceEvent::GrantShrunk {
                        search_id: search,
                        workers: lease.map_or(0, |l| l.workers - l.pending_revocations) as u32,
                    });
                }
                Adjustment::Preempt { search } => {
                    if let Some(entry) = self.elastic.get(&search) {
                        entry.cancel.cancel();
                    }
                }
            }
        }
    }

    /// Lease up to `want` extra workers (already clamped to the free budget
    /// by the ledger) onto a running search — bounded by the free slots and
    /// the search's session quota.
    fn execute_grow(&mut self, search: u64, want: usize) {
        let Some(entry) = self.elastic.get(&search) else {
            return;
        };
        let quota_room = entry.quota.as_ref().map_or(usize::MAX, |quota| {
            let load = self.session_load().get(&Arc::as_ptr(quota)).copied();
            quota.max_workers.saturating_sub(load.unwrap_or(0))
        });
        let want = want.min(self.free_slots.len()).min(quota_room);
        let mut grown = 0;
        for _ in 0..want {
            let Some(slot) = self.free_slots.pop() else {
                break;
            };
            if entry.core.try_attach(slot, &self.pool) {
                grown += 1;
            } else {
                // The search has not armed yet or is finishing — keep the
                // slot and stop; a later round can retry.
                self.free_slots.push(slot);
                break;
            }
        }
        if grown > 0 {
            let workers = self.ledger.grow(search, grown);
            // ordering: advisory telemetry tallies; snapshots tolerate skew.
            entry.core.grant_changes.fetch_add(1, Ordering::Relaxed);
            self.gauges
                .granted_workers
                .fetch_add(grown, Ordering::Relaxed);
            self.gauges.grant_changes.fetch_add(1, Ordering::Relaxed);
            self.tracer.control(TraceEvent::GrantGrown {
                search_id: search,
                workers: workers as u32,
            });
        }
    }
}

/// A persistent search runtime: a long-lived worker pool plus a
/// policy-driven multiplexing scheduler.  See the [module docs](self) for
/// the full model.
pub struct Runtime {
    control: Option<Sender<Control>>,
    dispatcher: Option<JoinHandle<()>>,
    pool: Arc<WorkerPool>,
    config: RuntimeConfig,
    /// Root of the runtime's cancellation tree: sessions are children,
    /// searches are grandchildren (or children, for sessionless
    /// submissions).  [`ShutdownMode::Now`] cancels it.
    root: CancelToken,
    gauges: Arc<PoolGauges>,
    next_search_id: AtomicU64,
    policy_name: &'static str,
    /// Runtime-wide flight recorder shared by the dispatcher, the gauge
    /// sampler and every submitted search ([`RuntimeConfig::trace`]).
    trace: Option<Arc<TraceBuffer>>,
    /// Stop flag + thread of the background gauge sampler
    /// ([`RuntimeConfig::gauge_period`]); joined on shutdown.
    gauge_stop: Option<Arc<AtomicBool>>,
    gauge_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.config.workers)
            .field("policy", &self.policy_name)
            .finish()
    }
}

impl Runtime {
    /// Start a runtime with the default [`Fifo`] scheduling policy — one
    /// search at a time over the whole pool, exactly the PR 4 behaviour.
    pub fn new(config: RuntimeConfig) -> Self {
        Runtime::with_policy(config, Box::new(Fifo))
    }

    /// Start a runtime with an explicit scheduling policy (e.g.
    /// [`FairShare`](crate::schedule::FairShare) to multiplex concurrent
    /// searches over disjoint worker subsets).
    pub fn with_policy(config: RuntimeConfig, policy: Box<dyn SchedulePolicy>) -> Self {
        let pool = Arc::new(WorkerPool::new(config.workers.saturating_sub(1)));
        let (tx, rx) = bounded::<Control>(config.queue_capacity.max(1));
        let gauges = Arc::new(PoolGauges::default());
        let policy_name = policy.name();
        let trace = config
            .trace
            .then(|| Arc::new(TraceBuffer::new(TraceBuffer::DEFAULT_CAPACITY)));
        let tracer = trace
            .as_ref()
            .map(|buffer| Tracer::new(Arc::clone(buffer)))
            .unwrap_or_else(Tracer::off);
        let dispatcher_state = Dispatcher {
            rx,
            finished_tx: tx.clone(),
            policy,
            ledger: Ledger::new(config.workers),
            epoch: Instant::now(),
            free_slots: (0..pool.size()).collect(),
            drivers: HashMap::new(),
            elastic: HashMap::new(),
            pool: Arc::clone(&pool),
            replan_period: config.replan_period,
            gauges: Arc::clone(&gauges),
            draining: None,
            tracer: tracer.clone(),
        };
        let dispatcher = std::thread::Builder::new()
            .name("yewpar-dispatch".into())
            .spawn(move || dispatcher_state.run())
            .expect("spawn runtime dispatcher");
        let (gauge_stop, gauge_thread) = match (trace.is_some(), config.gauge_period) {
            (true, Some(period)) => {
                let stop = Arc::new(AtomicBool::new(false));
                let thread_stop = Arc::clone(&stop);
                let thread_gauges = Arc::clone(&gauges);
                let handle = std::thread::Builder::new()
                    .name("yewpar-gauges".into())
                    .spawn(move || gauge_sampler(thread_stop, thread_gauges, tracer, period))
                    .expect("spawn gauge sampler");
                (Some(stop), Some(handle))
            }
            _ => (None, None),
        };
        Runtime {
            control: Some(tx),
            dispatcher: Some(dispatcher),
            pool,
            config,
            root: CancelToken::new(),
            gauges,
            next_search_id: AtomicU64::new(1),
            policy_name,
            trace,
            gauge_stop,
            gauge_thread,
        }
    }

    /// The effective configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The active scheduling policy's name (`"fifo"`, `"fair-share"`, …).
    pub fn policy_name(&self) -> &'static str {
        self.policy_name
    }

    /// A snapshot of the pool-wide scheduler gauges: active searches,
    /// granted workers, queue depth, peak concurrency and cumulative
    /// queue-wait.
    pub fn stats(&self) -> RuntimeStats {
        self.gauges.snapshot()
    }

    /// Drain the runtime-wide flight recorder: every event recorded since
    /// the last drain, merged across workers and sorted by timestamp.
    /// Empty unless [`RuntimeConfig::trace`] is on.  Events from searches
    /// running concurrently interleave on shared worker ids; the
    /// dispatcher's `search_queued`/`search_granted`/`search_finished`
    /// events carry the `search_id` needed to segment the timeline.
    pub fn drain_trace(&self) -> Vec<TraceRecord> {
        self.trace
            .as_ref()
            .map(|buffer| buffer.drain())
            .unwrap_or_default()
    }

    /// Total records dropped by the flight recorder's bounded rings since
    /// the runtime started (never reset by draining; 0 with tracing off).
    pub fn trace_dropped(&self) -> u64 {
        self.trace
            .as_ref()
            .map(|buffer| buffer.dropped())
            .unwrap_or(0)
    }

    /// Open a [`Session`]: a cancellation scope grouping any number of
    /// subsequent submissions.  Cancelling the session — or just dropping
    /// it — cancels every search submitted through it; the session also
    /// aggregates its searches' terminal [`SearchStatus`]es.
    pub fn session(&self) -> Session<'_> {
        Session {
            runtime: self,
            scope: self.root.child(),
            state: Arc::new(SessionState::default()),
            quota: None,
            armed: true,
        }
    }

    /// Submit an enumeration search; returns immediately with a handle.
    pub fn enumerate<P>(
        &self,
        problem: P,
        config: &SearchConfig,
    ) -> SearchHandle<EnumOutcome<P::Value>>
    where
        P: Enumerate + Send + Sync + 'static,
        P::Value: Send + 'static,
    {
        self.submit_scoped(
            &self.root,
            None,
            None,
            problem,
            config,
            |skeleton, problem| skeleton.enumerate(problem),
            |outcome| outcome.status,
        )
    }

    /// Submit an optimisation search; returns immediately with a handle.
    /// On cancel or deadline the outcome carries the partial incumbent.
    pub fn maximise<P>(
        &self,
        problem: P,
        config: &SearchConfig,
    ) -> SearchHandle<OptimOutcome<P::Node, P::Score>>
    where
        P: Optimise + Send + Sync + 'static,
        P::Node: 'static,
    {
        self.submit_scoped(
            &self.root,
            None,
            None,
            problem,
            config,
            |skeleton, problem| skeleton.maximise(problem),
            |outcome| outcome.status,
        )
    }

    /// Submit a decision search; returns immediately with a handle.
    pub fn decide<P>(
        &self,
        problem: P,
        config: &SearchConfig,
    ) -> SearchHandle<DecideOutcome<P::Node>>
    where
        P: Decide + Send + Sync + 'static,
        P::Node: 'static,
    {
        self.submit_scoped(
            &self.root,
            None,
            None,
            problem,
            config,
            |skeleton, problem| skeleton.decide(problem),
            |outcome| outcome.status,
        )
    }

    /// The shared submission path: derive a leaf cancel token under
    /// `parent`, wrap the search into a grant-accepting job, and hand it to
    /// the dispatcher.  `status_of` lets the (type-erased) session
    /// aggregation read the outcome's terminal status.
    #[allow(clippy::too_many_arguments)]
    fn submit_scoped<P, T>(
        &self,
        parent: &CancelToken,
        session: Option<Arc<SessionState>>,
        quota: Option<Arc<SessionQuota>>,
        problem: P,
        config: &SearchConfig,
        run: impl FnOnce(&Skeleton, &P) -> T + Send + 'static,
        status_of: fn(&T) -> SearchStatus,
    ) -> SearchHandle<T>
    where
        P: Send + Sync + 'static,
        T: Send + 'static,
    {
        // ordering: unique-ID allocator — only the RMW's atomicity matters;
        // the id orders nothing and is published via the control channel.
        let search_id = self.next_search_id.fetch_add(1, Ordering::Relaxed);
        let cancel = parent.child();
        let (progress_tx, progress_rx) = progress_channel(self.config.progress_capacity);
        let shared: Arc<HandleState<T>> = Arc::new(HandleState::new());
        let probe_gauges = Arc::clone(&self.gauges);
        let mut skeleton = Skeleton::from_config(config.clone())
            .cancel_token(cancel.clone())
            .attach_progress(progress_tx)
            .attach_pool(Arc::clone(&self.pool))
            .attach_stats_probe(crate::lifecycle::StatsProbe(Arc::new(move || {
                probe_gauges.snapshot()
            })));
        if let Some(buffer) = &self.trace {
            // Runtime searches record into the runtime-wide buffer (one
            // timeline shared with the dispatcher events), overriding any
            // per-search buffer `SearchConfig::trace` would have created.
            skeleton = skeleton.attach_trace_buffer(Arc::clone(buffer));
        }
        if let Some(state) = &session {
            // ordering: advisory session tally; status() tolerates skew.
            state.submitted.fetch_add(1, Ordering::Relaxed);
        }
        // Count the submission as queued from the moment it is sent — not
        // from dispatcher receipt — so a backlog sitting in the control
        // channel while a FIFO job runs inline is visible in `stats()`,
        // matching the queue-wait semantics (channel time counts).
        // ordering: advisory telemetry gauge; snapshots tolerate skew.
        self.gauges.queued_searches.fetch_add(1, Ordering::Relaxed);
        let job_state = Arc::clone(&shared);
        let job: Job = Box::new(move |grant: ExecutionGrant| {
            let skeleton = skeleton.attach_grant(grant);
            let outcome = catch_unwind(AssertUnwindSafe(|| run(&skeleton, &problem)));
            if let Some(state) = &session {
                state.record(outcome.as_ref().map(status_of).ok());
            }
            job_state.complete(outcome);
        });
        let sent = self
            .control
            .as_ref()
            .expect("runtime is live until dropped")
            .send(Control::Submit(Submission {
                search_id,
                requested_workers: config.workers.max(1),
                priority: config.priority,
                deadline: config.deadline,
                quota,
                cancel: cancel.clone(),
                submitted_at: Instant::now(),
                job,
            }));
        assert!(sent.is_ok(), "dispatcher outlives the runtime handle");
        SearchHandle {
            id: search_id,
            state: shared,
            progress: progress_rx,
            cancel,
        }
    }

    /// Shut the runtime down deterministically per `mode`:
    /// [`ShutdownMode::Graceful`] runs every queued search to completion
    /// first (what `Drop` does); [`ShutdownMode::Now`] cancels the root
    /// scope so running searches stop at their next poll and queued ones
    /// resolve [`SearchStatus::Cancelled`] at their pre-start poll — each
    /// queued job is still dispatched (skeleton setup plus one stop-flag
    /// check), but stops before any worker expands a node.  Either way
    /// every outstanding [`SearchHandle`] is resolved and every thread
    /// joined before this returns.
    pub fn shutdown(mut self, mode: ShutdownMode) {
        self.shutdown_inner(mode);
    }

    fn shutdown_inner(&mut self, mode: ShutdownMode) {
        let Some(control) = self.control.take() else {
            return; // Already shut down explicitly; Drop becomes a no-op.
        };
        if matches!(mode, ShutdownMode::Now) {
            // Root-scope cancel reaches running searches immediately (the
            // dispatcher may be busy running one inline) and pre-cancels
            // everything still queued.
            self.root.cancel();
        }
        let _ = control.send(Control::Shutdown(mode));
        drop(control);
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        if let Some(stop) = self.gauge_stop.take() {
            // ordering: shutdown flag guarding no data; the join below is
            // the synchronisation point with the sampler thread.
            stop.store(true, Ordering::Relaxed);
        }
        if let Some(sampler) = self.gauge_thread.take() {
            let _ = sampler.join();
        }
        // The pool joins its threads in its own drop.
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown_inner(ShutdownMode::Graceful);
    }
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// Per-session terminal-status counters (see [`Session::status`]).
#[derive(Debug, Default)]
struct SessionState {
    submitted: AtomicU64,
    complete: AtomicU64,
    cancelled: AtomicU64,
    deadline_exceeded: AtomicU64,
    panicked: AtomicU64,
}

impl SessionState {
    /// Record one search's terminal status (`None` = the search panicked).
    fn record(&self, status: Option<SearchStatus>) {
        let counter = match status {
            Some(SearchStatus::Complete) => &self.complete,
            Some(SearchStatus::Cancelled) => &self.cancelled,
            Some(SearchStatus::DeadlineExceeded) => &self.deadline_exceeded,
            None => &self.panicked,
        };
        // ordering: advisory session tally; status() tolerates skew.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SessionStatus {
        SessionStatus {
            // ordering: advisory counters — status() is documented as a
            // snapshot, not a live view; fields may be mutually skewed.
            submitted: self.submitted.load(Ordering::Relaxed),
            complete: self.complete.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            // ordering: as above — advisory snapshot read.
            panicked: self.panicked.load(Ordering::Relaxed),
            throttled: Duration::ZERO,
        }
    }
}

/// Aggregated terminal statuses of the searches submitted through one
/// [`Session`] — a snapshot, not a live view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStatus {
    /// Searches submitted through the session so far.
    pub submitted: u64,
    /// Searches that ran to their natural end.
    pub complete: u64,
    /// Searches stopped by a cancel (their own token, the session scope, or
    /// the runtime's root scope).
    pub cancelled: u64,
    /// Searches stopped by their deadline.
    pub deadline_exceeded: u64,
    /// Searches that panicked (the panic re-raises on their handle).
    pub panicked: u64,
    /// Total time the session's submissions spent *quota-held*: queued
    /// beyond what the scheduler alone would impose because the session was
    /// at its [`with_max_workers`](Session::with_max_workers) cap.  Always
    /// zero for uncapped sessions.
    pub throttled: Duration,
}

impl SessionStatus {
    /// Searches that have reached *any* terminal state.
    pub fn finished(&self) -> u64 {
        self.complete + self.cancelled + self.deadline_exceeded + self.panicked
    }

    /// Have all submitted searches finished?
    pub fn all_finished(&self) -> bool {
        self.finished() == self.submitted
    }

    /// The session's aggregate [`SearchStatus`], worst-first: `Cancelled`
    /// if any search was cancelled, else `DeadlineExceeded` if any timed
    /// out, else `Complete`.  `None` while no search has finished (or none
    /// was submitted).  Panicked searches are excluded — they re-raise on
    /// their handles.
    pub fn aggregate(&self) -> Option<SearchStatus> {
        if self.finished() == 0 {
            return None;
        }
        Some(if self.cancelled > 0 {
            SearchStatus::Cancelled
        } else if self.deadline_exceeded > 0 {
            SearchStatus::DeadlineExceeded
        } else {
            SearchStatus::Complete
        })
    }
}

/// A cancellation scope over a group of searches — the service-grade answer
/// to "cancel this user's whole session".
///
/// Created by [`Runtime::session`]; submissions made through the session
/// get cancel tokens that are **children** of the session scope, so
/// [`cancel`](Session::cancel) — or simply dropping the session — stops
/// every search submitted through it (running ones stop at their next poll
/// with `Cancelled` and keep their partial incumbents; queued ones resolve
/// at their pre-start poll, before any worker expands a node).  Cancelling
/// an individual handle never affects its
/// siblings.  Call [`detach`](Session::detach) to drop the scope *without*
/// cancelling.
pub struct Session<'rt> {
    runtime: &'rt Runtime,
    scope: CancelToken,
    state: Arc<SessionState>,
    /// Worker quota shared by every submission made through this session
    /// ([`Session::with_max_workers`]); `None` = uncapped.
    quota: Option<Arc<SessionQuota>>,
    /// Drop cancels the scope unless the session was detached.
    armed: bool,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("status", &self.status())
            .field("cancelled", &self.scope.is_cancelled())
            .finish()
    }
}

impl Session<'_> {
    /// Cap the session's total concurrently granted workers at `max`
    /// (floored at 1).  Submissions that would push the session past the
    /// cap are *queued*, never errored: the dispatcher holds them back —
    /// and caps what it shows the policy — until enough of the session's
    /// other searches finish or shrink, and reports the accumulated hold
    /// time as [`SessionStatus::throttled`].
    pub fn with_max_workers(mut self, max: usize) -> Self {
        self.quota = Some(Arc::new(SessionQuota {
            max_workers: max.max(1),
            ..SessionQuota::default()
        }));
        self
    }

    /// Submit an enumeration search under this session's scope.
    pub fn enumerate<P>(
        &self,
        problem: P,
        config: &SearchConfig,
    ) -> SearchHandle<EnumOutcome<P::Value>>
    where
        P: Enumerate + Send + Sync + 'static,
        P::Value: Send + 'static,
    {
        self.runtime.submit_scoped(
            &self.scope,
            Some(Arc::clone(&self.state)),
            self.quota.clone(),
            problem,
            config,
            |skeleton, problem| skeleton.enumerate(problem),
            |outcome| outcome.status,
        )
    }

    /// Submit an optimisation search under this session's scope.
    pub fn maximise<P>(
        &self,
        problem: P,
        config: &SearchConfig,
    ) -> SearchHandle<OptimOutcome<P::Node, P::Score>>
    where
        P: Optimise + Send + Sync + 'static,
        P::Node: 'static,
    {
        self.runtime.submit_scoped(
            &self.scope,
            Some(Arc::clone(&self.state)),
            self.quota.clone(),
            problem,
            config,
            |skeleton, problem| skeleton.maximise(problem),
            |outcome| outcome.status,
        )
    }

    /// Submit a decision search under this session's scope.
    pub fn decide<P>(
        &self,
        problem: P,
        config: &SearchConfig,
    ) -> SearchHandle<DecideOutcome<P::Node>>
    where
        P: Decide + Send + Sync + 'static,
        P::Node: 'static,
    {
        self.runtime.submit_scoped(
            &self.scope,
            Some(Arc::clone(&self.state)),
            self.quota.clone(),
            problem,
            config,
            |skeleton, problem| skeleton.decide(problem),
            |outcome| outcome.status,
        )
    }

    /// Cancel every search submitted through this session (idempotent;
    /// future submissions through the session are born cancelled).
    pub fn cancel(&self) {
        self.scope.cancel();
    }

    /// A clone of the session's scope token — e.g. for a watchdog that
    /// cancels the whole session on a timeout.
    pub fn cancel_token(&self) -> CancelToken {
        self.scope.clone()
    }

    /// Snapshot of the session's aggregated search statuses.
    pub fn status(&self) -> SessionStatus {
        let mut status = self.state.snapshot();
        if let Some(quota) = &self.quota {
            status.throttled = quota.throttled();
        }
        status
    }

    /// Consume the session *without* cancelling its searches: they keep
    /// running to their natural ends, detached from any scope but the
    /// runtime's root.
    pub fn detach(mut self) {
        self.armed = false;
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.scope.cancel();
        }
    }
}

// ---------------------------------------------------------------------------
// Search handles
// ---------------------------------------------------------------------------

/// Result slot shared between a runtime job and its [`SearchHandle`].
struct HandleState<T> {
    slot: Mutex<SlotState<T>>,
    ready: Condvar,
    finished: AtomicBool,
}

enum SlotState<T> {
    Pending,
    Done(T),
    /// The search panicked; the payload re-raises on `wait`/`try_result`.
    Panicked(Box<dyn std::any::Any + Send>),
    /// The result was already taken by `try_result`.
    Taken,
}

impl<T> HandleState<T> {
    fn new() -> Self {
        HandleState {
            slot: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
            finished: AtomicBool::new(false),
        }
    }

    fn complete(&self, outcome: Result<T, Box<dyn std::any::Any + Send>>) {
        let mut slot = self.slot.lock().expect("handle lock");
        *slot = match outcome {
            Ok(value) => SlotState::Done(value),
            Err(payload) => SlotState::Panicked(payload),
        };
        self.finished.store(true, Ordering::Release);
        self.ready.notify_all();
    }
}

/// A non-blocking handle to a search submitted to a [`Runtime`].
///
/// The handle is the search's *anytime* interface: poll it with
/// [`try_result`](SearchHandle::try_result) / [`is_finished`](SearchHandle::is_finished),
/// block on it with [`wait`](SearchHandle::wait), stop it from any thread
/// with [`cancel`](SearchHandle::cancel), and observe it mid-run through
/// [`progress`](SearchHandle::progress).  Dropping the handle detaches the
/// search (it keeps running to its natural end); cancel first if the work
/// is no longer wanted.
pub struct SearchHandle<T> {
    id: u64,
    state: Arc<HandleState<T>>,
    progress: ProgressStream,
    cancel: CancelToken,
}

impl<T> std::fmt::Debug for SearchHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchHandle")
            .field("id", &self.id)
            .field("finished", &self.is_finished())
            .field("cancelled", &self.cancel.is_cancelled())
            .finish()
    }
}

impl<T> SearchHandle<T> {
    /// The search's runtime-unique id (1-based), matching the
    /// [`Metrics::search_id`](crate::metrics::Metrics::search_id) on its
    /// outcome.
    pub fn id(&self) -> u64 {
        self.id
    }
    /// Block until the search finishes and return its outcome.  A panic
    /// inside the search is re-raised here.
    pub fn wait(self) -> T {
        let mut slot = self.state.slot.lock().expect("handle lock");
        loop {
            match std::mem::replace(&mut *slot, SlotState::Taken) {
                SlotState::Done(value) => return value,
                SlotState::Panicked(payload) => {
                    drop(slot);
                    resume_unwind(payload)
                }
                SlotState::Taken => unreachable!("wait consumes the handle"),
                SlotState::Pending => {
                    *slot = SlotState::Pending;
                    slot = self.state.ready.wait(slot).expect("handle wait");
                }
            }
        }
    }

    /// Take the outcome if the search has finished; `None` while it is
    /// still queued or running (and after the outcome was already taken).
    /// A panic inside the search is re-raised here.
    pub fn try_result(&mut self) -> Option<T> {
        if !self.is_finished() {
            return None;
        }
        let mut slot = self.state.slot.lock().expect("handle lock");
        match std::mem::replace(&mut *slot, SlotState::Taken) {
            SlotState::Done(value) => Some(value),
            SlotState::Panicked(payload) => {
                drop(slot);
                resume_unwind(payload)
            }
            SlotState::Pending | SlotState::Taken => None,
        }
    }

    /// Has the search finished (successfully or by panic)?  Queued and
    /// running searches answer `false`.
    pub fn is_finished(&self) -> bool {
        self.state.finished.load(Ordering::Acquire)
    }

    /// Cancel the search from any thread: it stops at its next per-step
    /// poll and resolves with [`SearchStatus::Cancelled`], carrying the
    /// partial incumbent found so far.  Idempotent; cancelling a queued
    /// search makes it resolve (almost) immediately when it reaches the
    /// front of the queue.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clone of the search's cancel token, e.g. to hand to a watchdog.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The search's progress stream: incumbent improvements, node-count
    /// heartbeats and a final [`ProgressEvent::Finished`] marker.  Bounded
    /// and lossy — see [`ProgressEvent`](crate::lifecycle::ProgressEvent).
    ///
    /// [`ProgressEvent::Finished`]: crate::lifecycle::ProgressEvent::Finished
    pub fn progress(&self) -> &ProgressStream {
        &self.progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::ProgressEvent;
    use crate::monoid::Sum;
    use crate::node::SearchProblem;
    use crate::params::Coordination;
    use std::time::Duration;

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
    }

    impl Decide for Irregular {
        fn target(&self) -> u64 {
            990
        }
    }

    fn config(coordination: Coordination, workers: usize) -> SearchConfig {
        SearchConfig {
            coordination,
            workers,
            ..SearchConfig::default()
        }
    }

    #[test]
    fn runtime_matches_the_blocking_facade() {
        let problem = Irregular { depth: 8 };
        let expected = crate::node::subtree_size(&problem, &problem.root());
        let runtime = Runtime::new(RuntimeConfig::default().workers(4));
        for coordination in [
            Coordination::Sequential,
            Coordination::depth_bounded(2),
            Coordination::stack_stealing(),
            Coordination::budget(50),
            Coordination::ordered(2),
        ] {
            let handle = runtime.enumerate(Irregular { depth: 8 }, &config(coordination, 4));
            let out = handle.wait();
            assert_eq!(out.value.0, expected, "{coordination}");
            assert!(out.status.is_complete());
            assert_eq!(out.metrics.outstanding_tasks, 0);
        }
    }

    #[test]
    fn submissions_queue_fifo_and_handles_poll() {
        let runtime = Runtime::new(RuntimeConfig::default().workers(2));
        let mut handles: Vec<SearchHandle<EnumOutcome<Sum<u64>>>> = (0..4)
            .map(|_| {
                runtime.enumerate(
                    Irregular { depth: 7 },
                    &config(Coordination::depth_bounded(2), 2),
                )
            })
            .collect();
        let expected = {
            let p = Irregular { depth: 7 };
            crate::node::subtree_size(&p, &p.root())
        };
        for handle in &mut handles {
            // Poll until done, then take the result exactly once.
            let out = loop {
                if let Some(out) = handle.try_result() {
                    break out;
                }
                std::thread::sleep(Duration::from_micros(200));
            };
            assert_eq!(out.value.0, expected);
            assert!(handle.is_finished());
            assert_eq!(handle.try_result().map(|_| ()), None, "result taken once");
        }
    }

    #[test]
    fn workers_park_between_jobs_instead_of_respawning() {
        // Not directly observable from the API, but the pool must at least
        // survive many back-to-back submissions without accumulating
        // threads or wedging.
        let runtime = Runtime::new(RuntimeConfig::default().workers(3));
        for _ in 0..20 {
            let out = runtime
                .enumerate(
                    Irregular { depth: 6 },
                    &config(Coordination::depth_bounded(2), 3),
                )
                .wait();
            assert!(out.status.is_complete());
        }
        assert_eq!(runtime.pool.size(), 2, "workers-1 persistent threads");
    }

    #[test]
    fn handle_reports_finished_event_on_progress_stream() {
        let runtime = Runtime::new(RuntimeConfig::default().workers(2));
        let mut handle = runtime.maximise(
            Irregular { depth: 8 },
            &config(Coordination::depth_bounded(2), 2),
        );
        // Consume the stream until the Finished marker (incumbent events
        // may precede it), then take the result.
        let mut events = Vec::new();
        loop {
            match handle.progress().next_timeout(Duration::from_secs(30)) {
                Some(event) => {
                    let finished = matches!(&event, ProgressEvent::Finished { .. });
                    events.push(event);
                    if finished {
                        break;
                    }
                }
                None => panic!("progress stream ended without a Finished event: {events:?}"),
            }
        }
        assert!(
            matches!(
                events.last(),
                Some(ProgressEvent::Finished { status }) if status.is_complete()
            ),
            "expected a complete Finished event, got {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ProgressEvent::Incumbent { .. })),
            "a maximise run must report incumbent improvements, got {events:?}"
        );
        // The Finished event is emitted before the job completes the
        // handle, so give the result a moment.
        let out = loop {
            if let Some(out) = handle.try_result() {
                break out;
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        assert!(out.status.is_complete());
        assert!(out.try_score().is_some());
    }

    #[test]
    fn search_panic_surfaces_on_wait_not_in_the_dispatcher() {
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
        let runtime = Runtime::new(RuntimeConfig::default().workers(2));
        let handle = runtime.enumerate(Bomb, &config(Coordination::Sequential, 1));
        let panicked = catch_unwind(AssertUnwindSafe(|| handle.wait())).is_err();
        assert!(panicked, "the search panic must re-raise on wait");
        // The runtime survives and runs the next search.
        let out = runtime
            .enumerate(
                Irregular { depth: 6 },
                &config(Coordination::depth_bounded(1), 2),
            )
            .wait();
        assert!(out.status.is_complete());
    }

    #[test]
    fn oversubscribed_searches_complete_on_a_small_pool() {
        // 8 search workers on a runtime with 2 — surplus workers run after
        // earlier ones retire and find the search finished.
        let runtime = Runtime::new(RuntimeConfig::default().workers(2));
        let problem = Irregular { depth: 9 };
        let expected = crate::node::subtree_size(&problem, &problem.root());
        let out = runtime
            .enumerate(problem, &config(Coordination::depth_bounded(3), 8))
            .wait();
        assert_eq!(out.value.0, expected);
        assert_eq!(out.metrics.workers, 8);
    }

    /// Regression: an oversubscribed *Stack-Stealing* search on a small
    /// pool must not deadlock.  With one pool thread, workers 2..4 queue
    /// behind worker 1; a thief that delivered a steal request to such a
    /// never-registered victim would wait forever on a reply — the source
    /// now skips unregistered victims instead.
    #[test]
    fn oversubscribed_stack_stealing_does_not_deadlock_on_a_small_pool() {
        let runtime = Runtime::new(RuntimeConfig::default().workers(2));
        let problem = Irregular { depth: 9 };
        let expected = crate::node::subtree_size(&problem, &problem.root());
        let out = runtime
            .enumerate(problem, &config(Coordination::stack_stealing_chunked(), 4))
            .wait();
        assert_eq!(out.value.0, expected);
        assert_eq!(out.metrics.outstanding_tasks, 0);
    }

    /// Regression: a workers=1 runtime (zero pool threads — also the
    /// default on a single-core machine) asked to run a multi-worker
    /// search must fall back to scoped threads, not divide by zero in the
    /// pool's round-robin dispatch.
    #[test]
    fn single_worker_runtime_runs_multi_worker_searches() {
        let runtime = Runtime::new(RuntimeConfig::default().workers(1));
        let problem = Irregular { depth: 8 };
        let expected = crate::node::subtree_size(&problem, &problem.root());
        for coordination in [
            Coordination::depth_bounded(2),
            Coordination::stack_stealing(),
            Coordination::ordered(2),
        ] {
            let out = runtime
                .enumerate(Irregular { depth: 8 }, &config(coordination, 4))
                .wait();
            assert_eq!(out.value.0, expected, "{coordination}");
            assert!(out.status.is_complete());
        }
    }

    /// An effectively unbounded tree: only cancellation or a deadline can
    /// end a search over it.
    struct Endless;

    impl SearchProblem for Endless {
        type Node = (u32, u64);
        type Gen<'a> = std::vec::IntoIter<(u32, u64)>;
        fn root(&self) -> (u32, u64) {
            (0, 1)
        }
        fn generator(&self, node: &(u32, u64)) -> Self::Gen<'_> {
            let (depth, seed) = *node;
            if depth >= 64 {
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

    impl Optimise for Endless {
        type Score = u64;
        fn objective(&self, node: &(u32, u64)) -> u64 {
            node.1 % 1000
        }
    }

    #[test]
    fn fair_share_grants_disjoint_worker_subsets() {
        use crate::schedule::FairShare;
        let problem = Irregular { depth: 9 };
        let expected = crate::node::subtree_size(&problem, &problem.root());
        let runtime =
            Runtime::with_policy(RuntimeConfig::default().workers(8), Box::new(FairShare));
        assert_eq!(runtime.policy_name(), "fair-share");
        let cfg = config(Coordination::depth_bounded(2), 4);
        let handles: Vec<_> = (0..2)
            .map(|_| runtime.enumerate(Irregular { depth: 9 }, &cfg))
            .collect();
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
        for out in &outcomes {
            assert_eq!(out.value.0, expected);
            assert!(out.status.is_complete());
            assert_eq!(out.metrics.outstanding_tasks, 0);
            assert_eq!(
                out.metrics.granted_workers, 4,
                "a 4-worker request on an 8-worker pool is granted in full"
            );
            assert_eq!(out.metrics.workers, 4, "the engine ran the granted count");
            assert_eq!(out.metrics.granted_slots.len(), 3, "worker 0 is the driver");
        }
        assert_ne!(outcomes[0].metrics.search_id, outcomes[1].metrics.search_id);
        assert!(
            outcomes[0]
                .metrics
                .granted_slots
                .iter()
                .all(|s| !outcomes[1].metrics.granted_slots.contains(s)),
            "concurrent grants must lease disjoint pool threads: {:?} vs {:?}",
            outcomes[0].metrics.granted_slots,
            outcomes[1].metrics.granted_slots
        );
        // The dispatcher reclaims a lease *after* the handle resolves, so
        // give the gauges a moment to catch up.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let stats = loop {
            let stats = runtime.stats();
            if stats.completed_searches == 2 || std::time::Instant::now() > deadline {
                break stats;
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        assert_eq!(stats.completed_searches, 2);
        assert_eq!(stats.active_searches, 0);
        assert_eq!(stats.granted_workers, 0, "all leases reclaimed");
    }

    #[test]
    fn fifo_queue_wait_is_recorded_at_grant_time() {
        let runtime = Runtime::new(RuntimeConfig::default().workers(2));
        let mut first_cfg = config(Coordination::depth_bounded(2), 2);
        first_cfg.deadline = Some(Duration::from_millis(50));
        let first = runtime.maximise(Endless, &first_cfg);
        let second =
            runtime.enumerate(Irregular { depth: 6 }, &config(Coordination::Sequential, 1));
        let first_out = first.wait();
        let second_out = second.wait();
        assert_eq!(
            first_out.status,
            crate::lifecycle::SearchStatus::DeadlineExceeded
        );
        // The second search was submitted before the first (50 ms) finished,
        // so its recorded queue wait must cover most of that run.
        assert!(
            second_out.metrics.queue_wait >= Duration::from_millis(30),
            "queue wait {:?} must include the predecessor's run",
            second_out.metrics.queue_wait
        );
        assert!(
            first_out.metrics.queue_wait < second_out.metrics.queue_wait,
            "the head of the queue waits less than its successor"
        );
        assert!(runtime.stats().total_queue_wait >= Duration::from_millis(30));
    }

    #[test]
    fn shutdown_now_resolves_queued_handles_as_cancelled() {
        let runtime = Runtime::new(RuntimeConfig::default().workers(2));
        let cfg = config(Coordination::depth_bounded(3), 2);
        // One endless search runs; three more queue behind it.  Without the
        // root-scope cancel this would hang forever.
        let handles: Vec<_> = (0..4).map(|_| runtime.maximise(Endless, &cfg)).collect();
        std::thread::sleep(Duration::from_millis(10));
        runtime.shutdown(ShutdownMode::Now);
        for (i, handle) in handles.into_iter().enumerate() {
            assert!(handle.is_finished(), "search {i} left unresolved");
            let out = handle.wait();
            assert_eq!(
                out.status,
                crate::lifecycle::SearchStatus::Cancelled,
                "search {i}"
            );
            assert_eq!(out.metrics.outstanding_tasks, 0, "search {i}");
        }
    }

    #[test]
    fn shutdown_graceful_runs_every_queued_search() {
        let problem = Irregular { depth: 7 };
        let expected = crate::node::subtree_size(&problem, &problem.root());
        let runtime = Runtime::new(RuntimeConfig::default().workers(2));
        let cfg = config(Coordination::depth_bounded(2), 2);
        let handles: Vec<_> = (0..3)
            .map(|_| runtime.enumerate(Irregular { depth: 7 }, &cfg))
            .collect();
        runtime.shutdown(ShutdownMode::Graceful);
        for handle in handles {
            let out = handle.wait();
            assert!(out.status.is_complete());
            assert_eq!(out.value.0, expected);
        }
    }

    #[test]
    fn session_cancel_stops_every_child_search() {
        let runtime = Runtime::new(RuntimeConfig::default().workers(4));
        let session = runtime.session();
        let cfg = config(Coordination::depth_bounded(3), 4);
        let a = session.maximise(Endless, &cfg);
        let b = session.maximise(Endless, &cfg);
        std::thread::sleep(Duration::from_millis(5));
        session.cancel();
        let out_a = a.wait();
        let out_b = b.wait();
        assert_eq!(out_a.status, crate::lifecycle::SearchStatus::Cancelled);
        assert_eq!(out_b.status, crate::lifecycle::SearchStatus::Cancelled);
        assert_eq!(out_a.metrics.outstanding_tasks, 0);
        assert_eq!(out_b.metrics.outstanding_tasks, 0);
        let status = session.status();
        assert_eq!(status.submitted, 2);
        assert_eq!(status.cancelled, 2);
        assert!(status.all_finished());
        assert_eq!(
            status.aggregate(),
            Some(crate::lifecycle::SearchStatus::Cancelled)
        );
    }

    #[test]
    fn dropping_a_session_cancels_its_children_but_not_siblings() {
        let runtime = Runtime::new(RuntimeConfig::default().workers(4));
        let cfg = config(Coordination::depth_bounded(3), 4);
        let doomed = {
            let session = runtime.session();
            session.maximise(Endless, &cfg)
            // Dropping the scope here cancels the still-queued/running child.
        };
        let out = doomed.wait();
        assert_eq!(out.status, crate::lifecycle::SearchStatus::Cancelled);
        // A search submitted outside the dropped session is unaffected.
        let p = Irregular { depth: 7 };
        let expected = crate::node::subtree_size(&p, &p.root());
        let out = runtime
            .enumerate(
                Irregular { depth: 7 },
                &config(Coordination::depth_bounded(2), 2),
            )
            .wait();
        assert!(out.status.is_complete());
        assert_eq!(out.value.0, expected);
    }

    #[test]
    fn detached_sessions_let_children_finish() {
        let runtime = Runtime::new(RuntimeConfig::default().workers(2));
        let p = Irregular { depth: 7 };
        let expected = crate::node::subtree_size(&p, &p.root());
        let handle = {
            let session = runtime.session();
            let handle = session.enumerate(
                Irregular { depth: 7 },
                &config(Coordination::depth_bounded(2), 2),
            );
            session.detach();
            handle
        };
        let out = handle.wait();
        assert!(
            out.status.is_complete(),
            "a detached session must not cancel"
        );
        assert_eq!(out.value.0, expected);
    }

    /// End-to-end elastic lease lifecycle under FairShare: a lone search is
    /// grown into the idle capacity; a newcomer forces the over-grant back
    /// through cooperative revocation; both searches resolve cleanly and the
    /// renegotiations surface on the stats and the outcome metrics.
    #[test]
    fn elastic_lease_grows_into_idle_capacity_and_shrinks_for_newcomers() {
        use crate::schedule::FairShare;
        let runtime = Runtime::with_policy(
            RuntimeConfig::default()
                .workers(8)
                .replan_period(Duration::from_millis(1)),
            Box::new(FairShare),
        );
        let mut bg_cfg = config(Coordination::depth_bounded(3), 2);
        bg_cfg.deadline = Some(Duration::from_millis(400));
        let background = runtime.maximise(Endless, &bg_cfg);
        // Wait for the replanner to lease idle workers onto the lone search.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while runtime.stats().grant_changes == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            runtime.stats().grant_changes > 0,
            "idle-time growth never fired"
        );
        // A newcomer can only be admitted by revoking the over-grant.
        let p = Irregular { depth: 7 };
        let expected = crate::node::subtree_size(&p, &p.root());
        let out = runtime
            .enumerate(
                Irregular { depth: 7 },
                &config(Coordination::depth_bounded(2), 2),
            )
            .wait();
        assert_eq!(out.value.0, expected);
        assert!(out.status.is_complete());
        assert_eq!(out.metrics.outstanding_tasks, 0);
        let bg = background.wait();
        assert_eq!(
            bg.status,
            crate::lifecycle::SearchStatus::DeadlineExceeded,
            "the background search runs to its deadline"
        );
        assert!(
            bg.metrics.grant_changes >= 1,
            "the background lease must have been renegotiated"
        );
        assert_eq!(bg.metrics.outstanding_tasks, 0);
        let stats = runtime.stats();
        assert!(
            stats.workers_preempted >= 1,
            "admitting the newcomer must have revoked at least one worker"
        );
        assert!(stats.revocation_latency > Duration::ZERO);
        assert!(stats.grant_changes >= 2, "at least one grow and one shrink");
    }

    /// Session quota: an over-quota submission queues (never errors) until
    /// the session's running searches return workers, and the hold time is
    /// reported as throttled time on the session status.
    #[test]
    fn session_quota_queues_over_quota_submissions_and_reports_throttled_time() {
        use crate::schedule::FairShare;
        let runtime = Runtime::with_policy(
            RuntimeConfig::default()
                .workers(4)
                .replan_period(Duration::from_millis(1)),
            Box::new(FairShare),
        );
        let session = runtime.session().with_max_workers(2);
        let mut first_cfg = config(Coordination::depth_bounded(3), 2);
        first_cfg.deadline = Some(Duration::from_millis(60));
        let first = session.maximise(Endless, &first_cfg);
        // Submitted while the first search holds the whole session quota —
        // two free pool workers exist, but the session may not use them.
        let p = Irregular { depth: 7 };
        let expected = crate::node::subtree_size(&p, &p.root());
        let second = session.enumerate(
            Irregular { depth: 7 },
            &config(Coordination::depth_bounded(2), 2),
        );
        let first_out = first.wait();
        assert_eq!(
            first_out.status,
            crate::lifecycle::SearchStatus::DeadlineExceeded
        );
        let second_out = second.wait();
        assert!(second_out.status.is_complete());
        assert_eq!(second_out.value.0, expected);
        assert!(
            second_out.metrics.queue_wait >= Duration::from_millis(20),
            "the second search must wait out the quota, waited {:?}",
            second_out.metrics.queue_wait
        );
        let status = session.status();
        assert!(
            status.throttled > Duration::ZERO,
            "the hold must be reported as session throttled time"
        );
        assert_eq!(status.submitted, 2);
    }

    /// A scripted policy that preempts whatever has run for a while: the
    /// victim resolves `Cancelled` with its partial incumbent and clean
    /// outstanding-task accounting, and the runtime survives.
    #[test]
    fn preempted_search_resolves_cancelled_with_partial_incumbent() {
        use crate::schedule::{
            Adjustment, Admission, PendingRequest, RunningSearch, SchedulePolicy,
        };
        struct PreemptEverything;
        impl SchedulePolicy for PreemptEverything {
            fn name(&self) -> &'static str {
                "preempt-everything"
            }
            fn concurrent(&self) -> bool {
                true
            }
            fn plan(
                &mut self,
                pending: &[PendingRequest],
                free_workers: usize,
                _capacity: usize,
                _active: usize,
            ) -> Vec<Admission> {
                let mut free = free_workers;
                let mut admissions = Vec::new();
                for (index, request) in pending.iter().enumerate() {
                    if free == 0 {
                        break;
                    }
                    let workers = request.requested_workers.clamp(1, free);
                    free -= workers;
                    admissions.push(Admission { index, workers });
                }
                admissions
            }
            fn replan(
                &mut self,
                running: &[RunningSearch],
                _pending: &[PendingRequest],
                _free_workers: usize,
                _capacity: usize,
            ) -> Vec<Adjustment> {
                running
                    .iter()
                    // Let the search run long enough to establish an
                    // incumbent before the axe falls.
                    .filter(|s| !s.preempted && s.running_for >= Duration::from_millis(20))
                    .map(|s| Adjustment::Preempt {
                        search: s.search_id,
                    })
                    .collect()
            }
        }
        let runtime = Runtime::with_policy(
            RuntimeConfig::default()
                .workers(4)
                .replan_period(Duration::from_millis(2)),
            Box::new(PreemptEverything),
        );
        let out = runtime
            .maximise(Endless, &config(Coordination::depth_bounded(3), 4))
            .wait();
        assert_eq!(out.status, crate::lifecycle::SearchStatus::Cancelled);
        assert!(
            out.try_score().is_some(),
            "a preempted optimisation keeps its partial incumbent"
        );
        assert_eq!(out.metrics.outstanding_tasks, 0);
    }

    #[test]
    fn handle_ids_match_outcome_metrics() {
        let runtime = Runtime::new(RuntimeConfig::default().workers(2));
        let handle = runtime.enumerate(
            Irregular { depth: 6 },
            &config(Coordination::depth_bounded(2), 2),
        );
        let id = handle.id();
        assert!(id >= 1);
        let out = handle.wait();
        assert_eq!(out.metrics.search_id, id);
        assert_eq!(
            out.metrics.granted_workers, 2,
            "the grant (not the facade default) must be stamped onto metrics"
        );
        assert!(
            !out.metrics.granted_slots.is_empty(),
            "a 2-worker runtime grant leases at least one pool slot"
        );
    }

    /// A ternary tree of depth 8 whose only decision witness is the node
    /// ⟨1.0.2.1.0⟩.  With a `core`, the first depth-1 expansion on a pool
    /// thread — the start of that worker's first in-place task — requests
    /// one revocation, so it is pending at the task's first poll; the
    /// calling thread's worker 0 holds its own depth-1 expansion until the
    /// pool worker has acknowledged the revocation, so no witness can
    /// commit (and stop the search) before the pool worker reaches its
    /// between-tasks claim.
    struct RevokeMidTask {
        core: Option<Arc<GrantCore>>,
        caller: std::thread::ThreadId,
        requested: AtomicBool,
    }

    impl SearchProblem for RevokeMidTask {
        type Node = Vec<u8>;
        type Gen<'a> = std::vec::IntoIter<Vec<u8>>;
        fn root(&self) -> Vec<u8> {
            Vec::new()
        }
        fn generator(&self, node: &Vec<u8>) -> Self::Gen<'_> {
            if let (Some(core), 1) = (&self.core, node.len()) {
                if std::thread::current().id() != self.caller {
                    // ordering: a one-shot test latch on one thread's path.
                    if !self.requested.swap(true, Ordering::Relaxed) {
                        assert_eq!(core.request_revoke(1), 1);
                    }
                } else {
                    let started = Instant::now();
                    // ordering: advisory tally, polled until it moves.
                    while core.workers_preempted.load(Ordering::Relaxed) == 0 {
                        assert!(
                            started.elapsed() < Duration::from_secs(10),
                            "the pool worker never left"
                        );
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
            }
            if node.len() >= 8 {
                return vec![].into_iter();
            }
            (0..3u8)
                .map(|i| {
                    let mut child = node.clone();
                    child.push(i);
                    child
                })
                .collect::<Vec<_>>()
                .into_iter()
        }
    }

    impl Optimise for RevokeMidTask {
        type Score = u64;
        fn objective(&self, node: &Vec<u8>) -> u64 {
            if node.as_slice() == [1, 0, 2, 1, 0] {
                100
            } else {
                0
            }
        }
    }

    impl Decide for RevokeMidTask {
        fn target(&self) -> u64 {
            100
        }
    }

    /// An Ordered worker under an elastic lease that finds a revocation
    /// pending as its task starts leaves only between tasks: it never
    /// offloads the task's subtree (only the root's three children are ever
    /// spawned), the committed decision nodes equal Sequential's, and every
    /// task is accounted for.
    #[test]
    fn ordered_worker_revoked_mid_task_leaves_between_tasks() {
        let plain = RevokeMidTask {
            core: None,
            caller: std::thread::current().id(),
            requested: AtomicBool::new(false),
        };
        let seq = Skeleton::new(Coordination::Sequential).decide(&plain);
        assert!(seq.found());

        let pool = Arc::new(WorkerPool::new(1));
        let (released_tx, _released_rx) = bounded::<Control>(4);
        let core = Arc::new(GrantCore::new(1, 2, &[0], released_tx));
        let grant = ExecutionGrant {
            search_id: 1,
            workers: 2,
            slots: vec![0],
            queue_wait: Duration::ZERO,
            core: Some(Arc::clone(&core)),
        };
        let problem = RevokeMidTask {
            core: Some(core),
            ..plain
        };
        let out = Skeleton::new(Coordination::ordered(1))
            .workers(2)
            .attach_pool(pool)
            .attach_grant(grant)
            .decide(&problem);
        // ordering: read after the run joined every worker.
        let requested = problem.requested.load(Ordering::Relaxed);
        assert!(requested, "no pool worker took a task");
        assert_eq!(out.metrics.workers_preempted, 1, "the pool worker left");
        assert_eq!(
            out.metrics.totals.ordered_spawns, 3,
            "a revoked Ordered worker must not offload its task mid-run"
        );
        assert!(out.found());
        assert_eq!(out.metrics.nodes(), seq.metrics.nodes());
        assert_eq!(out.metrics.outstanding_tasks, 0);
    }
}
