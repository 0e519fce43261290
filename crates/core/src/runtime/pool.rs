//! The persistent worker pool: one parked thread per runtime worker, and
//! the scoped runner that executes a search's workers on its lease.

use crate::sync::{AtomicBool, Ordering};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crossbeam_channel::{bounded, Receiver, Sender};

use super::GrantCore;
use crate::metrics::WorkerMetrics;

/// A search-worker closure with its lifetime erased so it can cross into a
/// persistent pool thread.  Soundness rests on the latch protocol of
/// [`WorkerPool::scoped_run`]: the caller does not return (and therefore the
/// borrowed closure cannot die) until every job has signalled completion
/// and the grant's hook is disarmed, and a job never touches the pointer
/// after signalling.
#[derive(Clone, Copy)]
pub(super) struct ErasedWorker(*const (dyn Fn(usize) -> WorkerMetrics + Sync));

// SAFETY: the raw closure pointer is only dereferenced by jobs counted on
// the completion latch (an attached worker is counted before it is sent),
// and `scoped_run` does not return — so the referent stays alive — until
// the latch is zero *and* the grant's hook, the only other holder of the
// pointer, is disarmed under its lock.  The closure itself is `Sync`, so
// shared calls from several pool threads are fine.
unsafe impl Send for ErasedWorker {}

impl ErasedWorker {
    /// The pool task that runs worker `index` of the scoped run whose latch
    /// is `state`.
    pub(super) fn task(self, index: usize, state: Arc<ScopedState>) -> PoolTask {
        Box::new(move || run_scoped_inline(self, index, &state))
    }
}

/// What a pool thread runs: a scoped search worker, or a whole search job
/// sent by the dispatcher to the home slot of its lease.
pub(super) type PoolTask = Box<dyn FnOnce() + Send + 'static>;

/// Completion latch + result slots shared between one `scoped_run` call and
/// the pool threads executing its jobs.
pub(super) struct ScopedState {
    /// Jobs not yet completed; guarded by the mutex so the condvar wait is
    /// race-free.
    pub(super) remaining: Mutex<usize>,
    pub(super) done: Condvar,
    /// One slot per worker id (id 0 is the inline caller's).
    results: Mutex<Vec<Option<WorkerMetrics>>>,
    /// Set when any job panicked; the caller re-raises after the join.
    poisoned: AtomicBool,
}

/// A pool of persistent, parked worker threads, one per runtime worker —
/// the engine-facing half of [`Runtime`](super::Runtime).  Search jobs run on a slot of
/// their lease and their workers through the one runner, `scoped_run`.
/// Public only to the crate; the public API is `Runtime`.
pub struct WorkerPool {
    /// One task channel per thread: the vendored channel shim is single-
    /// consumer, and per-thread queues also keep dispatch deterministic.
    senders: Vec<Sender<PoolTask>>,
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
            let (tx, rx) = bounded::<PoolTask>(1024);
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

    /// Run `count` scoped search workers of the grant `core`: worker 0
    /// inline on the calling thread (a runtime search's home slot), workers
    /// 1.. on the `helpers` pool threads — the rest of the lease, never the
    /// calling thread's own slot, where a queued helper would wait behind
    /// worker 0 forever.  Helpers round-robin over `helpers`; with more
    /// workers than helper threads (an oversubscribed grant) the surplus run
    /// after earlier ones retire, which is safe — search termination never
    /// requires a minimum worker count, late workers simply find the search
    /// finished.  Restricting dispatch to the lease is what keeps
    /// concurrently multiplexed searches on **disjoint** worker subsets.
    /// Blocks until every worker has completed; a panic in any worker is
    /// re-raised as "a search worker panicked", matching the scoped-thread
    /// path.
    ///
    /// The run also accepts workers joining and leaving mid-run.  While it
    /// is live the core's *hook* holds the lifetime-erased worker closure;
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
        core: &GrantCore,
        helpers: &[usize],
        count: usize,
        worker_fn: &F,
    ) -> Vec<WorkerMetrics>
    where
        F: Fn(usize) -> WorkerMetrics + Sync,
    {
        assert!(count >= 1);
        assert!(
            count == 1 || !helpers.is_empty(),
            "scoped_run with no helper pool threads (callers fall back to scoped threads)"
        );
        debug_assert!(
            helpers.iter().all(|&s| s < self.senders.len()),
            "leased slot out of range"
        );
        let state = Arc::new(ScopedState {
            remaining: Mutex::new(count - 1),
            done: Condvar::new(),
            results: Mutex::new((0..self.size().max(count)).map(|_| None).collect()),
            poisoned: AtomicBool::new(false),
        });
        // SAFETY: erase the borrow's lifetime so the pointer can cross into
        // 'static pool threads.  The latch below (and the disarm protocol
        // for attached workers) guarantees this function does not return —
        // and `worker_fn` therefore stays alive — until every job has
        // finished dereferencing it.
        let erased = ErasedWorker(unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize) -> WorkerMetrics + Sync + '_),
                *const (dyn Fn(usize) -> WorkerMetrics + Sync + 'static),
            >(worker_fn)
        });
        core.arm(ElasticHook {
            state: Arc::clone(&state),
            f: erased,
        });
        for index in 1..count {
            let task = erased.task(index, Arc::clone(&state));
            if let Err(task) = self.send_to_slot(helpers[(index - 1) % helpers.len()], task) {
                // The pool is shutting down; run the worker inline instead
                // of losing it (the latch still expects its completion).
                task();
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
        // borrowed closure can go out of scope), then disarm the hook under
        // the core's lock; `try_attach` increments the latch under that
        // same lock, so after a zero-latch re-check with the lock held no
        // new worker can exist.
        let used = loop {
            let mut remaining = state.remaining.lock().expect("latch lock");
            while *remaining > 0 {
                remaining = state.done.wait(remaining).expect("latch wait");
            }
            drop(remaining);
            if let Some(used) = core.try_disarm(&state) {
                break used;
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

    /// Send one task to a specific pool thread.  Hands the task back when
    /// the pool is shutting down (the channel is closed).
    pub(super) fn send_to_slot(&self, slot: usize, task: PoolTask) -> Result<(), PoolTask> {
        match self.senders.get(slot) {
            Some(tx) => tx.send(task).map_err(|err| err.0),
            None => Err(task),
        }
    }

    /// Close the task channels and join every thread.  Called by
    /// [`Runtime`](super::Runtime)'s drop after the dispatcher has drained; never on a pool
    /// thread, which would join itself.
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
fn run_scoped_inline(f: ErasedWorker, index: usize, state: &Arc<ScopedState>) {
    // SAFETY: see `ErasedWorker` — the referent outlives the latch.
    let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*f.0)(index) }));
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

/// A pool thread: park on the task channel and run tasks as they arrive.
/// Tasks never unwind into it — workers report panics through their latch
/// and search jobs through their handle — so the thread survives them.
fn pool_thread(rx: Receiver<PoolTask>) {
    while let Ok(task) = rx.recv() {
        task();
    }
}

/// The live half of a scoped run: the worker closure and completion latch
/// of the search currently executing, held by its [`GrantCore`] so
/// [`GrantCore::try_attach`] can dispatch extra workers onto newly leased
/// slots mid-run.  Armed by
/// [`scoped_run`](WorkerPool::scoped_run) before the first
/// worker starts and disarmed (under the core's lock) after the last one
/// finishes.
pub(super) struct ElasticHook {
    pub(super) state: Arc<ScopedState>,
    pub(super) f: ErasedWorker,
}
