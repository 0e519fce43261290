//! The lease one search holds: its slots, worker ids and revocation
//! requests ([`GrantCore`]), and the grant handed to the engine
//! ([`ExecutionGrant`]).

use crate::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};
use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::dispatcher::Control;
use super::pool::{ElasticHook, ScopedState};
use super::WorkerPool;

/// Mutexed bookkeeping of one lease (see [`GrantCore`]).  How many
/// workers the lease holds is the [`Ledger`](crate::schedule::Ledger)'s
/// count, not this one's.
struct GrantInner {
    /// Next fresh worker id; ids freed by revocation are recycled first, so
    /// this never exceeds the larger of the pool capacity and the grant.
    next_worker_id: usize,
    /// Worker ids freed by acknowledged revocations, available for reuse.
    free_ids: Vec<usize>,
    /// Pool slots currently leased to the search, the home slot first.
    held_slots: Vec<usize>,
    /// `(worker_id, slot)` for every helper dispatched onto a pool slot.
    assignments: Vec<(usize, usize)>,
    /// Issue timestamps of unacknowledged revocation requests (FIFO); the
    /// front one is consumed at each acknowledgement for its latency.
    revocations: VecDeque<Instant>,
    hook: Option<ElasticHook>,
}

/// The shared state of one lease — the renegotiable half of an
/// [`ExecutionGrant`].  The dispatcher grows the lease through
/// [`try_attach`](GrantCore::try_attach) and shrinks it through
/// [`request_revoke`](GrantCore::request_revoke); engine workers observe
/// revocation requests at their lifecycle polls
/// ([`try_claim_retire`](GrantCore::try_claim_retire)) and acknowledge with
/// [`ack_retire`](GrantCore::ack_retire), which returns the slot to the
/// dispatcher via a [`Control::Released`] message.  Every runtime grant has
/// one; under [`Fifo`](crate::schedule::Fifo), whose `replan` returns no adjustments, it is never
/// grown or shrunk, and its workers' only cost is one relaxed load of
/// `revoke_pending` per lifecycle poll.
pub(crate) struct GrantCore {
    pub(crate) search_id: u64,
    /// Unclaimed revocation requests; a worker claims one by decrementing
    /// it, without the lock.
    revoke_pending: AtomicUsize,
    /// Executed adjustments (`Grow`/`Shrink`) against this lease.
    pub(crate) grant_changes: AtomicU64,
    /// Acknowledged revocations (workers that left the search mid-run).
    pub(crate) workers_preempted: AtomicU64,
    /// Summed request → acknowledgement latency, nanoseconds.
    pub(crate) revocation_ns: AtomicU64,
    /// Dispatcher control channel for `Released` notifications.
    released_tx: SyncSender<Control>,
    inner: Mutex<GrantInner>,
}

impl std::fmt::Debug for GrantCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrantCore")
            .field("search_id", &self.search_id)
            .finish_non_exhaustive()
    }
}

impl GrantCore {
    /// The lease of `workers` workers over `slots`, the home slot first.
    /// Helpers are assigned round-robin over the slots after the home one,
    /// as [`WorkerPool::scoped_run`] dispatches them; an oversubscribed
    /// lease repeats slots, and a one-slot lease assigns none (its helpers
    /// run on scoped threads).
    pub(super) fn new(
        search_id: u64,
        workers: usize,
        slots: &[usize],
        released_tx: SyncSender<Control>,
    ) -> Self {
        GrantCore {
            search_id,
            revoke_pending: AtomicUsize::new(0),
            grant_changes: AtomicU64::new(0),
            workers_preempted: AtomicU64::new(0),
            revocation_ns: AtomicU64::new(0),
            released_tx,
            inner: Mutex::new(GrantInner {
                next_worker_id: workers,
                free_ids: Vec::new(),
                held_slots: slots.to_vec(),
                assignments: (1..workers)
                    .zip(slots.iter().skip(1).copied().cycle())
                    .collect(),
                revocations: VecDeque::new(),
                hook: None,
            }),
        }
    }

    pub(super) fn arm(&self, hook: ElasticHook) {
        let mut inner = self.inner.lock();
        inner.hook = Some(hook);
    }

    /// Disarm the hook if the latch is still zero under the lock; returns
    /// the number of worker-id slots ever used.  `None` means a grow raced
    /// in after the latch was observed zero — wait again.
    pub(super) fn try_disarm(&self, state: &Arc<ScopedState>) -> Option<usize> {
        let mut inner = self.inner.lock();
        let remaining = state.remaining.lock();
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
    pub(super) fn try_attach(&self, slot: usize, pool: &WorkerPool) -> bool {
        let mut inner = self.inner.lock();
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
            let mut remaining = state.remaining.lock();
            *remaining += 1;
        }
        if pool
            .send_to_slot(slot, f.task(worker_id, Arc::clone(&state)))
            .is_err()
        {
            let mut remaining = state.remaining.lock();
            *remaining -= 1;
            if *remaining == 0 {
                state.done.notify_all();
            }
            drop(remaining);
            inner.free_ids.push(worker_id);
            return false;
        }
        inner.held_slots.push(slot);
        inner.assignments.push((worker_id, slot));
        true
    }

    /// Issue `n` cooperative revocation requests.  The
    /// [`Ledger`](crate::schedule::Ledger) has already clamped `n` so the
    /// lease keeps at least one worker (worker 0, on the home slot, never
    /// claims).
    pub(super) fn request_revoke(&self, n: usize) {
        let now = Instant::now();
        let mut inner = self.inner.lock();
        inner.revocations.extend(std::iter::repeat(now).take(n));
        drop(inner);
        // ordering: Release pairs with the claim's Acquire, so a worker that
        // claims one of these requests finds its timestamp queued when it
        // acknowledges (model-checked:
        // `model_check::a_revocation_is_claimed_and_acknowledged_exactly_once`).
        self.revoke_pending.fetch_add(n, Ordering::Release);
    }

    /// Worker-side: claim one pending revocation request, if any — one
    /// compare-and-swap decrement, so two workers can never claim the same
    /// request.  With none pending (always, under a fixed grant) this is a
    /// single relaxed load.
    pub(crate) fn try_claim_retire(&self) -> bool {
        // ordering: a stale count only fails the CAS below, which retries
        // with the fresh one; a stale zero skips this poll.
        let mut pending = self.revoke_pending.load(Ordering::Relaxed);
        while pending > 0 {
            // Acquire pairs with request_revoke's Release.
            match self.revoke_pending.compare_exchange_weak(
                pending,
                pending - 1,
                Ordering::Acquire,
                Ordering::Relaxed, // ordering: a failed exchange only reloads.
            ) {
                Ok(_) => return true,
                Err(current) => pending = current,
            }
        }
        false
    }

    /// Worker-side: acknowledge a claimed revocation after the worker has
    /// drained its local work back to the survivors.  Removes the worker
    /// from the lease — the slot is struck from `held_slots` *before* the
    /// [`Control::Released`] message is sent, so the dispatcher can hand it
    /// out again without racing the search's own teardown — and records
    /// the request → acknowledgement latency.
    pub(crate) fn ack_retire(&self, worker_id: usize) {
        let mut inner = self.inner.lock();
        let slot = inner
            .assignments
            .iter()
            .position(|(w, _)| *w == worker_id)
            .map(|pos| inner.assignments.remove(pos).1);
        if let Some(slot) = slot {
            inner.held_slots.retain(|&s| s != slot);
        }
        inner.free_ids.push(worker_id);
        let latency = inner
            .revocations
            .pop_front()
            .map(|requested| requested.elapsed())
            .unwrap_or_default();
        drop(inner);
        // ordering: advisory telemetry tallies, read by metrics snapshots
        // that tolerate skew; they publish nothing.
        self.workers_preempted.fetch_add(1, Ordering::Relaxed);
        self.revocation_ns
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
        if let Some(slot) = slot {
            let _ = self.released_tx.send(Control::Released {
                search_id: self.search_id,
                slot,
                latency,
            });
        }
    }

    /// Dispatcher-side teardown at search finish: clear any unclaimed
    /// revocation requests and return the slots the lease still holds.
    /// Every acknowledgement happens-before the search job's `Finished`
    /// message, so they are settled.
    pub(super) fn teardown(&self) -> Vec<usize> {
        let mut inner = self.inner.lock();
        inner.hook = None;
        inner.revocations.clear();
        // ordering: no worker of the search is left to claim; the Finished
        // message orders this before any later use of the core.
        self.revoke_pending.store(0, Ordering::Relaxed);
        std::mem::take(&mut inner.held_slots)
    }
}

/// The worker lease the scheduler granted one search at dispatch time —
/// every runtime search has one, whatever the policy.  Flows from the
/// dispatcher through [`Skeleton`](crate::skeleton::Skeleton) into the engine (which sizes its worker
/// set and work source from it and runs its workers on the lease) and is
/// stamped onto the outcome's [`Metrics`](crate::metrics::Metrics) so
/// disjointness and queue-wait are observable per search.
#[derive(Debug, Clone)]
pub(crate) struct ExecutionGrant {
    /// Runtime-unique id of the search (1-based; 0 = not a runtime search).
    pub(crate) search_id: u64,
    /// Granted worker count — the engine's effective worker count,
    /// overriding `SearchConfig::workers` (which is the *request*).
    pub(crate) workers: usize,
    /// Leased pool-thread indices (disjoint between concurrently running
    /// searches), the home slot first: the search job and its worker 0 run
    /// on it, workers 1.. round-robin over the rest.  One slot per granted
    /// worker, or the whole pool for an oversubscribed grant.
    pub(crate) slots: Vec<usize>,
    /// Time from submission to grant, recorded by the dispatcher at grant
    /// time (the submitter never self-reports its wait).
    pub(crate) queue_wait: Duration,
    /// The pool the lease's slots belong to; the engine runs the search's
    /// workers on it through [`WorkerPool::scoped_run`].
    pub(crate) pool: Arc<WorkerPool>,
    /// The shared lease state: the dispatcher renegotiates the
    /// lease through it, and the engine polls it for revocations.
    pub(crate) core: Arc<GrantCore>,
}

/// [`GrantCore`]'s revocation handshake under the interleaving model
/// checker.
#[cfg(all(test, feature = "model-check"))]
mod model_check {
    use super::*;
    use std::sync::atomic::Ordering as StdOrdering;
    use std::sync::atomic::{AtomicBool as Witness, AtomicUsize as Tally};
    use std::sync::mpsc::sync_channel;
    use yewpar_check::sched::{run, Config, Strategy};
    use yewpar_check::thread;

    /// The dispatcher requests one revocation while two workers poll for
    /// one: it is claimed at most once, and a claim is acknowledged exactly
    /// once; an unclaimed request is still pending with its timestamp.
    #[test]
    fn a_revocation_is_claimed_and_acknowledged_exactly_once() {
        let claimed_once = Arc::new(Witness::new(false));
        let witness = Arc::clone(&claimed_once);
        let config = Config {
            preemption_bound: Some(3),
            ..Config::default()
        };
        let report = run("grant", Strategy::Dfs, &config, move || {
            let (released_tx, released_rx) = sync_channel::<Control>(2);
            let core = Arc::new(GrantCore::new(1, 3, &[0, 1, 2], released_tx));
            let claims = Arc::new(Tally::new(0));
            let workers: Vec<_> = [1, 2]
                .into_iter()
                .map(|worker_id| {
                    let core = Arc::clone(&core);
                    let claims = Arc::clone(&claims);
                    thread::spawn_named("worker", move || {
                        if core.try_claim_retire() {
                            claims.fetch_add(1, StdOrdering::Relaxed);
                            core.ack_retire(worker_id);
                        }
                    })
                })
                .collect();
            core.request_revoke(1);
            for worker in workers {
                worker.join();
            }
            let claims = claims.load(StdOrdering::Relaxed);
            assert!(claims <= 1, "one revocation claimed {claims} times");
            let pending = core.revoke_pending.load(Ordering::Acquire);
            assert_eq!(claims + pending, 1, "a revocation was lost");
            let released = released_rx.try_iter().count();
            assert_eq!(released, claims, "{claims} claims, {released} Released");
            assert_eq!(
                core.workers_preempted.load(Ordering::Acquire),
                claims as u64
            );
            assert_eq!(core.inner.lock().revocations.len(), pending);
            if claims == 1 {
                witness.store(true, StdOrdering::Relaxed);
            }
        });
        report.assert_ok();
        assert!(
            claimed_once.load(StdOrdering::Relaxed),
            "no schedule claimed the revocation"
        );
    }
}
