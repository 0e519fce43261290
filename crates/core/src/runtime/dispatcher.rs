//! The allocator loop: it carries out the schedule policy's decisions
//! through the [`Ledger`], leases pool slots to admitted searches and
//! keeps the pool-wide gauges.

use crate::sync::{Mutex, MutexGuard, Ordering};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::pool::PoolTask;
use super::{ExecutionGrant, GrantCore, RuntimeConfig, SessionQuota, ShutdownMode, WorkerPool};
use crate::lifecycle::CancelToken;
use crate::metrics::RuntimeStats;
use crate::schedule::{Adjustment, Admitted, Ledger, Priority, SchedulePolicy};
use crate::trace::{TraceEvent, Tracer};

/// Capacity of the dispatcher's control channel.  Submitting beyond it
/// blocks the submitter until the dispatcher catches up (backpressure, not
/// an error).
const QUEUE_CAPACITY: usize = 256;

/// A submitted search job: runs once the scheduler grants it workers.
pub(super) type Job = Box<dyn FnOnce(ExecutionGrant) + Send + 'static>;

/// A submission travelling from [`Runtime::submit_scoped`](super::Runtime::submit_scoped) to the
/// dispatcher.
pub(super) struct Submission {
    pub(super) search_id: u64,
    pub(super) requested_workers: usize,
    /// Scheduling priority ([`SearchConfig::priority`](crate::params::SearchConfig::priority)), surfaced to the
    /// policy on every plan/replan.
    pub(super) priority: Priority,
    /// The request's wall-clock budget ([`SearchConfig::deadline`](crate::params::SearchConfig::deadline)),
    /// surfaced to deadline-aware policies for admission ordering.
    pub(super) deadline: Option<Duration>,
    /// The submitting session's worker quota, if capped.
    pub(super) quota: Option<Arc<SessionQuota>>,
    /// The search's (leaf) cancel token — the dispatcher pre-cancels queued
    /// submissions on [`ShutdownMode::Now`].
    pub(super) cancel: CancelToken,
    /// Monotonic timestamp of the submission.  Queue wait is *recorded by
    /// the dispatcher* at grant time (`submitted_at` → grant instant), so a
    /// submitter never self-reports its wait — and time spent in the
    /// control channel still counts.
    pub(super) submitted_at: Instant,
    pub(super) job: Job,
}

/// Dispatcher control messages.  Submissions and search-completion
/// notifications share one channel so the dispatcher has a single blocking
/// point.
pub(super) enum Control {
    Submit(Submission),
    /// A search job finished on its home slot, after dropping its grant;
    /// reclaim its lease.
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

/// The pool-wide scheduler gauges behind
/// [`Runtime::stats`](super::Runtime::stats).  Each event's updates are
/// made under one acquisition of the lock, so every snapshot is
/// consistent across fields.
pub(super) type Gauges = Arc<Mutex<RuntimeStats>>;

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

/// Dispatcher-side state of one running search: the lease's shared core
/// plus what preemption and quotas need.  What the policy sees of the lease
/// lives in the [`Ledger`].
struct ActiveSearch {
    core: Arc<GrantCore>,
    cancel: CancelToken,
    quota: Option<Arc<SessionQuota>>,
}

/// The allocator loop state: carries out the policy's decisions through a
/// [`Ledger`] and owns what is physically the runtime's — the free
/// pool-thread slots and the grant cores.
pub(super) struct Dispatcher {
    rx: Receiver<Control>,
    /// Clone handed to each search job for its `Finished` notification
    /// (and to each grant core for its `Released` ones).
    finished_tx: SyncSender<Control>,
    policy: Box<dyn SchedulePolicy>,
    /// The pending queue, the free worker budget and the running leases,
    /// on a clock that reads the time since `epoch`.
    ledger: Ledger<QueuedSearch>,
    epoch: Instant,
    /// Unleased pool-thread indices: one per free worker of the ledger's
    /// budget.
    free_slots: Vec<usize>,
    /// Leases of the currently running searches.
    active: HashMap<u64, ActiveSearch>,
    /// The pool, for sending search jobs to their home slots and grown
    /// workers onto newly leased slots.
    pool: Arc<WorkerPool>,
    /// Re-planning tick ([`RuntimeConfig::replan_period`](super::RuntimeConfig::replan_period)).
    replan_period: Duration,
    gauges: Gauges,
    draining: Option<ShutdownMode>,
    /// Flight recorder for queue/grant/finish transitions and gauge
    /// snapshots (off by default).
    tracer: Tracer,
}

impl Dispatcher {
    /// Start the allocator loop on its own thread, leasing `pool`'s
    /// slots; returns the sending half of its control channel and the
    /// thread.
    pub(super) fn spawn(
        config: &RuntimeConfig,
        policy: Box<dyn SchedulePolicy>,
        pool: Arc<WorkerPool>,
        gauges: Gauges,
        tracer: Tracer,
    ) -> (SyncSender<Control>, JoinHandle<()>) {
        let (finished_tx, rx) = sync_channel(QUEUE_CAPACITY);
        let control = finished_tx.clone();
        let dispatcher = Dispatcher {
            rx,
            finished_tx,
            policy,
            ledger: Ledger::new(pool.size()),
            epoch: Instant::now(),
            free_slots: (0..pool.size()).collect(),
            active: HashMap::new(),
            pool,
            replan_period: config.replan_period,
            gauges,
            draining: None,
            tracer,
        };
        let thread = std::thread::Builder::new()
            .name("yewpar-dispatch".into())
            .spawn(move || dispatcher.run())
            .expect("spawn runtime dispatcher");
        (control, thread)
    }

    fn run(mut self) {
        loop {
            if self.draining.is_some() && self.ledger.is_idle() {
                break;
            }
            // With anything in flight the dispatcher re-plans on a timer;
            // otherwise it parks on a pure blocking receive.
            let received = if !self.ledger.is_idle() {
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
            self.record_gauges();
        }
    }

    /// Record one [`RuntimeGauge`](TraceEvent::RuntimeGauge) snapshot of
    /// the pool-wide gauges, when tracing is on.  Called at the end of
    /// every loop round, so one follows every grant and every finish.
    fn record_gauges(&self) {
        if !self.tracer.enabled() {
            return;
        }
        let snapshot = *self.gauges();
        self.tracer.control(TraceEvent::RuntimeGauge {
            active: snapshot.active_searches as u32,
            granted: snapshot.granted_workers as u32,
            queued: snapshot.queued_searches as u32,
            completed: snapshot.completed_searches,
            peak: snapshot.peak_active_searches as u32,
        });
    }

    fn gauges(&self) -> MutexGuard<'_, RuntimeStats> {
        self.gauges.lock()
    }

    fn handle(&mut self, msg: Control) {
        match msg {
            Control::Submit(submission) => {
                if matches!(self.draining, Some(ShutdownMode::Now)) {
                    submission.cancel.cancel();
                }
                // `queued_searches` was already incremented by the
                // submitter, so time spent in the control channel shows up
                // in the gauge.
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
                if let Some(entry) = self.active.remove(&search_id) {
                    // The launch-time grant is stale after grows/shrinks —
                    // reclaim the slots the core still holds.  Every
                    // acknowledgement happens-before this message, so they
                    // are settled.
                    let slots = entry.core.teardown();
                    self.reclaim(search_id, slots);
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
                let mut gauges = self.gauges();
                gauges.granted_workers -= 1;
                gauges.workers_preempted += 1;
                gauges.revocation_latency += latency;
                drop(gauges);
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
    /// searches, revocations in flight included.
    fn session_load(&self) -> SessionLoad {
        let mut load = SessionLoad::new();
        for (&search_id, entry) in &self.active {
            if let (Some(quota), Some(lease)) = (&entry.quota, self.ledger.lease(search_id)) {
                *load.entry(Arc::as_ptr(quota)).or_insert(0) += lease.workers;
            }
        }
        load
    }

    /// Close a finished search's lease: its workers return to the ledger's
    /// budget, its slots to the free pool.
    fn reclaim(&mut self, search_id: u64, mut slots: Vec<usize>) {
        let workers = self.ledger.finish(search_id).map_or(0, |l| l.workers);
        self.free_slots.append(&mut slots);
        let mut gauges = self.gauges();
        gauges.active_searches -= 1;
        gauges.granted_workers -= workers;
        gauges.completed_searches += 1;
    }

    /// Let the ledger plan admissions and launch them, repeating until the
    /// policy admits nothing.
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

    /// Lease one pool slot per granted worker (the whole pool for an
    /// oversubscribed grant) to one admitted search and send its job to the
    /// lease's home slot, where worker 0 runs.
    fn launch(&mut self, admitted: Admitted<QueuedSearch>) {
        let Admitted {
            search_id,
            job: QueuedSearch { submission, .. },
            workers,
            queue_wait,
        } = admitted;
        // One free slot per free worker of the budget, and every admission
        // grants at least one worker, so the lease is never empty.  Only a
        // Fifo grant beyond the pool size is cut short: it takes every slot
        // and round-robins its helpers.
        let lease_len = workers.min(self.free_slots.len());
        let slots: Vec<usize> = self.free_slots.drain(..lease_len).collect();
        let home = slots[0];
        let core = Arc::new(GrantCore::new(
            search_id,
            workers,
            &slots,
            self.finished_tx.clone(),
        ));
        self.active.insert(
            search_id,
            ActiveSearch {
                core: Arc::clone(&core),
                cancel: submission.cancel.clone(),
                quota: submission.quota.clone(),
            },
        );
        let grant = ExecutionGrant {
            search_id,
            workers,
            slots,
            queue_wait,
            pool: Arc::clone(&self.pool),
            core,
        };
        let mut gauges = self.gauges();
        gauges.queued_searches -= 1;
        gauges.granted_workers += workers;
        gauges.active_searches += 1;
        gauges.peak_active_searches = gauges.peak_active_searches.max(gauges.active_searches);
        gauges.total_queue_wait += queue_wait;
        drop(gauges);
        self.tracer.control(TraceEvent::SearchGranted {
            search_id,
            workers: workers as u32,
        });
        let job = submission.job;
        let finished = self.finished_tx.clone();
        let task: PoolTask = Box::new(move || {
            // The job catches search panics itself (the handle re-raises
            // them); this outer catch only guarantees the lease is returned
            // even if result delivery panics.  `job` consumes the grant, so
            // its pool reference is gone before `Finished` lets the runtime
            // shut down: the pool is never dropped on its own thread.
            let _ = catch_unwind(AssertUnwindSafe(|| job(grant)));
            let _ = finished.send(Control::Finished { search_id });
        });
        if let Err(task) = self.pool.send_to_slot(home, task) {
            // Unreachable while the runtime is live: the pool outlives the
            // dispatcher.  Run the job here rather than lose its handle.
            task();
        }
    }

    /// One re-planning round: let the ledger replan and carry out
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
                    let Some(entry) = self.active.get(&search) else {
                        continue;
                    };
                    entry.core.request_revoke(workers);
                    self.bump_grant_changes(&entry.core, 0);
                    let lease = self.ledger.lease(search);
                    self.tracer.control(TraceEvent::GrantShrunk {
                        search_id: search,
                        workers: lease.map_or(0, |l| l.workers - l.pending_revocations) as u32,
                    });
                }
                Adjustment::Preempt { search } => {
                    if let Some(entry) = self.active.get(&search) {
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
        let Some(entry) = self.active.get(&search) else {
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
            self.bump_grant_changes(&entry.core, grown);
            self.tracer.control(TraceEvent::GrantGrown {
                search_id: search,
                workers: workers as u32,
            });
        }
    }

    /// Count one executed `Grow` (of `grown` workers) or `Shrink` (`grown`
    /// = 0) on the lease, for its outcome's metrics, and on the gauges.
    fn bump_grant_changes(&self, core: &GrantCore, grown: usize) {
        // ordering: advisory tally, read by the search's outcome after its
        // workers have joined.
        core.grant_changes.fetch_add(1, Ordering::Relaxed);
        let mut gauges = self.gauges();
        gauges.grant_changes += 1;
        gauges.granted_workers += grown;
    }
}
