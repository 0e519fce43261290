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
//! **Scheduling model.**  The dispatcher is an *allocator*: the pool keeps
//! one persistent thread per worker, its slots belong to the runtime, and
//! every submission is granted an allotment at dispatch time by a
//! pluggable [`SchedulePolicy`], whose decisions the dispatcher carries out
//! through a [`Ledger`] (the same one the virtual-time simulator drives).
//! There is one launch path for every policy: a grant leases one pool slot
//! per granted worker, the dispatcher sends the search job to the lease's
//! first ("home") slot, worker 0 runs there and workers 1.. run on the
//! rest of the lease, and the lease is reclaimed when the job reports
//! back.  The dispatcher itself never runs a search and no thread is
//! spawned per search.  Under the default [`Fifo`] policy submissions run
//! one at a time over the whole pool, granted exactly the worker count
//! they asked for.  Under [`FairShare`](crate::schedule::FairShare)
//! ([`Runtime::with_policy`]) the free workers are split proportionally
//! across the pending queue and several searches run **concurrently on
//! disjoint pool-thread subsets**; leases are reclaimed and re-granted as
//! searches finish.  The granted worker count, leased slots and
//! dispatcher-clock queue wait are stamped onto each outcome's
//! [`Metrics`](crate::metrics::Metrics) (`granted_workers`,
//! `granted_slots`, `queue_wait`, `search_id`), and pool-wide gauges are
//! available through [`Runtime::stats`].
//!
//! **Elastic leases.**  Every grant is a *lease*, not a fixed allotment:
//! while searches run, every [`RuntimeConfig::replan_period`] the
//! dispatcher snapshots them and asks the policy to
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
//! [`Fifo`] keeps the default `replan`, which returns no adjustments, so
//! its grants stay fixed for life.
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
//! [`Ledger`]: crate::schedule::Ledger
//! [`SearchConfig::deadline`]: crate::params::SearchConfig::deadline

use crate::sync::{AtomicU64, Ordering};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::Sender;

use crate::lifecycle::{progress_channel, CancelToken, SearchStatus};
use crate::metrics::RuntimeStats;
use crate::objective::{Decide, Enumerate, Optimise};
use crate::params::SearchConfig;
use crate::schedule::{Fifo, SchedulePolicy};
use crate::skeleton::{DecideOutcome, EnumOutcome, OptimOutcome, Skeleton};
use crate::trace::{TraceBuffer, TraceRecord, Tracer};

mod dispatcher;
mod grant;
mod handle;
mod pool;
mod session;

use dispatcher::{Control, Dispatcher, Gauges, Job, Submission};
pub(crate) use grant::{ExecutionGrant, GrantCore};
use handle::HandleState;
pub use handle::SearchHandle;
pub use pool::WorkerPool;
pub use session::{Session, SessionStatus};
use session::{SessionQuota, SessionState};

/// Configuration of a [`Runtime`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Maximum search workers that can run in parallel.  The pool keeps one
    /// persistent thread per worker and every search runs on the pool
    /// threads leased to it, worker 0 included, so a search configured with
    /// up to this many workers executes with zero thread spawns.
    pub workers: usize,
    /// Capacity of each handle's bounded progress channel; events beyond a
    /// lagging consumer are dropped, never blocked on.
    pub progress_capacity: usize,
    /// Record every search submitted to this runtime — plus the
    /// dispatcher's queue/grant transitions and a
    /// [`RuntimeGauge`](crate::trace::TraceEvent::RuntimeGauge) snapshot of
    /// the pool-wide [`RuntimeStats`] at the end of every dispatcher round —
    /// on one runtime-wide flight recorder, drained with
    /// [`Runtime::drain_trace`].  Off by default and free when off (see
    /// [`crate::trace`]).
    pub trace: bool,
    /// How often the dispatcher re-plans leases while searches are running
    /// or queued: each tick it snapshots the running set and executes the
    /// policy's [`replan`](crate::schedule::SchedulePolicy::replan)
    /// adjustments.  [`Fifo`]'s `replan` returns none, so under it a tick
    /// only wakes the dispatcher; an idle runtime parks on a blocking
    /// receive.  Default 5 ms.
    pub replan_period: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            progress_capacity: 1024,
            trace: false,
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

    /// Set the re-planning period (see
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

/// A persistent search runtime: a long-lived worker pool plus a
/// policy-driven multiplexing scheduler.  See the [module docs](self) for
/// the full model.
pub struct Runtime {
    control: Option<Sender<Control>>,
    dispatcher: Option<JoinHandle<()>>,
    /// Dropped after the dispatcher has joined, so the pool's threads are
    /// joined on the thread that drops the runtime.
    pool: Arc<WorkerPool>,
    config: RuntimeConfig,
    /// Root of the runtime's cancellation tree: sessions are children,
    /// searches are grandchildren (or children, for sessionless
    /// submissions).  [`ShutdownMode::Now`] cancels it.
    root: CancelToken,
    gauges: Gauges,
    next_search_id: AtomicU64,
    policy_name: &'static str,
    /// Runtime-wide flight recorder shared by the dispatcher and every
    /// submitted search ([`RuntimeConfig::trace`]).
    trace: Option<Arc<TraceBuffer>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.config.workers)
            .field("policy", &self.policy_name)
            .field("pool", &self.pool)
            .finish()
    }
}

impl Runtime {
    /// Start a runtime with the default [`Fifo`] scheduling policy — one
    /// search at a time over the whole pool.
    pub fn new(config: RuntimeConfig) -> Self {
        Runtime::with_policy(config, Box::new(Fifo))
    }

    /// Start a runtime with an explicit scheduling policy (e.g.
    /// [`FairShare`](crate::schedule::FairShare) to multiplex concurrent
    /// searches over disjoint worker subsets).
    pub fn with_policy(config: RuntimeConfig, policy: Box<dyn SchedulePolicy>) -> Self {
        let pool = Arc::new(WorkerPool::new(config.workers));
        let gauges = Gauges::default();
        let policy_name = policy.name();
        let trace = config
            .trace
            .then(|| Arc::new(TraceBuffer::new(TraceBuffer::DEFAULT_CAPACITY)));
        let tracer = trace
            .as_ref()
            .map(|buffer| Tracer::new(Arc::clone(buffer)))
            .unwrap_or_else(Tracer::off);
        let (control, dispatcher) = Dispatcher::spawn(
            &config,
            policy,
            Arc::clone(&pool),
            Arc::clone(&gauges),
            tracer,
        );
        Runtime {
            control: Some(control),
            dispatcher: Some(dispatcher),
            pool,
            config,
            root: CancelToken::new(),
            gauges,
            next_search_id: AtomicU64::new(1),
            policy_name,
            trace,
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
    /// queue-wait.  Consistent across fields: every submission is counted
    /// exactly once as queued, active or completed.
    pub fn stats(&self) -> RuntimeStats {
        *self.gauges.lock().expect("gauge lock")
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
            .attach_stats_probe(crate::lifecycle::StatsProbe(Arc::new(move || {
                *probe_gauges.lock().expect("gauge lock")
            })));
        if let Some(buffer) = &self.trace {
            // Runtime searches record into the runtime-wide buffer (one
            // timeline shared with the dispatcher events), overriding any
            // per-search buffer `SearchConfig::trace` would have created.
            skeleton = skeleton.attach_trace_buffer(Arc::clone(buffer));
        }
        if let Some(state) = &session {
            state.lock().expect("session lock").submitted += 1;
        }
        // Count the submission as queued from the moment it is sent — not
        // from dispatcher receipt — so a backlog sitting in the control
        // channel is visible in `stats()`, matching the queue-wait
        // semantics (channel time counts).
        self.gauges.lock().expect("gauge lock").queued_searches += 1;
        let job_state = Arc::clone(&shared);
        let job: Job = Box::new(move |grant: ExecutionGrant| {
            let skeleton = skeleton.attach_grant(grant);
            let outcome = catch_unwind(AssertUnwindSafe(|| run(&skeleton, &problem)));
            if let Some(state) = &session {
                let status = outcome.as_ref().map(status_of).ok();
                state.lock().expect("session lock").record(status);
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
            // Root-scope cancel reaches running searches immediately and
            // pre-cancels everything still queued, even those still in the
            // control channel.
            self.root.cancel();
        }
        let _ = control.send(Control::Shutdown(mode));
        drop(control);
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        // The pool joins its threads in its own drop.
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown_inner(ShutdownMode::Graceful);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::ProgressEvent;
    use crate::monoid::Sum;
    use crate::node::SearchProblem;
    use crate::params::Coordination;
    use crate::sync::AtomicBool;
    use crossbeam_channel::bounded;
    use std::sync::Mutex;
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
        assert_eq!(runtime.pool.size(), 3, "one persistent thread per worker");
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

    /// Regression: a workers=1 runtime (one pool thread, which worker 0
    /// occupies — also the default on a single-core machine) asked to run a
    /// multi-worker search must fall back to scoped threads for its
    /// helpers, not divide by zero in the pool's round-robin dispatch.
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

    /// [`Endless`], parked at its root expansion: it reports `reached`,
    /// then waits for `release`.
    struct ParkedEndless {
        reached: crossbeam_channel::Sender<()>,
        release: Mutex<crossbeam_channel::Receiver<()>>,
    }

    impl SearchProblem for ParkedEndless {
        type Node = (u32, u64);
        type Gen<'a> = std::vec::IntoIter<(u32, u64)>;
        fn root(&self) -> (u32, u64) {
            Endless.root()
        }
        fn generator(&self, node: &(u32, u64)) -> Self::Gen<'_> {
            if *node == Endless.root() {
                let _ = self.reached.send(());
                let _ = self.release.lock().expect("release").recv();
            }
            Endless.generator(node)
        }
    }

    impl Optimise for ParkedEndless {
        type Score = u64;
        fn objective(&self, node: &(u32, u64)) -> u64 {
            Endless.objective(node)
        }
    }

    #[test]
    fn fifo_queue_wait_is_recorded_at_grant_time() {
        let runtime = Runtime::new(RuntimeConfig::default().workers(2));
        let mut first_cfg = config(Coordination::depth_bounded(2), 2);
        first_cfg.deadline = Some(Duration::from_millis(50));
        // The first search parks at its root expansion until 40 ms after
        // the second was submitted, so the second queues behind it for at
        // least that long, however late the submitting thread runs.
        let (reached_tx, reached) = bounded(1);
        let (release, release_rx) = bounded(1);
        let first = runtime.maximise(
            ParkedEndless {
                reached: reached_tx,
                release: Mutex::new(release_rx),
            },
            &first_cfg,
        );
        reached
            .recv_timeout(Duration::from_secs(20))
            .expect("the first search reaches its root expansion");
        let second =
            runtime.enumerate(Irregular { depth: 6 }, &config(Coordination::Sequential, 1));
        std::thread::sleep(Duration::from_millis(40));
        release.send(()).expect("the first search is parked");
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

    /// Records the name of every thread that expands a node.
    struct ThreadNames {
        inner: Irregular,
        names: Arc<Mutex<std::collections::BTreeSet<String>>>,
    }

    impl SearchProblem for ThreadNames {
        type Node = (usize, u64);
        type Gen<'a> = std::vec::IntoIter<(usize, u64)>;
        fn root(&self) -> (usize, u64) {
            self.inner.root()
        }
        fn generator(&self, node: &(usize, u64)) -> Self::Gen<'_> {
            let name = std::thread::current().name().unwrap_or("").to_string();
            self.names.lock().unwrap().insert(name);
            self.inner.generator(node)
        }
    }

    impl Enumerate for ThreadNames {
        type Value = Sum<u64>;
        fn value(&self, _n: &(usize, u64)) -> Sum<u64> {
            Sum(1)
        }
    }

    /// One launch path: under Fifo and FairShare alike, every worker that
    /// expands a node — worker 0 included — runs on a pool thread of its
    /// own lease, and a grant within the pool leases one slot per worker.
    #[test]
    fn every_expanding_worker_runs_on_a_leased_pool_thread() {
        use crate::schedule::FairShare;
        let expected = {
            let p = Irregular { depth: 8 };
            crate::node::subtree_size(&p, &p.root())
        };
        for fair in [false, true] {
            for (coordination, workers) in [
                (Coordination::Sequential, 1),
                (Coordination::depth_bounded(2), 2),
                (Coordination::stack_stealing(), 4),
            ] {
                // A fresh runtime per search: a handle resolves before the
                // dispatcher reclaims its lease, so a shared one could
                // admit the next search into what is left of the pool.
                let policy: Box<dyn SchedulePolicy> = match fair {
                    false => Box::new(Fifo),
                    true => Box::new(FairShare),
                };
                let runtime = Runtime::with_policy(RuntimeConfig::default().workers(4), policy);
                let names = Arc::new(Mutex::new(std::collections::BTreeSet::new()));
                let problem = ThreadNames {
                    inner: Irregular { depth: 8 },
                    names: Arc::clone(&names),
                };
                // A session capped at the request keeps FairShare from
                // growing the lease into idle slots mid-run.
                let out = runtime
                    .session()
                    .with_max_workers(workers)
                    .enumerate(problem, &config(coordination, workers))
                    .wait();
                let label = format!("{} {coordination} workers={workers}", runtime.policy_name());
                assert_eq!(out.value.0, expected, "{label}");
                assert_eq!(out.metrics.granted_workers, workers, "{label}");
                assert_eq!(
                    out.metrics.granted_slots.len(),
                    workers,
                    "{label}: one leased slot per granted worker"
                );
                let leased: Vec<String> = out
                    .metrics
                    .granted_slots
                    .iter()
                    .map(|s| format!("yewpar-pool-{s}"))
                    .collect();
                let names = names.lock().unwrap();
                assert!(!names.is_empty(), "{label}: nothing was expanded");
                for name in names.iter() {
                    assert!(
                        leased.contains(name),
                        "{label}: a worker expanded on {name:?}, outside its lease {leased:?}"
                    );
                }
            }
        }
    }

    /// A ternary tree of depth 8 whose only decision witness is the node
    /// ⟨1.0.2.1.0⟩.  With a `lease`, the first depth-1 expansion on a pool
    /// thread — the start of that worker's first in-place task — requests
    /// one revocation from the lease's core, so it is pending at the task's
    /// first poll; the calling thread's worker 0 holds its own depth-1
    /// expansion until the pool worker has acknowledged the revocation, so
    /// no witness can commit (and stop the search) before the pool worker
    /// reaches its between-tasks claim.
    struct RevokeMidTask {
        /// The lease's core and the calling thread; `None` for the
        /// Sequential reference run, which revokes nothing.
        lease: Option<(Arc<GrantCore>, std::thread::ThreadId)>,
        requested: AtomicBool,
    }

    impl SearchProblem for RevokeMidTask {
        type Node = Vec<u8>;
        type Gen<'a> = std::vec::IntoIter<Vec<u8>>;
        fn root(&self) -> Vec<u8> {
            Vec::new()
        }
        fn generator(&self, node: &Vec<u8>) -> Self::Gen<'_> {
            if let (Some((core, caller)), 1) = (&self.lease, node.len()) {
                if std::thread::current().id() != *caller {
                    // ordering: a one-shot test latch on one thread's path.
                    if !self.requested.swap(true, Ordering::Relaxed) {
                        core.request_revoke(1);
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
            lease: None,
            requested: AtomicBool::new(false),
        };
        let seq = Skeleton::new(Coordination::Sequential).decide(&plain);
        assert!(seq.found());

        // Worker 0 runs on this thread in place of the home slot 0; the
        // helper runs on pool slot 1.
        let (released_tx, _released_rx) = bounded::<Control>(4);
        let core = Arc::new(GrantCore::new(1, 2, &[0, 1], released_tx));
        let grant = ExecutionGrant {
            search_id: 1,
            workers: 2,
            slots: vec![0, 1],
            queue_wait: Duration::ZERO,
            pool: Arc::new(WorkerPool::new(2)),
            core: Arc::clone(&core),
        };
        let problem = RevokeMidTask {
            lease: Some((core, std::thread::current().id())),
            ..plain
        };
        let out = Skeleton::new(Coordination::ordered(1))
            .workers(2)
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
