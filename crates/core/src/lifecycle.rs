//! Anytime-search lifecycle primitives: cancellation tokens, deadlines,
//! statuses and progress streaming.
//!
//! The paper's skeletons are one-shot batch calls, but real exact-search
//! deployments are *anytime*: branch-and-bound solvers routinely run under a
//! wall-clock limit and must surface the best incumbent found so far, and a
//! long-running service must be able to abort a search a user no longer
//! wants.  This module holds the pieces that make every coordination
//! interruptible:
//!
//! * [`CancelToken`] — a cloneable flag any thread can pull to stop a search
//!   from outside (the generalisation of PR 3's Ordered speculation
//!   cancellation to whole searches);
//! * [`SearchConfig::deadline`] — a wall-clock budget checked in the
//!   engine's per-step poll for **all five** coordinations;
//! * [`SearchStatus`] — how a search ended, reported on every outcome: a
//!   cancelled or timed-out optimisation still returns its partial
//!   incumbent, so callers always get the best answer the budget allowed;
//! * [`ProgressEvent`] — a bounded, lossy stream of incumbent updates and
//!   node-count heartbeats fed from the running drivers, exposed through
//!   [`SearchHandle::progress`].
//!
//! The engine-facing half (the crate-internal `Lifecycle` struct) bundles
//! the token, deadline and
//! progress sender and is polled once per traversal step (stride-gated so
//! the hot path stays a handful of arithmetic instructions).  A triggered
//! cancel or deadline raises the shared [`Termination`] stop flag with an
//! external [`StopCause`]; workers then unwind exactly like a decision
//! short-circuit — outstanding counters drain, pools purge, metrics are
//! still summed — but the outcome reports the honest status.
//!
//! [`SearchConfig::deadline`]: crate::params::SearchConfig::deadline
//! [`SearchHandle::progress`]: crate::runtime::SearchHandle::progress
//! [`Termination`]: crate::termination::Termination
//! [`StopCause`]: crate::termination::StopCause

use crate::sync::{AtomicBool, AtomicU64, Mutex, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::termination::{StopCause, Termination};

/// How a search ended.  Attached to every outcome
/// ([`EnumOutcome::status`], [`OptimOutcome::status`],
/// [`DecideOutcome::status`]).
///
/// [`EnumOutcome::status`]: crate::skeleton::EnumOutcome::status
/// [`OptimOutcome::status`]: crate::skeleton::OptimOutcome::status
/// [`DecideOutcome::status`]: crate::skeleton::DecideOutcome::status
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchStatus {
    /// The search ran to its natural end: the tree was exhausted, or a
    /// decision target was witnessed and short-circuited the search.
    Complete,
    /// An external [`CancelToken`] was pulled mid-run.  Optimisation and
    /// decision outcomes carry the partial incumbent found so far.
    Cancelled,
    /// The configured deadline expired mid-run.  Optimisation and decision
    /// outcomes carry the partial incumbent found so far.
    DeadlineExceeded,
}

impl SearchStatus {
    /// True when the search ran to its natural end (its result is exact,
    /// not a partial anytime answer).
    pub fn is_complete(&self) -> bool {
        matches!(self, SearchStatus::Complete)
    }
}

impl std::fmt::Display for SearchStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchStatus::Complete => write!(f, "complete"),
            SearchStatus::Cancelled => write!(f, "cancelled"),
            SearchStatus::DeadlineExceeded => write!(f, "deadline-exceeded"),
        }
    }
}

/// One node of a cancellation tree: an own flag plus an optional parent
/// link.  A token is cancelled when its own flag — or any ancestor's — is
/// set, so cancelling a parent scope cancels every descendant without
/// bookkeeping a child list.
#[derive(Debug, Default)]
struct TokenNode {
    flag: AtomicBool,
    parent: Option<Arc<TokenNode>>,
}

impl TokenNode {
    fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        let mut ancestor = self.parent.as_deref();
        while let Some(node) = ancestor {
            if node.flag.load(Ordering::Acquire) {
                return true;
            }
            ancestor = node.parent.as_deref();
        }
        false
    }
}

/// A cloneable, *hierarchical* cancellation flag for stopping searches from
/// outside.
///
/// Every clone observes the same flag; pulling any clone makes every
/// coordination's workers exit at their next per-step poll, unwinding the
/// search cleanly (counters drained, pools purged, partial incumbent
/// returned with [`SearchStatus::Cancelled`]).  Cancellation is level-
/// triggered and permanent: a token cannot be re-armed, so a token attached
/// to a [`Skeleton`](crate::skeleton::Skeleton) must be fresh per search.
///
/// Tokens form a tree: [`child`](CancelToken::child) derives a token that is
/// cancelled whenever its parent (or any further ancestor) is, while
/// cancelling the child leaves the parent untouched.  This is how a service
/// cancels *a whole session* of searches at once — the
/// [`Runtime`](crate::runtime::Runtime) keeps a root token, each
/// [`Session`](crate::runtime::Session) scope is a child of it, and every
/// submitted search gets a leaf child of its session — without the leaf
/// tokens ever losing their single-search cancel.  Checking walks the
/// (short) ancestor chain, so the per-step poll stays a few atomic loads.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    node: Arc<TokenNode>,
}

impl CancelToken {
    /// A fresh, un-pulled root token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Derive a child token: cancelled when `self` (or any ancestor of it)
    /// is cancelled, while cancelling the child does not affect `self`.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            node: Arc::new(TokenNode {
                flag: AtomicBool::new(false),
                parent: Some(Arc::clone(&self.node)),
            }),
        }
    }

    /// Pull the token: every search it is attached to — and every search
    /// attached to a descendant token — stops at its next per-step poll.
    /// Idempotent.
    pub fn cancel(&self) {
        self.node.flag.store(true, Ordering::Release);
    }

    /// Has the token (or any ancestor scope) been pulled?
    pub fn is_cancelled(&self) -> bool {
        self.node.is_cancelled()
    }
}

/// One event on a search's progress stream (see
/// [`SearchHandle::progress`](crate::runtime::SearchHandle::progress)).
///
/// The stream is *bounded and lossy*: events that would overflow the
/// channel are dropped rather than ever blocking a search worker, so
/// consumers must treat it as a sampled view, not an exact log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressEvent {
    /// The shared incumbent of an optimisation/decision search improved.
    Incumbent {
        /// The incumbent's version counter after this update (monotone, but
        /// observed versions may skip when events are dropped).
        version: u64,
        /// The new best objective value, rendered with `Debug` (scores are
        /// generic, so the stream carries a display form rather than a
        /// type-erased value).
        score: String,
        /// Wall-clock time since the search started.
        elapsed: Duration,
    },
    /// Periodic node-count heartbeat (approximate: workers report in
    /// batches, so the count trails the true total by up to one batch per
    /// worker).
    Heartbeat {
        /// Approximate nodes processed so far across all workers.
        nodes: u64,
        /// Wall-clock time since the search started.
        elapsed: Duration,
    },
    /// Periodic snapshot of the owning [`Runtime`](crate::runtime::Runtime)'s
    /// pool-wide scheduler gauges, emitted on the same stride (and with the
    /// same bounded/lossy semantics) as
    /// [`Heartbeat`](ProgressEvent::Heartbeat).  Only present for runtime
    /// submissions — the blocking facade has no runtime to snapshot.
    Stats {
        /// The runtime's gauges at the heartbeat instant.
        stats: crate::metrics::RuntimeStats,
        /// Wall-clock time since the search started.
        elapsed: Duration,
    },
    /// The search finished; no further events follow.
    Finished {
        /// How the search ended.
        status: SearchStatus,
    },
}

/// The consuming half of a search's progress stream.
///
/// Wraps a bounded channel: [`try_next`](ProgressStream::try_next) never
/// blocks, [`next_timeout`](ProgressStream::next_timeout) waits at most the
/// given duration.  The stream ends (returns `None` forever) after the
/// [`ProgressEvent::Finished`] event has been consumed.  Heartbeats and
/// incumbent updates are lossy; the terminal `Finished` marker is not — it
/// travels through a dedicated slot, so a consumer that lagged the bounded
/// channel still receives it (after the buffered events drain).
/// [`dropped`](ProgressStream::dropped) counts the events lost to a full
/// channel.
pub struct ProgressStream {
    rx: Receiver<ProgressEvent>,
    shared: Arc<ProgressShared>,
    /// The `Finished` event has been handed to the consumer (from either
    /// the channel or the terminal slot); never yield it twice.
    finished_seen: std::cell::Cell<bool>,
}

impl std::fmt::Debug for ProgressStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressStream(..)")
    }
}

impl ProgressStream {
    fn note(&self, event: Option<ProgressEvent>) -> Option<ProgressEvent> {
        if self.finished_seen.get() {
            // The stream is over; drop anything after `Finished`.
            return None;
        }
        match event {
            Some(ProgressEvent::Finished { status }) => {
                self.finished_seen.set(true);
                Some(ProgressEvent::Finished { status })
            }
            Some(other) => Some(other),
            // Channel empty: fall back to the terminal slot.  The slot is
            // written after the producers' last emits, but those can land
            // between the empty receive and this lock
            // (model-checked: `model_check::no_event_follows_finished`),
            // so a set slot first drains the channel.
            None => {
                let status = (*self.shared.terminal.lock())?;
                match self.rx.try_recv() {
                    Ok(event) => self.note(Some(event)),
                    Err(_) => {
                        self.finished_seen.set(true);
                        Some(ProgressEvent::Finished { status })
                    }
                }
            }
        }
    }

    /// Pop the next buffered event without blocking.
    pub fn try_next(&self) -> Option<ProgressEvent> {
        self.note(self.rx.try_recv().ok())
    }

    /// Wait up to `timeout` for the next event.
    pub fn next_timeout(&self, timeout: Duration) -> Option<ProgressEvent> {
        self.note(self.rx.recv_timeout(timeout).ok())
    }

    /// Drain every currently buffered event.
    pub fn drain(&self) -> Vec<ProgressEvent> {
        let mut events = Vec::new();
        while let Some(e) = self.try_next() {
            events.push(e);
        }
        events
    }

    /// How many events the producers dropped so far because the channel
    /// was full.  A `Finished` event that reaches the consumer through the
    /// terminal slot is not counted: it is not lost.
    pub fn dropped(&self) -> u64 {
        // ordering: an advisory tally; it publishes nothing.
        self.shared.dropped.load(Ordering::Relaxed)
    }
}

/// The state a progress stream shares with its producers: the terminal
/// slot and the count of dropped events.
struct ProgressShared {
    terminal: Mutex<Option<SearchStatus>>,
    dropped: AtomicU64,
}

/// The producing half of a progress stream.  Cloneable (one per driver plus
/// one in the engine's lifecycle); all sends are non-blocking and drop the
/// event when the consumer lags — except the terminal
/// [`ProgressEvent::Finished`], which is additionally recorded in a slot
/// the stream falls back to, so the end-of-stream contract survives a full
/// channel.
#[derive(Clone)]
pub(crate) struct ProgressSender {
    tx: SyncSender<ProgressEvent>,
    shared: Arc<ProgressShared>,
}

impl std::fmt::Debug for ProgressSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressSender(..)")
    }
}

impl ProgressSender {
    /// Best-effort send: never blocks, drops the event if the stream is
    /// full (counting it) or the consumer is gone.  A
    /// [`ProgressEvent::Finished`] is also written to the guaranteed
    /// terminal slot, so a full channel does not lose it.
    pub(crate) fn emit(&self, event: ProgressEvent) {
        if let ProgressEvent::Finished { status } = &event {
            *self.shared.terminal.lock() = Some(*status);
        }
        match self.tx.try_send(event) {
            // The terminal slot delivers it instead: not a loss.
            Err(TrySendError::Full(ProgressEvent::Finished { .. })) => {}
            Err(TrySendError::Full(_)) => {
                // ordering: an advisory tally; it publishes nothing.
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Ok(()) | Err(TrySendError::Disconnected(_)) => {}
        }
    }
}

/// Create a bounded progress channel of the given capacity.
pub(crate) fn progress_channel(capacity: usize) -> (ProgressSender, ProgressStream) {
    let (tx, rx) = sync_channel(capacity.max(1));
    let shared = Arc::new(ProgressShared {
        terminal: Mutex::new(None),
        dropped: AtomicU64::new(0),
    });
    (
        ProgressSender {
            tx,
            shared: Arc::clone(&shared),
        },
        ProgressStream {
            rx,
            shared,
            finished_seen: std::cell::Cell::new(false),
        },
    )
}

/// A closure snapshotting the owning runtime's
/// [`RuntimeStats`](crate::metrics::RuntimeStats), attached to runtime
/// submissions so heartbeats can carry [`ProgressEvent::Stats`] payloads.
/// Newtyped so [`Lifecycle`] keeps its `Debug` derive.
#[derive(Clone)]
pub(crate) struct StatsProbe(
    pub(crate) Arc<dyn Fn() -> crate::metrics::RuntimeStats + Send + Sync>,
);

impl std::fmt::Debug for StatsProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StatsProbe(..)")
    }
}

/// The engine-facing lifecycle of one search execution: the external stop
/// conditions to poll and the progress stream to feed.  Built once per
/// search by [`Skeleton`](crate::skeleton::Skeleton) and shared by
/// reference with every worker.
#[derive(Debug, Default)]
pub(crate) struct Lifecycle {
    /// External cancellation flag, if one was attached.
    pub(crate) cancel: Option<CancelToken>,
    /// Absolute wall-clock deadline, computed from
    /// [`SearchConfig::deadline`](crate::params::SearchConfig::deadline)
    /// when the search starts executing.
    pub(crate) deadline: Option<Instant>,
    /// Progress sink, if a consumer subscribed.
    pub(crate) progress: Option<ProgressSender>,
    /// The worker lease granted by the runtime's scheduler at dispatch
    /// time: the effective worker count, the pool and its leased slots, the
    /// search id and the observed queue wait.  `None` for the plain blocking
    /// facade, whose worker count comes from the config and whose workers
    /// run on scoped threads.
    pub(crate) grant: Option<crate::runtime::ExecutionGrant>,
    /// Wall-clock start of the execution (heartbeat/incumbent timestamps).
    pub(crate) start: Option<Instant>,
    /// Approximate global node counter feeding heartbeat events.
    pub(crate) nodes_seen: AtomicU64,
    /// Flight-recorder switch: disabled (`Tracer::off`, the default) unless
    /// [`SearchConfig::trace`](crate::params::SearchConfig::trace) is set.
    /// Workers pull per-worker emission handles from it once at start-up.
    pub(crate) tracer: crate::trace::Tracer,
    /// Runtime-gauge snapshotter for [`ProgressEvent::Stats`] heartbeats;
    /// `None` for the blocking facade.
    pub(crate) stats_probe: Option<StatsProbe>,
}

/// Per-worker lifecycle state, built around one countdown: `until_event`
/// counts the quiet steps left before the next poll or heartbeat,
/// whichever is nearer, so the per-step cost of the anytime machinery is
/// an inlined decrement and a branch.  Only the step the countdown stops
/// at takes the out-of-line slow path, which runs the per-step rule on
/// that step's `steps` and `until_poll` and re-arms the countdown,
/// advancing both counters past the quiet steps it arms for.  Polls and
/// heartbeats therefore fall on exactly the steps a per-step check of both
/// counters picks.
///
/// The poll stride *adapts*: every poll that finds nothing doubles the
/// stride (up to [`Lifecycle::MAX_POLL_STRIDE`]), so a long quiet search
/// pays for `Instant::now` and the cancel-token walk once per ~512 nodes
/// instead of once per 64; a poll that observes a stop collapses the stride
/// back to [`Lifecycle::MIN_POLL_STRIDE`].  The first step always polls
/// (every count starts at zero), so an already-expired deadline or
/// pre-pulled token is observed before any real work happens.
#[derive(Debug, Default)]
pub(crate) struct LifecycleLocal {
    /// Quiet steps left before the next event step, which takes the slow
    /// path.
    until_event: u32,
    /// Steps taken, counted through the armed quiet steps.
    steps: u64,
    /// Steps remaining until the next external-stop poll, as the next
    /// event step sees it.
    until_poll: u32,
    /// Current poll stride (doubles while quiet, collapses on a stop).
    stride: u32,
}

impl Lifecycle {
    /// Floor of the adaptive poll stride: the stride a worker restarts from
    /// after observing a stop, and the effective stride early in a task.
    pub(crate) const MIN_POLL_STRIDE: u32 = 16;
    /// Ceiling of the adaptive poll stride — the bounded staleness of the
    /// anytime machinery: an external cancel or an expired deadline is
    /// observed within at most this many traversal steps per worker.
    pub(crate) const MAX_POLL_STRIDE: u32 = 512;
    /// Traversal steps between heartbeat progress events (per worker).
    const HEARTBEAT_STRIDE: u64 = 8192;

    /// A lifecycle with no external conditions and no subscribers — the
    /// plain blocking `Skeleton` facade with no deadline configured.
    pub(crate) fn inert() -> Self {
        Lifecycle::default()
    }

    /// The effective worker count of this execution: the scheduler's grant
    /// for runtime submissions (worker counts are granted at dispatch, not
    /// config time), the configured count for the blocking facade.
    pub(crate) fn worker_count(&self, config: &crate::params::SearchConfig) -> usize {
        self.grant
            .as_ref()
            .map(|g| g.workers)
            .unwrap_or(config.workers)
            .max(1)
    }

    /// Upper bound on worker ids this execution can ever observe.  The
    /// blocking facade never outgrows
    /// [`worker_count`](Lifecycle::worker_count); a runtime grant can be
    /// grown by the dispatcher up to the whole pool, so per-worker
    /// structures (work sources, steal channels, result slots) must be
    /// sized to the pool capacity, not the initial grant.
    pub(crate) fn worker_capacity(&self, config: &crate::params::SearchConfig) -> usize {
        let pool = self.grant.as_ref().map_or(0, |grant| grant.pool.size());
        self.worker_count(config).max(pool)
    }

    /// Try to claim a pending cooperative revocation for `worker`.  Returns
    /// `true` when the claim succeeded — the worker must then finish its
    /// current task, hand its local work back through
    /// `WorkSource::retire`, and call [`ack_retire`](Lifecycle::ack_retire)
    /// before exiting.  Worker 0 (on the home slot) never retires: it owns
    /// the result seam.  Always `false` for the blocking facade.
    pub(crate) fn try_claim_retire(&self, worker: usize) -> bool {
        worker != 0
            && self
                .grant
                .as_ref()
                .is_some_and(|grant| grant.core.try_claim_retire())
    }

    /// Acknowledge a claimed revocation: returns the worker's leased slot to
    /// the dispatcher and records the revocation latency.  Must only be
    /// called after a successful
    /// [`try_claim_retire`](Lifecycle::try_claim_retire) and after the
    /// worker's local work has been rehomed.
    pub(crate) fn ack_retire(&self, worker: usize) {
        if let Some(grant) = &self.grant {
            grant.core.ack_retire(worker);
        }
    }

    /// Record the execution start and resolve the relative deadline.  Must
    /// be called once, when the search actually begins running (a queued
    /// runtime submission's budget starts when it leaves the queue).
    pub(crate) fn begin(&mut self, deadline: Option<Duration>) {
        let now = Instant::now();
        self.start = Some(now);
        if let Some(budget) = deadline {
            self.deadline = Some(now + budget);
        }
    }

    /// Check the external stop conditions, raising the termination stop
    /// flag with the matching cause if one has triggered.  Cheap enough to
    /// call between tasks; the per-step path goes through
    /// [`on_step`](Lifecycle::on_step) which stride-gates this.
    pub(crate) fn poll(&self, term: &Termination) {
        if term.short_circuited() {
            return;
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                term.stop_external(StopCause::Cancelled);
                return;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                term.stop_external(StopCause::Deadline);
            }
        }
    }

    /// Per-traversal-step hook: adaptively stride-gated external-stop poll
    /// plus heartbeat emission.  `local` is the calling worker's private
    /// state.  Returns `true` when this step actually polled, so the engine
    /// can piggyback its own stop checks (short-circuit propagation,
    /// coordination-specific cancellation) on the same gate instead of
    /// loading shared atomics on every node.
    ///
    /// Every step but an event step is the countdown's decrement; the
    /// event step runs [`on_event`](Lifecycle::on_event).
    #[inline(always)]
    pub(crate) fn on_step(&self, local: &mut LifecycleLocal, term: &Termination) -> bool {
        if local.until_event > 0 {
            local.until_event -= 1;
            return false;
        }
        self.on_event(local, term)
    }

    /// The slow path of [`on_step`](Lifecycle::on_step), taken on an event
    /// step: the per-step rule — a heartbeat on every
    /// `HEARTBEAT_STRIDE`-th step, then a poll once `until_poll` has run out
    /// — followed by arming the countdown.  The quiet steps the countdown
    /// skips would each only add one to `steps` and take one from
    /// `until_poll`, so arming does that for all of them at once.
    #[cold]
    #[inline(never)]
    fn on_event(&self, local: &mut LifecycleLocal, term: &Termination) -> bool {
        local.steps = local.steps.wrapping_add(1);
        if local.steps % Self::HEARTBEAT_STRIDE == 0 {
            self.heartbeat();
        }
        let polled = if local.until_poll > 0 {
            local.until_poll -= 1;
            false
        } else {
            self.poll(term);
            local.stride = if term.short_circuited() {
                Self::MIN_POLL_STRIDE
            } else {
                (local.stride * 2).clamp(Self::MIN_POLL_STRIDE, Self::MAX_POLL_STRIDE)
            };
            local.until_poll = local.stride;
            true
        };
        // Quiet steps until the nearer of the next poll and the next
        // heartbeat.
        let to_heartbeat = Self::HEARTBEAT_STRIDE - 1 - local.steps % Self::HEARTBEAT_STRIDE;
        let quiet = local.until_poll.min(to_heartbeat as u32);
        local.steps = local.steps.wrapping_add(u64::from(quiet));
        local.until_poll -= quiet;
        local.until_event = quiet;
        polled
    }

    /// Emit one heartbeat (and a stats snapshot when probed) to a
    /// subscribed progress stream.
    fn heartbeat(&self) {
        if let Some(progress) = &self.progress {
            // ordering: advisory progress tally; heartbeat consumers
            // tolerate skew and nothing is published through it.
            let nodes = self
                .nodes_seen
                .fetch_add(Self::HEARTBEAT_STRIDE, Ordering::Relaxed)
                + Self::HEARTBEAT_STRIDE;
            progress.emit(ProgressEvent::Heartbeat {
                nodes,
                elapsed: self.elapsed(),
            });
            if let Some(probe) = &self.stats_probe {
                progress.emit(ProgressEvent::Stats {
                    stats: (probe.0)(),
                    elapsed: self.elapsed(),
                });
            }
        }
    }

    /// Announce the end of the search on the progress stream.
    pub(crate) fn finish(&self, status: SearchStatus) {
        if let Some(progress) = &self.progress {
            progress.emit(ProgressEvent::Finished { status });
        }
    }

    /// Wall-clock time since [`begin`](Lifecycle::begin) (zero if the
    /// lifecycle never began, e.g. in unit tests).
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.map(|s| s.elapsed()).unwrap_or_default()
    }

    /// A clone of the progress sender for a driver to emit incumbent
    /// events through.
    pub(crate) fn progress_sender(&self) -> Option<ProgressSender> {
        self.progress.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled());
        assert!(b.is_cancelled());
        b.cancel(); // idempotent
        assert!(a.is_cancelled());
    }

    #[test]
    fn child_tokens_inherit_ancestor_cancellation() {
        let root = CancelToken::new();
        let session = root.child();
        let leaf_a = session.child();
        let leaf_b = session.child();
        let other_session = root.child();

        // Cancelling a leaf stays local.
        leaf_a.cancel();
        assert!(leaf_a.is_cancelled());
        assert!(!leaf_b.is_cancelled());
        assert!(!session.is_cancelled());
        assert!(!root.is_cancelled());

        // Cancelling the session scope reaches every child under it…
        session.cancel();
        assert!(leaf_b.is_cancelled());
        assert!(session.is_cancelled());
        // …but not siblings of the scope or the root.
        assert!(!other_session.is_cancelled());
        assert!(!root.is_cancelled());

        // Cancelling the root reaches everything.
        root.cancel();
        assert!(other_session.is_cancelled());
        assert!(
            other_session.child().is_cancelled(),
            "late-born children observe it too"
        );
    }

    #[test]
    fn poll_observes_a_cancelled_parent_scope() {
        use crate::termination::StopCause;
        let scope = CancelToken::new();
        let mut lc = Lifecycle {
            cancel: Some(scope.child()),
            ..Lifecycle::inert()
        };
        lc.begin(None);
        let term = Termination::new(1);
        lc.poll(&term);
        assert_eq!(term.stop_cause(), None);
        scope.cancel();
        lc.poll(&term);
        assert_eq!(term.stop_cause(), Some(StopCause::Cancelled));
    }

    #[test]
    fn poll_raises_the_matching_stop_cause() {
        use crate::termination::StopCause;
        // Cancel token.
        let token = CancelToken::new();
        let mut lc = Lifecycle {
            cancel: Some(token.clone()),
            ..Lifecycle::inert()
        };
        lc.begin(None);
        let term = Termination::new(1);
        lc.poll(&term);
        assert_eq!(term.stop_cause(), None);
        token.cancel();
        lc.poll(&term);
        assert_eq!(term.stop_cause(), Some(StopCause::Cancelled));

        // Expired deadline.
        let mut lc = Lifecycle::inert();
        lc.begin(Some(Duration::ZERO));
        let term = Termination::new(1);
        lc.poll(&term);
        assert_eq!(term.stop_cause(), Some(StopCause::Deadline));

        // Future deadline does not fire.
        let mut lc = Lifecycle::inert();
        lc.begin(Some(Duration::from_secs(3600)));
        let term = Termination::new(1);
        lc.poll(&term);
        assert_eq!(term.stop_cause(), None);
    }

    #[test]
    fn poll_never_overrides_an_existing_stop() {
        use crate::termination::StopCause;
        let mut lc = Lifecycle::inert();
        lc.begin(Some(Duration::ZERO));
        let term = Termination::new(1);
        term.short_circuit();
        lc.poll(&term);
        assert_eq!(term.stop_cause(), Some(StopCause::ShortCircuit));
    }

    #[test]
    fn progress_stream_is_bounded_and_lossy() {
        let (tx, rx) = progress_channel(2);
        for nodes in [1u64, 2, 3] {
            tx.emit(ProgressEvent::Heartbeat {
                nodes,
                elapsed: Duration::ZERO,
            });
        }
        // Capacity 2: the third emit was dropped, not blocked on.
        assert_eq!(rx.dropped(), 1);
        let drained = rx.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(
            drained[0],
            ProgressEvent::Heartbeat {
                nodes: 1,
                elapsed: Duration::ZERO
            }
        );
        assert!(rx.try_next().is_none());
        assert!(rx.next_timeout(Duration::from_millis(1)).is_none());
    }

    /// The terminal `Finished` marker must survive a full channel: it is
    /// delivered through the guaranteed slot once the buffered (lossy)
    /// prefix has drained — and exactly once.
    #[test]
    fn finished_event_survives_a_full_channel() {
        let (tx, rx) = progress_channel(2);
        for nodes in [1u64, 2, 3] {
            tx.emit(ProgressEvent::Heartbeat {
                nodes,
                elapsed: Duration::ZERO,
            });
        }
        // The channel is full: this emit's channel send is dropped, but the
        // terminal slot keeps it.
        tx.emit(ProgressEvent::Finished {
            status: SearchStatus::DeadlineExceeded,
        });
        let drained = rx.drain();
        assert_eq!(
            drained.len(),
            3,
            "two heartbeats, then the slot-backed Finished"
        );
        assert_eq!(
            drained[2],
            ProgressEvent::Finished {
                status: SearchStatus::DeadlineExceeded
            }
        );
        assert!(rx.try_next().is_none(), "Finished is yielded exactly once");
        assert_eq!(rx.dropped(), 1, "the third heartbeat, not the Finished");
    }

    /// When the channel had room, the Finished event arrives through it —
    /// and the slot copy must not duplicate it.
    #[test]
    fn finished_event_is_not_duplicated_when_the_channel_had_room() {
        let (tx, rx) = progress_channel(8);
        tx.emit(ProgressEvent::Finished {
            status: SearchStatus::Complete,
        });
        assert_eq!(
            rx.try_next(),
            Some(ProgressEvent::Finished {
                status: SearchStatus::Complete
            })
        );
        assert!(rx.try_next().is_none());
        assert!(rx.next_timeout(Duration::from_millis(1)).is_none());
    }

    #[test]
    fn heartbeats_fire_on_the_stride() {
        let (tx, rx) = progress_channel(16);
        let mut lc = Lifecycle {
            progress: Some(tx),
            ..Lifecycle::inert()
        };
        lc.begin(None);
        let term = Termination::new(1);
        let mut local = LifecycleLocal::default();
        for _ in 0..(Lifecycle::HEARTBEAT_STRIDE * 2) {
            lc.on_step(&mut local, &term);
        }
        let events = rx.drain();
        assert_eq!(events.len(), 2, "one heartbeat per stride");
        match &events[1] {
            ProgressEvent::Heartbeat { nodes, .. } => {
                assert_eq!(*nodes, Lifecycle::HEARTBEAT_STRIDE * 2);
            }
            other => panic!("expected a heartbeat, got {other:?}"),
        }
    }

    /// With a stats probe attached, every heartbeat is followed by a
    /// `Stats` snapshot on the same lossy channel; without one (the plain
    /// facade, as in `heartbeats_fire_on_the_stride`) no `Stats` events
    /// appear at all.
    #[test]
    fn stats_heartbeats_piggyback_on_the_stride_when_probed() {
        use crate::metrics::RuntimeStats;
        let (tx, rx) = progress_channel(16);
        let mut lc = Lifecycle {
            progress: Some(tx),
            stats_probe: Some(StatsProbe(Arc::new(|| RuntimeStats {
                active_searches: 2,
                granted_workers: 4,
                ..RuntimeStats::default()
            }))),
            ..Lifecycle::inert()
        };
        lc.begin(None);
        let term = Termination::new(1);
        let mut local = LifecycleLocal::default();
        for _ in 0..(Lifecycle::HEARTBEAT_STRIDE * 2) {
            lc.on_step(&mut local, &term);
        }
        let events = rx.drain();
        assert_eq!(events.len(), 4, "heartbeat + stats per stride");
        match &events[1] {
            ProgressEvent::Stats { stats, .. } => {
                assert_eq!(stats.active_searches, 2);
                assert_eq!(stats.granted_workers, 4);
            }
            other => panic!("expected a stats snapshot, got {other:?}"),
        }
    }

    /// The first step of a worker must poll immediately: a pre-expired
    /// deadline or pre-pulled token is observed before any real work.
    #[test]
    fn the_first_step_polls_immediately() {
        use crate::termination::StopCause;
        let mut lc = Lifecycle::inert();
        lc.begin(Some(Duration::ZERO));
        let term = Termination::new(1);
        let mut local = LifecycleLocal::default();
        assert!(lc.on_step(&mut local, &term), "step 1 must poll");
        assert_eq!(term.stop_cause(), Some(StopCause::Deadline));
    }

    /// Bounded staleness of the adaptive stride: however far a quiet run has
    /// escalated the stride, a cancel pulled afterwards is observed within
    /// at most `MAX_POLL_STRIDE` further steps — and once observed, the
    /// stride collapses back to the floor.
    #[test]
    fn cancellation_staleness_is_bounded_by_the_max_stride() {
        let token = CancelToken::new();
        let mut lc = Lifecycle {
            cancel: Some(token.clone()),
            ..Lifecycle::inert()
        };
        lc.begin(None);
        let term = Termination::new(1);
        let mut local = LifecycleLocal::default();
        // A long quiet run escalates the stride to its ceiling.
        for _ in 0..10_000u32 {
            lc.on_step(&mut local, &term);
        }
        assert_eq!(term.stop_cause(), None);
        assert_eq!(local.stride, Lifecycle::MAX_POLL_STRIDE);
        token.cancel();
        let mut steps = 0u32;
        while !term.short_circuited() {
            lc.on_step(&mut local, &term);
            steps += 1;
            assert!(
                steps <= Lifecycle::MAX_POLL_STRIDE + 1,
                "cancel not observed within the stride ceiling"
            );
        }
        assert_eq!(local.stride, Lifecycle::MIN_POLL_STRIDE);
    }

    /// The per-step rule, checked on every step: a heartbeat on every
    /// `HEARTBEAT_STRIDE`-th step, then a poll once `until_poll` has run
    /// out.  The reference for `the_countdown_polls_and_heartbeats_on_the_per_step_rule`.
    #[derive(Default)]
    struct PerStepModel {
        steps: u64,
        until_poll: u32,
        stride: u32,
    }

    impl PerStepModel {
        fn on_step(&mut self, lc: &Lifecycle, term: &Termination) -> bool {
            self.steps += 1;
            if self.steps % Lifecycle::HEARTBEAT_STRIDE == 0 {
                lc.heartbeat();
            }
            if self.until_poll > 0 {
                self.until_poll -= 1;
                return false;
            }
            lc.poll(term);
            self.stride = if term.short_circuited() {
                Lifecycle::MIN_POLL_STRIDE
            } else {
                (self.stride * 2).clamp(Lifecycle::MIN_POLL_STRIDE, Lifecycle::MAX_POLL_STRIDE)
            };
            self.until_poll = self.stride;
            true
        }
    }

    /// The single countdown changes no observable: over 100 k+ steps with
    /// a progress sink and a stats probe, it polls, heartbeats and returns
    /// `true` on exactly the steps the per-step model does, before and
    /// after a cancel pulled at a seeded step.
    #[test]
    fn the_countdown_polls_and_heartbeats_on_the_per_step_rule() {
        use crate::metrics::RuntimeStats;
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // One probed lifecycle with its own stream, token and termination.
        let probed = || {
            let (tx, rx) = progress_channel(64);
            let token = CancelToken::new();
            let mut lc = Lifecycle {
                cancel: Some(token.clone()),
                progress: Some(tx),
                stats_probe: Some(StatsProbe(Arc::new(RuntimeStats::default))),
                ..Lifecycle::inert()
            };
            lc.begin(None);
            (lc, rx, token, Termination::new(1))
        };
        // What a step left on a stream, without the timestamps.
        let drained = |rx: &ProgressStream| -> Vec<String> {
            rx.drain()
                .into_iter()
                .map(|e| match e {
                    ProgressEvent::Heartbeat { nodes, .. } => format!("heartbeat {nodes}"),
                    ProgressEvent::Stats { .. } => "stats".to_string(),
                    other => format!("{other:?}"),
                })
                .collect()
        };
        let mut rng = SmallRng::seed_from_u64(0x11fe);
        for _ in 0..3 {
            let cancel_at = rng.gen_range(1..120_000u64);
            let (lc, rx, token, term) = probed();
            let (model_lc, model_rx, model_token, model_term) = probed();
            let mut local = LifecycleLocal::default();
            let mut model = PerStepModel::default();
            let (mut polls, mut heartbeats) = (0, 0);
            for step in 1..=130_000u64 {
                if step == cancel_at {
                    token.cancel();
                    model_token.cancel();
                }
                let polled = lc.on_step(&mut local, &term);
                let events = drained(&rx);
                assert_eq!(polled, model.on_step(&model_lc, &model_term), "step {step}");
                assert_eq!(events, drained(&model_rx), "step {step}");
                assert_eq!(term.stop_cause(), model_term.stop_cause(), "step {step}");
                polls += polled as u32;
                heartbeats += events.len();
            }
            assert_eq!(local.stride, model.stride);
            assert_eq!(term.stop_cause(), Some(StopCause::Cancelled));
            assert_eq!(
                heartbeats,
                2 * 15,
                "a heartbeat and a stats snapshot per stride"
            );
            assert!(polls > 130_000 / 512, "{polls} polls");
        }
    }

    #[test]
    fn search_status_display_and_completeness() {
        assert!(SearchStatus::Complete.is_complete());
        assert!(!SearchStatus::Cancelled.is_complete());
        assert!(!SearchStatus::DeadlineExceeded.is_complete());
        assert_eq!(SearchStatus::Cancelled.to_string(), "cancelled");
        assert_eq!(
            SearchStatus::DeadlineExceeded.to_string(),
            "deadline-exceeded"
        );
    }
}

/// [`CancelToken`] trees and the progress stream under the interleaving
/// model checker.
#[cfg(all(test, feature = "model-check"))]
mod model_check {
    use super::*;
    use std::sync::atomic::{AtomicBool as Witness, Ordering as StdOrdering};
    use yewpar_check::sched::{run, Config, Strategy};
    use yewpar_check::thread;

    /// A root is cancelled while a leaf is created under it: once the
    /// cancel happens-before a check, the leaf reports cancelled, whether
    /// it was created before, between or after the canceller's steps.
    #[test]
    fn an_ancestor_cancel_is_always_seen() {
        let saw_cancel = Arc::new(Witness::new(false));
        let witness = Arc::clone(&saw_cancel);
        let report = run("cancel", Strategy::Dfs, &Config::default(), move || {
            let root = CancelToken::new();
            let session = root.child();
            // Published after the cancel: a prober that sees it is ordered
            // after the cancel without touching the token's flags.
            let announced = Arc::new(AtomicU64::new(0));
            let canceller = {
                let announced = Arc::clone(&announced);
                thread::spawn_named("canceller", move || {
                    root.cancel();
                    announced.store(1, Ordering::Release);
                })
            };
            let prober = {
                let witness = Arc::clone(&witness);
                let session = session.clone();
                thread::spawn_named("prober", move || {
                    let leaf = session.child();
                    if announced.load(Ordering::Acquire) == 1 {
                        assert!(leaf.is_cancelled(), "a root cancel did not reach a leaf");
                        witness.store(true, StdOrdering::Relaxed);
                    }
                })
            };
            canceller.join();
            prober.join();
            assert!(
                session.is_cancelled(),
                "a root cancel did not reach its child"
            );
        });
        report.assert_ok();
        assert!(
            saw_cancel.load(StdOrdering::Relaxed),
            "no schedule saw the cancel"
        );
    }

    fn is_finished(event: &ProgressEvent) -> bool {
        matches!(event, ProgressEvent::Finished { .. })
    }

    fn push_unless_finished(events: &mut Vec<ProgressEvent>, event: ProgressEvent) {
        assert!(
            !events.last().is_some_and(is_finished),
            "event after Finished: {event:?}"
        );
        events.push(event);
    }

    /// A producer emits a heartbeat and then `Finished` while the consumer
    /// polls: nothing follows `Finished`, and every event arrives once.
    #[test]
    fn no_event_follows_finished() {
        let raced = Arc::new(Witness::new(false));
        let witness = Arc::clone(&raced);
        let report = run("progress", Strategy::Dfs, &Config::default(), move || {
            let (tx, stream) = progress_channel(4);
            let producer = thread::spawn_named("producer", move || {
                thread::yield_now();
                tx.emit(ProgressEvent::Heartbeat {
                    nodes: 1,
                    elapsed: Duration::ZERO,
                });
                tx.emit(ProgressEvent::Finished {
                    status: SearchStatus::Complete,
                });
            });
            let mut events = Vec::new();
            for _ in 0..2 {
                if let Some(event) = stream.try_next() {
                    push_unless_finished(&mut events, event);
                }
            }
            if events.iter().any(is_finished) {
                witness.store(true, StdOrdering::Relaxed);
            }
            producer.join();
            for event in stream.drain() {
                push_unless_finished(&mut events, event);
            }
            assert_eq!(
                events,
                [
                    ProgressEvent::Heartbeat {
                        nodes: 1,
                        elapsed: Duration::ZERO
                    },
                    ProgressEvent::Finished {
                        status: SearchStatus::Complete
                    }
                ]
            );
        });
        report.assert_ok();
        assert!(
            raced.load(StdOrdering::Relaxed),
            "no schedule delivered Finished to the racing consumer"
        );
    }
}
