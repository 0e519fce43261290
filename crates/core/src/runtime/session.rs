//! Sessions: cancellation scopes over groups of searches, with status
//! aggregation and worker quotas.

use crate::sync::{AtomicU64, Mutex, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::{Runtime, SearchHandle};
use crate::lifecycle::{CancelToken, SearchStatus};
use crate::objective::{Decide, Enumerate, Optimise};
use crate::params::SearchConfig;
use crate::skeleton::{DecideOutcome, EnumOutcome, OptimOutcome};

/// Per-session terminal-status counters (see [`Session::status`]), one
/// lock for all of them so every snapshot is consistent.
pub(super) type SessionState = Mutex<SessionStatus>;

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
    /// Record one search's terminal status (`None` = the search panicked).
    pub(super) fn record(&mut self, status: Option<SearchStatus>) {
        let counter = match status {
            Some(SearchStatus::Complete) => &mut self.complete,
            Some(SearchStatus::Cancelled) => &mut self.cancelled,
            Some(SearchStatus::DeadlineExceeded) => &mut self.deadline_exceeded,
            None => &mut self.panicked,
        };
        *counter += 1;
    }

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
    pub(super) runtime: &'rt Runtime,
    pub(super) scope: CancelToken,
    pub(super) state: Arc<SessionState>,
    /// Worker quota shared by every submission made through this session
    /// ([`Session::with_max_workers`]); `None` = uncapped.
    pub(super) quota: Option<Arc<SessionQuota>>,
    /// Drop cancels the scope unless the session was detached.
    pub(super) armed: bool,
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
        let mut status = *self.state.lock();
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

/// Per-session worker-quota accounting (see [`Session::with_max_workers`]):
/// the dispatcher holds a session's submissions back — and caps what it
/// shows the policy — so the session's total granted workers never exceed
/// the cap, and accumulates how long submissions sat quota-throttled.
#[derive(Debug, Default)]
pub(crate) struct SessionQuota {
    pub(super) max_workers: usize,
    throttled_ns: AtomicU64,
}

impl SessionQuota {
    pub(super) fn add_throttled(&self, held: Duration) {
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
