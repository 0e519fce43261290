//! Search handles: the anytime interface to one submitted search.

use crate::sync::{AtomicBool, Ordering};
use std::panic::resume_unwind;
use std::sync::{Arc, Condvar, Mutex};

use crate::lifecycle::{CancelToken, ProgressStream};

/// Result slot shared between a runtime job and its [`SearchHandle`].
pub(super) struct HandleState<T> {
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
    pub(super) fn new() -> Self {
        HandleState {
            slot: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
            finished: AtomicBool::new(false),
        }
    }

    pub(super) fn complete(&self, outcome: Result<T, Box<dyn std::any::Any + Send>>) {
        let mut slot = self.slot.lock().expect("handle lock");
        *slot = match outcome {
            Ok(value) => SlotState::Done(value),
            Err(payload) => SlotState::Panicked(payload),
        };
        self.finished.store(true, Ordering::Release);
        self.ready.notify_all();
    }
}

/// A non-blocking handle to a search submitted to a [`Runtime`](super::Runtime).
///
/// The handle is the search's *anytime* interface: poll it with
/// [`try_result`](SearchHandle::try_result) / [`is_finished`](SearchHandle::is_finished),
/// block on it with [`wait`](SearchHandle::wait), stop it from any thread
/// with [`cancel`](SearchHandle::cancel), and observe it mid-run through
/// [`progress`](SearchHandle::progress).  Dropping the handle detaches the
/// search (it keeps running to its natural end); cancel first if the work
/// is no longer wanted.
pub struct SearchHandle<T> {
    pub(super) id: u64,
    pub(super) state: Arc<HandleState<T>>,
    pub(super) progress: ProgressStream,
    pub(super) cancel: CancelToken,
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
    /// poll and resolves with [`SearchStatus::Cancelled`](crate::lifecycle::SearchStatus::Cancelled), carrying the
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
