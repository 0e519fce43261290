//! Distributed termination detection and global short-circuiting.
//!
//! The parallel coordinations need to know when the whole search has
//! finished: the search is complete when every spawned task has been fully
//! explored and no worker holds work (the semantics' final configuration
//! `⟨σ, [], ⊥, …, ⊥⟩`).  [`Termination`] implements this with a single
//! outstanding-task counter: the counter is incremented *before* a task
//! becomes visible to other workers (pushed to a pool or handed to a thief)
//! and decremented when the task's subtree has been fully explored, so it
//! can only reach zero once no task exists anywhere in the system.
//!
//! Decision searches additionally short-circuit: the first worker to witness
//! the target sets a global stop flag (the (shortcircuit) rule) that all
//! loops poll.
//!
//! Since the anytime-search lifecycle redesign the stop flag also carries a
//! *cause*: a search can stop because a decision target was witnessed (the
//! classic short-circuit), because an external [`CancelToken`] was pulled, or
//! because a [`SearchConfig::deadline`] expired.  All three unwind through
//! the same stop-flag machinery (workers exit their loops, queued tasks are
//! drained), but the cause survives so the outcome can report an honest
//! [`SearchStatus`].
//!
//! [`CancelToken`]: crate::lifecycle::CancelToken
//! [`SearchConfig::deadline`]: crate::params::SearchConfig::deadline
//! [`SearchStatus`]: crate::lifecycle::SearchStatus

use crate::sync::{AtomicBool, AtomicU64, AtomicU8, Ordering};

/// Why a search's global stop flag was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// A decision target was witnessed (the (shortcircuit) rule) — the
    /// search finished *meaningfully*, it did not fail to complete.
    ShortCircuit,
    /// An external [`CancelToken`](crate::lifecycle::CancelToken) was pulled.
    Cancelled,
    /// The configured wall-clock deadline expired.
    Deadline,
}

/// Shared termination state for one skeleton execution.
#[derive(Debug, Default)]
pub struct Termination {
    outstanding: AtomicU64,
    done: AtomicBool,
    stop: AtomicBool,
    /// 0 = no cause recorded; 1/2/3 = the `StopCause` variants in order.
    /// First writer wins: a deadline firing a microsecond after a genuine
    /// short-circuit must not masquerade the completed search as timed out.
    cause: AtomicU8,
}

impl Termination {
    /// Create termination state with `initial` outstanding tasks.
    pub fn new(initial: u64) -> Self {
        Termination {
            outstanding: AtomicU64::new(initial),
            done: AtomicBool::new(initial == 0),
            stop: AtomicBool::new(false),
            cause: AtomicU8::new(0),
        }
    }

    /// Register `n` newly spawned tasks.  Must be called before the tasks
    /// become visible to any other worker.
    pub fn task_spawned(&self, n: u64) {
        if n > 0 {
            self.outstanding.fetch_add(n, Ordering::AcqRel);
        }
    }

    /// Register the completion of one task.  Returns `true` if this was the
    /// last outstanding task (the caller observed global completion).
    pub fn task_completed(&self) -> bool {
        let prev = self.outstanding.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "task_completed called with no outstanding task");
        if prev == 1 {
            self.done.store(true, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Register the disposal of `n` tasks that were spawned but will never
    /// run — a workpool purge or a post-short-circuit clear.  Every spawned
    /// task must be accounted exactly once, either by [`task_completed`]
    /// (after running) or here (when discarded), otherwise the outstanding
    /// counter never drains and [`all_done`] stays false forever.
    ///
    /// [`task_completed`]: Termination::task_completed
    /// [`all_done`]: Termination::all_done
    pub fn tasks_discarded(&self, n: u64) {
        if n == 0 {
            return;
        }
        let prev = self.outstanding.fetch_sub(n, Ordering::AcqRel);
        debug_assert!(
            prev >= n,
            "tasks_discarded({n}) with only {prev} outstanding tasks"
        );
        if prev == n {
            self.done.store(true, Ordering::Release);
        }
    }

    /// Number of outstanding (spawned but not yet completed) tasks.
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Acquire)
    }

    /// True once every task has completed.
    pub fn all_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Request a global short-circuit (decision target found).
    pub fn short_circuit(&self) {
        self.stop_with(StopCause::ShortCircuit);
    }

    /// Raise the stop flag for an *external* reason — a pulled cancel token
    /// or an expired deadline.  Unwinds exactly like a short-circuit (every
    /// loop polls the same flag) but records the cause so the outcome's
    /// status can distinguish "found the answer" from "gave up".
    pub fn stop_external(&self, cause: StopCause) {
        self.stop_with(cause);
    }

    fn stop_with(&self, cause: StopCause) {
        let code = match cause {
            StopCause::ShortCircuit => 1,
            StopCause::Cancelled => 2,
            StopCause::Deadline => 3,
        };
        // Record the cause before raising the flag so any reader that
        // observes `stop` also observes a cause; first cause wins.
        let _ = self
            .cause
            .compare_exchange(0, code, Ordering::AcqRel, Ordering::Acquire);
        self.stop.store(true, Ordering::Release);
    }

    /// Why the stop flag was raised, if it was.
    pub fn stop_cause(&self) -> Option<StopCause> {
        if !self.stop.load(Ordering::Acquire) {
            return None;
        }
        match self.cause.load(Ordering::Acquire) {
            2 => Some(StopCause::Cancelled),
            3 => Some(StopCause::Deadline),
            // 0 can only be observed in the sliver between a racing
            // `compare_exchange` and `store`; classify it as the benign
            // default rather than inventing an external stop.
            _ => Some(StopCause::ShortCircuit),
        }
    }

    /// True if the stop flag was raised for an external reason (cancel token
    /// or deadline) rather than a decision short-circuit.  Workers use this
    /// to report a cancelled task flow instead of a witness-bearing
    /// short-circuit flow when they unwind.
    pub fn stopped_externally(&self) -> bool {
        matches!(
            self.stop_cause(),
            Some(StopCause::Cancelled) | Some(StopCause::Deadline)
        )
    }

    /// True if a short-circuit (or external stop) has been requested.
    pub fn short_circuited(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// True if workers should stop looking for work, either because the
    /// search completed or because it was short-circuited.
    pub fn finished(&self) -> bool {
        self.all_done() || self.short_circuited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn zero_initial_tasks_is_immediately_done() {
        let t = Termination::new(0);
        assert!(t.all_done());
        assert!(t.finished());
    }

    #[test]
    fn completion_of_last_task_sets_done() {
        let t = Termination::new(1);
        assert!(!t.all_done());
        t.task_spawned(2);
        assert_eq!(t.outstanding(), 3);
        assert!(!t.task_completed());
        assert!(!t.task_completed());
        assert!(t.task_completed());
        assert!(t.all_done());
    }

    #[test]
    fn short_circuit_finishes_without_draining() {
        let t = Termination::new(5);
        assert!(!t.finished());
        t.short_circuit();
        assert!(t.short_circuited());
        assert!(t.finished());
        assert!(!t.all_done());
    }

    #[test]
    fn spawning_zero_tasks_is_a_noop() {
        let t = Termination::new(1);
        t.task_spawned(0);
        assert_eq!(t.outstanding(), 1);
    }

    #[test]
    fn discarding_tasks_drains_like_completing_them() {
        let t = Termination::new(1);
        t.task_spawned(4);
        assert_eq!(t.outstanding(), 5);
        t.tasks_discarded(0);
        assert_eq!(t.outstanding(), 5, "discarding zero tasks is a no-op");
        t.tasks_discarded(3);
        assert_eq!(t.outstanding(), 2);
        assert!(!t.all_done());
        assert!(!t.task_completed());
        t.tasks_discarded(1);
        assert!(t.all_done(), "the last discard must set done");
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn stop_cause_is_first_writer_wins() {
        let t = Termination::new(1);
        assert_eq!(t.stop_cause(), None);
        assert!(!t.stopped_externally());
        t.short_circuit();
        assert_eq!(t.stop_cause(), Some(StopCause::ShortCircuit));
        // A later external stop must not overwrite the genuine short-circuit.
        t.stop_external(StopCause::Deadline);
        assert_eq!(t.stop_cause(), Some(StopCause::ShortCircuit));
        assert!(!t.stopped_externally());
    }

    #[test]
    fn external_stop_raises_the_flag_with_its_cause() {
        for (cause, expect_external) in [
            (StopCause::Cancelled, true),
            (StopCause::Deadline, true),
            (StopCause::ShortCircuit, false),
        ] {
            let t = Termination::new(3);
            t.stop_external(cause);
            assert!(t.short_circuited());
            assert!(t.finished());
            assert_eq!(t.stop_cause(), Some(cause));
            assert_eq!(t.stopped_externally(), expect_external);
        }
    }

    #[test]
    fn concurrent_spawn_complete_balance() {
        let t = Arc::new(Termination::new(1));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        t.task_spawned(1);
                        t.task_completed();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.outstanding(), 1);
        assert!(!t.all_done());
        t.task_completed();
        assert!(t.all_done());
    }
}

/// [`Termination`] itself under the interleaving model checker.
#[cfg(all(test, feature = "model-check"))]
mod model_check {
    use super::*;
    use std::sync::atomic::{AtomicBool as Witness, Ordering as StdOrdering};
    use std::sync::Arc;
    use yewpar_check::sched::{run, Config, Strategy};
    use yewpar_check::thread;

    /// A worker spawns and completes tasks while a watcher polls: a watcher
    /// that sees `all_done` also sees `outstanding() == 0`.
    #[test]
    fn done_implies_nothing_outstanding() {
        let saw_done = Arc::new(Witness::new(false));
        let witness = Arc::clone(&saw_done);
        let report = run(
            "termination",
            Strategy::Dfs,
            &Config::default(),
            move || {
                let term = Arc::new(Termination::new(1));
                let worker = {
                    let term = Arc::clone(&term);
                    thread::spawn_named("worker", move || {
                        term.task_spawned(1);
                        term.task_completed();
                        term.task_completed();
                    })
                };
                let watcher = {
                    let term = Arc::clone(&term);
                    let witness = Arc::clone(&witness);
                    thread::spawn_named("watcher", move || {
                        if term.all_done() {
                            let outstanding = term.outstanding();
                            assert_eq!(outstanding, 0, "done seen with {outstanding} outstanding");
                            witness.store(true, StdOrdering::Relaxed);
                        }
                    })
                };
                worker.join();
                watcher.join();
                assert!(term.all_done(), "every task completed but done is unset");
            },
        );
        report.assert_ok();
        assert!(saw_done.load(StdOrdering::Relaxed), "no schedule saw done");
    }
}
