//! Instance wrappers shared by the integration tests: each constructs an
//! interleaving at a chosen expansion instead of racing a timer against
//! the scheduler.  The root is always scored before it is expanded, so an
//! optimisation interrupted at its first expansion holds an incumbent by
//! construction.

// Each test crate that declares `mod common;` uses its own subset.
#![allow(dead_code)]

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use yewpar::CancelToken;

/// An instance wrapper that truncates a search by construction: its `k`-th
/// expansion parks the expanding worker for one whole deadline budget.  The
/// deadline clock starts before the first expansion, so the budget has
/// provably run out when the worker resumes, and that worker observes it at
/// its next poll (at most one poll stride later, or between tasks) — the
/// outcome is `DeadlineExceeded` however fast the machine is.
pub struct ParkAtExpansion<P> {
    inner: P,
    park_at: u64,
    budget: Duration,
    expansions: std::sync::atomic::AtomicU64,
}

impl<P> ParkAtExpansion<P> {
    pub fn new(inner: P, park_at: u64, budget: Duration) -> Self {
        ParkAtExpansion {
            inner,
            park_at,
            budget,
            expansions: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl<P: yewpar::SearchProblem> yewpar::SearchProblem for ParkAtExpansion<P> {
    type Node = P::Node;
    type Gen<'a>
        = P::Gen<'a>
    where
        P: 'a;
    fn root(&self) -> P::Node {
        self.inner.root()
    }
    fn generator(&self, node: &P::Node) -> Self::Gen<'_> {
        let nth = self
            .expansions
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        if nth == self.park_at {
            std::thread::sleep(self.budget);
        }
        self.inner.generator(node)
    }
}

impl<P: yewpar::Optimise> yewpar::Optimise for ParkAtExpansion<P> {
    type Score = P::Score;
    fn objective(&self, node: &P::Node) -> P::Score {
        self.inner.objective(node)
    }
    fn bound(&self, node: &P::Node) -> Option<P::Score> {
        self.inner.bound(node)
    }
    fn prune_level(&self) -> yewpar::PruneLevel {
        self.inner.prune_level()
    }
}

/// An instance wrapper that cancels its own search from inside: every
/// expansion pulls `token` (only the first pull has an effect).  The root
/// is scored before it is expanded, so a cancelled optimisation holds an
/// incumbent by construction, and no watchdog thread races the root task.
pub struct CancelAtExpansion<P> {
    inner: P,
    token: CancelToken,
}

impl<P> CancelAtExpansion<P> {
    pub fn new(inner: P, token: CancelToken) -> Self {
        CancelAtExpansion { inner, token }
    }
}

impl<P: yewpar::SearchProblem> yewpar::SearchProblem for CancelAtExpansion<P> {
    type Node = P::Node;
    type Gen<'a>
        = P::Gen<'a>
    where
        P: 'a;
    fn root(&self) -> P::Node {
        self.inner.root()
    }
    fn generator(&self, node: &P::Node) -> Self::Gen<'_> {
        self.token.cancel();
        self.inner.generator(node)
    }
}

impl<P: yewpar::Enumerate> yewpar::Enumerate for CancelAtExpansion<P> {
    type Value = P::Value;
    fn value(&self, node: &P::Node) -> P::Value {
        self.inner.value(node)
    }
}

impl<P: yewpar::Optimise> yewpar::Optimise for CancelAtExpansion<P> {
    type Score = P::Score;
    fn objective(&self, node: &P::Node) -> P::Score {
        self.inner.objective(node)
    }
    fn bound(&self, node: &P::Node) -> Option<P::Score> {
        self.inner.bound(node)
    }
    fn prune_level(&self) -> yewpar::PruneLevel {
        self.inner.prune_level()
    }
}

impl<P: yewpar::Decide> yewpar::Decide for CancelAtExpansion<P> {
    fn target(&self) -> P::Score {
        self.inner.target()
    }
}

/// A one-shot gate: [`open`](Latch::open) releases every current and
/// future [`wait`](Latch::wait).
#[derive(Default)]
pub struct Latch {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Latch {
    pub fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    pub fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }
}

/// An instance wrapper that opens `latch` at every expansion (only the
/// first opening has an effect), so a thread waiting on it acts while the
/// search is running and after its root was scored.
pub struct OpenAtExpansion<P> {
    inner: P,
    latch: Arc<Latch>,
}

impl<P> OpenAtExpansion<P> {
    pub fn new(inner: P, latch: Arc<Latch>) -> Self {
        OpenAtExpansion { inner, latch }
    }
}

impl<P: yewpar::SearchProblem> yewpar::SearchProblem for OpenAtExpansion<P> {
    type Node = P::Node;
    type Gen<'a>
        = P::Gen<'a>
    where
        P: 'a;
    fn root(&self) -> P::Node {
        self.inner.root()
    }
    fn generator(&self, node: &P::Node) -> Self::Gen<'_> {
        self.latch.open();
        self.inner.generator(node)
    }
}

impl<P: yewpar::Optimise> yewpar::Optimise for OpenAtExpansion<P> {
    type Score = P::Score;
    fn objective(&self, node: &P::Node) -> P::Score {
        self.inner.objective(node)
    }
    fn bound(&self, node: &P::Node) -> Option<P::Score> {
        self.inner.bound(node)
    }
    fn prune_level(&self) -> yewpar::PruneLevel {
        self.inner.prune_level()
    }
}
