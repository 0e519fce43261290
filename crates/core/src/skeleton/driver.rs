//! Search-type drivers: the node-processing rules of the semantics.
//!
//! A [`Driver`] encapsulates what happens when a worker visits a node — the
//! (accumulate), (strengthen)/(skip) and (prune)/(shortcircuit) rules of
//! Fig. 2 — independently of *how* the tree is traversed and split, which is
//! the coordination's job.  One driver exists per search type.

use std::time::Instant;

use parking_lot::Mutex;

use crate::genstack::Action;
use crate::knowledge::{BoundCache, Incumbent};
use crate::lifecycle::{ProgressEvent, ProgressSender};
use crate::monoid::Monoid;
use crate::node::SearchProblem;
use crate::objective::{Decide, Enumerate, Optimise};
use crate::trace::{TraceEvent, Tracer};

/// Shared helper: report a successful incumbent strengthening on the
/// progress stream and the flight recorder (no-ops without a subscriber /
/// with tracing off; the `Debug` rendering is only paid when a progress
/// sink is attached).  Incumbent updates come from whichever worker won
/// the strengthen race, so they are recorded on the shared control ring
/// rather than a per-worker ring.
fn emit_incumbent<S: std::fmt::Debug>(
    progress: &Option<(ProgressSender, Instant)>,
    tracer: &Tracer,
    version: u64,
    score: &S,
) {
    tracer.control(TraceEvent::IncumbentUpdate { version });
    if let Some((sender, started)) = progress {
        sender.emit(ProgressEvent::Incumbent {
            version,
            score: format!("{score:?}"),
            elapsed: started.elapsed(),
        });
    }
}

/// Node-processing behaviour of one search type.
pub(crate) trait Driver<P: SearchProblem>: Send + Sync {
    /// Per-worker mutable state (e.g. a partial accumulator or bound cache).
    type Partial: Send;

    /// Fresh per-worker state.
    fn new_partial(&self) -> Self::Partial;

    /// Process a node: update knowledge and decide whether to expand it.
    fn process(&self, problem: &P, node: &P::Node, partial: &mut Self::Partial) -> Action;

    /// Fold a worker's partial state into the global result when the worker
    /// finishes.
    fn merge(&self, partial: Self::Partial);
}

/// Enumeration: sum the objective of every node into the accumulator monoid.
pub(crate) struct EnumDriver<P: Enumerate> {
    total: Mutex<P::Value>,
}

impl<P: Enumerate> EnumDriver<P> {
    pub(crate) fn new() -> Self {
        EnumDriver {
            total: Mutex::new(P::Value::empty()),
        }
    }

    /// The final accumulated value (call after all workers have merged).
    pub(crate) fn into_value(self) -> P::Value {
        self.total.into_inner()
    }
}

impl<P: Enumerate> Driver<P> for EnumDriver<P> {
    type Partial = P::Value;

    fn new_partial(&self) -> P::Value {
        P::Value::empty()
    }

    fn process(&self, problem: &P, node: &P::Node, partial: &mut P::Value) -> Action {
        let current = std::mem::replace(partial, P::Value::empty());
        *partial = current.combine(problem.value(node));
        Action::Expand
    }

    fn merge(&self, partial: P::Value) {
        let mut total = self.total.lock();
        let current = std::mem::replace(&mut *total, P::Value::empty());
        *total = current.combine(partial);
    }
}

/// Optimisation: strengthen a shared incumbent and prune via the bound.
pub(crate) struct OptimDriver<P: Optimise> {
    incumbent: Incumbent<P::Node, P::Score>,
    /// Progress sink plus the moment it was armed (event timestamps).
    progress: Option<(ProgressSender, Instant)>,
    /// Flight recorder for incumbent-update events (off by default).
    tracer: Tracer,
}

impl<P: Optimise> OptimDriver<P> {
    /// A driver with no progress sink (unit tests; the skeleton facade
    /// always goes through [`with_progress`](OptimDriver::with_progress)).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn new() -> Self {
        Self::with_progress(None, Tracer::off())
    }

    /// A driver that reports incumbent improvements on `progress` and the
    /// flight recorder.
    pub(crate) fn with_progress(progress: Option<ProgressSender>, tracer: Tracer) -> Self {
        OptimDriver {
            incumbent: Incumbent::new(),
            progress: progress.map(|p| (p, Instant::now())),
            tracer,
        }
    }

    pub(crate) fn incumbent_updates(&self) -> u64 {
        self.incumbent.version()
    }

    pub(crate) fn into_best(self) -> Option<(P::Node, P::Score)> {
        self.incumbent.snapshot().map(|(s, n)| (n, s))
    }
}

impl<P: Optimise> Driver<P> for OptimDriver<P> {
    type Partial = BoundCache<P::Score>;

    fn new_partial(&self) -> Self::Partial {
        BoundCache::new()
    }

    fn process(&self, problem: &P, node: &P::Node, cache: &mut Self::Partial) -> Action {
        let score = problem.objective(node);
        // Cheap local check before contending on the shared incumbent.
        let locally_better = match cache.refresh(&self.incumbent) {
            Some(best) => score > *best,
            None => true,
        };
        if locally_better && self.incumbent.strengthen(score.clone(), node) {
            emit_incumbent(
                &self.progress,
                &self.tracer,
                self.incumbent.version(),
                &score,
            );
        }
        // Branch-and-bound pruning: if even the most optimistic completion of
        // this subtree cannot beat the incumbent, do not expand it.
        Action::by_bound(problem, node, |bound| {
            cache
                .refresh(&self.incumbent)
                .is_some_and(|best| bound <= best)
        })
    }

    fn merge(&self, _partial: Self::Partial) {}
}

/// Decision: optimisation over a bounded order that stops at the target.
pub(crate) struct DecideDriver<P: Decide> {
    incumbent: Incumbent<P::Node, P::Score>,
    target: P::Score,
    /// Progress sink plus the moment it was armed (event timestamps).
    progress: Option<(ProgressSender, Instant)>,
    /// Flight recorder for incumbent-update events (off by default).
    tracer: Tracer,
}

impl<P: Decide> DecideDriver<P> {
    /// A driver with no progress sink (unit tests; the skeleton facade
    /// always goes through [`with_progress`](DecideDriver::with_progress)).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn new(target: P::Score) -> Self {
        Self::with_progress(target, None, Tracer::off())
    }

    /// A driver that reports incumbent improvements on `progress` and the
    /// flight recorder.
    pub(crate) fn with_progress(
        target: P::Score,
        progress: Option<ProgressSender>,
        tracer: Tracer,
    ) -> Self {
        DecideDriver {
            incumbent: Incumbent::new(),
            target,
            progress: progress.map(|p| (p, Instant::now())),
            tracer,
        }
    }

    pub(crate) fn incumbent_updates(&self) -> u64 {
        self.incumbent.version()
    }

    /// The witness node, if the target was reached.
    pub(crate) fn into_witness(self) -> Option<P::Node> {
        match self.incumbent.snapshot() {
            Some((score, node)) if score >= self.target => Some(node),
            _ => None,
        }
    }
}

impl<P: Decide> Driver<P> for DecideDriver<P> {
    type Partial = BoundCache<P::Score>;

    fn new_partial(&self) -> Self::Partial {
        BoundCache::new()
    }

    fn process(&self, problem: &P, node: &P::Node, cache: &mut Self::Partial) -> Action {
        let score = problem.objective(node);
        if score >= self.target {
            if self.incumbent.strengthen(score.clone(), node) {
                emit_incumbent(
                    &self.progress,
                    &self.tracer,
                    self.incumbent.version(),
                    &score,
                );
            }
            return Action::ShortCircuit;
        }
        // Keep the incumbent up to date so the "best seen" is reported even
        // when the target is never reached (useful for diagnostics), and so
        // bound-based pruning below can also use it.
        let locally_better = match cache.refresh(&self.incumbent) {
            Some(best) => score > *best,
            None => true,
        };
        if locally_better && self.incumbent.strengthen(score.clone(), node) {
            emit_incumbent(
                &self.progress,
                &self.tracer,
                self.incumbent.version(),
                &score,
            );
        }
        // A subtree that cannot reach the target is useless to a decision
        // search even if it could improve the incumbent.
        Action::by_bound(problem, node, |bound| *bound < self.target)
    }

    fn merge(&self, _partial: Self::Partial) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::Sum;

    /// A path graph 0 -> 1 -> ... -> 9, objective = node value.
    struct Path;

    impl SearchProblem for Path {
        type Node = u32;
        type Gen<'a> = std::vec::IntoIter<u32>;
        fn root(&self) -> u32 {
            0
        }
        fn generator(&self, node: &u32) -> Self::Gen<'_> {
            if *node < 9 {
                vec![node + 1].into_iter()
            } else {
                vec![].into_iter()
            }
        }
    }

    impl Enumerate for Path {
        type Value = Sum<u64>;
        fn value(&self, _n: &u32) -> Sum<u64> {
            Sum(1)
        }
    }

    impl Optimise for Path {
        type Score = u32;
        fn objective(&self, node: &u32) -> u32 {
            *node
        }
        fn bound(&self, _node: &u32) -> Option<u32> {
            Some(9)
        }
    }

    impl Decide for Path {
        fn target(&self) -> u32 {
            5
        }
    }

    #[test]
    fn enum_driver_accumulates_and_merges() {
        let d = EnumDriver::<Path>::new();
        let mut a = d.new_partial();
        let mut b = d.new_partial();
        for n in 0..4 {
            d.process(&Path, &n, &mut a);
        }
        for n in 4..10 {
            d.process(&Path, &n, &mut b);
        }
        d.merge(a);
        d.merge(b);
        assert_eq!(d.into_value(), Sum(10));
    }

    #[test]
    fn optim_driver_tracks_maximum_and_prunes_dominated_bounds() {
        let d = OptimDriver::<Path>::new();
        let mut cache = d.new_partial();
        assert_eq!(d.process(&Path, &3, &mut cache), Action::Expand);
        assert_eq!(
            d.process(&Path, &9, &mut cache),
            Action::Prune,
            "bound 9 <= incumbent 9 prunes"
        );
        assert_eq!(d.incumbent_updates(), 2);
        assert_eq!(d.into_best(), Some((9, 9)));
    }

    #[test]
    fn decide_driver_short_circuits_at_target() {
        let d = DecideDriver::<Path>::new(5);
        let mut cache = d.new_partial();
        assert_eq!(d.process(&Path, &2, &mut cache), Action::Expand);
        assert_eq!(d.process(&Path, &7, &mut cache), Action::ShortCircuit);
        assert_eq!(d.into_witness(), Some(7));
    }

    #[test]
    fn decide_driver_without_witness_returns_none() {
        let d = DecideDriver::<Path>::new(100);
        let mut cache = d.new_partial();
        for n in 0..10 {
            assert_ne!(d.process(&Path, &n, &mut cache), Action::ShortCircuit);
        }
        assert_eq!(d.into_witness(), None);
    }

    /// A problem whose bound is below the decision target everywhere except
    /// the root: every child must be pruned.
    struct Hopeless;
    impl SearchProblem for Hopeless {
        type Node = u32;
        type Gen<'a> = std::vec::IntoIter<u32>;
        fn root(&self) -> u32 {
            0
        }
        fn generator(&self, node: &u32) -> Self::Gen<'_> {
            if *node == 0 {
                vec![1, 2, 3].into_iter()
            } else {
                vec![].into_iter()
            }
        }
    }
    impl Optimise for Hopeless {
        type Score = u32;
        fn objective(&self, n: &u32) -> u32 {
            *n
        }
        fn bound(&self, _n: &u32) -> Option<u32> {
            Some(3)
        }
    }
    impl Decide for Hopeless {
        fn target(&self) -> u32 {
            10
        }
    }

    #[test]
    fn decide_driver_prunes_subtrees_that_cannot_reach_target() {
        let d = DecideDriver::<Hopeless>::new(10);
        let mut cache = d.new_partial();
        assert_eq!(d.process(&Hopeless, &0, &mut cache), Action::Prune);
        assert_eq!(d.into_witness(), None);
    }
}
