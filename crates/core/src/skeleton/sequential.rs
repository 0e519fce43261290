//! Sequential search coordination (paper Listing 2).
//!
//! The degenerate instance of the unified engine (`crate::engine`): one
//! worker, a work source holding exactly the root task, and a policy that
//! never spawns.  The engine's generic task loop then *is* the classic
//! depth-first traversal over a stack of lazy node generators.

use std::time::Duration;

use crate::engine::{self, NoSpawn, RootSource};
use crate::lifecycle::Lifecycle;
use crate::metrics::WorkerMetrics;
use crate::node::SearchProblem;
use crate::skeleton::driver::Driver;
use crate::termination::Termination;

/// Run the Sequential skeleton: explore the whole tree in a single worker.
pub(crate) fn run<P, D>(
    problem: &P,
    driver: &D,
    term: &Termination,
    lifecycle: &Lifecycle,
) -> (Vec<WorkerMetrics>, Duration)
where
    P: SearchProblem,
    D: Driver<P>,
{
    engine::run(
        problem,
        driver,
        1,
        &RootSource::new(),
        NoSpawn,
        term,
        lifecycle,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::Sum;
    use crate::objective::{Decide, Enumerate, Optimise};
    use crate::skeleton::driver::{DecideDriver, EnumDriver, OptimDriver};

    fn run_plain<P, D>(problem: &P, driver: &D) -> (Vec<WorkerMetrics>, Duration)
    where
        P: SearchProblem,
        D: Driver<P>,
    {
        run(problem, driver, &Termination::new(1), &Lifecycle::inert())
    }

    /// Complete binary tree of a fixed depth; node = (depth, label).
    struct Bin {
        depth: usize,
    }

    impl SearchProblem for Bin {
        type Node = (usize, u64);
        type Gen<'a> = std::vec::IntoIter<(usize, u64)>;
        fn root(&self) -> (usize, u64) {
            (0, 1)
        }
        fn generator(&self, node: &(usize, u64)) -> Self::Gen<'_> {
            if node.0 < self.depth {
                vec![(node.0 + 1, node.1 * 2), (node.0 + 1, node.1 * 2 + 1)].into_iter()
            } else {
                vec![].into_iter()
            }
        }
    }

    impl Enumerate for Bin {
        type Value = Sum<u64>;
        fn value(&self, _n: &(usize, u64)) -> Sum<u64> {
            Sum(1)
        }
    }

    impl Optimise for Bin {
        type Score = u64;
        fn objective(&self, node: &(usize, u64)) -> u64 {
            node.1
        }
    }

    impl Decide for Bin {
        fn target(&self) -> u64 {
            6
        }
    }

    #[test]
    fn sequential_counts_complete_binary_tree() {
        let p = Bin { depth: 10 };
        let driver = EnumDriver::<Bin>::new();
        let (metrics, _) = run_plain(&p, &driver);
        assert_eq!(driver.into_value(), Sum(2u64.pow(11) - 1));
        assert_eq!(metrics[0].nodes, 2u64.pow(11) - 1);
        assert_eq!(metrics[0].max_depth, 10);
        assert!(metrics[0].backtracks > 0);
    }

    #[test]
    fn sequential_finds_the_maximum_label() {
        let p = Bin { depth: 6 };
        let driver = OptimDriver::<Bin>::new();
        let (_, _) = run_plain(&p, &driver);
        // Deepest-rightmost label is 2^(d+1) - 1.
        assert_eq!(driver.into_best().map(|(_, s)| s), Some(2u64.pow(7) - 1));
    }

    #[test]
    fn sequential_decision_short_circuits_before_visiting_everything() {
        let p = Bin { depth: 12 };
        let driver = DecideDriver::<Bin>::new(6);
        let (metrics, _) = run_plain(&p, &driver);
        let witness = driver.into_witness().expect("label 6 exists in the tree");
        assert!(witness.1 >= 6);
        // Label 6 is found on the left-ish side of the tree quickly: the
        // short-circuit must avoid exploring the vast majority of nodes.
        assert!(
            metrics[0].nodes < 100,
            "expected early termination, visited {} nodes",
            metrics[0].nodes
        );
    }

    #[test]
    fn sequential_never_spawns_or_steals() {
        let p = Bin { depth: 8 };
        let driver = EnumDriver::<Bin>::new();
        let (metrics, _) = run_plain(&p, &driver);
        assert_eq!(metrics[0].spawns, 0);
        assert_eq!(metrics[0].steals, 0);
    }
}
