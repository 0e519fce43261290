//! Depth-Bounded search coordination (the (spawn-depth) rule).
//!
//! Every node shallower than the cutoff depth has its children converted to
//! tasks, queued in heuristic order on the worker's own shard of the sharded
//! depth pool; nodes at or below the cutoff are explored sequentially by the
//! worker that picked them up.  Spawns happen as tasks execute (not all
//! up-front), just as in the YewPar implementation.  All worker-loop
//! machinery lives in `crate::engine`; this module is only the eager spawn
//! policy.

use std::time::Duration;

use crate::engine::{self, PoolSource, SpawnPolicy, WorkSource};
use crate::lifecycle::Lifecycle;
use crate::metrics::WorkerMetrics;
use crate::node::SearchProblem;
use crate::params::SearchConfig;
use crate::skeleton::driver::Driver;
use crate::termination::Termination;

/// Spawn the children of every node shallower than `dcutoff`.
pub(crate) struct DepthPolicy {
    dcutoff: usize,
}

impl<P: SearchProblem, S: WorkSource<P>> SpawnPolicy<P, S> for DepthPolicy {
    fn spawn_children(&self, depth: usize) -> bool {
        depth < self.dcutoff
    }
}

/// Run the Depth-Bounded coordination with the given cutoff depth.
pub(crate) fn run<P, D>(
    problem: &P,
    driver: &D,
    config: &SearchConfig,
    dcutoff: usize,
    term: &Termination,
    lifecycle: &Lifecycle,
) -> (Vec<WorkerMetrics>, Duration)
where
    P: SearchProblem,
    D: Driver<P>,
{
    let workers = lifecycle.worker_count(config);
    // Shard the pool for every worker id a runtime grant could mint, not
    // just the initial count, so grown workers get their own shard.
    let capacity = lifecycle.worker_capacity(config);
    engine::run(
        problem,
        driver,
        workers,
        &PoolSource::traced(capacity, lifecycle.tracer.clone()),
        DepthPolicy { dcutoff },
        term,
        lifecycle,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::Sum;
    use crate::objective::Enumerate;
    use crate::skeleton::driver::EnumDriver;

    fn run_plain<P, D>(
        problem: &P,
        driver: &D,
        config: &SearchConfig,
        param: usize,
    ) -> (Vec<WorkerMetrics>, Duration)
    where
        P: SearchProblem,
        D: Driver<P>,
    {
        run(
            problem,
            driver,
            config,
            param,
            &Termination::new(1),
            &Lifecycle::inert(),
        )
    }

    struct Fanout {
        depth: usize,
        width: usize,
    }

    impl SearchProblem for Fanout {
        type Node = usize;
        type Gen<'a> = std::vec::IntoIter<usize>;
        fn root(&self) -> usize {
            0
        }
        fn generator(&self, node: &usize) -> Self::Gen<'_> {
            if *node < self.depth {
                vec![node + 1; self.width].into_iter()
            } else {
                vec![].into_iter()
            }
        }
    }

    impl Enumerate for Fanout {
        type Value = Sum<u64>;
        fn value(&self, _n: &usize) -> Sum<u64> {
            Sum(1)
        }
    }

    fn expected_nodes(depth: usize, width: usize) -> u64 {
        (0..=depth).map(|d| (width as u64).pow(d as u32)).sum()
    }

    #[test]
    fn counts_match_for_various_cutoffs() {
        let p = Fanout { depth: 5, width: 3 };
        let cfg = SearchConfig {
            workers: 3,
            ..SearchConfig::default()
        };
        for dcutoff in [0, 1, 2, 5, 10] {
            let driver = EnumDriver::<Fanout>::new();
            let (metrics, _) = run_plain(&p, &driver, &cfg, dcutoff);
            assert_eq!(
                driver.into_value(),
                Sum(expected_nodes(5, 3)),
                "dcutoff={dcutoff}"
            );
            let total: u64 = metrics.iter().map(|m| m.nodes).sum();
            assert_eq!(total, expected_nodes(5, 3));
        }
    }

    #[test]
    fn cutoff_zero_spawns_nothing() {
        let p = Fanout { depth: 4, width: 2 };
        let cfg = SearchConfig {
            workers: 2,
            ..SearchConfig::default()
        };
        let driver = EnumDriver::<Fanout>::new();
        let (metrics, _) = run_plain(&p, &driver, &cfg, 0);
        assert_eq!(metrics.iter().map(|m| m.spawns).sum::<u64>(), 0);
        assert_eq!(driver.into_value(), Sum(expected_nodes(4, 2)));
    }

    #[test]
    fn deep_cutoff_spawns_every_internal_node_expansion() {
        let p = Fanout { depth: 3, width: 2 };
        let cfg = SearchConfig {
            workers: 2,
            ..SearchConfig::default()
        };
        let driver = EnumDriver::<Fanout>::new();
        let (metrics, _) = run_plain(&p, &driver, &cfg, 100);
        // Every node except the root is spawned as a task.
        assert_eq!(
            metrics.iter().map(|m| m.spawns).sum::<u64>(),
            expected_nodes(3, 2) - 1
        );
        assert_eq!(driver.into_value(), Sum(expected_nodes(3, 2)));
    }
}
