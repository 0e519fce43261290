//! Budget search coordination (the (spawn-budget) rule, paper Listing 4).
//!
//! Workers search their task sequentially until they have backtracked as
//! many times as the user-supplied budget allows.  A task that exhausts its
//! budget is assumed to hold a significant amount of work, so all of its
//! lowest-depth unexplored subtrees are spawned onto the worker's shard of
//! the sharded depth pool (in heuristic order) and the backtrack counter is
//! reset.  This implements asynchronous periodic load balancing similar to
//! the `mts` framework the paper cites.  All worker-loop machinery lives in
//! `crate::engine`; this module is only the per-step offload policy.

use std::time::Duration;

use crate::engine::{self, PoolSource, SpawnPolicy, StepEnv, WorkSource};
use crate::genstack::GenStack;
use crate::lifecycle::Lifecycle;
use crate::metrics::WorkerMetrics;
use crate::node::SearchProblem;
use crate::params::SearchConfig;
use crate::skeleton::driver::Driver;
use crate::termination::Termination;

/// Offload the lowest-depth unexplored subtrees after `budget` backtracks.
pub(crate) struct BudgetPolicy {
    budget: u64,
}

impl<P: SearchProblem, S: WorkSource<P>> SpawnPolicy<P, S> for BudgetPolicy {
    fn on_step(
        &self,
        env: &mut StepEnv<'_, P, S>,
        stack: &mut GenStack<'_, P>,
        task_backtracks: &mut u64,
    ) {
        if *task_backtracks >= self.budget {
            // Offload all unexplored subtrees at the lowest depth of this
            // task's stack, preserving heuristic order, then keep searching
            // with a fresh budget.
            env.spawn(&mut stack.split_lowest(true));
            *task_backtracks = 0;
        }
    }
}

/// Run the Budget coordination with the given backtrack budget.
pub(crate) fn run<P, D>(
    problem: &P,
    driver: &D,
    config: &SearchConfig,
    budget: u64,
    term: &Termination,
    lifecycle: &Lifecycle,
) -> (Vec<WorkerMetrics>, Duration)
where
    P: SearchProblem,
    D: Driver<P>,
{
    let workers = lifecycle.worker_count(config);
    // Shard the pool for every worker id an elastic grant could mint, not
    // just the initial count, so grown workers get their own shard.
    let capacity = lifecycle.worker_capacity(config);
    engine::run(
        problem,
        driver,
        workers,
        &PoolSource::traced(capacity, lifecycle.tracer.clone()),
        BudgetPolicy { budget },
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
        param: u64,
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

    /// Left-heavy irregular tree to force mid-task splitting.
    struct Skewed {
        depth: usize,
    }

    impl SearchProblem for Skewed {
        type Node = (usize, u32);
        type Gen<'a> = std::vec::IntoIter<(usize, u32)>;
        fn root(&self) -> (usize, u32) {
            (0, 0)
        }
        fn generator(&self, node: &(usize, u32)) -> Self::Gen<'_> {
            let (depth, kind) = *node;
            if depth >= self.depth {
                return vec![].into_iter();
            }
            // The leftmost child is "heavy" (kind 0 keeps branching), the
            // others are lighter.
            let width = if kind == 0 { 4 } else { 2 };
            (0..width)
                .map(|i| (depth + 1, i))
                .collect::<Vec<_>>()
                .into_iter()
        }
    }

    impl Enumerate for Skewed {
        type Value = Sum<u64>;
        fn value(&self, _n: &(usize, u32)) -> Sum<u64> {
            Sum(1)
        }
    }

    #[test]
    fn counts_match_sequential_for_various_budgets() {
        let p = Skewed { depth: 7 };
        let expected = crate::node::subtree_size(&p, &p.root());
        let cfg = SearchConfig {
            workers: 3,
            ..SearchConfig::default()
        };
        for budget in [1, 5, 50, 10_000] {
            let driver = EnumDriver::<Skewed>::new();
            let (metrics, _) = run_plain(&p, &driver, &cfg, budget);
            assert_eq!(driver.into_value(), Sum(expected), "budget={budget}");
            let total: u64 = metrics.iter().map(|m| m.nodes).sum();
            assert_eq!(total, expected);
        }
    }

    #[test]
    fn small_budget_spawns_more_tasks_than_large_budget() {
        let p = Skewed { depth: 7 };
        let cfg = SearchConfig {
            workers: 2,
            ..SearchConfig::default()
        };
        let spawns_for = |budget| {
            let driver = EnumDriver::<Skewed>::new();
            let (metrics, _) = run_plain(&p, &driver, &cfg, budget);
            metrics.iter().map(|m| m.spawns).sum::<u64>()
        };
        let small = spawns_for(2);
        let large = spawns_for(1_000_000);
        assert!(
            small > large,
            "budget 2 spawned {small}, budget 1e6 spawned {large}"
        );
        assert_eq!(
            large, 0,
            "a budget larger than the tree never triggers a spawn"
        );
    }
}
