//! Replicability of the Ordered coordination: on a fixed instance, the
//! number of node expansions of a decision search must be *identical* across
//! worker counts (1, 2, 4, 8) and across repeated runs — the anomaly-free
//! property exact-search practitioners need for benchmarking.  Speculative
//! work may vary run to run, but it is reported separately
//! (`speculative_nodes`) and never pollutes the committed `nodes` count.
//!
//! For problems with node-level pruning the committed count additionally
//! equals the Sequential skeleton's count, because a single ordered worker
//! replays depth-first preorder exactly.  (Problems with *sibling*-level
//! pruning, like k-clique, lose sibling prunes above the spawn frontier —
//! the same well-known effect as Depth-Bounded — so there the guarantee is
//! replicability, not equality with Sequential.)

use yewpar::monoid::Sum;
use yewpar::{Coordination, Decide, Enumerate, Optimise, SearchProblem, Skeleton};
use yewpar_apps::irregular::Irregular as IrregularTree;
use yewpar_apps::kclique::KClique;
use yewpar_instances::graph;
use yewpar_sim::{simulate_decide, SimConfig};

#[test]
fn kclique_decision_expansions_are_identical_across_worker_counts() {
    let g = graph::planted_clique(40, 0.4, 10, 99);
    for (k, expected) in [(10, true), (16, false)] {
        let p = KClique::new(g.clone(), k);
        let reference = Skeleton::new(Coordination::ordered(3))
            .workers(1)
            .decide(&p);
        assert_eq!(reference.found(), expected, "k={k}");
        assert_eq!(
            reference.metrics.totals.priority_inversions, 0,
            "one worker can never run ahead of itself"
        );
        assert_eq!(reference.metrics.totals.speculative_nodes, 0);
        // The committed expansion count must be identical at every worker
        // count, across repeated runs.
        for workers in [2usize, 4, 8] {
            for run in 0..2 {
                let out = Skeleton::new(Coordination::ordered(3))
                    .workers(workers)
                    .decide(&p);
                assert_eq!(out.found(), expected, "k={k} workers={workers} run={run}");
                assert_eq!(
                    out.metrics.nodes(),
                    reference.metrics.nodes(),
                    "k={k} workers={workers} run={run}: node expansions diverged"
                );
            }
        }
    }
}

/// The simulated Ordered pool carries the same replicability guarantee as
/// the threaded one: committed decision node counts are identical across
/// simulated worker counts and — because each task's trace is a pure
/// function of the task — identical to the *threaded* Ordered skeleton on
/// the same instance and spawn depth.
#[test]
fn simulated_ordered_decision_expansions_match_the_threaded_engine() {
    let g = graph::planted_clique(36, 0.4, 9, 99);
    for (k, expected) in [(9, true), (14, false)] {
        let p = KClique::new(g.clone(), k);
        let threaded = Skeleton::new(Coordination::ordered(3))
            .workers(1)
            .decide(&p);
        assert_eq!(threaded.found(), expected, "k={k}");
        for (localities, wpl) in [(1usize, 1usize), (1, 2), (2, 2), (2, 4)] {
            let cfg = SimConfig::new(Coordination::ordered(3), localities, wpl);
            let out = simulate_decide(&p, &cfg);
            let workers = localities * wpl;
            assert_eq!(out.result.is_some(), expected, "k={k} workers={workers}");
            assert_eq!(
                out.nodes,
                threaded.metrics.nodes(),
                "k={k} workers={workers}: sim diverged from the threaded engine"
            );
        }
    }
}

/// The canonical synthetic irregular tree with a node-level decision
/// objective: here the replicable count must also equal Sequential's.
struct Irregular(IrregularTree);

impl SearchProblem for Irregular {
    type Node = (usize, u64);
    type Gen<'a> = <IrregularTree as SearchProblem>::Gen<'a>;

    fn root(&self) -> (usize, u64) {
        self.0.root()
    }

    fn generator(&self, node: &(usize, u64)) -> Self::Gen<'_> {
        self.0.generator(node)
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
    fn bound(&self, _node: &(usize, u64)) -> Option<u64> {
        Some(1000)
    }
}

impl Decide for Irregular {
    fn target(&self) -> u64 {
        990
    }
}

#[test]
fn irregular_decision_expansions_match_sequential_at_every_worker_count() {
    for (depth, seed) in [(9usize, 1u64), (10, 7)] {
        let p = Irregular(IrregularTree::new(depth, seed));
        let seq = Skeleton::new(Coordination::Sequential).decide(&p);
        for workers in [1usize, 2, 4, 8] {
            let out = Skeleton::new(Coordination::ordered(3))
                .workers(workers)
                .decide(&p);
            assert_eq!(out.found(), seq.found(), "depth={depth} workers={workers}");
            assert_eq!(
                out.metrics.nodes(),
                seq.metrics.nodes(),
                "depth={depth} workers={workers}: expansions diverged from Sequential"
            );
        }
    }
}

#[test]
fn ordered_enumeration_is_replicable_and_exact() {
    // Enumeration has no short-circuit, so every worker count must process
    // the tree exactly once — and the ordered counters must be coherent.
    let p = Irregular(IrregularTree::new(9, 3));
    let seq = Skeleton::new(Coordination::Sequential).enumerate(&p);
    for workers in [1usize, 4, 8] {
        let out = Skeleton::new(Coordination::ordered(2))
            .workers(workers)
            .enumerate(&p);
        assert_eq!(out.value.0, seq.value.0, "workers={workers}");
        assert_eq!(out.metrics.nodes(), seq.metrics.nodes());
        assert_eq!(out.metrics.totals.speculative_nodes, 0);
        assert_eq!(
            out.metrics.totals.ordered_spawns,
            out.metrics.spawns(),
            "every spawn of an ordered run carries a sequence key"
        );
    }
}
