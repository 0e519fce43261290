//! The synthetic *Irregular* tree (enumeration search).
//!
//! A deterministic, parameter-light irregular tree used across the
//! workspace as the canonical quick workload: each node carries an LCG
//! state, its fan-out is `state % 4 + 1`, and children derive their states
//! from the parent's.  Subtree sizes vary wildly between siblings, which is
//! exactly the load imbalance the parallel coordinations and the sharded
//! workpool are designed to absorb.  The core engine's unit tests, the
//! engine-equivalence integration tests and the `table2` benchmark baseline
//! all use this family, so a recorded `BENCH_0.json` is comparable across
//! machines and PRs.

use yewpar::monoid::Sum;
use yewpar::{Decide, Enumerate, Optimise, SearchProblem};

/// The Irregular enumeration problem.
#[derive(Debug, Clone)]
pub struct Irregular {
    depth: usize,
    seed: u64,
}

impl Irregular {
    /// An irregular tree cut off at `depth`, derived from `seed`.
    pub fn new(depth: usize, seed: u64) -> Self {
        Irregular {
            depth,
            seed: seed | 1,
        }
    }

    /// The depth cutoff.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl SearchProblem for Irregular {
    /// A node: its depth and its LCG state.
    type Node = (usize, u64);
    type Gen<'a> = std::vec::IntoIter<(usize, u64)>;

    fn root(&self) -> (usize, u64) {
        (0, self.seed)
    }

    fn generator(&self, node: &(usize, u64)) -> Self::Gen<'_> {
        let (depth, state) = *node;
        if depth >= self.depth {
            return vec![].into_iter();
        }
        let fanout = (state % 4) as usize + 1;
        (0..fanout)
            .map(|i| {
                (
                    depth + 1,
                    state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(i as u64),
                )
            })
            .collect::<Vec<_>>()
            .into_iter()
    }

    fn name(&self) -> &str {
        "irregular"
    }
}

impl Enumerate for Irregular {
    type Value = Sum<u64>;

    fn value(&self, _node: &(usize, u64)) -> Sum<u64> {
        Sum(1)
    }
}

/// The canonical decision objective over the Irregular tree (the same one
/// the core's replicability tests use): a node's score is its LCG state mod
/// 1000, the bound is the trivial constant 1000 — so a decision search never
/// prunes (node-level pruning only) and its committed expansion count equals
/// the Sequential skeleton's, which makes this family the quick replicable
/// decision workload for `table2`'s Ordered sweeps.
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

#[cfg(test)]
mod tests {
    use super::*;
    use yewpar::node::subtree_size;
    use yewpar::{Coordination, Skeleton};

    #[test]
    fn deterministic_in_seed_and_depth() {
        let a = Irregular::new(8, 42);
        let b = Irregular::new(8, 42);
        let c = Irregular::new(8, 101);
        assert_eq!(subtree_size(&a, &a.root()), subtree_size(&b, &b.root()));
        // Different seeds give different trees (with overwhelming likelihood
        // for this LCG; pinned here as a regression guard).
        assert_ne!(subtree_size(&a, &a.root()), subtree_size(&c, &c.root()));
    }

    #[test]
    fn fanout_varies_between_one_and_four() {
        let p = Irregular::new(6, 1);
        let mut widths = std::collections::BTreeSet::new();
        let mut frontier = vec![p.root()];
        while let Some(n) = frontier.pop() {
            let children: Vec<_> = p.generator(&n).collect();
            if n.0 < p.depth() {
                widths.insert(children.len());
                assert!((1..=4).contains(&children.len()));
            } else {
                assert!(children.is_empty());
            }
            frontier.extend(children);
        }
        assert!(widths.len() > 1, "tree is not irregular: widths {widths:?}");
    }

    #[test]
    fn decision_objective_is_replicable_under_ordered() {
        let p = Irregular::new(9, 1);
        let seq = Skeleton::new(Coordination::Sequential).decide(&p);
        assert!(seq.found(), "target 990 exists in this tree");
        for workers in [1usize, 4] {
            let out = Skeleton::new(Coordination::ordered(3))
                .workers(workers)
                .decide(&p);
            assert_eq!(out.found(), seq.found());
            assert_eq!(
                out.metrics.nodes(),
                seq.metrics.nodes(),
                "node-level pruning only, so Ordered must replay Sequential"
            );
        }
    }

    #[test]
    fn skeleton_count_matches_reference_traversal() {
        let p = Irregular::new(8, 7);
        let expected = subtree_size(&p, &p.root());
        let out = Skeleton::new(Coordination::depth_bounded(2))
            .workers(3)
            .enumerate(&p);
        assert_eq!(out.value.0, expected);
    }
}
