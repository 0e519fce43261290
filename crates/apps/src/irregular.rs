//! The synthetic *Irregular* tree (enumeration search).
//!
//! A deterministic, parameter-light irregular tree used across the
//! workspace as the canonical quick workload: each node carries an LCG
//! state, its fan-out is `state % 4 + 1`, and children derive their states
//! from the parent's.  Subtree sizes vary wildly between siblings, which is
//! exactly the load imbalance the parallel coordinations and the sharded
//! workpool are designed to absorb.
//!
//! The generator, [`IrregularGen`], is lazy in the paper's sense (§4.1): it
//! holds the parent's depth and state plus a child counter and derives each
//! child when asked, so expanding a node allocates nothing and a node costs
//! a few nanoseconds.  The tests below check it child for child, in order,
//! against an eager reference that collects a node's children into a `Vec`,
//! and pin the subtree sizes perfbench's documentation states.
//!
//! The core engine's unit tests, the engine-equivalence integration tests
//! and the `table2` benchmark baseline all use this family, so a recorded
//! `BENCH_0.json` is comparable across machines and PRs.

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
    type Gen<'a> = IrregularGen;

    fn root(&self) -> (usize, u64) {
        (0, self.seed)
    }

    fn generator(&self, node: &(usize, u64)) -> IrregularGen {
        let (depth, state) = *node;
        IrregularGen {
            depth,
            state,
            next: 0,
            fanout: if depth >= self.depth {
                0
            } else {
                (state % 4) as usize + 1
            },
        }
    }

    fn name(&self) -> &str {
        "irregular"
    }
}

/// The lazy node generator for [`Irregular`]: four words, no allocation.
///
/// Child `i` of a node at `depth` with LCG state `state` is
/// `(depth + 1, state * 6364136223846793005 + i)` (wrapping), yielded for
/// `i` in `0..fanout`; `fanout` is `state % 4 + 1`, or 0 at the depth
/// cutoff.
#[derive(Debug, Clone)]
pub struct IrregularGen {
    depth: usize,
    state: u64,
    next: usize,
    fanout: usize,
}

impl Iterator for IrregularGen {
    type Item = (usize, u64);

    #[inline]
    fn next(&mut self) -> Option<(usize, u64)> {
        if self.next >= self.fanout {
            return None;
        }
        let i = self.next as u64;
        self.next += 1;
        Some((
            self.depth + 1,
            self.state.wrapping_mul(6364136223846793005).wrapping_add(i),
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.fanout - self.next;
        (left, Some(left))
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

    /// The eager reference generator: every child collected into a `Vec`
    /// per node.  The lazy tree must reproduce it.
    fn eager_children(p: &Irregular, node: &(usize, u64)) -> Vec<(usize, u64)> {
        let (depth, state) = *node;
        if depth >= p.depth() {
            return vec![];
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
    }

    #[test]
    fn lazy_generator_yields_the_eager_children_in_order() {
        // Seeds ≡ 1 and ≡ 3 (mod 4): the two tree shapes `seed | 1` allows.
        for seed in [1u64, 3, 0x5eed_0001, 0x5eed_0003] {
            let p = Irregular::new(10, seed);
            let (mut nodes, mut leaves) = (0u64, 0u64);
            let mut frontier = vec![p.root()];
            while let Some(n) = frontier.pop() {
                nodes += 1;
                let lazy = p.generator(&n);
                assert_eq!(lazy.size_hint().0, eager_children(&p, &n).len());
                let lazy: Vec<_> = lazy.collect();
                assert_eq!(lazy, eager_children(&p, &n), "children of {n:?}");
                if n.0 == p.depth() {
                    assert!(lazy.is_empty());
                    leaves += 1;
                }
                frontier.extend(lazy);
            }
            assert_eq!(nodes, subtree_size(&p, &p.root()));
            assert!(leaves > 0, "the depth cutoff was never reached");
        }
    }

    /// 3 365 167 and 115 206 are the sizes perfbench's documentation states
    /// for its workloads' trees (seeds ≡ 1 mod 4); 5 905 469 is the other
    /// shape at depth 17.  The shape depends only on the seed's residue.
    #[test]
    fn subtree_sizes_are_pinned() {
        for (depth, seed, size) in [
            (17, 1, 3_365_167),
            (17, 3, 5_905_469),
            (13, 1, 115_206),
            (13, 0x5eed_0001, 115_206),
        ] {
            let p = Irregular::new(depth, seed);
            assert_eq!(
                subtree_size(&p, &p.root()),
                size,
                "Irregular::new({depth}, {seed})"
            );
        }
    }

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
