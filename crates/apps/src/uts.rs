//! Unbalanced Tree Search (enumeration search).
//!
//! UTS (Olivier et al.) is the standard benchmark for dynamic load balancing:
//! it counts the nodes of a synthetic, highly irregular tree whose shape is
//! determined entirely by a cryptographic-style hash of each node's path from
//! the root.  This implementation uses a SplitMix64 hash instead of SHA-1
//! (so node hashes differ from the reference UTS trees); like the original it is
//! fully deterministic in the root seed, supports the *geometric* and
//! *binomial* tree shapes, and produces trees whose subtree sizes vary by
//! orders of magnitude — exactly the irregularity that stresses the parallel
//! coordinations.

use yewpar::monoid::{Pair, Sum};
use yewpar::{Enumerate, SearchProblem};

/// Tree-shape variants of UTS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UtsShape {
    /// Geometric trees: the expected branching factor is `b0` at the root and
    /// decays linearly to zero at `max_depth` (bounded-depth variant).
    Geometric {
        /// Expected branching factor at the root.
        b0: f64,
        /// Depth at which nodes stop having children.
        max_depth: usize,
    },
    /// Binomial trees: the root has exactly `b0` children; every other node
    /// has `m` children with probability `q`, otherwise none.  Expected size
    /// is finite iff `q * m < 1`.
    Binomial {
        /// Number of children of the root.
        b0: usize,
        /// Probability that a non-root node has children.
        q: f64,
        /// Number of children a branching non-root node gets.
        m: usize,
        /// Hard depth cap (keeps worst-case runs bounded).
        max_depth: usize,
    },
}

/// The UTS enumeration problem.
#[derive(Debug, Clone)]
pub struct Uts {
    shape: UtsShape,
    seed: u64,
}

/// A UTS node: its depth and the hash state that determines its subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UtsNode {
    /// Depth of the node (root = 0).
    pub depth: u32,
    /// Deterministic hash state.
    pub state: u64,
}

/// SplitMix64: the stand-in for the SHA-1 node hash of the original UTS.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Map a state to a uniform float in `[0, 1)`.
fn uniform01(state: u64) -> f64 {
    (state >> 11) as f64 / (1u64 << 53) as f64
}

impl Uts {
    /// Build a UTS instance.
    pub fn new(shape: UtsShape, seed: u64) -> Self {
        Uts { shape, seed }
    }

    /// A small geometric preset (tens of thousands of nodes).
    pub fn geometric_small(seed: u64) -> Self {
        Uts::new(
            UtsShape::Geometric {
                b0: 4.0,
                max_depth: 9,
            },
            seed,
        )
    }

    /// A small binomial preset (highly irregular, a few thousand nodes in
    /// expectation).
    pub fn binomial_small(seed: u64) -> Self {
        Uts::new(
            UtsShape::Binomial {
                b0: 200,
                q: 0.24,
                m: 4,
                max_depth: 1000,
            },
            seed,
        )
    }

    /// Number of children of a node (deterministic in the node state).
    pub fn num_children(&self, node: &UtsNode) -> usize {
        match self.shape {
            UtsShape::Geometric { b0, max_depth } => {
                if node.depth as usize >= max_depth {
                    return 0;
                }
                // Expected branching decays linearly with depth; the actual
                // count is drawn from a geometric distribution via the node
                // hash, capped to keep single nodes from dominating.
                let expected = b0 * (1.0 - node.depth as f64 / max_depth as f64);
                if expected <= 0.0 {
                    return 0;
                }
                let u = uniform01(node.state);
                let p = expected / (1.0 + expected);
                // Inverse-transform sample of a geometric distribution with
                // success probability 1 - p (mean = expected).
                let k = (1.0 - u).ln() / p.ln();
                (k.floor() as usize).min(4 * b0.ceil() as usize)
            }
            UtsShape::Binomial {
                b0,
                q,
                m,
                max_depth,
            } => {
                if node.depth == 0 {
                    b0
                } else if (node.depth as usize) < max_depth && uniform01(node.state) < q {
                    m
                } else {
                    0
                }
            }
        }
    }
}

/// Lazy node generator: child states are derived by hashing the parent state
/// with the child index.
pub struct UtsGen {
    parent: UtsNode,
    count: usize,
    next: usize,
}

impl Iterator for UtsGen {
    type Item = UtsNode;

    fn next(&mut self) -> Option<UtsNode> {
        if self.next >= self.count {
            return None;
        }
        let i = self.next as u64;
        self.next += 1;
        Some(UtsNode {
            depth: self.parent.depth + 1,
            state: splitmix64(self.parent.state ^ (i + 1).wrapping_mul(0xA24BAED4963EE407)),
        })
    }

    /// Exact: one child per index not yet yielded.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.count - self.next;
        (left, Some(left))
    }
}

impl SearchProblem for Uts {
    type Node = UtsNode;
    type Gen<'a> = UtsGen;

    fn root(&self) -> UtsNode {
        UtsNode {
            depth: 0,
            state: splitmix64(self.seed),
        }
    }

    fn generator(&self, node: &UtsNode) -> UtsGen {
        UtsGen {
            parent: *node,
            count: self.num_children(node),
            next: 0,
        }
    }

    fn name(&self) -> &str {
        "uts"
    }
}

impl Enumerate for Uts {
    /// Counts nodes and tracks the deepest level in a single fold.
    type Value = Pair<Sum<u64>, yewpar::monoid::Max<u64>>;

    fn value(&self, node: &UtsNode) -> Self::Value {
        Pair(Sum(1), yewpar::monoid::Max(node.depth as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{walk_checking_size_hints, Hint};
    use yewpar::{Coordination, Skeleton};

    #[test]
    fn splitmix_is_deterministic_and_spreads_bits() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
        let u = uniform01(splitmix64(7));
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn tree_is_deterministic_in_the_seed() {
        let a = Skeleton::new(Coordination::Sequential).enumerate(&Uts::geometric_small(1));
        let b = Skeleton::new(Coordination::Sequential).enumerate(&Uts::geometric_small(1));
        let c = Skeleton::new(Coordination::Sequential).enumerate(&Uts::geometric_small(2));
        assert_eq!(a.value, b.value);
        assert_ne!(
            a.value.0, c.value.0,
            "different seeds should give different trees"
        );
    }

    #[test]
    fn geometric_tree_respects_the_depth_cap() {
        let p = Uts::new(
            UtsShape::Geometric {
                b0: 3.0,
                max_depth: 6,
            },
            11,
        );
        let out = Skeleton::new(Coordination::Sequential).enumerate(&p);
        assert!(
            out.value.1 .0 <= 6,
            "max depth {} exceeds cap",
            out.value.1 .0
        );
        assert!(out.value.0 .0 > 1);
    }

    #[test]
    fn binomial_root_has_exactly_b0_children() {
        let p = Uts::binomial_small(5);
        let root = p.root();
        assert_eq!(p.num_children(&root), 200);
        assert_eq!(p.generator(&root).count(), 200);
    }

    #[test]
    fn subtree_sizes_are_irregular() {
        let p = Uts::binomial_small(3);
        let root = p.root();
        let sizes: Vec<u64> = p
            .generator(&root)
            .map(|c| yewpar::node::subtree_size(&p, &c))
            .collect();
        assert!(sizes.len() > 1);
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(
            max > &(min * 3),
            "expected irregular subtrees, got min={min} max={max}"
        );
    }

    #[test]
    fn parallel_skeletons_count_the_same_tree() {
        let p = Uts::binomial_small(9);
        let expected = Skeleton::new(Coordination::Sequential).enumerate(&p).value;
        for coord in [
            Coordination::depth_bounded(2),
            Coordination::stack_stealing_chunked(),
            Coordination::budget(100),
        ] {
            let out = Skeleton::new(coord).workers(3).enumerate(&p);
            assert_eq!(out.value, expected, "{coord}");
        }
    }

    #[test]
    fn size_hints_are_exact() {
        for p in [Uts::geometric_small(1), Uts::binomial_small(3)] {
            let Pair(Sum(nodes), _) = Skeleton::new(Coordination::Sequential).enumerate(&p).value;
            assert_eq!(walk_checking_size_hints(&p, Hint::Exact), nodes);
        }
    }
}
