//! Numerical Semigroups (enumeration search).
//!
//! Counts the numerical semigroups of each genus up to a target genus by
//! exploring the semigroup tree (Fromentin & Hivert): the root is the full
//! semigroup ℕ (genus 0) and the children of a semigroup `S` are the
//! semigroups `S \ {g}` for every minimal generator `g` of `S` larger than
//! its Frobenius number.  Every numerical semigroup of genus `g` appears at
//! depth `g` exactly once, so counting nodes per depth counts semigroups per
//! genus.
//!
//! A semigroup is represented by a 64-bit membership mask of the elements
//! `0..=2·genus_max + 1` (sufficient because the Frobenius number of a genus
//! `g` semigroup is at most `2g − 1` and every minimal generator beyond the
//! Frobenius number is at most `2g + 1`), which keeps nodes `Copy`-cheap.

use yewpar::monoid::DepthHistogram;
use yewpar::{Enumerate, SearchProblem};

/// Known values of the number of numerical semigroups per genus
/// (OEIS A007323), used by tests and the benchmark harness.
pub const SEMIGROUPS_PER_GENUS: [u64; 16] = [
    1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857,
];

/// The numerical-semigroup counting problem up to a target genus.
#[derive(Debug, Clone)]
pub struct Semigroups {
    genus_max: u32,
    limit: u32,
}

/// A numerical semigroup of genus ≤ `genus_max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SemigroupNode {
    /// Membership mask of the elements `0..limit` (elements ≥ limit are all
    /// members, by cofiniteness).
    pub members: u64,
    /// The Frobenius number (largest gap); -1 for ℕ itself.
    pub frobenius: i32,
    /// The genus (number of gaps) — also the node's depth in the tree.
    pub genus: u32,
}

impl Semigroups {
    /// Count semigroups of every genus up to `genus_max` (≤ 30, limited by
    /// the 64-bit membership mask).
    pub fn new(genus_max: u32) -> Self {
        assert!(
            genus_max <= 30,
            "the u64 membership mask supports genus at most 30"
        );
        Semigroups {
            genus_max,
            limit: 2 * genus_max + 2,
        }
    }

    /// The target genus.
    pub fn genus_max(&self) -> u32 {
        self.genus_max
    }

    /// Is `x` an element of the semigroup?  (Everything ≥ limit is.)
    fn contains(&self, node: &SemigroupNode, x: u32) -> bool {
        x >= self.limit || node.members & (1 << x) != 0
    }

    /// Is `x` a minimal generator of the semigroup?  (`x` is a member and is
    /// not the sum of two smaller positive members.)
    fn is_minimal_generator(&self, node: &SemigroupNode, x: u32) -> bool {
        if x == 0 || !self.contains(node, x) {
            return false;
        }
        for a in 1..x {
            if self.contains(node, a) && self.contains(node, x - a) {
                return false;
            }
        }
        true
    }

    /// The minimal generators of `node` that are larger than its Frobenius
    /// number (the children-defining set).  For genus `genus_max` nodes this
    /// is empty (the tree is cut off at the target genus).
    pub fn effective_generators(&self, node: &SemigroupNode) -> Vec<u32> {
        self.effective_generators_of(*node).collect()
    }

    /// The effective generators in increasing order, computed lazily.
    fn effective_generators_of(&self, node: SemigroupNode) -> impl Iterator<Item = u32> + '_ {
        let lo = (node.frobenius + 1).max(1) as u32;
        let hi = if node.genus >= self.genus_max {
            lo
        } else {
            self.limit
        };
        (lo..hi).filter(move |&x| self.is_minimal_generator(&node, x))
    }
}

/// Lazy node generator: remove one effective generator per child, smallest
/// first.
pub struct SemigroupGen {
    parent: SemigroupNode,
    /// The effective generators not yet branched on, as a bit mask.
    generators: u64,
}

impl Iterator for SemigroupGen {
    type Item = SemigroupNode;

    fn next(&mut self) -> Option<SemigroupNode> {
        if self.generators == 0 {
            return None;
        }
        let g = self.generators.trailing_zeros();
        self.generators &= self.generators - 1; // clear the lowest set bit
        Some(SemigroupNode {
            members: self.parent.members & !(1 << g),
            frobenius: g as i32,
            genus: self.parent.genus + 1,
        })
    }

    /// Exact: one child per effective generator not yet branched on.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.generators.count_ones() as usize;
        (left, Some(left))
    }
}

impl SearchProblem for Semigroups {
    type Node = SemigroupNode;
    type Gen<'a> = SemigroupGen;

    fn root(&self) -> SemigroupNode {
        SemigroupNode {
            members: if self.limit >= 64 {
                u64::MAX
            } else {
                (1u64 << self.limit) - 1
            },
            frobenius: -1,
            genus: 0,
        }
    }

    fn generator(&self, node: &SemigroupNode) -> SemigroupGen {
        SemigroupGen {
            parent: *node,
            // A mask over `0..limit`, `limit` ≤ 62: no allocation per node.
            generators: self
                .effective_generators_of(*node)
                .fold(0, |mask, g| mask | 1 << g),
        }
    }

    fn name(&self) -> &str {
        "numerical-semigroups"
    }
}

impl Enumerate for Semigroups {
    type Value = DepthHistogram;

    fn value(&self, node: &SemigroupNode) -> DepthHistogram {
        DepthHistogram::singleton(node.genus as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{walk_checking_size_hints, Hint};
    use yewpar::{Coordination, Skeleton};

    #[test]
    fn root_is_the_natural_numbers() {
        let p = Semigroups::new(5);
        let root = p.root();
        assert_eq!(root.genus, 0);
        assert_eq!(root.frobenius, -1);
        assert!(p.contains(&root, 1) && p.contains(&root, 7));
        // The only minimal generator of ℕ is 1.
        assert_eq!(p.effective_generators(&root), vec![1]);
    }

    #[test]
    fn genus_one_semigroup_has_two_children() {
        let p = Semigroups::new(5);
        let root = p.root();
        let child = p.generator(&root).next().unwrap();
        assert_eq!(child.genus, 1);
        assert_eq!(child.frobenius, 1);
        assert!(!p.contains(&child, 1));
        // <2, 3> minus {1}: minimal generators above Frobenius 1 are 2 and 3.
        assert_eq!(p.effective_generators(&child), vec![2, 3]);
    }

    #[test]
    fn children_remove_the_effective_generators_in_increasing_order() {
        let p = Semigroups::new(10);
        let mut stack = vec![p.root()];
        let mut nodes = 0u64;
        while let Some(node) = stack.pop() {
            nodes += 1;
            let children: Vec<SemigroupNode> = p.generator(&node).collect();
            let expected: Vec<SemigroupNode> = p
                .effective_generators(&node)
                .into_iter()
                .map(|g| SemigroupNode {
                    members: node.members & !(1 << g),
                    frobenius: g as i32,
                    genus: node.genus + 1,
                })
                .collect();
            assert_eq!(children, expected, "children of {node:?}");
            stack.extend(children);
        }
        assert_eq!(nodes, SEMIGROUPS_PER_GENUS[..=10].iter().sum::<u64>());
    }

    #[test]
    fn counts_match_oeis_a007323_up_to_genus_12() {
        let genus = 12;
        let p = Semigroups::new(genus);
        let out = Skeleton::new(Coordination::Sequential).enumerate(&p);
        for (g, &expected) in SEMIGROUPS_PER_GENUS
            .iter()
            .enumerate()
            .take(genus as usize + 1)
        {
            assert_eq!(out.value.count_at(g), expected, "wrong count at genus {g}");
        }
    }

    #[test]
    fn parallel_skeletons_agree_on_the_histogram() {
        let p = Semigroups::new(10);
        let expected = Skeleton::new(Coordination::Sequential).enumerate(&p).value;
        for coord in [
            Coordination::depth_bounded(3),
            Coordination::stack_stealing(),
            Coordination::budget(50),
        ] {
            let out = Skeleton::new(coord).workers(3).enumerate(&p);
            assert_eq!(out.value, expected, "{coord}");
        }
    }

    #[test]
    fn tree_is_narrow_near_the_root() {
        // The paper notes NS "initially has a narrow tree" (Section 5.5):
        // the root has a single child.
        let p = Semigroups::new(8);
        assert_eq!(p.generator(&p.root()).count(), 1);
    }

    #[test]
    #[should_panic(expected = "genus at most 30")]
    fn genus_beyond_mask_capacity_is_rejected() {
        let _ = Semigroups::new(31);
    }

    #[test]
    fn size_hints_are_exact() {
        // 1 + 1 + 2 + 4 + 7 + 12 + 23 + 39 + 67 semigroups of genus 0 to 8.
        assert_eq!(
            walk_checking_size_hints(&Semigroups::new(8), Hint::Exact),
            156
        );
    }
}
