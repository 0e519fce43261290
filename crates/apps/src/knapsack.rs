//! 0/1 Knapsack (optimisation search).
//!
//! Branch and bound over *inclusion* decisions: a search-tree node is a
//! feasible subset of items; its children extend the subset with one more
//! item of higher index (in profit-density order), so every feasible subset
//! appears exactly once in the tree.  The bound is the classic Dantzig
//! fractional relaxation: fill the remaining capacity greedily by density,
//! taking a fraction of the first item that does not fit.

use yewpar::{Optimise, SearchProblem};
use yewpar_instances::KnapsackInstance;

/// A knapsack search-tree node: a feasible partial selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnapsackNode {
    /// Bitmask over *density-ordered* item positions chosen so far.
    pub chosen: u64,
    /// Total profit of the selection.
    pub profit: u64,
    /// Total weight of the selection.
    pub weight: u64,
    /// Next density-ordered position that may be added (children use
    /// positions `pos..n`).
    pub pos: usize,
}

/// The 0/1 knapsack search problem.
#[derive(Debug, Clone)]
pub struct Knapsack {
    instance: KnapsackInstance,
    /// Item indices in non-increasing profit-density order.
    order: Vec<usize>,
}

impl Knapsack {
    /// Build the problem; items are branched on in profit-density order.
    pub fn new(instance: KnapsackInstance) -> Self {
        assert!(
            instance.items() <= 64,
            "the bitmask node representation supports at most 64 items"
        );
        let order = instance.density_order();
        Knapsack { instance, order }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &KnapsackInstance {
        &self.instance
    }

    /// The original item indices selected by a node.
    pub fn selected_items(&self, node: &KnapsackNode) -> Vec<usize> {
        (0..self.instance.items())
            .filter(|i| node.chosen & (1 << i) != 0)
            .map(|i| self.order[i])
            .collect()
    }

    /// Verify that a node is a feasible selection and its cached totals are
    /// consistent with the instance.
    pub fn verify(&self, node: &KnapsackNode) -> bool {
        let items = self.selected_items(node);
        let (profit, weight) = self.instance.evaluate(&items);
        profit == node.profit && weight == node.weight && weight <= self.instance.capacity
    }

    /// Dantzig fractional upper bound for a node.
    fn fractional_bound(&self, node: &KnapsackNode) -> u64 {
        let mut bound = node.profit;
        let mut room = self.instance.capacity - node.weight;
        for pos in node.pos..self.order.len() {
            let item = self.order[pos];
            let w = self.instance.weights[item];
            let p = self.instance.profits[item];
            if w <= room {
                room -= w;
                bound += p;
            } else {
                // Fractional part, rounded up (keeps the bound admissible).
                bound += (p * room).div_ceil(w.max(1));
                break;
            }
        }
        bound
    }
}

/// Lazy node generator: children add one item at a position `>= pos`.
pub struct KnapsackGen<'a> {
    problem: &'a Knapsack,
    parent: KnapsackNode,
    next_pos: usize,
}

impl Iterator for KnapsackGen<'_> {
    type Item = KnapsackNode;

    fn next(&mut self) -> Option<KnapsackNode> {
        while self.next_pos < self.problem.order.len() {
            let pos = self.next_pos;
            self.next_pos += 1;
            let item = self.problem.order[pos];
            let weight = self.parent.weight + self.problem.instance.weights[item];
            if weight <= self.problem.instance.capacity {
                return Some(KnapsackNode {
                    chosen: self.parent.chosen | (1 << pos),
                    profit: self.parent.profit + self.problem.instance.profits[item],
                    weight,
                    pos: pos + 1,
                });
            }
        }
        None
    }

    /// At most one child per item left to try; those that do not fit are
    /// skipped, so only the upper bound is known.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.problem.order.len() - self.next_pos))
    }
}

impl SearchProblem for Knapsack {
    type Node = KnapsackNode;
    type Gen<'a> = KnapsackGen<'a>;

    fn root(&self) -> KnapsackNode {
        KnapsackNode {
            chosen: 0,
            profit: 0,
            weight: 0,
            pos: 0,
        }
    }

    fn generator<'a>(&'a self, node: &KnapsackNode) -> KnapsackGen<'a> {
        KnapsackGen {
            problem: self,
            parent: node.clone(),
            next_pos: node.pos,
        }
    }

    fn name(&self) -> &str {
        "knapsack"
    }
}

impl Optimise for Knapsack {
    type Score = u64;

    fn objective(&self, node: &KnapsackNode) -> u64 {
        node.profit
    }

    fn bound(&self, node: &KnapsackNode) -> Option<u64> {
        Some(self.fractional_bound(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{walk_checking_size_hints, Hint};
    use yewpar::{Coordination, Skeleton};
    use yewpar_instances::knapsack::KnapsackClass;

    fn textbook() -> KnapsackInstance {
        KnapsackInstance {
            profits: vec![60, 100, 120],
            weights: vec![10, 20, 30],
            capacity: 50,
        }
    }

    #[test]
    fn textbook_optimum() {
        let p = Knapsack::new(textbook());
        let out = Skeleton::new(Coordination::Sequential).maximise(&p);
        assert_eq!(*out.try_score().unwrap(), 220);
        assert!(p.verify(out.try_node().unwrap()));
        let mut items = p.selected_items(out.try_node().unwrap());
        items.sort();
        assert_eq!(items, vec![1, 2]);
    }

    #[test]
    fn matches_dynamic_programming_on_generated_instances() {
        for (class, seed) in [
            (KnapsackClass::Uncorrelated, 1u64),
            (KnapsackClass::WeaklyCorrelated, 2),
            (KnapsackClass::StronglyCorrelated, 3),
        ] {
            let inst = KnapsackInstance::generate(class, 18, 50, seed);
            let expected = inst.optimum_by_dp();
            let p = Knapsack::new(inst);
            let out = Skeleton::new(Coordination::Sequential).maximise(&p);
            assert_eq!(*out.try_score().unwrap(), expected, "class {class:?}");
            assert!(p.verify(out.try_node().unwrap()));
        }
    }

    #[test]
    fn all_skeletons_agree() {
        let inst = KnapsackInstance::generate(KnapsackClass::WeaklyCorrelated, 20, 60, 9);
        let expected = inst.optimum_by_dp();
        let p = Knapsack::new(inst);
        for coord in [
            Coordination::Sequential,
            Coordination::depth_bounded(3),
            Coordination::stack_stealing_chunked(),
            Coordination::budget(100),
        ] {
            let out = Skeleton::new(coord).workers(3).maximise(&p);
            assert_eq!(*out.try_score().unwrap(), expected, "{coord}");
        }
    }

    #[test]
    fn zero_capacity_means_empty_selection() {
        let inst = KnapsackInstance {
            profits: vec![5, 6],
            weights: vec![3, 4],
            capacity: 1,
        };
        let p = Knapsack::new(inst);
        let out = Skeleton::new(Coordination::Sequential).maximise(&p);
        assert_eq!(*out.try_score().unwrap(), 0);
        assert_eq!(out.try_node().unwrap().chosen, 0);
    }

    #[test]
    fn fractional_bound_is_admissible() {
        let inst = KnapsackInstance::generate(KnapsackClass::StronglyCorrelated, 14, 40, 5);
        let p = Knapsack::new(inst);

        fn best_in_subtree(p: &Knapsack, node: &KnapsackNode) -> u64 {
            let mut best = p.objective(node);
            for child in p.generator(node) {
                best = best.max(best_in_subtree(p, &child));
            }
            assert!(
                p.bound(node).unwrap() >= best,
                "bound {} below descendant profit {}",
                p.bound(node).unwrap(),
                best
            );
            best
        }

        let best = best_in_subtree(&p, &p.root());
        assert_eq!(best, p.instance().optimum_by_dp());
    }

    #[test]
    #[should_panic(expected = "at most 64 items")]
    fn more_than_64_items_is_rejected() {
        let inst = KnapsackInstance {
            profits: vec![1; 65],
            weights: vec![1; 65],
            capacity: 10,
        };
        let _ = Knapsack::new(inst);
    }

    #[test]
    fn size_hints_bound_the_children_from_above() {
        for seed in [1, 2] {
            let inst = KnapsackInstance::generate(KnapsackClass::WeaklyCorrelated, 12, 50, seed);
            let p = Knapsack::new(inst);
            assert!(walk_checking_size_hints(&p, Hint::UpperBound) > 100);
        }
    }
}
