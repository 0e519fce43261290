//! Travelling Salesperson (optimisation search, minimisation).
//!
//! Depth-first branch and bound over partial tours anchored at city 0.
//! Children extend the tour with an unvisited city, nearest city first (the
//! search-order heuristic); the bound is the partial tour length plus, for
//! every city that still needs an incoming edge, the cheapest edge incident
//! to it.  Minimisation is expressed through [`MinimiseScore`] so the generic
//! maximising skeletons minimise the tour length.

use yewpar::objective::MinimiseScore;
use yewpar::{Optimise, SearchProblem};
use yewpar_instances::TspInstance;

/// A partial tour starting (and implicitly ending) at city 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TourNode {
    /// Cities visited so far, in order; always starts with 0.
    pub path: Vec<u16>,
    /// Bitmask of visited cities.
    pub visited: u64,
    /// Length of the path so far (no return edge).
    pub cost: u64,
}

impl TourNode {
    /// The city the tour currently ends at.
    pub fn current(&self) -> usize {
        *self
            .path
            .last()
            .expect("path always contains the start city") as usize
    }

    /// True once every city has been visited.
    pub fn is_complete(&self, cities: usize) -> bool {
        self.path.len() == cities
    }
}

/// The TSP search problem.
#[derive(Debug, Clone)]
pub struct Tsp {
    instance: TspInstance,
    /// Cheapest incident edge per city (for the lower bound).
    min_edge: Vec<u64>,
}

impl Tsp {
    /// Build the problem for an instance (at most 64 cities, for the bitmask).
    pub fn new(instance: TspInstance) -> Self {
        assert!(
            instance.cities() >= 2 && instance.cities() <= 64,
            "tsp node representation supports 2..=64 cities"
        );
        let min_edge = (0..instance.cities())
            .map(|i| instance.min_edge(i) as u64)
            .collect();
        Tsp { instance, min_edge }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &TspInstance {
        &self.instance
    }

    /// Full tour length of a complete node (including the return edge).
    pub fn tour_cost(&self, node: &TourNode) -> u64 {
        debug_assert!(node.is_complete(self.instance.cities()));
        node.cost + self.instance.distance(node.current(), 0) as u64
    }

    /// Verify that a complete node is a valid tour with consistent cost.
    pub fn verify(&self, node: &TourNode) -> bool {
        let n = self.instance.cities();
        if node.path.len() != n || node.path[0] != 0 {
            return false;
        }
        let mut seen = vec![false; n];
        for &c in &node.path {
            if seen[c as usize] {
                return false;
            }
            seen[c as usize] = true;
        }
        let path: Vec<usize> = node.path.iter().map(|&c| c as usize).collect();
        self.instance.tour_length(&path) == self.tour_cost(node)
    }

    /// Admissible lower bound on the best complete tour below `node`.
    fn lower_bound(&self, node: &TourNode) -> u64 {
        let n = self.instance.cities();
        if node.is_complete(n) {
            return self.tour_cost(node);
        }
        // Every unvisited city, plus the start city (which still needs its
        // closing incoming edge), must be entered by one remaining edge.
        let mut bound = node.cost + self.min_edge[0];
        for city in 0..n {
            if node.visited & (1 << city) == 0 {
                bound += self.min_edge[city];
            }
        }
        bound
    }
}

/// Lazy node generator: unvisited cities in nearest-first order.
pub struct TourGen<'a> {
    problem: &'a Tsp,
    parent: TourNode,
    /// Unvisited cities sorted by distance from the current city (nearest
    /// first), consumed front to back.
    order: std::vec::IntoIter<u16>,
}

impl Iterator for TourGen<'_> {
    type Item = TourNode;

    fn next(&mut self) -> Option<TourNode> {
        let next_city = self.order.next()?;
        let mut path = self.parent.path.clone();
        path.push(next_city);
        Some(TourNode {
            cost: self.parent.cost
                + self
                    .problem
                    .instance
                    .distance(self.parent.current(), next_city as usize) as u64,
            visited: self.parent.visited | (1 << next_city),
            path,
        })
    }

    /// Exact: one child per unvisited city not yet branched on.
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.order.size_hint()
    }
}

impl SearchProblem for Tsp {
    type Node = TourNode;
    type Gen<'a> = TourGen<'a>;

    fn root(&self) -> TourNode {
        TourNode {
            path: vec![0],
            visited: 1,
            cost: 0,
        }
    }

    fn generator<'a>(&'a self, node: &TourNode) -> TourGen<'a> {
        let n = self.instance.cities();
        let current = node.current();
        let mut order: Vec<u16> = (0..n as u16)
            .filter(|&c| node.visited & (1 << c) == 0)
            .collect();
        order.sort_by_key(|&c| self.instance.distance(current, c as usize));
        TourGen {
            problem: self,
            parent: node.clone(),
            order: order.into_iter(),
        }
    }

    fn name(&self) -> &str {
        "tsp"
    }
}

impl Optimise for Tsp {
    type Score = MinimiseScore<u64>;

    fn objective(&self, node: &TourNode) -> MinimiseScore<u64> {
        if node.is_complete(self.instance.cities()) {
            MinimiseScore(self.tour_cost(node))
        } else {
            // Incomplete tours are not solutions: give them the worst score.
            MinimiseScore(u64::MAX)
        }
    }

    fn bound(&self, node: &TourNode) -> Option<MinimiseScore<u64>> {
        Some(MinimiseScore(self.lower_bound(node)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{walk_checking_size_hints, Hint};
    use yewpar::{Coordination, Skeleton};

    fn square() -> TspInstance {
        TspInstance::from_matrix(vec![
            vec![0, 10, 14, 10],
            vec![10, 0, 10, 14],
            vec![14, 10, 0, 10],
            vec![10, 14, 10, 0],
        ])
    }

    #[test]
    fn square_optimum_is_the_perimeter() {
        let p = Tsp::new(square());
        let out = Skeleton::new(Coordination::Sequential).maximise(&p);
        assert_eq!(out.try_score().unwrap().0, 40);
        assert!(p.verify(out.try_node().unwrap()));
    }

    #[test]
    fn matches_held_karp_on_random_instances() {
        for seed in 0..4 {
            let inst = TspInstance::random_euclidean(9, 200.0, seed);
            let expected = inst.optimum_by_held_karp();
            let p = Tsp::new(inst);
            let out = Skeleton::new(Coordination::Sequential).maximise(&p);
            assert_eq!(out.try_score().unwrap().0, expected, "seed {seed}");
            assert!(p.verify(out.try_node().unwrap()));
        }
    }

    #[test]
    fn all_skeletons_agree_on_tour_length() {
        let inst = TspInstance::random_euclidean(10, 300.0, 77);
        let expected = inst.optimum_by_held_karp();
        let p = Tsp::new(inst);
        for coord in [
            Coordination::Sequential,
            Coordination::depth_bounded(2),
            Coordination::stack_stealing(),
            Coordination::budget(100),
        ] {
            let out = Skeleton::new(coord).workers(3).maximise(&p);
            assert_eq!(out.try_score().unwrap().0, expected, "{coord}");
            assert!(p.verify(out.try_node().unwrap()));
        }
    }

    #[test]
    fn pruning_is_effective_compared_to_exhaustive_enumeration() {
        let inst = TspInstance::random_euclidean(10, 100.0, 5);
        let p = Tsp::new(inst);
        let out = Skeleton::new(Coordination::Sequential).maximise(&p);
        // 9! = 362880 leaf permutations; pruning must cut the tree well below
        // the full enumeration size.
        assert!(
            out.metrics.nodes() < 200_000,
            "expected substantial pruning, explored {} nodes",
            out.metrics.nodes()
        );
        assert!(out.metrics.totals.prunes > 0);
    }

    #[test]
    fn lower_bound_is_admissible() {
        let inst = TspInstance::random_euclidean(7, 100.0, 13);
        let p = Tsp::new(inst);

        fn best_cost(p: &Tsp, node: &TourNode) -> u64 {
            let mut best = u64::MAX;
            if node.is_complete(p.instance().cities()) {
                best = p.tour_cost(node);
            }
            for child in p.generator(node) {
                best = best.min(best_cost(p, &child));
            }
            if best != u64::MAX {
                assert!(
                    p.lower_bound(node) <= best,
                    "lower bound {} exceeds best completion {}",
                    p.lower_bound(node),
                    best
                );
            }
            best
        }

        let best = best_cost(&p, &p.root());
        assert_eq!(best, p.instance().optimum_by_held_karp());
    }

    #[test]
    fn two_city_instance() {
        let inst = TspInstance::from_matrix(vec![vec![0, 5], vec![5, 0]]);
        let p = Tsp::new(inst);
        let out = Skeleton::new(Coordination::Sequential).maximise(&p);
        assert_eq!(out.try_score().unwrap().0, 10);
    }

    #[test]
    fn size_hints_are_exact() {
        for seed in [1, 2] {
            let p = Tsp::new(TspInstance::random_euclidean(7, 100.0, seed));
            // Every ordering of the six cities after the start, and each prefix.
            let tours: u64 = (0..=6).map(|k| (7 - k..=6).product::<u64>()).sum();
            assert_eq!(walk_checking_size_hints(&p, Hint::Exact), tours);
        }
    }
}
