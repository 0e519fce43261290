//! Maximum Clique (optimisation search).
//!
//! This follows the state-of-the-art bitset branch-and-bound algorithm the
//! paper builds its Lazy Node Generator example around (Listing 1, after
//! McCreesh & Prosser's MCSa1): search-tree nodes carry the current clique, a
//! candidate set and a greedy-colouring bound; candidates are branched on in
//! reverse colouring order (highest colour class first), and a subtree is
//! pruned when `|clique| + colours(candidates)` cannot beat the incumbent.

use yewpar::bitset::BitSet;
use yewpar::{Optimise, PruneLevel, SearchProblem};
use yewpar_instances::Graph;

pub mod baseline;

/// A Maximum Clique search-tree node (the paper's `Node` struct).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliqueNode {
    /// The vertices of the current clique.
    pub clique: BitSet,
    /// `clique.count()`, cached.
    pub size: u32,
    /// Vertices adjacent to every member of the clique (candidate extensions).
    pub candidates: BitSet,
    /// Greedy-colouring upper bound on how many candidates can still be added.
    pub bound: u32,
}

/// The Maximum Clique search problem over a graph.
#[derive(Debug, Clone)]
pub struct MaxClique {
    graph: Graph,
}

impl MaxClique {
    /// Build the problem for a graph (the graph is owned so nodes can be
    /// moved freely between worker threads).
    pub fn new(graph: Graph) -> Self {
        MaxClique { graph }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Verify that a node's clique really is a clique of the graph.
    pub fn verify(&self, node: &CliqueNode) -> bool {
        let members = node.clique.to_vec();
        members.len() == node.size as usize && self.graph.is_clique(&members)
    }
}

/// Greedy colouring of the subgraph induced by `candidates`.
///
/// Returns `(order, colours)`: `order` lists the candidate vertices grouped
/// by colour class (class 1 first) and `colours[i]` is the number of colour
/// classes used for `order[0..=i]` — an upper bound on the clique size within
/// `{order[0], …, order[i]}`.  Branching iterates `order` in reverse, so the
/// last (highest-colour) vertex is tried first.
pub fn greedy_colour(graph: &Graph, candidates: &BitSet) -> (Vec<u32>, Vec<u32>) {
    let mut order = Vec::with_capacity(candidates.count());
    let mut colours = Vec::with_capacity(candidates.count());
    let mut uncoloured = candidates.clone();
    // One scratch set for every colour class, refilled in place.
    let mut colourable = BitSet::new(candidates.capacity());
    let mut colour = 0u32;
    while !uncoloured.is_empty() {
        colour += 1;
        colourable.clone_from(&uncoloured);
        while let Some(v) = colourable.pop_first() {
            uncoloured.remove(v);
            // No neighbour of v may share v's colour class.
            colourable.difference_with(graph.neighbours(v));
            order.push(v as u32);
            colours.push(colour);
        }
    }
    (order, colours)
}

/// The lazy node generator for Maximum Clique (the paper's `Gen` struct).
pub struct CliqueGen<'a> {
    problem: &'a MaxClique,
    parent_clique: BitSet,
    parent_size: u32,
    remaining: BitSet,
    order: Vec<u32>,
    colours: Vec<u32>,
    /// Index one past the next candidate to branch on (walks downwards).
    k: usize,
}

impl Iterator for CliqueGen<'_> {
    type Item = CliqueNode;

    fn next(&mut self) -> Option<CliqueNode> {
        if self.k == 0 {
            return None;
        }
        self.k -= 1;
        let v = self.order[self.k] as usize;
        self.remaining.remove(v);
        let mut clique = self.parent_clique.clone();
        clique.insert(v);
        let mut candidates = self.remaining.clone();
        candidates.intersect_with(self.problem.graph.neighbours(v));
        Some(CliqueNode {
            clique,
            size: self.parent_size + 1,
            candidates,
            // At most `colours[k] - 1` candidates can still be added: a clique
            // extending this child lives inside `{order[0..=k]}`, its members
            // have pairwise distinct colours, and v's own colour class is
            // excluded from the candidates — the classic MCSa1 bound, chosen
            // so the skeleton prunes exactly like the hand-written baseline.
            bound: self.colours[self.k] - 1,
        })
    }
}

impl SearchProblem for MaxClique {
    type Node = CliqueNode;
    type Gen<'a> = CliqueGen<'a>;

    fn root(&self) -> CliqueNode {
        let candidates = BitSet::full(self.graph.order());
        let (_, colours) = greedy_colour(&self.graph, &candidates);
        CliqueNode {
            clique: BitSet::new(self.graph.order()),
            size: 0,
            bound: colours.last().copied().unwrap_or(0),
            candidates,
        }
    }

    fn generator<'a>(&'a self, node: &CliqueNode) -> CliqueGen<'a> {
        let (order, colours) = greedy_colour(&self.graph, &node.candidates);
        let k = order.len();
        CliqueGen {
            problem: self,
            parent_clique: node.clique.clone(),
            parent_size: node.size,
            remaining: node.candidates.clone(),
            order,
            colours,
            k,
        }
    }

    fn name(&self) -> &str {
        "maxclique"
    }
}

impl Optimise for MaxClique {
    type Score = u32;

    fn objective(&self, node: &CliqueNode) -> u32 {
        node.size
    }

    fn bound(&self, node: &CliqueNode) -> Option<u32> {
        Some(node.size + node.bound)
    }

    fn prune_level(&self) -> PruneLevel {
        // The generator branches in reverse colouring order, so sibling
        // bounds are non-increasing: a failed bound also disposes of every
        // later sibling (the behaviour of the hand-written MCSa1 loop).
        PruneLevel::Siblings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yewpar::{Coordination, Skeleton};
    use yewpar_instances::graph;

    /// The 8-vertex graph of the paper's Figure 1 (vertices a..h = 0..7).
    pub(crate) fn figure1_graph() -> Graph {
        let mut g = Graph::new(8);
        // Maximum clique {a, d, f, g} = {0, 3, 5, 6}.
        let edges = [
            (0, 1), // a-b
            (0, 2), // a-c
            (0, 3), // a-d
            (0, 5), // a-f
            (0, 6), // a-g
            (0, 7), // a-h
            (1, 2), // b-c
            (1, 6), // b-g
            (2, 4), // c-e
            (3, 5), // d-f
            (3, 6), // d-g
            (4, 7), // e-h
            (5, 6), // f-g
            (5, 3), // f-d (dup, ignored)
        ];
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    #[test]
    fn greedy_colouring_is_a_proper_colouring() {
        let g = graph::gnp(30, 0.5, 42);
        let cands = BitSet::full(30);
        let (order, colours) = greedy_colour(&g, &cands);
        assert_eq!(order.len(), 30);
        // Vertices with the same colour must be pairwise non-adjacent.
        for i in 0..order.len() {
            for j in (i + 1)..order.len() {
                if colours[i] == colours[j] {
                    assert!(!g.has_edge(order[i] as usize, order[j] as usize));
                }
            }
        }
        // colours is non-decreasing.
        assert!(colours.windows(2).all(|w| w[0] <= w[1]));
    }

    /// The clone-per-class colouring, a fresh `colourable` set for every
    /// colour class: the reference the one-scratch-set version must match.
    fn clone_per_class_colour(graph: &Graph, candidates: &BitSet) -> (Vec<u32>, Vec<u32>) {
        let mut order = Vec::new();
        let mut colours = Vec::new();
        let mut uncoloured = candidates.clone();
        let mut colour = 0u32;
        while !uncoloured.is_empty() {
            colour += 1;
            let mut colourable = uncoloured.clone();
            while let Some(v) = colourable.pop_first() {
                uncoloured.remove(v);
                colourable.difference_with(graph.neighbours(v));
                order.push(v as u32);
                colours.push(colour);
            }
        }
        (order, colours)
    }

    #[test]
    fn greedy_colour_matches_the_clone_per_class_colouring() {
        // splitmix64: a seeded stream of candidate subsets.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for n in [1usize, 63, 64, 65, 130, 260] {
            for density in [0.3, 0.7] {
                let g = graph::gnp(n, density, n as u64);
                let mut subsets = vec![BitSet::new(n), BitSet::full(n)];
                for keep_one_in in [2u64, 3, 8] {
                    subsets.push(BitSet::from_iter(
                        n,
                        (0..n).filter(|_| next() % keep_one_in == 0),
                    ));
                }
                for cands in &subsets {
                    assert_eq!(
                        greedy_colour(&g, cands),
                        clone_per_class_colour(&g, cands),
                        "n = {n}, density {density}, candidates {cands:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn figure1_maximum_clique_is_four() {
        let p = MaxClique::new(figure1_graph());
        let out = Skeleton::new(Coordination::Sequential).maximise(&p);
        assert_eq!(*out.try_score().unwrap(), 4);
        assert!(p.verify(out.try_node().unwrap()));
        // The unique maximum clique of Fig. 1 is {a, d, f, g}.
        assert_eq!(out.try_node().unwrap().clique.to_vec(), vec![0, 3, 5, 6]);
    }

    #[test]
    fn planted_clique_is_recovered() {
        let g = graph::planted_clique(45, 0.35, 12, 7);
        let p = MaxClique::new(g);
        let out = Skeleton::new(Coordination::Sequential).maximise(&p);
        assert!(
            *out.try_score().unwrap() >= 12,
            "planted clique of size 12 must be found, got {}",
            out.try_score().unwrap()
        );
        assert!(p.verify(out.try_node().unwrap()));
    }

    #[test]
    fn all_skeletons_agree_on_clique_number() {
        let g = graph::gnp(40, 0.6, 13);
        let p = MaxClique::new(g);
        let expected = *Skeleton::new(Coordination::Sequential)
            .maximise(&p)
            .try_score()
            .unwrap();
        for coord in [
            Coordination::depth_bounded(2),
            Coordination::stack_stealing_chunked(),
            Coordination::budget(500),
        ] {
            let out = Skeleton::new(coord).workers(3).maximise(&p);
            assert_eq!(
                *out.try_score().unwrap(),
                expected,
                "{coord} disagrees with sequential"
            );
            assert!(p.verify(out.try_node().unwrap()));
        }
    }

    #[test]
    fn pruning_reduces_explored_nodes() {
        let g = graph::gnp(35, 0.7, 21);
        let p = MaxClique::new(g);
        let out = Skeleton::new(Coordination::Sequential).maximise(&p);
        assert!(
            out.metrics.totals.prunes > 0,
            "dense graphs must trigger colour-bound pruning"
        );
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let p = MaxClique::new(Graph::new(1));
        let out = Skeleton::new(Coordination::Sequential).maximise(&p);
        assert_eq!(*out.try_score().unwrap(), 1);
        let p = MaxClique::new(Graph::new(3)); // edgeless: max clique is a single vertex
        let out = Skeleton::new(Coordination::Sequential).maximise(&p);
        assert_eq!(*out.try_score().unwrap(), 1);
    }

    /// Admissibility of the bound function (the pruning relation's condition
    /// 1 in §3.5): no descendant may beat its ancestor's bound.
    #[test]
    fn colour_bound_is_admissible() {
        let g = graph::gnp(25, 0.5, 99);
        let p = MaxClique::new(g);

        fn check(p: &MaxClique, node: &CliqueNode, best_below: &mut u32) -> u32 {
            // Returns the best objective in the subtree rooted at node.
            let mut best = p.objective(node);
            for child in p.generator(node) {
                best = best.max(check(p, &child, best_below));
            }
            assert!(
                p.bound(node).unwrap() >= best,
                "bound {} < best descendant {}",
                p.bound(node).unwrap(),
                best
            );
            *best_below = (*best_below).max(best);
            best
        }

        let mut best = 0;
        check(&p, &p.root(), &mut best);
        assert!(best >= 2);
    }
}
