//! Subgraph Isomorphism Problem (decision search).
//!
//! Decide whether the pattern graph has a (non-induced) embedding into the
//! target graph.  The search assigns pattern vertices one at a time in a
//! static degree-descending variable order; children of a node are the
//! consistent target vertices for the next pattern vertex (adjacent to the
//! images of all previously assigned pattern neighbours and not yet used),
//! tried in target-degree-descending order.  The search short-circuits as
//! soon as every pattern vertex is assigned.

use yewpar::bitset::BitSet;
use yewpar::{Decide, Optimise, SearchProblem};
use yewpar_instances::SipInstance;

/// A partial assignment of pattern vertices to target vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SipNode {
    /// `mapping[i]` is the target vertex assigned to the i-th pattern vertex
    /// *in variable order*.
    pub mapping: Vec<u16>,
    /// Target vertices already used.
    pub used: BitSet,
}

/// The SIP decision problem.
#[derive(Debug, Clone)]
pub struct Sip {
    instance: SipInstance,
    /// Pattern vertices in branching (variable) order: degree descending.
    var_order: Vec<usize>,
    /// Target vertices in value order: degree descending.
    val_order: Vec<usize>,
}

impl Sip {
    /// Build the problem for a pattern/target pair.
    pub fn new(instance: SipInstance) -> Self {
        let var_order = instance.pattern.degree_order();
        let val_order = instance.target.degree_order();
        Sip {
            instance,
            var_order,
            val_order,
        }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &SipInstance {
        &self.instance
    }

    /// Convert a complete node into a pattern-vertex-indexed mapping and
    /// check it with the instance's embedding checker.
    pub fn verify(&self, node: &SipNode) -> bool {
        if node.mapping.len() != self.instance.pattern.order() {
            return false;
        }
        let mut mapping = vec![0usize; self.instance.pattern.order()];
        for (i, &t) in node.mapping.iter().enumerate() {
            mapping[self.var_order[i]] = t as usize;
        }
        self.instance.is_embedding(&mapping)
    }

    /// Is `target_v` a consistent assignment for the next pattern vertex?
    fn consistent(&self, node: &SipNode, target_v: usize) -> bool {
        if node.used.contains(target_v) {
            return false;
        }
        let pattern_v = self.var_order[node.mapping.len()];
        for (i, &assigned_target) in node.mapping.iter().enumerate() {
            let earlier_pattern = self.var_order[i];
            if self.instance.pattern.has_edge(pattern_v, earlier_pattern)
                && !self
                    .instance
                    .target
                    .has_edge(target_v, assigned_target as usize)
            {
                return false;
            }
        }
        true
    }
}

/// Lazy node generator: consistent target vertices for the next pattern
/// vertex, highest target degree first.
pub struct SipGen<'a> {
    problem: &'a Sip,
    parent: SipNode,
    /// Index into the problem's value order.
    next_val: usize,
}

impl Iterator for SipGen<'_> {
    type Item = SipNode;

    fn next(&mut self) -> Option<SipNode> {
        if self.parent.mapping.len() >= self.problem.instance.pattern.order() {
            return None;
        }
        while self.next_val < self.problem.val_order.len() {
            let target_v = self.problem.val_order[self.next_val];
            self.next_val += 1;
            if self.problem.consistent(&self.parent, target_v) {
                let mut mapping = self.parent.mapping.clone();
                mapping.push(target_v as u16);
                let mut used = self.parent.used.clone();
                used.insert(target_v);
                return Some(SipNode { mapping, used });
            }
        }
        None
    }

    /// At most one child per target vertex left to try; inconsistent ones
    /// are skipped, so only the upper bound is known.  A complete mapping
    /// has no children.
    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.parent.mapping.len() >= self.problem.instance.pattern.order() {
            return (0, Some(0));
        }
        (0, Some(self.problem.val_order.len() - self.next_val))
    }
}

impl SearchProblem for Sip {
    type Node = SipNode;
    type Gen<'a> = SipGen<'a>;

    fn root(&self) -> SipNode {
        SipNode {
            mapping: Vec::new(),
            used: BitSet::new(self.instance.target.order()),
        }
    }

    fn generator<'a>(&'a self, node: &SipNode) -> SipGen<'a> {
        SipGen {
            problem: self,
            parent: node.clone(),
            next_val: 0,
        }
    }

    fn name(&self) -> &str {
        "sip"
    }
}

impl Optimise for Sip {
    type Score = u32;

    fn objective(&self, node: &SipNode) -> u32 {
        node.mapping.len() as u32
    }
}

impl Decide for Sip {
    fn target(&self) -> u32 {
        self.instance.pattern.order() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{walk_checking_size_hints, Hint};
    use yewpar::{Coordination, Skeleton};
    use yewpar_instances::graph::{gnp, Graph};

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g
    }

    fn cycle_graph(n: usize) -> Graph {
        let mut g = path_graph(n);
        g.add_edge(n - 1, 0);
        g
    }

    #[test]
    fn path_embeds_in_cycle_but_not_vice_versa() {
        let yes = Sip::new(SipInstance {
            pattern: path_graph(4),
            target: cycle_graph(6),
        });
        let out = Skeleton::new(Coordination::Sequential).decide(&yes);
        assert!(out.found());
        assert!(yes.verify(out.witness.as_ref().unwrap()));

        let no = Sip::new(SipInstance {
            pattern: cycle_graph(5), // an odd cycle does not embed in a path
            target: path_graph(8),
        });
        let out = Skeleton::new(Coordination::Sequential).decide(&no);
        assert!(!out.found());
    }

    #[test]
    fn guaranteed_embedding_instances_are_satisfiable() {
        for seed in 0..4 {
            let inst = SipInstance::with_embedding(24, 7, 0.4, seed);
            let p = Sip::new(inst);
            let out = Skeleton::new(Coordination::Sequential).decide(&p);
            assert!(out.found(), "seed {seed}");
            assert!(p.verify(out.witness.as_ref().unwrap()));
        }
    }

    #[test]
    fn dense_pattern_in_sparse_target_is_unsatisfiable() {
        let inst = SipInstance {
            pattern: gnp(6, 1.0, 1), // a 6-clique
            target: gnp(20, 0.2, 2),
        };
        let p = Sip::new(inst);
        let out = Skeleton::new(Coordination::Sequential).decide(&p);
        assert!(!out.found());
    }

    #[test]
    fn all_skeletons_agree_on_satisfiability() {
        let sat = SipInstance::with_embedding(26, 8, 0.35, 40);
        let unsat = SipInstance {
            pattern: gnp(7, 0.95, 3),
            target: gnp(22, 0.25, 4),
        };
        for (inst, expected) in [(sat, true), (unsat, false)] {
            let p = Sip::new(inst);
            for coord in [
                Coordination::Sequential,
                Coordination::depth_bounded(2),
                Coordination::stack_stealing_chunked(),
                Coordination::budget(50),
            ] {
                let out = Skeleton::new(coord).workers(3).decide(&p);
                assert_eq!(out.found(), expected, "{coord}");
                if let Some(w) = &out.witness {
                    assert!(p.verify(w));
                }
            }
        }
    }

    #[test]
    fn single_vertex_pattern_always_embeds_in_nonempty_target() {
        let p = Sip::new(SipInstance {
            pattern: Graph::new(1),
            target: gnp(5, 0.5, 9),
        });
        let out = Skeleton::new(Coordination::Sequential).decide(&p);
        assert!(out.found());
    }

    #[test]
    fn size_hints_bound_the_children_from_above() {
        for seed in [1, 2] {
            let p = Sip::new(SipInstance::with_embedding(12, 5, 0.4, seed));
            assert!(walk_checking_size_hints(&p, Hint::UpperBound) > 100);
            // A complete mapping says it has no children.
            let witness = Skeleton::new(Coordination::Sequential)
                .decide(&p)
                .witness
                .expect("the planted embedding");
            assert_eq!(p.generator(&witness).size_hint(), (0, Some(0)));
        }
    }
}
