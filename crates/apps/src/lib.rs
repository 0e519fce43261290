//! The seven exact combinatorial search applications evaluated in the YewPar
//! paper (Section 5.1), each expressed as a Lazy Node Generator plus
//! objective/bound functions over the `yewpar` skeleton API:
//!
//! | Application | Search type | Module |
//! |---|---|---|
//! | Unbalanced Tree Search (UTS) | enumeration | [`uts`] |
//! | Numerical Semigroups (NS) | enumeration | [`semigroups`] |
//! | Maximum Clique | optimisation | [`maxclique`] |
//! | 0/1 Knapsack | optimisation | [`knapsack`] |
//! | Travelling Salesperson (TSP) | optimisation | [`tsp`] |
//! | Subgraph Isomorphism (SIP) | decision | [`sip`] |
//! | k-Clique | decision | [`kclique`] |
//!
//! In addition, [`irregular`] provides the synthetic *Irregular* tree used
//! as the canonical quick benchmark workload across the workspace.
//!
//! [`maxclique::baseline`] additionally provides the *hand-written*
//! specialised solvers (sequential and statically-split parallel) used as the
//! comparison point of the paper's Table 1 overhead experiment.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod irregular;
pub mod kclique;
pub mod knapsack;
pub mod maxclique;
pub mod semigroups;
pub mod sip;
pub mod tsp;
pub mod uts;

/// Test support shared by the applications' unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use yewpar::SearchProblem;

    /// What a generator's `size_hint` promises about its children.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Hint {
        /// Lower and upper bound both equal the number of children left.
        Exact,
        /// A stated upper bound no smaller than the number of children left.
        UpperBound,
    }

    /// Walk every node of `problem`'s tree, without pruning, and check each
    /// generator's `size_hint` before each `next` and after the last one:
    /// lower ≤ children left ≤ upper, and both equal to it for
    /// [`Hint::Exact`].  Also check that an exhausted generator keeps
    /// returning `None`.  Returns the number of nodes.
    pub(crate) fn walk_checking_size_hints<P: SearchProblem>(problem: &P, hint: Hint) -> u64 {
        let mut nodes = 0;
        let mut todo = vec![problem.root()];
        while let Some(node) = todo.pop() {
            nodes += 1;
            let mut gen = problem.generator(&node);
            let mut hints = vec![gen.size_hint()];
            let mut children = Vec::new();
            while let Some(child) = gen.next() {
                children.push(child);
                hints.push(gen.size_hint());
            }
            assert!(
                gen.next().is_none(),
                "an exhausted generator stays exhausted"
            );
            for (i, (lower, upper)) in hints.into_iter().enumerate() {
                let left = children.len() - i;
                let at = format!("node {nodes}, after {i} children, {left} left");
                match hint {
                    Hint::Exact => assert_eq!((lower, upper), (left, Some(left)), "{at}"),
                    Hint::UpperBound => {
                        assert!(lower <= left, "{at}: lower bound {lower}");
                        assert!(upper.is_some_and(|u| left <= u), "{at}: upper {upper:?}");
                    }
                }
            }
            todo.extend(children);
        }
        nodes
    }
}
