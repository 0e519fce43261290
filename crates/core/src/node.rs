//! The Lazy Node Generator API (paper Section 4.1).
//!
//! The paper's `NodeGenerator<SearchSpace, Node>` interface exposes
//! `hasNext()` / `next()` over the children of a parent node, materialising
//! children lazily and in heuristic order.  The natural Rust rendering of
//! that interface is an [`Iterator`] whose items are search-tree nodes; the
//! [`SearchProblem`] trait bundles the search space, the root node and the
//! construction of a child iterator (the lazy node generator) for any node.

/// A search problem: a search space plus a lazy node generator.
///
/// Implementations describe *only* the shape of the search tree — which node
/// is the root and, for any node, an iterator over its children **in
/// heuristic order**.  They say nothing about how or when the tree is
/// traversed; that is the job of the search skeletons
/// ([`crate::Skeleton`]), mirroring the separation in the paper between Lazy
/// Node Generators and search coordinations.
///
/// Children must be yielded lazily: a generator should perform per-child
/// work inside `Iterator::next`, not up-front in [`generator`](Self::generator),
/// so that pruning a subtree avoids materialising the pruned children
/// (paper §4.1, advantages (1) and (2)).
pub trait SearchProblem: Send + Sync {
    /// A node of the search tree.  Nodes are owned values that are cheap to
    /// clone and can be moved between worker threads (they are what gets
    /// spawned into tasks and stolen between workers, and the incumbent of an
    /// optimisation search is shared by reference between workers).
    type Node: Clone + Send + Sync + 'static;

    /// The lazy node generator: an iterator over the children of a node, in
    /// the order in which they are to be traversed.
    ///
    /// The skeletons' generator stack ([`crate::genstack::GenStack`])
    /// relies on two more things:
    ///
    /// - Once a generator has returned `None`, it keeps returning `None`.
    ///   A stack may call an exhausted generator again: a split that takes
    ///   a frame's last children leaves it in place for the next step, and
    ///   a steal scan asks every exhausted frame below the work it finds.
    /// - An upper bound of `Some(0)` from `Iterator::size_hint` means the
    ///   generator yields nothing.  The stack then stores no frame for it,
    ///   which makes a leaf cheap.  The default `(0, None)` is always
    ///   correct: the stack stores the generator and finds it empty on the
    ///   next step.  A generator that knows its number of children cheaply
    ///   should report it.
    type Gen<'a>: Iterator<Item = Self::Node> + 'a
    where
        Self: 'a;

    /// The root node of the search tree (the paper's `ϵ`).
    fn root(&self) -> Self::Node;

    /// Construct the lazy node generator for `node`.
    fn generator<'a>(&'a self, node: &Self::Node) -> Self::Gen<'a>;

    /// Optional human-readable name used by benchmark harnesses and metrics.
    fn name(&self) -> &str {
        "unnamed-search"
    }
}

/// Blanket implementation so `&P` can be passed wherever a problem is
/// expected (useful when sharing one problem across scoped worker threads).
impl<P: SearchProblem> SearchProblem for &P {
    type Node = P::Node;
    type Gen<'a>
        = P::Gen<'a>
    where
        Self: 'a;

    fn root(&self) -> Self::Node {
        (**self).root()
    }

    fn generator<'a>(&'a self, node: &Self::Node) -> Self::Gen<'a> {
        (**self).generator(node)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Count the nodes of the subtree rooted at `node` by exhaustive traversal.
///
/// This is a reference traversal used by tests and by instance
/// characterisation tools; it is intentionally simple (recursive, no
/// pruning, no parallelism).
pub fn subtree_size<P: SearchProblem>(problem: &P, node: &P::Node) -> u64 {
    let mut count = 1;
    for child in problem.generator(node) {
        count += subtree_size(problem, &child);
    }
    count
}

/// Compute the maximum depth of the subtree rooted at `node` (the root has
/// depth 0).
pub fn subtree_depth<P: SearchProblem>(problem: &P, node: &P::Node) -> usize {
    problem
        .generator(node)
        .map(|c| 1 + subtree_depth(problem, &c))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny fixed tree used across the core unit tests: nodes are small
    /// integers, the tree is
    ///
    /// ```text
    ///          0
    ///        / | \
    ///       1  2  3
    ///      / \     \
    ///     4   5     6
    /// ```
    pub(crate) struct TinyTree;

    impl SearchProblem for TinyTree {
        type Node = u32;
        type Gen<'a> = std::vec::IntoIter<u32>;

        fn root(&self) -> u32 {
            0
        }

        fn generator(&self, node: &u32) -> Self::Gen<'_> {
            match node {
                0 => vec![1, 2, 3],
                1 => vec![4, 5],
                3 => vec![6],
                _ => vec![],
            }
            .into_iter()
        }

        fn name(&self) -> &str {
            "tiny-tree"
        }
    }

    #[test]
    fn subtree_size_counts_all_nodes() {
        assert_eq!(subtree_size(&TinyTree, &0), 7);
        assert_eq!(subtree_size(&TinyTree, &1), 3);
        assert_eq!(subtree_size(&TinyTree, &4), 1);
    }

    #[test]
    fn subtree_depth_matches_structure() {
        assert_eq!(subtree_depth(&TinyTree, &0), 2);
        assert_eq!(subtree_depth(&TinyTree, &3), 1);
        assert_eq!(subtree_depth(&TinyTree, &6), 0);
    }

    #[test]
    fn reference_problem_delegates() {
        let t = TinyTree;
        let r = &t;
        assert_eq!(r.root(), 0);
        assert_eq!(r.name(), "tiny-tree");
        assert_eq!(subtree_size(&r, &0), 7);
    }
}
