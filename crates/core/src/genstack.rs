//! The generator stack: backtracking state shared by all coordinations.
//!
//! This type is public so that new coordinations (and the discrete-event
//! simulator in `yewpar-sim`) can be built from the same low-level component,
//! mirroring the paper's remark that YewPar "provides low-level components
//! … with which new skeletons can be created" (§4.3).
//!
//! Depth-first backtracking is implemented as a stack of lazy node
//! generators (paper §4.1).  [`GenStack::step`] is the one traversal step
//! every engine runs: it advances the top generator and applies the
//! processed node's [`Action`] — the (expand), (prune) and (shortcircuit)
//! rules — or pops an exhausted generator, the (backtrack) rule.
//! The stack also identifies which subtrees to give away when splitting work
//! — the Budget and Stack-Stealing coordinations scan it bottom-up and hand
//! out the *lowest-depth* unexplored children, which are heuristically the
//! largest remaining pieces of work.

use std::iter::Peekable;

use crate::node::SearchProblem;
use crate::objective::{Optimise, PruneLevel};
use crate::workpool::Task;

/// What the traversal should do after processing a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Explore the node's children.
    Expand,
    /// Skip the node's children: the subtree cannot contribute (the (prune) rule).
    Prune,
    /// Skip the node's children *and* its not-yet-generated later siblings
    /// (only returned when the problem declares [`PruneLevel::Siblings`]).
    PruneSiblings,
    /// Stop the entire search: the decision target has been witnessed
    /// (the (shortcircuit) rule).
    ShortCircuit,
}

impl Action {
    /// The (prune) rule of every optimisation and decision driver: expand
    /// `node` unless `useless` says its subtree bound cannot help (cannot
    /// beat the incumbent, or cannot reach the decision target), and then
    /// prune at the problem's [`PruneLevel`].  `useless` is called only
    /// when the problem has a bound for the node.
    #[inline]
    pub fn by_bound<P: Optimise>(
        problem: &P,
        node: &P::Node,
        useless: impl FnOnce(&P::Score) -> bool,
    ) -> Action {
        match problem.bound(node) {
            Some(bound) if useless(&bound) => match problem.prune_level() {
                PruneLevel::Node => Action::Prune,
                PruneLevel::Siblings => Action::PruneSiblings,
            },
            _ => Action::Expand,
        }
    }
}

/// What one [`GenStack::step`] did.  Callers keep their own accounting
/// (metrics on threads, ticks in the simulator) from this summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Step {
    /// Depth of the node the step processed; `None` when it backtracked
    /// instead.
    pub node_depth: Option<usize>,
    /// The processed node was pruned ([`Action::Prune`] or
    /// [`Action::PruneSiblings`]).
    pub pruned: bool,
    /// A generator was popped: the top one was exhausted, or its remaining
    /// siblings were pruned.
    pub popped: bool,
    /// The processed node short-circuits the search; the stack is left as it
    /// was after the node was generated.
    pub short_circuit: bool,
}

/// One stack frame: the (peekable) generator of a node's children, plus the
/// depth of the children it yields.
#[allow(explicit_outlives_requirements)]
struct Frame<'p, P: SearchProblem + 'p> {
    gen: Peekable<P::Gen<'p>>,
    child_depth: usize,
}

/// A stack of lazy node generators.
#[allow(explicit_outlives_requirements)]
pub struct GenStack<'p, P: SearchProblem + 'p> {
    frames: Vec<Frame<'p, P>>,
}

impl<'p, P: SearchProblem + 'p> Default for GenStack<'p, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'p, P: SearchProblem + 'p> GenStack<'p, P> {
    /// An empty stack.
    pub fn new() -> Self {
        GenStack { frames: Vec::new() }
    }

    /// Push a generator for `node`'s children; `node_depth` is the depth of
    /// `node` itself (children are one level deeper).
    pub fn push(&mut self, problem: &'p P, node: &P::Node, node_depth: usize) {
        self.frames.push(Frame {
            gen: problem.generator(node).peekable(),
            child_depth: node_depth + 1,
        });
    }

    /// One traversal step: advance the top generator and hand its next
    /// child to `process`, then apply the returned [`Action`] — push the
    /// child's generator on [`Action::Expand`], pop the top generator on
    /// [`Action::PruneSiblings`].  When the top generator is exhausted it is
    /// popped instead and `process` is not called.  Call only on a non-empty
    /// stack.
    #[inline]
    pub fn step(&mut self, problem: &'p P, process: impl FnOnce(&P::Node) -> Action) -> Step {
        let Some((child, depth)) = self.next_child() else {
            self.frames.pop();
            return Step {
                popped: true,
                ..Step::default()
            };
        };
        let action = process(&child);
        match action {
            Action::Expand => self.push(problem, &child, depth),
            // The generator yields children in non-increasing bound order:
            // the failed check also disposes of the unexplored later siblings.
            Action::PruneSiblings => {
                self.frames.pop();
            }
            Action::Prune | Action::ShortCircuit => {}
        }
        Step {
            node_depth: Some(depth),
            pruned: matches!(action, Action::Prune | Action::PruneSiblings),
            popped: action == Action::PruneSiblings,
            short_circuit: action == Action::ShortCircuit,
        }
    }

    /// Advance the top generator: the next unexplored child and its depth.
    fn next_child(&mut self) -> Option<(P::Node, usize)> {
        let frame = self.frames.last_mut()?;
        frame.gen.next().map(|n| (n, frame.child_depth))
    }

    /// True when no generators remain.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Number of generators on the stack.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Split off work for another worker: scan the stack bottom-up for the
    /// first generator with unexplored children (the lowest-depth work) and
    /// remove either one child (`chunked == false`, the (spawn-stack) rule)
    /// or every remaining child (`chunked == true`, also the (spawn-budget)
    /// rule), preserving their heuristic order.
    ///
    /// Returns an empty vector when the stack holds no unexplored children.
    pub fn split_lowest(&mut self, chunked: bool) -> Vec<Task<P::Node>> {
        for frame in self.frames.iter_mut() {
            if frame.gen.peek().is_some() {
                let depth = frame.child_depth;
                return if chunked {
                    frame.gen.by_ref().map(|n| Task::new(n, depth)).collect()
                } else {
                    frame
                        .gen
                        .next()
                        .map(|n| vec![Task::new(n, depth)])
                        .unwrap_or_default()
                };
            }
        }
        Vec::new()
    }

    /// Depth of the children [`split_lowest`](Self::split_lowest) would take:
    /// the first bottom-up generator with unexplored children.  `None` when
    /// the stack holds no stealable work.  This is the steal-quality hint a
    /// victim advertises — shallower means a heuristically bigger subtree.
    pub fn steal_depth(&mut self) -> Option<usize> {
        self.frames
            .iter_mut()
            .find_map(|f| f.gen.peek().is_some().then_some(f.child_depth))
    }

    /// Depth of the bottom generator's children — an O(1) lower bound on
    /// [`steal_depth`](Self::steal_depth) that never touches the lazy
    /// generators, cheap enough for the threaded engine to publish as its
    /// work hint once per task.  `None` when the stack is empty.
    pub fn base_depth(&self) -> Option<usize> {
        self.frames.first().map(|f| f.child_depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ternary tree of the given depth; node = (depth, index-within-parent).
    struct Ternary {
        depth: usize,
    }

    impl SearchProblem for Ternary {
        type Node = (usize, usize);
        type Gen<'a> = std::vec::IntoIter<(usize, usize)>;
        fn root(&self) -> (usize, usize) {
            (0, 0)
        }
        fn generator(&self, node: &(usize, usize)) -> Self::Gen<'_> {
            if node.0 < self.depth {
                (0..3)
                    .map(|i| (node.0 + 1, i))
                    .collect::<Vec<_>>()
                    .into_iter()
            } else {
                vec![].into_iter()
            }
        }
    }

    #[test]
    fn expand_and_backtrack_walk_the_whole_tree() {
        let p = Ternary { depth: 3 };
        let mut stack = GenStack::new();
        stack.push(&p, &p.root(), 0);
        let mut visited = 1; // root
        while !stack.is_empty() {
            visited += stack.step(&p, |_| Action::Expand).node_depth.is_some() as usize;
        }
        assert_eq!(visited, 1 + 3 + 9 + 27);
    }

    #[test]
    fn each_step_applies_its_rule_and_reports_it() {
        // Each case: a root-and-one-child stack (the child (1,0) expanded),
        // then one step whose processed node gets `action`.  Expected: the
        // step summary and the frames left on the stack.
        let processed = |pruned, popped, short_circuit| Step {
            node_depth: Some(2),
            pruned,
            popped,
            short_circuit,
        };
        let cases = [
            (Action::Expand, processed(false, false, false), 3),
            (Action::Prune, processed(true, false, false), 2),
            (Action::PruneSiblings, processed(true, true, false), 1),
            (Action::ShortCircuit, processed(false, false, true), 2),
        ];
        let p = Ternary { depth: 3 };
        for (action, expected, frames) in cases {
            let mut stack = GenStack::new();
            stack.push(&p, &p.root(), 0);
            stack.step(&p, |_| Action::Expand);
            let mut seen = None;
            let step = stack.step(&p, |node| {
                seen = Some(*node);
                action
            });
            assert_eq!(seen, Some((2, 0)), "{action:?}: first grandchild");
            assert_eq!(step, expected, "{action:?}");
            assert_eq!(stack.depth(), frames, "{action:?}");
        }

        // An exhausted top frame is popped without calling `process`.
        let mut stack = GenStack::new();
        stack.push(&p, &(3, 0), 3); // a leaf: its generator is empty
        let step = stack.step(&p, |_| panic!("an exhausted frame has no node"));
        let backtrack = Step {
            popped: true,
            ..Step::default()
        };
        assert_eq!(step, backtrack);
        assert!(stack.is_empty());
    }

    #[test]
    fn split_lowest_takes_from_the_bottom_frame() {
        let p = Ternary { depth: 3 };
        let mut stack = GenStack::new();
        stack.push(&p, &p.root(), 0);
        // Descend one branch: expand child (1,0).
        stack.step(&p, |_| Action::Expand);
        // The bottom frame still holds children (1,1) and (1,2): a single
        // (non-chunked) split must hand out (1,1) — depth-1 work.
        let stolen = stack.split_lowest(false);
        assert_eq!(stolen, vec![Task::new((1, 1), 1)]);
        // A chunked split now takes the rest of that frame.
        let stolen = stack.split_lowest(true);
        assert_eq!(stolen, vec![Task::new((1, 2), 1)]);
        // Next splits come from the deeper frame.
        let stolen = stack.split_lowest(true);
        assert_eq!(stolen.len(), 3);
        assert!(stolen.iter().all(|t| t.depth == 2));
        // Nothing left anywhere.
        assert!(stack.split_lowest(true).is_empty());
        assert_eq!(stack.steal_depth(), None);
    }

    #[test]
    fn split_on_empty_stack_is_empty() {
        let p = Ternary { depth: 1 };
        let mut stack: GenStack<'_, Ternary> = GenStack::new();
        assert!(stack.split_lowest(true).is_empty());
        stack.push(&p, &(1, 0), 1); // leaf: generator is empty
        assert!(stack.split_lowest(false).is_empty());
        assert_eq!(stack.steal_depth(), None);
    }

    #[test]
    fn splitting_does_not_disturb_the_top_of_stack_traversal() {
        let p = Ternary { depth: 2 };
        let mut stack = GenStack::new();
        stack.push(&p, &p.root(), 0);
        stack.step(&p, |_| Action::Expand);
        // Steal everything at the lowest depth.
        let _ = stack.split_lowest(true);
        // The deeper frame must still yield its three children in order.
        let mut seq = Vec::new();
        while let Some((child, _)) = stack.next_child() {
            seq.push(child.1);
        }
        assert_eq!(seq, vec![0, 1, 2]);
    }
}
