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
//!
//! A frame is only a generator and a depth: no child is made before the
//! traversal (or a split) asks for it.  The traversal never looks ahead.
//! The steal path must know whether a frame still has a child, and the only
//! way to know is to make it, so [`GenStack::steal_depth`] and
//! [`GenStack::split_lowest`] keep that one child in a stack-level slot
//! until it is handed out.

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

/// One stack frame: the generator of a node's children, plus the depth of
/// the children it yields.  It holds no child of its own; a child that the
/// steal path has taken early waits in [`GenStack`]'s `ahead` slot.
#[allow(explicit_outlives_requirements)]
struct Frame<'p, P: SearchProblem + 'p> {
    gen: P::Gen<'p>,
    child_depth: usize,
}

/// A stack of lazy node generators.
///
/// A generator that says it yields nothing — a leaf's, the most common
/// kind — is never stored: when its `size_hint` upper bound is `Some(0)`,
/// [`push`](GenStack::push) records only its child depth in `empty_top`, a
/// one-slot marker for the top frame.  The marker counts as a frame
/// everywhere (so every method means what it would mean with the empty
/// frame stored), and the next [`step`](GenStack::step) pops it as the
/// backtrack it would have been.  A generator that cannot say is stored,
/// and if it turns out empty the next step pops it as the same backtrack.
///
/// No frame holds a child made ahead of its turn; the one exception is
/// the `ahead` slot.  [`steal_depth`](GenStack::steal_depth) and
/// [`split_lowest`](GenStack::split_lowest) must make a child to learn
/// that the lowest frame with work has one, and park it there with that
/// frame's index.  A step on that frame hands the parked child out before
/// advancing the generator, and a split hands it out first, so every
/// child still comes in generator order.
#[allow(explicit_outlives_requirements)]
pub struct GenStack<'p, P: SearchProblem + 'p> {
    frames: Vec<Frame<'p, P>>,
    /// Child depth of an empty generator on top of `frames`, stored as a
    /// marker instead of a frame.
    empty_top: Option<usize>,
    /// The next child of `frames[ahead_at]`, taken from its generator by
    /// the steal path.  That frame is the lowest with unexplored children,
    /// and every frame below it is exhausted.  It is never popped while
    /// the slot is full: a step on it hands the child out first.
    ahead: Option<P::Node>,
    /// Index of the frame `ahead` belongs to, [`NO_FRAME`] while `ahead` is
    /// empty.  It lives outside the `Option` so that the traversal's test
    /// for the slot is one compare: with the index inside it, Sequential on
    /// Irregular measured about 6 % slower (2-vCPU host).
    ahead_at: usize,
}

/// `ahead_at` while the `ahead` slot is empty: no frame has this index.
const NO_FRAME: usize = usize::MAX;

impl<'p, P: SearchProblem + 'p> Default for GenStack<'p, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'p, P: SearchProblem + 'p> GenStack<'p, P> {
    /// An empty stack.
    pub fn new() -> Self {
        GenStack {
            frames: Vec::new(),
            empty_top: None,
            ahead: None,
            ahead_at: NO_FRAME,
        }
    }

    /// Push a generator for `node`'s children; `node_depth` is the depth of
    /// `node` itself (children are one level deeper).
    // Forced into the step loop: left to the inliner it stays a call, and
    // Sequential on Irregular measured about 8 % slower.
    #[inline(always)]
    pub fn push(&mut self, problem: &'p P, node: &P::Node, node_depth: usize) {
        let gen = problem.generator(node);
        let child_depth = node_depth + 1;
        if self.empty_top.is_some() {
            self.store_empty_top(problem, node);
        }
        if gen.size_hint().1 == Some(0) {
            self.empty_top = Some(child_depth);
        } else {
            self.frames.push(Frame { gen, child_depth });
        }
    }

    /// Store the empty-top marker as a real frame, so that another frame can
    /// go on top of it.  No engine pushes onto a marker (a marker is popped
    /// by the very next step); this keeps the public `push` exact for a
    /// caller that does.  The stored generator is a drained one for `node`:
    /// any exhausted generator behaves alike.
    #[cold]
    #[inline(never)]
    fn store_empty_top(&mut self, problem: &'p P, node: &P::Node) {
        if let Some(child_depth) = self.empty_top.take() {
            let mut gen = problem.generator(node);
            gen.by_ref().for_each(drop);
            self.frames.push(Frame { gen, child_depth });
        }
    }

    /// One traversal step: advance the top generator and hand its next
    /// child to `process`, then apply the returned [`Action`] — push the
    /// child's generator on [`Action::Expand`], pop the top generator on
    /// [`Action::PruneSiblings`].  When the top generator is exhausted it is
    /// popped instead and `process` is not called.  Call only on a non-empty
    /// stack.
    #[inline]
    pub fn step(&mut self, problem: &'p P, process: impl FnOnce(&P::Node) -> Action) -> Step {
        let backtrack = Step {
            popped: true,
            ..Step::default()
        };
        if self.empty_top.take().is_some() {
            return backtrack;
        }
        let Some(depth) = self.frames.last().map(|f| f.child_depth) else {
            return backtrack;
        };
        let Some(child) = self.next_child() else {
            self.frames.pop();
            return backtrack;
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

    /// Advance the top stored generator (never the empty-top marker, which
    /// holds no children): its next unexplored child.  A child parked in
    /// `ahead` for this frame comes first.
    #[inline(always)]
    fn next_child(&mut self) -> Option<P::Node> {
        let top = self.frames.len().checked_sub(1)?;
        if top == self.ahead_at {
            return self.take_ahead().map(|(_, child)| child);
        }
        self.frames[top].gen.next()
    }

    /// Empty the `ahead` slot: its frame's index and its child.
    #[cold]
    #[inline(never)]
    fn take_ahead(&mut self) -> Option<(usize, P::Node)> {
        let at = std::mem::replace(&mut self.ahead_at, NO_FRAME);
        self.ahead.take().map(|child| (at, child))
    }

    /// Fill the `ahead` slot, if it is empty, with the first unexplored
    /// child of the lowest frame that has one: the first child a bottom-up
    /// scan of the generators makes.  Returns the index of the slot's
    /// frame, or `None` when no frame has a child left.  An exhausted
    /// generator stays exhausted, so the frames the scan passes need no
    /// mark.
    fn look_ahead(&mut self) -> Option<usize> {
        if self.ahead.is_none() {
            let (at, child) = self
                .frames
                .iter_mut()
                .enumerate()
                .find_map(|(at, frame)| frame.gen.next().map(|child| (at, child)))?;
            self.ahead = Some(child);
            self.ahead_at = at;
        }
        Some(self.ahead_at)
    }

    /// True when no generators remain.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty() && self.empty_top.is_none()
    }

    /// Number of generators on the stack.
    pub fn depth(&self) -> usize {
        self.frames.len() + self.empty_top.is_some() as usize
    }

    /// Split off work for another worker: scan the stack bottom-up for the
    /// first generator with unexplored children (the lowest-depth work) and
    /// remove either one child (`chunked == false`, the (spawn-stack) rule)
    /// or every remaining child (`chunked == true`, also the (spawn-budget)
    /// rule), preserving their heuristic order.
    ///
    /// Returns an empty vector when the stack holds no unexplored children.
    /// (An empty-top marker holds none, so the scan never reaches it.)
    pub fn split_lowest(&mut self, chunked: bool) -> Vec<Task<P::Node>> {
        let mut tasks = Vec::new();
        self.split_lowest_into(chunked, &mut tasks);
        tasks
    }

    /// [`split_lowest`](Self::split_lowest), appending the split to `tasks`
    /// instead of a new vector, so a caller that reuses its buffer splits
    /// without allocating once the buffer has grown.
    pub fn split_lowest_into(&mut self, chunked: bool, tasks: &mut Vec<Task<P::Node>>) {
        let Some((at, first)) = self.look_ahead().and_then(|_| self.take_ahead()) else {
            return;
        };
        let frame = &mut self.frames[at];
        let depth = frame.child_depth;
        tasks.push(Task::new(first, depth));
        if chunked {
            tasks.extend(frame.gen.by_ref().map(|n| Task::new(n, depth)));
        }
    }

    /// Depth of the children [`split_lowest`](Self::split_lowest) would take:
    /// the first bottom-up generator with unexplored children.  `None` when
    /// the stack holds no stealable work.  This is the steal-quality hint a
    /// victim advertises — shallower means a heuristically bigger subtree.
    /// The child that proves the work exists is parked in `ahead`.
    pub fn steal_depth(&mut self) -> Option<usize> {
        let at = self.look_ahead()?;
        Some(self.frames[at].child_depth)
    }

    /// Depth of the bottom generator's children — an O(1) lower bound on
    /// [`steal_depth`](Self::steal_depth) that never touches the lazy
    /// generators, cheap enough for the threaded engine to publish as its
    /// work hint once per task.  `None` when the stack is empty.
    pub fn base_depth(&self) -> Option<usize> {
        self.frames
            .first()
            .map(|f| f.child_depth)
            .or(self.empty_top)
    }
}

#[cfg(test)]
mod tests {
    use std::iter::Peekable;

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

    /// A random tree: a node's fan-out (0 for a leaf, with the given odds)
    /// and its children's labels derive from its own label.
    struct RandomTree {
        depth: usize,
        leaf_per_mille: u64,
    }

    fn mix(x: u64) -> u64 {
        let x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        let x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    impl SearchProblem for RandomTree {
        type Node = (usize, u64);
        type Gen<'a> = std::vec::IntoIter<(usize, u64)>;
        fn root(&self) -> (usize, u64) {
            (0, 1)
        }
        fn generator(&self, &(depth, label): &(usize, u64)) -> Self::Gen<'_> {
            let h = mix(label);
            let fanout = if depth >= self.depth || h % 1000 < self.leaf_per_mille {
                0
            } else {
                1 + (h >> 32) % 4
            };
            (0..fanout)
                .map(|i| (depth + 1, mix(label ^ ((i + 1) << 40))))
                .collect::<Vec<_>>()
                .into_iter()
        }
    }

    /// A stack that stores every pushed generator as a frame, empty ones
    /// included: the reference for
    /// `genstack_matches_a_stack_that_stores_every_frame`.
    struct EveryFrame<'p, P: SearchProblem + 'p> {
        frames: Vec<(Peekable<P::Gen<'p>>, usize)>,
    }

    impl<'p, P: SearchProblem + 'p> EveryFrame<'p, P> {
        fn push(&mut self, problem: &'p P, node: &P::Node, node_depth: usize) {
            let gen = problem.generator(node).peekable();
            self.frames.push((gen, node_depth + 1));
        }

        fn step(&mut self, problem: &'p P, process: impl FnOnce(&P::Node) -> Action) -> Step {
            let frame = self.frames.last_mut().expect("a non-empty stack");
            let depth = frame.1;
            let Some(child) = frame.0.next() else {
                self.frames.pop();
                return Step {
                    popped: true,
                    ..Step::default()
                };
            };
            let action = process(&child);
            match action {
                Action::Expand => self.push(problem, &child, depth),
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

        fn split_lowest(&mut self, chunked: bool) -> Vec<Task<P::Node>> {
            for (gen, depth) in self.frames.iter_mut() {
                if gen.peek().is_some() {
                    let depth = *depth;
                    return if chunked {
                        gen.by_ref().map(|n| Task::new(n, depth)).collect()
                    } else {
                        gen.next().map(|n| vec![Task::new(n, depth)]).unwrap()
                    };
                }
            }
            Vec::new()
        }

        fn steal_depth(&mut self) -> Option<usize> {
            self.frames
                .iter_mut()
                .find_map(|(gen, depth)| gen.peek().is_some().then_some(*depth))
        }

        fn observe(&mut self) -> (usize, bool, Option<usize>, Option<usize>) {
            let base = self.frames.first().map(|f| f.1);
            let is_empty = self.frames.is_empty();
            (self.frames.len(), is_empty, base, self.steal_depth())
        }
    }

    fn observe<P: SearchProblem>(
        stack: &mut GenStack<'_, P>,
    ) -> (usize, bool, Option<usize>, Option<usize>) {
        (
            stack.depth(),
            stack.is_empty(),
            stack.base_depth(),
            stack.steal_depth(),
        )
    }

    /// The empty-top marker changes no observable: on random trees, leaf-
    /// heavy ones included, under all four actions and with splits and
    /// outside pushes mixed in, the stack yields the same `Step` sequence,
    /// processes the same nodes, hands out the same split tasks and reports
    /// the same `depth`, `is_empty`, `base_depth` and `steal_depth` after
    /// every operation as a stack that stores every frame.
    #[test]
    fn genstack_matches_a_stack_that_stores_every_frame() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut leaf_steps = 0;
        for leaf_per_mille in [0, 300, 600, 900] {
            for seed in 0..12u64 {
                let tree = RandomTree {
                    depth: 9,
                    leaf_per_mille,
                };
                let mut rng = SmallRng::seed_from_u64(seed);
                let salt = mix(seed);
                let action = |node: &(usize, u64)| match mix(node.1 ^ salt) % 100 {
                    0..=2 => Action::ShortCircuit,
                    3..=12 => Action::Prune,
                    13..=19 => Action::PruneSiblings,
                    _ => Action::Expand,
                };
                let mut stack = GenStack::new();
                let mut reference = EveryFrame { frames: Vec::new() };
                stack.push(&tree, &tree.root(), 0);
                reference.push(&tree, &tree.root(), 0);
                for op in 0..20_000 {
                    let at = format!("leaves {leaf_per_mille}/1000, seed {seed}, op {op}");
                    assert_eq!(observe(&mut stack), reference.observe(), "{at}");
                    if reference.frames.is_empty() {
                        break;
                    }
                    match rng.gen_range(0..100u32) {
                        0..=3 => {
                            let chunked = rng.gen_bool(0.5);
                            let split = stack.split_lowest(chunked);
                            assert_eq!(split, reference.split_lowest(chunked), "{at}");
                            continue;
                        }
                        4..=5 => {
                            // A caller pushing onto the stack from outside,
                            // onto the empty-top marker or not.
                            let node = (rng.gen_range(0..9usize), rng.gen_range(0..1u64 << 62));
                            stack.push(&tree, &node, node.0);
                            reference.push(&tree, &node, node.0);
                            continue;
                        }
                        _ => {}
                    }
                    let empty_top = stack.empty_top.is_some();
                    let (mut seen, mut expected) = (None, None);
                    let step = stack.step(&tree, |n| {
                        seen = Some(*n);
                        action(n)
                    });
                    let want = reference.step(&tree, |n| {
                        expected = Some(*n);
                        action(n)
                    });
                    assert_eq!((step, seen), (want, expected), "{at}");
                    leaf_steps += empty_top as u32;
                }
            }
        }
        assert!(leaf_steps > 1000, "the marker was exercised: {leaf_steps}");
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
        while let Some(child) = stack.next_child() {
            seq.push(child.1);
        }
        assert_eq!(seq, vec![0, 1, 2]);
    }

    /// `RandomTree` behind a generator that does not state its size
    /// exactly: `(0, None)`, or with `loose` a true upper bound that
    /// overstates the children left by one for every other node (so an
    /// empty generator reports `Some(0)` only half of the time).
    struct Hinted {
        tree: RandomTree,
        loose: bool,
    }

    struct HintedGen {
        children: std::vec::IntoIter<(usize, u64)>,
        upper_slack: Option<usize>,
    }

    impl Iterator for HintedGen {
        type Item = (usize, u64);
        fn next(&mut self) -> Option<(usize, u64)> {
            self.children.next()
        }
        fn size_hint(&self) -> (usize, Option<usize>) {
            (0, self.upper_slack.map(|slack| self.children.len() + slack))
        }
    }

    impl SearchProblem for Hinted {
        type Node = (usize, u64);
        type Gen<'a> = HintedGen;
        fn root(&self) -> (usize, u64) {
            self.tree.root()
        }
        fn generator(&self, node: &(usize, u64)) -> HintedGen {
            HintedGen {
                children: self.tree.generator(node),
                upper_slack: self.loose.then_some(node.1 as usize % 2),
            }
        }
    }

    /// How often a schedule used each path that holds no stored child.
    #[derive(Default)]
    struct Exercised {
        /// Steps that popped the empty-top marker.
        marker: u32,
        /// Expansions of a leaf whose empty generator was stored as a frame.
        stored_empty: u32,
        /// Steps that handed out the child parked in `ahead`.
        ahead: u32,
    }

    /// The random-operation schedule of
    /// `genstack_matches_a_stack_that_stores_every_frame` over any problem
    /// with `RandomTree`'s nodes: steps under all four actions, splits and
    /// outside pushes, comparing every `Step`, processed node, split and
    /// observable with [`EveryFrame`] after each operation.
    fn run_schedule<P>(problem: &P, seed: u64, at: &str) -> Exercised
    where
        P: SearchProblem<Node = (usize, u64)>,
    {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let salt = mix(seed);
        let action = |node: &(usize, u64)| match mix(node.1 ^ salt) % 100 {
            0..=2 => Action::ShortCircuit,
            3..=12 => Action::Prune,
            13..=19 => Action::PruneSiblings,
            _ => Action::Expand,
        };
        let mut seen = Exercised::default();
        let mut stack = GenStack::new();
        let mut reference = EveryFrame { frames: Vec::new() };
        stack.push(problem, &problem.root(), 0);
        reference.push(problem, &problem.root(), 0);
        for op in 0..20_000 {
            let at = format!("{at}, seed {seed}, op {op}");
            assert_eq!(observe(&mut stack), reference.observe(), "{at}");
            if reference.frames.is_empty() {
                break;
            }
            match rng.gen_range(0..100u32) {
                0..=3 => {
                    let chunked = rng.gen_bool(0.5);
                    let split = stack.split_lowest(chunked);
                    assert_eq!(split, reference.split_lowest(chunked), "{at}");
                    continue;
                }
                4..=5 => {
                    let node = (rng.gen_range(0..9usize), rng.gen_range(0..1u64 << 62));
                    stack.push(problem, &node, node.0);
                    reference.push(problem, &node, node.0);
                    continue;
                }
                _ => {}
            }
            let top = stack.frames.len().wrapping_sub(1);
            seen.marker += stack.empty_top.is_some() as u32;
            seen.ahead += (stack.empty_top.is_none() && stack.ahead_at == top) as u32;
            let (mut processed, mut expected) = (None, None);
            let step = stack.step(problem, |n| {
                processed = Some(*n);
                action(n)
            });
            let want = reference.step(problem, |n| {
                expected = Some(*n);
                action(n)
            });
            assert_eq!((step, processed), (want, expected), "{at}");
            if let Some(node) = processed.filter(|n| action(n) == Action::Expand) {
                let leaf = problem.generator(&node).next().is_none();
                seen.stored_empty += (leaf && stack.empty_top.is_none()) as u32;
            }
        }
        seen
    }

    /// Generators that cannot say they are empty are stored as frames and
    /// popped as the same backtrack, and the steal path's `ahead` slot
    /// works the same over them: the random schedule matches the stack that
    /// stores every frame for generators reporting `(0, None)` and a loose
    /// upper bound.
    #[test]
    fn genstack_matches_every_frame_without_exact_size_hints() {
        for loose in [false, true] {
            let mut seen = Exercised::default();
            for leaf_per_mille in [0, 300, 600, 900] {
                for seed in 0..12u64 {
                    let tree = RandomTree {
                        depth: 9,
                        leaf_per_mille,
                    };
                    let at = format!("loose {loose}, leaves {leaf_per_mille}/1000");
                    let run = run_schedule(&Hinted { tree, loose }, seed, &at);
                    seen.marker += run.marker;
                    seen.stored_empty += run.stored_empty;
                    seen.ahead += run.ahead;
                }
            }
            let counts = (seen.marker, seen.stored_empty, seen.ahead);
            assert_eq!(seen.marker > 1000, loose, "loose {loose}: {counts:?}");
            assert!(seen.stored_empty > 1000, "loose {loose}: {counts:?}");
            assert!(seen.ahead > 50, "loose {loose}: {counts:?}");
        }
    }

    #[test]
    fn the_ahead_slot_hands_out_its_child_first_and_dies_with_its_frame() {
        let p = Ternary { depth: 2 };
        let child = |i| (1, i);
        let tasks = |is: &[usize]| {
            is.iter()
                .map(|&i| Task::new(child(i), 1))
                .collect::<Vec<_>>()
        };
        fn step<'p>(
            p: &'p Ternary,
            stack: &mut GenStack<'p, Ternary>,
            action: Action,
        ) -> Option<(usize, usize)> {
            let mut seen = None;
            stack.step(p, |n| {
                seen = Some(*n);
                action
            });
            seen
        }

        // A step on the slot's frame yields the looked-ahead child first.
        let mut stack = GenStack::new();
        stack.push(&p, &p.root(), 0);
        assert_eq!(stack.steal_depth(), Some(1));
        assert_eq!(stack.steal_depth(), Some(1), "a second look makes no child");
        assert_eq!((stack.ahead_at, stack.ahead), (0, Some(child(0))));
        assert_eq!(step(&p, &mut stack, Action::Prune), Some(child(0)));
        assert_eq!((stack.ahead_at, stack.ahead), (NO_FRAME, None));
        assert_eq!(step(&p, &mut stack, Action::Prune), Some(child(1)));

        // A step on a higher frame leaves the slot alone; a sibling prune
        // on the slot's frame hands the child out, then drops the frame
        // with the rest of its children.
        let mut stack = GenStack::new();
        stack.push(&p, &p.root(), 0);
        step(&p, &mut stack, Action::Expand);
        assert_eq!(stack.steal_depth(), Some(1));
        assert_eq!(step(&p, &mut stack, Action::PruneSiblings), Some((2, 0)));
        assert_eq!((stack.ahead_at, stack.ahead), (0, Some(child(1))));
        assert_eq!(step(&p, &mut stack, Action::PruneSiblings), Some(child(1)));
        assert!(stack.is_empty());
        assert_eq!((stack.ahead_at, stack.ahead), (NO_FRAME, None));
        assert!(stack.split_lowest(true).is_empty());

        // Splits hand the slot's child out first, then the rest in order.
        for (chunked, taken, next) in [
            (false, tasks(&[0]), Some(child(1))),
            (true, tasks(&[0, 1, 2]), None),
        ] {
            let mut stack = GenStack::new();
            stack.push(&p, &p.root(), 0);
            assert_eq!(stack.steal_depth(), Some(1));
            assert_eq!(stack.split_lowest(chunked), taken, "chunked {chunked}");
            assert_eq!((stack.ahead_at, stack.ahead), (NO_FRAME, None));
            assert_eq!(
                step(&p, &mut stack, Action::Prune),
                next,
                "chunked {chunked}"
            );
        }
    }
}
