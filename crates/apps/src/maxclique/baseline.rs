//! Hand-written Maximum Clique solvers (the Table 1 comparison point).
//!
//! The paper compares YewPar against a search-specific C++ implementation
//! (sequential) and an OpenMP version that creates one task per depth-1 node
//! (parallel).  These are the equivalent hand-written Rust solvers: they use
//! the same branching rule and greedy-colouring bound as the skeleton-based
//! [`super::MaxClique`] application, but are specialised — recursion instead
//! of a generator stack, in-place candidate updates, no generic driver, no
//! metrics — so the difference in runtime against the skeleton measures the
//! *cost of generality* of the framework.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use yewpar::bitset::BitSet;
use yewpar_instances::Graph;

use super::greedy_colour;

/// Result of a hand-written clique search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliqueResult {
    /// Members of the best clique found.
    pub clique: Vec<usize>,
    /// Its size.
    pub size: u32,
    /// Number of search-tree nodes expanded.
    pub nodes: u64,
}

/// Specialised sequential branch-and-bound Maximum Clique solver.
pub fn sequential_max_clique(graph: &Graph) -> CliqueResult {
    let mut best = Vec::new();
    let mut best_size = 0u32;
    let mut nodes = 0u64;
    let mut current = Vec::new();
    let candidates = BitSet::full(graph.order());
    expand(
        graph,
        &mut current,
        &candidates,
        &mut best,
        &mut best_size,
        &mut nodes,
    );
    CliqueResult {
        clique: best,
        size: best_size,
        nodes,
    }
}

fn expand(
    graph: &Graph,
    current: &mut Vec<usize>,
    candidates: &BitSet,
    best: &mut Vec<usize>,
    best_size: &mut u32,
    nodes: &mut u64,
) {
    *nodes += 1;
    if current.len() as u32 > *best_size {
        *best_size = current.len() as u32;
        *best = current.clone();
    }
    if candidates.is_empty() {
        return;
    }
    let mut remaining = candidates.clone();
    for &(v, colour) in greedy_colour(graph, candidates).iter().rev() {
        // Colour-bound cut: everything from this position downwards can add
        // at most `colour` vertices.
        if current.len() as u32 + colour <= *best_size {
            return;
        }
        let v = v as usize;
        remaining.remove(v);
        let mut next = remaining.clone();
        next.intersect_with(graph.neighbours(v));
        current.push(v);
        expand(graph, current, &next, best, best_size, nodes);
        current.pop();
    }
}

/// Specialised parallel solver that statically splits the search at depth 1 —
/// one task per root branch, executed by a small thread pool — mirroring the
/// OpenMP `task`-per-depth-1-node comparison implementation in the paper.
pub fn parallel_max_clique_depth1(graph: &Graph, workers: usize) -> CliqueResult {
    let workers = workers.max(1);
    let all = BitSet::full(graph.order());
    let coloured = greedy_colour(graph, &all);

    // Build the depth-1 branches exactly as the sequential solver would
    // (reverse colouring order, shrinking candidate sets).
    let mut branches = Vec::new();
    let mut remaining = all;
    for &(v, _) in coloured.iter().rev() {
        let v = v as usize;
        remaining.remove(v);
        let mut cands = remaining.clone();
        cands.intersect_with(graph.neighbours(v));
        branches.push((v, cands));
    }

    let best_size = AtomicU32::new(0);
    let best_clique: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let total_nodes = AtomicU32::new(0);
    let next_branch = AtomicU32::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut nodes = 0u64;
                loop {
                    // ordering: work-distribution ticket — only the RMW's
                    // atomicity matters; branches[] is read-only shared data.
                    let idx = next_branch.fetch_add(1, Ordering::Relaxed) as usize;
                    if idx >= branches.len() {
                        break;
                    }
                    let (v, cands) = &branches[idx];
                    let mut current = vec![*v];
                    par_expand(
                        graph,
                        &mut current,
                        cands,
                        &best_size,
                        &best_clique,
                        &mut nodes,
                    );
                }
                // ordering: node tally, read only after the scope joins.
                total_nodes.fetch_add(nodes as u32, Ordering::Relaxed);
            });
        }
    });

    let clique = best_clique.into_inner().unwrap();
    CliqueResult {
        size: clique.len() as u32,
        clique,
        // ordering: every contributing thread joined at scope exit above.
        nodes: total_nodes.load(Ordering::Relaxed) as u64,
    }
}

fn par_expand(
    graph: &Graph,
    current: &mut Vec<usize>,
    candidates: &BitSet,
    best_size: &AtomicU32,
    best_clique: &Mutex<Vec<usize>>,
    nodes: &mut u64,
) {
    *nodes += 1;
    let size = current.len() as u32;
    // ordering: incumbent bound — a stale read only weakens pruning or takes
    // the lock needlessly; the clique itself travels under the mutex and the
    // improvement is re-validated against the locked state.
    if size > best_size.load(Ordering::Relaxed) {
        let mut guard = best_clique.lock().unwrap();
        // Re-check under the lock: another worker may have improved first.
        if size > guard.len() as u32 {
            *guard = current.clone();
            // ordering: bound mirror updated under the lock; unlocked
            // readers may lag, which is sound for branch-and-bound.
            best_size.store(size, Ordering::Relaxed);
        }
    }
    if candidates.is_empty() {
        return;
    }
    let mut remaining = candidates.clone();
    for &(v, colour) in greedy_colour(graph, candidates).iter().rev() {
        // ordering: pruning against a possibly-stale bound is sound — it
        // can only fail to prune, never cut a live branch.
        if current.len() as u32 + colour <= best_size.load(Ordering::Relaxed) {
            return;
        }
        let v = v as usize;
        remaining.remove(v);
        let mut next = remaining.clone();
        next.intersect_with(graph.neighbours(v));
        current.push(v);
        par_expand(graph, current, &next, best_size, best_clique, nodes);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxclique::MaxClique;
    use yewpar::{Coordination, Skeleton};
    use yewpar_instances::graph;

    #[test]
    fn sequential_baseline_matches_skeleton_on_random_graphs() {
        for seed in 0..5 {
            let g = graph::gnp(35, 0.5, seed);
            let base = sequential_max_clique(&g);
            let skel = Skeleton::new(Coordination::Sequential).maximise(&MaxClique::new(g.clone()));
            assert_eq!(base.size, *skel.try_score().unwrap(), "seed {seed}");
            assert!(g.is_clique(&base.clique));
        }
    }

    #[test]
    fn parallel_baseline_matches_sequential_baseline() {
        for seed in 10..14 {
            let g = graph::planted_clique(40, 0.4, 10, seed);
            let seq = sequential_max_clique(&g);
            let par = parallel_max_clique_depth1(&g, 3);
            assert_eq!(seq.size, par.size, "seed {seed}");
            assert!(g.is_clique(&par.clique));
        }
    }

    #[test]
    fn baseline_handles_trivial_graphs() {
        let empty = Graph::new(4);
        assert_eq!(sequential_max_clique(&empty).size, 1);
        assert_eq!(parallel_max_clique_depth1(&empty, 2).size, 1);
        let mut pair = Graph::new(2);
        pair.add_edge(0, 1);
        assert_eq!(sequential_max_clique(&pair).size, 2);
        assert_eq!(sequential_max_clique(&pair).clique.len(), 2);
    }

    #[test]
    fn baseline_explores_fewer_or_equal_nodes_than_unpruned_search() {
        // Sanity: node counts are recorded and bounded by total subsets.
        let g = graph::gnp(20, 0.5, 3);
        let res = sequential_max_clique(&g);
        assert!(res.nodes > 0);
        assert!(res.nodes < 1 << 20);
    }
}
