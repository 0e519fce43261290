//! Skeleton configuration: search coordinations and runtime parameters.

use std::time::Duration;

use crate::error::{Error, Result};

/// The search coordination: how (and when) the search tree is split into
/// parallel tasks (paper Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Coordination {
    /// Single-threaded depth-first search (Listing 2); no spawn rule.
    Sequential,
    /// Spawn the children of every node shallower than `dcutoff` as tasks,
    /// queued in heuristic order (the (spawn-depth) rule).
    DepthBounded {
        /// Nodes at depth `< dcutoff` have their children converted to tasks.
        dcutoff: usize,
    },
    /// Split the search tree on demand when an idle worker sends a steal
    /// request; victims give away their lowest-depth unexplored node, or all
    /// nodes at that depth when `chunked` (the (spawn-stack) rule).
    StackStealing {
        /// Steal every remaining sibling at the victim's lowest depth rather
        /// than a single node.
        chunked: bool,
    },
    /// Periodic load balancing: once a task has backtracked `backtracks`
    /// times, spawn all of its lowest-depth unexplored subtrees and reset the
    /// counter (the (spawn-budget) rule).
    Budget {
        /// The backtrack budget (the paper's `kbudget` / `btBudget`).
        backtracks: u64,
    },
    /// Replicable, priority-ordered search: the children of every node
    /// shallower than `spawn_depth` become tasks tagged with their *sequence
    /// key* (the path of child indices from the root), and workers always
    /// drain the globally smallest key — i.e. subtrees are processed in
    /// sequential (discrepancy) order.  Decision short-circuits are committed
    /// in sequence order, so node expansions are identical across worker
    /// counts (anomaly-free parallel search).
    Ordered {
        /// Nodes at depth `< spawn_depth` have their children converted to
        /// sequence-keyed tasks.
        spawn_depth: usize,
    },
}

impl Coordination {
    /// Depth-bounded coordination with the given cutoff depth.
    pub fn depth_bounded(dcutoff: usize) -> Self {
        Coordination::DepthBounded { dcutoff }
    }

    /// Stack-stealing coordination stealing a single node per request.
    pub fn stack_stealing() -> Self {
        Coordination::StackStealing { chunked: false }
    }

    /// Stack-stealing coordination stealing whole sibling chunks.
    pub fn stack_stealing_chunked() -> Self {
        Coordination::StackStealing { chunked: true }
    }

    /// Budget coordination with the given backtrack budget.
    pub fn budget(backtracks: u64) -> Self {
        Coordination::Budget { backtracks }
    }

    /// Ordered (replicable) coordination with the given spawn depth.
    pub fn ordered(spawn_depth: usize) -> Self {
        Coordination::Ordered { spawn_depth }
    }

    /// Short human-readable name used in metrics and benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            Coordination::Sequential => "Sequential",
            Coordination::DepthBounded { .. } => "DepthBounded",
            Coordination::StackStealing { .. } => "StackStealing",
            Coordination::Budget { .. } => "Budget",
            Coordination::Ordered { .. } => "Ordered",
        }
    }

    /// The (spawn-depth) rule, shared by Depth-Bounded (paper Listing 2's
    /// eager placement-time split) and Ordered: should a task rooted at
    /// `depth` have its children spawned as tasks instead of being explored
    /// in place?  True when `depth < dcutoff` (Depth-Bounded) or
    /// `depth < spawn_depth` (Ordered, whose children are then
    /// sequence-keyed); never for the other coordinations.  Both engines
    /// ask this once per task, after its root node expands.
    pub fn spawns_children(self, depth: usize) -> bool {
        match self {
            Coordination::DepthBounded { dcutoff } => depth < dcutoff,
            Coordination::Ordered { spawn_depth } => depth < spawn_depth,
            _ => false,
        }
    }

    /// The (spawn-budget) rule of paper Listing 4: how many backtracks a
    /// task may perform before it splits off all of its lowest-depth
    /// unexplored subtrees (in heuristic order) and starts counting afresh.
    /// `backtracks` for Budget; `u64::MAX`, i.e. never, for every other
    /// coordination.  On-demand splitting on behalf of a thief
    /// ((spawn-stack), Listing 3) is not a rule of the traversal but of the
    /// work source, because the thief's request drives it.
    pub fn backtrack_budget(self) -> u64 {
        match self {
            Coordination::Budget { backtracks } => backtracks,
            _ => u64::MAX,
        }
    }

    /// Whether this coordination can use more than one worker.
    pub fn is_parallel(&self) -> bool {
        !matches!(self, Coordination::Sequential)
    }

    /// Validate parameter ranges (e.g. a zero backtrack budget would spawn on
    /// every expansion and starve the search in pathological cases; the paper
    /// sweeps budgets of 10^4..10^7).
    pub fn validate(&self) -> Result<()> {
        match self {
            Coordination::Budget { backtracks: 0 } => Err(Error::InvalidConfig(
                "budget coordination requires a backtrack budget of at least 1".into(),
            )),
            _ => Ok(()),
        }
    }
}

impl std::fmt::Display for Coordination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Coordination::Sequential => write!(f, "Sequential"),
            Coordination::DepthBounded { dcutoff } => write!(f, "DepthBounded(d={dcutoff})"),
            Coordination::StackStealing { chunked } => {
                write!(
                    f,
                    "StackStealing({})",
                    if *chunked { "chunked" } else { "single" }
                )
            }
            Coordination::Budget { backtracks } => write!(f, "Budget(b={backtracks})"),
            Coordination::Ordered { spawn_depth } => write!(f, "Ordered(d={spawn_depth})"),
        }
    }
}

/// Runtime configuration of a skeleton execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchConfig {
    /// The search coordination.
    pub coordination: Coordination,
    /// Number of worker threads (the paper reserves one core per locality
    /// for the HPX manager thread; here every configured worker is a search
    /// worker).
    pub workers: usize,
    /// Seed for randomised victim selection in work stealing, making runs
    /// reproducible when desired.
    pub steal_seed: u64,
    /// Wall-clock budget for the whole search.  `None` (the default) runs to
    /// completion; `Some(d)` makes every coordination's workers stop at
    /// their next per-step poll once `d` has elapsed, unwinding cleanly
    /// (outstanding counters drained, pools purged) and reporting
    /// [`SearchStatus::DeadlineExceeded`] on the outcome.  Optimisation and
    /// decision searches return the partial incumbent found so far — true
    /// *anytime* semantics.  The budget starts when the search begins
    /// executing (for a queued [`Runtime`] submission: when it leaves the
    /// queue, not when it was submitted).
    ///
    /// [`SearchStatus::DeadlineExceeded`]: crate::lifecycle::SearchStatus::DeadlineExceeded
    /// [`Runtime`]: crate::runtime::Runtime
    pub deadline: Option<Duration>,
    /// Switch on the flight recorder: per-worker ring buffers of timestamped
    /// [`trace::TraceEvent`](crate::trace::TraceEvent)s (task spans, steal
    /// traffic, incumbent updates, speculation outcomes, lifecycle polls).
    /// Off by default; when off, every emission site reduces to a branch on
    /// a worker-local `Option` with zero hot-path cost (the `bench_trace`
    /// criterion A/B and the perf gate both pin this down).  Drain the
    /// recorded stream with
    /// [`Skeleton::take_trace`](crate::skeleton::Skeleton::take_trace).
    pub trace: bool,
    /// Scheduling priority of this search when submitted to a
    /// [`Runtime`](crate::runtime::Runtime).  Priority-aware policies
    /// ([`DeadlineShare`](crate::schedule::DeadlineShare)) admit, grow and
    /// preempt by it; [`Fifo`](crate::schedule::Fifo) and
    /// [`FairShare`](crate::schedule::FairShare) ignore it, and the
    /// blocking facade always does.  Defaults to
    /// [`Priority::Normal`](crate::schedule::Priority::Normal).
    pub priority: crate::schedule::Priority,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            coordination: Coordination::Sequential,
            workers: 1,
            steal_seed: 0xC0FFEE,
            deadline: None,
            trace: false,
            priority: crate::schedule::Priority::Normal,
        }
    }
}

impl SearchConfig {
    /// Construct a configuration for a coordination with a default worker
    /// count (all available parallelism for parallel coordinations).
    pub fn new(coordination: Coordination) -> Self {
        let workers = if coordination.is_parallel() {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            1
        };
        SearchConfig {
            coordination,
            workers,
            ..SearchConfig::default()
        }
    }

    /// Validate the whole configuration.
    pub fn validate(&self) -> Result<()> {
        self.coordination.validate()?;
        if self.workers == 0 {
            return Err(Error::InvalidConfig(
                "worker count must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_helpers_build_expected_variants() {
        assert_eq!(
            Coordination::depth_bounded(3),
            Coordination::DepthBounded { dcutoff: 3 }
        );
        assert_eq!(
            Coordination::stack_stealing(),
            Coordination::StackStealing { chunked: false }
        );
        assert_eq!(
            Coordination::stack_stealing_chunked(),
            Coordination::StackStealing { chunked: true }
        );
        assert_eq!(
            Coordination::budget(100),
            Coordination::Budget { backtracks: 100 }
        );
        assert_eq!(
            Coordination::ordered(3),
            Coordination::Ordered { spawn_depth: 3 }
        );
    }

    #[test]
    fn names_and_parallelism() {
        assert_eq!(Coordination::Sequential.name(), "Sequential");
        assert!(!Coordination::Sequential.is_parallel());
        assert!(Coordination::depth_bounded(1).is_parallel());
        assert!(Coordination::budget(10).is_parallel());
        assert!(Coordination::stack_stealing().is_parallel());
        assert_eq!(Coordination::ordered(2).name(), "Ordered");
        assert!(Coordination::ordered(2).is_parallel());
    }

    #[test]
    fn spawn_rules_belong_to_their_coordinations() {
        for coord in [Coordination::depth_bounded(2), Coordination::ordered(2)] {
            assert!(coord.spawns_children(1), "{coord}");
            assert!(!coord.spawns_children(2), "{coord}");
            assert_eq!(coord.backtrack_budget(), u64::MAX, "{coord}");
        }
        assert_eq!(Coordination::budget(7).backtrack_budget(), 7);
        for coord in [
            Coordination::Sequential,
            Coordination::stack_stealing(),
            Coordination::budget(7),
        ] {
            assert!(!coord.spawns_children(0), "{coord}");
        }
        assert_eq!(Coordination::Sequential.backtrack_budget(), u64::MAX);
    }

    #[test]
    fn zero_budget_is_rejected() {
        assert!(Coordination::budget(0).validate().is_err());
        assert!(Coordination::budget(1).validate().is_ok());
    }

    #[test]
    fn zero_workers_is_rejected() {
        let cfg = SearchConfig {
            workers: 0,
            ..SearchConfig::default()
        };
        assert!(cfg.validate().is_err());
        assert!(SearchConfig::default().validate().is_ok());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            Coordination::depth_bounded(2).to_string(),
            "DepthBounded(d=2)"
        );
        assert_eq!(Coordination::budget(7).to_string(), "Budget(b=7)");
        assert_eq!(
            Coordination::stack_stealing_chunked().to_string(),
            "StackStealing(chunked)"
        );
        assert_eq!(Coordination::Sequential.to_string(), "Sequential");
        assert_eq!(Coordination::ordered(4).to_string(), "Ordered(d=4)");
    }

    #[test]
    fn default_config_is_sequential_single_worker() {
        let cfg = SearchConfig::default();
        assert_eq!(cfg.coordination, Coordination::Sequential);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.deadline, None, "no deadline unless asked for");
        assert!(!cfg.trace, "the flight recorder is off by default");
    }

    #[test]
    fn new_parallel_config_uses_available_parallelism() {
        let cfg = SearchConfig::new(Coordination::depth_bounded(2));
        assert!(cfg.workers >= 1);
        let seq = SearchConfig::new(Coordination::Sequential);
        assert_eq!(seq.workers, 1);
    }
}
