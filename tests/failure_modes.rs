//! Edge cases and failure injection across the public API: degenerate
//! configurations, trivial search spaces, unreachable decision targets,
//! pathological skeleton parameters, and mid-run lifecycle interruptions
//! (external cancellation, expired deadlines) must all behave predictably.

use std::time::Duration;

use yewpar::error::Error;
use yewpar::{CancelToken, Coordination, SearchConfig, SearchStatus, Skeleton};
use yewpar_apps::kclique::KClique;
use yewpar_apps::maxclique::MaxClique;
use yewpar_apps::semigroups::Semigroups;
use yewpar_apps::tsp::Tsp;
use yewpar_instances::{graph, Graph, TspInstance};

#[test]
fn invalid_configurations_are_rejected_up_front() {
    assert!(matches!(
        Coordination::budget(0).validate(),
        Err(Error::InvalidConfig(_))
    ));
    let cfg = SearchConfig {
        workers: 0,
        ..SearchConfig::default()
    };
    assert!(cfg.validate().is_err());
}

#[test]
#[should_panic(expected = "invalid skeleton configuration")]
fn running_with_a_zero_budget_panics_with_a_clear_message() {
    let p = MaxClique::new(Graph::new(3));
    let _ = Skeleton::new(Coordination::budget(0)).maximise(&p);
}

#[test]
fn trivial_graphs_work_under_every_coordination() {
    for coord in [
        Coordination::Sequential,
        Coordination::depth_bounded(5),
        Coordination::stack_stealing(),
        Coordination::budget(1),
        Coordination::ordered(5),
    ] {
        // Single vertex.
        let p = MaxClique::new(Graph::new(1));
        assert_eq!(
            *Skeleton::new(coord)
                .workers(3)
                .maximise(&p)
                .try_score()
                .unwrap(),
            1,
            "{coord}"
        );
        // Edgeless graph.
        let p = MaxClique::new(Graph::new(6));
        assert_eq!(
            *Skeleton::new(coord)
                .workers(3)
                .maximise(&p)
                .try_score()
                .unwrap(),
            1,
            "{coord}"
        );
        // Complete graph.
        let p = MaxClique::new(graph::gnp(8, 1.0, 0));
        assert_eq!(
            *Skeleton::new(coord)
                .workers(3)
                .maximise(&p)
                .try_score()
                .unwrap(),
            8,
            "{coord}"
        );
    }
}

#[test]
fn unreachable_decision_targets_explore_and_return_none() {
    let g = graph::gnp(25, 0.3, 9);
    let p = KClique::new(g, 24);
    for coord in [
        Coordination::Sequential,
        Coordination::depth_bounded(1),
        Coordination::stack_stealing_chunked(),
        Coordination::budget(4),
        Coordination::ordered(1),
    ] {
        let out = Skeleton::new(coord).workers(3).decide(&p);
        assert!(!out.found(), "{coord}");
        assert!(out.witness.is_none());
    }
}

#[test]
fn extreme_skeleton_parameters_still_give_correct_answers() {
    let p = Semigroups::new(9);
    let expected = Skeleton::new(Coordination::Sequential).enumerate(&p).value;
    // A depth cutoff far beyond the tree depth turns every node into a task.
    let out = Skeleton::new(Coordination::depth_bounded(1_000))
        .workers(3)
        .enumerate(&p);
    assert_eq!(out.value, expected);
    // A budget of one backtrack splits almost constantly.
    let out = Skeleton::new(Coordination::budget(1))
        .workers(3)
        .enumerate(&p);
    assert_eq!(out.value, expected);
    // A cutoff of zero never spawns.
    let out = Skeleton::new(Coordination::depth_bounded(0))
        .workers(3)
        .enumerate(&p);
    assert_eq!(out.value, expected);
    assert_eq!(out.metrics.spawns(), 0);
    // An ordered spawn depth far beyond the tree keys every node's children;
    // a spawn depth of zero degenerates to one sequentially ordered task.
    let out = Skeleton::new(Coordination::ordered(1_000))
        .workers(3)
        .enumerate(&p);
    assert_eq!(out.value, expected);
    let out = Skeleton::new(Coordination::ordered(0))
        .workers(3)
        .enumerate(&p);
    assert_eq!(out.value, expected);
    assert_eq!(out.metrics.totals.ordered_spawns, 0);
}

#[test]
fn single_worker_parallel_skeletons_degenerate_gracefully() {
    let p = Tsp::new(TspInstance::random_euclidean(9, 100.0, 3));
    let expected = Skeleton::new(Coordination::Sequential).maximise(&p);
    for coord in [
        Coordination::depth_bounded(2),
        Coordination::stack_stealing(),
        Coordination::budget(10),
        Coordination::ordered(2),
    ] {
        let out = Skeleton::new(coord).workers(1).maximise(&p);
        assert_eq!(
            out.try_score().unwrap(),
            expected.try_score().unwrap(),
            "{coord}"
        );
    }
}

/// A search tree whose *first* subtree is large (it pins the Ordered
/// sequential frontier) while a node early in the *second* subtree panics:
/// the panic happens inside a task that is pure speculation.  The panicking
/// worker's unwind guard must stop the whole search so the join re-raises,
/// rather than leaving the panicked task's `in_flight` key unretired and the
/// commit log wedged (the run would otherwise spin forever waiting for a
/// retire that can never come).
struct SpeculativeBomb;

impl yewpar::SearchProblem for SpeculativeBomb {
    type Node = Vec<u32>;
    type Gen<'a> = std::vec::IntoIter<Vec<u32>>;
    fn root(&self) -> Vec<u32> {
        Vec::new()
    }
    fn generator(&self, node: &Vec<u32>) -> Self::Gen<'_> {
        if node.first() == Some(&1) && node.len() >= 2 {
            panic!("poisoned speculative subtree");
        }
        if node.len() >= 8 {
            return vec![].into_iter();
        }
        (0..3u32)
            .map(|i| {
                let mut child = node.clone();
                child.push(i);
                child
            })
            .collect::<Vec<_>>()
            .into_iter()
    }
}

impl yewpar::Enumerate for SpeculativeBomb {
    type Value = yewpar::monoid::Sum<u64>;
    fn value(&self, _n: &Vec<u32>) -> yewpar::monoid::Sum<u64> {
        yewpar::monoid::Sum(1)
    }
}

#[test]
#[should_panic(expected = "a search worker panicked")]
fn panic_inside_a_speculative_ordered_task_errors_out_instead_of_wedging() {
    let _ = Skeleton::new(Coordination::ordered(1))
        .workers(4)
        .enumerate(&SpeculativeBomb);
}

#[test]
fn oversubscribed_worker_counts_are_safe() {
    // Far more workers than hardware threads (and than available tasks).
    let p = MaxClique::new(graph::gnp(20, 0.5, 77));
    let expected = *Skeleton::new(Coordination::Sequential)
        .maximise(&p)
        .try_score()
        .unwrap();
    let out = Skeleton::new(Coordination::depth_bounded(2))
        .workers(32)
        .maximise(&p);
    assert_eq!(*out.try_score().unwrap(), expected);
    assert_eq!(out.metrics.workers, 32);
}

// ---------------------------------------------------------------------------
// Anytime lifecycle: cancel-mid-run and deadline-exceeded, every
// coordination × every search type
// ---------------------------------------------------------------------------

/// A deterministic irregular tree far too large to finish (multi-second at
/// any worker count): fan-out `state % 4 + 1`, objective `state % 1000`
/// (so the optimum is bounded by 999), decision target 1000 — unreachable,
/// so neither optimisation pruning nor a decision short-circuit can end the
/// search before the lifecycle interruption under test does.
struct Endless;

impl yewpar::SearchProblem for Endless {
    type Node = (u32, u64);
    type Gen<'a> = std::vec::IntoIter<(u32, u64)>;
    fn root(&self) -> (u32, u64) {
        (0, 1)
    }
    fn generator(&self, node: &(u32, u64)) -> Self::Gen<'_> {
        let (depth, seed) = *node;
        if depth >= 64 {
            return vec![].into_iter();
        }
        let fanout = (seed % 4) as usize + 1;
        (0..fanout)
            .map(|i| {
                (
                    depth + 1,
                    seed.wrapping_mul(6364136223846793005)
                        .wrapping_add(i as u64),
                )
            })
            .collect::<Vec<_>>()
            .into_iter()
    }
}

impl yewpar::Enumerate for Endless {
    type Value = yewpar::monoid::Sum<u64>;
    fn value(&self, _n: &(u32, u64)) -> yewpar::monoid::Sum<u64> {
        yewpar::monoid::Sum(1)
    }
}

impl yewpar::Optimise for Endless {
    type Score = u64;
    fn objective(&self, node: &(u32, u64)) -> u64 {
        node.1 % 1000
    }
}

impl yewpar::Decide for Endless {
    fn target(&self) -> u64 {
        1_000 // objective < 1000 everywhere: never witnessed
    }
}

fn every_coordination() -> [Coordination; 5] {
    [
        Coordination::Sequential,
        Coordination::depth_bounded(3),
        Coordination::stack_stealing_chunked(),
        Coordination::budget(100),
        Coordination::ordered(3),
    ]
}

/// Run one interrupted search of each type and apply the shared
/// assertions: correct status, drained termination counter, no wedged
/// workers (the call returned, and fast).  The optimisation runs on
/// `Endless` parked at its first expansion for one whole `budget` (see
/// [`ParkAtExpansion`]): the root is scored, setting the incumbent, before
/// that expansion, and the deadline expires while it is parked.  The
/// partial incumbent therefore no longer depends on how far the search got
/// in 10 ms; only a root task that has not started one budget after the
/// search began could still miss it.
fn assert_interrupted(skeleton: &Skeleton, expected: SearchStatus, label: &str, budget: Duration) {
    let enumeration = skeleton.enumerate(&Endless);
    assert_eq!(enumeration.status, expected, "{label}: enumerate status");
    assert_eq!(
        enumeration.metrics.outstanding_tasks, 0,
        "{label}: enumerate leaked outstanding tasks"
    );

    let optimisation = skeleton.maximise(&ParkAtExpansion::new(Endless, 1, budget));
    assert_eq!(optimisation.status, expected, "{label}: maximise status");
    assert_eq!(
        optimisation.metrics.outstanding_tasks, 0,
        "{label}: maximise leaked outstanding tasks"
    );
    // Anytime semantics: the partial incumbent is reported, and it can
    // never exceed the mathematical optimum of the objective.
    let score = *optimisation
        .try_score()
        .unwrap_or_else(|| panic!("{label}: interrupted maximise must keep its partial incumbent"));
    assert!(score <= 999, "{label}: impossible incumbent {score}");

    let decision = skeleton.decide(&Endless);
    assert_eq!(decision.status, expected, "{label}: decide status");
    assert!(
        decision.witness.is_none(),
        "{label}: the unreachable target cannot have a witness"
    );
    assert_eq!(
        decision.metrics.outstanding_tasks, 0,
        "{label}: decide leaked outstanding tasks"
    );
}

#[test]
fn deadline_exceeded_unwinds_every_coordination_and_search_type() {
    let budget = Duration::from_millis(10);
    for coordination in every_coordination() {
        for workers in [1usize, 4, 8] {
            let skeleton = Skeleton::new(coordination)
                .workers(workers)
                .deadline(budget);
            let started = std::time::Instant::now();
            assert_interrupted(
                &skeleton,
                SearchStatus::DeadlineExceeded,
                &format!("{coordination} workers={workers}"),
                budget,
            );
            // Three interrupted searches with 10 ms budgets: anything near
            // seconds means a worker wedged past its deadline.
            assert!(
                started.elapsed() < Duration::from_secs(20),
                "{coordination} workers={workers}: runs took {:?}",
                started.elapsed()
            );
        }
    }
}

#[test]
fn external_cancel_unwinds_every_coordination_and_search_type() {
    for coordination in every_coordination() {
        for workers in [1usize, 4, 8] {
            // Tokens are single-use, so each search gets a fresh token and a
            // fresh skeleton; the search pulls it itself at its first
            // expansion (see [`CancelAtExpansion`]).
            let label = format!("{coordination} workers={workers}");
            let run = |make: &dyn Fn(&Skeleton, &CancelAtExpansion<Endless>)| {
                let token = CancelToken::new();
                let skeleton = Skeleton::new(coordination)
                    .workers(workers)
                    .cancel_token(token.clone());
                make(&skeleton, &CancelAtExpansion::new(Endless, token));
            };
            run(&|s, p| {
                let out = s.enumerate(p);
                assert_eq!(out.status, SearchStatus::Cancelled, "{label}: enumerate");
                assert_eq!(out.metrics.outstanding_tasks, 0, "{label}: enumerate");
            });
            run(&|s, p| {
                let out = s.maximise(p);
                assert_eq!(out.status, SearchStatus::Cancelled, "{label}: maximise");
                assert_eq!(out.metrics.outstanding_tasks, 0, "{label}: maximise");
                assert!(
                    out.try_node().is_some(),
                    "{label}: cancelled maximise must keep its partial incumbent"
                );
            });
            run(&|s, p| {
                let out = s.decide(p);
                assert_eq!(out.status, SearchStatus::Cancelled, "{label}: decide");
                assert_eq!(out.metrics.outstanding_tasks, 0, "{label}: decide");
                assert!(out.witness.is_none(), "{label}: decide");
            });
        }
    }
}

/// A zero deadline (or a token pulled before submission) stops the search
/// before any worker runs: the seeded root must still be drained and the
/// outcome must be well-formed — `best` may legitimately be empty, which
/// is why the outcome only offers the fallible `try_node`/`try_score`.
#[test]
fn pre_expired_deadline_exits_cleanly_with_an_empty_best() {
    for coordination in every_coordination() {
        let skeleton = Skeleton::new(coordination)
            .workers(4)
            .deadline(Duration::ZERO);
        let out = skeleton.maximise(&Endless);
        assert_eq!(out.status, SearchStatus::DeadlineExceeded, "{coordination}");
        assert_eq!(out.metrics.outstanding_tasks, 0, "{coordination}");
        assert!(
            out.try_node().is_none() && out.try_score().is_none(),
            "{coordination}: nothing was searched, so there is no incumbent"
        );
    }
}

/// An instance wrapper that truncates a search by construction: its `k`-th
/// expansion parks the expanding worker for one whole deadline budget.  The
/// deadline clock starts before the first expansion, so the budget has
/// provably run out when the worker resumes, and that worker observes it at
/// its next poll (at most one poll stride later, or between tasks) — the
/// outcome is `DeadlineExceeded` however fast the machine is.
struct ParkAtExpansion<P> {
    inner: P,
    park_at: u64,
    budget: Duration,
    expansions: std::sync::atomic::AtomicU64,
}

impl<P> ParkAtExpansion<P> {
    fn new(inner: P, park_at: u64, budget: Duration) -> Self {
        ParkAtExpansion {
            inner,
            park_at,
            budget,
            expansions: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl<P: yewpar::SearchProblem> yewpar::SearchProblem for ParkAtExpansion<P> {
    type Node = P::Node;
    type Gen<'a>
        = P::Gen<'a>
    where
        P: 'a;
    fn root(&self) -> P::Node {
        self.inner.root()
    }
    fn generator(&self, node: &P::Node) -> Self::Gen<'_> {
        let nth = self
            .expansions
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        if nth == self.park_at {
            std::thread::sleep(self.budget);
        }
        self.inner.generator(node)
    }
}

impl<P: yewpar::Optimise> yewpar::Optimise for ParkAtExpansion<P> {
    type Score = P::Score;
    fn objective(&self, node: &P::Node) -> P::Score {
        self.inner.objective(node)
    }
    fn bound(&self, node: &P::Node) -> Option<P::Score> {
        self.inner.bound(node)
    }
    fn prune_level(&self) -> yewpar::PruneLevel {
        self.inner.prune_level()
    }
}

/// An instance wrapper that cancels its own search from inside: every
/// expansion pulls `token` (only the first pull has an effect).  The root
/// is scored before it is expanded, so a cancelled optimisation holds an
/// incumbent by construction, and no watchdog thread races the root task.
struct CancelAtExpansion<P> {
    inner: P,
    token: CancelToken,
}

impl<P> CancelAtExpansion<P> {
    fn new(inner: P, token: CancelToken) -> Self {
        CancelAtExpansion { inner, token }
    }
}

impl<P: yewpar::SearchProblem> yewpar::SearchProblem for CancelAtExpansion<P> {
    type Node = P::Node;
    type Gen<'a>
        = P::Gen<'a>
    where
        P: 'a;
    fn root(&self) -> P::Node {
        self.inner.root()
    }
    fn generator(&self, node: &P::Node) -> Self::Gen<'_> {
        self.token.cancel();
        self.inner.generator(node)
    }
}

impl<P: yewpar::Enumerate> yewpar::Enumerate for CancelAtExpansion<P> {
    type Value = P::Value;
    fn value(&self, node: &P::Node) -> P::Value {
        self.inner.value(node)
    }
}

impl<P: yewpar::Optimise> yewpar::Optimise for CancelAtExpansion<P> {
    type Score = P::Score;
    fn objective(&self, node: &P::Node) -> P::Score {
        self.inner.objective(node)
    }
    fn bound(&self, node: &P::Node) -> Option<P::Score> {
        self.inner.bound(node)
    }
    fn prune_level(&self) -> yewpar::PruneLevel {
        self.inner.prune_level()
    }
}

impl<P: yewpar::Decide> yewpar::Decide for CancelAtExpansion<P> {
    fn target(&self) -> P::Score {
        self.inner.target()
    }
}

/// Truncated-vs-complete agreement: a deadline-truncated optimisation's
/// partial incumbent can never exceed the sequential optimum of the same
/// instance.  The truncation is constructed (see [`ParkAtExpansion`]), so
/// every coordination really is cut short after its first 64 expansions.
#[test]
fn partial_incumbent_never_exceeds_the_sequential_optimum() {
    use yewpar_apps::irregular::Irregular;
    let reference = Skeleton::new(Coordination::Sequential).maximise(&Irregular::new(13, 7));
    assert!(reference.status.is_complete());
    let optimum = *reference.try_score().expect("complete run has a best");
    let budget = Duration::from_millis(100);
    for coordination in every_coordination() {
        let instance = ParkAtExpansion::new(Irregular::new(13, 7), 64, budget);
        let out = Skeleton::new(coordination)
            .workers(4)
            .deadline(budget)
            .maximise(&instance);
        assert_eq!(
            out.status,
            SearchStatus::DeadlineExceeded,
            "{coordination}: the parked expansion outlasts the deadline"
        );
        let partial = *out
            .try_score()
            .unwrap_or_else(|| panic!("{coordination}: the root is scored before expansion 64"));
        assert!(
            partial <= optimum,
            "{coordination}: partial incumbent {partial} beats the optimum {optimum}"
        );
        assert_eq!(out.metrics.outstanding_tasks, 0, "{coordination}");
    }
}

/// Task accounting stays exact when `purge_after` races batched pushes: the
/// sharded `OrderedPool` buffers insertions per worker before migrating them
/// into the global heap, and a purge running mid-migration must count every
/// entry exactly once — each spawned task is either popped (completed) or
/// purged/cleared (discarded), never both, never neither.  A miscount here
/// would surface in the Ordered skeleton as a permanently non-zero
/// `Termination::outstanding()` (the leak masked only by the stop flag).
#[test]
fn concurrent_purge_and_batched_pushes_keep_task_accounting_exact() {
    use std::sync::Arc;
    use yewpar::termination::Termination;
    use yewpar::workpool::{OrderedPool, SeqKey};

    let pool: Arc<OrderedPool<u64>> = Arc::new(OrderedPool::with_shards(4));
    let term = Arc::new(Termination::new(0));
    // Keys with a first path step past 2 sort after the bound and are
    // eligible for the purge; earlier keys must all survive to be popped.
    let bound = SeqKey::root().child(2);

    let pushers: Vec<_> = (0..4u32)
        .map(|t| {
            let pool = Arc::clone(&pool);
            let term = Arc::clone(&term);
            std::thread::spawn(move || {
                let base = SeqKey::root().child(t);
                for round in 0..50u32 {
                    let parent = base.child(round);
                    term.task_spawned(8);
                    pool.push_batch_from(
                        t as usize,
                        (0..8u32).map(|i| (parent.child(i), u64::from(t * 1000 + round * 8 + i))),
                    );
                }
            })
        })
        .collect();
    let purger = {
        let pool = Arc::clone(&pool);
        let term = Arc::clone(&term);
        std::thread::spawn(move || {
            for _ in 0..200 {
                let purged = pool.purge_after(&bound) as u64;
                term.tasks_discarded(purged);
                std::thread::yield_now();
            }
        })
    };
    for h in pushers {
        h.join().unwrap();
    }
    purger.join().unwrap();

    // Catch stragglers pushed after the purger's last pass, then drain the
    // survivors: everything left must sort at or before the bound.
    let bound = SeqKey::root().child(2);
    term.tasks_discarded(pool.purge_after(&bound) as u64);
    let mut drained = 0u64;
    while let Some((key, _)) = pool.pop() {
        assert!(key <= bound, "a purged-range key survived: {key:?}");
        term.task_completed();
        drained += 1;
    }
    assert!(drained > 0, "pre-bound batches must survive the purges");
    assert_eq!(
        term.outstanding(),
        0,
        "every batched push must be completed or discarded exactly once"
    );
}
