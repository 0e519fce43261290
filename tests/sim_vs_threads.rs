//! The discrete-event simulator must compute exactly the same search results
//! as the threaded skeletons — it only changes *when* work happens, never
//! *what* the search computes — and must be deterministic, since the paper's
//! scaling figures are regenerated from it.

use yewpar::{Coordination, Skeleton};
use yewpar_apps::irregular::Irregular;
use yewpar_apps::kclique::KClique;
use yewpar_apps::knapsack::Knapsack;
use yewpar_apps::maxclique::MaxClique;
use yewpar_apps::semigroups::Semigroups;
use yewpar_apps::uts::Uts;
use yewpar_instances::graph;
use yewpar_instances::knapsack::{KnapsackClass, KnapsackInstance};
use yewpar_sim::{simulate_decide, simulate_enumerate, simulate_maximise, SimConfig};

fn sim_coordinations() -> Vec<Coordination> {
    vec![
        Coordination::Sequential,
        Coordination::depth_bounded(2),
        Coordination::stack_stealing_chunked(),
        Coordination::budget(50),
        Coordination::ordered(2),
    ]
}

#[test]
fn simulated_maxclique_equals_threaded_result() {
    let g = graph::planted_clique(45, 0.4, 11, 808);
    let p = MaxClique::new(g);
    let reference = *Skeleton::new(Coordination::Sequential)
        .maximise(&p)
        .try_score()
        .unwrap();
    for coord in sim_coordinations() {
        for localities in [1, 4] {
            let out = simulate_maximise(&p, &SimConfig::new(coord, localities, 4));
            assert_eq!(
                out.result.as_ref().map(|(_, s)| *s),
                Some(reference),
                "{coord}, {localities} localities"
            );
        }
    }
}

#[test]
fn simulated_knapsack_equals_dp_optimum() {
    let inst = KnapsackInstance::generate(KnapsackClass::StronglyCorrelated, 20, 100, 7);
    let reference = inst.optimum_by_dp();
    let p = Knapsack::new(inst);
    for coord in sim_coordinations() {
        let out = simulate_maximise(&p, &SimConfig::new(coord, 2, 8));
        assert_eq!(out.result.map(|(_, s)| s), Some(reference), "{coord}");
    }
}

#[test]
fn simulated_enumeration_counts_every_node_exactly_once() {
    let p = Semigroups::new(10);
    let reference = Skeleton::new(Coordination::Sequential).enumerate(&p).value;
    for coord in sim_coordinations() {
        let out = simulate_enumerate(&p, &SimConfig::new(coord, 3, 5));
        assert_eq!(out.result, reference, "{coord}");
        assert_eq!(out.nodes, reference.total(), "{coord}");
    }

    let p = Uts::geometric_small(3);
    let reference = Skeleton::new(Coordination::Sequential).enumerate(&p).value;
    for coord in sim_coordinations() {
        let out = simulate_enumerate(&p, &SimConfig::new(coord, 2, 4));
        assert_eq!(out.result, reference, "{coord}");
    }
}

#[test]
fn simulated_decision_agrees_on_satisfiability() {
    let g = graph::planted_clique(40, 0.4, 10, 55);
    for (k, expected) in [(10, true), (18, false)] {
        let p = KClique::new(g.clone(), k);
        for coord in sim_coordinations() {
            let out = simulate_decide(&p, &SimConfig::new(coord, 2, 6));
            assert_eq!(out.result.is_some(), expected, "k={k}, {coord}");
        }
    }
}

#[test]
fn simulation_is_fully_deterministic() {
    let g = graph::p_hat_like(60, 0.3, 0.8, 31);
    let p = MaxClique::new(g);
    for coord in sim_coordinations() {
        let cfg = SimConfig::new(coord, 4, 4);
        let a = simulate_maximise(&p, &cfg);
        let b = simulate_maximise(&p, &cfg);
        assert_eq!(a.makespan, b.makespan, "{coord}");
        assert_eq!(a.nodes, b.nodes, "{coord}");
        assert_eq!(a.spawns, b.spawns, "{coord}");
        assert_eq!(a.steals, b.steals, "{coord}");
    }
}

/// The sim's Ordered arm populates the same coordination counters as the
/// threaded engine instead of silently leaving them at zero: sequence-keyed
/// spawns, replicable committed node counts, and speculation that is
/// surfaced (and reclaimed) rather than folded into `nodes`.  `steals` is
/// the one counter asserted *excluded*: the Ordered pool is global, so the
/// pop path has no steal to record — in either engine.
#[test]
fn simulated_ordered_counters_match_threaded_semantics() {
    // Enumeration: every spawn is sequence-keyed, nothing is speculative.
    let p = Semigroups::new(10);
    let threaded = Skeleton::new(Coordination::ordered(2))
        .workers(4)
        .enumerate(&p);
    let sim = simulate_enumerate(&p, &SimConfig::new(Coordination::ordered(2), 2, 2));
    assert_eq!(sim.nodes, threaded.metrics.nodes());
    assert_eq!(
        sim.ordered_spawns, sim.spawns,
        "every simulated ordered spawn must carry a sequence key"
    );
    assert_eq!(
        threaded.metrics.totals.ordered_spawns, sim.ordered_spawns,
        "eager keyed spawning is deterministic, so both engines agree"
    );
    assert_eq!(sim.speculative_nodes, 0);
    assert_eq!(sim.cancelled_tasks, 0);
    assert_eq!(sim.steals, 0, "a global pool has no steal path");

    // Decision: committed counts agree between engines at every simulated
    // worker count (the replicability guarantee, now held by the sim too).
    let g = graph::planted_clique(40, 0.4, 10, 55);
    let p = KClique::new(g, 10);
    let threaded = Skeleton::new(Coordination::ordered(2))
        .workers(1)
        .decide(&p);
    assert!(threaded.found());
    for localities in [1usize, 2, 4] {
        let out = simulate_decide(&p, &SimConfig::new(Coordination::ordered(2), localities, 4));
        assert!(out.result.is_some(), "{localities} localities");
        assert_eq!(
            out.nodes,
            threaded.metrics.nodes(),
            "{localities} localities: committed counts diverged"
        );
    }
}

/// Metrics honesty under multiplexing: per-search *committed* counts are
/// unchanged by co-scheduling, in both engines.  Threaded: two searches
/// co-scheduled on disjoint FairShare leases report the same node counts as
/// running alone through the blocking facade.  Simulated: the virtual-time
/// multiplexed scheduler yields identical per-search `nodes` for paired and
/// solo submissions — and its queue waits come from the scheduler's clock,
/// so FIFO waits equal the predecessor's makespan to the tick.
#[test]
fn per_search_committed_counts_are_unchanged_under_co_scheduling() {
    use yewpar::schedule::{FairShare, Fifo};
    use yewpar::{Runtime, RuntimeConfig};
    use yewpar_sim::{simulate_multiplexed, SimJob};

    // Threaded: co-scheduled vs solo.
    let p = Semigroups::new(10);
    let solo = Skeleton::new(Coordination::ordered(2))
        .workers(4)
        .enumerate(&p);
    let runtime = Runtime::with_policy(RuntimeConfig::default().workers(8), Box::new(FairShare));
    let mut cfg = yewpar::SearchConfig::new(Coordination::ordered(2));
    cfg.workers = 4;
    let handles: Vec<_> = (0..2)
        .map(|_| runtime.enumerate(Semigroups::new(10), &cfg))
        .collect();
    for handle in handles {
        let out = handle.wait();
        assert!(out.status.is_complete());
        assert_eq!(
            out.metrics.nodes(),
            solo.metrics.nodes(),
            "co-scheduling changed a search's committed work"
        );
        assert_eq!(out.value, solo.value);
    }

    // Simulated: the multiplexed mirror agrees, deterministically.
    let make_job = || {
        SimJob::new(
            SimConfig::new(Coordination::ordered(2), 1, 4),
            |granted_cfg: &SimConfig| simulate_enumerate(&Semigroups::new(10), granted_cfg),
        )
    };
    let solo_sim = simulate_multiplexed(8, &mut FairShare, 64, vec![make_job()]).outcomes;
    let paired_sim =
        simulate_multiplexed(8, &mut FairShare, 64, vec![make_job(), make_job()]).outcomes;
    for out in &paired_sim {
        assert_eq!(out.nodes, solo_sim[0].nodes);
        assert_eq!(
            out.queue_wait_ticks, 0,
            "a fitting pair is admitted at once"
        );
        assert_eq!(out.granted_workers, 4);
    }
    // FIFO's virtual queue wait is exactly the predecessor's makespan.
    let fifo_sim = simulate_multiplexed(8, &mut Fifo, 64, vec![make_job(), make_job()]).outcomes;
    assert_eq!(fifo_sim[1].queue_wait_ticks, fifo_sim[0].makespan);
    assert_eq!(fifo_sim[1].nodes, fifo_sim[0].nodes);
}

#[test]
fn adding_workers_never_changes_the_answer_and_speeds_up_enumeration() {
    // Enumeration has a fixed amount of work, so any parallel configuration
    // must produce the same count and a shorter virtual makespan than a
    // single simulated worker.
    let p = Semigroups::new(12);
    let coord = Coordination::depth_bounded(3);
    let single = simulate_enumerate(&p, &SimConfig::new(coord, 1, 1));
    for workers in [4usize, 15] {
        let out = simulate_enumerate(&p, &SimConfig::new(coord, 1, workers));
        assert_eq!(out.result, single.result, "{workers} workers");
        assert!(
            out.makespan < single.makespan,
            "{workers} workers took {} vs single-worker {}",
            out.makespan,
            single.makespan
        );
    }
}

/// Both engines apply one split rule: on one worker there is no steal and
/// no race, so the threaded engine and a 1×1 simulated cluster must split
/// the same tree into the same tasks — equal `spawns` for the (spawn-depth)
/// rule of Depth-Bounded and Ordered and for the (spawn-budget) rule of
/// Budget, and equal `nodes`.  A rule restated in one engine with a
/// different boundary (a cutoff off by one, a budget re-armed one short)
/// changes the spawn count here.
#[test]
fn one_worker_engines_split_alike() {
    let coordinations = [
        Coordination::depth_bounded(2),
        Coordination::depth_bounded(4),
        Coordination::budget(7),
        Coordination::budget(30),
        Coordination::budget(500),
        Coordination::ordered(2),
        Coordination::ordered(3),
    ];
    for (depth, seed) in [(8, 58), (10, 7), (12, 3)] {
        let p = Irregular::new(depth, seed);
        for coord in coordinations {
            let threaded = Skeleton::new(coord).workers(1).enumerate(&p);
            let sim = simulate_enumerate(&p, &SimConfig::new(coord, 1, 1));
            let case = format!("{coord} on Irregular::new({depth}, {seed})");
            assert_eq!(sim.spawns, threaded.metrics.totals.spawns, "{case}");
            assert_eq!(sim.nodes, threaded.metrics.nodes(), "{case}");
        }
    }
}
