//! The verification gate's own acceptance tests:
//!
//! * every faithful protocol model passes an **exhaustive** bounded DFS;
//! * every catalogued known-bad mutation produces a counterexample whose
//!   printed interleaving is non-empty (the checker catches the bug
//!   classes it claims to catch);
//! * a recorded counterexample replays deterministically.

use yewpar_check::models::{bounded, cancel, grant, ordered_pool, termination, trace_ring};
use yewpar_check::{Config, Strategy};

fn cfg() -> Config {
    Config::default()
}

#[test]
fn all_faithful_models_pass_exhaustively() {
    for report in yewpar_check::models::suite() {
        report.assert_ok();
        assert!(
            report.schedules > 1,
            "model `{}` explored a single schedule: no concurrency exercised",
            report.name
        );
    }
}

#[test]
fn termination_relaxed_done_publish_is_caught() {
    let report = termination::check(
        termination::Mutation::DoneStoreRelaxed,
        Strategy::Dfs,
        &cfg(),
    );
    let failure = report.assert_caught();
    assert!(
        failure.message.contains("done observed with outstanding"),
        "unexpected counterexample: {}",
        failure.message
    );
    assert!(
        !failure.schedule.is_empty(),
        "counterexample lacks an interleaving"
    );
}

#[test]
fn termination_latch_lost_wakeup_is_caught_as_deadlock() {
    let report = termination::check_latch(
        termination::Mutation::LatchNotifyWithoutLock,
        Strategy::Dfs,
        &cfg(),
    );
    let failure = report.assert_caught();
    assert!(
        failure.message.contains("deadlock"),
        "lost wakeup should surface as a deadlock, got: {}",
        failure.message
    );
    assert!(
        failure.message.contains("lost wakeup"),
        "deadlock report should identify the condvar waiter, got: {}",
        failure.message
    );
}

#[test]
fn grant_split_claim_double_ack_is_caught() {
    let report = grant::check(grant::Mutation::SplitClaim, Strategy::Dfs, &bounded());
    let failure = report.assert_caught();
    assert!(
        failure.message.contains("claimed twice") || failure.message.contains("acked"),
        "unexpected counterexample: {}",
        failure.message
    );
}

#[test]
fn grant_relaxed_ack_publish_is_caught() {
    let report = grant::check(grant::Mutation::AckFlagRelaxed, Strategy::Dfs, &bounded());
    let failure = report.assert_caught();
    assert!(
        failure.message.contains("payload stale"),
        "unexpected counterexample: {}",
        failure.message
    );
}

#[test]
fn cancel_skipping_ancestor_walk_is_caught() {
    let report = cancel::check(cancel::Mutation::NoAncestorWalk, Strategy::Dfs, &cfg());
    report.assert_caught();
}

#[test]
fn cancel_orphan_child_snapshot_is_caught() {
    let report = cancel::check(
        cancel::Mutation::SnapshotParentAtCreation,
        Strategy::Dfs,
        &cfg(),
    );
    let failure = report.assert_caught();
    assert!(
        failure.message.contains("orphan child"),
        "unexpected counterexample: {}",
        failure.message
    );
}

#[test]
fn trace_drain_without_quiescence_is_caught() {
    let report = trace_ring::check(
        trace_ring::Mutation::DrainWithoutQuiescence,
        Strategy::Dfs,
        &cfg(),
    );
    let failure = report.assert_caught();
    assert!(
        failure.message.contains("torn record") || failure.message.contains("uninitialised"),
        "unexpected counterexample: {}",
        failure.message
    );
}

#[test]
fn trace_dropped_counter_reset_is_caught() {
    let report = trace_ring::check(
        trace_ring::Mutation::DroppedResetOnDrain,
        Strategy::Dfs,
        &cfg(),
    );
    let failure = report.assert_caught();
    assert!(
        failure.message.contains("went backwards"),
        "unexpected counterexample: {}",
        failure.message
    );
}

#[test]
fn ordered_pool_unpublished_push_is_caught() {
    let report = ordered_pool::check(
        ordered_pool::Mutation::SkipOccupiedPublish,
        Strategy::Dfs,
        &bounded(),
    );
    let failure = report.assert_caught();
    assert!(
        failure.message.contains("lost or duplicated"),
        "unexpected counterexample: {}",
        failure.message
    );
}

#[test]
fn ordered_pool_lifo_drain_is_caught() {
    let report = ordered_pool::check(
        ordered_pool::Mutation::PopNewestFirst,
        Strategy::Dfs,
        &bounded(),
    );
    let failure = report.assert_caught();
    assert!(
        failure.message.contains("out of arrival order"),
        "unexpected counterexample: {}",
        failure.message
    );
}

#[test]
fn counterexamples_replay_deterministically() {
    let first = termination::check(
        termination::Mutation::DoneStoreRelaxed,
        Strategy::Dfs,
        &cfg(),
    );
    let failure = first.assert_caught().clone();

    let replayed = termination::check(
        termination::Mutation::DoneStoreRelaxed,
        Strategy::Replay(failure.choices.clone()),
        &cfg(),
    );
    let refailure = replayed.assert_caught();
    assert_eq!(
        replayed.schedules, 1,
        "replay must execute exactly one schedule"
    );
    assert_eq!(refailure.message, failure.message);
    assert_eq!(refailure.schedule, failure.schedule);
}

#[test]
fn random_strategy_is_deterministic_per_seed() {
    let a = grant::check(
        grant::Mutation::None,
        Strategy::Random {
            seed: 0xA11CE,
            iterations: 200,
        },
        &cfg(),
    );
    let b = grant::check(
        grant::Mutation::None,
        Strategy::Random {
            seed: 0xA11CE,
            iterations: 200,
        },
        &cfg(),
    );
    assert!(a.failure.is_none() && b.failure.is_none());
    assert_eq!(a.schedules, b.schedules);
}
