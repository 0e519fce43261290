//! Tier-1 regression tests for the verification layer (`crates/check`),
//! on litmus programs: a recorded counterexample replayed as a pinned
//! schedule, plus seeded randomized-schedule smoke over the correct
//! programs.  Exhaustive exploration of the shipped protocol types lives
//! in core's `model_check` test modules
//! (`cargo test -p yewpar-core --release --features model-check`) and the
//! checker's own suite (`cargo test -p yewpar-check --release`); these
//! tests are deliberately cheap.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use yewpar_check::sched::run;
use yewpar_check::sync::{AtomicBool, AtomicU64, Condvar, Mutex};
use yewpar_check::thread;
use yewpar_check::{Config, Report, Strategy};

/// The shape of termination detection: a worker completes the last task
/// and publishes `done` with `publish`; a watcher that sees `done` must
/// see nothing outstanding.
fn done_publish(publish: Ordering, strategy: Strategy) -> Report {
    run("done-publish", strategy, &Config::default(), move || {
        let outstanding = Arc::new(AtomicU64::named("outstanding", 1));
        let done = Arc::new(AtomicBool::named("done", false));
        let worker = {
            let (outstanding, done) = (Arc::clone(&outstanding), Arc::clone(&done));
            thread::spawn_named("worker", move || {
                outstanding.fetch_sub(1, Ordering::Relaxed);
                done.store(true, publish);
            })
        };
        if done.load(Ordering::Acquire) {
            let left = outstanding.load(Ordering::Relaxed);
            assert_eq!(left, 0, "done observed with outstanding = {left}");
        }
        worker.join();
    })
}

/// Two claimers race for one token with a compare-and-swap decrement.
fn claim(strategy: Strategy) -> Report {
    run("claim", strategy, &Config::default(), || {
        let tokens = Arc::new(AtomicU64::named("tokens", 1));
        let claims = Arc::new(AtomicU64::named("claims", 0));
        let claimers: Vec<_> = (0..2)
            .map(|_| {
                let (tokens, claims) = (Arc::clone(&tokens), Arc::clone(&claims));
                thread::spawn_named("claimer", move || {
                    if tokens
                        .compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        claims.fetch_add(1, Ordering::AcqRel);
                    }
                })
            })
            .collect();
        for claimer in claimers {
            claimer.join();
        }
        assert_eq!(claims.load(Ordering::Acquire), 1, "one token, one claim");
    })
}

/// A waiter parks on a latch that a completer opens and notifies under
/// the lock.
fn latch(strategy: Strategy) -> Report {
    run("latch", strategy, &Config::default(), || {
        let open = Arc::new(Mutex::named("open", false));
        let opened = Arc::new(Condvar::named("opened"));
        let completer = {
            let (open, opened) = (Arc::clone(&open), Arc::clone(&opened));
            thread::spawn_named("completer", move || {
                *open.lock() = true;
                opened.notify_all();
            })
        };
        let mut guard = open.lock();
        while !*guard {
            guard = opened.wait(guard);
        }
        drop(guard);
        completer.join();
    })
}

/// The schedule the checker records for `done_publish(Relaxed)`: the
/// worker decrements and publishes `done` with no release edge, then the
/// watcher sees `done` but reads the initial `outstanding`:
///
/// ```text
/// T0(main)   spawn -> T1
/// T1(worker) outstanding.fetch_sub(1) (Relaxed): 1 -> 0
/// T1(worker) done.store(1, Relaxed)            <- no release edge
/// T0(main)   done.load(Acquire) -> 1
/// T0(main)   outstanding.load(Relaxed) -> 1 [stale by 1]
/// ```
///
/// Replaying it must reproduce the violation: if the scheduler's choice
/// encoding drifts, this test fails loudly rather than re-exploring.
const RECORDED: [usize; 4] = [1, 1, 0, 1];

#[test]
fn termination_relaxed_done_publish_counterexample_replays() {
    let report = done_publish(Ordering::Relaxed, Strategy::Replay(RECORDED.to_vec()));
    assert_eq!(
        report.schedules, 1,
        "a replay executes exactly one schedule"
    );
    let failure = report.failure.expect("recorded schedule must still fail");
    assert!(
        failure.message.contains("done observed with outstanding"),
        "unexpected counterexample: {}",
        failure.message
    );
    assert!(
        failure.schedule.iter().any(|s| s.contains("stale")),
        "the printed interleaving should show the stale read:\n{}",
        failure.schedule.join("\n")
    );
}

/// With `done` published `Release`, the same schedule is harmless: the
/// weakening, not the schedule, is the bug.
#[test]
fn faithful_termination_survives_the_recorded_schedule() {
    let report = done_publish(Ordering::Release, Strategy::Replay(RECORDED.to_vec()));
    assert!(
        report.failure.is_none(),
        "the Release publish failed the recorded schedule: {}",
        report.failure.unwrap()
    );
}

/// Seeded randomized-schedule smoke over the correct litmus programs:
/// deterministic per seed, a few hundred schedules each.
#[test]
fn randomized_schedule_smoke_over_faithful_models() {
    let random = || Strategy::Random {
        seed: 0x5EED_CAFE,
        iterations: 300,
    };
    for report in [
        done_publish(Ordering::Release, random()),
        claim(random()),
        latch(random()),
    ] {
        assert!(
            report.failure.is_none(),
            "`{}` failed under randomized schedules: {}",
            report.name,
            report.failure.unwrap()
        );
    }
}
