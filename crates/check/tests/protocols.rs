//! The checker's self-tests, on litmus programs: minimal programs, each
//! with one concurrency bug class the checker claims to catch, written
//! here in a correct and a broken form.
//!
//! * every correct litmus program passes an **exhaustive** DFS;
//! * every broken one produces a counterexample with a printed
//!   interleaving: a `Relaxed` publish read stale, a compare-and-swap
//!   split into a load and a store, a notify without the lock
//!   (reported as a deadlock), and a cell handed over by a `Relaxed` flag
//!   (reported as a data race on the cell);
//! * a recorded counterexample replays deterministically, and seeded
//!   random exploration is deterministic per seed.
//!
//! The shipped protocol types are checked by core's own `model_check`
//! test modules (`cargo test -p yewpar-core --features model-check`).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use yewpar_check::sched::run;
use yewpar_check::sync::{channel, AtomicBool, AtomicU64, Condvar, Mutex, UnsafeCell};
use yewpar_check::thread;
use yewpar_check::{Config, Report, Strategy};

/// A writer stores `data`, then publishes `flag` with `publish`; a reader
/// that sees the flag must see the data.
fn publish(publish: Ordering, strategy: Strategy) -> Report {
    run("publish", strategy, &Config::default(), move || {
        let data = Arc::new(AtomicU64::named("data", 0));
        let flag = Arc::new(AtomicBool::named("flag", false));
        let writer = {
            let (data, flag) = (Arc::clone(&data), Arc::clone(&flag));
            thread::spawn_named("writer", move || {
                data.store(1, Ordering::Relaxed);
                flag.store(true, publish);
            })
        };
        if flag.load(Ordering::Acquire) {
            let seen = data.load(Ordering::Relaxed);
            assert_eq!(seen, 1, "flag seen but data read stale ({seen})");
        }
        writer.join();
    })
}

/// A cell handed from a writer to a reader by a flag, as a reply buffer is:
/// the writer fills the cell and sets the flag with `publish`; a reader
/// that sees the flag takes the cell over.
fn handover(publish: Ordering, strategy: Strategy) -> Report {
    struct Shared {
        cell: UnsafeCell<Vec<u32>>,
        flag: AtomicBool,
    }
    // SAFETY: the flag hands the cell from the writer to the reader; the
    // broken form is exactly what the checker must reject.
    unsafe impl Sync for Shared {}
    run("handover", strategy, &Config::default(), move || {
        let shared = Arc::new(Shared {
            cell: UnsafeCell::named("cell", Vec::new()),
            flag: AtomicBool::named("flag", false),
        });
        let writer = {
            let shared = Arc::clone(&shared);
            thread::spawn_named("writer", move || {
                // SAFETY: the writer owns the cell until it sets the flag.
                unsafe { shared.cell.with_mut(|cell| cell.push(1)) };
                shared.flag.store(true, publish);
            })
        };
        if shared.flag.load(Ordering::Acquire) {
            // SAFETY: the flag handed the cell over.
            let taken = unsafe { shared.cell.with_mut(std::mem::take) };
            assert_eq!(taken, [1]);
        }
        writer.join();
    })
}

/// Two threads race to claim one token; a claim is one compare-and-swap
/// decrement, or (broken) a load and a separate store.
fn claim(split: bool, strategy: Strategy) -> Report {
    run("claim", strategy, &Config::default(), move || {
        let tokens = Arc::new(AtomicU64::named("tokens", 1));
        let claims = Arc::new(AtomicU64::named("claims", 0));
        let claimers: Vec<_> = (0..2)
            .map(|_| {
                let (tokens, claims) = (Arc::clone(&tokens), Arc::clone(&claims));
                thread::spawn_named("claimer", move || {
                    let pending = tokens.load(Ordering::Acquire);
                    let won = pending > 0
                        && if split {
                            tokens.store(pending - 1, Ordering::Release);
                            true
                        } else {
                            tokens
                                .compare_exchange(
                                    pending,
                                    pending - 1,
                                    Ordering::AcqRel,
                                    Ordering::Acquire,
                                )
                                .is_ok()
                        };
                    if won {
                        claims.fetch_add(1, Ordering::AcqRel);
                    }
                })
            })
            .collect();
        for claimer in claimers {
            claimer.join();
        }
        let claims = claims.load(Ordering::Acquire);
        assert!(claims <= 1, "one token claimed {claims} times");
    })
}

/// A completer clears a latch and notifies a waiter parked on it; the
/// notify is made holding the latch's lock, or (broken) without it.
fn latch(notify_under_lock: bool, strategy: Strategy) -> Report {
    run("latch", strategy, &Config::default(), move || {
        let open = Arc::new(AtomicBool::named("open", false));
        let gate = Arc::new(Mutex::named("gate", ()));
        let opened = Arc::new(Condvar::named("opened"));
        let completer = {
            let (open, gate, opened) = (Arc::clone(&open), Arc::clone(&gate), Arc::clone(&opened));
            thread::spawn_named("completer", move || {
                open.store(true, Ordering::Release);
                if notify_under_lock {
                    let _gate = gate.lock();
                    opened.notify_all();
                } else {
                    opened.notify_all();
                }
            })
        };
        let mut guard = gate.lock();
        while !open.load(Ordering::Acquire) {
            guard = opened.wait(guard);
        }
        drop(guard);
        completer.join();
    })
}

#[test]
fn correct_litmus_programs_pass_exhaustively() {
    for report in [
        publish(Ordering::Release, Strategy::Dfs),
        claim(false, Strategy::Dfs),
        latch(true, Strategy::Dfs),
        handover(Ordering::Release, Strategy::Dfs),
    ] {
        report.assert_ok();
        assert!(
            report.schedules > 1,
            "`{}` explored a single schedule: no concurrency exercised",
            report.name
        );
    }
}

#[test]
fn a_relaxed_publish_is_caught_reading_stale() {
    let report = publish(Ordering::Relaxed, Strategy::Dfs);
    let failure = report.assert_caught();
    assert!(
        failure.message.contains("read stale"),
        "{}",
        failure.message
    );
    assert!(
        failure
            .schedule
            .iter()
            .any(|line| line.contains("stale by")),
        "the interleaving should show the stale load:\n{failure}"
    );
}

#[test]
fn a_claim_split_into_load_and_store_is_caught() {
    let report = claim(true, Strategy::Dfs);
    let failure = report.assert_caught();
    assert!(
        failure.message.contains("claimed 2 times"),
        "{}",
        failure.message
    );
}

#[test]
fn a_notify_without_the_lock_is_caught_as_a_deadlock() {
    let report = latch(false, Strategy::Dfs);
    let failure = report.assert_caught();
    assert!(failure.message.contains("deadlock"), "{}", failure.message);
    assert!(
        failure.message.contains("lost wakeup"),
        "{}",
        failure.message
    );
}

#[test]
fn a_cell_handed_over_by_a_relaxed_flag_is_caught_as_a_data_race() {
    let report = handover(Ordering::Relaxed, Strategy::Dfs);
    let failure = report.assert_caught();
    assert!(
        failure.message.contains("data race on a cell"),
        "{}",
        failure.message
    );
}

/// A channel send happens-before its receive: data stored `Relaxed` before
/// the send is visible after the receive.
#[test]
fn a_channel_send_happens_before_its_receive() {
    let report = run("send-recv", Strategy::Dfs, &Config::default(), || {
        let data = Arc::new(AtomicU64::named("data", 0));
        let (tx, rx) = channel();
        let sender = {
            let data = Arc::clone(&data);
            thread::spawn_named("sender", move || {
                data.store(1, Ordering::Relaxed);
                tx.send(());
            })
        };
        rx.recv();
        assert_eq!(
            data.load(Ordering::Relaxed),
            1,
            "data read stale after recv"
        );
        sender.join();
    });
    report.assert_ok();
}

#[test]
fn counterexamples_replay_deterministically() {
    let first = publish(Ordering::Relaxed, Strategy::Dfs);
    let failure = first.assert_caught().clone();
    let replayed = publish(Ordering::Relaxed, Strategy::Replay(failure.choices.clone()));
    let refailure = replayed.assert_caught();
    assert_eq!(replayed.schedules, 1, "a replay runs exactly one schedule");
    assert_eq!(refailure.message, failure.message);
    assert_eq!(refailure.schedule, failure.schedule);
}

#[test]
fn random_strategy_is_deterministic_per_seed() {
    let random = || Strategy::Random {
        seed: 0xA11CE,
        iterations: 200,
    };
    let (a, b) = (claim(true, random()), claim(true, random()));
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(
        a.failure.map(|f| f.choices),
        b.failure.map(|f| f.choices),
        "one seed, one sequence of schedules"
    );
}
