//! Model of `yewpar_core::runtime`'s `GrantCore` — the worker lease with
//! cooperative revocation (request → compare-and-swap claim →
//! `ack_retire` → `Released`).
//!
//! Mirrored structure (see `GrantCore` in `crates/core/src/runtime/grant.rs`):
//! a request queues its timestamp under the lease lock, then adds itself
//! to `revoke_pending` with `Release`; a worker claims one request with a
//! single `Acquire` compare-and-swap decrement of `revoke_pending`, taking
//! no lock; its ack pops the timestamp under the lock and publishes the
//! `Released` flag with `Release`, so the dispatcher observing it also
//! observes the release payload.
//!
//! Checked invariants:
//! * **never lost, never double-acked**: one requested revocation is
//!   claimed and acked exactly once across racing workers;
//! * **ack visibility**: a dispatcher that observes the ack flag observes
//!   the released payload.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::sched::{run, Config, Report, Strategy};
use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Mutex};
use crate::thread;

/// Protocol weakenings the checker must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The faithful protocol.
    None,
    /// The claim is a load and a separate store instead of one
    /// compare-and-swap: two racing workers both read the single pending
    /// revocation and both claim it.
    SplitClaim,
    /// The ack flag is published `Relaxed` instead of `Release`: the
    /// dispatcher can observe the ack while reading a stale payload.
    AckFlagRelaxed,
}

struct GrantModel {
    revoke_pending: AtomicUsize,
    /// The queued request timestamps, as a count.
    revocations: Mutex<u64>,
    acked: AtomicU64,
    ack_payload: AtomicU64,
    ack_flag: AtomicBool,
    mutation: Mutation,
}

impl GrantModel {
    fn new(mutation: Mutation) -> Self {
        GrantModel {
            revoke_pending: AtomicUsize::named("revoke_pending", 0),
            revocations: Mutex::named("grant_inner", 0),
            acked: AtomicU64::named("acked", 0),
            ack_payload: AtomicU64::named("ack_payload", 0),
            ack_flag: AtomicBool::named("ack_flag", false),
            mutation,
        }
    }

    fn request_revoke(&self, n: usize) {
        *self.revocations.lock() += n as u64;
        self.revoke_pending.fetch_add(n, Ordering::Release);
    }

    /// Worker side: claim one pending revocation if any.
    fn try_claim_retire(&self) -> bool {
        let mut pending = self.revoke_pending.load(Ordering::Relaxed);
        while pending > 0 {
            if self.mutation == Mutation::SplitClaim {
                // Bug: decrement by a plain store of the value loaded above.
                self.revoke_pending.store(pending - 1, Ordering::Release);
                return true;
            }
            match self.revoke_pending.compare_exchange_weak(
                pending,
                pending - 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(current) => pending = current,
            }
        }
        false
    }

    fn ack_retire(&self) {
        {
            let mut revocations = self.revocations.lock();
            assert!(
                *revocations > 0,
                "grant: revocation claimed twice (its ack found no request left)"
            );
            *revocations -= 1;
        }
        // The Released control message: payload first, flag last.
        self.ack_payload.store(7, Ordering::Relaxed);
        self.acked.fetch_add(1, Ordering::AcqRel);
        let ord = match self.mutation {
            Mutation::AckFlagRelaxed => Ordering::Relaxed,
            _ => Ordering::Release,
        };
        self.ack_flag.store(true, ord);
    }
}

fn scenario(mutation: Mutation) {
    let g = Arc::new(GrantModel::new(mutation));
    // The dispatcher requests the revocation before the racing workers
    // start (the race under test is claim/ack, not request/claim — the
    // spawn edge makes the pending count visible to both workers).
    g.request_revoke(1);

    let workers: Vec<_> = (0..2)
        .map(|i| {
            let g = Arc::clone(&g);
            thread::spawn_named(if i == 0 { "worker0" } else { "worker1" }, move || {
                if g.try_claim_retire() {
                    g.ack_retire();
                }
            })
        })
        .collect();

    // Dispatcher poll, racing the workers: an observed ack implies a
    // visible payload.
    if g.ack_flag.load(Ordering::Acquire) {
        let payload = g.ack_payload.load(Ordering::Relaxed);
        assert_eq!(
            payload, 7,
            "grant: ack observed but Released payload stale ({payload})"
        );
    }

    for worker in workers {
        worker.join();
    }
    let pending = g.revoke_pending.load(Ordering::Acquire);
    assert_eq!(pending, 0, "grant: revocation lost (never claimed)");
    assert_eq!(
        *g.revocations.lock(),
        0,
        "grant: claimed retire never acked"
    );
    let acks = g.acked.load(Ordering::Acquire);
    assert_eq!(acks, 1, "grant: single revocation acked {acks} times");
}

/// Explore the grant revocation protocol.
pub fn check(mutation: Mutation, strategy: Strategy, config: &Config) -> Report {
    let name = match mutation {
        Mutation::None => "grant".to_string(),
        m => format!("grant[{m:?}]"),
    };
    run(&name, strategy, config, move || scenario(mutation))
}
