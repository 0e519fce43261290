//! Extracted protocol models.
//!
//! Each module mirrors one concurrency protocol from `yewpar-core` — the
//! same state machine and the *same atomic orderings*, reduced to the 2-3
//! thread configuration that exercises its races.  Each exposes:
//!
//! * a `Mutation` enum: `None` is the faithful protocol; the other
//!   variants are known-bad weakenings (a dropped `Release`, a claim
//!   split into a load and a store, …) that the checker must catch, and
//! * `check(mutation, strategy, &config) -> Report`.
//!
//! [`suite`] runs the faithful version of every model exhaustively with
//! per-model budgets tuned to keep the whole pass CI-friendly.

pub mod cancel;
pub mod grant;
pub mod ordered_pool;
pub mod termination;
pub mod trace_ring;

use crate::sched::{Config, Report, Strategy};

/// Exhaustively check the faithful version of every protocol model.
///
/// Budgets: every model is explored by full DFS.  `grant` and
/// `ordered_pool` have the largest state spaces (three to four threads
/// contending on one protocol object) and run under a preemption bound of
/// 3 — enough context switches to expose every mutation in their
/// catalogues (verified by the mutation tests, which use the same bound)
/// while keeping the schedule count CI-friendly; the other four models
/// are explored unbounded.
pub fn suite() -> Vec<Report> {
    let unbounded = Config::default();
    vec![
        termination::check(termination::Mutation::None, Strategy::Dfs, &unbounded),
        termination::check_latch(termination::Mutation::None, Strategy::Dfs, &unbounded),
        grant::check(grant::Mutation::None, Strategy::Dfs, &bounded()),
        cancel::check(cancel::Mutation::None, Strategy::Dfs, &unbounded),
        trace_ring::check(trace_ring::Mutation::None, Strategy::Dfs, &unbounded),
        ordered_pool::check(ordered_pool::Mutation::None, Strategy::Dfs, &bounded()),
    ]
}

/// The preemption-bounded config used for the two largest models — shared
/// with the mutation tests so "the bug is caught" is demonstrated under
/// exactly the bound CI enforces.
pub fn bounded() -> Config {
    Config {
        preemption_bound: Some(3),
        ..Config::default()
    }
}
