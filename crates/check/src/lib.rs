//! # yewpar-check — the workspace verification layer
//!
//! Two independent verification passes over the runtime's hand-rolled
//! concurrency protocols, both zero-dependency and CI-enforced:
//!
//! 1. **Model checking** ([`sched`], [`sync`], [`models`]): a loom-style
//!    deterministic-interleaving explorer.  The five protocols the paper's
//!    replicability and termination guarantees rest on — `Termination`
//!    accounting, the `GrantCore` revocation lease (`runtime/grant.rs`),
//!    `CancelToken` trees, the `TraceBuffer` ring, and `OrderedPool` shard
//!    drain — are extracted into small models written against shimmed
//!    primitives and explored exhaustively at bounded configurations (2-3
//!    threads).  Counterexamples print the full interleaving schedule and a
//!    replayable choice sequence.  Injected known-bad mutations (see each model's `Mutation`
//!    enum) prove the checker actually catches the bug classes it claims.
//!
//! 2. **Source lint** ([`lint`], `src/bin/lint.rs`): repo-invariant checks
//!    that every `Ordering::Relaxed` site carries a `// ordering:`
//!    justification, that hot paths don't `unwrap()`, and that every
//!    `TraceEvent` emission is paired with its counter increment —
//!    violations name the offending `file:line`, allowlisted via
//!    `crates/check/lint.toml` with written justifications.
//!
//! Run locally:
//!
//! ```text
//! cargo run -p yewpar-check --bin lint
//! cargo run -p yewpar-check --release --bin modelcheck
//! cargo test -p yewpar-check --release
//! ```

pub mod clock;
pub mod lint;
pub mod models;
pub mod sched;
pub mod sync;
pub mod thread;

pub use sched::{Config, Failure, Report, Strategy};
