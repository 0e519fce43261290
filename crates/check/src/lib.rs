//! # yewpar-check — the workspace verification layer
//!
//! Two independent verification passes over the runtime's hand-rolled
//! concurrency protocols, both zero-dependency and CI-enforced:
//!
//! 1. **Model checking** ([`sched`], [`sync`], [`thread`]): a loom-style
//!    deterministic-interleaving explorer.  Under `yewpar-core`'s
//!    `model-check` feature, core's atomics, `Mutex`, `MutexGuard` and
//!    `Condvar` are this crate's shims, so core's own tests drive the
//!    shipped protocol types under [`sched::run`], each in a
//!    `model_check` test module beside its type.  This crate knows
//!    nothing of them.  Exploration is exhaustive at bounded configurations (2-3 threads);
//!    counterexamples print the full interleaving schedule and a
//!    replayable choice sequence.  `tests/protocols.rs` shows, on small
//!    litmus programs, that the checker catches each bug class it claims.
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
//! cargo test -p yewpar-check --release
//! cargo test -p yewpar-core --release --features model-check
//! ```

pub mod clock;
pub mod lint;
pub mod sched;
pub mod sync;
pub mod thread;

pub use sched::{Config, Failure, Report, Strategy};
