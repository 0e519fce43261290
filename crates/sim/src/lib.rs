//! Discrete-event simulation of distributed-memory skeleton execution.
//!
//! The paper evaluates YewPar on a Beowulf cluster (up to 17 localities ×
//! 15 workers, Figures 4 and Table 2) running on the HPX distributed runtime.
//! This crate is the stand-in substrate for that hardware: it executes the
//! *same* search (same lazy node generators, same coordination policies, same
//! knowledge-sharing behaviour) but on simulated workers advancing a virtual
//! clock, so deterministic scaling curves can be produced on a single
//! physical core.
//!
//! What is modelled:
//!
//! * **Localities and workers** — `localities × workers_per_locality`
//!   simulated workers; each locality owns an order-preserving workpool
//!   (Depth-Bounded, Budget) or its workers are stolen from directly
//!   (Stack-Stealing).
//! * **Costs** — per-node expansion cost, task spawn cost, local and remote
//!   steal latencies, and a bound-broadcast latency after which other
//!   localities observe an improved incumbent (stale bounds cost pruning
//!   opportunity, exactly as in the paper's knowledge-management design).
//! * **Work distribution policies** — the same spawn rules as the threaded
//!   skeletons: depth cutoff, backtrack budget, on-demand lowest-depth
//!   splitting.
//!
//! What is *not* modelled: message contention, memory hierarchy effects and
//! OS noise.  The simulator is therefore suitable for reproducing the shape
//! of the paper's scaling results (which skeleton wins where, how speedup
//! degrades with bad parameters), not absolute runtimes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod multiplex;

pub use engine::{
    simulate_decide, simulate_enumerate, simulate_maximise, CostModel, SimConfig, SimOutcome,
};
pub use multiplex::{simulate_multiplexed, ElasticSchedule, SimJob};
