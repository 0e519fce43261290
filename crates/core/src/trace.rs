//! Flight-recorder tracing: per-worker, lock-free bounded event rings.
//!
//! The paper's central diagnostic claim (§2.1) is that parallel-search
//! performance anomalies manifest as changes in *work*, not just scheduling
//! — but end-of-run aggregate counters ([`WorkerMetrics`]) can only say
//! *that* work inflated, never *when* or *why*.  This module records the
//! missing time axis: every worker appends timestamped [`TraceRecord`]s
//! (task boundaries, steal traffic, incumbent updates, speculation
//! outcomes, lifecycle polls) into its own bounded ring buffer, and the
//! dispatcher appends runtime-level events and gauge snapshots into a shared
//! control ring.  A drained trace can be exported (see [`sink`]), replayed
//! through the anomaly analyzer (see [`analyze`]), and — the property the
//! test suite pins down — *reconstructs the exact run-task
//! [`WorkerMetrics`] totals*, so events and counters never disagree.
//!
//! # Zero cost when off
//!
//! Tracing is switched by
//! [`SearchConfig::trace`](crate::params::SearchConfig::trace).  When off
//! (the default), [`Tracer::handle`] returns `None` and every emission
//! site is a branch on a worker-local `Option<&TraceHandle>` — no shared
//! state is touched, no timestamp is taken, and the branch is
//! loop-invariant so the optimiser hoists it out of the hot traversal
//! loop.  The `bench_trace` criterion group in `bench/benches/components.rs`
//! is the A/B proof, and the perf gate runs with tracing off so any
//! regression of the disabled path fails CI.
//!
//! # Overflow semantics
//!
//! Rings are bounded and **keep-first**: once a worker's ring is full,
//! further events are counted in [`TraceBuffer::dropped`] and discarded.
//! Dropped events are therefore *reported, never silent* — the analyzer
//! and the exporters surface the drop count, and the metrics-reconstruction
//! property only holds on a drop-free trace.
//!
//! [`WorkerMetrics`]: crate::metrics::WorkerMetrics

pub mod analyze;
pub mod sink;

use crate::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::Arc;
use std::time::Instant;

/// Worker id used for events that are not attributable to a search worker:
/// dispatcher transitions, gauge samples, driver-side incumbent updates and
/// speculation commit/discard classification.
pub const CONTROL_WORKER: u32 = u32::MAX;

/// Victim id recorded when the victim of a steal is not identifiable (the
/// sharded-pool coordinations steal from a shared pool, not a worker).
pub const UNKNOWN_VICTIM: u32 = u32::MAX;

/// One timestamped flight-recorder event.
///
/// `ts` is nanoseconds since the owning [`TraceBuffer`]'s epoch for
/// threaded runs, and **virtual ticks** for simulator traces
/// (`yewpar-sim` constructs records directly) — the analyzer only relies
/// on the ordering, so it runs identically on both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds since the trace epoch (threaded) or virtual ticks (sim).
    pub ts: u64,
    /// The emitting worker's id, or [`CONTROL_WORKER`] for runtime-level
    /// events.
    pub worker: u32,
    /// What happened.
    pub event: TraceEvent,
}

/// The event vocabulary of the flight recorder.
///
/// Task-boundary events carry the per-task *deltas* of the run-task
/// counters, so summing a drained trace reconstructs the exact
/// [`WorkerMetrics`](crate::metrics::WorkerMetrics) totals (steal counters
/// are reconstructed from the steal events, which fire at the exact
/// counter-increment sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A worker began executing a task popped/stolen from its work source.
    TaskStart {
        /// Depth of the task's root node in the search tree.
        depth: u32,
    },
    /// A worker finished (or abandoned) the task it was executing.  Fields
    /// are the counter deltas accumulated between the matching
    /// [`TaskStart`](TraceEvent::TaskStart) and this event.
    TaskEnd {
        /// Nodes processed by this task.
        nodes: u64,
        /// Subtrees pruned by this task.
        prunes: u64,
        /// Backtracks performed by this task.
        backtracks: u64,
        /// Tasks spawned into a workpool (or handed to a thief) by this task.
        spawns: u64,
        /// Non-empty batched releases performed by this task.
        batch_pushes: u64,
        /// Stride-gated lifecycle polls performed by this task.
        poll_checks: u64,
        /// Deepest depth the owning worker has reached so far (a running
        /// maximum, not a delta).
        max_depth: u64,
    },
    /// An idle worker sent (or began) a steal attempt against a victim.
    StealRequest {
        /// The chosen victim's worker id, or [`UNKNOWN_VICTIM`].
        victim: u32,
    },
    /// A steal attempt obtained work — fires exactly where the worker's
    /// `steals` counter increments.
    StealHit {
        /// The victim's worker id (simulator pool steals record the victim
        /// *locality* id), or [`UNKNOWN_VICTIM`].
        victim: u32,
        /// Number of tasks obtained.
        tasks: u32,
        /// True when the steal crossed localities (simulator only; the
        /// threaded engine is single-locality and always records `false`).
        remote: bool,
    },
    /// A steal attempt found no work — fires exactly where the worker's
    /// `failed_steals` counter increments.
    StealMiss {
        /// The probed victim's worker id, or [`UNKNOWN_VICTIM`].
        victim: u32,
    },
    /// An optimisation/decision driver strengthened the global incumbent.
    IncumbentUpdate {
        /// The incumbent's version counter after the update.
        version: u64,
    },
    /// Ordered coordination: a task's work was classified *committed* at
    /// commit time (it was sequentially at or before the witness).
    SpeculationCommit {
        /// Nodes the committed task had expanded.
        nodes: u64,
    },
    /// Ordered coordination: a task's work was classified *speculative* and
    /// discarded at commit time.
    SpeculationDiscard {
        /// Nodes the discarded task had expanded.
        nodes: u64,
    },
    /// Ordered coordination: an in-flight speculative task observed the
    /// broadcast witness and exited early.
    SpeculationCancel {
        /// Nodes the cancelled task had expanded before exiting.
        nodes: u64,
    },
    /// A stride-gated lifecycle poll actually ran (cancel-token + deadline
    /// check) — fires exactly where the worker's `poll_checks` counter
    /// increments, and doubles as the per-worker queue-depth sample.
    Poll {
        /// Depth of the worker's resumable generator stack at the poll.
        stack_depth: u32,
    },
    /// The runtime dispatcher received a search submission.
    SearchQueued {
        /// The submission's runtime-unique search id.
        search_id: u64,
    },
    /// The dispatcher granted a search its worker allotment and launched it.
    SearchGranted {
        /// The granted search's id.
        search_id: u64,
        /// The granted worker count.
        workers: u32,
    },
    /// A search finished and its lease was reclaimed.
    SearchFinished {
        /// The finished search's id.
        search_id: u64,
    },
    /// The dispatcher leased additional workers onto a running search
    /// (an elastic `Grow` adjustment was executed).
    GrantGrown {
        /// The grown search's id.
        search_id: u64,
        /// The search's worker count *after* the grow.
        workers: u32,
    },
    /// The dispatcher issued cooperative revocation requests against a
    /// running search (an elastic `Shrink` adjustment was executed).
    /// Workers leave asynchronously — see
    /// [`WorkerRevoked`](TraceEvent::WorkerRevoked) for the acknowledgement.
    GrantShrunk {
        /// The shrunk search's id.
        search_id: u64,
        /// The search's *target* worker count after the revocations land.
        workers: u32,
    },
    /// A revoked worker acknowledged at its lifecycle poll: it offloaded its
    /// remaining work to the survivors and returned its slot to the pool.
    WorkerRevoked {
        /// The search the worker left.
        search_id: u64,
        /// The pool slot returned to the dispatcher.
        slot: u32,
        /// Nanoseconds (virtual ticks in sim traces) from the revocation
        /// request to this acknowledgement.
        latency_ns: u64,
    },
    /// A background gauge sample of the runtime's pool-wide scheduler state
    /// (see [`RuntimeStats`](crate::metrics::RuntimeStats)).
    RuntimeGauge {
        /// Searches currently running.
        active: u32,
        /// Workers currently leased out.
        granted: u32,
        /// Submissions waiting for a grant.
        queued: u32,
        /// Searches finished since the runtime started.
        completed: u64,
        /// High-water mark of concurrently running searches.
        peak: u32,
    },
}

impl TraceEvent {
    /// Stable snake_case name of the variant, used by the exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::TaskStart { .. } => "task_start",
            TraceEvent::TaskEnd { .. } => "task_end",
            TraceEvent::StealRequest { .. } => "steal_request",
            TraceEvent::StealHit { .. } => "steal_hit",
            TraceEvent::StealMiss { .. } => "steal_miss",
            TraceEvent::IncumbentUpdate { .. } => "incumbent_update",
            TraceEvent::SpeculationCommit { .. } => "speculation_commit",
            TraceEvent::SpeculationDiscard { .. } => "speculation_discard",
            TraceEvent::SpeculationCancel { .. } => "speculation_cancel",
            TraceEvent::Poll { .. } => "poll",
            TraceEvent::SearchQueued { .. } => "search_queued",
            TraceEvent::SearchGranted { .. } => "search_granted",
            TraceEvent::SearchFinished { .. } => "search_finished",
            TraceEvent::GrantGrown { .. } => "grant_grown",
            TraceEvent::GrantShrunk { .. } => "grant_shrunk",
            TraceEvent::WorkerRevoked { .. } => "worker_revoked",
            TraceEvent::RuntimeGauge { .. } => "runtime_gauge",
        }
    }
}

/// A bounded, keep-first ring of trace records owned by one worker.
///
/// The writer claims a slot with a relaxed `fetch_add` and writes it
/// unsynchronised; overshooting claims only bump the drop counter.  The
/// claim protocol keeps the structure sound even under accidental
/// multi-producer use, but the intended discipline is **one producer**
/// (the owning worker) and **drain only at quiescence** — after the search
/// has joined its workers — which is what [`TraceBuffer::drain`]
/// documents and the engine guarantees.
struct WorkerRing {
    slots: Box<[UnsafeCell<MaybeUninit<TraceRecord>>]>,
    /// Claimed slot count; may overshoot `slots.len()` (the overshoot is
    /// the drop count's source of truth at drain time).
    len: AtomicUsize,
    dropped: AtomicU64,
}

// SAFETY: slots are only written through claims below capacity (each claim
// index is handed out exactly once by `fetch_add`), and only read by
// `drain`, which the owner calls after every producer has quiesced.
unsafe impl Send for WorkerRing {}
unsafe impl Sync for WorkerRing {}

impl WorkerRing {
    fn new(capacity: usize) -> Self {
        WorkerRing {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    #[inline]
    fn push(&self, record: TraceRecord) {
        // ordering: only the RMW's atomicity matters for the claim — record
        // visibility to readers comes from producer quiescence (join/park)
        // before drain (model-checked:
        // `model_check::drop_counts_are_exact_and_dropped_is_monotone`).
        let claim = self.len.fetch_add(1, Ordering::Relaxed);
        if claim < self.slots.len() {
            // SAFETY: `claim` was handed out exactly once, so no other
            // writer touches this slot; readers wait for quiescence.
            unsafe { (*self.slots[claim].get()).write(record) };
        } else {
            // ordering: advisory loss tally, monotone (model-checked with
            // the claims above); readers tolerate staleness.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copy out the recorded prefix and reset the ring.  Caller must
    /// guarantee the producer has quiesced.
    fn drain(&self) -> Vec<TraceRecord> {
        let filled = self.len.load(Ordering::Acquire).min(self.slots.len());
        let records = (0..filled)
            // SAFETY: every slot below `filled` was fully written by the
            // (now quiescent) producer before we loaded `len`.
            .map(|i| unsafe { (*self.slots[i].get()).assume_init() })
            .collect();
        self.len.store(0, Ordering::Release);
        records
    }
}

/// Runtime-level (non-worker) event ring: a plain bounded `Vec` behind a
/// mutex — dispatcher transitions and gauge samples are rare, so lock cost
/// is irrelevant here, and the bound keeps a long-lived runtime's trace
/// from growing without limit.  Keep-first, drops counted.
#[derive(Default)]
struct ControlRing {
    records: Vec<TraceRecord>,
    dropped: u64,
}

/// The shared store of one execution's flight-recorder data: lazily
/// registered per-worker rings plus the runtime-level control ring, all
/// sharing one wall-clock epoch.
///
/// Created by [`Skeleton`](crate::skeleton::Skeleton) when
/// [`SearchConfig::trace`](crate::params::SearchConfig::trace) is set (or
/// by a [`Runtime`](crate::runtime::Runtime) configured with
/// [`RuntimeConfig::trace`](crate::runtime::RuntimeConfig::trace)) and
/// drained after the search completes.
pub struct TraceBuffer {
    capacity: usize,
    epoch: Instant,
    /// `(worker id, ring)` pairs in registration order.
    rings: Mutex<Vec<(u32, Arc<WorkerRing>)>>,
    control: Mutex<ControlRing>,
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("capacity", &self.capacity)
            .field("workers", &self.rings.lock().len())
            .finish()
    }
}

impl TraceBuffer {
    /// Default per-worker ring capacity (records): deep enough for the
    /// poll-gated event rate of multi-second searches, small enough
    /// (~1.5 MB per worker) to leave on for whole benchmark runs.
    pub const DEFAULT_CAPACITY: usize = 1 << 15;

    /// Create a buffer whose per-worker rings hold `capacity` records each.
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            capacity: capacity.max(1),
            epoch: Instant::now(),
            rings: Mutex::new(Vec::new()),
            control: Mutex::new(ControlRing::default()),
        }
    }

    /// The per-worker ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Register (or look up) worker `worker`'s ring.
    fn ring(&self, worker: u32) -> Arc<WorkerRing> {
        let mut rings = self.rings.lock();
        if let Some((_, ring)) = rings.iter().find(|(w, _)| *w == worker) {
            return Arc::clone(ring);
        }
        let ring = Arc::new(WorkerRing::new(self.capacity));
        rings.push((worker, Arc::clone(&ring)));
        ring
    }

    /// Append a runtime-level event to the control ring, stamped with the
    /// buffer's epoch clock and [`CONTROL_WORKER`].
    pub fn control(&self, event: TraceEvent) {
        let ts = self.epoch.elapsed().as_nanos() as u64;
        let mut control = self.control.lock();
        if control.records.len() < self.capacity {
            control.records.push(TraceRecord {
                ts,
                worker: CONTROL_WORKER,
                event,
            });
        } else {
            control.dropped += 1;
        }
    }

    /// Drain every ring into one stream sorted by timestamp (ties broken by
    /// worker id), resetting the rings for reuse.
    ///
    /// Must only be called at **quiescence** — after the search's workers
    /// have been joined (the engine joins before the skeleton returns, so
    /// draining between searches is always safe).
    pub fn drain(&self) -> Vec<TraceRecord> {
        let rings = self.rings.lock();
        let mut all: Vec<TraceRecord> = Vec::new();
        for (_, ring) in rings.iter() {
            all.extend(ring.drain());
        }
        drop(rings);
        let mut control = self.control.lock();
        all.append(&mut control.records);
        drop(control);
        all.sort_by_key(|r| (r.ts, r.worker));
        all
    }

    /// Total events dropped to ring overflow so far (worker rings plus the
    /// control ring).  Not reset by [`drain`](TraceBuffer::drain): a
    /// non-zero value permanently marks the trace as lossy.
    pub fn dropped(&self) -> u64 {
        let rings = self.rings.lock();
        let mut dropped: u64 = rings
            .iter()
            .map(|(_, ring)| {
                // ordering: advisory loss estimate — both counters are
                // monotone, so a stale read only under-reports a total
                // that the next call catches up on.
                let extra = ring
                    .len
                    .load(Ordering::Relaxed)
                    .saturating_sub(ring.slots.len());
                // ordering: advisory monotone read, as above.
                ring.dropped.load(Ordering::Relaxed).max(extra as u64)
            })
            .sum();
        drop(rings);
        dropped += self.control.lock().dropped;
        dropped
    }
}

/// The engine-facing switch: `Some(buffer)` when tracing is on, `None`
/// when off.  Cloned into lifecycles, drivers and work sources; the
/// disabled clone is a single `None` and costs nothing to carry.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    buffer: Option<Arc<TraceBuffer>>,
}

impl Tracer {
    /// A tracer recording into `buffer`.
    pub fn new(buffer: Arc<TraceBuffer>) -> Self {
        Tracer {
            buffer: Some(buffer),
        }
    }

    /// The disabled tracer (what [`Default`] builds).
    pub fn off() -> Self {
        Tracer::default()
    }

    /// Is tracing on?
    pub fn enabled(&self) -> bool {
        self.buffer.is_some()
    }

    /// A per-worker emission handle, or `None` when tracing is off.  The
    /// engine hoists this call out of the worker loop, so the per-event
    /// cost of disabled tracing is one branch on a worker-local `Option`.
    pub fn handle(&self, worker: u32) -> Option<TraceHandle> {
        self.buffer.as_ref().map(|buffer| TraceHandle {
            ring: buffer.ring(worker),
            epoch: buffer.epoch,
            worker,
        })
    }

    /// Emit a runtime-level event (no-op when off).
    pub fn control(&self, event: TraceEvent) {
        if let Some(buffer) = &self.buffer {
            buffer.control(event);
        }
    }

    /// The underlying buffer, if tracing is on.
    pub fn buffer(&self) -> Option<&Arc<TraceBuffer>> {
        self.buffer.as_ref()
    }
}

/// One worker's emission handle: an owned reference to the worker's ring
/// plus the shared epoch.  [`emit`](TraceHandle::emit) is wait-free — a
/// monotonic-clock read, a relaxed `fetch_add` and one 40-byte store.
pub struct TraceHandle {
    ring: Arc<WorkerRing>,
    epoch: Instant,
    worker: u32,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("worker", &self.worker)
            .finish()
    }
}

impl TraceHandle {
    /// Record `event` now, against this handle's worker id.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        self.ring.push(TraceRecord {
            ts: self.epoch.elapsed().as_nanos() as u64,
            worker: self.worker,
            event,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_hands_out_no_handles() {
        let tracer = Tracer::off();
        assert!(!tracer.enabled());
        assert!(tracer.handle(0).is_none());
        tracer.control(TraceEvent::SearchQueued { search_id: 1 }); // no-op
    }

    #[test]
    fn events_are_recorded_with_monotone_timestamps_per_worker() {
        let buffer = Arc::new(TraceBuffer::new(64));
        let tracer = Tracer::new(Arc::clone(&buffer));
        let handle = tracer.handle(3).expect("tracing is on");
        handle.emit(TraceEvent::TaskStart { depth: 0 });
        handle.emit(TraceEvent::Poll { stack_depth: 2 });
        handle.emit(TraceEvent::TaskEnd {
            nodes: 5,
            prunes: 1,
            backtracks: 2,
            spawns: 0,
            batch_pushes: 0,
            poll_checks: 1,
            max_depth: 4,
        });
        let records = buffer.drain();
        assert_eq!(records.len(), 3);
        assert!(records.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert!(records.iter().all(|r| r.worker == 3));
        assert_eq!(records[0].event, TraceEvent::TaskStart { depth: 0 });
        assert_eq!(buffer.dropped(), 0);
    }

    #[test]
    fn overflow_keeps_first_events_and_reports_drops() {
        let buffer = Arc::new(TraceBuffer::new(4));
        let tracer = Tracer::new(Arc::clone(&buffer));
        let handle = tracer.handle(0).expect("tracing is on");
        for depth in 0..10u32 {
            handle.emit(TraceEvent::TaskStart { depth });
        }
        assert_eq!(buffer.dropped(), 6, "drops are counted, never silent");
        let records = buffer.drain();
        assert_eq!(records.len(), 4, "keep-first: the oldest events survive");
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.event, TraceEvent::TaskStart { depth: i as u32 });
        }
        // The drop count survives the drain — the trace stays marked lossy.
        assert_eq!(buffer.dropped(), 6);
    }

    #[test]
    fn control_ring_is_bounded_too() {
        let buffer = TraceBuffer::new(2);
        for id in 0..5u64 {
            buffer.control(TraceEvent::SearchQueued { search_id: id });
        }
        assert_eq!(buffer.dropped(), 3);
        assert_eq!(buffer.drain().len(), 2);
    }

    #[test]
    fn drain_merges_workers_in_time_order() {
        let buffer = Arc::new(TraceBuffer::new(16));
        let tracer = Tracer::new(Arc::clone(&buffer));
        let a = tracer.handle(0).expect("on");
        let b = tracer.handle(1).expect("on");
        a.emit(TraceEvent::TaskStart { depth: 0 });
        b.emit(TraceEvent::TaskStart { depth: 1 });
        a.emit(TraceEvent::TaskEnd {
            nodes: 1,
            prunes: 0,
            backtracks: 0,
            spawns: 0,
            batch_pushes: 0,
            poll_checks: 0,
            max_depth: 0,
        });
        tracer.control(TraceEvent::SearchFinished { search_id: 7 });
        let records = buffer.drain();
        assert_eq!(records.len(), 4);
        assert!(records.windows(2).all(|w| w[0].ts <= w[1].ts));
        // Rings reset on drain: the buffer is reusable for the next search.
        assert!(buffer.drain().is_empty());
    }

    #[test]
    fn concurrent_emission_is_sound_and_lossless_below_capacity() {
        let buffer = Arc::new(TraceBuffer::new(4096));
        let tracer = Tracer::new(Arc::clone(&buffer));
        std::thread::scope(|scope| {
            for w in 0..4u32 {
                let handle = tracer.handle(w).expect("on");
                scope.spawn(move || {
                    for i in 0..512u32 {
                        handle.emit(TraceEvent::Poll { stack_depth: i });
                    }
                });
            }
        });
        assert_eq!(buffer.dropped(), 0);
        let records = buffer.drain();
        assert_eq!(records.len(), 4 * 512);
        for w in 0..4u32 {
            assert_eq!(records.iter().filter(|r| r.worker == w).count(), 512);
        }
    }
}

/// [`WorkerRing`]'s claims under the interleaving model checker.
#[cfg(all(test, feature = "model-check"))]
mod model_check {
    use super::*;
    use std::sync::atomic::{AtomicBool as Witness, Ordering as StdOrdering};
    use yewpar_check::sched::{run, Config, Strategy};
    use yewpar_check::thread;

    /// A worker emits twice into a one-record ring while the main thread
    /// reads `dropped()` twice: the count never goes backwards, and after
    /// the quiescent drain exactly one record was kept and one dropped.
    /// (There is one producer, as the ring's discipline asks, and the
    /// drain does not race the reads: either makes the schedule space too
    /// large to exhaust.)
    #[test]
    fn drop_counts_are_exact_and_dropped_is_monotone() {
        let saw_drop = Arc::new(Witness::new(false));
        let witness = Arc::clone(&saw_drop);
        let report = run("trace-ring", Strategy::Dfs, &Config::default(), move || {
            let buffer = Arc::new(TraceBuffer::new(1));
            let handle = Tracer::new(Arc::clone(&buffer))
                .handle(0)
                .expect("tracing is on");
            let producer = thread::spawn_named("producer", move || {
                handle.emit(TraceEvent::TaskStart { depth: 0 });
                handle.emit(TraceEvent::TaskStart { depth: 1 });
            });
            // The main thread is the monitor.
            let first = buffer.dropped();
            let second = buffer.dropped();
            assert!(second >= first, "dropped() went from {first} to {second}");
            if first > 0 {
                witness.store(true, StdOrdering::Relaxed);
            }
            producer.join();
            assert_eq!(buffer.drain().len(), 1, "one record fits the ring");
            assert_eq!(buffer.dropped(), 1, "the other emit is counted as dropped");
        });
        report.assert_ok();
        assert!(
            saw_drop.load(StdOrdering::Relaxed),
            "no schedule showed the monitor a drop"
        );
    }
}
