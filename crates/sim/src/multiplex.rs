//! Virtual-time mirror of the runtime's multiplexing scheduler.
//!
//! The threaded [`Runtime`](yewpar::Runtime) leases disjoint worker subsets
//! to concurrent searches under a pluggable
//! [`SchedulePolicy`].  Its fairness
//! properties (who is admitted when, with how many workers, and how long
//! submissions wait) are timing-dependent and therefore awkward to assert
//! on wall clocks.  This module replays the *same policy objects* against a
//! virtual clock: each admitted search is simulated with its granted worker
//! count (disjointness is free — simulated searches share nothing), its
//! virtual makespan becomes its completion event, and the scheduler loop
//! admits, leases and reclaims exactly like the threaded dispatcher.  The
//! result is a deterministic schedule on which queue waits and grant sizes
//! can be asserted to the tick:
//!
//! * under [`Fifo`](yewpar::schedule::Fifo), submission *k*'s
//!   `queue_wait_ticks` is exactly the sum of its predecessors' makespans;
//! * under [`FairShare`](yewpar::schedule::FairShare), submissions that fit
//!   the pool together are granted simultaneously at tick 0 with a
//!   proportional split;
//! * per-search committed work (`nodes`) is unchanged by co-scheduling,
//!   because grants are disjoint — the mirror of the threaded assertion in
//!   `tests/sim_vs_threads.rs`.

use std::time::Duration;

use yewpar::schedule::{Adjustment, PendingRequest, Priority, RunningSearch, SchedulePolicy};
use yewpar::trace::{TraceEvent, TraceRecord, CONTROL_WORKER};
use yewpar::SearchStatus;

use crate::engine::{SimConfig, SimOutcome};

/// The boxed search runner of a [`SimJob`]: maps the scheduler-granted
/// configuration to a simulated outcome.
pub type SimRun<'p, R> = Box<dyn Fn(&SimConfig) -> SimOutcome<R> + 'p>;

/// One submission to the virtual scheduler.
pub struct SimJob<'p, R> {
    /// The search to run once granted: called with the scheduler-granted
    /// configuration (the submission's [`SimJob::config`] with its worker
    /// count replaced by the grant).
    pub run: SimRun<'p, R>,
    /// The submission's configuration; `config.workers()` is the
    /// *requested* worker count (the analogue of `SearchConfig::workers`).
    pub config: SimConfig,
    /// Virtual tick at which the submission arrives (0 = at startup).
    pub submit_at: u64,
    /// Scheduling priority, the analogue of `SearchConfig::priority`.
    /// [`Fifo`](yewpar::schedule::Fifo) and
    /// [`FairShare`](yewpar::schedule::FairShare) ignore it;
    /// [`DeadlineShare`](yewpar::schedule::DeadlineShare) weights admission
    /// and reclamation by it.
    pub priority: Priority,
}

impl<'p, R> SimJob<'p, R> {
    /// A submission arriving at tick 0.
    pub fn new(config: SimConfig, run: impl Fn(&SimConfig) -> SimOutcome<R> + 'p) -> Self {
        SimJob {
            run: Box::new(run),
            config,
            submit_at: 0,
            priority: Priority::Normal,
        }
    }

    /// Set the virtual arrival tick.
    pub fn submit_at(mut self, tick: u64) -> Self {
        self.submit_at = tick;
        self
    }

    /// Set the scheduling priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The submission as a policy-visible request, waiting since
    /// `submitted_at` on a clock reading `now`.  Virtual ticks are exposed
    /// as microseconds (the same mapping
    /// [`SimConfig::deadline_ticks`] documents), so a policy reading
    /// `queued_for` or `deadline` sees coherent durations.
    fn request(&self, submitted_at: u64, now: u64) -> PendingRequest {
        PendingRequest {
            requested_workers: self.config.workers().max(1),
            queued_for: Duration::from_micros(now - submitted_at),
            priority: self.priority,
            deadline: self.config.deadline_ticks.map(Duration::from_micros),
        }
    }
}

/// A job queued in the virtual scheduler.
struct Waiting {
    job_index: usize,
    submitted_at: u64,
}

/// A granted job running until its virtual completion time.
struct Running {
    finish_at: u64,
    granted: usize,
    /// Tie-break so completions resolve in admission order.
    seq: u64,
}

/// Run `jobs` through a virtual-time multiplexed scheduler over a pool of
/// `pool_workers`, admitting with `policy` — the deterministic mirror of
/// [`Runtime::with_policy`](yewpar::Runtime::with_policy).
///
/// Each admitted job is simulated single-locality with its granted worker
/// count; its [`SimOutcome`] is returned in submission order with
/// [`queue_wait_ticks`](SimOutcome::queue_wait_ticks) (virtual submission →
/// grant, recorded from the scheduler's clock) and
/// [`granted_workers`](SimOutcome::granted_workers) filled in.  Grants are
/// fixed for a job's lifetime: this matches the threaded runtime only under
/// a serial policy ([`Fifo`](yewpar::schedule::Fifo)).  Under a concurrent
/// policy the threaded dispatcher renegotiates leases through
/// [`SchedulePolicy::replan`], which only [`simulate_multiplexed_elastic`]
/// mirrors.
pub fn simulate_multiplexed<R>(
    pool_workers: usize,
    policy: &mut dyn SchedulePolicy,
    jobs: Vec<SimJob<'_, R>>,
) -> Vec<SimOutcome<R>> {
    let capacity = pool_workers.max(1);
    let mut outcomes: Vec<Option<SimOutcome<R>>> = jobs.iter().map(|_| None).collect();
    // Arrival events, processed in (tick, submission order).
    let mut arrivals: Vec<(u64, usize)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.submit_at, i))
        .collect();
    arrivals.sort_by_key(|&(tick, index)| (tick, index));
    let mut arrivals = arrivals.into_iter().peekable();

    let mut now: u64 = 0;
    let mut free = capacity;
    let mut pending: Vec<Waiting> = Vec::new();
    let mut running: Vec<Running> = Vec::new();
    let mut seq: u64 = 0;

    loop {
        // Ingest every arrival at or before `now` (the scheduler batches a
        // burst, like the dispatcher draining its channel).
        while let Some(&(tick, index)) = arrivals.peek() {
            if tick > now {
                break;
            }
            arrivals.next();
            pending.push(Waiting {
                job_index: index,
                submitted_at: tick,
            });
        }

        // Plan and execute admissions until the policy admits nothing.
        loop {
            if pending.is_empty() {
                break;
            }
            let requests: Vec<PendingRequest> = pending
                .iter()
                .map(|w| jobs[w.job_index].request(w.submitted_at, now))
                .collect();
            let admissions = policy.plan(&requests, free, capacity, running.len());
            if admissions.is_empty() {
                break;
            }
            // Pop admitted entries back-to-front so indices stay valid.
            let mut admitted: Vec<(Waiting, usize)> = Vec::with_capacity(admissions.len());
            for admission in admissions.into_iter().rev() {
                let waiting = pending.remove(admission.index);
                admitted.push((waiting, admission.workers.max(1)));
            }
            admitted.reverse();
            for (waiting, granted) in admitted {
                let job = &jobs[waiting.job_index];
                // The grant re-shapes the submission's config: a
                // single-locality slice of the pool with `granted` workers.
                let mut cfg = job.config.clone();
                cfg.localities = 1;
                cfg.workers_per_locality = granted;
                let mut outcome = (job.run)(&cfg);
                outcome.queue_wait_ticks = now - waiting.submitted_at;
                outcome.granted_workers = granted;
                running.push(Running {
                    finish_at: now + outcome.makespan,
                    granted,
                    seq,
                });
                seq += 1;
                outcomes[waiting.job_index] = Some(outcome);
                free = free.saturating_sub(granted);
            }
        }

        // Advance the clock to the next event: a completion or an arrival.
        let next_completion = running.iter().map(|r| (r.finish_at, r.seq)).min();
        let next_arrival = arrivals.peek().map(|&(tick, _)| tick);
        match (next_completion, next_arrival) {
            (None, None) => break,
            (Some((finish, _)), arrival) if arrival.map_or(true, |a| finish <= a) => {
                now = finish;
                // Reclaim every lease finishing at this tick, in admission
                // order (deterministic, like the dispatcher's FIFO channel).
                let mut done: Vec<usize> = running
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.finish_at == finish)
                    .map(|(i, _)| i)
                    .collect();
                done.sort_by_key(|&i| running[i].seq);
                for i in done.into_iter().rev() {
                    let r = running.remove(i);
                    free = (free + r.granted).min(capacity);
                }
            }
            (_, Some(arrival)) => {
                now = arrival;
            }
            // The guard always admits a completion when no arrival exists.
            (Some(_), None) => unreachable!(),
        }
    }

    debug_assert!(pending.is_empty() && running.is_empty());
    outcomes
        .into_iter()
        .map(|o| o.expect("every submitted job was scheduled"))
        .collect()
}

/// The result of [`simulate_multiplexed_elastic`]: per-job outcomes in
/// submission order plus the scheduler-level flight-recorder trace.
pub struct ElasticSchedule<R> {
    /// One outcome per submitted job, in submission order.  Beyond what
    /// [`simulate_multiplexed`] fills in, a preempted job resolves with
    /// [`SearchStatus::Cancelled`], its `nodes` scaled down to the work
    /// completed before the preemption, and `makespan` covering grant to
    /// unwind.
    pub outcomes: Vec<SimOutcome<R>>,
    /// Scheduler-level records (`SearchQueued`/`SearchGranted`/
    /// `GrantGrown`/`GrantShrunk`/`WorkerRevoked`/`SearchFinished`), all
    /// stamped with [`CONTROL_WORKER`] and virtual ticks — the same shape
    /// the threaded dispatcher emits, so they feed
    /// [`yewpar::trace::analyze`] (e.g. the `grant_thrash` rule) directly.
    pub trace: Vec<TraceRecord>,
}

/// A granted job in the *elastic* virtual scheduler.
struct ElasticRunning<R> {
    job_index: usize,
    search_id: u64,
    seq: u64,
    granted_at: u64,
    requested: usize,
    priority: Priority,
    /// Workers currently leased, *including* revocations still in flight
    /// (the policy-visible target count, like `RunningSearch::workers`).
    width: usize,
    pending_revocations: usize,
    preempted: bool,
    /// Malleable-work model: the job is `makespan × grant` worker-ticks of
    /// perfectly divisible area.  `area_done` accrues at the current width
    /// between scheduler events; the remaining area at a width change
    /// replays at the new width (`new_finish = t + ceil(remaining / w)`,
    /// i.e. `remaining_ticks × old_w / new_w`).
    area_total: u128,
    area_done: u128,
    last_event: u64,
    finish_at: u64,
    base: SimOutcome<R>,
}

impl<R> ElasticRunning<R> {
    /// Accrue progress up to `now` at the current width.  A preempted job
    /// is unwinding, not searching: its area is frozen.
    fn settle(&mut self, now: u64) {
        if !self.preempted {
            self.area_done += u128::from(now - self.last_event) * self.width as u128;
            self.area_done = self.area_done.min(self.area_total);
        }
        self.last_event = now;
    }

    /// Recompute the completion event for the current width (call after
    /// [`settle`](Self::settle)).
    fn reschedule(&mut self, now: u64) {
        let remaining = self.area_total - self.area_done;
        self.finish_at = now + (remaining.div_ceil(self.width.max(1) as u128)) as u64;
    }

    fn snapshot(&self, now: u64, elastic: bool) -> RunningSearch {
        RunningSearch {
            search_id: self.search_id,
            workers: self.width,
            requested_workers: self.requested,
            priority: self.priority,
            elastic,
            running_for: Duration::from_micros(now - self.granted_at),
            pending_revocations: self.pending_revocations,
            preempted: self.preempted,
        }
    }
}

/// Run `jobs` through the virtual-time scheduler with **renegotiable
/// leases** — the deterministic mirror of the threaded runtime's elastic
/// dispatcher.  [`simulate_multiplexed`] keeps the fixed-grant model (and
/// its exact schedules); this variant additionally drives
/// [`SchedulePolicy::replan`] at every scheduler event and executes the
/// returned [`Adjustment`]s:
///
/// * **Grow** takes effect immediately: the job's remaining work replays at
///   the wider width from the current tick.
/// * **Shrink** is cooperative: the revoked workers keep searching for
///   `revocation_latency` ticks (the virtual analogue of the poll-stride
///   bound on threaded revocation acknowledgement) and leave together at
///   `t + revocation_latency`, each acknowledged with a
///   [`WorkerRevoked`](TraceEvent::WorkerRevoked) record carrying that
///   exact latency.
/// * **Preempt** cancels the job: it unwinds within one revocation-latency
///   bound, resolving [`SearchStatus::Cancelled`] with its partial work
///   (`nodes` scaled to the area completed — the anytime-incumbent mirror).
///
/// Jobs are *malleable*: each admission is simulated once at its granted
/// width (fixing `result`/`nodes`/counters), and width changes rescale the
/// remaining virtual time as `ceil(remaining × old_w / new_w)`.  Under a
/// serial policy ([`Fifo`](yewpar::schedule::Fifo)) `replan` is never
/// consulted and no lease changes, so the schedule is identical to
/// [`simulate_multiplexed`] — the neutrality the perf gate asserts.
pub fn simulate_multiplexed_elastic<R>(
    pool_workers: usize,
    policy: &mut dyn SchedulePolicy,
    revocation_latency: u64,
    jobs: Vec<SimJob<'_, R>>,
) -> ElasticSchedule<R> {
    let capacity = pool_workers.max(1);
    let revocation_latency = revocation_latency.max(1);
    let elastic = policy.concurrent();
    let mut outcomes: Vec<Option<SimOutcome<R>>> = jobs.iter().map(|_| None).collect();
    let mut trace: Vec<TraceRecord> = Vec::new();
    let mut arrivals: Vec<(u64, usize)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.submit_at, i))
        .collect();
    arrivals.sort_by_key(|&(tick, index)| (tick, index));
    let mut arrivals = arrivals.into_iter().peekable();

    let mut now: u64 = 0;
    let mut free = capacity;
    let mut pending: Vec<Waiting> = Vec::new();
    let mut running: Vec<ElasticRunning<R>> = Vec::new();
    // Revocations in flight: (due tick, search id, worker count).
    let mut revocations: Vec<(u64, u64, usize)> = Vec::new();
    let mut next_search_id: u64 = 1;
    let mut seq: u64 = 0;

    loop {
        // Ingest every arrival at or before `now`.
        while let Some(&(tick, index)) = arrivals.peek() {
            if tick > now {
                break;
            }
            arrivals.next();
            trace.push(TraceRecord {
                ts: tick,
                worker: CONTROL_WORKER,
                event: TraceEvent::SearchQueued {
                    search_id: next_search_id + pending.len() as u64,
                },
            });
            pending.push(Waiting {
                job_index: index,
                submitted_at: tick,
            });
        }

        // Land every revocation due at or before `now`: the revoked
        // workers offload to the survivors and their slots return to the
        // pool.  Revocations against a job that has meanwhile been
        // preempted dissolve — its whole lease returns at the unwind.
        revocations.sort_by_key(|&(due, search, _)| (due, search));
        while let Some(&(due, search, count)) = revocations.first() {
            if due > now {
                break;
            }
            revocations.remove(0);
            if let Some(job) = running.iter_mut().find(|r| r.search_id == search) {
                job.pending_revocations = job.pending_revocations.saturating_sub(count);
                if job.preempted {
                    continue;
                }
                job.settle(now);
                for i in 0..count {
                    trace.push(TraceRecord {
                        ts: now,
                        worker: CONTROL_WORKER,
                        event: TraceEvent::WorkerRevoked {
                            search_id: search,
                            slot: (job.width - 1 - i) as u32,
                            latency_ns: revocation_latency,
                        },
                    });
                }
                job.width -= count;
                free = (free + count).min(capacity);
                job.reschedule(now);
            }
        }

        // Complete every job finishing at this tick, in admission order.
        let mut done: Vec<usize> = running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.finish_at <= now)
            .map(|(i, _)| i)
            .collect();
        done.sort_by_key(|&i| running[i].seq);
        for i in done.into_iter().rev() {
            let mut job = running.remove(i);
            job.settle(now);
            free = (free + job.width).min(capacity);
            revocations.retain(|&(_, search, _)| search != job.search_id);
            trace.push(TraceRecord {
                ts: now,
                worker: CONTROL_WORKER,
                event: TraceEvent::SearchFinished {
                    search_id: job.search_id,
                },
            });
            let mut outcome = job.base;
            outcome.makespan = now - job.granted_at;
            if job.preempted {
                outcome.status = SearchStatus::Cancelled;
                if let Some(scaled) =
                    (u128::from(outcome.nodes) * job.area_done).checked_div(job.area_total)
                {
                    outcome.nodes = scaled as u64;
                }
            }
            outcomes[job.job_index] = Some(outcome);
        }

        // Plan and execute admissions until the policy admits nothing.
        loop {
            if pending.is_empty() {
                break;
            }
            let requests: Vec<PendingRequest> = pending
                .iter()
                .map(|w| jobs[w.job_index].request(w.submitted_at, now))
                .collect();
            let admissions = policy.plan(&requests, free, capacity, running.len());
            if admissions.is_empty() {
                break;
            }
            let mut admitted: Vec<(Waiting, usize)> = Vec::with_capacity(admissions.len());
            for admission in admissions.into_iter().rev() {
                let waiting = pending.remove(admission.index);
                admitted.push((waiting, admission.workers.max(1)));
            }
            admitted.reverse();
            for (waiting, granted) in admitted {
                let job = &jobs[waiting.job_index];
                let mut cfg = job.config.clone();
                cfg.localities = 1;
                cfg.workers_per_locality = granted;
                let mut base = (job.run)(&cfg);
                base.queue_wait_ticks = now - waiting.submitted_at;
                base.granted_workers = granted;
                let search_id = next_search_id;
                next_search_id += 1;
                trace.push(TraceRecord {
                    ts: now,
                    worker: CONTROL_WORKER,
                    event: TraceEvent::SearchGranted {
                        search_id,
                        workers: granted as u32,
                    },
                });
                let makespan = base.makespan;
                running.push(ElasticRunning {
                    job_index: waiting.job_index,
                    search_id,
                    seq,
                    granted_at: now,
                    requested: job.config.workers().max(1),
                    priority: job.priority,
                    width: granted,
                    pending_revocations: 0,
                    preempted: false,
                    area_total: u128::from(makespan) * granted as u128,
                    area_done: 0,
                    last_event: now,
                    finish_at: now + makespan,
                    base,
                });
                seq += 1;
                free = free.saturating_sub(granted);
            }
        }

        // Renegotiate running leases — the virtual replanning tick.  The
        // threaded dispatcher replans on a short periodic timer; the
        // virtual clock replans at every scheduler event, which is the
        // same schedule with the idle gaps removed.
        if elastic && !running.is_empty() {
            running.sort_by_key(|r| r.search_id);
            let snapshot: Vec<RunningSearch> =
                running.iter().map(|r| r.snapshot(now, elastic)).collect();
            let requests: Vec<PendingRequest> = pending
                .iter()
                .map(|w| jobs[w.job_index].request(w.submitted_at, now))
                .collect();
            for adjustment in policy.replan(&snapshot, &requests, free, capacity) {
                match adjustment {
                    Adjustment::Grow { search, workers } => {
                        let Some(job) = running.iter_mut().find(|r| r.search_id == search) else {
                            continue;
                        };
                        if job.preempted {
                            continue;
                        }
                        let extra = workers.min(free);
                        if extra == 0 {
                            continue;
                        }
                        job.settle(now);
                        job.width += extra;
                        free -= extra;
                        job.reschedule(now);
                        trace.push(TraceRecord {
                            ts: now,
                            worker: CONTROL_WORKER,
                            event: TraceEvent::GrantGrown {
                                search_id: search,
                                workers: job.width as u32,
                            },
                        });
                    }
                    Adjustment::Shrink { search, workers } => {
                        let Some(job) = running.iter_mut().find(|r| r.search_id == search) else {
                            continue;
                        };
                        if job.preempted {
                            continue;
                        }
                        // Cooperative revocation never takes the last
                        // settled worker.
                        let take =
                            workers.min(job.width.saturating_sub(job.pending_revocations + 1));
                        if take == 0 {
                            continue;
                        }
                        job.pending_revocations += take;
                        revocations.push((now + revocation_latency, search, take));
                        trace.push(TraceRecord {
                            ts: now,
                            worker: CONTROL_WORKER,
                            event: TraceEvent::GrantShrunk {
                                search_id: search,
                                workers: (job.width - job.pending_revocations) as u32,
                            },
                        });
                    }
                    Adjustment::Preempt { search } => {
                        let Some(job) = running.iter_mut().find(|r| r.search_id == search) else {
                            continue;
                        };
                        if job.preempted {
                            continue;
                        }
                        job.settle(now);
                        job.preempted = true;
                        // The search unwinds cooperatively: its lease
                        // returns within one revocation-latency bound.
                        job.finish_at = now + revocation_latency;
                    }
                }
            }
        }

        // Advance the clock to the next event: a completion, a revocation
        // acknowledgement, or an arrival.
        let next_completion = running.iter().map(|r| (r.finish_at, r.seq)).min();
        let next_revocation = revocations.iter().map(|&(due, _, _)| due).min();
        let next_arrival = arrivals.peek().map(|&(tick, _)| tick);
        let next = [
            next_completion.map(|(tick, _)| tick),
            next_revocation,
            next_arrival,
        ]
        .into_iter()
        .flatten()
        .min();
        match next {
            Some(tick) => now = tick.max(now),
            None => break,
        }
    }

    debug_assert!(pending.is_empty() && running.is_empty());
    ElasticSchedule {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every submitted job was scheduled"))
            .collect(),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yewpar::monoid::Sum;
    use yewpar::schedule::{DeadlineShare, FairShare, Fifo};
    use yewpar::trace::analyze::{analyze, AnalyzeConfig, FindingKind};
    use yewpar::{Coordination, Enumerate, SearchProblem};

    use crate::engine::simulate_enumerate;

    struct Fanout {
        depth: usize,
        width: usize,
    }

    impl SearchProblem for Fanout {
        type Node = usize;
        type Gen<'a> = std::vec::IntoIter<usize>;
        fn root(&self) -> usize {
            0
        }
        fn generator(&self, node: &usize) -> Self::Gen<'_> {
            if *node < self.depth {
                vec![node + 1; self.width].into_iter()
            } else {
                vec![].into_iter()
            }
        }
    }

    impl Enumerate for Fanout {
        type Value = Sum<u64>;
        fn value(&self, _n: &usize) -> Sum<u64> {
            Sum(1)
        }
    }

    fn job(workers: usize) -> SimJob<'static, Sum<u64>> {
        sized_job(workers, 7)
    }

    fn sized_job(workers: usize, depth: usize) -> SimJob<'static, Sum<u64>> {
        let cfg = SimConfig::new(Coordination::depth_bounded(2), 1, workers);
        SimJob::new(cfg, move |granted_cfg| {
            simulate_enumerate(&Fanout { depth, width: 3 }, granted_cfg)
        })
    }

    #[test]
    fn fifo_serialises_and_accumulates_queue_wait() {
        let outcomes = simulate_multiplexed(8, &mut Fifo, vec![job(8), job(8), job(8)]);
        assert_eq!(outcomes[0].queue_wait_ticks, 0);
        assert_eq!(
            outcomes[1].queue_wait_ticks, outcomes[0].makespan,
            "the second FIFO submission waits out the first"
        );
        assert_eq!(
            outcomes[2].queue_wait_ticks,
            outcomes[0].makespan + outcomes[1].makespan
        );
        for out in &outcomes {
            assert_eq!(out.granted_workers, 8, "FIFO grants the request in full");
            assert!(out.status.is_complete());
        }
    }

    #[test]
    fn fair_share_admits_a_fitting_pair_simultaneously() {
        let outcomes = simulate_multiplexed(8, &mut FairShare, vec![job(4), job(4)]);
        for out in &outcomes {
            assert_eq!(out.queue_wait_ticks, 0, "both admitted at tick 0");
            assert_eq!(out.granted_workers, 4);
        }
        // Identical jobs co-scheduled on equal shares do identical work.
        assert_eq!(outcomes[0].nodes, outcomes[1].nodes);
        assert_eq!(outcomes[0].makespan, outcomes[1].makespan);
    }

    #[test]
    fn fair_share_splits_a_contended_pool_and_reclaims() {
        // Three greedy jobs on 8 workers: 3+3+2 (ceiling split, oldest
        // favoured), all admitted at tick 0.
        let outcomes = simulate_multiplexed(8, &mut FairShare, vec![job(8), job(8), job(8)]);
        let grants: Vec<usize> = outcomes.iter().map(|o| o.granted_workers).collect();
        assert_eq!(grants, vec![3, 3, 2]);
        assert!(outcomes.iter().all(|o| o.queue_wait_ticks == 0));
        // A *late* fourth job (arriving once the pool is fully leased)
        // waits for the first reclamation, not for the whole pool.
        let first_finish = outcomes.iter().map(|o| o.makespan).min().unwrap();
        let outcomes = simulate_multiplexed(
            8,
            &mut FairShare,
            vec![job(8), job(8), job(8), job(8).submit_at(1)],
        );
        assert_eq!(
            outcomes[3].queue_wait_ticks,
            first_finish - 1,
            "the queued job is admitted at the first completion"
        );
    }

    #[test]
    fn co_scheduling_does_not_change_per_search_work() {
        let solo = simulate_multiplexed(8, &mut FairShare, vec![job(4)]);
        let paired = simulate_multiplexed(8, &mut FairShare, vec![job(4), job(4)]);
        assert_eq!(solo[0].nodes, paired[0].nodes);
        assert_eq!(solo[0].nodes, paired[1].nodes);
        assert_eq!(
            solo[0].makespan, paired[0].makespan,
            "disjoint grants: no slowdown"
        );
    }

    #[test]
    fn arrivals_after_startup_are_respected() {
        let late = job(8).submit_at(10_000);
        let outcomes = simulate_multiplexed(8, &mut Fifo, vec![job(8), late]);
        // The late job's wait is measured from its own arrival.
        let first = outcomes[0].makespan;
        assert_eq!(outcomes[1].queue_wait_ticks, first.saturating_sub(10_000));
    }

    #[test]
    fn elastic_under_fifo_is_schedule_identical_to_fixed_grants() {
        // A serial policy never replans, so the elastic scheduler must
        // produce the exact fixed-grant schedule — the neutrality the perf
        // gate asserts against the committed BENCH baselines.
        let make = || vec![job(8), job(4), job(8).submit_at(10_000)];
        let plain = simulate_multiplexed(8, &mut Fifo, make());
        let elastic = simulate_multiplexed_elastic(8, &mut Fifo, 50, make());
        assert_eq!(plain.len(), elastic.outcomes.len());
        for (p, e) in plain.iter().zip(&elastic.outcomes) {
            assert_eq!(p.queue_wait_ticks, e.queue_wait_ticks);
            assert_eq!(p.granted_workers, e.granted_workers);
            assert_eq!(p.makespan, e.makespan);
            assert_eq!(p.nodes, e.nodes);
            assert_eq!(p.status, e.status);
        }
        assert!(
            !elastic.trace.iter().any(|r| matches!(
                r.event,
                TraceEvent::GrantGrown { .. }
                    | TraceEvent::GrantShrunk { .. }
                    | TraceEvent::WorkerRevoked { .. }
            )),
            "a serial policy renegotiates no lease"
        );
    }

    #[test]
    fn urgent_arrival_is_admitted_after_exactly_one_revocation_latency() {
        // A saturating Low-priority job holds all 8 workers; an Urgent
        // 4-worker job arrives at tick 100.  DeadlineShare revokes 4
        // workers at tick 100; they acknowledge at 100 + R; the urgent job
        // starts that same tick — its queue wait is exactly R.
        const R: u64 = 50;
        let background = sized_job(8, 8).priority(Priority::Low);
        let urgent = sized_job(4, 5).priority(Priority::Urgent).submit_at(100);
        let schedule =
            simulate_multiplexed_elastic(8, &mut DeadlineShare, R, vec![background, urgent]);
        let [bg, urgent] = &schedule.outcomes[..] else {
            panic!("two outcomes");
        };
        assert_eq!(
            urgent.queue_wait_ticks, R,
            "admitted one revocation-latency bound after arrival, not after \
             the background makespan"
        );
        assert_eq!(urgent.granted_workers, 4);
        assert!(urgent.status.is_complete());
        assert!(bg.status.is_complete(), "shrunk, not preempted");
        let revoked: Vec<u64> = schedule
            .trace
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::WorkerRevoked { latency_ns, .. } => Some(latency_ns),
                _ => None,
            })
            .collect();
        assert_eq!(revoked, vec![R; 4], "each acknowledgement took exactly R");
    }

    #[test]
    fn preemption_resolves_cancelled_with_partial_work() {
        // On a 4-worker pool an Urgent 4-worker arrival cannot be served
        // by shrinking alone (the background keeps one worker), so
        // DeadlineShare preempts the background outright.
        const R: u64 = 50;
        let solo = simulate_multiplexed(4, &mut Fifo, vec![sized_job(4, 8)]);
        let background = sized_job(4, 8).priority(Priority::Low);
        let urgent = sized_job(4, 5).priority(Priority::Urgent).submit_at(100);
        let schedule =
            simulate_multiplexed_elastic(4, &mut DeadlineShare, R, vec![background, urgent]);
        let [bg, urgent] = &schedule.outcomes[..] else {
            panic!("two outcomes");
        };
        assert_eq!(bg.status, SearchStatus::Cancelled);
        assert_eq!(bg.makespan, 100 + R, "unwound one revocation bound later");
        assert!(bg.nodes > 0, "the partial incumbent is kept");
        assert!(
            bg.nodes < solo[0].nodes,
            "preempted mid-run: {} of {} nodes",
            bg.nodes,
            solo[0].nodes
        );
        assert_eq!(urgent.queue_wait_ticks, R);
        assert!(urgent.status.is_complete());
    }

    #[test]
    fn grant_oscillation_is_flagged_by_the_thrash_analyzer() {
        // FairShare grows a lone small job into the whole pool, reclaims
        // for each newcomer, then re-grows when the newcomer finishes.
        // Two newcomer cycles produce four lease changes on the first
        // search — enough for the flight-recorder's grant_thrash rule.
        let schedule = simulate_multiplexed_elastic(
            8,
            &mut FairShare,
            10,
            vec![
                sized_job(2, 9),
                sized_job(6, 4).submit_at(1_000),
                sized_job(6, 4).submit_at(200_000),
            ],
        );
        assert!(schedule.outcomes.iter().all(|o| o.status.is_complete()));
        // Committed work is fixed at admission width: co-scheduling and
        // lease changes never alter what a search counts.
        let solo = simulate_multiplexed(8, &mut FairShare, vec![sized_job(2, 9)]);
        assert_eq!(schedule.outcomes[0].nodes, solo[0].nodes);
        let changes = schedule
            .trace
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    TraceEvent::GrantGrown { search_id: 1, .. }
                        | TraceEvent::GrantShrunk { search_id: 1, .. }
                )
            })
            .count();
        assert!(changes >= 4, "only {changes} lease changes on search 1");
        let findings = analyze(&schedule.trace, &AnalyzeConfig::default());
        assert!(
            findings.iter().any(|f| f.kind == FindingKind::GrantThrash),
            "thrash rule stayed silent over {findings:?}"
        );
    }
}
