//! Virtual-time mirror of the runtime's multiplexing scheduler.
//!
//! The threaded [`Runtime`](yewpar::Runtime) leases disjoint worker subsets
//! to concurrent searches under a pluggable [`SchedulePolicy`].  Its
//! fairness properties (who is admitted when, with how many workers, how
//! long submissions wait, how fast revoked workers return) are
//! timing-dependent and therefore awkward to assert on wall clocks.
//! [`simulate_multiplexed`] drives the *same* [`Ledger`] the threaded
//! dispatcher drives — the policy's admissions and lease renegotiations are
//! carried out by one implementation — on a virtual clock: each admitted
//! search is simulated with its granted worker count (disjointness is free —
//! simulated searches share nothing), and what the simulator adds is only
//! its event clock, a malleable-work model for lease changes, and the trace
//! records.  The result is a deterministic schedule on which queue waits,
//! grant sizes and revocation latencies can be asserted to the tick:
//!
//! * under [`Fifo`](yewpar::schedule::Fifo), submission *k* is granted its
//!   full request at max(arrival, predecessor's finish) and runs exactly its
//!   solo simulation;
//! * under [`FairShare`](yewpar::schedule::FairShare), submissions that fit
//!   the pool together are granted simultaneously at tick 0 with a
//!   proportional split;
//! * per-search committed work (`nodes`) is unchanged by co-scheduling and
//!   by lease changes — the mirror of the threaded assertion in
//!   `tests/sim_vs_threads.rs`.

use std::collections::BTreeMap;
use std::time::Duration;

use yewpar::schedule::{Adjustment, Ledger, Priority, SchedulePolicy};
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
}

/// A virtual tick on the ledger's clock.  Ticks read as microseconds (the
/// mapping [`SimConfig::deadline_ticks`] documents), so a policy reading
/// `queued_for`, `running_for` or `deadline` sees coherent durations.
fn clock(tick: u64) -> Duration {
    Duration::from_micros(tick)
}

/// The inverse of [`clock`].
fn ticks(duration: Duration) -> u64 {
    duration.as_micros() as u64
}

/// The result of [`simulate_multiplexed`]: per-job outcomes in submission
/// order plus the scheduler-level flight-recorder trace.
pub struct ElasticSchedule<R> {
    /// One outcome per submitted job, in submission order, with
    /// [`queue_wait_ticks`](SimOutcome::queue_wait_ticks) (arrival → grant
    /// on the scheduler's clock) and
    /// [`granted_workers`](SimOutcome::granted_workers) filled in, and
    /// `makespan` covering grant to finish.  A preempted job resolves with
    /// [`SearchStatus::Cancelled`], its `nodes` scaled down to the work
    /// completed before the preemption.
    pub outcomes: Vec<SimOutcome<R>>,
    /// Scheduler-level records (`SearchQueued`/`SearchGranted`/
    /// `GrantGrown`/`GrantShrunk`/`WorkerRevoked`/`SearchFinished`), all
    /// stamped with [`CONTROL_WORKER`] and virtual ticks — the same shape
    /// the threaded dispatcher emits, so they feed
    /// [`yewpar::trace::analyze`] (e.g. the `grant_thrash` rule) directly.
    pub trace: Vec<TraceRecord>,
}

/// A granted job's malleable-work model: the job is `makespan × grant`
/// worker-ticks of perfectly divisible area.  `area_done` accrues at the
/// lease's searching width between scheduler events; the remaining area at
/// a width change replays at the new width (`new_finish = t +
/// ceil(remaining / w)`, i.e. `remaining_ticks × old_w / new_w`).
struct Running<R> {
    job_index: usize,
    area_total: u128,
    area_done: u128,
    last_event: u64,
    finish_at: u64,
    base: SimOutcome<R>,
}

impl<R> Running<R> {
    /// Accrue progress up to `now` at `width` workers.
    fn settle(&mut self, now: u64, width: usize) {
        self.area_done += u128::from(now - self.last_event) * width as u128;
        self.area_done = self.area_done.min(self.area_total);
        self.last_event = now;
    }

    /// Recompute the completion event for `width` workers (call after
    /// [`settle`](Self::settle)).
    fn reschedule(&mut self, now: u64, width: usize) {
        let remaining = self.area_total - self.area_done;
        self.finish_at = now + (remaining.div_ceil(width.max(1) as u128)) as u64;
    }
}

/// Run `jobs` through the virtual-time multiplexed scheduler over a pool of
/// `pool_workers` under `policy` — the deterministic mirror of
/// [`Runtime::with_policy`](yewpar::Runtime::with_policy).  Search ids are
/// assigned on arrival, in arrival order, as the runtime numbers
/// submissions.  At every scheduler event the [`Ledger`] plans admissions
/// and replans the running leases (a no-op for [`Fifo`](yewpar::Fifo),
/// whose `replan` returns no adjustments), and the clamped
/// [`Adjustment`]s take effect in virtual time:
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
/// Jobs are *malleable*: each admission is simulated once, single-locality,
/// at its granted width (fixing `result`/`nodes`/counters), and width
/// changes rescale the remaining virtual time as
/// `ceil(remaining × old_w / new_w)`.  The threaded dispatcher replans on a
/// short periodic timer; the virtual clock replans at every scheduler
/// event, which is the same schedule with the idle gaps removed.
pub fn simulate_multiplexed<R>(
    pool_workers: usize,
    policy: &mut dyn SchedulePolicy,
    revocation_latency: u64,
    jobs: Vec<SimJob<'_, R>>,
) -> ElasticSchedule<R> {
    let revocation_latency = revocation_latency.max(1);
    let uncapped = |_: &mut usize, requested: usize| Some(requested);
    let record = |trace: &mut Vec<TraceRecord>, ts: u64, event: TraceEvent| {
        trace.push(TraceRecord {
            ts,
            worker: CONTROL_WORKER,
            event,
        });
    };
    let mut ledger: Ledger<usize> = Ledger::new(pool_workers);
    let mut outcomes: Vec<Option<SimOutcome<R>>> = jobs.iter().map(|_| None).collect();
    let mut trace: Vec<TraceRecord> = Vec::new();
    // Arrival events, processed in (tick, submission order) and numbered
    // in that order.
    let mut arrivals: Vec<(u64, usize)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.submit_at, i))
        .collect();
    arrivals.sort_by_key(|&(tick, index)| (tick, index));
    let mut arrivals = arrivals.into_iter().zip(1u64..).peekable();

    let mut now: u64 = 0;
    let mut running: BTreeMap<u64, Running<R>> = BTreeMap::new();
    // Revocations in flight: (due tick, search id, worker count).
    let mut revocations: Vec<(u64, u64, usize)> = Vec::new();

    loop {
        // Ingest every arrival at or before `now` (the scheduler batches a
        // burst, like the dispatcher draining its channel).
        while let Some(&((tick, index), search_id)) = arrivals.peek() {
            if tick > now {
                break;
            }
            arrivals.next();
            record(&mut trace, tick, TraceEvent::SearchQueued { search_id });
            let job = &jobs[index];
            ledger.enqueue(
                search_id,
                job.config.workers(),
                job.priority,
                job.config.deadline_ticks.map(clock),
                clock(tick),
                index,
            );
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
            let (Some(job), Some(lease)) = (running.get_mut(&search), ledger.lease(search)) else {
                continue;
            };
            if lease.preempted {
                continue;
            }
            let width = lease.workers;
            job.settle(now, width);
            for i in 0..count {
                let event = TraceEvent::WorkerRevoked {
                    search_id: search,
                    slot: (width - 1 - i) as u32,
                    latency_ns: revocation_latency,
                };
                record(&mut trace, now, event);
            }
            ledger.release(search, count);
            job.reschedule(now, width - count);
        }

        // Complete every job finishing at this tick, latest id first.
        let done: Vec<u64> = running
            .iter()
            .filter(|(_, job)| job.finish_at <= now)
            .map(|(&search_id, _)| search_id)
            .collect();
        for search_id in done.into_iter().rev() {
            let (Some(mut job), Some(lease)) =
                (running.remove(&search_id), ledger.finish(search_id))
            else {
                continue;
            };
            // An unwinding job's area stays frozen.
            job.settle(now, if lease.preempted { 0 } else { lease.workers });
            revocations.retain(|&(_, search, _)| search != search_id);
            record(&mut trace, now, TraceEvent::SearchFinished { search_id });
            let mut outcome = job.base;
            outcome.makespan = now - ticks(lease.granted_at);
            if lease.preempted {
                outcome.status = SearchStatus::Cancelled;
                if let Some(scaled) =
                    (u128::from(outcome.nodes) * job.area_done).checked_div(job.area_total)
                {
                    outcome.nodes = scaled as u64;
                }
            }
            outcomes[job.job_index] = Some(outcome);
        }

        // Plan and launch admissions until the policy admits nothing.
        loop {
            let admitted = ledger.plan(policy, clock(now), uncapped);
            if admitted.is_empty() {
                break;
            }
            for admission in admitted {
                let job = &jobs[admission.job];
                // The grant re-shapes the submission's config: a
                // single-locality slice of the pool.
                let mut cfg = job.config.clone();
                cfg.localities = 1;
                cfg.workers_per_locality = admission.workers;
                let mut base = (job.run)(&cfg);
                base.queue_wait_ticks = ticks(admission.queue_wait);
                base.granted_workers = admission.workers;
                let event = TraceEvent::SearchGranted {
                    search_id: admission.search_id,
                    workers: admission.workers as u32,
                };
                record(&mut trace, now, event);
                let makespan = base.makespan;
                running.insert(
                    admission.search_id,
                    Running {
                        job_index: admission.job,
                        area_total: u128::from(makespan) * admission.workers as u128,
                        area_done: 0,
                        last_event: now,
                        finish_at: now + makespan,
                        base,
                    },
                );
            }
        }

        // Renegotiate running leases — the virtual replanning tick.
        for action in ledger.replan(policy, clock(now), uncapped) {
            match action {
                Adjustment::Grow { search, workers } => {
                    let (Some(job), Some(lease)) = (running.get_mut(&search), ledger.lease(search))
                    else {
                        continue;
                    };
                    job.settle(now, lease.workers);
                    let width = ledger.grow(search, workers);
                    job.reschedule(now, width);
                    let event = TraceEvent::GrantGrown {
                        search_id: search,
                        workers: width as u32,
                    };
                    record(&mut trace, now, event);
                }
                Adjustment::Shrink { search, workers } => {
                    revocations.push((now + revocation_latency, search, workers));
                    if let Some(lease) = ledger.lease(search) {
                        let event = TraceEvent::GrantShrunk {
                            search_id: search,
                            workers: (lease.workers - lease.pending_revocations) as u32,
                        };
                        record(&mut trace, now, event);
                    }
                }
                Adjustment::Preempt { search } => {
                    let (Some(job), Some(lease)) = (running.get_mut(&search), ledger.lease(search))
                    else {
                        continue;
                    };
                    // Searched at full width up to now; the lease then
                    // returns within one revocation-latency bound.
                    job.settle(now, lease.workers);
                    job.finish_at = now + revocation_latency;
                }
            }
        }

        // Advance the clock to the next event: a completion, a revocation
        // acknowledgement, or an arrival.
        let next = running
            .values()
            .map(|job| job.finish_at)
            .chain(revocations.iter().map(|&(due, _, _)| due))
            .chain(arrivals.peek().map(|&((tick, _), _)| tick))
            .min();
        match next {
            Some(tick) => now = tick.max(now),
            None => break,
        }
    }

    debug_assert!(ledger.is_idle() && running.is_empty());
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

    /// Revocation latency for the tests whose policies never revoke.
    const R: u64 = 50;

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
        let outcomes = simulate_multiplexed(8, &mut Fifo, R, vec![job(8), job(8), job(8)]).outcomes;
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
        let outcomes = simulate_multiplexed(8, &mut FairShare, R, vec![job(4), job(4)]).outcomes;
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
        let outcomes =
            simulate_multiplexed(8, &mut FairShare, R, vec![job(8), job(8), job(8)]).outcomes;
        let grants: Vec<usize> = outcomes.iter().map(|o| o.granted_workers).collect();
        assert_eq!(grants, vec![3, 3, 2]);
        assert!(outcomes.iter().all(|o| o.queue_wait_ticks == 0));
        // A *late* fourth job (arriving once the pool is fully leased)
        // waits for the first reclamation, not for the whole pool.
        let first_finish = outcomes.iter().map(|o| o.makespan).min().unwrap();
        let outcomes = simulate_multiplexed(
            8,
            &mut FairShare,
            R,
            vec![job(8), job(8), job(8), job(8).submit_at(1)],
        )
        .outcomes;
        assert_eq!(
            outcomes[3].queue_wait_ticks,
            first_finish - 1,
            "the queued job is admitted at the first completion"
        );
    }

    #[test]
    fn co_scheduling_does_not_change_per_search_work() {
        let solo = simulate_multiplexed(8, &mut FairShare, R, vec![job(4)]).outcomes;
        let paired = simulate_multiplexed(8, &mut FairShare, R, vec![job(4), job(4)]).outcomes;
        assert_eq!(solo[0].nodes, paired[0].nodes);
        assert_eq!(solo[0].nodes, paired[1].nodes);
        for out in &paired {
            let cfg = SimConfig::new(Coordination::depth_bounded(2), 1, out.granted_workers);
            let alone = simulate_enumerate(&Fanout { depth: 7, width: 3 }, &cfg);
            assert_eq!(out.makespan, alone.makespan, "disjoint grants: no slowdown");
        }
    }

    #[test]
    fn arrivals_after_startup_are_respected() {
        let late = job(8).submit_at(10_000);
        let outcomes = simulate_multiplexed(8, &mut Fifo, R, vec![job(8), late]).outcomes;
        // The late job's wait is measured from its own arrival.
        let first = outcomes[0].makespan;
        assert_eq!(outcomes[1].queue_wait_ticks, first.saturating_sub(10_000));
    }

    #[test]
    fn urgent_arrival_is_admitted_after_exactly_one_revocation_latency() {
        // A saturating Low-priority job holds all 8 workers; an Urgent
        // 4-worker job arrives at tick 100.  DeadlineShare revokes 4
        // workers at tick 100; they acknowledge at 100 + R; the urgent job
        // starts that same tick — its queue wait is exactly R.
        let background = sized_job(8, 8).priority(Priority::Low);
        let urgent = sized_job(4, 5).priority(Priority::Urgent).submit_at(100);
        let schedule = simulate_multiplexed(8, &mut DeadlineShare, R, vec![background, urgent]);
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
    fn search_ids_follow_arrival_order_when_a_later_arrival_is_granted_first() {
        // A Low background holds the 4-worker pool; a Normal job A and an
        // Urgent job B (one worker each) arrive together.  DeadlineShare
        // grants B first, one revocation latency later; A waits for the
        // background.  Every id's traced queued → granted gap must still be
        // its own job's queue wait.
        let jobs = vec![
            sized_job(4, 8).priority(Priority::Low),
            sized_job(1, 5).submit_at(100),
            sized_job(1, 5).priority(Priority::Urgent).submit_at(100),
        ];
        let schedule = simulate_multiplexed(4, &mut DeadlineShare, R, jobs);
        let stamp = |want: fn(&TraceEvent) -> Option<u64>, id: u64| {
            schedule
                .trace
                .iter()
                .find(|r| want(&r.event) == Some(id))
                .map(|r| r.ts)
                .expect("traced")
        };
        let queued = |e: &TraceEvent| match *e {
            TraceEvent::SearchQueued { search_id } => Some(search_id),
            _ => None,
        };
        let granted = |e: &TraceEvent| match *e {
            TraceEvent::SearchGranted { search_id, .. } => Some(search_id),
            _ => None,
        };
        for (id, out) in (1u64..).zip(&schedule.outcomes) {
            assert_eq!(
                stamp(granted, id) - stamp(queued, id),
                out.queue_wait_ticks,
                "search {id}"
            );
        }
        let [_, a, b] = &schedule.outcomes[..] else {
            panic!("three outcomes");
        };
        assert_eq!(b.queue_wait_ticks, R, "the urgent job overtakes");
        assert!(
            a.queue_wait_ticks > R,
            "the normal job waits out the background"
        );
    }

    #[test]
    fn preemption_resolves_cancelled_with_partial_work() {
        // On a 4-worker pool an Urgent 4-worker arrival cannot be served
        // by shrinking alone (the background keeps one worker), so
        // DeadlineShare preempts the background outright.
        let solo = simulate_multiplexed(4, &mut Fifo, R, vec![sized_job(4, 8)]).outcomes;
        let background = sized_job(4, 8).priority(Priority::Low);
        let urgent = sized_job(4, 5).priority(Priority::Urgent).submit_at(100);
        let schedule = simulate_multiplexed(4, &mut DeadlineShare, R, vec![background, urgent]);
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
        let schedule = simulate_multiplexed(
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
        let solo = simulate_multiplexed(8, &mut FairShare, R, vec![sized_job(2, 9)]).outcomes;
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
