//! The admission-and-lease ledger: the one place a [`SchedulePolicy`]'s
//! decisions are carried out.
//!
//! Both engines drive a [`Ledger`]: the threaded dispatcher on the time
//! since runtime start, the virtual-time simulator on its ticks read as
//! microseconds.  The ledger owns the scheduler state a policy sees — the
//! capacity, the free worker budget, the pending queue and the running
//! leases — and each engine keeps only what is physically its own (pool
//! slots and revocation requests on threads, an event clock and a
//! malleable-work model in the simulator).

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use super::{Adjustment, PendingRequest, Priority, RunningSearch, SchedulePolicy};

/// A submission waiting in the ledger's queue.
#[derive(Debug)]
struct Queued<J> {
    search_id: u64,
    job: J,
    requested_workers: usize,
    priority: Priority,
    deadline: Option<Duration>,
    arrived: Duration,
}

/// The ledger's record of one running search: what the policy sees of it
/// as a [`RunningSearch`] on every [`replan`](Ledger::replan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Workers leased, including those whose revocation is still pending.
    pub workers: usize,
    /// The worker count the search originally asked for.
    pub requested_workers: usize,
    /// Scheduling priority the search was submitted with.
    pub priority: Priority,
    /// Grant instant on the caller's clock.
    pub granted_at: Duration,
    /// Revocations issued but not yet acknowledged.
    pub pending_revocations: usize,
    /// Whether a `Preempt` has been carried out against the search.
    pub preempted: bool,
}

/// One admission carried out by [`Ledger::plan`].
#[derive(Debug)]
pub struct Admitted<J> {
    /// The id the submission was [enqueued](Ledger::enqueue) under.
    pub search_id: u64,
    /// The caller's payload.
    pub job: J,
    /// Workers granted (at least 1).
    pub workers: usize,
    /// Arrival to grant, on the caller's clock.
    pub queue_wait: Duration,
}

/// Single-threaded, clock-agnostic scheduler state: the free worker budget,
/// the pending queue (payload `J` per submission) and the running leases in
/// search-id order.  Time is always passed in as a [`Duration`] on the
/// caller's clock.
#[derive(Debug)]
pub struct Ledger<J> {
    capacity: usize,
    free: usize,
    pending: VecDeque<Queued<J>>,
    running: BTreeMap<u64, Lease>,
}

impl<J> Ledger<J> {
    /// An empty ledger over `capacity` workers (at least 1), all free.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ledger {
            capacity,
            free: capacity,
            pending: VecDeque::new(),
            running: BTreeMap::new(),
        }
    }

    /// Whether nothing is queued and nothing is running.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.running.is_empty()
    }

    /// The payloads still queued, oldest first.
    pub fn queued(&self) -> impl Iterator<Item = &J> {
        self.pending.iter().map(|queued| &queued.job)
    }

    /// The lease of a running search.
    pub fn lease(&self, search_id: u64) -> Option<&Lease> {
        self.running.get(&search_id)
    }

    /// Queue the payload `job` under `search_id`, arriving at `now`.
    pub fn enqueue(
        &mut self,
        search_id: u64,
        requested_workers: usize,
        priority: Priority,
        deadline: Option<Duration>,
        now: Duration,
        job: J,
    ) {
        self.pending.push_back(Queued {
            search_id,
            job,
            requested_workers: requested_workers.max(1),
            priority,
            deadline,
            arrived: now,
        });
    }

    /// The policy's view of the queue at `now`, paired with each request's
    /// index in `pending`.
    fn requests(
        &mut self,
        now: Duration,
        cap: &mut impl FnMut(&mut J, usize) -> Option<usize>,
    ) -> (Vec<PendingRequest>, Vec<usize>) {
        let mut requests = Vec::with_capacity(self.pending.len());
        let mut eligible = Vec::with_capacity(self.pending.len());
        for (index, queued) in self.pending.iter_mut().enumerate() {
            let Some(requested_workers) = cap(&mut queued.job, queued.requested_workers) else {
                continue;
            };
            requests.push(PendingRequest {
                requested_workers,
                queued_for: now.saturating_sub(queued.arrived),
                priority: queued.priority,
                deadline: queued.deadline,
            });
            eligible.push(index);
        }
        (requests, eligible)
    }

    /// One admission round: ask `policy` to [`plan`](SchedulePolicy::plan)
    /// over the eligible queue, dequeue the admitted submissions, debit the
    /// free budget and open their leases at `now`.  Returns the admissions
    /// in queue order (empty when the policy admits nothing).
    ///
    /// `cap` sees every queued payload with its requested worker count and
    /// returns the count to show the policy, or `None` to hold the
    /// submission back this round (the runtime's session quotas).
    pub fn plan(
        &mut self,
        policy: &mut dyn SchedulePolicy,
        now: Duration,
        mut cap: impl FnMut(&mut J, usize) -> Option<usize>,
    ) -> Vec<Admitted<J>> {
        let (requests, eligible) = self.requests(now, &mut cap);
        if requests.is_empty() {
            return Vec::new();
        }
        let admissions = policy.plan(&requests, self.free, self.capacity, self.running.len());
        debug_assert!(
            admissions.windows(2).all(|w| w[0].index < w[1].index),
            "admission indices must be strictly increasing"
        );
        // Dequeue back to front so the remaining indices stay valid.
        let mut admitted: Vec<Admitted<J>> = Vec::with_capacity(admissions.len());
        for admission in admissions.into_iter().rev() {
            let queued = self
                .pending
                .remove(eligible[admission.index])
                .expect("policy admitted a pending index");
            let workers = admission.workers.max(1);
            // Saturating: Fifo grants oversubscribed requests in full.
            self.free = self.free.saturating_sub(workers);
            self.running.insert(
                queued.search_id,
                Lease {
                    workers,
                    requested_workers: queued.requested_workers,
                    priority: queued.priority,
                    granted_at: now,
                    pending_revocations: 0,
                    preempted: false,
                },
            );
            admitted.push(Admitted {
                search_id: queued.search_id,
                job: queued.job,
                workers,
                queue_wait: now.saturating_sub(queued.arrived),
            });
        }
        admitted.reverse();
        admitted
    }

    /// One renegotiation round: show `policy` the running leases (in
    /// search-id order) and the eligible queue, and carry out its
    /// [`replan`](SchedulePolicy::replan).  Adjustments aimed at unknown or
    /// preempted searches are dropped; a `Grow` is clamped to the free
    /// budget left by earlier grows of the round, a `Shrink` to
    /// `workers − pending_revocations − 1`, and zero-worker results are
    /// dropped.  Shrinks and preemptions are booked here; a grow is booked
    /// by the caller through [`grow`](Self::grow) once it is carried out.
    /// `cap` as in [`plan`](Self::plan).
    pub fn replan(
        &mut self,
        policy: &mut dyn SchedulePolicy,
        now: Duration,
        mut cap: impl FnMut(&mut J, usize) -> Option<usize>,
    ) -> Vec<Adjustment> {
        if self.running.is_empty() {
            return Vec::new();
        }
        let running: Vec<RunningSearch> = self
            .running
            .iter()
            .map(|(&search_id, lease)| RunningSearch {
                search_id,
                workers: lease.workers,
                requested_workers: lease.requested_workers,
                priority: lease.priority,
                running_for: now.saturating_sub(lease.granted_at),
                pending_revocations: lease.pending_revocations,
                preempted: lease.preempted,
            })
            .collect();
        let (requests, _) = self.requests(now, &mut cap);
        let mut budget = self.free;
        let mut actions = Vec::new();
        for adjustment in policy.replan(&running, &requests, self.free, self.capacity) {
            let (Adjustment::Grow { search, .. }
            | Adjustment::Shrink { search, .. }
            | Adjustment::Preempt { search }) = adjustment;
            let Some(lease) = self
                .running
                .get_mut(&search)
                .filter(|lease| !lease.preempted)
            else {
                continue;
            };
            match adjustment {
                Adjustment::Grow { workers, .. } => {
                    let workers = workers.min(budget);
                    if workers > 0 {
                        budget -= workers;
                        actions.push(Adjustment::Grow { search, workers });
                    }
                }
                Adjustment::Shrink { workers, .. } => {
                    // Cooperative revocation never takes the last worker.
                    let settled = lease.workers.saturating_sub(lease.pending_revocations + 1);
                    let workers = workers.min(settled);
                    if workers > 0 {
                        lease.pending_revocations += workers;
                        actions.push(Adjustment::Shrink { search, workers });
                    }
                }
                Adjustment::Preempt { .. } => {
                    lease.preempted = true;
                    actions.push(adjustment);
                }
            }
        }
        actions
    }

    /// Book `workers` leased onto a running search by a carried-out grow;
    /// returns its new worker count.
    pub fn grow(&mut self, search_id: u64, workers: usize) -> usize {
        let Some(lease) = self.running.get_mut(&search_id) else {
            return 0;
        };
        lease.workers += workers;
        self.free = self.free.saturating_sub(workers);
        lease.workers
    }

    /// Book `workers` acknowledged revocations: they leave the search's
    /// lease and return to the free budget.
    pub fn release(&mut self, search_id: u64, workers: usize) {
        self.free = (self.free + workers).min(self.capacity);
        if let Some(lease) = self.running.get_mut(&search_id) {
            lease.workers = lease.workers.saturating_sub(workers);
            lease.pending_revocations = lease.pending_revocations.saturating_sub(workers);
        }
    }

    /// Close a finished search's lease, returning its workers to the free
    /// budget; `None` if the search is not running.
    pub fn finish(&mut self, search_id: u64) -> Option<Lease> {
        let lease = self.running.remove(&search_id)?;
        self.free = (self.free + lease.workers).min(self.capacity);
        Some(lease)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Admission;
    use Adjustment::{Grow, Preempt, Shrink};

    /// Returns scripted decisions and records what it was shown: the
    /// requested workers of the queue, `(id, workers, pending, preempted)`
    /// of the running set.
    #[derive(Default)]
    struct Script {
        admissions: Vec<Admission>,
        adjustments: Vec<Adjustment>,
        queue: Vec<usize>,
        running: Vec<(u64, usize, usize, bool)>,
    }

    impl SchedulePolicy for Script {
        fn name(&self) -> &'static str {
            "script"
        }
        fn plan(
            &mut self,
            queue: &[PendingRequest],
            _: usize,
            _: usize,
            _: usize,
        ) -> Vec<Admission> {
            self.queue = queue.iter().map(|r| r.requested_workers).collect();
            std::mem::take(&mut self.admissions)
        }
        fn replan(
            &mut self,
            running: &[RunningSearch],
            _: &[PendingRequest],
            _: usize,
            _: usize,
        ) -> Vec<Adjustment> {
            let view =
                |s: &RunningSearch| (s.search_id, s.workers, s.pending_revocations, s.preempted);
            self.running = running.iter().map(view).collect();
            std::mem::take(&mut self.adjustments)
        }
    }

    fn grow(search: u64, workers: usize) -> Adjustment {
        Grow { search, workers }
    }

    fn shrink(search: u64, workers: usize) -> Adjustment {
        Shrink { search, workers }
    }

    enum Step {
        /// Scripted admissions `(index, workers)`; expect the policy's view
        /// of the queue and the `(id, workers)` grants.
        Plan(Vec<(usize, usize)>, Vec<usize>, Vec<(u64, usize)>),
        /// Scripted adjustments; expect the running view and the clamped
        /// actions.
        Replan(
            Vec<Adjustment>,
            Vec<(u64, usize, usize, bool)>,
            Vec<Adjustment>,
        ),
        Grow(u64, usize),
        Release(u64, usize),
        /// Expect the closed lease's worker count.
        Finish(u64, Option<usize>),
    }

    #[test]
    fn ledger_carries_out_policy_decisions_step_by_step() {
        // Search 2 shares a session quota with search 1 until 1 finishes;
        // search 3 may show the policy one worker.
        let quota_held = std::cell::Cell::new(true);
        let quota = |id: &mut u64, requested: usize| match *id {
            2 if quota_held.get() => None,
            3 => Some(requested.min(1)),
            _ => Some(requested),
        };
        let mut ledger: Ledger<u64> = Ledger::new(8);
        for (id, requested) in [(1, 4), (2, 4), (3, 2)] {
            ledger.enqueue(id, requested, Priority::Normal, None, Duration::ZERO, id);
        }
        let (one, busy) = ((3, 1, 0, false), (1, 6, 0, false));
        // Each step with the free budget expected after it.
        let steps = vec![
            // Search 2 is held back: the policy sees searches 1 and 3.
            (
                Step::Plan(vec![(0, 4), (1, 1)], vec![4, 1], vec![(1, 4), (3, 1)]),
                3,
            ),
            // Grow clamped to the budget, which a second grow then finds
            // spent; a one-worker search cannot shrink; unknown ids drop.
            (
                Step::Replan(
                    vec![grow(1, 5), shrink(3, 1), grow(3, 2), Preempt { search: 9 }],
                    vec![(1, 4, 0, false), one],
                    vec![grow(1, 3)],
                ),
                3,
            ),
            // Only two of the three attaches succeeded.
            (Step::Grow(1, 2), 1),
            (
                Step::Replan(vec![shrink(1, 10)], vec![busy, one], vec![shrink(1, 5)]),
                1,
            ),
            // Revocations in flight count against further shrinks.
            (
                Step::Replan(vec![shrink(1, 1)], vec![(1, 6, 5, false), one], vec![]),
                1,
            ),
            (Step::Release(1, 2), 3),
            // Once preempted, a search takes no further adjustment.
            (
                Step::Replan(
                    vec![Preempt { search: 1 }, grow(1, 1), Preempt { search: 1 }],
                    vec![(1, 4, 3, false), one],
                    vec![Preempt { search: 1 }],
                ),
                3,
            ),
            // The whole lease returns, pending revocations included.
            (Step::Finish(1, Some(4)), 7),
            (Step::Finish(1, None), 7),
            (Step::Finish(3, Some(1)), 8),
            (Step::Plan(vec![(0, 4)], vec![4], vec![(2, 4)]), 4),
        ];
        let mut policy = Script::default();
        for (i, (step, free)) in steps.into_iter().enumerate() {
            let now = Duration::from_micros(i as u64);
            match step {
                Step::Plan(admit, queue, grants) => {
                    let admit = admit
                        .into_iter()
                        .map(|(index, workers)| Admission { index, workers });
                    policy.admissions = admit.collect();
                    let admitted = ledger.plan(&mut policy, now, quota);
                    assert_eq!(policy.queue, queue, "step {i}");
                    let got: Vec<_> = admitted.iter().map(|a| (a.job, a.workers)).collect();
                    assert_eq!(got, grants, "step {i}");
                }
                Step::Replan(script, running, actions) => {
                    policy.adjustments = script;
                    assert_eq!(ledger.replan(&mut policy, now, quota), actions, "step {i}");
                    assert_eq!(policy.running, running, "step {i}");
                }
                Step::Grow(id, n) => assert_eq!(ledger.grow(id, n), 6, "step {i}"),
                Step::Release(id, n) => ledger.release(id, n),
                Step::Finish(id, workers) => {
                    quota_held.set(quota_held.get() && id != 1);
                    assert_eq!(ledger.finish(id).map(|l| l.workers), workers, "step {i}");
                }
            }
            assert_eq!(ledger.free, free, "free budget after step {i}");
        }
        let granted = ledger.lease(2).map(|l| l.granted_at);
        assert_eq!(granted, Some(Duration::from_micros(10)), "search 2 runs");
    }
}
