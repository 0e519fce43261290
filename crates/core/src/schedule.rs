//! Pluggable scheduling policies for the multiplexed [`Runtime`].
//!
//! Since PR 5 the runtime's dispatcher is an *allocator*: it owns the pool's
//! worker slots and leases disjoint subsets of them to searches, running
//! several searches concurrently and reclaiming workers as searches finish.
//! *Which* pending submissions are admitted, and with how many workers each,
//! is policy — and, mirroring the paper's design of keeping coordination
//! policy pluggable behind one engine, scheduling policy is a trait with the
//! mechanism (slot leasing, dispatch, reclamation) owned by the runtime:
//!
//! * [`Fifo`] — the PR 4 behaviour and the default: one search at a time
//!   over the whole pool, granted exactly the worker count it asked for
//!   (oversubscription allowed), admitted only when the pool is fully free.
//!   Zero scheduling latency, no co-tenant interference — still the right
//!   choice for a dedicated solver box.
//! * [`FairShare`] — multi-tenant service scheduling: a submission is
//!   admitted as soon as **one** worker is free, and the free workers are
//!   split proportionally across the pending queue (each submission capped
//!   at the worker count it requested).  Two searches requesting half an
//!   8-worker pool each therefore run *concurrently* on disjoint 4-worker
//!   subsets instead of serialising.
//! * [`DeadlineShare`] — priority- and deadline-aware elastic scheduling:
//!   admission is priority-weighted, idle workers grow running searches, and
//!   an urgent arrival *reclaims* workers from long-running low-priority
//!   searches (cooperative revocation) or preempts them outright instead of
//!   waiting for the background makespan.
//!
//! Since PR 8 a grant is a renegotiable *lease*, not a one-shot decision: in
//! addition to [`plan`](SchedulePolicy::plan) (admission) policies may
//! implement [`replan`](SchedulePolicy::replan), which maps the *running*
//! set and the still-pending queue to a list of [`Adjustment`]s — growing a
//! live search onto idle workers, shrinking it via cooperative revocation,
//! or preempting it entirely.
//!
//! Policies only *decide*.  Carrying a decision out — building the policy's
//! view of the queue and of the running set, popping admissions, booking
//! the free worker budget, clamping each adjustment — is the job of one
//! [`Ledger`], which both the threaded dispatcher and the discrete-event
//! simulator (`yewpar_sim::simulate_multiplexed`) drive on their own clocks.
//! The runtime adds only the physical half (leasing pool slots, issuing
//! revocation requests that workers acknowledge at their next lifecycle
//! poll) and the simulator only its virtual clock, so schedules asserted to
//! the tick in virtual time exercise the mechanism the runtime runs.
//!
//! [`Runtime`]: crate::runtime::Runtime

use std::time::Duration;

mod ledger;

pub use ledger::{Admitted, Lease, Ledger};

/// Scheduling priority of a submission, ordered lowest to highest.  The
/// default is [`Normal`](Priority::Normal); [`Fifo`] and [`FairShare`]
/// ignore priorities, [`DeadlineShare`] weights admission by them and only
/// reclaims workers for [`High`](Priority::High)/[`Urgent`](Priority::Urgent)
/// arrivals (preemption is reserved for `Urgent`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work: first to shrink, first to preempt.
    Low,
    /// The default for every submission that does not say otherwise.
    #[default]
    Normal,
    /// Latency-sensitive: admitted ahead of `Normal` work and allowed to
    /// reclaim workers from running lower-priority searches.
    High,
    /// Interactive / contractual latency: may additionally *preempt*
    /// lower-priority searches when reclamation alone cannot make room.
    Urgent,
}

/// A submission waiting in the runtime's queue, as seen by a policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRequest {
    /// The worker count the submission asked for
    /// ([`SearchConfig::workers`](crate::params::SearchConfig::workers)).
    pub requested_workers: usize,
    /// How long the submission has been waiting, from its submission
    /// timestamp to the planning instant (both read on the driving
    /// engine's clock and computed by the [`Ledger`] — the submitter never
    /// self-reports).  Time spent in the submission channel while the
    /// dispatcher runs a FIFO job inline therefore counts as waiting.
    pub queued_for: Duration,
    /// Scheduling priority ([`Priority::Normal`] unless the submitting
    /// session set one).
    pub priority: Priority,
    /// The submission's wall-clock budget
    /// ([`SearchConfig::deadline`](crate::params::SearchConfig::deadline)),
    /// if any — a deadline-bearing request is treated as more latency
    /// sensitive by [`DeadlineShare`] (soonest first within a priority).
    pub deadline: Option<Duration>,
}

impl Default for PendingRequest {
    fn default() -> Self {
        PendingRequest {
            requested_workers: 1,
            queued_for: Duration::ZERO,
            priority: Priority::Normal,
            deadline: None,
        }
    }
}

/// A live search, as seen by [`SchedulePolicy::replan`].  Snapshots are
/// taken by the [`Ledger`] at each replanning instant and are ordered by
/// `search_id` (i.e. submission order) for determinism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunningSearch {
    /// The runtime-assigned search id ([`Adjustment`]s refer to it).
    pub search_id: u64,
    /// Workers currently leased to the search (the *target* count: workers
    /// whose revocation is already pending are still included here — see
    /// [`pending_revocations`](RunningSearch::pending_revocations)).
    pub workers: usize,
    /// The worker count the search originally asked for.
    pub requested_workers: usize,
    /// Scheduling priority the search was submitted with.
    pub priority: Priority,
    /// How long the search has been running (grant instant to the
    /// replanning instant).
    pub running_for: Duration,
    /// Revocations issued but not yet acknowledged.  A policy that shrinks
    /// by `n` sees `pending_revocations` grow by `n` until the workers
    /// actually leave; subtract it from [`workers`](RunningSearch::workers)
    /// when computing capacity still to be freed, or the same deficit is
    /// re-shrunk on every replanning tick.
    pub pending_revocations: usize,
    /// Whether the search has already been preempted (cancelled by a
    /// previous `Preempt` adjustment) and is unwinding.  Its workers are
    /// capacity-in-flight: count them as incoming, do not reclaim again.
    pub preempted: bool,
}

impl RunningSearch {
    /// Workers the search will still hold once every pending revocation is
    /// acknowledged (`workers - pending_revocations`).
    pub fn settled_workers(&self) -> usize {
        self.workers.saturating_sub(self.pending_revocations)
    }
}

/// One admission decision: grant `workers` workers to the pending
/// submission at `index` (an index into the `pending` slice passed to
/// [`SchedulePolicy::plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Index into the pending queue (FIFO order, 0 = oldest).
    pub index: usize,
    /// Workers granted.  At least 1; policies other than [`Fifo`] keep it
    /// within both the request and the free-worker budget.
    pub workers: usize,
}

/// One lease renegotiation decided by [`SchedulePolicy::replan`] and
/// executed by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adjustment {
    /// Lease `workers` additional pool workers onto the running search
    /// `search`.  Best-effort: the runtime grows by at most the free
    /// capacity, and not at all once the search is preempted.
    Grow {
        /// Target [`RunningSearch::search_id`].
        search: u64,
        /// Additional workers to lease on.
        workers: usize,
    },
    /// Issue `workers` cooperative revocation requests to the running
    /// search `search`.  Revoked workers acknowledge at their next
    /// lifecycle poll: they offload any unexplored subtrees back to the
    /// survivors, drain their private buffers, and return their slot to the
    /// dispatcher — no task is ever stranded.  A search is never shrunk
    /// below one worker.
    Shrink {
        /// Target [`RunningSearch::search_id`].
        search: u64,
        /// Revocations to issue (capped by the runtime at `workers - 1`).
        workers: usize,
    },
    /// Cancel the running search `search` outright.  The search unwinds
    /// cooperatively and resolves as `Cancelled`, keeping any partial
    /// incumbent; its workers return to the pool as it finishes.
    Preempt {
        /// Target [`RunningSearch::search_id`].
        search: u64,
    },
}

/// A scheduling policy: decides which pending submissions the runtime
/// admits (and with how many workers each), and — for elastic policies —
/// how the leases of *running* searches are renegotiated as load changes.
///
/// A [`Ledger`] calls [`plan`](SchedulePolicy::plan) whenever the scheduler
/// state changes (a submission arrives, a search finishes) and carries out
/// the returned admissions; the runtime then leases disjoint pool-thread
/// slots, one per granted worker, sends the search to the first of them,
/// and reclaims the lease when it finishes.  While searches are running the
/// ledger additionally calls [`replan`](SchedulePolicy::replan) on a short
/// periodic tick.  Every policy runs searches the same way; what tells
/// [`Fifo`] apart is only its decisions.  See the [module docs](self) for
/// the built-in policies.
pub trait SchedulePolicy: Send + 'static {
    /// Short policy name for logs, metrics and benchmark tables.
    fn name(&self) -> &'static str;

    /// Plan admissions for the current scheduler state.
    ///
    /// `pending` is the FIFO submission queue (index 0 = oldest),
    /// `free_workers` the unleased worker count, `capacity` the pool's total
    /// worker count, and `active` the number of searches currently running.
    /// Returned indices must be strictly increasing and each admission must
    /// grant at least one worker; the [`Ledger`] debug-asserts the first and
    /// grants at least one worker regardless.
    fn plan(
        &mut self,
        pending: &[PendingRequest],
        free_workers: usize,
        capacity: usize,
        active: usize,
    ) -> Vec<Admission>;

    /// Renegotiate the leases of running searches.
    ///
    /// Called by the [`Ledger`] *after* [`plan`](SchedulePolicy::plan) on every
    /// scheduling tick while searches are active.  [`Fifo`] keeps the
    /// default, which returns no adjustments, so its grants stay fixed for
    /// life.  `running` is a snapshot of the active
    /// searches in search-id order; `pending` is whatever the preceding
    /// `plan` left unadmitted; `free_workers`/`capacity` as in `plan`.
    ///
    /// # Contract
    ///
    /// * The returned adjustments are **requests**, executed best-effort in
    ///   order: a `Grow` is capped by the free capacity at execution time, a
    ///   `Shrink` never takes a search below one worker, and adjustments
    ///   targeting preempted searches (or unknown ids) are ignored.
    /// * Revocation is **cooperative and asynchronous**: workers leave at
    ///   their next lifecycle poll, not at the instant of the decision.  Use
    ///   [`RunningSearch::pending_revocations`] (and
    ///   [`RunningSearch::preempted`]) to account for capacity already in
    ///   flight, otherwise the same deficit is re-claimed on every tick and
    ///   the grant thrashes.
    /// * Implementations must be deterministic functions of their arguments
    ///   (plus internal policy state): the virtual-time simulator drives the
    ///   same policy object through the same ledger and asserts the
    ///   resulting schedule to the tick.
    /// * The default implementation returns no adjustments, so fixed-grant
    ///   policies need not opt in.
    fn replan(
        &mut self,
        running: &[RunningSearch],
        pending: &[PendingRequest],
        free_workers: usize,
        capacity: usize,
    ) -> Vec<Adjustment> {
        let _ = (running, pending, free_workers, capacity);
        Vec::new()
    }
}

/// One search at a time over the whole pool — the PR 4 scheduler and the
/// default.  The head of the queue is admitted only when the pool is fully
/// free and is granted exactly the worker count it requested, even beyond
/// the pool size (the grant leases the whole pool, and the helpers
/// round-robin over its threads after the home one).  It keeps the default
/// [`replan`](SchedulePolicy::replan), so grants are never renegotiated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fifo;

impl SchedulePolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn plan(
        &mut self,
        pending: &[PendingRequest],
        free_workers: usize,
        capacity: usize,
        active: usize,
    ) -> Vec<Admission> {
        if active > 0 || free_workers < capacity {
            return Vec::new();
        }
        pending
            .first()
            .map(|head| {
                vec![Admission {
                    index: 0,
                    workers: head.requested_workers.max(1),
                }]
            })
            .unwrap_or_default()
    }
}

/// Distribute `free` workers round-robin across the running searches (in
/// the order given), one worker per search per round, growing them beyond
/// their original requests if necessary: an idle worker helps
/// some search finish sooner, which is strictly better than idling.
/// Searches already unwinding (preempted) are skipped.
fn grow_into_idle(order: &[&RunningSearch], mut free: usize) -> Vec<Adjustment> {
    let mut extra = vec![0usize; order.len()];
    while free > 0 {
        let mut grew = false;
        for (i, search) in order.iter().enumerate() {
            if free == 0 {
                break;
            }
            if search.preempted {
                continue;
            }
            extra[i] += 1;
            free -= 1;
            grew = true;
        }
        if !grew {
            break; // Every search is unwinding: the surplus stays free.
        }
    }
    order
        .iter()
        .zip(extra)
        .filter(|&(_, n)| n > 0)
        .map(|(search, workers)| Adjustment::Grow {
            search: search.search_id,
            workers,
        })
        .collect()
}

/// Reclaim what idle-time growth leased beyond each search's original
/// request (down to `requested_workers`, never below), so arriving
/// submissions are not starved by earlier opportunistic grows.
fn reclaim_over_grants(running: &[RunningSearch]) -> Vec<Adjustment> {
    running
        .iter()
        .filter(|search| !search.preempted)
        .filter_map(|search| {
            let target = search.requested_workers.max(1);
            let excess = search.settled_workers().saturating_sub(target);
            (excess > 0).then_some(Adjustment::Shrink {
                search: search.search_id,
                workers: excess,
            })
        })
        .collect()
}

/// The admission split shared by [`FairShare`] and [`DeadlineShare`]: serve
/// `pending` in `order`, granting each request an even (ceiling) share of
/// the still-free workers over the still-unserved requests, capped at what
/// it asked for.  A redistribution pass then tops admissions up to their
/// requests, in the same order, with whatever small requests left unused,
/// so no worker idles while an admitted request is unmet.  Admissions are
/// returned in queue order.
fn proportional_split(
    pending: &[PendingRequest],
    order: impl IntoIterator<Item = usize>,
    free_workers: usize,
) -> Vec<Admission> {
    let mut admissions = Vec::new();
    let mut free = free_workers;
    let mut remaining = pending.len();
    for index in order {
        if free == 0 {
            break;
        }
        // Ceiling division: the remainder goes to the requests served first.
        let share = free.div_ceil(remaining).max(1);
        let workers = pending[index].requested_workers.clamp(1, share).min(free);
        admissions.push(Admission { index, workers });
        free -= workers;
        remaining -= 1;
    }
    // Redistribution pass: a small request served early shrinks later
    // shares, which can leave workers unleased while another admitted
    // request is still below what it asked for.
    while free > 0 {
        let mut granted_any = false;
        for admission in admissions.iter_mut() {
            if free == 0 {
                break;
            }
            let requested = pending[admission.index].requested_workers.max(1);
            if admission.workers < requested {
                let top_up = (requested - admission.workers).min(free);
                admission.workers += top_up;
                free -= top_up;
                granted_any = true;
            }
        }
        if !granted_any {
            break; // Every admitted request is satisfied in full.
        }
    }
    admissions.sort_by_key(|admission| admission.index);
    admissions
}

/// Proportional worker split across the pending queue, admission as soon as
/// one worker is free.
///
/// Each planning round divides the free workers evenly over the still-
/// pending submissions (oldest first, remainder to the earlier ones via the
/// shrinking divisor), capping every grant at the submission's requested
/// worker count; a redistribution pass then tops admissions up to their
/// requests (oldest first) with whatever small requests left unused, so no
/// worker idles while an admitted request is unmet.  The policy is
/// work-conserving across the admitted set: a lone tenant that asks for the
/// whole pool gets it; concurrency arises whenever tenants request less
/// than the pool (or arrive while part of it is leased out).
///
/// Since PR 8 the policy is also work-conserving *after* admission: when
/// total demand is below the pool (the worker-stranding edge the
/// redistribution pass cannot fix, because every admitted request is already
/// satisfied in full), [`replan`](SchedulePolicy::replan) leases the
/// leftover workers onto the running searches — and reclaims those
/// over-grants (back down to each search's request) as soon as a new
/// submission is waiting.  There is no priority-driven reclamation or
/// preemption; use [`DeadlineShare`] for that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FairShare;

impl SchedulePolicy for FairShare {
    fn name(&self) -> &'static str {
        "fair-share"
    }

    fn plan(
        &mut self,
        pending: &[PendingRequest],
        free_workers: usize,
        _capacity: usize,
        _active: usize,
    ) -> Vec<Admission> {
        proportional_split(pending, 0..pending.len(), free_workers)
    }

    fn replan(
        &mut self,
        running: &[RunningSearch],
        pending: &[PendingRequest],
        free_workers: usize,
        _capacity: usize,
    ) -> Vec<Adjustment> {
        if !pending.is_empty() {
            // Submissions are waiting: take back what idle-time growth
            // leased beyond the original requests so `plan` can admit them.
            return reclaim_over_grants(running);
        }
        if free_workers == 0 {
            return Vec::new();
        }
        // The stranding edge: every admitted request is satisfied and
        // nothing is pending, yet workers sit idle.  Lease them onto the
        // running searches (admission order) instead.
        let order: Vec<&RunningSearch> = running.iter().collect();
        grow_into_idle(&order, free_workers)
    }
}

/// Priority- and deadline-aware elastic scheduling.
///
/// Admission works like [`FairShare`]'s proportional split, but the queue is
/// served in priority order (ties: soonest deadline, then oldest first), so
/// an urgent arrival is never starved behind bulk work.  The policy earns
/// its name in [`replan`](SchedulePolicy::replan):
///
/// * **Grow** — with nothing pending, idle workers are leased onto running
///   searches, highest priority first.
/// * **Reclaim** — a pending [`High`](Priority::High)/[`Urgent`](Priority::Urgent)
///   request that cannot be admitted from free capacity shrinks running
///   lower-priority searches (longest-running, lowest-priority first — the
///   searches that have had the most service), via cooperative revocation
///   and never below one worker.  The request is then admitted within one
///   revocation-latency bound instead of waiting for the background
///   makespan.
/// * **Preempt** — when an [`Urgent`](Priority::Urgent) request *still*
///   cannot fit, the lowest-priority running searches are cancelled
///   outright (resolving `Cancelled` with their partial incumbents).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineShare;

/// Priority-descending service order for the pending queue: highest
/// priority first, then soonest deadline (requests with a deadline ahead of
/// those without), then FIFO.
fn priority_order(pending: &[PendingRequest]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pending.len()).collect();
    order.sort_by(|&a, &b| {
        pending[b]
            .priority
            .cmp(&pending[a].priority)
            .then_with(|| match (pending[a].deadline, pending[b].deadline) {
                (Some(da), Some(db)) => da.cmp(&db),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => std::cmp::Ordering::Equal,
            })
            .then(a.cmp(&b))
    });
    order
}

impl SchedulePolicy for DeadlineShare {
    fn name(&self) -> &'static str {
        "deadline-share"
    }

    fn plan(
        &mut self,
        pending: &[PendingRequest],
        free_workers: usize,
        _capacity: usize,
        _active: usize,
    ) -> Vec<Admission> {
        proportional_split(pending, priority_order(pending), free_workers)
    }

    fn replan(
        &mut self,
        running: &[RunningSearch],
        pending: &[PendingRequest],
        free_workers: usize,
        capacity: usize,
    ) -> Vec<Adjustment> {
        if pending.is_empty() {
            if free_workers == 0 {
                return Vec::new();
            }
            // Grow into idle capacity, highest priority first (ties:
            // fewest workers first, then admission order).
            let mut order: Vec<&RunningSearch> = running.iter().collect();
            order.sort_by(|a, b| {
                b.priority
                    .cmp(&a.priority)
                    .then(a.workers.cmp(&b.workers))
                    .then(a.search_id.cmp(&b.search_id))
            });
            return grow_into_idle(&order, free_workers);
        }

        // Submissions are waiting.  First take back opportunistic
        // over-grants; that alone often frees enough for `plan`.
        let mut adjustments = reclaim_over_grants(running);
        let reclaimed: usize = adjustments
            .iter()
            .map(|adjustment| match adjustment {
                Adjustment::Shrink { workers, .. } => *workers,
                _ => 0,
            })
            .sum();

        // The most urgent unadmitted request, if it warrants reclamation.
        let order = priority_order(pending);
        let urgent = &pending[order[0]];
        if urgent.priority < Priority::High {
            return adjustments;
        }

        // Capacity already on its way back: free workers, revocations in
        // flight, whole searches unwinding, plus what we just reclaimed.
        let incoming: usize = running
            .iter()
            .map(|search| {
                if search.preempted {
                    search.workers
                } else {
                    search.pending_revocations
                }
            })
            .sum::<usize>()
            + free_workers
            + reclaimed;
        let want = urgent.requested_workers.max(1).min(capacity);
        let mut deficit = want.saturating_sub(incoming);
        if deficit == 0 {
            return adjustments;
        }

        // Shrink candidates: not unwinding, lower priority than the urgent
        // request, lowest priority and longest running first (the searches
        // that have had the most service give back first).
        let most_served_first = |a: &&RunningSearch, b: &&RunningSearch| {
            a.priority
                .cmp(&b.priority)
                .then(b.running_for.cmp(&a.running_for))
                .then(a.search_id.cmp(&b.search_id))
        };
        let mut candidates: Vec<&RunningSearch> = running
            .iter()
            .filter(|search| !search.preempted && search.priority < urgent.priority)
            .collect();
        candidates.sort_by(most_served_first);
        for search in &candidates {
            if deficit == 0 {
                break;
            }
            // Cooperative revocation never takes the last worker.
            let takeable = search.settled_workers().saturating_sub(1).min(deficit);
            if takeable > 0 {
                adjustments.push(Adjustment::Shrink {
                    search: search.search_id,
                    workers: takeable,
                });
                deficit -= takeable;
            }
        }

        // Still short and the request is Urgent: preempt whole searches,
        // lowest priority / longest running first.
        if deficit > 0 && urgent.priority == Priority::Urgent {
            let mut victims: Vec<&RunningSearch> = running
                .iter()
                .filter(|search| !search.preempted && search.priority < Priority::Urgent)
                .collect();
            victims.sort_by(most_served_first);
            for search in victims {
                if deficit == 0 {
                    break;
                }
                adjustments.push(Adjustment::Preempt {
                    search: search.search_id,
                });
                deficit = deficit.saturating_sub(search.settled_workers());
            }
        }
        adjustments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(requests: &[usize]) -> Vec<PendingRequest> {
        requests
            .iter()
            .map(|&requested_workers| PendingRequest {
                requested_workers,
                ..PendingRequest::default()
            })
            .collect()
    }

    fn running(search_id: u64, workers: usize, requested: usize) -> RunningSearch {
        RunningSearch {
            search_id,
            workers,
            requested_workers: requested,
            priority: Priority::Normal,
            running_for: Duration::ZERO,
            pending_revocations: 0,
            preempted: false,
        }
    }

    #[test]
    fn fifo_admits_only_the_head_and_only_on_an_idle_pool() {
        let mut fifo = Fifo;
        let queue = pending(&[4, 2, 8]);
        assert_eq!(
            fifo.plan(&queue, 8, 8, 0),
            vec![Admission {
                index: 0,
                workers: 4
            }],
            "head admitted with exactly its requested workers"
        );
        assert!(
            fifo.plan(&queue, 4, 8, 1).is_empty(),
            "a busy pool admits nothing"
        );
        assert!(fifo.plan(&[], 8, 8, 0).is_empty());
    }

    #[test]
    fn fifo_grants_oversubscribed_requests_in_full() {
        let mut fifo = Fifo;
        let queue = pending(&[16]);
        assert_eq!(
            fifo.plan(&queue, 2, 2, 0),
            vec![Admission {
                index: 0,
                workers: 16
            }],
            "PR 4 semantics: the search gets the worker count it asked for"
        );
    }

    #[test]
    fn fifo_never_replans() {
        let mut fifo = Fifo;
        let live = [running(1, 4, 4)];
        assert!(
            fifo.replan(&live, &pending(&[8]), 4, 8).is_empty(),
            "fixed-grant policies keep the default no-op replan"
        );
    }

    #[test]
    fn fair_share_splits_the_pool_proportionally() {
        let mut fair = FairShare;
        // Two tenants each asking for half an 8-worker pool: both admitted.
        assert_eq!(
            fair.plan(&pending(&[4, 4]), 8, 8, 0),
            vec![
                Admission {
                    index: 0,
                    workers: 4
                },
                Admission {
                    index: 1,
                    workers: 4
                }
            ]
        );
        // Three tenants asking for everything: 2 + 2 + 1 over 5 free.
        assert_eq!(
            fair.plan(&pending(&[8, 8, 8]), 5, 8, 1),
            vec![
                Admission {
                    index: 0,
                    workers: 2
                },
                Admission {
                    index: 1,
                    workers: 2
                },
                Admission {
                    index: 2,
                    workers: 1
                }
            ]
        );
    }

    #[test]
    fn fair_share_is_work_conserving_for_a_lone_tenant() {
        let mut fair = FairShare;
        assert_eq!(
            fair.plan(&pending(&[8]), 8, 8, 0),
            vec![Admission {
                index: 0,
                workers: 8
            }],
            "a lone tenant asking for the whole pool gets it"
        );
    }

    #[test]
    fn fair_share_admits_with_a_single_free_worker_and_never_overcommits() {
        let mut fair = FairShare;
        assert_eq!(
            fair.plan(&pending(&[4, 4]), 1, 8, 3),
            vec![Admission {
                index: 0,
                workers: 1
            }],
            "admission as soon as one worker is free; the rest stay queued"
        );
        assert!(fair.plan(&pending(&[4]), 0, 8, 4).is_empty());
        // Grants never exceed the request even with a surplus of workers.
        assert_eq!(
            fair.plan(&pending(&[2]), 8, 8, 0),
            vec![Admission {
                index: 0,
                workers: 2
            }]
        );
    }

    #[test]
    fn fair_share_redistributes_what_small_requests_leave_unused() {
        let mut fair = FairShare;
        // A greedy request followed by a tiny one on an idle 8-worker pool:
        // the first pass would grant 4 + 1 and strand 3 workers; the
        // redistribution pass tops the greedy request back up to 7.
        assert_eq!(
            fair.plan(&pending(&[8, 1]), 8, 8, 0),
            vec![
                Admission {
                    index: 0,
                    workers: 7
                },
                Admission {
                    index: 1,
                    workers: 1
                }
            ],
            "no worker stays idle while an admitted request is unmet"
        );
        // Total demand below the pool: everyone gets their request, the
        // genuine surplus stays free for future arrivals.
        assert_eq!(
            fair.plan(&pending(&[2, 2]), 8, 8, 0),
            vec![
                Admission {
                    index: 0,
                    workers: 2
                },
                Admission {
                    index: 1,
                    workers: 2
                }
            ]
        );
    }

    #[test]
    fn fair_share_replan_leaves_no_worker_idle_after_small_admissions() {
        // The stranding edge (satellite): 3 small requests on an 8-pool are
        // admitted in full (2+2+2) with 2 workers left over; the plan pass
        // cannot place them (every request is satisfied), so replan must.
        let mut fair = FairShare;
        let queue = pending(&[2, 2, 2]);
        let admissions = fair.plan(&queue, 8, 8, 0);
        let granted: usize = admissions.iter().map(|a| a.workers).sum();
        assert_eq!(granted, 6, "plan caps every grant at its request");
        let live: Vec<RunningSearch> = admissions
            .iter()
            .enumerate()
            .map(|(i, a)| running(i as u64 + 1, a.workers, queue[a.index].requested_workers))
            .collect();
        let adjustments = fair.replan(&live, &[], 8 - granted, 8);
        let grown: usize = adjustments
            .iter()
            .map(|adj| match adj {
                Adjustment::Grow { workers, .. } => *workers,
                _ => panic!("grow-only replan, got {adj:?}"),
            })
            .sum();
        assert_eq!(grown, 2, "zero idle workers post-plan: {adjustments:?}");
        // Round-robin: the two leftovers go to the two oldest searches.
        assert_eq!(
            adjustments,
            vec![
                Adjustment::Grow {
                    search: 1,
                    workers: 1
                },
                Adjustment::Grow {
                    search: 2,
                    workers: 1
                }
            ]
        );
    }

    #[test]
    fn fair_share_replan_reclaims_over_grants_when_submissions_wait() {
        let mut fair = FairShare;
        // Search 1 grew from its requested 2 workers to 5 during an idle
        // spell; a new arrival must get those over-grants back.
        let mut live = [running(1, 5, 2)];
        assert_eq!(
            fair.replan(&live, &pending(&[4]), 0, 8),
            vec![Adjustment::Shrink {
                search: 1,
                workers: 3
            }]
        );
        // Idempotent across ticks: once the revocations are in flight the
        // settled worker count matches the request and nothing more is taken.
        live[0].pending_revocations = 3;
        assert!(fair.replan(&live, &pending(&[4]), 0, 8).is_empty());
        // And never below the original request, let alone below one.
        assert!(fair
            .replan(&[running(1, 2, 2)], &pending(&[4]), 0, 8)
            .is_empty());
    }

    #[test]
    fn deadline_share_plans_in_priority_order() {
        let mut policy = DeadlineShare;
        let mut queue = pending(&[8, 8]);
        queue[1].priority = Priority::High;
        // 5 free workers: the High request (index 1) is served first and
        // takes the ceiling share.
        assert_eq!(
            policy.plan(&queue, 5, 8, 1),
            vec![
                Admission {
                    index: 0,
                    workers: 2
                },
                Admission {
                    index: 1,
                    workers: 3
                }
            ],
            "indices ascending, shares assigned priority-first"
        );
        // Deadlines break priority ties: soonest first.
        let mut queue = pending(&[8, 8]);
        queue[0].deadline = Some(Duration::from_secs(10));
        queue[1].deadline = Some(Duration::from_secs(1));
        assert_eq!(
            policy.plan(&queue, 5, 8, 1),
            vec![
                Admission {
                    index: 0,
                    workers: 2
                },
                Admission {
                    index: 1,
                    workers: 3
                }
            ]
        );
    }

    #[test]
    fn deadline_share_reclaims_workers_for_an_urgent_arrival() {
        let mut policy = DeadlineShare;
        // A saturating Normal background search holds all 8 workers; an
        // Urgent request for 4 arrives.  Nothing is free, so the background
        // search is shrunk by exactly the deficit.
        let mut bg = running(1, 8, 8);
        bg.running_for = Duration::from_secs(5);
        let mut queue = pending(&[4]);
        queue[0].priority = Priority::Urgent;
        assert_eq!(
            policy.replan(&[bg.clone()], &queue, 0, 8),
            vec![Adjustment::Shrink {
                search: 1,
                workers: 4
            }]
        );
        // Idempotent while the revocations are in flight.
        bg.pending_revocations = 4;
        assert!(policy.replan(&[bg.clone()], &queue, 0, 8).is_empty());
        // Normal-priority arrivals never trigger reclamation.
        assert!(policy
            .replan(&[running(1, 8, 8)], &pending(&[4]), 0, 8)
            .is_empty());
    }

    #[test]
    fn deadline_share_never_shrinks_below_one_and_escalates_to_preemption() {
        let mut policy = DeadlineShare;
        // Two single-worker Low searches cannot give anything up
        // cooperatively (never below one worker), so an Urgent request
        // preempts them outright — lowest priority, longest running first.
        let mut a = running(1, 1, 1);
        a.priority = Priority::Low;
        a.running_for = Duration::from_secs(9);
        let mut b = running(2, 1, 1);
        b.priority = Priority::Low;
        b.running_for = Duration::from_secs(1);
        let mut queue = pending(&[2]);
        queue[0].priority = Priority::Urgent;
        assert_eq!(
            policy.replan(&[a, b], &queue, 0, 2),
            vec![
                Adjustment::Preempt { search: 1 },
                Adjustment::Preempt { search: 2 }
            ]
        );
        // High (non-Urgent) requests shrink but never preempt.
        let mut c = running(1, 1, 1);
        c.priority = Priority::Low;
        let mut queue = pending(&[2]);
        queue[0].priority = Priority::High;
        assert!(policy.replan(&[c], &queue, 0, 2).is_empty());
    }

    #[test]
    fn deadline_share_grows_idle_capacity_priority_first() {
        let mut policy = DeadlineShare;
        let mut high = running(2, 2, 4);
        high.priority = Priority::High;
        let low = running(1, 2, 4);
        // 3 idle workers, nothing pending: the High search gets the extra
        // round-robin share.
        assert_eq!(
            policy.replan(&[low, high], &[], 3, 8),
            vec![
                Adjustment::Grow {
                    search: 2,
                    workers: 2
                },
                Adjustment::Grow {
                    search: 1,
                    workers: 1
                }
            ]
        );
    }

    #[test]
    fn policy_names_and_modes() {
        assert_eq!(Fifo.name(), "fifo");
        assert_eq!(FairShare.name(), "fair-share");
        assert_eq!(DeadlineShare.name(), "deadline-share");
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert!(Priority::High < Priority::Urgent);
        assert_eq!(Priority::default(), Priority::Normal);
    }
}
