//! Search-anomaly analyzer: post-processes a drained trace into named
//! findings — the mechanized version of the PR 6 strip-mining debugging
//! session, which had to be traced by hand from `par_mk ≈
//! remote_steal_latency` signatures in aggregate counters.
//!
//! The analyzer consumes plain [`TraceRecord`] slices, so it runs
//! identically on threaded traces (nanosecond timestamps) and simulator
//! traces (virtual ticks): every rule below is scale-free — ratios of
//! counts or of durations within one trace.

use super::{TraceEvent, TraceRecord, CONTROL_WORKER, UNKNOWN_VICTIM};

/// Thresholds for [`analyze`].  The defaults encode the anomaly shapes
/// seen in practice; tighten or relax per workload.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Node count of the 1-worker run of the same instance, when known.
    /// Enables the work-inflation rule.
    pub baseline_nodes: Option<u64>,
    /// Work-inflation ratio (trace nodes / baseline nodes) at or above
    /// which a [`WorkInflation`](FindingKind::WorkInflation) finding fires.
    pub inflation_threshold: f64,
    /// Fraction of the trace span a single worker must sit idle (while
    /// probing for work and missing) to fire a
    /// [`Starvation`](FindingKind::Starvation) finding.
    pub starvation_fraction: f64,
    /// Share of steal hits absorbed by one victim at or above which a
    /// [`StealStripMining`](FindingKind::StealStripMining) finding fires.
    pub strip_mine_share: f64,
    /// Minimum number of steal hits before the strip-mining rule applies
    /// (a two-steal trace trivially has a 100% victim).
    pub min_steals: u64,
    /// Wasted-speculation ratio (discarded + cancelled nodes over all
    /// speculation-classified nodes) at or above which a
    /// [`SpeculationWaste`](FindingKind::SpeculationWaste) finding fires.
    pub speculation_waste_threshold: f64,
    /// Grant changes per second of busy time at or above which a
    /// [`GrantThrash`](FindingKind::GrantThrash) finding fires.  "Seconds"
    /// means 10⁹ timestamp units — real seconds on threaded traces; for
    /// virtual-tick simulator traces pass a threshold in the tick scale.
    pub grant_thrash_per_sec: f64,
    /// Minimum grant changes for one search before the thrash rule applies
    /// (a search that grew once and shrank once is elasticity working, not
    /// thrash).
    pub grant_thrash_min_changes: u64,
    /// Workers per locality, for the
    /// [`LocalityImbalance`](FindingKind::LocalityImbalance) rule: worker
    /// `w` belongs to locality `w / workers_per_locality` (the simulator's
    /// contiguous-block mapping).  The trace itself
    /// carries no locality topology, so the rule is **disabled** at the
    /// default of 0.
    pub workers_per_locality: usize,
    /// How far (in idle-fraction points) one locality's mean idle fraction
    /// must exceed the fleet mean — while some other locality stays mostly
    /// busy — before a
    /// [`LocalityImbalance`](FindingKind::LocalityImbalance) finding fires.
    pub locality_idle_excess: f64,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            baseline_nodes: None,
            inflation_threshold: 1.05,
            starvation_fraction: 0.25,
            strip_mine_share: 0.5,
            min_steals: 8,
            speculation_waste_threshold: 0.25,
            grant_thrash_per_sec: 10.0,
            grant_thrash_min_changes: 4,
            workers_per_locality: 0,
            locality_idle_excess: 0.25,
        }
    }
}

/// The kind of anomaly a [`Finding`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// The parallel run expanded measurably more nodes than the 1-worker
    /// baseline: speculation or a late incumbent inflated the tree (§2.1's
    /// "anomalies manifest as changes in work").
    WorkInflation,
    /// Some worker spent a large fraction of the run idle and failing to
    /// steal while work existed elsewhere.
    Starvation,
    /// One victim absorbed a dominant share of (remote, when present)
    /// steal hits — the PR 6 hint-directed-remote-steal collapse, where
    /// every thief converges on the first busy frontier.
    StealStripMining,
    /// A large share of speculatively expanded nodes was discarded or
    /// cancelled instead of committed.
    SpeculationWaste,
    /// One search's worker grant oscillated (grow/shrink) faster than the
    /// configured rate — the elastic scheduler is thrashing, paying
    /// join/leave churn instead of doing search work.
    GrantThrash,
    /// One locality's workers sat idle far above the fleet mean while
    /// another locality stayed saturated with work: remote stealing
    /// failed to level the load across localities.  Requires
    /// [`AnalyzeConfig::workers_per_locality`] to map workers onto
    /// localities.
    LocalityImbalance,
}

impl FindingKind {
    /// Stable snake_case name, used by exporters and the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            FindingKind::WorkInflation => "work_inflation",
            FindingKind::Starvation => "starvation",
            FindingKind::StealStripMining => "steal_strip_mining",
            FindingKind::SpeculationWaste => "speculation_waste",
            FindingKind::GrantThrash => "grant_thrash",
            FindingKind::LocalityImbalance => "locality_imbalance",
        }
    }
}

/// One named anomaly detected in a trace.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub kind: FindingKind,
    /// The rule's measured value (a ratio or share; see the rule's doc).
    pub value: f64,
    /// Human-readable one-line description with the supporting numbers.
    pub summary: String,
}

/// Per-worker busy-interval accumulator: worker id, closed `(start, end)`
/// intervals, and the timestamp of a still-open `TaskStart`, if any.
type IntervalAccum = Vec<(u32, Vec<(u64, u64)>, Option<u64>)>;

/// Busy intervals per worker: sequential pairing of `TaskStart`/`TaskEnd`
/// timestamps.  Returns `(worker, Vec<(start, end)>)` for every worker
/// that started at least one task.
fn busy_intervals(records: &[TraceRecord]) -> Vec<(u32, Vec<(u64, u64)>)> {
    let mut per_worker: IntervalAccum = Vec::new();
    for record in records {
        if record.worker == CONTROL_WORKER {
            continue;
        }
        let slot = match per_worker.iter_mut().find(|(w, ..)| *w == record.worker) {
            Some(slot) => slot,
            None => {
                per_worker.push((record.worker, Vec::new(), None));
                per_worker.last_mut().expect("just pushed")
            }
        };
        match record.event {
            TraceEvent::TaskStart { .. } => slot.2 = Some(record.ts),
            TraceEvent::TaskEnd { .. } => {
                if let Some(start) = slot.2.take() {
                    slot.1.push((start, record.ts));
                }
            }
            _ => {}
        }
    }
    per_worker
        .into_iter()
        .filter(|(_, intervals, _)| !intervals.is_empty())
        .map(|(w, intervals, _)| (w, intervals))
        .collect()
}

/// The trace-clock variant of
/// [`Metrics::imbalance`](crate::metrics::Metrics::imbalance): max over
/// mean of per-worker *busy time* (summed `TaskStart`→`TaskEnd`
/// durations).  1.0 means perfectly balanced; returns 1.0 for traces with
/// no task spans.
pub fn busy_time_imbalance(records: &[TraceRecord]) -> f64 {
    let per_worker = busy_intervals(records);
    if per_worker.is_empty() {
        return 1.0;
    }
    let busy: Vec<u64> = per_worker
        .iter()
        .map(|(_, intervals)| intervals.iter().map(|(s, e)| e.saturating_sub(*s)).sum())
        .collect();
    let total: u64 = busy.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / busy.len() as f64;
    let max = busy.iter().copied().max().unwrap_or(0) as f64;
    max / mean
}

/// Aggregate shape of a trace, for pretty-printing and quick sanity
/// checks (the `tracecat` CLI prints this before the findings).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Total records in the trace.
    pub events: usize,
    /// Last timestamp minus first (ns for threaded traces, ticks for sim).
    pub span: u64,
    /// Distinct non-control workers that emitted events.
    pub workers: usize,
    /// Completed task spans (`TaskEnd` count).
    pub tasks: u64,
    /// Total nodes expanded (sum of `TaskEnd` deltas).
    pub nodes: u64,
    /// Successful steals.
    pub steal_hits: u64,
    /// Failed steal probes.
    pub steal_misses: u64,
    /// Incumbent strengthenings observed.
    pub incumbent_updates: u64,
    /// Nodes committed in order (Ordered coordination).
    pub committed_nodes: u64,
    /// Nodes discarded at commit time.
    pub discarded_nodes: u64,
    /// Nodes abandoned by in-flight cancellation.
    pub cancelled_nodes: u64,
    /// Runtime gauge samples present in the stream.
    pub gauge_samples: u64,
    /// Per-worker busy-time imbalance ([`busy_time_imbalance`]).
    pub busy_imbalance: f64,
}

impl std::fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "events {:>8}   span {:>12}   workers {:>3}",
            self.events, self.span, self.workers
        )?;
        writeln!(
            f,
            "tasks  {:>8}   nodes {:>11}   busy-imbalance {:.3}",
            self.tasks, self.nodes, self.busy_imbalance
        )?;
        writeln!(
            f,
            "steals {:>8} hit / {} miss   incumbents {}",
            self.steal_hits, self.steal_misses, self.incumbent_updates
        )?;
        write!(
            f,
            "spec   {:>8} committed / {} discarded / {} cancelled   gauges {}",
            self.committed_nodes, self.discarded_nodes, self.cancelled_nodes, self.gauge_samples
        )
    }
}

/// Summarize a trace's aggregate shape.
pub fn summarize(records: &[TraceRecord]) -> TraceSummary {
    let mut summary = TraceSummary {
        events: records.len(),
        busy_imbalance: busy_time_imbalance(records),
        ..TraceSummary::default()
    };
    if let (Some(first), Some(last)) = (records.first(), records.last()) {
        summary.span = last.ts.saturating_sub(first.ts);
    }
    let mut workers: Vec<u32> = Vec::new();
    for record in records {
        if record.worker != CONTROL_WORKER && !workers.contains(&record.worker) {
            workers.push(record.worker);
        }
        match record.event {
            TraceEvent::TaskEnd { nodes, .. } => {
                summary.tasks += 1;
                summary.nodes += nodes;
            }
            TraceEvent::StealHit { .. } => summary.steal_hits += 1,
            TraceEvent::StealMiss { .. } => summary.steal_misses += 1,
            TraceEvent::IncumbentUpdate { .. } => summary.incumbent_updates += 1,
            TraceEvent::SpeculationCommit { nodes } => summary.committed_nodes += nodes,
            TraceEvent::SpeculationDiscard { nodes } => summary.discarded_nodes += nodes,
            TraceEvent::SpeculationCancel { nodes } => summary.cancelled_nodes += nodes,
            TraceEvent::RuntimeGauge { .. } => summary.gauge_samples += 1,
            _ => {}
        }
    }
    summary.workers = workers.len();
    summary
}

fn work_inflation(summary: &TraceSummary, config: &AnalyzeConfig) -> Option<Finding> {
    let baseline = config.baseline_nodes.filter(|b| *b > 0)?;
    let ratio = summary.nodes as f64 / baseline as f64;
    (ratio >= config.inflation_threshold).then(|| Finding {
        kind: FindingKind::WorkInflation,
        value: ratio,
        summary: format!(
            "parallel run expanded {} nodes vs {} baseline ({ratio:.2}x)",
            summary.nodes, baseline
        ),
    })
}

fn strip_mining(records: &[TraceRecord], config: &AnalyzeConfig) -> Option<Finding> {
    let hits: Vec<(u32, bool)> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::StealHit { victim, remote, .. } if victim != UNKNOWN_VICTIM => {
                Some((victim, remote))
            }
            _ => None,
        })
        .collect();
    // When the trace distinguishes remote steals (the simulator's
    // multi-locality model), the rule is about *remote* traffic — that is
    // the PR 6 failure mode.  Single-locality traces use all hits.
    let any_remote = hits.iter().any(|(_, remote)| *remote);
    let pool: Vec<u32> = hits
        .iter()
        .filter(|(_, remote)| !any_remote || *remote)
        .map(|(victim, _)| *victim)
        .collect();
    if (pool.len() as u64) < config.min_steals {
        return None;
    }
    let mut counts: Vec<(u32, u64)> = Vec::new();
    for victim in &pool {
        match counts.iter_mut().find(|(v, _)| v == victim) {
            Some((_, n)) => *n += 1,
            None => counts.push((*victim, 1)),
        }
    }
    let (victim, absorbed) = counts
        .iter()
        .copied()
        .max_by_key(|(_, n)| *n)
        .expect("pool is non-empty");
    let share = absorbed as f64 / pool.len() as f64;
    (share >= config.strip_mine_share).then(|| Finding {
        kind: FindingKind::StealStripMining,
        value: share,
        summary: format!(
            "victim {victim} absorbed {absorbed}/{} {}steal hits ({:.0}%)",
            pool.len(),
            if any_remote { "remote " } else { "" },
            share * 100.0
        ),
    })
}

fn starvation(records: &[TraceRecord], config: &AnalyzeConfig) -> Option<Finding> {
    let span = match (records.first(), records.last()) {
        (Some(first), Some(last)) if last.ts > first.ts => (first.ts, last.ts),
        _ => return None,
    };
    let span_len = (span.1 - span.0) as f64;
    let mut worst: Option<(u32, u64)> = None;
    for (worker, intervals) in busy_intervals(records) {
        // Idle gaps: before the first task, between tasks, after the last.
        let mut gaps: Vec<(u64, u64)> = Vec::new();
        let mut cursor = span.0;
        for (start, end) in &intervals {
            if *start > cursor {
                gaps.push((cursor, *start));
            }
            cursor = cursor.max(*end);
        }
        if span.1 > cursor {
            gaps.push((cursor, span.1));
        }
        // A gap only counts as starvation if the worker was *trying* —
        // at least one failed steal probe landed inside it.
        let misses: Vec<u64> = records
            .iter()
            .filter(|r| r.worker == worker && matches!(r.event, TraceEvent::StealMiss { .. }))
            .map(|r| r.ts)
            .collect();
        let longest = gaps
            .iter()
            .filter(|(s, e)| misses.iter().any(|m| m >= s && m <= e))
            .map(|(s, e)| e - s)
            .max()
            .unwrap_or(0);
        if worst.map(|(_, g)| longest > g).unwrap_or(longest > 0) {
            worst = Some((worker, longest));
        }
    }
    let (worker, gap) = worst?;
    let fraction = gap as f64 / span_len;
    (fraction >= config.starvation_fraction).then(|| Finding {
        kind: FindingKind::Starvation,
        value: fraction,
        summary: format!(
            "worker {worker} sat idle (stealing and missing) for {gap} of a {}-long trace ({:.0}%)",
            span.1 - span.0,
            fraction * 100.0
        ),
    })
}

fn speculation_waste(summary: &TraceSummary, config: &AnalyzeConfig) -> Option<Finding> {
    let wasted = summary.discarded_nodes + summary.cancelled_nodes;
    let total = summary.committed_nodes + wasted;
    if total == 0 {
        return None;
    }
    let ratio = wasted as f64 / total as f64;
    (ratio >= config.speculation_waste_threshold).then(|| Finding {
        kind: FindingKind::SpeculationWaste,
        value: ratio,
        summary: format!(
            "{wasted} of {total} speculation-classified nodes were wasted \
             ({} discarded + {} cancelled, {:.0}%)",
            summary.discarded_nodes,
            summary.cancelled_nodes,
            ratio * 100.0
        ),
    })
}

fn locality_imbalance(records: &[TraceRecord], config: &AnalyzeConfig) -> Option<Finding> {
    let wpl = config.workers_per_locality;
    if wpl == 0 {
        return None;
    }
    let (first, last) = match (records.first(), records.last()) {
        (Some(first), Some(last)) if last.ts > first.ts => (first.ts, last.ts),
        _ => return None,
    };
    let span = (last - first) as f64;
    // Busy time per observed worker; a worker that only probed (steal
    // misses, polls) and never ran a task is fully idle, so collect the
    // worker set from *every* record, not just task spans.
    let busy = busy_intervals(records);
    let mut per_locality: Vec<(u32, f64, u64)> = Vec::new(); // (locality, idle sum, workers)
    let mut workers: Vec<u32> = records
        .iter()
        .filter(|r| r.worker != CONTROL_WORKER)
        .map(|r| r.worker)
        .collect();
    workers.sort_unstable();
    workers.dedup();
    for worker in workers {
        let busy_time: u64 = busy
            .iter()
            .find(|(w, _)| *w == worker)
            .map(|(_, intervals)| intervals.iter().map(|(s, e)| e.saturating_sub(*s)).sum())
            .unwrap_or(0);
        let idle_fraction = 1.0 - (busy_time as f64 / span).min(1.0);
        let locality = worker / wpl as u32;
        match per_locality.iter_mut().find(|(l, ..)| *l == locality) {
            Some((_, idle, n)) => {
                *idle += idle_fraction;
                *n += 1;
            }
            None => per_locality.push((locality, idle_fraction, 1)),
        }
    }
    if per_locality.len() < 2 {
        return None;
    }
    let fractions: Vec<(u32, f64)> = per_locality
        .iter()
        .map(|(l, idle, n)| (*l, idle / *n as f64))
        .collect();
    let mean = fractions.iter().map(|(_, f)| f).sum::<f64>() / fractions.len() as f64;
    let (idle_loc, max_idle) = fractions
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("two localities");
    let (busy_loc, min_idle) = fractions
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("two localities");
    let excess = max_idle - mean;
    // "Another locality stayed saturated" — without gauge events in the
    // trace, a locality that was busy most of the span is the witness that
    // distributable work existed while the idle locality starved.
    (excess >= config.locality_idle_excess && min_idle <= 0.5).then(|| Finding {
        kind: FindingKind::LocalityImbalance,
        value: excess,
        summary: format!(
            "locality {idle_loc} sat {:.0}% idle ({:.0} points over the fleet mean of {:.0}%) \
             while locality {busy_loc} stayed {:.0}% busy — remote work distribution failed \
             to level the load",
            max_idle * 100.0,
            excess * 100.0,
            mean * 100.0,
            (1.0 - min_idle) * 100.0
        ),
    })
}

fn grant_thrash(records: &[TraceRecord], config: &AnalyzeConfig) -> Vec<Finding> {
    // Grant changes per search: every GrantGrown or GrantShrunk counts one.
    let mut per_search: Vec<(u64, u64)> = Vec::new();
    for record in records {
        let search_id = match record.event {
            TraceEvent::GrantGrown { search_id, .. } => search_id,
            TraceEvent::GrantShrunk { search_id, .. } => search_id,
            _ => continue,
        };
        match per_search.iter_mut().find(|(s, _)| *s == search_id) {
            Some((_, n)) => *n += 1,
            None => per_search.push((search_id, 1)),
        }
    }
    if per_search.is_empty() {
        return Vec::new();
    }
    // Busy time: summed task spans across workers; grant-event-only traces
    // (the control-plane view of a sim run) fall back to the trace span.
    let busy: u64 = busy_intervals(records)
        .iter()
        .map(|(_, intervals)| {
            intervals
                .iter()
                .map(|(s, e)| e.saturating_sub(*s))
                .sum::<u64>()
        })
        .sum();
    let busy = if busy > 0 {
        busy
    } else {
        match (records.first(), records.last()) {
            (Some(first), Some(last)) => last.ts.saturating_sub(first.ts),
            _ => 0,
        }
    };
    if busy == 0 {
        return Vec::new();
    }
    let busy_secs = busy as f64 / 1e9;
    let mut findings = Vec::new();
    for (search_id, changes) in per_search {
        if changes < config.grant_thrash_min_changes {
            continue;
        }
        let rate = changes as f64 / busy_secs;
        if rate >= config.grant_thrash_per_sec {
            findings.push(Finding {
                kind: FindingKind::GrantThrash,
                value: rate,
                summary: format!(
                    "search {search_id} changed its grant {changes} times over {busy} \
                     of busy time ({rate:.1}/s) — the elastic scheduler is thrashing"
                ),
            });
        }
    }
    findings
}

/// Run every anomaly rule over a (time-sorted) trace and return the
/// findings that fired.  An empty result means "no anomaly detected", not
/// "healthy by proof" — rules needing context the trace lacks (e.g. a
/// 1-worker baseline) are skipped silently.
pub fn analyze(records: &[TraceRecord], config: &AnalyzeConfig) -> Vec<Finding> {
    let summary = summarize(records);
    let mut findings = Vec::new();
    if let Some(finding) = work_inflation(&summary, config) {
        findings.push(finding);
    }
    if let Some(finding) = starvation(records, config) {
        findings.push(finding);
    }
    if let Some(finding) = strip_mining(records, config) {
        findings.push(finding);
    }
    if let Some(finding) = speculation_waste(&summary, config) {
        findings.push(finding);
    }
    if let Some(finding) = locality_imbalance(records, config) {
        findings.push(finding);
    }
    findings.extend(grant_thrash(records, config));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64, worker: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord { ts, worker, event }
    }

    fn end(nodes: u64) -> TraceEvent {
        TraceEvent::TaskEnd {
            nodes,
            prunes: 0,
            backtracks: 0,
            spawns: 0,
            batch_pushes: 0,
            poll_checks: 0,
            max_depth: 0,
        }
    }

    #[test]
    fn empty_trace_yields_no_findings_and_balanced_imbalance() {
        assert!(analyze(&[], &AnalyzeConfig::default()).is_empty());
        assert_eq!(busy_time_imbalance(&[]), 1.0);
    }

    #[test]
    fn work_inflation_fires_against_the_baseline() {
        let records = vec![
            rec(0, 0, TraceEvent::TaskStart { depth: 0 }),
            rec(100, 0, end(220)),
        ];
        let config = AnalyzeConfig {
            baseline_nodes: Some(100),
            ..AnalyzeConfig::default()
        };
        let findings = analyze(&records, &config);
        let inflation = findings
            .iter()
            .find(|f| f.kind == FindingKind::WorkInflation)
            .expect("2.2x over baseline must fire");
        assert!((inflation.value - 2.2).abs() < 1e-9);
        // Without a baseline the rule is skipped.
        assert!(analyze(&records, &AnalyzeConfig::default())
            .iter()
            .all(|f| f.kind != FindingKind::WorkInflation));
    }

    #[test]
    fn strip_mining_fires_when_one_victim_dominates() {
        let mut records = Vec::new();
        for i in 0..10u64 {
            let victim = if i < 8 { 0 } else { 1 + i as u32 % 2 };
            records.push(rec(
                i * 10,
                3,
                TraceEvent::StealHit {
                    victim,
                    tasks: 1,
                    remote: true,
                },
            ));
        }
        let findings = analyze(&records, &AnalyzeConfig::default());
        let finding = findings
            .iter()
            .find(|f| f.kind == FindingKind::StealStripMining)
            .expect("80% share must fire");
        assert!((finding.value - 0.8).abs() < 1e-9);
        assert!(finding.summary.contains("victim 0"));
    }

    #[test]
    fn strip_mining_respects_the_min_steal_floor() {
        let records = vec![rec(
            0,
            1,
            TraceEvent::StealHit {
                victim: 0,
                tasks: 1,
                remote: false,
            },
        )];
        assert!(analyze(&records, &AnalyzeConfig::default()).is_empty());
    }

    #[test]
    fn remote_hits_take_precedence_when_present() {
        // Local steals are spread evenly; remote steals all hit victim 7.
        let mut records = Vec::new();
        for i in 0..16u64 {
            records.push(rec(
                i,
                2,
                TraceEvent::StealHit {
                    victim: (i % 4) as u32,
                    tasks: 1,
                    remote: false,
                },
            ));
        }
        for i in 16..26u64 {
            records.push(rec(
                i,
                2,
                TraceEvent::StealHit {
                    victim: 7,
                    tasks: 1,
                    remote: true,
                },
            ));
        }
        let findings = analyze(&records, &AnalyzeConfig::default());
        let finding = findings
            .iter()
            .find(|f| f.kind == FindingKind::StealStripMining)
            .expect("remote share is 100%");
        assert!(finding.summary.contains("remote"));
        assert!((finding.value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn starvation_needs_failed_probes_inside_the_gap() {
        // Worker 0 is busy for the whole span; worker 1 does one task early
        // then starves (missing steals) for the rest of the trace.
        let mut records = vec![
            rec(0, 0, TraceEvent::TaskStart { depth: 0 }),
            rec(0, 1, TraceEvent::TaskStart { depth: 1 }),
            rec(100, 1, end(5)),
        ];
        for i in 0..8u64 {
            records.push(rec(150 + i * 100, 1, TraceEvent::StealMiss { victim: 0 }));
        }
        records.push(rec(1000, 0, end(500)));
        records.sort_by_key(|r| r.ts);
        let findings = analyze(&records, &AnalyzeConfig::default());
        let finding = findings
            .iter()
            .find(|f| f.kind == FindingKind::Starvation)
            .expect("a 90% idle tail must fire");
        assert!(finding.summary.contains("worker 1"));

        // The same gap without any steal misses is not starvation (the
        // worker may simply have finished its share).
        let quiet: Vec<TraceRecord> = records
            .iter()
            .filter(|r| !matches!(r.event, TraceEvent::StealMiss { .. }))
            .copied()
            .collect();
        assert!(analyze(&quiet, &AnalyzeConfig::default())
            .iter()
            .all(|f| f.kind != FindingKind::Starvation));
    }

    #[test]
    fn speculation_waste_ratio() {
        let records = vec![
            rec(
                0,
                CONTROL_WORKER,
                TraceEvent::SpeculationCommit { nodes: 60 },
            ),
            rec(
                1,
                CONTROL_WORKER,
                TraceEvent::SpeculationDiscard { nodes: 30 },
            ),
            rec(
                2,
                CONTROL_WORKER,
                TraceEvent::SpeculationCancel { nodes: 10 },
            ),
        ];
        let findings = analyze(&records, &AnalyzeConfig::default());
        let finding = findings
            .iter()
            .find(|f| f.kind == FindingKind::SpeculationWaste)
            .expect("40% waste must fire");
        assert!((finding.value - 0.4).abs() < 1e-9);
    }

    #[test]
    fn grant_thrash_fires_on_an_oscillating_grant() {
        // One search grows and shrinks six times inside 0.1s of busy time:
        // 60 changes/s, far past the 10/s default.
        let mut records = vec![rec(0, 0, TraceEvent::TaskStart { depth: 0 })];
        for i in 0..3u64 {
            records.push(rec(
                10_000_000 + i * 20_000_000,
                CONTROL_WORKER,
                TraceEvent::GrantGrown {
                    search_id: 1,
                    workers: 4,
                },
            ));
            records.push(rec(
                20_000_000 + i * 20_000_000,
                CONTROL_WORKER,
                TraceEvent::GrantShrunk {
                    search_id: 1,
                    workers: 2,
                },
            ));
        }
        records.push(rec(100_000_000, 0, end(10)));
        let findings = analyze(&records, &AnalyzeConfig::default());
        let finding = findings
            .iter()
            .find(|f| f.kind == FindingKind::GrantThrash)
            .expect("60 changes/s must fire");
        assert!((finding.value - 60.0).abs() < 1e-9);
        assert!(finding.summary.contains("search 1"));
    }

    #[test]
    fn grant_thrash_stays_quiet_without_oscillation() {
        // FIFO-style trace: no grant events at all.
        let fifo = vec![
            rec(0, 0, TraceEvent::TaskStart { depth: 0 }),
            rec(100_000_000, 0, end(10)),
        ];
        assert!(analyze(&fifo, &AnalyzeConfig::default())
            .iter()
            .all(|f| f.kind != FindingKind::GrantThrash));

        // One grow + one shrink is elasticity working: below the change floor.
        let gentle = vec![
            rec(0, 0, TraceEvent::TaskStart { depth: 0 }),
            rec(
                10_000_000,
                CONTROL_WORKER,
                TraceEvent::GrantGrown {
                    search_id: 7,
                    workers: 4,
                },
            ),
            rec(
                20_000_000,
                CONTROL_WORKER,
                TraceEvent::GrantShrunk {
                    search_id: 7,
                    workers: 1,
                },
            ),
            rec(100_000_000, 0, end(10)),
        ];
        assert!(analyze(&gentle, &AnalyzeConfig::default())
            .iter()
            .all(|f| f.kind != FindingKind::GrantThrash));
    }

    #[test]
    fn grant_thrash_falls_back_to_the_trace_span_without_task_spans() {
        // Control-plane-only trace (the sim's view): no TaskStart/TaskEnd,
        // so the rule rates changes over the whole span.  Four changes over
        // 0.2s = 20/s, past the default threshold.
        let mut records = Vec::new();
        for i in 0..4u64 {
            let event = if i % 2 == 0 {
                TraceEvent::GrantGrown {
                    search_id: 3,
                    workers: 2 + i as u32,
                }
            } else {
                TraceEvent::GrantShrunk {
                    search_id: 3,
                    workers: 1,
                }
            };
            records.push(rec(i * 50_000_000, CONTROL_WORKER, event));
        }
        records.push(rec(
            200_000_000,
            CONTROL_WORKER,
            TraceEvent::SearchFinished { search_id: 3 },
        ));
        let findings = analyze(&records, &AnalyzeConfig::default());
        let finding = findings
            .iter()
            .find(|f| f.kind == FindingKind::GrantThrash)
            .expect("20 changes/s over the span must fire");
        assert!((finding.value - 20.0).abs() < 1e-9);
    }

    #[test]
    fn locality_imbalance_fires_when_one_locality_starves() {
        // 2 localities × 2 workers.  Locality 0 is busy for the whole
        // span; locality 1's workers only probe and miss.
        let mut records = vec![
            rec(0, 0, TraceEvent::TaskStart { depth: 0 }),
            rec(0, 1, TraceEvent::TaskStart { depth: 0 }),
        ];
        for i in 0..10u64 {
            records.push(rec(i * 100, 2, TraceEvent::StealMiss { victim: 0 }));
            records.push(rec(i * 100 + 50, 3, TraceEvent::StealMiss { victim: 1 }));
        }
        records.push(rec(1000, 0, end(50)));
        records.push(rec(1000, 1, end(50)));
        records.sort_by_key(|r| r.ts);
        let config = AnalyzeConfig {
            workers_per_locality: 2,
            ..AnalyzeConfig::default()
        };
        let findings = analyze(&records, &config);
        let finding = findings
            .iter()
            .find(|f| f.kind == FindingKind::LocalityImbalance)
            .expect("a fully idle locality opposite a saturated one must fire");
        assert!(finding.summary.contains("locality 1"));
        assert!(finding.summary.contains("locality 0"));
        assert!(finding.value >= 0.25, "excess {}", finding.value);

        // The rule is disabled without a locality mapping.
        assert!(analyze(&records, &AnalyzeConfig::default())
            .iter()
            .all(|f| f.kind != FindingKind::LocalityImbalance));
    }

    #[test]
    fn locality_imbalance_stays_quiet_on_levelled_load() {
        // Both localities busy for the whole span.
        let mut records = Vec::new();
        for w in 0..4u32 {
            records.push(rec(0, w, TraceEvent::TaskStart { depth: 0 }));
        }
        for w in 0..4u32 {
            records.push(rec(1000, w, end(25)));
        }
        records.sort_by_key(|r| r.ts);
        let config = AnalyzeConfig {
            workers_per_locality: 2,
            ..AnalyzeConfig::default()
        };
        assert!(analyze(&records, &config)
            .iter()
            .all(|f| f.kind != FindingKind::LocalityImbalance));
    }

    #[test]
    fn locality_imbalance_needs_a_saturated_witness() {
        // Three 1-worker localities: locality 0 fully idle (probing),
        // localities 1 and 2 only 40% busy.  The idle excess clears the
        // threshold but no locality stayed saturated, so there is no
        // witness that distributable work existed — the rule must not
        // fire (the fleet may simply have run out of work).
        let mut records = vec![
            rec(0, 1, TraceEvent::TaskStart { depth: 0 }),
            rec(0, 2, TraceEvent::TaskStart { depth: 0 }),
        ];
        for i in 0..10u64 {
            records.push(rec(i * 100, 0, TraceEvent::StealMiss { victim: 1 }));
        }
        records.push(rec(400, 1, end(10)));
        records.push(rec(400, 2, end(10)));
        records.push(rec(1000, 0, TraceEvent::StealMiss { victim: 2 }));
        records.sort_by_key(|r| r.ts);
        let config = AnalyzeConfig {
            workers_per_locality: 1,
            ..AnalyzeConfig::default()
        };
        assert!(analyze(&records, &config)
            .iter()
            .all(|f| f.kind != FindingKind::LocalityImbalance));
    }

    #[test]
    fn busy_time_imbalance_matches_hand_computation() {
        let records = vec![
            rec(0, 0, TraceEvent::TaskStart { depth: 0 }),
            rec(300, 0, end(1)),
            rec(0, 1, TraceEvent::TaskStart { depth: 0 }),
            rec(100, 1, end(1)),
        ];
        // busy: w0=300, w1=100; mean=200; max/mean = 1.5
        assert!((busy_time_imbalance(&records) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn summary_counts_the_stream() {
        let records = vec![
            rec(0, 0, TraceEvent::TaskStart { depth: 0 }),
            rec(10, 0, TraceEvent::Poll { stack_depth: 1 }),
            rec(50, 0, end(42)),
            rec(60, 1, TraceEvent::StealMiss { victim: 0 }),
            rec(
                70,
                CONTROL_WORKER,
                TraceEvent::RuntimeGauge {
                    active: 1,
                    granted: 2,
                    queued: 0,
                    completed: 0,
                    peak: 1,
                },
            ),
        ];
        let summary = summarize(&records);
        assert_eq!(summary.events, 5);
        assert_eq!(summary.workers, 2);
        assert_eq!(summary.tasks, 1);
        assert_eq!(summary.nodes, 42);
        assert_eq!(summary.steal_misses, 1);
        assert_eq!(summary.gauge_samples, 1);
        assert_eq!(summary.span, 70);
        let text = summary.to_string();
        assert!(text.contains("nodes"));
        assert!(text.contains("gauges 1"));
    }
}
