//! Measurements taken from outside the library: a hand-written search over
//! the public `SearchProblem` API, workpool timings, set-up timing, the
//! benchmark's own spans, and time attribution over flight-recorder events.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use yewpar::trace::{TraceEvent, TraceRecord, CONTROL_WORKER};
use yewpar::workpool::{DepthPool, ShardedPool, Task};
use yewpar::{Optimise, PruneLevel, SearchProblem};

use crate::stats::median;

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Seconds of one calibration kernel, on the machine this benchmark was
/// sized on, at its usual speed.
pub const KERNEL_REFERENCE_S: f64 = 0.003;

/// Time one run of the calibration kernel on each of `threads` threads at
/// once (as many as the operation it calibrates keeps busy): a walk of a
/// fixed irregular tree with one allocation per node, written here and
/// sharing no code with the library, so no change to the library can move
/// it.
///
/// The speed of identical work on the machine this was sized on switches
/// between a fast and a slow mode (about 1.4× apart) every second or so,
/// with the host's other load, so the median of a run's raw times depends
/// on how long that run happened to spend in each mode.  Every time the
/// benchmark reports is therefore taken between two kernel runs and scaled
/// by `KERNEL_REFERENCE_S / mean kernel time`: seconds at the machine's
/// reference speed.
pub fn kernel_s(threads: usize) -> f64 {
    fn walk(depth: u32, state: u64) -> u64 {
        if depth == 0 {
            return 1;
        }
        let children: Vec<u64> = (0..state % 4 + 1)
            .map(|i| state.wrapping_mul(6364136223846793005).wrapping_add(i))
            .collect();
        1 + children.iter().map(|c| walk(depth - 1, *c)).sum::<u64>()
    }
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(|| black_box(walk(14, black_box(1))));
        }
        black_box(walk(14, black_box(1)));
    });
    secs(start)
}

/// `seconds` measured next to kernel runs of `kernel` seconds on average,
/// in reference seconds.
pub fn scaled(seconds: f64, kernel: f64) -> f64 {
    seconds * KERNEL_REFERENCE_S / kernel
}

/// Run `f`, which keeps `threads` threads busy, between two calibration
/// kernels on as many threads, timing it in reference seconds.
pub fn measure<T>(threads: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let before = kernel_s(threads);
    let start = Instant::now();
    let out = f();
    let t = secs(start);
    (out, scaled(t, (before + kernel_s(threads)) / 2.0))
}

/// [`measure`], or `None` if `f` panicked (counted by the caller as a
/// failed operation).
pub fn timed<T>(threads: usize, f: impl FnOnce() -> T) -> Option<(T, f64)> {
    catch_unwind(AssertUnwindSafe(|| measure(threads, f))).ok()
}

/// Median seconds per call of `f`, over `reps` samples of `batch` calls.
pub fn median_secs<T>(batch: usize, reps: usize, f: impl FnMut() -> T) -> f64 {
    let mut timer = SetupTimer::new(batch);
    timer.sample(reps, f);
    timer.median()
}

/// Set-up timings in reference seconds, taken a few at a time between a
/// run's measurement cycles so that their median covers the whole run, as
/// the other metrics do.
#[derive(Debug)]
pub struct SetupTimer {
    /// Set-ups per timed sample: more than one when a single set-up is too
    /// short for the clock to resolve.
    batch: usize,
    samples: Vec<f64>,
}

impl SetupTimer {
    pub fn new(batch: usize) -> Self {
        SetupTimer {
            batch: batch.max(1),
            samples: Vec::new(),
        }
    }

    /// Take `reps` samples of `f`; what it builds is dropped untimed.
    pub fn sample<T>(&mut self, reps: usize, mut f: impl FnMut() -> T) {
        for _ in 0..reps {
            let mut built = Vec::with_capacity(self.batch);
            let before = kernel_s(1);
            let start = Instant::now();
            for _ in 0..self.batch {
                built.push(black_box(f()));
            }
            let t = secs(start);
            // Whatever the set-up started (a runtime's threads) ends before
            // the second kernel runs.
            drop(built);
            let kernel = (before + kernel_s(1)) / 2.0;
            self.samples.push(scaled(t, kernel) / self.batch as f64);
        }
    }

    /// Median seconds per set-up.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }
}

/// Nodes of the whole tree, by the library's plain recursive reference
/// traversal (no skeleton, no engine).
pub fn dfs_nodes<P: SearchProblem>(problem: &P) -> u64 {
    yewpar::node::subtree_size(problem, &problem.root())
}

/// Hand-written depth-first branch and bound over `root`/`generator`,
/// honouring the problem's bound and prune level.  With a `target` it stops
/// at the first node reaching it (a decision search).  Returns the best
/// objective found and the number of nodes visited.
pub fn dfs_maximise<P: Optimise>(problem: &P, target: Option<&P::Score>) -> (P::Score, u64) {
    struct Walk<'a, P: Optimise> {
        problem: &'a P,
        target: Option<&'a P::Score>,
        best: P::Score,
        nodes: u64,
    }
    impl<P: Optimise> Walk<'_, P> {
        /// Visit `node`; true once the target is reached.
        fn visit(&mut self, node: &P::Node) -> bool {
            self.nodes += 1;
            let objective = self.problem.objective(node);
            if objective > self.best {
                self.best = objective;
            }
            if self.target.is_some_and(|t| self.best >= *t) {
                return true;
            }
            for child in self.problem.generator(node) {
                if let Some(bound) = self.problem.bound(&child) {
                    if bound <= self.best {
                        match self.problem.prune_level() {
                            PruneLevel::Node => continue,
                            PruneLevel::Siblings => break,
                        }
                    }
                }
                if self.visit(&child) {
                    return true;
                }
            }
            false
        }
    }
    let root = problem.root();
    let mut walk = Walk {
        problem,
        target,
        best: problem.objective(&root),
        nodes: 0,
    };
    walk.visit(&root);
    (walk.best, walk.nodes)
}

/// Nanoseconds per `DepthPool` push+pop pair, median of batches.
pub fn pool_push_pop_ns() -> f64 {
    const BATCH: u64 = 20_000;
    let pool = DepthPool::new();
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            for i in 0..BATCH {
                pool.push(Task::new(black_box(i), (i % 8) as usize));
                black_box(pool.pop());
            }
            secs(start) * 1e9 / BATCH as f64
        })
        .collect();
    median(&samples)
}

/// Nanoseconds per uncontended single-task steal by shard 0 from shard 1
/// of a two-shard `ShardedPool`, median of batches.
pub fn pool_steal_ns() -> f64 {
    const BATCH: usize = 20_000;
    let pool = ShardedPool::new(2);
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let mut tasks: Vec<Task<usize>> = (0..BATCH).map(|i| Task::new(i, i % 8)).collect();
            pool.push_batch(1, &mut tasks);
            let start = Instant::now();
            for _ in 0..BATCH {
                black_box(pool.steal(0));
            }
            secs(start) * 1e9 / BATCH as f64
        })
        .collect();
    median(&samples)
}

/// Busy, idle and steal-wait shares of `workers × window` for one traced
/// execution, attributed from task and steal event timestamps (nanoseconds
/// for threaded runs, virtual ticks for simulated ones).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TimeShares {
    pub busy: f64,
    pub idle: f64,
    pub steal_wait: f64,
    /// StealRequest → StealHit/StealMiss round trips, in trace time units.
    pub steal_rtts: Vec<f64>,
}

pub fn attribute(records: &[TraceRecord], workers: usize) -> TimeShares {
    let events = records.iter().filter(|r| r.worker != CONTROL_WORKER);
    let (Some(first), Some(last)) = (
        events.clone().map(|r| r.ts).min(),
        events.clone().map(|r| r.ts).max(),
    ) else {
        return TimeShares::default();
    };
    let total = (last - first) as f64 * workers as f64;
    // Per worker: open task start, open steal request.
    let mut open: BTreeMap<u32, (Option<u64>, Option<u64>)> = BTreeMap::new();
    let (mut busy, mut wait) = (0u64, 0u64);
    let mut steal_rtts = Vec::new();
    for r in events {
        let slot = open.entry(r.worker).or_default();
        match r.event {
            TraceEvent::TaskStart { .. } => slot.0 = Some(r.ts),
            TraceEvent::TaskEnd { .. } => busy += slot.0.take().map_or(0, |s| r.ts - s),
            TraceEvent::StealRequest { .. } => {
                slot.1.get_or_insert(r.ts);
            }
            TraceEvent::StealHit { .. } | TraceEvent::StealMiss { .. } => {
                if let Some(s) = slot.1.take() {
                    wait += r.ts - s;
                    steal_rtts.push((r.ts - s) as f64);
                }
            }
            _ => {}
        }
    }
    if total == 0.0 {
        return TimeShares::default();
    }
    let busy = busy as f64 / total;
    let steal_wait = wait as f64 / total;
    TimeShares {
        busy,
        idle: (1.0 - busy - steal_wait).max(0.0),
        steal_wait,
        steal_rtts,
    }
}

/// A benchmark-side span: one call into a layer, as seen from outside.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Spans recorded around set-up, each solve and each submit→wait, kept in
/// memory until the run ends.  Off in untraced runs.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; the returned id closes it and parents its children.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now();
        }
    }

    /// Per span name: count, total and self time (total minus the part
    /// covered by child spans), one line each.
    pub fn summary(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = by_name.entry(&s.name).or_default();
            let total = s.end_ns - s.start_ns;
            *e = (e.0 + 1, e.1 + total, e.2 + total.saturating_sub(child));
        }
        by_name
            .iter()
            .map(|(name, (n, total, own))| {
                format!(
                    "span {name:<28} n={n:<6} total={:>10.3}ms self={:>10.3}ms",
                    *total as f64 / 1e6,
                    *own as f64 / 1e6
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yewpar_apps::irregular::Irregular;
    use yewpar_apps::maxclique::{baseline, MaxClique};
    use yewpar_instances::graph;

    #[test]
    fn hand_written_search_agrees_with_the_reference_solvers() {
        let g = graph::p_hat_like(60, 0.3, 0.8, 5);
        let expected = baseline::sequential_max_clique(&g).size;
        let (best, nodes) = dfs_maximise(&MaxClique::new(g), None);
        assert_eq!(best, expected);
        assert!(nodes > 0);
        let p = Irregular::new(9, 5);
        let (found, _) = dfs_maximise(&p, Some(&990));
        assert!(found >= 990);
        assert_eq!(dfs_maximise(&p, None).1, dfs_nodes(&p));
    }

    #[test]
    fn attribution_splits_busy_idle_and_steal_wait() {
        let rec = |ts, worker, event| TraceRecord { ts, worker, event };
        let records = [
            rec(0, 0, TraceEvent::TaskStart { depth: 0 }),
            rec(0, 1, TraceEvent::StealRequest { victim: 0 }),
            rec(20, 1, TraceEvent::StealMiss { victim: 0 }),
            rec(
                100,
                0,
                TraceEvent::TaskEnd {
                    nodes: 1,
                    prunes: 0,
                    backtracks: 0,
                    spawns: 0,
                    batch_pushes: 0,
                    poll_checks: 0,
                    max_depth: 0,
                },
            ),
        ];
        let shares = attribute(&records, 2);
        assert_eq!(
            (shares.busy, shares.steal_wait, shares.idle),
            (0.5, 0.1, 0.4)
        );
        assert_eq!(shares.steal_rtts, vec![20.0]);
    }

    #[test]
    fn span_self_time_excludes_children() {
        let mut spans = Spans::new(true);
        let outer = spans.open("outer", None);
        let inner = spans.open("inner", outer);
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.close(inner);
        spans.close(outer);
        let s = &spans.spans;
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].end_ns >= s[1].end_ns && s[1].end_ns - s[1].start_ns >= 2_000_000);
        assert!(spans.summary().contains("span inner"));
        assert!(Spans::new(false).open("x", None).is_none());
    }
}
