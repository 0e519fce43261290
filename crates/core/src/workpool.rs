//! Order-preserving workpools.
//!
//! Generic deque-based work stealing visits tasks in LIFO order on the owner
//! and steals FIFO from the other end, which destroys the heuristic ordering
//! that search applications depend on (paper §2.3).  YewPar instead uses a
//! bespoke *order-preserving* workpool (§4.3): tasks are prioritised by the
//! depth at which they were generated — shallower subtrees are expected to be
//! larger and are handed out first — and within a depth tasks are served in
//! FIFO order, i.e. exactly the heuristic order in which the lazy node
//! generator produced them.
//!
//! [`DepthPool`] implements that policy behind a mutex.  The discrete-event
//! simulator (`yewpar-sim`) instantiates one pool per simulated locality.
//!
//! A single shared pool serialises every push and pop on one lock, which
//! becomes the bottleneck of the Depth-Bounded and Budget coordinations as
//! workers scale.  [`ShardedPool`] therefore gives each worker its own
//! [`DepthPool`] shard: owners push and pop locally without contention, and
//! idle workers *steal* by scanning the other shards and taking from the one
//! whose shallowest task is globally shallowest — preserving the
//! shallowest-first heuristic across shards while eliminating the global
//! lock from the hot path.
//!
//! # Batched operations
//!
//! The engine's spawn loop produces tasks in generator *bursts* (all children
//! of one node), and paying one lock acquisition per task made the lock the
//! dominant cost of fine-grained trees.  Three batched paths amortise it:
//!
//! * [`DepthPool::push_batch`] / [`ShardedPool::push_batch`] drain a whole
//!   burst under one lock (the caller's buffer keeps its capacity, so a
//!   worker reuses one allocation for every burst it ever spawns);
//! * [`DepthPool::pop_batch`] / [`ShardedPool::pop_batch_local`] move up to
//!   [`POP_BATCH`] tasks into the caller's private buffer under one lock;
//! * [`ShardedPool::steal_batch`] takes up to [`STEAL_BATCH`] tasks from the
//!   best victim in one lock acquisition.
//!
//! Batch sizes are deliberately small: tasks sitting in a worker's private
//! buffer are invisible to thieves, so the buffer holds only what its owner
//! will imminently run.
//!
//! Every shard additionally publishes its shallowest depth in an atomic
//! *hint*, refreshed under the shard lock on every mutation.  The steal path
//! reads the hints instead of locking each shard for `min_depth`, so empty
//! shards cost one relaxed load instead of a lock acquisition — with 64
//! shards and one victim, a steal is two lock acquisitions (the victim's pop
//! plus at most one fall-through probe), not 64.

pub mod arena;
pub mod ordered;

pub use arena::KeyArena;
pub use ordered::{CommitLog, OrderedPool, Retired, SeqKey};

use crate::sync::{AtomicU64, AtomicUsize, Ordering};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, VecDeque};

/// How many tasks an owner moves from its shard into its private buffer per
/// locked pop (see [`DepthPool::pop_batch`]).  Small, so at most
/// `POP_BATCH - 1` tasks per worker are ever invisible to thieves.
pub const POP_BATCH: usize = 4;

/// How many tasks a thief takes from a victim shard per steal (see
/// [`ShardedPool::steal_batch`]).  Smaller than [`POP_BATCH`]: stolen tasks
/// vanish from every other thief's view, so steals stay conservative.
pub const STEAL_BATCH: usize = 2;

/// A task tagged with the tree depth of its root node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task<N> {
    /// The root node of the subtree this task must explore.
    pub node: N,
    /// Depth of `node` in the global search tree (root = 0).
    pub depth: usize,
}

impl<N> Task<N> {
    /// Convenience constructor.
    pub fn new(node: N, depth: usize) -> Self {
        Task { node, depth }
    }
}

/// The hint value meaning "this shard looked empty".
const EMPTY_HINT: usize = usize::MAX;

/// An order-preserving workpool: lowest depth first, FIFO within a depth.
#[derive(Debug)]
pub struct DepthPool<N> {
    inner: Mutex<PoolInner<N>>,
    /// Shallowest queued depth ([`EMPTY_HINT`] when empty), refreshed under
    /// the lock on every mutation.  Lets readers skip empty pools without
    /// locking; staleness only costs heuristic quality, never correctness.
    hint: AtomicUsize,
    /// Lock acquisitions performed on this pool (all operations), counted
    /// relaxed.  Diagnostics for the batched hot path: the steal-path
    /// regression test and `WorkerMetrics::lock_acquisitions` read it.
    locks: AtomicU64,
}

#[derive(Debug)]
struct PoolInner<N> {
    by_depth: BTreeMap<usize, VecDeque<Task<N>>>,
    len: usize,
}

impl<N> Default for DepthPool<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N> DepthPool<N> {
    /// An empty pool.
    pub fn new() -> Self {
        DepthPool {
            inner: Mutex::new(PoolInner {
                by_depth: BTreeMap::new(),
                len: 0,
            }),
            hint: AtomicUsize::new(EMPTY_HINT),
            locks: AtomicU64::new(0),
        }
    }

    /// Acquire the pool lock, counting the acquisition.
    fn lock(&self) -> MutexGuard<'_, PoolInner<N>> {
        // ordering: contention diagnostic tally; orders nothing.
        self.locks.fetch_add(1, Ordering::Relaxed);
        self.inner.lock()
    }

    /// Refresh the shallowest-depth hint.  Must be called with the lock held
    /// (i.e. on the guard obtained from [`lock`](Self::lock)) so the hint
    /// published at unlock reflects the state the next reader can observe.
    fn refresh_hint(&self, inner: &PoolInner<N>) {
        let min = inner.by_depth.keys().next().copied().unwrap_or(EMPTY_HINT);
        self.hint.store(min, Ordering::Release);
    }

    /// Add a task to the pool (appended after existing tasks of equal depth,
    /// preserving heuristic order).
    pub fn push(&self, task: Task<N>) {
        let mut inner = self.lock();
        inner
            .by_depth
            .entry(task.depth)
            .or_default()
            .push_back(task);
        inner.len += 1;
        self.refresh_hint(&inner);
    }

    /// Add several tasks, preserving their relative (heuristic) order, under
    /// a single lock acquisition.
    pub fn push_all(&self, tasks: impl IntoIterator<Item = Task<N>>) {
        let mut inner = self.lock();
        for task in tasks {
            inner
                .by_depth
                .entry(task.depth)
                .or_default()
                .push_back(task);
            inner.len += 1;
        }
        self.refresh_hint(&inner);
    }

    /// Drain `tasks` into the pool under one lock acquisition, preserving
    /// their relative (heuristic) order.  The vector keeps its capacity, so
    /// a worker's spawn buffer is reused across bursts instead of allocating
    /// per generator burst.
    pub fn push_batch(&self, tasks: &mut Vec<Task<N>>) {
        if tasks.is_empty() {
            return;
        }
        let mut inner = self.lock();
        for task in tasks.drain(..) {
            inner
                .by_depth
                .entry(task.depth)
                .or_default()
                .push_back(task);
            inner.len += 1;
        }
        self.refresh_hint(&inner);
    }

    /// Remove and return the highest-priority task: the oldest task at the
    /// shallowest populated depth.
    ///
    /// Returns `None` only when the pool is empty *at this instant*; with
    /// concurrent producers a subsequent `pop` may succeed.  Callers must
    /// therefore combine an empty `pop` with a termination check (see
    /// `Termination::all_done`) rather than treating it as end-of-search.
    pub fn pop(&self) -> Option<Task<N>> {
        if self.hint.load(Ordering::Acquire) == EMPTY_HINT {
            // Empty per the published hint: skip the lock entirely.  A racing
            // push is indistinguishable from one that lands right after an
            // unlocked miss, so the "empty at this instant" contract holds.
            return None;
        }
        let mut inner = self.lock();
        let depth = match inner.by_depth.keys().next() {
            Some(&depth) => depth,
            None => return None,
        };
        let queue = inner.by_depth.get_mut(&depth).expect("key just observed");
        let task = queue.pop_front();
        if queue.is_empty() {
            inner.by_depth.remove(&depth);
        }
        if task.is_some() {
            inner.len -= 1;
        }
        self.refresh_hint(&inner);
        task
    }

    /// Move up to `max` highest-priority tasks (same order as repeated
    /// [`pop`](Self::pop)s) into `out` under one lock acquisition, returning
    /// how many were taken.  The owner's batched fast path: one lock per
    /// [`POP_BATCH`] tasks instead of one per task.
    pub fn pop_batch(&self, max: usize, out: &mut VecDeque<Task<N>>) -> usize {
        if max == 0 || self.hint.load(Ordering::Acquire) == EMPTY_HINT {
            return 0;
        }
        let mut inner = self.lock();
        let mut taken = 0;
        while taken < max {
            let depth = match inner.by_depth.keys().next() {
                Some(&depth) => depth,
                None => break,
            };
            let queue = inner.by_depth.get_mut(&depth).expect("key just observed");
            while taken < max {
                match queue.pop_front() {
                    Some(task) => {
                        out.push_back(task);
                        taken += 1;
                    }
                    None => break,
                }
            }
            if queue.is_empty() {
                inner.by_depth.remove(&depth);
            }
        }
        inner.len -= taken;
        self.refresh_hint(&inner);
        taken
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.inner.lock().len
    }

    /// True when no tasks are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Depth of the shallowest queued task, if any.  Takes the lock; the
    /// lock-free variant is [`min_depth_hint`](Self::min_depth_hint).
    pub fn min_depth(&self) -> Option<usize> {
        self.inner.lock().by_depth.keys().next().copied()
    }

    /// The published shallowest-depth hint, without locking.  The answer may
    /// be stale by the time the caller acts on it (a concurrent push or pop
    /// moves it), which only affects heuristic quality, never correctness —
    /// the steal path re-checks by actually popping, and global emptiness is
    /// decided by the termination counter, not the pool.
    pub fn min_depth_hint(&self) -> Option<usize> {
        match self.hint.load(Ordering::Acquire) {
            EMPTY_HINT => None,
            depth => Some(depth),
        }
    }

    /// Lock acquisitions performed on this pool so far (relaxed counter).
    pub fn lock_acquisitions(&self) -> u64 {
        // ordering: diagnostic read; callers tolerate a stale count.
        self.locks.load(Ordering::Relaxed)
    }

    /// Discard every queued task, returning exactly how many were dropped.
    /// Used when a decision search short-circuits.
    ///
    /// The count is taken under the pool lock: a task popped concurrently by
    /// a worker is counted by that worker's pop, never by `clear`, so
    /// `pops + cleared` always equals the number of pushes.
    pub fn clear(&self) -> usize {
        let mut inner = self.lock();
        let dropped = inner.len;
        inner.by_depth.clear();
        inner.len = 0;
        self.refresh_hint(&inner);
        dropped
    }
}

/// A per-worker sharding of [`DepthPool`] with a shallowest-first steal path.
///
/// Owners interact only with their own shard ([`push`](Self::push),
/// [`push_batch`](Self::push_batch), [`pop_local`](Self::pop_local),
/// [`pop_batch_local`](Self::pop_batch_local)); an idle worker calls
/// [`steal`](Self::steal) or [`steal_batch`](Self::steal_batch), which rank
/// the other shards by their published shallowest-depth hints — no locks on
/// empty shards — and pop from the best one.  All operations are
/// linearisable per shard; cross-shard reads (`steal`, `len`,
/// [`clear`](Self::clear)) are best-effort snapshots, which is sound because
/// task order is a heuristic and global emptiness is decided by the
/// termination counter, not by the pool.
#[derive(Debug)]
pub struct ShardedPool<N> {
    shards: Vec<DepthPool<N>>,
}

impl<N> ShardedPool<N> {
    /// A pool with one shard per worker (at least one).
    pub fn new(shards: usize) -> Self {
        ShardedPool {
            shards: (0..shards.max(1)).map(|_| DepthPool::new()).collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Queue a task on `shard` (the calling worker's own shard).
    pub fn push(&self, shard: usize, task: Task<N>) {
        self.shards[shard].push(task);
    }

    /// Queue several tasks on `shard`, preserving their heuristic order,
    /// under one lock acquisition.
    pub fn push_all(&self, shard: usize, tasks: impl IntoIterator<Item = Task<N>>) {
        self.shards[shard].push_all(tasks);
    }

    /// Drain `tasks` onto `shard` under one lock acquisition, preserving
    /// heuristic order and the caller's buffer capacity.
    pub fn push_batch(&self, shard: usize, tasks: &mut Vec<Task<N>>) {
        self.shards[shard].push_batch(tasks);
    }

    /// Pop the highest-priority task of the worker's own shard.
    pub fn pop_local(&self, shard: usize) -> Option<Task<N>> {
        self.shards[shard].pop()
    }

    /// Move up to `max` tasks from the worker's own shard into `out` under
    /// one lock acquisition, returning how many were taken.
    pub fn pop_batch_local(&self, shard: usize, max: usize, out: &mut VecDeque<Task<N>>) -> usize {
        self.shards[shard].pop_batch(max, out)
    }

    /// Victim shards for `thief`, best (shallowest hint) first, built from
    /// the atomic hints alone — no shard locks.
    fn candidates(&self, thief: usize) -> Vec<(usize, usize)> {
        let mut candidates: Vec<(usize, usize)> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != thief)
            .filter_map(|(i, shard)| shard.min_depth_hint().map(|depth| (depth, i)))
            .collect();
        candidates.sort_unstable();
        candidates
    }

    /// Steal a task for `thief`: rank every other shard by its published
    /// shallowest-depth hint and pop from the shard holding the globally
    /// shallowest task.  If the chosen victim was drained between the scan
    /// and the pop (a concurrent owner pop or rival thief), fall through to
    /// the next-best shard rather than giving up.  Returns `None` only when
    /// every candidate shard was empty by the time it was tried — callers
    /// should retry after checking termination, since concurrent pushes may
    /// repopulate the shards.
    pub fn steal(&self, thief: usize) -> Option<Task<N>> {
        self.candidates(thief)
            .into_iter()
            .find_map(|(_, victim)| self.shards[victim].pop())
    }

    /// Steal up to `max` tasks for `thief` from a single victim shard — the
    /// one whose published hint is shallowest — appending them to `out` and
    /// returning how many were taken.  Falls through hint-stale victims like
    /// [`steal`](Self::steal); the whole batch comes from one shard so a
    /// successful steal is exactly one lock acquisition.
    pub fn steal_batch(&self, thief: usize, max: usize, out: &mut VecDeque<Task<N>>) -> usize {
        for (_, victim) in self.candidates(thief) {
            let taken = self.shards[victim].pop_batch(max, out);
            if taken > 0 {
                return taken;
            }
        }
        0
    }

    /// Total queued tasks across all shards (a racy snapshot under
    /// concurrency).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when every shard looked empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lock acquisitions across all shards (relaxed counters).
    pub fn lock_acquisitions(&self) -> u64 {
        self.shards.iter().map(|s| s.lock_acquisitions()).sum()
    }

    /// Discard every queued task in every shard, returning exactly how many
    /// were dropped in total.  Each shard's count is taken under that
    /// shard's lock, so tasks popped concurrently by workers (e.g. during a
    /// decision short-circuit) are never double-counted: over the whole run,
    /// `pops + cleared == pushes`.
    pub fn clear(&self) -> usize {
        self.shards.iter().map(|s| s.clear()).sum()
    }
}

/// The Stack-Stealing victim rule, shared by the threaded steal-channel
/// source and the simulator: among `candidates` — `(worker, steal depth)`
/// pairs, `None` meaning the worker has nothing to steal — pick the one
/// advertising the *shallowest* depth (heuristically the biggest subtree),
/// never `thief` itself.  Ties are broken by exactly one `rng` draw over
/// the tied workers, made only when some candidate exists; with none, the
/// steal fails without touching `rng`.  `scratch` is the caller's reusable
/// buffer for the tied workers.
///
/// Deliberately not generic: it is compiled once here rather than into each
/// caller, because a generic version changed how the compiler inlined the
/// threaded Stack-Stealing worker's per-step channel poll and measurably
/// slowed that coordination's solves.
pub fn pick_shallowest(
    thief: usize,
    candidates: &mut dyn Iterator<Item = (usize, Option<usize>)>,
    rng: &mut rand::rngs::SmallRng,
    scratch: &mut Vec<usize>,
) -> Option<usize> {
    use rand::Rng;
    scratch.clear();
    let mut best = usize::MAX;
    for (worker, depth) in candidates {
        let Some(depth) = depth.filter(|_| worker != thief) else {
            continue;
        };
        if depth < best {
            best = depth;
            scratch.clear();
        }
        if depth == best {
            scratch.push(worker);
        }
    }
    (!scratch.is_empty()).then(|| scratch[rng.gen_range(0..scratch.len())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pick_shallowest_follows_the_victim_rule() {
        use rand::rngs::SmallRng;
        use rand::{Rng, RngCore, SeedableRng};
        // (candidates, thief 0's pick under seed 7).  The expected tie pick is the seeded generator's first
        // draw over the tied workers in candidate order.
        let tie = |n: usize| SmallRng::seed_from_u64(7).gen_range(0..n);
        type Candidates = Vec<(usize, Option<usize>)>;
        let cases: Vec<(Candidates, Option<usize>)> = vec![
            // The thief never picks itself, however shallow it looks.
            (vec![(0, Some(0)), (1, Some(3))], Some(1)),
            // Workers with nothing to steal are skipped.
            (vec![(1, None), (2, Some(4)), (3, None)], Some(2)),
            // The shallowest candidate wins regardless of position.
            (vec![(1, Some(5)), (2, Some(2)), (3, Some(4))], Some(2)),
            // Ties at the shallowest depth: one seeded draw among them.
            (
                vec![(1, Some(2)), (2, Some(1)), (3, Some(1)), (4, Some(1))],
                Some([2, 3, 4][tie(3)]),
            ),
            // No candidate at all: the steal fails.
            (vec![(0, Some(1)), (1, None), (2, None)], None),
            (vec![], None),
        ];
        for (candidates, expected) in cases {
            let mut rng = SmallRng::seed_from_u64(7);
            let mut scratch = Vec::new();
            let got = pick_shallowest(
                0,
                &mut candidates.clone().into_iter(),
                &mut rng,
                &mut scratch,
            );
            assert_eq!(got, expected, "{candidates:?}");
            // The draw happens exactly once when a candidate exists, and
            // never otherwise: the generator is one draw ahead, or untouched.
            let mut replay = SmallRng::seed_from_u64(7);
            if expected.is_some() {
                replay.gen_range(0..scratch.len());
            }
            assert_eq!(rng.next_u64(), replay.next_u64(), "{candidates:?}");
        }
    }

    #[test]
    fn pops_lowest_depth_first() {
        let pool = DepthPool::new();
        pool.push(Task::new("deep", 5));
        pool.push(Task::new("shallow", 1));
        pool.push(Task::new("mid", 3));
        assert_eq!(pool.pop().unwrap().node, "shallow");
        assert_eq!(pool.pop().unwrap().node, "mid");
        assert_eq!(pool.pop().unwrap().node, "deep");
        assert!(pool.pop().is_none());
    }

    #[test]
    fn fifo_within_a_depth_preserves_heuristic_order() {
        let pool = DepthPool::new();
        pool.push_all((0..10).map(|i| Task::new(i, 2)));
        let order: Vec<i32> = std::iter::from_fn(|| pool.pop().map(|t| t.node)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn len_and_clear() {
        let pool = DepthPool::new();
        assert!(pool.is_empty());
        pool.push_all([Task::new(1, 0), Task::new(2, 1), Task::new(3, 1)]);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.clear(), 3);
        assert!(pool.is_empty());
        assert!(pool.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_never_loses_tasks() {
        let pool = DepthPool::new();
        pool.push(Task::new(0u32, 0));
        let mut popped = 0;
        for i in 1..100u32 {
            pool.push(Task::new(i, (i % 7) as usize));
            if i % 3 == 0 {
                assert!(pool.pop().is_some());
                popped += 1;
            }
        }
        assert_eq!(pool.len(), 100 - popped);
    }

    #[test]
    fn concurrent_producers_and_consumers_drain_exactly() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = Arc::new(DepthPool::new());
        let consumed = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..2 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..500usize {
                        pool.push(Task::new(t * 1000 + i, i % 5));
                    }
                });
            }
            for _ in 0..2 {
                let pool = Arc::clone(&pool);
                let consumed = Arc::clone(&consumed);
                s.spawn(move || {
                    let mut local = 0;
                    for _ in 0..10_000 {
                        if pool.pop().is_some() {
                            local += 1;
                        }
                    }
                    consumed.fetch_add(local, Ordering::SeqCst);
                });
            }
        });
        // Whatever the consumers missed must still be in the pool.
        assert_eq!(consumed.load(Ordering::SeqCst) + pool.len(), 1000);
    }

    #[test]
    fn sharded_steal_prefers_the_shallowest_shard() {
        let pool = ShardedPool::new(3);
        pool.push(0, Task::new("own", 4));
        pool.push(1, Task::new("deep", 7));
        pool.push(2, Task::new("shallow", 2));
        // Worker 0 steals: shard 2 holds the globally shallowest task.
        assert_eq!(pool.steal(0).unwrap().node, "shallow");
        // Next steal must skip the thief's own shard even though it now
        // holds the shallowest task.
        assert_eq!(pool.steal(0).unwrap().node, "deep");
        assert!(
            pool.steal(0).is_none(),
            "only the thief's own shard is left"
        );
        assert_eq!(pool.pop_local(0).unwrap().node, "own");
    }

    #[test]
    fn sharded_owner_pops_are_local() {
        let pool = ShardedPool::new(2);
        pool.push_all(0, (0..5).map(|i| Task::new(i, 3)));
        pool.push(1, Task::new(99, 0));
        // Owner 0 pops its own FIFO run and never sees shard 1's task.
        for i in 0..5 {
            assert_eq!(pool.pop_local(0).unwrap().node, i);
        }
        assert!(pool.pop_local(0).is_none());
        assert_eq!(pool.len(), 1);
    }

    /// Regression test (PR 1 review finding): `steal` used to return `None`
    /// when its chosen victim shard was drained between the min-depth scan
    /// and the pop, even though other shards still held work.  Race an owner
    /// pop on the shallowest shard against a thief: with the fall-through the
    /// thief must *always* obtain a task, because the deep shard is never
    /// touched by anyone else.
    #[test]
    fn steal_falls_through_to_the_next_best_shard_when_the_victim_drains() {
        use std::sync::Arc;
        for _ in 0..500 {
            let pool = Arc::new(ShardedPool::new(3));
            pool.push(0, Task::new("shallow", 0));
            pool.push(1, Task::new("deep", 9));
            let stolen = std::thread::scope(|s| {
                let owner = {
                    let pool = Arc::clone(&pool);
                    s.spawn(move || pool.pop_local(0))
                };
                let thief = {
                    let pool = Arc::clone(&pool);
                    s.spawn(move || pool.steal(2))
                };
                let _ = owner.join().unwrap();
                thief.join().unwrap()
            });
            assert!(
                stolen.is_some(),
                "a task was available in a shard the whole time"
            );
        }
    }

    /// Satellite of the batching PR: with the atomic hints, a steal from a
    /// wide, almost-empty pool must not lock the empty shards at all — one
    /// non-empty shard among 64 costs at most two lock acquisitions (the
    /// victim's pop; a second only if a fall-through probe raced), not 63.
    #[test]
    fn steal_skips_empty_shards_without_locking() {
        let pool: ShardedPool<u32> = ShardedPool::new(64);
        pool.push(7, Task::new(1, 3));
        let before = pool.lock_acquisitions();
        let stolen = pool.steal(0);
        let locks = pool.lock_acquisitions() - before;
        assert_eq!(stolen.unwrap().node, 1);
        assert!(
            locks <= 2,
            "steal from a 64-shard pool with one victim took {locks} locks"
        );
        // And a steal from a fully empty pool locks nothing.
        let before = pool.lock_acquisitions();
        assert!(pool.steal(0).is_none());
        assert_eq!(pool.lock_acquisitions() - before, 0);
    }

    #[test]
    fn batched_push_and_pop_round_trip() {
        let pool = DepthPool::new();
        let mut burst: Vec<Task<u32>> = (0..10).map(|i| Task::new(i, (i % 3) as usize)).collect();
        pool.push_batch(&mut burst);
        assert!(burst.is_empty(), "push_batch drains the caller's buffer");
        assert!(burst.capacity() >= 10, "the buffer keeps its capacity");
        assert_eq!(pool.len(), 10);
        let mut out = VecDeque::new();
        assert_eq!(pool.pop_batch(4, &mut out), 4);
        assert_eq!(pool.pop_batch(100, &mut out), 6);
        assert_eq!(pool.pop_batch(1, &mut out), 0);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn steal_batch_takes_from_a_single_victim() {
        let pool = ShardedPool::new(4);
        pool.push_all(1, (0..3).map(|i| Task::new(i, 2)));
        pool.push(2, Task::new(99, 5));
        let mut out = VecDeque::new();
        let before = pool.lock_acquisitions();
        // Shard 1 has the shallowest hint; the whole batch comes from it.
        assert_eq!(pool.steal_batch(0, 8, &mut out), 3);
        assert_eq!(pool.lock_acquisitions() - before, 1);
        assert_eq!(
            out.iter().map(|t| t.node).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "batch preserves the victim's FIFO order"
        );
        assert_eq!(pool.steal_batch(0, 8, &mut out), 1, "then the deep shard");
    }

    #[test]
    fn sharded_clear_counts_drops_across_all_shards() {
        let pool = ShardedPool::new(4);
        for shard in 0..4 {
            pool.push_all(shard, (0..(shard + 1)).map(|i| Task::new(i, i)));
        }
        assert_eq!(pool.len(), 1 + 2 + 3 + 4);
        assert_eq!(
            pool.clear(),
            10,
            "clear must report drops summed over shards"
        );
        assert!(pool.is_empty());
        assert_eq!(pool.clear(), 0);
    }

    #[test]
    fn sharded_clear_never_double_counts_concurrent_pops() {
        // The decision short-circuit scenario: workers keep popping while
        // one thread clears. Every task must be observed exactly once,
        // either by a pop or by the clear's drop count.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = Arc::new(ShardedPool::new(4));
        for shard in 0..4 {
            pool.push_all(shard, (0..250).map(|i| Task::new(i, i % 9)));
        }
        let popped = Arc::new(AtomicUsize::new(0));
        let dropped = std::thread::scope(|s| {
            for t in 0..3 {
                let pool = Arc::clone(&pool);
                let popped = Arc::clone(&popped);
                s.spawn(move || {
                    let mut local = 0;
                    for _ in 0..200 {
                        if pool.pop_local(t).is_some() {
                            local += 1;
                        }
                        if pool.steal(t).is_some() {
                            local += 1;
                        }
                    }
                    popped.fetch_add(local, Ordering::SeqCst);
                });
            }
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                std::thread::yield_now();
                pool.clear()
            })
            .join()
            .unwrap()
        });
        assert_eq!(
            popped.load(Ordering::SeqCst) + dropped + pool.len(),
            1000,
            "pops + cleared + remaining must account for every push"
        );
    }

    /// Batched pops mixed with concurrent batched pushes and clears must
    /// still account for every task exactly once.
    #[test]
    fn batched_ops_never_double_count_under_concurrency() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = Arc::new(ShardedPool::new(4));
        let popped = Arc::new(AtomicUsize::new(0));
        let dropped = std::thread::scope(|s| {
            for t in 0..3 {
                let pool = Arc::clone(&pool);
                let popped = Arc::clone(&popped);
                s.spawn(move || {
                    let mut burst = Vec::new();
                    let mut out = VecDeque::new();
                    let mut local = 0;
                    for round in 0..50usize {
                        burst.extend((0..5).map(|i| Task::new(i, (round + i) % 9)));
                        pool.push_batch(t, &mut burst);
                        local += pool.pop_batch_local(t, 2, &mut out);
                        local += pool.steal_batch(t, 2, &mut out);
                    }
                    out.clear();
                    popped.fetch_add(local, Ordering::SeqCst);
                });
            }
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                std::thread::yield_now();
                pool.clear()
            })
            .join()
            .unwrap()
        });
        // Let any tasks pushed after the clear drain too.
        let remaining = pool.clear();
        assert_eq!(
            popped.load(Ordering::SeqCst) + dropped + remaining,
            3 * 50 * 5,
            "pops + cleared + remaining must account for every batched push"
        );
    }

    proptest! {
        /// The pool is a priority queue keyed by (depth, arrival index): the
        /// pop sequence must always be sorted by depth, and within a depth by
        /// arrival order.
        #[test]
        fn pop_order_is_depth_then_fifo(depths in proptest::collection::vec(0usize..6, 1..64)) {
            let pool = DepthPool::new();
            for (i, &d) in depths.iter().enumerate() {
                pool.push(Task::new(i, d));
            }
            let popped: Vec<Task<usize>> = std::iter::from_fn(|| pool.pop()).collect();
            prop_assert_eq!(popped.len(), depths.len());
            for w in popped.windows(2) {
                prop_assert!(w[0].depth <= w[1].depth);
                if w[0].depth == w[1].depth {
                    prop_assert!(w[0].node < w[1].node, "FIFO violated within a depth");
                }
            }
        }

        /// Batched push/pop is observationally identical to per-task
        /// push/pop: for any partition of the pushes into bursts and any
        /// interleaving of batched pops, the two pools pop the exact same
        /// task sequence.
        #[test]
        fn batched_ops_match_per_task_ops(
            bursts in proptest::collection::vec(
                proptest::collection::vec(0usize..6, 0..8), 1..12),
            pop_chunks in proptest::collection::vec(1usize..5, 1..12),
        ) {
            let per_task = DepthPool::new();
            let batched = DepthPool::new();
            let mut label = 0usize;
            let mut popped_single: Vec<Task<usize>> = Vec::new();
            let mut popped_batched: VecDeque<Task<usize>> = VecDeque::new();
            let mut chunks = pop_chunks.iter().cycle();
            for burst in &bursts {
                let mut buf: Vec<Task<usize>> = Vec::new();
                for &depth in burst {
                    per_task.push(Task::new(label, depth));
                    buf.push(Task::new(label, depth));
                    label += 1;
                }
                batched.push_batch(&mut buf);
                // Interleave: pop a chunk from both pools after each burst.
                let chunk = *chunks.next().unwrap();
                let taken = batched.pop_batch(chunk, &mut popped_batched);
                for _ in 0..chunk {
                    if let Some(task) = per_task.pop() {
                        popped_single.push(task);
                    }
                }
                prop_assert_eq!(taken, popped_single.len() - (popped_batched.len() - taken),
                    "batched and per-task pops must take the same number");
            }
            // Drain the rest.
            while let Some(task) = per_task.pop() {
                popped_single.push(task);
            }
            batched.pop_batch(usize::MAX, &mut popped_batched);
            let batched_seq: Vec<Task<usize>> = popped_batched.into_iter().collect();
            prop_assert_eq!(popped_single, batched_seq);
        }
    }
}
