//! The priority-ordered global workpool of the Ordered coordination.
//!
//! Where [`DepthPool`](super::DepthPool) prioritises tasks by the *depth* at
//! which they were generated, [`OrderedPool`] prioritises them by their
//! **sequence key**: the path of child indices from the root to the task's
//! root node.  Sequence keys compare lexicographically, which is exactly the
//! depth-first *preorder* of the search tree (a prefix sorts before its
//! extensions, siblings sort by heuristic child index).  Draining an
//! `OrderedPool` smallest-key-first therefore replays the sequential search
//! order — the property the Ordered coordination builds its replicability
//! guarantee on.
//!
//! The tie-break is documented and deterministic: entries are ordered by
//! `(sequence key, arrival index)`, so two entries pushed with the same key
//! (which the skeleton never does, but the pool does not forbid) pop in FIFO
//! order, and the pop sequence is a pure function of the arrival-stamped push
//! history.
//!
//! # Sharded insertion
//!
//! The pool is logically *global* — the Ordered coordination's whole point is
//! that every pop observes the one true sequential frontier — but it no
//! longer serialises every push on the heap mutex.  Physically it is a
//! two-level structure:
//!
//! * per-worker **insertion buffers** ([`with_shards`](OrderedPool::with_shards)):
//!   a push stamps a global arrival index (one relaxed `fetch_add`) and
//!   appends to its own shard's small mutex-guarded buffer, so concurrent
//!   pushers on different shards never contend;
//! * a **global heap**: every consuming operation (`pop`, `min_key`, `len`,
//!   `clear`, `purge_after`) locks the heap and first *drains* every
//!   non-empty insertion buffer into it (an atomic `occupied` flag per shard
//!   lets empty buffers be skipped with one relaxed load, no lock), then
//!   operates on the heap.
//!
//! Because each entry carries its arrival stamp from the moment it is pushed,
//! the `(key, arrival)` pop order is independent of *when* entries migrate
//! from a buffer into the heap, and the single-heap semantics — including the
//! exact-count contracts of [`clear`](OrderedPool::clear) and
//! [`purge_after`](OrderedPool::purge_after) — are preserved: every entry
//! transitions buffer → heap exactly once, under both locks, and is then
//! accounted by exactly one pop, purge, or clear.
//!
//! Lock order is heap → buffer.  A push takes only its buffer lock, so there
//! is no deadlock, and a push that lands while a drain is mid-scan is simply
//! observed by the next draining operation — indistinguishable from the push
//! happening slightly later, which is within the pool's documented
//! "empty/minimum at this instant" concurrency contract.

use crate::sync::{AtomicBool, AtomicU64, Mutex, Ordering};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// The sequence key of a task: the path of heuristic child indices from the
/// search-tree root to the task's root node.  The root itself has the empty
/// key.  `Ord` is the derived lexicographic order on the underlying path,
/// which coincides with depth-first preorder of the tree.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeqKey(Vec<u32>);

impl SeqKey {
    /// The key of the search-tree root (the empty path).
    pub fn root() -> Self {
        SeqKey(Vec::new())
    }

    /// The key of this node's `index`-th child (0 = the heuristically best
    /// child, i.e. the one the sequential search explores first).
    ///
    /// Allocates a fresh path; hot paths that mint keys per node should use
    /// [`KeyArena::child_of`](super::KeyArena::child_of), which recycles
    /// retired key allocations instead.
    pub fn child(&self, index: u32) -> Self {
        let mut path = Vec::with_capacity(self.0.len() + 1);
        path.extend_from_slice(&self.0);
        path.push(index);
        SeqKey(path)
    }

    /// Depth of the node this key addresses (the root has depth 0).
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// The underlying path of child indices.
    pub fn path(&self) -> &[u32] {
        &self.0
    }

    /// Wrap an explicit path (the arena's constructor).
    pub(crate) fn from_path(path: Vec<u32>) -> Self {
        SeqKey(path)
    }

    /// Surrender the underlying allocation (the arena's recycler).
    pub(crate) fn into_path(self) -> Vec<u32> {
        self.0
    }
}

impl std::fmt::Display for SeqKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        for (i, step) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{step}")?;
        }
        write!(f, "⟩")
    }
}

/// One heap entry: priority `(key, arrival)`, payload `item`.  Only the
/// priority participates in the ordering, so `T` needs no bounds.
struct Entry<T> {
    key: SeqKey,
    arrival: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.arrival == other.arrival
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then(self.arrival.cmp(&other.arrival))
    }
}

/// A per-shard insertion buffer.  `occupied` is only ever written under the
/// buffer lock; draining operations read it optimistically to skip empty
/// shards without locking them.
struct InsertShard<T> {
    buffer: Mutex<Vec<Entry<T>>>,
    occupied: AtomicBool,
}

impl<T> Default for InsertShard<T> {
    fn default() -> Self {
        InsertShard {
            buffer: Mutex::new(Vec::new()),
            occupied: AtomicBool::new(false),
        }
    }
}

/// A priority-ordered workpool: smallest sequence key first, FIFO (arrival
/// order) among equal keys.  See the module docs for the sharded-insertion
/// design; [`new`](Self::new) builds the degenerate single-shard pool, which
/// behaves exactly like the former single-mutex implementation.
pub struct OrderedPool<T> {
    shards: Vec<InsertShard<T>>,
    heap: Mutex<BinaryHeap<Reverse<Entry<T>>>>,
    arrivals: AtomicU64,
}

impl<T> Default for OrderedPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OrderedPool<T> {
    /// An empty single-shard pool.
    pub fn new() -> Self {
        Self::with_shards(1)
    }

    /// An empty pool with one insertion buffer per worker (at least one).
    pub fn with_shards(shards: usize) -> Self {
        OrderedPool {
            shards: (0..shards.max(1)).map(|_| InsertShard::default()).collect(),
            heap: Mutex::new(BinaryHeap::new()),
            arrivals: AtomicU64::new(0),
        }
    }

    /// Number of insertion shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Stamp the next arrival index.  Relaxed suffices: the stamp only has to
    /// be unique and monotone over the pushes that race for it, and the entry
    /// it tags is published under the buffer lock.
    fn stamp(&self) -> u64 {
        // ordering: only the RMW's atomicity matters (unique, monotone
        // stamps); the stamped entry is published under the buffer lock
        // (model-checked:
        // `model_check::equal_keys_pop_in_arrival_order_and_every_entry_is_accounted`).
        self.arrivals.fetch_add(1, Ordering::Relaxed)
    }

    /// Queue `item` under `key` via shard 0.  Arrival order is recorded so
    /// that pops are deterministic even among equal keys.
    pub fn push(&self, key: SeqKey, item: T) {
        self.push_from(0, key, item);
    }

    /// Queue `item` under `key` via the calling worker's insertion shard.
    pub fn push_from(&self, shard: usize, key: SeqKey, item: T) {
        let shard = &self.shards[shard];
        let mut buffer = shard.buffer.lock();
        let arrival = self.stamp();
        buffer.push(Entry { key, arrival, item });
        shard.occupied.store(true, Ordering::Release);
    }

    /// Queue a whole burst of entries via one insertion shard under a single
    /// buffer lock.  Entries receive consecutive arrival stamps in iterator
    /// order, so the burst pops in its generated (heuristic) order among
    /// equal keys — identical to pushing them one at a time.
    pub fn push_batch_from(&self, shard: usize, entries: impl IntoIterator<Item = (SeqKey, T)>) {
        let shard = &self.shards[shard];
        let mut buffer = shard.buffer.lock();
        let mut any = false;
        for (key, item) in entries {
            let arrival = self.stamp();
            buffer.push(Entry { key, arrival, item });
            any = true;
        }
        if any {
            shard.occupied.store(true, Ordering::Release);
        }
    }

    /// Migrate every buffered entry into the heap.  Must be called with the
    /// heap lock held (lock order heap → buffer); empty shards cost one
    /// relaxed load each.
    fn drain_into(&self, heap: &mut BinaryHeap<Reverse<Entry<T>>>) {
        for shard in &self.shards {
            if !shard.occupied.load(Ordering::Acquire) {
                continue;
            }
            let mut buffer = shard.buffer.lock();
            for entry in buffer.drain(..) {
                heap.push(Reverse(entry));
            }
            shard.occupied.store(false, Ordering::Release);
        }
    }

    /// Remove and return the entry with the smallest `(key, arrival)`
    /// priority.
    ///
    /// As with the depth pools, `None` only means "empty at this instant":
    /// with concurrent producers a later pop may succeed, so callers must
    /// pair an empty pop with a termination check rather than treating it as
    /// end-of-search.
    pub fn pop(&self) -> Option<(SeqKey, T)> {
        let mut heap = self.heap.lock();
        self.drain_into(&mut heap);
        let Reverse(entry) = heap.pop()?;
        Some((entry.key, entry.item))
    }

    /// The smallest queued sequence key, if any (a snapshot — it may be gone
    /// by the time the caller acts, which matters only for heuristics, and
    /// for the Ordered commit check, which re-verifies under its own lock).
    pub fn min_key(&self) -> Option<SeqKey> {
        let mut heap = self.heap.lock();
        self.drain_into(&mut heap);
        heap.peek().map(|Reverse(e)| e.key.clone())
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        let mut heap = self.heap.lock();
        self.drain_into(&mut heap);
        heap.len()
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discard every queued entry, returning exactly how many were dropped.
    /// The count is taken under the heap lock after draining the insertion
    /// buffers, so a concurrently popped entry is counted by its pop, never
    /// by `clear`: over a whole run, `pops + cleared == pushes`.
    pub fn clear(&self) -> usize {
        let mut heap = self.heap.lock();
        self.drain_into(&mut heap);
        let dropped = heap.len();
        heap.clear();
        dropped
    }

    /// Discard every queued entry whose key sorts strictly after `bound`,
    /// returning exactly how many were dropped.  This is the Ordered
    /// coordination's speculation-cancellation primitive: once a decision
    /// witness with sequence key `bound` is pending, every queued task with a
    /// later key can only ever produce work the commit will throw away.  The
    /// count is exact for the same reason as [`clear`](Self::clear): it is
    /// taken under the heap lock after draining the buffers, so each entry is
    /// accounted either by its pop or by exactly one purge.
    pub fn purge_after(&self, bound: &SeqKey) -> usize {
        let mut heap = self.heap.lock();
        self.drain_into(&mut heap);
        let before = heap.len();
        let retained: BinaryHeap<Reverse<Entry<T>>> = heap
            .drain()
            .filter(|Reverse(entry)| entry.key <= *bound)
            .collect();
        *heap = retained;
        before - heap.len()
    }
}

impl<T> std::fmt::Debug for OrderedPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedPool")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

/// What [`CommitLog::retire`] decided besides logging the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// `Some(n)` when the retiring task's witness became the pending
    /// witness (the first, or one sequentially earlier than the last):
    /// `n` queued tasks keyed after it were purged from the pool.  `None`
    /// when the pending witness did not move, or was already committed.
    pub purged: Option<usize>,
    /// True when this retirement committed the pending witness: nothing
    /// sequentially earlier is in flight or queued any more, so the search
    /// stops.
    pub committed: bool,
}

/// The Ordered coordination's in-order commit rule, shared by the threaded
/// skeleton and the virtual-time simulator: a decision witness is committed
/// in sequential (key) order, and work keyed after it is speculation to
/// reclaim or discard.
///
/// The log tracks the in-flight keys, folds witnesses into the pending one
/// (which only ever moves *earlier*), and keeps one record of caller-defined
/// counters `R` per retired task, classified committed or speculative
/// against the final witness.  It is single-threaded and clock-agnostic:
/// the caller serialises access (the threaded source holds it under a
/// mutex, and that lock spans every pool pop so the commit check never
/// misses a task that is neither queued nor in flight) and passes the
/// sequence-keyed pool by reference wherever the rule needs to look at or
/// purge the queue.
pub struct CommitLog<R> {
    /// Sequence keys of issued-but-not-retired tasks.
    in_flight: BTreeSet<SeqKey>,
    /// Smallest sequence key that produced a decision witness so far.
    witness: Option<SeqKey>,
    /// True once the witness has been committed.
    committed: bool,
    /// One record per retired task, speculative or not.
    records: Vec<(SeqKey, R)>,
}

impl<R> Default for CommitLog<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R> CommitLog<R> {
    /// An empty log: nothing in flight, no witness.
    pub fn new() -> Self {
        CommitLog {
            in_flight: BTreeSet::new(),
            witness: None,
            committed: false,
            records: Vec::new(),
        }
    }

    /// The pending (or committed) witness key, if any task found one.
    pub fn witness(&self) -> Option<&SeqKey> {
        self.witness.as_ref()
    }

    /// True once [`retire`](Self::retire) has committed the witness.
    pub fn is_committed(&self) -> bool {
        self.committed
    }

    /// True when a witness is pending — found but not yet committed — and
    /// `key` sorts after it: the task can only produce work the commit will
    /// discard, so a queued one should be skipped and a running one
    /// cancelled.
    pub fn after_witness(&self, key: &SeqKey) -> bool {
        !self.committed && self.witness.as_ref().is_some_and(|w| key > w)
    }

    /// Mark a freshly popped task in flight.  Returns true when the issue is
    /// a priority inversion: a sequentially earlier task is still running.
    pub fn issue(&mut self, key: SeqKey) -> bool {
        let inversion = self.in_flight.first().is_some_and(|min| *min < key);
        self.in_flight.insert(key);
        inversion
    }

    /// Retire a task: log its `record`, and when it `witnessed` the target
    /// with a key earlier than the pending witness, make it the pending
    /// witness and purge every queued task keyed after it from `pool`.
    /// Then commit once nothing sequentially earlier than the witness is in
    /// flight or queued.  A task that did not witness (finished, pruned,
    /// cancelled or aborted) can still unblock the commit by leaving the
    /// in-flight set.
    pub fn retire<T>(
        &mut self,
        pool: &OrderedPool<T>,
        key: SeqKey,
        record: R,
        witnessed: bool,
    ) -> Retired {
        self.in_flight.remove(&key);
        let mut purged = None;
        if witnessed && self.witness.as_ref().map_or(true, |w| key < *w) {
            if !self.committed {
                purged = Some(pool.purge_after(&key));
            }
            self.witness = Some(key.clone());
        }
        self.records.push((key, record));
        let committed = !self.committed
            && self.witness.as_ref().is_some_and(|w| {
                self.in_flight.first().map_or(true, |min| min >= w)
                    && pool.min_key().map_or(true, |min| min >= *w)
            });
        self.committed |= committed;
        Retired { purged, committed }
    }

    /// Records of the committed tasks: every task when no witness was found,
    /// otherwise those keyed at or before the witness.
    pub fn committed_records(&self) -> impl Iterator<Item = &R> {
        self.classified(true)
    }

    /// Records of the speculative tasks: those keyed after the witness,
    /// whose work the commit discards.
    pub fn speculative_records(&self) -> impl Iterator<Item = &R> {
        self.classified(false)
    }

    fn classified(&self, committed: bool) -> impl Iterator<Item = &R> {
        self.records
            .iter()
            .filter(move |(key, _)| self.witness.as_ref().map_or(true, |w| key <= w) == committed)
            .map(|(_, record)| record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(path: &[u32]) -> SeqKey {
        path.iter().fold(SeqKey::root(), |k, &i| k.child(i))
    }

    #[test]
    fn sequence_keys_order_as_dfs_preorder() {
        // A parent sorts before its children; children sort before the
        // parent's later siblings; siblings sort by child index.
        let root = SeqKey::root();
        let c0 = root.child(0);
        let c0_5 = c0.child(5);
        let c1 = root.child(1);
        assert!(root < c0);
        assert!(c0 < c0_5);
        assert!(c0_5 < c1, "a whole subtree precedes the next sibling");
        assert_eq!(c0_5.depth(), 2);
        assert_eq!(c0_5.path(), &[0, 5]);
        assert_eq!(c0_5.to_string(), "⟨0.5⟩");
        assert_eq!(root.to_string(), "⟨⟩");
    }

    #[test]
    fn pops_smallest_key_first() {
        let pool = OrderedPool::new();
        pool.push(key(&[1]), "right");
        pool.push(key(&[0, 2]), "left-deep");
        pool.push(key(&[0]), "left");
        assert_eq!(pool.pop().unwrap().1, "left");
        assert_eq!(pool.pop().unwrap().1, "left-deep");
        assert_eq!(pool.pop().unwrap().1, "right");
        assert!(pool.pop().is_none());
    }

    #[test]
    fn equal_keys_pop_in_arrival_order() {
        let pool = OrderedPool::new();
        for i in 0..10 {
            pool.push(key(&[3]), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| pool.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>(), "tie-break must be FIFO");
    }

    #[test]
    fn len_and_exact_clear_counts() {
        let pool = OrderedPool::new();
        assert!(pool.is_empty());
        pool.push(key(&[0]), 1);
        pool.push(key(&[1]), 2);
        pool.push(key(&[2]), 3);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.min_key(), Some(key(&[0])));
        assert_eq!(pool.clear(), 3, "clear must report exactly what it drops");
        assert!(pool.is_empty());
        assert_eq!(pool.clear(), 0);
        assert!(pool.pop().is_none());
        assert_eq!(pool.min_key(), None);
    }

    #[test]
    fn purge_after_drops_only_later_keys_and_counts_exactly() {
        let pool = OrderedPool::new();
        pool.push(key(&[0]), "left");
        pool.push(key(&[1]), "witness");
        pool.push(key(&[1, 0]), "inside-witness-subtree");
        pool.push(key(&[2]), "after");
        pool.push(key(&[2, 3]), "after-deep");
        assert_eq!(pool.purge_after(&key(&[1])), 3, "⟨1.0⟩, ⟨2⟩ and ⟨2.3⟩ go");
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.pop().unwrap().1, "left");
        assert_eq!(pool.pop().unwrap().1, "witness");
        assert!(pool.pop().is_none());
        assert_eq!(
            pool.purge_after(&key(&[1])),
            0,
            "purging empty drops nothing"
        );
    }

    #[test]
    fn purge_after_keeps_the_bound_key_itself() {
        let pool = OrderedPool::new();
        pool.push(key(&[4]), ());
        assert_eq!(pool.purge_after(&key(&[4])), 0, "bound key is not 'after'");
        assert_eq!(pool.purge_after(&key(&[3, 9])), 1, "⟨4⟩ > ⟨3.9⟩ is purged");
        assert!(pool.is_empty());
    }

    /// One step of a [`CommitLog`] scenario, driven the way both engines
    /// drive it: a popped key goes through the straggler test, and only a
    /// key that passes it is issued.
    enum Step {
        Push(&'static [u32]),
        /// Pop and issue this key, expecting the given inversion verdict.
        Issue(&'static [u32], bool),
        /// Pop this key and expect the straggler test to skip it.
        Skip(&'static [u32]),
        /// Retire `(key, witnessed)`, expecting `(purged, committed)`.
        Retire(&'static [u32], bool, Option<usize>, bool),
    }

    #[test]
    fn commit_log_applies_the_ordered_commit_rule() {
        use Step::*;
        type Keys = &'static [&'static [u32]];
        // (scenario, steps, final witness, committed records, speculative records)
        type Scenario = (&'static str, Vec<Step>, Option<&'static [u32]>, Keys, Keys);
        let scenarios: [Scenario; 4] = [
            (
                "no witness: every record commits, the log never does",
                vec![
                    Push(&[0]),
                    Push(&[1]),
                    Issue(&[0], false),
                    Issue(&[1], true),
                    Retire(&[1], false, None, false),
                    Retire(&[0], false, None, false),
                ],
                None,
                &[&[1], &[0]],
                &[],
            ),
            (
                // ⟨2⟩ purges ⟨3⟩ and ⟨4⟩; ⟨1⟩ moves the witness earlier with
                // nothing left to purge; ⟨0⟩ was the last earlier task.
                "the witness only moves earlier, purging what sorts after it",
                vec![
                    Push(&[0]),
                    Push(&[1]),
                    Push(&[2]),
                    Push(&[3]),
                    Push(&[4]),
                    Issue(&[0], false),
                    Issue(&[1], true),
                    Issue(&[2], true),
                    Retire(&[2], true, Some(2), false),
                    Retire(&[1], true, Some(0), false),
                    Retire(&[0], false, None, true),
                ],
                Some(&[1]),
                &[&[1], &[0]],
                &[&[2]],
            ),
            (
                // ⟨1.3⟩ is a child released after the purge.
                "a later witness does not move it; stragglers are skipped",
                vec![
                    Push(&[0]),
                    Push(&[1]),
                    Push(&[2]),
                    Issue(&[0], false),
                    Issue(&[1], true),
                    Issue(&[2], true),
                    Retire(&[1], true, Some(0), false),
                    Retire(&[2], true, None, false),
                    Push(&[1, 3]),
                    Skip(&[1, 3]),
                    Retire(&[0], false, None, true),
                ],
                Some(&[1]),
                &[&[1], &[0]],
                &[&[2]],
            ),
            (
                // ⟨0⟩ releases ⟨0.0⟩, which sorts before the witness: the
                // commit waits for it after ⟨0⟩ itself retires.
                "no commit while an earlier key is queued or in flight",
                vec![
                    Push(&[0]),
                    Push(&[1]),
                    Issue(&[0], false),
                    Issue(&[1], true),
                    Push(&[0, 0]),
                    Retire(&[1], true, Some(0), false),
                    Retire(&[0], false, None, false),
                    Issue(&[0, 0], false),
                    Retire(&[0, 0], false, None, true),
                ],
                Some(&[1]),
                &[&[1], &[0], &[0, 0]],
                &[],
            ),
        ];
        for (name, steps, witness, committed, speculative) in scenarios {
            let pool = OrderedPool::new();
            let mut log = CommitLog::new();
            for step in steps {
                match step {
                    Push(path) => pool.push(key(path), ()),
                    Issue(path, inversion) => {
                        let (popped, ()) = pool.pop().expect("a queued task");
                        assert_eq!(popped, key(path), "{name}: pop order");
                        assert!(!log.after_witness(&popped), "{name}: {popped} runs");
                        assert_eq!(log.issue(popped), inversion, "{name}: {path:?}");
                    }
                    Skip(path) => {
                        let (popped, ()) = pool.pop().expect("a queued task");
                        assert_eq!(popped, key(path), "{name}: pop order");
                        assert!(log.after_witness(&popped), "{name}: {popped} skips");
                    }
                    Retire(path, witnessed, purged, committed) => assert_eq!(
                        log.retire(&pool, key(path), path, witnessed),
                        Retired { purged, committed },
                        "{name}: retiring {path:?}"
                    ),
                }
            }
            assert_eq!(log.witness(), witness.map(key).as_ref(), "{name}");
            let records: Vec<&[u32]> = log.committed_records().copied().collect();
            assert_eq!(records, committed, "{name}: committed");
            let records: Vec<&[u32]> = log.speculative_records().copied().collect();
            assert_eq!(records, speculative, "{name}: speculative");
            if witness.is_some() {
                assert!(!log.after_witness(&key(&[9])), "{name}: committed");
            }
        }
    }

    proptest! {
        /// purge_after + drain partitions the pushes exactly: dropped entries
        /// are precisely those with key > bound, survivors still pop sorted.
        #[test]
        fn purge_after_partitions_by_key(paths in proptest::collection::vec(
            proptest::collection::vec(0u32..4, 0..5), 1..64),
            bound in proptest::collection::vec(0u32..4, 0..4)) {
            let pool = OrderedPool::new();
            for (i, p) in paths.iter().enumerate() {
                pool.push(key(p), i);
            }
            let bound = key(&bound);
            let expected_dropped = paths.iter().filter(|p| key(p) > bound).count();
            prop_assert_eq!(pool.purge_after(&bound), expected_dropped);
            let survivors: Vec<SeqKey> =
                std::iter::from_fn(|| pool.pop().map(|(k, _)| k)).collect();
            prop_assert_eq!(survivors.len(), paths.len() - expected_dropped);
            for k in &survivors {
                prop_assert!(*k <= bound);
            }
            for w in survivors.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn clear_never_double_counts_concurrent_pops() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = Arc::new(OrderedPool::new());
        for i in 0..1000u32 {
            pool.push(key(&[i % 7, i]), i);
        }
        let popped = Arc::new(AtomicUsize::new(0));
        let dropped = std::thread::scope(|s| {
            for _ in 0..3 {
                let pool = Arc::clone(&pool);
                let popped = Arc::clone(&popped);
                s.spawn(move || {
                    let mut local = 0;
                    for _ in 0..200 {
                        if pool.pop().is_some() {
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

    /// Concurrent pushers with disjoint key ranges, then a single drain: the
    /// pop order must be fully sorted regardless of push interleaving —
    /// deterministic pop order is the pool's contract.
    #[test]
    fn concurrent_pushes_still_drain_in_sorted_order() {
        use std::sync::Arc;
        let pool = Arc::new(OrderedPool::new());
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..250u32 {
                        pool.push(key(&[t, i]), (t, i));
                    }
                });
            }
        });
        assert_eq!(pool.len(), 1000);
        let drained: Vec<SeqKey> = std::iter::from_fn(|| pool.pop().map(|(k, _)| k)).collect();
        assert_eq!(drained.len(), 1000);
        for w in drained.windows(2) {
            assert!(w[0] < w[1], "pop order must be strictly key-sorted");
        }
    }

    /// The same contract with each pusher on its *own insertion shard* — the
    /// configuration the Ordered skeleton actually runs.
    #[test]
    fn concurrent_sharded_pushes_still_drain_in_sorted_order() {
        use std::sync::Arc;
        let pool = Arc::new(OrderedPool::with_shards(4));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..250u32 {
                        pool.push_from(t as usize, key(&[t, i]), (t, i));
                    }
                });
            }
        });
        assert_eq!(pool.len(), 1000);
        let drained: Vec<SeqKey> = std::iter::from_fn(|| pool.pop().map(|(k, _)| k)).collect();
        assert_eq!(drained.len(), 1000);
        for w in drained.windows(2) {
            assert!(w[0] < w[1], "pop order must be strictly key-sorted");
        }
    }

    /// Interleaved push/pop from multiple threads: every pop a consumer
    /// observes must be the smallest key present at that instant *among the
    /// keys it can reason about* — verified globally by checking that no
    /// task is ever lost and the final drain is sorted.
    #[test]
    fn interleaved_push_pop_from_multiple_threads_loses_nothing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = Arc::new(OrderedPool::new());
        let consumed = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..500u32 {
                        pool.push(key(&[i % 5, t]), (t, i));
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
        assert_eq!(consumed.load(Ordering::SeqCst) + pool.len(), 1000);
    }

    proptest! {
        /// The pool is a priority queue keyed by (sequence key, arrival):
        /// for any push history the pop sequence is sorted by key, FIFO
        /// within a key — i.e. pops are a deterministic function of pushes.
        #[test]
        fn pop_order_is_key_then_fifo(paths in proptest::collection::vec(
            proptest::collection::vec(0u32..4, 0..5), 1..64)) {
            let pool = OrderedPool::new();
            for (i, p) in paths.iter().enumerate() {
                pool.push(key(p), i);
            }
            let popped: Vec<(SeqKey, usize)> = std::iter::from_fn(|| pool.pop()).collect();
            prop_assert_eq!(popped.len(), paths.len());
            for w in popped.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "key order violated");
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 < w[1].1, "FIFO violated within a key");
                }
            }
        }

        /// The sharded pool is observationally identical to the single-heap
        /// reference: for any push history spread over any shard assignment,
        /// with pops interleaved between bursts, the pop sequence equals a
        /// stable sort of the pushes by key (stability = arrival order) —
        /// i.e. exactly what the former single-mutex heap produced.
        #[test]
        fn sharded_pops_match_the_single_heap_reference(
            bursts in proptest::collection::vec(
                proptest::collection::vec(proptest::collection::vec(0u32..4, 0..5), 0..8),
                1..10),
            shards in 1usize..6,
            pop_between in proptest::collection::vec(0usize..4, 1..10),
        ) {
            let pool = OrderedPool::with_shards(shards);
            // Reference model: stable sort by key of (key, push index).
            let mut reference: Vec<(SeqKey, usize)> = Vec::new();
            let mut popped: Vec<(SeqKey, usize)> = Vec::new();
            let mut label = 0usize;
            let mut pops = pop_between.iter().cycle();
            for (b, burst) in bursts.iter().enumerate() {
                let entries: Vec<(SeqKey, usize)> = burst
                    .iter()
                    .map(|p| {
                        let entry = (key(p), label);
                        label += 1;
                        entry
                    })
                    .collect();
                reference.extend(entries.iter().cloned());
                pool.push_batch_from(b % shards, entries);
                for _ in 0..*pops.next().unwrap() {
                    if let Some(entry) = pool.pop() {
                        popped.push(entry);
                    }
                }
            }
            while let Some(entry) = pool.pop() {
                popped.push(entry);
            }
            // An interleaved pop takes the minimum of what has arrived so
            // far, which for single-threaded use equals the global minimum of
            // the remaining entries — so the full pop sequence must equal the
            // stable-sorted push history.
            reference.sort_by(|a, b| a.0.cmp(&b.0));
            prop_assert_eq!(popped.len(), reference.len());
            // Verify the multiset and ordering rather than exact equality:
            // an early pop may precede a later, smaller push, exactly as in
            // the single-heap pool popped at the same instants.  Replay the
            // same schedule against a fresh single-shard pool for the exact
            // oracle.
            let single = OrderedPool::new();
            let mut single_popped: Vec<(SeqKey, usize)> = Vec::new();
            let mut label2 = 0usize;
            let mut pops2 = pop_between.iter().cycle();
            for burst in bursts.iter() {
                for p in burst {
                    single.push(key(p), label2);
                    label2 += 1;
                }
                for _ in 0..*pops2.next().unwrap() {
                    if let Some(entry) = single.pop() {
                        single_popped.push(entry);
                    }
                }
            }
            while let Some(entry) = single.pop() {
                single_popped.push(entry);
            }
            prop_assert_eq!(popped, single_popped);
        }
    }
}

/// [`OrderedPool`]'s sharded push, pop and purge under the interleaving
/// model checker.
#[cfg(all(test, feature = "model-check"))]
mod model_check {
    use super::*;
    use std::sync::atomic::Ordering as StdOrdering;
    use std::sync::atomic::{AtomicBool as Witness, AtomicUsize as Tally};
    use std::sync::Arc;
    use yewpar_check::sched::{run, Config, Strategy};
    use yewpar_check::thread;

    /// Entry 0 is queued under key `k` before the race; a pusher then
    /// queues entry 1 under `k` and entry 2 under a later key on another
    /// shard, while a purger cuts everything after `k` and the main thread
    /// pops.
    /// Entries 0 and 1 pop in arrival order, and every entry is popped or
    /// purged exactly once.
    #[test]
    fn equal_keys_pop_in_arrival_order_and_every_entry_is_accounted() {
        let raced = Arc::new(Witness::new(false));
        let witness = Arc::clone(&raced);
        let config = Config {
            preemption_bound: Some(3),
            ..Config::default()
        };
        let report = run("ordered-pool", Strategy::Dfs, &config, move || {
            let k = SeqKey::root().child(0);
            let pool = Arc::new(OrderedPool::with_shards(2));
            pool.push_from(0, k.clone(), 0u32);
            let pusher = {
                let pool = Arc::clone(&pool);
                let k = k.clone();
                thread::spawn_named("pusher", move || {
                    pool.push_from(1, k.clone(), 1);
                    pool.push_from(1, k.child(0), 2);
                })
            };
            let purged = Arc::new(Tally::new(0));
            let purger = {
                let pool = Arc::clone(&pool);
                let purged = Arc::clone(&purged);
                thread::spawn_named("purger", move || {
                    purged.store(pool.purge_after(&k), StdOrdering::Relaxed);
                })
            };
            // The main thread is the racing consumer.
            let first = pool.pop();
            pusher.join();
            purger.join();
            let purged = purged.load(StdOrdering::Relaxed);
            if first.is_some() && purged == 1 {
                witness.store(true, StdOrdering::Relaxed);
            }
            let popped: Vec<u32> = first
                .into_iter()
                .chain(std::iter::from_fn(|| pool.pop()))
                .map(|(_, item)| item)
                .collect();
            let equal_keys: Vec<u32> = popped.iter().copied().filter(|&i| i < 2).collect();
            assert_eq!(equal_keys, [0, 1], "equal keys popped out of arrival order");
            assert_eq!(
                popped.len() + purged,
                3,
                "popped {popped:?} and purged {purged} of three entries"
            );
        });
        report.assert_ok();
        assert!(
            raced.load(StdOrdering::Relaxed),
            "no schedule had both a racing pop and a purge"
        );
    }
}
