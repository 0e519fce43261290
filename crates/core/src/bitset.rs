//! Word-array bitsets with inline storage.
//!
//! The clique and subgraph-isomorphism applications represent vertex sets as
//! bitsets so that the hot set operations (intersection, popcount, first
//! set bit) compile down to word-wide instructions — the paper notes this
//! representation "enables vectorisation of set operations, which is known
//! to speed up Maximum Clique implementations up to 20-fold" (§4.1).
//!
//! The paper's sets are fixed-size `std::bitset<N>`: a search-tree node is
//! plain inline words, so copying one is a copy, at the price of a binary
//! compiled for each `N`.  [`BitSet`] sizes itself to the instance at
//! construction time instead and keeps the paper's cheap copy up to 512
//! values: those words live inline (eight `u64`s, one cache line), so
//! cloning, refilling and every set operation stay off the heap.
//! A set with a larger capacity spills its words to a `Vec`, which its
//! `clone` allocates and its `clone_from` reuses.
//!
//! The word-level operations are `#[inline]`: the kernels that call them
//! (the clique colouring, the candidate updates) live in another crate,
//! and a call per five-word intersection would cost more than the work.

const WORD_BITS: usize = 64;
/// Words held inline before a set spills to the heap.
const INLINE_WORDS: usize = 8;
/// The largest capacity whose words are held inline.
const INLINE_BITS: usize = INLINE_WORDS * WORD_BITS;

/// Word storage: inline for capacities up to `INLINE_BITS`, a heap
/// vector of exactly the live words beyond.  Inline words past the live
/// ones are never written and stay zero.
#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Spilled(Vec<u64>),
}

/// The live words of an inline set of `capacity` values.  The `min` never
/// binds (an inline capacity is at most `INLINE_BITS`); it only lets the
/// compiler see that the slice fits the inline array.
#[inline]
fn inline_len(capacity: usize) -> usize {
    capacity.div_ceil(WORD_BITS).min(INLINE_WORDS)
}

/// A set of small unsigned integers stored as an array of 64-bit words.
pub struct BitSet {
    words: Words,
    /// Number of valid bits; bits at index >= capacity are always zero.
    capacity: usize,
}

impl BitSet {
    /// An empty set able to hold the values `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        let words = if capacity <= INLINE_BITS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Spilled(vec![0; capacity.div_ceil(WORD_BITS)])
        };
        BitSet { words, capacity }
    }

    /// A set containing every value in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::new(capacity);
        s.as_mut_slice().fill(u64::MAX);
        s.trim();
        s
    }

    /// Build a set from an iterator of members (all must be `< capacity`).
    pub fn from_iter(capacity: usize, members: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(capacity);
        for m in members {
            s.insert(m);
        }
        s
    }

    /// The number of values this set can hold (`0..capacity`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The live words, `capacity.div_ceil(64)` of them.
    #[inline]
    fn as_slice(&self) -> &[u64] {
        match &self.words {
            Words::Inline(words) => &words[..inline_len(self.capacity)],
            Words::Spilled(words) => words,
        }
    }

    /// The live words, mutably.  Private: callers outside this module must
    /// not be able to set a bit at or beyond `capacity`.
    #[inline]
    fn as_mut_slice(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(words) => &mut words[..inline_len(self.capacity)],
            Words::Spilled(words) => words,
        }
    }

    /// The word holding bit `value`, which must be below `capacity`.  The
    /// single-bit operations index the storage directly: the live-word
    /// count `as_slice` works out would only repeat their range check.
    #[inline]
    fn word(&self, value: usize) -> &u64 {
        match &self.words {
            Words::Inline(words) => &words[value / WORD_BITS],
            Words::Spilled(words) => &words[value / WORD_BITS],
        }
    }

    /// The word holding bit `value`, mutably (`value < capacity`).
    #[inline]
    fn word_mut(&mut self, value: usize) -> &mut u64 {
        match &mut self.words {
            Words::Inline(words) => &mut words[value / WORD_BITS],
            Words::Spilled(words) => &mut words[value / WORD_BITS],
        }
    }

    /// Clear any bits beyond `capacity` (maintains the internal invariant).
    fn trim(&mut self) {
        let spare = self.capacity.div_ceil(WORD_BITS) * WORD_BITS - self.capacity;
        if spare > 0 {
            if let Some(last) = self.as_mut_slice().last_mut() {
                *last &= u64::MAX >> spare;
            }
        }
    }

    /// Add `value` to the set.
    ///
    /// # Panics
    /// Panics if `value >= capacity`.
    #[inline]
    pub fn insert(&mut self, value: usize) {
        assert!(
            value < self.capacity,
            "bit {value} out of range 0..{}",
            self.capacity
        );
        *self.word_mut(value) |= 1 << (value % WORD_BITS);
    }

    /// Remove `value` from the set (no-op if absent or out of range).
    #[inline]
    pub fn remove(&mut self, value: usize) {
        if value < self.capacity {
            *self.word_mut(value) &= !(1 << (value % WORD_BITS));
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, value: usize) -> bool {
        value < self.capacity && (self.word(value) >> (value % WORD_BITS)) & 1 == 1
    }

    /// Number of members.
    #[inline]
    pub fn count(&self) -> usize {
        self.as_slice()
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// True when the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().iter().all(|&w| w == 0)
    }

    /// Remove all members.
    pub fn clear(&mut self) {
        self.as_mut_slice().fill(0);
    }

    /// In-place intersection with `other` (sets must have equal capacity).
    #[inline]
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a &= b;
        }
    }

    /// In-place union with `other` (sets must have equal capacity).
    #[inline]
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a |= b;
        }
    }

    /// In-place difference: remove every member of `other`.
    #[inline]
    pub fn difference_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a &= !b;
        }
    }

    /// Size of the intersection without materialising it.
    #[inline]
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// True if the two sets share no member.
    #[inline]
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .all(|(a, b)| a & b == 0)
    }

    /// True if every member of `self` is a member of `other`.
    #[inline]
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .all(|(a, b)| a & !b == 0)
    }

    /// The smallest member, if the set is non-empty.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// Remove and return the smallest member.
    pub fn pop_first(&mut self) -> Option<usize> {
        let v = self.first()?;
        self.remove(v);
        Some(v)
    }

    /// Remove a greedy independent set from the set, handing its members
    /// to `visit` in increasing order: the smallest member `v`, then the
    /// smallest member outside `visit(v)` (a set of equal capacity), and so
    /// on until no member is left outside the sets `visit` returned.
    ///
    /// With `visit` returning each vertex's neighbourhood, the members
    /// removed are one colour class of a greedy colouring.  The walk visits
    /// each word of a scratch copy once: every member below `v` is already
    /// taken or struck out, so striking starts at `v`'s word.
    pub fn pop_independent_set<'a>(&mut self, mut visit: impl FnMut(usize) -> &'a BitSet) {
        let mut open = self.clone();
        let (taken, open) = (self.as_mut_slice(), open.as_mut_slice());
        for i in 0..open.len() {
            let mut word = open[i];
            while word != 0 {
                let bit = word & word.wrapping_neg();
                taken[i] ^= bit;
                let struck = visit(i * WORD_BITS + bit.trailing_zeros() as usize).as_slice();
                debug_assert_eq!(struck.len(), open.len());
                word &= !(bit | struck[i]);
                for (a, b) in open[i + 1..].iter_mut().zip(&struck[i + 1..]) {
                    *a &= !b;
                }
            }
        }
    }

    /// Iterate over members in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        let words = self.as_slice();
        Iter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }

    /// Collect the members into a vector (increasing order).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

impl Default for BitSet {
    /// The empty set of capacity 0.
    fn default() -> Self {
        BitSet::new(0)
    }
}

/// Written out because `derive(Clone)` keeps the default `clone_from`,
/// which allocates a fresh copy: this one reuses a spilled set's vector,
/// so refilling a large set of the same capacity is one allocation-free
/// copy.  An inline set's clone is a plain copy either way.
impl Clone for BitSet {
    #[inline]
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
            capacity: self.capacity,
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        match (&mut self.words, &source.words) {
            (Words::Spilled(mine), Words::Spilled(theirs)) => {
                mine.resize(theirs.len(), 0);
                mine.copy_from_slice(theirs);
            }
            (mine, theirs) => *mine = theirs.clone(),
        }
        self.capacity = source.capacity;
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity && self.as_slice() == other.as_slice()
    }
}

impl Eq for BitSet {}

impl std::hash::Hash for BitSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.capacity.hash(state);
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the members of a [`BitSet`] in increasing order.
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
        assert_eq!(s.count(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn full_contains_exactly_capacity_members() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
    }

    #[test]
    fn full_of_zero_capacity_is_empty() {
        let s = BitSet::full(0);
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
    }

    #[test]
    fn first_and_pop_first_walk_in_order() {
        let mut s = BitSet::from_iter(200, [5, 130, 64]);
        assert_eq!(s.first(), Some(5));
        assert_eq!(s.pop_first(), Some(5));
        assert_eq!(s.pop_first(), Some(64));
        assert_eq!(s.pop_first(), Some(130));
        assert_eq!(s.pop_first(), None);
    }

    #[test]
    fn iter_yields_increasing_members() {
        let s = BitSet::from_iter(100, [7, 3, 99, 64, 63]);
        assert_eq!(s.to_vec(), vec![3, 7, 63, 64, 99]);
    }

    #[test]
    fn set_algebra_small() {
        let a = BitSet::from_iter(10, [1, 2, 3]);
        let b = BitSet::from_iter(10, [2, 3, 4]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![2, 3]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 2, 3, 4]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), vec![1]);
        assert_eq!(a.intersection_count(&b), 2);
        assert!(!a.is_disjoint(&b));
        assert!(i.is_subset(&a) && i.is_subset(&b));
    }

    #[test]
    fn clone_from_overwrites_in_place() {
        let source = BitSet::from_iter(600, [0, 64, 599]);
        let mut target = BitSet::from_iter(600, [1, 2, 65, 512]);
        let storage = target.as_slice().as_ptr();
        target.clone_from(&source);
        assert_eq!(target, source.clone());
        assert_eq!(target.to_vec(), vec![0, 64, 599]);
        assert_eq!(
            target.as_slice().as_ptr(),
            storage,
            "same capacity: no new storage"
        );
        // Across spilled capacities it is still a plain copy.
        let mut large = BitSet::full(1000);
        large.clone_from(&source);
        assert_eq!((large.capacity(), large.to_vec()), (600, vec![0, 64, 599]));
    }

    #[test]
    fn clone_from_crosses_the_spill_boundary() {
        let inline = BitSet::from_iter(130, [0, 64, 129]);
        let spilled = BitSet::from_iter(600, [1, 511, 512, 599]);

        let mut target = inline.clone();
        target.clone_from(&spilled);
        assert!(matches!(target.words, Words::Spilled(_)));
        assert_eq!(target, spilled);
        assert_eq!(target.to_vec(), vec![1, 511, 512, 599]);

        let mut target = spilled.clone();
        target.clone_from(&inline);
        assert!(matches!(target.words, Words::Inline(_)));
        assert_eq!(target, inline);
        assert_eq!(target.to_vec(), vec![0, 64, 129]);

        // A narrower inline source leaves no stale words behind.
        let mut target = BitSet::full(INLINE_BITS);
        target.clone_from(&inline);
        assert_eq!((target.capacity(), target.count()), (130, 3));
        target.insert(100);
        assert_eq!(target.to_vec(), vec![0, 64, 100, 129]);
    }

    fn hash_of(s: &BitSet) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_sets_compare_and_hash_equal_whatever_built_them() {
        for capacity in [64, INLINE_BITS, INLINE_BITS + 1, 1000] {
            let members = [3, 63, capacity - 1];
            let direct = BitSet::from_iter(capacity, members);
            let mut carved = BitSet::full(capacity);
            carved.difference_with(&BitSet::from_iter(
                capacity,
                (0..capacity).filter(|v| !members.contains(v)),
            ));
            let mut refilled = BitSet::full(1000);
            refilled.clone_from(&BitSet::full(INLINE_BITS));
            refilled.clone_from(&direct);
            let mut popped = BitSet::from_iter(capacity, [0, 1, 2]);
            popped.union_with(&direct);
            while popped.first() != Some(3) {
                popped.pop_first();
            }
            for other in [&carved, &refilled, &popped, &direct.clone()] {
                assert_eq!(other, &direct, "capacity {capacity}");
                assert_eq!(hash_of(other), hash_of(&direct), "capacity {capacity}");
            }
            // Same members, another capacity: a different set.
            assert_ne!(BitSet::from_iter(capacity + 1, members), direct);
        }
    }

    fn model_of(s: &BitSet) -> BTreeSet<usize> {
        s.iter().collect()
    }

    /// Capacities on both sides of the inline/spilled boundary.
    const CAPACITIES: [usize; 6] = [1, 64, INLINE_BITS - 1, INLINE_BITS, INLINE_BITS + 1, 1000];

    proptest! {
        #[test]
        fn matches_btreeset_model(
            which in 0usize..6,
            xs in proptest::collection::vec(0usize..1000, 0..64),
            ys in proptest::collection::vec(0usize..1000, 0..64),
            zs in proptest::collection::vec(0usize..1000, 0..64),
        ) {
            let capacity = CAPACITIES[which];
            let xs: Vec<usize> = xs.iter().map(|x| x % capacity).collect();
            let ys: Vec<usize> = ys.iter().map(|y| y % capacity).collect();
            let a = BitSet::from_iter(capacity, xs.iter().copied());
            let b = BitSet::from_iter(capacity, ys.iter().copied());
            let c = BitSet::from_iter(capacity, zs.iter().map(|z| z % capacity));
            let ma: BTreeSet<_> = xs.iter().copied().collect();
            let mb: BTreeSet<_> = ys.iter().copied().collect();

            prop_assert_eq!(a.count(), ma.len());
            prop_assert_eq!(a.is_empty(), ma.is_empty());
            prop_assert_eq!(model_of(&a), ma.clone());
            prop_assert_eq!(a.to_vec(), ma.iter().copied().collect::<Vec<_>>());
            for v in 0..capacity + 2 {
                prop_assert_eq!(a.contains(v), ma.contains(&v), "contains({})", v);
            }

            let mut inter = a.clone();
            inter.intersect_with(&b);
            prop_assert_eq!(model_of(&inter), ma.intersection(&mb).copied().collect::<BTreeSet<_>>());

            let mut uni = a.clone();
            uni.union_with(&b);
            prop_assert_eq!(model_of(&uni), ma.union(&mb).copied().collect::<BTreeSet<_>>());

            let mut diff = a.clone();
            diff.difference_with(&b);
            prop_assert_eq!(model_of(&diff), ma.difference(&mb).copied().collect::<BTreeSet<_>>());

            prop_assert_eq!(a.intersection_count(&b), ma.intersection(&mb).count());
            prop_assert_eq!(a.is_disjoint(&b), ma.is_disjoint(&mb));
            prop_assert_eq!(a.is_subset(&b), ma.is_subset(&mb));
            prop_assert_eq!(a.first(), ma.first().copied());

            let mut popped = a.clone();
            let mut model = ma.clone();
            prop_assert_eq!(popped.pop_first(), model.pop_first());
            prop_assert_eq!(model_of(&popped), model);

            // Even members strike out `b`'s, odd ones `c`'s.
            let strike = |v: usize| if v % 2 == 0 { &b } else { &c };
            let mut independent = a.clone();
            let mut visited = Vec::new();
            independent.pop_independent_set(|v| {
                visited.push(v);
                strike(v)
            });
            let mut open = ma.clone();
            let mut expected = Vec::new();
            while let Some(v) = open.pop_first() {
                expected.push(v);
                for u in strike(v) {
                    open.remove(&u);
                }
            }
            let rest: BTreeSet<_> = ma.iter().copied().filter(|v| !expected.contains(v)).collect();
            prop_assert_eq!(visited, expected);
            prop_assert_eq!(model_of(&independent), rest);

            let mut removed = a.clone();
            for y in &ys {
                removed.remove(*y);
            }
            removed.remove(capacity);
            prop_assert_eq!(model_of(&removed), ma.difference(&mb).copied().collect::<BTreeSet<_>>());

            let full = BitSet::full(capacity);
            prop_assert_eq!(full.count(), capacity);
            prop_assert!(a.is_subset(&full));
            let mut cleared = a.clone();
            cleared.clear();
            prop_assert!(cleared.is_empty());
            prop_assert_eq!(cleared, BitSet::new(capacity));
        }

        #[test]
        fn clone_from_equals_clone(
            from in 0usize..6,
            to in 0usize..6,
            xs in proptest::collection::vec(0usize..1000, 0..64),
            held in proptest::collection::vec(0usize..1000, 0..64),
        ) {
            let (source_cap, target_cap) = (CAPACITIES[from], CAPACITIES[to]);
            let source = BitSet::from_iter(source_cap, xs.iter().map(|x| x % source_cap));
            let mut target = BitSet::from_iter(target_cap, held.iter().map(|x| x % target_cap));
            target.clone_from(&source);
            prop_assert_eq!(&target, &source.clone());
            prop_assert_eq!(model_of(&target), model_of(&source));
            prop_assert_eq!(hash_of(&target), hash_of(&source));
        }
    }
}
