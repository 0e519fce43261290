//! Dynamic word-array bitsets.
//!
//! The clique and subgraph-isomorphism applications represent vertex sets as
//! bitsets so that the hot set operations (intersection, popcount, first
//! set bit) compile down to word-wide instructions — the paper notes this
//! representation "enables vectorisation of set operations, which is known
//! to speed up Maximum Clique implementations up to 20-fold" (§4.1).
//!
//! Unlike the paper's fixed-size `std::bitset<N>` (which forces several
//! binaries compiled for different `N`), [`BitSet`] sizes itself to the
//! instance at construction time and keeps all operations allocation-free.

const WORD_BITS: usize = 64;

/// A set of small unsigned integers stored as an array of 64-bit words.
#[derive(PartialEq, Eq, Hash, Default)]
pub struct BitSet {
    words: Vec<u64>,
    /// Number of valid bits; bits at index >= capacity are always zero.
    capacity: usize,
}

impl BitSet {
    /// An empty set able to hold the values `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
        }
    }

    /// A set containing every value in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::new(capacity);
        for w in s.words.iter_mut() {
            *w = u64::MAX;
        }
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
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clear any bits beyond `capacity` (maintains the internal invariant).
    fn trim(&mut self) {
        let spare = self.words.len() * WORD_BITS - self.capacity;
        if spare > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> spare;
            }
        }
    }

    /// Add `value` to the set.
    ///
    /// # Panics
    /// Panics if `value >= capacity`.
    pub fn insert(&mut self, value: usize) {
        assert!(
            value < self.capacity,
            "bit {value} out of range 0..{}",
            self.capacity
        );
        self.words[value / WORD_BITS] |= 1 << (value % WORD_BITS);
    }

    /// Remove `value` from the set (no-op if absent or out of range).
    pub fn remove(&mut self, value: usize) {
        if value < self.capacity {
            self.words[value / WORD_BITS] &= !(1 << (value % WORD_BITS));
        }
    }

    /// Membership test.
    pub fn contains(&self, value: usize) -> bool {
        value < self.capacity && (self.words[value / WORD_BITS] >> (value % WORD_BITS)) & 1 == 1
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove all members.
    pub fn clear(&mut self) {
        for w in self.words.iter_mut() {
            *w = 0;
        }
    }

    /// In-place intersection with `other` (sets must have equal capacity).
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union with `other` (sets must have equal capacity).
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place difference: remove every member of `other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Size of the intersection without materialising it.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// True if the two sets share no member.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// True if every member of `self` is a member of `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// The smallest member, if the set is non-empty.
    pub fn first(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(i * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Remove and return the smallest member.
    pub fn pop_first(&mut self) -> Option<usize> {
        let v = self.first()?;
        self.remove(v);
        Some(v)
    }

    /// Iterate over members in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collect the members into a vector (increasing order).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

/// Written out because `derive(Clone)` keeps the default `clone_from`,
/// which allocates a fresh copy: this one overwrites the words in place, so
/// refilling a set of the same capacity is one allocation-free copy.  (It
/// resizes and copies rather than calling `Vec::clone_from`, whose
/// clear-and-extend measured slower in the clique colouring loop.)
impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
            capacity: self.capacity,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.words.resize(source.words.len(), 0);
        self.words.copy_from_slice(&source.words);
        self.capacity = source.capacity;
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the members of a [`BitSet`] in increasing order.
pub struct Iter<'a> {
    set: &'a BitSet,
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
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
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
        let source = BitSet::from_iter(130, [0, 64, 129]);
        let mut target = BitSet::from_iter(130, [1, 2, 65, 128]);
        let storage = target.words.as_ptr();
        target.clone_from(&source);
        assert_eq!(target, source.clone());
        assert_eq!(target.to_vec(), vec![0, 64, 129]);
        assert_eq!(
            target.words.as_ptr(),
            storage,
            "same capacity: no new storage"
        );
        // Across capacities it is still a plain copy.
        let mut small = BitSet::from_iter(10, [3]);
        small.clone_from(&source);
        assert_eq!(small, source);
        let mut large = BitSet::full(260);
        large.clone_from(&source);
        assert_eq!((large.capacity(), large.to_vec()), (130, vec![0, 64, 129]));
    }

    fn model_of(s: &BitSet) -> BTreeSet<usize> {
        s.iter().collect()
    }

    proptest! {
        #[test]
        fn matches_btreeset_model(
            xs in proptest::collection::vec(0usize..256, 0..64),
            ys in proptest::collection::vec(0usize..256, 0..64),
        ) {
            let a = BitSet::from_iter(256, xs.iter().copied());
            let b = BitSet::from_iter(256, ys.iter().copied());
            let ma: BTreeSet<_> = xs.iter().copied().collect();
            let mb: BTreeSet<_> = ys.iter().copied().collect();

            prop_assert_eq!(a.count(), ma.len());
            prop_assert_eq!(model_of(&a), ma.clone());

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
        }

        #[test]
        fn clone_from_equals_clone(
            xs in proptest::collection::vec(0usize..256, 0..64),
            held in proptest::collection::vec(0usize..256, 0..64),
        ) {
            let source = BitSet::from_iter(256, xs.iter().copied());
            let mut target = BitSet::from_iter(256, held.iter().copied());
            target.clone_from(&source);
            prop_assert_eq!(&target, &source.clone());
            prop_assert_eq!(model_of(&target), model_of(&source));
        }
    }
}
