//! Commutative monoids used by enumeration searches (paper Section 3.2).
//!
//! The formal model characterises every search type by a commutative monoid
//! `⟨M, +, 0⟩` into which the search tree is folded.  Enumeration searches
//! sum the objective value of every node; optimisation and decision searches
//! use a max-monoid induced by a total order (handled separately through
//! [`crate::Optimise`]).  This module provides the [`Monoid`] trait together
//! with the stock instances used by the applications in `yewpar-apps`.

/// A commutative monoid: an associative, commutative [`combine`](Monoid::combine)
/// with an [`empty`](Monoid::empty) identity element.
///
/// Laws (checked by property tests below and relied upon by the parallel
/// skeletons, which fold per-worker partial results in arbitrary order):
///
/// * `combine(a, empty()) == a`
/// * `combine(a, b) == combine(b, a)`
/// * `combine(a, combine(b, c)) == combine(combine(a, b), c)`
pub trait Monoid: Clone + Send + 'static {
    /// The identity element (the paper's `0`).
    fn empty() -> Self;
    /// The monoid operation (the paper's `+`).  Must be commutative and
    /// associative.
    fn combine(self, other: Self) -> Self;
}

/// Numeric types that can act as counters inside [`Sum`] and [`Max`].
pub trait Numeric: Copy + Send + PartialOrd + 'static {
    /// Additive identity.
    fn zero() -> Self;
    /// Addition.
    fn add(self, other: Self) -> Self;
}

macro_rules! impl_numeric {
    ($($t:ty),*) => {
        $(impl Numeric for $t {
            fn zero() -> Self { 0 as $t }
            fn add(self, other: Self) -> Self { self + other }
        })*
    };
}

impl_numeric!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

/// Sum monoid over a numeric type, e.g. counting search-tree nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Sum<T>(pub T);

impl<T: Numeric> Monoid for Sum<T> {
    fn empty() -> Self {
        Sum(T::zero())
    }
    fn combine(self, other: Self) -> Self {
        Sum(self.0.add(other.0))
    }
}

/// Max monoid over an ordered numeric type (identity is `0`, matching the
/// paper's requirement that the induced order has least element `0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Max<T>(pub T);

impl<T: Numeric> Monoid for Max<T> {
    fn empty() -> Self {
        Max(T::zero())
    }
    fn combine(self, other: Self) -> Self {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }
}

/// Histogram monoid: counts nodes per depth.  Used by the enumeration
/// applications that report per-depth counts (e.g. Numerical Semigroups
/// counts semigroups of every genus up to the target genus).
///
/// A [`singleton`](Self::singleton), one node's value, holds only its
/// depth, so an enumeration makes one per node without allocating; folding
/// it into an accumulator bumps one count.
#[derive(Debug, Clone, Default)]
pub struct DepthHistogram {
    /// `counts[d]` observations at depth `d`, besides `lone`.
    counts: Vec<u64>,
    /// The depth of one more observation (a singleton's).
    lone: Option<usize>,
}

impl DepthHistogram {
    /// A histogram with a single observation at `depth`.
    pub fn singleton(depth: usize) -> Self {
        DepthHistogram {
            counts: Vec::new(),
            lone: Some(depth),
        }
    }

    /// Number of observations at `depth` (0 if never observed).
    pub fn count_at(&self, depth: usize) -> u64 {
        self.counts.get(depth).copied().unwrap_or(0) + u64::from(self.lone == Some(depth))
    }

    /// Total number of observations across all depths.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + u64::from(self.lone.is_some())
    }

    /// The deepest observed depth, if any observation exists.
    pub fn max_depth(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0).max(self.lone)
    }
}

/// Equal when every depth has the same count, however each was built.
impl PartialEq for DepthHistogram {
    fn eq(&self, other: &Self) -> bool {
        let depths = self.max_depth().max(other.max_depth()).map_or(0, |d| d + 1);
        (0..depths).all(|d| self.count_at(d) == other.count_at(d))
    }
}

impl Eq for DepthHistogram {}

impl Monoid for DepthHistogram {
    fn empty() -> Self {
        DepthHistogram::default()
    }
    fn combine(self, other: Self) -> Self {
        let mut counts = self.counts;
        let lones = self.lone.into_iter().chain(other.lone).map(|d| (d, 1));
        for (depth, n) in other.counts.into_iter().enumerate().chain(lones) {
            if counts.len() <= depth {
                counts.resize(depth + 1, 0);
            }
            counts[depth] += n;
        }
        DepthHistogram { counts, lone: None }
    }
}

/// Product of two monoids, combined component-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pair<A, B>(pub A, pub B);

impl<A: Monoid, B: Monoid> Monoid for Pair<A, B> {
    fn empty() -> Self {
        Pair(A::empty(), B::empty())
    }
    fn combine(self, other: Self) -> Self {
        Pair(self.0.combine(other.0), self.1.combine(other.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sum_counts() {
        let xs = [Sum(1u64), Sum(2), Sum(3)];
        let total = xs.iter().fold(Sum::empty(), |acc, x| acc.combine(*x));
        assert_eq!(total, Sum(6));
    }

    #[test]
    fn max_identity_is_zero() {
        assert_eq!(Max::<u32>::empty().combine(Max(5)), Max(5));
        assert_eq!(Max(7u32).combine(Max::empty()), Max(7));
    }

    #[test]
    fn histogram_singleton_and_combine() {
        let h = DepthHistogram::singleton(3).combine(DepthHistogram::singleton(1));
        assert_eq!(h.count_at(3), 1);
        assert_eq!(h.count_at(1), 1);
        assert_eq!(h.count_at(0), 0);
        assert_eq!(h.total(), 2);
        assert_eq!(h.max_depth(), Some(3));
    }

    #[test]
    fn histograms_with_equal_counts_are_equal_however_built() {
        let folded = [2, 0, 2]
            .into_iter()
            .fold(DepthHistogram::empty(), |acc, d| {
                acc.combine(DepthHistogram::singleton(d))
            });
        let merged = DepthHistogram::singleton(2)
            .combine(DepthHistogram::singleton(0))
            .combine(DepthHistogram::singleton(2).combine(DepthHistogram::empty()));
        assert_eq!(folded, merged);
        assert_eq!((folded.count_at(2), folded.count_at(1)), (2, 0));
        assert_eq!(
            DepthHistogram::singleton(4),
            DepthHistogram::empty().combine(DepthHistogram::singleton(4))
        );
        assert_ne!(DepthHistogram::singleton(4), DepthHistogram::singleton(3));
        assert_ne!(DepthHistogram::singleton(0), DepthHistogram::empty());
    }

    #[test]
    fn histogram_empty_has_no_max_depth() {
        assert_eq!(DepthHistogram::empty().max_depth(), None);
        assert_eq!(DepthHistogram::empty().total(), 0);
    }

    #[test]
    fn pair_combines_componentwise() {
        let p = Pair(Sum(2u64), Max(3u32)).combine(Pair(Sum(5), Max(1)));
        assert_eq!(p, Pair(Sum(7), Max(3)));
    }

    proptest! {
        #[test]
        fn sum_is_commutative_monoid(a in 0u64..1_000_000, b in 0u64..1_000_000, c in 0u64..1_000_000) {
            let (a, b, c) = (Sum(a), Sum(b), Sum(c));
            prop_assert_eq!(a.combine(Sum::empty()), a);
            prop_assert_eq!(a.combine(b), b.combine(a));
            prop_assert_eq!(a.combine(b).combine(c), a.combine(b.combine(c)));
        }

        #[test]
        fn max_is_commutative_monoid(a in 0u64..1_000_000, b in 0u64..1_000_000, c in 0u64..1_000_000) {
            let (a, b, c) = (Max(a), Max(b), Max(c));
            prop_assert_eq!(a.combine(Max::empty()), a);
            prop_assert_eq!(a.combine(b), b.combine(a));
            prop_assert_eq!(a.combine(b).combine(c), a.combine(b.combine(c)));
        }

        #[test]
        fn histogram_is_commutative_monoid(
            xs in proptest::collection::vec(0usize..12, 0..8),
            ys in proptest::collection::vec(0usize..12, 0..8),
        ) {
            let build = |ds: &[usize]| ds.iter().fold(DepthHistogram::empty(), |acc, &d| acc.combine(DepthHistogram::singleton(d)));
            let a = build(&xs);
            let b = build(&ys);
            prop_assert_eq!(a.clone().combine(b.clone()).total(), (xs.len() + ys.len()) as u64);
            prop_assert_eq!(a.clone().combine(b.clone()), b.combine(a));
        }
    }
}
