//! Global knowledge management: incumbents and bound sharing.
//!
//! Optimisation and decision searches share the best solution found so far
//! (the *incumbent*) between workers so that the bound function can prune
//! subtrees that cannot beat it.  The paper shares bounds through HPX's
//! global address space and broadcasts updates to localities, tolerating
//! stale local copies at the cost of missed pruning (§4.3, "Knowledge
//! Management").
//!
//! In this shared-memory implementation the incumbent lives behind a
//! [`RwLock`] guarded by a cheap atomic *version* counter: workers keep a
//! [`BoundCache`] holding the last score they saw and refresh it only when
//! the version changes, so the hot pruning path is a single relaxed atomic
//! load.  Exactly like the paper's design, a stale cache never affects
//! correctness — only pruning opportunity.

use crate::sync::{AtomicU64, Ordering, RwLock};

/// The shared incumbent of an optimisation or decision search.
#[derive(Debug)]
pub struct Incumbent<N, S> {
    best: RwLock<Option<(S, N)>>,
    version: AtomicU64,
}

impl<N: Clone, S: Ord + Clone> Default for Incumbent<N, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: Clone, S: Ord + Clone> Incumbent<N, S> {
    /// An incumbent with no witness yet.
    pub fn new() -> Self {
        Incumbent {
            best: RwLock::new(None),
            version: AtomicU64::new(0),
        }
    }

    /// Current update count.  Incremented every time the incumbent improves;
    /// used by [`BoundCache`] to avoid locking on the hot path.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Attempt to strengthen the incumbent (the (strengthen) rule): the
    /// update succeeds only if `score` is strictly greater than the current
    /// best.  Returns whether the incumbent was replaced.
    pub fn strengthen(&self, score: S, node: &N) -> bool {
        // Fast path: read lock to reject dominated candidates without
        // contending on the write lock.
        {
            let guard = self.best.read();
            if let Some((best, _)) = guard.as_ref() {
                if score <= *best {
                    return false;
                }
            }
        }
        let mut guard = self.best.write();
        match guard.as_ref() {
            Some((best, _)) if score <= *best => false,
            _ => {
                *guard = Some((score, node.clone()));
                self.version.fetch_add(1, Ordering::AcqRel);
                true
            }
        }
    }

    /// The current best score, if any solution has been recorded.
    pub fn best_score(&self) -> Option<S> {
        self.best.read().as_ref().map(|(s, _)| s.clone())
    }

    /// The current best (score, witness) pair, if any.
    pub fn snapshot(&self) -> Option<(S, N)> {
        self.best.read().clone()
    }

    /// Seed the incumbent with an initial solution (e.g. the root node, as in
    /// the paper's initial configuration `{ϵ}`).  Uses [`strengthen`](Self::strengthen)
    /// semantics, so a weaker seed never overwrites a stronger incumbent.
    pub fn seed(&self, score: S, node: &N) {
        self.strengthen(score, node);
    }
}

/// A per-worker cache of the incumbent's score.
///
/// `refresh` is O(1) when the incumbent has not changed since the last call,
/// which is the common case on the pruning hot path.
#[derive(Debug, Default)]
pub struct BoundCache<S> {
    seen_version: u64,
    score: Option<S>,
}

impl<S: Clone> BoundCache<S> {
    /// An empty cache (no incumbent observed yet).
    pub fn new() -> Self {
        BoundCache {
            seen_version: 0,
            score: None,
        }
    }

    /// Return the freshest incumbent score, refreshing from `incumbent` only
    /// if its version moved since the last refresh.
    pub fn refresh<N: Clone>(&mut self, incumbent: &Incumbent<N, S>) -> Option<&S>
    where
        S: Ord,
    {
        let v = incumbent.version();
        if v != self.seen_version {
            self.seen_version = v;
            self.score = incumbent.best_score();
        }
        self.score.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn strengthen_only_improves() {
        let inc: Incumbent<u32, u32> = Incumbent::new();
        assert!(inc.strengthen(5, &50));
        assert!(
            !inc.strengthen(5, &51),
            "equal score must not replace the witness"
        );
        assert!(!inc.strengthen(3, &30));
        assert!(inc.strengthen(9, &90));
        assert_eq!(inc.snapshot(), Some((9, 90)));
        assert_eq!(inc.best_score(), Some(9));
    }

    #[test]
    fn version_counts_updates_only() {
        let inc: Incumbent<u32, u32> = Incumbent::new();
        assert_eq!(inc.version(), 0);
        inc.strengthen(1, &1);
        inc.strengthen(1, &2);
        inc.strengthen(2, &3);
        assert_eq!(inc.version(), 2);
    }

    #[test]
    fn bound_cache_tracks_version() {
        let inc: Incumbent<u32, u32> = Incumbent::new();
        let mut cache = BoundCache::new();
        assert_eq!(cache.refresh(&inc), None);
        inc.strengthen(4, &40);
        assert_eq!(cache.refresh(&inc), Some(&4));
        // No update: cached value returned without re-reading the lock.
        assert_eq!(cache.refresh(&inc), Some(&4));
        inc.strengthen(8, &80);
        assert_eq!(cache.refresh(&inc), Some(&8));
    }

    #[test]
    fn concurrent_strengthen_keeps_maximum() {
        let inc: Arc<Incumbent<u64, u64>> = Arc::new(Incumbent::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let inc = Arc::clone(&inc);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        let score = t * 1000 + i;
                        inc.strengthen(score, &score);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(inc.best_score(), Some(3999));
        let (s, n) = inc.snapshot().unwrap();
        assert_eq!(s, n, "witness must correspond to its score");
    }

    #[test]
    fn seed_respects_existing_stronger_incumbent() {
        let inc: Incumbent<u32, u32> = Incumbent::new();
        inc.strengthen(10, &1);
        inc.seed(2, &2);
        assert_eq!(inc.snapshot(), Some((10, 1)));
    }
}
