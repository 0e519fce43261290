//! Order statistics and the seeded input stream.

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile by linear interpolation between closest ranks over
/// `n - 1` intervals (NumPy's default method); 0 when `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: every input of a run is drawn from this stream, seeded by
/// `--seed`, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64) -> Self {
        SeedStream(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Shuffle `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }

    /// A seed for `Irregular` whose two low bits are `01`.  The generator's
    /// fan-out is `state % 4 + 1` and its multiplier is `1 mod 4`, so the
    /// tree *shape* depends only on those bits: every seed drawn here gives
    /// a tree of the same size with different node labels.
    pub fn irregular_seed(&mut self) -> u64 {
        (self.next_u64() & !3) | 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn seed_stream_repeats_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| SeedStream::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut s = SeedStream::new(7);
        let mut t = SeedStream::new(8);
        assert_ne!(s.next_u64(), t.next_u64());
        assert_eq!(s.irregular_seed() & 3, 1);
    }
}
