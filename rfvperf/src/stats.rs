//! Order statistics, digests and the seeded generator the harness uses.

/// Nearest-rank percentile of `values` (`p` in 0..=100): the smallest
/// sample with at least `p`% of the samples at or below it. `None` for
/// an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank median; 0 for an empty slice (every caller reports a
/// layer it did not exercise as 0).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// How many samples lie strictly above the nearest-rank `p`th
/// percentile — the support a tail percentile rests on.
pub fn beyond(values: &[f64], p: f64) -> usize {
    match percentile(values, p) {
        Some(cut) => values.iter().filter(|&&v| v > cut).count(),
        None => 0,
    }
}

/// The median, over consecutive windows of `window` samples (a partial
/// last window is dropped), of each window's nearest-rank p99, with the
/// number of windows. `None` unless there are at least two windows.
pub fn windowed_p99(values: &[f64], window: usize) -> Option<(f64, usize)> {
    if window == 0 || values.len() < 2 * window {
        return None;
    }
    let p99s: Vec<f64> = values
        .chunks_exact(window)
        .filter_map(|w| percentile(w, 99.0))
        .collect();
    Some((median(&p99s), p99s.len()))
}

/// Relative slowdown of the traced median over the untraced one; 0 when
/// either side has no samples.
pub fn overhead_frac(traced: &[f64], untraced: &[f64]) -> f64 {
    let (t, u) = (median(traced), median(untraced));
    if t == 0.0 || u == 0.0 {
        return 0.0;
    }
    t / u - 1.0
}

/// FNV-1a, 64-bit: the digest the sweep goldens are recorded with.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64: a small, seedable, platform-independent generator, so
/// the same `--seed` yields the same inputs everywhere.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(beyond(&v, 99.0), 1);
        // order does not matter; a single sample is every percentile
        let shuffled = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&shuffled, 50.0), Some(2.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&v, 99.0), 10);
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(beyond(&v, 99.0) < 10);
    }

    #[test]
    fn windowed_p99_resists_one_stalled_window() {
        // three windows of 1000; a stall inflates the tail of one of them
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut v[1000..1100] {
            *x += 5000.0;
        }
        assert_eq!(windowed_p99(&v, 1000), Some((989.0, 3)));
        assert!(percentile(&v, 99.0).expect("non-empty") > 5000.0);
        assert_eq!(windowed_p99(&v[..1999], 1000), None);
    }

    #[test]
    fn rng_is_seeded_and_shuffle_is_a_permutation() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<u32> = (0..100).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
