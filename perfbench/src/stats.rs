//! Order statistics over per-op samples, and the per-op seed schedule.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p`% of the samples at or below it. Of 100
/// distinct samples, exactly 10 lie above `percentile(_, 90.0)`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Seed of the `k`-th distinct input of a workload: a pure function of
/// the workload seed (SplitMix64 over the pair), so the same `--seed`
/// always yields the same inputs.
pub fn op_seed(workload_seed: u64, k: u64) -> u64 {
    let mut z = workload_seed ^ k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_100_samples_leaves_exactly_10_above() {
        // Shuffled 1..=100 so sorting is exercised too.
        let mut v: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        v.sort_by(f64::total_cmp);
        let p90 = percentile(&v, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
        assert_eq!(p90, 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 100.0), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn op_seeds_are_a_pure_function_of_the_workload_seed() {
        let a: Vec<u64> = (0..8).map(|k| op_seed(42, k)).collect();
        let b: Vec<u64> = (0..8).map(|k| op_seed(42, k)).collect();
        assert_eq!(a, b);
        let other: Vec<u64> = (0..8).map(|k| op_seed(43, k)).collect();
        assert!(a.iter().zip(&other).all(|(x, y)| x != y));
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len());
    }
}
