//! Host speed, read from a fixed reference kernel timed between ops.
//!
//! On a shared host the CPU speed this process gets moves by tens of
//! percent within seconds (frequency, neighbours on sibling threads),
//! and every op time moves with it. So the client times a small fixed
//! kernel — benchmark code that calls nothing in the program — before
//! each op and around each set-up, and rescales each measured time to a
//! host on which the kernel takes [`NOMINAL_S`]. A change in host speed
//! moves the kernel and the op alike and cancels; a change to the
//! program moves the rescaled time by the same share as the raw one.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time that defines the reference host, in seconds. On the
/// 2-vCPU 2.1 GHz Xeon VM the benchmark was tuned on, one reading took
/// 1.7–3.7 ms as the host's load changed.
pub const NOMINAL_S: f64 = 3.0e-3;

/// Timed kernel runs per reading; the fastest counts, which drops
/// one-off preemptions.
const REPEATS: usize = 3;

/// Readings on each side of an op that set its speed: the median of
/// `2 * WINDOW + 1` neighbouring readings.
const WINDOW: usize = 3;

/// The reference work: sort, hash-map and B-tree traffic over 60 000
/// pseudo-random keys, the same keys every time.
fn kernel() -> u64 {
    let mut x = black_box(0x2545_F491_4F6C_DD1D_u64);
    let mut keys: Vec<u64> = (0..60_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let mut counts = std::collections::HashMap::new();
    for (i, k) in keys.iter().enumerate().take(15_000) {
        *counts.entry(k % 4096).or_insert(0u64) += i as u64;
    }
    let mut tree = std::collections::BTreeMap::new();
    for k in keys.iter().step_by(8) {
        tree.insert(k.rotate_left(17), *k);
    }
    let sum = |acc: u64, v: &u64| acc.wrapping_add(*v);
    counts.values().fold(0, sum) ^ tree.values().take(100).fold(0, sum)
}

/// One reading of the host's speed: the fastest of [`REPEATS`] timed
/// kernel runs, in seconds.
pub fn reading() -> f64 {
    (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// `n` readings in a row.
pub fn readings(n: usize) -> Vec<f64> {
    (0..n).map(|_| reading()).collect()
}

/// The factor that rescales a time measured next to `readings[i]` to
/// the reference host, for every `i`: [`NOMINAL_S`] over the median of
/// the readings within [`WINDOW`] of `i`.
pub fn factors(readings: &[f64]) -> Vec<f64> {
    (0..readings.len())
        .map(|i| {
            let lo = i.saturating_sub(WINDOW);
            let hi = (i + WINDOW + 1).min(readings.len());
            NOMINAL_S / crate::stats::median(&readings[lo..hi])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_time() {
        assert_eq!(kernel(), kernel());
        let r = reading();
        assert!(r > 0.0 && r.is_finite());
    }

    #[test]
    fn factors_follow_a_speed_change_and_ignore_one_outlier() {
        let mut readings = vec![NOMINAL_S; 10];
        readings.extend(vec![2.0 * NOMINAL_S; 10]);
        readings[3] = 10.0 * NOMINAL_S;
        let f = factors(&readings);
        assert_eq!(f.len(), readings.len());
        assert_eq!(f[3], 1.0);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[19], 0.5);
    }
}
