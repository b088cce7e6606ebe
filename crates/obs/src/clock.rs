//! Wall-clock abstraction behind the span profiler.
//!
//! The determinism contract (ND01) bans `Instant`/`SystemTime` from the
//! simulation-facing crates; this module is where the one sanctioned
//! wall-clock read lives. The [`Profiler`](crate::Profiler) reads time
//! through the [`Clock`] trait, so no instrumented layer ever names a
//! concrete clock — tests inject a [`ManualClock`], production uses
//! [`WallClock`], and the simulation crates stay wall-clock-free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Source of elapsed real time, microseconds since the clock's epoch.
pub trait Clock: Send + Sync {
    /// Microseconds elapsed since the clock was created (or last reset).
    fn elapsed_us(&self) -> u64;

    /// Nanoseconds elapsed. The profiler times sub-microsecond scopes
    /// (per-event behaviour hooks), so clocks that can should override
    /// this; the default derives it from [`Clock::elapsed_us`].
    fn elapsed_ns(&self) -> u64 {
        self.elapsed_us().saturating_mul(1_000)
    }
}

/// The real monotonic clock. This is the only place in the workspace
/// where library code reads `Instant`; everything else goes through
/// [`Clock`].
#[derive(Debug)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn elapsed_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-advanced clock for tests: `elapsed_us` returns the sum of
/// every [`ManualClock::advance`], so span durations are exact and
/// reproducible.
#[derive(Debug, Default)]
pub struct ManualClock {
    now_us: AtomicU64,
}

impl ManualClock {
    /// A clock stopped at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `us` microseconds.
    pub fn advance(&self, us: u64) {
        self.now_us.fetch_add(us, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn elapsed_us(&self) -> u64 {
        self.now_us.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.elapsed_us();
        let b = c.elapsed_us();
        assert!(b >= a);
    }
}
