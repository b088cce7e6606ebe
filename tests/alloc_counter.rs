//! Counting-allocator accuracy, pinned against a known allocation
//! pattern. The counters are process-wide, and this binary is not alone
//! with them: the harness runs its tests on concurrent threads, and its
//! own threads allocate and free while a test runs (spawning the next
//! test, reporting and tearing down the last one). So each test holds
//! `LOCK` while it measures, and meanwhile every other thread allocates
//! straight from `System`. Only the measuring thread moves the
//! counters, which lets the deltas be asserted exactly.

use netaware::obs::alloc::{snapshot, CountingAlloc};
use netaware::sim::{Scheduler, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// [`CountingAlloc`], bypassed by every thread but the measuring one
/// while a test measures.
struct Isolated;

/// Token of the thread holding `LOCK`; 0 when no test is measuring.
static MEASURING: AtomicUsize = AtomicUsize::new(0);

/// Allocator calls in progress on any thread. A test starts measuring
/// only once every call that may have read `MEASURING` as 0 is done.
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TOKEN: u8 = const { 0 };
}

/// A per-thread token: the address of this thread's `TOKEN`. Reading a
/// const-initialised, drop-free thread local never allocates, so the
/// allocator may call this.
fn token() -> usize {
    TOKEN.with(|t| t as *const u8 as usize)
}

/// Runs one allocator call through `CountingAlloc` unless another
/// thread is measuring.
fn route<T>(counting: impl FnOnce() -> T, system: impl FnOnce() -> T) -> T {
    IN_FLIGHT.fetch_add(1, Ordering::SeqCst);
    let m = MEASURING.load(Ordering::SeqCst);
    let out = if m == 0 || m == token() {
        counting()
    } else {
        system()
    };
    IN_FLIGHT.fetch_sub(1, Ordering::SeqCst);
    out
}

// SAFETY: every call is forwarded verbatim to `CountingAlloc` or to
// `System`, and `CountingAlloc` itself forwards to `System`, so blocks
// may be freed or grown through either path.
unsafe impl GlobalAlloc for Isolated {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        route(|| CountingAlloc.alloc(layout), || System.alloc(layout))
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        route(
            || CountingAlloc.alloc_zeroed(layout),
            || System.alloc_zeroed(layout),
        )
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        route(
            || CountingAlloc.dealloc(ptr, layout),
            || System.dealloc(ptr, layout),
        )
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        route(
            || CountingAlloc.realloc(ptr, layout, new_size),
            || System.realloc(ptr, layout, new_size),
        )
    }
}

#[global_allocator]
static ALLOC: Isolated = Isolated;

/// Serialises the tests. A test that panics poisons the lock; the next
/// one still runs, because the guarded data is `()`.
static LOCK: Mutex<()> = Mutex::new(());

/// Holds `LOCK` and marks the current thread as the measuring one until
/// dropped.
struct Measuring {
    _lock: MutexGuard<'static, ()>,
}

fn measuring() -> Measuring {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    MEASURING.store(token(), Ordering::SeqCst);
    while IN_FLIGHT.load(Ordering::SeqCst) != 0 {
        std::thread::yield_now();
    }
    Measuring { _lock: guard }
}

impl Drop for Measuring {
    fn drop(&mut self) {
        MEASURING.store(0, Ordering::SeqCst);
    }
}

#[test]
fn scheduler_steady_state_allocates_nothing() {
    let _measuring = measuring();
    // The calendar-queue scheduler reuses its ring buckets' capacity as
    // the ring wraps, so once the bucket wheel is warm, push/pop
    // traffic must be allocation-free — an exact zero delta, not a
    // bound.
    // Bucket width 16 µs × 512 ring slots = an 8 192 µs window; the
    // phase below is an exact replay of the warm-up phase (same seeded
    // delay stream, started at a wheel-aligned timestamp), so every
    // ring slot sees precisely the load it was grown for.
    const WIDTH: u64 = 16;
    const WINDOW: u64 = WIDTH * 512;
    let mut s: Scheduler<u64> = Scheduler::with_granularity(WIDTH);
    let phase = |s: &mut Scheduler<u64>| {
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let at = SimTime::from_us(s.now().as_us() + (x >> 40) % 5_000);
            s.push(at, 1, i as u32, i);
            if i % 2 == 0 {
                s.pop();
            }
        }
        while s.pop().is_some() {}
        // Re-align the clock to a wheel boundary so the next phase maps
        // onto the same ring slots.
        let aligned = s.now().as_us().div_ceil(WINDOW) * WINDOW;
        s.push(SimTime::from_us(aligned), 2, 0, u64::MAX);
        s.pop();
    };
    // Warm-up: grow the wheel to the phase's exact footprint.
    phase(&mut s);

    let before = snapshot();
    phase(&mut s);
    let after = snapshot();
    assert_eq!(
        after.allocs - before.allocs,
        0,
        "steady-state scheduler traffic allocated ({} allocs, {} bytes)",
        after.allocs - before.allocs,
        after.bytes - before.bytes
    );
    assert_eq!(after.bytes - before.bytes, 0);
}

#[test]
fn counters_track_a_known_allocation_pattern_exactly() {
    let _measuring = measuring();
    assert!(netaware::obs::alloc::is_counting());
    let before = snapshot();

    // One Vec of 1000 u64 is exactly one allocation of 8000 bytes.
    let v: Vec<u64> = Vec::with_capacity(1000);
    let held = snapshot();
    assert_eq!(held.allocs - before.allocs, 1, "one allocation expected");
    assert_eq!(held.bytes - before.bytes, 8000, "8000 bytes expected");
    assert_eq!(held.live_bytes - before.live_bytes, 8000);
    assert!(held.peak_bytes >= before.live_bytes + 8000);

    // A second, differently-sized block accumulates on top.
    let w: Vec<u8> = Vec::with_capacity(512);
    let held2 = snapshot();
    assert_eq!(held2.allocs - before.allocs, 2);
    assert_eq!(held2.bytes - before.bytes, 8512);
    assert_eq!(held2.live_bytes - before.live_bytes, 8512);

    // Frees return live bytes to the starting level; the cumulative
    // counters are monotone and keep both allocations.
    drop(v);
    drop(w);
    let after = snapshot();
    assert_eq!(after.live_bytes, before.live_bytes, "frees balance");
    assert_eq!(after.allocs - before.allocs, 2);
    assert_eq!(after.bytes - before.bytes, 8512);
    assert!(after.peak_bytes >= held2.live_bytes);
}
