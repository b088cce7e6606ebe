//! Process-level readings taken from outside the program: CPU time of
//! the whole process (all threads), peak resident set, core count.
//! Linux with glibc only.

use std::io;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time consumed so far by every thread of this
/// process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; the clock id is a
    // constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Hands heap memory that is free but still mapped back to the kernel,
/// so memory set-up freed does not count toward a later peak.
pub fn release_free_heap() {
    // SAFETY: glibc's `malloc_trim` only releases free allocator pages;
    // it has no preconditions.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current resident
/// set, so a later [`peak_rss_kib`] covers only what ran in between.
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set (`VmHWM`) since start or the last
/// [`reset_peak_rss`], in KiB.
pub fn peak_rss_kib() -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
    }

    #[test]
    fn peak_rss_is_readable_after_reset() {
        reset_peak_rss().unwrap();
        assert!(peak_rss_kib().unwrap() > 0);
    }
}
