//! The benchmark's host clock: the CPU time of the calling thread.
//!
//! The program runs on the benchmark's single thread and does no I/O, so
//! the thread's CPU time (user and kernel) is the host time its work took.
//! Unlike the wall clock, it leaves out the time the thread waited for a
//! CPU: behind other processes, or while the hypervisor ran another guest
//! on the virtual CPU (steal time). On a shared host that waiting is the
//! largest source of spread between runs of the same code.
//!
//! [`Instant`] mirrors the part of `std::time::Instant` the benchmark uses.

use std::time::Duration;

/// A reading of the calling thread's CPU clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Instant(u64);

impl Instant {
    pub fn now() -> Self {
        Instant(thread_cpu_ns())
    }

    /// CPU time the calling thread has used since `self` was read.
    pub fn elapsed(self) -> Duration {
        Duration::from_nanos(thread_cpu_ns().saturating_sub(self.0))
    }
}

/// Nanoseconds of CPU time the calling thread has used.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> u64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and the clock id is a valid constant, so the C library writes
    // only inside `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    let secs = u64::try_from(ts.tv_sec).unwrap_or(0);
    let nanos = u64::try_from(ts.tv_nsec).unwrap_or(0);
    secs * 1_000_000_000 + nanos
}

/// Elsewhere the wall clock stands in, measured from the first reading.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> u64 {
    static ORIGIN: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let origin = *ORIGIN.get_or_init(std::time::Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::Instant;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = Instant::now();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(t0.elapsed().as_nanos() > 0);
        assert!(Instant::now() >= t0);
    }
}
