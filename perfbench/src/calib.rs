//! The host-speed gauge: a fixed compute kernel, timed between requests
//! on the CPU the daemons share.
//!
//! On a shared virtual machine the host's speed drifts: the same entropy
//! LP takes 56 ms in one second and 108 ms a few seconds later, with no
//! change in the guest's own load, and slow spells can last minutes. No
//! amount of averaging within a run removes a drift that outlasts it.
//! The kernel below slows down with the daemons, so each request's time
//! is divided by the speed the gauge read around it.
//!
//! The kernel is this benchmark's own code and touches nothing of the
//! program's, so a change to the program cannot change it. It is timed in
//! the client thread's CPU time, not wall time, so a daemon that keeps a
//! CPU busy between requests cannot slow the gauge and hide its cost.

use crate::median;
use std::time::{Duration, Instant};

/// The kernel's CPU time at reference speed. Metrics divided by
/// [`Calibrator::speed`] read as if the host ran at this speed.
const REFERENCE_MS: f64 = 1.3;

/// Side of the kernel's matrix: 720 KB of `f64`, beyond the first-level
/// caches like the daemons' working sets.
const N: usize = 300;

/// Elimination steps per sample.
const PIVOTS: usize = 40;

pub struct Calibrator {
    matrix: Vec<f64>,
    samples_ms: Vec<f64>,
    last: Option<Instant>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            matrix: vec![0.0; N * N],
            samples_ms: Vec::new(),
            last: None,
        }
    }

    /// Runs and times the kernel once; returns the wall time it took.
    pub fn sample(&mut self) -> Duration {
        let wall = Instant::now();
        // Refilling the matrix, untimed, brings it back into the caches the
        // daemons used in between, so every timed pass starts alike.
        for (i, x) in self.matrix.iter_mut().enumerate() {
            *x = ((i * 7919) % 1000) as f64 / 997.0 + 1.0;
        }
        let start = thread_cpu_ns();
        let a = &mut self.matrix;
        for p in 0..PIVOTS {
            let pivot = a[p * N + p];
            for r in (0..N).filter(|&r| r != p) {
                let f = a[r * N + p] / pivot;
                for c in 0..N {
                    a[r * N + c] -= f * a[p * N + c];
                }
            }
        }
        std::hint::black_box(&self.matrix);
        let cpu_ns = thread_cpu_ns().saturating_sub(start);
        self.samples_ms.push(cpu_ns as f64 / 1e6);
        self.last = Some(Instant::now());
        wall.elapsed()
    }

    /// Samples when `every` has passed since the last sample; returns the
    /// wall time spent (zero when it did not sample).
    pub fn sample_every(&mut self, every: Duration) -> Duration {
        match self.last {
            Some(last) if last.elapsed() < every => Duration::ZERO,
            _ => self.sample(),
        }
    }

    /// How many times slower than reference the host runs now: the
    /// median of the last three samples over [`REFERENCE_MS`], so one
    /// interrupted sample does not count.
    pub fn speed(&self) -> f64 {
        let recent = &self.samples_ms[self.samples_ms.len().saturating_sub(3)..];
        median(recent) / REFERENCE_MS
    }
}

/// CPU time of the calling thread, in ns.
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}
