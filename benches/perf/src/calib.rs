//! Host-speed calibration for the end-to-end times.
//!
//! The reference box is a shared VM whose speed drifts: a fixed
//! arithmetic loop runs up to ±30% slower or faster from one minute to
//! the next, which swamps differences between two builds of the program.
//! A run therefore times a fixed kernel — this file's own code, so no
//! change to the program can move it — every [`EVERY`] between its timed
//! operations, and scales its end-to-end times by
//! `REFERENCE_MS / median kernel time`: each time is reported as it would
//! read on a host where the kernel takes [`REFERENCE_MS`]. On the
//! reference box the ratio of job time to kernel time held within ±5%
//! while job time itself swung by ±20%. The raw times and the factor go
//! to stderr.

use crate::median;
use crate::setup::timed;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel time (ms) of the reference host the times are scaled to: the
/// kernel's typical time on the 2-vCPU reference box.
pub const REFERENCE_MS: f64 = 3.0;

/// Least time between two kernel readings.
const EVERY: Duration = Duration::from_millis(250);

/// Kernel readings of one run.
#[derive(Default)]
pub struct Calibration {
    readings_ms: Vec<f64>,
    last: Option<Instant>,
}

impl Calibration {
    /// Time the kernel if [`EVERY`] has passed since the last reading.
    /// Call between timed operations, never inside one.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < EVERY) {
            return;
        }
        let (sum, secs) = timed(kernel);
        black_box(sum);
        self.readings_ms.push(secs * 1e3);
        self.last = Some(Instant::now());
    }

    /// Median kernel time of the run, ms.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.readings_ms)
    }

    /// Number of kernel readings.
    pub fn readings(&self) -> usize {
        self.readings_ms.len()
    }

    /// Multiply a time measured in this run by this to express it on the
    /// reference host.
    pub fn factor(&self) -> f64 {
        REFERENCE_MS / self.kernel_ms()
    }
}

/// A fixed, cache-resident floating-point loop (~3 ms on the reference
/// box): xorshift draws through `exp`, like the KDE and TCP models'
/// arithmetic.
fn kernel() -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut sum = 0.0;
    for _ in 0..400_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        sum += (-u * u * 8.0).exp();
    }
    sum
}
