//! The host-speed reference: a fixed kernel timed between passes, so
//! that each pass's figures can be scaled to one reference host speed.
//!
//! On a shared host, neighbours' load moves every timing of a run by tens
//! of percent for seconds to minutes at a stretch, slower than any run
//! can average out. The kernel is the benchmark's own code and calls
//! nothing in probcon, so a change to the program never moves it; its
//! mix follows the program's hot paths (`i128` rationals reduced by gcd,
//! small-map lookups and updates, short-lived vectors), so the host slows
//! it about as much as it slows a pass.

use crate::stream::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel steps per timing: about 26 ms on a 2-vCPU Xeon VM.
const STEPS: u64 = 100_000;
/// The kernel's time at the reference host speed, in nanoseconds: its
/// median over a few runs on a 2-vCPU Xeon VM. A constant, so scaled
/// figures keep their units and compare across runs and commits.
pub const NOMINAL_NS: f64 = 26.0e6;

fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.abs()
}

/// One run of the kernel; returns a value that depends on every step.
fn kernel() -> i128 {
    let mut rng = Rng::new(0x5245_4645);
    let mut sums: BTreeMap<u32, (i128, i128)> = BTreeMap::new();
    let mut acc = 0i128;
    for _ in 0..black_box(STEPS) {
        let key = rng.below(64) as u32;
        let (num, den) = (rng.below(1000) as i128 + 1, rng.below(1000) as i128 + 1);
        let sum = sums.entry(key).or_insert((0, 1));
        let (n, d) = (sum.0 * den + num * sum.1, sum.1 * den);
        let g = gcd(n, d).max(1);
        *sum = if d / g > 1_000_000_000 {
            (1, 1)
        } else {
            (n / g, d / g)
        };
        let row = black_box(vec![sum.0; 6]);
        acc = acc.wrapping_add(row[3]);
    }
    acc
}

/// Wall time of one kernel run, in nanoseconds.
pub fn time_ns() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_nanos() as f64
}
