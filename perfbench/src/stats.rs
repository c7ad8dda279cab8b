//! Latency samples, percentiles and the result line.

use std::fmt::Write as _;

/// Sub-buckets per power of two: values below 2^SUB ns are kept exactly,
/// larger ones to within 2^-SUB (0.2%).
const SUB: u32 = 9;
const BUCKETS: usize = ((64 - SUB as usize) + 1) << SUB;

fn bucket(ns: u64) -> usize {
    if ns < 1 << SUB {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB;
    (((shift + 1) as usize) << SUB) + ((ns >> shift) as usize - (1 << SUB))
}

/// Midpoint of a bucket, in nanoseconds.
fn bucket_ns(index: usize) -> f64 {
    if index < 1 << SUB {
        return index as f64;
    }
    let shift = (index >> SUB) - 1;
    let low = ((1u64 << SUB) + (index as u64 & ((1 << SUB) - 1))) << shift;
    low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

/// Every latency of one series, in nanoseconds: no sampling, and memory
/// that does not grow with the number of samples, so a run's length does
/// not show in its peak RSS.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    counts: Vec<u32>,
    n: usize,
}

/// One percentile read off a series, with the counts that justify it.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    /// The percentile actually reported (50, 90, 99, ...).
    pub pct: f64,
    /// Its value in microseconds.
    pub us: f64,
    /// Samples in the series.
    pub n: usize,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket(ns)] += 1;
        self.n += 1;
    }

    pub fn extend(&mut self, other: &Samples) {
        if other.n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> usize {
        self.n
    }

    /// Nearest-rank percentile in microseconds (0 for an empty series).
    pub fn pct_us(&self, pct: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (((pct / 100.0) * self.n as f64).ceil() as usize).clamp(1, self.n);
        let mut seen = 0;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count as usize;
            if seen >= rank {
                return bucket_ns(index) / 1_000.0;
            }
        }
        unreachable!("rank {rank} is within the {} samples", self.n)
    }

    pub fn p50(&self) -> Quantile {
        Quantile {
            pct: 50.0,
            us: self.pct_us(50.0),
            n: self.len(),
        }
    }

    /// The tail percentile: p99 when at least ten samples lie beyond it,
    /// otherwise the highest of p95/p90/p75 that has ten, and the median
    /// when even that is out of reach.
    pub fn tail(&self) -> Quantile {
        let n = self.len();
        let pct = [99.0, 95.0, 90.0, 75.0]
            .into_iter()
            .find(|pct| n as f64 * (1.0 - pct / 100.0) >= 10.0)
            .unwrap_or(50.0);
        Quantile {
            pct,
            us: self.pct_us(pct),
            n,
        }
    }
}

/// Median of a list of plain values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The metrics of one run in print order, each with a human note.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str, String)>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics
            .push((name.to_string(), value, unit, note.into()));
    }

    pub fn quantile(&mut self, name: &str, q: Quantile, what: &str) {
        let beyond = (q.n as f64 * (1.0 - q.pct / 100.0)).floor() as usize;
        self.add(
            name,
            q.us,
            "us",
            format!("p{} of {} {what} samples, {beyond} beyond", q.pct, q.n),
        );
    }

    /// Prints one human line per metric, then the result JSON as the
    /// last line of standard output.
    pub fn print(&self, correct: bool, attempted: u64, failed: u64) {
        for (name, value, unit, note) in &self.metrics {
            println!("metric {name:<36} {value:>14.4} {unit:<8} {note}");
        }
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit, _)) in self.metrics.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
