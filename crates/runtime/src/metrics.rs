//! Shared outcome counters for the online resource manager.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Lock-free outcome counters shared by every thread driving a
/// [`ResourceManager`](crate::ResourceManager).
#[derive(Debug, Default)]
pub struct RuntimeMetrics {
    admitted: AtomicU64,
    rejected: AtomicU64,
    released: AtomicU64,
    timeouts: AtomicU64,
    stopped_rejections: AtomicU64,
    analysis_errors: AtomicU64,
    queue_wait_micros: AtomicU64,
    queue_wait_samples: AtomicU64,
    queue_wait_max_micros: AtomicU64,
}

impl RuntimeMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> RuntimeMetrics {
        RuntimeMetrics::default()
    }

    pub(crate) fn record_admitted(&self, queue_wait: Duration) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        let micros = u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX);
        self.queue_wait_micros.fetch_add(micros, Ordering::Relaxed);
        self.queue_wait_samples.fetch_add(1, Ordering::Relaxed);
        self.queue_wait_max_micros
            .fetch_max(micros, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_released(&self) {
        self.released.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_stopped(&self) {
        self.stopped_rejections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_analysis_error(&self) {
        self.analysis_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Applications admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Admissions rejected by a throughput contract.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Tickets released (admitted applications removed again).
    pub fn released(&self) -> u64 {
        self.released.load(Ordering::Relaxed)
    }

    /// Admissions abandoned because the capacity wait timed out.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Admissions refused because the manager was stopped.
    pub fn stopped_rejections(&self) -> u64 {
        self.stopped_rejections.load(Ordering::Relaxed)
    }

    /// Admissions that failed with a hard analysis error.
    pub fn analysis_errors(&self) -> u64 {
        self.analysis_errors.load(Ordering::Relaxed)
    }

    /// Mean time an *admitted* request spent from call to decision
    /// (queueing + analysis).
    pub fn mean_queue_wait(&self) -> Duration {
        let samples = self.queue_wait_samples.load(Ordering::Relaxed);
        if samples == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.queue_wait_micros.load(Ordering::Relaxed) / samples)
    }

    /// Worst time an admitted request spent from call to decision.
    pub fn max_queue_wait(&self) -> Duration {
        Duration::from_micros(self.queue_wait_max_micros.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_accumulate() {
        let m = RuntimeMetrics::new();
        m.record_admitted(Duration::from_micros(10));
        m.record_admitted(Duration::from_micros(30));
        m.record_rejected();
        m.record_released();
        m.record_timeout();
        assert_eq!(m.admitted(), 2);
        assert_eq!(m.rejected(), 1);
        assert_eq!(m.released(), 1);
        assert_eq!(m.timeouts(), 1);
        assert_eq!(m.mean_queue_wait(), Duration::from_micros(20));
        assert_eq!(m.max_queue_wait(), Duration::from_micros(30));
    }
}
