//! Shared outcome counters for the online resource manager.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free outcome counters shared by every thread driving a
/// [`ResourceManager`](crate::ResourceManager).
#[derive(Debug, Default)]
pub struct RuntimeMetrics {
    admitted: AtomicU64,
    rejected: AtomicU64,
    released: AtomicU64,
    saturated: AtomicU64,
    stopped_rejections: AtomicU64,
    analysis_errors: AtomicU64,
}

impl RuntimeMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> RuntimeMetrics {
        RuntimeMetrics::default()
    }

    pub(crate) fn record_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_released(&self) {
        self.released.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_saturated(&self) {
        self.saturated.fetch_add(1, Ordering::Relaxed);
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

    /// Admissions refused because the shard was at capacity.
    pub fn saturated(&self) -> u64 {
        self.saturated.load(Ordering::Relaxed)
    }

    /// Admissions refused because the manager was stopped.
    pub fn stopped_rejections(&self) -> u64 {
        self.stopped_rejections.load(Ordering::Relaxed)
    }

    /// Admissions that failed with a hard analysis error.
    pub fn analysis_errors(&self) -> u64 {
        self.analysis_errors.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_accumulate() {
        let m = RuntimeMetrics::new();
        m.record_admitted();
        m.record_admitted();
        m.record_rejected();
        m.record_released();
        m.record_saturated();
        assert_eq!(m.admitted(), 2);
        assert_eq!(m.rejected(), 1);
        assert_eq!(m.released(), 1);
        assert_eq!(m.saturated(), 1);
    }
}
