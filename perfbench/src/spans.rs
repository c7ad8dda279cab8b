//! The benchmark's own tracing: a timing wrapper interposed between
//! layers of a service stack, and the in-memory span log it records into.

use contention::{Estimate, Method};
use platform::{SystemSpec, UseCase};
use runtime::{
    AdmissionDecision, AdmissionRequest, AdmissionService, ServiceError, TelemetrySnapshot,
    TraceEvent, TraceRecorder,
};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Kind of caller-visible operation a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Admit,
    Release,
    Estimate,
    Rebalance,
}

impl OpKind {
    pub const ALL: [OpKind; 4] = [
        OpKind::Admit,
        OpKind::Release,
        OpKind::Estimate,
        OpKind::Rebalance,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Admit => "admit",
            OpKind::Release => "release",
            OpKind::Estimate => "estimate",
            OpKind::Rebalance => "rebalance",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub kind: OpKind,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one run, kept in memory until the run ends.
///
/// The caller loop is single-threaded and closed, so at most one request
/// is in flight: every layer, on whatever thread it runs, stamps its span
/// with the id the caller set for the request it is serving. Between
/// timed requests (set-up, warm-up, checks) nothing is recorded.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next: AtomicU64,
    /// Id of the request in flight; 0 while no timed request is.
    current: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            current: AtomicU64::new(0),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        })
    }

    /// Assigns the next request id, run-wide, to the request the caller
    /// is about to issue.
    pub fn begin_request(&self) {
        let id = self.next.fetch_add(1, Ordering::SeqCst);
        self.current.store(id, Ordering::SeqCst);
    }

    /// Stops recording until the next timed request.
    pub fn idle(&self) {
        self.current.store(0, Ordering::SeqCst);
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(
        &self,
        name: &'static str,
        parent: Option<&'static str>,
        kind: OpKind,
        start_ns: u64,
    ) {
        let end_ns = self.now_ns();
        let request = self.current.load(Ordering::SeqCst);
        if request == 0 {
            return;
        }
        let span = Span {
            name,
            parent,
            kind,
            request,
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("span log lock poisoned")
            .push(span);
    }

    /// Per request: the duration of the span named `name`, keyed by
    /// request id, for requests of `kind`.
    pub fn durations(&self, name: &str, kind: OpKind) -> BTreeMap<u64, u64> {
        self.spans
            .lock()
            .expect("span log lock poisoned")
            .iter()
            .filter(|s| s.name == name && s.kind == kind)
            .map(|s| (s.request, s.ns()))
            .collect()
    }

    /// Writes every span as tab-separated text: request, kind, name,
    /// parent, start and end in nanoseconds since the run began.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tkind\tname\tparent\tstart_ns\tend_ns")?;
        for s in self.spans.lock().expect("span log lock poisoned").iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.request,
                s.kind.name(),
                s.name,
                s.parent.unwrap_or("-"),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Timing wrapper: records one span around every call into the layer it
/// wraps and forwards everything else untouched.
pub struct Timed<S> {
    name: &'static str,
    parent: Option<&'static str>,
    log: Arc<SpanLog>,
    inner: S,
}

impl<S: AdmissionService> Timed<S> {
    pub fn new(
        name: &'static str,
        parent: Option<&'static str>,
        log: &Arc<SpanLog>,
        inner: S,
    ) -> Timed<S> {
        Timed {
            name,
            parent,
            log: Arc::clone(log),
            inner,
        }
    }

    fn span<T>(&self, kind: OpKind, call: impl FnOnce() -> T) -> T {
        let start = self.log.now_ns();
        let out = call();
        self.log.record(self.name, self.parent, kind, start);
        out
    }
}

impl<S: AdmissionService> AdmissionService for Timed<S> {
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError> {
        self.span(OpKind::Admit, || self.inner.admit(request))
    }

    fn release(&self, resident: u64) -> Result<(), ServiceError> {
        self.span(OpKind::Release, || self.inner.release(resident))
    }

    // Required by the trait; the benchmark reads no snapshot counters.
    fn snapshot(&self) -> runtime::ServiceSnapshot {
        self.inner.snapshot()
    }

    fn workload(&self) -> Option<&SystemSpec> {
        self.inner.workload()
    }

    fn estimate(&self, use_case: UseCase, method: Method) -> Result<Arc<Estimate>, ServiceError> {
        self.span(OpKind::Estimate, || self.inner.estimate(use_case, method))
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        self.inner.telemetry()
    }

    fn trace_tail(&self, limit: usize) -> Vec<TraceEvent> {
        self.inner.trace_tail(limit)
    }

    fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.inner.trace_recorder()
    }
}
