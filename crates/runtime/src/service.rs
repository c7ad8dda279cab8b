//! The unified, layered admission-service API.
//!
//! Every online surface of this crate used to expose its own
//! request/response shape: [`ResourceManager`] returned tickets, the
//! [`FleetManager`] its own admission enum, caching and journaling were
//! bolted on *beside* the managers. This module turns them into **one
//! protocol with many channels**: a typed [`AdmissionRequest`] /
//! [`AdmissionDecision`] vocabulary and an [`AdmissionService`] trait that
//! both managers implement, plus tower-style middleware that composes via
//! generics:
//!
//! * [`Cached<S>`] — serves [`estimate`](AdmissionService::estimate)
//!   requests from an LRU [`EstimateCache`], with per-layer hit/miss
//!   metrics and [sign-off warming](Cached::warm_from_signoff);
//! * [`Journaled<S>`] — records every decision of *any* service into an
//!   append-only [`Journal`] replayable by
//!   [`JournalReplayer`](crate::JournalReplayer);
//! * [`Traced<S>`](crate::Traced) — per-operation latency/throughput
//!   counters and the decision flight recorder (see
//!   [`telemetry`](crate::telemetry)).
//!
//! Layers compose in any order with equivalent decisions (`Cached` and
//! `Traced` are decision-transparent; `Journaled` only observes), so a
//! stack like `Traced<Cached<Journaled<FleetManager>>>` is built from
//! plain constructors and driven through `Box<dyn AdmissionService>` — the
//! [`FrontEnd`](crate::FrontEnd) event loop multiplexes thousands of
//! queued admissions over exactly this object.
//!
//! # Example
//!
//! ```
//! use platform::{Application, Mapping, SystemSpec};
//! use runtime::{
//!     AdmissionRequest, AdmissionService, Cached, FleetConfig, FleetManager, Journaled,
//!     RoutingPolicy,
//! };
//! use sdf::figure2_graphs;
//!
//! let (a, b) = figure2_graphs();
//! let spec = SystemSpec::builder()
//!     .application(Application::new("A", a)?)
//!     .application(Application::new("B", b)?)
//!     .mapping(Mapping::by_actor_index(3))
//!     .build()?;
//! let fleet = FleetManager::new(spec, FleetConfig::default())?;
//!
//! // Layer journal recording and estimate caching over the fleet; the
//! // stack is still one AdmissionService.
//! let stack = Cached::new(Journaled::new(fleet), 64);
//! let decision = stack.admit(&AdmissionRequest::new(0))?;
//! assert!(decision.is_admitted());
//! stack.release(decision.resident().expect("admitted"))?;
//!
//! let snapshot = stack.snapshot();
//! assert_eq!(snapshot.admitted, 1);
//! assert_eq!(snapshot.released, 1);
//! assert_eq!(snapshot.counter("journaled", "entries"), Some(2));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cache::{lock, CacheKey, EstimateCache};
use crate::fleet::{FleetAdmission, FleetError, FleetManager};
use crate::journal::{DecisionEvent, Journal, JournalHeader, JournalOutcome};
use crate::manager::{Admission, AdmitError, ResourceManager, Ticket};
use crate::telemetry::{
    SpanContext, SpanScope, TelemetrySnapshot, TraceEvent, TraceKind, TraceRecorder,
};
use contention::{AdmissionOutcome, ContentionError, Estimate, Method, Violation};
use experiments::signoff::SignOffReport;
use platform::{AppId, Application, NodeId, SystemSpec, UseCase};
use sdf::Rational;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One admission request, phrased against the service's workload spec.
///
/// Requests are *spec-relative*: they name the application by index, so the
/// same request stream can drive any [`AdmissionService`] — a single
/// manager, a fleet, or a middleware stack — without knowing how the
/// service instantiates and maps the application.
///
/// Serializable: the [`remote`](crate::remote) transport ships requests
/// between processes exactly as drivers phrase them.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AdmissionRequest {
    /// Index of the application in the service's workload spec (reduced
    /// modulo the application count).
    pub app_index: usize,
    /// Required minimum throughput, if the request carries a contract.
    pub required_throughput: Option<Rational>,
    /// Affinity tag steering tag-aware routing (ignored by services without
    /// affinity routing).
    pub affinity: Option<String>,
    /// Explicit admission domain (fleet group / manager shard) bypassing
    /// the service's routing; `None` lets the service route.
    pub target: Option<usize>,
    /// Causal span context minted at the outermost layer that saw the
    /// request (remote client / front-end); layers derive child spans
    /// from it. Trailing `skip_none` field: requests to and from peers
    /// that predate spans interop byte-identically on both codecs.
    #[serde(skip_none)]
    pub span: Option<SpanContext>,
}

impl AdmissionRequest {
    /// Request for an instance of application `app_index`, routed by the
    /// service, with no contract.
    pub fn new(app_index: usize) -> AdmissionRequest {
        AdmissionRequest {
            app_index,
            ..AdmissionRequest::default()
        }
    }

    /// Demands a minimum throughput.
    #[must_use]
    pub fn with_contract(mut self, required_throughput: Rational) -> AdmissionRequest {
        self.required_throughput = Some(required_throughput);
        self
    }

    /// Steers affinity-aware routing.
    #[must_use]
    pub fn with_affinity(mut self, tag: impl Into<String>) -> AdmissionRequest {
        self.affinity = Some(tag.into());
        self
    }

    /// Targets an explicit admission domain, bypassing routing.
    #[must_use]
    pub fn on(mut self, domain: usize) -> AdmissionRequest {
        self.target = Some(domain);
        self
    }

    /// Attaches an explicit span context (normally minted by the
    /// outermost layer, not by callers).
    #[must_use]
    pub fn with_span(mut self, span: SpanContext) -> AdmissionRequest {
        self.span = Some(span);
        self
    }
}

/// The shared decision vocabulary: what any [`AdmissionService`] answers.
///
/// This is the one decision enum the crate's previously divergent shapes
/// (`contention::AdmissionOutcome`, `runtime::Admission`,
/// `runtime::FleetAdmission`) convert into — see the `From` conversions —
/// and the only shape middleware layers and the
/// [`FrontEnd`](crate::FrontEnd) ever see.
///
/// Serializable: decisions cross the [`remote`](crate::remote) wire with
/// exact rational periods and full violation lists.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionDecision {
    /// Admitted: the service holds the capacity under `resident` until
    /// [`release`](AdmissionService::release)d.
    Admitted {
        /// Service-scoped resident id keying the later release.
        resident: u64,
        /// Admission domain (fleet group / manager shard) that decided.
        domain: usize,
        /// Period predicted for the new resident at admission time.
        predicted_period: Rational,
    },
    /// Rejected by throughput contracts; no capacity was consumed.
    Rejected {
        /// Admission domain that decided.
        domain: usize,
        /// Every violated requirement.
        violations: Vec<Violation>,
    },
    /// The routed domain had no free capacity; no capacity was consumed.
    Saturated {
        /// Admission domain that decided.
        domain: usize,
    },
}

impl AdmissionDecision {
    /// `true` iff admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, AdmissionDecision::Admitted { .. })
    }

    /// The resident id, if admitted.
    pub fn resident(&self) -> Option<u64> {
        match self {
            AdmissionDecision::Admitted { resident, .. } => Some(*resident),
            _ => None,
        }
    }

    /// The admission domain that decided.
    pub fn domain(&self) -> usize {
        match self {
            AdmissionDecision::Admitted { domain, .. }
            | AdmissionDecision::Rejected { domain, .. }
            | AdmissionDecision::Saturated { domain } => *domain,
        }
    }
}

impl fmt::Display for AdmissionDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionDecision::Admitted {
                resident,
                domain,
                predicted_period,
            } => write!(
                f,
                "admitted #{resident} on domain {domain} (predicted period {predicted_period})"
            ),
            AdmissionDecision::Rejected { domain, violations } => {
                write!(
                    f,
                    "rejected on domain {domain} ({} violations)",
                    violations.len()
                )
            }
            AdmissionDecision::Saturated { domain } => write!(f, "saturated on domain {domain}"),
        }
    }
}

/// Conversion from the admission controller's outcome, given the domain
/// that ran the analysis.
impl From<(usize, &AdmissionOutcome)> for AdmissionDecision {
    fn from((domain, outcome): (usize, &AdmissionOutcome)) -> AdmissionDecision {
        match outcome {
            AdmissionOutcome::Admitted {
                id,
                predicted_periods,
            } => AdmissionDecision::Admitted {
                resident: id.0 as u64,
                domain,
                predicted_period: predicted_periods.get(id).copied().unwrap_or(Rational::ZERO),
            },
            AdmissionOutcome::Rejected { violations } => AdmissionDecision::Rejected {
                domain,
                violations: violations.clone(),
            },
        }
    }
}

/// Conversion from the fleet's admission shape (non-owning: the ticket
/// keeps the capacity).
impl From<&FleetAdmission> for AdmissionDecision {
    fn from(admission: &FleetAdmission) -> AdmissionDecision {
        match admission {
            FleetAdmission::Admitted(ticket) => AdmissionDecision::Admitted {
                resident: ticket.resident_id(),
                domain: ticket.group(),
                predicted_period: ticket.predicted_period(),
            },
            FleetAdmission::Rejected { group, violations } => AdmissionDecision::Rejected {
                domain: *group,
                violations: violations.clone(),
            },
            FleetAdmission::Saturated { group } => AdmissionDecision::Saturated { domain: *group },
        }
    }
}

/// Why a service operation failed outright (as opposed to deciding a
/// rejection or saturation — those are [`AdmissionDecision`]s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The service has no workload spec bound
    /// (see [`ResourceManager::bind_workload`]).
    NoWorkload,
    /// The resident id is not (or no longer) live on this service.
    UnknownResident(u64),
    /// The requested admission domain is out of range.
    UnknownDomain(usize),
    /// The service (or its front-end) was stopped before deciding.
    Stopped,
    /// A front-end submission queue was full.
    QueueFull,
    /// The configuration or an artefact was unusable (parse failures, …).
    Config(String),
    /// The underlying analysis failed; no decision was computed.
    Analysis(ContentionError),
    /// A remote transport failed before a decision arrived (disconnect,
    /// malformed frame, handshake refusal) — see [`crate::remote`]. The
    /// request may or may not have been decided by the far end.
    Transport(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::NoWorkload => write!(f, "service has no workload spec bound"),
            ServiceError::UnknownResident(r) => write!(f, "resident #{r} is not live"),
            ServiceError::UnknownDomain(d) => write!(f, "admission domain {d} out of range"),
            ServiceError::Stopped => write!(f, "service is stopped"),
            ServiceError::QueueFull => write!(f, "submission queue is full"),
            ServiceError::Config(e) => write!(f, "service configuration error: {e}"),
            ServiceError::Analysis(e) => write!(f, "analysis failure: {e}"),
            ServiceError::Transport(e) => write!(f, "transport failure: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Analysis(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ContentionError> for ServiceError {
    fn from(e: ContentionError) -> Self {
        ServiceError::Analysis(e)
    }
}

/// Rate and quantile summary of one operation class on one layer,
/// surfaced in the [`ServiceSnapshot`] ops table. All fields are plain
/// integers so snapshots stay `Eq` and wire-serializable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpRate {
    /// Operation class (`"admit"`, `"release"`, …).
    pub op: String,
    /// Operations recorded.
    pub count: u64,
    /// Operations per second over the layer's measurement window
    /// (since the previous snapshot for [`Traced`](crate::Traced), since
    /// start-up otherwise), rounded.
    pub ops_per_sec: u64,
    /// Median latency in microseconds.
    pub p50_us: u64,
    /// 90th-percentile latency in microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency in microseconds.
    pub p999_us: u64,
    /// Maximum latency in microseconds.
    pub max_us: u64,
}

/// One middleware layer's own counters, surfaced through
/// [`AdmissionService::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerMetrics {
    /// Layer name (`"manager"`, `"fleet"`, `"cached"`, `"journaled"`,
    /// `"traced"`, `"front-end"`).
    pub layer: String,
    /// Ordered `(metric, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// Per-operation rate/quantile rows (empty on layers that do not
    /// time operations).
    pub ops: Vec<OpRate>,
}

impl LayerMetrics {
    /// Empty metrics for a named layer.
    pub fn new(layer: impl Into<String>) -> LayerMetrics {
        LayerMetrics {
            layer: layer.into(),
            counters: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Appends one counter.
    #[must_use]
    pub fn counter(mut self, name: impl Into<String>, value: u64) -> LayerMetrics {
        self.counters.push((name.into(), value));
        self
    }

    /// Appends one per-operation rate row.
    #[must_use]
    pub fn op_rate(mut self, rate: OpRate) -> LayerMetrics {
        self.ops.push(rate);
        self
    }
}

/// Point-in-time state of a whole service stack: the base service's
/// utilisation/outcome totals plus one [`LayerMetrics`] entry per layer,
/// innermost first. Serializable, so a [`RemoteClient`](crate::remote)
/// surfaces the far end's layer table as its own inner layers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// Live residents.
    pub residents: usize,
    /// Total resident capacity.
    pub capacity: usize,
    /// Admissions granted.
    pub admitted: u64,
    /// Admissions rejected by throughput contracts.
    pub rejected: u64,
    /// Admissions bounced for lack of capacity.
    pub saturated: u64,
    /// Residents released.
    pub released: u64,
    /// Per-layer metrics, innermost layer first.
    pub layers: Vec<LayerMetrics>,
}

impl ServiceSnapshot {
    /// Resident/capacity ratio.
    pub fn utilisation(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.residents as f64 / self.capacity as f64
        }
    }

    /// Looks up one layer counter by layer and metric name.
    pub fn counter(&self, layer: &str, name: &str) -> Option<u64> {
        self.layers
            .iter()
            .filter(|l| l.layer == layer)
            .flat_map(|l| l.counters.iter())
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Renders the consistent per-layer metrics table printed by
    /// `probcon fleet-bench`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "service: {}/{} residents ({:.0}% util), {} admitted, {} rejected, \
             {} saturated, {} released",
            self.residents,
            self.capacity,
            100.0 * self.utilisation(),
            self.admitted,
            self.rejected,
            self.saturated,
            self.released,
        );
        if self.layers.is_empty() {
            return out;
        }
        let _ = writeln!(out, "{:<12} {:<26} {:>14}", "layer", "metric", "value");
        for layer in &self.layers {
            for (name, value) in &layer.counters {
                let _ = writeln!(out, "{:<12} {:<26} {:>14}", layer.layer, name, value);
            }
        }
        if self.layers.iter().any(|l| !l.ops.is_empty()) {
            let _ = writeln!(
                out,
                "{:<12} {:<10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                "layer", "op", "count", "ops/s", "p50_us", "p90_us", "p99_us", "p999_us", "max_us"
            );
            for layer in &self.layers {
                for rate in &layer.ops {
                    let _ = writeln!(
                        out,
                        "{:<12} {:<10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                        layer.layer,
                        rate.op,
                        rate.count,
                        rate.ops_per_sec,
                        rate.p50_us,
                        rate.p90_us,
                        rate.p99_us,
                        rate.p999_us,
                        rate.max_us
                    );
                }
            }
        }
        out
    }
}

/// The unified admission-service abstraction (see the [module docs](self)).
///
/// Implementations decide **without blocking for capacity**: a full domain
/// answers [`AdmissionDecision::Saturated`] immediately (callers wanting
/// bounded waiting queue *submissions*, not decisions — that is the
/// [`FrontEnd`](crate::FrontEnd)'s job). Every method takes `&self`; all
/// implementations in this crate are thread-safe.
pub trait AdmissionService: Send + Sync {
    /// Decides one admission request.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when no decision could be computed; rejection and
    /// saturation are decisions, not errors.
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError>;

    /// Releases a resident admitted through this service.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownResident`] when not (or no longer) live.
    fn release(&self, resident: u64) -> Result<(), ServiceError>;

    /// Point-in-time utilisation/outcome summary of the whole stack, with
    /// per-layer metrics appended by every middleware layer.
    fn snapshot(&self) -> ServiceSnapshot;

    /// The workload spec requests index into (`None` when unbound).
    fn workload(&self) -> Option<&SystemSpec>;

    /// Estimates all per-application periods of `use_case` under `method`.
    ///
    /// The default implementation computes a fresh estimate from the
    /// workload spec; a [`Cached`] layer serves repeats from its LRU.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoWorkload`] / [`ServiceError::Analysis`].
    fn estimate(&self, use_case: UseCase, method: Method) -> Result<Arc<Estimate>, ServiceError> {
        let spec = self.workload().ok_or(ServiceError::NoWorkload)?;
        Ok(Arc::new(contention::estimate(spec, use_case, method)?))
    }

    /// Begins an admission without blocking the caller: the decision is
    /// delivered through the returned [`Completion`], which can be polled
    /// or waited on.
    ///
    /// The default implementation decides synchronously and returns an
    /// already-completed completion; the [`FrontEnd`](crate::FrontEnd)
    /// overrides this with a genuinely queued submission.
    fn submit(&self, request: AdmissionRequest) -> Completion {
        Completion::ready(self.admit(&request))
    }

    /// Live telemetry for the whole stack: the layered snapshot plus full
    /// per-op latency distributions and flight-recorder stats.
    ///
    /// The default implementation wraps [`snapshot`](Self::snapshot) with
    /// no distributions; instrumented layers ([`Traced`](crate::Traced),
    /// [`FrontEnd`](crate::FrontEnd)) append
    /// their histograms, and a [`RemoteClient`](crate::RemoteClient)
    /// forwards the request over the wire.
    fn telemetry(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::from_service(self.snapshot())
    }

    /// Up to the last `limit` flight-recorder events, oldest first.
    ///
    /// Empty by default; a [`Traced`](crate::Traced) layer answers from
    /// its ring buffer, middleware forwards inward, and a
    /// [`RemoteClient`](crate::RemoteClient) fetches the far end's tail.
    fn trace_tail(&self, limit: usize) -> Vec<TraceEvent> {
        let _ = limit;
        Vec::new()
    }

    /// The stack's shared flight recorder, if one is present — how a
    /// server layer records transport spans (frame decode, dispatch)
    /// into the same ring as the decision layers. Middleware forwards
    /// inward; a [`Traced`](crate::Traced) layer answers its own.
    fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        None
    }
}

impl<S: AdmissionService + ?Sized> AdmissionService for Arc<S> {
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError> {
        (**self).admit(request)
    }

    fn release(&self, resident: u64) -> Result<(), ServiceError> {
        (**self).release(resident)
    }

    fn snapshot(&self) -> ServiceSnapshot {
        (**self).snapshot()
    }

    fn workload(&self) -> Option<&SystemSpec> {
        (**self).workload()
    }

    fn estimate(&self, use_case: UseCase, method: Method) -> Result<Arc<Estimate>, ServiceError> {
        (**self).estimate(use_case, method)
    }

    fn submit(&self, request: AdmissionRequest) -> Completion {
        (**self).submit(request)
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        (**self).telemetry()
    }

    fn trace_tail(&self, limit: usize) -> Vec<TraceEvent> {
        (**self).trace_tail(limit)
    }

    fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        (**self).trace_recorder()
    }
}

// ---------------------------------------------------------------------------
// Completions: the poll/wait handle for non-blocking submissions.
// ---------------------------------------------------------------------------

struct CompletionState<T> {
    slot: Mutex<Option<Result<T, ServiceError>>>,
    cond: Condvar,
    /// One-shot callback run when the result arrives, so event loops can
    /// be woken instead of parking a thread per completion.
    watcher: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl<T: fmt::Debug> fmt::Debug for CompletionState<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompletionState")
            .field("slot", &self.slot)
            .finish_non_exhaustive()
    }
}

/// A one-shot completion: the receiving half of
/// [`AdmissionService::submit`] (and of queued releases, which complete
/// with `()`).
///
/// Poll it ([`poll`](Completion::poll) / [`is_ready`](Completion::is_ready))
/// from an event loop, or block on [`wait`](Completion::wait). The result
/// can be read any number of times.
#[derive(Debug)]
pub struct Completion<T = AdmissionDecision> {
    state: Arc<CompletionState<T>>,
}

impl<T> Clone for Completion<T> {
    fn clone(&self) -> Self {
        Completion {
            state: Arc::clone(&self.state),
        }
    }
}

/// The fulfilling half of a pending [`Completion`]. Dropping a completer
/// without completing delivers [`ServiceError::Stopped`] — a submission can
/// never be silently lost.
#[derive(Debug)]
pub struct Completer<T = AdmissionDecision> {
    state: Arc<CompletionState<T>>,
    done: bool,
}

impl<T: Clone> Completion<T> {
    /// An already-decided completion.
    pub fn ready(result: Result<T, ServiceError>) -> Completion<T> {
        Completion {
            state: Arc::new(CompletionState {
                slot: Mutex::new(Some(result)),
                cond: Condvar::new(),
                watcher: Mutex::new(None),
            }),
        }
    }

    /// A pending completion and its fulfilling half.
    pub fn pending() -> (Completer<T>, Completion<T>) {
        let state = Arc::new(CompletionState {
            slot: Mutex::new(None),
            cond: Condvar::new(),
            watcher: Mutex::new(None),
        });
        (
            Completer {
                state: Arc::clone(&state),
                done: false,
            },
            Completion { state },
        )
    }

    /// `true` once the result arrived.
    pub fn is_ready(&self) -> bool {
        lock(&self.state.slot).is_some()
    }

    /// The result, if it arrived (non-blocking).
    pub fn poll(&self) -> Option<Result<T, ServiceError>> {
        lock(&self.state.slot).clone()
    }

    /// Blocks until the result arrives.
    pub fn wait(&self) -> Result<T, ServiceError> {
        let mut slot = lock(&self.state.slot);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self
                .state
                .cond
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Registers a one-shot callback run exactly once when the result
    /// arrives (immediately, on this thread, if it already has). Event
    /// loops use this to be woken instead of parking a thread per
    /// completion — the callback should only signal (set a flag, write a
    /// wake pipe), never block. A second `watch` replaces an undelivered
    /// earlier callback.
    pub fn watch(&self, f: impl FnOnce() + Send + 'static) {
        // Hold the watcher lock across the slot check: `Completer::fill`
        // sets the slot *before* taking the watcher lock, so either we see
        // the slot filled here (run inline) or the filler sees our stored
        // callback (runs it after delivery) — exactly one side fires.
        let mut watcher = lock(&self.state.watcher);
        if lock(&self.state.slot).is_some() {
            drop(watcher);
            f();
        } else {
            *watcher = Some(Box::new(f));
        }
    }

    /// Blocks until the result arrives or `timeout` elapses.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<T, ServiceError>> {
        let deadline = Instant::now() + timeout;
        let mut slot = lock(&self.state.slot);
        loop {
            if let Some(result) = slot.as_ref() {
                return Some(result.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .state
                .cond
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            slot = guard;
        }
    }
}

impl<T> Completer<T> {
    /// Delivers the result, waking every waiter.
    pub fn complete(mut self, result: Result<T, ServiceError>) {
        self.fill(result);
    }

    fn fill(&mut self, result: Result<T, ServiceError>) {
        if self.done {
            return;
        }
        self.done = true;
        let mut slot = lock(&self.state.slot);
        if slot.is_none() {
            *slot = Some(result);
        }
        drop(slot);
        self.state.cond.notify_all();
        // Fire a registered watcher outside both locks, so a callback that
        // itself drops completers or re-registers cannot deadlock.
        let watcher = lock(&self.state.watcher).take();
        if let Some(f) = watcher {
            f();
        }
    }
}

impl<T> Drop for Completer<T> {
    fn drop(&mut self) {
        self.fill(Err(ServiceError::Stopped));
    }
}

// ---------------------------------------------------------------------------
// Base implementations: ResourceManager, FleetManager.
// ---------------------------------------------------------------------------

/// Per-manager service bookkeeping: the bound workload spec and the
/// resident registry keying service releases.
#[derive(Debug, Default)]
pub(crate) struct ServiceState {
    pub(crate) spec: OnceLock<SystemSpec>,
    pub(crate) residents: Mutex<BTreeMap<u64, Ticket>>,
    pub(crate) next_resident: AtomicU64,
}

/// Fresh instance + node assignment of the spec's application `app_index`
/// (reduced modulo the application count).
pub(crate) fn instantiate(spec: &SystemSpec, app_index: usize) -> (Application, Vec<NodeId>) {
    let id = AppId(app_index % spec.application_count());
    let app = spec.application(id).clone();
    let assignment = app
        .graph()
        .actor_ids()
        .map(|actor| spec.node_of(id, actor))
        .collect();
    (app, assignment)
}

impl AdmissionService for ResourceManager {
    /// Admissions are routed to `request.target` (a shard index) or the
    /// least-loaded shard (a deterministic function of the resident mix, so
    /// all shards fill evenly and journaled decisions stay replayable), and
    /// never wait: a full shard answers [`AdmissionDecision::Saturated`].
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError> {
        let state = self.service_state();
        let spec = state.spec.get().ok_or(ServiceError::NoWorkload)?;
        let app_index = request.app_index % spec.application_count();
        let (app, assignment) = instantiate(spec, app_index);
        let shard = match request.target {
            Some(shard) if shard >= self.shard_count() => {
                return Err(ServiceError::UnknownDomain(shard))
            }
            Some(shard) => shard,
            None => self.least_loaded_shard(),
        };
        match ResourceManager::admit(self, shard, app, &assignment, request.required_throughput) {
            Ok(Admission::Admitted(ticket)) => {
                let resident = state.next_resident.fetch_add(1, Ordering::Relaxed);
                let predicted_period = ticket.predicted_period().unwrap_or(Rational::ZERO);
                lock(&state.residents).insert(resident, ticket);
                Ok(AdmissionDecision::Admitted {
                    resident,
                    domain: shard,
                    predicted_period,
                })
            }
            Ok(Admission::Rejected { violations }) => Ok(AdmissionDecision::Rejected {
                domain: shard,
                violations,
            }),
            Err(AdmitError::Saturated) => Ok(AdmissionDecision::Saturated { domain: shard }),
            Err(AdmitError::Stopped) => Err(ServiceError::Stopped),
            Err(AdmitError::InvalidShard(s)) => Err(ServiceError::UnknownDomain(s)),
            Err(AdmitError::Analysis(e)) => Err(ServiceError::Analysis(e)),
        }
    }

    fn release(&self, resident: u64) -> Result<(), ServiceError> {
        let ticket = lock(&self.service_state().residents).remove(&resident);
        match ticket {
            Some(ticket) => {
                ticket.release();
                Ok(())
            }
            None => Err(ServiceError::UnknownResident(resident)),
        }
    }

    fn snapshot(&self) -> ServiceSnapshot {
        let metrics = self.metrics();
        ServiceSnapshot {
            residents: self.resident_count(),
            capacity: self.capacity(),
            admitted: metrics.admitted(),
            rejected: metrics.rejected(),
            saturated: metrics.saturated(),
            released: metrics.released(),
            layers: vec![LayerMetrics::new("manager")
                .counter("shards", self.shard_count() as u64)
                .counter("stopped_rejections", metrics.stopped_rejections())
                .counter("analysis_errors", metrics.analysis_errors())],
        }
    }

    fn workload(&self) -> Option<&SystemSpec> {
        self.service_state().spec.get()
    }
}

impl AdmissionService for FleetManager {
    /// Admissions go through the fleet's routing policy (or
    /// `request.target` as an explicit group) and are journaled by the
    /// fleet exactly like ticket-based admissions. When a flight recorder
    /// is [attached](FleetManager::attach_trace) and the request is
    /// traced, the decision is also recorded as the innermost
    /// [`TraceKind::FleetAdmit`] span.
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError> {
        let start = Instant::now();
        let result = match request.target {
            // Pass the affinity tag through even on targeted admissions:
            // it does not steer the decision (the target does), but the
            // journaled entry must carry it so replays re-record the
            // recorded stream byte for byte.
            Some(group) => self.admit_to_with_affinity(
                group,
                request.app_index,
                request.required_throughput,
                request.affinity.as_deref(),
            ),
            None => FleetManager::admit(
                self,
                request.app_index,
                request.required_throughput,
                request.affinity.as_deref(),
            ),
        };
        match result {
            Ok(admission) => {
                let decision = AdmissionDecision::from(&admission);
                if let FleetAdmission::Admitted(ticket) = admission {
                    // The fleet's resident registry keeps the capacity; the
                    // service path releases by id, not by RAII ticket.
                    ticket.forget();
                }
                if let Some(recorder) = self.attached_trace() {
                    if SpanScope::current().is_some() || request.span.is_some() {
                        recorder.record(
                            TraceEvent::new(TraceKind::FleetAdmit)
                                .app(request.app_index)
                                .domain(decision.domain())
                                .duration(start.elapsed()),
                        );
                    }
                }
                Ok(decision)
            }
            Err(FleetError::UnknownGroup(g)) => Err(ServiceError::UnknownDomain(g)),
            Err(FleetError::Admit(AdmitError::Stopped)) => Err(ServiceError::Stopped),
            Err(FleetError::Admit(AdmitError::Analysis(e))) => Err(ServiceError::Analysis(e)),
            Err(e) => Err(ServiceError::Config(e.to_string())),
        }
    }

    fn release(&self, resident: u64) -> Result<(), ServiceError> {
        if self.release_resident(resident) {
            Ok(())
        } else {
            Err(ServiceError::UnknownResident(resident))
        }
    }

    fn snapshot(&self) -> ServiceSnapshot {
        let snapshot = FleetManager::snapshot(self);
        ServiceSnapshot {
            residents: snapshot.residents,
            capacity: snapshot.capacity,
            admitted: snapshot.admitted,
            rejected: snapshot.rejected,
            saturated: snapshot.saturated,
            released: snapshot.released,
            layers: vec![LayerMetrics::new("fleet")
                .counter("groups", self.group_count() as u64)
                .counter("rebalances", snapshot.rebalances)
                .counter("resizes", snapshot.resizes)
                .counter("resize_refusals", snapshot.resize_refusals)
                .counter("journal_entries", self.journal().len() as u64)],
        }
    }

    fn workload(&self) -> Option<&SystemSpec> {
        Some(self.spec())
    }

    /// The base telemetry view plus a `"fleet-groups"` layer carrying each
    /// group's residents, capacity and utilisation — the per-group detail
    /// `probcon top` renders that the aggregate snapshot flattens away.
    fn telemetry(&self) -> TelemetrySnapshot {
        let mut telemetry = TelemetrySnapshot::from_service(AdmissionService::snapshot(self));
        let snapshot = FleetManager::snapshot(self);
        let mut groups = LayerMetrics::new("fleet-groups");
        for group in &snapshot.groups {
            groups = groups
                .counter(format!("{}_residents", group.name), group.residents as u64)
                .counter(format!("{}_capacity", group.name), group.capacity as u64)
                .counter(
                    format!("{}_util_percent", group.name),
                    group.utilisation_percent(),
                );
        }
        telemetry.service.layers.push(groups);
        telemetry
    }

    fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.attached_trace().cloned()
    }
}

// ---------------------------------------------------------------------------
// Middleware: Cached, Journaled.
// ---------------------------------------------------------------------------

/// Estimate-caching middleware: serves
/// [`estimate`](AdmissionService::estimate) requests from an LRU
/// [`EstimateCache`] keyed by (spec fingerprint, use-case mask, method),
/// passing admissions straight through — decisions are untouched in any
/// layer order.
///
/// The layer surfaces its own hit/miss/entry counters through
/// [`snapshot`](AdmissionService::snapshot) under the `"cached"` layer, and
/// can be pre-populated from a sign-off artefact with
/// [`warm_from_signoff`](Cached::warm_from_signoff).
#[derive(Debug)]
pub struct Cached<S> {
    inner: S,
    cache: EstimateCache,
    fingerprint: OnceLock<u64>,
    warmed: AtomicU64,
    trace: OnceLock<Arc<TraceRecorder>>,
}

impl<S: AdmissionService> Cached<S> {
    /// Caching layer retaining up to `capacity` estimates.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(inner: S, capacity: usize) -> Cached<S> {
        Cached {
            inner,
            cache: EstimateCache::new(capacity),
            fingerprint: OnceLock::new(),
            warmed: AtomicU64::new(0),
            trace: OnceLock::new(),
        }
    }

    /// Attaches a flight recorder: every estimate served afterwards is
    /// recorded as a [`TraceKind::Estimate`](crate::TraceKind)
    /// event with its cache hit/miss attribution. Attach the recorder of
    /// the stack's outer [`Traced`](crate::Traced) layer to see cache
    /// behaviour inline with decisions. The first attachment wins.
    pub fn attach_trace(&self, recorder: Arc<TraceRecorder>) {
        let _ = self.trace.set(recorder);
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The layer's estimate cache (for direct inspection).
    pub fn cache(&self) -> &EstimateCache {
        &self.cache
    }

    /// Estimates warmed in via [`warm_from_signoff`](Self::warm_from_signoff).
    pub fn warmed(&self) -> u64 {
        self.warmed.load(Ordering::Relaxed)
    }

    fn spec_fingerprint(&self) -> Option<u64> {
        if let Some(f) = self.fingerprint.get() {
            return Some(*f);
        }
        let spec = self.inner.workload()?;
        let f = EstimateCache::fingerprint(spec);
        Some(*self.fingerprint.get_or_init(|| f))
    }

    /// Pre-populates the cache from a sign-off artefact: every one of the
    /// `2ⁿ − 1` use-cases the report enumerated is estimated (with the
    /// report's method) and inserted **before traffic arrives**, so online
    /// estimate requests hit a warm cache. Warming bypasses the hit/miss
    /// counters — the reported hit rate describes traffic only.
    ///
    /// Returns the number of warmed entries.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] when the report's method does not parse,
    /// [`ServiceError::NoWorkload`] when the service has no spec, and any
    /// estimation failure. The report must describe the service's workload.
    pub fn warm_from_signoff(&self, report: &SignOffReport) -> Result<usize, ServiceError> {
        let method: Method = report.method.parse().map_err(ServiceError::Config)?;
        let fingerprint = self.spec_fingerprint().ok_or(ServiceError::NoWorkload)?;
        let mut warmed = 0usize;
        for use_case in UseCase::iter_all(report.apps.len()) {
            let estimate = self.inner.estimate(use_case, method)?;
            self.cache.insert(
                CacheKey {
                    fingerprint,
                    use_case_mask: use_case.mask(),
                    method,
                },
                estimate,
            );
            warmed += 1;
        }
        self.warmed.fetch_add(warmed as u64, Ordering::Relaxed);
        Ok(warmed)
    }

    fn layer(&self) -> LayerMetrics {
        LayerMetrics::new("cached")
            .counter("hits", self.cache.hits())
            .counter("misses", self.cache.misses())
            .counter("entries", self.cache.len() as u64)
            .counter("capacity", self.cache.capacity() as u64)
            .counter("warmed", self.warmed())
    }

    fn trace_estimate(&self, hit: bool, start: Instant) {
        if let Some(recorder) = self.trace.get() {
            recorder.record(
                TraceEvent::new(TraceKind::Estimate)
                    .cache(hit)
                    .duration(start.elapsed()),
            );
        }
    }
}

impl<S: AdmissionService> AdmissionService for Cached<S> {
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError> {
        self.inner.admit(request)
    }

    fn release(&self, resident: u64) -> Result<(), ServiceError> {
        self.inner.release(resident)
    }

    fn snapshot(&self) -> ServiceSnapshot {
        let mut snapshot = self.inner.snapshot();
        snapshot.layers.push(self.layer());
        snapshot
    }

    fn workload(&self) -> Option<&SystemSpec> {
        self.inner.workload()
    }

    fn estimate(&self, use_case: UseCase, method: Method) -> Result<Arc<Estimate>, ServiceError> {
        let start = Instant::now();
        let Some(fingerprint) = self.spec_fingerprint() else {
            return self.inner.estimate(use_case, method); // surfaces NoWorkload
        };
        let key = CacheKey {
            fingerprint,
            use_case_mask: use_case.mask(),
            method,
        };
        if let Some(hit) = self.cache.lookup(&key) {
            self.trace_estimate(true, start);
            return Ok(hit);
        }
        let estimate = self.inner.estimate(use_case, method)?;
        self.cache.insert(key, Arc::clone(&estimate));
        self.trace_estimate(false, start);
        Ok(estimate)
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        let mut telemetry = self.inner.telemetry();
        telemetry.service.layers.push(self.layer());
        telemetry
    }

    fn trace_tail(&self, limit: usize) -> Vec<TraceEvent> {
        self.inner.trace_tail(limit)
    }

    fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.inner.trace_recorder()
    }
}

/// Journal-recording middleware: appends every decision of *any* wrapped
/// service — not just fleets — to an append-only, checksummed
/// [`Journal`].
///
/// Decision and append happen under one internal lock, so the journal
/// order is a valid serialization of the decision order even under
/// concurrent submission — the property
/// [`JournalReplayer`](crate::JournalReplayer) rests on. (The lock
/// serializes decisions across domains; services needing per-domain
/// parallelism at scale keep their own internal journals, like the
/// [`FleetManager`] does.)
///
/// The recorded journal feeds more than verification: entries are stamped
/// with the appending thread's [`ClientScope`](crate::ClientScope) (how a
/// [`RemoteServer`](crate::RemoteServer) attributes decisions per
/// connection), and the capacity planner's [`PlanRun`](crate::PlanRun)
/// replays any recorded journal against hypothetical
/// [`FleetShape`](crate::FleetShape)s — stamp the shape fields with
/// [`with_header`](Self::with_header) so those consumers can rebuild the
/// recorded fleet.
#[derive(Debug)]
pub struct Journaled<S> {
    inner: S,
    journal: Journal,
    order: Mutex<()>,
}

impl<S: AdmissionService> Journaled<S> {
    /// Journaling layer with a default header.
    pub fn new(inner: S) -> Journaled<S> {
        Journaled::with_header(inner, JournalHeader::default())
    }

    /// Journaling layer with an explicit header (stamp the workload and
    /// shape fields so the journal file is self-contained for replay).
    pub fn with_header(inner: S, header: JournalHeader) -> Journaled<S> {
        Journaled {
            inner,
            journal: Journal::new(header),
            order: Mutex::new(()),
        }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The layer's decision journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }
}

impl<S: AdmissionService> AdmissionService for Journaled<S> {
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError> {
        let _order = lock(&self.order);
        let decision = self.inner.admit(request)?;
        let outcome = match &decision {
            AdmissionDecision::Admitted {
                resident,
                predicted_period,
                ..
            } => JournalOutcome::Admitted {
                resident: *resident,
                predicted_period: *predicted_period,
            },
            AdmissionDecision::Rejected { violations, .. } => JournalOutcome::Rejected {
                violations: violations.len() as u64,
            },
            AdmissionDecision::Saturated { .. } => JournalOutcome::Saturated,
        };
        self.journal.append(DecisionEvent::Admit {
            group: decision.domain() as u64,
            app_index: request.app_index as u64,
            required_throughput: request.required_throughput,
            outcome,
            affinity: request.affinity.clone(),
        });
        Ok(decision)
    }

    fn release(&self, resident: u64) -> Result<(), ServiceError> {
        let _order = lock(&self.order);
        self.inner.release(resident)?;
        self.journal.append(DecisionEvent::Release { resident });
        Ok(())
    }

    fn snapshot(&self) -> ServiceSnapshot {
        let mut snapshot = self.inner.snapshot();
        snapshot
            .layers
            .push(LayerMetrics::new("journaled").counter("entries", self.journal.len() as u64));
        snapshot
    }

    fn workload(&self) -> Option<&SystemSpec> {
        self.inner.workload()
    }

    fn estimate(&self, use_case: UseCase, method: Method) -> Result<Arc<Estimate>, ServiceError> {
        // Estimates change no state and are not journaled.
        self.inner.estimate(use_case, method)
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        let mut telemetry = self.inner.telemetry();
        telemetry
            .service
            .layers
            .push(LayerMetrics::new("journaled").counter("entries", self.journal.len() as u64));
        telemetry
    }

    fn trace_tail(&self, limit: usize) -> Vec<TraceEvent> {
        self.inner.trace_tail(limit)
    }

    fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.inner.trace_recorder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, RoutingPolicy};
    use crate::manager::ResourceManagerConfig;
    use platform::{Application, Mapping};
    use sdf::figure2_graphs;

    fn spec() -> SystemSpec {
        let (a, b) = figure2_graphs();
        SystemSpec::builder()
            .application(Application::new("A", a).unwrap())
            .application(Application::new("B", b).unwrap())
            .mapping(Mapping::by_actor_index(3))
            .build()
            .unwrap()
    }

    fn bound_manager(shards: usize, capacity: usize) -> ResourceManager {
        let manager = ResourceManager::new(ResourceManagerConfig {
            shards,
            capacity_per_shard: capacity,
        });
        assert!(manager.bind_workload(spec()));
        manager
    }

    fn fleet(groups: usize, capacity: usize) -> FleetManager {
        FleetManager::new(
            spec(),
            FleetConfig::uniform(groups, 1, capacity, RoutingPolicy::LeastUtilised),
        )
        .unwrap()
    }

    #[test]
    fn request_builder_composes() {
        let request = AdmissionRequest::new(3)
            .with_contract(Rational::new(1, 400))
            .with_affinity("uc1")
            .on(2);
        assert_eq!(request.app_index, 3);
        assert_eq!(request.required_throughput, Some(Rational::new(1, 400)));
        assert_eq!(request.affinity.as_deref(), Some("uc1"));
        assert_eq!(request.target, Some(2));
    }

    #[test]
    fn manager_service_roundtrip() {
        let manager = bound_manager(1, 2);
        let decision = AdmissionService::admit(&manager, &AdmissionRequest::new(0)).unwrap();
        let AdmissionDecision::Admitted {
            resident,
            domain,
            predicted_period,
        } = decision
        else {
            panic!("first admission fits");
        };
        assert_eq!(domain, 0);
        assert!(predicted_period.is_positive());
        assert_eq!(manager.resident_count(), 1);
        manager.release(resident).unwrap();
        assert_eq!(manager.resident_count(), 0);
        assert_eq!(
            manager.release(resident).unwrap_err(),
            ServiceError::UnknownResident(resident)
        );
    }

    #[test]
    fn manager_service_saturates_and_validates_domain() {
        let manager = bound_manager(1, 1);
        let first = AdmissionService::admit(&manager, &AdmissionRequest::new(0).on(0)).unwrap();
        assert!(first.is_admitted());
        // Full shard: a service admission saturates instead of waiting.
        let second = AdmissionService::admit(&manager, &AdmissionRequest::new(1).on(0)).unwrap();
        assert_eq!(second, AdmissionDecision::Saturated { domain: 0 });
        assert_eq!(
            AdmissionService::admit(&manager, &AdmissionRequest::new(0).on(9)).unwrap_err(),
            ServiceError::UnknownDomain(9)
        );
        let snapshot = AdmissionService::snapshot(&manager);
        assert_eq!(snapshot.residents, 1);
        assert_eq!(snapshot.capacity, 1);
        assert_eq!(snapshot.admitted, 1);
        assert_eq!(snapshot.saturated, 1);
        assert_eq!(snapshot.counter("manager", "shards"), Some(1));
    }

    #[test]
    fn unbound_manager_requires_workload() {
        let manager = ResourceManager::new(ResourceManagerConfig::default());
        assert_eq!(
            AdmissionService::admit(&manager, &AdmissionRequest::new(0)).unwrap_err(),
            ServiceError::NoWorkload
        );
        assert!(manager.workload().is_none());
        assert!(manager
            .estimate(UseCase::full(2), Method::SECOND_ORDER)
            .is_err());
        // The first bind wins; rebinding is refused.
        assert!(manager.bind_workload(spec()));
        assert!(!manager.bind_workload(spec()));
        assert!(manager.workload().is_some());
    }

    #[test]
    fn fleet_service_roundtrip_and_conversions() {
        let f = FleetManager::new(
            spec(),
            FleetConfig::uniform(2, 1, 2, RoutingPolicy::Affinity),
        )
        .unwrap();
        let decision =
            AdmissionService::admit(&f, &AdmissionRequest::new(0).with_affinity("uc1")).unwrap();
        assert!(decision.is_admitted());
        assert_eq!(decision.domain(), 1); // affinity routes to the tagged group
        let resident = decision.resident().unwrap();
        assert_eq!(f.resident_count(), 1);

        // Contract rejection converts with its violations.
        let iso = spec().application(AppId(0)).isolation_throughput();
        let rejected =
            AdmissionService::admit(&f, &AdmissionRequest::new(0).on(1).with_contract(iso))
                .unwrap();
        assert!(matches!(
            rejected,
            AdmissionDecision::Rejected { domain: 1, .. }
        ));

        f.release(resident).unwrap();
        assert_eq!(f.resident_count(), 0);
        assert_eq!(
            f.release(resident).unwrap_err(),
            ServiceError::UnknownResident(resident)
        );
        // Admit + reject + release all landed in the fleet's own journal.
        assert_eq!(f.journal().len(), 3);
        assert_eq!(
            AdmissionService::snapshot(&f).counter("fleet", "journal_entries"),
            Some(3)
        );
    }

    #[test]
    fn decision_from_outcome_conversion() {
        let (a, _) = figure2_graphs();
        let mut ctrl = contention::AdmissionController::new();
        let outcome = ctrl
            .admit(
                Application::new("A", a).unwrap(),
                &[NodeId(0), NodeId(1), NodeId(2)],
                None,
            )
            .unwrap();
        let decision = AdmissionDecision::from((3usize, &outcome));
        assert_eq!(
            decision,
            AdmissionDecision::Admitted {
                resident: 0,
                domain: 3,
                predicted_period: Rational::integer(300),
            }
        );
        assert!(decision.to_string().contains("domain 3"));
    }

    #[test]
    fn cached_layer_is_decision_transparent_and_caches_estimates() {
        let bare = fleet(2, 2);
        let cached = Cached::new(fleet(2, 2), 16);

        let request = AdmissionRequest::new(0);
        assert_eq!(
            AdmissionService::admit(&bare, &request).unwrap(),
            cached.admit(&request).unwrap()
        );

        let uc = UseCase::full(2);
        let first = cached.estimate(uc, Method::SECOND_ORDER).unwrap();
        let second = cached.estimate(uc, Method::SECOND_ORDER).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((cached.cache().hits(), cached.cache().misses()), (1, 1));
        let snapshot = cached.snapshot();
        assert_eq!(snapshot.counter("cached", "hits"), Some(1));
        assert_eq!(snapshot.counter("cached", "misses"), Some(1));
    }

    #[test]
    fn cached_warm_from_signoff_prepopulates_without_counting() {
        let cached = Cached::new(fleet(2, 4), 16);
        let report = experiments::signoff::sign_off(&spec(), Method::Composability, None).unwrap();
        let warmed = cached.warm_from_signoff(&report).unwrap();
        assert_eq!(warmed, 3); // 2² − 1 use-cases
        assert_eq!(cached.warmed(), 3);
        assert_eq!(cached.cache().len(), 3);
        // Warming bypassed the counters; the first traffic lookup hits.
        assert_eq!((cached.cache().hits(), cached.cache().misses()), (0, 0));
        cached
            .estimate(UseCase::full(2), Method::Composability)
            .unwrap();
        assert_eq!((cached.cache().hits(), cached.cache().misses()), (1, 0));
        // A garbage method name is a configuration error.
        let mut bad = report;
        bad.method = "bogus".to_string();
        assert!(matches!(
            cached.warm_from_signoff(&bad).unwrap_err(),
            ServiceError::Config(_)
        ));
    }

    #[test]
    fn journaled_layer_records_decisions_and_releases() {
        let journaled = Journaled::new(fleet(1, 1));
        let admitted = journaled.admit(&AdmissionRequest::new(0)).unwrap();
        let saturated = journaled.admit(&AdmissionRequest::new(1)).unwrap();
        assert!(matches!(saturated, AdmissionDecision::Saturated { .. }));
        journaled.release(admitted.resident().unwrap()).unwrap();
        let events = journaled.journal().events();
        assert_eq!(events.len(), 3);
        assert!(matches!(
            &events[0],
            DecisionEvent::Admit {
                outcome: JournalOutcome::Admitted { .. },
                ..
            }
        ));
        assert!(matches!(
            &events[1],
            DecisionEvent::Admit {
                outcome: JournalOutcome::Saturated,
                ..
            }
        ));
        assert!(matches!(&events[2], DecisionEvent::Release { .. }));
        journaled.journal().verify().unwrap();
        // Failed releases journal nothing.
        assert!(journaled.release(99).is_err());
        assert_eq!(journaled.journal().len(), 3);
    }

    #[test]
    fn traced_layer_samples_every_class() {
        use crate::telemetry::{ServiceOp, Traced};

        let traced = Traced::new(Cached::new(bound_manager(2, 4), 8), 64);
        let decision = traced.admit(&AdmissionRequest::new(0)).unwrap();
        traced
            .estimate(UseCase::full(2), Method::Composability)
            .unwrap();
        let _probe = traced.snapshot();
        traced.release(decision.resident().unwrap()).unwrap();
        assert_eq!(traced.histogram(ServiceOp::Admit).count(), 1);
        assert_eq!(traced.histogram(ServiceOp::Estimate).count(), 1);
        assert_eq!(traced.histogram(ServiceOp::Release).count(), 1);
        assert!(traced.histogram(ServiceOp::Snapshot).count() >= 1);
        let snapshot = traced.snapshot();
        assert!(snapshot.counter("traced", "operations").unwrap_or(0) >= 4);
        assert_eq!(snapshot.counter("traced", "admit_count"), Some(1));
        // Every active class also surfaces an OpRate row.
        let traced_layer = snapshot
            .layers
            .iter()
            .find(|l| l.layer == "traced")
            .unwrap();
        assert!(traced_layer.ops.iter().any(|r| r.op == "admit"));
        // The stack renders the consistent per-layer table.
        let table = snapshot.render();
        for needle in [
            "service:",
            "layer",
            "cached",
            "traced",
            "hits",
            "admit_count",
            "p999_us",
        ] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
        // Telemetry carries the full distributions.
        let telemetry = traced.telemetry();
        assert!(telemetry.histogram("traced", "admit").is_some());
        assert!(telemetry.histogram("cached", "admit").is_none());
    }

    /// Golden-output test pinning the exact `ServiceSnapshot::render()`
    /// format (satellite of ISSUE 6) so the table stops drifting.
    #[test]
    fn snapshot_render_golden_output() {
        let snapshot = ServiceSnapshot {
            residents: 4,
            capacity: 8,
            admitted: 120,
            rejected: 5,
            saturated: 2,
            released: 116,
            layers: vec![
                LayerMetrics::new("fleet").counter("groups", 2),
                LayerMetrics::new("traced")
                    .counter("operations", 242)
                    .op_rate(OpRate {
                        op: "admit".to_string(),
                        count: 120,
                        ops_per_sec: 40,
                        p50_us: 210,
                        p90_us: 300,
                        p99_us: 480,
                        p999_us: 1200,
                        max_us: 1500,
                    }),
            ],
        };
        let expected = "\
service: 4/8 residents (50% util), 120 admitted, 5 rejected, 2 saturated, 116 released
layer        metric                              value
fleet        groups                                  2
traced       operations                            242
layer        op              count    ops/s   p50_us   p90_us   p99_us  p999_us   max_us
traced       admit             120       40      210      300      480     1200     1500
";
        assert_eq!(snapshot.render(), expected);
    }

    #[test]
    fn composition_order_is_equivalent() {
        let a = Cached::new(Journaled::new(fleet(2, 2)), 8);
        let b = Journaled::new(Cached::new(fleet(2, 2), 8));
        let bare = fleet(2, 2);
        let requests = [
            AdmissionRequest::new(0),
            AdmissionRequest::new(1).with_contract(Rational::new(1, 300)),
            AdmissionRequest::new(0).on(0),
            AdmissionRequest::new(1),
        ];
        for request in &requests {
            let expected = AdmissionService::admit(&bare, request).unwrap();
            assert_eq!(a.admit(request).unwrap(), expected);
            assert_eq!(b.admit(request).unwrap(), expected);
        }
        assert_eq!(a.inner().journal().events(), b.journal().events());
    }

    #[test]
    fn completion_poll_wait_and_drop_semantics() {
        let ready = Completion::ready(Ok(AdmissionDecision::Saturated { domain: 0 }));
        assert!(ready.is_ready());
        assert_eq!(
            ready.poll().unwrap().unwrap(),
            AdmissionDecision::Saturated { domain: 0 }
        );
        // The decision can be read repeatedly.
        assert_eq!(
            ready.wait().unwrap(),
            AdmissionDecision::Saturated { domain: 0 }
        );

        let (completer, completion) = Completion::pending();
        assert!(!completion.is_ready());
        assert!(completion.poll().is_none());
        assert!(completion.wait_timeout(Duration::from_millis(5)).is_none());
        let waiter = {
            let completion = completion.clone();
            std::thread::spawn(move || completion.wait())
        };
        completer.complete(Ok(AdmissionDecision::Saturated { domain: 7 }));
        assert_eq!(
            waiter.join().unwrap().unwrap(),
            AdmissionDecision::Saturated { domain: 7 }
        );

        // Dropping a completer without completing delivers Stopped.
        let (dropped, orphan) = Completion::<AdmissionDecision>::pending();
        drop(dropped);
        assert_eq!(orphan.wait().unwrap_err(), ServiceError::Stopped);
    }

    #[test]
    fn default_submit_completes_synchronously() {
        let manager = bound_manager(1, 2);
        let completion = manager.submit(AdmissionRequest::new(0));
        assert!(completion.is_ready());
        assert!(completion.wait().unwrap().is_admitted());
    }

    #[test]
    fn arc_dyn_stack_composes() {
        let stack: Arc<dyn AdmissionService> = Arc::new(Cached::new(fleet(2, 2), 8));
        let traced = crate::telemetry::Traced::new(Arc::clone(&stack), 16);
        let decision = traced.admit(&AdmissionRequest::new(0)).unwrap();
        assert!(decision.is_admitted());
        assert!(traced.workload().is_some());
        traced.release(decision.resident().unwrap()).unwrap();
        fn is_send_sync<T: Send + Sync>() {}
        is_send_sync::<Arc<dyn AdmissionService>>();
    }
}
