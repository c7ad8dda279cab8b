//! The concurrent admission front-end: sharded controllers, tickets,
//! bounded waiting.
//!
//! [`ResourceManager`] turns the single-threaded
//! [`contention::AdmissionController`] into a thread-safe service. The
//! resident mix is partitioned into independent **shards** (one controller
//! per shard, each behind its own mutex), so unrelated platforms admit in
//! parallel and the per-admission analysis — milliseconds, the paper's
//! headline number — only serializes traffic within one shard.
//!
//! Admission is **ticket-based**: a successful [`admit`](ResourceManager::admit)
//! returns a [`Ticket`] that releases its capacity (and decomposes the
//! application from the shard, Equations 8/9) when dropped or explicitly
//! [released](Ticket::release). When a shard is at capacity, callers wait
//! on a FIFO or LIFO queue ([`QueueMode`]) with an optional timeout;
//! [`stop`](ResourceManager::stop) wakes every waiter and refuses new
//! admissions while letting resident tickets drain gracefully.

use crate::cache::lock;
use crate::metrics::RuntimeMetrics;
use contention::{AdmissionController, AdmissionOutcome, ContentionError, Violation};
use platform::{AppId, Application, NodeId};
use sdf::Rational;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Wake order for admission requests queued behind a full shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueMode {
    /// First come, first admitted (fair; default).
    #[default]
    Fifo,
    /// Newest waiter first (latency-biased under overload, like the
    /// ticket/waiter admission controllers in serving systems).
    Lifo,
}

/// Configuration of a [`ResourceManager`].
#[derive(Debug, Clone)]
pub struct ResourceManagerConfig {
    /// Number of independent admission shards (≥ 1; each models one
    /// platform/node-group with its own controller).
    pub shards: usize,
    /// Maximum resident applications per shard; further admissions wait.
    pub capacity_per_shard: usize,
    /// Wake order for queued admissions.
    pub queue_mode: QueueMode,
    /// Default wait bound for [`ResourceManager::admit`]; `None` waits
    /// indefinitely (until [`stop`](ResourceManager::stop)).
    pub admit_timeout: Option<Duration>,
}

impl Default for ResourceManagerConfig {
    fn default() -> Self {
        ResourceManagerConfig {
            shards: 4,
            capacity_per_shard: 16,
            queue_mode: QueueMode::Fifo,
            admit_timeout: Some(Duration::from_secs(1)),
        }
    }
}

/// Why an admission attempt produced no decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The manager was stopped before a decision was reached.
    Stopped,
    /// The capacity wait exceeded the timeout.
    Timeout,
    /// The shard index is out of range.
    InvalidShard(usize),
    /// The underlying analysis failed (see the admission module's
    /// rejection-versus-error contract).
    Analysis(ContentionError),
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Stopped => write!(f, "resource manager is stopped"),
            AdmitError::Timeout => write!(f, "timed out waiting for shard capacity"),
            AdmitError::InvalidShard(s) => write!(f, "shard {s} out of range"),
            AdmitError::Analysis(e) => write!(f, "analysis failure: {e}"),
        }
    }
}

impl std::error::Error for AdmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdmitError::Analysis(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ContentionError> for AdmitError {
    fn from(e: ContentionError) -> Self {
        AdmitError::Analysis(e)
    }
}

/// Decision of a completed admission attempt.
#[derive(Debug)]
pub enum Admission {
    /// Admitted: the ticket owns the reserved capacity.
    Admitted(Ticket),
    /// Rejected by a throughput contract; no capacity was consumed.
    Rejected {
        /// Every violated requirement.
        violations: Vec<Violation>,
    },
}

impl Admission {
    /// The ticket, if admitted.
    pub fn ticket(self) -> Option<Ticket> {
        match self {
            Admission::Admitted(t) => Some(t),
            Admission::Rejected { .. } => None,
        }
    }
}

struct ShardState {
    ctrl: AdmissionController,
    waiters: VecDeque<u64>,
    next_waiter: u64,
    stopped: bool,
}

struct Shard {
    state: Mutex<ShardState>,
    cond: Condvar,
}

struct Inner {
    shards: Vec<Shard>,
    config: ResourceManagerConfig,
    /// Live per-shard capacity — starts at `config.capacity_per_shard` and
    /// moves when an elastic fleet grows or shrinks the group this manager
    /// backs. Admissions read it at decision time, so outstanding tickets
    /// survive a shrink (an over-full shard simply refuses new admissions
    /// until it drains below the new bound).
    capacity_per_shard: std::sync::atomic::AtomicUsize,
    metrics: RuntimeMetrics,
    /// Bound workload spec + resident registry for the
    /// [`AdmissionService`](crate::AdmissionService) path.
    service: crate::service::ServiceState,
}

/// Thread-safe, sharded online resource manager (see the
/// [module docs](self)).
#[derive(Clone)]
pub struct ResourceManager {
    inner: Arc<Inner>,
}

impl fmt::Debug for ResourceManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResourceManager")
            .field("config", &self.inner.config)
            .field("resident_count", &self.resident_count())
            .finish_non_exhaustive()
    }
}

impl Default for ResourceManager {
    fn default() -> Self {
        ResourceManager::new(ResourceManagerConfig::default())
    }
}

impl ResourceManager {
    /// Manager with the given configuration (`shards`/`capacity_per_shard`
    /// are clamped to ≥ 1).
    pub fn new(mut config: ResourceManagerConfig) -> ResourceManager {
        config.shards = config.shards.max(1);
        config.capacity_per_shard = config.capacity_per_shard.max(1);
        let shards = (0..config.shards)
            .map(|_| Shard {
                state: Mutex::new(ShardState {
                    ctrl: AdmissionController::new(),
                    waiters: VecDeque::new(),
                    next_waiter: 0,
                    stopped: false,
                }),
                cond: Condvar::new(),
            })
            .collect();
        ResourceManager {
            inner: Arc::new(Inner {
                shards,
                capacity_per_shard: std::sync::atomic::AtomicUsize::new(config.capacity_per_shard),
                config,
                metrics: RuntimeMetrics::new(),
                service: crate::service::ServiceState::default(),
            }),
        }
    }

    /// Binds the workload spec that
    /// [`AdmissionService`](crate::AdmissionService) requests index into.
    /// Returns `false` (leaving the original spec bound) if a spec was
    /// already bound — the binding is write-once because cached fingerprints
    /// and resident instantiations depend on it.
    pub fn bind_workload(&self, spec: platform::SystemSpec) -> bool {
        self.inner.service.spec.set(spec).is_ok()
    }

    /// Total resident capacity (`shards × capacity_per_shard`).
    pub fn capacity(&self) -> usize {
        self.inner.config.shards * self.capacity_per_shard()
    }

    /// Live per-shard capacity (see
    /// [`set_capacity_per_shard`](Self::set_capacity_per_shard)).
    pub fn capacity_per_shard(&self) -> usize {
        self.inner
            .capacity_per_shard
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// Moves the per-shard capacity to `capacity` (clamped to ≥ 1) and
    /// returns the previous value. Growing wakes queued admissions; an
    /// over-full shard after a shrink keeps its residents and refuses new
    /// admissions until it drains below the new bound.
    pub fn set_capacity_per_shard(&self, capacity: usize) -> usize {
        let previous = self
            .inner
            .capacity_per_shard
            .swap(capacity.max(1), std::sync::atomic::Ordering::AcqRel);
        if capacity.max(1) > previous {
            for shard in &self.inner.shards {
                // Take the state lock so the notify cannot race a waiter
                // between its capacity check and its wait.
                let _state = lock(&shard.state);
                shard.cond.notify_all();
            }
        }
        previous
    }

    /// Resident count of every shard, in shard order — the occupancy view
    /// a shrink checks before lowering capacity.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.inner
            .shards
            .iter()
            .map(|s| lock(&s.state).ctrl.resident_count())
            .collect()
    }

    pub(crate) fn service_state(&self) -> &crate::service::ServiceState {
        &self.inner.service
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Deterministic shard for a routing key (e.g. a platform id).
    pub fn shard_for(&self, key: u64) -> usize {
        // One RNG step avalanches sequential keys across shards.
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        StdRng::seed_from_u64(key).next_u64() as usize % self.inner.shards.len()
    }

    /// Shard with the fewest residents (ties toward the lowest index) — a
    /// deterministic function of the resident mix, used by the
    /// [`AdmissionService`](crate::AdmissionService) path to fill all
    /// shards evenly.
    pub fn least_loaded_shard(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| lock(&s.state).ctrl.resident_count())
            .enumerate()
            .min_by_key(|&(_, residents)| residents)
            .map(|(shard, _)| shard)
            .unwrap_or(0)
    }

    /// Shared outcome counters.
    pub fn metrics(&self) -> &RuntimeMetrics {
        &self.inner.metrics
    }

    /// Total resident applications across all shards.
    pub fn resident_count(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| lock(&s.state).ctrl.resident_count())
            .sum()
    }

    /// Resident applications on one shard.
    ///
    /// # Errors
    ///
    /// [`AdmitError::InvalidShard`] if out of range.
    pub fn resident_count_of(&self, shard: usize) -> Result<usize, AdmitError> {
        let shard = self.shard(shard)?;
        Ok(lock(&shard.state).ctrl.resident_count())
    }

    /// Independent snapshot of one shard's controller for lock-free
    /// read-only analysis.
    ///
    /// # Errors
    ///
    /// [`AdmitError::InvalidShard`] if out of range.
    pub fn snapshot(&self, shard: usize) -> Result<AdmissionController, AdmitError> {
        let shard = self.shard(shard)?;
        Ok(lock(&shard.state).ctrl.clone())
    }

    /// Predicted period of a resident application under the shard's current
    /// mix.
    ///
    /// # Errors
    ///
    /// [`AdmitError::InvalidShard`] / [`AdmitError::Analysis`].
    pub fn predicted_period(&self, shard: usize, app: AppId) -> Result<Rational, AdmitError> {
        let shard = self.shard(shard)?;
        let state = lock(&shard.state);
        state
            .ctrl
            .predicted_period(app)
            .map_err(AdmitError::Analysis)
    }

    /// Attempts to admit `app` on `shard`, waiting for capacity up to the
    /// configured [`admit_timeout`](ResourceManagerConfig::admit_timeout).
    ///
    /// # Errors
    ///
    /// [`AdmitError::Timeout`] when capacity never freed within the bound,
    /// [`AdmitError::Stopped`] after [`stop`](Self::stop),
    /// [`AdmitError::InvalidShard`] / [`AdmitError::Analysis`] as usual.
    pub fn admit(
        &self,
        shard: usize,
        app: Application,
        assignment: &[NodeId],
        required_throughput: Option<Rational>,
    ) -> Result<Admission, AdmitError> {
        self.admit_within(
            shard,
            app,
            assignment,
            required_throughput,
            self.inner.config.admit_timeout,
        )
    }

    /// [`admit`](Self::admit) with an explicit wait bound (`None` waits
    /// until capacity or [`stop`](Self::stop)).
    ///
    /// # Errors
    ///
    /// See [`admit`](Self::admit).
    pub fn admit_within(
        &self,
        shard_index: usize,
        app: Application,
        assignment: &[NodeId],
        required_throughput: Option<Rational>,
        timeout: Option<Duration>,
    ) -> Result<Admission, AdmitError> {
        let start = Instant::now();
        let deadline = timeout.map(|t| start + t);
        let shard = self.shard(shard_index)?;
        let mut state = lock(&shard.state);

        if state.stopped {
            self.inner.metrics.record_stopped();
            return Err(AdmitError::Stopped);
        }

        // Fast path: free capacity and nobody queued ahead of us. The
        // capacity is re-read at every check so elastic resizes apply to
        // queued admissions too.
        if state.waiters.is_empty() && state.ctrl.resident_count() < self.capacity_per_shard() {
            return self.decide(
                shard_index,
                shard,
                state,
                app,
                assignment,
                required_throughput,
                start,
            );
        }

        // Slow path: queue up and wait for our turn.
        let id = state.next_waiter;
        state.next_waiter += 1;
        state.waiters.push_back(id);
        loop {
            if state.stopped {
                remove_waiter(&mut state, id);
                self.inner.metrics.record_stopped();
                return Err(AdmitError::Stopped);
            }
            let my_turn = match self.inner.config.queue_mode {
                QueueMode::Fifo => state.waiters.front() == Some(&id),
                QueueMode::Lifo => state.waiters.back() == Some(&id),
            };
            if my_turn && state.ctrl.resident_count() < self.capacity_per_shard() {
                remove_waiter(&mut state, id);
                // Remaining capacity may admit further waiters.
                shard.cond.notify_all();
                return self.decide(
                    shard_index,
                    shard,
                    state,
                    app,
                    assignment,
                    required_throughput,
                    start,
                );
            }
            state = match deadline {
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        remove_waiter(&mut state, id);
                        // We may have been the blocking queue head.
                        shard.cond.notify_all();
                        self.inner.metrics.record_timeout();
                        return Err(AdmitError::Timeout);
                    }
                    let (guard, _) = shard
                        .cond
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    guard
                }
                None => shard
                    .cond
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            };
        }
    }

    /// Runs the actual admission decision while holding the shard lock.
    #[allow(clippy::too_many_arguments)]
    fn decide(
        &self,
        shard_index: usize,
        shard: &Shard,
        mut state: std::sync::MutexGuard<'_, ShardState>,
        app: Application,
        assignment: &[NodeId],
        required_throughput: Option<Rational>,
        start: Instant,
    ) -> Result<Admission, AdmitError> {
        match state.ctrl.admit(app, assignment, required_throughput) {
            Ok(AdmissionOutcome::Admitted {
                id,
                predicted_periods,
            }) => {
                let wait = start.elapsed();
                self.inner.metrics.record_admitted(wait);
                drop(state);
                Ok(Admission::Admitted(Ticket {
                    inner: Arc::clone(&self.inner),
                    shard: shard_index,
                    app: Some(id),
                    predicted_period: predicted_periods.get(&id).copied(),
                    queue_wait: wait,
                }))
            }
            Ok(AdmissionOutcome::Rejected { violations }) => {
                self.inner.metrics.record_rejected();
                // No capacity consumed: the next waiter can try immediately.
                drop(state);
                shard.cond.notify_all();
                Ok(Admission::Rejected { violations })
            }
            Err(e) => {
                self.inner.metrics.record_analysis_error();
                drop(state);
                shard.cond.notify_all();
                Err(AdmitError::Analysis(e))
            }
        }
    }

    /// Stops the manager: every queued waiter wakes with
    /// [`AdmitError::Stopped`], new admissions are refused, resident
    /// tickets keep working (queries and release) so load drains
    /// gracefully.
    pub fn stop(&self) {
        for shard in &self.inner.shards {
            let mut state = lock(&shard.state);
            state.stopped = true;
            shard.cond.notify_all();
        }
    }

    /// `true` once [`stop`](Self::stop) has been called.
    pub fn is_stopped(&self) -> bool {
        self.inner
            .shards
            .first()
            .is_some_and(|s| lock(&s.state).stopped)
    }

    fn shard(&self, index: usize) -> Result<&Shard, AdmitError> {
        self.inner
            .shards
            .get(index)
            .ok_or(AdmitError::InvalidShard(index))
    }
}

fn remove_waiter(state: &mut ShardState, id: u64) {
    if let Some(pos) = state.waiters.iter().position(|&w| w == id) {
        state.waiters.remove(pos);
    }
}

/// Owned admission: capacity on one shard held by one admitted
/// application. Dropping the ticket releases it.
pub struct Ticket {
    inner: Arc<Inner>,
    shard: usize,
    app: Option<AppId>,
    predicted_period: Option<Rational>,
    queue_wait: Duration,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("shard", &self.shard)
            .field("app", &self.app)
            .field("predicted_period", &self.predicted_period)
            .field("queue_wait", &self.queue_wait)
            .finish()
    }
}

impl Ticket {
    /// Shard the application is resident on.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Controller-assigned id of the admitted application.
    ///
    /// # Panics
    ///
    /// Never panics while the ticket is live (the id is only taken on
    /// release).
    pub fn app_id(&self) -> AppId {
        self.app.expect("live ticket has an app id")
    }

    /// Period predicted for this application at admission time.
    pub fn predicted_period(&self) -> Option<Rational> {
        self.predicted_period
    }

    /// Time the admission spent queued (capacity wait + analysis).
    pub fn queue_wait(&self) -> Duration {
        self.queue_wait
    }

    /// Period predicted under the shard's *current* mix (which may have
    /// changed since admission).
    ///
    /// # Errors
    ///
    /// [`AdmitError::Analysis`] if the re-prediction fails.
    pub fn predicted_period_now(&self) -> Result<Rational, AdmitError> {
        let shard = &self.inner.shards[self.shard];
        let state = lock(&shard.state);
        state
            .ctrl
            .predicted_period(self.app_id())
            .map_err(AdmitError::Analysis)
    }

    /// Releases the admission now (equivalent to dropping the ticket).
    pub fn release(mut self) {
        self.release_inner();
    }

    fn release_inner(&mut self) {
        let Some(app) = self.app.take() else {
            return;
        };
        let shard = &self.inner.shards[self.shard];
        let mut state = lock(&shard.state);
        // The id was handed out by this shard's controller; removal only
        // fails if the ticket outlived it, which `Arc` prevents.
        if state.ctrl.remove(app).is_ok() {
            self.inner.metrics.record_released();
        }
        drop(state);
        shard.cond.notify_all();
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        self.release_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::Application;
    use sdf::figure2_graphs;
    use std::sync::mpsc;
    use std::thread;

    const N3: [NodeId; 3] = [NodeId(0), NodeId(1), NodeId(2)];

    fn app(name: &str) -> Application {
        let (a, _) = figure2_graphs();
        Application::new(name, a).unwrap()
    }

    fn manager(capacity: usize) -> ResourceManager {
        ResourceManager::new(ResourceManagerConfig {
            shards: 1,
            capacity_per_shard: capacity,
            queue_mode: QueueMode::Fifo,
            admit_timeout: Some(Duration::from_millis(50)),
        })
    }

    #[test]
    fn admit_release_roundtrip() {
        let mgr = manager(4);
        let admission = mgr.admit(0, app("A"), &N3, None).unwrap();
        let ticket = admission.ticket().expect("admitted");
        assert_eq!(mgr.resident_count(), 1);
        assert_eq!(ticket.shard(), 0);
        assert!(ticket.predicted_period().is_some());
        assert_eq!(
            ticket.predicted_period_now().unwrap(),
            ticket.predicted_period().unwrap()
        );
        ticket.release();
        assert_eq!(mgr.resident_count(), 0);
        assert_eq!(mgr.metrics().admitted(), 1);
        assert_eq!(mgr.metrics().released(), 1);
    }

    #[test]
    fn drop_releases() {
        let mgr = manager(4);
        {
            let _ticket = mgr.admit(0, app("A"), &N3, None).unwrap().ticket().unwrap();
            assert_eq!(mgr.resident_count(), 1);
        }
        assert_eq!(mgr.resident_count(), 0);
    }

    #[test]
    fn rejection_consumes_no_capacity() {
        let mgr = manager(4);
        let _a = mgr
            .admit(0, app("A"), &N3, Some(Rational::new(1, 300)))
            .unwrap()
            .ticket()
            .unwrap();
        // A insists on its isolation throughput; B cannot fit.
        let outcome = mgr.admit(0, app("B"), &N3, None).unwrap();
        let Admission::Rejected { violations } = outcome else {
            panic!("B must be rejected");
        };
        assert!(!violations.is_empty());
        assert_eq!(mgr.resident_count(), 1);
        assert_eq!(mgr.metrics().rejected(), 1);
    }

    #[test]
    fn full_shard_times_out() {
        let mgr = manager(1);
        let _a = mgr.admit(0, app("A"), &N3, None).unwrap().ticket().unwrap();
        let err = mgr.admit(0, app("B"), &N3, None).unwrap_err();
        assert_eq!(err, AdmitError::Timeout);
        assert_eq!(mgr.metrics().timeouts(), 1);
    }

    #[test]
    fn waiter_admitted_after_release() {
        let mgr = manager(1);
        let ticket = mgr.admit(0, app("A"), &N3, None).unwrap().ticket().unwrap();
        let mgr2 = mgr.clone();
        let (tx, rx) = mpsc::channel();
        let waiter = thread::spawn(move || {
            tx.send(()).unwrap();
            mgr2.admit_within(0, app("B"), &N3, None, Some(Duration::from_secs(10)))
        });
        rx.recv().unwrap();
        // Give the waiter time to park, then free the capacity.
        thread::sleep(Duration::from_millis(30));
        ticket.release();
        let admission = waiter.join().unwrap().unwrap();
        assert!(matches!(admission, Admission::Admitted(_)));
        assert_eq!(mgr.resident_count(), 1);
    }

    #[test]
    fn stop_wakes_waiters_and_refuses_admissions() {
        let mgr = manager(1);
        let ticket = mgr.admit(0, app("A"), &N3, None).unwrap().ticket().unwrap();
        let mgr2 = mgr.clone();
        let waiter = thread::spawn(move || {
            mgr2.admit_within(0, app("B"), &N3, None, Some(Duration::from_secs(10)))
        });
        thread::sleep(Duration::from_millis(30));
        mgr.stop();
        assert_eq!(waiter.join().unwrap().unwrap_err(), AdmitError::Stopped);
        assert_eq!(
            mgr.admit(0, app("C"), &N3, None).unwrap_err(),
            AdmitError::Stopped
        );
        // Graceful drain: the resident ticket still queries and releases.
        assert!(ticket.predicted_period_now().is_ok());
        ticket.release();
        assert_eq!(mgr.resident_count(), 0);
    }

    #[test]
    fn shards_are_independent() {
        let mgr = ResourceManager::new(ResourceManagerConfig {
            shards: 2,
            capacity_per_shard: 1,
            ..ResourceManagerConfig::default()
        });
        let _a = mgr.admit(0, app("A"), &N3, None).unwrap().ticket().unwrap();
        // Shard 0 is full, shard 1 is not.
        let b = mgr.admit(1, app("B"), &N3, None).unwrap();
        assert!(matches!(b, Admission::Admitted(_)));
        assert_eq!(mgr.resident_count_of(0).unwrap(), 1);
        assert_eq!(mgr.resident_count_of(1).unwrap(), 1);
        // Snapshots are per shard.
        assert_eq!(mgr.snapshot(0).unwrap().resident_count(), 1);
        assert!(matches!(
            mgr.snapshot(9).unwrap_err(),
            AdmitError::InvalidShard(9)
        ));
    }

    #[test]
    fn shard_for_covers_all_shards() {
        let mgr = ResourceManager::new(ResourceManagerConfig {
            shards: 4,
            ..ResourceManagerConfig::default()
        });
        let mut seen = [false; 4];
        for key in 0..64u64 {
            seen[mgr.shard_for(key)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn manager_is_send_sync() {
        fn check<T: Send + Sync + Clone>() {}
        check::<ResourceManager>();
        fn check_ticket<T: Send>() {}
        check_ticket::<Ticket>();
    }
}
