//! The concurrent admission front-end: sharded controllers and tickets.
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
//! [released](Ticket::release). Admission never waits: a full shard
//! answers [`AdmitError::Saturated`] at once, so every decision is a pure
//! function of the resident mix; [`stop`](ResourceManager::stop) refuses
//! new admissions while letting resident tickets drain gracefully.

use crate::cache::lock;
use contention::{AdmissionController, AdmissionOutcome, ContentionError, Violation};
use platform::{AppId, Application, NodeId};
use sdf::Rational;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Configuration of a [`ResourceManager`].
#[derive(Debug, Clone)]
pub struct ResourceManagerConfig {
    /// Number of independent admission shards (≥ 1; each models one
    /// platform/node-group with its own controller).
    pub shards: usize,
    /// Maximum resident applications per shard; further admissions are
    /// refused with [`AdmitError::Saturated`].
    pub capacity_per_shard: usize,
}

impl Default for ResourceManagerConfig {
    fn default() -> Self {
        ResourceManagerConfig {
            shards: 4,
            capacity_per_shard: 16,
        }
    }
}

/// Why an admission attempt produced no decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The manager was stopped before a decision was reached.
    Stopped,
    /// The shard is at capacity.
    Saturated,
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
            AdmitError::Saturated => write!(f, "shard is at capacity"),
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
    stopped: bool,
}

type Shard = Mutex<ShardState>;

struct Inner {
    shards: Vec<Shard>,
    /// Live per-shard capacity — starts at the configured value and
    /// moves when an elastic fleet grows or shrinks the group this manager
    /// backs. Admissions read it at decision time, so outstanding tickets
    /// survive a shrink (an over-full shard simply refuses new admissions
    /// until it drains below the new bound).
    capacity_per_shard: std::sync::atomic::AtomicUsize,
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
            .field("shards", &self.shard_count())
            .field("capacity_per_shard", &self.capacity_per_shard())
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
    pub fn new(config: ResourceManagerConfig) -> ResourceManager {
        let shards = (0..config.shards.max(1))
            .map(|_| {
                Mutex::new(ShardState {
                    ctrl: AdmissionController::new(),
                    stopped: false,
                })
            })
            .collect();
        ResourceManager {
            inner: Arc::new(Inner {
                shards,
                capacity_per_shard: std::sync::atomic::AtomicUsize::new(
                    config.capacity_per_shard.max(1),
                ),
            }),
        }
    }

    /// Total resident capacity (`shards × capacity_per_shard`).
    pub fn capacity(&self) -> usize {
        self.shard_count() * self.capacity_per_shard()
    }

    /// Live per-shard capacity (see
    /// [`set_capacity_per_shard`](Self::set_capacity_per_shard)).
    pub fn capacity_per_shard(&self) -> usize {
        self.inner
            .capacity_per_shard
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// Moves the per-shard capacity to `capacity` (clamped to ≥ 1) and
    /// returns the previous value. The next admission on each shard sees
    /// the new bound; an over-full shard after a shrink keeps its
    /// residents and answers [`AdmitError::Saturated`] until it drains
    /// below the new bound.
    pub fn set_capacity_per_shard(&self, capacity: usize) -> usize {
        self.inner
            .capacity_per_shard
            .swap(capacity.max(1), std::sync::atomic::Ordering::AcqRel)
    }

    /// Resident count of every shard, in shard order — the occupancy view
    /// a shrink checks before lowering capacity.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.inner
            .shards
            .iter()
            .map(|s| lock(s).ctrl.resident_count())
            .collect()
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

    /// Total resident applications across all shards.
    pub fn resident_count(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| lock(s).ctrl.resident_count())
            .sum()
    }

    /// Resident applications on one shard.
    ///
    /// # Errors
    ///
    /// [`AdmitError::InvalidShard`] if out of range.
    pub fn resident_count_of(&self, shard: usize) -> Result<usize, AdmitError> {
        let shard = self.shard(shard)?;
        Ok(lock(shard).ctrl.resident_count())
    }

    /// Independent snapshot of one shard's controller for lock-free
    /// read-only analysis.
    ///
    /// # Errors
    ///
    /// [`AdmitError::InvalidShard`] if out of range.
    pub fn snapshot(&self, shard: usize) -> Result<AdmissionController, AdmitError> {
        let shard = self.shard(shard)?;
        Ok(lock(shard).ctrl.clone())
    }

    /// Predicted period of a resident application under the shard's current
    /// mix.
    ///
    /// # Errors
    ///
    /// [`AdmitError::InvalidShard`] / [`AdmitError::Analysis`].
    pub fn predicted_period(&self, shard: usize, app: AppId) -> Result<Rational, AdmitError> {
        let shard = self.shard(shard)?;
        let state = lock(shard);
        state
            .ctrl
            .predicted_period(app)
            .map_err(AdmitError::Analysis)
    }

    /// Decides whether `app` joins `shard` now. Never blocks: a stopped
    /// manager answers [`AdmitError::Stopped`], a full shard
    /// [`AdmitError::Saturated`], and otherwise the shard's
    /// [`AdmissionController`] decides under the shard lock.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Stopped`] after [`stop`](Self::stop),
    /// [`AdmitError::Saturated`] when the shard is at capacity,
    /// [`AdmitError::InvalidShard`] / [`AdmitError::Analysis`] as usual.
    pub fn admit(
        &self,
        shard_index: usize,
        app: Application,
        assignment: &[NodeId],
        required_throughput: Option<Rational>,
    ) -> Result<Admission, AdmitError> {
        let mut state = lock(self.shard(shard_index)?);
        if state.stopped {
            return Err(AdmitError::Stopped);
        }
        // The capacity is read at decision time so elastic resizes apply
        // to the very next admission.
        if state.ctrl.resident_count() >= self.capacity_per_shard() {
            return Err(AdmitError::Saturated);
        }
        match state.ctrl.admit(app, assignment, required_throughput)? {
            AdmissionOutcome::Admitted {
                id,
                predicted_periods,
            } => Ok(Admission::Admitted(Ticket {
                inner: Arc::clone(&self.inner),
                shard: shard_index,
                app: Some(id),
                predicted_period: predicted_periods.get(&id).copied(),
            })),
            AdmissionOutcome::Rejected { violations } => Ok(Admission::Rejected { violations }),
        }
    }

    /// Stops the manager: new admissions are refused with
    /// [`AdmitError::Stopped`], resident tickets keep working (queries and
    /// release) so load drains gracefully.
    pub fn stop(&self) {
        for shard in &self.inner.shards {
            lock(shard).stopped = true;
        }
    }

    /// `true` once [`stop`](Self::stop) has been called.
    pub fn is_stopped(&self) -> bool {
        self.inner.shards.first().is_some_and(|s| lock(s).stopped)
    }

    fn shard(&self, index: usize) -> Result<&Shard, AdmitError> {
        self.inner
            .shards
            .get(index)
            .ok_or(AdmitError::InvalidShard(index))
    }
}

/// Owned admission: capacity on one shard held by one admitted
/// application. Dropping the ticket releases it.
pub struct Ticket {
    inner: Arc<Inner>,
    shard: usize,
    app: Option<AppId>,
    predicted_period: Option<Rational>,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("shard", &self.shard)
            .field("app", &self.app)
            .field("predicted_period", &self.predicted_period)
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

    /// Period predicted under the shard's *current* mix (which may have
    /// changed since admission).
    ///
    /// # Errors
    ///
    /// [`AdmitError::Analysis`] if the re-prediction fails.
    pub fn predicted_period_now(&self) -> Result<Rational, AdmitError> {
        lock(&self.inner.shards[self.shard])
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
        // The id was handed out by this shard's controller; removal only
        // fails if the ticket outlived it, which `Arc` prevents.
        let _ = lock(&self.inner.shards[self.shard]).ctrl.remove(app);
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

    const N3: [NodeId; 3] = [NodeId(0), NodeId(1), NodeId(2)];

    fn app(name: &str) -> Application {
        let (a, _) = figure2_graphs();
        Application::new(name, a).unwrap()
    }

    fn manager(capacity: usize) -> ResourceManager {
        ResourceManager::new(ResourceManagerConfig {
            shards: 1,
            capacity_per_shard: capacity,
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
    }

    #[test]
    fn full_shard_saturates() {
        let mgr = manager(1);
        let _a = mgr.admit(0, app("A"), &N3, None).unwrap().ticket().unwrap();
        let err = mgr.admit(0, app("B"), &N3, None).unwrap_err();
        assert_eq!(err, AdmitError::Saturated);
        assert_eq!(mgr.resident_count(), 1);
    }

    #[test]
    fn grown_capacity_admits_on_the_next_call() {
        let mgr = manager(1);
        let _a = mgr.admit(0, app("A"), &N3, None).unwrap().ticket().unwrap();
        assert_eq!(
            mgr.admit(0, app("B"), &N3, None).unwrap_err(),
            AdmitError::Saturated
        );
        assert_eq!(mgr.set_capacity_per_shard(2), 1);
        let b = mgr.admit(0, app("B"), &N3, None).unwrap();
        assert!(matches!(b, Admission::Admitted(_)));
    }

    #[test]
    fn stopped_full_manager_answers_stopped_and_still_drains() {
        let mgr = manager(1);
        let ticket = mgr.admit(0, app("A"), &N3, None).unwrap().ticket().unwrap();
        mgr.stop();
        assert!(mgr.is_stopped());
        // Stopped is checked before capacity: a full, stopped shard answers
        // `Stopped`, not `Saturated`.
        assert_eq!(
            mgr.admit(0, app("B"), &N3, None).unwrap_err(),
            AdmitError::Stopped
        );
        // Graceful drain: the resident ticket still queries and releases.
        assert!(ticket.predicted_period_now().is_ok());
        ticket.release();
        assert_eq!(mgr.resident_count(), 0);
        assert_eq!(
            mgr.admit(0, app("C"), &N3, None).unwrap_err(),
            AdmitError::Stopped
        );
    }

    #[test]
    fn shards_are_independent() {
        let mgr = ResourceManager::new(ResourceManagerConfig {
            shards: 2,
            capacity_per_shard: 1,
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
