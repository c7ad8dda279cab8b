//! Multi-platform fleet management: routing, rebalancing, journaling.
//!
//! A [`FleetManager`] serves admissions for **one workload spec across many
//! named platform groups** — heterogeneous node groups, each a sharded
//! [`ResourceManager`] with its own capacity. Requests are routed by a
//! pluggable [`RoutingPolicy`] (least-utilised, round-robin,
//! affinity-by-use-case), residents can be [moved](FleetManager::move_resident)
//! between groups by a [`rebalance`](FleetManager::rebalance) pass, and
//! every admit/reject/release/rebalance decision is appended to the fleet's
//! [`Journal`] with its predicted period — the audit trail that
//! [`JournalReplayer`](crate::JournalReplayer) re-executes to verify
//! outcome-for-outcome equivalence.
//!
//! Fleet admissions are **non-blocking**: a full group answers
//! [`FleetAdmission::Saturated`] immediately instead of queueing, which
//! keeps every decision a pure function of the group's resident mix at its
//! journal position — the property deterministic replay rests on.
//!
//! # Example
//!
//! ```
//! use platform::{Application, Mapping, SystemSpec};
//! use runtime::{FleetConfig, FleetManager, RoutingPolicy};
//! use sdf::figure2_graphs;
//!
//! let (a, b) = figure2_graphs();
//! let spec = SystemSpec::builder()
//!     .application(Application::new("A", a)?)
//!     .application(Application::new("B", b)?)
//!     .mapping(Mapping::by_actor_index(3))
//!     .build()?;
//!
//! let fleet = FleetManager::new(
//!     spec,
//!     FleetConfig::uniform(2, 1, 4, RoutingPolicy::LeastUtilised),
//! )?;
//!
//! // Admissions spread across the emptier group; every decision lands in
//! // the journal.
//! let t0 = fleet.admit(0, None, None)?.ticket().expect("fits");
//! let t1 = fleet.admit(1, None, None)?.ticket().expect("fits");
//! assert_ne!(t0.group(), t1.group());
//! assert_eq!(fleet.resident_count(), 2);
//! assert_eq!(fleet.journal().len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cache::lock;
use crate::journal::{
    DecisionEvent, Journal, JournalError, JournalHeader, JournalOutcome, ScaleAction, ScaleOutcome,
    ScaleRefusal,
};
use crate::manager::{Admission, AdmitError, ResourceManager, ResourceManagerConfig, Ticket};
use crate::telemetry::TraceRecorder;
use crate::wal::{CheckpointGroup, CheckpointResident, FleetCheckpoint};
use contention::Violation;
use platform::{Application, NodeId, SystemSpec};
use sdf::Rational;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// How the fleet picks a group for an incoming admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Route to the group with the lowest resident/capacity ratio
    /// (deterministic: ties break toward the lowest group index; default).
    #[default]
    LeastUtilised,
    /// Rotate through groups in index order.
    RoundRobin,
    /// Route to the least-utilised group advertising the request's affinity
    /// tag (a use-case class); requests without a tag — or tags no group
    /// advertises — fall back to least-utilised over all groups.
    Affinity,
}

impl fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingPolicy::LeastUtilised => write!(f, "least-utilised"),
            RoutingPolicy::RoundRobin => write!(f, "round-robin"),
            RoutingPolicy::Affinity => write!(f, "affinity"),
        }
    }
}

impl FromStr for RoutingPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<RoutingPolicy, String> {
        match s {
            "least-utilised" | "least-utilized" => Ok(RoutingPolicy::LeastUtilised),
            "round-robin" => Ok(RoutingPolicy::RoundRobin),
            "affinity" => Ok(RoutingPolicy::Affinity),
            other => Err(format!("unknown routing policy '{other}'")),
        }
    }
}

/// One named platform group: an independent sharded admission domain.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Group name (for metrics and rendering).
    pub name: String,
    /// Admission shards inside the group.
    pub shards: usize,
    /// Resident capacity per shard.
    pub capacity_per_shard: usize,
    /// Affinity tags this group advertises (use-case classes it prefers to
    /// host); consulted by [`RoutingPolicy::Affinity`].
    pub tags: Vec<String>,
}

impl GroupConfig {
    /// Group with the given shape and no affinity tags.
    pub fn new(name: impl Into<String>, shards: usize, capacity_per_shard: usize) -> GroupConfig {
        GroupConfig {
            name: name.into(),
            shards: shards.max(1),
            capacity_per_shard: capacity_per_shard.max(1),
            tags: Vec::new(),
        }
    }

    /// Adds affinity tags.
    #[must_use]
    pub fn with_tags(mut self, tags: impl IntoIterator<Item = impl Into<String>>) -> GroupConfig {
        self.tags.extend(tags.into_iter().map(Into::into));
        self
    }

    /// Total resident capacity of the group.
    pub fn capacity(&self) -> usize {
        self.shards * self.capacity_per_shard
    }

    /// The journal-header shape of this group — what
    /// [`FleetManager::with_header`] stamps and the capacity planner's
    /// [`FleetShape`](crate::FleetShape) mutates.
    pub fn to_shape(&self) -> crate::journal::GroupShape {
        crate::journal::GroupShape {
            name: self.name.clone(),
            shards: self.shards as u64,
            capacity_per_shard: self.capacity_per_shard as u64,
            tags: self.tags.clone(),
        }
    }

    /// Rebuilds the group a recorded shape describes (the inverse of
    /// [`to_shape`](Self::to_shape)).
    pub fn from_shape(shape: &crate::journal::GroupShape) -> GroupConfig {
        GroupConfig::new(
            shape.name.clone(),
            shape.shards as usize,
            shape.capacity_per_shard as usize,
        )
        .with_tags(shape.tags.iter().cloned())
    }
}

/// Configuration of a [`FleetManager`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The platform groups (≥ 1).
    pub groups: Vec<GroupConfig>,
    /// Routing policy for [`FleetManager::admit`].
    pub policy: RoutingPolicy,
}

impl FleetConfig {
    /// Homogeneous fleet: `groups` identical groups named `group0..` with
    /// one affinity tag `uc{i}` each — the shape `probcon fleet-bench`
    /// records into journal headers and `probcon replay` rebuilds.
    pub fn uniform(
        groups: usize,
        shards: usize,
        capacity_per_shard: usize,
        policy: RoutingPolicy,
    ) -> FleetConfig {
        FleetConfig {
            groups: (0..groups.max(1))
                .map(|i| {
                    GroupConfig::new(format!("group{i}"), shards, capacity_per_shard)
                        .with_tags([format!("uc{i}")])
                })
                .collect(),
            policy,
        }
    }

    /// Rebuilds the fleet shape recorded in a journal header: the exact
    /// per-group [`GroupShape`](crate::journal::GroupShape)s when present
    /// (every [`FleetManager`] stamps them, heterogeneous fleets included),
    /// falling back to the uniform summary fields otherwise.
    ///
    /// # Errors
    ///
    /// Fails when the header's policy string is unknown.
    pub fn from_header(header: &JournalHeader) -> Result<FleetConfig, FleetError> {
        let policy = header
            .policy
            .parse::<RoutingPolicy>()
            .map_err(FleetError::Config)?;
        if header.group_shapes.is_empty() {
            return Ok(FleetConfig::uniform(
                header.groups as usize,
                header.shards_per_group as usize,
                header.capacity_per_shard as usize,
                policy,
            ));
        }
        Ok(FleetConfig {
            groups: header
                .group_shapes
                .iter()
                .map(GroupConfig::from_shape)
                .collect(),
            policy,
        })
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig::uniform(2, 2, 8, RoutingPolicy::LeastUtilised)
    }
}

/// Why a fleet operation failed outright (as opposed to deciding a
/// rejection — see [`FleetAdmission`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The configuration is unusable (no groups, unknown policy name, …).
    Config(String),
    /// A group index was out of range.
    UnknownGroup(usize),
    /// A resident id is not (or no longer) live.
    UnknownResident(u64),
    /// A move targeted the group the resident already lives on.
    SameGroup {
        /// The resident's current (and requested) group.
        group: usize,
    },
    /// A move failed because the target group was full.
    MoveSaturated {
        /// The full target group.
        to: usize,
    },
    /// A move failed because throughput contracts on the target group would
    /// be violated.
    MoveRejected {
        /// The rejecting target group.
        to: usize,
        /// Number of violated requirements.
        violations: usize,
    },
    /// The underlying admission machinery failed.
    Admit(AdmitError),
    /// A checkpointed resident could not be restored into the fleet —
    /// the shape differs from the recording, or the snapshot is stale.
    Restore {
        /// The resident that failed to restore.
        resident: u64,
        /// Why the restore failed.
        reason: String,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Config(e) => write!(f, "invalid fleet configuration: {e}"),
            FleetError::UnknownGroup(g) => write!(f, "group {g} out of range"),
            FleetError::UnknownResident(r) => write!(f, "resident #{r} is not live"),
            FleetError::SameGroup { group } => {
                write!(f, "resident already lives on group {group}")
            }
            FleetError::MoveSaturated { to } => write!(f, "target group {to} is full"),
            FleetError::MoveRejected { to, violations } => {
                write!(
                    f,
                    "target group {to} rejected the move ({violations} violations)"
                )
            }
            FleetError::Admit(e) => write!(f, "admission failure: {e}"),
            FleetError::Restore { resident, reason } => {
                write!(f, "cannot restore resident #{resident}: {reason}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Admit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AdmitError> for FleetError {
    fn from(e: AdmitError) -> Self {
        FleetError::Admit(e)
    }
}

/// Decision of a fleet admission attempt. Unlike [`Admission`], where a
/// full shard is the error [`AdmitError::Saturated`], saturation (no free
/// capacity on the routed group) is a journaled decision here.
#[derive(Debug)]
pub enum FleetAdmission {
    /// Admitted: the ticket owns the reserved capacity.
    Admitted(FleetTicket),
    /// Rejected by throughput contracts on the routed group.
    Rejected {
        /// The rejecting group.
        group: usize,
        /// Every violated requirement.
        violations: Vec<Violation>,
    },
    /// The routed group had no free capacity.
    Saturated {
        /// The full group.
        group: usize,
    },
}

impl FleetAdmission {
    /// The ticket, if admitted.
    pub fn ticket(self) -> Option<FleetTicket> {
        match self {
            FleetAdmission::Admitted(t) => Some(t),
            _ => None,
        }
    }

    /// The group that decided (routed group for all three outcomes).
    pub fn group(&self) -> usize {
        match self {
            FleetAdmission::Admitted(t) => t.group(),
            FleetAdmission::Rejected { group, .. } | FleetAdmission::Saturated { group } => *group,
        }
    }
}

/// A live resident held by the fleet.
struct ResidentEntry {
    group: usize,
    ticket: Ticket,
    app_index: usize,
    required_throughput: Option<Rational>,
    /// Journal sequence number of the admission that created the resident
    /// — folded into snapshot checkpoints so restores re-admit in the
    /// recorded order.
    admitted_seq: u64,
}

/// Per-group lock-free outcome counters.
#[derive(Debug, Default)]
struct GroupCounters {
    admitted: AtomicU64,
    rejected: AtomicU64,
    saturated: AtomicU64,
}

struct GroupRuntime {
    config: GroupConfig,
    manager: ResourceManager,
    /// Serializes decision + journal append, so the journal order is a
    /// valid serialization of this group's decision order.
    order: Mutex<()>,
    counters: GroupCounters,
    /// `true` once a drain retired the group: it keeps its index (journal
    /// replay needs stable indices) but takes no new admissions and is
    /// skipped by routing, rebalancing and capacity sums.
    retired: AtomicBool,
    /// `true` when the group was added by a resize after the journal
    /// header was stamped — checkpoints record its full shape so restores
    /// can rebuild it.
    added_after_header: bool,
}

impl GroupRuntime {
    fn from_config(config: GroupConfig, added_after_header: bool) -> GroupRuntime {
        GroupRuntime {
            manager: ResourceManager::new(ResourceManagerConfig {
                shards: config.shards,
                capacity_per_shard: config.capacity_per_shard,
            }),
            config,
            order: Mutex::new(()),
            counters: GroupCounters::default(),
            retired: AtomicBool::new(false),
            added_after_header,
        }
    }

    fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    /// Live total capacity (elastic resizes move it; 0 once retired).
    fn capacity(&self) -> usize {
        if self.is_retired() {
            0
        } else {
            self.manager.capacity()
        }
    }
}

struct FleetInner {
    spec: SystemSpec,
    groups: RwLock<Vec<Arc<GroupRuntime>>>,
    policy: RoutingPolicy,
    round_robin: AtomicUsize,
    next_resident: AtomicU64,
    residents: Mutex<BTreeMap<u64, ResidentEntry>>,
    journal: Journal,
    released: AtomicU64,
    rebalances: AtomicU64,
    resizes: AtomicU64,
    resize_refusals: AtomicU64,
    /// `true` once [`FleetManager::stop`] ran; groups added afterwards
    /// start stopped. Written and read under the group-list write lock.
    stopped: AtomicBool,
    /// Optional flight recorder for fleet-level decision spans
    /// (see [`FleetManager::attach_trace`]).
    trace: OnceLock<Arc<TraceRecorder>>,
}

impl FleetInner {
    /// Appends a group added after the journal header was stamped. The
    /// caller holds the group-list write lock, which [`FleetManager::stop`]
    /// also takes, so a group added to a stopped fleet starts stopped.
    fn push_group(&self, groups: &mut Vec<Arc<GroupRuntime>>, config: GroupConfig) {
        let group = GroupRuntime::from_config(config, true);
        if self.stopped.load(Ordering::Acquire) {
            group.manager.stop();
        }
        groups.push(Arc::new(group));
    }

    /// Point-in-time view of the group list (cheap `Arc` clones). Groups
    /// are never removed — a drain retires in place — so indices in the
    /// returned vector are fleet group indices.
    fn groups_snapshot(&self) -> Vec<Arc<GroupRuntime>> {
        self.groups
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    fn group(&self, index: usize) -> Result<Arc<GroupRuntime>, FleetError> {
        self.groups
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(index)
            .cloned()
            .ok_or(FleetError::UnknownGroup(index))
    }
}

/// Thread-safe multi-platform fleet manager (see the [module docs](self)).
#[derive(Clone)]
pub struct FleetManager {
    inner: Arc<FleetInner>,
}

impl fmt::Debug for FleetManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetManager")
            .field("groups", &self.group_count())
            .field("policy", &self.inner.policy)
            .field("residents", &self.resident_count())
            .finish_non_exhaustive()
    }
}

impl FleetManager {
    /// Fleet over `spec` with the given group layout, journaling into a
    /// header derived from the configuration (workload fields zeroed; use
    /// [`with_header`](Self::with_header) to stamp them).
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when `config.groups` is empty.
    pub fn new(spec: SystemSpec, config: FleetConfig) -> Result<FleetManager, FleetError> {
        let first = config
            .groups
            .first()
            .ok_or_else(|| FleetError::Config("fleet needs at least one group".into()))?;
        let header = JournalHeader {
            groups: config.groups.len() as u64,
            shards_per_group: first.shards as u64,
            capacity_per_shard: first.capacity_per_shard as u64,
            policy: config.policy.to_string(),
            ..JournalHeader::default()
        };
        FleetManager::with_header(spec, config, header)
    }

    /// [`new`](Self::new) with an explicit journal header, consumed by
    /// `probcon replay`. The fleet stamps its actual per-group shapes into
    /// the header (overwriting whatever the caller left there), so the
    /// recorded journal always replays against the true fleet layout —
    /// heterogeneous groups included.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when `config.groups` is empty.
    pub fn with_header(
        spec: SystemSpec,
        config: FleetConfig,
        header: JournalHeader,
    ) -> Result<FleetManager, FleetError> {
        let header = FleetManager::stamped_header(&config, header);
        FleetManager::with_journal(spec, config, Journal::new(header))
    }

    /// Stamps the fleet's actual per-group shapes from `config` into
    /// `header` — the header a journal for this fleet must carry so
    /// recorded decisions replay against the true layout. Used by callers
    /// creating a WAL-backed journal up front (the WAL persists its header
    /// in the manifest at creation time).
    pub fn stamped_header(config: &FleetConfig, mut header: JournalHeader) -> JournalHeader {
        header.group_shapes = config.groups.iter().map(GroupConfig::to_shape).collect();
        header
    }

    /// [`with_header`](Self::with_header) with an explicit journal — how a
    /// fleet records into a durable WAL-backed [`Journal`] instead of a
    /// fresh in-memory one. The journal's header must already carry the
    /// fleet's shapes (see [`stamped_header`](Self::stamped_header));
    /// decisions append to the journal exactly as recorded, continuing its
    /// existing sequence numbering. Restoring the resident state a
    /// non-empty journal describes is [`recover`](Self::recover)'s job.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when `config.groups` is empty.
    pub fn with_journal(
        spec: SystemSpec,
        config: FleetConfig,
        journal: Journal,
    ) -> Result<FleetManager, FleetError> {
        if config.groups.is_empty() {
            return Err(FleetError::Config("fleet needs at least one group".into()));
        }
        let groups = config
            .groups
            .into_iter()
            .map(|group| Arc::new(GroupRuntime::from_config(group, false)))
            .collect();
        Ok(FleetManager {
            inner: Arc::new(FleetInner {
                spec,
                groups: RwLock::new(groups),
                policy: config.policy,
                round_robin: AtomicUsize::new(0),
                next_resident: AtomicU64::new(0),
                residents: Mutex::new(BTreeMap::new()),
                journal,
                released: AtomicU64::new(0),
                rebalances: AtomicU64::new(0),
                resizes: AtomicU64::new(0),
                resize_refusals: AtomicU64::new(0),
                stopped: AtomicBool::new(false),
                trace: OnceLock::new(),
            }),
        })
    }

    /// Attaches a flight recorder: service admissions decided while a
    /// [`SpanScope`](crate::SpanScope) is active are recorded as
    /// [`TraceKind::FleetAdmit`](crate::TraceKind) spans — the innermost
    /// link of a request's span tree. Attach the recorder of the stack's
    /// outer [`Traced`](crate::Traced) layer; the first attachment wins.
    pub fn attach_trace(&self, recorder: Arc<TraceRecorder>) {
        let _ = self.inner.trace.set(recorder);
    }

    /// The attached flight recorder, if any.
    pub(crate) fn attached_trace(&self) -> Option<&Arc<TraceRecorder>> {
        self.inner.trace.get()
    }

    /// The workload spec admissions draw applications from.
    pub fn spec(&self) -> &SystemSpec {
        &self.inner.spec
    }

    /// Number of platform groups, retired ones included (group indices are
    /// stable for the fleet's lifetime; see
    /// [`active_group_count`](Self::active_group_count)).
    pub fn group_count(&self) -> usize {
        self.inner
            .groups
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Number of groups still taking admissions (not retired by a drain).
    pub fn active_group_count(&self) -> usize {
        self.inner
            .groups_snapshot()
            .iter()
            .filter(|g| !g.is_retired())
            .count()
    }

    /// `true` when the group was drained and retired.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownGroup`] if out of range.
    pub fn group_retired(&self, group: usize) -> Result<bool, FleetError> {
        Ok(self.group(group)?.is_retired())
    }

    /// Name of a group.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownGroup`] if out of range.
    pub fn group_name(&self, group: usize) -> Result<String, FleetError> {
        Ok(self.group(group)?.config.name.clone())
    }

    /// The routing policy in effect.
    pub fn policy(&self) -> RoutingPolicy {
        self.inner.policy
    }

    /// The fleet's decision journal.
    pub fn journal(&self) -> &Journal {
        &self.inner.journal
    }

    /// Live residents across the whole fleet.
    pub fn resident_count(&self) -> usize {
        lock(&self.inner.residents).len()
    }

    /// Live residents on one group (via its manager, so the number also
    /// counts admissions made around the fleet, e.g. mid-move duplicates).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownGroup`] if out of range.
    pub fn resident_count_of(&self, group: usize) -> Result<usize, FleetError> {
        Ok(self.group(group)?.manager.resident_count())
    }

    /// Group a live resident currently lives on (rebalancing moves it).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownResident`] if not (or no longer) live.
    pub fn group_of(&self, resident: u64) -> Result<usize, FleetError> {
        lock(&self.inner.residents)
            .get(&resident)
            .map(|entry| entry.group)
            .ok_or(FleetError::UnknownResident(resident))
    }

    /// Total resident capacity of the fleet (active groups only; retired
    /// groups contribute nothing).
    pub fn capacity(&self) -> usize {
        self.inner
            .groups_snapshot()
            .iter()
            .map(|g| g.capacity())
            .sum()
    }

    /// Resident capacity of one group (its live, possibly resized value;
    /// 0 once retired).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownGroup`] if out of range.
    pub fn capacity_of(&self, group: usize) -> Result<usize, FleetError> {
        Ok(self.group(group)?.capacity())
    }

    /// Current shape of one group: the configured name/shards/tags with
    /// the **live** per-shard capacity (elastic resizes move it away from
    /// the configured value). The autoscaler clones this to size
    /// `AddGroup` actions.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownGroup`] if out of range.
    pub fn group_shape(&self, group: usize) -> Result<crate::journal::GroupShape, FleetError> {
        let g = self.group(group)?;
        let mut shape = g.config.to_shape();
        shape.capacity_per_shard = g.manager.capacity_per_shard() as u64;
        Ok(shape)
    }

    /// The group the routing policy would pick for `affinity` right now.
    /// Retired groups are never picked.
    pub fn route(&self, affinity: Option<&str>) -> usize {
        let groups = self.inner.groups_snapshot();
        match self.inner.policy {
            RoutingPolicy::RoundRobin => {
                // Rotate, skipping retired slots (bounded: at least one
                // group is always active).
                for _ in 0..groups.len().max(1) {
                    let i = self.inner.round_robin.fetch_add(1, Ordering::Relaxed) % groups.len();
                    if !groups[i].is_retired() {
                        return i;
                    }
                }
                least_utilised(&groups, |_| true)
            }
            RoutingPolicy::LeastUtilised => least_utilised(&groups, |_| true),
            RoutingPolicy::Affinity => match affinity {
                Some(tag)
                    if groups
                        .iter()
                        .any(|g| !g.is_retired() && g.config.tags.iter().any(|t| t == tag)) =>
                {
                    least_utilised(&groups, |g| g.config.tags.iter().any(|t| t == tag))
                }
                _ => least_utilised(&groups, |_| true),
            },
        }
    }

    /// Routes and attempts to admit an instance of the spec's application
    /// `app_index` (mapped per the spec), optionally demanding a throughput
    /// floor; `affinity` steers [`RoutingPolicy::Affinity`]. Never blocks:
    /// a full group answers [`FleetAdmission::Saturated`]. The decision —
    /// whatever it is — is appended to the journal.
    ///
    /// # Errors
    ///
    /// [`FleetError::Admit`] on analysis failures (no decision was made,
    /// nothing is journaled).
    pub fn admit(
        &self,
        app_index: usize,
        required_throughput: Option<Rational>,
        affinity: Option<&str>,
    ) -> Result<FleetAdmission, FleetError> {
        let group = self.route(affinity);
        self.admit_to_with_affinity(group, app_index, required_throughput, affinity)
    }

    /// [`admit`](Self::admit) with an explicit target group, bypassing the
    /// routing policy — the entry point deterministic replay uses (the
    /// journal records the routed group).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownGroup`] / [`FleetError::Admit`].
    pub fn admit_to(
        &self,
        group: usize,
        app_index: usize,
        required_throughput: Option<Rational>,
    ) -> Result<FleetAdmission, FleetError> {
        self.admit_to_with_affinity(group, app_index, required_throughput, None)
    }

    /// [`admit_to`](Self::admit_to) that also records the request's
    /// affinity tag in the journaled decision, so re-routed replays
    /// (`RouteMode::Replan`) can re-run the affinity policy faithfully.
    /// The tag does not influence which group decides — `group` does.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownGroup`] / [`FleetError::Admit`].
    pub fn admit_to_with_affinity(
        &self,
        group: usize,
        app_index: usize,
        required_throughput: Option<Rational>,
        affinity: Option<&str>,
    ) -> Result<FleetAdmission, FleetError> {
        let g = self.group(group)?;
        let app_index = app_index % self.inner.spec.application_count();
        let (app, assignment) = self.instantiate(app_index);
        // Shard choice must be a pure function of journal-visible data so
        // replay reproduces the same per-shard mixes.
        let shard = g.manager.shard_for(app_index as u64);

        let _order = lock(&g.order);
        match g
            .manager
            .admit(shard, app, &assignment, required_throughput)
        {
            Ok(Admission::Admitted(ticket)) => {
                let resident = self.inner.next_resident.fetch_add(1, Ordering::Relaxed);
                let predicted_period = ticket.predicted_period().unwrap_or(Rational::ZERO);
                // Journal first: the resident entry records its admission's
                // sequence number (snapshot checkpoints fold it). Both steps
                // happen under the group's order lock, and a checkpoint
                // quiesces every group, so it can never observe the gap
                // between them.
                let admitted_seq = self.inner.journal.append(DecisionEvent::Admit {
                    group: group as u64,
                    app_index: app_index as u64,
                    required_throughput,
                    outcome: JournalOutcome::Admitted {
                        resident,
                        predicted_period,
                    },
                    affinity: affinity.map(str::to_string),
                });
                lock(&self.inner.residents).insert(
                    resident,
                    ResidentEntry {
                        group,
                        ticket,
                        app_index,
                        required_throughput,
                        admitted_seq,
                    },
                );
                g.counters.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(FleetAdmission::Admitted(FleetTicket {
                    inner: Arc::clone(&self.inner),
                    resident: Some(resident),
                    group,
                    predicted_period,
                }))
            }
            Ok(Admission::Rejected { violations }) => {
                g.counters.rejected.fetch_add(1, Ordering::Relaxed);
                self.inner.journal.append(DecisionEvent::Admit {
                    group: group as u64,
                    app_index: app_index as u64,
                    required_throughput,
                    outcome: JournalOutcome::Rejected {
                        violations: violations.len() as u64,
                    },
                    affinity: affinity.map(str::to_string),
                });
                Ok(FleetAdmission::Rejected { group, violations })
            }
            Err(AdmitError::Saturated) => {
                g.counters.saturated.fetch_add(1, Ordering::Relaxed);
                self.inner.journal.append(DecisionEvent::Admit {
                    group: group as u64,
                    app_index: app_index as u64,
                    required_throughput,
                    outcome: JournalOutcome::Saturated,
                    affinity: affinity.map(str::to_string),
                });
                Ok(FleetAdmission::Saturated { group })
            }
            Err(e) => Err(FleetError::Admit(e)),
        }
    }

    /// Moves a live resident to another group: admit on the target (same
    /// application instance, same contract), then release on the source.
    /// The move is atomic with respect to the journal — one
    /// [`DecisionEvent::Rebalance`] entry ordered against both groups'
    /// decisions — and the resident id survives the move.
    ///
    /// Returns the period predicted on the target group.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownResident`] / [`FleetError::UnknownGroup`] /
    /// [`FleetError::SameGroup`] / [`FleetError::MoveSaturated`] /
    /// [`FleetError::MoveRejected`] / [`FleetError::Admit`]. Failed moves
    /// change nothing and journal nothing.
    pub fn move_resident(&self, resident: u64, to: usize) -> Result<Rational, FleetError> {
        if to >= self.group_count() {
            return Err(FleetError::UnknownGroup(to));
        }
        loop {
            // Snapshot the resident's current group, then take both group
            // locks in index order and re-verify (the resident may move or
            // release concurrently between snapshot and lock).
            let (from, app_index, required) = {
                let residents = lock(&self.inner.residents);
                let entry = residents
                    .get(&resident)
                    .ok_or(FleetError::UnknownResident(resident))?;
                (entry.group, entry.app_index, entry.required_throughput)
            };
            if from == to {
                return Err(FleetError::SameGroup { group: from });
            }
            let (lo, hi) = (from.min(to), from.max(to));
            let g_lo = self.group(lo)?;
            let g_hi = self.group(hi)?;
            let _order_lo = lock(&g_lo.order);
            let _order_hi = lock(&g_hi.order);
            {
                let residents = lock(&self.inner.residents);
                match residents.get(&resident) {
                    Some(entry) if entry.group == from => {}
                    Some(_) => continue, // moved meanwhile; retry with fresh group
                    None => return Err(FleetError::UnknownResident(resident)),
                }
            }

            let target = self.group(to)?;
            let (app, assignment) = self.instantiate(app_index);
            let shard = target.manager.shard_for(app_index as u64);
            return match target.manager.admit(shard, app, &assignment, required) {
                Ok(Admission::Admitted(new_ticket)) => {
                    let predicted_period = new_ticket.predicted_period().unwrap_or(Rational::ZERO);
                    let old_ticket = {
                        let mut residents = lock(&self.inner.residents);
                        let entry = residents
                            .get_mut(&resident)
                            .expect("verified live under group locks");
                        entry.group = to;
                        std::mem::replace(&mut entry.ticket, new_ticket)
                    };
                    old_ticket.release();
                    self.inner.rebalances.fetch_add(1, Ordering::Relaxed);
                    self.inner.journal.append(DecisionEvent::Rebalance {
                        resident,
                        from_group: from as u64,
                        to_group: to as u64,
                        predicted_period,
                    });
                    Ok(predicted_period)
                }
                Ok(Admission::Rejected { violations }) => Err(FleetError::MoveRejected {
                    to,
                    violations: violations.len(),
                }),
                Err(AdmitError::Saturated) => Err(FleetError::MoveSaturated { to }),
                Err(e) => Err(FleetError::Admit(e)),
            };
        }
    }

    /// One rebalancing pass: if moving a resident from the most-utilised
    /// group to the least-utilised one would strictly improve balance (the
    /// target stays below the source's pre-move utilisation), move the
    /// oldest such resident and return the move. Returns `None` when the
    /// fleet is balanced or the move failed (full/contract-bound target).
    pub fn rebalance(&self) -> Option<RebalanceMove> {
        let groups = self.inner.groups_snapshot();
        // Retired groups neither donate (they are empty) nor receive.
        let indices: Vec<usize> = (0..groups.len())
            .filter(|&i| !groups[i].is_retired())
            .collect();
        let loads: Vec<(usize, usize)> = indices
            .iter()
            .map(|&i| (groups[i].manager.resident_count(), groups[i].capacity()))
            .collect();
        let from_pos = max_utilised(&loads)?;
        let to_pos = min_utilised(&loads)?;
        let ((r_f, c_f), (r_t, c_t)) = (loads[from_pos], loads[to_pos]);
        let (from, to) = (indices[from_pos], indices[to_pos]);
        // Move only when the target's post-move ratio stays strictly below
        // the source's pre-move ratio — prevents ping-pong.
        if from == to || r_f == 0 || (r_t + 1) * c_f >= r_f * c_t {
            return None;
        }
        let resident = {
            let residents = lock(&self.inner.residents);
            residents
                .iter()
                .find(|(_, e)| e.group == from)
                .map(|(&id, _)| id)?
        };
        match self.move_resident(resident, to) {
            Ok(predicted_period) => Some(RebalanceMove {
                resident,
                from,
                to,
                predicted_period,
            }),
            Err(_) => None,
        }
    }

    /// Point-in-time utilisation/outcome summary of the whole fleet.
    pub fn snapshot(&self) -> FleetSnapshot {
        let groups: Vec<GroupSnapshot> = self
            .inner
            .groups_snapshot()
            .iter()
            .map(|g| {
                let residents = g.manager.resident_count();
                let capacity = g.capacity();
                GroupSnapshot {
                    name: g.config.name.clone(),
                    residents,
                    capacity,
                    admitted: g.counters.admitted.load(Ordering::Relaxed),
                    rejected: g.counters.rejected.load(Ordering::Relaxed),
                    saturated: g.counters.saturated.load(Ordering::Relaxed),
                    retired: g.is_retired(),
                }
            })
            .collect();
        FleetSnapshot {
            residents: self.resident_count(),
            capacity: groups.iter().map(|g| g.capacity).sum(),
            admitted: groups.iter().map(|g| g.admitted).sum(),
            rejected: groups.iter().map(|g| g.rejected).sum(),
            saturated: groups.iter().map(|g| g.saturated).sum(),
            released: self.inner.released.load(Ordering::Relaxed),
            rebalances: self.inner.rebalances.load(Ordering::Relaxed),
            resizes: self.inner.resizes.load(Ordering::Relaxed),
            resize_refusals: self.inner.resize_refusals.load(Ordering::Relaxed),
            groups,
        }
    }

    /// Releases a live resident **by id**, journaling the release and
    /// returning whether it was live — the
    /// [`AdmissionService`](crate::AdmissionService) release path.
    /// [`FleetTicket`]s remain the RAII path; a ticket whose resident was
    /// already released this way becomes a no-op on drop.
    pub fn release_resident(&self, resident: u64) -> bool {
        self.inner.release_resident(resident)
    }

    /// Folds the fleet's live-resident state into a snapshot checkpoint.
    ///
    /// The fleet is quiesced for the duration of the fold: every group's
    /// decision lock is taken (in index order, the same order
    /// [`move_resident`](Self::move_resident) uses), so the resident map
    /// and the journal's next sequence number are observed at one
    /// consistent instant — every decision before `upto_seq` is folded in,
    /// none after.
    pub fn checkpoint(&self) -> FleetCheckpoint {
        // Holding the group-list read lock for the whole fold excludes
        // concurrent AddGroup resizes (they take the write lock); holding
        // every group's order lock excludes decisions and per-group
        // resizes.
        let groups = self
            .inner
            .groups
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let guards: Vec<_> = groups.iter().map(|g| lock(&g.order)).collect();
        let residents = lock(&self.inner.residents);
        let upto_seq = self.inner.journal.next_seq();
        let next_resident = self.inner.next_resident.load(Ordering::Relaxed);
        let folded = residents
            .iter()
            .map(|(&id, entry)| CheckpointResident {
                resident: id,
                group: entry.group as u64,
                app_index: entry.app_index as u64,
                required_throughput: entry.required_throughput,
                admitted_seq: entry.admitted_seq,
            })
            .collect();
        // Shape overrides: only groups that drifted from the journal
        // header (resized, retired, or added after it) are recorded.
        let shapes = groups
            .iter()
            .enumerate()
            .filter_map(|(i, g)| {
                let capacity = g.manager.capacity_per_shard();
                let resized = capacity != g.config.capacity_per_shard;
                let retired = g.is_retired();
                if !(resized || retired || g.added_after_header) {
                    return None;
                }
                let mut shape = CheckpointGroup::unchanged(i as u64);
                if g.added_after_header {
                    shape.added = Some(g.config.to_shape());
                }
                if resized {
                    shape.capacity_per_shard = Some(capacity as u64);
                }
                shape.retired = retired;
                Some(shape)
            })
            .collect();
        drop(residents);
        drop(guards);
        drop(groups);
        FleetCheckpoint::new(upto_seq, next_resident, folded).with_groups(shapes)
    }

    /// Takes a [`checkpoint`](Self::checkpoint) and installs it into the
    /// fleet's journal — on a WAL-backed journal this persists the
    /// snapshot and garbage-collects every segment it covers. Decision
    /// traffic resumes as soon as the in-memory fold completes; the
    /// snapshot write happens outside the group locks.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on snapshot write failures.
    pub fn checkpoint_and_install(&self) -> Result<FleetCheckpoint, JournalError> {
        let checkpoint = self.checkpoint();
        self.inner.journal.install_checkpoint(checkpoint.clone())?;
        Ok(checkpoint)
    }

    /// Re-admits one checkpointed resident: same group, same application
    /// instance, same contract, same fleet-wide id — without journaling
    /// anything or touching the outcome counters (the decision is already
    /// in the history the checkpoint folds).
    ///
    /// Restoring a checkpoint's residents in `admitted_seq` order onto the
    /// recorded fleet shape always succeeds: each intermediate per-group
    /// mix is a subset of a mix the recording actually validated, and
    /// contention only grows with co-residents.
    ///
    /// # Errors
    ///
    /// [`FleetError::Restore`] when the resident id is already live or the
    /// (hypothetical) shape rejects the re-admission;
    /// [`FleetError::UnknownGroup`] / [`FleetError::Admit`].
    pub fn restore_resident(&self, restored: &CheckpointResident) -> Result<(), FleetError> {
        let group_index = restored.group as usize;
        let g = self.group(group_index)?;
        let app_index = (restored.app_index as usize) % self.inner.spec.application_count();
        let (app, assignment) = self.instantiate(app_index);
        let shard = g.manager.shard_for(app_index as u64);
        let _order = lock(&g.order);
        if lock(&self.inner.residents).contains_key(&restored.resident) {
            return Err(FleetError::Restore {
                resident: restored.resident,
                reason: "resident id already live".to_string(),
            });
        }
        match g
            .manager
            .admit(shard, app, &assignment, restored.required_throughput)
        {
            Ok(Admission::Admitted(ticket)) => {
                lock(&self.inner.residents).insert(
                    restored.resident,
                    ResidentEntry {
                        group: group_index,
                        ticket,
                        app_index,
                        required_throughput: restored.required_throughput,
                        admitted_seq: restored.admitted_seq,
                    },
                );
                // Keep id assignment monotone past every restored id.
                self.inner
                    .next_resident
                    .fetch_max(restored.resident + 1, Ordering::Relaxed);
                Ok(())
            }
            Ok(Admission::Rejected { violations }) => Err(FleetError::Restore {
                resident: restored.resident,
                reason: format!("re-admission rejected ({} violations)", violations.len()),
            }),
            Err(AdmitError::Saturated) => Err(FleetError::Restore {
                resident: restored.resident,
                reason: format!("group {group_index} is full"),
            }),
            Err(e) => Err(FleetError::Admit(e)),
        }
    }

    /// Restores every resident of a snapshot checkpoint (in recorded
    /// admission order) and advances the resident-id counter past the
    /// checkpoint's. Returns the number of residents restored.
    ///
    /// # Errors
    ///
    /// Fail-fast [`FleetError::Restore`] on the first resident the current
    /// shape cannot take back (see
    /// [`restore_resident`](Self::restore_resident)).
    pub fn restore(&self, checkpoint: &FleetCheckpoint) -> Result<usize, FleetError> {
        // Shape overrides first: residents admitted after a grow (or onto
        // an added group) need the grown shape to fit back in. Retire
        // flags are applied after capacities so a retired group's recorded
        // shape still restores exactly.
        if let Some(shapes) = &checkpoint.groups {
            let mut ordered: Vec<&CheckpointGroup> = shapes.iter().collect();
            ordered.sort_by_key(|g| g.group);
            for shape in ordered {
                let index = shape.group as usize;
                if let Some(added) = &shape.added {
                    if index >= self.group_count() {
                        self.apply_add_group(index, GroupConfig::from_shape(added))?;
                    }
                }
                let g = self.group(index).map_err(|_| FleetError::Restore {
                    resident: 0,
                    reason: format!(
                        "checkpoint records group {index} the fleet shape does not have"
                    ),
                })?;
                if let Some(capacity) = shape.capacity_per_shard {
                    g.manager.set_capacity_per_shard(capacity as usize);
                }
                if shape.retired {
                    g.retired.store(true, Ordering::Release);
                }
            }
        }
        let mut ordered: Vec<&CheckpointResident> = checkpoint.residents.iter().collect();
        ordered.sort_by_key(|r| r.admitted_seq);
        for restored in &ordered {
            self.restore_resident(restored)?;
        }
        self.inner
            .next_resident
            .fetch_max(checkpoint.next_resident, Ordering::Relaxed);
        Ok(ordered.len())
    }

    /// Rebuilds a fleet from a journal that already holds history — the
    /// `probcon serve --journal-dir` restart path: restores the base
    /// checkpoint's residents, then re-applies the post-checkpoint tail
    /// (admissions, releases, rebalances) without re-journaling any of it.
    /// The returned fleet appends new decisions after the recovered
    /// history, and its resident state matches the journal's end state
    /// exactly.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when the journal is unreadable or the config
    /// has no groups; [`FleetError::Restore`] when the recorded state does
    /// not fit `config`'s shape.
    pub fn recover(
        spec: SystemSpec,
        config: FleetConfig,
        journal: Journal,
    ) -> Result<FleetManager, FleetError> {
        let checkpoint = journal.base_checkpoint();
        let entries = journal
            .try_entries()
            .map_err(|e| FleetError::Config(format!("journal unreadable: {e}")))?;
        let fleet = FleetManager::with_journal(spec, config, journal)?;
        if let Some(checkpoint) = &checkpoint {
            fleet.restore(checkpoint)?;
        }
        for entry in &entries {
            match &entry.event {
                DecisionEvent::Admit {
                    group,
                    app_index,
                    required_throughput,
                    outcome: JournalOutcome::Admitted { resident, .. },
                    ..
                } => {
                    fleet.restore_resident(&CheckpointResident {
                        resident: *resident,
                        group: *group,
                        app_index: *app_index,
                        required_throughput: *required_throughput,
                        admitted_seq: entry.seq,
                    })?;
                }
                // Rejections and saturations changed nothing.
                DecisionEvent::Admit { .. } => {}
                DecisionEvent::Release { resident } => {
                    fleet.release_unjournaled(*resident);
                }
                DecisionEvent::Rebalance {
                    resident, to_group, ..
                } => {
                    fleet.move_unjournaled(*resident, *to_group as usize)?;
                }
                DecisionEvent::Resize {
                    action,
                    outcome: ScaleOutcome::Applied,
                } => {
                    fleet.apply_resize_unjournaled(action)?;
                }
                // A refused resize changed nothing.
                DecisionEvent::Resize { .. } => {}
            }
        }
        Ok(fleet)
    }

    /// Releases a resident without journaling — recovery re-applies
    /// recorded releases whose entries are already in the journal.
    fn release_unjournaled(&self, resident: u64) -> bool {
        let entry = lock(&self.inner.residents).remove(&resident);
        match entry {
            Some(entry) => {
                entry.ticket.release();
                true
            }
            None => false,
        }
    }

    /// Moves a resident without journaling — recovery re-applies recorded
    /// rebalances whose entries are already in the journal.
    fn move_unjournaled(&self, resident: u64, to: usize) -> Result<(), FleetError> {
        let (app_index, required) = {
            let residents = lock(&self.inner.residents);
            let entry = residents
                .get(&resident)
                .ok_or(FleetError::UnknownResident(resident))?;
            (entry.app_index, entry.required_throughput)
        };
        let target = self.group(to)?;
        let (app, assignment) = self.instantiate(app_index);
        let shard = target.manager.shard_for(app_index as u64);
        match target.manager.admit(shard, app, &assignment, required) {
            Ok(Admission::Admitted(new_ticket)) => {
                let old_ticket = {
                    let mut residents = lock(&self.inner.residents);
                    let entry = residents
                        .get_mut(&resident)
                        .ok_or(FleetError::UnknownResident(resident))?;
                    entry.group = to;
                    std::mem::replace(&mut entry.ticket, new_ticket)
                };
                old_ticket.release();
                Ok(())
            }
            Ok(Admission::Rejected { violations }) => Err(FleetError::Restore {
                resident,
                reason: format!(
                    "recorded rebalance to group {to} rejected ({} violations)",
                    violations.len()
                ),
            }),
            Err(AdmitError::Saturated) => Err(FleetError::Restore {
                resident,
                reason: format!("recorded rebalance target group {to} is full"),
            }),
            Err(e) => Err(FleetError::Admit(e)),
        }
    }

    /// Executes one elastic capacity change and journals it (and its
    /// outcome — applied or refused) as a first-class
    /// [`DecisionEvent::Resize`]. This is the single entry point the
    /// autoscaler, the CLI and deterministic replay all drive:
    ///
    /// - `Grow`/`Shrink` move a group's per-shard capacity to the given
    ///   **absolute** value. A shrink below any shard's current occupancy
    ///   is refused ([`ScaleRefusal::Occupied`]).
    /// - `AddGroup` appends a new group; the action's recorded index must
    ///   be the next free one ([`ScaleRefusal::UnknownGroup`] otherwise),
    ///   which the convenience wrapper [`add_group`](Self::add_group)
    ///   guarantees.
    /// - `Drain` rebalances every resident off the group (each move is
    ///   journaled as a [`DecisionEvent::Rebalance`] *before* the resize
    ///   entry) and retires it in place. If any resident cannot be placed
    ///   the whole drain is refused ([`ScaleRefusal::Unplaceable`]) and the
    ///   fleet is left as it was. The fleet's last active group cannot be
    ///   drained ([`ScaleRefusal::LastGroup`]).
    ///
    /// Refusals are `Ok(ScaleOutcome::Refused { .. })`, not errors: they
    /// are decisions, journaled so replay reproduces them.
    ///
    /// # Errors
    ///
    /// [`FleetError`] only for non-decisions (analysis failures during a
    /// drain's moves). Nothing is journaled in that case.
    pub fn resize(&self, action: ScaleAction) -> Result<ScaleOutcome, FleetError> {
        let outcome = match &action {
            ScaleAction::Grow {
                group,
                capacity_per_shard,
            }
            | ScaleAction::Shrink {
                group,
                capacity_per_shard,
            } => self.resize_capacity(
                *group as usize,
                *capacity_per_shard as usize,
                matches!(action, ScaleAction::Shrink { .. }),
                &action,
            ),
            ScaleAction::AddGroup { group, shape } => {
                self.resize_add(*group as usize, GroupConfig::from_shape(shape), &action)
            }
            ScaleAction::Drain { group } => self.resize_drain(*group as usize, &action)?,
        };
        match &outcome {
            ScaleOutcome::Applied => self.inner.resizes.fetch_add(1, Ordering::Relaxed),
            ScaleOutcome::Refused { .. } => {
                self.inner.resize_refusals.fetch_add(1, Ordering::Relaxed)
            }
        };
        Ok(outcome)
    }

    /// [`resize`](Self::resize) with a `Grow` action.
    ///
    /// # Errors
    ///
    /// See [`resize`](Self::resize).
    pub fn grow_group(
        &self,
        group: usize,
        capacity_per_shard: usize,
    ) -> Result<ScaleOutcome, FleetError> {
        self.resize(ScaleAction::Grow {
            group: group as u64,
            capacity_per_shard: capacity_per_shard as u64,
        })
    }

    /// [`resize`](Self::resize) with a `Shrink` action.
    ///
    /// # Errors
    ///
    /// See [`resize`](Self::resize).
    pub fn shrink_group(
        &self,
        group: usize,
        capacity_per_shard: usize,
    ) -> Result<ScaleOutcome, FleetError> {
        self.resize(ScaleAction::Shrink {
            group: group as u64,
            capacity_per_shard: capacity_per_shard as u64,
        })
    }

    /// [`resize`](Self::resize) with an `AddGroup` action for the next
    /// free group index.
    ///
    /// # Errors
    ///
    /// See [`resize`](Self::resize).
    pub fn add_group(&self, config: GroupConfig) -> Result<ScaleOutcome, FleetError> {
        let index = self.group_count() as u64;
        self.resize(ScaleAction::AddGroup {
            group: index,
            shape: config.to_shape(),
        })
    }

    /// [`resize`](Self::resize) with a `Drain` action.
    ///
    /// # Errors
    ///
    /// See [`resize`](Self::resize).
    pub fn drain_group(&self, group: usize) -> Result<ScaleOutcome, FleetError> {
        self.resize(ScaleAction::Drain {
            group: group as u64,
        })
    }

    /// Grow/Shrink: decide, apply and journal under the group's order
    /// lock, so the capacity change is atomically ordered against the
    /// group's admission decisions.
    fn resize_capacity(
        &self,
        group: usize,
        capacity_per_shard: usize,
        is_shrink: bool,
        action: &ScaleAction,
    ) -> ScaleOutcome {
        let Ok(g) = self.inner.group(group) else {
            return self.journal_refusal(
                action,
                ScaleRefusal::UnknownGroup {
                    group: group as u64,
                },
            );
        };
        let _order = lock(&g.order);
        if g.is_retired() {
            let reason = ScaleRefusal::Retired {
                group: group as u64,
            };
            self.append_resize(
                action,
                ScaleOutcome::Refused {
                    reason: reason.clone(),
                },
            );
            return ScaleOutcome::Refused { reason };
        }
        if is_shrink {
            let occupancy = g.manager.shard_occupancy();
            if let Some((shard, residents)) = occupancy
                .iter()
                .enumerate()
                .find(|(_, &r)| r > capacity_per_shard.max(1))
            {
                let reason = ScaleRefusal::Occupied {
                    group: group as u64,
                    shard: shard as u64,
                    residents: *residents as u64,
                    capacity: capacity_per_shard as u64,
                };
                self.append_resize(
                    action,
                    ScaleOutcome::Refused {
                        reason: reason.clone(),
                    },
                );
                return ScaleOutcome::Refused { reason };
            }
        }
        g.manager.set_capacity_per_shard(capacity_per_shard);
        self.append_resize(action, ScaleOutcome::Applied);
        ScaleOutcome::Applied
    }

    /// AddGroup: append under the group-list write lock, so the new group
    /// and its journal entry are atomic against checkpoints (which hold
    /// the read lock).
    fn resize_add(&self, index: usize, config: GroupConfig, action: &ScaleAction) -> ScaleOutcome {
        let mut groups = self
            .inner
            .groups
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if index != groups.len() {
            drop(groups);
            return self.journal_refusal(
                action,
                ScaleRefusal::UnknownGroup {
                    group: index as u64,
                },
            );
        }
        self.inner.push_group(&mut groups, config);
        self.append_resize(action, ScaleOutcome::Applied);
        ScaleOutcome::Applied
    }

    /// Drain: capacity-feasibility check, then journaled moves, then the
    /// retire + resize entry. All-or-nothing: an unplaceable resident
    /// refuses the whole drain with the fleet unchanged (moves already
    /// made for this drain are moved back).
    fn resize_drain(&self, group: usize, action: &ScaleAction) -> Result<ScaleOutcome, FleetError> {
        let Ok(g) = self.inner.group(group) else {
            return Ok(self.journal_refusal(
                action,
                ScaleRefusal::UnknownGroup {
                    group: group as u64,
                },
            ));
        };
        if g.is_retired() {
            return Ok(self.journal_refusal(
                action,
                ScaleRefusal::Retired {
                    group: group as u64,
                },
            ));
        }
        let groups = self.inner.groups_snapshot();
        if groups.iter().filter(|g| !g.is_retired()).count() <= 1 {
            return Ok(self.journal_refusal(action, ScaleRefusal::LastGroup));
        }

        // Feasibility first, against simulated per-shard occupancies — a
        // pure function of journal-visible state, so a refusal replays to
        // the same refusal. Placement targets mirror the move itself:
        // `shard_for(app_index)` on each candidate group.
        let placements = {
            let residents = lock(&self.inner.residents);
            let mut occupancy: Vec<Vec<usize>> =
                groups.iter().map(|g| g.manager.shard_occupancy()).collect();
            let mut placements: Vec<(u64, usize)> = Vec::new();
            for (&id, entry) in residents.iter().filter(|(_, e)| e.group == group) {
                let mut placed = false;
                for (i, candidate) in groups.iter().enumerate() {
                    if i == group || candidate.is_retired() {
                        continue;
                    }
                    let shard = candidate.manager.shard_for(entry.app_index as u64);
                    if occupancy[i][shard] < candidate.manager.capacity_per_shard() {
                        occupancy[i][shard] += 1;
                        placements.push((id, i));
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    drop(residents);
                    return Ok(
                        self.journal_refusal(action, ScaleRefusal::Unplaceable { resident: id })
                    );
                }
            }
            placements
        };

        // Execute the planned moves; each is a first-class journaled
        // rebalance. A move can still fail (a contract rejection the
        // capacity check cannot see, or a concurrent admission racing the
        // plan): roll the completed moves back and refuse.
        let mut moved: Vec<(u64, usize)> = Vec::new();
        for (resident, to) in placements {
            match self.move_resident(resident, to) {
                Ok(_) => moved.push((resident, group)),
                Err(FleetError::UnknownResident(_)) => {
                    // Released concurrently — nothing left to move.
                }
                Err(FleetError::MoveSaturated { .. } | FleetError::MoveRejected { .. }) => {
                    for (resident, back) in moved.into_iter().rev() {
                        let _ = self.move_resident(resident, back);
                    }
                    return Ok(self.journal_refusal(action, ScaleRefusal::Unplaceable { resident }));
                }
                Err(e) => return Err(e),
            }
        }

        // Retire + journal atomically against the group's decisions.
        let _order = lock(&g.order);
        g.retired.store(true, Ordering::Release);
        self.append_resize(action, ScaleOutcome::Applied);
        Ok(ScaleOutcome::Applied)
    }

    /// Appends a refusal entry and returns the refusal.
    fn journal_refusal(&self, action: &ScaleAction, reason: ScaleRefusal) -> ScaleOutcome {
        let outcome = ScaleOutcome::Refused { reason };
        self.append_resize(action, outcome.clone());
        outcome
    }

    fn append_resize(&self, action: &ScaleAction, outcome: ScaleOutcome) {
        self.inner.journal.append(DecisionEvent::Resize {
            action: action.clone(),
            outcome,
        });
    }

    /// Applies an already-journaled resize without re-journaling it — the
    /// recovery path re-applying a recorded `Applied` resize. A recorded
    /// drain's moves were re-applied from their own Rebalance entries, so
    /// only the retire flag remains to set here.
    fn apply_resize_unjournaled(&self, action: &ScaleAction) -> Result<(), FleetError> {
        match action {
            ScaleAction::Grow {
                group,
                capacity_per_shard,
            }
            | ScaleAction::Shrink {
                group,
                capacity_per_shard,
            } => {
                let g = self.group(*group as usize)?;
                g.manager
                    .set_capacity_per_shard(*capacity_per_shard as usize);
            }
            ScaleAction::AddGroup { group, shape } => {
                self.apply_add_group(*group as usize, GroupConfig::from_shape(shape))?;
            }
            ScaleAction::Drain { group } => {
                let g = self.group(*group as usize)?;
                g.retired.store(true, Ordering::Release);
            }
        }
        Ok(())
    }

    /// Appends a group without journaling (recovery/restore path).
    fn apply_add_group(&self, index: usize, config: GroupConfig) -> Result<(), FleetError> {
        let mut groups = self
            .inner
            .groups
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if index != groups.len() {
            return Err(FleetError::Config(format!(
                "recorded AddGroup index {index} does not match the fleet's next group {}",
                groups.len()
            )));
        }
        self.inner.push_group(&mut groups, config);
        Ok(())
    }

    /// Stops every group's manager (new admissions fail, residents drain).
    /// Groups added later start stopped.
    pub fn stop(&self) {
        let groups = self
            .inner
            .groups
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.inner.stopped.store(true, Ordering::Release);
        for g in groups.iter() {
            g.manager.stop();
        }
    }

    fn group(&self, index: usize) -> Result<Arc<GroupRuntime>, FleetError> {
        self.inner.group(index)
    }

    /// Fresh instance + node assignment of the spec's application
    /// `app_index` (callers reduce the index modulo the app count).
    fn instantiate(&self, app_index: usize) -> (Application, Vec<NodeId>) {
        crate::service::instantiate(&self.inner.spec, app_index)
    }
}

impl FleetInner {
    /// Releases a live resident, journaling the release and returning
    /// whether it was live. Safe against concurrent moves: retries until
    /// the group snapshot is stable under the group lock.
    fn release_resident(&self, resident: u64) -> bool {
        loop {
            let group = {
                let residents = lock(&self.residents);
                match residents.get(&resident) {
                    Some(entry) => entry.group,
                    None => return false, // already released
                }
            };
            let Ok(g) = self.group(group) else {
                return false;
            };
            let _order = lock(&g.order);
            let entry = {
                let mut residents = lock(&self.residents);
                match residents.get(&resident) {
                    Some(entry) if entry.group == group => residents.remove(&resident),
                    Some(_) => continue, // moved meanwhile; retry
                    None => return false,
                }
            };
            if let Some(entry) = entry {
                entry.ticket.release();
                self.released.fetch_add(1, Ordering::Relaxed);
                self.journal.append(DecisionEvent::Release { resident });
                return true;
            }
            return false;
        }
    }
}

/// Least-utilised active group among those passing `eligible`, comparing
/// resident/capacity ratios exactly (cross-multiplied, no floats), ties
/// toward the lowest index. Retired groups never qualify.
fn least_utilised(groups: &[Arc<GroupRuntime>], eligible: impl Fn(&GroupRuntime) -> bool) -> usize {
    let mut best = 0usize;
    let mut best_key: Option<(usize, usize)> = None; // (residents, capacity)
    for (i, g) in groups.iter().enumerate() {
        if g.is_retired() || !eligible(g) {
            continue;
        }
        let key = (g.manager.resident_count(), g.capacity());
        let better = match best_key {
            None => true,
            // r_i / c_i < r_best / c_best  ⇔  r_i · c_best < r_best · c_i
            Some((rb, cb)) => key.0 * cb < rb * key.1,
        };
        if better {
            best = i;
            best_key = Some(key);
        }
    }
    best
}

/// Helpers picking extreme-utilisation groups by exact ratio comparison.
fn max_utilised(loads: &[(usize, usize)]) -> Option<usize> {
    loads
        .iter()
        .enumerate()
        .max_by(|(_, (ra, ca)), (_, (rb, cb))| (ra * cb).cmp(&(rb * ca)))
        .map(|(i, _)| i)
}

fn min_utilised(loads: &[(usize, usize)]) -> Option<usize> {
    loads
        .iter()
        .enumerate()
        .min_by(|(_, (ra, ca)), (_, (rb, cb))| (ra * cb).cmp(&(rb * ca)))
        .map(|(i, _)| i)
}

/// A completed rebalancing move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceMove {
    /// The moved resident.
    pub resident: u64,
    /// Source group.
    pub from: usize,
    /// Target group.
    pub to: usize,
    /// Period predicted on the target group.
    pub predicted_period: Rational,
}

/// Owned fleet admission. Dropping the ticket releases the resident (and
/// journals the release); the resident may have been rebalanced to a
/// different group than it was admitted on.
pub struct FleetTicket {
    inner: Arc<FleetInner>,
    resident: Option<u64>,
    group: usize,
    predicted_period: Rational,
}

impl fmt::Debug for FleetTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetTicket")
            .field("resident", &self.resident)
            .field("admitted_on_group", &self.group)
            .field("predicted_period", &self.predicted_period)
            .finish()
    }
}

impl FleetTicket {
    /// Fleet-wide id of the resident.
    ///
    /// # Panics
    ///
    /// Never panics while the ticket is live (the id is only taken on
    /// release).
    pub fn resident_id(&self) -> u64 {
        self.resident.expect("live ticket has a resident id")
    }

    /// Group the resident was **admitted** on (rebalancing may have moved
    /// it since; see [`FleetManager::move_resident`]).
    pub fn group(&self) -> usize {
        self.group
    }

    /// Period predicted at admission time.
    pub fn predicted_period(&self) -> Rational {
        self.predicted_period
    }

    /// Releases the resident now (equivalent to dropping the ticket).
    pub fn release(mut self) {
        self.release_inner();
    }

    /// Disowns the ticket **without** releasing the resident: the capacity
    /// stays held by the fleet. Used by the replayer to leave a replayed
    /// fleet in the recording's final state.
    pub fn forget(mut self) {
        self.resident = None;
    }

    fn release_inner(&mut self) {
        if let Some(resident) = self.resident.take() {
            self.inner.release_resident(resident);
        }
    }
}

impl Drop for FleetTicket {
    fn drop(&mut self) {
        self.release_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::{AppId, Application, Mapping};
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

    fn fleet(groups: usize, capacity: usize, policy: RoutingPolicy) -> FleetManager {
        FleetManager::new(spec(), FleetConfig::uniform(groups, 1, capacity, policy)).unwrap()
    }

    #[test]
    fn empty_config_rejected() {
        let err = FleetManager::new(
            spec(),
            FleetConfig {
                groups: Vec::new(),
                policy: RoutingPolicy::LeastUtilised,
            },
        )
        .unwrap_err();
        assert!(matches!(err, FleetError::Config(_)));
    }

    #[test]
    fn least_utilised_spreads_admissions() {
        let f = fleet(3, 4, RoutingPolicy::LeastUtilised);
        let t0 = f.admit(0, None, None).unwrap().ticket().unwrap();
        let t1 = f.admit(1, None, None).unwrap().ticket().unwrap();
        let t2 = f.admit(0, None, None).unwrap().ticket().unwrap();
        let mut groups = [t0.group(), t1.group(), t2.group()];
        groups.sort_unstable();
        assert_eq!(groups, [0, 1, 2]);
        assert_eq!(f.resident_count(), 3);
        for g in 0..3 {
            assert_eq!(f.resident_count_of(g).unwrap(), 1);
        }
    }

    #[test]
    fn round_robin_rotates() {
        let f = fleet(2, 8, RoutingPolicy::RoundRobin);
        assert_eq!(f.route(None), 0);
        assert_eq!(f.route(None), 1);
        assert_eq!(f.route(None), 0);
    }

    #[test]
    fn affinity_prefers_tagged_group_and_falls_back() {
        let config = FleetConfig {
            groups: vec![
                GroupConfig::new("video", 1, 4).with_tags(["video"]),
                GroupConfig::new("audio", 1, 4).with_tags(["audio"]),
            ],
            policy: RoutingPolicy::Affinity,
        };
        let f = FleetManager::new(spec(), config).unwrap();
        assert_eq!(f.route(Some("audio")), 1);
        assert_eq!(f.route(Some("video")), 0);
        // Unknown tags and missing tags fall back to least-utilised.
        let _t = f.admit_to(0, 0, None).unwrap().ticket().unwrap();
        assert_eq!(f.route(Some("haptics")), 1);
        assert_eq!(f.route(None), 1);
    }

    #[test]
    fn saturation_is_a_decision_not_an_error() {
        let f = fleet(1, 1, RoutingPolicy::LeastUtilised);
        let _t = f.admit(0, None, None).unwrap().ticket().unwrap();
        let outcome = f.admit(1, None, None).unwrap();
        assert!(matches!(outcome, FleetAdmission::Saturated { group: 0 }));
        assert_eq!(f.snapshot().saturated, 1);
        // Both decisions journaled.
        assert_eq!(f.journal().len(), 2);
    }

    #[test]
    fn contract_rejection_journaled() {
        let f = fleet(1, 4, RoutingPolicy::LeastUtilised);
        let iso = spec().application(AppId(0)).isolation_throughput();
        let _t = f.admit(0, Some(iso), None).unwrap().ticket().unwrap();
        let outcome = f.admit(1, None, None).unwrap();
        let FleetAdmission::Rejected { group, violations } = outcome else {
            panic!("tight contract must reject the second admission");
        };
        assert_eq!(group, 0);
        assert!(!violations.is_empty());
        let events = f.journal().events();
        assert!(matches!(
            &events[1],
            DecisionEvent::Admit {
                outcome: JournalOutcome::Rejected { .. },
                ..
            }
        ));
    }

    #[test]
    fn ticket_drop_releases_and_journals() {
        let f = fleet(2, 4, RoutingPolicy::LeastUtilised);
        {
            let _t = f.admit(0, None, None).unwrap().ticket().unwrap();
            assert_eq!(f.resident_count(), 1);
        }
        assert_eq!(f.resident_count(), 0);
        let events = f.journal().events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[1], DecisionEvent::Release { resident: 0 }));
        assert_eq!(f.snapshot().released, 1);
    }

    #[test]
    fn move_resident_crosses_groups_and_survives() {
        let f = fleet(2, 4, RoutingPolicy::LeastUtilised);
        let t = f.admit_to(0, 0, None).unwrap().ticket().unwrap();
        let id = t.resident_id();
        let period = f.move_resident(id, 1).unwrap();
        assert_eq!(period, Rational::integer(300)); // alone on the target
        assert_eq!(f.resident_count_of(0).unwrap(), 0);
        assert_eq!(f.resident_count_of(1).unwrap(), 1);
        // The ticket still releases the moved resident.
        t.release();
        assert_eq!(f.resident_count(), 0);
        assert!(matches!(
            f.journal().events().as_slice(),
            [
                DecisionEvent::Admit { .. },
                DecisionEvent::Rebalance {
                    from_group: 0,
                    to_group: 1,
                    ..
                },
                DecisionEvent::Release { .. },
            ]
        ));
    }

    #[test]
    fn move_errors() {
        let f = fleet(2, 1, RoutingPolicy::LeastUtilised);
        let t0 = f.admit_to(0, 0, None).unwrap().ticket().unwrap();
        let _t1 = f.admit_to(1, 1, None).unwrap().ticket().unwrap();
        let id = t0.resident_id();
        assert_eq!(
            f.move_resident(id, 0).unwrap_err(),
            FleetError::SameGroup { group: 0 }
        );
        assert_eq!(
            f.move_resident(id, 1).unwrap_err(),
            FleetError::MoveSaturated { to: 1 }
        );
        assert_eq!(
            f.move_resident(id, 9).unwrap_err(),
            FleetError::UnknownGroup(9)
        );
        assert_eq!(
            f.move_resident(99, 1).unwrap_err(),
            FleetError::UnknownResident(99)
        );
        // Failed moves journal nothing beyond the two admissions.
        assert_eq!(f.journal().len(), 2);
    }

    #[test]
    fn rebalance_moves_toward_balance_and_converges() {
        let f = fleet(2, 4, RoutingPolicy::LeastUtilised);
        let _tickets: Vec<FleetTicket> = (0..3)
            .map(|i| f.admit_to(0, i, None).unwrap().ticket().unwrap())
            .collect();
        assert_eq!(f.resident_count_of(0).unwrap(), 3);
        let mv = f.rebalance().expect("imbalanced fleet must move");
        assert_eq!((mv.from, mv.to), (0, 1));
        assert_eq!(f.resident_count_of(0).unwrap(), 2);
        assert_eq!(f.resident_count_of(1).unwrap(), 1);
        // 2 vs 1 on equal capacities: moving again would just ping-pong.
        assert!(f.rebalance().is_none());
        assert_eq!(f.snapshot().rebalances, 1);
    }

    #[test]
    fn snapshot_totals_match_groups() {
        let f = fleet(2, 2, RoutingPolicy::RoundRobin);
        let _a = f.admit(0, None, None).unwrap().ticket().unwrap();
        let _b = f.admit(1, None, None).unwrap().ticket().unwrap();
        let snap = f.snapshot();
        assert_eq!(snap.residents, 2);
        assert_eq!(snap.capacity, 4);
        assert_eq!(snap.admitted, 2);
        assert_eq!(
            snap.groups.iter().map(|g| g.residents).sum::<usize>(),
            snap.residents
        );
        let text = snap.render();
        for needle in ["group0", "group1", "residents", "admitted", "util"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn policy_parse_display_roundtrip() {
        for policy in [
            RoutingPolicy::LeastUtilised,
            RoutingPolicy::RoundRobin,
            RoutingPolicy::Affinity,
        ] {
            assert_eq!(policy.to_string().parse::<RoutingPolicy>(), Ok(policy));
        }
        assert!("bogus".parse::<RoutingPolicy>().is_err());
    }

    #[test]
    fn groups_added_to_a_stopped_fleet_start_stopped() {
        let f = fleet(1, 4, RoutingPolicy::LeastUtilised);
        f.stop();
        assert_eq!(
            f.add_group(GroupConfig::new("late", 1, 4)).unwrap(),
            ScaleOutcome::Applied
        );
        // Recovery appends recorded groups through its own path.
        f.apply_resize_unjournaled(&ScaleAction::AddGroup {
            group: 2,
            shape: GroupConfig::new("recovered", 1, 4).to_shape(),
        })
        .unwrap();
        assert_eq!(f.group_count(), 3);
        for group in 0..3 {
            assert!(
                matches!(
                    f.admit_to(group, 0, None),
                    Err(FleetError::Admit(AdmitError::Stopped))
                ),
                "group {group} admitted after stop"
            );
        }
        assert_eq!(f.resident_count(), 0);
    }

    #[test]
    fn fleet_is_send_sync() {
        fn check<T: Send + Sync + Clone>() {}
        check::<FleetManager>();
        fn check_ticket<T: Send>() {}
        check_ticket::<FleetTicket>();
    }
}

/// Point-in-time state of one group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSnapshot {
    /// Group name.
    pub name: String,
    /// Live residents.
    pub residents: usize,
    /// Resident capacity.
    pub capacity: usize,
    /// Admissions granted on this group.
    pub admitted: u64,
    /// Admissions rejected by contracts on this group.
    pub rejected: u64,
    /// Admissions bounced for lack of capacity on this group.
    pub saturated: u64,
    /// `true` once the group was drained and retired (capacity reads 0).
    pub retired: bool,
}

impl GroupSnapshot {
    /// Resident/capacity ratio.
    pub fn utilisation(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.residents as f64 / self.capacity as f64
        }
    }

    /// [`utilisation`](Self::utilisation) as a whole percentage — the
    /// integer form telemetry counters and gauge expositions carry.
    pub fn utilisation_percent(&self) -> u64 {
        (100.0 * self.utilisation()).round() as u64
    }
}

/// Point-in-time state of the whole fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSnapshot {
    /// Per-group state.
    pub groups: Vec<GroupSnapshot>,
    /// Live residents fleet-wide.
    pub residents: usize,
    /// Total capacity fleet-wide.
    pub capacity: usize,
    /// Total admissions granted.
    pub admitted: u64,
    /// Total contract rejections.
    pub rejected: u64,
    /// Total capacity bounces.
    pub saturated: u64,
    /// Total releases.
    pub released: u64,
    /// Total completed rebalance moves.
    pub rebalances: u64,
    /// Elastic resizes applied (grow/shrink/add/drain).
    pub resizes: u64,
    /// Elastic resizes refused (journaled no-ops).
    pub resize_refusals: u64,
}

impl FleetSnapshot {
    /// Fleet-wide resident/capacity ratio.
    pub fn utilisation(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.residents as f64 / self.capacity as f64
        }
    }

    /// Renders the per-group utilisation table printed by
    /// `probcon fleet-bench`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>9} {:>7} {:>9} {:>9} {:>10}",
            "group", "residents", "capacity", "util", "admitted", "rejected", "saturated"
        );
        for g in &self.groups {
            let name = if g.retired {
                format!("{}†", g.name)
            } else {
                g.name.clone()
            };
            let _ = writeln!(
                out,
                "{:<10} {:>9} {:>9} {:>6.0}% {:>9} {:>9} {:>10}",
                name,
                g.residents,
                g.capacity,
                100.0 * g.utilisation(),
                g.admitted,
                g.rejected,
                g.saturated,
            );
        }
        let _ = writeln!(
            out,
            "fleet: {}/{} residents ({:.0}% util), {} admitted, {} rejected, \
             {} saturated, {} released, {} rebalances",
            self.residents,
            self.capacity,
            100.0 * self.utilisation(),
            self.admitted,
            self.rejected,
            self.saturated,
            self.released,
            self.rebalances,
        );
        if self.resizes > 0 || self.resize_refusals > 0 {
            let _ = writeln!(
                out,
                "elastic: {} resizes applied, {} refused",
                self.resizes, self.resize_refusals,
            );
        }
        out
    }
}
