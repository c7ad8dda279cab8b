//! # runtime — concurrent online resource management
//!
//! The paper's closing argument is that millisecond-scale estimates make
//! **run-time admission control** feasible. The `contention` crate
//! implements that controller single-threaded; this crate turns it into an
//! online service able to serve heavy concurrent traffic:
//!
//! * [`ResourceManager`] — sharded, thread-safe admission controllers with
//!   ticket-based, non-blocking admit/release (a full shard answers
//!   [`AdmitError::Saturated`] at once) and graceful
//!   [`stop`](ResourceManager::stop); every fleet group is one;
//! * [`EstimateCache`] — LRU memoization of [`contention::estimate`]
//!   results keyed by (spec fingerprint, use-case mask, method), with
//!   observable hit/miss counters;
//! * [`FleetManager`] — admissions routed across many named platform
//!   groups ([`RoutingPolicy`]: least-utilised, round-robin,
//!   affinity-by-use-case) with cross-group rebalancing and fleet-wide
//!   outcome counters; the one base [`AdmissionService`] and the one
//!   journal recorder;
//! * [`Journal`] — an append-only, checksummed log of every
//!   admit/reject/release/rebalance decision, with [`JournalReplayer`]
//!   verifying that re-executing a journal against a fresh fleet
//!   reproduces every outcome (the engine behind `probcon fleet-bench` /
//!   `probcon replay`);
//! * [`AdmissionService`] — the unified service trait the fleet
//!   implements, with composable middleware layers [`Cached`] and
//!   [`Traced`] (see [`service`]);
//! * [`run_stack`] — the one request driver: a worker pool draining a
//!   [`seeded_fleet_requests`] stream through any service stack,
//!   reporting throughput, per-layer metrics and an optional telemetry
//!   trajectory (the engine behind `probcon fleet-bench`);
//! * [`FrontEnd`] — the async event-loop front-end multiplexing thousands
//!   of queued admissions over a small worker pool, delivering decisions
//!   through [`Completion`] tickets (see [`frontend`]);
//! * [`RemoteServer`] / [`RemoteClient`] — the remote transport: framed
//!   requests over TCP or Unix domain sockets, in a codec negotiated per
//!   connection ([`BinaryCodec`] or the [`JsonLinesCodec`] debug mode),
//!   whose both ends are just [`AdmissionService`]s, so a fleet spans
//!   processes and every existing driver works against it unchanged (see
//!   [`remote`]);
//! * [`Traced`] / [`TraceRecorder`] / [`TelemetrySnapshot`] — the
//!   telemetry subsystem: the one layer that times every operation, a
//!   fixed-capacity flight recorder of structured decision events,
//!   bounded HDR-style [`LatencyHistogram`]s, and a wire-exposed
//!   live-metrics surface with Prometheus-style rendering (see [`telemetry`], the engine
//!   behind `probcon top` / `probcon trace`);
//! * [`PlanRun`] / [`PlanSweep`] — the offline capacity planner: replay
//!   any recorded journal against hypothetical [`FleetShape`]s (scaled
//!   capacities, added groups, swapped policies) and report which
//!   decisions would have flipped, with a parallel sweep finding the
//!   smallest shape that serves everything the recording served (see
//!   [`planner`], the engine behind `probcon plan`).
//!
//! # Example
//!
//! ```
//! use platform::{Application, NodeId};
//! use runtime::{Admission, ResourceManager, ResourceManagerConfig};
//! use sdf::{figure2_graphs, Rational};
//!
//! let manager = ResourceManager::new(ResourceManagerConfig {
//!     shards: 1,
//!     capacity_per_shard: 8,
//! });
//!
//! let (a, b) = figure2_graphs();
//! let nodes = [NodeId(0), NodeId(1), NodeId(2)];
//!
//! // Admit A; it insists on its full isolation throughput of 1/300.
//! let ticket = manager
//!     .admit(0, Application::new("A", a)?, &nodes, Some(Rational::new(1, 300)))?
//!     .ticket()
//!     .expect("first admission fits");
//!
//! // B would slow A below its contract: rejected, no capacity consumed.
//! let outcome = manager.admit(0, Application::new("B", b)?, &nodes, None)?;
//! assert!(outcome.ticket().is_none());
//! assert_eq!(manager.resident_count(), 1);
//!
//! ticket.release(); // frees the shard for the next request
//! assert_eq!(manager.resident_count(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod autoscaler;
pub mod cache;
pub mod fleet;
pub mod fleet_bench;
pub mod frontend;
pub mod journal;
pub mod manager;
pub mod planner;
pub mod remote;
pub mod service;
pub mod telemetry;
pub mod wal;

pub use autoscaler::{
    evaluate, Autoscaled, Autoscaler, AutoscalerHandle, AutoscalerStatus, ControllerState,
    GroupObservation, Observation, ScaleDecision, ScalePolicy, TargetPolicy,
};
pub use cache::{CacheKey, EstimateCache};
pub use fleet::{
    FleetAdmission, FleetConfig, FleetError, FleetManager, FleetSnapshot, FleetTicket, GroupConfig,
    GroupSnapshot, RebalanceMove, RoutingPolicy,
};
pub use fleet_bench::{
    run_stack, seeded_fleet_requests, ConnectionPoint, ConnectionSampler, FleetBenchReport,
    FleetRequest, TelemetryPoint,
};
pub use frontend::{FrontEnd, FrontEndConfig};
pub use journal::{
    fold_checkpoint, ClientScope, DecisionEvent, Divergence, GroupShape, Journal, JournalEntry,
    JournalError, JournalHeader, JournalOutcome, JournalPage, JournalReplayer, ReplayReport,
    ScaleAction, ScaleOutcome, ScaleRefusal, JOURNAL_CHECKPOINT_VERSION, JOURNAL_VERSION,
};
pub use manager::{Admission, AdmitError, ResourceManager, ResourceManagerConfig, Ticket};
pub use planner::{
    FleetShape, Flip, FlipKind, GroupUsage, OutcomeTotals, PlanError, PlanReport, PlanRun,
    PlanSweep, PolicyDecision, RouteMode, SaturationWindow, SweepReport,
};
pub use remote::{
    BinaryCodec, ClientConfig, Endpoint, JournalSource, JsonLinesCodec, RemoteClient,
    RemoteClientStats, RemoteServer, RemoteServerConfig, RemoteServerStats, WireCodec, WireMode,
    WirePolicy, MAX_FRAME, REMOTE_PROTOCOL_VERSION,
};
pub use service::{
    AdmissionDecision, AdmissionRequest, AdmissionService, Cached, Completer, Completion,
    LayerMetrics, OpRate, ServiceError, ServiceSnapshot,
};
pub use telemetry::{
    build_span_trees, render_chrome_trace, ConnectionStats, EventLoopStats, HistogramRecorder,
    LatencyHistogram, OpHistogram, ServiceOp, SpanContext, SpanNode, SpanScope, SpanTree,
    TelemetrySnapshot, TenantBreakdown, TraceEvent, TraceKind, TraceRecorder, TraceStats, Traced,
};
pub use wal::{
    CheckpointGroup, CheckpointResident, FleetCheckpoint, FsyncPolicy, Manifest, SegmentMeta,
    SnapshotMeta, WalConfig, WalRecovery, WalStats, MANIFEST_FILE, WAL_VERSION,
};
