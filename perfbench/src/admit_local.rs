//! `admit-local`: the `probcon serve` stack driven in-process, no wire.

use crate::drive::drive;
use crate::spans::{SpanLog, Timed};
use crate::stream::{self, Op};
use crate::{check, fingerprint, Pass};
use contention::Method;
use experiments::workload::{workload_with, DEFAULT_SEED};
use platform::{SystemSpec, UseCase};
use runtime::{
    AdmissionService, Cached, FleetConfig, FleetManager, Journal, JournalReplayer, RoutingPolicy,
    TraceRecorder, Traced,
};
use sdf::GeneratorConfig;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// The `probcon serve` default shape. Its spec is the serve default too
/// (`DEFAULT_SEED`): a run's seed drives the request streams, so the
/// analysis cost per application is the same for every seed.
pub const APPS: usize = 6;
pub const ACTORS: usize = 5;
pub const GROUPS: usize = 4;
pub const CAPACITY: usize = 4;
pub const CACHE: usize = 256;
pub const RECORDER: usize = 4096;
/// Requests per pass.
pub const PASS_REQUESTS: usize = 3000;

pub fn spec() -> SystemSpec {
    workload_with(DEFAULT_SEED, APPS, &GeneratorConfig::with_actors(ACTORS))
        .expect("the default workload builds")
}

pub fn fleet_config() -> FleetConfig {
    FleetConfig::uniform(GROUPS, 1, CAPACITY, RoutingPolicy::LeastUtilised)
}

/// The served stack and its cache layer.
pub type Stack = (
    Arc<dyn AdmissionService>,
    Arc<Cached<Arc<dyn AdmissionService>>>,
);

/// The served stack, outermost first: flight recording over estimate
/// caching over the fleet, sharing one recorder as `probcon serve` does.
/// With a span log, timing wrappers sit at the outer edge (`stack`,
/// child of `outer_parent`) and directly above the fleet (`fleet`).
pub fn stack(
    fleet: &FleetManager,
    log: Option<&Arc<SpanLog>>,
    outer_parent: Option<&'static str>,
) -> Stack {
    let base: Arc<dyn AdmissionService> = match log {
        Some(log) => Arc::new(Timed::new("fleet", Some("stack"), log, fleet.clone())),
        None => Arc::new(fleet.clone()),
    };
    let recorder = Arc::new(TraceRecorder::new(RECORDER));
    let cached = Arc::new(Cached::new(base, CACHE));
    cached.attach_trace(Arc::clone(&recorder));
    fleet.attach_trace(Arc::clone(&recorder));
    let traced = Traced::with_recorder(Arc::clone(&cached), recorder);
    let outer: Arc<dyn AdmissionService> = match log {
        Some(log) => Arc::new(Timed::new("stack", outer_parent, log, traced)),
        None => Arc::new(traced),
    };
    (outer, cached)
}

/// Untimed warm-up: every use-case in `masks` estimated once (fills the
/// cache) and a first period analysis of every application.
pub fn warm_up(
    service: &dyn AdmissionService,
    spec: &SystemSpec,
    masks: &[u64],
) -> Result<(), String> {
    for &mask in masks {
        service
            .estimate(UseCase::from_mask(mask), Method::Composability)
            .map_err(|e| format!("warm-up estimate {mask:#x}: {e}"))?;
    }
    for (_, app) in spec.iter() {
        sdf::analyze_period(app.graph()).map_err(|e| format!("warm-up analysis: {e}"))?;
    }
    Ok(())
}

/// Replays `journal` against a fresh fleet: outcome for outcome, ending
/// empty.
pub fn check_replay(
    failures: &mut Vec<String>,
    spec: &SystemSpec,
    journal: &Journal,
) -> Result<(), String> {
    let (report, replayed) = JournalReplayer::new(spec)
        .replay(journal, fleet_config())
        .map_err(|e| e.to_string())?;
    check(failures, report.is_equivalent(), || {
        format!("journal replay diverged:\n{}", report.render())
    });
    check(failures, replayed.resident_count() == 0, || {
        "replayed fleet is not empty".to_string()
    });
    Ok(())
}

/// The distinct use-case masks a stream estimates.
pub fn estimate_masks(ops: &[Op]) -> Vec<u64> {
    let mut masks: Vec<u64> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Estimate { mask } => Some(*mask),
            _ => None,
        })
        .collect();
    masks.sort_unstable();
    masks.dedup();
    masks
}

/// One pass on fresh state: the spec and stream of `seed`, a new fleet
/// and stack, warm-up, the timed closed loop, then the checks.
pub fn pass(seed: u64, log: Option<&Arc<SpanLog>>, replay: bool) -> Result<Pass, String> {
    let ops = stream::admit_local(&spec(), GROUPS, PASS_REQUESTS, seed);

    let setup = Instant::now();
    let spec = spec();
    let fleet = FleetManager::new(spec.clone(), fleet_config()).map_err(|e| e.to_string())?;
    let (service, cached) = stack(&fleet, log, None);
    let all_masks: Vec<u64> = (1..1u64 << APPS).collect();
    warm_up(&*service, &spec, &all_masks)?;
    let setup_s = setup.elapsed().as_secs_f64();

    let (hits, misses) = (cached.cache().hits(), cached.cache().misses());
    let mut held = VecDeque::new();
    let stats = drive(&*service, Some(&fleet), &ops, &mut held, log.map(|l| &**l));
    let hits = cached.cache().hits() - hits;
    let misses = cached.cache().misses() - misses;

    let mut failures = Vec::new();
    check(&mut failures, fleet.resident_count() == 0, || {
        format!(
            "fleet holds {} residents after the drain",
            fleet.resident_count()
        )
    });
    // Every mask was warmed: the timed phase only hits.
    check(&mut failures, misses == 0, || {
        format!("{misses} estimate cache misses after a full warm-up")
    });
    let wrong = stats
        .estimates
        .iter()
        .filter(|(mask, estimate)| estimate.use_case().mask() != *mask)
        .count();
    check(&mut failures, wrong == 0, || {
        format!("{wrong} estimates describe another use-case than asked")
    });
    if replay {
        check_replay(&mut failures, &spec, fleet.journal())?;
    }
    let events = fleet.journal().events();
    Ok(Pass {
        setup_s,
        ops: stats.attempted(),
        fingerprint: fingerprint(&format!("{events:?}")),
        spec,
        events,
        cache_hits: hits,
        cache_lookups: hits + misses,
        stats,
        sweep_ns: Vec::new(),
        failures,
    })
}
