//! `signoff-sweep`: the offline design-space use of the same analysis,
//! `experiments::signoff::sign_off` over every use-case of a 10-app spec.
//!
//! The specs are fixed and the run's seed draws the contracts they are
//! signed off against. Specs differ in sweep cost by about 15% and in
//! peak memory by up to 3x, so seeded specs would make every figure
//! depend on which specs a seed happened to draw; contracts change the
//! verdicts, not the analyses.

use crate::drive::PassStats;
use crate::spans::{OpKind, SpanLog};
use crate::stream::Rng;
use crate::{check, fingerprint, Pass};
use contention::Method;
use experiments::signoff::{sign_off, SignOffReport};
use experiments::workload::workload_with;
use platform::{AppId, SystemSpec};
use sdf::{GeneratorConfig, Rational};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

pub const APPS: usize = 10;
pub const ACTORS: usize = 5;
/// One sweep per method in every pass.
pub const METHODS: [Method; 2] = [Method::Composability, Method::Order(2)];

pub fn spec(seed: u64) -> SystemSpec {
    workload_with(seed, APPS, &GeneratorConfig::with_actors(ACTORS))
        .expect("seeded workload builds")
}

/// Every application's contract: a seeded share of its isolation
/// throughput, from 1/2 to 9/10 in steps of 1/20 (`admit-local` admits
/// with 3/5).
pub fn contracts(spec: &SystemSpec, seed: u64) -> BTreeMap<AppId, Rational> {
    let mut rng = Rng::new(seed);
    spec.iter()
        .map(|(id, app)| {
            let share = Rational::new(10 + rng.below(9) as i128, 20);
            (id, app.isolation_throughput() * share)
        })
        .collect()
}

/// Every period and verdict the reports carry, as text to digest.
fn render(reports: &[SignOffReport]) -> String {
    let mut text = String::new();
    for report in reports {
        let _ = writeln!(text, "{} {}", report.method, report.use_cases_analyzed);
        for app in &report.apps {
            let _ = write!(
                text,
                "{} {} {} {} {:#x}",
                app.app,
                app.isolation_period,
                app.best_period,
                app.worst_period,
                app.worst_use_case.mask()
            );
            for uc in &app.violating_use_cases {
                let _ = write!(text, " {:#x}", uc.mask());
            }
            text.push('\n');
        }
    }
    text
}

/// One pass: fresh set-up of the spec of `spec_seed` with the contracts
/// of `seed`, then one sweep per method. With a
/// span log, each sweep is one span around the `sign_off` call (a sweep
/// calls no layer the wrapper can reach).
pub fn pass(spec_seed: u64, seed: u64, log: Option<&Arc<SpanLog>>) -> Result<Pass, String> {
    let setup = Instant::now();
    let spec = spec(spec_seed);
    let contracts = contracts(&spec, seed);
    for (_, app) in spec.iter() {
        sdf::analyze_period(app.graph()).map_err(|e| format!("warm-up analysis: {e}"))?;
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let mut reports = Vec::new();
    let mut stats = PassStats::default();
    let mut analyzed = 0u64;
    let mut sweep_ns = Vec::new();
    for method in METHODS {
        if let Some(log) = log {
            log.begin_request();
        }
        let span_start = log.map(|l| l.now_ns());
        let start = Instant::now();
        let report = sign_off(&spec, method, Some(&contracts)).map_err(|e| e.to_string())?;
        let ns = start.elapsed().as_nanos() as u64;
        if let (Some(log), Some(s)) = (log, span_start) {
            log.record("sign_off", None, OpKind::Estimate, s);
            log.idle();
        }
        stats.timed_ns += ns;
        analyzed += report.use_cases_analyzed as u64;
        sweep_ns.push((
            method.to_string(),
            ns / report.use_cases_analyzed.max(1) as u64,
        ));
        reports.push(report);
    }

    let mut failures = Vec::new();
    let expected = ((1u64 << APPS) - 1) * METHODS.len() as u64;
    check(&mut failures, analyzed == expected, || {
        format!("analyzed {analyzed} use-cases, expected {expected}")
    });
    Ok(Pass {
        setup_s,
        ops: analyzed,
        fingerprint: fingerprint(&render(&reports)),
        spec,
        events: Vec::new(),
        cache_hits: 0,
        cache_lookups: 0,
        stats,
        sweep_ns,
        failures,
    })
}
