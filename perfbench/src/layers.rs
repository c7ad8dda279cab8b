//! Per-layer metrics of a traced run, and the per-op-kind breakdown whose
//! rows add up to the traced end-to-end median.

use crate::admit_local;
use crate::probes::{self, CodecCost, ControllerProbe};
use crate::spans::{OpKind, SpanLog};
use crate::stats::{Report, Samples};
use crate::{Inputs, Totals};
use runtime::FleetManager;
use std::collections::BTreeMap;
use std::time::Duration;

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Per request of `kind`: `outer` span minus `inner` span (0 if absent).
fn self_time(log: &SpanLog, outer: &str, inner: &str, kind: OpKind) -> Samples {
    let inner = log.durations(inner, kind);
    let mut out = Samples::default();
    for (request, ns) in log.durations(outer, kind) {
        out.push(ns.saturating_sub(inner.get(&request).copied().unwrap_or(0)));
    }
    out
}

fn values(map: BTreeMap<u64, u64>) -> Samples {
    let mut out = Samples::default();
    for ns in map.into_values() {
        out.push(ns);
    }
    out
}

/// The controller probe of `traced`, failing on any decision that differs
/// from the fleet's journal.
fn controller<'a>(traced: &'a Totals, failures: &mut Vec<String>) -> &'a ControllerProbe {
    let ctl = &traced.controller;
    if ctl.mismatches > 0 {
        failures.push(format!(
            "{} controller decisions differ from the fleet's journal",
            ctl.mismatches
        ));
    }
    ctl
}

/// The traced wire session `admit-local` runs so the wire layers are
/// measured too.
pub struct Wire<'a> {
    pub log: &'a SpanLog,
    pub traced: &'a Totals,
}

/// What the wire adds to one op, per kind, in microseconds.
#[derive(Default)]
struct WireCosts {
    codec: BTreeMap<OpKind, f64>,
    floor: BTreeMap<OpKind, f64>,
    handoff: f64,
}

/// Adds every per-layer metric to `report` and prints the breakdowns.
/// Returns failed checks. Layers a workload never calls report 0.
pub fn report(
    report: &mut Report,
    inputs: &Inputs,
    untraced: &Totals,
    traced: &Totals,
    log: &SpanLog,
    wire: Option<Wire>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let spec = &inputs.spec;

    // sdf: the period kernel on every application graph.
    let (analyze, steps, ns_per_step) = probes::sdf(spec, Duration::from_millis(300));
    report.add(
        "sdf.analyze_us",
        analyze.p50().us,
        "us",
        format!("p50 of {} analyses", analyze.len()),
    );
    report.add(
        "sdf.steps",
        steps,
        "count",
        "mean state-space steps per analysis",
    );
    report.add(
        "sdf.ns_per_step",
        ns_per_step,
        "ns",
        "analysis time / steps",
    );

    // contention: the admission controller on the fleet's own decisions.
    let ctl = controller(traced, &mut failures);
    report.quantile(
        "contention.admit_p50_us",
        ctl.admit.p50(),
        "controller admit",
    );
    report.quantile(
        "contention.admit_p99_us",
        ctl.admit.tail(),
        "controller admit",
    );
    report.add(
        "contention.predictions_per_admit",
        ratio(ctl.predictions, ctl.admitted),
        "count",
        format!(
            "{} predictions over {} admitted",
            ctl.predictions, ctl.admitted
        ),
    );
    report.add(
        "contention.useful_prediction_ratio",
        ratio(ctl.useful, ctl.predictions),
        "ratio",
        format!("{} for the candidate or a contract holder", ctl.useful),
    );
    let est = probes::estimates(
        spec,
        &inputs.estimate_masks,
        &inputs.estimate_methods,
        1000,
        Duration::from_millis(300),
    );
    report.quantile("contention.estimate_p50_us", est.p50(), "use-case estimate");
    report.quantile(
        "contention.estimate_p99_us",
        est.tail(),
        "use-case estimate",
    );
    let contention = (ctl.admit.p50().us, ctl.remove.p50().us);

    // runtime::fleet, journal, middleware and cache, from the spans.
    let fleet_admit = values(log.durations("fleet", OpKind::Admit));
    let rebalance = values(log.durations("fleet", OpKind::Rebalance));
    report.quantile("fleet.admit_p50_us", fleet_admit.p50(), "fleet admit span");
    report.quantile("fleet.admit_p99_us", fleet_admit.tail(), "fleet admit span");
    let fleet_self = if fleet_admit.len() > 0 {
        fleet_admit.p50().us - contention.0
    } else {
        0.0
    };
    report.add(
        "fleet.self_us",
        fleet_self,
        "us",
        "fleet.admit_p50_us - contention.admit_p50_us",
    );
    report.quantile("fleet.rebalance_p50_us", rebalance.p50(), "rebalance span");
    report.quantile("fleet.rebalance_p99_us", rebalance.tail(), "rebalance span");
    let (u, t) = (&untraced.stats, &traced.stats);
    let (rejected, saturated) = (u.rejected + t.rejected, u.saturated + t.saturated);
    let admits = u.admitted + t.admitted + rejected + saturated;
    report.add(
        "fleet.rejected_ratio",
        ratio(rejected, admits),
        "ratio",
        format!("{rejected} of {admits} admits"),
    );
    report.add(
        "fleet.saturated_ratio",
        ratio(saturated, admits),
        "ratio",
        format!("{saturated} of {admits} admits"),
    );
    let ops = untraced.ops + traced.ops;
    let entries = untraced.journal_entries + traced.journal_entries;
    report.add(
        "journal.entries_per_op",
        ratio(entries, ops),
        "count",
        format!("{entries} entries over {ops} requests"),
    );
    for kind in [OpKind::Admit, OpKind::Release, OpKind::Estimate] {
        let s = self_time(log, "stack", "fleet", kind);
        report.add(
            &format!("service.self_{}_us", kind.name()),
            s.p50().us,
            "us",
            format!(
                "p50 of {} {} (outer stack span - fleet span)",
                s.len(),
                kind.name()
            ),
        );
    }
    let hits = untraced.cache_hits + traced.cache_hits;
    let lookups = untraced.cache_lookups + traced.cache_lookups;
    report.add(
        "cache.hit_ratio",
        ratio(hits, lookups),
        "ratio",
        format!("{hits} hits of {lookups} lookups"),
    );

    // runtime::frontend, runtime::remote and the kernel floor.
    let mut costs = WireCosts::default();
    let mut overhead = Samples::default();
    let mut weights = BTreeMap::new();
    if let Some(wire) = &wire {
        let first = wire.traced.first.as_ref().expect("a traced pass ran");
        let estimates = &first.estimates[..first.estimates.len().min(64)];
        let exchanges = [
            (OpKind::Admit, probes::admit_exchanges(&first.admit_samples)),
            (
                OpKind::Release,
                probes::release_exchanges(&first.release_samples),
            ),
            (OpKind::Estimate, probes::estimate_exchanges(estimates)),
        ];
        let mut codec: BTreeMap<OpKind, CodecCost> = BTreeMap::new();
        for (kind, ex) in &exchanges {
            let cost = probes::codec(ex, Duration::from_millis(100));
            let rtt = probes::uds_floor(&[(cost.request_bytes, cost.response_bytes)], 2000);
            costs.floor.insert(*kind, rtt.p50().us);
            costs
                .codec
                .insert(*kind, (cost.encode_ns + cost.decode_ns) / 1000.0);
            codec.insert(*kind, cost);
            overhead.extend(&self_time(wire.log, "client", "stack", *kind));
            weights.insert(*kind, wire.traced.stats.ops(*kind) as f64);
        }
        let fleet =
            FleetManager::new(spec.clone(), admit_local::fleet_config()).expect("fleet builds");
        let (stack, _) = admit_local::stack(&fleet, None, None);
        if let Err(e) = admit_local::warm_up(&*stack, spec, &inputs.estimate_masks) {
            failures.push(e);
        }
        let (direct, handed) = probes::frontend(stack, &inputs.estimate_masks, 4000);
        costs.handoff = handed.p50().us - direct.p50().us;
        println!(
            "frontend probe: direct p50 {:.3} us, handed off p50 {:.3} us over {} estimates",
            direct.p50().us,
            handed.p50().us,
            direct.len()
        );
        let total: f64 = weights.values().sum();
        let weighted = |f: &dyn Fn(&CodecCost) -> f64| {
            codec.iter().map(|(k, c)| weights[k] * f(c)).sum::<f64>() / total
        };
        report.add(
            "codec.encode_ns",
            weighted(&|c| c.encode_ns),
            "ns",
            "per request+response, stream-weighted",
        );
        report.add(
            "codec.decode_ns",
            weighted(&|c| c.decode_ns),
            "ns",
            "per request+response, stream-weighted",
        );
        report.add(
            "codec.frame_bytes",
            weighted(&|c| (c.request_bytes + c.response_bytes) as f64),
            "bytes",
            "request+response frame, stream-weighted",
        );
    } else {
        for name in ["codec.encode_ns", "codec.decode_ns"] {
            report.add(name, 0.0, "ns", "no wire on this workload");
        }
        report.add(
            "codec.frame_bytes",
            0.0,
            "bytes",
            "no wire on this workload",
        );
    }
    let weighted_us = |m: &BTreeMap<OpKind, f64>| {
        let total: f64 = weights.values().sum();
        if total == 0.0 {
            return 0.0;
        }
        m.iter().map(|(k, v)| weights[k] * v).sum::<f64>() / total
    };
    report.add(
        "frontend.handoff_us",
        costs.handoff,
        "us",
        "p50 submit+wait minus p50 direct call",
    );
    report.add(
        "uds.floor_us",
        weighted_us(&costs.floor),
        "us",
        "raw ping-pong p50 at those frame sizes, stream-weighted",
    );
    report.quantile(
        "remote.overhead_p50_us",
        overhead.p50(),
        "client span - server stack span",
    );
    report.quantile(
        "remote.overhead_p99_us",
        overhead.tail(),
        "client span - server stack span",
    );
    let unattributed = if wire.is_some() {
        overhead.p50().us - weighted_us(&costs.codec) - costs.handoff - weighted_us(&costs.floor)
    } else {
        0.0
    };
    report.add(
        "remote.unattributed_us",
        unattributed,
        "us",
        "overhead - codec - handoff - floor",
    );
    let overhead_pct = (untraced.throughput() / traced.throughput() - 1.0) * 100.0;
    report.add(
        "tracing.overhead_pct",
        overhead_pct,
        "%",
        format!(
            "untraced {:.1} ops/s vs traced {:.1} ops/s",
            untraced.throughput(),
            traced.throughput()
        ),
    );

    if traced.stats.latency.is_empty() {
        return failures; // the sweep has no request stream to break down
    }
    breakdown("", traced, log, None, contention);
    if let Some(wire) = wire {
        let ctl = controller(wire.traced, &mut failures);
        let contention = (ctl.admit.p50().us, ctl.remove.p50().us);
        breakdown(
            " of the wire session",
            wire.traced,
            wire.log,
            Some(&costs),
            contention,
        );
    }
    failures
}

/// Prints, per op kind, each layer's self time (p50) plus an explicit
/// `unattributed` row; together they equal the traced caller-observed
/// p50. `contention` is the controller's (admit, remove) p50.
fn breakdown(
    title: &str,
    traced: &Totals,
    log: &SpanLog,
    wire: Option<&WireCosts>,
    contention: (f64, f64),
) {
    println!("breakdown{title} (traced, p50 us; rows add up to the end-to-end p50):");
    for (kind, e2e) in &traced.stats.latency {
        let e2e = e2e.p50();
        let mut rows: Vec<(&str, f64)> = Vec::new();
        if let Some(w) = wire {
            let at = |m: &BTreeMap<OpKind, f64>| m.get(kind).copied().unwrap_or(0.0);
            let over = self_time(log, "client", "stack", *kind).p50().us;
            rows.extend([
                ("codec", at(&w.codec)),
                ("frontend.handoff", w.handoff),
                ("uds.floor", at(&w.floor)),
                (
                    "remote.unattributed",
                    over - at(&w.codec) - w.handoff - at(&w.floor),
                ),
            ]);
        }
        if *kind != OpKind::Rebalance {
            rows.push(("service", self_time(log, "stack", "fleet", *kind).p50().us));
        }
        let inner = match kind {
            OpKind::Admit => contention.0,
            OpKind::Release => contention.1,
            _ => 0.0,
        };
        let fleet = values(log.durations("fleet", *kind));
        if fleet.len() > 0 {
            rows.push(("fleet", fleet.p50().us - inner));
        }
        if inner > 0.0 {
            rows.push(("contention", inner));
        }
        let attributed: f64 = rows.iter().map(|r| r.1).sum();
        rows.push(("unattributed", e2e.us - attributed));
        let line: Vec<String> = rows.iter().map(|(n, v)| format!("{n} {v:.3}")).collect();
        println!(
            "  {:<9} e2e {:>10.3} (n={}) = {}",
            kind.name(),
            e2e.us,
            e2e.n,
            line.join(" + ")
        );
    }
}
