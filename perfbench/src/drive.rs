//! The closed-loop caller shared by `admit-local` and the wire session.

use crate::spans::{OpKind, SpanLog};
use crate::stats::Samples;
use crate::stream::Op;
use contention::{Estimate, Method};
use platform::UseCase;
use runtime::{AdmissionDecision, AdmissionRequest, AdmissionService, FleetManager};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// What one pass over a request stream produced.
#[derive(Debug, Default)]
pub struct PassStats {
    /// Caller-observed latency per op kind.
    pub latency: BTreeMap<OpKind, Samples>,
    pub admitted: u64,
    pub rejected: u64,
    pub saturated: u64,
    /// Calls that returned a `ServiceError`.
    pub errors: u64,
    /// Wall time of the timed loop, drain included.
    pub timed_ns: u64,
    /// Every estimate returned, by mask, for checking after the clock
    /// stops.
    pub estimates: Vec<(u64, Arc<Estimate>)>,
    /// A few requests and decisions as they crossed the stack, per kind:
    /// the messages the codec probe encodes.
    pub admit_samples: Vec<(AdmissionRequest, AdmissionDecision)>,
    pub release_samples: Vec<u64>,
}

impl PassStats {
    pub fn attempted(&self) -> u64 {
        self.latency.values().map(|s| s.len() as u64).sum()
    }

    pub fn ops(&self, kind: OpKind) -> usize {
        self.latency.get(&kind).map_or(0, Samples::len)
    }

    /// Decision counts plus request counts per kind: equal for every pass
    /// of one seed.
    pub fn signature(&self) -> Vec<u64> {
        let mut sig = vec![self.admitted, self.rejected, self.saturated, self.errors];
        sig.extend(OpKind::ALL.iter().map(|&k| self.ops(k) as u64));
        sig
    }

    pub fn absorb(&mut self, other: &PassStats) {
        for (kind, samples) in &other.latency {
            self.latency.entry(*kind).or_default().extend(samples);
        }
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.saturated += other.saturated;
        self.errors += other.errors;
        self.timed_ns += other.timed_ns;
    }

    /// Latencies of admits, and of every other request.
    pub fn split(&self) -> (Samples, Samples) {
        let mut admits = Samples::default();
        let mut others = Samples::default();
        for (kind, samples) in &self.latency {
            match kind {
                OpKind::Admit => admits.extend(samples),
                _ => others.extend(samples),
            }
        }
        (admits, others)
    }
}

const KEPT_SAMPLES: usize = 64;

/// Runs `ops` in a closed loop against `service`: one request at a time,
/// each timed on its own. Releases free the oldest resident in `held`;
/// rebalances go to `fleet` directly (rebalancing is a fleet operation,
/// not a service one). Ends by releasing every resident still held.
pub fn drive(
    service: &dyn AdmissionService,
    fleet: Option<&FleetManager>,
    ops: &[Op],
    held: &mut VecDeque<u64>,
    log: Option<&SpanLog>,
) -> PassStats {
    let mut stats = PassStats::default();
    let loop_start = Instant::now();
    let drain = std::iter::repeat(&Op::Release);
    for (i, op) in ops.iter().chain(drain).enumerate() {
        if i >= ops.len() && held.is_empty() {
            break;
        }
        let (kind, resident) = match op {
            Op::Release => match held.pop_front() {
                Some(resident) => (OpKind::Release, resident),
                // Nothing held: the stream's release is a no-op, not a request.
                None => continue,
            },
            Op::Admit { .. } => (OpKind::Admit, 0),
            Op::Rebalance => (OpKind::Rebalance, 0),
            Op::Estimate { .. } => (OpKind::Estimate, 0),
        };
        if let Some(log) = log {
            log.begin_request();
        }
        let start = Instant::now();
        let failed = match op {
            Op::Admit {
                app,
                contract,
                affinity,
            } => {
                let mut req = AdmissionRequest::new(*app);
                req.required_throughput = *contract;
                req.affinity = affinity.clone();
                let result = service.admit(&req);
                let ns = start.elapsed().as_nanos() as u64;
                stats.latency.entry(kind).or_default().push(ns);
                match result {
                    Ok(decision) => {
                        match &decision {
                            AdmissionDecision::Admitted { resident, .. } => {
                                stats.admitted += 1;
                                held.push_back(*resident);
                            }
                            AdmissionDecision::Rejected { .. } => stats.rejected += 1,
                            AdmissionDecision::Saturated { .. } => stats.saturated += 1,
                        }
                        if stats.admit_samples.len() < KEPT_SAMPLES {
                            stats.admit_samples.push((req, decision));
                        }
                        false
                    }
                    Err(_) => true,
                }
            }
            Op::Release => {
                let result = service.release(resident);
                stats
                    .latency
                    .entry(kind)
                    .or_default()
                    .push(start.elapsed().as_nanos() as u64);
                if stats.release_samples.len() < KEPT_SAMPLES {
                    stats.release_samples.push(resident);
                }
                result.is_err()
            }
            Op::Rebalance => {
                let fleet = fleet.expect("rebalancing needs the fleet");
                let span_start = log.map(SpanLog::now_ns);
                fleet.rebalance();
                if let (Some(log), Some(s)) = (log, span_start) {
                    log.record("fleet", None, OpKind::Rebalance, s);
                }
                stats
                    .latency
                    .entry(kind)
                    .or_default()
                    .push(start.elapsed().as_nanos() as u64);
                false
            }
            Op::Estimate { mask } => {
                let result = service.estimate(UseCase::from_mask(*mask), Method::Composability);
                stats
                    .latency
                    .entry(kind)
                    .or_default()
                    .push(start.elapsed().as_nanos() as u64);
                match result {
                    Ok(estimate) => {
                        stats.estimates.push((*mask, estimate));
                        false
                    }
                    Err(_) => true,
                }
            }
        };
        if failed {
            stats.errors += 1;
        }
    }
    stats.timed_ns = loop_start.elapsed().as_nanos() as u64;
    if let Some(log) = log {
        log.idle();
    }
    stats
}
