//! Layers the timing wrapper cannot reach, timed by calling their public
//! functions directly on the run's own inputs.

use crate::stats::Samples;
use contention::{AdmissionController, AdmissionOutcome, Estimate, Method};
use platform::{AppId, Application, NodeId, SystemSpec, UseCase};
use runtime::remote::codec::{decode_message, encode_frame};
use runtime::remote::{WireBody, WireOp, WireRequest, WireResponse};
use runtime::{
    AdmissionDecision, AdmissionRequest, AdmissionService, BinaryCodec, Completion, DecisionEvent,
    FrontEnd, FrontEndConfig, JournalOutcome, SpanContext, WireCodec,
};
use sdf::Rational;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `sdf::analyze_period` on every application graph, repeated for
/// `budget`: (time per analysis, mean steps, ns per step).
pub fn sdf(spec: &SystemSpec, budget: Duration) -> (Samples, f64, f64) {
    let mut times = Samples::default();
    let (mut steps, mut ns) = (0u64, 0u64);
    let start = Instant::now();
    while times.len() < spec.application_count() || start.elapsed() < budget {
        for (_, app) in spec.iter() {
            let t = Instant::now();
            let analysis = sdf::analyze_period(std::hint::black_box(app.graph()))
                .expect("workload graphs are analyzable");
            let took = t.elapsed().as_nanos() as u64;
            times.push(took);
            ns += took;
            steps += analysis.steps;
        }
    }
    let runs = times.len() as f64;
    (times, steps as f64 / runs, ns as f64 / steps.max(1) as f64)
}

/// `contention::estimate` per use-case, each mask once per round, for at
/// least `min_samples` samples or `budget`, whichever ends later.
pub fn estimates(
    spec: &SystemSpec,
    masks: &[u64],
    methods: &[Method],
    min_samples: usize,
    budget: Duration,
) -> Samples {
    let mut times = Samples::default();
    let start = Instant::now();
    while times.len() < min_samples || start.elapsed() < budget {
        for &method in methods {
            for &mask in masks {
                let t = Instant::now();
                let estimate = contention::estimate(spec, UseCase::from_mask(mask), method)
                    .expect("workload use-cases estimate");
                times.push(t.elapsed().as_nanos() as u64);
                std::hint::black_box(estimate);
            }
        }
    }
    times
}

/// The admission controller driven directly with the decisions a fleet
/// journaled: each group's admits, releases and moves replayed on a
/// controller of its own.
#[derive(Debug, Default)]
pub struct ControllerProbe {
    pub admit: Samples,
    pub remove: Samples,
    /// Periods predicted across all `Admitted` outcomes.
    pub predictions: u64,
    /// Of those, predictions for the candidate or for a resident that
    /// carries a contract.
    pub useful: u64,
    pub admitted: u64,
    /// Decisions that differ from the fleet's journaled ones.
    pub mismatches: u64,
}

impl ControllerProbe {
    pub fn absorb(&mut self, other: ControllerProbe) {
        self.admit.extend(&other.admit);
        self.remove.extend(&other.remove);
        self.predictions += other.predictions;
        self.useful += other.useful;
        self.admitted += other.admitted;
        self.mismatches += other.mismatches;
    }
}

fn instantiate(spec: &SystemSpec, app_index: usize) -> (Application, Vec<NodeId>) {
    let id = AppId(app_index % spec.application_count());
    let app = spec.application(id).clone();
    let nodes = app
        .graph()
        .actor_ids()
        .map(|actor| spec.node_of(id, actor))
        .collect();
    (app, nodes)
}

pub fn controller(spec: &SystemSpec, groups: usize, events: &[DecisionEvent]) -> ControllerProbe {
    struct Resident {
        group: usize,
        id: AppId,
        app_index: usize,
        contract: Option<Rational>,
    }
    let mut probe = ControllerProbe::default();
    let mut controllers: Vec<AdmissionController> =
        (0..groups).map(|_| AdmissionController::new()).collect();
    let mut residents: BTreeMap<u64, Resident> = BTreeMap::new();

    // Admits one application on `group`, returning the controller id and
    // the period predicted for it when admitted.
    let admit = |probe: &mut ControllerProbe,
                 controllers: &mut Vec<AdmissionController>,
                 residents: &BTreeMap<u64, Resident>,
                 group: usize,
                 app_index: usize,
                 contract: Option<Rational>|
     -> Option<(AppId, Rational)> {
        let (app, nodes) = instantiate(spec, app_index);
        let t = Instant::now();
        let outcome = controllers[group]
            .admit(app, &nodes, contract)
            .expect("journaled admissions analyze");
        probe.admit.push(t.elapsed().as_nanos() as u64);
        match outcome {
            AdmissionOutcome::Admitted {
                id,
                predicted_periods,
            } => {
                probe.admitted += 1;
                probe.predictions += predicted_periods.len() as u64;
                probe.useful += predicted_periods
                    .keys()
                    .filter(|&&app| {
                        app == id
                            || residents
                                .values()
                                .any(|r| r.group == group && r.id == app && r.contract.is_some())
                    })
                    .count() as u64;
                Some((id, predicted_periods[&id]))
            }
            AdmissionOutcome::Rejected { .. } => None,
        }
    };

    for event in events {
        match event {
            DecisionEvent::Admit {
                group,
                app_index,
                required_throughput,
                outcome,
                ..
            } => {
                let group = *group as usize;
                let app_index = *app_index as usize;
                if *outcome == JournalOutcome::Saturated {
                    continue; // decided on capacity; the controller never ran
                }
                let got = admit(
                    &mut probe,
                    &mut controllers,
                    &residents,
                    group,
                    app_index,
                    *required_throughput,
                );
                match (outcome, got) {
                    (
                        JournalOutcome::Admitted {
                            resident,
                            predicted_period,
                        },
                        Some((id, period)),
                    ) => {
                        if *predicted_period != period {
                            probe.mismatches += 1;
                        }
                        residents.insert(
                            *resident,
                            Resident {
                                group,
                                id,
                                app_index,
                                contract: *required_throughput,
                            },
                        );
                    }
                    (JournalOutcome::Rejected { .. }, None) => {}
                    _ => probe.mismatches += 1,
                }
            }
            DecisionEvent::Release { resident } => {
                if let Some(r) = residents.remove(resident) {
                    let t = Instant::now();
                    controllers[r.group].remove(r.id).expect("resident is live");
                    probe.remove.push(t.elapsed().as_nanos() as u64);
                }
            }
            DecisionEvent::Rebalance {
                resident,
                to_group,
                predicted_period,
                ..
            } => {
                let Some(r) = residents.remove(resident) else {
                    probe.mismatches += 1;
                    continue;
                };
                let t = Instant::now();
                controllers[r.group].remove(r.id).expect("resident is live");
                probe.remove.push(t.elapsed().as_nanos() as u64);
                let group = *to_group as usize;
                match admit(
                    &mut probe,
                    &mut controllers,
                    &residents,
                    group,
                    r.app_index,
                    r.contract,
                ) {
                    Some((id, period)) => {
                        if period != *predicted_period {
                            probe.mismatches += 1;
                        }
                        residents.insert(*resident, Resident { group, id, ..r });
                    }
                    None => probe.mismatches += 1,
                }
            }
            DecisionEvent::Resize { .. } => {}
        }
    }
    probe
}

/// Wire messages of one op kind: each request frame with its response.
pub type Exchange = (WireRequest, WireResponse);

/// The exchanges a stream's requests make, from what the stack answered.
pub fn admit_exchanges(samples: &[(AdmissionRequest, AdmissionDecision)]) -> Vec<Exchange> {
    samples
        .iter()
        .enumerate()
        .map(|(i, (request, decision))| {
            // The client stamps a root span on every admission it sends.
            let request = request.clone().with_span(SpanContext::root());
            (
                WireRequest {
                    id: i as u64 + 1,
                    op: WireOp::Admit(request),
                },
                WireResponse {
                    id: i as u64 + 1,
                    body: WireBody::Decision(decision.clone()),
                },
            )
        })
        .collect()
}

pub fn release_exchanges(residents: &[u64]) -> Vec<Exchange> {
    residents
        .iter()
        .enumerate()
        .map(|(i, &resident)| {
            (
                WireRequest {
                    id: i as u64 + 1,
                    op: WireOp::Release(resident),
                },
                WireResponse {
                    id: i as u64 + 1,
                    body: WireBody::Released,
                },
            )
        })
        .collect()
}

pub fn estimate_exchanges(estimates: &[(u64, Arc<Estimate>)]) -> Vec<Exchange> {
    estimates
        .iter()
        .enumerate()
        .map(|(i, (mask, estimate))| {
            (
                WireRequest {
                    id: i as u64 + 1,
                    op: WireOp::Estimate {
                        mask: *mask,
                        method: Method::Composability,
                    },
                },
                WireResponse {
                    id: i as u64 + 1,
                    body: WireBody::Estimate((**estimate).clone()),
                },
            )
        })
        .collect()
}

/// Binary-codec cost of one exchange: mean encode and decode time over
/// request plus response, and mean bytes of both frames.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecCost {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

pub fn codec(exchanges: &[Exchange], budget: Duration) -> CodecCost {
    if exchanges.is_empty() {
        return CodecCost::default();
    }
    let codec: &dyn WireCodec = &BinaryCodec;
    let frames: Vec<(Vec<u8>, Vec<u8>)> = exchanges
        .iter()
        .map(|(req, resp)| {
            (
                encode_frame(codec, req).expect("requests encode"),
                encode_frame(codec, resp).expect("responses encode"),
            )
        })
        .collect();
    let n = frames.len();
    let request_bytes = frames.iter().map(|f| f.0.len()).sum::<usize>() / n;
    let response_bytes = frames.iter().map(|f| f.1.len()).sum::<usize>() / n;

    let (mut encode_ns, mut decode_ns, mut rounds) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while rounds == 0 || start.elapsed() < budget {
        let t = Instant::now();
        for (req, resp) in exchanges {
            std::hint::black_box(encode_frame(codec, std::hint::black_box(req)).expect("encodes"));
            std::hint::black_box(encode_frame(codec, std::hint::black_box(resp)).expect("encodes"));
        }
        encode_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        for (req, resp) in &frames {
            let (value, _) = codec
                .decode_value(req)
                .expect("decodes")
                .expect("whole frame");
            std::hint::black_box(decode_message::<WireRequest>(&value).expect("parses"));
            let (value, _) = codec
                .decode_value(resp)
                .expect("decodes")
                .expect("whole frame");
            std::hint::black_box(decode_message::<WireResponse>(&value).expect("parses"));
        }
        decode_ns += t.elapsed().as_nanos() as u64;
        rounds += 1;
    }
    let exchanges_done = (rounds * n as u64) as f64;
    CodecCost {
        encode_ns: encode_ns as f64 / exchanges_done,
        decode_ns: decode_ns as f64 / exchanges_done,
        request_bytes,
        response_bytes,
    }
}

/// `FrontEnd` handoff on estimates: for each mask, the direct call and
/// the same call queued to a worker with the caller waiting on its
/// completion, alternating. Returns (direct, handed off).
pub fn frontend(
    service: Arc<dyn AdmissionService>,
    masks: &[u64],
    rounds: usize,
) -> (Samples, Samples) {
    let front = FrontEnd::new(Box::new(Arc::clone(&service)), FrontEndConfig::default());
    let (mut direct, mut handed) = (Samples::default(), Samples::default());
    for i in 0..rounds {
        let use_case = UseCase::from_mask(masks[i % masks.len()]);
        let t = Instant::now();
        let estimate = service.estimate(use_case, Method::Composability);
        direct.push(t.elapsed().as_nanos() as u64);
        estimate.expect("warm estimates succeed");

        let t = Instant::now();
        let (completer, completion) = Completion::pending();
        front
            .submit_task(move |svc| {
                completer.complete(svc.estimate(use_case, Method::Composability))
            })
            .expect("front-end accepts work");
        let estimate = completion.wait();
        handed.push(t.elapsed().as_nanos() as u64);
        estimate.expect("warm estimates succeed");
    }
    front.shutdown();
    (direct, handed)
}

/// Raw Unix-socket ping-pong on a socket pair the benchmark owns: write a
/// request-sized frame, read a response-sized one back, `rounds` times
/// per size pair.
pub fn uds_floor(sizes: &[(usize, usize)], rounds: usize) -> Samples {
    let (mut near, mut far) = UnixStream::pair().expect("socket pair");
    let plan: Vec<(usize, usize)> = sizes
        .iter()
        .flat_map(|&s| std::iter::repeat_n(s, rounds))
        .collect();
    let echo_plan = plan.clone();
    let echo = std::thread::spawn(move || {
        let mut buf = vec![0u8; echo_plan.iter().map(|&(a, b)| a.max(b)).max().unwrap_or(0)];
        for (request, response) in echo_plan {
            far.read_exact(&mut buf[..request]).expect("echo reads");
            far.write_all(&buf[..response]).expect("echo writes");
        }
    });
    let mut buf = vec![0u8; plan.iter().map(|&(a, b)| a.max(b)).max().unwrap_or(0)];
    let mut times = Samples::default();
    for (request, response) in plan {
        let t = Instant::now();
        near.write_all(&buf[..request]).expect("writes");
        near.read_exact(&mut buf[..response]).expect("reads");
        times.push(t.elapsed().as_nanos() as u64);
    }
    echo.join().expect("echo thread ends cleanly");
    times
}
