//! Multi-threaded stress tests of the `runtime` subsystem: N client
//! threads × M mixed operations against a shared `ResourceManager` and
//! `EstimateCache`, with invariants checked throughout and a watchdog
//! asserting the whole run completes (no deadlock).

use contention::Method;
use platform::{Application, NodeId, SystemSpec, UseCase};
use rand::{rngs::StdRng, RngCore, SeedableRng};
use runtime::{Admission, AdmitError, EstimateCache, ResourceManager, ResourceManagerConfig};
use sdf::figure2_graphs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 150;
const WATCHDOG: Duration = Duration::from_secs(120);

/// Runs `f` on a fresh thread and fails the test if it does not finish
/// within [`WATCHDOG`] — a deadlocked manager hangs forever otherwise.
fn with_watchdog<F: FnOnce() + Send + 'static>(f: F) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        tx.send(()).expect("watchdog receiver lives");
    });
    rx.recv_timeout(WATCHDOG)
        .expect("stress run deadlocked: watchdog expired");
    worker.join().expect("stress thread panicked");
}

fn two_app_spec() -> SystemSpec {
    let (a, b) = figure2_graphs();
    SystemSpec::builder()
        .application(Application::new("A", a).expect("valid"))
        .application(Application::new("B", b).expect("valid"))
        .mapping(platform::Mapping::by_actor_index(3))
        .build()
        .expect("valid spec")
}

/// Per-thread deterministic operation stream.
fn next(rng: &mut StdRng) -> u64 {
    rng.next_u64()
}

#[test]
fn manager_survives_concurrent_admit_release_query() {
    with_watchdog(|| {
        let manager = ResourceManager::new(ResourceManagerConfig {
            shards: 2,
            capacity_per_shard: 4,
        });
        let capacity_total = 2 * 4;
        let (graph_a, graph_b) = figure2_graphs();
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        let decisions = AtomicU64::new(0);
        let saturations = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let manager = manager.clone();
                let graph = if t % 2 == 0 {
                    graph_a.clone()
                } else {
                    graph_b.clone()
                };
                let decisions = &decisions;
                let saturations = &saturations;
                scope.spawn(move || {
                    let app = Application::new(format!("stress-{t}"), graph).expect("valid graph");
                    let mut rng = StdRng::seed_from_u64(0x5EED_0000 + t as u64);
                    let mut tickets = Vec::new();
                    for _ in 0..OPS_PER_THREAD {
                        match next(&mut rng) % 100 {
                            // Admit, sometimes with a contract tight enough
                            // to be rejected under load.
                            0..=49 => {
                                let required = if next(&mut rng).is_multiple_of(3) {
                                    Some(app.isolation_throughput() * sdf::Rational::new(4, 5))
                                } else {
                                    None
                                };
                                let shard =
                                    manager.shard_for(next(&mut rng)) % manager.shard_count();
                                match manager.admit(shard, app.clone(), &nodes, required) {
                                    Ok(Admission::Admitted(ticket)) => {
                                        decisions.fetch_add(1, Ordering::Relaxed);
                                        tickets.push(ticket);
                                    }
                                    Ok(Admission::Rejected { violations }) => {
                                        decisions.fetch_add(1, Ordering::Relaxed);
                                        assert!(!violations.is_empty());
                                    }
                                    // A full shard answers at once.
                                    Err(AdmitError::Saturated) => {
                                        saturations.fetch_add(1, Ordering::Relaxed);
                                    }
                                    Err(e) => panic!("unexpected admit error: {e}"),
                                }
                            }
                            // Release the oldest held ticket.
                            50..=74 => {
                                if !tickets.is_empty() {
                                    tickets.remove(0).release();
                                }
                            }
                            // Query a held ticket under the live mix.
                            75..=89 => {
                                if let Some(ticket) = tickets.last() {
                                    let period = ticket
                                        .predicted_period_now()
                                        .expect("resident while ticket held");
                                    assert!(period.is_positive());
                                }
                            }
                            // Global invariant probe.
                            _ => {
                                assert!(manager.resident_count() <= capacity_total);
                            }
                        }
                    }
                    // Tickets drop here, releasing their capacity.
                });
            }
        });

        assert!(decisions.load(Ordering::Relaxed) > 0, "no decisions made");
        // Threads hold more tickets than the shards fit, so some admissions
        // must have found a full shard, and each was counted exactly once.
        let saturations = saturations.load(Ordering::Relaxed);
        assert!(saturations > 0, "no admission ever saturated a shard");
        // Every ticket was dropped: the manager must be fully drained and
        // the books must balance.
        assert_eq!(manager.resident_count(), 0);
        let m = manager.metrics();
        assert_eq!(m.saturated(), saturations);
        assert_eq!(m.admitted(), m.released(), "ticket leak");
        for shard in 0..manager.shard_count() {
            assert_eq!(
                manager
                    .snapshot(shard)
                    .expect("valid shard")
                    .resident_count(),
                0
            );
        }
    });
}

#[test]
fn estimate_cache_is_consistent_under_concurrency() {
    with_watchdog(|| {
        let spec = Arc::new(two_app_spec());
        let cache = Arc::new(EstimateCache::new(2));
        let lookups = THREADS * 60;

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let spec = Arc::clone(&spec);
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xCAC4E + t as u64);
                    for _ in 0..60 {
                        let mask = next(&mut rng) % 3 + 1;
                        let est = cache
                            .get_or_estimate(&spec, UseCase::from_mask(mask), Method::SECOND_ORDER)
                            .expect("estimates");
                        // Cache consistency: every result for a key equals
                        // a fresh uncached estimate.
                        let fresh = contention::estimate(
                            &spec,
                            UseCase::from_mask(mask),
                            Method::SECOND_ORDER,
                        )
                        .expect("estimates");
                        assert_eq!(est.periods(), fresh.periods(), "mask {mask}");
                    }
                });
            }
        });

        // Counter consistency: every lookup is classified exactly once.
        assert_eq!(cache.hits() + cache.misses(), lookups as u64);
        assert!(cache.hits() > 0, "no hits under repeated keys");
        // 3 distinct keys never fit the capacity-2 cache: evictions forced
        // misses beyond the 3 cold ones.
        assert!(cache.len() <= cache.capacity());
        assert!(cache.misses() > 3, "evictions must produce re-misses");
    });
}

/// A batch of seeded requests driven through a bare `Cached` stack over
/// a sharded manager (no fleet) on many workers; full shards answer
/// `Saturated` at once.
#[test]
fn batch_executor_stress_preserves_invariants() {
    use runtime::{run_stack, seeded_fleet_requests, Cached, FleetRequest};

    with_watchdog(|| {
        let spec = two_app_spec();
        let manager = ResourceManager::new(ResourceManagerConfig {
            shards: 2,
            capacity_per_shard: 3,
        });
        manager.bind_workload(spec.clone());
        let stack = Cached::new(manager.clone(), 16);
        let requests = seeded_fleet_requests(&spec, 1, 600, 2026);
        let estimates = requests
            .iter()
            .filter(|r| matches!(r, FleetRequest::Estimate { .. }))
            .count() as u64;

        let (report, _) = run_stack(&stack, None, requests, THREADS, None);
        assert_eq!(report.requests, 600);
        assert!(report.stack.admitted > 0, "{report:?}");
        assert!(report.throughput() > 0.0);
        // All residents drained after the batch.
        assert_eq!(manager.resident_count(), 0);
        let m = manager.metrics();
        assert_eq!(m.admitted(), m.released());
        // Cache counters agree: every estimate lookup is classified once,
        // and the per-layer table surfaces the cache's own counters.
        let cache = stack.cache();
        assert_eq!(cache.hits() + cache.misses(), estimates);
        assert_eq!(report.stack.counter("cached", "hits"), Some(cache.hits()));
        assert_eq!(
            report.stack.counter("cached", "misses"),
            Some(cache.misses())
        );
    });
}

#[test]
fn front_end_multiplexes_a_thousand_queued_admissions() {
    use runtime::{
        AdmissionRequest, AdmissionService, Completion, FleetConfig, FleetManager, FrontEnd,
        FrontEndConfig, RoutingPolicy, ServiceError, Traced,
    };

    const QUEUED: usize = 1200;
    const WORKERS: usize = 4;

    with_watchdog(|| {
        // A worker pool far smaller than the queue drives a traced fleet
        // stack; all submissions are queued before any completions are
        // reaped, so QUEUED admissions are concurrently in flight without a
        // thread per waiter.
        // One shard per group: the 2-app spec only routes to the shards its
        // two app indices hash to, so single-shard groups fill completely.
        let fleet = FleetManager::new(
            two_app_spec(),
            FleetConfig::uniform(4, 1, 16, RoutingPolicy::LeastUtilised),
        )
        .expect("valid fleet");
        let front = FrontEnd::new(
            Box::new(Traced::new(fleet.clone(), 64)),
            FrontEndConfig {
                workers: WORKERS,
                queue_capacity: QUEUED,
            },
        );

        let completions: Vec<Completion> = (0..QUEUED)
            .map(|i| front.submit(AdmissionRequest::new(i)))
            .collect();
        assert!(
            front.peak_queue_depth() > WORKERS,
            "the queue must outnumber the worker pool (peak {})",
            front.peak_queue_depth()
        );

        // Every submission resolves: admitted until the fleet saturates,
        // saturated afterwards — never an error, never a lost completion.
        let mut admitted = Vec::new();
        let mut saturated = 0usize;
        for completion in completions {
            match completion.wait() {
                Ok(decision) => {
                    if let Some(resident) = decision.resident() {
                        admitted.push(resident);
                    } else {
                        saturated += 1;
                    }
                }
                Err(e) => panic!("submission lost: {e}"),
            }
        }
        assert_eq!(admitted.len(), fleet.capacity());
        assert_eq!(admitted.len() + saturated, QUEUED);
        assert_eq!(front.submitted(), QUEUED as u64);
        assert_eq!(front.completed(), QUEUED as u64);

        // Release through the queue, then verify the books balance.
        let releases: Vec<Completion<()>> = admitted
            .into_iter()
            .map(|resident| front.submit_release(resident))
            .collect();
        for release in releases {
            release.wait().expect("releases succeed");
        }
        assert_eq!(fleet.resident_count(), 0);
        let snapshot = AdmissionService::snapshot(&front);
        assert_eq!(snapshot.admitted, snapshot.released);
        assert_eq!(
            snapshot.counter("front-end", "queue_depth"),
            Some(0),
            "queue drained"
        );
        assert!(
            snapshot
                .counter("front-end", "peak_queue_depth")
                .unwrap_or(0)
                > WORKERS as u64
        );
        // The traced layer timed every queued operation.
        assert!(snapshot.counter("traced", "operations").unwrap_or(0) >= QUEUED as u64);

        front.shutdown();
        assert_eq!(
            front.submit(AdmissionRequest::new(0)).wait().unwrap_err(),
            ServiceError::Stopped
        );
    });
}

#[test]
fn fleet_survives_concurrent_admits_with_rebalancer() {
    use runtime::{DecisionEvent, FleetAdmission, FleetConfig, FleetManager, RoutingPolicy};
    use std::sync::atomic::AtomicBool;

    with_watchdog(|| {
        let fleet = FleetManager::new(
            {
                let (a, b) = figure2_graphs();
                SystemSpec::builder()
                    .application(Application::new("A", a).expect("valid"))
                    .application(Application::new("B", b).expect("valid"))
                    .mapping(platform::Mapping::by_actor_index(3))
                    .build()
                    .expect("valid spec")
            },
            FleetConfig::uniform(4, 1, 3, RoutingPolicy::LeastUtilised),
        )
        .expect("valid fleet");
        let decisions = AtomicU64::new(0);
        let stop_rebalancer = AtomicBool::new(false);

        std::thread::scope(|scope| {
            // A dedicated rebalancer races against every client thread.
            {
                let fleet = fleet.clone();
                let stop_rebalancer = &stop_rebalancer;
                scope.spawn(move || {
                    while !stop_rebalancer.load(Ordering::Relaxed) {
                        fleet.rebalance();
                        std::thread::yield_now();
                    }
                });
            }
            let mut clients = Vec::new();
            for t in 0..THREADS {
                let fleet = fleet.clone();
                let decisions = &decisions;
                clients.push(scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xF1EE7 + t as u64);
                    let mut tickets = Vec::new();
                    for _ in 0..OPS_PER_THREAD {
                        match next(&mut rng) % 100 {
                            // Admit across the whole fleet, sometimes with a
                            // contract tight enough to reject under load.
                            0..=54 => {
                                let app_index = next(&mut rng) as usize;
                                let contract = if next(&mut rng).is_multiple_of(3) {
                                    Some(sdf::Rational::new(1, 400))
                                } else {
                                    None
                                };
                                let affinity = format!("uc{}", next(&mut rng) % 4);
                                match fleet.admit(app_index, contract, Some(&affinity)) {
                                    Ok(FleetAdmission::Admitted(ticket)) => {
                                        decisions.fetch_add(1, Ordering::Relaxed);
                                        tickets.push(ticket);
                                    }
                                    Ok(FleetAdmission::Rejected { violations, .. }) => {
                                        decisions.fetch_add(1, Ordering::Relaxed);
                                        assert!(!violations.is_empty());
                                    }
                                    Ok(FleetAdmission::Saturated { group }) => {
                                        decisions.fetch_add(1, Ordering::Relaxed);
                                        assert!(group < fleet.group_count());
                                    }
                                    Err(e) => panic!("unexpected fleet error: {e}"),
                                }
                            }
                            // Release the oldest held ticket (it may have
                            // been rebalanced to another group meanwhile).
                            55..=84 => {
                                if !tickets.is_empty() {
                                    tickets.remove(0).release();
                                }
                            }
                            // Explicit cross-group move of a held resident.
                            85..=92 => {
                                if let Some(ticket) = tickets.last() {
                                    let to = next(&mut rng) as usize % fleet.group_count();
                                    // Saturated/same-group failures are
                                    // expected under load; moves must never
                                    // error structurally or lose residents.
                                    let _ = fleet.move_resident(ticket.resident_id(), to);
                                }
                            }
                            // Global invariant probe.
                            _ => {
                                let per_group: usize = (0..fleet.group_count())
                                    .map(|g| fleet.resident_count_of(g).expect("valid group"))
                                    .sum();
                                // The per-group counts are read one group at
                                // a time while moves complete concurrently:
                                // a mid-move resident briefly occupies both
                                // groups (sum leads the registry), and a move
                                // finishing between two reads can be missed
                                // by both (sum trails it) — each by at most
                                // one per in-flight move. Only bound the
                                // drift; steady-state equality is asserted
                                // after the scope ends.
                                assert!(per_group + THREADS >= fleet.resident_count());
                                assert!(per_group <= fleet.capacity() + fleet.group_count());
                            }
                        }
                    }
                    // Tickets drop here, releasing their residents.
                }));
            }
            // Keep the rebalancer racing until every client is done, then
            // wind it down (the scope would otherwise join it forever).
            for client in clients {
                client.join().expect("client thread does not panic");
            }
            stop_rebalancer.store(true, Ordering::Relaxed);
        });

        assert!(decisions.load(Ordering::Relaxed) > 0, "no decisions made");
        // Steady state: fully drained, no group over capacity, books balance.
        assert_eq!(fleet.resident_count(), 0);
        for g in 0..fleet.group_count() {
            assert_eq!(fleet.resident_count_of(g).expect("valid group"), 0);
        }
        let snapshot = fleet.snapshot();
        assert_eq!(snapshot.admitted, snapshot.released, "resident leak");
        // The journal saw every decision and still verifies.
        fleet.journal().verify().expect("journal integrity");
        let events = fleet.journal().events();
        let admits = events
            .iter()
            .filter(|e| matches!(e, DecisionEvent::Admit { .. }))
            .count();
        let releases = events
            .iter()
            .filter(|e| matches!(e, DecisionEvent::Release { .. }))
            .count();
        assert_eq!(releases as u64, snapshot.released);
        assert!(admits as u64 >= snapshot.admitted);
    });
}

#[test]
fn stop_under_load_drains_cleanly() {
    with_watchdog(|| {
        let manager = ResourceManager::new(ResourceManagerConfig {
            shards: 1,
            capacity_per_shard: 2,
        });
        let (graph_a, _) = figure2_graphs();
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        let resident = |name: &str| {
            manager
                .admit(
                    0,
                    Application::new(name, graph_a.clone()).unwrap(),
                    &nodes,
                    None,
                )
                .unwrap()
                .ticket()
                .unwrap()
        };
        // Fill the shard, then stop it.
        let a = resident("a");
        let b = resident("b");
        manager.stop();

        std::thread::scope(|scope| {
            for t in 0..4 {
                let manager = manager.clone();
                let graph = graph_a.clone();
                scope.spawn(move || {
                    let app = Application::new(format!("late{t}"), graph).unwrap();
                    // Stopped is checked before capacity: a full, stopped
                    // shard answers `Stopped`, never `Saturated`.
                    let result = manager.admit(0, app, &nodes, None);
                    assert!(matches!(result, Err(AdmitError::Stopped)), "{result:?}");
                });
            }
            // Residents still query under the live mix while refusals land.
            for ticket in [&a, &b] {
                assert!(ticket.predicted_period_now().unwrap().is_positive());
            }
        });
        // Residents drain gracefully after stop.
        a.release();
        b.release();
        assert_eq!(manager.resident_count(), 0);
        let m = manager.metrics();
        assert_eq!(m.stopped_rejections(), 4);
        assert_eq!(m.saturated(), 0);
        assert_eq!(m.admitted(), m.released());
    });
}
