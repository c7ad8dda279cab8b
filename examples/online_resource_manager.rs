//! The concurrent online resource manager — the paper's admission
//! controller deployed as a thread-safe service (`runtime` crate).
//!
//! Three client threads race to admit applications with throughput
//! contracts onto a capacity-bounded shard; a fourth client serves
//! repeated use-case queries through the estimate cache. Demonstrates
//! ticket-based admit/release, contract rejections, non-blocking
//! admission (a full shard answers `Saturated` at once), driving the same manager through the unified `AdmissionService` stack,
//! and graceful stop.
//!
//! Run with: `cargo run --release --example online_resource_manager`

use contention::Method;
use platform::{Application, NodeId, SystemSpec, UseCase};
use runtime::{
    Admission, AdmissionRequest, AdmissionService, Cached, EstimateCache, ResourceManager,
    ResourceManagerConfig,
};
use sdf::{figure2_graphs, Rational};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (graph_a, graph_b) = figure2_graphs();
    let nodes = [NodeId(0), NodeId(1), NodeId(2)];

    let manager = ResourceManager::new(ResourceManagerConfig {
        shards: 1,
        capacity_per_shard: 3,
    });

    println!("== concurrent admission with throughput contracts ==");
    // Three clients race onto one shard; each demands 70 % of its
    // isolation throughput (1/300). Two residents can satisfy that
    // (predicted period 1075/3 ≈ 358.3 < 300/0.7 ≈ 428.6) but a third
    // would break the contracts — it is rejected, consuming no capacity.
    let contract = Rational::new(7, 10) * Rational::new(1, 300);
    let tickets = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let manager = manager.clone();
                let graph = if i % 2 == 0 {
                    graph_a.clone()
                } else {
                    graph_b.clone()
                };
                scope.spawn(move || {
                    let app = Application::new(format!("client-{i}"), graph)
                        .expect("figure 2 graphs are valid");
                    manager.admit(0, app, &nodes, Some(contract))
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .filter_map(
                |(i, h)| match h.join().expect("client thread does not panic") {
                    Ok(Admission::Admitted(ticket)) => {
                        println!(
                            "client-{i}: admitted as {} (predicted period {})",
                            ticket.app_id(),
                            ticket.predicted_period().expect("predicted"),
                        );
                        Some(ticket)
                    }
                    Ok(Admission::Rejected { violations }) => {
                        for v in &violations {
                            println!("client-{i}: rejected — {v}");
                        }
                        None
                    }
                    Err(e) => {
                        println!("client-{i}: no decision — {e}");
                        None
                    }
                },
            )
            .collect::<Vec<_>>()
    });
    println!(
        "residents: {} / capacity 3 (admitted {}, rejected {}, saturated {})",
        manager.resident_count(),
        manager.metrics().admitted(),
        manager.metrics().rejected(),
        manager.metrics().saturated(),
    );

    println!("\n== estimate cache for repeated use-case queries ==");
    let spec = SystemSpec::builder()
        .application(Application::new("A", figure2_graphs().0)?)
        .application(Application::new("B", figure2_graphs().1)?)
        .mapping(platform::Mapping::by_actor_index(3))
        .build()?;
    let cache = Arc::new(EstimateCache::new(16));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let spec = &spec;
            scope.spawn(move || {
                for mask in [1u64, 2, 3, 3, 3, 1, 2, 3] {
                    let est = cache
                        .get_or_estimate(spec, UseCase::from_mask(mask), Method::SECOND_ORDER)
                        .expect("estimates");
                    assert_eq!(est.periods().len() as u32, mask.count_ones());
                }
            });
        }
    });
    println!(
        "32 concurrent queries over 3 distinct use-cases: {} hits, {} misses \
         ({:.0}% hit rate)",
        cache.hits(),
        cache.misses(),
        100.0 * cache.hit_rate(),
    );

    println!("\n== the same manager as an AdmissionService stack ==");
    // Bind the workload spec and the manager speaks the unified service
    // vocabulary: spec-relative requests, shared decisions, estimate
    // caching as middleware instead of a bolted-on cache.
    manager.bind_workload(spec.clone());
    let stack = Cached::new(manager.clone(), 16);
    let decision = stack.admit(&AdmissionRequest::new(1).on(0))?;
    println!("service admit: {decision}");
    stack.estimate(UseCase::full(2), Method::SECOND_ORDER)?;
    stack.estimate(UseCase::full(2), Method::SECOND_ORDER)?;
    if let Some(resident) = decision.resident() {
        stack.release(resident)?;
    }
    print!("{}", stack.snapshot().render());

    println!("\n== graceful stop ==");
    manager.stop();
    let (ga, _) = figure2_graphs();
    let refused = manager.admit(0, Application::new("late", ga)?, &nodes, None);
    println!("admission after stop: {}", refused.unwrap_err());
    drop(tickets); // resident tickets still release cleanly after stop
    println!("residents after drain: {}", manager.resident_count());
    Ok(())
}
