//! Front-end vs direct-manager admission throughput.
//!
//! Measures the cost of the unified service stack: the same
//! admit+release round-trip batch executed (a) directly against a
//! `ResourceManager`'s ticket API, (b) through its `AdmissionService`
//! implementation, and (c) submitted through the async `FrontEnd` event
//! loop (queued, decided by the worker pool, completion-waited). The
//! deltas are the prices of the trait dispatch and of queue + wakeup,
//! respectively.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use platform::{Application, Mapping, NodeId, SystemSpec};
use runtime::{
    AdmissionRequest, AdmissionService, Completion, FrontEnd, FrontEndConfig, ResourceManager,
    ResourceManagerConfig,
};
use sdf::figure2_graphs;

const OPS_PER_SAMPLE: usize = 64;

fn spec() -> SystemSpec {
    let (a, b) = figure2_graphs();
    SystemSpec::builder()
        .application(Application::new("A", a).expect("valid"))
        .application(Application::new("B", b).expect("valid"))
        .mapping(Mapping::by_actor_index(3))
        .build()
        .expect("valid spec")
}

fn manager() -> ResourceManager {
    // Capacity covers a whole sample: the front-end case queues every
    // admission of a batch before the first release is submitted.
    let manager = ResourceManager::new(ResourceManagerConfig {
        shards: 1,
        capacity_per_shard: OPS_PER_SAMPLE,
    });
    manager.bind_workload(spec());
    manager
}

fn bench_front_end_vs_direct(c: &mut Criterion) {
    println!("\n===== Front-end vs direct-manager admission throughput =====");
    println!("{OPS_PER_SAMPLE} admit+release round-trips per sample:");

    let mut group = c.benchmark_group("frontend");
    group.sample_size(15);

    // (a) Direct ticket API — the baseline.
    let direct = manager();
    let (graph_a, _) = figure2_graphs();
    let nodes = [NodeId(0), NodeId(1), NodeId(2)];
    group.bench_function(BenchmarkId::new("direct_manager", "tickets"), |b| {
        let app = Application::new("bench", graph_a.clone()).expect("valid graph");
        b.iter(|| {
            for _ in 0..OPS_PER_SAMPLE {
                let ticket = direct
                    .admit(0, app.clone(), &nodes, None)
                    .expect("no analysis error")
                    .ticket()
                    .expect("no contract set");
                ticket.release();
            }
        });
    });

    // (b) The same manager through the AdmissionService trait.
    let service = manager();
    group.bench_function(BenchmarkId::new("service_trait", "decisions"), |b| {
        b.iter(|| {
            for _ in 0..OPS_PER_SAMPLE {
                let decision = AdmissionService::admit(&service, &AdmissionRequest::new(0).on(0))
                    .expect("no analysis error");
                let resident = decision.resident().expect("fits");
                AdmissionService::release(&service, resident).expect("live resident");
            }
        });
    });

    // (c) Queued through the async front-end, batched submissions.
    for workers in [1usize, 4] {
        let front = FrontEnd::new(
            Box::new(manager()),
            FrontEndConfig {
                workers,
                queue_capacity: OPS_PER_SAMPLE * 2,
            },
        );
        group.bench_with_input(
            BenchmarkId::new("front_end_workers", workers),
            &workers,
            |b, _| {
                b.iter(|| {
                    let completions: Vec<Completion> = (0..OPS_PER_SAMPLE)
                        .map(|_| front.submit(AdmissionRequest::new(0).on(0)))
                        .collect();
                    let releases: Vec<Completion<()>> = completions
                        .into_iter()
                        .map(|completion| {
                            let resident = completion
                                .wait()
                                .expect("no analysis error")
                                .resident()
                                .expect("fits");
                            front.submit_release(resident)
                        })
                        .collect();
                    for release in releases {
                        release.wait().expect("live resident");
                    }
                });
            },
        );
        front.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_front_end_vs_direct);
criterion_main!(benches);
