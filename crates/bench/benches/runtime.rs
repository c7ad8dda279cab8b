//! Concurrent admission throughput of the `runtime::ResourceManager` —
//! how the paper's O(actors) admit/remove scales when hammered from many
//! threads against a sharded front-end.
//!
//! Each sample performs a fixed batch of admit+release round-trips split
//! evenly across client threads (figure-2 applications, no contention for
//! capacity), so the measured quantity is lock + analysis cost per
//! admission as parallelism grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use platform::{Application, NodeId};
use runtime::{ResourceManager, ResourceManagerConfig};
use sdf::figure2_graphs;

const OPS_PER_SAMPLE: usize = 64;

fn admit_release_batch(manager: &ResourceManager, threads: usize) {
    let (graph_a, _) = figure2_graphs();
    let nodes = [NodeId(0), NodeId(1), NodeId(2)];
    std::thread::scope(|scope| {
        for t in 0..threads {
            let manager = manager.clone();
            let graph = graph_a.clone();
            scope.spawn(move || {
                let app = Application::new(format!("bench-{t}"), graph).expect("valid graph");
                // One private shard per client thread (shards == threads),
                // so the measurement isolates lock + analysis cost.
                let shard = t % manager.shard_count();
                for _ in 0..OPS_PER_SAMPLE / threads {
                    let ticket = manager
                        .admit(shard, app.clone(), &nodes, None)
                        .expect("no analysis error")
                        .ticket()
                        .expect("no contract set");
                    ticket.release();
                }
            });
        }
    });
}

fn bench_concurrent_admission(c: &mut Criterion) {
    println!("\n===== Concurrent admission throughput (runtime crate) =====");
    println!("{OPS_PER_SAMPLE} admit+release round-trips per sample, split across client threads:");

    let mut group = c.benchmark_group("runtime_admission");
    group.sample_size(15);
    for threads in [1usize, 2, 4, 8] {
        let manager = ResourceManager::new(ResourceManagerConfig {
            shards: threads,
            capacity_per_shard: 16,
        });
        group.bench_with_input(
            BenchmarkId::new("admit_release_64ops", threads),
            &threads,
            |b, &threads| b.iter(|| admit_release_batch(&manager, threads)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_concurrent_admission);
criterion_main!(benches);
