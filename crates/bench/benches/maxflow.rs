//! Criterion micro-benchmarks for the max-flow algorithms on cluster-shaped
//! graphs (the inner loop of placement evaluation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
use helix_core::{heuristics, FlowGraphBuilder};
use helix_maxflow::{FlowNetwork, MaxFlowAlgorithm};
use std::hint::black_box;

/// A layered random-ish graph similar in shape to Helix cluster graphs.
fn layered_graph(
    width: usize,
    depth: usize,
) -> (FlowNetwork, helix_maxflow::NodeId, helix_maxflow::NodeId) {
    let mut net = FlowNetwork::new();
    let s = net.add_node("s");
    let t = net.add_node("t");
    let mut prev = vec![s];
    for d in 0..depth {
        let layer: Vec<_> = (0..width)
            .map(|i| net.add_node(format!("n{d}_{i}")))
            .collect();
        for (i, &a) in prev.iter().enumerate() {
            for (j, &b) in layer.iter().enumerate() {
                let cap = ((i * 7 + j * 13 + d * 3) % 23 + 1) as f64;
                net.add_edge(a, b, cap).unwrap();
            }
        }
        prev = layer;
    }
    for (i, &a) in prev.iter().enumerate() {
        net.add_edge(a, t, (i % 11 + 5) as f64).unwrap();
    }
    (net, s, t)
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxflow_layered");
    for &(width, depth) in &[(6usize, 4usize), (12, 6), (20, 8)] {
        let (net, s, t) = layered_graph(width, depth);
        for alg in [
            MaxFlowAlgorithm::PushRelabel,
            MaxFlowAlgorithm::Dinic,
            MaxFlowAlgorithm::EdmondsKarp,
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{alg:?}"), format!("{width}x{depth}")),
                &(&net, s, t),
                |b, (net, s, t)| b.iter(|| black_box(net.max_flow_with(*s, *t, alg).value)),
            );
        }
    }
    group.finish();
}

fn bench_placement_evaluation(c: &mut Criterion) {
    let profile =
        ClusterProfile::analytic(ClusterSpec::single_cluster_24(), ModelConfig::llama2_70b());
    let placement = heuristics::petals_placement(&profile).unwrap();
    let builder = FlowGraphBuilder::new(&profile);
    c.bench_function("placement_flow_eval_24_nodes", |b| {
        b.iter(|| {
            let graph = builder.build(black_box(&placement)).unwrap();
            black_box(graph.max_flow().value)
        })
    });
}

criterion_group!(benches, bench_algorithms, bench_placement_evaluation);
criterion_main!(benches);
