//! The flow-to-served ladder, rung 1: one saturated node.
//!
//! One node holds all 40 layers of LLaMA-13B, so the planned graph capacity
//! is the node's decode rate alone, and the simulator serves it 6 000
//! quick-trace requests (256-token prompts and 64-token outputs on average),
//! all arriving at time 0, under IWRR.  The flow graph prices decode tokens
//! only; a prompt token costs `DECODE_EFFICIENCY / PROMPT_EFFICIENCY` (0.3)
//! of a decode token, so a workload carrying `r` prompt tokens per decode
//! token can be served at most `capacity / (1 + 0.3 r)` decode tok/s — the
//! prompt-mix bound.  The rung holds both ends of that reading:
//!
//! * with the quick trace, served stays under the prompt-mix bound;
//! * with 1-token prompts (no prompt phase to speak of), served reaches 80 %
//!   of the graph's capacity: the graph's units and the cost model agree.

use helix_cluster::{
    ClusterBuilder, ClusterProfile, GpuType, ModelConfig, NodeId, Region, DECODE_EFFICIENCY,
    PROMPT_EFFICIENCY,
};
use helix_core::{IwrrScheduler, LayerRange, ModelPlacement, Topology};
use helix_sim::{ClusterSimulator, SimSession, SimulationConfig};
use helix_workload::{ArrivalPattern, AzureTraceConfig, Request, Workload};

const REQUESTS: usize = 6_000;
const SEED: u64 = 7;

/// The three single-node shapes and the capacity `Topology::plan` gives each.
const NODES: [(GpuType, usize, f64); 3] = [
    (GpuType::A100_40, 2, 2_951.0),
    (GpuType::L4, 4, 4_578.0),
    (GpuType::T4, 8, 2_459.0),
];

/// One node of `per_node` `gpu`s holding every layer of LLaMA-13B.
fn one_node(gpu: GpuType, per_node: usize) -> Topology {
    let cluster = ClusterBuilder::new("ladder-1")
        .add_nodes(gpu, 1, per_node, Region(0))
        .build();
    let profile = ClusterProfile::analytic(cluster, ModelConfig::llama_13b());
    let mut placement = ModelPlacement::empty(1);
    placement.assign(NodeId(0), LayerRange::new(0, profile.model().num_layers));
    Topology::plan(&profile, &placement, true).unwrap()
}

/// Quick scale's trace, offline.
fn quick_trace() -> Workload {
    let trace = AzureTraceConfig {
        mean_input_tokens: 256.0,
        mean_output_tokens: 64.0,
        max_input_tokens: 1024,
        max_output_tokens: 256,
    };
    trace
        .generate(REQUESTS, SEED)
        .with_arrivals(ArrivalPattern::Offline, SEED + 1)
}

/// Decode tok/s the simulator serves on `topology` at admission cap `cap`,
/// after asserting the run completed something.
fn served(topology: &Topology, workload: &Workload, cap: usize) -> f64 {
    let scheduler = IwrrScheduler::from_topology(topology).unwrap();
    let sim = ClusterSimulator::new(topology, Box::new(scheduler));
    let config = SimulationConfig::offline(300.0).with_admission_limit(cap);
    let metrics = SimSession::new(sim, config).serve(workload).metrics.overall;
    assert!(metrics.completed_requests > 0, "the run completed nothing");
    metrics.decode_throughput()
}

#[test]
fn one_saturated_node_serves_under_the_prompt_mix_bound_and_near_capacity_without_prompts() {
    let trace = quick_trace();
    let prompt: usize = trace.iter().map(|r| r.prompt_tokens).sum();
    let ratio = prompt as f64 / trace.total_output_tokens() as f64;
    let prompt_cost = DECODE_EFFICIENCY / PROMPT_EFFICIENCY;
    let one_token = Workload::new(
        trace
            .iter()
            .map(|r| Request {
                prompt_tokens: 1,
                ..*r
            })
            .collect(),
    );
    for (gpu, per_node, planned) in NODES {
        let topology = one_node(gpu, per_node);
        let capacity = topology.flow_value();
        assert!(
            (capacity - planned).abs() < 1.0,
            "{per_node}×{gpu:?}: planned {capacity:.1} tok/s"
        );
        let bound = capacity / (1.0 + ratio * prompt_cost);
        let mixed = served(&topology, &trace, 256);
        assert!(
            mixed <= 1.05 * bound,
            "{per_node}×{gpu:?}: the quick trace served {mixed:.1} tok/s over the bound {bound:.1}"
        );
        let decode_only = served(&topology, &one_token, 1_024);
        assert!(
            decode_only >= 0.80 * capacity,
            "{per_node}×{gpu:?}: 1-token prompts served {decode_only:.1} of {capacity:.1} tok/s"
        );
    }
}
