//! Two identical runs report identically — including the parts of the report
//! whose order used to come from `HashMap` iteration: the order of links
//! that tie on mean queue delay in `link_stats`, and the order in which the
//! observation tick hands engine counters to the control plane.

use helix_cluster::{ClusterBuilder, ClusterProfile, GpuType, ModelConfig, NodeId, Region};
use helix_core::{IwrrScheduler, LayerRange, ModelPlacement, ReplicationPolicy, Topology};
use helix_sim::{ClusterSimulator, FleetRunReport, PerturbationEvent, SimulationConfig};
use helix_workload::{ArrivalPattern, AzureTraceConfig, Workload};

/// An under-capacity online run (one request every 20 s) with RF = 2 and a
/// redundant node failing mid-decode, on a fresh simulator.
fn run_once(topology: &Topology, workload: &Workload, failed: NodeId) -> FleetRunReport {
    let scheduler = IwrrScheduler::from_topology(topology).unwrap();
    let mut sim = ClusterSimulator::new(topology, Box::new(scheduler));
    sim.set_replication(ReplicationPolicy::rf2(0, 16));
    // Shortly after the ninth arrival, so a pipeline is cut mid-decode.
    let at = workload.requests()[8].arrival_time + 0.3;
    let events = [PerturbationEvent::NodeFailure { at, node: failed }];
    let config = SimulationConfig::online(2_000.0).with_warmup(0.0);
    sim.run_with_events(workload, config, &events, None)
}

#[test]
fn identical_runs_report_identically_link_order_included() {
    // Two stages, each doubled (nodes 0 and 2 hold the bottom half, 1 and 3
    // the top half): every stage has a standby, and any one node may fail.
    let cluster = ClusterBuilder::new("determinism-4")
        .intra_region(10_000.0, 1.0)
        .add_nodes(GpuType::A100_80, 4, 1, Region(0))
        .build();
    let profile = ClusterProfile::analytic(cluster, ModelConfig::llama_13b());
    let layers = profile.model().num_layers;
    let mut placement = ModelPlacement::empty(4);
    for node in 0..4 {
        let half = LayerRange::new(node % 2 * layers / 2, (node % 2 + 1) * layers / 2);
        placement.assign(NodeId(node), half);
    }
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let workload = AzureTraceConfig {
        mean_input_tokens: 128.0,
        mean_output_tokens: 32.0,
        max_input_tokens: 512,
        max_output_tokens: 64,
    }
    .generate(20, 3)
    .with_arrivals(ArrivalPattern::constant_rate(0.05), 5);
    let failed = NodeId(0);

    let reference = run_once(&topology, &workload, failed);
    // The scenario is the one the test is about: work completed, the failure
    // was handled, replicas shipped, and several idle links tie at zero.
    let links = &reference.metrics.overall.link_stats;
    let tied = links.iter().filter(|l| l.mean_queue_delay == 0.0).count();
    assert!(tied >= 3, "{tied} of {} links tie at zero", links.len());
    assert!(reference.metrics.overall.completed_requests > 0);
    assert_eq!(reference.failovers.len(), 1);
    assert!(
        !reference.failovers[0].promoted.is_empty(),
        "a replica took over"
    );
    assert!(reference.replication.chunks > 0);
    assert!(!reference.intervals.is_empty(), "observation ticks ran");

    for _ in 0..4 {
        let again = run_once(&topology, &workload, failed);
        assert_eq!(reference.metrics, again.metrics);
        assert_eq!(reference.completions, again.completions);
        assert_eq!(reference.failovers, again.failovers);
        assert_eq!(reference.replication, again.replication);
        assert_eq!(reference.intervals, again.intervals);
    }
}
