//! Cross-implementation consistency: the multi-threaded prototype runtime and
//! the discrete-event simulator are two independent implementations of the
//! same serving mechanics (the paper validates its simulator against its
//! prototype the same way, §6.3).  They will not agree to the percent, but
//! they must agree on the structure of the result: every request completes,
//! both report positive throughput, and the Helix placement does not lose to
//! the Swarm placement on either implementation.

use helix::prelude::*;
use helix_runtime::{RuntimeConfig, ServingBuilder};

fn profile() -> ClusterProfile {
    ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b())
}

/// A small offline burst with bounded lengths so the test stays fast.
fn burst(n: u64) -> Workload {
    Workload::new(
        (0..n)
            .map(|id| Request {
                id,
                prompt_tokens: 96,
                output_tokens: 8,
                arrival_time: 0.0,
                model: Default::default(),
                ..Request::default()
            })
            .collect(),
    )
}

fn runtime_throughput(
    profile: &ClusterProfile,
    placement: &ModelPlacement,
    workload: &Workload,
) -> f64 {
    let topology = Topology::plan(profile, placement, true).unwrap();
    let session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig {
            wall_per_virtual: 0.0003,
            ..RuntimeConfig::default()
        })
        .build()
        .unwrap();
    let report = session.serve(workload).unwrap();
    assert_eq!(
        report.completed(),
        workload.len(),
        "every request completes on the runtime"
    );
    report.decode_throughput()
}

fn simulator_throughput(
    profile: &ClusterProfile,
    placement: &ModelPlacement,
    workload: &Workload,
) -> f64 {
    let topology = Topology::plan(profile, placement, true).unwrap();
    let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
    let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
    let config = SimulationConfig::offline(600.0).with_warmup(0.0);
    let metrics = SimSession::new(sim, config).serve(workload).metrics.overall;
    assert!(metrics.decode_throughput() > 0.0);
    metrics.decode_throughput()
}

#[test]
fn runtime_and_simulator_report_consistent_structure() {
    let profile = profile();
    let workload = burst(24);

    let annealed = FlowAnnealingPlanner::new(&profile)
        .with_options(AnnealingOptions {
            iterations: 300,
            ..Default::default()
        })
        .solve()
        .unwrap()
        .0;
    let swarm = heuristics::swarm_placement(&profile).unwrap();

    let runtime_annealed = runtime_throughput(&profile, &annealed, &workload);
    let runtime_swarm = runtime_throughput(&profile, &swarm, &workload);
    let sim_annealed = simulator_throughput(&profile, &annealed, &workload);
    let sim_swarm = simulator_throughput(&profile, &swarm, &workload);

    // Both implementations produce positive throughput for both placements.
    // The runtime's virtual-time throughput depends on real thread scheduling
    // and is therefore only checked structurally (everything completed,
    // throughput positive); the deterministic simulator carries the ordering
    // assertion.
    for v in [runtime_annealed, runtime_swarm, sim_annealed, sim_swarm] {
        assert!(v > 0.0);
    }
    // The flow-optimised placement does not lose badly to the Swarm placement
    // in simulation (ordering consistency, not absolute numbers).
    assert!(
        sim_annealed >= sim_swarm * 0.8,
        "simulator: annealed {sim_annealed:.1} vs swarm {sim_swarm:.1}"
    );
}

#[test]
fn partitioned_planning_scales_out_replicas() {
    // §4.5 scale-out: partition the 24-node cluster, plan each partition
    // independently, and serve on the combined placement.
    use helix_core::{PartitionOptions, PartitionedPlanner};

    let profile =
        ClusterProfile::analytic(ClusterSpec::single_cluster_24(), ModelConfig::llama_30b());
    let plan = PartitionedPlanner::new(&profile)
        .with_options(PartitionOptions {
            max_partition_size: 8,
            annealing: AnnealingOptions {
                iterations: 200,
                ..Default::default()
            },
            ..Default::default()
        })
        .solve()
        .unwrap();
    assert!(plan.num_replicas() >= 2);

    let combined = plan.combined_placement();
    let topology = Topology::plan(&profile, &combined, true).unwrap();
    let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
    let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
    let config = SimulationConfig::offline(600.0).with_warmup(0.0);
    let metrics = SimSession::new(sim, config)
        .serve(&burst(40))
        .metrics
        .overall;
    assert!(metrics.decode_throughput() > 0.0);
}
