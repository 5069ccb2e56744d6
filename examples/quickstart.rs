//! Quickstart: plan a placement, build the IWRR scheduler, and serve a small
//! synthetic workload on the paper's 10-node study cluster (4×L4 + 6×T4,
//! LLaMA 30B).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use helix::prelude::*;

fn main() {
    // 1. Cluster + model + analytic profile.
    let profile =
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
    println!(
        "cluster: {} ({} nodes)",
        profile.cluster().name,
        profile.cluster().num_nodes()
    );
    println!(
        "model:   {} ({} layers)",
        profile.model().name,
        profile.model().num_layers
    );
    println!(
        "throughput upper bound: {:.0} tokens/s",
        profile.throughput_upper_bound()
    );

    // 2. Compare heuristic placements with the flow-guided planner.
    let swarm = heuristics::swarm_placement(&profile).expect("swarm placement");
    let petals = heuristics::petals_placement(&profile).expect("petals placement");
    let planner = FlowAnnealingPlanner::new(&profile).with_options(AnnealingOptions {
        iterations: 2000,
        ..Default::default()
    });
    let evaluate = |p: &ModelPlacement| planner.evaluate(p);
    println!("\nplacement throughput (max flow, tokens/s):");
    println!("  swarm placement : {:>8.0}", evaluate(&swarm));
    println!("  petals placement: {:>8.0}", evaluate(&petals));
    let (helix_placement, helix_flow) = planner.solve().expect("helix placement");
    println!("  helix placement : {:>8.0}", helix_flow);

    // 3. Per-node layer assignment of the Helix placement.
    println!("\nhelix placement details:");
    for (node, range) in helix_placement.iter() {
        let name = &profile.cluster().node(node).name;
        println!("  {name:<10} holds layers {range}");
    }

    // 4. Materialise the shared Topology artifact once; the scheduler and
    //    the simulator both consume it.
    let topology =
        Topology::plan(&profile, &helix_placement, true).expect("planned placement is valid");
    let scheduler =
        IwrrScheduler::from_topology(&topology).expect("placement has positive throughput");
    let workload = Workload::azure_like(400, 42).with_arrivals(ArrivalPattern::Offline, 7);
    let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
    // Cap concurrency below the cluster's KV budget: admitting the offline
    // default of 512 conversations at once exceeds the 10-node cluster's
    // aggregate KV capacity and the modelled offload penalty (§5.2) stalls
    // the run.
    let config = SimulationConfig::offline(300.0).with_admission_limit(48);
    let metrics = SimSession::new(sim, config)
        .serve(&workload)
        .metrics
        .overall;

    println!(
        "\nsimulated serving ({} requests, offline):",
        workload.len()
    );
    println!(
        "  decode throughput: {:>8.1} tokens/s",
        metrics.decode_throughput()
    );
    println!(
        "  prompt latency   : {:>8.2} s (mean)",
        metrics.avg_prompt_latency()
    );
    println!(
        "  decode latency   : {:>8.3} s/token (mean)",
        metrics.avg_decode_latency()
    );
    println!(
        "  completed        : {:>8} requests",
        metrics.completed_requests
    );
}
