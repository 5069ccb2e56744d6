//! End-to-end integration tests spanning all workspace crates:
//! profile → placement planning → max-flow → IWRR scheduling → simulation.

use helix::prelude::*;

/// A small fast workload for integration tests (short prompts/outputs so the
/// debug-mode simulator stays quick).
fn tiny_workload(n: usize, seed: u64) -> Workload {
    AzureTraceConfig {
        mean_input_tokens: 96.0,
        mean_output_tokens: 24.0,
        max_input_tokens: 384,
        max_output_tokens: 48,
    }
    .generate(n, seed)
    .with_arrivals(ArrivalPattern::Offline, seed + 1)
}

fn study_profile() -> ClusterProfile {
    ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b())
}

#[test]
fn full_stack_helix_pipeline_produces_consistent_metrics() {
    let profile = study_profile();
    let planner = FlowAnnealingPlanner::new(&profile).with_options(AnnealingOptions {
        iterations: 600,
        ..Default::default()
    });
    let (placement, planned_flow) = planner.solve().expect("planner finds a placement");
    placement.validate(&profile).expect("placement is valid");
    assert!(planned_flow > 0.0);
    assert!(planned_flow <= profile.throughput_upper_bound() * 1.0001);

    // The shared Topology artifact agrees with the planner's reported
    // throughput.
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    assert!((topology.flow_value() - planned_flow).abs() < 1e-6 * planned_flow.max(1.0));

    // The scheduler generates pipelines that cover the model and respect the
    // placement's valid connections.
    let mut scheduler = IwrrScheduler::from_topology(&topology).unwrap();
    let state = helix::core::IdleClusterState;
    for _ in 0..50 {
        let pipeline = scheduler.schedule(&state).unwrap();
        assert!(pipeline.covers_model(profile.model().num_layers));
        for stage in &pipeline.stages {
            let held = placement
                .range(stage.node)
                .expect("stage nodes hold layers");
            assert!(held.start <= stage.layers.start && stage.layers.end == held.end);
        }
    }

    // Simulation completes requests and its throughput does not exceed the
    // max-flow bound by more than measurement noise.
    let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
    let workload = tiny_workload(60, 11);
    let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
    let metrics = sim.run(&workload, SimulationConfig::offline(200.0).with_warmup(0.0));
    assert!(metrics.completed_requests > 0);
    assert!(metrics.decode_throughput() > 0.0);
    assert!(
        metrics.decode_throughput() <= profile.throughput_upper_bound() * 1.1,
        "simulated throughput {} exceeds the analytic bound {}",
        metrics.decode_throughput(),
        profile.throughput_upper_bound()
    );
}

#[test]
fn helix_placement_beats_swarm_placement_in_simulation() {
    let profile = study_profile();
    let workload = tiny_workload(80, 3);
    let planner = FlowAnnealingPlanner::new(&profile).with_options(AnnealingOptions {
        iterations: 800,
        ..Default::default()
    });
    let (helix_placement, _) = planner.solve().unwrap();
    let swarm_placement = heuristics::swarm_placement(&profile).unwrap();

    let run = |placement: &ModelPlacement| {
        let topology = Topology::plan(&profile, placement, true).unwrap();
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        sim.run(&workload, SimulationConfig::offline(200.0).with_warmup(0.0))
            .decode_throughput()
    };
    let helix_tps = run(&helix_placement);
    let swarm_tps = run(&swarm_placement);
    // The paper reports roughly 2x over Swarm; at this small scale we only
    // require Helix not to lose.
    assert!(
        helix_tps >= swarm_tps * 0.95,
        "helix {helix_tps} tokens/s should not be worse than swarm {swarm_tps} tokens/s"
    );
}

#[test]
fn milp_planner_and_annealing_agree_on_a_tiny_cluster() {
    // On a tiny cluster with a short model the exact MILP optimum is reachable
    // quickly; the annealing planner should land within a few percent.
    let cluster = ClusterBuilder::new("tiny-3")
        .intra_region(1_000.0, 1.0)
        .add_nodes(GpuType::A100_40, 1, 1, Region(0))
        .add_nodes(GpuType::T4, 2, 1, Region(0))
        .build();
    let mut model = ModelConfig::llama2_70b();
    model.num_layers = 6;
    let profile = ClusterProfile::analytic(cluster, model);

    let mut milp =
        MilpPlacementPlanner::new(&profile).time_limit(std::time::Duration::from_secs(20));
    let (milp_placement, milp_report) = milp.solve().expect("milp solves the tiny cluster");
    milp_placement.validate(&profile).unwrap();

    let annealing = FlowAnnealingPlanner::new(&profile).with_options(AnnealingOptions {
        iterations: 1500,
        ..Default::default()
    });
    let (_, annealing_flow) = annealing.solve().unwrap();

    assert!(milp_report.objective_tokens_per_sec > 0.0);
    let ratio = annealing_flow / milp_report.objective_tokens_per_sec;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "annealing flow {annealing_flow} vs MILP objective {}",
        milp_report.objective_tokens_per_sec
    );
}

#[test]
fn geo_distributed_cluster_prefers_shallower_pipelines() {
    // §6.4: with slow inter-region links Helix chooses placements with fewer
    // pipeline stages than Swarm's equal partitioning.
    let profile =
        ClusterProfile::analytic(ClusterSpec::geo_distributed_24(), ModelConfig::llama2_70b());
    let planner = FlowAnnealingPlanner::new(&profile).with_options(AnnealingOptions {
        iterations: 800,
        ..Default::default()
    });
    let (helix_placement, _) = planner.solve().unwrap();
    let swarm_placement = heuristics::swarm_placement(&profile).unwrap();
    let num_layers = profile.model().num_layers;
    assert!(
        helix_placement.pipeline_depth(num_layers) <= swarm_placement.pipeline_depth(num_layers),
        "helix depth {} should not exceed swarm depth {}",
        helix_placement.pipeline_depth(num_layers),
        swarm_placement.pipeline_depth(num_layers)
    );
}

#[test]
fn kv_cache_estimator_integrates_with_scheduling() {
    let profile = study_profile();
    let placement = heuristics::petals_placement(&profile).unwrap();
    let mut estimator = KvCacheEstimator::new(&profile, 232.0);
    for (node, range) in placement.iter() {
        estimator.set_capacity(node, profile.kv_capacity_tokens(node, range.len()));
    }
    // Simulate scheduling lots of requests onto one entry node until it trips
    // the high-water mark.
    let entry = placement.entry_nodes()[0];
    let mut scheduled = 0u64;
    while !estimator.is_above_high_water(entry, 0.9) {
        estimator.on_scheduled(entry, scheduled, 512);
        scheduled += 1;
        assert!(scheduled < 1_000_000, "capacity should be finite");
    }
    assert!(scheduled > 0);
    // Finishing the requests clears the pressure.
    for id in 0..scheduled {
        estimator.on_finished(entry, id, 64);
    }
    assert!(!estimator.is_above_high_water(entry, 0.9));
}
