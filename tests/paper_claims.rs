//! Integration tests checking the paper's qualitative claims at reduced
//! scale: who wins, in which direction, and by roughly how much.

use helix::prelude::*;

fn evaluate_flow(profile: &ClusterProfile, placement: &ModelPlacement) -> f64 {
    FlowGraphBuilder::new(profile)
        .build(placement)
        .map(|g| g.max_flow().value)
        .unwrap_or(0.0)
}

#[test]
fn fig2_max_flow_equals_serving_bottleneck() {
    // The Fig. 2 example: only T4-2 holds the last layer, so the cluster
    // throughput is capped by what can reach and pass through T4-2.
    let mut model = ModelConfig::llama2_70b();
    model.num_layers = 3;
    let profile = ClusterProfile::analytic(ClusterSpec::fig2_example(), model);
    let mut placement = ModelPlacement::empty(3);
    placement.assign(NodeId(0), LayerRange::new(0, 2));
    placement.assign(NodeId(1), LayerRange::new(0, 1));
    placement.assign(NodeId(2), LayerRange::new(2, 3));
    let graph = FlowGraphBuilder::new(&profile).build(&placement).unwrap();
    let flow = graph.max_flow();
    assert!(flow.value > 0.0);
    // All serving flow passes through T4-2 (node 2).
    let through_t42 = graph.node_flow(&flow, NodeId(2)).unwrap();
    assert!((through_t42 - flow.value).abs() < 1e-6);
    // The bottleneck (min cut) capacity matches, certifying optimality.
    let cut = graph.bottleneck(&flow);
    assert!((cut.capacity - flow.value).abs() < 1e-6);
}

#[test]
fn helix_placement_dominates_heuristics_on_both_paper_clusters() {
    // §6.6: Helix's placement achieves higher max-flow throughput than Swarm
    // and Petals placements on the single cluster and the geo-distributed
    // clusters.
    for (cluster, model) in [
        (ClusterSpec::single_cluster_24(), ModelConfig::llama2_70b()),
        (ClusterSpec::geo_distributed_24(), ModelConfig::llama2_70b()),
    ] {
        let profile = ClusterProfile::analytic(cluster, model);
        let swarm = evaluate_flow(&profile, &heuristics::swarm_placement(&profile).unwrap());
        let petals = evaluate_flow(&profile, &heuristics::petals_placement(&profile).unwrap());
        let planner = FlowAnnealingPlanner::new(&profile).with_options(AnnealingOptions {
            iterations: 1500,
            ..Default::default()
        });
        let (_, helix_flow) = planner.solve().unwrap();
        assert!(
            helix_flow >= swarm * 1.2,
            "{}: helix {} should clearly beat swarm {}",
            profile.cluster().name,
            helix_flow,
            swarm
        );
        assert!(
            helix_flow >= petals,
            "{}: helix {} should be at least as good as petals {}",
            profile.cluster().name,
            helix_flow,
            petals
        );
    }
}

#[test]
fn partial_inference_never_hurts_throughput() {
    // §4.4: allowing partial inference only adds valid connections, so the
    // max flow of any placement can only grow.
    let profile =
        ClusterProfile::analytic(ClusterSpec::single_cluster_24(), ModelConfig::llama2_70b());
    for placement in [
        heuristics::swarm_placement(&profile).unwrap(),
        heuristics::petals_placement(&profile).unwrap(),
    ] {
        let with = FlowGraphBuilder::new(&profile)
            .partial_inference(true)
            .build(&placement)
            .unwrap()
            .max_flow()
            .value;
        let without = FlowGraphBuilder::new(&profile)
            .partial_inference(false)
            .build(&placement)
            .unwrap()
            .max_flow()
            .value;
        assert!(with >= without - 1e-6);
    }
}

#[test]
fn cluster_pruning_shrinks_the_milp_without_losing_much_throughput() {
    // §4.5 / §6.8: pruning to a bounded degree reduces problem size while the
    // achievable throughput stays close to the unpruned one.
    let profile =
        ClusterProfile::analytic(ClusterSpec::single_cluster_24(), ModelConfig::llama2_70b());
    let full_size = MilpPlacementPlanner::new(&profile).problem_size();
    let pruned_size = MilpPlacementPlanner::new(&profile)
        .prune_to_degree(12)
        .problem_size();
    assert!(pruned_size.0 < full_size.0 && pruned_size.1 < full_size.1);

    let placement = heuristics::petals_placement(&profile).unwrap();
    let full_flow = FlowGraphBuilder::new(&profile)
        .build(&placement)
        .unwrap()
        .max_flow()
        .value;
    let pruned_flow = FlowGraphBuilder::new(&profile)
        .prune_to_degree(12)
        .build(&placement)
        .unwrap()
        .max_flow()
        .value;
    assert!(
        pruned_flow >= full_flow * 0.8,
        "pruned {pruned_flow} vs full {full_flow}"
    );
}

#[test]
fn upper_bound_is_respected_by_every_planner() {
    // §4.5: the cluster throughput can never exceed the sum of per-node
    // compute divided by the number of layers; all planners respect it.
    for cluster in [
        ClusterSpec::solver_quality_10(),
        ClusterSpec::single_cluster_24(),
        ClusterSpec::high_heterogeneity_42(),
    ] {
        let profile = ClusterProfile::analytic(cluster, ModelConfig::llama_30b());
        let bound = profile.throughput_upper_bound();
        for placement in [
            heuristics::swarm_placement(&profile).ok(),
            heuristics::petals_placement(&profile).ok(),
            heuristics::separate_pipelines_placement(&profile).ok(),
        ]
        .into_iter()
        .flatten()
        {
            let flow = evaluate_flow(&profile, &placement);
            assert!(
                flow <= bound * 1.0001,
                "{}: {flow} > bound {bound}",
                profile.cluster().name
            );
        }
    }
}

#[test]
fn table1_reproduces_min_gpu_counts() {
    // Table 1 of the paper, allowing a one-GPU slack since our parameter
    // counts are analytic rather than published totals.
    let rows: [(ModelConfig, usize, usize, usize); 4] = [
        (ModelConfig::llama2_70b(), 12, 7, 4),
        (ModelConfig::gpt3_175b(), 30, 18, 9),
        (ModelConfig::grok1_314b(), 53, 32, 16),
        (ModelConfig::llama3_405b(), 68, 41, 21),
    ];
    for (model, l4, a100, h100) in rows {
        let close = |got: usize, want: usize| got.abs_diff(want) <= 2;
        assert!(
            close(model.min_gpus(24.0, 0.5), l4),
            "{} L4 count",
            model.name
        );
        assert!(
            close(model.min_gpus(40.0, 0.5), a100),
            "{} A100 count",
            model.name
        );
        assert!(
            close(model.min_gpus(80.0, 0.5), h100),
            "{} H100 count",
            model.name
        );
    }
}

#[test]
fn iwrr_scheduling_avoids_congestion_better_than_random() {
    // §6.7 at small scale: with the same placement, IWRR should not produce
    // more link congestion than random scheduling on the geo-distributed
    // cluster.
    let profile =
        ClusterProfile::analytic(ClusterSpec::geo_distributed_24(), ModelConfig::llama_30b());
    let planner = FlowAnnealingPlanner::new(&profile).with_options(AnnealingOptions {
        iterations: 500,
        ..Default::default()
    });
    let (placement, _) = planner.solve().unwrap();
    let workload = AzureTraceConfig {
        mean_input_tokens: 96.0,
        mean_output_tokens: 16.0,
        max_input_tokens: 256,
        max_output_tokens: 32,
    }
    .generate(60, 5)
    .with_arrivals(ArrivalPattern::Offline, 6);

    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let congestion = |scheduler: Box<dyn Scheduler>| {
        let mut sim = ClusterSimulator::new(&topology, scheduler);
        let metrics = sim.run(&workload, SimulationConfig::offline(150.0).with_warmup(0.0));
        metrics
            .most_congested_links(1)
            .first()
            .map(|l| l.mean_queue_delay)
            .unwrap_or(0.0)
    };
    let iwrr = congestion(Box::new(IwrrScheduler::from_topology(&topology).unwrap()));
    let random = congestion(Box::new(RandomScheduler::new(&topology, 23)));
    assert!(
        iwrr <= random * 1.5 + 0.05,
        "iwrr congestion {iwrr} should not exceed random {random} by much"
    );
}
