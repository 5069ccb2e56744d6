//! Conformance suite for the hierarchical (partition → parallel-anneal →
//! refine) fleet planner: thread-count determinism down to the IWRR weights,
//! validity of every pod-partitioned plan, and a quality bound against exact
//! joint annealing at equal move budget.

use helix_cluster::{ClusterBuilder, ClusterSpec, GpuType, ModelConfig, ModelId, Region};
use helix_core::fleet::{
    fleet_profiles, FleetAnnealingOptions, FleetAnnealingPlanner, FleetTopology,
};
use helix_core::{
    Endpoint, HierarchicalFleetPlanner, HierarchicalOptions, IwrrScheduler, PodPartitionOptions,
    PodPartitioner,
};
use proptest::prelude::*;

fn hierarchical_options(
    iterations: usize,
    threads: usize,
    max_pod_size: usize,
) -> HierarchicalOptions {
    HierarchicalOptions {
        pods: PodPartitionOptions {
            max_pod_size,
            ..Default::default()
        },
        annealing: FleetAnnealingOptions {
            iterations,
            ..Default::default()
        },
        threads,
    }
}

/// The planner's fleet objective: equal-weight normalised throughput.
fn objective(profiles: &[helix_cluster::ClusterProfile], flows: &[f64]) -> f64 {
    flows
        .iter()
        .zip(profiles)
        .map(|(&f, p)| f / p.throughput_upper_bound().max(1e-9))
        .sum()
}

/// The hierarchical plan is a pure function of the seed: annealing 8 pods on
/// 1 thread and on 8 threads must agree bit-for-bit all the way down the
/// serving stack — placements, cold-evaluated flows, topology link
/// capacities and flows, and the IWRR scheduling weights derived from them.
#[test]
fn hierarchical_plan_is_bit_identical_across_thread_counts() {
    let profiles = fleet_profiles(
        &ClusterSpec::high_heterogeneity_42(),
        &[ModelConfig::llama_30b(), ModelConfig::llama_13b()],
    );
    let solve = |threads: usize| {
        HierarchicalFleetPlanner::new(&profiles)
            .with_options(hierarchical_options(800, threads, 14))
            .solve()
            .unwrap()
    };
    let one = solve(1);
    let eight = solve(8);

    assert!(!one.used_fallback, "42 nodes must plan hierarchically");
    assert_eq!(one.placement.placements(), eight.placement.placements());
    assert_eq!(one.flows.len(), eight.flows.len());
    for (a, b) in one.flows.iter().zip(&eight.flows) {
        assert_eq!(a.to_bits(), b.to_bits(), "cold flows must be bit-identical");
    }

    let topo_one = FleetTopology::plan(&profiles, &one.placement, true).unwrap();
    let topo_eight = FleetTopology::plan(&profiles, &eight.placement, true).unwrap();
    for (ta, tb) in topo_one.topologies().iter().zip(topo_eight.topologies()) {
        assert_eq!(ta.links().len(), tb.links().len());
        for (la, lb) in ta.links().iter().zip(tb.links()) {
            assert_eq!(la.from, lb.from);
            assert_eq!(la.to, lb.to);
            assert_eq!(la.capacity.to_bits(), lb.capacity.to_bits());
            assert_eq!(la.flow.to_bits(), lb.flow.to_bits());
        }

        // And the scheduler weights derived from the flows.
        let ep_node = |e: Endpoint| match e {
            Endpoint::Coordinator => None,
            Endpoint::Node(id) => Some(id),
        };
        let sched_a = IwrrScheduler::from_topology(ta).unwrap();
        let sched_b = IwrrScheduler::from_topology(tb).unwrap();
        for link in ta.links() {
            let Some(to) = ep_node(link.to) else { continue };
            let (Some(wa), Some(wb)) = (
                sched_a.weight(ep_node(link.from), to),
                sched_b.weight(ep_node(link.from), to),
            ) else {
                continue;
            };
            assert_eq!(wa.to_bits(), wb.to_bits(), "IWRR weights must agree");
        }
    }
}

/// Equal-budget quality bound (paper §4.5): on the 24- and 42-node fixtures
/// the hierarchical plan must reach at least 95% of exact joint annealing's
/// normalised fleet throughput.
#[test]
fn hierarchical_quality_within_5_percent_of_joint_annealing() {
    let fixtures: [(ClusterSpec, usize); 2] = [
        (ClusterSpec::single_cluster_24(), 12),
        (ClusterSpec::high_heterogeneity_42(), 14),
    ];
    let models = [ModelConfig::llama_30b(), ModelConfig::llama_13b()];
    let budget = 3000;
    for (cluster, max_pod_size) in fixtures {
        let name = cluster.name.clone();
        let profiles = fleet_profiles(&cluster, &models);

        let (joint_placement, joint_flows) = FleetAnnealingPlanner::new(&profiles)
            .with_options(FleetAnnealingOptions {
                iterations: budget,
                ..Default::default()
            })
            .solve()
            .unwrap();
        let joint = objective(&profiles, &joint_flows);

        let plan = HierarchicalFleetPlanner::new(&profiles)
            .with_options(hierarchical_options(budget, 0, max_pod_size))
            .solve()
            .unwrap();
        let hierarchical = objective(&profiles, &plan.flows);

        assert!(
            hierarchical >= 0.95 * joint,
            "{name}: hierarchical objective {hierarchical:.4} fell below 95% of \
             joint {joint:.4}"
        );
        let _ = joint_placement;
    }
}

/// Builds a multi-region heterogeneous cluster from proptest-drawn sizes.
fn random_cluster(regions: &[(usize, usize, usize)]) -> ClusterSpec {
    let mut builder = ClusterBuilder::new("prop-hier")
        .intra_region(5_000.0, 1.0)
        .inter_region(200.0, 30.0);
    for (r, &(a100s, l4s, t4s)) in regions.iter().enumerate() {
        let region = Region(r as u32);
        builder = builder
            .add_nodes(GpuType::A100_40, a100s, 1, region)
            .add_nodes(GpuType::L4, l4s, 1, region)
            .add_nodes(GpuType::T4, t4s, 1, region);
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every successful pod partition is a valid plan skeleton: pods cover
    /// the cluster exactly once, every model owns at least one pod, and
    /// every pod's VRAM can hold its model outright.
    #[test]
    fn pod_partitions_are_always_valid(
        regions in prop::collection::vec((1usize..3, 2usize..5, 2usize..6), 2..4),
        max_pod_size in 6usize..16,
    ) {
        let cluster = random_cluster(&regions);
        let models = [ModelConfig::llama_30b(), ModelConfig::llama_13b()];
        let profiles = fleet_profiles(&cluster, &models);
        let result = PodPartitioner::new(&profiles)
            .with_options(PodPartitionOptions { max_pod_size, ..Default::default() })
            .partition();
        let Ok(map) = result else { return Ok(()); };

        let mut seen = vec![false; cluster.num_nodes()];
        for pod in map.pods() {
            let m = pod.model.index();
            let capacity: usize = pod
                .nodes
                .iter()
                .map(|&id| profiles[m].node_profile(id).max_layers)
                .sum();
            prop_assert!(capacity >= profiles[m].model().num_layers);
            for &id in &pod.nodes {
                prop_assert!(!seen[id.index()], "node in two pods");
                seen[id.index()] = true;
                prop_assert_eq!(map.pod_of(id), Some(pod.id));
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        for m in 0..models.len() {
            prop_assert!(map.pods_for(ModelId(m)).count() >= 1);
        }
    }

    /// Every hierarchical plan that solves is fully valid: per-node VRAM
    /// limits respected ([`FleetPlacement::validate`]), every model's
    /// pipeline complete from layer 0 to its last layer (no orphan layers),
    /// and every model serving positive throughput.
    #[test]
    fn hierarchical_plans_are_always_valid(
        regions in prop::collection::vec((1usize..2, 2usize..4, 2usize..5), 2..4),
        seed in 0u64..1000,
    ) {
        let cluster = random_cluster(&regions);
        let models = [ModelConfig::llama_30b(), ModelConfig::llama_13b()];
        let profiles = fleet_profiles(&cluster, &models);
        let planner = HierarchicalFleetPlanner::new(&profiles).with_options(HierarchicalOptions {
            pods: PodPartitionOptions { max_pod_size: 8, ..Default::default() },
            annealing: FleetAnnealingOptions {
                iterations: 150,
                seed,
                ..Default::default()
            },
            threads: 2,
        });
        let Ok(plan) = planner.solve() else { return Ok(()); };

        prop_assert!(plan.placement.validate(&profiles).is_ok());
        for (m, placement) in plan.placement.placements().iter().enumerate() {
            let num_layers = profiles[m].model().num_layers;
            prop_assert!(
                placement.has_complete_pipeline(num_layers),
                "model {} placement leaves orphan layers", m
            );
            prop_assert!(plan.flows[m] > 0.0);
        }
    }
}
