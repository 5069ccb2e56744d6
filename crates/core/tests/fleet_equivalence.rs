//! Property test: a single-model fleet is the trivial N=1 case.
//!
//! For any valid placement, planning it through [`FleetTopology`] with one
//! model must produce node capacities, KV capacities, link capacities, flows
//! and IWRR weights **bit-identical** to the existing single-model
//! [`Topology`] path — the fleet generalisation may not perturb the
//! single-model pipeline at all.

use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig, ModelId};
use helix_core::fleet::{FleetPlacement, FleetScheduler, FleetTopology};
use helix_core::{heuristics, IdleClusterState, IwrrScheduler, LayerRange, Topology};
use proptest::prelude::*;

fn profile() -> ClusterProfile {
    ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b())
}

/// Applies `moves` random-but-valid single-node perturbations to a heuristic
/// placement, keeping it valid (complete pipeline) after every step.
fn perturbed_placement(
    profile: &ClusterProfile,
    seed_choice: bool,
    moves: &[(usize, usize, usize)],
) -> helix_core::ModelPlacement {
    let mut placement = if seed_choice {
        heuristics::swarm_placement(profile).unwrap()
    } else {
        heuristics::petals_placement(profile).unwrap()
    };
    let num_layers = profile.model().num_layers;
    let nodes: Vec<_> = profile.cluster().node_ids().collect();
    for &(node_pick, start_pick, len_pick) in moves {
        let node = nodes[node_pick % nodes.len()];
        let max_layers = profile.node_profile(node).max_layers.min(num_layers);
        if max_layers == 0 {
            continue;
        }
        let len = 1 + len_pick % max_layers;
        let start = start_pick % (num_layers - len + 1);
        let previous = placement.range(node);
        placement.assign(node, LayerRange::new(start, start + len));
        if !placement.has_complete_pipeline(num_layers) {
            // Keep the placement valid so both paths plan successfully.
            match previous {
                Some(r) => placement.assign(node, r),
                None => placement.clear(node),
            }
        }
    }
    placement
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn single_model_fleet_is_bit_identical_to_topology(
        seed_choice in prop::bool::ANY,
        moves in prop::collection::vec((0usize..32, 0usize..64, 0usize..16), 0..12),
    ) {
        let profile = profile();
        let placement = perturbed_placement(&profile, seed_choice, &moves);

        let single = Topology::plan(&profile, &placement, true).unwrap();
        let profiles = vec![profile.clone()];
        let fleet = FleetTopology::plan(
            &profiles,
            &FleetPlacement::new(vec![placement.clone()]),
            true,
        )
        .unwrap();
        prop_assert_eq!(fleet.num_models(), 1);
        let fleet_topo = fleet.model(ModelId(0)).unwrap();

        // Flow value, pipeline count and placement agree exactly.
        prop_assert_eq!(fleet_topo.flow_value(), single.flow_value());
        prop_assert_eq!(fleet_topo.num_pipelines(), single.num_pipelines());
        prop_assert_eq!(fleet_topo.placement(), single.placement());

        // Node capacities, flows and KV capacities are bit-identical.
        let fleet_nodes: Vec<_> = fleet_topo.nodes().collect();
        let single_nodes: Vec<_> = single.nodes().collect();
        prop_assert_eq!(fleet_nodes.len(), single_nodes.len());
        for (f, s) in fleet_nodes.iter().zip(&single_nodes) {
            prop_assert_eq!(f.node, s.node);
            prop_assert_eq!(f.layers, s.layers);
            prop_assert_eq!(f.capacity, s.capacity);
            prop_assert_eq!(f.flow, s.flow);
            prop_assert_eq!(f.kv_capacity_tokens, s.kv_capacity_tokens);
        }

        // Links (and therefore IWRR weights) are bit-identical.
        prop_assert_eq!(fleet_topo.links().len(), single.links().len());
        for (f, s) in fleet_topo.links().iter().zip(single.links()) {
            prop_assert_eq!(f.from, s.from);
            prop_assert_eq!(f.to, s.to);
            prop_assert_eq!(f.capacity, s.capacity);
            prop_assert_eq!(f.flow, s.flow);
        }

        // The per-model IWRR scheduler carries identical weights and emits
        // identical pipelines.
        let mut single_scheduler = IwrrScheduler::from_topology(&single).unwrap();
        let mut fleet_scheduler = FleetScheduler::iwrr(&fleet).unwrap().into_parts().remove(0);
        for n in single.nodes() {
            for link in single.outgoing_flows(helix_core::Endpoint::Node(n.node)) {
                let w = link.flow;
                if let helix_core::Endpoint::Node(to) = link.to {
                    prop_assert_eq!(
                        IwrrScheduler::from_topology(fleet_topo).unwrap().weight(Some(n.node), to),
                        if w > 0.0 { Some(w) } else { None }
                    );
                }
            }
        }
        let state = IdleClusterState;
        for _ in 0..12 {
            let expected = helix_core::Scheduler::schedule(&mut single_scheduler, &state).unwrap();
            let got = fleet_scheduler.schedule(&state).unwrap();
            prop_assert_eq!(got, expected);
        }
    }
}
