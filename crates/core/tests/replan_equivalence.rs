//! Property test: online re-planning is exact.
//!
//! For any valid sequence of placement deltas and observation snapshots,
//! [`FleetTopology::replan`] — one `plan_observed` of the mutated placement
//! on the standing fleet, plus the set of models the change affects — must
//! produce node capacities, flows, KV capacities, link capacities, link
//! splits and IWRR weights **bit-identical** to a from-scratch
//! [`FleetTopology::plan_observed`] of the mutated placement under the same
//! observations: resolving a delta against the standing placement, and
//! chaining several re-plans, may not drift from planning the result anew.

use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig, ModelId, NodeId};
use helix_core::fleet::{fleet_profiles, FleetPlacement, FleetTopology};
use helix_core::{
    IwrrScheduler, LayerRange, NodeObservations, PlacementDelta, ReplanOutcome, Topology,
};
use proptest::prelude::*;

fn profiles() -> Vec<ClusterProfile> {
    fleet_profiles(
        &ClusterSpec::solver_quality_10(),
        &[ModelConfig::llama_13b(), ModelConfig::llama_13b()],
    )
}

/// A half-size chain placement both models can share node-for-node; the
/// overlap exercises multi-tenant compute/KV shares *and* cross-model link
/// splitting on every re-plan.
fn half_chain(profiles: &[ClusterProfile]) -> FleetPlacement {
    let cluster = profiles[0].cluster();
    let mut placement = helix_core::ModelPlacement::empty(cluster.num_nodes());
    let num_layers = profiles[0].model().num_layers;
    let mut start = 0usize;
    for id in cluster.node_ids() {
        if start >= num_layers {
            break;
        }
        let take = (profiles[0].node_profile(id).max_layers / 2).min(num_layers - start);
        if take == 0 {
            continue;
        }
        placement.assign(id, LayerRange::new(start, start + take));
        start += take;
    }
    assert!(placement.has_complete_pipeline(num_layers));
    FleetPlacement::new(vec![placement.clone(), placement])
}

/// Turns raw proptest picks into a delta that keeps the fleet placement
/// valid move-by-move (invalid picks are skipped), returning the delta and
/// the mutated placement it produces.
fn valid_delta(
    profiles: &[ClusterProfile],
    base: &FleetPlacement,
    moves: &[(usize, usize, usize, usize, bool)],
) -> (PlacementDelta, FleetPlacement) {
    let cluster = profiles[0].cluster();
    let nodes: Vec<NodeId> = cluster.node_ids().collect();
    let num_layers = profiles[0].model().num_layers;
    let mut delta = PlacementDelta::new();
    let mut placements = base.placements().to_vec();
    for &(model_pick, node_pick, start_pick, len_pick, remove) in moves {
        let m = model_pick % profiles.len();
        let node = nodes[node_pick % nodes.len()];
        let mut candidate = placements.clone();
        let change = if remove {
            candidate[m].clear(node);
            None
        } else {
            let max_layers = profiles[m].node_profile(node).max_layers.min(num_layers);
            if max_layers == 0 {
                continue;
            }
            let len = 1 + len_pick % max_layers;
            let start = start_pick % (num_layers - len + 1);
            let range = LayerRange::new(start, start + len);
            candidate[m].assign(node, range);
            Some(range)
        };
        let fleet_candidate = FleetPlacement::new(candidate);
        if fleet_candidate.validate(profiles).is_err() {
            continue;
        }
        placements = fleet_candidate.placements().to_vec();
        delta = match change {
            Some(range) => delta.assign(ModelId(m), node, range),
            None => delta.remove(ModelId(m), node),
        };
    }
    (delta, FleetPlacement::new(placements))
}

fn observations(
    picks: &[(usize, usize, u8)],
    num_nodes: usize,
    num_models: usize,
) -> NodeObservations {
    let mut observed = NodeObservations::new();
    for &(node_pick, model_pick, speed_pick) in picks {
        let speed = 0.2 + 0.8 * f64::from(speed_pick % 9) / 8.0;
        observed.record(
            NodeId(node_pick % num_nodes),
            ModelId(model_pick % num_models),
            100.0,
            speed,
            0.9,
        );
    }
    observed
}

/// Asserts two fleet plans are bit-identical across every surface a
/// downstream consumer reads.
fn assert_fleets_identical(replanned: &FleetTopology, scratch: &FleetTopology) {
    assert_eq!(replanned.num_models(), scratch.num_models());
    let cluster_nodes: Vec<NodeId> = replanned.profiles()[0].cluster().node_ids().collect();
    for m in 0..replanned.num_models() {
        let model = ModelId(m);
        let a: &Topology = replanned.model(model).unwrap();
        let b: &Topology = scratch.model(model).unwrap();
        assert_eq!(a.flow_value(), b.flow_value(), "model {m} flow value");
        assert_eq!(a.num_pipelines(), b.num_pipelines());
        assert_eq!(a.placement(), b.placement());
        let a_nodes: Vec<_> = a.nodes().collect();
        let b_nodes: Vec<_> = b.nodes().collect();
        assert_eq!(a_nodes.len(), b_nodes.len());
        for (x, y) in a_nodes.iter().zip(&b_nodes) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.layers, y.layers);
            assert_eq!(x.capacity, y.capacity, "node {:?} capacity", x.node);
            assert_eq!(x.flow, y.flow, "node {:?} flow", x.node);
            assert_eq!(x.kv_capacity_tokens, y.kv_capacity_tokens);
        }
        assert_eq!(a.links().len(), b.links().len());
        for (x, y) in a.links().iter().zip(b.links()) {
            assert_eq!(x.from, y.from);
            assert_eq!(x.to, y.to);
            assert_eq!(x.capacity, y.capacity, "link {:?}→{:?}", x.from, x.to);
            assert_eq!(x.flow, y.flow, "link {:?}→{:?} flow", x.from, x.to);
        }
        // Shares (and therefore the scaled profiles planning ran on).
        for &node in &cluster_nodes {
            assert_eq!(
                replanned.compute_share(model, node),
                scratch.compute_share(model, node),
                "compute share of {node:?}"
            );
            for &to in &cluster_nodes {
                assert_eq!(
                    replanned.link_share(model, node, to),
                    scratch.link_share(model, node, to)
                );
            }
        }
        // IWRR weights come straight from the link flows; build both
        // schedulers to confirm the scheduling surface agrees too.
        let wa = IwrrScheduler::from_topology(a).unwrap();
        let wb = IwrrScheduler::from_topology(b).unwrap();
        for n in a.nodes() {
            for other in a.nodes() {
                assert_eq!(
                    wa.weight(Some(n.node), other.node),
                    wb.weight(Some(n.node), other.node)
                );
            }
            assert_eq!(wa.weight(None, n.node), wb.weight(None, n.node));
        }
    }
}

/// Asserts the outcome reports, per affected model, exactly the flow value
/// of the topology the re-plan materialised.
fn assert_outcome_reports_planned_flows(outcome: &ReplanOutcome, fleet: &FleetTopology) {
    assert_eq!(outcome.warm_flow_values.len(), outcome.affected.len());
    for (&model, value) in outcome.affected.iter().zip(&outcome.warm_flow_values) {
        assert_eq!(
            value.to_bits(),
            fleet.model(model).unwrap().flow_value().to_bits(),
            "reported flow of {model:?}"
        );
    }
}

/// Builds a migration delta from raw proptest picks: each pick tries to move
/// the prefix or suffix half of some assigned range onto the chain-adjacent
/// node (skipping picks the placement cannot absorb), returning the delta
/// and the placement it resolves to.
fn valid_migration_delta(
    profiles: &[ClusterProfile],
    base: &FleetPlacement,
    picks: &[(usize, usize, bool)],
) -> (PlacementDelta, FleetPlacement) {
    let mut delta = PlacementDelta::new();
    let mut placements = base.placements().to_vec();
    for &(model_pick, node_pick, suffix) in picks {
        let m = model_pick % profiles.len();
        let assigned: Vec<(NodeId, LayerRange)> = placements[m].iter().collect();
        if assigned.len() < 2 {
            continue;
        }
        let i = node_pick % (assigned.len() - 1);
        // Move between chain neighbours so the destination merge stays
        // contiguous: suffix of i onto i+1, or prefix of i+1 onto i.
        let (from, to, moved) = if suffix {
            let (from, range) = assigned[i];
            if range.len() < 2 {
                continue;
            }
            let mid = range.start + range.len() / 2;
            (from, assigned[i + 1].0, LayerRange::new(mid, range.end))
        } else {
            let (from, range) = assigned[i + 1];
            if range.len() < 2 {
                continue;
            }
            let mid = range.start + range.len() / 2;
            (from, assigned[i].0, LayerRange::new(range.start, mid))
        };
        let candidate_delta = PlacementDelta::new().migrate(ModelId(m), from, to, moved);
        let Ok(resolved) = candidate_delta.resolve(&FleetPlacement::new(placements.clone())) else {
            continue;
        };
        let mut candidate = placements.clone();
        for &(model, node, range) in &resolved {
            match range {
                Some(r) => candidate[model.index()].assign(node, r),
                None => candidate[model.index()].clear(node),
            }
        }
        let fleet_candidate = FleetPlacement::new(candidate);
        if fleet_candidate.validate(profiles).is_err()
            || !fleet_candidate.placements()[m]
                .has_complete_pipeline(profiles[m].model().num_layers)
        {
            continue;
        }
        placements = fleet_candidate.placements().to_vec();
        delta = delta.migrate(ModelId(m), from, to, moved);
    }
    (delta, FleetPlacement::new(placements))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn replan_is_bit_identical_to_a_cold_plan_of_the_mutated_placement(
        moves in prop::collection::vec(
            (0usize..2, 0usize..32, 0usize..64, 0usize..16, prop::bool::ANY),
            0..8,
        ),
        obs_picks in prop::collection::vec((0usize..32, 0usize..2, 0u8..=255), 0..6),
        second_obs_picks in prop::collection::vec((0usize..32, 0usize..2, 0u8..=255), 0..4),
    ) {
        let profiles = profiles();
        let base = half_chain(&profiles);
        let mut fleet = FleetTopology::plan(&profiles, &base, true).unwrap();
        let n = profiles[0].cluster().num_nodes();

        // First re-plan: a delta plus an observation snapshot.
        let (delta, mutated) = valid_delta(&profiles, &base, &moves);
        let observed = observations(&obs_picks, n, 2);
        let outcome = fleet.replan(&delta, &observed).unwrap();
        assert_outcome_reports_planned_flows(&outcome, &fleet);
        prop_assert_eq!(fleet.placement(), &mutated);
        let scratch = FleetTopology::plan_observed(&profiles, &mutated, true, &observed).unwrap();
        assert_fleets_identical(&fleet, &scratch);

        // Second re-plan from the already-replanned state (the cached
        // shares must not drift): new observations, no placement change.
        let observed2 = observations(&second_obs_picks, n, 2);
        let outcome2 = fleet.replan(&PlacementDelta::new(), &observed2).unwrap();
        assert_outcome_reports_planned_flows(&outcome2, &fleet);
        let scratch2 =
            FleetTopology::plan_observed(&profiles, &mutated, true, &observed2).unwrap();
        assert_fleets_identical(&fleet, &scratch2);
    }

    /// The migration half of the bit-identity contract: a layer-range
    /// migration delta (including chained migrations over the already-moved
    /// placement) replans bit-identically — capacities, flows, KV budgets,
    /// link splits, IWRR weights — to `plan_observed` of the placement the
    /// migrations resolve to.
    #[test]
    fn migration_replan_is_bit_identical_to_a_cold_plan(
        picks in prop::collection::vec((0usize..2, 0usize..16, prop::bool::ANY), 1..5),
        second_picks in prop::collection::vec((0usize..2, 0usize..16, prop::bool::ANY), 0..3),
        obs_picks in prop::collection::vec((0usize..32, 0usize..2, 0u8..=255), 0..4),
    ) {
        let profiles = profiles();
        let base = half_chain(&profiles);
        let mut fleet = FleetTopology::plan(&profiles, &base, true).unwrap();
        let n = profiles[0].cluster().num_nodes();

        // First re-plan: one or more migrations plus an observation snapshot.
        let (delta, mutated) = valid_migration_delta(&profiles, &base, &picks);
        let observed = observations(&obs_picks, n, 2);
        let outcome = fleet.replan(&delta, &observed).unwrap();
        assert_outcome_reports_planned_flows(&outcome, &fleet);
        prop_assert_eq!(fleet.placement(), &mutated);
        prop_assert_eq!(outcome.migrations.len(), delta.migrations().len());
        let scratch = FleetTopology::plan_observed(&profiles, &mutated, true, &observed).unwrap();
        assert_fleets_identical(&fleet, &scratch);

        // Chained migrations: a second migration delta resolved against the
        // *already migrated* placement must not drift either.
        let (delta2, mutated2) = valid_migration_delta(&profiles, &mutated, &second_picks);
        let outcome2 = fleet.replan(&delta2, &observed).unwrap();
        assert_outcome_reports_planned_flows(&outcome2, &fleet);
        prop_assert_eq!(fleet.placement(), &mutated2);
        let scratch2 =
            FleetTopology::plan_observed(&profiles, &mutated2, true, &observed).unwrap();
        assert_fleets_identical(&fleet, &scratch2);
    }
}

/// The minimality half of the acceptance criterion: a single-node delta on a
/// *disjoint* fleet re-solves only the model owning the node.
#[test]
fn single_node_delta_resolves_only_the_owning_model() {
    let profiles = fleet_profiles(
        &ClusterSpec::single_cluster_24(),
        &[ModelConfig::llama_30b(), ModelConfig::llama_13b()],
    );
    let planner = helix_core::FleetAnnealingPlanner::new(&profiles).with_options(
        helix_core::FleetAnnealingOptions {
            iterations: 300,
            ..Default::default()
        },
    );
    let (placement, _) = planner.solve().unwrap();
    let mut fleet = FleetTopology::plan(&profiles, &placement, true).unwrap();
    let untouched_before = fleet.model(ModelId(0)).unwrap().clone();

    // Shrink one of model 1's layer ranges by one layer (keeping validity).
    let (node, range) = placement.placements()[1]
        .iter()
        .find(|(node, range)| {
            range.len() > 1 && {
                let mut mutated = placement.placements()[1].clone();
                mutated.assign(*node, LayerRange::new(range.start, range.end - 1));
                mutated.has_complete_pipeline(profiles[1].model().num_layers)
                    && mutated.validate(&profiles[1]).is_ok()
            }
        })
        .expect("some range is shrinkable");
    let delta = PlacementDelta::new().assign(
        ModelId(1),
        node,
        LayerRange::new(range.start, range.end - 1),
    );
    let outcome = fleet.replan(&delta, &NodeObservations::new()).unwrap();

    assert_eq!(
        outcome.affected,
        vec![ModelId(1)],
        "only the owner re-solves"
    );
    assert_eq!(outcome.warm_flow_values.len(), 1);
    // Model 0 was not re-planned: its topology is bit-identical to before.
    let untouched = fleet.model(ModelId(0)).unwrap();
    assert_eq!(
        untouched.flow_value().to_bits(),
        untouched_before.flow_value().to_bits()
    );
    assert!(untouched.nodes().eq(untouched_before.nodes()));
    assert_eq!(untouched.links(), untouched_before.links());
    // And the result still equals the cold plan of the mutated placement.
    let mut mutated = placement.placements().to_vec();
    mutated[1].assign(node, LayerRange::new(range.start, range.end - 1));
    let scratch = FleetTopology::plan(&profiles, &FleetPlacement::new(mutated), true).unwrap();
    assert_fleets_identical(&fleet, &scratch);
}
