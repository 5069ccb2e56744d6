//! Incremental max-flow evaluation of single-node placement moves.
//!
//! The annealing planner's hot loop evaluates thousands of candidate
//! placements that each differ from the current one at **exactly one node**.
//! Rebuilding the flow graph and re-solving max flow from scratch for every
//! candidate — as [`FlowAnnealingPlanner::evaluate`] does — redoes `O(V+E)`
//! allocation and a full preflow-push per iteration.
//!
//! [`IncrementalFlowEvaluator`] instead keeps **one standing
//! [`FlowNetwork`]** containing every node and every candidate connection,
//! with invalid/unassigned edges held at capacity 0.  A single-node move then
//! touches only the edges incident to that node
//! ([`FlowNetwork::set_capacity`]) and re-solves **warm** from the previous
//! flow ([`FlowNetwork::resolve_from_residual`]).
//!
//! Link capacities are clamped to a *placement-independent* bound (the sum of
//! every node's best-case throughput) instead of the per-placement sum the
//! cold builder uses.  Any clamp at least as large as the current sum of node
//! capacities leaves the max-flow value unchanged — every unit of flow
//! crosses a `c_in → c_out` edge and the connection rule keeps the link graph
//! acyclic, so no link can carry more than the node-capacity sum — which is
//! why warm and cold evaluations agree (up to float tolerance) while the
//! standing network never needs re-clamping.
//!
//! [`FlowAnnealingPlanner::evaluate`]: crate::FlowAnnealingPlanner::evaluate

use crate::error::HelixError;
use crate::flow_graph::FlowGraphBuilder;
use crate::placement::{LayerRange, ModelPlacement};
use helix_cluster::{ClusterProfile, NodeId};
use helix_maxflow::{EdgeId, FlowNetwork, MaxFlowAlgorithm, NodeId as FlowNodeId};
use std::collections::HashMap;

/// A standing flow network over the whole candidate edge set, supporting
/// cheap single-node placement moves with warm-started re-solving.
///
/// The evaluator owns a copy of its profile, so it can be stored without
/// borrowing one.
#[derive(Debug, Clone)]
pub struct IncrementalFlowEvaluator {
    profile: ClusterProfile,
    partial_inference: bool,
    algorithm: MaxFlowAlgorithm,
    network: FlowNetwork,
    source: FlowNodeId,
    sink: FlowNodeId,
    /// `c_in → c_out` edge per cluster node (indexed by node index).
    node_edges: Vec<EdgeId>,
    /// `source → c_in` edge per cluster node.
    entry_edges: Vec<EdgeId>,
    /// `c_out → sink` edge per cluster node.
    exit_edges: Vec<EdgeId>,
    /// Raw (unclamped) token capacity of each coordinator edge when valid;
    /// clamped against `link_bound` whenever written into the network.
    entry_caps: Vec<f64>,
    exit_caps: Vec<f64>,
    /// Placement-independent clamp applied to coordinator/link capacities.
    link_bound: f64,
    /// Candidate node→node connections with their edge and raw capacity.
    link_edges: HashMap<(NodeId, NodeId), (EdgeId, f64)>,
    /// Candidate connections incident to each node (both directions),
    /// indexed by node index.
    incident: Vec<Vec<(NodeId, NodeId)>>,
    placement: ModelPlacement,
    value: f64,
    /// Number of warm (incremental) re-solves performed.
    warm_solves: u64,
    /// Single-level undo state captured by the last `assign`; taken by
    /// `restore`, so `Some` means it describes the most recent move.
    undo: Option<UndoState>,
}

/// What `assign` saves beside the network's undo-log so `restore` can roll
/// one move back without solving.
#[derive(Debug, Clone)]
struct UndoState {
    node: NodeId,
    prev_range: Option<LayerRange>,
    value: f64,
}

impl IncrementalFlowEvaluator {
    /// Builds the standing network for `placement` and solves it once.
    ///
    /// `prune_degree` selects the same candidate connection set the cold
    /// builder would use.
    ///
    /// # Errors
    ///
    /// Returns an error if the initial placement is invalid for the profile.
    pub fn new(
        profile: &ClusterProfile,
        placement: &ModelPlacement,
        partial_inference: bool,
        prune_degree: Option<usize>,
        algorithm: MaxFlowAlgorithm,
    ) -> Result<Self, HelixError> {
        let mut builder = FlowGraphBuilder::new(profile).partial_inference(partial_inference);
        if let Some(degree) = prune_degree {
            builder = builder.prune_to_degree(degree);
        }
        let candidates = builder.candidate_connections();
        Self::with_candidates(
            profile,
            placement,
            partial_inference,
            &candidates,
            algorithm,
        )
    }

    /// Like [`IncrementalFlowEvaluator::new`], but over an **explicit**
    /// candidate connection set instead of the builder's (possibly pruned)
    /// all-pairs set.
    ///
    /// This is how the hierarchical planner's refine stage keeps a standing
    /// network over a 1000-node cluster affordable: it passes only pod-local
    /// pairs plus a bounded set of cross-pod pairs, so the arena stays
    /// O(nodes · pod size) instead of O(nodes²).  `candidates` must not
    /// contain duplicates or self-pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if the initial placement is invalid for the profile.
    pub fn with_candidates(
        profile: &ClusterProfile,
        placement: &ModelPlacement,
        partial_inference: bool,
        candidates: &[(NodeId, NodeId)],
        algorithm: MaxFlowAlgorithm,
    ) -> Result<Self, HelixError> {
        placement.validate(profile)?;
        let cluster = profile.cluster();
        let n = cluster.num_nodes();
        let num_layers = profile.model().num_layers;

        // Placement-independent clamp: the sum of best-case node throughputs
        // upper-bounds the node-capacity sum of every placement.
        let global_bound: f64 = cluster
            .node_ids()
            .map(|id| profile.node_profile(id).throughput(1))
            .sum::<f64>()
            .max(1.0);
        let clamp = |cap: f64| cap.min(global_bound);

        let mut network = FlowNetwork::with_capacity(2 * n + 2, n * 3 + candidates.len());
        let source = network.add_node("source");
        let sink = network.add_node("sink");
        let mut vertices = Vec::with_capacity(n);
        for id in cluster.node_ids() {
            let name = &cluster.node(id).name;
            let cin = network.add_node(format!("{name}.in"));
            let cout = network.add_node(format!("{name}.out"));
            vertices.push((cin, cout));
        }

        let mut node_edges = Vec::with_capacity(n);
        let mut entry_edges = Vec::with_capacity(n);
        let mut exit_edges = Vec::with_capacity(n);
        let mut entry_caps = Vec::with_capacity(n);
        let mut exit_caps = Vec::with_capacity(n);
        for id in cluster.node_ids() {
            let (cin, cout) = vertices[id.index()];
            let range = placement.range(id);
            let node_cap = range
                .map(|r| profile.node_profile(id).throughput(r.len()))
                .unwrap_or(0.0);
            node_edges.push(network.add_edge(cin, cout, node_cap));

            let entry_cap = profile.link_profile(None, Some(id)).tokens_per_sec;
            let entry_on = range.map(|r| r.start == 0).unwrap_or(false);
            entry_edges.push(network.add_edge(
                source,
                cin,
                if entry_on { clamp(entry_cap) } else { 0.0 },
            ));
            entry_caps.push(entry_cap);

            let exit_cap = profile.link_profile(Some(id), None).tokens_per_sec;
            let exit_on = range.map(|r| r.end == num_layers).unwrap_or(false);
            exit_edges.push(network.add_edge(
                cout,
                sink,
                if exit_on { clamp(exit_cap) } else { 0.0 },
            ));
            exit_caps.push(exit_cap);
        }

        let mut link_edges = HashMap::with_capacity(candidates.len());
        let mut incident: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); n];
        for &(a, b) in candidates {
            let cap = profile.link_profile(Some(a), Some(b)).tokens_per_sec;
            let on = placement.connection_valid(a, b, partial_inference);
            let (_, a_out) = vertices[a.index()];
            let (b_in, _) = vertices[b.index()];
            let edge = network.add_edge(a_out, b_in, if on { clamp(cap) } else { 0.0 });
            link_edges.insert((a, b), (edge, cap));
            incident[a.index()].push((a, b));
            incident[b.index()].push((a, b));
        }

        let mut evaluator = IncrementalFlowEvaluator {
            profile: profile.clone(),
            partial_inference,
            algorithm,
            network,
            source,
            sink,
            node_edges,
            entry_edges,
            exit_edges,
            entry_caps,
            exit_caps,
            link_bound: global_bound,
            link_edges,
            incident,
            placement: placement.clone(),
            value: 0.0,
            warm_solves: 0,
            undo: None,
        };
        evaluator.value = evaluator.resolve();
        Ok(evaluator)
    }

    /// Number of standing-network arena edges touched by the last `assign`
    /// (capacity updates, flow repair and warm re-solve combined), as
    /// recorded by the delta undo-log.
    ///
    /// Returns 0 after a rollback.
    pub fn last_move_touched_edges(&self) -> usize {
        self.network.undo_log_len()
    }

    /// The current placement reflected in the standing network.
    pub fn placement(&self) -> &ModelPlacement {
        &self.placement
    }

    /// The max-flow value of the current placement.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Number of warm re-solves performed so far.
    pub fn warm_solves(&self) -> u64 {
        self.warm_solves
    }

    /// Applies a single-node move — assigning `range` to `node` — by
    /// updating only the capacities incident to that node, then re-solving
    /// warm from the standing flow.  Returns the new max-flow value.
    pub fn assign(&mut self, node: NodeId, range: LayerRange) -> f64 {
        self.undo = Some(UndoState {
            node,
            prev_range: self.placement.range(node),
            value: self.value,
        });
        self.network.begin_undo_log();
        self.placement.assign(node, range);
        self.refresh_node(node);
        self.value = self.resolve();
        self.value
    }

    /// Reverts `node` to a previous range (or unassigned), the inverse of
    /// [`IncrementalFlowEvaluator::assign`].
    ///
    /// Rolling back the immediately preceding `assign` restores the network
    /// from its undo-log without re-solving, in O(touched edges).  Any other
    /// revert falls back to a capacity refresh plus warm re-solve.
    pub fn restore(&mut self, node: NodeId, range: Option<LayerRange>) -> f64 {
        // Whatever happens below, the saved state stops describing the most
        // recent move.
        let undo = self.undo.take();
        match range {
            Some(r) => self.placement.assign(node, r),
            None => self.placement.clear(node),
        }
        match undo {
            Some(undo) if undo.node == node && undo.prev_range == range => {
                self.network.rollback_undo_log();
                self.value = undo.value;
            }
            // This revert does not match the last `assign`: commit that
            // move's undo-log (its mutations stand) and re-solve.
            _ => {
                self.network.discard_undo_log();
                self.refresh_node(node);
                self.value = self.resolve();
            }
        }
        self.value
    }

    /// Recomputes every capacity that depends on `node`'s assigned range:
    /// its `c_in → c_out` edge, its coordinator edges, and the validity of
    /// every candidate connection incident to it.
    fn refresh_node(&mut self, node: NodeId) {
        let num_layers = self.profile.model().num_layers;
        let idx = node.index();
        let range = self.placement.range(node);

        let node_cap = range
            .map(|r| self.profile.node_profile(node).throughput(r.len()))
            .unwrap_or(0.0);
        self.network
            .set_capacity(self.node_edges[idx], node_cap)
            .expect("standing node edge is valid");

        let entry_on = range.map(|r| r.start == 0).unwrap_or(false);
        self.network
            .set_capacity(
                self.entry_edges[idx],
                if entry_on {
                    self.entry_caps[idx].min(self.link_bound)
                } else {
                    0.0
                },
            )
            .expect("standing entry edge is valid");

        let exit_on = range.map(|r| r.end == num_layers).unwrap_or(false);
        self.network
            .set_capacity(
                self.exit_edges[idx],
                if exit_on {
                    self.exit_caps[idx].min(self.link_bound)
                } else {
                    0.0
                },
            )
            .expect("standing exit edge is valid");

        for i in 0..self.incident[idx].len() {
            let (a, b) = self.incident[idx][i];
            let (edge, cap) = self.link_edges[&(a, b)];
            let on = self
                .placement
                .connection_valid(a, b, self.partial_inference);
            self.network
                .set_capacity(edge, if on { cap.min(self.link_bound) } else { 0.0 })
                .expect("standing link edge is valid");
        }
    }

    fn resolve(&mut self) -> f64 {
        self.warm_solves += 1;
        self.network
            .resolve_from_residual(self.source, self.sink, self.algorithm)
            .expect("standing network endpoints are valid")
            .value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::heuristics;
    use helix_cluster::{ClusterSpec, ModelConfig};
    use helix_maxflow::FLOW_EPS;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn profile() -> ClusterProfile {
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b())
    }

    fn cold_value(profile: &ClusterProfile, placement: &ModelPlacement) -> f64 {
        FlowGraphBuilder::new(profile)
            .build(placement)
            .map(|g| g.max_flow().value)
            .unwrap_or(0.0)
    }

    #[test]
    fn initial_value_matches_cold_builder() {
        let profile = profile();
        for placement in [
            heuristics::swarm_placement(&profile).unwrap(),
            heuristics::petals_placement(&profile).unwrap(),
        ] {
            let evaluator = IncrementalFlowEvaluator::new(
                &profile,
                &placement,
                true,
                None,
                MaxFlowAlgorithm::PushRelabel,
            )
            .unwrap();
            let cold = cold_value(&profile, &placement);
            assert!(
                (evaluator.value() - cold).abs() <= FLOW_EPS * (1.0 + cold),
                "warm {} vs cold {}",
                evaluator.value(),
                cold
            );
        }
    }

    #[test]
    fn single_node_moves_track_cold_evaluation() {
        let profile = profile();
        let placement = heuristics::swarm_placement(&profile).unwrap();
        let mut evaluator = IncrementalFlowEvaluator::new(
            &profile,
            &placement,
            true,
            None,
            MaxFlowAlgorithm::Dinic,
        )
        .unwrap();
        let num_layers = profile.model().num_layers;
        // A deterministic tour of single-node moves: resize, shift and
        // replicate ranges across every node.
        let nodes: Vec<NodeId> = profile.cluster().node_ids().collect();
        for (step, &node) in nodes.iter().cycle().take(40).enumerate() {
            let max_layers = profile.node_profile(node).max_layers.min(num_layers);
            if max_layers == 0 {
                continue;
            }
            let len = 1 + (step % max_layers);
            let start = (step * 7) % (num_layers - len + 1);
            let warm = evaluator.assign(node, LayerRange::new(start, start + len));
            let cold = cold_value(&profile, evaluator.placement());
            assert!(
                (warm - cold).abs() <= FLOW_EPS * (1.0 + cold),
                "step {step}: warm {warm} vs cold {cold}"
            );
        }
    }

    #[test]
    fn restore_reverts_a_move_exactly() {
        let profile = profile();
        let placement = heuristics::petals_placement(&profile).unwrap();
        let mut evaluator = IncrementalFlowEvaluator::new(
            &profile,
            &placement,
            true,
            None,
            MaxFlowAlgorithm::PushRelabel,
        )
        .unwrap();
        let before = evaluator.value();
        let node = profile.cluster().node_ids().next().unwrap();
        let old = evaluator.placement().range(node);
        evaluator.assign(node, LayerRange::new(0, 1));
        let after_restore = evaluator.restore(node, old);
        assert!(
            (after_restore - before).abs() <= FLOW_EPS * (1.0 + before),
            "restored {after_restore} vs original {before}"
        );
        assert_eq!(evaluator.placement().range(node), old);
        // The rollback replayed the undo-log instead of re-solving.
        assert_eq!(evaluator.warm_solves(), 2);
    }

    #[test]
    fn slow_path_restore_invalidates_the_saved_snapshot() {
        // assign(n1) saves undo state; restore(n2) takes the slow path and
        // must invalidate it, so a later restore(n1) cannot replay stale
        // network state.
        let profile = profile();
        let placement = heuristics::swarm_placement(&profile).unwrap();
        let mut evaluator = IncrementalFlowEvaluator::new(
            &profile,
            &placement,
            true,
            None,
            MaxFlowAlgorithm::Dinic,
        )
        .unwrap();
        let nodes: Vec<NodeId> = profile.cluster().node_ids().collect();
        let (n1, n2) = (nodes[0], nodes[1]);
        let (p1, p2) = (placement.range(n1), placement.range(n2));
        evaluator.assign(n1, LayerRange::new(0, 1));
        // Out-of-order revert of a different node: slow path.
        evaluator.restore(n2, Some(LayerRange::new(0, 2)));
        // Reverting n1 now must NOT replay the pre-restore undo state
        // (which would undo n2's change in the network but not the
        // placement); the evaluator must stay consistent with a cold solve.
        evaluator.restore(n1, p1);
        let cold = cold_value(&profile, evaluator.placement());
        assert!(
            (evaluator.value() - cold).abs() <= FLOW_EPS * (1.0 + cold),
            "evaluator {} vs cold {} after out-of-order reverts",
            evaluator.value(),
            cold
        );
        // Clean up state for completeness.
        evaluator.restore(n2, p2);
        let cold = cold_value(&profile, evaluator.placement());
        assert!((evaluator.value() - cold).abs() <= FLOW_EPS * (1.0 + cold));
    }

    #[test]
    fn undo_log_rollback_matches_full_snapshot_rollback() {
        // The evaluator is `Clone`, so a clone taken before a move is a full
        // snapshot of the standing network.  Along a seeded tour with every
        // other move rejected, the evaluator rolled back through the
        // undo-log must be indistinguishable from that clone: same value,
        // placement and per-edge flow, and bit-identical values on every
        // later move.
        let profile = ClusterProfile::analytic(
            ClusterSpec::high_heterogeneity_42(),
            ModelConfig::llama2_70b(),
        );
        let placement = heuristics::petals_placement(&profile).unwrap();
        let mut evaluator = IncrementalFlowEvaluator::new(
            &profile,
            &placement,
            true,
            None,
            MaxFlowAlgorithm::Dinic,
        )
        .unwrap();
        let mut oracle = evaluator.clone();
        let num_layers = profile.model().num_layers;
        let nodes: Vec<NodeId> = profile.cluster().node_ids().collect();
        let mut rng = StdRng::seed_from_u64(0x554E444F);
        for step in 0..240 {
            let node = nodes[rng.gen_range(0..nodes.len())];
            let max_layers = profile.node_profile(node).max_layers.min(num_layers);
            let len = rng.gen_range(1..=max_layers);
            let start = rng.gen_range(0..=num_layers - len);
            let range = LayerRange::new(start, start + len);
            let before = evaluator.clone();
            let prev = evaluator.placement().range(node);
            let moved = evaluator.assign(node, range);
            assert_eq!(
                moved.to_bits(),
                oracle.assign(node, range).to_bits(),
                "step {step}: assign diverged"
            );
            if step % 2 == 1 {
                evaluator.restore(node, prev);
                oracle = before;
                assert_eq!(evaluator.value().to_bits(), oracle.value().to_bits());
                assert_eq!(evaluator.placement(), oracle.placement());
                assert!(
                    evaluator.network.edges().eq(oracle.network.edges()),
                    "step {step}: rollback left a different standing flow"
                );
            }
        }
    }

    #[test]
    fn noop_move_touches_no_edges_and_rolls_back_for_free() {
        // Re-assigning a node the range it already holds changes no capacity:
        // every set_capacity short-circuits and the warm re-solve finds no
        // augmenting path, so the undo-log records nothing.  The rollback of
        // such a move restores zero edges — no O(E) snapshot copy, no
        // allocation (the journal's entry buffer never grows past empty).
        let profile = profile();
        let placement = heuristics::petals_placement(&profile).unwrap();
        let mut evaluator = IncrementalFlowEvaluator::new(
            &profile,
            &placement,
            true,
            None,
            MaxFlowAlgorithm::Dinic,
        )
        .unwrap();
        let before = evaluator.value();
        let (node, range) = placement.iter().next().unwrap();
        for _ in 0..100 {
            let after = evaluator.assign(node, range);
            assert_eq!(after.to_bits(), before.to_bits(), "no-op move moved value");
            assert_eq!(
                evaluator.last_move_touched_edges(),
                0,
                "no-op move touched standing edges"
            );
            evaluator.restore(node, Some(range));
            assert_eq!(evaluator.value().to_bits(), before.to_bits());
        }
    }

    #[test]
    fn explicit_candidate_set_matches_builder_candidates() {
        // with_candidates over the builder's own candidate list must behave
        // exactly like new().
        let profile = profile();
        let placement = heuristics::swarm_placement(&profile).unwrap();
        let candidates = FlowGraphBuilder::new(&profile)
            .partial_inference(true)
            .candidate_connections();
        let explicit = IncrementalFlowEvaluator::with_candidates(
            &profile,
            &placement,
            true,
            &candidates,
            MaxFlowAlgorithm::Dinic,
        )
        .unwrap();
        let implicit = IncrementalFlowEvaluator::new(
            &profile,
            &placement,
            true,
            None,
            MaxFlowAlgorithm::Dinic,
        )
        .unwrap();
        assert_eq!(explicit.value().to_bits(), implicit.value().to_bits());
    }

    #[test]
    fn pruned_candidate_set_matches_cold_pruned_builder() {
        let profile = profile();
        let placement = heuristics::swarm_placement(&profile).unwrap();
        let evaluator = IncrementalFlowEvaluator::new(
            &profile,
            &placement,
            true,
            Some(4),
            MaxFlowAlgorithm::PushRelabel,
        )
        .unwrap();
        let cold = FlowGraphBuilder::new(&profile)
            .prune_to_degree(4)
            .build(&placement)
            .map(|g| g.max_flow().value)
            .unwrap_or(0.0);
        assert!(
            (evaluator.value() - cold).abs() <= FLOW_EPS * (1.0 + cold),
            "warm {} vs cold {}",
            evaluator.value(),
            cold
        );
    }
}
