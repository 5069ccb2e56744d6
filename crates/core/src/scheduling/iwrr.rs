//! Helix's per-request pipeline scheduler (paper §5.1).
//!
//! An interleaved weighted round-robin (IWRR) chooser is bound to every
//! vertex of the topology graph; its candidates are the vertices reachable
//! over valid network connections and its weights are the flow assigned to
//! those connections by the max-flow solution.  Scheduling a request walks
//! the graph from the coordinator, consulting each vertex's chooser in turn,
//! which spreads requests over the cluster in proportion to the max flow
//! without creating bursts.

use crate::error::{HelixError, NoCandidateReason};
use crate::flow_graph::Endpoint;
use crate::scheduling::{ClusterState, PipelineWalker, RequestPipeline, Scheduler, SchedulerKind};
use crate::topology::Topology;
use helix_cluster::NodeId;

/// Fraction of a node's KV-cache capacity beyond which the scheduler stops
/// sending it new requests (§5.2 "high water mark").
pub const KV_HIGH_WATER: f64 = 0.9;

/// Whether `used` KV tokens put a node of `capacity` tokens above
/// [`KV_HIGH_WATER`] — the one predicate behind IWRR masking, prefix
/// routing and [`KvCacheEstimator`](crate::KvCacheEstimator).  An unbounded
/// (infinite) capacity never is.
pub fn above_high_water(used: f64, capacity: f64) -> bool {
    capacity.is_finite() && used > KV_HIGH_WATER * capacity
}

/// An interleaved weighted round-robin chooser over a fixed candidate set.
///
/// The implementation uses the smooth-WRR formulation: every pick adds each
/// candidate's weight to its credit, selects the candidate with the highest
/// credit, and subtracts the total weight from the winner.  Over time each
/// candidate is selected with frequency proportional to its weight, with the
/// selections interleaved rather than bursty.
#[derive(Debug, Clone)]
struct IwrrChooser<T> {
    candidates: Vec<(T, f64)>,
    credits: Vec<f64>,
    total: f64,
}

impl<T: Copy + Eq> IwrrChooser<T> {
    /// Creates a chooser; candidates with non-positive weight are dropped.
    fn new(candidates: impl IntoIterator<Item = (T, f64)>) -> Self {
        let candidates: Vec<(T, f64)> = candidates.into_iter().filter(|(_, w)| *w > 0.0).collect();
        let total = candidates.iter().map(|(_, w)| w).sum();
        let credits = vec![0.0; candidates.len()];
        IwrrChooser {
            candidates,
            credits,
            total,
        }
    }

    /// The weight associated with a candidate.
    fn weight(&self, candidate: T) -> Option<f64> {
        self.candidates
            .iter()
            .find(|(c, _)| *c == candidate)
            .map(|(_, w)| *w)
    }

    /// Picks the next candidate, skipping any for which `masked` returns
    /// true.  Returns `None` if every candidate is masked.
    fn pick_unmasked(&mut self, mut masked: impl FnMut(T) -> bool) -> Option<T> {
        if self.candidates.is_empty() {
            return None;
        }
        // Credit every candidate as in plain smooth-WRR, then choose the
        // unmasked candidate with the highest credit.
        for (i, (_, w)) in self.candidates.iter().enumerate() {
            self.credits[i] += w;
        }
        let mut best: Option<usize> = None;
        for (i, (c, _)) in self.candidates.iter().enumerate() {
            if masked(*c) {
                continue;
            }
            if best.is_none_or(|b| self.credits[i] > self.credits[b]) {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                self.credits[i] -= self.total;
                Some(self.candidates[i].0)
            }
            None => {
                // Undo the crediting so masking does not skew future rounds.
                for (i, (_, w)) in self.candidates.iter().enumerate() {
                    self.credits[i] -= w;
                }
                None
            }
        }
    }
}

/// Helix's scheduler: IWRR over the topology graph with max-flow weights and
/// KV-cache high-water masking.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct IwrrScheduler {
    walker: PipelineWalker,
    /// One chooser per vertex: the coordinator's at slot 0, node `n`'s at
    /// slot `n + 1` ([`chooser_slot`]).
    choosers: Vec<IwrrChooser<NodeId>>,
}

/// The slot of vertex `from` (`None` = coordinator) in
/// [`IwrrScheduler`]'s chooser table.
fn chooser_slot(from: Option<NodeId>) -> usize {
    from.map_or(0, |node| node.index() + 1)
}

impl IwrrScheduler {
    /// Builds the scheduler from the shared planning artifact: the walkable
    /// graph comes from the topology's surviving connections and the IWRR
    /// weights from its max-flow solution.
    ///
    /// # Errors
    ///
    /// Returns [`HelixError::NoCandidateAvailable`] if the topology's max
    /// flow is zero (no request could ever be scheduled).
    pub fn from_topology(topology: &Topology) -> Result<Self, HelixError> {
        if topology.flow_value() <= 0.0 {
            return Err(HelixError::NoCandidateAvailable {
                reason: NoCandidateReason::ZeroFlow,
            });
        }
        let num_nodes = topology.profile().cluster().num_nodes();
        let mut choosers = vec![IwrrChooser::new([]); num_nodes + 1];
        let node_weights = |from: Endpoint| -> Vec<(NodeId, f64)> {
            topology
                .outgoing_flows(from)
                .into_iter()
                .filter_map(|(to, w)| match to {
                    Endpoint::Node(n) => Some((n, w)),
                    Endpoint::Coordinator => None,
                })
                .collect()
        };
        choosers[0] = IwrrChooser::new(node_weights(Endpoint::Coordinator));
        for n in topology.nodes() {
            let weights = node_weights(Endpoint::Node(n.node));
            choosers[chooser_slot(Some(n.node))] = IwrrChooser::new(weights);
        }
        Ok(IwrrScheduler {
            walker: PipelineWalker::new(topology),
            choosers,
        })
    }

    /// The IWRR weight (tokens/s of flow) assigned to `to` at vertex `from`
    /// (`None` = coordinator).
    pub fn weight(&self, from: Option<NodeId>, to: NodeId) -> Option<f64> {
        self.choosers
            .get(chooser_slot(from))
            .and_then(|c| c.weight(to))
    }
}

impl Scheduler for IwrrScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::HelixIwrr
    }

    fn schedule(&mut self, state: &dyn ClusterState) -> Result<RequestPipeline, HelixError> {
        let choosers = &mut self.choosers;
        self.walker.walk(|from, candidates| {
            let chooser = choosers.get_mut(chooser_slot(from))?;
            let hop = |node| candidates.iter().copied().find(|&(n, _)| n == node);
            let node = chooser.pick_unmasked(|node| {
                // Only nodes that are valid *for this request's position* may
                // be chosen, and nodes above the KV high-water mark are
                // masked out (§5.2).
                hop(node).is_none()
                    || above_high_water(state.kv_used_tokens(node), state.kv_capacity_tokens(node))
            })?;
            hop(node)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{heuristics, ModelPlacement};
    use crate::scheduling::IdleClusterState;
    use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
    use helix_maxflow::FlowResult;
    use std::collections::HashMap as StdHashMap;

    #[test]
    fn iwrr_chooser_frequencies_match_weights() {
        let mut chooser = IwrrChooser::new([(0usize, 3.0), (1, 1.0)]);
        let mut counts = [0usize; 2];
        for _ in 0..4000 {
            counts[chooser.pick_unmasked(|_| false).unwrap()] += 1;
        }
        assert_eq!(counts[0] + counts[1], 4000);
        assert_eq!(counts[0], 3000);
        assert_eq!(counts[1], 1000);
    }

    #[test]
    fn iwrr_chooser_interleaves_rather_than_bursts() {
        let mut chooser = IwrrChooser::new([(0usize, 2.0), (1, 1.0)]);
        let picks: Vec<usize> = (0..6)
            .map(|_| chooser.pick_unmasked(|_| false).unwrap())
            .collect();
        // With weights 2:1 the longest run of candidate 0 must be 2, not 4.
        let mut longest_run = 1;
        let mut run = 1;
        for w in picks.windows(2) {
            if w[0] == w[1] {
                run += 1;
                longest_run = longest_run.max(run);
            } else {
                run = 1;
            }
        }
        assert!(longest_run <= 2, "picks {picks:?} are bursty");
    }

    #[test]
    fn iwrr_chooser_drops_zero_weight_and_handles_masking() {
        let mut chooser = IwrrChooser::new([(0usize, 0.0), (1, 1.0), (2, 1.0)]);
        assert_eq!(chooser.candidates.len(), 2);
        assert!(!chooser.candidates.is_empty());
        assert_eq!(chooser.weight(0), None);
        // Mask out candidate 1: only 2 can be returned.
        for _ in 0..5 {
            assert_eq!(chooser.pick_unmasked(|c| c == 1), Some(2));
        }
        // Mask everything: None.
        assert_eq!(chooser.pick_unmasked(|_| true), None);
        let empty: IwrrChooser<usize> = IwrrChooser::new([]);
        assert!(empty.candidates.is_empty());
    }

    fn setup() -> (ClusterProfile, ModelPlacement) {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let placement = heuristics::petals_placement(&profile).unwrap();
        (profile, placement)
    }

    #[test]
    fn scheduler_produces_valid_pipelines_matching_flow_proportions() {
        let (profile, placement) = setup();
        let topology = Topology::plan(&profile, &placement, true).unwrap();
        let mut scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        assert_eq!(scheduler.kind(), SchedulerKind::HelixIwrr);
        let state = IdleClusterState;
        let num_layers = profile.model().num_layers;
        let mut first_hop_counts: StdHashMap<helix_cluster::NodeId, usize> = StdHashMap::new();
        let n = 600;
        for _ in 0..n {
            let pipeline = scheduler.schedule(&state).unwrap();
            assert!(pipeline.covers_model(num_layers));
            *first_hop_counts.entry(pipeline.stages[0].node).or_insert(0) += 1;
        }
        // The first hop distribution should follow the coordinator IWRR
        // weights (proportional to flow).
        let total_weight: f64 = first_hop_counts
            .keys()
            .filter_map(|&node| scheduler.weight(None, node))
            .sum();
        for (&node, &count) in &first_hop_counts {
            if let Some(w) = scheduler.weight(None, node) {
                let expected = w / total_weight * n as f64;
                let got = count as f64;
                assert!(
                    (got - expected).abs() <= expected * 0.25 + 2.0,
                    "node {node} got {got} picks, expected about {expected}"
                );
            }
        }
    }

    #[test]
    fn kv_high_water_masks_saturated_nodes() {
        let (profile, placement) = setup();
        let topology = Topology::plan(&profile, &placement, true).unwrap();
        let mut scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        // Saturate one entry node's KV cache.
        let entries: Vec<_> = placement
            .iter()
            .filter(|(_, r)| r.start == 0)
            .map(|(n, _)| n)
            .collect();
        let saturated = entries[0];
        struct SaturatedState {
            node: helix_cluster::NodeId,
        }
        impl ClusterState for SaturatedState {
            fn queue_len(&self, _: helix_cluster::NodeId) -> usize {
                0
            }
            fn recent_throughput(&self, _: helix_cluster::NodeId) -> f64 {
                0.0
            }
            fn kv_used_tokens(&self, node: helix_cluster::NodeId) -> f64 {
                if node == self.node {
                    1000.0
                } else {
                    0.0
                }
            }
            fn kv_capacity_tokens(&self, _: helix_cluster::NodeId) -> f64 {
                1000.0
            }
        }
        let state = SaturatedState { node: saturated };
        if entries.len() > 1 {
            for _ in 0..50 {
                let pipeline = scheduler.schedule(&state).unwrap();
                assert_ne!(pipeline.stages[0].node, saturated);
            }
        } else {
            // Single entry node saturated: scheduling must fail rather than
            // oversubscribe the KV cache.
            assert!(scheduler.schedule(&state).is_err());
        }
    }

    #[test]
    fn zero_flow_placement_is_rejected() {
        let (profile, placement) = setup();
        let graph = crate::flow_graph::FlowGraphBuilder::new(&profile)
            .build(&placement)
            .unwrap();
        let zero = FlowResult {
            value: 0.0,
            edge_flows: vec![0.0; graph.network().edge_count()],
        };
        let topology = Topology::from_flow_graph(&profile, &graph, &zero);
        assert!(IwrrScheduler::from_topology(&topology).is_err());
    }
}
