//! Request scheduling: per-request pipelines over the cluster topology graph
//! (paper §5).
//!
//! The topology graph's vertices are the coordinator and the compute nodes;
//! its edges are the network connections that are valid under the chosen
//! model placement.  A scheduler walks this graph from the coordinator,
//! choosing the next node at every hop, until the request has passed through
//! every model layer — producing a [`RequestPipeline`].
//!
//! Helix's own scheduler ([`IwrrScheduler`](crate::IwrrScheduler)) weights
//! each hop by the flow assigned to the corresponding edge in the max-flow
//! solution.  The baselines of §6.7 are also provided: [`SwarmScheduler`]
//! (pick the candidate with the highest recent throughput),
//! [`RandomScheduler`] and [`ShortestQueueScheduler`].

pub mod iwrr;
pub mod kv_estimate;
pub mod prefix;

use crate::error::{HelixError, NoCandidateReason};
use crate::flow_graph::Endpoint;
use crate::placement::LayerRange;
use crate::topology::Topology;
use helix_cluster::{ModelId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One stage of a per-request pipeline: a node and the layers it will compute
/// for this request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStage {
    /// Node executing this stage.
    pub node: NodeId,
    /// Layers the node computes for this request (may be a suffix of the
    /// node's held range when partial inference is in play).
    pub layers: LayerRange,
}

/// A complete per-request pipeline covering every model layer exactly once
/// and in order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestPipeline {
    /// Which model of the fleet the pipeline serves (`ModelId(0)` for the
    /// single-model pipeline).
    pub model: ModelId,
    /// The stages, in execution order.
    pub stages: Vec<PipelineStage>,
}

impl RequestPipeline {
    /// Number of stages (pipeline depth for this request).
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// The nodes visited, in order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.stages.iter().map(|s| s.node).collect()
    }

    /// Checks that the stages cover `[0, num_layers)` contiguously and in
    /// order.
    pub fn covers_model(&self, num_layers: usize) -> bool {
        let mut position = 0;
        for stage in &self.stages {
            if stage.layers.start != position {
                return false;
            }
            position = stage.layers.end;
        }
        position == num_layers
    }
}

/// Identifies which scheduling policy produced a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Helix: interleaved weighted round-robin with max-flow weights.
    HelixIwrr,
    /// Swarm: choose the candidate with the highest recent throughput.
    Swarm,
    /// Uniform random choice among valid candidates.
    Random,
    /// Choose the candidate with the shortest queue.
    ShortestQueue,
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SchedulerKind::HelixIwrr => "helix-iwrr",
            SchedulerKind::Swarm => "swarm",
            SchedulerKind::Random => "random",
            SchedulerKind::ShortestQueue => "shortest-queue",
        };
        f.write_str(name)
    }
}

/// Runtime cluster feedback a scheduler may consult when picking candidates.
///
/// The simulator implements this; [`IdleClusterState`] provides an
/// all-zeros implementation for offline planning and tests.
pub trait ClusterState {
    /// Number of requests queued at (or in flight towards) a node.
    fn queue_len(&self, node: NodeId) -> usize;
    /// Recent decode throughput of the node (tokens/s).
    fn recent_throughput(&self, node: NodeId) -> f64;
    /// KV-cache tokens currently in use on the node.
    fn kv_used_tokens(&self, node: NodeId) -> f64;
    /// KV-cache capacity of the node in tokens.
    fn kv_capacity_tokens(&self, node: NodeId) -> f64;
}

/// A [`ClusterState`] reporting an idle cluster (no queues, no KV usage).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdleClusterState;

impl ClusterState for IdleClusterState {
    fn queue_len(&self, _node: NodeId) -> usize {
        0
    }
    fn recent_throughput(&self, _node: NodeId) -> f64 {
        0.0
    }
    fn kv_used_tokens(&self, _node: NodeId) -> f64 {
        0.0
    }
    fn kv_capacity_tokens(&self, _node: NodeId) -> f64 {
        f64::INFINITY
    }
}

/// A scheduling policy that assigns per-request pipelines.
pub trait Scheduler: Send {
    /// Which policy this is.
    fn kind(&self) -> SchedulerKind;

    /// Produces a pipeline for the next request.
    ///
    /// # Errors
    ///
    /// Returns [`HelixError::NoCandidateAvailable`] if at some hop every
    /// candidate is masked out (e.g. all KV caches above the high-water
    /// mark) or the placement admits no complete pipeline.
    fn schedule(&mut self, state: &dyn ClusterState) -> Result<RequestPipeline, HelixError>;
}

/// The topology graph of §5.1: valid next-hops per endpoint under a given
/// placement.
#[derive(Debug, Clone)]
pub struct TopologyGraph {
    /// Entry candidates (nodes holding layer 0).
    entry: Vec<NodeId>,
    /// Valid successors per node.
    successors: HashMap<NodeId, Vec<NodeId>>,
    /// Layer range held by each assigned node.
    ranges: HashMap<NodeId, LayerRange>,
    num_layers: usize,
}

impl TopologyGraph {
    /// Builds the walkable graph from the shared [`Topology`] artifact: the
    /// successors are exactly the surviving connections the planner
    /// materialised, so the scheduler can never disagree with the planner
    /// about which hops exist.
    pub fn from_topology(topology: &Topology) -> Self {
        let num_layers = topology.num_layers();
        let mut entry: Vec<NodeId> = Vec::new();
        let mut successors: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        let mut ranges = HashMap::new();
        for n in topology.nodes() {
            ranges.insert(n.node, n.layers);
            successors.entry(n.node).or_default();
        }
        for link in topology.links() {
            match (link.from, link.to) {
                (Endpoint::Coordinator, Endpoint::Node(n)) => entry.push(n),
                (Endpoint::Node(a), Endpoint::Node(b)) => successors.entry(a).or_default().push(b),
                _ => {}
            }
        }
        entry.sort();
        for succ in successors.values_mut() {
            succ.sort();
        }
        TopologyGraph {
            entry,
            successors,
            ranges,
            num_layers,
        }
    }

    /// Nodes that can start a pipeline.
    pub fn entry_candidates(&self) -> &[NodeId] {
        &self.entry
    }

    /// Valid successors of `node`.
    pub fn successors(&self, node: NodeId) -> &[NodeId] {
        self.successors.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The layer range held by `node` under the placement.
    pub fn range(&self, node: NodeId) -> Option<LayerRange> {
        self.ranges.get(&node).copied()
    }

    /// Number of model layers.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Candidates that can continue a request currently at `position` layers
    /// completed, reachable from `from` (`None` = coordinator).
    pub fn candidates(&self, from: Option<NodeId>, position: usize) -> Vec<NodeId> {
        let base: Vec<NodeId> = match from {
            None => self.entry.clone(),
            Some(node) => self.successors(node).to_vec(),
        };
        base.into_iter()
            .filter(|n| {
                self.ranges
                    .get(n)
                    .map(|r| r.start <= position && position < r.end)
                    .unwrap_or(false)
            })
            .collect()
    }
}

/// Shared pipeline-walking logic: repeatedly pick the next node from the
/// candidate list using `choose` until the model is covered.
pub(crate) fn walk_pipeline<F>(
    topology: &TopologyGraph,
    mut choose: F,
) -> Result<RequestPipeline, HelixError>
where
    F: FnMut(Option<NodeId>, &[NodeId]) -> Option<NodeId>,
{
    let num_layers = topology.num_layers();
    let mut stages = Vec::new();
    let mut position = 0usize;
    let mut current: Option<NodeId> = None;
    // Position strictly increases each stage, so `num_layers` hops is a safe
    // upper bound.
    for _ in 0..=num_layers {
        if position >= num_layers {
            return Ok(RequestPipeline {
                model: ModelId::default(),
                stages,
            });
        }
        let candidates = topology.candidates(current, position);
        if candidates.is_empty() {
            let reason = NoCandidateReason::NoSuccessor { layer: position };
            return Err(HelixError::NoCandidateAvailable { reason });
        }
        let Some(next) = choose(current, &candidates) else {
            let reason = NoCandidateReason::AllMasked { layer: position };
            return Err(HelixError::NoCandidateAvailable { reason });
        };
        let range = topology
            .range(next)
            .expect("candidates always hold a range");
        let stage_layers = LayerRange::new(position, range.end);
        stages.push(PipelineStage {
            node: next,
            layers: stage_layers,
        });
        position = range.end;
        current = Some(next);
    }
    Err(HelixError::NoCandidateAvailable {
        reason: NoCandidateReason::PlacementCycle,
    })
}

/// Swarm-style scheduler: at every hop pick the candidate with the highest
/// recent throughput (ties broken by node id).
#[derive(Debug, Clone)]
pub struct SwarmScheduler {
    topology: TopologyGraph,
}

impl SwarmScheduler {
    /// Builds the scheduler from the shared planning artifact.
    pub fn new(topology: &Topology) -> Self {
        SwarmScheduler {
            topology: TopologyGraph::from_topology(topology),
        }
    }
}

impl Scheduler for SwarmScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Swarm
    }

    fn schedule(&mut self, state: &dyn ClusterState) -> Result<RequestPipeline, HelixError> {
        walk_pipeline(&self.topology, |_, candidates| {
            candidates.iter().copied().max_by(|&a, &b| {
                state
                    .recent_throughput(a)
                    .partial_cmp(&state.recent_throughput(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(&a))
            })
        })
    }
}

/// Random scheduler: uniform choice among valid candidates.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    topology: TopologyGraph,
    rng: StdRng,
}

impl RandomScheduler {
    /// Builds the scheduler from the shared planning artifact with a
    /// deterministic seed.
    pub fn new(topology: &Topology, seed: u64) -> Self {
        RandomScheduler {
            topology: TopologyGraph::from_topology(topology),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Random
    }

    fn schedule(&mut self, _state: &dyn ClusterState) -> Result<RequestPipeline, HelixError> {
        let rng = &mut self.rng;
        walk_pipeline(&self.topology, |_, candidates| {
            Some(candidates[rng.gen_range(0..candidates.len())])
        })
    }
}

/// Shortest-queue-first scheduler: pick the candidate with the fewest queued
/// requests.
#[derive(Debug, Clone)]
pub struct ShortestQueueScheduler {
    topology: TopologyGraph,
}

impl ShortestQueueScheduler {
    /// Builds the scheduler from the shared planning artifact.
    pub fn new(topology: &Topology) -> Self {
        ShortestQueueScheduler {
            topology: TopologyGraph::from_topology(topology),
        }
    }
}

impl Scheduler for ShortestQueueScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::ShortestQueue
    }

    fn schedule(&mut self, state: &dyn ClusterState) -> Result<RequestPipeline, HelixError> {
        walk_pipeline(&self.topology, |_, candidates| {
            candidates
                .iter()
                .copied()
                .min_by_key(|&n| (state.queue_len(n), n))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::ModelPlacement;
    use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};

    fn small_setup() -> (ClusterProfile, ModelPlacement) {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let placement = crate::placement::heuristics::swarm_placement(&profile).unwrap();
        (profile, placement)
    }

    fn small_topology() -> Topology {
        let (profile, placement) = small_setup();
        Topology::plan(&profile, &placement, true).unwrap()
    }

    #[test]
    fn topology_graph_candidates_respect_position() {
        let topo = TopologyGraph::from_topology(&small_topology());
        assert!(!topo.entry_candidates().is_empty());
        // From the coordinator only layer-0 holders are candidates.
        for n in topo.candidates(None, 0) {
            assert_eq!(topo.range(n).unwrap().start, 0);
        }
        assert_eq!(topo.num_layers(), 60);
    }

    #[test]
    fn pipelines_cover_the_model_for_all_baselines() {
        let (profile, placement) = small_setup();
        let state = IdleClusterState;
        let num_layers = profile.model().num_layers;
        let topology = Topology::plan(&profile, &placement, true).unwrap();
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(SwarmScheduler::new(&topology)),
            Box::new(RandomScheduler::new(&topology, 7)),
            Box::new(ShortestQueueScheduler::new(&topology)),
        ];
        for s in schedulers.iter_mut() {
            for _ in 0..20 {
                let pipeline = s.schedule(&state).unwrap();
                assert!(
                    pipeline.covers_model(num_layers),
                    "{} pipeline does not cover model",
                    s.kind()
                );
                assert!(pipeline.depth() >= 1);
                assert_eq!(pipeline.nodes().len(), pipeline.depth());
            }
        }
    }

    #[test]
    fn random_scheduler_is_deterministic_per_seed() {
        let topology = small_topology();
        let state = IdleClusterState;
        let mut a = RandomScheduler::new(&topology, 42);
        let mut b = RandomScheduler::new(&topology, 42);
        for _ in 0..10 {
            assert_eq!(a.schedule(&state).unwrap(), b.schedule(&state).unwrap());
        }
    }

    #[test]
    fn shortest_queue_prefers_empty_nodes() {
        let (profile, placement) = small_setup();
        struct BiasedState {
            busy: NodeId,
        }
        impl ClusterState for BiasedState {
            fn queue_len(&self, node: NodeId) -> usize {
                if node == self.busy {
                    100
                } else {
                    0
                }
            }
            fn recent_throughput(&self, _: NodeId) -> f64 {
                0.0
            }
            fn kv_used_tokens(&self, _: NodeId) -> f64 {
                0.0
            }
            fn kv_capacity_tokens(&self, _: NodeId) -> f64 {
                f64::INFINITY
            }
        }
        let topology = Topology::plan(&profile, &placement, true).unwrap();
        let topo = TopologyGraph::from_topology(&topology);
        let entries = topo.entry_candidates().to_vec();
        if entries.len() >= 2 {
            let busy = entries[0];
            let mut sched = ShortestQueueScheduler::new(&topology);
            let pipeline = sched.schedule(&BiasedState { busy }).unwrap();
            assert_ne!(pipeline.stages[0].node, busy);
        }
    }

    #[test]
    fn covers_model_detects_gaps_and_disorder() {
        let good = RequestPipeline {
            model: ModelId::default(),
            stages: vec![
                PipelineStage {
                    node: NodeId(0),
                    layers: LayerRange::new(0, 3),
                },
                PipelineStage {
                    node: NodeId(1),
                    layers: LayerRange::new(3, 6),
                },
            ],
        };
        assert!(good.covers_model(6));
        assert!(!good.covers_model(8));
        let gappy = RequestPipeline {
            model: ModelId::default(),
            stages: vec![
                PipelineStage {
                    node: NodeId(0),
                    layers: LayerRange::new(0, 3),
                },
                PipelineStage {
                    node: NodeId(1),
                    layers: LayerRange::new(4, 6),
                },
            ],
        };
        assert!(!gappy.covers_model(6));
    }

    #[test]
    fn scheduler_kind_display() {
        assert_eq!(SchedulerKind::HelixIwrr.to_string(), "helix-iwrr");
        assert_eq!(SchedulerKind::ShortestQueue.to_string(), "shortest-queue");
    }
}
