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

/// One stage of a per-request pipeline: a node and the layers it will compute
/// for this request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStage {
    /// Node executing this stage.
    pub node: NodeId,
    /// Layers the node computes for this request (may be a suffix of the
    /// node's held range when partial inference is in play).
    pub layers: LayerRange,
}

/// A complete per-request pipeline covering every model layer exactly once
/// and in order.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// Builds a scheduler of `kind` over `topology`; `seed` seeds a
/// [`RandomScheduler`] and is ignored by the other kinds.
///
/// # Errors
///
/// The IWRR scheduler's, when the topology has no pipeline to weigh.
pub fn scheduler_of_kind(
    kind: SchedulerKind,
    topology: &Topology,
    seed: u64,
) -> Result<Box<dyn Scheduler>, HelixError> {
    Ok(match kind {
        SchedulerKind::HelixIwrr => Box::new(crate::IwrrScheduler::from_topology(topology)?),
        SchedulerKind::Swarm => Box::new(SwarmScheduler::new(topology)),
        SchedulerKind::Random => Box::new(RandomScheduler::new(topology, seed)),
        SchedulerKind::ShortestQueue => Box::new(ShortestQueueScheduler::new(topology)),
    })
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
/// placement, in tables indexed by node.
#[derive(Debug, Clone)]
pub struct TopologyGraph {
    /// Entry candidates (nodes holding layer 0).
    entry: Vec<NodeId>,
    /// Valid successors, by node index.
    successors: Vec<Vec<NodeId>>,
    /// Layer range held by each assigned node, by node index.
    ranges: Vec<Option<LayerRange>>,
    num_layers: usize,
}

impl TopologyGraph {
    /// Builds the walkable graph from the shared [`Topology`] artifact: the
    /// successors are exactly the surviving connections the planner
    /// materialised, so the scheduler can never disagree with the planner
    /// about which hops exist.
    pub fn from_topology(topology: &Topology) -> Self {
        let num_nodes = topology.profile().cluster().num_nodes();
        let mut entry: Vec<NodeId> = Vec::new();
        let mut successors = vec![Vec::new(); num_nodes];
        let mut ranges = vec![None; num_nodes];
        for n in topology.nodes() {
            ranges[n.node.index()] = Some(n.layers);
        }
        for link in topology.links() {
            match (link.from, link.to) {
                (Endpoint::Coordinator, Endpoint::Node(n)) => entry.push(n),
                (Endpoint::Node(a), Endpoint::Node(b)) => successors[a.index()].push(b),
                _ => {}
            }
        }
        entry.sort();
        for succ in &mut successors {
            succ.sort();
        }
        TopologyGraph {
            entry,
            successors,
            ranges,
            num_layers: topology.num_layers(),
        }
    }

    /// Valid successors of `node`.
    pub fn successors(&self, node: NodeId) -> &[NodeId] {
        self.successors.get(node.index()).map_or(&[], Vec::as_slice)
    }

    /// The layer range held by `node` under the placement.
    pub fn range(&self, node: NodeId) -> Option<LayerRange> {
        self.ranges.get(node.index()).copied().flatten()
    }

    /// Number of model layers.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Candidates that can continue a request currently at `position` layers
    /// completed, reachable from `from` (`None` = coordinator), each with the
    /// layer range it holds.
    pub fn candidates(
        &self,
        from: Option<NodeId>,
        position: usize,
    ) -> impl Iterator<Item = (NodeId, LayerRange)> + '_ {
        let base = match from {
            None => &self.entry[..],
            Some(node) => self.successors(node),
        };
        base.iter().filter_map(move |&n| {
            let range = self.range(n)?;
            (range.start <= position && position < range.end).then_some((n, range))
        })
    }
}

/// A [`TopologyGraph`] with the buffers of its walk: every hop's candidates
/// and the stages so far are gathered in buffers sized once, so a walk
/// allocates only the pipeline it returns.
#[derive(Debug, Clone)]
pub(crate) struct PipelineWalker {
    graph: TopologyGraph,
    hops: Vec<(NodeId, LayerRange)>,
    stages: Vec<PipelineStage>,
}

impl PipelineWalker {
    pub(crate) fn new(topology: &Topology) -> Self {
        let graph = TopologyGraph::from_topology(topology);
        let widest = graph.successors.iter().map(Vec::len);
        let widest = widest.chain([graph.entry.len()]).max().unwrap_or(0);
        PipelineWalker {
            hops: Vec::with_capacity(widest),
            // Every stage advances at least one layer.
            stages: Vec::with_capacity(graph.num_layers),
            graph,
        }
    }

    /// Repeatedly picks the next hop from the candidates using `choose`
    /// until the model is covered.
    pub(crate) fn walk<F>(&mut self, mut choose: F) -> Result<RequestPipeline, HelixError>
    where
        F: FnMut(Option<NodeId>, &[(NodeId, LayerRange)]) -> Option<(NodeId, LayerRange)>,
    {
        let PipelineWalker {
            graph,
            hops,
            stages,
        } = self;
        let num_layers = graph.num_layers();
        stages.clear();
        let mut position = 0usize;
        let mut current: Option<NodeId> = None;
        // Position strictly increases each stage, so `num_layers` hops is a
        // safe upper bound.
        for _ in 0..=num_layers {
            if position >= num_layers {
                return Ok(RequestPipeline {
                    model: ModelId::default(),
                    stages: stages.clone(),
                });
            }
            hops.clear();
            hops.extend(graph.candidates(current, position));
            if hops.is_empty() {
                let reason = NoCandidateReason::NoSuccessor { layer: position };
                return Err(HelixError::NoCandidateAvailable { reason });
            }
            let Some((next, range)) = choose(current, hops) else {
                let reason = NoCandidateReason::AllMasked { layer: position };
                return Err(HelixError::NoCandidateAvailable { reason });
            };
            stages.push(PipelineStage {
                node: next,
                layers: LayerRange::new(position, range.end),
            });
            position = range.end;
            current = Some(next);
        }
        Err(HelixError::NoCandidateAvailable {
            reason: NoCandidateReason::PlacementCycle,
        })
    }
}

/// Swarm-style scheduler: at every hop pick the candidate with the highest
/// recent throughput (ties broken by node id).
#[derive(Debug, Clone)]
pub struct SwarmScheduler {
    walker: PipelineWalker,
}

impl SwarmScheduler {
    /// Builds the scheduler from the shared planning artifact.
    pub fn new(topology: &Topology) -> Self {
        SwarmScheduler {
            walker: PipelineWalker::new(topology),
        }
    }
}

impl Scheduler for SwarmScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Swarm
    }

    fn schedule(&mut self, state: &dyn ClusterState) -> Result<RequestPipeline, HelixError> {
        self.walker.walk(|_, candidates| {
            candidates.iter().copied().max_by(|&(a, _), &(b, _)| {
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
    walker: PipelineWalker,
    rng: StdRng,
}

impl RandomScheduler {
    /// Builds the scheduler from the shared planning artifact with a
    /// deterministic seed.
    pub fn new(topology: &Topology, seed: u64) -> Self {
        RandomScheduler {
            walker: PipelineWalker::new(topology),
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
        self.walker
            .walk(|_, candidates| Some(candidates[rng.gen_range(0..candidates.len())]))
    }
}

/// Shortest-queue-first scheduler: pick the candidate with the fewest queued
/// requests.
#[derive(Debug, Clone)]
pub struct ShortestQueueScheduler {
    walker: PipelineWalker,
}

impl ShortestQueueScheduler {
    /// Builds the scheduler from the shared planning artifact.
    pub fn new(topology: &Topology) -> Self {
        ShortestQueueScheduler {
            walker: PipelineWalker::new(topology),
        }
    }
}

impl Scheduler for ShortestQueueScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::ShortestQueue
    }

    fn schedule(&mut self, state: &dyn ClusterState) -> Result<RequestPipeline, HelixError> {
        self.walker.walk(|_, candidates| {
            candidates
                .iter()
                .copied()
                .min_by_key(|&(n, _)| (state.queue_len(n), n))
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
        assert!(!topo.entry.is_empty());
        // From the coordinator only layer-0 holders are candidates.
        for (n, range) in topo.candidates(None, 0) {
            assert_eq!(range.start, 0);
            assert_eq!(topo.range(n), Some(range));
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
        let entries = topo.entry.clone();
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
