//! The benchmark's whole dependency on the repository.
//!
//! This is the only file of the harness that names a repository API; the
//! workloads, the micro-timings and the verification are written against the
//! small vocabulary defined here.  A change that alters one of the public
//! items used below knows exactly what the benchmark needs from it:
//!
//! * `helix_cluster`: `ClusterSpec::{solver_quality_10, single_cluster_24,
//!   geo_distributed_24, high_heterogeneity_42}`, `ClusterBuilder`,
//!   `ClusterProfile::analytic`, `ModelConfig::llama_*`.
//! * `helix_workload`: `AzureTraceConfig::generate`,
//!   `Workload::{new, with_arrivals, with_shared_prefixes}`, `Request`.
//! * `helix_maxflow`: `dinic`, `FlowNetwork::{node_by_name, node_count,
//!   edge_count}`.
//! * `helix_milp`, through `MilpPlacementPlanner` and its report.
//! * `helix_core`: `heuristics::swarm_placement`, `FlowAnnealingPlanner`,
//!   `MilpPlacementPlanner`, `FleetAnnealingPlanner`,
//!   `HierarchicalFleetPlanner`, `IncrementalFlowEvaluator`,
//!   `FlowGraphBuilder`, `Topology::plan`, `FleetTopology::{plan, replan,
//!   contention_profile}`, `PlacementDelta`, `IwrrScheduler`,
//!   `FleetScheduler::iwrr`, `KvCacheEstimator`, `PrefixRouter`,
//!   `ReplicationPolicy::rf2`, `select_standby`, `RegionRing`.
//! * `helix_sim`: `ClusterSimulator::{new, new_fleet}`, `SimulationConfig`,
//!   `SimSession::{new, submit, fail_node, set_replication, drain, finish}`,
//!   `LinkQueue`, `EventQueue`.  (`NodeEngine` cannot be driven from outside
//!   the crate: its `WorkItem` input is not exported.)
//! * `helix_runtime`: `ServingBuilder`, `RuntimeConfig`,
//!   `ServingSession::{submit, wait_completion, set_replication, drain,
//!   finish}`, `RuntimeReport`, `PagedKvPool`.
//! * `minirt`: `Executor::{spawn, block_on}`, `channel::unbounded`,
//!   `time::sleep`.

use helix_cluster::{
    ClusterBuilder, ClusterProfile, ClusterSpec, GpuType, ModelConfig, ModelId, NodeId, PrefixId,
    Region,
};
use helix_core::fleet::{
    fleet_profiles as core_fleet_profiles, FleetAnnealingOptions, FleetAnnealingPlanner,
    FleetPlacement, FleetScheduler, FleetTopology,
};
use helix_core::{
    heuristics, select_standby, AnnealingOptions, FlowAnnealingPlanner, FlowGraphBuilder,
    HierarchicalFleetPlanner, HierarchicalOptions, IdleClusterState, IncrementalFlowEvaluator,
    IwrrScheduler, KvCacheEstimator, LayerRange, MilpPlacementPlanner, ModelPlacement,
    NodeObservations, PlacementDelta, PlacementFlowGraph, PlannerOptions, PodPartitionOptions,
    PrefixRoute, PrefixRouter, RegionRing, ReplicationPolicy, RingOptions, Scheduler, Topology,
};
use helix_maxflow::MaxFlowAlgorithm;
use helix_runtime::{ExecutionKind, PagedKvPool, RuntimeConfig, ServingBuilder, ServingSession};
use helix_sim::{ClusterSimulator, Event, EventQueue, LinkQueue, SimSession, SimulationConfig};
use helix_workload::{ArrivalPattern, AzureTraceConfig, Request, Workload};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Duration;

pub type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// Clusters, models, profiles
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub enum Cluster {
    /// The paper's 10-node solver-quality study cluster.
    Study10,
    Single24,
    Geo24,
    Hetero42,
    /// 16 A100 + 32 L4 + 48 T4 in one region (`benches/async_runtime.rs`).
    Single96,
    /// 100 A100 + 150 L4 + 250 T4 in one region (`benches/async_runtime.rs`).
    Single500,
    /// 12 regions x 84 nodes (`examples/plan_at_scale.rs`).
    Planet1008,
}

#[derive(Debug, Clone, Copy)]
pub enum Llm {
    Llama13b,
    Llama30b,
    Llama70b,
    Llama405b,
}

fn single_region(name: &str, a100: usize, l4: usize, t4: usize) -> ClusterSpec {
    ClusterBuilder::new(name)
        .intra_region(10_000.0, 1.0)
        .add_nodes(GpuType::A100_40, a100, 1, Region(0))
        .add_nodes(GpuType::L4, l4, 1, Region(0))
        .add_nodes(GpuType::T4, t4, 1, Region(0))
        .build()
}

fn cluster_spec(cluster: Cluster) -> ClusterSpec {
    match cluster {
        Cluster::Study10 => ClusterSpec::solver_quality_10(),
        Cluster::Single24 => ClusterSpec::single_cluster_24(),
        Cluster::Geo24 => ClusterSpec::geo_distributed_24(),
        Cluster::Hetero42 => ClusterSpec::high_heterogeneity_42(),
        Cluster::Single96 => single_region("perf-96", 16, 32, 48),
        Cluster::Single500 => single_region("perf-500", 100, 150, 250),
        Cluster::Planet1008 => {
            let mut builder = ClusterBuilder::new("perf-planet-1008")
                .intra_region(10_000.0, 1.0)
                .inter_region(150.0, 40.0);
            for r in 0..12u32 {
                builder = builder
                    .add_nodes(GpuType::A100_40, 16, 1, Region(r))
                    .add_nodes(GpuType::L4, 28, 1, Region(r))
                    .add_nodes(GpuType::T4, 40, 1, Region(r));
            }
            builder.build()
        }
    }
}

fn model_config(llm: Llm) -> ModelConfig {
    match llm {
        Llm::Llama13b => ModelConfig::llama_13b(),
        Llm::Llama30b => ModelConfig::llama_30b(),
        Llm::Llama70b => ModelConfig::llama2_70b(),
        Llm::Llama405b => ModelConfig::llama3_405b(),
    }
}

/// One model's analytic profile over one cluster.
pub struct Profile(ClusterProfile);

pub fn profile(cluster: Cluster, llm: Llm) -> Profile {
    Profile(ClusterProfile::analytic(
        cluster_spec(cluster),
        model_config(llm),
    ))
}

/// One profile per model of a fleet, all over the same cluster.
pub struct FleetProfiles(Vec<ClusterProfile>);

pub fn fleet_profiles(cluster: Cluster, llms: &[Llm]) -> FleetProfiles {
    let models: Vec<ModelConfig> = llms.iter().map(|&m| model_config(m)).collect();
    FleetProfiles(core_fleet_profiles(&cluster_spec(cluster), &models))
}

// ---------------------------------------------------------------------------
// Planners
// ---------------------------------------------------------------------------

pub struct Placement(ModelPlacement);

impl Placement {
    pub fn valid_for(&self, profile: &Profile) -> bool {
        self.0.validate(&profile.0).is_ok()
    }
}

/// The planner-independent Swarm-style heuristic placement.
pub fn swarm_placement(profile: &Profile) -> Res<Placement> {
    heuristics::swarm_placement(&profile.0)
        .map(Placement)
        .map_err(err)
}

/// Flow-guided simulated annealing; returns the placement and its max flow.
pub fn anneal(profile: &Profile, iterations: usize) -> Res<(Placement, f64)> {
    FlowAnnealingPlanner::new(&profile.0)
        .with_options(AnnealingOptions {
            iterations,
            ..Default::default()
        })
        .solve()
        .map(|(placement, flow)| (Placement(placement), flow))
        .map_err(err)
}

pub struct MilpRun {
    pub placement: Placement,
    pub objective_tok_per_vs: f64,
    pub nodes_explored: u64,
    pub vars: usize,
    pub constraints: usize,
}

/// The MILP planner on the pruned problem with a node budget that binds (no
/// early stop, a time limit far above need), so the work is the same on
/// every machine.
pub fn milp(profile: &Profile, node_limit: u64) -> Res<MilpRun> {
    let options = PlannerOptions {
        prune_degree: Some(6),
        node_limit,
        early_stop_fraction: None,
        time_limit: Duration::from_secs(3600),
        ..Default::default()
    };
    let (placement, report) = MilpPlacementPlanner::with_options(&profile.0, options)
        .solve()
        .map_err(err)?;
    Ok(MilpRun {
        placement: Placement(placement),
        objective_tok_per_vs: report.objective_tokens_per_sec,
        nodes_explored: report.nodes_explored,
        vars: report.num_variables,
        constraints: report.num_constraints,
    })
}

pub struct FleetPlan(FleetPlacement);

impl FleetPlan {
    pub fn valid_for(&self, profiles: &FleetProfiles) -> bool {
        self.0.validate(&profiles.0).is_ok()
    }

    /// The lowest-id node holding layers of `model`.
    pub fn lowest_node_of(&self, model: usize) -> Option<usize> {
        let placement = self.0.placement(ModelId(model))?;
        placement.iter().map(|(node, _)| node.0).min()
    }
}

/// Joint annealing of all models of a fleet; returns per-model max flows.
pub fn fleet_anneal(profiles: &FleetProfiles, iterations: usize) -> Res<(FleetPlan, Vec<f64>)> {
    FleetAnnealingPlanner::new(&profiles.0)
        .with_options(FleetAnnealingOptions {
            iterations,
            ..Default::default()
        })
        .solve()
        .map(|(placement, flows)| (FleetPlan(placement), flows))
        .map_err(err)
}

pub struct HierRun {
    pub plan: FleetPlan,
    pub flows: Vec<f64>,
    pub pods: usize,
    pub used_fallback: bool,
}

/// Partition -> per-pod parallel annealing -> refine, on `threads` threads.
pub fn hierarchical(profiles: &FleetProfiles, iterations: usize, threads: usize) -> Res<HierRun> {
    let options = HierarchicalOptions {
        pods: PodPartitionOptions {
            max_pod_size: 24,
            ..Default::default()
        },
        annealing: FleetAnnealingOptions {
            iterations,
            ..Default::default()
        },
        threads,
        ..Default::default()
    };
    let plan = HierarchicalFleetPlanner::new(&profiles.0)
        .with_options(options)
        .solve()
        .map_err(err)?;
    Ok(HierRun {
        pods: plan.pods.num_pods(),
        used_fallback: plan.used_fallback,
        flows: plan.flows,
        plan: FleetPlan(plan.placement),
    })
}

// ---------------------------------------------------------------------------
// Planning artifacts
// ---------------------------------------------------------------------------

#[derive(Clone)]
pub struct Topo(Topology);

impl Topo {
    pub fn flow_tok_per_vs(&self) -> f64 {
        self.0.flow_value()
    }
    pub fn pipelines(&self) -> usize {
        self.0.num_pipelines()
    }
}

pub fn topology(profile: &Profile, placement: &Placement) -> Res<Topo> {
    Topology::plan(&profile.0, &placement.0, true)
        .map(Topo)
        .map_err(err)
}

pub struct FleetTopo(FleetTopology);

impl FleetTopo {
    pub fn flow_tok_per_vs(&self) -> f64 {
        self.0.total_flow_value()
    }
    pub fn pipelines(&self) -> usize {
        self.0
            .topologies()
            .iter()
            .map(Topology::num_pipelines)
            .sum()
    }
}

pub fn fleet_topology(profiles: &FleetProfiles, plan: &FleetPlan) -> Res<FleetTopo> {
    FleetTopology::plan(&profiles.0, &plan.0, true)
        .map(FleetTopo)
        .map_err(err)
}

/// A standing one-model fleet on the 10-node cluster and the layer-range
/// migration `benches/migration.rs` toggles forward and back on it.
pub struct ReplanRig {
    profiles: Vec<ClusterProfile>,
    placement: FleetPlacement,
    standing: FleetTopology,
    forward: PlacementDelta,
    backward: PlacementDelta,
    none: NodeObservations,
    flip: bool,
}

pub fn replan_rig() -> Res<ReplanRig> {
    let profile =
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_13b());
    let num_layers = profile.model().num_layers;
    // A chain taking half of each node's capacity, so suffix moves between
    // neighbours stay valid.
    let mut chain = ModelPlacement::empty(profile.cluster().num_nodes());
    let mut start = 0usize;
    for id in profile.cluster().node_ids() {
        if start >= num_layers {
            break;
        }
        let take = (profile.node_profile(id).max_layers / 2)
            .max(1)
            .min(num_layers - start);
        chain.assign(id, LayerRange::new(start, start + take));
        start += take;
    }
    // The first adjacent pair whose boundary can move by half a range.
    let assigned: Vec<(NodeId, LayerRange)> = chain.iter().collect();
    let (from, to, moved) = assigned
        .windows(2)
        .find_map(|w| {
            let ((from, range), (to, to_range)) = (w[0], w[1]);
            if range.len() < 2 {
                return None;
            }
            let mid = range.start + range.len() / 2;
            let mut mutated = chain.clone();
            mutated.assign(from, LayerRange::new(range.start, mid));
            mutated.assign(to, LayerRange::new(mid, to_range.end));
            (mutated.validate(&profile).is_ok() && mutated.has_complete_pipeline(num_layers))
                .then_some((from, to, LayerRange::new(mid, range.end)))
        })
        .ok_or("no adjacent chain pair is migratable")?;
    let profiles = vec![profile];
    let placement = FleetPlacement::new(vec![chain]);
    let standing = FleetTopology::plan(&profiles, &placement, true).map_err(err)?;
    let mut rig = ReplanRig {
        profiles,
        placement,
        standing,
        forward: PlacementDelta::new().migrate(ModelId(0), from, to, moved),
        backward: PlacementDelta::new().migrate(ModelId(0), to, from, moved),
        none: NodeObservations::new(),
        flip: false,
    };
    // The first re-plans build the standing evaluators; keep them out of the
    // measured calls.
    rig.replan()?;
    rig.replan()?;
    Ok(rig)
}

impl ReplanRig {
    /// One warm re-plan (forward and backward alternate); returns the warm
    /// max flow of the affected model.
    pub fn replan(&mut self) -> Res<f64> {
        self.flip = !self.flip;
        let delta = if self.flip {
            &self.forward
        } else {
            &self.backward
        };
        let outcome = self.standing.replan(delta, &self.none).map_err(err)?;
        outcome
            .warm_flow_values
            .first()
            .copied()
            .ok_or_else(|| "re-plan affected no model".to_string())
    }

    /// The cold baseline: the full fleet plan from scratch.
    pub fn cold_plan(&self) -> Res<f64> {
        FleetTopology::plan(&self.profiles, &self.placement, true)
            .map(|fleet| fleet.total_flow_value())
            .map_err(err)
    }
}

// ---------------------------------------------------------------------------
// Max-flow and planner evaluation, stand-alone
// ---------------------------------------------------------------------------

/// The flow graph of one placement, for timing the solver on its own.
pub struct FlowRig {
    graph: PlacementFlowGraph,
    source: helix_maxflow::NodeId,
    sink: helix_maxflow::NodeId,
}

fn flow_rig_of(profile: &ClusterProfile, placement: &ModelPlacement) -> Res<FlowRig> {
    let graph = FlowGraphBuilder::new(profile)
        .partial_inference(true)
        .build(placement)
        .map_err(err)?;
    let find = |name: &str| {
        graph
            .network()
            .node_by_name(name)
            .ok_or_else(|| format!("flow graph has no `{name}` vertex"))
    };
    let (source, sink) = (find("source")?, find("sink")?);
    Ok(FlowRig {
        graph,
        source,
        sink,
    })
}

pub fn flow_rig(profile: &Profile, placement: &Placement) -> Res<FlowRig> {
    flow_rig_of(&profile.0, &placement.0)
}

/// The flow graph of a fleet's model 0 under the fleet's capacity split.
pub fn flow_rig_of_fleet(fleet: &FleetTopo) -> Res<FlowRig> {
    let placement = fleet
        .0
        .placement()
        .placement(ModelId(0))
        .ok_or("fleet serves no model")?;
    flow_rig_of(&fleet.0.contention_profile(ModelId(0)), placement)
}

impl FlowRig {
    pub fn nodes(&self) -> usize {
        self.graph.network().node_count()
    }
    pub fn edges(&self) -> usize {
        self.graph.network().edge_count()
    }
    /// One Dinic solve from scratch; returns the flow value.
    pub fn dinic(&self) -> f64 {
        helix_maxflow::dinic(self.graph.network(), self.source, self.sink).value
    }
    /// Solve + path decomposition; returns the number of flow paths.
    pub fn decompose(&self) -> Res<usize> {
        let flow = self.graph.max_flow();
        self.graph.decompose(&flow).map(|p| p.len()).map_err(err)
    }
}

/// Per-move evaluation as the annealing loop pays it: warm (mutate the
/// standing network, re-solve, roll back) against cold (rebuild and solve).
pub struct EvalRig {
    profile: ClusterProfile,
    placement: ModelPlacement,
    moves: Vec<(NodeId, LayerRange)>,
    evaluator: IncrementalFlowEvaluator,
    next: usize,
}

pub fn eval_rig(profile: &Profile) -> Res<EvalRig> {
    let profile = profile.0.clone();
    let placement = heuristics::swarm_placement(&profile).map_err(err)?;
    // A deterministic tour of single-node moves shaped like the planner's
    // proposals (`benches/annealing.rs`).
    let num_layers = profile.model().num_layers;
    let nodes: Vec<NodeId> = profile.cluster().node_ids().collect();
    let mut moves = Vec::with_capacity(64);
    let mut step = 0usize;
    while moves.len() < 64 {
        let node = nodes[step % nodes.len()];
        let max_layers = profile.node_profile(node).max_layers.min(num_layers);
        step += 1;
        if max_layers == 0 {
            continue;
        }
        let len = 1 + (step * 3) % max_layers;
        let start = (step * 11) % (num_layers - len + 1);
        moves.push((node, LayerRange::new(start, start + len)));
    }
    let evaluator =
        IncrementalFlowEvaluator::new(&profile, &placement, true, None, MaxFlowAlgorithm::Dinic)
            .map_err(err)?;
    Ok(EvalRig {
        profile,
        placement,
        moves,
        evaluator,
        next: 0,
    })
}

impl EvalRig {
    fn next_move(&mut self) -> (NodeId, LayerRange) {
        let m = self.moves[self.next % self.moves.len()];
        self.next += 1;
        m
    }

    /// A rejected warm move: assign, then restore.
    pub fn incremental_move(&mut self) -> f64 {
        let (node, range) = self.next_move();
        let base = self.placement.range(node);
        let value = self.evaluator.assign(node, range);
        self.evaluator.restore(node, base);
        value
    }

    /// The same move evaluated cold: clone, rebuild the graph, solve.
    pub fn cold_move(&mut self) -> f64 {
        let (node, range) = self.next_move();
        let mut candidate = self.placement.clone();
        candidate.assign(node, range);
        FlowGraphBuilder::new(&self.profile)
            .build(black_box(&candidate))
            .map(|g| g.max_flow().value)
            .unwrap_or(0.0)
    }
}

// ---------------------------------------------------------------------------
// Generated inputs
// ---------------------------------------------------------------------------

/// The requests a workload submits.  `seed` reaches only the trace generator
/// and the arrival process; the program under test sees just these.
pub struct Requests(Vec<Request>);

impl Requests {
    pub fn len(&self) -> usize {
        self.0.len()
    }
    pub fn prompt_tokens(&self) -> u64 {
        self.0.iter().map(|r| r.prompt_tokens as u64).sum()
    }
    /// Arrival time of the last request, in virtual seconds.
    pub fn horizon_vs(&self) -> f64 {
        self.0.last().map_or(0.0, |r| r.arrival_time)
    }
}

/// Short-conversation lengths: mean 256 in / 64 out, capped at 1024 / 256.
fn short_shape() -> AzureTraceConfig {
    AzureTraceConfig {
        mean_input_tokens: 256.0,
        mean_output_tokens: 64.0,
        max_input_tokens: 1024,
        max_output_tokens: 256,
        ..Default::default()
    }
}

/// `n` requests with the paper's Azure-Conversation lengths, all at t=0.
pub fn requests_offline(n: usize, seed: u64) -> Requests {
    let workload = AzureTraceConfig::default()
        .generate(n, seed)
        .with_arrivals(ArrivalPattern::Offline, seed);
    Requests(workload.requests().to_vec())
}

/// `n` short requests spread round-robin over `models` models, Poisson
/// arrivals at `rate_per_vs` requests per virtual second, 90 % of them
/// sharing one of 8 prefixes of 192 tokens.
pub fn requests_online_shared(n: usize, seed: u64, rate_per_vs: f64, models: usize) -> Requests {
    let tagged: Vec<Request> = short_shape()
        .generate(n, seed)
        .requests()
        .iter()
        .map(|r| Request {
            model: ModelId(r.id as usize % models),
            ..*r
        })
        .collect();
    let workload = Workload::new(tagged)
        .with_arrivals(ArrivalPattern::constant_rate(rate_per_vs), seed)
        .with_shared_prefixes(8, 192, 0.9);
    Requests(workload.requests().to_vec())
}

/// `n` short requests all at t=0, 90 % sharing one of 8 prefixes.
pub fn requests_burst_shared(n: usize, seed: u64) -> Requests {
    let workload = short_shape()
        .generate(n, seed)
        .with_arrivals(ArrivalPattern::Offline, seed)
        .with_shared_prefixes(8, 192, 0.9);
    Requests(workload.requests().to_vec())
}

/// `n` identical untagged requests: 256 prompt tokens, 16 output tokens.
pub fn requests_fixed(n: usize) -> Requests {
    Requests(
        (0..n as u64)
            .map(|id| Request {
                id,
                prompt_tokens: 256,
                output_tokens: 16,
                ..Request::default()
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

pub struct Sched(IwrrScheduler);

pub fn iwrr(topology: &Topo) -> Res<Sched> {
    IwrrScheduler::from_topology(&topology.0)
        .map(Sched)
        .map_err(err)
}

impl Sched {
    /// `n` pipelines scheduled against an idle cluster (stand-alone timing).
    pub fn run(&mut self, n: u64) -> u64 {
        (0..n)
            .map(|_| self.0.schedule(&IdleClusterState).map_or(0, |p| p.depth()) as u64)
            .sum()
    }
}

pub struct FleetSched(FleetScheduler);

pub fn fleet_iwrr(fleet: &FleetTopo) -> Res<FleetSched> {
    FleetScheduler::iwrr(&fleet.0).map(FleetSched).map_err(err)
}

pub struct Sim(SimSession);

/// The offline setting: everything available at t=0, admission control
/// keeps the cluster saturated, no warm-up excluded.
pub fn sim_offline(topology: &Topo, scheduler: Sched, admission_limit: usize) -> Sim {
    let sim = ClusterSimulator::new(&topology.0, Box::new(scheduler.0));
    // The window only has to outlast the run; the report measures up to the
    // last event.
    let config = SimulationConfig::offline(1e9)
        .with_warmup(0.0)
        .with_admission_limit(admission_limit);
    Sim(SimSession::new(sim, config))
}

/// The online setting over a fleet, measured for `window_vs` virtual
/// seconds.  The window is finite on purpose: perturbed runs schedule an
/// observation tick every 10 virtual seconds up to its end.
pub fn sim_online(fleet: &FleetTopo, schedulers: FleetSched, window_vs: f64) -> Sim {
    let sim = ClusterSimulator::new_fleet(&fleet.0, schedulers.0);
    Sim(SimSession::new(
        sim,
        SimulationConfig::online(window_vs).with_warmup(0.0),
    ))
}

/// What one simulated run reported.  Every field is modelled (virtual-time)
/// or a count, so it must repeat bit for bit on identical input.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun {
    pub completed: u64,
    pub distinct_completions: u64,
    pub decode_tok_per_vs: f64,
    pub prompt_lat_vs_p50: f64,
    pub prompt_lat_vs_p95: f64,
    pub decode_lat_vs_p50: f64,
    pub decode_lat_vs_p95: f64,
    pub latency_samples: u64,
    pub virtual_s: f64,
    pub link_transfers: u64,
    pub node_util_mean: f64,
    pub node_util_max: f64,
    pub link_queue_delay_mean_vs: f64,
    pub link_queue_delay_max_vs: f64,
    pub prefix_hits: u64,
    pub prefix_lookups: u64,
    pub prefill_tokens_saved: u64,
    pub repl_chunks: u64,
    pub repl_bytes: f64,
    pub failovers: u64,
    pub promoted: u64,
    pub aborted: u64,
    pub tokens_recomputed: u64,
    pub abort_recompute_tokens: u64,
    pub replans: u64,
}

impl Sim {
    /// RF=2 for every request, replica chunks of 64 pages of 16 tokens.
    pub fn set_rf2(&mut self) {
        self.0.set_replication(ReplicationPolicy::rf2(0, 16));
    }

    pub fn fail_node(&mut self, node: usize, at_vs: f64) {
        self.0.fail_node(NodeId(node), at_vs);
    }

    pub fn submit_all(&mut self, requests: &Requests) {
        for request in &requests.0 {
            black_box(self.0.submit(*request));
        }
    }

    /// Runs the event loop over everything submitted.
    pub fn drain(&mut self) {
        self.0.drain();
    }

    pub fn finish(self) -> SimRun {
        let report = self.0.finish();
        let m = &report.metrics.overall;
        // Sorted, so the mean does not depend on hash-map iteration order.
        let mut utils: Vec<f64> = m.node_utilization.values().copied().collect();
        utils.sort_by(|a, b| a.total_cmp(b));
        let transfers: u64 = m.link_stats.iter().map(|l| l.transfers).sum();
        let mut delays: Vec<(f64, u64)> = m
            .link_stats
            .iter()
            .map(|l| (l.mean_queue_delay, l.transfers))
            .collect();
        delays.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let delay_sum: f64 = delays.iter().map(|&(d, n)| d * n as f64).sum();
        let distinct: HashSet<u64> = report.completions.iter().map(|c| c.id).collect();
        let p = &report.prefix;
        SimRun {
            completed: m.completed_requests,
            distinct_completions: distinct.len() as u64,
            decode_tok_per_vs: m.decode_throughput(),
            prompt_lat_vs_p50: m.prompt_latency.p50,
            prompt_lat_vs_p95: m.prompt_latency.p95,
            decode_lat_vs_p50: m.decode_latency.p50,
            decode_lat_vs_p95: m.decode_latency.p95,
            latency_samples: m.prompt_latency.count as u64,
            virtual_s: m.measured_seconds,
            link_transfers: transfers,
            node_util_mean: utils.iter().sum::<f64>() / utils.len().max(1) as f64,
            node_util_max: utils.last().copied().unwrap_or(0.0),
            link_queue_delay_mean_vs: delay_sum / transfers.max(1) as f64,
            link_queue_delay_max_vs: m
                .link_stats
                .iter()
                .map(|l| l.max_queue_delay)
                .fold(0.0, f64::max),
            prefix_hits: p.prefix_hits,
            prefix_lookups: p.prefix_hits + p.prefix_misses + p.prefix_bypasses,
            prefill_tokens_saved: p.prefill_tokens_saved,
            repl_chunks: report.replication.chunks,
            repl_bytes: report.replication.bytes,
            failovers: report.failovers.len() as u64,
            promoted: report
                .failovers
                .iter()
                .map(|f| f.promoted.len() as u64)
                .sum(),
            aborted: report
                .failovers
                .iter()
                .map(|f| f.aborted.len() as u64)
                .sum(),
            tokens_recomputed: report.failovers.iter().map(|f| f.tokens_recomputed).sum(),
            abort_recompute_tokens: report
                .failovers
                .iter()
                .map(|f| f.abort_recompute_tokens)
                .sum(),
            replans: report.replans.len() as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

pub struct Rt(ServingSession);

/// A live serving session with instant execution: worker batches cost no
/// wall time, so what is measured is the runtime's own code.
pub fn runtime(topology: &Topo) -> Res<Rt> {
    ServingBuilder::new()
        .topology(&topology.0)
        .config(RuntimeConfig {
            wall_per_virtual: 1e-4,
            execution: ExecutionKind::Instant,
            max_wall: Duration::from_secs(600),
            ..RuntimeConfig::default()
        })
        .build()
        .map(Rt)
        .map_err(err)
}

/// What one runtime session reported.
#[derive(Debug, Clone, PartialEq)]
pub struct RtRun {
    pub completed: u64,
    /// Outcomes whose id is unknown or duplicated, or whose token counts
    /// differ from the submitted request's.
    pub bad_outcomes: u64,
    pub messages: u64,
    pub batches: u64,
    pub batch_tokens: u64,
    pub kv_rejections: u64,
    pub kv_peak_util_max: f64,
    pub prefix_hits: u64,
    pub prefix_lookups: u64,
    pub prefill_tokens_saved: u64,
    pub repl_chunks: u64,
    pub repl_bytes: f64,
}

impl Rt {
    pub fn set_rf2(&mut self) {
        self.0.set_replication(ReplicationPolicy::rf2(0, 16));
    }

    pub fn submit_all(&mut self, requests: &Requests) {
        for request in &requests.0 {
            black_box(self.0.submit(*request));
        }
    }

    /// Submits request `index` and blocks until its completion arrives.
    pub fn round_trip(&mut self, requests: &Requests, index: usize) -> Res<()> {
        let ticket = self.0.submit(requests.0[index]);
        let outcome = self.0.wait_completion(ticket).map_err(err)?;
        if outcome.id != requests.0[index].id {
            return Err(format!("completion {} for ticket {ticket:?}", outcome.id));
        }
        Ok(())
    }

    pub fn drain(&mut self) -> Res<()> {
        self.0.drain().map_err(err)
    }

    /// Shuts the data plane down and checks every outcome against the
    /// first `submitted` requests of `requests`.
    pub fn finish(self, requests: &Requests, submitted: usize) -> Res<RtRun> {
        let report = self.0.finish().map_err(err)?;
        let sent = &requests.0[..submitted];
        let mut seen: HashSet<u64> = HashSet::with_capacity(sent.len());
        let mut bad = 0u64;
        // Ids are dense (`0..n`) in every generated input.
        for o in &report.outcomes {
            let matches = sent.get(o.id as usize).is_some_and(|r| {
                r.id == o.id
                    && r.prompt_tokens == o.prompt_tokens
                    && r.output_tokens == o.output_tokens
            });
            if !matches || !seen.insert(o.id) {
                bad += 1;
            }
        }
        let p = &report.prefix;
        Ok(RtRun {
            completed: report.completed() as u64,
            bad_outcomes: bad,
            messages: report.links.iter().map(|l| l.messages).sum(),
            batches: report.nodes.iter().map(|n| n.batches).sum(),
            batch_tokens: report
                .nodes
                .iter()
                .map(|n| n.prompt_tokens + n.decode_tokens)
                .sum(),
            kv_rejections: report.nodes.iter().map(|n| n.kv_rejections).sum(),
            kv_peak_util_max: report
                .nodes
                .iter()
                .map(|n| n.kv_peak_utilization)
                .fold(0.0, f64::max),
            prefix_hits: p.prefix_hits,
            prefix_lookups: p.prefix_hits + p.prefix_misses + p.prefix_bypasses,
            prefill_tokens_saved: p.prefill_tokens_saved,
            repl_chunks: report.replication.chunks,
            repl_bytes: report.replication.bytes,
        })
    }
}

// ---------------------------------------------------------------------------
// Single components, for the stand-alone layer timings.  Every `run(n)`
// performs `n` operations and returns a value that depends on all of them.
// ---------------------------------------------------------------------------

/// `KvCacheEstimator`: schedule, read the estimate, finish.
pub struct KvEstimateRig(KvCacheEstimator);

pub fn kv_estimate_rig(profile: &Profile) -> KvEstimateRig {
    KvEstimateRig(KvCacheEstimator::new(&profile.0, 232.0))
}

impl KvEstimateRig {
    pub fn run(&mut self, n: u64) -> u64 {
        let mut acc = 0.0;
        for i in 0..n {
            let node = NodeId((i % 8) as usize);
            self.0.on_scheduled(node, i, 256);
            acc += self.0.estimated_tokens(node);
            self.0.on_finished(node, i, 64);
        }
        acc as u64
    }
}

/// `PrefixRouter`: a hit on one of 8 resident prefixes, then its release.
pub struct PrefixRig(PrefixRouter);

pub fn prefix_rig(topology: &Topo) -> Res<PrefixRig> {
    let mut scheduler = IwrrScheduler::from_topology(&topology.0).map_err(err)?;
    let mut router = PrefixRouter::new();
    for p in 0..8u64 {
        let pipeline = scheduler.schedule(&IdleClusterState).map_err(err)?;
        router.adopt(PrefixId(p), 192, &pipeline);
    }
    Ok(PrefixRig(router))
}

impl PrefixRig {
    pub fn run(&mut self, n: u64) -> u64 {
        let mut hits = 0;
        for i in 0..n {
            let prefix = PrefixId(i % 8);
            if let PrefixRoute::Hit { shared_tokens, .. } =
                self.0.route(prefix, 192, &IdleClusterState)
            {
                hits += shared_tokens as u64;
                self.0.release(prefix);
            }
        }
        hits
    }
}

/// `select_standby` over 24 candidate tenancies.
pub struct StandbyRig(Vec<(NodeId, LayerRange)>);

pub fn standby_rig() -> StandbyRig {
    StandbyRig(
        (0..24usize)
            .map(|i| (NodeId(i), LayerRange::new((i % 4) * 10, (i % 4) * 10 + 20)))
            .collect(),
    )
}

impl StandbyRig {
    pub fn run(&mut self, n: u64) -> u64 {
        (0..n)
            .map(|i| {
                let failed = NodeId((i % 24) as usize);
                let layers = LayerRange::new(10, 20);
                select_standby(failed, layers, black_box(&self.0)).map_or(0, |node| node.0 as u64)
            })
            .sum()
    }
}

/// `RegionRing::route` over 12 regions.
pub struct RingRig(RegionRing);

pub fn ring_rig() -> RingRig {
    let regions: Vec<Region> = (0..12).map(Region).collect();
    RingRig(RegionRing::new(&regions, RingOptions::default()))
}

impl RingRig {
    pub fn run(&mut self, n: u64) -> u64 {
        (0..n)
            .map(|key| self.0.route(black_box(key)).map_or(0, |r| r.0 as u64))
            .sum()
    }
}

/// `LinkQueue::transfer` on a 10 Gb/s, 1 ms link that stays backlogged.
pub struct LinkRig(LinkQueue);

pub fn link_rig() -> LinkRig {
    LinkRig(LinkQueue::new(1.25e9, 1e-3))
}

impl LinkRig {
    pub fn run(&mut self, n: u64) -> u64 {
        let mut last = 0.0;
        for i in 0..n {
            last = self.0.transfer(i as f64 * 1e-6, 16_384.0);
        }
        last.to_bits()
    }
}

/// `EventQueue`: one push and one pop on a queue holding 1024 events.
pub struct EventRig(EventQueue, f64);

pub fn event_rig() -> EventRig {
    let mut queue = EventQueue::new();
    for request in 0..1024u64 {
        queue.push(request as f64 * 1e-3, Event::RequestArrival { request });
    }
    EventRig(queue, 1.024)
}

impl EventRig {
    pub fn run(&mut self, n: u64) -> u64 {
        let mut popped = 0;
        for request in 0..n {
            self.1 += 1e-3;
            self.0.push(self.1, Event::RequestArrival { request });
            if let Some((_, Event::RequestArrival { request })) = self.0.pop() {
                popped += request;
            }
        }
        popped
    }
}

/// `PagedKvPool`: a request's prompt pages, 16 decode appends, its release.
pub struct KvPoolRig(PagedKvPool);

pub fn kv_pool_rig() -> KvPoolRig {
    KvPoolRig(PagedKvPool::new(1_000_000.0, 16))
}

impl KvPoolRig {
    pub fn run(&mut self, n: u64) -> u64 {
        let mut ok = 0;
        for request in 0..n {
            ok += self.0.append_tokens(request, 256).is_ok() as u64;
            for _ in 0..16 {
                ok += self.0.append_tokens(request, 1).is_ok() as u64;
            }
            ok += self.0.release(request) as u64;
        }
        ok
    }

    /// Attach + detach of a resident 192-token shared prefix.
    pub fn run_prefix(&mut self, n: u64) -> u64 {
        let prefix = PrefixId(1);
        let mut ok = self.0.attach_prefix(prefix, 192).is_ok() as u64;
        for _ in 0..n {
            ok += self.0.attach_prefix(prefix, 192).is_ok() as u64;
            ok += self.0.detach_prefix(prefix) as u64;
        }
        ok + self.0.detach_prefix(prefix) as u64
    }
}

/// The runtime's single-threaded executor, its channels and its timers.
pub struct MinirtRig(minirt::Executor);

pub fn minirt_rig() -> MinirtRig {
    MinirtRig(minirt::Executor::new())
}

impl MinirtRig {
    /// Spawns `n` tasks and runs them all to completion.
    pub fn run_spawn(&mut self, n: u64) -> u64 {
        let handles: Vec<_> = (0..n).map(|i| self.0.spawn(async move { i })).collect();
        self.0.block_on(async move {
            let mut sum = 0;
            for handle in handles {
                sum += handle.await;
            }
            sum
        })
    }

    /// `n` messages between two tasks: `n / 2` ping-pong round trips, so
    /// every message wakes a receiver that was parked on its channel.
    pub fn run_channel(&mut self, n: u64) -> u64 {
        let (tx, rx) = minirt::channel::unbounded::<u64>();
        let (ack_tx, ack_rx) = minirt::channel::unbounded::<u64>();
        let echo = self.0.spawn(async move {
            while let Ok(v) = rx.recv().await {
                if ack_tx.send(v).is_err() {
                    break;
                }
            }
        });
        self.0.block_on(async move {
            let mut sum = 0;
            for i in 0..n / 2 {
                let _ = tx.send(i);
                sum += ack_rx.recv().await.unwrap_or(0);
            }
            drop(tx);
            echo.await;
            sum
        })
    }

    /// `n` zero-length sleeps, each a timer registration and a wake-up.
    pub fn run_timer(&mut self, n: u64) -> u64 {
        self.0.block_on(async move {
            for _ in 0..n {
                minirt::time::sleep(Duration::ZERO).await;
            }
            n
        })
    }
}
