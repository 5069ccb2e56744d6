//! Multi-model fleets: several models sharing one heterogeneous cluster.
//!
//! The paper plans and schedules a **single** model; this module generalises
//! the planning→scheduling pipeline to N models co-located on shared GPUs:
//!
//! * [`FleetPlacement`] — one [`ModelPlacement`] per model, with fleet-level
//!   validation that the combined weight bytes fit every node's VRAM budget.
//! * [`FleetTopology`] — the shared-node accounting plus one per-model
//!   [`Topology`] planned on a *capacity-split* view of the cluster: a node
//!   hosting several models contributes a compute share (proportional to the
//!   FLOPs of the layers each model placed there) and a KV share
//!   (proportional to each model's KV bytes per token) to each of them.
//!   A node hosting a single model keeps its numbers **bit-identical** to the
//!   single-model profile, so an N=1 fleet reproduces the existing pipeline
//!   exactly.
//! * [`FleetScheduler`] — per-model schedulers (Helix IWRR by default, each
//!   with its own max-flow weights) behind one `schedule(model, state)` entry
//!   point; returned pipelines are tagged with their [`ModelId`].
//! * [`FleetAnnealingPlanner`] — a joint simulated-annealing search over all
//!   models at once.  Each model keeps a warm-started
//!   [`IncrementalFlowEvaluator`], and besides the usual single-node layer
//!   moves the search proposes **cross-model moves** that hand a node (and a
//!   layer range) from one model to another — both sides re-solve warm from
//!   their standing residual networks, so fleet planning costs little more
//!   than N independent single-model searches.
//!
//! Link capacities are *not* split between models: the planner's disjoint
//! partitions never share a node→node link, and coordinator links are orders
//! of magnitude above compute capacity.  Node compute and KV capacity are
//! strictly partitioned.

use crate::error::HelixError;
use crate::flow_graph::Endpoint;
use crate::placement::incremental::IncrementalFlowEvaluator;
use crate::placement::refine::{
    cold_flow, metropolis, AnnealingOptions, FlowAnnealingPlanner, COOLING, INITIAL_TEMPERATURE,
};
use crate::placement::{LayerRange, ModelPlacement};
use crate::replan::{NodeObservations, PlacementDelta, ReplanOutcome};
use crate::scheduling::iwrr::IwrrScheduler;
use crate::scheduling::prefix::PrefixRouter;
use crate::scheduling::{ClusterState, RequestPipeline, Scheduler, SchedulerKind};
use crate::topology::Topology;
use helix_cluster::{
    ClusterProfile, ClusterSpec, ModelConfig, ModelId, NodeId, MAX_WEIGHT_VRAM_FRACTION,
};
use helix_maxflow::MaxFlowAlgorithm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Builds the per-model [`ClusterProfile`]s of a fleet: one analytic profile
/// per model, all over the same cluster.
pub fn fleet_profiles(cluster: &ClusterSpec, models: &[ModelConfig]) -> Vec<ClusterProfile> {
    models
        .iter()
        .map(|m| ClusterProfile::analytic(cluster.clone(), m.clone()))
        .collect()
}

/// One layer-range placement per model of the fleet.
///
/// # Example
///
/// ```rust
/// use helix_cluster::{ClusterSpec, ModelConfig, ModelId};
/// use helix_core::fleet::{fleet_profiles, FleetPlacement};
/// use helix_core::heuristics;
///
/// let profiles = fleet_profiles(
///     &ClusterSpec::solver_quality_10(),
///     &[ModelConfig::llama_30b()],
/// );
/// let placement = heuristics::swarm_placement(&profiles[0]).unwrap();
/// let fleet = FleetPlacement::single(placement);
/// assert_eq!(fleet.num_models(), 1);
/// assert!(fleet.validate(&profiles).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlacement {
    placements: Vec<ModelPlacement>,
}

impl FleetPlacement {
    /// Builds a fleet placement from one placement per model.
    ///
    /// # Panics
    ///
    /// Panics if `placements` is empty.
    pub fn new(placements: Vec<ModelPlacement>) -> Self {
        assert!(!placements.is_empty(), "a fleet serves at least one model");
        FleetPlacement { placements }
    }

    /// Wraps a single-model placement as a one-model fleet.
    pub fn single(placement: ModelPlacement) -> Self {
        FleetPlacement {
            placements: vec![placement],
        }
    }

    /// Number of models in the fleet.
    pub fn num_models(&self) -> usize {
        self.placements.len()
    }

    /// The placement of one model.
    pub fn placement(&self, model: ModelId) -> Option<&ModelPlacement> {
        self.placements.get(model.index())
    }

    /// All per-model placements, indexed by [`ModelId`].
    pub fn placements(&self) -> &[ModelPlacement] {
        &self.placements
    }

    /// Validates every per-model placement against its profile and checks the
    /// fleet-level constraint: the combined weight bytes of all models on a
    /// node must fit the node's weight VRAM budget.
    ///
    /// # Errors
    ///
    /// Returns the first per-model validation error, or
    /// [`HelixError::FleetVramOverflow`] when co-located models over-commit a
    /// node's VRAM.
    pub fn validate(&self, profiles: &[ClusterProfile]) -> Result<(), HelixError> {
        assert_eq!(
            self.placements.len(),
            profiles.len(),
            "one profile per model"
        );
        for (placement, profile) in self.placements.iter().zip(profiles) {
            placement.validate(profile)?;
        }
        let cluster = profiles[0].cluster();
        for node in cluster.node_ids() {
            let needed: f64 = self
                .placements
                .iter()
                .zip(profiles)
                .filter_map(|(p, prof)| {
                    p.range(node)
                        .map(|r| r.len() as f64 * prof.model().layer_weight_bytes())
                })
                .sum();
            let budget = profiles[0].node_profile(node).vram_bytes * MAX_WEIGHT_VRAM_FRACTION;
            if needed > budget {
                return Err(HelixError::FleetVramOverflow {
                    node,
                    needed_bytes: needed,
                    budget_bytes: budget,
                });
            }
        }
        Ok(())
    }
}

/// One node's capacity split between the fleet's tenants: a compute share
/// and an optional VRAM override per model.
///
/// Compute shares are proportional to the FLOPs of the layers each model
/// placed on the node; KV shares to the KV bytes its cached tokens would
/// occupy.  Sole tenants get exactly `1.0` / the full free VRAM, which keeps
/// the N=1 fleet bit-identical to the single-model profile.  When a measured
/// [`NodeObservations`] entry exists for a (node, model) engine, the
/// analytic share is multiplied by the observed speed factor — planning then
/// prices the node as it actually performs, not as the data sheet promised.
fn node_capacity_split(
    profiles: &[ClusterProfile],
    placement: &FleetPlacement,
    observed: &NodeObservations,
    node: NodeId,
) -> Vec<(f64, Option<f64>)> {
    let num_models = profiles.len();
    let mut split: Vec<(f64, Option<f64>)> = vec![(1.0, None); num_models];
    let tenants: Vec<usize> = (0..num_models)
        .filter(|&m| placement.placements()[m].range(node).is_some())
        .collect();
    if tenants.len() >= 2 {
        let layers = |m: usize| placement.placements()[m].range(node).map_or(0, |r| r.len()) as f64;
        let flops_demand: Vec<f64> = tenants
            .iter()
            .map(|&m| layers(m) * profiles[m].model().layer_flops_per_token())
            .collect();
        let flops_total: f64 = flops_demand.iter().sum();
        let weight_bytes: Vec<f64> = tenants
            .iter()
            .map(|&m| layers(m) * profiles[m].model().layer_weight_bytes())
            .collect();
        let kv_demand: Vec<f64> = tenants
            .iter()
            .map(|&m| layers(m) * profiles[m].model().kv_bytes_per_token_per_layer())
            .collect();
        let kv_total: f64 = kv_demand.iter().sum();
        let vram = profiles[0].node_profile(node).vram_bytes;
        let free = (vram - weight_bytes.iter().sum::<f64>()).max(0.0);
        for (t, &m) in tenants.iter().enumerate() {
            split[m].0 = flops_demand[t] / flops_total.max(1e-12);
            let kv_share = kv_demand[t] / kv_total.max(1e-12);
            split[m].1 = Some(weight_bytes[t] + kv_share * free);
        }
    }
    for &m in &tenants {
        if let Some(speed) = observed.speed_factor(node, ModelId(m)) {
            split[m].0 *= speed;
        }
    }
    split
}

/// The node→node link flows of a planned topology, keyed by directed pair.
fn node_link_flows(topology: &Topology) -> BTreeMap<(NodeId, NodeId), f64> {
    topology
        .links()
        .iter()
        .filter_map(|l| match (l.from, l.to) {
            (Endpoint::Node(a), Endpoint::Node(b)) => Some(((a, b), l.flow)),
            _ => None,
        })
        .collect()
}

/// Splits every link that is valid under ≥2 models by the models' pass-1
/// flow shares, mirroring how node compute/KV are split.  Links valid under
/// a single model get no entry (their capacity stays bit-identical); a link
/// nobody routed flow over in pass 1 is split evenly among its tenants.
fn derive_link_shares(
    unsplit_link_flows: &[BTreeMap<(NodeId, NodeId), f64>],
) -> Vec<BTreeMap<(NodeId, NodeId), f64>> {
    let num_models = unsplit_link_flows.len();
    let mut shares: Vec<BTreeMap<(NodeId, NodeId), f64>> = vec![BTreeMap::new(); num_models];
    let mut tenants: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
    for (m, flows) in unsplit_link_flows.iter().enumerate() {
        for &link in flows.keys() {
            tenants.entry(link).or_default().push(m);
        }
    }
    for (link, models) in tenants {
        if models.len() < 2 {
            continue;
        }
        let flows: Vec<f64> = models
            .iter()
            .map(|&m| unsplit_link_flows[m][&link])
            .collect();
        let total: f64 = flows.iter().sum();
        for (i, &m) in models.iter().enumerate() {
            let share = if total > 0.0 {
                flows[i] / total
            } else {
                1.0 / models.len() as f64
            };
            shares[m].insert(link, share);
        }
    }
    shares
}

/// The multi-model planning artifact: shared-node accounting plus one
/// [`Topology`] per model, each planned on its capacity-split profile.
///
/// Beyond the one-shot [`FleetTopology::plan`], the artifact is **mutable**:
/// [`FleetTopology::replan`] closes the online loop by applying a
/// [`PlacementDelta`] and a fresh [`NodeObservations`] snapshot, re-deriving
/// compute/KV shares only for the touched nodes and re-solving only the
/// affected models, through a deterministic materialisation that is
/// property-tested bit-identical to a from-scratch [`FleetTopology::plan`]
/// of the mutated placement.
#[derive(Debug, Clone)]
pub struct FleetTopology {
    /// Base (unscaled) per-model profiles; scaling is re-derived on re-plan.
    profiles: Vec<ClusterProfile>,
    placement: FleetPlacement,
    partial_inference: bool,
    /// The observation snapshot the current shares were derived from.
    observations: NodeObservations,
    topologies: Vec<Topology>,
    /// `compute_shares[model][node]`: this model's fraction of the node's
    /// compute (1.0 for sole tenants and for nodes the model does not use),
    /// multiplied by the observed speed factor when one is recorded.
    compute_shares: Vec<Vec<f64>>,
    /// `vram_overrides[model][node]`: the VRAM slice backing this model's KV
    /// arithmetic on shared nodes (`None` = full node VRAM).
    vram_overrides: Vec<Vec<Option<f64>>>,
    /// Pass-1 (unsplit-link) node→node flows per model, the inputs to the
    /// cross-model link split.
    unsplit_link_flows: Vec<BTreeMap<(NodeId, NodeId), f64>>,
    /// Per-model shares of links valid under ≥2 models (empty for a model
    /// whose links are all sole-tenant).
    link_shares: Vec<BTreeMap<(NodeId, NodeId), f64>>,
}

impl FleetTopology {
    /// Plans the fleet: computes per-node compute/KV shares from the
    /// placements and solves one max flow per model on its share-scaled
    /// profile.
    ///
    /// # Errors
    ///
    /// Propagates fleet and per-model placement validation errors.
    pub fn plan(
        profiles: &[ClusterProfile],
        placement: &FleetPlacement,
        partial_inference: bool,
    ) -> Result<Self, HelixError> {
        Self::plan_observed(
            profiles,
            placement,
            partial_inference,
            &NodeObservations::new(),
        )
    }

    /// Like [`FleetTopology::plan`], but prices every observed (node, model)
    /// engine at its measured speed factor instead of the analytic share —
    /// the entry point online re-planning and observation-aware offline
    /// planning share.  An empty observation set reproduces
    /// [`FleetTopology::plan`] bit-identically.
    ///
    /// # Errors
    ///
    /// Propagates fleet and per-model placement validation errors.
    pub fn plan_observed(
        profiles: &[ClusterProfile],
        placement: &FleetPlacement,
        partial_inference: bool,
        observed: &NodeObservations,
    ) -> Result<Self, HelixError> {
        placement.validate(profiles)?;
        let cluster = profiles[0].cluster();
        let n = cluster.num_nodes();
        let num_models = profiles.len();

        let mut compute_shares = vec![vec![1.0f64; n]; num_models];
        let mut vram_overrides: Vec<Vec<Option<f64>>> = vec![vec![None; n]; num_models];
        for node in cluster.node_ids() {
            let split = node_capacity_split(profiles, placement, observed, node);
            for (m, (share, vram)) in split.into_iter().enumerate() {
                compute_shares[m][node.index()] = share;
                vram_overrides[m][node.index()] = vram;
            }
        }

        // Pass 1: per-model solves with full link capacities; their flows
        // decide how fleet-shared links are split.
        let mut pass1 = Vec::with_capacity(num_models);
        let mut unsplit_link_flows = Vec::with_capacity(num_models);
        for (m, profile) in profiles.iter().enumerate() {
            let scaled = profile.scaled(&compute_shares[m], &vram_overrides[m]);
            let topology = Topology::plan(&scaled, &placement.placements()[m], partial_inference)?;
            unsplit_link_flows.push(node_link_flows(&topology));
            pass1.push((topology, scaled));
        }
        let link_shares = derive_link_shares(&unsplit_link_flows);

        // Pass 2: models routing over fleet-shared links re-solve with their
        // split capacities; everyone else keeps the pass-1 topology.
        let mut topologies = Vec::with_capacity(num_models);
        for (m, (topology, scaled)) in pass1.into_iter().enumerate() {
            if link_shares[m].is_empty() {
                topologies.push(topology);
            } else {
                topologies.push(Topology::plan_with_link_shares(
                    &scaled,
                    &placement.placements()[m],
                    partial_inference,
                    &link_shares[m],
                )?);
            }
        }

        Ok(FleetTopology {
            profiles: profiles.to_vec(),
            placement: placement.clone(),
            partial_inference,
            observations: observed.clone(),
            topologies,
            compute_shares,
            vram_overrides,
            unsplit_link_flows,
            link_shares,
        })
    }

    /// Wraps an already-planned single-model [`Topology`] as a one-model
    /// fleet (the trivial N=1 case; nothing is re-planned).
    pub fn single(topology: Topology) -> Self {
        let n = topology.profile().cluster().num_nodes();
        let unsplit = node_link_flows(&topology);
        FleetTopology {
            profiles: vec![topology.profile().clone()],
            placement: FleetPlacement::single(topology.placement().clone()),
            partial_inference: topology.partial_inference(),
            observations: NodeObservations::new(),
            topologies: vec![topology],
            compute_shares: vec![vec![1.0; n]],
            vram_overrides: vec![vec![None; n]],
            unsplit_link_flows: vec![unsplit],
            link_shares: vec![BTreeMap::new()],
        }
    }

    /// Applies a placement delta plus a fresh observation snapshot to the
    /// standing fleet plan: re-derives compute/KV shares **only for the
    /// nodes the delta or the observation change touches** and
    /// re-materialises only the affected models' topologies (through the same
    /// deterministic code path as [`FleetTopology::plan_observed`], so the
    /// result is bit-identical to a from-scratch plan of the mutated
    /// placement under the same observations).  Unaffected models' planned
    /// topologies, IWRR weights and link splits are left untouched.
    ///
    /// `observed` is a full snapshot: pairs present in the previous snapshot
    /// but absent here revert to their analytic shares.
    ///
    /// A delta carrying [`KvMigration`](crate::replan::KvMigration)s is first
    /// resolved against the current placement
    /// ([`PlacementDelta::resolve`]); the applied migrations are echoed in
    /// the outcome so the execution surface can move the KV pages — planning
    /// itself moves no state.
    ///
    /// # Errors
    ///
    /// Returns [`HelixError::UnknownModel`] for a delta naming a model the
    /// fleet does not serve and propagates validation/planning errors for
    /// the mutated placement.  On error the fleet plan is left unchanged.
    pub fn replan(
        &mut self,
        delta: &PlacementDelta,
        observed: &NodeObservations,
    ) -> Result<ReplanOutcome, HelixError> {
        let num_models = self.profiles.len();
        for model in delta.models() {
            if model.index() >= num_models {
                return Err(HelixError::UnknownModel { model, num_models });
            }
        }

        // 1. Resolve migrations against the current placement into explicit
        // changes, then mutate and validate (on a copy; commit later).
        let changes = delta.resolve(&self.placement)?;
        let mut new_placements = self.placement.placements().to_vec();
        for &(model, node, range) in &changes {
            match range {
                Some(r) => new_placements[model.index()].assign(node, r),
                None => new_placements[model.index()].clear(node),
            }
        }
        let new_placement = FleetPlacement::new(new_placements);
        new_placement.validate(&self.profiles)?;

        // 2. Touched nodes: everything the delta moves plus every node whose
        // effective observation changed against the stored snapshot.
        let cluster = self.profiles[0].cluster().clone();
        let mut touched = delta.touched_nodes();
        for node in cluster.node_ids() {
            if touched.contains(&node) {
                continue;
            }
            let changed = (0..num_models).any(|m| {
                observed.speed_factor(node, ModelId(m))
                    != self.observations.speed_factor(node, ModelId(m))
            });
            if changed {
                touched.push(node);
            }
        }
        touched.sort();

        // 3. Affected models: any tenant (old or new) of a touched node,
        // plus every model the delta names.
        let mut affected: Vec<usize> = delta.models().iter().map(|m| m.index()).collect();
        for &node in &touched {
            for m in 0..num_models {
                if self.placement.placements()[m].range(node).is_some()
                    || new_placement.placements()[m].range(node).is_some()
                {
                    affected.push(m);
                }
            }
        }
        affected.sort();
        affected.dedup();
        if affected.is_empty() {
            self.placement = new_placement;
            self.observations = observed.clone();
            return Ok(ReplanOutcome {
                affected: Vec::new(),
                warm_flow_values: Vec::new(),
                migrations: Vec::new(),
            });
        }

        // 4. Re-derive shares for the touched nodes only.
        let mut compute_shares = self.compute_shares.clone();
        let mut vram_overrides = self.vram_overrides.clone();
        for &node in &touched {
            let split = node_capacity_split(&self.profiles, &new_placement, observed, node);
            for (m, (share, vram)) in split.into_iter().enumerate() {
                compute_shares[m][node.index()] = share;
                vram_overrides[m][node.index()] = vram;
            }
        }

        // 5. Pass 1 for the affected models (fallible; nothing committed yet).
        let mut scaled_profiles: BTreeMap<usize, ClusterProfile> = BTreeMap::new();
        let mut pass1: BTreeMap<usize, Topology> = BTreeMap::new();
        let mut unsplit = self.unsplit_link_flows.clone();
        for &m in &affected {
            let scaled = self.profiles[m].scaled(&compute_shares[m], &vram_overrides[m]);
            let topology = Topology::plan(
                &scaled,
                &new_placement.placements()[m],
                self.partial_inference,
            )?;
            unsplit[m] = node_link_flows(&topology);
            pass1.insert(m, topology);
            scaled_profiles.insert(m, scaled);
        }

        // 6. Re-derive the cross-model link split.  A model whose link
        // shares moved is coupled into the affected set even if none of its
        // own nodes were touched.
        let link_shares = derive_link_shares(&unsplit);
        let mut final_affected = affected;
        for (m, shares) in link_shares.iter().enumerate() {
            if *shares != self.link_shares[m] && !final_affected.contains(&m) {
                final_affected.push(m);
            }
        }
        final_affected.sort();

        // 7. Materialise the affected models' final topologies (the last
        // fallible step; `self` is untouched until it succeeds).
        let mut new_topologies: BTreeMap<usize, Topology> = BTreeMap::new();
        for &m in &final_affected {
            let scaled = scaled_profiles
                .remove(&m)
                .unwrap_or_else(|| self.profiles[m].scaled(&compute_shares[m], &vram_overrides[m]));
            let topology = if link_shares[m].is_empty() {
                match pass1.remove(&m) {
                    Some(t) => t,
                    None => Topology::plan(
                        &scaled,
                        &new_placement.placements()[m],
                        self.partial_inference,
                    )?,
                }
            } else {
                Topology::plan_with_link_shares(
                    &scaled,
                    &new_placement.placements()[m],
                    self.partial_inference,
                    &link_shares[m],
                )?
            };
            new_topologies.insert(m, topology);
        }

        // 8. Commit: swap in the new planning facts.
        let warm_flow_values = new_topologies.values().map(Topology::flow_value).collect();
        for (m, topology) in new_topologies {
            self.topologies[m] = topology;
        }
        self.compute_shares = compute_shares;
        self.vram_overrides = vram_overrides;
        self.unsplit_link_flows = unsplit;
        self.link_shares = link_shares;
        self.placement = new_placement;
        self.observations = observed.clone();
        Ok(ReplanOutcome {
            affected: final_affected.into_iter().map(ModelId).collect(),
            warm_flow_values,
            migrations: delta.migrations().to_vec(),
        })
    }

    /// Number of models in the fleet.
    pub fn num_models(&self) -> usize {
        self.topologies.len()
    }

    /// The planned topology of one model.
    pub fn model(&self, model: ModelId) -> Option<&Topology> {
        self.topologies.get(model.index())
    }

    /// All per-model topologies, indexed by [`ModelId`].
    pub fn topologies(&self) -> &[Topology] {
        &self.topologies
    }

    /// The fleet placement the current plan realises.
    pub fn placement(&self) -> &FleetPlacement {
        &self.placement
    }

    /// The base (unscaled) per-model profiles the fleet plans against.
    pub fn profiles(&self) -> &[ClusterProfile] {
        &self.profiles
    }

    /// Whether connection validity allows partial inference.
    pub fn partial_inference(&self) -> bool {
        self.partial_inference
    }

    /// The observation snapshot the current shares were derived from.
    pub fn observations(&self) -> &NodeObservations {
        &self.observations
    }

    /// One model's profile under the **analytic** contention split of the
    /// current placement: compute/KV shares re-derived as if no observation
    /// existed.  This is the physical capacity split execution surfaces run
    /// engines at — a measured speed factor belongs to planning (pricing the
    /// node), not to execution (it would double-count the slowdown the
    /// measurement already reflects).
    pub fn contention_profile(&self, model: ModelId) -> ClusterProfile {
        let m = model.index();
        let cluster = self.profiles[0].cluster();
        let n = cluster.num_nodes();
        let mut shares = vec![1.0f64; n];
        let mut overrides: Vec<Option<f64>> = vec![None; n];
        let empty = NodeObservations::new();
        for node in cluster.node_ids() {
            let split = node_capacity_split(&self.profiles, &self.placement, &empty, node);
            shares[node.index()] = split[m].0;
            overrides[node.index()] = split[m].1;
        }
        self.profiles[m].scaled(&shares, &overrides)
    }

    /// This model's fraction of `node`'s compute (1.0 when it is the sole
    /// tenant or does not use the node), including any observed speed factor.
    pub fn compute_share(&self, model: ModelId, node: NodeId) -> f64 {
        self.compute_shares
            .get(model.index())
            .and_then(|s| s.get(node.index()))
            .copied()
            .unwrap_or(1.0)
    }

    /// This model's share of the directed link `from → to` (1.0 when the
    /// link is not shared with another model).
    pub fn link_share(&self, model: ModelId, from: NodeId, to: NodeId) -> f64 {
        self.link_shares
            .get(model.index())
            .and_then(|s| s.get(&(from, to)))
            .copied()
            .unwrap_or(1.0)
    }

    /// Sum of the per-model max-flow throughputs (tokens/s).
    pub fn total_flow_value(&self) -> f64 {
        self.topologies.iter().map(Topology::flow_value).sum()
    }
}

/// Per-model schedulers behind one `schedule(model, state)` entry point.
pub struct FleetScheduler {
    schedulers: Vec<Box<dyn Scheduler>>,
}

impl FleetScheduler {
    /// Builds one Helix IWRR scheduler per model from the fleet topology.
    ///
    /// # Errors
    ///
    /// Propagates the zero-flow error of any model's scheduler.
    pub fn iwrr(fleet: &FleetTopology) -> Result<Self, HelixError> {
        let schedulers = fleet
            .topologies()
            .iter()
            .map(|t| IwrrScheduler::from_topology(t).map(|s| Box::new(s) as Box<dyn Scheduler>))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FleetScheduler { schedulers })
    }

    /// Builds the fleet scheduler from explicit per-model schedulers.
    ///
    /// # Panics
    ///
    /// Panics if `schedulers` is empty.
    pub fn new(schedulers: Vec<Box<dyn Scheduler>>) -> Self {
        assert!(!schedulers.is_empty(), "a fleet serves at least one model");
        FleetScheduler { schedulers }
    }

    /// Number of models the scheduler serves.
    pub fn num_models(&self) -> usize {
        self.schedulers.len()
    }

    /// Unwraps the per-model schedulers (consumed by execution surfaces that
    /// drive one scheduler per model).
    pub fn into_parts(self) -> Vec<Box<dyn Scheduler>> {
        self.schedulers
    }

    /// One cache-aware [`PrefixRouter`] per model, to be layered on top of
    /// the base per-model schedulers (consult the router first; fall back to
    /// the base policy on a miss or bypass).
    pub fn prefix_routers(&self) -> Vec<PrefixRouter> {
        (0..self.schedulers.len())
            .map(|_| PrefixRouter::new())
            .collect()
    }

    /// The scheduling policy used for one model.
    pub fn kind(&self, model: ModelId) -> Option<SchedulerKind> {
        self.schedulers.get(model.index()).map(|s| s.kind())
    }

    /// Produces a pipeline for the next request of `model`, tagged with the
    /// model id.
    ///
    /// # Errors
    ///
    /// Returns [`HelixError::UnknownModel`] for an out-of-range model and
    /// propagates the underlying scheduler's errors.
    pub fn schedule(
        &mut self,
        model: ModelId,
        state: &dyn ClusterState,
    ) -> Result<RequestPipeline, HelixError> {
        let num_models = self.schedulers.len();
        let scheduler = self
            .schedulers
            .get_mut(model.index())
            .ok_or(HelixError::UnknownModel { model, num_models })?;
        let mut pipeline = scheduler.schedule(state)?;
        pipeline.model = model;
        Ok(pipeline)
    }
}

/// Options for the joint fleet annealing search.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAnnealingOptions {
    /// Number of proposed moves across the whole fleet.
    pub iterations: usize,
    /// RNG seed (searches are deterministic given the seed).
    pub seed: u64,
    /// Whether connection validity allows partial inference.
    pub partial_inference: bool,
    /// Optional cluster pruning degree for the flow evaluations.
    pub prune_degree: Option<usize>,
    /// Per-model traffic weights; `None` weighs every model equally.  The
    /// objective maximised is `Σ weight_m · flow_m / upper_bound_m`.
    pub weights: Option<Vec<f64>>,
}

impl Default for FleetAnnealingOptions {
    fn default() -> Self {
        FleetAnnealingOptions {
            iterations: 4000,
            seed: 0x48454C49,
            partial_inference: true,
            prune_degree: None,
            weights: None,
        }
    }
}

/// Probability that a proposal of the joint search moves a node *between*
/// models instead of adjusting a layer range within one model.
const CROSS_MODEL_FRACTION: f64 = 0.25;

impl FleetAnnealingOptions {
    /// The traffic weight of `model` (1.0 when unweighted).
    pub(crate) fn weight(&self, model: usize) -> f64 {
        self.weights
            .as_ref()
            .and_then(|w| w.get(model))
            .copied()
            .unwrap_or(1.0)
    }
}

/// The single-model search a fleet search runs per model (or per pod): same
/// budget, seed and connection settings.
impl From<&FleetAnnealingOptions> for AnnealingOptions {
    fn from(options: &FleetAnnealingOptions) -> Self {
        AnnealingOptions {
            iterations: options.iterations,
            seed: options.seed,
            partial_inference: options.partial_inference,
            prune_degree: options.prune_degree,
        }
    }
}

/// Per-model max-flow throughputs of a fleet placement, one cold solve per
/// model; invalid per-model placements score 0.
pub(crate) fn cold_flows(
    profiles: &[ClusterProfile],
    placement: &FleetPlacement,
    options: &FleetAnnealingOptions,
) -> Vec<f64> {
    placement
        .placements()
        .iter()
        .zip(profiles)
        .map(|(p, profile)| cold_flow(profile, p, options.partial_inference, options.prune_degree))
        .collect()
}

/// Joint simulated-annealing placement search for a multi-model fleet.
///
/// Every model keeps a warm-started [`IncrementalFlowEvaluator`]; intra-model
/// moves re-solve one model's standing network and cross-model moves re-solve
/// the two networks a node migrates between.  The search keeps node ownership
/// disjoint (each node serves at most one model), so per-node compute/KV
/// shares stay at 1.0 throughout and the evaluators' base profiles remain
/// valid for every intermediate state.
///
/// # Example
///
/// ```rust
/// use helix_cluster::{ClusterSpec, ModelConfig};
/// use helix_core::fleet::{fleet_profiles, FleetAnnealingOptions, FleetAnnealingPlanner};
///
/// let profiles = fleet_profiles(
///     &ClusterSpec::single_cluster_24(),
///     &[ModelConfig::llama_30b(), ModelConfig::llama_13b()],
/// );
/// let planner = FleetAnnealingPlanner::new(&profiles).with_options(FleetAnnealingOptions {
///     iterations: 300,
///     ..Default::default()
/// });
/// let (placement, flows) = planner.solve().unwrap();
/// assert_eq!(flows.len(), 2);
/// assert!(flows.iter().all(|&f| f > 0.0));
/// # let _ = placement;
/// ```
#[derive(Debug, Clone)]
pub struct FleetAnnealingPlanner<'a> {
    profiles: &'a [ClusterProfile],
    options: FleetAnnealingOptions,
}

impl<'a> FleetAnnealingPlanner<'a> {
    /// Creates a planner over one profile per model (all sharing a cluster).
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn new(profiles: &'a [ClusterProfile]) -> Self {
        assert!(!profiles.is_empty(), "a fleet serves at least one model");
        FleetAnnealingPlanner {
            profiles,
            options: FleetAnnealingOptions::default(),
        }
    }

    /// Replaces the options.
    pub fn with_options(mut self, options: FleetAnnealingOptions) -> Self {
        self.options = options;
        self
    }

    /// Evaluates the per-model max-flow throughputs of a fleet placement
    /// with a cold solve per model; invalid per-model placements score 0.
    pub fn evaluate(&self, placement: &FleetPlacement) -> Vec<f64> {
        cold_flows(self.profiles, placement, &self.options)
    }

    /// Runs the search: greedy node partition, per-model greedy seeds, then
    /// joint annealing with warm-started intra- and cross-model moves.
    /// Returns the best placement and its cold-evaluated per-model flows.
    ///
    /// # Errors
    ///
    /// Returns [`HelixError::NoPlacementFound`] if the cluster cannot hold
    /// every model at once or no feasible partition is found.
    pub fn solve(&self) -> Result<(FleetPlacement, Vec<f64>), HelixError> {
        let num_models = self.profiles.len();
        if num_models == 1 {
            // Trivial fleet: the single-model annealer is the canonical path.
            let single =
                FlowAnnealingPlanner::new(&self.profiles[0]).with_options((&self.options).into());
            let (placement, value) = single.solve()?;
            return Ok((FleetPlacement::single(placement), vec![value]));
        }

        let cluster = self.profiles[0].cluster();
        let n = cluster.num_nodes();
        let mut owner = self.partition_nodes()?;

        // Seed each model with a Petals-style greedy placement on its nodes.
        let mut seeds = Vec::with_capacity(num_models);
        for (m, profile) in self.profiles.iter().enumerate() {
            let nodes: Vec<NodeId> = cluster
                .node_ids()
                .filter(|id| owner[id.index()] == Some(m))
                .collect();
            let placement = crate::placement::heuristics::petals_over(profile, &nodes);
            if !placement.has_complete_pipeline(profile.model().num_layers) {
                return Err(HelixError::NoPlacementFound);
            }
            seeds.push(placement);
        }

        let mut evaluators = seeds
            .iter()
            .zip(self.profiles)
            .map(|(seed, profile)| {
                IncrementalFlowEvaluator::new(
                    profile,
                    seed,
                    self.options.partial_inference,
                    self.options.prune_degree,
                    MaxFlowAlgorithm::Dinic,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;

        let uppers: Vec<f64> = self
            .profiles
            .iter()
            .map(|p| p.throughput_upper_bound().max(1e-9))
            .collect();
        let objective = |values: &[f64]| -> f64 {
            values
                .iter()
                .enumerate()
                .map(|(m, &v)| self.options.weight(m) * v / uppers[m])
                .sum()
        };
        let mut values: Vec<f64> = evaluators.iter().map(|e| e.value()).collect();
        let mut current_obj = objective(&values);
        let mut best_obj = f64::NEG_INFINITY;
        let mut best: Vec<ModelPlacement> = seeds.clone();
        if values.iter().all(|&v| v > 0.0) {
            best_obj = current_obj;
            best = evaluators.iter().map(|e| e.placement().clone()).collect();
        }

        let mut temperature = INITIAL_TEMPERATURE * current_obj.abs().max(1e-9);
        let mut rng = StdRng::seed_from_u64(self.options.seed);
        let nodes: Vec<NodeId> = cluster.node_ids().collect();

        for _ in 0..self.options.iterations {
            temperature *= COOLING;
            let cross = rng.gen::<f64>() < CROSS_MODEL_FRACTION;
            let node = nodes[rng.gen_range(0..n)];
            let from_owner = owner[node.index()];

            if cross {
                // Hand `node` to a different model with a fresh range.
                let Some(a) = from_owner else { continue };
                let b = rng.gen_range(0..num_models);
                if b == a {
                    continue;
                }
                let Some(range) =
                    propose_range(&self.profiles[b], evaluators[b].placement(), node, &mut rng)
                else {
                    continue;
                };
                let prev_a = evaluators[a].placement().range(node);
                let va = evaluators[a].restore(node, None);
                let vb = evaluators[b].assign(node, range);
                let mut new_values = values.clone();
                new_values[a] = va;
                new_values[b] = vb;
                let new_obj = objective(&new_values);
                if metropolis(new_obj, current_obj, temperature, &mut rng)
                    && new_values.iter().all(|&v| v > 0.0)
                {
                    owner[node.index()] = Some(b);
                    values = new_values;
                    current_obj = new_obj;
                    if current_obj > best_obj {
                        best_obj = current_obj;
                        best = evaluators.iter().map(|e| e.placement().clone()).collect();
                    }
                } else {
                    evaluators[b].restore(node, None);
                    evaluators[a].restore(node, prev_a);
                }
            } else {
                // Adjust a layer range within the owning model, or claim a
                // free node for a random model.
                let m = match from_owner {
                    Some(m) => m,
                    None => rng.gen_range(0..num_models),
                };
                let Some(range) =
                    propose_range(&self.profiles[m], evaluators[m].placement(), node, &mut rng)
                else {
                    continue;
                };
                let prev = evaluators[m].placement().range(node);
                let vm = evaluators[m].assign(node, range);
                let mut new_values = values.clone();
                new_values[m] = vm;
                let new_obj = objective(&new_values);
                if metropolis(new_obj, current_obj, temperature, &mut rng)
                    && new_values.iter().all(|&v| v > 0.0)
                {
                    owner[node.index()] = Some(m);
                    values = new_values;
                    current_obj = new_obj;
                    if current_obj > best_obj {
                        best_obj = current_obj;
                        best = evaluators.iter().map(|e| e.placement().clone()).collect();
                    }
                } else {
                    evaluators[m].restore(node, prev);
                }
            }
        }

        if best_obj <= f64::NEG_INFINITY {
            return Err(HelixError::NoPlacementFound);
        }
        let placement = FleetPlacement::new(best);
        let flows = self.evaluate(&placement);
        if flows.iter().any(|&f| f <= 0.0) {
            return Err(HelixError::NoPlacementFound);
        }
        Ok((placement, flows))
    }

    /// Greedily assigns nodes (descending FLOPs) to the model with the lowest
    /// assigned-compute-to-demand ratio, then repairs infeasible partitions
    /// by stealing nodes from over-provisioned models.
    fn partition_nodes(&self) -> Result<Vec<Option<usize>>, HelixError> {
        let cluster = self.profiles[0].cluster();
        let num_models = self.profiles.len();
        let mut ids: Vec<NodeId> = cluster.node_ids().collect();
        ids.sort_by(|&a, &b| {
            let fa = cluster.node(a).total_fp16_flops();
            let fb = cluster.node(b).total_fp16_flops();
            fb.partial_cmp(&fa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        // Demand of a model: weighted total FLOPs to push one token through it.
        let demand: Vec<f64> = (0..num_models)
            .map(|m| {
                let model = self.profiles[m].model();
                (self.options.weight(m) * model.num_layers as f64 * model.layer_flops_per_token())
                    .max(1e-9)
            })
            .collect();
        let mut assigned = vec![0.0f64; num_models];
        let mut owner: Vec<Option<usize>> = vec![None; cluster.num_nodes()];
        for &id in &ids {
            let flops = cluster.node(id).total_fp16_flops();
            let m = (0..num_models)
                .min_by(|&x, &y| {
                    (assigned[x] / demand[x])
                        .partial_cmp(&(assigned[y] / demand[y]))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("at least one model");
            owner[id.index()] = Some(m);
            assigned[m] += flops;
        }
        // Repair: every model must be able to hold a full replica on its nodes.
        for _ in 0..cluster.num_nodes() {
            let subset = |m: usize| -> Vec<NodeId> {
                cluster
                    .node_ids()
                    .filter(|id| owner[id.index()] == Some(m))
                    .collect()
            };
            let Some(starved) =
                (0..num_models).find(|&m| !self.profiles[m].can_hold_model(&subset(m)))
            else {
                return Ok(owner);
            };
            // Steal the largest node from the most over-provisioned model
            // that stays feasible without it.
            let donor = (0..num_models)
                .filter(|&m| m != starved)
                .filter_map(|m| {
                    let nodes = subset(m);
                    nodes
                        .iter()
                        .map(|&id| {
                            let rest: Vec<NodeId> =
                                nodes.iter().copied().filter(|&x| x != id).collect();
                            (m, id, self.profiles[m].can_hold_model(&rest))
                        })
                        .filter(|&(_, _, feasible)| feasible)
                        .max_by(|a, b| {
                            cluster
                                .node(a.1)
                                .total_fp16_flops()
                                .partial_cmp(&cluster.node(b.1).total_fp16_flops())
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                })
                .max_by(|a, b| {
                    (assigned[a.0] / demand[a.0])
                        .partial_cmp(&(assigned[b.0] / demand[b.0]))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            let Some((m, id, _)) = donor else {
                return Err(HelixError::NoPlacementFound);
            };
            let flops = cluster.node(id).total_fp16_flops();
            assigned[m] -= flops;
            assigned[starved] += flops;
            owner[id.index()] = Some(starved);
        }
        Err(HelixError::NoPlacementFound)
    }
}

/// Proposes a layer range for `node` under `profile`, mirroring the move
/// templates of [`FlowAnnealingPlanner::propose`] (resize/shift when the node
/// already holds layers, anchor-after or replicate another node otherwise).
///
/// Deliberately *not* shared with the single-model planner: that one draws
/// its own node and consumes its RNG in a different order, so merging the two
/// would change the seeded search trajectories of existing runs.  Keep the
/// magic constants (resize ±3, shift ±4) in sync with
/// `placement::refine::FlowAnnealingPlanner::propose` when tuning either.
///
/// [`FlowAnnealingPlanner::propose`]: crate::FlowAnnealingPlanner
pub(crate) fn propose_range(
    profile: &ClusterProfile,
    placement: &ModelPlacement,
    node: NodeId,
    rng: &mut StdRng,
) -> Option<LayerRange> {
    let num_layers = profile.model().num_layers;
    let max_layers = profile.node_profile(node).max_layers.min(num_layers);
    if max_layers == 0 {
        return None;
    }
    let current = placement.range(node);
    match rng.gen_range(0..4u8) {
        // Resize around the current start.
        0 => {
            let range = current.unwrap_or(LayerRange::new(0, 1));
            let delta: i64 = rng.gen_range(-3..=3);
            let new_len = (range.len() as i64 + delta).clamp(1, max_layers as i64) as usize;
            let start = range.start.min(num_layers - new_len);
            Some(LayerRange::new(start, start + new_len))
        }
        // Shift the current range.
        1 => {
            let range = current.unwrap_or(LayerRange::new(0, max_layers));
            let len = range.len().min(max_layers);
            let shift: i64 = rng.gen_range(-4..=4);
            let start = (range.start as i64 + shift).clamp(0, (num_layers - len) as i64) as usize;
            Some(LayerRange::new(start, start + len))
        }
        // Anchor right after a random assigned node of this model.
        2 => {
            let assigned: Vec<(NodeId, LayerRange)> = placement.iter().collect();
            if assigned.is_empty() {
                return Some(LayerRange::new(0, max_layers));
            }
            let (_, other) = assigned[rng.gen_range(0..assigned.len())];
            if other.end < num_layers {
                let len = max_layers.min(num_layers - other.end);
                Some(LayerRange::new(other.end, other.end + len))
            } else {
                let len = max_layers.min(other.len());
                Some(LayerRange::new(other.end - len, other.end))
            }
        }
        // Replicate a random assigned node's range (shrunk to fit).
        _ => {
            let assigned: Vec<(NodeId, LayerRange)> = placement.iter().collect();
            if assigned.is_empty() {
                return Some(LayerRange::new(0, max_layers));
            }
            let (_, other) = assigned[rng.gen_range(0..assigned.len())];
            let len = max_layers.min(other.len());
            Some(LayerRange::new(other.start, other.start + len))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::heuristics;
    use crate::scheduling::IdleClusterState;
    use helix_cluster::ClusterSpec;

    fn two_model_profiles() -> Vec<ClusterProfile> {
        fleet_profiles(
            &ClusterSpec::single_cluster_24(),
            &[ModelConfig::llama_30b(), ModelConfig::llama_13b()],
        )
    }

    fn quick_options() -> FleetAnnealingOptions {
        FleetAnnealingOptions {
            iterations: 400,
            ..Default::default()
        }
    }

    #[test]
    fn two_model_fleet_plans_end_to_end() {
        let profiles = two_model_profiles();
        let planner = FleetAnnealingPlanner::new(&profiles).with_options(quick_options());
        let (placement, flows) = planner.solve().unwrap();
        assert_eq!(placement.num_models(), 2);
        assert!(flows.iter().all(|&f| f > 0.0), "flows {flows:?}");
        placement.validate(&profiles).unwrap();
        let fleet = FleetTopology::plan(&profiles, &placement, true).unwrap();
        assert_eq!(fleet.num_models(), 2);
        assert!(fleet.total_flow_value() > 0.0);
        // The planner partitions nodes, so every share is exactly 1.0.
        for m in 0..2 {
            for node in profiles[0].cluster().node_ids() {
                assert_eq!(fleet.compute_share(ModelId(m), node), 1.0);
            }
        }
        // Per-model schedulers produce pipelines tagged with their model.
        let mut scheduler = FleetScheduler::iwrr(&fleet).unwrap();
        assert_eq!(scheduler.num_models(), 2);
        let state = IdleClusterState;
        for (m, profile) in profiles.iter().enumerate() {
            let pipeline = scheduler.schedule(ModelId(m), &state).unwrap();
            assert_eq!(pipeline.model, ModelId(m));
            assert!(pipeline.covers_model(profile.model().num_layers));
            // Every stage runs on a node owned by this model.
            for stage in &pipeline.stages {
                assert!(placement.placements()[m].range(stage.node).is_some());
            }
        }
        assert_eq!(scheduler.kind(ModelId(0)), Some(SchedulerKind::HelixIwrr));
        assert_eq!(scheduler.kind(ModelId(7)), None);
    }

    #[test]
    fn fleet_planner_is_deterministic_per_seed() {
        let profiles = two_model_profiles();
        let planner = FleetAnnealingPlanner::new(&profiles).with_options(quick_options());
        let (p1, f1) = planner.solve().unwrap();
        let (p2, f2) = planner.solve().unwrap();
        assert_eq!(p1, p2);
        assert_eq!(f1, f2);
    }

    #[test]
    fn single_model_fleet_delegates_to_the_single_model_planner() {
        let profiles = fleet_profiles(
            &ClusterSpec::solver_quality_10(),
            &[ModelConfig::llama_30b()],
        );
        let options = quick_options();
        let planner = FleetAnnealingPlanner::new(&profiles).with_options(options.clone());
        let (placement, flows) = planner.solve().unwrap();
        let single = FlowAnnealingPlanner::new(&profiles[0]).with_options((&options).into());
        let (expected_placement, expected_value) = single.solve().unwrap();
        assert_eq!(placement.placements()[0], expected_placement);
        assert_eq!(flows, vec![expected_value]);
    }

    #[test]
    fn overlapping_tenants_split_compute_and_kv() {
        // Two identical models sharing every node 50/50.
        let cluster = ClusterSpec::solver_quality_10();
        let profiles = fleet_profiles(
            &cluster,
            &[ModelConfig::llama_13b(), ModelConfig::llama_13b()],
        );
        // A half-size chain placement both models share node-for-node.
        let mut placement = ModelPlacement::empty(cluster.num_nodes());
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
        assert!(
            placement.has_complete_pipeline(num_layers),
            "test placement does not cover the model"
        );
        let fleet_placement = FleetPlacement::new(vec![placement.clone(), placement.clone()]);
        fleet_placement.validate(&profiles).unwrap();
        let fleet = FleetTopology::plan(&profiles, &fleet_placement, true).unwrap();
        let solo = Topology::plan(&profiles[0], &placement, true).unwrap();
        for m in 0..2 {
            let topo = fleet.model(ModelId(m)).unwrap();
            // Equal tenants halve each node's capacity exactly.
            for node in topo.nodes() {
                let solo_node = solo.node(node.node).unwrap();
                assert!((node.capacity - solo_node.capacity * 0.5).abs() < 1e-9);
                assert!(node.kv_capacity_tokens < solo_node.kv_capacity_tokens);
                assert_eq!(fleet.compute_share(ModelId(m), node.node), 0.5);
            }
            assert!(topo.flow_value() > 0.0);
            assert!(topo.flow_value() < solo.flow_value());
        }
    }

    /// A half-size chain placement both models of `profiles` can share
    /// node-for-node (each node keeps half its weight budget free).
    fn half_chain_placement(profiles: &[ClusterProfile]) -> ModelPlacement {
        let cluster = profiles[0].cluster();
        let mut placement = ModelPlacement::empty(cluster.num_nodes());
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
        placement
    }

    #[test]
    fn shared_links_are_split_by_flow_shares_and_sole_tenant_links_are_not() {
        let cluster = ClusterSpec::solver_quality_10();
        let profiles = fleet_profiles(
            &cluster,
            &[ModelConfig::llama_13b(), ModelConfig::llama_13b()],
        );
        let placement = half_chain_placement(&profiles);
        let fleet_placement = FleetPlacement::new(vec![placement.clone(), placement.clone()]);
        let fleet = FleetTopology::plan(&profiles, &fleet_placement, true).unwrap();
        // Two identical tenants share every surviving link 50/50 (identical
        // pass-1 solves ⇒ identical flows ⇒ equal shares).
        let shared: Vec<(NodeId, NodeId)> = fleet
            .model(ModelId(0))
            .unwrap()
            .links()
            .iter()
            .filter_map(|l| match (l.from, l.to) {
                (Endpoint::Node(a), Endpoint::Node(b)) => Some((a, b)),
                _ => None,
            })
            .collect();
        assert!(!shared.is_empty(), "the chain uses node→node links");
        for (a, b) in &shared {
            let s0 = fleet.link_share(ModelId(0), *a, *b);
            let s1 = fleet.link_share(ModelId(1), *a, *b);
            assert!(
                (s0 + s1 - 1.0).abs() < 1e-9,
                "link {a:?}→{b:?} shares {s0}+{s1} must cover the link"
            );
            assert_eq!(s0, s1, "identical tenants split evenly");
        }
        // Splitting shared links can only reduce (or keep) each model's flow
        // versus the optimistic shared-capacity plan.
        let solo = Topology::plan(&profiles[0], &placement, true).unwrap();
        assert!(fleet.model(ModelId(0)).unwrap().flow_value() < solo.flow_value());

        // A disjoint two-model fleet has no shared link: every share is 1.0
        // and the planned topologies are bit-identical to the unsplit path.
        let profiles24 = two_model_profiles();
        let planner = FleetAnnealingPlanner::new(&profiles24).with_options(quick_options());
        let (disjoint, _) = planner.solve().unwrap();
        let fleet24 = FleetTopology::plan(&profiles24, &disjoint, true).unwrap();
        for m in 0..2 {
            for a in profiles24[0].cluster().node_ids() {
                for b in profiles24[0].cluster().node_ids() {
                    assert_eq!(fleet24.link_share(ModelId(m), a, b), 1.0);
                }
            }
        }
    }

    #[test]
    fn replan_under_observations_reprices_only_the_touched_model() {
        let profiles = two_model_profiles();
        let planner = FleetAnnealingPlanner::new(&profiles).with_options(quick_options());
        let (placement, _) = planner.solve().unwrap();
        let mut fleet = FleetTopology::plan(&profiles, &placement, true).unwrap();
        let before: Vec<f64> = fleet
            .topologies()
            .iter()
            .map(Topology::flow_value)
            .collect();

        // Slow one of model 0's nodes to half speed.
        let slow = placement.placements()[0].iter().next().unwrap().0;
        let mut observed = NodeObservations::new();
        observed.record(slow, ModelId(0), 100.0, 0.5, 0.9);
        let outcome = fleet.replan(&PlacementDelta::new(), &observed).unwrap();
        assert_eq!(outcome.affected, vec![ModelId(0)]);
        assert_eq!(fleet.compute_share(ModelId(0), slow), 0.5);
        assert!(fleet.model(ModelId(0)).unwrap().flow_value() <= before[0]);
        // Model 1 is untouched: its topology was not re-solved.
        assert_eq!(fleet.model(ModelId(1)).unwrap().flow_value(), before[1]);
        // The reported value is the materialised topology's.
        assert_eq!(
            outcome.warm_flow_values,
            vec![fleet.model(ModelId(0)).unwrap().flow_value()]
        );

        // Bit-identical to a from-scratch plan under the same observations.
        let scratch = FleetTopology::plan_observed(&profiles, &placement, true, &observed).unwrap();
        for m in 0..2 {
            assert_eq!(
                fleet.model(ModelId(m)).unwrap().flow_value(),
                scratch.model(ModelId(m)).unwrap().flow_value()
            );
        }

        // Clearing the observation re-prices the node back to full speed.
        let outcome = fleet
            .replan(&PlacementDelta::new(), &NodeObservations::new())
            .unwrap();
        assert_eq!(outcome.affected, vec![ModelId(0)]);
        assert_eq!(fleet.compute_share(ModelId(0), slow), 1.0);
        assert_eq!(fleet.model(ModelId(0)).unwrap().flow_value(), before[0]);
    }

    #[test]
    fn replan_rejects_unknown_models_and_invalid_placements_without_mutating() {
        let profiles = two_model_profiles();
        let planner = FleetAnnealingPlanner::new(&profiles).with_options(quick_options());
        let (placement, _) = planner.solve().unwrap();
        let mut fleet = FleetTopology::plan(&profiles, &placement, true).unwrap();
        let before: Vec<f64> = fleet
            .topologies()
            .iter()
            .map(Topology::flow_value)
            .collect();

        let bad_model = PlacementDelta::new().remove(ModelId(9), NodeId(0));
        assert!(matches!(
            fleet.replan(&bad_model, &NodeObservations::new()),
            Err(HelixError::UnknownModel { .. })
        ));

        // Dropping every node of model 0 leaves no complete pipeline.
        let mut wipe = PlacementDelta::new();
        for (node, _) in placement.placements()[0].iter() {
            wipe = wipe.remove(ModelId(0), node);
        }
        assert!(fleet.replan(&wipe, &NodeObservations::new()).is_err());
        let after: Vec<f64> = fleet
            .topologies()
            .iter()
            .map(Topology::flow_value)
            .collect();
        assert_eq!(before, after, "failed re-plans leave the plan unchanged");
    }

    #[test]
    fn fleet_vram_overflow_is_rejected() {
        let cluster = ClusterSpec::solver_quality_10();
        let profiles = fleet_profiles(
            &cluster,
            &[ModelConfig::llama_30b(), ModelConfig::llama_30b()],
        );
        // Both models max out every node: individually valid, jointly too fat.
        let placement = heuristics::petals_placement(&profiles[0]).unwrap();
        let fleet = FleetPlacement::new(vec![placement.clone(), placement]);
        assert!(matches!(
            fleet.validate(&profiles),
            Err(HelixError::FleetVramOverflow { .. })
        ));
    }

    #[test]
    fn unknown_model_is_reported() {
        let profiles = fleet_profiles(
            &ClusterSpec::solver_quality_10(),
            &[ModelConfig::llama_30b()],
        );
        let placement = heuristics::petals_placement(&profiles[0]).unwrap();
        let fleet =
            FleetTopology::plan(&profiles, &FleetPlacement::single(placement), true).unwrap();
        let mut scheduler = FleetScheduler::iwrr(&fleet).unwrap();
        let err = scheduler
            .schedule(ModelId(3), &IdleClusterState)
            .unwrap_err();
        assert!(matches!(err, HelixError::UnknownModel { .. }));
        assert!(err.to_string().contains("model3"));
    }
}
