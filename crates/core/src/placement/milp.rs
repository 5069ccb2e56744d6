//! MILP model-placement planner (paper §4.4–§4.5, Tables 5–6).
//!
//! The planner builds exactly the formulation of the paper:
//!
//! * per node `i`: an integer `s_i` (first layer held) and binaries
//!   `b_i^j` (`= 1` if the node holds `j` layers), giving
//!   `e_i = s_i + Σ j·b_i^j`;
//! * per potential connection: a real flow `f` and a binary validity `d`
//!   (plus two auxiliary binaries `cond1`/`cond2` linearising the partial
//!   inference condition `s_j ≤ e_i < e_j`);
//! * the five constraint groups of Table 6 (placement, flow conservation,
//!   inference throughput, connection validity, transmission throughput);
//! * objective: maximise the total flow leaving the source.
//!
//! The §4.5 optimisations are supported: cluster pruning limits the
//! connection set, heuristic placements warm-start the solver, and the
//! search early-stops once the incumbent reaches a configurable fraction of
//! the cluster's throughput upper bound.  Each is a field of
//! [`PlannerOptions`], the planner's one configuration
//! ([`MilpPlacementPlanner::with_options`]).

use crate::error::HelixError;
use crate::flow_graph::{Endpoint, FlowGraphBuilder};
use crate::placement::{heuristics, LayerRange, ModelPlacement};
use helix_cluster::{ClusterProfile, NodeId};
use helix_milp::{
    BranchEvent, LinExpr, MilpError, MilpOptions, MilpSolver, Model, ObjectiveSense, Sense, VarId,
    VarType,
};
use std::time::{Duration, Instant};

/// Options controlling the MILP placement search.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerOptions {
    /// Allow partial inference (a request entering a node mid-range only
    /// computes the remaining layers).
    pub partial_inference: bool,
    /// Keep only the `degree` fastest outgoing connections per node (§4.5
    /// cluster pruning); `None` keeps the full `O(|C|²)` connection set.
    pub prune_degree: Option<usize>,
    /// Wall-clock budget for the branch & bound search.
    pub time_limit: Duration,
    /// Node budget for the branch & bound search.
    pub node_limit: u64,
    /// Warm-start the solver from the best heuristic placement (§4.5).
    pub warm_start_from_heuristics: bool,
    /// Stop once the incumbent reaches this fraction of the throughput upper
    /// bound (§4.5 early stop); `None` disables early stopping.
    pub early_stop_fraction: Option<f64>,
    /// Record the incumbent/bound timeline (used to reproduce Fig. 12).
    pub record_events: bool,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            partial_inference: true,
            prune_degree: None,
            time_limit: Duration::from_secs(60),
            node_limit: 100_000,
            warm_start_from_heuristics: true,
            early_stop_fraction: Some(0.98),
            record_events: false,
        }
    }
}

/// Outcome statistics of a planner run.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpPlannerReport {
    /// Number of variables in the MILP (Table 8).
    pub num_variables: usize,
    /// Number of constraints in the MILP (Table 8).
    pub num_constraints: usize,
    /// Objective (max-flow throughput, tokens/s) of the returned placement.
    pub objective_tokens_per_sec: f64,
    /// Best bound proven by the solver (tokens/s).
    pub best_bound: f64,
    /// Wall-clock seconds spent in the MILP solver.
    pub solve_seconds: f64,
    /// Branch & bound nodes explored.
    pub nodes_explored: u64,
    /// Simplex iterations (pivots and bound flips) over all nodes; unlike
    /// `solve_seconds` it repeats exactly.
    pub lp_iterations: u64,
    /// Throughput of the warm-start heuristic placement, if one was used.
    pub warm_start_tokens_per_sec: Option<f64>,
    /// Incumbent/bound timeline (only populated when event recording is on).
    pub events: Vec<BranchEvent>,
}

/// What the planner returns when the solver fails: the heuristic warm start
/// when the search merely ran out of budget before finding anything better
/// ([`MilpError::NoIncumbent`]), the error itself in every other case — a
/// simplex that hit its iteration limit or an unbounded relaxation is a
/// defect to surface, not a budget to shrug off.
fn heuristic_fallback(
    err: MilpError,
    warm: Option<(ModelPlacement, f64)>,
) -> Result<(ModelPlacement, f64), HelixError> {
    match (err, warm) {
        (MilpError::NoIncumbent, Some(warm)) => Ok(warm),
        (err, _) => Err(HelixError::Milp(err)),
    }
}

/// Bookkeeping of the MILP variable ids for one cluster formulation.
struct VarIndex {
    /// `s_i` per node (parallel to node ids).
    s: Vec<VarId>,
    /// `b_i^j` per node, `j = 1..=k_i` stored at index `j-1`.
    b: Vec<Vec<VarId>>,
    /// All candidate connections.
    conns: Vec<ConnVars>,
}

struct ConnVars {
    from: Endpoint,
    to: Endpoint,
    capacity: f64,
    f: VarId,
    d: VarId,
    cond: Option<(VarId, VarId)>,
}

/// The MILP-based model placement planner.
///
/// # Example
///
/// ```rust,no_run
/// use std::time::Duration;
/// use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
/// use helix_core::{MilpPlacementPlanner, PlannerOptions};
///
/// let profile = ClusterProfile::analytic(
///     ClusterSpec::solver_quality_10(),
///     ModelConfig::llama_30b(),
/// );
/// let options = PlannerOptions {
///     time_limit: Duration::from_secs(30),
///     ..Default::default()
/// };
/// let mut planner = MilpPlacementPlanner::with_options(&profile, options);
/// let (placement, report) = planner.solve().unwrap();
/// println!("{} tokens/s with {} MILP variables",
///     report.objective_tokens_per_sec, report.num_variables);
/// # let _ = placement;
/// ```
#[derive(Debug, Clone)]
pub struct MilpPlacementPlanner<'a> {
    profile: &'a ClusterProfile,
    options: PlannerOptions,
}

impl<'a> MilpPlacementPlanner<'a> {
    /// Creates a planner with default options.
    pub fn new(profile: &'a ClusterProfile) -> Self {
        MilpPlacementPlanner {
            profile,
            options: PlannerOptions::default(),
        }
    }

    /// Creates a planner with explicit options.
    pub fn with_options(profile: &'a ClusterProfile, options: PlannerOptions) -> Self {
        MilpPlacementPlanner { profile, options }
    }

    /// Builds the MILP and returns its size as `(variables, constraints)`
    /// without solving — used for Table 8.
    ///
    /// # Errors
    ///
    /// Returns [`HelixError::NoPlacementFound`] if a candidate connection
    /// names a node outside the cluster or joins the coordinator to itself.
    pub fn problem_size(&self) -> Result<(usize, usize), HelixError> {
        let (model, _) = self.build_model()?;
        Ok((model.num_vars(), model.num_constraints()))
    }

    /// Runs the planner: builds the MILP, optionally warm-starts it from the
    /// best heuristic placement, solves, and converts the solution back into
    /// a [`ModelPlacement`].
    ///
    /// # Errors
    ///
    /// Returns [`HelixError::NoPlacementFound`] when neither the solver nor
    /// the heuristics produce a feasible placement (or the model cannot be
    /// built, see [`problem_size`](Self::problem_size)), or a wrapped
    /// [`HelixError::Milp`] error on solver failure.
    pub fn solve(&mut self) -> Result<(ModelPlacement, MilpPlannerReport), HelixError> {
        let (model, index) = self.build_model()?;
        let num_vars = model.num_vars();
        let num_constraints = model.num_constraints();

        let (warm, assignment) = self.heuristic_warm_start(&model, &index).unzip();
        let warm_start_tokens_per_sec = warm.as_ref().map(|(_, throughput)| *throughput);
        let mut solver = self.milp_solver(assignment);
        let started = Instant::now();
        let result = solver.solve(&model);
        let solve_seconds = started.elapsed().as_secs_f64();

        let (placement, objective, best_bound, nodes_explored, lp_iterations) = match result {
            Ok(res) => (
                self.extract_placement(&index, &res.values)?,
                res.objective,
                res.best_bound,
                res.nodes_explored,
                res.lp_iterations,
            ),
            Err(err) => {
                let (placement, throughput) = heuristic_fallback(err, warm)?;
                (placement, throughput, f64::INFINITY, 0, 0)
            }
        };
        let report = MilpPlannerReport {
            num_variables: num_vars,
            num_constraints,
            objective_tokens_per_sec: objective,
            best_bound,
            solve_seconds,
            nodes_explored,
            lp_iterations,
            warm_start_tokens_per_sec,
            events: solver.events().to_vec(),
        };
        Ok((placement, report))
    }

    /// The best heuristic placement (§4.5 warm start) with its throughput,
    /// and its MILP variable assignment, if warm starts are enabled.
    fn heuristic_warm_start(
        &self,
        model: &Model,
        index: &VarIndex,
    ) -> Option<((ModelPlacement, f64), Vec<f64>)> {
        if !self.options.warm_start_from_heuristics {
            return None;
        }
        let (placement, throughput) = self.best_heuristic()?;
        let assignment = self.warm_start_assignment(model, index, &placement);
        Some(((placement, throughput), assignment))
    }

    /// The branch & bound solver configured from the planner's options.
    fn milp_solver(&self, warm_start: Option<Vec<f64>>) -> MilpSolver {
        MilpSolver::with_options(MilpOptions {
            time_limit: self.options.time_limit,
            node_limit: self.options.node_limit,
            gap_tolerance: 1e-4,
            early_stop_objective: self
                .options
                .early_stop_fraction
                .map(|f| f * self.profile.throughput_upper_bound()),
            warm_start,
            record_events: self.options.record_events,
        })
    }

    // ------------------------------------------------------------------
    // MILP construction
    // ------------------------------------------------------------------

    fn flow_builder(&self) -> FlowGraphBuilder<'a> {
        let mut b =
            FlowGraphBuilder::new(self.profile).partial_inference(self.options.partial_inference);
        if let Some(d) = self.options.prune_degree {
            b = b.prune_to_degree(d);
        }
        b
    }

    fn build_model(&self) -> Result<(Model, VarIndex), HelixError> {
        let profile = self.profile;
        let num_layers = profile.model().num_layers;
        let l = num_layers as f64;
        let nodes: Vec<NodeId> = profile.cluster().node_ids().collect();
        let mut model = Model::new(ObjectiveSense::Maximize);

        // Node variables.
        let mut s_vars = Vec::with_capacity(nodes.len());
        let mut b_vars: Vec<Vec<VarId>> = Vec::with_capacity(nodes.len());
        for &node in &nodes {
            let k = profile.node_profile(node).max_layers.min(num_layers).max(1);
            let s = model.add_var(
                format!("s_{}", node.index()),
                VarType::Integer,
                0.0,
                l - 1.0,
                0.0,
            )?;
            let bs: Vec<VarId> = (1..=k)
                .map(|j| model.add_binary(format!("b_{}_{}", node.index(), j), 0.0))
                .collect::<Result<_, _>>()?;
            s_vars.push(s);
            b_vars.push(bs);
        }
        // e_i expression helper.
        let e_expr = |i: usize| -> LinExpr {
            let mut e = LinExpr::term(s_vars[i], 1.0);
            for (j, &b) in b_vars[i].iter().enumerate() {
                e.add_term(b, (j + 1) as f64);
            }
            e
        };

        // Constraint group 1: model placement.
        for (i, &node) in nodes.iter().enumerate() {
            let terms: Vec<(VarId, f64)> = b_vars[i].iter().map(|&b| (b, 1.0)).collect();
            model.add_constraint(format!("one_size_{}", node.index()), terms, Sense::Eq, 1.0)?;
            model.add_constraint_expr(
                format!("end_le_L_{}", node.index()),
                e_expr(i),
                Sense::Le,
                l,
            )?;
        }

        // Candidate connections: coordinator edges plus (pruned) node pairs.
        let mut conns: Vec<ConnVars> = Vec::new();
        for (i, &node) in nodes.iter().enumerate() {
            let _ = i;
            // source -> node
            let cap = profile.link_profile(None, Some(node)).tokens_per_sec;
            let f = model.add_var(
                format!("f_src_{}", node.index()),
                VarType::Continuous,
                0.0,
                cap,
                1.0, // objective: maximise total flow out of the source
            )?;
            let d = model.add_binary(format!("d_src_{}", node.index()), 0.0)?;
            conns.push(ConnVars {
                from: Endpoint::Coordinator,
                to: Endpoint::Node(node),
                capacity: cap,
                f,
                d,
                cond: None,
            });
            // node -> sink
            let cap = profile.link_profile(Some(node), None).tokens_per_sec;
            let f = model.add_var(
                format!("f_{}_snk", node.index()),
                VarType::Continuous,
                0.0,
                cap,
                0.0,
            )?;
            let d = model.add_binary(format!("d_{}_snk", node.index()), 0.0)?;
            conns.push(ConnVars {
                from: Endpoint::Node(node),
                to: Endpoint::Coordinator,
                capacity: cap,
                f,
                d,
                cond: None,
            });
        }
        for (a, b) in self.flow_builder().candidate_connections() {
            let cap = profile.link_profile(Some(a), Some(b)).tokens_per_sec;
            let f = model.add_var(
                format!("f_{}_{}", a.index(), b.index()),
                VarType::Continuous,
                0.0,
                cap,
                0.0,
            )?;
            let d = model.add_binary(format!("d_{}_{}", a.index(), b.index()), 0.0)?;
            let cond = if self.options.partial_inference {
                let c1 = model.add_binary(format!("cond1_{}_{}", a.index(), b.index()), 0.0)?;
                let c2 = model.add_binary(format!("cond2_{}_{}", a.index(), b.index()), 0.0)?;
                Some((c1, c2))
            } else {
                None
            };
            conns.push(ConnVars {
                from: Endpoint::Node(a),
                to: Endpoint::Node(b),
                capacity: cap,
                f,
                d,
                cond,
            });
        }

        let node_pos = |id: NodeId| -> Result<usize, HelixError> {
            let position = nodes.iter().position(|&n| n == id);
            position.ok_or(HelixError::NoPlacementFound)
        };

        // Constraint group 2 & 3: flow conservation and inference throughput.
        for (i, &node) in nodes.iter().enumerate() {
            let mut conservation = LinExpr::new();
            let mut inflow = LinExpr::new();
            for c in &conns {
                if c.to == Endpoint::Node(node) {
                    conservation.add_term(c.f, 1.0);
                    inflow.add_term(c.f, 1.0);
                }
                if c.from == Endpoint::Node(node) {
                    conservation.add_term(c.f, -1.0);
                }
            }
            model.add_constraint_expr(
                format!("conserve_{}", node.index()),
                conservation,
                Sense::Eq,
                0.0,
            )?;
            // inflow <= sum_j b_i^j * T_j
            let mut cap_expr = inflow;
            for (j, &b) in b_vars[i].iter().enumerate() {
                let t_j = profile.node_profile(node).throughput(j + 1);
                cap_expr.add_term(b, -t_j);
            }
            model.add_constraint_expr(
                format!("throughput_{}", node.index()),
                cap_expr,
                Sense::Le,
                0.0,
            )?;
        }

        // Constraint group 4 & 5: connection validity and transmission.
        for (ci, c) in conns.iter().enumerate() {
            match (c.from, c.to) {
                (Endpoint::Coordinator, Endpoint::Node(to)) => {
                    // s_to <= L (1 - d)   <=>   s_to + L d <= L
                    let i = node_pos(to)?;
                    let expr = LinExpr::term(s_vars[i], 1.0) + LinExpr::term(c.d, l);
                    model.add_constraint_expr(format!("valid_src_{ci}"), expr, Sense::Le, l)?;
                }
                (Endpoint::Node(from), Endpoint::Coordinator) => {
                    // L d <= e_from   <=>   L d - e_from <= 0
                    let i = node_pos(from)?;
                    let expr = LinExpr::term(c.d, l) - e_expr(i);
                    model.add_constraint_expr(format!("valid_snk_{ci}"), expr, Sense::Le, 0.0)?;
                }
                (Endpoint::Node(from), Endpoint::Node(to)) => {
                    let i = node_pos(from)?;
                    let j = node_pos(to)?;
                    if let Some((c1, c2)) = c.cond {
                        // (L+1)(1 - cond1) >= s_j - e_i
                        //   <=>  s_j - e_i + (L+1) cond1 <= L+1
                        let expr =
                            LinExpr::term(s_vars[j], 1.0) - e_expr(i) + LinExpr::term(c1, l + 1.0);
                        model.add_constraint_expr(
                            format!("cond1_{ci}"),
                            expr,
                            Sense::Le,
                            l + 1.0,
                        )?;
                        // e_j - e_i >= 1 - (L+1)(1 - cond2)
                        //   <=>  e_j - e_i - (L+1) cond2 >= -L
                        let expr = e_expr(j) - e_expr(i) - LinExpr::term(c2, l + 1.0);
                        model.add_constraint_expr(format!("cond2_{ci}"), expr, Sense::Ge, -l)?;
                        // d <= 0.5 cond1 + 0.5 cond2
                        let expr = LinExpr::term(c.d, 1.0)
                            - LinExpr::term(c1, 0.5)
                            - LinExpr::term(c2, 0.5);
                        model.add_constraint_expr(format!("valid_{ci}"), expr, Sense::Le, 0.0)?;
                    } else {
                        // Without partial inference: d = 1 only if e_i == s_j.
                        // L d <= L + s_j - e_i  and  L d <= L - s_j + e_i.
                        let expr =
                            LinExpr::term(c.d, l) - LinExpr::term(s_vars[j], 1.0) + e_expr(i);
                        model.add_constraint_expr(format!("exact_a_{ci}"), expr, Sense::Le, l)?;
                        let expr =
                            LinExpr::term(c.d, l) + LinExpr::term(s_vars[j], 1.0) - e_expr(i);
                        model.add_constraint_expr(format!("exact_b_{ci}"), expr, Sense::Le, l)?;
                    }
                }
                // Coordinator-to-coordinator connections are never
                // generated; one would name no node of the formulation.
                (Endpoint::Coordinator, Endpoint::Coordinator) => {
                    return Err(HelixError::NoPlacementFound)
                }
            }
            // Transmission throughput: f <= d * S.
            let expr = LinExpr::term(c.f, 1.0) - LinExpr::term(c.d, c.capacity);
            model.add_constraint_expr(format!("trans_{ci}"), expr, Sense::Le, 0.0)?;
        }

        let index = VarIndex {
            s: s_vars,
            b: b_vars,
            conns,
        };
        Ok((model, index))
    }

    /// Picks the best heuristic placement (by max-flow value) as warm start.
    fn best_heuristic(&self) -> Option<(ModelPlacement, f64)> {
        let builder = self.flow_builder();
        let candidates = [
            heuristics::swarm_placement(self.profile),
            heuristics::petals_placement(self.profile),
            heuristics::separate_pipelines_placement(self.profile),
            heuristics::separate_pipelines_plus_placement(self.profile),
        ];
        let mut best: Option<(ModelPlacement, f64)> = None;
        for candidate in candidates.into_iter().flatten() {
            // Warm starts must assign every node (the MILP forces >= 1 layer
            // per node), so fill idle nodes with a harmless single layer, and
            // clamp any over-packed range down to the node's MILP layer budget
            // (`k_i = max_layers`) so the assignment satisfies the b_i^j
            // variables exactly.
            let mut full = candidate.clone();
            for id in self.profile.cluster().node_ids() {
                match full.range(id) {
                    None => full.assign(id, LayerRange::new(0, 1)),
                    Some(range) => {
                        let k = self.profile.node_profile(id).max_layers.max(1);
                        if range.len() > k {
                            full.assign(id, LayerRange::new(range.start, range.start + k));
                        }
                    }
                }
            }
            let Ok(graph) = builder.build(&full) else {
                continue;
            };
            let value = graph.max_flow().value;
            if best.as_ref().is_none_or(|(_, v)| value > *v) {
                best = Some((full, value));
            }
        }
        best
    }

    /// Converts a placement into a full MILP variable assignment usable as a
    /// warm start.
    fn warm_start_assignment(
        &self,
        model: &Model,
        index: &VarIndex,
        placement: &ModelPlacement,
    ) -> Vec<f64> {
        let nodes: Vec<NodeId> = self.profile.cluster().node_ids().collect();
        let num_layers = self.profile.model().num_layers;
        let mut values = vec![0.0; model.num_vars()];
        for (i, &node) in nodes.iter().enumerate() {
            let range = placement.range(node).unwrap_or(LayerRange::new(0, 1));
            values[index.s[i].index()] = range.start as f64;
            let j = range.len().min(index.b[i].len());
            values[index.b[i][j - 1].index()] = 1.0;
        }
        // Per-connection validity and flow from the placement's max flow.
        let builder = self.flow_builder();
        let flow = builder
            .build(placement)
            .ok()
            .map(|graph| (graph.max_flow(), graph));
        for c in &index.conns {
            let valid = match (c.from, c.to) {
                (Endpoint::Coordinator, Endpoint::Node(to)) => {
                    placement.range(to).is_some_and(|r| r.start == 0)
                }
                (Endpoint::Node(from), Endpoint::Coordinator) => {
                    placement.range(from).is_some_and(|r| r.end == num_layers)
                }
                (Endpoint::Node(from), Endpoint::Node(to)) => {
                    placement.connection_valid(from, to, self.options.partial_inference)
                }
                _ => false,
            };
            values[c.d.index()] = f64::from(valid);
            if let Some((c1, c2)) = c.cond {
                if let (Endpoint::Node(from), Endpoint::Node(to)) = (c.from, c.to) {
                    let (ra, rb) = (placement.range(from), placement.range(to));
                    if let (Some(a), Some(b)) = (ra, rb) {
                        values[c1.index()] = f64::from(b.start <= a.end);
                        values[c2.index()] = f64::from(a.end < b.end);
                    }
                }
            }
            if let Some((flow_result, graph)) = &flow {
                if let Some(f) = graph.link_flow(flow_result, c.from, c.to) {
                    values[c.f.index()] = f;
                }
            }
        }
        values
    }

    /// Converts MILP variable values back into a placement.
    fn extract_placement(
        &self,
        index: &VarIndex,
        values: &[f64],
    ) -> Result<ModelPlacement, HelixError> {
        let nodes: Vec<NodeId> = self.profile.cluster().node_ids().collect();
        let num_layers = self.profile.model().num_layers;
        let mut placement = ModelPlacement::empty(nodes.len());
        for (i, &node) in nodes.iter().enumerate() {
            let start = values[index.s[i].index()].round() as usize;
            let mut layers = 1usize;
            let mut best = f64::NEG_INFINITY;
            for (j, &b) in index.b[i].iter().enumerate() {
                if values[b.index()] > best {
                    best = values[b.index()];
                    layers = j + 1;
                }
            }
            let end = (start + layers).min(num_layers);
            if start < end {
                placement.assign(node, LayerRange::new(start, end));
            }
        }
        placement.validate(self.profile)?;
        Ok(placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_cluster::{ClusterBuilder, ClusterSpec, GpuType, ModelConfig, Region};
    use helix_milp::LpSolver;

    /// A tiny 3-node cluster and a model with few layers so the MILP stays
    /// small enough for unit tests.
    fn tiny_profile(num_layers: usize) -> ClusterProfile {
        let cluster = ClusterBuilder::new("tiny")
            .intra_region(1_000.0, 1.0)
            .add_nodes(GpuType::A100_40, 1, 1, Region(0))
            .add_nodes(GpuType::T4, 2, 1, Region(0))
            .build();
        let mut model = ModelConfig::llama2_70b();
        model.num_layers = num_layers;
        ClusterProfile::analytic(cluster, model)
    }

    /// The default options, pruned to out-degree `degree` (§4.5).
    fn pruned(degree: usize) -> PlannerOptions {
        PlannerOptions {
            prune_degree: Some(degree),
            ..Default::default()
        }
    }

    #[test]
    fn problem_size_is_linear_in_connections() {
        let profile = tiny_profile(6);
        let full = MilpPlacementPlanner::new(&profile).problem_size().unwrap();
        let pruned = MilpPlacementPlanner::with_options(&profile, pruned(1))
            .problem_size()
            .unwrap();
        assert!(pruned.0 < full.0);
        assert!(pruned.1 < full.1);
    }

    #[test]
    fn planner_finds_valid_placement_on_tiny_cluster() {
        let profile = tiny_profile(6);
        let options = PlannerOptions {
            time_limit: Duration::from_secs(10),
            warm_start_from_heuristics: true,
            ..Default::default()
        };
        let mut planner = MilpPlacementPlanner::with_options(&profile, options);
        let (placement, report) = planner.solve().unwrap();
        placement.validate(&profile).unwrap();
        assert!(report.objective_tokens_per_sec > 0.0);
        assert!(report.num_variables > 0);
        // The MILP objective must equal the max flow of the extracted placement.
        let graph = FlowGraphBuilder::new(&profile).build(&placement).unwrap();
        let flow = graph.max_flow().value;
        assert!(
            (flow - report.objective_tokens_per_sec).abs() / flow.max(1.0) < 0.05,
            "MILP objective {} vs flow evaluation {}",
            report.objective_tokens_per_sec,
            flow
        );
    }

    #[test]
    fn planner_beats_or_matches_warm_start() {
        let profile = tiny_profile(6);
        let options = PlannerOptions {
            time_limit: Duration::from_secs(10),
            record_events: true,
            ..Default::default()
        };
        let mut planner = MilpPlacementPlanner::with_options(&profile, options);
        let (_, report) = planner.solve().unwrap();
        if let Some(ws) = report.warm_start_tokens_per_sec {
            assert!(report.objective_tokens_per_sec >= ws - 1e-6);
        }
    }

    #[test]
    fn strict_pipelines_without_partial_inference_also_solve() {
        let profile = tiny_profile(6);
        let options = PlannerOptions {
            partial_inference: false,
            time_limit: Duration::from_secs(10),
            ..Default::default()
        };
        let mut planner = MilpPlacementPlanner::with_options(&profile, options);
        let (placement, _) = planner.solve().unwrap();
        placement.validate(&profile).unwrap();
    }

    #[test]
    fn exhausted_node_budget_returns_the_heuristic_placement() {
        let profile = tiny_profile(6);
        let options = PlannerOptions {
            node_limit: 0,
            ..Default::default()
        };
        let (placement, report) = MilpPlacementPlanner::with_options(&profile, options)
            .solve()
            .unwrap();
        placement.validate(&profile).unwrap();
        assert_eq!(report.nodes_explored, 0);
        let warm = report.warm_start_tokens_per_sec.unwrap();
        assert!((report.objective_tokens_per_sec - warm).abs() <= 1e-9 * warm);
        // The root relaxation was solved and timed all the same.
        assert!(report.lp_iterations > 0 && report.solve_seconds > 0.0);
    }

    #[test]
    fn only_a_missing_incumbent_falls_back_to_the_heuristic() {
        let warm = || Some((ModelPlacement::empty(3), 7.0));
        let (_, throughput) = heuristic_fallback(MilpError::NoIncumbent, warm()).unwrap();
        assert_eq!(throughput, 7.0);
        for err in [
            MilpError::IterationLimit,
            MilpError::Unbounded,
            MilpError::Infeasible,
        ] {
            match heuristic_fallback(err.clone(), warm()) {
                Err(HelixError::Milp(passed)) => assert_eq!(passed, err),
                other => panic!("{err:?} was swallowed: {other:?}"),
            }
        }
        assert!(matches!(
            heuristic_fallback(MilpError::NoIncumbent, None),
            Err(HelixError::Milp(MilpError::NoIncumbent))
        ));
    }

    /// The pruned 10-node study problem the benchmark's `plan_fleet` solves,
    /// under a node budget that binds: the counts repeat exactly, so they can
    /// be asserted, and the warm-started nodes must be far cheaper than cold
    /// solves of the same relaxations.
    #[test]
    fn study10_node_budget_counts_repeat_and_warm_nodes_are_cheap() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let options = PlannerOptions {
            prune_degree: Some(6),
            node_limit: 10,
            early_stop_fraction: None,
            time_limit: Duration::from_secs(3600),
            record_events: true,
            ..Default::default()
        };
        let mut planner = MilpPlacementPlanner::with_options(&profile, options);
        let (_, report) = planner.solve().unwrap();
        assert_eq!(report.nodes_explored, 10);
        let root_bound = report.events[0].best_bound;
        assert!(
            (root_bound - 152_288.845).abs() < 1e-6 * root_bound,
            "root bound {root_bound}"
        );
        // Nothing prunes under a bound 146x the incumbent: the budget runs
        // out and the warm start is returned.
        let warm = report.warm_start_tokens_per_sec.unwrap();
        assert!((report.objective_tokens_per_sec - warm).abs() <= 1e-9 * warm);

        // The same search again, keeping the solver to read its node log.
        let (model, index) = planner.build_model().unwrap();
        let (_, assignment) = planner.heuristic_warm_start(&model, &index).unwrap();
        let mut solver = planner.milp_solver(Some(assignment));
        let result = solver.solve(&model).unwrap();
        assert_eq!(result.lp_iterations, report.lp_iterations);
        let nodes = solver.nodes();
        assert_eq!(nodes.len(), 10);
        assert_eq!(
            nodes.iter().map(|n| n.lp_iterations).sum::<u64>(),
            result.lp_iterations
        );

        let root: Vec<(f64, f64)> = model
            .variables()
            .iter()
            .map(|v| (v.lower, v.upper))
            .collect();
        let mut cold_iterations = 0;
        for k in 1..nodes.len() {
            // Bounds of node k: the root's, tightened along the path to it.
            let mut path = Vec::new();
            let mut at = k;
            while let (Some(parent), Some(branch)) = (nodes[at].parent, nodes[at].branch) {
                path.push(branch);
                at = parent;
            }
            let mut bounds = root.clone();
            for &(var, lower, upper) in path.iter().rev() {
                bounds[var] = (lower, upper);
            }
            let mut lp = LpSolver::new(&model, &root).unwrap();
            lp.solve(&bounds).unwrap();
            cold_iterations += lp.iterations();
        }
        let warm_iterations = result.lp_iterations - nodes[0].lp_iterations;
        assert!(
            2 * warm_iterations <= cold_iterations,
            "nine warm nodes took {warm_iterations} iterations, cold solves {cold_iterations}"
        );
        println!(
            "root {} iterations, nine warm nodes {warm_iterations}, cold {cold_iterations}",
            nodes[0].lp_iterations
        );
    }

    #[test]
    fn problem_size_scales_with_cluster_for_paper_setups() {
        // Not solved (far too large for a unit test) — only the formulation
        // size is exercised, which is what Table 8 reports.
        let p24 =
            ClusterProfile::analytic(ClusterSpec::single_cluster_24(), ModelConfig::llama2_70b());
        let p42 = ClusterProfile::analytic(
            ClusterSpec::high_heterogeneity_42(),
            ModelConfig::llama2_70b(),
        );
        let (v24, c24) = MilpPlacementPlanner::with_options(&p24, pruned(12))
            .problem_size()
            .unwrap();
        let (v42, c42) = MilpPlacementPlanner::with_options(&p42, pruned(12))
            .problem_size()
            .unwrap();
        let (v24_full, c24_full) = MilpPlacementPlanner::new(&p24).problem_size().unwrap();
        assert!(v42 > v24 && c42 > c24);
        assert!(v24_full > v24 && c24_full > c24);
    }
}
