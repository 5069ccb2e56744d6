//! Flow-guided simulated-annealing placement refinement.
//!
//! For large clusters the exact MILP of §4.4 becomes expensive; the paper
//! handles this with heuristic warm starts, pruning and generous time
//! budgets on Gurobi.  This module provides the practical large-cluster path
//! of our reproduction: a simulated-annealing search whose objective is the
//! *exact same quantity* the MILP maximises — the max flow of the placement's
//! graph abstraction — evaluated per move by a warm Dinic re-solve on one
//! standing network ([`IncrementalFlowEvaluator`]), with the winner reported
//! from a cold preflow-push solve.  Starting from the heuristic placements
//! and locally perturbing layer ranges, it reliably reaches placements close
//! to the throughput upper bound of §4.5.

use crate::error::HelixError;
use crate::flow_graph::FlowGraphBuilder;
use crate::placement::incremental::IncrementalFlowEvaluator;
use crate::placement::{heuristics, LayerRange, ModelPlacement};
use helix_cluster::{ClusterProfile, NodeId};
use helix_maxflow::MaxFlowAlgorithm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options for the annealing search.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealingOptions {
    /// Number of proposed moves.
    pub iterations: usize,
    /// RNG seed (searches are deterministic given the seed).
    pub seed: u64,
    /// Whether connection validity allows partial inference.
    pub partial_inference: bool,
    /// Optional cluster pruning degree used when evaluating placements.
    pub prune_degree: Option<usize>,
}

impl Default for AnnealingOptions {
    fn default() -> Self {
        AnnealingOptions {
            iterations: 4000,
            seed: 0x48454C49,
            partial_inference: true,
            prune_degree: None,
        }
    }
}

/// Initial acceptance temperature of every annealer, as a fraction of the
/// scale of its objective (the throughput upper bound here, the initial
/// normalised objective in the fleet searches).
pub(crate) const INITIAL_TEMPERATURE: f64 = 0.05;
/// Multiplicative cooling factor every annealer applies each iteration.
pub(crate) const COOLING: f64 = 0.999;

/// The serving throughput (max flow) of `placement`, solved cold; an invalid
/// placement scores 0.
pub(crate) fn cold_flow(
    profile: &ClusterProfile,
    placement: &ModelPlacement,
    partial_inference: bool,
    prune_degree: Option<usize>,
) -> f64 {
    let mut builder = FlowGraphBuilder::new(profile).partial_inference(partial_inference);
    if let Some(d) = prune_degree {
        builder = builder.prune_to_degree(d);
    }
    builder
        .build(placement)
        .map(|g| g.max_flow().value)
        .unwrap_or(0.0)
}

/// The Metropolis rule: an improvement is always accepted, a regression with
/// probability `exp(−Δ / temperature)` (one draw, made only for regressions
/// above the temperature floor).
pub(crate) fn metropolis(value: f64, current: f64, temperature: f64, rng: &mut StdRng) -> bool {
    value >= current || {
        let delta = current - value;
        temperature > 1e-12 && rng.gen::<f64>() < (-delta / temperature).exp()
    }
}

/// Simulated-annealing placement planner guided by max-flow evaluation.
///
/// # Example
///
/// ```rust
/// use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
/// use helix_core::{AnnealingOptions, FlowAnnealingPlanner};
///
/// let profile = ClusterProfile::analytic(
///     ClusterSpec::solver_quality_10(),
///     ModelConfig::llama_30b(),
/// );
/// let planner = FlowAnnealingPlanner::new(&profile)
///     .with_options(AnnealingOptions { iterations: 500, ..Default::default() });
/// let (placement, throughput) = planner.solve().unwrap();
/// assert!(throughput > 0.0);
/// # let _ = placement;
/// ```
#[derive(Debug, Clone)]
pub struct FlowAnnealingPlanner<'a> {
    profile: &'a ClusterProfile,
    options: AnnealingOptions,
}

impl<'a> FlowAnnealingPlanner<'a> {
    /// Creates a planner with default options.
    pub fn new(profile: &'a ClusterProfile) -> Self {
        FlowAnnealingPlanner {
            profile,
            options: AnnealingOptions::default(),
        }
    }

    /// Replaces the options.
    pub fn with_options(mut self, options: AnnealingOptions) -> Self {
        self.options = options;
        self
    }

    /// Evaluates the serving throughput (max flow) of a placement under this
    /// planner's connection settings; invalid placements score 0.
    pub fn evaluate(&self, placement: &ModelPlacement) -> f64 {
        cold_flow(
            self.profile,
            placement,
            self.options.partial_inference,
            self.options.prune_degree,
        )
    }

    /// Runs the search starting from the built-in heuristics.
    ///
    /// # Errors
    ///
    /// Returns [`HelixError::NoPlacementFound`] if no heuristic produces a
    /// feasible starting point (e.g. the cluster cannot hold the model).
    pub fn solve(&self) -> Result<(ModelPlacement, f64), HelixError> {
        let starts: Vec<ModelPlacement> = [
            heuristics::swarm_placement(self.profile),
            heuristics::petals_placement(self.profile),
            heuristics::separate_pipelines_placement(self.profile),
            heuristics::separate_pipelines_plus_placement(self.profile),
        ]
        .into_iter()
        .flatten()
        .collect();
        self.solve_from(&starts)
    }

    /// Runs the search starting from the given placements.
    ///
    /// # Errors
    ///
    /// Returns [`HelixError::NoPlacementFound`] if `starts` is empty or no
    /// start is feasible.
    fn solve_from(&self, starts: &[ModelPlacement]) -> Result<(ModelPlacement, f64), HelixError> {
        let mut best: Option<(ModelPlacement, f64)> = None;
        for s in starts {
            let v = self.evaluate(s);
            if v > 0.0 && best.as_ref().is_none_or(|(_, bv)| v > *bv) {
                best = Some((s.clone(), v));
            }
        }
        let (start, _) = best.ok_or(HelixError::NoPlacementFound)?;
        self.anneal(start)
    }

    /// The annealing loop: one standing flow network absorbs each
    /// single-node move via capacity updates and a warm re-solve; rejected
    /// moves are rolled back through the network's undo-log.  The returned
    /// value is the cold re-evaluation of the best placement, so reported
    /// numbers always come from the canonical path.
    fn anneal(&self, start: ModelPlacement) -> Result<(ModelPlacement, f64), HelixError> {
        // Dinic augments from the standing flow without re-saturating the
        // source (push-relabel would re-push every source edge's residual and
        // drain it back each solve, wasting the warm start).
        let mut evaluator = IncrementalFlowEvaluator::new(
            self.profile,
            &start,
            self.options.partial_inference,
            self.options.prune_degree,
            MaxFlowAlgorithm::Dinic,
        )?;
        let mut current_value = evaluator.value();
        // The evaluator's own placement is the single authoritative copy of
        // the current state; only the best-so-far needs a snapshot.
        let (mut best_placement, mut best_value) = (start, current_value);
        let upper = self.profile.throughput_upper_bound().max(1e-9);
        let mut temperature = INITIAL_TEMPERATURE * upper;
        let mut rng = StdRng::seed_from_u64(self.options.seed);

        for _ in 0..self.options.iterations {
            let Some((node, range)) = self.propose(evaluator.placement(), &mut rng) else {
                temperature *= COOLING;
                continue;
            };
            let previous = evaluator.placement().range(node);
            let value = evaluator.assign(node, range);
            if metropolis(value, current_value, temperature, &mut rng) && value > 0.0 {
                current_value = value;
                if value > best_value {
                    best_value = value;
                    best_placement = evaluator.placement().clone();
                    // Early exit once we are essentially at the upper bound.
                    if best_value >= 0.995 * upper {
                        break;
                    }
                }
            } else {
                evaluator.restore(node, previous);
            }
            temperature *= COOLING;
        }
        // Report the canonical (cold) evaluation of the winner.
        let value = self.evaluate(&best_placement);
        Ok((best_placement, value))
    }

    /// Proposes a random single-node move: `(node, new range)`, or `None`
    /// when the drawn node cannot hold layers or the move template does not
    /// apply.
    fn propose(
        &self,
        placement: &ModelPlacement,
        rng: &mut StdRng,
    ) -> Option<(NodeId, LayerRange)> {
        let profile = self.profile;
        let num_layers = profile.model().num_layers;
        let num_nodes = profile.cluster().num_nodes();
        let node = NodeId(rng.gen_range(0..num_nodes));
        let max_layers = profile.node_profile(node).max_layers.min(num_layers);
        if max_layers == 0 {
            return None;
        }
        let current = placement.range(node);
        match rng.gen_range(0..4u8) {
            // Resize: change the number of layers held, keeping the start.
            0 => {
                let range = current.unwrap_or(LayerRange::new(0, 1));
                let delta: i64 = rng.gen_range(-3..=3);
                let new_len = (range.len() as i64 + delta).clamp(1, max_layers as i64) as usize;
                let start = range.start.min(num_layers - new_len);
                Some((node, LayerRange::new(start, start + new_len)))
            }
            // Shift: move the range earlier/later.
            1 => {
                let range = current.unwrap_or(LayerRange::new(0, max_layers.min(num_layers)));
                let len = range.len();
                let shift: i64 = rng.gen_range(-4..=4);
                let start =
                    (range.start as i64 + shift).clamp(0, (num_layers - len) as i64) as usize;
                Some((node, LayerRange::new(start, start + len)))
            }
            // Re-anchor: continue right after another node's range.
            2 => {
                let other = NodeId(rng.gen_range(0..num_nodes));
                let other_range = placement.range(other)?;
                if other_range.end < num_layers {
                    let len = max_layers.min(num_layers - other_range.end);
                    Some((
                        node,
                        LayerRange::new(other_range.end, other_range.end + len),
                    ))
                } else {
                    // Other node ends the model: mirror its range instead.
                    let len = max_layers.min(other_range.len());
                    Some((
                        node,
                        LayerRange::new(other_range.end - len, other_range.end),
                    ))
                }
            }
            // Replicate: copy another node's range (shrunk to fit VRAM).
            _ => {
                let other = NodeId(rng.gen_range(0..num_nodes));
                let other_range = placement.range(other)?;
                let len = max_layers.min(other_range.len());
                Some((
                    node,
                    LayerRange::new(other_range.start, other_range.start + len),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_cluster::{ClusterSpec, ModelConfig};

    fn quick_options() -> AnnealingOptions {
        AnnealingOptions {
            iterations: 300,
            ..Default::default()
        }
    }

    #[test]
    fn annealing_improves_or_matches_heuristics() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let planner = FlowAnnealingPlanner::new(&profile).with_options(quick_options());
        let swarm = heuristics::swarm_placement(&profile).unwrap();
        let swarm_value = planner.evaluate(&swarm);
        let (best, value) = planner.solve().unwrap();
        best.validate(&profile).unwrap();
        assert!(value >= swarm_value - 1e-9);
        assert!(value <= profile.throughput_upper_bound() * 1.0001);
    }

    #[test]
    fn annealing_is_deterministic_for_a_seed() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let planner = FlowAnnealingPlanner::new(&profile).with_options(quick_options());
        let (_, v1) = planner.solve().unwrap();
        let (_, v2) = planner.solve().unwrap();
        assert_eq!(v1, v2);
    }

    #[test]
    fn evaluate_returns_zero_for_invalid_placement() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let planner = FlowAnnealingPlanner::new(&profile);
        let empty = ModelPlacement::empty(profile.cluster().num_nodes());
        assert_eq!(planner.evaluate(&empty), 0.0);
    }

    #[test]
    fn solve_from_empty_starts_errors() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let planner = FlowAnnealingPlanner::new(&profile);
        assert!(matches!(
            planner.solve_from(&[]),
            Err(HelixError::NoPlacementFound)
        ));
    }

    #[test]
    fn warm_start_is_the_default_and_matches_cold_on_the_solver_quality_cluster() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let planner = FlowAnnealingPlanner::new(&profile).with_options(AnnealingOptions {
            iterations: 400,
            ..Default::default()
        });
        let (placement, value) = planner.solve().unwrap();
        placement.validate(&profile).unwrap();
        // The search runs on the warm evaluator but reports its placement's
        // value from the canonical cold evaluation.
        let eps = helix_maxflow::FLOW_EPS * (1.0 + value.abs());
        assert!(
            (planner.evaluate(&placement) - value).abs() <= eps,
            "reported value diverges from the cold evaluation of its placement"
        );
        // The search does not lose to the best heuristic start.
        let heuristic_best = [
            heuristics::swarm_placement(&profile).unwrap(),
            heuristics::petals_placement(&profile).unwrap(),
        ]
        .iter()
        .map(|p| planner.evaluate(p))
        .fold(0.0_f64, f64::max);
        assert!(
            value >= heuristic_best - 1e-9,
            "annealed {value} vs heuristics {heuristic_best}"
        );
    }

    #[test]
    fn warm_start_evaluations_match_cold_per_placement() {
        // Follow the warm path's accepted placements and re-evaluate each
        // with the cold builder: the two evaluation surfaces must agree on
        // every placement, not just the final one.
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let planner = FlowAnnealingPlanner::new(&profile);
        let start = heuristics::swarm_placement(&profile).unwrap();
        let mut evaluator = crate::placement::incremental::IncrementalFlowEvaluator::new(
            &profile,
            &start,
            true,
            None,
            helix_maxflow::MaxFlowAlgorithm::PushRelabel,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut placement = start;
        let mut checked = 0;
        for _ in 0..120 {
            let Some((node, range)) = planner.propose(&placement, &mut rng) else {
                continue;
            };
            placement.assign(node, range);
            let warm = evaluator.assign(node, range);
            let cold = planner.evaluate(&placement);
            let eps = helix_maxflow::FLOW_EPS * (1.0 + cold.abs());
            assert!((warm - cold).abs() <= eps, "warm {warm} vs cold {cold}");
            checked += 1;
        }
        assert!(checked > 50, "exercised {checked} moves");
    }

    #[test]
    fn annealing_handles_geo_distributed_cluster() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::geo_distributed_24(), ModelConfig::llama2_70b());
        let planner = FlowAnnealingPlanner::new(&profile).with_options(AnnealingOptions {
            iterations: 200,
            ..Default::default()
        });
        let (placement, value) = planner.solve().unwrap();
        placement.validate(&profile).unwrap();
        assert!(value > 0.0);
    }
}
