//! Branch & bound MILP search over the LP relaxation.

use crate::error::MilpError;
use crate::model::{Model, ObjectiveSense};
use crate::simplex::{Basis, LpOutcome, LpSolver};
use crate::solution::{MilpResult, SolveStatus};
use crate::INT_EPS;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One entry in the solver's incumbent/bound timeline.
///
/// The Helix paper's Fig. 12 plots exactly this: the best solution found so
/// far and the best upper bound, against wall-clock solving time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchEvent {
    /// Seconds since the solve started.
    pub elapsed_seconds: f64,
    /// Nodes explored so far.
    pub nodes_explored: u64,
    /// Objective of the best incumbent found so far (in the model's sense),
    /// if any incumbent exists yet.
    pub incumbent: Option<f64>,
    /// Best proven bound on the optimum so far (in the model's sense).
    pub best_bound: f64,
}

/// One explored node of the search tree.
///
/// Together the records of a solve describe every relaxation it solved: the
/// bounds of a node are the root's, tightened by the `branch` of each node on
/// the path down to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeRecord {
    /// Position of the parent node in [`MilpSolver::nodes`]; `None` for the
    /// root.
    pub parent: Option<usize>,
    /// The branching decision that created the node: the variable's index
    /// and its new bounds.  `None` for the root.
    pub branch: Option<(usize, f64, f64)>,
    /// Simplex iterations spent on the node's relaxation.
    pub lp_iterations: u64,
}

/// Configuration of the branch & bound search.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpOptions {
    /// Wall-clock budget; the incumbent at expiry is returned.
    pub time_limit: Duration,
    /// Maximum number of nodes to explore.
    pub node_limit: u64,
    /// Stop when the relative gap between incumbent and bound drops below
    /// this value.
    pub gap_tolerance: f64,
    /// Stop as soon as the incumbent objective reaches this value (an
    /// absolute objective threshold in the model's sense).  Mirrors Helix's
    /// early-stop at the cluster throughput upper bound (§4.5).
    pub early_stop_objective: Option<f64>,
    /// A feasible assignment used as the initial incumbent (heuristic warm
    /// start, §4.5).  Infeasible warm starts are ignored.
    pub warm_start: Option<Vec<f64>>,
    /// Record a [`BranchEvent`] every time the incumbent or bound improves,
    /// and a [`NodeRecord`] for every node explored.
    pub record_events: bool,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            time_limit: Duration::from_secs(60),
            node_limit: 200_000,
            gap_tolerance: 1e-6,
            early_stop_objective: None,
            warm_start: None,
            record_events: false,
        }
    }
}

/// A branch & bound MILP solver.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct MilpSolver {
    options: MilpOptions,
    /// Timeline of incumbent/bound improvements from the last solve.
    events: Vec<BranchEvent>,
    /// The nodes the last solve explored, in order.
    nodes: Vec<NodeRecord>,
}

/// Open node: bounds override per variable plus the parent LP bound (score
/// space, larger is better) and the parent's optimal basis to start from.
/// The basis is `O(rows + columns)` and shared by both children; no open
/// node ever holds a simplex table.
struct OpenNode {
    bounds: Vec<(f64, f64)>,
    basis: Rc<Basis>,
    score_bound: f64,
    depth: u32,
    /// Parent's position among the explored nodes and the variable branched
    /// on; `None` for the root.
    origin: Option<(usize, usize)>,
}

impl PartialEq for OpenNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for OpenNode {}
impl PartialOrd for OpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OpenNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // Best-bound first; tie-break towards deeper nodes (closer to
        // integrality) so dives finish quickly.
        self.score_bound
            .total_cmp(&other.score_bound)
            .then(self.depth.cmp(&other.depth))
    }
}

impl MilpSolver {
    /// Creates a solver with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with the given options.
    pub fn with_options(options: MilpOptions) -> Self {
        MilpSolver {
            options,
            events: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// Sets the wall-clock budget and returns `self` for chaining.
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.options.time_limit = limit;
        self
    }

    /// Sets the warm-start assignment and returns `self` for chaining.
    pub fn warm_start(mut self, assignment: Vec<f64>) -> Self {
        self.options.warm_start = Some(assignment);
        self
    }

    /// Sets the early-stop objective and returns `self` for chaining.
    pub fn early_stop_objective(mut self, objective: f64) -> Self {
        self.options.early_stop_objective = Some(objective);
        self
    }

    /// Enables event recording and returns `self` for chaining.
    pub fn record_events(mut self) -> Self {
        self.options.record_events = true;
        self
    }

    /// Timeline of incumbent/bound improvements from the most recent
    /// [`MilpSolver::solve`] call (empty unless event recording was enabled).
    pub fn events(&self) -> &[BranchEvent] {
        &self.events
    }

    /// The nodes explored by the most recent [`MilpSolver::solve`] call, in
    /// exploration order (empty unless event recording was enabled).
    pub fn nodes(&self) -> &[NodeRecord] {
        &self.nodes
    }

    /// Solves `model` to (near-)optimality subject to the configured budgets.
    ///
    /// # Errors
    ///
    /// * [`MilpError::Infeasible`] — the LP relaxation (and hence the MILP) is
    ///   infeasible.
    /// * [`MilpError::Unbounded`] — the LP relaxation is unbounded.
    /// * [`MilpError::NoIncumbent`] — the budget expired before any feasible
    ///   integer solution was found.
    /// * [`MilpError::IterationLimit`] — the simplex failed numerically.
    pub fn solve(&mut self, model: &Model) -> Result<MilpResult, MilpError> {
        let start = Instant::now();
        self.events.clear();
        self.nodes.clear();
        let sense = model.sense();
        // Score space: larger is better.
        let to_score = |obj: f64| match sense {
            ObjectiveSense::Maximize => obj,
            ObjectiveSense::Minimize => -obj,
        };
        let from_score = |score: f64| match sense {
            ObjectiveSense::Maximize => score,
            ObjectiveSense::Minimize => -score,
        };

        let root_bounds: Vec<(f64, f64)> = model
            .variables()
            .iter()
            .map(|v| {
                // Integral variables can have their bounds rounded inward.
                if v.var_type.is_integral() {
                    (v.lower.ceil(), v.upper.floor())
                } else {
                    (v.lower, v.upper)
                }
            })
            .collect();
        for &(l, u) in &root_bounds {
            if l > u {
                return Err(MilpError::Infeasible);
            }
        }

        let mut incumbent: Option<(f64, Vec<f64>)> = None; // (score, values)
        if let Some(ws) = &self.options.warm_start {
            if model.is_feasible(ws, 1e-6) {
                let obj = model.objective_value(ws);
                incumbent = Some((to_score(obj), ws.clone()));
            }
        }

        // Root relaxation, solved cold; every other node re-optimises the
        // same table from its parent's basis.
        let mut lp = LpSolver::new(model, &root_bounds)?;
        let root_sol = match lp.solve(&root_bounds)? {
            LpOutcome::Infeasible => {
                // A warm start can still make this "feasible overall" only if
                // the warm start satisfies the constraints, which would
                // contradict LP infeasibility; report infeasible.
                return Err(MilpError::Infeasible);
            }
            LpOutcome::Unbounded => return Err(MilpError::Unbounded),
            LpOutcome::Optimal(s) => s,
        };
        let mut best_bound_score = to_score(root_sol.objective);
        let mut nodes_explored: u64 = 0;
        // Node 1 is the root again; it takes the solve above, iterations
        // included.
        let mut root_sol = Some(root_sol);
        let mut iterations_logged = 0;

        let mut heap: BinaryHeap<OpenNode> = BinaryHeap::new();
        heap.push(OpenNode {
            bounds: root_bounds,
            basis: Rc::new(lp.basis()),
            score_bound: best_bound_score,
            depth: 0,
            origin: None,
        });

        let mut status = SolveStatus::Optimal;
        let record = |events: &mut Vec<BranchEvent>,
                      opts: &MilpOptions,
                      start: Instant,
                      nodes: u64,
                      incumbent: &Option<(f64, Vec<f64>)>,
                      bound_score: f64| {
            if opts.record_events {
                events.push(BranchEvent {
                    elapsed_seconds: start.elapsed().as_secs_f64(),
                    nodes_explored: nodes,
                    incumbent: incumbent.as_ref().map(|(s, _)| from_score(*s)),
                    best_bound: from_score(bound_score),
                });
            }
        };
        record(
            &mut self.events,
            &self.options,
            start,
            0,
            &incumbent,
            best_bound_score,
        );

        while let Some(node) = heap.pop() {
            // The heap is ordered by bound, so the top of the heap is the
            // global best bound among open nodes.
            best_bound_score = node.score_bound;
            if let Some((inc_score, _)) = &incumbent {
                let gap = (best_bound_score - inc_score) / inc_score.abs().max(1.0);
                if gap <= self.options.gap_tolerance {
                    status = SolveStatus::Optimal;
                    best_bound_score = *inc_score;
                    break;
                }
            }
            if start.elapsed() > self.options.time_limit
                || nodes_explored >= self.options.node_limit
            {
                status = SolveStatus::Feasible;
                break;
            }

            nodes_explored += 1;
            let outcome = match root_sol.take() {
                Some(solution) => LpOutcome::Optimal(solution),
                None => lp.resolve(&node.bounds, &node.basis)?,
            };
            if self.options.record_events {
                self.nodes.push(NodeRecord {
                    parent: node.origin.map(|(parent, _)| parent),
                    branch: node.origin.map(|(_, var)| {
                        let (lower, upper) = node.bounds[var];
                        (var, lower, upper)
                    }),
                    lp_iterations: lp.iterations() - iterations_logged,
                });
            }
            iterations_logged = lp.iterations();
            let relaxed = match outcome {
                LpOutcome::Optimal(s) => s,
                LpOutcome::Infeasible => continue,
                LpOutcome::Unbounded => return Err(MilpError::Unbounded),
            };
            let node_score = to_score(relaxed.objective);
            // Prune against the incumbent.
            if let Some((inc_score, _)) = &incumbent {
                if node_score <= inc_score + 1e-9 {
                    continue;
                }
            }
            // Find the most fractional integral variable.
            let mut branch_var: Option<usize> = None;
            let mut branch_frac = 0.0;
            for (i, v) in model.variables().iter().enumerate() {
                if !v.var_type.is_integral() {
                    continue;
                }
                let x = relaxed.values[i];
                let frac = (x - x.round()).abs();
                if frac > INT_EPS {
                    let dist_to_half = (frac - 0.5).abs();
                    let score = 0.5 - dist_to_half;
                    if branch_var.is_none() || score > branch_frac {
                        branch_frac = score;
                        branch_var = Some(i);
                    }
                }
            }
            match branch_var {
                None => {
                    // Integral solution: new incumbent candidate.
                    let mut values = relaxed.values;
                    for (i, v) in model.variables().iter().enumerate() {
                        if v.var_type.is_integral() {
                            values[i] = values[i].round();
                        }
                    }
                    let obj = model.objective_value(&values);
                    let score = to_score(obj);
                    let improved = incumbent.as_ref().is_none_or(|(s, _)| score > *s);
                    if improved && model.is_feasible(&values, 1e-5) {
                        incumbent = Some((score, values));
                        record(
                            &mut self.events,
                            &self.options,
                            start,
                            nodes_explored,
                            &incumbent,
                            best_bound_score,
                        );
                        if let Some(stop) = self.options.early_stop_objective {
                            if score >= to_score(stop) - 1e-9 {
                                status = SolveStatus::EarlyStopped;
                                break;
                            }
                        }
                    }
                }
                Some(i) => {
                    let x = relaxed.values[i];
                    let (l, u) = node.bounds[i];
                    let basis = Rc::new(lp.basis());
                    // Down child: x <= floor; up child: x >= ceil.
                    for (lower, upper) in [(l, x.floor().min(u)), (x.ceil().max(l), u)] {
                        if lower <= upper {
                            let mut bounds = node.bounds.clone();
                            bounds[i] = (lower, upper);
                            heap.push(OpenNode {
                                bounds,
                                basis: Rc::clone(&basis),
                                score_bound: node_score,
                                depth: node.depth + 1,
                                origin: Some((nodes_explored as usize - 1, i)),
                            });
                        }
                    }
                }
            }
        }

        if heap.is_empty() && status == SolveStatus::Optimal {
            // Tree exhausted: the incumbent (if any) is optimal and the bound
            // collapses onto it.
            if let Some((score, _)) = &incumbent {
                best_bound_score = *score;
            }
        }

        let Some((score, values)) = incumbent else {
            return Err(MilpError::NoIncumbent);
        };
        record(
            &mut self.events,
            &self.options,
            start,
            nodes_explored,
            &Some((score, values.clone())),
            best_bound_score,
        );
        Ok(MilpResult {
            objective: from_score(score),
            values,
            status,
            best_bound: from_score(best_bound_score),
            nodes_explored,
            lp_iterations: lp.iterations(),
            solve_seconds: start.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, ObjectiveSense, Sense, VarType};

    #[test]
    fn open_node_equality_agrees_with_its_ordering() {
        let empty = Model::new(ObjectiveSense::Maximize);
        let basis = Rc::new(LpSolver::new(&empty, &[]).unwrap().basis());
        let node = |score_bound: f64, depth: u32| OpenNode {
            bounds: Vec::new(),
            basis: Rc::clone(&basis),
            score_bound,
            depth,
            origin: None,
        };
        // Same bound, different depth: ordered, hence not equal.
        assert!(node(1.0, 3) > node(1.0, 2));
        assert!(node(1.0, 3) != node(1.0, 2));
        assert!(node(1.0, 2) == node(1.0, 2));
        // A NaN bound has one place in the order instead of tying with all.
        assert!(node(f64::NAN, 0) > node(f64::INFINITY, 9));
        assert!(node(f64::NAN, 0) != node(1.0, 0));
        assert!(node(f64::NAN, 0) == node(f64::NAN, 0));
    }

    #[test]
    fn node_log_accounts_for_every_iteration() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let vars: Vec<_> = (0..10)
            .map(|i| m.add_binary(format!("x{i}"), 3.0 + (i % 4) as f64).unwrap())
            .collect();
        let weights: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 2.0 + (i % 3) as f64))
            .collect();
        m.add_constraint("w", weights, Sense::Le, 11.5).unwrap();
        let mut solver = MilpSolver::new().record_events();
        let r = solver.solve(&m).unwrap();
        let nodes = solver.nodes();
        assert_eq!(nodes.len() as u64, r.nodes_explored);
        assert!(nodes.len() > 1, "the knapsack must branch");
        assert_eq!(
            nodes.iter().map(|n| n.lp_iterations).sum::<u64>(),
            r.lp_iterations
        );
        assert_eq!((nodes[0].parent, nodes[0].branch), (None, None));
        for (k, node) in nodes.iter().enumerate().skip(1) {
            let (var, lower, upper) = node.branch.unwrap();
            assert!(node.parent.unwrap() < k && var < 10 && lower == upper);
        }
        // Nothing is logged unless asked for.
        let mut quiet = MilpSolver::new();
        quiet.solve(&m).unwrap();
        assert!(quiet.nodes().is_empty());
    }

    #[test]
    fn knapsack_small() {
        // Classic 0/1 knapsack: values 60,100,120; weights 10,20,30; cap 50 -> 220.
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x1 = m.add_binary("x1", 60.0).unwrap();
        let x2 = m.add_binary("x2", 100.0).unwrap();
        let x3 = m.add_binary("x3", 120.0).unwrap();
        m.add_constraint("w", [(x1, 10.0), (x2, 20.0), (x3, 30.0)], Sense::Le, 50.0)
            .unwrap();
        let r = MilpSolver::new().solve(&m).unwrap();
        assert_eq!(r.objective.round(), 220.0);
        assert_eq!(r.values[x1.index()].round(), 0.0);
        assert_eq!(r.values[x2.index()].round(), 1.0);
        assert_eq!(r.values[x3.index()].round(), 1.0);
        assert_eq!(r.status, SolveStatus::Optimal);
        assert!(r.gap() < 1e-6);
    }

    #[test]
    fn integer_rounding_differs_from_lp() {
        // max x + y s.t. 2x + 2y <= 5 integer -> LP gives 2.5, MILP gives 2.
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_var("x", VarType::Integer, 0.0, 10.0, 1.0).unwrap();
        let y = m.add_var("y", VarType::Integer, 0.0, 10.0, 1.0).unwrap();
        m.add_constraint("c", [(x, 2.0), (y, 2.0)], Sense::Le, 5.0)
            .unwrap();
        let r = MilpSolver::new().solve(&m).unwrap();
        assert_eq!(r.objective.round(), 2.0);
    }

    #[test]
    fn minimization_milp() {
        // min 5x + 4y s.t. x + y >= 3, x,y binary-ish integers up to 3 -> x=0,y=3 cost 12.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_var("x", VarType::Integer, 0.0, 3.0, 5.0).unwrap();
        let y = m.add_var("y", VarType::Integer, 0.0, 3.0, 4.0).unwrap();
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Ge, 3.0)
            .unwrap();
        let r = MilpSolver::new().solve(&m).unwrap();
        assert_eq!(r.objective.round(), 12.0);
        assert_eq!(r.values[y.index()].round(), 3.0);
    }

    #[test]
    fn infeasible_milp_reports_error() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_binary("x", 1.0).unwrap();
        m.add_constraint("ge", [(x, 1.0)], Sense::Ge, 2.0).unwrap();
        assert_eq!(
            MilpSolver::new().solve(&m).unwrap_err(),
            MilpError::Infeasible
        );
    }

    #[test]
    fn warm_start_is_used_as_incumbent() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_binary("x", 1.0).unwrap();
        let y = m.add_binary("y", 1.0).unwrap();
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Le, 1.0)
            .unwrap();
        let mut solver = MilpSolver::new().warm_start(vec![1.0, 0.0]).record_events();
        let r = solver.solve(&m).unwrap();
        assert_eq!(r.objective.round(), 1.0);
        assert!(!solver.events().is_empty());
        assert_eq!(solver.events()[0].incumbent.map(|v| v.round()), Some(1.0));
    }

    #[test]
    fn infeasible_warm_start_is_ignored() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_binary("x", 3.0).unwrap();
        let y = m.add_binary("y", 2.0).unwrap();
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Le, 1.0)
            .unwrap();
        // Warm start violates the constraint.
        let r = MilpSolver::new()
            .warm_start(vec![1.0, 1.0])
            .solve(&m)
            .unwrap();
        assert_eq!(r.objective.round(), 3.0);
    }

    #[test]
    fn early_stop_halts_search() {
        // A knapsack where reaching objective >= 100 is easy.
        let mut m = Model::new(ObjectiveSense::Maximize);
        let vars: Vec<_> = (0..12)
            .map(|i| m.add_binary(format!("x{i}"), 10.0 + i as f64).unwrap())
            .collect();
        let weights: Vec<_> = vars.iter().map(|&v| (v, 5.0)).collect();
        m.add_constraint("w", weights, Sense::Le, 30.0).unwrap();
        let mut solver = MilpSolver::new().early_stop_objective(50.0);
        let r = solver.solve(&m).unwrap();
        assert!(r.objective >= 50.0);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2x + 3y, x integer <= 4.3 constraint, y continuous <= 2.5; x + y <= 5.
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_var("x", VarType::Integer, 0.0, 10.0, 2.0).unwrap();
        let y = m.add_var("y", VarType::Continuous, 0.0, 2.5, 3.0).unwrap();
        m.add_constraint("a", [(x, 1.0)], Sense::Le, 4.3).unwrap();
        m.add_constraint("b", [(x, 1.0), (y, 1.0)], Sense::Le, 5.0)
            .unwrap();
        let r = MilpSolver::new().solve(&m).unwrap();
        // Optimum is x=3, y=2 -> 2*3 + 3*2 = 12 (beats x=2,y=2.5 -> 11.5 and x=4,y=1 -> 11).
        assert!((r.objective - 12.0).abs() < 1e-5);
        assert_eq!(r.values[x.index()].round(), 3.0);
        assert!((r.values[y.index()] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn incumbent_never_exceeds_bound() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let vars: Vec<_> = (0..8)
            .map(|i| m.add_binary(format!("x{i}"), (i + 1) as f64).unwrap())
            .collect();
        let weights: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i % 3 + 1) as f64))
            .collect();
        m.add_constraint("w", weights, Sense::Le, 6.0).unwrap();
        let r = MilpSolver::new().solve(&m).unwrap();
        assert!(r.objective <= r.best_bound + 1e-6);
    }

    #[test]
    fn node_limit_returns_feasible_status() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let vars: Vec<_> = (0..15)
            .map(|i| {
                m.add_binary(format!("x{i}"), 1.0 + (i as f64) * 0.01)
                    .unwrap()
            })
            .collect();
        let weights: Vec<_> = vars.iter().map(|&v| (v, 2.0)).collect();
        m.add_constraint("w", weights, Sense::Le, 29.0).unwrap();
        let opts = MilpOptions {
            node_limit: 3,
            warm_start: Some(vec![0.0; 15]),
            ..Default::default()
        };
        let r = MilpSolver::with_options(opts).solve(&m).unwrap();
        assert!(matches!(
            r.status,
            SolveStatus::Feasible | SolveStatus::Optimal
        ));
    }
}
