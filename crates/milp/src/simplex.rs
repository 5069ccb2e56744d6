//! Bounded-variable simplex for LP relaxations, solved cold or warm-started
//! from a basis.
//!
//! Every column carries its bounds `[l, u]` implicitly: a non-basic column
//! sits at its lower bound, at its upper bound or (when both are infinite) at
//! zero, and the ratio tests flip a column between its bounds instead of
//! pivoting when that is the tightest limit.  A row `a·x (<=|==|>=) b`
//! becomes `a·x + s = b` with a slack `s >= 0` (`<=`), `s <= 0` (`>=`) or no
//! slack at all (`==`); variables whose bounds coincide are substituted out.
//! The table therefore has one row per constraint and one column per free
//! structural, per inequality and per *needed* artificial — an artificial is
//! added only to rows whose slack cannot start basic (equalities, and
//! inequalities violated at the starting point).
//!
//! Rows and structural columns are scaled by powers of two chosen from the
//! model's coefficients alone, so that table entries sit near one and the
//! absolute tolerances below mean the same thing in a row of layer counts
//! and in a row of tokens per second.
//!
//! The table is one contiguous row-major `Vec<f64>`; its last row holds the
//! reduced costs and is updated by the pivot itself, so pricing is a single
//! scan of that row.  The last column holds `B⁻¹b`, from which the basic
//! values are recomputed whenever bounds change.
//!
//! [`LpSolver::solve`] runs the cold two-phase primal simplex.
//! [`LpSolver::resolve`] keeps the table of the previous solve, pivots it to
//! a given [`Basis`] (usually the parent node's optimum, often already in
//! place), applies the new bounds and re-optimises with the dual simplex; it
//! falls back to the cold path when the warm solve runs into numerical
//! trouble.  Both paths share one pivot routine and one ratio test per
//! direction.  Dantzig pricing is used until a run of degenerate steps
//! suggests cycling, Bland's rule until the run ends.
//!
//! The table is dense, so a pivot costs rows × columns; see the crate docs
//! for the problem sizes this is meant for.

use crate::error::MilpError;
use crate::model::{Model, ObjectiveSense, Sense};

/// An optimal solution of an LP relaxation.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Objective value in the model's own sense (i.e. already negated back
    /// for maximisation problems).
    pub objective: f64,
    /// Value of every model variable, indexed by [`VarId::index`](crate::VarId::index).
    pub values: Vec<f64>,
}

/// Result category of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal(LpSolution),
    /// The constraints admit no solution.
    Infeasible,
    /// The objective is unbounded in the optimisation direction.
    Unbounded,
}

impl LpOutcome {
    /// Returns the solution if the outcome is optimal.
    pub fn optimal(self) -> Option<LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// Solves the LP relaxation of `model` (integrality dropped).
///
/// # Errors
///
/// Returns [`MilpError::IterationLimit`] if the simplex fails to converge
/// within its safety limit (a symptom of severe numerical trouble, not of a
/// property of the model).
///
/// # Example
///
/// ```rust
/// use helix_milp::{solve_lp, Model, ObjectiveSense, Sense, VarType};
///
/// let mut m = Model::new(ObjectiveSense::Maximize);
/// let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY, 1.0).unwrap();
/// let y = m.add_var("y", VarType::Continuous, 0.0, f64::INFINITY, 1.0).unwrap();
/// m.add_constraint("c", [(x, 2.0), (y, 1.0)], Sense::Le, 4.0).unwrap();
/// m.add_constraint("d", [(x, 1.0), (y, 3.0)], Sense::Le, 6.0).unwrap();
/// let sol = solve_lp(&m).unwrap().optimal().unwrap();
/// assert!((sol.objective - 2.8).abs() < 1e-6);
/// ```
pub fn solve_lp(model: &Model) -> Result<LpOutcome, MilpError> {
    let bounds: Vec<(f64, f64)> = model
        .variables()
        .iter()
        .map(|v| (v.lower, v.upper))
        .collect();
    solve_lp_with_bounds(model, &bounds)
}

/// Solves the LP relaxation with per-variable bound overrides.
///
/// `bounds[i]` replaces the bounds of variable `i`; the slice must have one
/// entry per model variable.
///
/// # Errors
///
/// Returns [`MilpError::BoundsLength`] if the slice length does not match the
/// model, [`MilpError::InvalidBounds`] if some `lower > upper` or a bound is
/// NaN, and [`MilpError::IterationLimit`] on convergence failure.
pub(crate) fn solve_lp_with_bounds(
    model: &Model,
    bounds: &[(f64, f64)],
) -> Result<LpOutcome, MilpError> {
    LpSolver::new(model, bounds)?.solve(bounds)
}

/// Smallest magnitude accepted as a pivot element.
const PIVOT_TOL: f64 = 1e-9;
/// Smallest pivot accepted while moving the table to another basis, where
/// giving up (and solving cold) is always an alternative.
const INSTALL_PIVOT_TOL: f64 = 1e-7;
/// Reduced costs within this distance of zero count as zero.
const DUAL_TOL: f64 = 1e-9;
/// A basic value may leave its bounds by this much (relative to the bound).
/// Well above the round-off a table accumulates before [`RESIDUAL_TOL`] has
/// it rebuilt: the dual simplex calls a row it cannot repair infeasible, and
/// must not say so about noise.
const PRIMAL_TOL: f64 = 1e-7;
/// Phase 1 calls the model feasible when the artificials sum to at most this.
const PHASE1_TOL: f64 = 1e-6;
/// Steps and ratios closer than this are ties.
const TIE_TOL: f64 = 1e-12;
/// A warm solve whose point misses a row by more than this (relative to the
/// row's activity) is discarded and repeated cold, which rebuilds the table;
/// a cold solve misses by about 1e-13.
const RESIDUAL_TOL: f64 = 1e-9;

/// A simplex basis of an [`LpSolver`]: which columns are basic and at which
/// bound every other column rests.  Costs `O(rows + columns)` to keep.
#[derive(Debug, Clone, PartialEq)]
pub struct Basis {
    /// Basic structural and slack columns (artificials are never recorded).
    basic: Vec<u32>,
    /// For every structural and slack column: non-basic at its upper bound.
    at_upper: Vec<bool>,
}

/// How a simplex loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Primal loop: optimal.  Dual loop: primal feasible.
    Done,
    Unbounded,
    Infeasible,
}

/// The LP relaxation of one [`Model`], solvable repeatedly under different
/// variable bounds.
///
/// Branch & bound creates one solver per search, solves the root with
/// [`LpSolver::solve`] and every other node with [`LpSolver::resolve`] from
/// its parent's [`Basis`].
///
/// # Example
///
/// ```rust
/// use helix_milp::{LpSolver, Model, ObjectiveSense, Sense, VarType};
///
/// let mut m = Model::new(ObjectiveSense::Maximize);
/// let x = m.add_var("x", VarType::Integer, 0.0, 10.0, 1.0).unwrap();
/// let y = m.add_var("y", VarType::Integer, 0.0, 10.0, 1.0).unwrap();
/// m.add_constraint("c", [(x, 2.0), (y, 2.0)], Sense::Le, 5.0).unwrap();
/// let root = [(0.0, 10.0), (0.0, 10.0)];
/// let mut lp = LpSolver::new(&m, &root).unwrap();
/// let relaxed = lp.solve(&root).unwrap().optimal().unwrap();
/// assert!((relaxed.objective - 2.5).abs() < 1e-9);
/// // Branch x <= 2 - or whatever the search decides - and re-optimise.
/// let basis = lp.basis();
/// let child = lp.resolve(&[(0.0, 2.0), (0.0, 0.0)], &basis).unwrap();
/// assert!((child.optimal().unwrap().objective - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct LpSolver<'m> {
    model: &'m Model,
    /// Column of each model variable; `None` for a variable that the bounds
    /// given to [`LpSolver::new`] fix, which is substituted out.
    var_col: Vec<Option<usize>>,
    /// The bounds given to [`LpSolver::new`].
    outer: Vec<(f64, f64)>,
    /// Slack column of each row; `None` for equalities.
    slack_col: Vec<Option<usize>>,
    /// Number of structural plus slack columns; artificials follow.
    first_artificial: usize,
    /// Scale of every row and of every structural column: the table holds
    /// `row_scale[r] * a * col_scale[c]`, and a column's value and bounds are
    /// the variable's divided by `col_scale[c]`.
    row_scale: Vec<f64>,
    col_scale: Vec<f64>,
    /// Phase-2 cost of every structural and slack column, as a minimisation.
    cost: Vec<f64>,
    /// Pivots and bound flips so far, over all solves.
    iterations: u64,

    // The table; empty until the first solve.
    rows: usize,
    cols: usize,
    /// `(rows + 1) × (cols + 1)`, row-major: constraint rows then the
    /// reduced-cost row; the last column is `B⁻¹b`.
    table: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Basic column of every row.
    basis: Vec<usize>,
    is_basic: Vec<bool>,
    at_upper: Vec<bool>,
    /// Value of the basic column of every row.
    basic_value: Vec<f64>,
}

impl<'m> LpSolver<'m> {
    /// Creates a solver for `model` whose variables will stay within
    /// `bounds`: every later call must pass bounds that leave the variables
    /// fixed here (`lower == upper`) fixed at the same value.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::BoundsLength`] if `bounds` does not have one entry
    /// per model variable and [`MilpError::InvalidBounds`] if some
    /// `lower > upper` or a bound is NaN.
    pub fn new(model: &'m Model, bounds: &[(f64, f64)]) -> Result<Self, MilpError> {
        check_bounds(model, bounds)?;
        let mut columns = 0usize;
        let var_col: Vec<Option<usize>> = bounds
            .iter()
            .map(|&(l, u)| {
                (l != u).then(|| {
                    columns += 1;
                    columns - 1
                })
            })
            .collect();
        let slack_col: Vec<Option<usize>> = model
            .constraints()
            .iter()
            .map(|c| {
                (c.sense != Sense::Eq).then(|| {
                    columns += 1;
                    columns - 1
                })
            })
            .collect();
        let sign = match model.sense() {
            ObjectiveSense::Minimize => 1.0,
            ObjectiveSense::Maximize => -1.0,
        };
        let (row_scale, col_scale) = equilibrate(model, &var_col);
        let mut cost = vec![0.0; columns];
        for (v, col) in model.variables().iter().zip(&var_col) {
            if let Some(c) = *col {
                cost[c] = sign * v.objective * col_scale[c];
            }
        }
        Ok(LpSolver {
            model,
            var_col,
            outer: bounds.to_vec(),
            slack_col,
            first_artificial: columns,
            row_scale,
            col_scale,
            cost,
            iterations: 0,
            rows: 0,
            cols: 0,
            table: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            basis: Vec::new(),
            is_basic: Vec::new(),
            at_upper: Vec::new(),
            basic_value: Vec::new(),
        })
    }

    /// Solves the relaxation under `bounds` from scratch (two-phase primal
    /// simplex on a freshly built table).
    ///
    /// # Errors
    ///
    /// As for [`LpSolver::new`], and bounds that un-fix a variable fixed at
    /// construction are [`MilpError::InvalidBounds`] too.  Returns
    /// [`MilpError::IterationLimit`] if the simplex fails to converge within
    /// its safety limit (numerical trouble, not a property of the model).
    pub fn solve(&mut self, bounds: &[(f64, f64)]) -> Result<LpOutcome, MilpError> {
        self.check_inner_bounds(bounds)?;
        self.cold(bounds)
    }

    /// Solves the relaxation under `bounds` starting from `basis`, normally
    /// the optimal basis of a relaxation with looser bounds: the table of the
    /// previous solve is pivoted to `basis` and re-optimised with the dual
    /// simplex.  Any basis of this solver is a valid start; a warm solve that
    /// hits numerical trouble is repeated cold, so the result is the one
    /// [`LpSolver::solve`] would return.
    ///
    /// # Errors
    ///
    /// As for [`LpSolver::solve`].
    pub fn resolve(
        &mut self,
        bounds: &[(f64, f64)],
        basis: &Basis,
    ) -> Result<LpOutcome, MilpError> {
        self.check_inner_bounds(bounds)?;
        if !self.table.is_empty() {
            if let Ok(outcome) = self.warm(bounds, basis) {
                return Ok(outcome);
            }
        }
        self.cold(bounds)
    }

    /// The current basis (after an optimal solve: the optimal one).
    pub fn basis(&self) -> Basis {
        let fa = self.first_artificial;
        Basis {
            basic: self
                .basis
                .iter()
                .filter(|&&c| c < fa)
                .map(|&c| c as u32)
                .collect(),
            at_upper: self.at_upper.iter().take(fa).copied().collect(),
        }
    }

    /// Simplex iterations (pivots and bound flips) performed so far, summed
    /// over every solve of this solver.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    fn check_inner_bounds(&self, bounds: &[(f64, f64)]) -> Result<(), MilpError> {
        check_bounds(self.model, bounds)?;
        for ((&(l, u), col), &outer) in bounds.iter().zip(&self.var_col).zip(&self.outer) {
            if col.is_none() && (l, u) != outer {
                return Err(MilpError::InvalidBounds { lower: l, upper: u });
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Cold path
    // ------------------------------------------------------------------

    fn cold(&mut self, bounds: &[(f64, f64)]) -> Result<LpOutcome, MilpError> {
        let outcome = self.two_phase(bounds);
        if !matches!(outcome, Ok(LpOutcome::Optimal(_))) {
            // Stopped in phase 1 or mid-pivot: nothing to warm-start from.
            self.table.clear();
        }
        outcome
    }

    fn two_phase(&mut self, bounds: &[(f64, f64)]) -> Result<LpOutcome, MilpError> {
        self.build(bounds);
        let (m, fa) = (self.rows, self.first_artificial);
        if self.cols > fa {
            // Phase 1: minimise the sum of the artificials.
            self.price_out(true);
            if self.primal()? == Status::Unbounded {
                // Bounded below by zero: only a corrupted table gets here.
                return Err(MilpError::IterationLimit);
            }
            let infeasibility: f64 = (0..m)
                .filter(|&r| self.basis[r] >= fa)
                .map(|r| self.basic_value[r])
                .sum();
            if infeasibility > PHASE1_TOL {
                return Ok(LpOutcome::Infeasible);
            }
            for c in fa..self.cols {
                self.upper[c] = 0.0;
            }
            // Pivot the remaining artificials out where a column allows it; a
            // row with nothing to pivot on is redundant and keeps its
            // artificial, basic at zero and fixed there.
            for r in 0..m {
                if self.basis[r] < fa {
                    continue;
                }
                let row = &self.table[r * (self.cols + 1)..][..fa];
                let best = (0..fa)
                    .filter(|&c| !self.is_basic[c])
                    .max_by(|&a, &b| row[a].abs().total_cmp(&row[b].abs()));
                if let Some(c) = best.filter(|&c| row[c].abs() > INSTALL_PIVOT_TOL) {
                    self.pivot(r, c);
                }
            }
            self.recompute_basic_values();
        }
        self.price_out(false);
        Ok(match self.primal()? {
            Status::Done => LpOutcome::Optimal(self.extract()),
            _ => LpOutcome::Unbounded,
        })
    }

    /// Builds the starting table for `bounds`: structurals non-basic at a
    /// finite bound (or zero), slacks basic where that is feasible and
    /// artificials basic elsewhere.
    fn build(&mut self, bounds: &[(f64, f64)]) {
        let model = self.model;
        let m = model.num_constraints();
        let fa = self.first_artificial;

        self.lower.clear();
        self.lower.resize(fa, 0.0);
        self.upper.clear();
        self.upper.resize(fa, f64::INFINITY);
        self.at_upper.clear();
        self.at_upper.resize(fa, false);
        self.set_structural_bounds(bounds);
        for (constraint, slack) in model.constraints().iter().zip(&self.slack_col) {
            if let (Sense::Ge, Some(s)) = (constraint.sense, *slack) {
                self.lower[s] = f64::NEG_INFINITY;
                self.upper[s] = 0.0;
            }
        }
        self.settle_nonbasic();

        // What each row leaves for its slack at the starting point, and
        // whether the slack may take that value.
        let mut residual = Vec::with_capacity(m);
        let mut artificials = 0usize;
        for (r, (constraint, slack)) in model.constraints().iter().zip(&self.slack_col).enumerate()
        {
            let mut b = constraint.rhs;
            let mut at_start = 0.0;
            for (var, a) in constraint.expr.iter() {
                match self.var_col[var.index()] {
                    Some(c) => at_start += a * self.col_scale[c] * self.nonbasic_value(c),
                    None => b -= a * bounds[var.index()].0,
                }
            }
            let b = self.row_scale[r] * b;
            let left = b - self.row_scale[r] * at_start;
            let slack_fits = slack.is_some_and(|s| self.lower[s] <= left && left <= self.upper[s]);
            artificials += usize::from(!slack_fits);
            residual.push((b, left, slack_fits));
        }

        let n = fa + artificials;
        let stride = n + 1;
        self.rows = m;
        self.cols = n;
        self.table.clear();
        self.table.resize((m + 1) * stride, 0.0);
        self.lower.resize(n, 0.0);
        self.upper.resize(n, f64::INFINITY);
        self.at_upper.resize(n, false);
        self.is_basic.clear();
        self.is_basic.resize(n, false);
        self.basis.clear();
        self.basic_value.clear();

        let mut next_artificial = fa;
        for (r, constraint) in model.constraints().iter().enumerate() {
            let (b, left, slack_fits) = residual[r];
            // An artificial must start at |left| >= 0 with coefficient +1,
            // so a row that falls short is negated.
            let sign = if !slack_fits && left < 0.0 { -1.0 } else { 1.0 };
            let row = &mut self.table[r * stride..(r + 1) * stride];
            for (var, a) in constraint.expr.iter() {
                if let Some(c) = self.var_col[var.index()] {
                    row[c] = sign * self.row_scale[r] * a * self.col_scale[c];
                }
            }
            if let Some(s) = self.slack_col[r] {
                row[s] = sign;
            }
            row[n] = sign * b;
            let basic = match (slack_fits, self.slack_col[r]) {
                (true, Some(s)) => s,
                _ => {
                    row[next_artificial] = 1.0;
                    next_artificial += 1;
                    next_artificial - 1
                }
            };
            self.basis.push(basic);
            self.is_basic[basic] = true;
            self.basic_value.push(sign * left);
        }
    }

    // ------------------------------------------------------------------
    // Warm path
    // ------------------------------------------------------------------

    fn warm(&mut self, bounds: &[(f64, f64)], basis: &Basis) -> Result<LpOutcome, MilpError> {
        self.install(basis)?;
        self.set_structural_bounds(bounds);
        self.settle_nonbasic();
        self.recompute_basic_values();
        if self.dual()? == Status::Infeasible {
            return Ok(LpOutcome::Infeasible);
        }
        // The dual loop ends primal feasible; the primal loop finishes the
        // job if dual feasibility was lost on the way (normally zero steps).
        if self.primal()? != Status::Done {
            return Err(MilpError::IterationLimit);
        }
        let solution = self.extract();
        if self.misses_a_row(&solution.values) {
            return Err(MilpError::IterationLimit);
        }
        Ok(LpOutcome::Optimal(solution))
    }

    /// Pivots the table until every column of `basis` is basic.  Which row a
    /// column ends up in does not matter, and rows left over keep whatever
    /// was basic in them.
    fn install(&mut self, basis: &Basis) -> Result<(), MilpError> {
        let (m, fa, stride) = (self.rows, self.first_artificial, self.cols + 1);
        if basis.at_upper.len() != fa || basis.basic.iter().any(|&c| c as usize >= fa) {
            return Err(MilpError::IterationLimit);
        }
        let mut wanted = vec![false; fa];
        for &c in &basis.basic {
            wanted[c as usize] = true;
        }
        for &c in &basis.basic {
            let c = c as usize;
            if self.is_basic[c] {
                continue;
            }
            // The wanted columns are independent, so `c` has a non-zero in
            // some row whose basic column is on its way out.
            let row = (0..m)
                .filter(|&r| self.basis[r] >= fa || !wanted[self.basis[r]])
                .max_by(|&a, &b| {
                    let at = |r: usize| self.table[r * stride + c].abs();
                    at(a).total_cmp(&at(b))
                })
                .filter(|&r| self.table[r * stride + c].abs() > INSTALL_PIVOT_TOL)
                .ok_or(MilpError::IterationLimit)?;
            self.pivot(row, c);
        }
        self.at_upper[..fa].copy_from_slice(&basis.at_upper);
        Ok(())
    }

    /// True when `values` violates a constraint by more than round-off: the
    /// table has drifted and the warm result cannot be trusted.
    fn misses_a_row(&self, values: &[f64]) -> bool {
        self.model.constraints().iter().any(|c| {
            let (mut activity, mut magnitude) = (0.0, c.rhs.abs());
            for (var, a) in c.expr.iter() {
                activity += a * values[var.index()];
                magnitude += (a * values[var.index()]).abs();
            }
            let slack = RESIDUAL_TOL * (1.0 + magnitude);
            match c.sense {
                Sense::Le => activity > c.rhs + slack,
                Sense::Ge => activity < c.rhs - slack,
                Sense::Eq => (activity - c.rhs).abs() > slack,
            }
        })
    }

    // ------------------------------------------------------------------
    // Shared kernel
    // ------------------------------------------------------------------

    /// Gives the structural columns the (scaled) bounds of their variables.
    fn set_structural_bounds(&mut self, bounds: &[(f64, f64)]) {
        for (&(l, u), col) in bounds.iter().zip(&self.var_col) {
            if let Some(c) = *col {
                self.lower[c] = l / self.col_scale[c];
                self.upper[c] = u / self.col_scale[c];
            }
        }
    }

    /// Value of a non-basic column: the bound it rests at, or zero when it
    /// has none.
    fn nonbasic_value(&self, c: usize) -> f64 {
        if self.at_upper[c] {
            self.upper[c]
        } else if self.lower[c].is_finite() {
            self.lower[c]
        } else {
            0.0
        }
    }

    /// Makes every at-upper flag name a bound that exists.
    fn settle_nonbasic(&mut self) {
        for c in 0..self.at_upper.len() {
            self.at_upper[c] = if self.at_upper[c] {
                self.upper[c].is_finite()
            } else {
                !self.lower[c].is_finite() && self.upper[c].is_finite()
            };
        }
    }

    /// Recomputes the basic values from `B⁻¹b` and the non-basic columns.
    fn recompute_basic_values(&mut self) {
        let (m, n, stride) = (self.rows, self.cols, self.cols + 1);
        for r in 0..m {
            self.basic_value[r] = self.table[r * stride + n];
        }
        // Artificials are zero whenever they are non-basic.
        for c in 0..self.first_artificial {
            let value = self.nonbasic_value(c);
            if self.is_basic[c] || value == 0.0 {
                continue;
            }
            for r in 0..m {
                self.basic_value[r] -= self.table[r * stride + c] * value;
            }
        }
    }

    /// Writes the reduced costs under the current basis into the last row:
    /// of the sum of the artificials in phase 1, of the objective otherwise.
    fn price_out(&mut self, phase1: bool) {
        let (m, fa, stride) = (self.rows, self.first_artificial, self.cols + 1);
        let phase2_cost = &self.cost;
        let cost = |c: usize| match (phase1, c < fa) {
            (true, false) => 1.0,
            (false, true) => phase2_cost[c],
            _ => 0.0,
        };
        let (body, reduced) = self.table.split_at_mut(m * stride);
        for (c, d) in reduced.iter_mut().enumerate() {
            *d = if c < self.cols { cost(c) } else { 0.0 };
        }
        for (r, row) in body.chunks_exact(stride).enumerate() {
            let basic_cost = cost(self.basis[r]);
            if basic_cost != 0.0 {
                for (d, &a) in reduced.iter_mut().zip(row) {
                    *d -= basic_cost * a;
                }
            }
        }
        for &b in &self.basis {
            reduced[b] = 0.0;
        }
    }

    fn iteration_limit(&self) -> usize {
        200 * (self.rows + self.cols) + 20_000
    }

    /// Primal simplex on the reduced costs in the last row.  The basis must
    /// be primal feasible and stays so.
    fn primal(&mut self) -> Result<Status, MilpError> {
        let (m, fa, stride) = (self.rows, self.first_artificial, self.cols + 1);
        let mut stalled = 0usize;
        for _ in 0..self.iteration_limit() {
            let bland = stalled > m + self.cols;
            // Pricing.  Artificials never enter: they start basic and are
            // dead once they leave.
            let reduced = &self.table[m * stride..][..fa];
            let mut entering = None;
            let mut best = DUAL_TOL;
            for (c, &d) in reduced.iter().enumerate() {
                if self.is_basic[c] || self.lower[c] == self.upper[c] {
                    continue;
                }
                let gain = if self.at_upper[c] {
                    d
                } else if self.lower[c].is_finite() {
                    -d
                } else {
                    d.abs()
                };
                if gain > best {
                    best = gain;
                    entering = Some(c);
                    if bland {
                        break;
                    }
                }
            }
            let Some(enter) = entering else {
                return Ok(Status::Done);
            };
            let direction = if self.at_upper[enter]
                || (!self.lower[enter].is_finite() && reduced[enter] > 0.0)
            {
                -1.0
            } else {
                1.0
            };

            // Ratio test: the entering column moves by `step` until a basic
            // column reaches a bound or it reaches its own other bound.
            let mut step = self.upper[enter] - self.lower[enter];
            let mut leaving: Option<(usize, bool)> = None;
            let mut leaving_alpha = 0.0;
            for r in 0..m {
                let alpha = direction * self.table[r * stride + enter];
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                let b = self.basis[r];
                if b >= fa && self.upper[b] == 0.0 {
                    // An artificial that outlived phase 1 marks a redundant
                    // row; its entries are noise, not pivots.
                    continue;
                }
                let (room, to_upper) = if alpha > 0.0 {
                    (self.basic_value[r] - self.lower[b], false)
                } else {
                    (self.upper[b] - self.basic_value[r], true)
                };
                if room == f64::INFINITY {
                    continue;
                }
                let ratio = room.max(0.0) / alpha.abs();
                let wins = ratio < step - TIE_TOL
                    || (ratio <= step + TIE_TOL
                        && leaving.is_some_and(|(l, _)| {
                            if bland {
                                b < self.basis[l]
                            } else {
                                alpha.abs() > leaving_alpha
                            }
                        }));
                if wins {
                    step = step.min(ratio);
                    leaving = Some((r, to_upper));
                    leaving_alpha = alpha.abs();
                }
            }
            if step == f64::INFINITY {
                return Ok(Status::Unbounded);
            }
            stalled = if step <= TIE_TOL { stalled + 1 } else { 0 };
            let change = direction * step;
            let entered_at = self.nonbasic_value(enter) + change;
            if change != 0.0 {
                for r in 0..m {
                    self.basic_value[r] -= change * self.table[r * stride + enter];
                }
            }
            match leaving {
                None => {
                    self.at_upper[enter] = !self.at_upper[enter];
                    self.iterations += 1;
                }
                Some((r, to_upper)) => self.exchange(r, enter, to_upper, entered_at),
            }
        }
        Err(MilpError::IterationLimit)
    }

    /// Dual simplex: drives basic values back inside their bounds while the
    /// reduced costs keep their signs.  Ends primal feasible, or infeasible
    /// when a row cannot be repaired by any column.
    fn dual(&mut self) -> Result<Status, MilpError> {
        let (m, fa, stride) = (self.rows, self.first_artificial, self.cols + 1);
        let mut stalled = 0usize;
        for _ in 0..self.iteration_limit() {
            let bland = stalled > m + self.cols;
            // Leaving row: the worst bound violation.
            let mut leaving: Option<(usize, bool)> = None;
            let mut worst = 0.0;
            for r in 0..m {
                let (b, value) = (self.basis[r], self.basic_value[r]);
                if b >= fa {
                    continue; // redundant row, see the primal ratio test
                }
                let (violation, bound, to_upper) = if value < self.lower[b] {
                    (self.lower[b] - value, self.lower[b], false)
                } else if value > self.upper[b] {
                    (value - self.upper[b], self.upper[b], true)
                } else {
                    continue;
                };
                if violation <= PRIMAL_TOL * (1.0 + bound.abs()) {
                    continue;
                }
                let wins = match leaving {
                    None => true,
                    Some((l, _)) if bland => b < self.basis[l],
                    Some(_) => violation > worst,
                };
                if wins {
                    worst = violation;
                    leaving = Some((r, to_upper));
                }
            }
            let Some((row, to_upper)) = leaving else {
                return Ok(Status::Done);
            };

            // Ratio test over the row: among the columns that can move the
            // basic value towards its bound, the one whose reduced cost
            // reaches zero first.
            let push = if to_upper { 1.0 } else { -1.0 };
            let alphas = &self.table[row * stride..][..fa];
            let reduced = &self.table[m * stride..][..fa];
            let mut entering = None;
            let mut best_ratio = f64::INFINITY;
            let mut best_alpha = 0.0;
            for (c, &alpha) in alphas.iter().enumerate() {
                if alpha.abs() <= PIVOT_TOL || self.is_basic[c] || self.lower[c] == self.upper[c] {
                    continue;
                }
                // A column at its lower bound can only rise, one at its
                // upper bound only fall, one without bounds both.
                let helps = if self.at_upper[c] {
                    push * alpha < 0.0
                } else {
                    push * alpha > 0.0 || !self.lower[c].is_finite()
                };
                if !helps {
                    continue;
                }
                let ratio = reduced[c].abs() / alpha.abs();
                let wins = ratio < best_ratio - TIE_TOL
                    || (ratio <= best_ratio + TIE_TOL && !bland && alpha.abs() > best_alpha);
                if wins {
                    best_ratio = best_ratio.min(ratio);
                    best_alpha = alpha.abs();
                    entering = Some(c);
                }
            }
            let Some(enter) = entering else {
                return Ok(Status::Infeasible);
            };
            stalled = if best_ratio <= TIE_TOL {
                stalled + 1
            } else {
                0
            };

            let b = self.basis[row];
            let bound = if to_upper {
                self.upper[b]
            } else {
                self.lower[b]
            };
            let change = (self.basic_value[row] - bound) / alphas[enter];
            let entered_at = self.nonbasic_value(enter) + change;
            for r in 0..m {
                self.basic_value[r] -= change * self.table[r * stride + enter];
            }
            self.exchange(row, enter, to_upper, entered_at);
        }
        Err(MilpError::IterationLimit)
    }

    /// Makes `enter` basic in `row` at value `entered_at`; the column that
    /// was basic there leaves to its upper or lower bound.
    fn exchange(&mut self, row: usize, enter: usize, to_upper: bool, entered_at: f64) {
        let left = self.basis[row];
        self.pivot(row, enter);
        self.at_upper[left] = to_upper;
        self.at_upper[enter] = false;
        self.basic_value[row] = entered_at;
    }

    /// Gauss-Jordan pivot on `(row, col)` over the whole table, reduced costs
    /// and `B⁻¹b` included; counts as one iteration.
    fn pivot(&mut self, row: usize, col: usize) {
        let stride = self.cols + 1;
        let (above, rest) = self.table.split_at_mut(row * stride);
        let (pivot_row, below) = rest.split_at_mut(stride);
        let inverse = 1.0 / pivot_row[col];
        for x in pivot_row.iter_mut() {
            *x *= inverse;
        }
        pivot_row[col] = 1.0;
        for other in above
            .chunks_exact_mut(stride)
            .chain(below.chunks_exact_mut(stride))
        {
            let factor = other[col];
            if factor.abs() > 1e-13 {
                for (x, &p) in other.iter_mut().zip(pivot_row.iter()) {
                    *x -= factor * p;
                }
            }
            other[col] = 0.0;
        }
        self.is_basic[self.basis[row]] = false;
        self.is_basic[col] = true;
        self.basis[row] = col;
        self.iterations += 1;
    }

    /// The current vertex as a solution of the model.
    fn extract(&self) -> LpSolution {
        let mut column_value = vec![0.0; self.first_artificial];
        for (c, value) in column_value.iter_mut().enumerate() {
            if !self.is_basic[c] {
                *value = self.nonbasic_value(c);
            }
        }
        for (&b, &value) in self.basis.iter().zip(&self.basic_value) {
            if b < self.first_artificial {
                // Round-off may leave a basic value a hair outside its box.
                column_value[b] = value.max(self.lower[b]).min(self.upper[b]);
            }
        }
        let values: Vec<f64> = self
            .var_col
            .iter()
            .zip(&self.outer)
            .map(|(col, &(fixed, _))| col.map_or(fixed, |c| column_value[c] * self.col_scale[c]))
            .collect();
        LpSolution {
            objective: self.model.objective_value(&values),
            values,
        }
    }
}

/// Row and column scales that pull the coefficients of `model` towards one:
/// a few sweeps of geometric-mean scaling, rounded to powers of two so that
/// scaling itself rounds nothing.  Columns are the structural ones of
/// `var_col`.
fn equilibrate(model: &Model, var_col: &[Option<usize>]) -> (Vec<f64>, Vec<f64>) {
    let entries: Vec<(usize, usize, f64)> = model
        .constraints()
        .iter()
        .enumerate()
        .flat_map(|(r, c)| c.expr.iter().map(move |(var, a)| (r, var.index(), a.abs())))
        .filter(|&(_, _, a)| a > 0.0)
        .filter_map(|(r, var, a)| var_col[var].map(|c| (r, c, a)))
        .collect();
    let columns = var_col.iter().flatten().count();
    let mut row_scale = vec![1.0; model.num_constraints()];
    let mut col_scale = vec![1.0; columns];
    // One sweep: each line of the matrix gets 1 / sqrt(smallest * largest) of
    // its entries as scaled by the other side.
    let sweep = |own: &mut [f64], other: &[f64], by_row: bool| {
        let mut range = vec![(f64::INFINITY, 0.0f64); own.len()];
        for &(r, c, a) in &entries {
            let (line, across) = if by_row { (r, c) } else { (c, r) };
            let scaled = a * other[across];
            range[line] = (range[line].0.min(scaled), range[line].1.max(scaled));
        }
        for (scale, (smallest, largest)) in own.iter_mut().zip(range) {
            // An empty line has no range; one spanning 1e±300 overflows.
            if (smallest * largest).is_normal() {
                *scale = 1.0 / (smallest * largest).sqrt();
            }
        }
    };
    for _ in 0..3 {
        sweep(&mut row_scale, &col_scale, true);
        sweep(&mut col_scale, &row_scale, false);
    }
    for scale in row_scale.iter_mut().chain(col_scale.iter_mut()) {
        *scale = scale.log2().round().exp2();
    }
    (row_scale, col_scale)
}

/// One entry per variable, no NaN, no crossed pair.
fn check_bounds(model: &Model, bounds: &[(f64, f64)]) -> Result<(), MilpError> {
    if bounds.len() != model.num_vars() {
        return Err(MilpError::BoundsLength {
            expected: model.num_vars(),
            found: bounds.len(),
        });
    }
    match bounds
        .iter()
        .find(|(l, u)| l.is_nan() || u.is_nan() || l > u)
    {
        Some(&(lower, upper)) => Err(MilpError::InvalidBounds { lower, upper }),
        None => Ok(()),
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, ObjectiveSense, Sense, VarType};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic, opt 36 at x=2,y=6)
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m
            .add_var("x", VarType::Continuous, 0.0, f64::INFINITY, 3.0)
            .unwrap();
        let y = m
            .add_var("y", VarType::Continuous, 0.0, f64::INFINITY, 5.0)
            .unwrap();
        m.add_constraint("c1", [(x, 1.0)], Sense::Le, 4.0).unwrap();
        m.add_constraint("c2", [(y, 2.0)], Sense::Le, 12.0).unwrap();
        m.add_constraint("c3", [(x, 3.0), (y, 2.0)], Sense::Le, 18.0)
            .unwrap();
        let sol = solve_lp(&m).unwrap().optimal().unwrap();
        assert_close(sol.objective, 36.0);
        assert_close(sol.values[x.index()], 2.0);
        assert_close(sol.values[y.index()], 6.0);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3  (opt: x=7,y=3 -> 23)
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m
            .add_var("x", VarType::Continuous, 0.0, f64::INFINITY, 2.0)
            .unwrap();
        let y = m
            .add_var("y", VarType::Continuous, 0.0, f64::INFINITY, 3.0)
            .unwrap();
        m.add_constraint("sum", [(x, 1.0), (y, 1.0)], Sense::Ge, 10.0)
            .unwrap();
        m.add_constraint("xmin", [(x, 1.0)], Sense::Ge, 2.0)
            .unwrap();
        m.add_constraint("ymin", [(y, 1.0)], Sense::Ge, 3.0)
            .unwrap();
        let sol = solve_lp(&m).unwrap().optimal().unwrap();
        assert_close(sol.objective, 23.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 5, x - y = 1  (x=3, y=2)
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m
            .add_var("x", VarType::Continuous, 0.0, f64::INFINITY, 1.0)
            .unwrap();
        let y = m
            .add_var("y", VarType::Continuous, 0.0, f64::INFINITY, 1.0)
            .unwrap();
        m.add_constraint("sum", [(x, 1.0), (y, 1.0)], Sense::Eq, 5.0)
            .unwrap();
        m.add_constraint("diff", [(x, 1.0), (y, -1.0)], Sense::Eq, 1.0)
            .unwrap();
        let sol = solve_lp(&m).unwrap().optimal().unwrap();
        assert_close(sol.objective, 5.0);
        assert_close(sol.values[x.index()], 3.0);
        assert_close(sol.values[y.index()], 2.0);
    }

    #[test]
    fn variable_upper_bounds_are_respected() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 2.5, 1.0).unwrap();
        let y = m.add_var("y", VarType::Continuous, 1.0, 3.0, 1.0).unwrap();
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Le, 100.0)
            .unwrap();
        let sol = solve_lp(&m).unwrap().optimal().unwrap();
        assert_close(sol.objective, 5.5);
        assert_close(sol.values[x.index()], 2.5);
        assert_close(sol.values[y.index()], 3.0);
    }

    #[test]
    fn nonzero_lower_bounds_shift_correctly() {
        // min x + y with x >= 2, y >= 3, x + y >= 7
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m
            .add_var("x", VarType::Continuous, 2.0, f64::INFINITY, 1.0)
            .unwrap();
        let y = m
            .add_var("y", VarType::Continuous, 3.0, f64::INFINITY, 1.0)
            .unwrap();
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Ge, 7.0)
            .unwrap();
        let sol = solve_lp(&m).unwrap().optimal().unwrap();
        assert_close(sol.objective, 7.0);
    }

    #[test]
    fn free_variables_are_split() {
        // min x s.t. x >= -5 is unbounded below without the constraint;
        // with x free and x >= -5 via constraint: optimum -5.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m
            .add_var(
                "x",
                VarType::Continuous,
                f64::NEG_INFINITY,
                f64::INFINITY,
                1.0,
            )
            .unwrap();
        m.add_constraint("lb", [(x, 1.0)], Sense::Ge, -5.0).unwrap();
        let sol = solve_lp(&m).unwrap().optimal().unwrap();
        assert_close(sol.objective, -5.0);
        assert_close(sol.values[x.index()], -5.0);
    }

    #[test]
    fn mirrored_variable_only_upper_bound() {
        // max x with x <= 9 and no lower bound, but constrained x >= 0 via row.
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m
            .add_var("x", VarType::Continuous, f64::NEG_INFINITY, 9.0, 1.0)
            .unwrap();
        m.add_constraint("nonneg", [(x, 1.0)], Sense::Ge, 0.0)
            .unwrap();
        let sol = solve_lp(&m).unwrap().optimal().unwrap();
        assert_close(sol.objective, 9.0);
    }

    #[test]
    fn fixed_variables_are_substituted() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 4.0, 4.0, 2.0).unwrap();
        let y = m.add_var("y", VarType::Continuous, 0.0, 10.0, 1.0).unwrap();
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Le, 9.0)
            .unwrap();
        let sol = solve_lp(&m).unwrap().optimal().unwrap();
        assert_close(sol.values[x.index()], 4.0);
        assert_close(sol.values[y.index()], 5.0);
        assert_close(sol.objective, 13.0);
    }

    #[test]
    fn infeasible_model_detected() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 10.0, 1.0).unwrap();
        m.add_constraint("a", [(x, 1.0)], Sense::Ge, 5.0).unwrap();
        m.add_constraint("b", [(x, 1.0)], Sense::Le, 3.0).unwrap();
        assert_eq!(solve_lp(&m).unwrap(), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_model_detected() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m
            .add_var("x", VarType::Continuous, 0.0, f64::INFINITY, 1.0)
            .unwrap();
        let y = m
            .add_var("y", VarType::Continuous, 0.0, f64::INFINITY, 0.0)
            .unwrap();
        m.add_constraint("c", [(x, 1.0), (y, -1.0)], Sense::Le, 1.0)
            .unwrap();
        assert_eq!(solve_lp(&m).unwrap(), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_normalised() {
        // x - y <= -2  (i.e. y >= x + 2), maximise x with x,y <= 5.
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 5.0, 1.0).unwrap();
        let y = m.add_var("y", VarType::Continuous, 0.0, 5.0, 0.0).unwrap();
        m.add_constraint("c", [(x, 1.0), (y, -1.0)], Sense::Le, -2.0)
            .unwrap();
        let sol = solve_lp(&m).unwrap().optimal().unwrap();
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn bound_overrides_take_effect() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 10.0, 1.0).unwrap();
        let sol = solve_lp_with_bounds(&m, &[(0.0, 4.0)])
            .unwrap()
            .optimal()
            .unwrap();
        assert_close(sol.values[x.index()], 4.0);
        // Crossed, NaN and wrong-length overrides are each named as such.
        assert_eq!(
            solve_lp_with_bounds(&m, &[(5.0, 4.0)]).unwrap_err(),
            MilpError::InvalidBounds {
                lower: 5.0,
                upper: 4.0
            }
        );
        assert!(matches!(
            solve_lp_with_bounds(&m, &[(f64::NAN, 4.0)]).unwrap_err(),
            MilpError::InvalidBounds { .. }
        ));
        assert_eq!(
            solve_lp_with_bounds(&m, &[]).unwrap_err(),
            MilpError::BoundsLength {
                expected: 1,
                found: 0
            }
        );
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Many redundant constraints through the same vertex.
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m
            .add_var("x", VarType::Continuous, 0.0, f64::INFINITY, 1.0)
            .unwrap();
        let y = m
            .add_var("y", VarType::Continuous, 0.0, f64::INFINITY, 1.0)
            .unwrap();
        for i in 0..10 {
            m.add_constraint(
                format!("c{i}"),
                [(x, 1.0), (y, 1.0 + i as f64 * 1e-9)],
                Sense::Le,
                4.0,
            )
            .unwrap();
        }
        let sol = solve_lp(&m).unwrap().optimal().unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-5);
    }

    #[test]
    fn larger_random_like_problem_matches_known_optimum() {
        // Transportation-style LP with known optimum: ship 20 units from two
        // sources (capacities 15, 10) to two sinks (demands 12, 8), costs
        // c11=1, c12=4, c21=2, c22=1 -> optimal cost 12*1 + 0*4 + 0*2 + 8*1 = 20.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x11 = m
            .add_var("x11", VarType::Continuous, 0.0, f64::INFINITY, 1.0)
            .unwrap();
        let x12 = m
            .add_var("x12", VarType::Continuous, 0.0, f64::INFINITY, 4.0)
            .unwrap();
        let x21 = m
            .add_var("x21", VarType::Continuous, 0.0, f64::INFINITY, 2.0)
            .unwrap();
        let x22 = m
            .add_var("x22", VarType::Continuous, 0.0, f64::INFINITY, 1.0)
            .unwrap();
        m.add_constraint("s1", [(x11, 1.0), (x12, 1.0)], Sense::Le, 15.0)
            .unwrap();
        m.add_constraint("s2", [(x21, 1.0), (x22, 1.0)], Sense::Le, 10.0)
            .unwrap();
        m.add_constraint("d1", [(x11, 1.0), (x21, 1.0)], Sense::Eq, 12.0)
            .unwrap();
        m.add_constraint("d2", [(x12, 1.0), (x22, 1.0)], Sense::Eq, 8.0)
            .unwrap();
        let sol = solve_lp(&m).unwrap().optimal().unwrap();
        assert_close(sol.objective, 20.0);
    }
}
