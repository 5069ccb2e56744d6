//! The dense two-phase primal simplex this crate shipped before the
//! bounded-variable kernel, kept verbatim as a test oracle: it shares no code
//! with `helix_milp::LpSolver` (finite upper bounds become rows, every row
//! reserves an artificial column, reduced costs are recomputed from the cost
//! vector at every iteration), so agreement between the two is evidence and
//! not a tautology.  Far too slow for anything but small models.

use helix_milp::{LpOutcome, LpSolution, MilpError, Model, ObjectiveSense, Sense, INT_EPS};

/// Solves the LP relaxation of `model` under `bounds` with the retired
/// tableau.
pub fn solve(model: &Model, bounds: &[(f64, f64)]) -> Result<LpOutcome, MilpError> {
    Tableau::build(model, bounds)?.solve(model.sense())
}

/// Description of how an original variable maps onto tableau columns.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// Variable is fixed at the given value (lower == upper).
    Fixed(f64),
    /// `x = shift + y` where `y` is the column at the given index.
    Shifted { col: usize, shift: f64 },
    /// `x = shift - y` (used when only the upper bound is finite).
    Mirrored { col: usize, shift: f64 },
    /// `x = y_pos - y_neg` (free variable).
    Split { pos: usize, neg: usize },
}

struct Tableau {
    /// rows x (cols + 1); the last entry of each row is the RHS.
    rows: Vec<Vec<f64>>,
    /// Objective coefficients (phase 2) per column, as a minimisation.
    cost: Vec<f64>,
    /// Constant offset of the phase-2 objective (from bound shifts).
    cost_offset: f64,
    /// Column index of the first artificial variable.
    first_artificial: usize,
    /// Basis: for each row, the column currently basic in it.
    basis: Vec<usize>,
    /// Mapping from original variables to columns.
    var_map: Vec<VarMap>,
    n_cols: usize,
}

const EPS: f64 = 1e-9;

impl Tableau {
    fn build(model: &Model, bounds: &[(f64, f64)]) -> Result<Self, MilpError> {
        let n_vars = model.num_vars();
        let mut var_map = Vec::with_capacity(n_vars);
        let mut n_structural = 0usize;
        // Upper-bound rows to add: (column, bound value).
        let mut ub_rows: Vec<(usize, f64)> = Vec::new();

        for (i, v) in model.variables().iter().enumerate() {
            let (l, u) = bounds[i];
            let vm = if (u - l).abs() < 1e-12 {
                VarMap::Fixed(l)
            } else if l.is_finite() {
                let col = n_structural;
                n_structural += 1;
                if u.is_finite() {
                    ub_rows.push((col, u - l));
                }
                VarMap::Shifted { col, shift: l }
            } else if u.is_finite() {
                let col = n_structural;
                n_structural += 1;
                VarMap::Mirrored { col, shift: u }
            } else {
                let pos = n_structural;
                let neg = n_structural + 1;
                n_structural += 2;
                VarMap::Split { pos, neg }
            };
            let _ = v;
            var_map.push(vm);
        }

        // Assemble raw rows in terms of structural columns.
        struct RawRow {
            coeffs: Vec<(usize, f64)>,
            sense: Sense,
            rhs: f64,
        }
        let mut raw_rows: Vec<RawRow> = Vec::new();

        for c in model.constraints() {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            let mut rhs = c.rhs;
            for (var, a) in c.expr.iter() {
                match var_map[var.index()] {
                    VarMap::Fixed(val) => rhs -= a * val,
                    VarMap::Shifted { col, shift } => {
                        rhs -= a * shift;
                        coeffs.push((col, a));
                    }
                    VarMap::Mirrored { col, shift } => {
                        rhs -= a * shift;
                        coeffs.push((col, -a));
                    }
                    VarMap::Split { pos, neg } => {
                        coeffs.push((pos, a));
                        coeffs.push((neg, -a));
                    }
                }
            }
            raw_rows.push(RawRow {
                coeffs,
                sense: c.sense,
                rhs,
            });
        }
        for (col, bound) in ub_rows {
            raw_rows.push(RawRow {
                coeffs: vec![(col, 1.0)],
                sense: Sense::Le,
                rhs: bound,
            });
        }

        let m = raw_rows.len();
        // Count slack/surplus columns.
        let n_slack = raw_rows.iter().filter(|r| r.sense != Sense::Eq).count();
        let n_cols_no_art = n_structural + n_slack;
        // Worst case every row needs an artificial.
        let n_cols = n_cols_no_art + m;

        let mut rows = vec![vec![0.0; n_cols + 1]; m];
        let mut basis = vec![usize::MAX; m];
        let mut slack_cursor = n_structural;
        let mut art_cursor = n_cols_no_art;
        let first_artificial = n_cols_no_art;

        for (r, raw) in raw_rows.iter().enumerate() {
            let flip = raw.rhs < 0.0;
            let sign = if flip { -1.0 } else { 1.0 };
            for &(col, a) in &raw.coeffs {
                rows[r][col] += sign * a;
            }
            rows[r][n_cols] = sign * raw.rhs;
            let effective_sense = if flip {
                match raw.sense {
                    Sense::Le => Sense::Ge,
                    Sense::Ge => Sense::Le,
                    Sense::Eq => Sense::Eq,
                }
            } else {
                raw.sense
            };
            match effective_sense {
                Sense::Le => {
                    rows[r][slack_cursor] = 1.0;
                    basis[r] = slack_cursor;
                    slack_cursor += 1;
                }
                Sense::Ge => {
                    rows[r][slack_cursor] = -1.0;
                    slack_cursor += 1;
                    rows[r][art_cursor] = 1.0;
                    basis[r] = art_cursor;
                    art_cursor += 1;
                }
                Sense::Eq => {
                    rows[r][art_cursor] = 1.0;
                    basis[r] = art_cursor;
                    art_cursor += 1;
                }
            }
        }

        // Phase-2 cost vector (always as a minimisation).
        let max_sign = match model.sense() {
            ObjectiveSense::Minimize => 1.0,
            ObjectiveSense::Maximize => -1.0,
        };
        let mut cost = vec![0.0; n_cols];
        let mut cost_offset = 0.0;
        for (i, v) in model.variables().iter().enumerate() {
            let c = v.objective * max_sign;
            match var_map[i] {
                VarMap::Fixed(val) => cost_offset += c * val,
                VarMap::Shifted { col, shift } => {
                    cost[col] += c;
                    cost_offset += c * shift;
                }
                VarMap::Mirrored { col, shift } => {
                    cost[col] -= c;
                    cost_offset += c * shift;
                }
                VarMap::Split { pos, neg } => {
                    cost[pos] += c;
                    cost[neg] -= c;
                }
            }
        }

        Ok(Tableau {
            rows,
            cost,
            cost_offset,
            first_artificial,
            basis,
            var_map,
            n_cols,
        })
    }

    /// Runs phase 1 and phase 2; maps the solution back to model variables.
    fn solve(mut self, sense: ObjectiveSense) -> Result<LpOutcome, MilpError> {
        let m = self.rows.len();
        // Phase 1: minimise the sum of artificial variables.
        let has_artificials = self.basis.iter().any(|&b| b >= self.first_artificial);
        if has_artificials {
            let mut phase1_cost = vec![0.0; self.n_cols];
            for cost in phase1_cost.iter_mut().skip(self.first_artificial) {
                *cost = 1.0;
            }
            let status = self.optimize(&phase1_cost, true)?;
            if status == PivotStatus::Unbounded {
                // Phase-1 objective is bounded below by zero; this cannot
                // happen unless the tableau is corrupted.
                return Err(MilpError::IterationLimit);
            }
            let phase1_value = self.objective_value(&phase1_cost);
            if phase1_value > 1e-6 {
                return Ok(LpOutcome::Infeasible);
            }
            // Pivot remaining artificials out of the basis where possible.
            for r in 0..m {
                if self.basis[r] >= self.first_artificial {
                    if let Some(col) =
                        (0..self.first_artificial).find(|&c| self.rows[r][c].abs() > 1e-7)
                    {
                        self.pivot(r, col);
                    }
                    // If the row is all zeros over structural columns it is
                    // redundant; the artificial stays basic at value 0, which
                    // is harmless as long as it never re-enters (phase 2 never
                    // prices artificial columns back in because we forbid it).
                }
            }
        }

        // Phase 2.
        let cost = self.cost.clone();
        let status = self.optimize(&cost, false)?;
        if status == PivotStatus::Unbounded {
            return Ok(LpOutcome::Unbounded);
        }

        // Extract column values.
        let mut col_values = vec![0.0; self.n_cols];
        for r in 0..m {
            let b = self.basis[r];
            if b < self.n_cols {
                col_values[b] = self.rows[r][self.n_cols];
            }
        }
        let mut values = vec![0.0; self.var_map.len()];
        for (i, vm) in self.var_map.iter().enumerate() {
            values[i] = match *vm {
                VarMap::Fixed(v) => v,
                VarMap::Shifted { col, shift } => shift + col_values[col],
                VarMap::Mirrored { col, shift } => shift - col_values[col],
                VarMap::Split { pos, neg } => col_values[pos] - col_values[neg],
            };
            if values[i].abs() < INT_EPS {
                values[i] = 0.0;
            }
        }
        let min_objective = self.objective_value(&cost) + self.cost_offset;
        let objective = match sense {
            ObjectiveSense::Minimize => min_objective,
            ObjectiveSense::Maximize => -min_objective,
        };
        Ok(LpOutcome::Optimal(LpSolution { objective, values }))
    }

    /// Current objective value for a given cost vector (over basic columns).
    fn objective_value(&self, cost: &[f64]) -> f64 {
        self.basis
            .iter()
            .enumerate()
            .map(|(r, &b)| {
                if b < self.n_cols {
                    cost[b] * self.rows[r][self.n_cols]
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Primal simplex iterations for the given cost vector.
    ///
    /// During phase 2 (`allow_artificials == false`) artificial columns are
    /// never chosen as entering variables.
    fn optimize(
        &mut self,
        cost: &[f64],
        allow_artificials: bool,
    ) -> Result<PivotStatus, MilpError> {
        let m = self.rows.len();
        let max_iters = 200 * (m + self.n_cols) + 20_000;
        let col_limit = if allow_artificials {
            self.n_cols
        } else {
            self.first_artificial
        };

        for iter in 0..max_iters {
            // Reduced costs: r_j = c_j - c_B' B^-1 A_j.  With the tableau kept
            // in canonical form, B^-1 A_j is just the current column j, and
            // c_B' B^-1 A_j = sum over rows of c_basis[row] * rows[row][j].
            let mut entering: Option<usize> = None;
            let mut best = -1e-9;
            let use_bland = iter > max_iters / 2;
            for j in 0..col_limit {
                if self.basis.contains(&j) {
                    continue;
                }
                let mut zj = 0.0;
                for r in 0..m {
                    let b = self.basis[r];
                    if b < self.n_cols && cost[b] != 0.0 {
                        zj += cost[b] * self.rows[r][j];
                    }
                }
                let reduced = cost[j] - zj;
                if use_bland {
                    if reduced < -1e-9 {
                        entering = Some(j);
                        break;
                    }
                } else if reduced < best - 1e-12 {
                    best = reduced;
                    entering = Some(j);
                }
            }
            let Some(enter) = entering else {
                return Ok(PivotStatus::Optimal);
            };
            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..m {
                let a = self.rows[r][enter];
                if a > EPS {
                    let ratio = self.rows[r][self.n_cols] / a;
                    if ratio < best_ratio - 1e-12
                        || (ratio < best_ratio + 1e-12
                            && leave.is_none_or(|lr| self.basis[r] < self.basis[lr]))
                    {
                        best_ratio = ratio;
                        leave = Some(r);
                    }
                }
            }
            let Some(leave_row) = leave else {
                return Ok(PivotStatus::Unbounded);
            };
            self.pivot(leave_row, enter);
        }
        Err(MilpError::IterationLimit)
    }

    /// Gauss-Jordan pivot on (row, col).
    fn pivot(&mut self, row: usize, col: usize) {
        let m = self.rows.len();
        let pivot_val = self.rows[row][col];
        debug_assert!(pivot_val.abs() > 1e-12, "pivot on a zero element");
        let inv = 1.0 / pivot_val;
        for x in self.rows[row].iter_mut() {
            *x *= inv;
        }
        for r in 0..m {
            if r == row {
                continue;
            }
            let factor = self.rows[r][col];
            if factor.abs() < 1e-13 {
                continue;
            }
            for j in 0..=self.n_cols {
                self.rows[r][j] -= factor * self.rows[row][j];
            }
            self.rows[r][col] = 0.0;
        }
        self.basis[row] = col;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PivotStatus {
    Optimal,
    Unbounded,
}
