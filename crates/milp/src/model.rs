//! LP/MILP model builder.

use crate::error::MilpError;
use crate::expr::{LinExpr, VarId};

/// Whether the objective is minimised or maximised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectiveSense {
    /// Minimise the objective expression.
    Minimize,
    /// Maximise the objective expression.
    Maximize,
}

/// Domain of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarType {
    /// A real-valued variable.
    Continuous,
    /// An integer variable.
    Integer,
    /// A binary variable; bounds are clamped to `[0, 1]`.
    Binary,
}

impl VarType {
    /// Whether values of this variable must be integral.
    pub fn is_integral(self) -> bool {
        matches!(self, VarType::Integer | VarType::Binary)
    }
}

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// `expr <= rhs`
    Le,
    /// `expr == rhs`
    Eq,
    /// `expr >= rhs`
    Ge,
}

/// A decision variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    /// Human-readable name (used in debugging output).
    pub name: String,
    /// Domain of the variable.
    pub var_type: VarType,
    /// Lower bound (may be `-inf`).
    pub lower: f64,
    /// Upper bound (may be `+inf`).
    pub upper: f64,
    /// Objective coefficient.
    pub objective: f64,
}

/// A linear constraint `expr (<=|==|>=) rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Human-readable name.
    pub name: String,
    /// Left-hand-side expression (its constant is folded into `rhs`).
    pub expr: LinExpr,
    /// Direction of the constraint.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// An LP/MILP model: variables, linear constraints and a linear objective.
///
/// See the [crate-level documentation](crate) for a complete solve example.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    sense: ObjectiveSense,
    variables: Vec<Variable>,
    constraints: Vec<Constraint>,
}

impl Model {
    /// Creates an empty model with the given objective sense.
    pub fn new(sense: ObjectiveSense) -> Self {
        Model {
            sense,
            variables: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// The objective sense chosen at construction.
    pub fn sense(&self) -> ObjectiveSense {
        self.sense
    }

    /// Adds a variable and returns its id.
    ///
    /// Binary variables have their bounds clamped to `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::InvalidBounds`] if `lower > upper` or a bound is
    /// NaN, and [`MilpError::NotANumber`] if the objective coefficient is NaN.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        var_type: VarType,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> Result<VarId, MilpError> {
        let (mut lower, mut upper) = (lower, upper);
        if var_type == VarType::Binary {
            lower = lower.max(0.0);
            upper = upper.min(1.0);
        }
        if lower.is_nan() || upper.is_nan() || lower > upper {
            return Err(MilpError::InvalidBounds { lower, upper });
        }
        if objective.is_nan() {
            return Err(MilpError::NotANumber);
        }
        let id = VarId(self.variables.len());
        self.variables.push(Variable {
            name: name.into(),
            var_type,
            lower,
            upper,
            objective,
        });
        Ok(id)
    }

    /// Adds a binary variable with the given objective coefficient.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::NotANumber`] if the objective coefficient is NaN.
    pub fn add_binary(
        &mut self,
        name: impl Into<String>,
        objective: f64,
    ) -> Result<VarId, MilpError> {
        self.add_var(name, VarType::Binary, 0.0, 1.0, objective)
    }

    /// Adds a linear constraint built from `(variable, coefficient)` terms
    /// and returns its index.
    ///
    /// # Errors
    ///
    /// As [`Model::add_constraint_expr`].
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        sense: Sense,
        rhs: f64,
    ) -> Result<usize, MilpError> {
        let expr: LinExpr = terms.into_iter().collect();
        self.add_constraint_expr(name, expr, sense, rhs)
    }

    /// Adds a linear constraint from a pre-built expression and returns its
    /// index.  The expression's constant is moved to the right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::InvalidVariable`] if the expression references an
    /// unknown variable and [`MilpError::NotANumber`] on NaN coefficients.
    pub fn add_constraint_expr(
        &mut self,
        name: impl Into<String>,
        expr: LinExpr,
        sense: Sense,
        rhs: f64,
    ) -> Result<usize, MilpError> {
        if expr.has_nan() || rhs.is_nan() {
            return Err(MilpError::NotANumber);
        }
        for (v, _) in expr.iter() {
            if v.0 >= self.variables.len() {
                return Err(MilpError::InvalidVariable {
                    index: v.0,
                    len: self.variables.len(),
                });
            }
        }
        let adjusted_rhs = rhs - expr.constant();
        let mut stripped = expr;
        stripped.add_constant(-stripped.constant());
        let idx = self.constraints.len();
        self.constraints.push(Constraint {
            name: name.into(),
            expr: stripped,
            sense,
            rhs: adjusted_rhs,
        });
        Ok(idx)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The variables, indexed by [`VarId::index`].
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// The constraints in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective value of an assignment (indexed by [`VarId::index`]).
    pub fn objective_value(&self, assignment: &[f64]) -> f64 {
        self.variables
            .iter()
            .enumerate()
            .map(|(i, v)| v.objective * assignment.get(i).copied().unwrap_or(0.0))
            .sum()
    }

    /// Checks whether an assignment satisfies all bounds, constraints and
    /// integrality requirements within `tol`.
    pub fn is_feasible(&self, assignment: &[f64], tol: f64) -> bool {
        if assignment.len() < self.variables.len() {
            return false;
        }
        for (i, v) in self.variables.iter().enumerate() {
            let x = assignment[i];
            if x < v.lower - tol || x > v.upper + tol {
                return false;
            }
            if v.var_type.is_integral() && (x - x.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs = c.expr.evaluate(assignment);
            let ok = match c.sense {
                Sense::Le => lhs <= c.rhs + tol,
                Sense::Eq => (lhs - c.rhs).abs() <= tol,
                Sense::Ge => lhs >= c.rhs - tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_model() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 10.0, 1.0).unwrap();
        let y = m.add_binary("y", 5.0).unwrap();
        m.add_constraint("c0", [(x, 1.0), (y, 2.0)], Sense::Le, 8.0)
            .unwrap();
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constraints(), 1);
        assert_eq!(m.variables()[x.index()].name, "x");
        assert_eq!(m.variables()[y.index()].upper, 1.0);
        assert_eq!(m.sense(), ObjectiveSense::Maximize);
    }

    #[test]
    fn invalid_bounds_rejected() {
        let mut m = Model::new(ObjectiveSense::Minimize);
        assert!(m
            .add_var("bad", VarType::Continuous, 3.0, 1.0, 0.0)
            .is_err());
        assert!(m
            .add_var("nan", VarType::Continuous, f64::NAN, 1.0, 0.0)
            .is_err());
        assert_eq!(m.add_binary("b", f64::NAN), Err(MilpError::NotANumber));
        assert_eq!(m.num_vars(), 0, "a rejected variable is not added");
    }

    #[test]
    fn constraint_constant_folds_into_rhs() {
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 10.0, 1.0).unwrap();
        let expr = LinExpr::term(x, 2.0) + 3.0;
        m.add_constraint_expr("c", expr, Sense::Le, 10.0).unwrap();
        let c = &m.constraints()[0];
        assert_eq!(c.rhs, 7.0);
        assert_eq!(c.expr.constant(), 0.0);
    }

    #[test]
    fn unknown_variable_in_constraint_rejected() {
        let mut m = Model::new(ObjectiveSense::Minimize);
        let _x = m.add_var("x", VarType::Continuous, 0.0, 1.0, 0.0).unwrap();
        let bogus = LinExpr::term(VarId(5), 1.0);
        assert!(m.add_constraint_expr("c", bogus, Sense::Le, 1.0).is_err());
    }

    #[test]
    fn feasibility_check() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_var("x", VarType::Integer, 0.0, 5.0, 1.0).unwrap();
        let y = m.add_var("y", VarType::Continuous, 0.0, 5.0, 1.0).unwrap();
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Le, 6.0)
            .unwrap();
        assert!(m.is_feasible(&[3.0, 2.5], 1e-9));
        assert!(!m.is_feasible(&[3.5, 1.0], 1e-9)); // x not integral
        assert!(!m.is_feasible(&[5.0, 2.0], 1e-9)); // constraint violated
        assert!(!m.is_feasible(&[6.0, 0.0], 1e-9)); // bound violated
        assert!(!m.is_feasible(&[1.0], 1e-9)); // wrong length
        assert_eq!(m.objective_value(&[3.0, 2.0]), 5.0);
    }
}
