//! Linear expressions over model variables.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Identifier of a variable in a [`Model`](crate::Model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Returns the underlying index of this variable.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A linear expression `sum(coeff_i * var_i) + constant`.
///
/// Expressions support `+`, `-` and scalar `*` so constraints can be written
/// naturally:
///
/// ```rust
/// use helix_milp::{LinExpr, Model, ObjectiveSense, VarType};
///
/// let mut m = Model::new(ObjectiveSense::Maximize);
/// let x = m.add_var("x", VarType::Continuous, 0.0, 10.0, 1.0).unwrap();
/// let y = m.add_var("y", VarType::Continuous, 0.0, 10.0, 1.0).unwrap();
/// let expr = LinExpr::term(x, 2.0) + LinExpr::term(y, 3.0) - 1.0;
/// assert_eq!(expr.iter().collect::<Vec<_>>(), [(x, 2.0), (y, 3.0)]);
/// assert_eq!(expr.constant(), -1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    terms: BTreeMap<VarId, f64>,
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// An expression consisting of a single `coeff * var` term.
    pub fn term(var: VarId, coeff: f64) -> Self {
        let mut e = Self::new();
        e.add_term(var, coeff);
        e
    }

    /// A constant expression.
    fn constant_expr(value: f64) -> Self {
        LinExpr {
            terms: BTreeMap::new(),
            constant: value,
        }
    }

    /// Adds `coeff * var` to the expression, merging with an existing term.
    pub fn add_term(&mut self, var: VarId, coeff: f64) -> &mut Self {
        let entry = self.terms.entry(var).or_insert(0.0);
        *entry += coeff;
        if entry.abs() < 1e-15 {
            self.terms.remove(&var);
        }
        self
    }

    /// Adds a constant to the expression.
    pub fn add_constant(&mut self, value: f64) -> &mut Self {
        self.constant += value;
        self
    }

    /// The constant offset of the expression.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Iterates over `(variable, coefficient)` terms in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().map(|(&v, &c)| (v, c))
    }

    /// Evaluates the expression for an assignment indexed by
    /// [`VarId::index`].
    pub fn evaluate(&self, assignment: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|(v, c)| c * assignment.get(v.0).copied().unwrap_or(0.0))
                .sum::<f64>()
    }

    /// Returns true if any coefficient or the constant is NaN.
    pub fn has_nan(&self) -> bool {
        self.constant.is_nan() || self.terms.values().any(|c| c.is_nan())
    }
}

impl FromIterator<(VarId, f64)> for LinExpr {
    fn from_iter<I: IntoIterator<Item = (VarId, f64)>>(iter: I) -> Self {
        let mut e = LinExpr::new();
        for (v, c) in iter {
            e.add_term(v, c);
        }
        e
    }
}

impl From<f64> for LinExpr {
    fn from(value: f64) -> Self {
        LinExpr::constant_expr(value)
    }
}

impl From<VarId> for LinExpr {
    fn from(var: VarId) -> Self {
        LinExpr::term(var, 1.0)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        for (v, c) in rhs.terms {
            self.add_term(v, -c);
        }
        self.constant -= rhs.constant;
        self
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: f64) -> LinExpr {
        self.constant -= rhs;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, -c);
        }
        self.constant -= rhs.constant;
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        for c in self.terms.values_mut() {
            *c *= rhs;
        }
        self.constant *= rhs;
        self.terms.retain(|_, c| c.abs() >= 1e-15);
        self
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self * -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Coefficient of `var` in `e` (0 if absent).
    fn coefficient(e: &LinExpr, var: VarId) -> f64 {
        e.terms.get(&var).copied().unwrap_or(0.0)
    }

    #[test]
    fn building_and_merging_terms() {
        let x = VarId(0);
        let y = VarId(1);
        let mut e = LinExpr::new();
        e.add_term(x, 2.0)
            .add_term(y, 1.0)
            .add_term(x, 3.0)
            .add_constant(4.0);
        assert_eq!(coefficient(&e, x), 5.0);
        assert_eq!(coefficient(&e, y), 1.0);
        assert_eq!(e.constant(), 4.0);
        assert_eq!(e.terms.len(), 2);
        assert!(!e.terms.is_empty());
    }

    #[test]
    fn cancelled_terms_are_removed() {
        let x = VarId(0);
        let mut e = LinExpr::term(x, 2.0);
        e.add_term(x, -2.0);
        assert!(e.terms.is_empty());
        assert_eq!(coefficient(&e, x), 0.0);
    }

    #[test]
    fn arithmetic_operators() {
        let x = VarId(0);
        let y = VarId(1);
        let e = (LinExpr::term(x, 1.0) + LinExpr::term(y, 2.0)) * 3.0 - 1.5;
        assert_eq!(coefficient(&e, x), 3.0);
        assert_eq!(coefficient(&e, y), 6.0);
        assert_eq!(e.constant(), -1.5);
        let neg = -e;
        assert_eq!(coefficient(&neg, x), -3.0);
        assert_eq!(neg.constant(), 1.5);
    }

    #[test]
    fn evaluate_and_from_iter() {
        let x = VarId(0);
        let y = VarId(2);
        let e: LinExpr = [(x, 1.0), (y, 4.0)].into_iter().collect();
        let assignment = [2.0, 0.0, 0.5];
        assert_eq!(e.evaluate(&assignment), 2.0 + 2.0);
    }

    #[test]
    fn conversions() {
        let e: LinExpr = 3.5.into();
        assert_eq!(e.constant(), 3.5);
        let v: LinExpr = VarId(7).into();
        assert_eq!(coefficient(&v, VarId(7)), 1.0);
    }

    #[test]
    fn nan_detection() {
        let mut e = LinExpr::term(VarId(0), f64::NAN);
        assert!(e.has_nan());
        e = LinExpr::constant_expr(f64::NAN);
        assert!(e.has_nan());
        assert!(!LinExpr::new().has_nan());
    }
}
