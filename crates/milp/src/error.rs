//! Error type for LP/MILP modelling and solving.

use std::error::Error;
use std::fmt;

/// Errors returned while building or solving a model.
#[derive(Debug, Clone, PartialEq)]
pub enum MilpError {
    /// A variable id did not belong to the model.
    InvalidVariable {
        /// The offending variable index.
        index: usize,
        /// Number of variables in the model.
        len: usize,
    },
    /// A variable was created with lower bound greater than upper bound, or a
    /// non-finite lower/upper pair that cannot be represented.
    InvalidBounds {
        /// The lower bound.
        lower: f64,
        /// The upper bound.
        upper: f64,
    },
    /// A bounds slice did not have one entry per model variable.
    BoundsLength {
        /// Number of variables in the model.
        expected: usize,
        /// Length of the slice.
        found: usize,
    },
    /// A coefficient or right-hand side was NaN.
    NotANumber,
    /// The model (or its LP relaxation) is infeasible.
    Infeasible,
    /// The LP relaxation is unbounded in the direction of optimisation.
    Unbounded,
    /// The solver hit its iteration safety limit without converging; this
    /// indicates numerical trouble rather than a property of the model.
    IterationLimit,
    /// No feasible integer solution was found within the configured budget.
    NoIncumbent,
}

impl fmt::Display for MilpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilpError::InvalidVariable { index, len } => {
                write!(
                    f,
                    "variable index {index} out of bounds for model with {len} variables"
                )
            }
            MilpError::InvalidBounds { lower, upper } => {
                write!(f, "invalid variable bounds [{lower}, {upper}]")
            }
            MilpError::BoundsLength { expected, found } => {
                write!(
                    f,
                    "{found} bound pairs given for a model with {expected} variables"
                )
            }
            MilpError::NotANumber => write!(f, "coefficient or right-hand side was NaN"),
            MilpError::Infeasible => write!(f, "model is infeasible"),
            MilpError::Unbounded => write!(f, "model is unbounded"),
            MilpError::IterationLimit => write!(f, "simplex iteration limit reached"),
            MilpError::NoIncumbent => {
                write!(
                    f,
                    "no feasible integer solution found within the solve budget"
                )
            }
        }
    }
}

impl Error for MilpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_and_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MilpError>();
        assert!(MilpError::Infeasible.to_string().contains("infeasible"));
        assert!(MilpError::InvalidBounds {
            lower: 2.0,
            upper: 1.0
        }
        .to_string()
        .contains("bounds"));
    }
}
