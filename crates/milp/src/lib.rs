//! A small linear-programming and mixed-integer linear-programming solver.
//!
//! The Helix paper (§4.4) formulates model placement as a MILP and solves it
//! with Gurobi.  No mature pure-Rust MILP solver is available offline, so this
//! crate provides the substrate from scratch:
//!
//! * [`Model`] — a builder for LP/MILP problems: continuous, integer and
//!   binary variables with bounds, linear constraints and a linear objective.
//! * [`LpSolver`] — a bounded-variable simplex for the LP relaxation: bounds
//!   are carried by the columns (no upper-bound rows, artificials only where
//!   a row needs one), the table is one dense row-major array priced from a
//!   reduced-cost row the pivot keeps current, and a solve can start cold
//!   (two-phase primal) or from the [`Basis`] of a related solve (dual
//!   simplex on the table already in memory).  [`solve_lp`] is the one-shot
//!   cold solve.
//! * [`MilpSolver`] — branch & bound over the LP relaxation with best-bound
//!   node selection, most-fractional branching, warm-start incumbents, a
//!   user-supplied early-stop objective bound (the paper's §4.5 optimization)
//!   and wall-clock/node budgets.  Every node but the root re-optimises from
//!   its parent's basis.  The solver records an incumbent/bound timeline so
//!   experiment harnesses can reproduce Fig. 12, and counts simplex
//!   iterations ([`MilpResult::lp_iterations`]), a cost measure that repeats
//!   exactly.
//!
//! The table is dense: a pivot costs rows × columns, which suits the
//! relaxations Helix produces for small and medium clusters (the paper's
//! 24-node cluster pruned to degree 12 is 1344 × 2764, 30 MB).  Larger
//! instances want a sparse revised simplex; until then they should be
//! attacked with heuristic warm starts and tight time budgets, exactly as
//! the paper does.
//!
//! # Example
//!
//! ```rust
//! use helix_milp::{Model, ObjectiveSense, MilpSolver, Sense, VarType};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x <= 2,  x,y >= 0 integer
//! let mut model = Model::new(ObjectiveSense::Maximize);
//! let x = model.add_var("x", VarType::Integer, 0.0, f64::INFINITY, 3.0);
//! let y = model.add_var("y", VarType::Integer, 0.0, f64::INFINITY, 2.0);
//! model.add_constraint("cap", [(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
//! model.add_constraint("xcap", [(x, 1.0)], Sense::Le, 2.0);
//! let result = MilpSolver::new().solve(&model).unwrap();
//! assert_eq!(result.objective.round(), 10.0); // x=2, y=2
//! ```

mod branch_bound;
mod error;
mod expr;
mod model;
mod simplex;
mod solution;

pub use branch_bound::{BranchEvent, MilpOptions, MilpSolver, NodeRecord};
pub use error::MilpError;
pub use expr::{LinExpr, VarId};
pub use model::{Constraint, Model, ObjectiveSense, Sense, VarType, Variable};
pub use simplex::{solve_lp, Basis, LpOutcome, LpSolution, LpSolver};
pub use solution::{MilpResult, SolveStatus};

/// Tolerance below which a value is considered integral / zero by the solver.
pub const INT_EPS: f64 = 1e-6;
