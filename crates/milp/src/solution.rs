//! Result types for MILP solves.

/// How the branch & bound search terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// The incumbent is provably optimal (tree exhausted or gap closed).
    Optimal,
    /// A feasible incumbent exists but optimality was not proven before the
    /// time / node budget ran out.
    Feasible,
    /// The search stopped because the incumbent reached the caller-supplied
    /// early-stop bound (paper §4.5: stop when close to the throughput upper
    /// bound).
    EarlyStopped,
}

/// Result of a MILP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpResult {
    /// Objective value of the incumbent, in the model's own sense.
    pub objective: f64,
    /// Value of every variable in the incumbent, indexed by
    /// [`VarId::index`](crate::VarId::index).
    pub values: Vec<f64>,
    /// Termination status.
    pub status: SolveStatus,
    /// Best proven bound on the optimal objective (an upper bound when
    /// maximising, a lower bound when minimising).
    pub best_bound: f64,
    /// Number of branch & bound nodes explored.
    pub nodes_explored: u64,
    /// Simplex iterations (pivots and bound flips) over all nodes.  Unlike
    /// the wall-clock time it repeats exactly from run to run.
    pub lp_iterations: u64,
    /// Wall-clock time spent solving, in seconds.
    pub solve_seconds: f64,
}
