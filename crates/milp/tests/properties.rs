//! Property-based tests for the LP and MILP solvers.

mod oracle;

use helix_milp::{
    solve_lp, LpOutcome, LpSolver, MilpError, MilpSolver, Model, ObjectiveSense, Sense, VarType,
};
use proptest::prelude::*;

/// A variable drawn as `(kind, anchor, width, objective)`: the kind picks
/// which of its bounds are finite, so boxes, half-lines, free and fixed
/// variables with negative bounds all occur.
type VarSpec = (u8, i32, i32, i32);
/// A row drawn as `(sense, margin, coefficients)`; coefficients beyond the
/// number of variables are ignored.  The right-hand side is placed `margin`
/// away from the row's value at a reference point inside the bounds, on the
/// satisfied side when positive: most systems are feasible, some are not.
type RowSpec = (u8, i32, Vec<i32>);

const MAX_VARS: usize = 6;

fn var_specs() -> impl Strategy<Value = Vec<VarSpec>> {
    prop::collection::vec((0u8..8, -4i32..=4, 0i32..=5, -5i32..=5), 1..MAX_VARS + 1)
}

fn row_specs(rows: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RowSpec>> {
    let coefficients = prop::collection::vec(-3i32..=3, MAX_VARS..MAX_VARS + 1);
    prop::collection::vec((0u8..5, -1i32..=4, coefficients), rows)
}

/// Builds the model the specs describe.  Small integer data makes ties,
/// degenerate vertices and exactly-infeasible systems common.
fn mixed_model(maximize: bool, var_type: VarType, vars: &[VarSpec], rows: &[RowSpec]) -> Model {
    let mut m = Model::new(if maximize {
        ObjectiveSense::Maximize
    } else {
        ObjectiveSense::Minimize
    });
    let mut reference = Vec::new();
    let ids: Vec<_> = vars
        .iter()
        .enumerate()
        .map(|(i, &(kind, anchor, width, objective))| {
            let (anchor, width) = (f64::from(anchor), f64::from(width));
            let (lower, upper) = match kind {
                0 => (anchor, anchor),
                1 => (anchor, f64::INFINITY),
                2 => (f64::NEG_INFINITY, anchor),
                3 => (f64::NEG_INFINITY, f64::INFINITY),
                _ => (anchor, anchor + width),
            };
            reference.push(if kind < 4 {
                anchor
            } else {
                anchor + (width / 2.0).floor()
            });
            m.add_var(
                format!("x{i}"),
                var_type,
                lower,
                upper,
                f64::from(objective),
            )
            .unwrap()
        })
        .collect();
    for (r, (sense, margin, coefficients)) in rows.iter().enumerate() {
        let terms: Vec<_> = ids
            .iter()
            .zip(coefficients)
            .filter(|(_, &a)| a != 0)
            .map(|(&x, &a)| (x, f64::from(a)))
            .collect();
        let at_reference: f64 = terms.iter().map(|&(x, a)| a * reference[x.index()]).sum();
        let margin = f64::from(*margin);
        let (sense, rhs) = match sense {
            0 | 1 => (Sense::Le, at_reference + margin),
            2 | 3 => (Sense::Ge, at_reference - margin),
            _ => (Sense::Eq, at_reference + margin.min(0.0)),
        };
        m.add_constraint(format!("r{r}"), terms, sense, rhs)
            .unwrap();
    }
    m
}

fn model_bounds(m: &Model) -> Vec<(f64, f64)> {
    m.variables().iter().map(|v| (v.lower, v.upper)).collect()
}

/// Same verdict, and the same optimum to 1e-6 when there is one.
fn same_outcome(a: &LpOutcome, b: &LpOutcome) -> bool {
    match (a, b) {
        (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) => {
            (a.objective - b.objective).abs() <= 1e-6 * (1.0 + b.objective.abs())
        }
        (LpOutcome::Infeasible, LpOutcome::Infeasible) => true,
        (LpOutcome::Unbounded, LpOutcome::Unbounded) => true,
        _ => false,
    }
}

/// Builds a random bounded knapsack-style MILP: maximize sum(v_i x_i) subject
/// to sum(w_i x_i) <= cap with binary x.
fn knapsack(values: &[f64], weights: &[f64], cap: f64) -> Model {
    let mut m = Model::new(ObjectiveSense::Maximize);
    let vars: Vec<_> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| m.add_binary(format!("x{i}"), v).unwrap())
        .collect();
    let terms: Vec<_> = vars.iter().zip(weights).map(|(&x, &w)| (x, w)).collect();
    m.add_constraint("cap", terms, Sense::Le, cap).unwrap();
    m
}

/// Brute-force optimum of a binary knapsack (for <= 12 items).
fn brute_force(values: &[f64], weights: &[f64], cap: f64) -> f64 {
    let n = values.len();
    let mut best = 0.0f64;
    for mask in 0u32..(1 << n) {
        let mut w = 0.0;
        let mut v = 0.0;
        for i in 0..n {
            if mask & (1 << i) != 0 {
                w += weights[i];
                v += values[i];
            }
        }
        if w <= cap + 1e-9 {
            best = best.max(v);
        }
    }
    best
}

/// Beale's example makes the textbook simplex (largest coefficient, lowest
/// row on ties) cycle forever through one degenerate vertex.
#[test]
fn beale_cycling_example_terminates_at_the_optimum() {
    let mut m = Model::new(ObjectiveSense::Minimize);
    let inf = f64::INFINITY;
    let x1 = m
        .add_var("x1", VarType::Continuous, 0.0, inf, -0.75)
        .unwrap();
    let x2 = m
        .add_var("x2", VarType::Continuous, 0.0, inf, 150.0)
        .unwrap();
    let x3 = m
        .add_var("x3", VarType::Continuous, 0.0, inf, -0.02)
        .unwrap();
    let x4 = m.add_var("x4", VarType::Continuous, 0.0, inf, 6.0).unwrap();
    m.add_constraint(
        "a",
        [(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
        Sense::Le,
        0.0,
    )
    .unwrap();
    m.add_constraint(
        "b",
        [(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
        Sense::Le,
        0.0,
    )
    .unwrap();
    m.add_constraint("c", [(x3, 1.0)], Sense::Le, 1.0).unwrap();
    let sol = solve_lp(&m).unwrap().optimal().unwrap();
    assert!((sol.objective + 0.05).abs() < 1e-9, "{}", sol.objective);
    assert!((sol.values[x1.index()] - 0.04).abs() < 1e-9);
    assert!((sol.values[x3.index()] - 1.0).abs() < 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The LP kernel agrees with the retired dense tableau, which shares no
    /// code with it, and returns a point the model itself accepts.
    #[test]
    fn lp_matches_the_retired_tableau(
        maximize in prop::bool::ANY,
        vars in var_specs(),
        rows in row_specs(0..7),
    ) {
        let m = mixed_model(maximize, VarType::Continuous, &vars, &rows);
        let got = solve_lp(&m).unwrap();
        let expected = oracle::solve(&m, &model_bounds(&m)).unwrap();
        prop_assert!(same_outcome(&got, &expected), "{got:?} vs oracle {expected:?}");
        if let LpOutcome::Optimal(sol) = &got {
            prop_assert!(m.is_feasible(&sol.values, 1e-6), "infeasible point {:?}", sol.values);
            prop_assert!((m.objective_value(&sol.values) - sol.objective).abs() < 1e-9);
        }
    }

    /// Re-optimising from a basis gives what a cold solve of the same bounds
    /// gives, along random branching sequences that also jump back to older
    /// nodes (whose basis the table has long left).
    #[test]
    fn warm_started_child_equals_cold_solve(
        maximize in prop::bool::ANY,
        vars in var_specs(),
        rows in row_specs(1..7),
        branches in prop::collection::vec((0usize..64, 0usize..MAX_VARS, prop::bool::ANY), 1..12),
    ) {
        let m = mixed_model(maximize, VarType::Continuous, &vars, &rows);
        let root = model_bounds(&m);
        let mut lp = LpSolver::new(&m, &root).unwrap();
        let LpOutcome::Optimal(relaxed) = lp.solve(&root).unwrap() else {
            return Ok(());
        };
        // Open nodes, as branch & bound keeps them: bounds, the relaxation's
        // optimum and its basis.
        let mut open = vec![(root.clone(), relaxed.values, lp.basis())];
        for (pick, var, up) in branches {
            let (bounds, values, basis) = open[pick % open.len()].clone();
            let var = var % values.len();
            let (l, u) = bounds[var];
            if l == u {
                continue;
            }
            // Branch like the search does, on x <= floor or x >= ceil; at an
            // integral value move one unit instead so the bound still bites.
            let x = values[var];
            let mut child = bounds;
            child[var] = if up {
                ((x.ceil() + if x.fract() == 0.0 { 1.0 } else { 0.0 }).max(l), u)
            } else {
                (l, (x.floor() - if x.fract() == 0.0 { 1.0 } else { 0.0 }).min(u))
            };
            if child[var].0 > child[var].1 {
                continue;
            }
            let warm = lp.resolve(&child, &basis).unwrap();
            let cold = LpSolver::new(&m, &root).unwrap().solve(&child).unwrap();
            prop_assert!(same_outcome(&warm, &cold), "warm {warm:?} vs cold {cold:?}");
            if let LpOutcome::Optimal(sol) = warm {
                prop_assert!(m.is_feasible(&sol.values, 1e-6));
                open.push((child, sol.values, lp.basis()));
            }
        }
    }

    /// Branch & bound matches enumeration on general-integer models with
    /// several rows of mixed senses.
    #[test]
    fn milp_matches_enumeration_on_general_integer_models(
        maximize in prop::bool::ANY,
        vars in prop::collection::vec((4u8..5, -2i32..=2, 1i32..=4, -5i32..=5), 2..6),
        rows in row_specs(2..4),
    ) {
        let m = mixed_model(maximize, VarType::Integer, &vars, &rows);
        let best = enumerate(&m);
        match MilpSolver::new().solve(&m) {
            Ok(result) => {
                prop_assert!(m.is_feasible(&result.values, 1e-6));
                let best = best.ok_or("solver found a point enumeration did not")?;
                prop_assert!((result.objective - best).abs() < 1e-6, "{} vs {best}", result.objective);
            }
            Err(MilpError::Infeasible | MilpError::NoIncumbent) => prop_assert!(best.is_none()),
            Err(other) => return Err(other.to_string().into()),
        }
    }
}

/// Best objective over every integer point of the (finite) box, if any point
/// satisfies the rows.
fn enumerate(m: &Model) -> Option<f64> {
    let vars = m.variables();
    let mut point: Vec<f64> = vars.iter().map(|v| v.lower).collect();
    let mut best: Option<f64> = None;
    loop {
        if m.is_feasible(&point, 1e-9) {
            let value = m.objective_value(&point);
            let better = best.is_none_or(|b| match m.sense() {
                ObjectiveSense::Maximize => value > b,
                ObjectiveSense::Minimize => value < b,
            });
            if better {
                best = Some(value);
            }
        }
        // Odometer step.
        let mut i = 0;
        loop {
            if i == vars.len() {
                return best;
            }
            if point[i] < vars[i].upper {
                point[i] += 1.0;
                break;
            }
            point[i] = vars[i].lower;
            i += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The MILP solver matches a brute-force search on small knapsacks.
    #[test]
    fn milp_matches_brute_force_knapsack(
        values in prop::collection::vec(0.5f64..20.0, 1..9),
        weights_seed in prop::collection::vec(0.5f64..10.0, 1..9),
        cap_frac in 0.1f64..0.9,
    ) {
        let n = values.len().min(weights_seed.len());
        let values = &values[..n];
        let weights = &weights_seed[..n];
        let cap = weights.iter().sum::<f64>() * cap_frac;
        let m = knapsack(values, weights, cap);
        let expected = brute_force(values, weights, cap);
        let got = match MilpSolver::new().solve(&m) {
            Ok(r) => r.objective,
            Err(_) => 0.0, // empty knapsack (cap below every weight) may yield no incumbent > 0
        };
        prop_assert!((got - expected).abs() < 1e-5, "solver {got} vs brute force {expected}");
    }

    /// The LP relaxation is always an upper bound on the MILP optimum for
    /// maximisation problems.
    #[test]
    fn lp_relaxation_bounds_milp(
        values in prop::collection::vec(0.5f64..20.0, 2..8),
        weights_seed in prop::collection::vec(0.5f64..10.0, 2..8),
        cap_frac in 0.2f64..0.9,
    ) {
        let n = values.len().min(weights_seed.len());
        let values = &values[..n];
        let weights = &weights_seed[..n];
        let cap = weights.iter().sum::<f64>() * cap_frac;
        let m = knapsack(values, weights, cap);
        let lp = solve_lp(&m).unwrap().optimal().unwrap();
        if let Ok(milp) = MilpSolver::new().solve(&m) {
            prop_assert!(milp.objective <= lp.objective + 1e-6);
            prop_assert!(milp.objective <= milp.best_bound + 1e-6);
            // Returned solution must actually be feasible and integral.
            prop_assert!(m.is_feasible(&milp.values, 1e-5));
        }
    }

    /// LP optimum of a box-constrained problem equals the greedy bound
    /// (each variable at whichever bound its objective coefficient favours).
    #[test]
    fn lp_box_constrained_matches_analytic(
        coeffs in prop::collection::vec(-10.0f64..10.0, 1..10),
        uppers in prop::collection::vec(0.1f64..5.0, 1..10),
    ) {
        let n = coeffs.len().min(uppers.len());
        let mut m = Model::new(ObjectiveSense::Maximize);
        for i in 0..n {
            m.add_var(format!("x{i}"), VarType::Continuous, 0.0, uppers[i], coeffs[i]).unwrap();
        }
        let expected: f64 = (0..n).map(|i| if coeffs[i] > 0.0 { coeffs[i] * uppers[i] } else { 0.0 }).sum();
        let sol = solve_lp(&m).unwrap().optimal().unwrap();
        prop_assert!((sol.objective - expected).abs() < 1e-6);
    }

    /// Adding a redundant constraint never changes the LP optimum.
    #[test]
    fn redundant_constraints_do_not_change_lp(
        c1 in 1.0f64..10.0,
        c2 in 1.0f64..10.0,
        cap in 5.0f64..50.0,
    ) {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY, c1).unwrap();
        let y = m.add_var("y", VarType::Continuous, 0.0, f64::INFINITY, c2).unwrap();
        m.add_constraint("cap", [(x, 1.0), (y, 1.0)], Sense::Le, cap).unwrap();
        let base = solve_lp(&m).unwrap().optimal().unwrap().objective;
        m.add_constraint("redundant", [(x, 1.0), (y, 1.0)], Sense::Le, cap * 2.0).unwrap();
        let with_redundant = solve_lp(&m).unwrap().optimal().unwrap().objective;
        prop_assert!((base - with_redundant).abs() < 1e-6);
    }
}
