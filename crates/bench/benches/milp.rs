//! Criterion micro-benchmarks for the LP/MILP solver: two toy models, and
//! the placement formulation itself (§4.4) on the 10-node study cluster and
//! the paper's 24-node cluster, root relaxation alone and a fixed number of
//! branch & bound nodes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
use helix_core::{MilpPlacementPlanner, MilpPlannerReport, PlannerOptions};
use helix_milp::{solve_lp, MilpSolver, Model, ObjectiveSense, Sense, VarType};
use std::hint::black_box;
use std::time::Duration;

/// A knapsack MILP with `n` binary items.
fn knapsack(n: usize) -> Model {
    let mut m = Model::new(ObjectiveSense::Maximize);
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_binary(format!("x{i}"), 5.0 + (i % 7) as f64).unwrap())
        .collect();
    let weights: Vec<_> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, 2.0 + (i % 5) as f64))
        .collect();
    let cap: f64 = weights.iter().map(|(_, w)| w).sum::<f64>() * 0.4;
    m.add_constraint("cap", weights, Sense::Le, cap).unwrap();
    m
}

/// A transportation LP with `n` sources and `n` sinks.
fn transportation(n: usize) -> Model {
    let mut m = Model::new(ObjectiveSense::Minimize);
    let mut vars = vec![vec![]; n];
    for (i, row) in vars.iter_mut().enumerate() {
        for j in 0..n {
            let cost = ((i * 13 + j * 7) % 10 + 1) as f64;
            row.push(
                m.add_var(
                    format!("x{i}_{j}"),
                    VarType::Continuous,
                    0.0,
                    f64::INFINITY,
                    cost,
                )
                .unwrap(),
            );
        }
    }
    for (i, row) in vars.iter().enumerate() {
        let terms: Vec<_> = row.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(
            format!("supply{i}"),
            terms,
            Sense::Le,
            10.0 + (i % 3) as f64,
        )
        .unwrap();
    }
    for j in 0..n {
        let terms: Vec<_> = vars.iter().map(|row| (row[j], 1.0)).collect();
        m.add_constraint(format!("demand{j}"), terms, Sense::Ge, 5.0 + (j % 4) as f64)
            .unwrap();
    }
    m
}

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex_transportation");
    for n in [5usize, 10, 15] {
        let model = transportation(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &model, |b, m| {
            b.iter(|| black_box(solve_lp(m).unwrap()))
        });
    }
    group.finish();
}

fn bench_milp(c: &mut Criterion) {
    let mut group = c.benchmark_group("milp_knapsack");
    group.sample_size(10);
    for n in [8usize, 12, 16] {
        let model = knapsack(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &model, |b, m| {
            b.iter(|| black_box(MilpSolver::new().solve(m).unwrap().objective))
        });
    }
    group.finish();
}

/// A placement instance: name, profile, pruning degree, the node budget of
/// its branch & bound bench and the root bound it must reproduce (tok/s).
struct Placement {
    name: &'static str,
    profile: ClusterProfile,
    degree: usize,
    nodes: u64,
    root_bound: f64,
}

fn placements() -> [Placement; 2] {
    [
        Placement {
            name: "study10_deg6",
            profile: ClusterProfile::analytic(
                ClusterSpec::solver_quality_10(),
                ModelConfig::llama_30b(),
            ),
            degree: 6,
            nodes: 10,
            root_bound: 152_288.845,
        },
        Placement {
            name: "cluster24_deg12",
            profile: ClusterProfile::analytic(
                ClusterSpec::single_cluster_24(),
                ModelConfig::llama2_70b(),
            ),
            degree: 12,
            nodes: 20,
            root_bound: 277_968.014,
        },
    ]
}

/// Plans with a node budget that binds (no early stop, no time limit in
/// reach), so every run does the same work.
fn plan(p: &Placement, node_limit: u64) -> MilpPlannerReport {
    let options = PlannerOptions {
        prune_degree: Some(p.degree),
        node_limit,
        early_stop_fraction: None,
        time_limit: Duration::from_secs(3600),
        ..Default::default()
    };
    let (_, report) = MilpPlacementPlanner::with_options(&p.profile, options)
        .solve()
        .expect("the heuristic warm start is always an incumbent");
    assert_eq!(report.nodes_explored, node_limit, "{}", p.name);
    report
}

fn bench_placement(c: &mut Criterion) {
    let placements = placements();
    let mut group = c.benchmark_group("placement_lp_root");
    group.sample_size(10);
    for p in &placements {
        // With no node to explore the solve is model build, warm start and
        // the root relaxation, whose optimum comes back as the best bound.
        let bound = plan(p, 0).best_bound;
        assert!(
            (bound - p.root_bound).abs() < 1e-6 * p.root_bound,
            "{}: root bound {bound}",
            p.name
        );
        group.bench_with_input(BenchmarkId::from_parameter(p.name), p, |b, p| {
            b.iter(|| black_box(plan(p, 0).best_bound))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("placement_bb");
    group.sample_size(10);
    for p in &placements {
        let id = BenchmarkId::from_parameter(format!("{}x{}", p.name, p.nodes));
        group.bench_with_input(id, p, |b, p| {
            b.iter(|| black_box(plan(p, p.nodes).objective_tokens_per_sec))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lp, bench_milp, bench_placement);
criterion_main!(benches);
