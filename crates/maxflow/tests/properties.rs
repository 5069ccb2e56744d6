//! Property-based tests for the max-flow algorithms.

use helix_maxflow::{decompose_paths, min_cut, FlowNetwork, MaxFlowAlgorithm, NodeId, FLOW_EPS};
use proptest::prelude::*;

/// Builds a random directed graph over `n` nodes from a list of
/// (from, to, capacity) triples, using node 0 as source and node n-1 as sink.
fn build(n: usize, edges: &[(usize, usize, f64)]) -> (FlowNetwork, NodeId, NodeId) {
    let mut net = FlowNetwork::new();
    let ids: Vec<_> = (0..n).map(|i| net.add_node(format!("v{i}"))).collect();
    for &(a, b, c) in edges {
        let from = ids[a % n];
        let to = ids[b % n];
        if from != to {
            net.add_edge(from, to, c).unwrap();
        }
    }
    (net, ids[0], ids[n - 1])
}

/// The standing per-edge flows a warm solve left on `net`.
fn standing(net: &FlowNetwork) -> Vec<f64> {
    net.edges().map(|e| e.flow).collect()
}

fn edge_strategy(n: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    prop::collection::vec((0..n, 0..n, 0.0f64..25.0), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All three algorithms must agree on the max-flow value.
    #[test]
    fn algorithms_agree(n in 2usize..10, edges in edge_strategy(10)) {
        let (net, s, t) = build(n, &edges);
        let pr = net.max_flow_with(s, t, MaxFlowAlgorithm::PushRelabel);
        let di = net.max_flow_with(s, t, MaxFlowAlgorithm::Dinic);
        let ek = net.max_flow_with(s, t, MaxFlowAlgorithm::EdmondsKarp);
        prop_assert!((pr.value - di.value).abs() < 1e-6, "pr={} dinic={}", pr.value, di.value);
        prop_assert!((pr.value - ek.value).abs() < 1e-6, "pr={} ek={}", pr.value, ek.value);
    }

    /// The flow produced by each algorithm is feasible (capacity respected,
    /// conservation holds).
    #[test]
    fn flows_are_feasible(n in 2usize..10, edges in edge_strategy(10)) {
        let (net, s, t) = build(n, &edges);
        for alg in [MaxFlowAlgorithm::PushRelabel, MaxFlowAlgorithm::Dinic, MaxFlowAlgorithm::EdmondsKarp] {
            let r = net.max_flow_with(s, t, alg);
            prop_assert!(net.validate_flow(&r.edge_flows, s, t).is_ok(), "algorithm {alg:?} produced an infeasible flow");
        }
    }

    /// Max-flow value equals min-cut capacity (strong duality).
    #[test]
    fn max_flow_equals_min_cut(n in 2usize..10, edges in edge_strategy(10)) {
        let (net, s, t) = build(n, &edges);
        let flow = net.max_flow(s, t);
        let cut = min_cut(&net, &flow, s, t);
        prop_assert!((flow.value - cut.capacity).abs() < 1e-6,
            "flow {} != cut {}", flow.value, cut.capacity);
    }

    /// Flow decomposition conserves the total and never exceeds per-edge flow.
    #[test]
    fn decomposition_is_consistent(n in 2usize..10, edges in edge_strategy(10)) {
        let (net, s, t) = build(n, &edges);
        let flow = net.max_flow(s, t);
        let paths = decompose_paths(&net, &flow, s, t).unwrap();
        let total: f64 = paths.iter().map(|p| p.amount).sum();
        prop_assert!((total - flow.value).abs() < 1e-6);
        let mut usage = vec![0.0f64; net.edge_count()];
        for p in &paths {
            prop_assert!(p.amount > 0.0);
            for e in &p.edges {
                usage[e.index()] += p.amount;
            }
        }
        for (i, &u) in usage.iter().enumerate() {
            prop_assert!(u <= flow.edge_flows[i] + 1e-6);
        }
    }

    /// Max flow is bounded by both the source out-capacity and the sink
    /// in-capacity.
    #[test]
    fn flow_bounded_by_terminal_capacity(n in 2usize..10, edges in edge_strategy(10)) {
        let (net, s, t) = build(n, &edges);
        let flow = net.max_flow(s, t);
        let out_cap = net.out_capacity(s);
        let in_cap: f64 = net
            .in_edges(t)
            .iter()
            .map(|&e| net.edge(e).unwrap().capacity)
            .sum();
        prop_assert!(flow.value <= out_cap + 1e-6);
        prop_assert!(flow.value <= in_cap + 1e-6);
    }

    /// Scaling every capacity scales the max flow by the same factor.
    #[test]
    fn max_flow_scales_linearly(n in 2usize..8, edges in edge_strategy(8), k in 0.1f64..8.0) {
        let (net, s, t) = build(n, &edges);
        let scaled_edges: Vec<_> = edges.iter().map(|&(a, b, c)| (a, b, c * k)).collect();
        let (scaled, s2, t2) = build(n, &scaled_edges);
        let f1 = net.max_flow(s, t);
        let f2 = scaled.max_flow(s2, t2);
        prop_assert!((f1.value * k - f2.value).abs() < 1e-5 * (1.0 + f2.value));
    }

    /// Warm-started re-solving after an arbitrary sequence of capacity
    /// mutations matches a from-scratch solve of the same network, for every
    /// algorithm, and the standing flow stays feasible throughout.
    #[test]
    fn warm_start_matches_cold_solve_after_mutations(
        n in 2usize..10,
        edges in edge_strategy(10),
        mutations in prop::collection::vec((0usize..60, 0.0f64..25.0), 1..30),
    ) {
        for alg in [
            MaxFlowAlgorithm::PushRelabel,
            MaxFlowAlgorithm::Dinic,
            MaxFlowAlgorithm::EdmondsKarp,
        ] {
            let (mut net, s, t) = build(n, &edges);
            if net.edge_count() == 0 {
                continue;
            }
            // Standing warm solve, then interleave capacity mutations with
            // warm re-solves.
            let edge_ids: Vec<_> = net.edges().map(|e| e.id).collect();
            net.resolve_from_residual(s, t, alg).unwrap();
            for (batch, &(edge_seed, new_cap)) in mutations.iter().enumerate() {
                let edge = edge_ids[edge_seed % edge_ids.len()];
                net.set_capacity(edge, new_cap).unwrap();
                // Re-solve warm after every other mutation so repairs run on
                // both single and batched capacity changes.
                if batch % 2 == 0 {
                    net.resolve_from_residual(s, t, alg).unwrap();
                }
            }
            let warm = net.resolve_from_residual(s, t, alg).unwrap();
            let cold = net.max_flow_with(s, t, alg);
            prop_assert!(
                (warm - cold.value).abs() < 1e-6,
                "{alg:?}: warm {} vs cold {}",
                warm,
                cold.value
            );
            prop_assert!(net.validate_flow(&standing(&net), s, t).is_ok(),
                "{alg:?} left an infeasible standing flow");
        }
    }

    /// One standing network through everything that writes its arena:
    /// capacities flipped between 0 and positive, capacities in
    /// `(FLOW_EPS, 2·FLOW_EPS]` (where one push can leave both residuals of a
    /// pair at or below `FLOW_EPS` and kill it), undo-log transactions that
    /// roll back or commit, and a different algorithm on each warm solve.
    /// Every warm solve matches a cold one and leaves a feasible flow, every
    /// rollback restores the arena exactly, and every warm Dinic solve
    /// checks (in debug builds) that its patched live rows equal a full
    /// rebuild.
    #[test]
    fn warm_rows_and_repair_stay_exact_through_flips_dust_rollbacks_and_switches(
        n in 2usize..10,
        edges in edge_strategy(10),
        dust_edges in prop::collection::vec((0usize..10, 0usize..10, 0.0f64..1.0), 0..12),
        steps in prop::collection::vec((0u8..6, 0usize..80, 0.0f64..25.0, 0u8..4), 1..40),
    ) {
        let dust = |frac: f64| FLOW_EPS * (2.0 - frac);
        let mut all: Vec<_> = edges.clone();
        all.extend(dust_edges.iter().map(|&(a, b, f)| (a, b, dust(f))));
        let (mut net, s, t) = build(n, &all);
        if net.edge_count() == 0 {
            return Ok(());
        }
        let ids: Vec<_> = net.edges().map(|e| e.id).collect();
        let algorithm = |pick: u8| match pick {
            0 => MaxFlowAlgorithm::PushRelabel,
            1 => MaxFlowAlgorithm::EdmondsKarp,
            _ => MaxFlowAlgorithm::Dinic,
        };
        net.resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic).unwrap();
        let mut saved: Option<Vec<_>> = None;
        for &(kind, edge_seed, cap, pick) in &steps {
            let edge = ids[edge_seed % ids.len()];
            match kind {
                0 => net.set_capacity(edge, 0.0).unwrap(),
                1 => net.set_capacity(edge, cap).unwrap(),
                2 => net.set_capacity(edge, dust(cap / 25.0)).unwrap(),
                3 => {
                    net.begin_undo_log();
                    saved = Some(net.edges().collect());
                }
                4 => {
                    net.rollback_undo_log();
                    if let Some(before) = saved.take() {
                        prop_assert!(net.edges().eq(before), "rollback diverged");
                    }
                }
                _ => {
                    net.discard_undo_log();
                    saved = None;
                }
            }
            let alg = algorithm(pick);
            let warm = net.resolve_from_residual(s, t, alg).unwrap();
            let cold = net.max_flow_with(s, t, alg);
            prop_assert!(
                (warm - cold.value).abs() < 1e-6,
                "{alg:?}: warm {warm} vs cold {}",
                cold.value
            );
            prop_assert!(
                net.validate_flow(&standing(&net), s, t).is_ok(),
                "{alg:?} left an infeasible standing flow"
            );
        }
    }
}
