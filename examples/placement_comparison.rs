//! Model-placement deep dive on the single 24-node cluster (paper §6.6):
//! compare Helix's flow-maximising placement with the Swarm, Petals and
//! separate-pipelines heuristics, show per-node utilisation under max flow,
//! and (optionally) run the exact MILP planner on a trimmed-down cluster.
//!
//! ```text
//! cargo run --release --example placement_comparison
//! cargo run --release --example placement_comparison -- --milp    # also run the MILP planner
//! ```

use helix::prelude::*;
use std::time::Duration;

fn main() {
    let run_milp = std::env::args().any(|a| a == "--milp");
    let profile =
        ClusterProfile::analytic(ClusterSpec::single_cluster_24(), ModelConfig::llama2_70b());
    println!(
        "cluster: {} | model: {} | throughput upper bound {:.0} tokens/s\n",
        profile.cluster().name,
        profile.model().name,
        profile.throughput_upper_bound()
    );

    let builder = FlowGraphBuilder::new(&profile);
    let report = |name: &str, placement: &ModelPlacement| {
        let graph = builder.build(placement).expect("placement is valid");
        let flow = graph.max_flow();
        let utilization = graph.node_utilization(&flow);
        let fully_used = utilization.values().filter(|&&u| u > 0.9).count();
        println!(
            "{:<22} max-flow {:>8.0} tokens/s | depth {:>2} | {}/{} nodes >90% utilised",
            name,
            flow.value,
            placement.pipeline_depth(profile.model().num_layers),
            fully_used,
            placement.num_assigned(),
        );
        flow.value
    };

    let swarm = heuristics::swarm_placement(&profile).expect("swarm");
    let petals = heuristics::petals_placement(&profile).expect("petals");
    let sp = heuristics::separate_pipelines_placement(&profile).expect("sp");
    let swarm_flow = report("swarm placement", &swarm);
    let petals_flow = report("petals placement", &petals);
    report("separate pipelines", &sp);

    let planner = FlowAnnealingPlanner::new(&profile).with_options(AnnealingOptions {
        iterations: 4000,
        ..Default::default()
    });
    let (helix_placement, helix_flow) = planner.solve().expect("helix placement");
    report("helix placement", &helix_placement);

    println!(
        "\nhelix vs swarm placement : {:.2}x higher max-flow throughput",
        helix_flow / swarm_flow.max(1e-9)
    );
    println!(
        "helix vs petals placement: {:.2}x higher max-flow throughput",
        helix_flow / petals_flow.max(1e-9)
    );

    // Per-node layer counts, grouped by GPU type (the Fig. 9b case study).
    println!("\nhelix placement layer counts per node:");
    for gpu in [GpuType::A100_40, GpuType::L4, GpuType::T4] {
        let counts: Vec<String> = profile
            .cluster()
            .node_ids()
            .filter(|&id| profile.cluster().node(id).gpu == gpu)
            .map(|id| match helix_placement.range(id) {
                Some(r) => r.len().to_string(),
                None => "-".to_string(),
            })
            .collect();
        println!("  {:<5}: {}", gpu.short_name(), counts.join(" "));
    }

    if run_milp {
        // The exact MILP planner on the small solver-quality cluster (§6.9).
        println!("\nrunning the exact MILP planner on the 10-node study cluster…");
        let small =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let options = PlannerOptions {
            prune_degree: Some(6),
            time_limit: Duration::from_secs(60),
            record_events: true,
            ..Default::default()
        };
        let mut planner = MilpPlacementPlanner::with_options(&small, options);
        match planner.solve() {
            Ok((placement, report)) => {
                println!(
                    "  MILP: {} vars, {} constraints, objective {:.0} tokens/s, {} B&B nodes in {:.1}s",
                    report.num_variables,
                    report.num_constraints,
                    report.objective_tokens_per_sec,
                    report.nodes_explored,
                    report.solve_seconds
                );
                println!(
                    "  placement uses {} of {} nodes",
                    placement.num_assigned(),
                    small.cluster().num_nodes()
                );
            }
            Err(e) => println!("  MILP planner failed: {e}"),
        }
    } else {
        println!("\n(pass --milp to also run the exact MILP planner on the 10-node cluster)");
    }
}
