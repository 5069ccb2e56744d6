//! The paper's tables and figures, one function each, and the table that
//! names them.
//!
//! Each artifact prints what it measured in the shape the paper uses and
//! returns its [`ExperimentReport`]; the `report` binary runs the artifacts
//! it is given (`all`: every one, in [`ARTIFACTS`] order) and writes each
//! report to `results/<name>.json`:
//!
//! ```text
//! cargo run --release -p helix-bench --bin report -- <artifact>… | all [--full] [--case-study]
//! ```

use crate::{
    placement_flow, run_serving, run_with_scheduler, BenchError, ExperimentReport, ExperimentScale,
    ServingRow, ServingSetting, SystemKind,
};
use helix_cluster::{ClusterProfile, ClusterSpec, GpuType, ModelConfig, NodeId};
use helix_core::SchedulerKind::{self, HelixIwrr};
use helix_core::{
    heuristics, AnnealingOptions, Endpoint, FlowAnnealingPlanner, FlowGraphBuilder, LayerRange,
    MilpPlacementPlanner, ModelPlacement, PlannerOptions, Topology,
};
use helix_workload::{ArrivalPattern, AzureTraceConfig, TraceStatistics};
use serde_json::{json, Value};
use std::time::{Duration, Instant};

/// How one artifact runs.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// The artifact's name, which its report (and so its JSON file) carries.
    pub name: &'static str,
    /// Quick or paper scale (`--full`).
    pub scale: ExperimentScale,
    /// Print the Fig. 9b / 10b case studies too (`--case-study`).
    pub case_study: bool,
}

impl Run {
    /// This run's report on `data`.
    fn report(self, paper_artifact: &str, data: Value) -> ExperimentReport {
        ExperimentReport::new(self.name, paper_artifact, self.scale, data)
    }

    /// The report of an artifact that has one size only.
    fn fixed_report(self, paper_artifact: &str, data: Value) -> ExperimentReport {
        ExperimentReport::new(self.name, paper_artifact, ExperimentScale::Quick, data)
    }
}

/// One artifact: prints what it measured and returns its report.
pub type Artifact = fn(Run) -> Result<ExperimentReport, BenchError>;

/// Every artifact by name, in the order `all` runs them: the cheap tables
/// first, then the MILP studies, the deep dives and the serving comparisons.
pub const ARTIFACTS: [(&str, Artifact); 12] = [
    ("table1_min_gpus", table1_min_gpus),
    ("table3_gpu_catalog", table3_gpu_catalog),
    ("fig2_graph_abstraction", fig2_graph_abstraction),
    ("fig5_trace_stats", fig5_trace_stats),
    ("table8_problem_size", table8_problem_size),
    ("fig12_solver_quality", fig12_solver_quality),
    ("fig11_ablation", fig11_ablation),
    ("fig9_placement_deepdive", fig9_placement_deepdive),
    ("fig10_scheduling_deepdive", fig10_scheduling_deepdive),
    ("fig6_single_cluster", fig6_single_cluster),
    ("fig7_geo_distributed", fig7_geo_distributed),
    ("fig8_high_heterogeneity", fig8_high_heterogeneity),
];

/// The artifacts `names` ask for, in that order; `all` stands for every one.
///
/// # Errors
///
/// [`BenchError::UnknownArtifact`] for the first name no artifact has.
pub fn resolve(names: &[&str]) -> Result<Vec<(&'static str, Artifact)>, BenchError> {
    let mut resolved = Vec::new();
    for &name in names {
        if name == "all" {
            resolved.extend(ARTIFACTS);
            continue;
        }
        let found = ARTIFACTS.iter().find(|(known, _)| *known == name);
        resolved.push(*found.ok_or_else(|| BenchError::UnknownArtifact(name.to_string()))?);
    }
    Ok(resolved)
}

/// Table 1: minimum numbers of GPUs required to hold each LLM when half of
/// the GPU memory stores model parameters.
fn table1_min_gpus(run: Run) -> Result<ExperimentReport, BenchError> {
    let models = [
        ("LLaMA-2 70B", ModelConfig::llama2_70b(), (12, 7, 4)),
        ("GPT-3 175B", ModelConfig::gpt3_175b(), (30, 18, 9)),
        ("Grok-1 314B", ModelConfig::grok1_314b(), (53, 32, 16)),
        ("LLaMA-3 405B", ModelConfig::llama3_405b(), (68, 41, 21)),
    ];
    println!("=== Table 1: minimum GPUs to hold the model (half VRAM for weights) ===");
    println!(
        "{:<14} {:>14} {:>10} {:>10} {:>10}   (paper: L4 / A100 / H100)",
        "model", "params (B)", "L4", "A100", "H100"
    );
    let mut rows = Vec::new();
    for (name, model, paper) in models {
        let l4 = model.min_gpus(24.0, 0.5);
        let a100 = model.min_gpus(40.0, 0.5);
        let h100 = model.min_gpus(80.0, 0.5);
        println!(
            "{:<14} {:>14.1} {:>10} {:>10} {:>10}   ({} / {} / {})",
            name,
            model.total_params() / 1e9,
            l4,
            a100,
            h100,
            paper.0,
            paper.1,
            paper.2
        );
        rows.push(json!({
            "model": name,
            "params_billion": model.total_params() / 1e9,
            "l4": l4, "a100": a100, "h100": h100,
            "paper": {"l4": paper.0, "a100": paper.1, "h100": paper.2},
        }));
    }
    Ok(run.fixed_report("Table 1", json!({ "rows": rows })))
}

/// Table 3: properties of the GPUs used throughout the paper.
fn table3_gpu_catalog(run: Run) -> Result<ExperimentReport, BenchError> {
    println!("=== Table 3: GPU catalogue ===");
    println!(
        "{:<10} {:>14} {:>12} {:>18} {:>10} {:>12}",
        "GPU", "FP16 TFLOPs", "memory GB", "bandwidth GB/s", "power W", "price USD"
    );
    let mut rows = Vec::new();
    for gpu in GpuType::ALL {
        let s = gpu.spec();
        println!(
            "{:<10} {:>14.0} {:>12.0} {:>18.0} {:>10.0} {:>12.0}",
            gpu.short_name(),
            s.fp16_tflops,
            s.memory_gb,
            s.memory_bandwidth_gbps,
            s.power_watts,
            s.price_usd
        );
        rows.push(json!({
            "gpu": gpu.short_name(),
            "fp16_tflops": s.fp16_tflops,
            "memory_gb": s.memory_gb,
            "bandwidth_gbps": s.memory_bandwidth_gbps,
            "power_watts": s.power_watts,
            "price_usd": s.price_usd,
        }));
    }
    Ok(run.fixed_report("Table 3", json!({ "rows": rows })))
}

/// Figure 2: graph abstraction of a 3-node cluster with a given model
/// placement; the max flow equals the maximum serving throughput.
fn fig2_graph_abstraction(run: Run) -> Result<ExperimentReport, BenchError> {
    // The Fig. 2 example: a 3-layer model; the A100 holds layers 1-2, T4-1
    // replicates layer 1, T4-2 holds layer 3 (0-based: [0,2), [0,1), [2,3)).
    let mut model = ModelConfig::llama2_70b();
    model.num_layers = 3;
    let profile = ClusterProfile::analytic(ClusterSpec::fig2_example(), model);
    let mut placement = ModelPlacement::empty(3);
    placement.assign(NodeId(0), LayerRange::new(0, 2));
    placement.assign(NodeId(1), LayerRange::new(0, 1));
    placement.assign(NodeId(2), LayerRange::new(2, 3));

    let graph = FlowGraphBuilder::new(&profile).build(&placement)?;
    let flow = graph.max_flow();

    println!("=== Figure 2: graph abstraction of the 3-node example cluster ===");
    println!("node capacities (tokens/s):");
    for id in profile.cluster().node_ids() {
        if let (Some(cap), Some(range)) = (graph.node_capacity(id), placement.range(id)) {
            println!(
                "  {:<8} holds {}  capacity {:>10.0}  flow {:>10.0}",
                profile.cluster().node(id).name,
                range,
                cap,
                graph.node_flow(&flow, id).unwrap_or(0.0)
            );
        }
    }
    println!("network connections (tokens/s):");
    let mut conn_rows = Vec::new();
    let mut conns = graph.connections();
    conns.sort_by(|a, b| format!("{:?}{:?}", a.0, a.1).cmp(&format!("{:?}{:?}", b.0, b.1)));
    for (from, to, cap) in conns {
        let name = |e: Endpoint| match e {
            Endpoint::Coordinator => "coordinator".to_string(),
            Endpoint::Node(n) => profile.cluster().node(n).name.clone(),
        };
        let f = graph.link_flow(&flow, from, to).unwrap_or(0.0);
        println!(
            "  {:<12} -> {:<12} capacity {:>12.0}  flow {:>12.0}",
            name(from),
            name(to),
            cap,
            f
        );
        conn_rows.push(json!({
            "from": name(from), "to": name(to), "capacity": cap, "flow": f,
        }));
    }
    println!(
        "\nmax flow (= max serving throughput): {:.0} tokens/s",
        flow.value
    );
    let paths = graph.decompose(&flow)?;
    println!("decomposed into {} pipelines", paths.len());

    Ok(run.fixed_report(
        "Figure 2",
        json!({
            "max_flow_tokens_per_sec": flow.value,
            "num_pipelines": paths.len(),
            "connections": conn_rows,
        }),
    ))
}

/// Figure 5: statistics of the (synthetic) Azure Conversation trace —
/// length distribution and arrival rate over time.
fn fig5_trace_stats(run: Run) -> Result<ExperimentReport, BenchError> {
    let n = match run.scale {
        ExperimentScale::Quick => 4000,
        ExperimentScale::Full => 16_657,
    };
    let workload = AzureTraceConfig::default()
        .generate(n, 20240314)
        .with_arrivals(
            ArrivalPattern::Diurnal {
                mean_rate_per_sec: 1.0,
                amplitude: 0.4,
                period_secs: 1800.0,
            },
            7,
        );
    let stats = workload.statistics();

    println!("=== Figure 5: Azure-Conversation-like trace statistics ===");
    println!("requests: {}", stats.num_requests);
    println!(
        "mean input length : {:>8.1} tokens (paper: 763)",
        stats.mean_input_tokens
    );
    println!(
        "mean output length: {:>8.1} tokens (paper: 232)",
        stats.mean_output_tokens
    );
    println!(
        "max input / output: {} / {}",
        stats.max_input_tokens, stats.max_output_tokens
    );

    println!(
        "\ninput length distribution (bucket = {} tokens):",
        TraceStatistics::INPUT_BUCKET
    );
    print_histogram(&stats.input_histogram, stats.num_requests);
    println!(
        "\noutput length distribution (bucket = {} tokens):",
        TraceStatistics::OUTPUT_BUCKET
    );
    print_histogram(&stats.output_histogram, stats.num_requests);

    println!("\narrival rate (requests per minute, first 20 minutes):");
    for (minute, count) in stats.arrivals_per_minute.iter().take(20).enumerate() {
        println!(
            "  minute {:>3}: {:>5} {}",
            minute,
            count,
            "*".repeat(count / 5)
        );
    }
    Ok(run.report(
        "Figure 5",
        json!({
            "num_requests": stats.num_requests,
            "mean_input_tokens": stats.mean_input_tokens,
            "mean_output_tokens": stats.mean_output_tokens,
            "max_input_tokens": stats.max_input_tokens,
            "max_output_tokens": stats.max_output_tokens,
            "input_histogram": stats.input_histogram,
            "output_histogram": stats.output_histogram,
            "arrivals_per_minute": stats.arrivals_per_minute,
        }),
    ))
}

fn print_histogram(hist: &[usize], total: usize) {
    for (i, &count) in hist.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let share = count as f64 / total as f64;
        println!(
            "  bucket {:>3}: {:>6} ({:>5.1}%) {}",
            i,
            count,
            share * 100.0,
            "#".repeat((share * 200.0) as usize)
        );
    }
}

/// Table 8: MILP problem size (variables / constraints) with and without
/// cluster pruning, for the 24-node and 42-node settings.
fn table8_problem_size(run: Run) -> Result<ExperimentReport, BenchError> {
    println!("=== Table 8: MILP problem size with and without pruning ===");
    println!(
        "{:<12} {:>22} {:>26}",
        "cluster", "with pruning (deg 12)", "without pruning"
    );
    let mut rows = Vec::new();
    for (name, cluster, paper) in [
        (
            "24-node",
            ClusterSpec::geo_distributed_24(),
            json!({"pruned": "876 var 1122 cstr", "full": "1376 var 1848 cstr"}),
        ),
        (
            "42-node",
            ClusterSpec::high_heterogeneity_42(),
            json!({"pruned": "2144 var 2772 cstr", "full": "4004 var 5502 cstr"}),
        ),
    ] {
        let profile = ClusterProfile::analytic(cluster, ModelConfig::llama2_70b());
        let options = PlannerOptions {
            prune_degree: Some(12),
            ..Default::default()
        };
        let pruned = MilpPlacementPlanner::with_options(&profile, options).problem_size()?;
        let full = MilpPlacementPlanner::new(&profile).problem_size()?;
        println!(
            "{:<12} {:>10} var {:>6} cstr {:>12} var {:>6} cstr",
            name, pruned.0, pruned.1, full.0, full.1
        );
        rows.push(json!({
            "cluster": name,
            "pruned": {"variables": pruned.0, "constraints": pruned.1},
            "full": {"variables": full.0, "constraints": full.1},
            "paper": paper,
        }));
    }
    println!("\n(paper: 24-node 876/1122 pruned, 1376/1848 full; 42-node 2144/2772 pruned, 4004/5502 full)");
    Ok(run.fixed_report("Table 8", json!({ "rows": rows })))
}

/// The branch-and-bound node budget of the MILP solves of Fig. 11b and
/// Fig. 12.  A quick run explores the first tenth of the full run's nodes —
/// the same search order, so the incumbent is still the heuristic warm
/// start and the bound stays far above it — at a tenth of the cost.
fn milp_node_limit(scale: ExperimentScale) -> u64 {
    match scale {
        ExperimentScale::Quick => 10_000,
        ExperimentScale::Full => PlannerOptions::default().node_limit,
    }
}

/// Figure 12: quality of the best incumbent and best bound found by the
/// MILP solver as a function of solving time, for LLaMA 30B on a 4×L4 +
/// 6×T4 cluster.  High-quality solutions appear early; proving optimality
/// takes much longer — justifying early stopping.
fn fig12_solver_quality(run: Run) -> Result<ExperimentReport, BenchError> {
    let budget = match run.scale {
        ExperimentScale::Quick => Duration::from_secs(60),
        ExperimentScale::Full => Duration::from_secs(900),
    };
    let profile =
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
    println!("=== Figure 12: incumbent / bound vs MILP solving time ===");
    println!("cluster: 4xL4 + 6xT4, model LLaMA 30B, budget {:?}", budget);
    println!(
        "throughput upper bound: {:.0} tokens/s",
        profile.throughput_upper_bound()
    );

    // Disable the early stop so the solver keeps tightening the bound.
    let options = PlannerOptions {
        prune_degree: Some(6),
        time_limit: budget,
        node_limit: milp_node_limit(run.scale),
        early_stop_fraction: None,
        record_events: true,
        ..Default::default()
    };
    let mut planner = MilpPlacementPlanner::with_options(&profile, options);
    let (_, report) = planner.solve()?;
    println!(
        "\n{:>10} {:>12} {:>14} {:>14}",
        "time (s)", "nodes", "incumbent t/s", "best bound t/s"
    );
    for e in &report.events {
        println!(
            "{:>10.2} {:>12} {:>14} {:>14.0}",
            e.elapsed_seconds,
            e.nodes_explored,
            e.incumbent
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "-".into()),
            e.best_bound
        );
    }
    println!(
        "\nfinal objective {:.0} tokens/s, bound {:.0}, gap {:.1}%, {} nodes in {:.1}s",
        report.objective_tokens_per_sec,
        report.best_bound,
        (report.best_bound - report.objective_tokens_per_sec)
            / report.objective_tokens_per_sec.max(1.0)
            * 100.0,
        report.nodes_explored,
        report.solve_seconds
    );
    let events: Vec<Value> = report
        .events
        .iter()
        .map(|e| {
            json!({
                "elapsed_seconds": e.elapsed_seconds,
                "nodes_explored": e.nodes_explored,
                "incumbent": e.incumbent,
                "best_bound": e.best_bound,
            })
        })
        .collect();
    Ok(run.report(
        "Figure 12",
        json!({
            "events": events,
            "objective": report.objective_tokens_per_sec,
            "best_bound": report.best_bound,
            "upper_bound": profile.throughput_upper_bound(),
        }),
    ))
}

/// Figure 11: ablation on the two MILP optimisations of §4.5 — (a) serving
/// throughput with and without cluster pruning, and (b) placement-search
/// wall-clock time with and without heuristic warm starts.
fn fig11_ablation(run: Run) -> Result<ExperimentReport, BenchError> {
    let scale = run.scale;
    let mut data = serde_json::Map::new();

    // (a) Cluster pruning: plan with and without pruning, compare serving throughput.
    println!("=== Figure 11a: effect of cluster pruning on decode throughput ===");
    println!(
        "{:<12} {:>20} {:>20}",
        "cluster", "pruned placement t/s", "unpruned placement t/s"
    );
    let mut pruning_rows = Vec::new();
    for (name, cluster) in [
        ("24-node", ClusterSpec::geo_distributed_24()),
        ("42-node", ClusterSpec::high_heterogeneity_42()),
    ] {
        let profile = ClusterProfile::analytic(cluster, ModelConfig::llama2_70b());
        let mut throughputs = [0.0; 2];
        for (throughput, prune) in throughputs.iter_mut().zip([Some(12usize), None]) {
            let planner = FlowAnnealingPlanner::new(&profile).with_options(AnnealingOptions {
                iterations: scale.planner_iterations(),
                prune_degree: prune,
                ..Default::default()
            });
            let (placement, _) = planner.solve()?;
            let (metrics, _) = run_with_scheduler(&profile, &placement, HelixIwrr, scale, 111)?;
            *throughput = metrics.decode_throughput();
        }
        println!(
            "{:<12} {:>20.1} {:>20.1}",
            name, throughputs[0], throughputs[1]
        );
        pruning_rows.push(json!({
            "cluster": name, "pruned": throughputs[0], "unpruned": throughputs[1],
        }));
    }
    data.insert("pruning".into(), json!(pruning_rows));

    // (b) Warm starts: exact MILP on the small study cluster, with and without
    // heuristic warm starts; report wall-clock to reach a comparable solution.
    println!("\n=== Figure 11b: effect of heuristic warm starts on MILP solve time ===");
    let profile =
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
    let budget = match scale {
        ExperimentScale::Quick => Duration::from_secs(45),
        ExperimentScale::Full => Duration::from_secs(300),
    };
    let mut warm_rows = Vec::new();
    for warm in [true, false] {
        let start = Instant::now();
        let options = PlannerOptions {
            prune_degree: Some(6),
            warm_start_from_heuristics: warm,
            time_limit: budget,
            node_limit: milp_node_limit(scale),
            ..Default::default()
        };
        let mut planner = MilpPlacementPlanner::with_options(&profile, options);
        let result = planner.solve();
        let elapsed = start.elapsed().as_secs_f64();
        match result {
            Ok((placement, report)) => {
                println!(
                    "warm start {:>5}: objective {:>8.0} tokens/s (flow check {:>8.0}) in {:>6.1}s, {} nodes",
                    warm,
                    report.objective_tokens_per_sec,
                    placement_flow(&profile, &placement),
                    elapsed,
                    report.nodes_explored
                );
                warm_rows.push(json!({
                    "warm_start": warm,
                    "objective": report.objective_tokens_per_sec,
                    "wall_seconds": elapsed,
                    "nodes_explored": report.nodes_explored,
                }));
            }
            // Finding nothing within the budget is the measurement itself.
            Err(e) => {
                println!(
                    "warm start {warm:>5}: no placement within budget ({e}) after {elapsed:.1}s"
                );
                warm_rows.push(json!({
                    "warm_start": warm, "objective": 0.0, "wall_seconds": elapsed,
                }));
            }
        }
    }
    data.insert("warm_start".into(), json!(warm_rows));
    Ok(run.report("Figure 11", Value::Object(data)))
}

/// Figure 9: model-placement deep dive — offline serving of LLaMA 70B with
/// the *same* (Helix IWRR) scheduler but different placements (Helix,
/// Swarm, Petals), on the single and geo-distributed clusters, plus the
/// Fig. 9b case study (per-node layer counts, utilisation and KV tokens).
/// Each row also reports the plan's thinnest-layer KV tokens and how many
/// requests of the scale's mean length they hold at once.
fn fig9_placement_deepdive(run: Run) -> Result<ExperimentReport, BenchError> {
    let scale = run.scale;
    let trace = scale.trace_config();
    let request_tokens = trace.mean_input_tokens + trace.mean_output_tokens;
    let mut data = Vec::new();
    for (cluster_name, cluster) in [
        ("single cluster", ClusterSpec::single_cluster_24()),
        ("geo-distributed", ClusterSpec::geo_distributed_24()),
    ] {
        let profile = ClusterProfile::analytic(cluster, ModelConfig::llama2_70b());
        let helix = FlowAnnealingPlanner::new(&profile).with_options(AnnealingOptions {
            iterations: scale.planner_iterations(),
            ..Default::default()
        });
        let placements = [
            ("Helix", helix.solve().ok().map(|(p, _)| p)),
            ("Swarm", heuristics::swarm_placement(&profile).ok()),
            ("Petals", heuristics::petals_placement(&profile).ok()),
        ];
        println!("\n=== Figure 9a: placement deep dive, LLaMA 70B, {cluster_name} ===");
        println!(
            "{:<8} {:>14} {:>14} {:>8} {:>16} {:>10}",
            "method",
            "max-flow t/s",
            "sim tokens/s",
            "depth",
            "thinnest KV tok",
            format!("≈ {request_tokens:.0}-tok requests")
        );
        for (name, placement) in placements {
            let Some(placement) = placement else { continue };
            // All methods use Helix's IWRR scheduler (paper isolates placement).
            let served = run_with_scheduler(&profile, &placement, HelixIwrr, scale, 91);
            let Ok((metrics, flow)) = served else {
                continue;
            };
            let topology = Topology::plan(&profile, &placement, true)?;
            let thinnest = thinnest_layer_kv(&topology);
            println!(
                "{:<8} {:>14.0} {:>14.1} {:>8} {:>16.0} {:>10.0}",
                name,
                flow,
                metrics.decode_throughput(),
                placement.pipeline_depth(profile.model().num_layers),
                thinnest,
                thinnest / request_tokens
            );
            data.push(json!({
                "cluster": cluster_name,
                "method": name,
                "max_flow": flow,
                "decode_throughput": metrics.decode_throughput(),
                "pipeline_depth": placement.pipeline_depth(profile.model().num_layers),
                "thinnest_layer_kv_tokens": thinnest,
            }));
            if run.case_study && cluster_name == "single cluster" {
                print_case_study(&topology, name)?;
            }
        }
    }
    Ok(run.report("Figure 9", json!({ "rows": data })))
}

/// The KV tokens of a plan's thinnest layer: over the nodes that carry
/// flow, each layer's KV tokens summed, and the smallest sum — what the
/// plan keeps resident for all its requests at once.
fn thinnest_layer_kv(topology: &Topology) -> f64 {
    let mut per_layer = vec![0.0; topology.num_layers()];
    for node in topology.nodes().filter(|n| n.flow > 0.0) {
        let layers = per_layer.get_mut(node.layers.start..node.layers.end);
        for layer in layers.unwrap_or_default() {
            *layer += node.kv_capacity_tokens;
        }
    }
    per_layer.into_iter().fold(f64::INFINITY, f64::min)
}

/// Fig. 9b: per-node layer counts, flow utilisation and KV tokens for one
/// planned placement.
fn print_case_study(topology: &Topology, name: &str) -> Result<(), BenchError> {
    let (profile, placement) = (topology.profile(), topology.placement());
    let graph = FlowGraphBuilder::new(profile).build(placement)?;
    let flow = graph.max_flow();
    let util = graph.node_utilization(&flow);
    println!("  case study ({name}): layers held per node (utilisation, KV tokens)");
    for gpu in [GpuType::A100_40, GpuType::L4, GpuType::T4] {
        let cells: Vec<String> = profile
            .cluster()
            .node_ids()
            .filter(|&id| profile.cluster().node(id).gpu == gpu)
            .map(|id| match (placement.range(id), topology.node(id)) {
                (Some(r), Some(node)) => format!(
                    "{}({:.0}%, {:.0})",
                    r.len(),
                    util.get(&id).copied().unwrap_or(0.0) * 100.0,
                    node.kv_capacity_tokens
                ),
                _ => "-".to_string(),
            })
            .collect();
        println!("    {:<5}: {}", gpu.short_name(), cells.join(" "));
    }
    Ok(())
}

/// Figure 10: request-scheduling deep dive — offline serving of LLaMA 70B
/// on the Helix placement, comparing the IWRR scheduler against Swarm,
/// random and shortest-queue-first scheduling, plus the congestion case
/// study on the geo-distributed cluster (Fig. 10b).
fn fig10_scheduling_deepdive(run: Run) -> Result<ExperimentReport, BenchError> {
    use SchedulerKind::{Random, ShortestQueue, Swarm};
    let scale = run.scale;
    let mut data = Vec::new();
    for (cluster_name, cluster, kinds) in [
        (
            "single cluster",
            ClusterSpec::single_cluster_24(),
            &[HelixIwrr, Swarm, Random][..],
        ),
        (
            "geo-distributed",
            ClusterSpec::geo_distributed_24(),
            &[HelixIwrr, Swarm, Random, ShortestQueue][..],
        ),
    ] {
        let profile = ClusterProfile::analytic(cluster, ModelConfig::llama2_70b());
        // All schedulers run on the placement found by Helix (paper isolates scheduling).
        let (placement, _) = FlowAnnealingPlanner::new(&profile)
            .with_options(AnnealingOptions {
                iterations: scale.planner_iterations(),
                ..Default::default()
            })
            .solve()?;
        println!("\n=== Figure 10a: scheduling deep dive, LLaMA 70B, {cluster_name} ===");
        println!(
            "{:<16} {:>14} {:>14} {:>18}",
            "scheduler", "sim tokens/s", "prompt avg s", "worst link wait s"
        );
        for &kind in kinds {
            let served = run_with_scheduler(&profile, &placement, kind, scale, 101);
            let Ok((metrics, _)) = served else { continue };
            let worst = metrics
                .most_congested_links(1)
                .first()
                .map(|l| l.mean_queue_delay)
                .unwrap_or(0.0);
            println!(
                "{:<16} {:>14.1} {:>14.2} {:>18.3}",
                kind.to_string(),
                metrics.decode_throughput(),
                metrics.avg_prompt_latency(),
                worst
            );
            if run.case_study && cluster_name == "geo-distributed" {
                println!("  most congested links under {kind}:");
                for l in metrics.most_congested_links(3) {
                    let fmt = |e: Option<NodeId>| match e {
                        None => "coordinator".to_string(),
                        Some(n) => profile.cluster().node(n).name.clone(),
                    };
                    println!(
                        "    {:<12} -> {:<12} mean wait {:.3}s max {:.3}s ({} transfers)",
                        fmt(l.from),
                        fmt(l.to),
                        l.mean_queue_delay,
                        l.max_queue_delay,
                        l.transfers
                    );
                }
            }
            data.push(json!({
                "cluster": cluster_name,
                "scheduler": kind.to_string(),
                "decode_throughput": metrics.decode_throughput(),
                "prompt_latency_mean": metrics.avg_prompt_latency(),
                "decode_latency_mean": metrics.avg_decode_latency(),
                "worst_link_mean_wait": worst,
            }));
        }
    }
    Ok(run.report("Figure 10", json!({ "rows": data })))
}

/// Figure 6: single-cluster (24 nodes: 4×A100 + 8×L4 + 12×T4) serving of
/// LLaMA 30B and LLaMA 70B — decode throughput for offline/online serving
/// and prompt/decode latency, comparing Helix, Swarm and separate pipelines.
fn fig6_single_cluster(run: Run) -> Result<ExperimentReport, BenchError> {
    let figure = ServingFigure {
        paper_artifact: "Figure 6 (a-h)",
        title: "Figure 6: single cluster",
        cluster: ClusterSpec::single_cluster_24(),
        models: vec![ModelConfig::llama_30b(), ModelConfig::llama2_70b()],
        systems: &THREE_SYSTEMS,
        seed: 61,
    };
    serving_figure(run, figure)
}

/// Figure 7: geo-distributed clusters (3 regions, 100 Mb/s / 50 ms between
/// them) serving LLaMA 30B and 70B — throughput and latency for Helix,
/// Swarm and separate pipelines.
fn fig7_geo_distributed(run: Run) -> Result<ExperimentReport, BenchError> {
    let figure = ServingFigure {
        paper_artifact: "Figure 7 (a-f)",
        title: "Figure 7: geo-distributed clusters",
        cluster: ClusterSpec::geo_distributed_24(),
        models: vec![ModelConfig::llama_30b(), ModelConfig::llama2_70b()],
        systems: &THREE_SYSTEMS,
        seed: 71,
    };
    serving_figure(run, figure)
}

/// Figure 8: the 42-node, 7-node-type high-heterogeneity cluster serving
/// LLaMA 70B — Helix vs Swarm vs SP vs SP+ (SP alone cannot use V100/T4/2×T4
/// nodes, SP+ adds a mixed pipeline from them).
fn fig8_high_heterogeneity(run: Run) -> Result<ExperimentReport, BenchError> {
    let figure = ServingFigure {
        paper_artifact: "Figure 8 (a-c)",
        title: "Figure 8: high GPU-heterogeneity cluster",
        cluster: ClusterSpec::high_heterogeneity_42(),
        models: vec![ModelConfig::llama2_70b()],
        systems: &[
            SystemKind::Helix,
            SystemKind::Swarm,
            SystemKind::SeparatePipelines,
            SystemKind::SeparatePipelinesPlus,
        ],
        seed: 81,
    };
    serving_figure(run, figure)
}

/// The systems Figs. 6 and 7 compare.
const THREE_SYSTEMS: [SystemKind; 3] = [
    SystemKind::Helix,
    SystemKind::Swarm,
    SystemKind::SeparatePipelines,
];

/// One serving comparison (Figs. 6–8): every system in both settings on
/// one cluster, one table per model.
struct ServingFigure {
    paper_artifact: &'static str,
    /// Table heading; the model's name follows it.
    title: &'static str,
    cluster: ClusterSpec,
    models: Vec<ModelConfig>,
    systems: &'static [SystemKind],
    seed: u64,
}

fn serving_figure(run: Run, figure: ServingFigure) -> Result<ExperimentReport, BenchError> {
    let mut all_rows = Vec::new();
    for model in figure.models {
        let profile = ClusterProfile::analytic(figure.cluster.clone(), model);
        let mut rows = Vec::new();
        for setting in [ServingSetting::Offline, ServingSetting::Online] {
            for &system in figure.systems {
                rows.extend(run_serving(
                    &profile,
                    system,
                    setting,
                    run.scale,
                    figure.seed,
                ));
            }
        }
        let title = format!("{}, {}", figure.title, profile.model().name);
        print_serving_table(&title, &rows);
        // The paper highlights Helix's shallower pipelines under slow networks.
        let depth = |system: SystemKind| {
            let row = rows.iter().find(|r| r.system == system.label());
            row.map(|r| r.pipeline_depth)
        };
        if let (Some(helix), Some(swarm)) = (depth(SystemKind::Helix), depth(SystemKind::Swarm)) {
            println!("pipeline depth: Helix {helix} vs Swarm {swarm}");
        }
        all_rows.extend(rows);
    }
    let rows = all_rows.iter().map(ServingRow::to_json).collect();
    Ok(run.report(figure.paper_artifact, Value::Array(rows)))
}

/// Prints a serving-row table in the shape the paper's figures use; a
/// latency with no sample in the measurement window prints `-`.
fn print_serving_table(title: &str, rows: &[ServingRow]) {
    let cell = |value: Option<f64>, digits: usize| {
        value.map_or_else(|| "-".to_string(), |v| format!("{v:.digits$}"))
    };
    println!("\n=== {title} ===");
    println!(
        "{:<8} {:<8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "system", "setting", "tokens/s", "prompt avg", "prompt p95", "decode avg", "decode p95"
    );
    for r in rows {
        println!(
            "{:<8} {:<8} {:>12.1} {:>12} {:>12} {:>12} {:>12}",
            r.system,
            r.setting,
            r.decode_throughput,
            cell(r.prompt_latency_mean, 2),
            cell(r.prompt_latency_p95, 2),
            cell(r.decode_latency_mean, 3),
            cell(r.decode_latency_p95, 3)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The twelve artifacts the one-command regeneration has always run, in
    /// its order, each once.
    #[test]
    fn the_dispatch_table_names_every_artifact_once_in_order() {
        let names = ARTIFACTS.map(|(name, _)| name);
        assert_eq!(
            names,
            [
                "table1_min_gpus",
                "table3_gpu_catalog",
                "fig2_graph_abstraction",
                "fig5_trace_stats",
                "table8_problem_size",
                "fig12_solver_quality",
                "fig11_ablation",
                "fig9_placement_deepdive",
                "fig10_scheduling_deepdive",
                "fig6_single_cluster",
                "fig7_geo_distributed",
                "fig8_high_heterogeneity",
            ]
        );
        let all = resolve(&["all"]).unwrap();
        assert!(all.iter().map(|(name, _)| *name).eq(names));
        let picked = resolve(&["fig2_graph_abstraction", "table3_gpu_catalog"]).unwrap();
        let picked: Vec<_> = picked.iter().map(|(name, _)| *name).collect();
        assert_eq!(picked, ["fig2_graph_abstraction", "table3_gpu_catalog"]);
    }

    #[test]
    fn an_unknown_name_is_an_error() {
        let err = resolve(&["table1_min_gpus", "fig99_missing"]).unwrap_err();
        assert!(matches!(&err, BenchError::UnknownArtifact(name) if name == "fig99_missing"));
        assert!(err.to_string().contains("fig99_missing"));
    }

    /// The cheapest artifact end to end: its report carries the name it
    /// was run under.
    #[test]
    fn an_artifact_returns_its_report() {
        let run = Run {
            name: "table3_gpu_catalog",
            scale: ExperimentScale::Full,
            case_study: false,
        };
        let report = table3_gpu_catalog(run).unwrap();
        assert_eq!(report.name, "table3_gpu_catalog");
        assert_eq!(report.scale, ExperimentScale::Quick);
        assert_eq!(
            report.data["rows"].as_array().unwrap().len(),
            GpuType::ALL.len()
        );
    }
}
