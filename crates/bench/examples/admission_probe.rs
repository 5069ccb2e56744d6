//! Admission probe (ROADMAP item 1(a)): how the simulator's count cap on
//! admitted requests moves served throughput.  The 24-node single cluster
//! serves LLaMA-2-70B offline on the Helix plan the figures use
//! (`FlowAnnealingPlanner` with quick scale's iterations) under IWRR, once
//! per cap, with 6 000 quick-trace requests all arriving at time 0.
//!
//! ```text
//! cargo run --release -p helix-bench --example admission_probe
//! cargo run --release -p helix-bench --example admission_probe -- 91   # another workload seed
//! ```

use helix_bench::ExperimentScale;
use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
use helix_core::{AnnealingOptions, FlowAnnealingPlanner, HelixError, IwrrScheduler, Topology};
use helix_sim::{ClusterSimulator, SimSession, SimulationConfig};
use helix_workload::{ArrivalPattern, AzureTraceConfig};

/// The admission caps probed (`SimulationConfig::offline` defaults to 512).
const CAPS: [usize; 5] = [64, 256, 512, 1_024, 2_048];
const REQUESTS: usize = 6_000;
/// Simulated seconds, the first tenth of them warm-up.
const DURATION_SECS: f64 = 300.0;

fn main() -> Result<(), HelixError> {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);
    let profile =
        ClusterProfile::analytic(ClusterSpec::single_cluster_24(), ModelConfig::llama2_70b());
    let planner = FlowAnnealingPlanner::new(&profile).with_options(AnnealingOptions {
        iterations: ExperimentScale::Quick.planner_iterations(),
        ..Default::default()
    });
    let (placement, _) = planner.solve()?;
    let topology = Topology::plan(&profile, &placement, true)?;
    // Quick scale's trace: 256-token prompts and 64-token outputs on average.
    let trace = AzureTraceConfig {
        mean_input_tokens: 256.0,
        mean_output_tokens: 64.0,
        max_input_tokens: 1024,
        max_output_tokens: 256,
    };
    let workload = trace
        .generate(REQUESTS, seed)
        .with_arrivals(ArrivalPattern::Offline, seed + 1);
    println!(
        "planned flow {:.0} tok/s, {} pipelines; {REQUESTS} requests, seed {seed}, {DURATION_SECS} s",
        topology.flow_value(),
        topology.num_pipelines()
    );
    println!(
        "{:>9} {:>16} {:>12} {:>16}",
        "cap", "decode tok/s", "completed", "decode gap (s)"
    );
    for cap in CAPS {
        let scheduler = IwrrScheduler::from_topology(&topology)?;
        let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let config = SimulationConfig::offline(DURATION_SECS).with_admission_limit(cap);
        let metrics = SimSession::new(sim, config)
            .serve(&workload)
            .metrics
            .overall;
        let gap = match metrics.decode_latency.count {
            0 => "—".to_string(),
            _ => format!("{:.2}", metrics.decode_latency.mean),
        };
        println!(
            "{cap:>9} {:>16.1} {:>12} {gap:>16}",
            metrics.decode_throughput(),
            metrics.completed_requests
        );
    }
    Ok(())
}
