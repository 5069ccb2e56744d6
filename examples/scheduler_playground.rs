//! Scheduler playground (paper §6.7): fix the model placement and compare
//! Helix's max-flow-weighted IWRR scheduler against Swarm, random and
//! shortest-queue-first scheduling on the geo-distributed cluster.
//!
//! ```text
//! cargo run --release --example scheduler_playground
//! cargo run --release --example scheduler_playground -- 1200   # longer simulated run (seconds)
//! ```

use helix::prelude::*;

fn main() {
    let duration: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(240.0);
    let profile =
        ClusterProfile::analytic(ClusterSpec::geo_distributed_24(), ModelConfig::llama2_70b());

    // One placement for everybody: the Helix flow-optimised placement, so the
    // comparison isolates the scheduling policy (as §6.7 does).
    let planner = FlowAnnealingPlanner::new(&profile).with_options(AnnealingOptions {
        iterations: 3000,
        ..Default::default()
    });
    let (placement, flow) = planner.solve().expect("placement");
    println!(
        "fixed placement: max-flow {:.0} tokens/s, pipeline depth {}",
        flow,
        placement.pipeline_depth(profile.model().num_layers)
    );

    let workload = Workload::azure_like(800, 21).with_arrivals(ArrivalPattern::Offline, 5);
    println!(
        "workload: {} requests, offline, {:.0}s simulated\n",
        workload.len(),
        duration
    );

    // One Topology for everybody: all four schedulers and the simulator
    // consume the same planning artifact.
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let schedulers: Vec<(&str, Box<dyn Scheduler>)> = vec![
        (
            "helix iwrr",
            Box::new(IwrrScheduler::from_topology(&topology).unwrap()),
        ),
        ("swarm", Box::new(SwarmScheduler::new(&topology))),
        ("random", Box::new(RandomScheduler::new(&topology, 17))),
        (
            "shortest queue",
            Box::new(ShortestQueueScheduler::new(&topology)),
        ),
    ];

    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>16}",
        "scheduler", "tokens/s", "prompt (s)", "decode (s)", "worst link (s)"
    );
    for (name, scheduler) in schedulers {
        let sim = ClusterSimulator::new(&topology, scheduler);
        // Admission capped below the cluster's KV budget (see §5.2): the
        // offline default of 512 concurrent conversations would saturate
        // every KV cache and stall all schedulers alike.
        let config = SimulationConfig::offline(duration).with_admission_limit(64);
        let metrics = SimSession::new(sim, config)
            .serve(&workload)
            .metrics
            .overall;
        let worst_link = metrics
            .most_congested_links(1)
            .first()
            .map(|l| l.mean_queue_delay)
            .unwrap_or(0.0);
        println!(
            "{:<16} {:>12.1} {:>12.2} {:>12.3} {:>16.3}",
            name,
            metrics.decode_throughput(),
            metrics.avg_prompt_latency(),
            metrics.avg_decode_latency(),
            worst_link
        );
    }

    println!(
        "\nThe IWRR scheduler follows the max-flow edge weights, so it avoids piling requests\n\
         onto the slow inter-region links; the baselines congest them instead (paper Fig. 10)."
    );
}
