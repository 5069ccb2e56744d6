//! Online re-planning: the closed observe → re-derive → re-solve → hand-over
//! loop absorbing a degraded node mid-run.
//!
//! A LLaMA-2 13B deployment serves a saturating workload on the 10-node
//! heterogeneous cluster.  At t=120s one stage replica silently starts
//! running its batches twice as slow as the cost model predicts (thermal
//! throttling, a noisy co-tenant — the planner is not told which).  The
//! simulator measures every engine's predicted-vs-actual busy time over
//! 10-second windows; when the shared `ReplanPolicy` sees the gap, the
//! standing `FleetTopology` re-plans with the *measured* node speed in place
//! of the analytic compute share, and the new IWRR weights are handed over
//! drain-then-switch — in-flight pipelines finish on their old routes while
//! new requests steer around the slow replica.
//!
//! ```text
//! cargo run --release --example online_replanning
//! ```

use helix::prelude::*;
use helix_core::{ReplanPolicy, ReplanReason};
use helix_sim::{ClusterSimulator, SimSession, SimulationConfig};
use helix_workload::AzureTraceConfig;

fn main() {
    // 1. Plan the static deployment: balanced stages with replicas, so the
    //    re-planner has somewhere to shift flow when one replica degrades.
    let profile =
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_13b());
    let placement = heuristics::swarm_placement(&profile).expect("swarm placement");
    let topology = Topology::plan(&profile, &placement, true).expect("topology");
    println!(
        "planned {} nodes, {:.0} tokens/s max flow",
        topology.nodes().count(),
        topology.flow_value()
    );

    // 2. Pick the lightest-loaded replica and script its degradation: from
    //    t=120s its batches take 2x the cost model's prediction.
    let slow = topology
        .nodes()
        .filter(|n| n.flow > 1e-6)
        .min_by(|a, b| a.flow.partial_cmp(&b.flow).unwrap())
        .expect("some node carries flow")
        .node;
    let perturb_at = 120.0;
    println!("scripted: {slow:?} runs 2x slow from t={perturb_at}s\n");

    // 3. A saturating offline workload and the shared re-plan policy.
    let workload = AzureTraceConfig {
        mean_input_tokens: 128.0,
        mean_output_tokens: 48.0,
        max_input_tokens: 384,
        max_output_tokens: 96,
    }
    .generate(8000, 9)
    .with_arrivals(ArrivalPattern::Offline, 4);
    let policy = ReplanPolicy {
        check_interval_secs: 10.0,
        gap_threshold: 0.25,
        cooldown_secs: 30.0,
        min_occupancy: 0.05,
    };
    let config = SimulationConfig::offline(420.0)
        .with_warmup(0.0)
        .with_admission_limit(64);

    // 4. Serve with the loop closed, through the session front door: the
    //    scripted slowdown and the whole trace are queued on the session,
    //    then one drain runs the feedback loop end to end.
    let scheduler = IwrrScheduler::from_topology(&topology).expect("scheduler");
    let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
    let mut session = SimSession::new(sim, config).with_policy(policy);
    session.schedule(PerturbationEvent::NodeSlowdown {
        at: perturb_at,
        node: slow,
        factor: 2.0,
    });
    for request in workload.requests() {
        session.submit(*request);
    }
    session.drain();
    let report = session.report();

    // 5. The windowed interval metrics show the dip and the recovery.
    println!("window        tokens/s");
    for w in &report.intervals {
        let marks = [
            if w.start < perturb_at && perturb_at <= w.end {
                "  <- slowdown hits"
            } else {
                ""
            },
            if report
                .replans
                .iter()
                .any(|r| w.start < r.at && r.at <= w.end)
            {
                "  <- re-plan applied"
            } else {
                ""
            },
        ]
        .concat();
        println!(
            "{:>5.0}-{:<5.0} {:>8.1}{marks}",
            w.start,
            w.end,
            w.total_throughput()
        );
    }

    println!("\nre-plan log:");
    for r in &report.replans {
        match r.reason {
            ReplanReason::ThroughputGap { node, model, speed } => println!(
                "  t={:>5.0}s  {node:?}/{model} measured at {:.0}% of modeled speed -> \
                 re-planned {:?}, planned flow now {:.0} tokens/s",
                r.at,
                speed * 100.0,
                r.affected,
                r.planned_flow
            ),
            other => println!("  t={:>5.0}s  {other:?} -> {:?}", r.at, r.affected),
        }
    }
    let replan_at = report
        .replans
        .first()
        .map(|r| r.at)
        .expect("the slowdown must trigger a re-plan");

    // 6. Recovery, measured the way the test suite measures it.
    let mean = |from: f64, to: f64| {
        let w: Vec<f64> = report
            .intervals
            .iter()
            .filter(|w| w.start >= from && w.end <= to)
            .map(|w| w.total_throughput())
            .collect();
        w.iter().sum::<f64>() / w.len().max(1) as f64
    };
    let pre = mean(40.0, perturb_at);
    let dip = mean(perturb_at, replan_at + 40.0);
    let post = mean(replan_at + 60.0, replan_at + 180.0);
    println!("\npre-perturbation throughput:  {pre:>7.1} tokens/s");
    println!("during dip (pre-recovery):    {dip:>7.1} tokens/s");
    println!(
        "after re-plan settles:        {post:>7.1} tokens/s  ({:.0}% of healthy)",
        100.0 * post / pre
    );
    println!(
        "\nobserved compute share of {slow:?} after feedback: {:.2}",
        session
            .simulator()
            .fleet()
            .compute_share(helix_cluster::ModelId(0), slow)
    );
}
