//! Simulator conservation and determinism tests.

use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
use helix_core::{heuristics, IwrrScheduler, Topology};
use helix_sim::{ClusterSimulator, SimulationConfig};
use helix_workload::{ArrivalPattern, AzureTraceConfig, Request, Workload};

fn profile() -> ClusterProfile {
    ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b())
}

fn workload(n: usize, seed: u64) -> Workload {
    AzureTraceConfig {
        mean_input_tokens: 96.0,
        mean_output_tokens: 24.0,
        max_input_tokens: 256,
        max_output_tokens: 48,
    }
    .generate(n, seed)
    .with_arrivals(ArrivalPattern::Offline, seed + 1)
}

fn run(w: &Workload, duration: f64) -> helix_sim::Metrics {
    let profile = profile();
    let placement = heuristics::petals_placement(&profile).unwrap();
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
    let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
    sim.run(w, SimulationConfig::offline(duration).with_warmup(0.0))
}

#[test]
fn generated_tokens_never_exceed_requested_tokens() {
    let w = workload(50, 1);
    let metrics = run(&w, 400.0);
    // Every output token observed at the coordinator corresponds to a token
    // some request asked for; the simulator cannot create tokens from thin air.
    assert!(metrics.decode_tokens <= w.total_output_tokens());
    assert!(metrics.completed_requests as usize <= w.len());
}

#[test]
fn long_enough_run_completes_every_request_exactly_once() {
    let w = workload(25, 2);
    let metrics = run(&w, 3_000.0);
    assert_eq!(metrics.completed_requests as usize, w.len());
    assert_eq!(metrics.decode_tokens, w.total_output_tokens());
    // With every request finished, each produced exactly `output_tokens`
    // tokens, so per-request decode-gap counts add up too.
    assert_eq!(
        metrics.decode_latency.count as u64 + 2 * w.len() as u64 - w.len() as u64,
        w.total_output_tokens(),
        "gaps = total output tokens - one first-token per request"
    );
}

#[test]
fn simulation_is_deterministic() {
    let w = workload(40, 3);
    let a = run(&w, 300.0);
    let b = run(&w, 300.0);
    assert_eq!(a.decode_tokens, b.decode_tokens);
    assert_eq!(a.completed_requests, b.completed_requests);
    assert_eq!(a.prompt_latency, b.prompt_latency);
    assert_eq!(a.decode_latency, b.decode_latency);
}

#[test]
fn more_requests_do_not_reduce_throughput_when_saturated() {
    let small = run(&workload(30, 4), 300.0);
    let large = run(&workload(120, 4), 300.0);
    // A saturated cluster should deliver at least comparable throughput with
    // a larger offline backlog (more batching opportunities, never fewer).
    assert!(
        large.decode_throughput() >= small.decode_throughput() * 0.8,
        "large backlog {} vs small backlog {}",
        large.decode_throughput(),
        small.decode_throughput()
    );
}

#[test]
fn latency_percentiles_are_ordered() {
    let metrics = run(&workload(60, 5), 400.0);
    let p = &metrics.prompt_latency;
    assert!(p.p5 <= p.p25 && p.p25 <= p.p50 && p.p50 <= p.p75 && p.p75 <= p.p95);
    let d = &metrics.decode_latency;
    assert!(d.p5 <= d.p50 && d.p50 <= d.p95);
    assert!(p.mean > 0.0 && d.mean > 0.0);
}

/// A repeated id keeps the request table's semantics: the last spec (shape
/// *and* arrival time) stands for every occurrence, and the id still arrives
/// once per occurrence.  Occurrences admitted together share one flight (one
/// completion, the spec's output tokens once); behind an admission limit of
/// one they run back to back (one completion each).  The counts were
/// captured on the map-keyed simulator this table replaced.
#[test]
fn a_repeated_request_id_arrives_once_per_occurrence_with_its_last_spec() {
    let request = |id, prompt_tokens, output_tokens, arrival_time| Request {
        id,
        prompt_tokens,
        output_tokens,
        arrival_time,
        ..Default::default()
    };
    let w = Workload::new(vec![
        request(1, 64, 8, 0.0),
        request(2, 96, 12, 0.0),
        request(3, 80, 10, 1.0),
        request(3, 48, 7, 1.0),
        request(4, 64, 9, 2.0),
        request(2, 32, 5, 200.0),
    ]);
    let run = |admission_limit: usize| {
        let profile = profile();
        let placement = heuristics::petals_placement(&profile).unwrap();
        let topology = Topology::plan(&profile, &placement, true).unwrap();
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let config = SimulationConfig::offline(2_000.0)
            .with_warmup(0.0)
            .with_admission_limit(admission_limit);
        let metrics = sim.run(&w, config);
        (metrics.completed_requests, metrics.decode_tokens)
    };
    assert_eq!(run(512), (4, 29));
    assert_eq!(run(1), (6, 41));
}
