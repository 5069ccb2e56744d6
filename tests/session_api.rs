//! One generic driver over both serving surfaces: the `ServingFrontEnd`
//! trait lets the same code serve a workload through the threaded prototype
//! runtime (`ServingSession`) and the discrete-event simulator
//! (`SimSession`).

use helix::front::ServingFrontEnd;
use helix::prelude::*;

fn topology() -> Topology {
    let profile =
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
    let placement = heuristics::swarm_placement(&profile).unwrap();
    Topology::plan(&profile, &placement, true).unwrap()
}

fn workload(n: u64) -> Workload {
    Workload::new(
        (0..n)
            .map(|id| Request {
                id,
                prompt_tokens: 32,
                output_tokens: 3,
                arrival_time: 0.02 * id as f64,
                model: Default::default(),
                ..Request::default()
            })
            .collect(),
    )
}

/// The generic driver: any front end, one flow.
fn serve_through<F>(front: F, workload: &Workload) -> F::Report
where
    F: ServingFrontEnd,
{
    front.serve(workload).expect("the front end serves")
}

#[test]
fn one_driver_serves_runtime_and_simulator() {
    let topology = topology();
    let workload = workload(12);

    // The threaded prototype runtime.
    let session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig::fast_test())
        .build()
        .unwrap();
    let runtime_report = serve_through(session, &workload);
    assert_eq!(runtime_report.completed(), 12);

    // The discrete-event simulator.
    let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
    let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
    let sim_session = SimSession::new(sim, SimulationConfig::offline(120.0).with_warmup(0.0));
    let sim_report = serve_through(sim_session, &workload);
    assert_eq!(sim_report.metrics.overall.completed_requests, 12);

    // Both surfaces served the same requests end to end and generated the
    // same number of output tokens (the sim ran with zero warm-up, so no
    // token falls outside its measurement window).
    assert_eq!(
        runtime_report.decode_tokens(),
        sim_report.metrics.overall.decode_tokens
    );
}

/// `node` at `factor`× its cost model from the clock's reading on.
fn slowdown(node: NodeId, factor: f64) -> PerturbationEvent {
    PerturbationEvent::NodeSlowdown {
        at: 0.0,
        node,
        factor,
    }
}

#[test]
fn injected_slowdown_works_through_the_trait_on_both_surfaces() {
    let topology = topology();
    let slow = topology
        .nodes()
        .max_by(|a, b| a.flow.partial_cmp(&b.flow).unwrap())
        .unwrap()
        .node;
    let workload = workload(16);

    // Runtime: inject, then serve — the run completes regardless.
    let mut session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig::fast_test())
        .build()
        .unwrap();
    ServingFrontEnd::schedule(&mut session, slowdown(slow, 3.0));
    let report = serve_through(session, &workload);
    assert_eq!(report.completed(), 16);

    // Simulator: the same injection measurably slows the batch.
    let run = |factor: Option<f64>| {
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let mut front = SimSession::new(sim, SimulationConfig::offline(200.0).with_warmup(0.0));
        if let Some(factor) = factor {
            ServingFrontEnd::schedule(&mut front, slowdown(slow, factor));
        }
        serve_through(front, &workload)
    };
    let healthy = run(None);
    let degraded = run(Some(4.0));
    assert!(
        degraded.metrics.overall.decode_throughput() < healthy.metrics.overall.decode_throughput()
    );
}
