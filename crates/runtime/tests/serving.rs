//! Integration and property tests for the prototype serving runtime, driven
//! through the session-oriented front door (`ServingBuilder` +
//! `ServingSession`).

use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig, ModelId};
use helix_core::{
    heuristics, HelixError, IwrrScheduler, LayerRange, PerturbationEvent, PlacementDelta,
    RandomScheduler, ReplanReason, Scheduler, ShortestQueueScheduler, Topology,
};
use helix_runtime::{
    ExecutionKind, PagedKvPool, RuntimeConfig, RuntimeError, RuntimeReport, ServingBuilder,
};
use helix_workload::{Request, Workload};
use proptest::prelude::*;

fn profile() -> ClusterProfile {
    ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b())
}

fn swarm_topology(profile: &ClusterProfile) -> Topology {
    let placement = heuristics::swarm_placement(profile).unwrap();
    Topology::plan(profile, &placement, true).unwrap()
}

/// A small deterministic workload: `n` requests with modest prompt/output
/// lengths so tests stay fast even with the analytic cost model.
fn small_workload(n: u64, prompt: usize, output: usize) -> Workload {
    Workload::new(
        (0..n)
            .map(|id| Request {
                id,
                prompt_tokens: prompt,
                output_tokens: output,
                arrival_time: 0.05 * id as f64,
                model: helix_cluster::ModelId::default(),
                ..Request::default()
            })
            .collect(),
    )
}

/// Per-outcome skeleton row: (id, model, prompt, output, pipeline depth).
type OutcomeRow = (u64, usize, usize, usize, usize);
/// Per-worker skeleton row: (node, model, name, layers, prompt, decode).
type NodeRow = (usize, usize, String, usize, u64, u64);

/// The run-invariant skeleton of a report: everything that does not depend
/// on wall-clock timing.  Virtual timestamps (latencies, makespan) jitter
/// with OS scheduling even between two identical batch runs, so equivalence
/// across front doors is asserted on this skeleton: which requests
/// completed, through how deep a pipeline, and which (node, model) workers
/// processed how many tokens — all fully determined by the admission order,
/// which both surfaces share.
fn report_skeleton(report: &RuntimeReport) -> (Vec<OutcomeRow>, Vec<NodeRow>) {
    let mut outcomes: Vec<_> = report
        .outcomes
        .iter()
        .map(|o| {
            (
                o.id,
                o.model.index(),
                o.prompt_tokens,
                o.output_tokens,
                o.pipeline_depth,
            )
        })
        .collect();
    outcomes.sort();
    let nodes: Vec<_> = report
        .nodes
        .iter()
        .map(|n| {
            (
                n.node.index(),
                n.model.index(),
                n.name.clone(),
                n.layers_held,
                n.prompt_tokens,
                n.decode_tokens,
            )
        })
        .collect();
    (outcomes, nodes)
}

#[test]
fn every_request_completes_and_latencies_are_ordered() {
    let profile = profile();
    let topology = swarm_topology(&profile);
    let session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig {
            wall_per_virtual: 0.0005,
            ..RuntimeConfig::default()
        })
        .build()
        .unwrap();
    let workload = small_workload(12, 64, 6);
    let report = session.serve(&workload).unwrap();

    assert_eq!(report.completed(), 12);
    assert_eq!(report.decode_tokens(), 12 * 6);
    assert!(report.decode_throughput() > 0.0);
    assert!(report.makespan > 0.0);
    for outcome in &report.outcomes {
        assert!(outcome.first_token_at >= outcome.arrival);
        assert!(outcome.completed_at >= outcome.first_token_at);
        assert!(outcome.pipeline_depth >= 1);
    }
    // Every pipeline ends at a node holding the last layer, so some node
    // processed decode tokens and some prompt tokens.
    let total_prompt: u64 = report.nodes.iter().map(|n| n.prompt_tokens).sum();
    let total_decode: u64 = report.nodes.iter().map(|n| n.decode_tokens).sum();
    assert!(
        total_prompt >= 12 * 64,
        "prompt tokens flow through at least one stage each"
    );
    assert!(
        total_decode >= 12 * 5,
        "decode iterations flow through at least one stage each"
    );
    // Traffic flowed over coordinator links in both directions.
    assert!(report.links.iter().any(|l| l.from.is_none()));
    assert!(report.links.iter().any(|l| l.to.is_none()));
}

#[test]
fn instant_execution_still_respects_request_lifecycle() {
    let profile = profile();
    let placement = heuristics::petals_placement(&profile).unwrap();
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig::fast_test())
        .build()
        .unwrap();
    let workload = small_workload(30, 32, 3);
    let report = session.serve(&workload).unwrap();
    assert_eq!(report.completed(), 30);
    // With instant execution nothing should be left resident in any KV pool.
    for node in &report.nodes {
        assert!(
            node.kv_rejections == 0,
            "tiny requests never exhaust the pool"
        );
    }
    assert!(report.wall_seconds < 30.0);
}

#[test]
fn baseline_schedulers_run_on_the_same_runtime() {
    let profile = profile();
    let topology = swarm_topology(&profile);
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(RandomScheduler::new(&topology, 11)),
        Box::new(ShortestQueueScheduler::new(&topology)),
    ];
    for scheduler in schedulers {
        let kind = scheduler.kind();
        let session = ServingBuilder::new()
            .topology(&topology)
            .scheduler(scheduler)
            .config(RuntimeConfig::fast_test())
            .build()
            .unwrap();
        let report = session.serve(&small_workload(8, 16, 2)).unwrap();
        assert_eq!(
            report.completed(),
            8,
            "{kind} failed to complete the workload"
        );
    }
}

#[test]
fn two_model_fleet_serves_through_the_runtime() {
    use helix_core::fleet::{fleet_profiles, FleetAnnealingOptions, FleetAnnealingPlanner};
    use helix_core::FleetTopology;

    let profiles = fleet_profiles(
        &ClusterSpec::single_cluster_24(),
        &[ModelConfig::llama_30b(), ModelConfig::llama_13b()],
    );
    let planner = FleetAnnealingPlanner::new(&profiles).with_options(FleetAnnealingOptions {
        iterations: 300,
        ..Default::default()
    });
    let (placement, _) = planner.solve().unwrap();
    let fleet = FleetTopology::plan(&profiles, &placement, true).unwrap();
    // Per-model IWRR schedulers are the builder's default for a fleet.
    let session = ServingBuilder::new()
        .fleet(&fleet)
        .config(RuntimeConfig::fast_test())
        .build()
        .unwrap();

    let workload = Workload::new(
        (0..20u64)
            .map(|id| Request {
                id,
                prompt_tokens: 48,
                output_tokens: 4,
                arrival_time: 0.02 * id as f64,
                model: ModelId((id % 2) as usize),
                ..Request::default()
            })
            .collect(),
    );
    let report = session.serve(&workload).unwrap();
    assert_eq!(report.completed(), 20);
    // Per-model accounting: each model served its half of the requests.
    for m in 0..2 {
        let model = ModelId(m);
        assert_eq!(report.outcomes_for(model).len(), 10);
        assert_eq!(report.decode_tokens_for(model), 10 * 4);
        assert!(report.decode_throughput_for(model) > 0.0);
        assert!(report.prompt_latency_for(model).count == 10);
        // Workers report under their model, on that model's nodes only.
        let nodes: Vec<_> = report.nodes.iter().filter(|n| n.model == model).collect();
        assert!(!nodes.is_empty());
        for outcome in report.outcomes_for(model) {
            assert_eq!(outcome.model, model);
        }
    }
    // The two partitions are disjoint: no node reports under both models.
    for n0 in report.nodes.iter().filter(|n| n.model == ModelId(0)) {
        assert!(!report
            .nodes
            .iter()
            .any(|n| n.model == ModelId(1) && n.node == n0.node));
    }
}

#[test]
fn adaptive_runtime_observes_a_degraded_node_and_replans() {
    // A model/placement with per-stage replicas, so the re-planner has
    // somewhere to shift weight when one replica degrades.
    let profile =
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_13b());
    let topology = {
        let placement = heuristics::swarm_placement(&profile).unwrap();
        Topology::plan(&profile, &placement, true).unwrap()
    };
    let fleet = helix_core::FleetTopology::single(topology.clone());
    let policy = helix_core::ReplanPolicy {
        check_interval_secs: 2.0,
        gap_threshold: 0.25,
        cooldown_secs: 4.0,
        min_occupancy: 0.01,
    };
    let mut session = ServingBuilder::new()
        .fleet(&fleet)
        .replan_policy(policy)
        .config(RuntimeConfig {
            wall_per_virtual: 0.0005,
            ..RuntimeConfig::default()
        })
        .build()
        .unwrap();
    // Degrade the lightest-loaded replica to half speed before serving; the
    // coordinator must *measure* the gap from worker statistics and re-plan.
    let slow = topology
        .nodes()
        .filter(|n| n.flow > 1e-6)
        .min_by(|a, b| {
            a.flow
                .partial_cmp(&b.flow)
                .unwrap()
                .then(a.node.cmp(&b.node))
        })
        .unwrap()
        .node;
    session.schedule(PerturbationEvent::NodeSlowdown {
        at: 0.0,
        node: slow,
        factor: 2.0,
    });
    let workload = small_workload(48, 64, 12);
    let report = session.serve(&workload).unwrap();

    assert_eq!(report.completed(), 48, "drain-then-switch drops nothing");
    assert!(
        !report.replans.is_empty(),
        "the measured slowdown must trigger at least one re-plan"
    );
    let replan = &report.replans[0];
    assert!(matches!(
        replan.reason,
        helix_core::ReplanReason::ThroughputGap { node, speed, .. }
            if node == slow && speed < 0.75
    ));
    assert_eq!(replan.affected, vec![helix_cluster::ModelId(0)]);
    assert!(replan.planned_flow > 0.0);
    // Outcomes stay well-formed across the hand-over.
    for outcome in &report.outcomes {
        assert!(outcome.completed_at >= outcome.first_token_at);
    }
}

#[test]
fn static_runtime_reports_no_replans() {
    let profile = profile();
    let topology = swarm_topology(&profile);
    let session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig::fast_test())
        .build()
        .unwrap();
    let report = session.serve(&small_workload(6, 32, 4)).unwrap();
    assert!(report.replans.is_empty());
}

#[test]
fn unknown_model_requests_are_rejected() {
    let profile = profile();
    let topology = swarm_topology(&profile);
    let session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig::fast_test())
        .build()
        .unwrap();
    let workload = Workload::new(vec![Request {
        id: 0,
        prompt_tokens: 16,
        output_tokens: 2,
        arrival_time: 0.0,
        model: helix_cluster::ModelId(5),
        ..Request::default()
    }]);
    let err = session.serve(&workload).unwrap_err();
    assert!(matches!(err, RuntimeError::Scheduling(_)), "got {err}");
}

#[test]
fn wall_clock_budget_is_enforced() {
    let profile = profile();
    let topology = swarm_topology(&profile);
    let session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig {
            // One virtual second takes ten wall seconds: the run cannot finish
            // inside the 100 ms budget below.
            wall_per_virtual: 10.0,
            max_wall: std::time::Duration::from_millis(100),
            execution: ExecutionKind::Analytic,
        })
        .build()
        .unwrap();
    let err = session.serve(&small_workload(4, 512, 64)).unwrap_err();
    assert!(
        matches!(err, RuntimeError::WallClockBudgetExceeded { .. }),
        "got {err}"
    );
}

#[test]
fn empty_workload_returns_an_empty_report() {
    let profile = profile();
    let topology = swarm_topology(&profile);
    let session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig::fast_test())
        .build()
        .unwrap();
    let report = session.serve(&Workload::new(Vec::new())).unwrap();
    assert_eq!(report.completed(), 0);
    assert_eq!(report.decode_throughput(), 0.0);
}

#[test]
fn runtime_and_simulator_agree_on_scheduler_ranking() {
    // The runtime is an independent implementation of the serving mechanics;
    // the Helix IWRR scheduler should not lose to random scheduling on the
    // same placement (the §6.7 comparison), here measured as decode
    // throughput of an offline burst.
    let profile = profile();
    let topology = swarm_topology(&profile);
    let workload = small_workload(40, 96, 8);

    let run = |scheduler: Box<dyn Scheduler>| {
        let session = ServingBuilder::new()
            .topology(&topology)
            .scheduler(scheduler)
            .config(RuntimeConfig {
                wall_per_virtual: 0.0003,
                ..RuntimeConfig::default()
            })
            .build()
            .unwrap();
        session.serve(&workload).unwrap().decode_throughput()
    };
    // Virtual-time throughput on the threaded runtime is subject to OS
    // scheduling noise (one CPU-starved session collapses its measured
    // rate), so this is a sanity bound rather than a tight one, and the
    // paired comparison retries so a single starved run cannot fail it.
    let mut last = (0.0, 0.0);
    let passed = (0..3).any(|_| {
        let helix = run(Box::new(IwrrScheduler::from_topology(&topology).unwrap()));
        let random = run(Box::new(RandomScheduler::new(&topology, 3)));
        last = (helix, random);
        helix >= random * 0.5
    });
    assert!(
        passed,
        "IWRR ({:.1} tok/s) should not be far behind random ({:.1} tok/s)",
        last.0, last.1
    );
}

#[test]
fn builder_validates_instead_of_panicking() {
    let profile = profile();
    let topology = swarm_topology(&profile);

    // Neither topology nor fleet.
    let err = ServingBuilder::new().build().unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidBuild(_)), "got {err}");

    // Both topology and fleet.
    let fleet = helix_core::FleetTopology::single(topology.clone());
    let err = ServingBuilder::new()
        .topology(&topology)
        .fleet(&fleet)
        .build()
        .unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidBuild(_)), "got {err}");
}

/// A clock scale that maps no virtual time to wall time is a build error,
/// not a panic on the data plane's thread.
#[test]
fn a_bad_wall_per_virtual_is_an_invalid_build() {
    let topology = swarm_topology(&profile());
    for wall_per_virtual in [0.0, -0.002, f64::NAN, f64::INFINITY] {
        let config = RuntimeConfig {
            wall_per_virtual,
            ..RuntimeConfig::fast_test()
        };
        let built = ServingBuilder::new()
            .topology(&topology)
            .config(config)
            .build();
        let err = built.expect_err("a bad scale must not build");
        assert!(
            matches!(err, RuntimeError::InvalidBuild(_)),
            "{wall_per_virtual}: got {err}"
        );
    }
}

#[test]
fn scheduler_count_mismatch_is_a_typed_error_not_a_panic() {
    // A two-model fleet wired with a single scheduler used to hit the
    // `assert_eq!` in `ServingRuntime::new_fleet`; the builder reports it.
    use helix_core::fleet::{fleet_profiles, FleetAnnealingOptions, FleetAnnealingPlanner};
    use helix_core::FleetTopology;
    let profiles = fleet_profiles(
        &ClusterSpec::single_cluster_24(),
        &[ModelConfig::llama_30b(), ModelConfig::llama_13b()],
    );
    let planner = FleetAnnealingPlanner::new(&profiles).with_options(FleetAnnealingOptions {
        iterations: 200,
        ..Default::default()
    });
    let (placement, _) = planner.solve().unwrap();
    let fleet = FleetTopology::plan(&profiles, &placement, true).unwrap();
    let only = IwrrScheduler::from_topology(fleet.model(ModelId(0)).unwrap()).unwrap();
    let err = ServingBuilder::new()
        .fleet(&fleet)
        .scheduler(Box::new(only))
        .config(RuntimeConfig::fast_test())
        .build()
        .unwrap_err();
    assert!(
        matches!(
            err,
            RuntimeError::Scheduling(HelixError::SchedulerCountMismatch {
                models: 2,
                schedulers: 1,
            })
        ),
        "got {err}"
    );
    assert!(err.to_string().contains("one scheduler per model"));
}

#[test]
fn builder_batch_reports_are_skeleton_reproducible() {
    // Two independent builder sessions over the same topology and workload
    // must produce the same report skeleton (timing jitters, scheduling
    // does not).  This pins the determinism contract the removed
    // `ServingRuntime` shims used to be compared against.
    let profile = profile();
    let topology = swarm_topology(&profile);
    let workload = small_workload(8, 32, 3);

    let serve = || {
        ServingBuilder::new()
            .topology(&topology)
            .scheduler(Box::new(IwrrScheduler::from_topology(&topology).unwrap()))
            .config(RuntimeConfig::fast_test())
            .build()
            .unwrap()
            .serve(&workload)
            .unwrap()
    };
    let first = serve();

    let via_default_scheduler = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig::fast_test())
        .build()
        .unwrap()
        .serve(&workload)
        .unwrap();

    assert_eq!(report_skeleton(&first), report_skeleton(&serve()));
    // An explicit IWRR scheduler and the builder-derived default are the
    // same configuration.
    assert_eq!(
        report_skeleton(&first),
        report_skeleton(&via_default_scheduler)
    );
}

#[test]
fn session_tickets_resolve_out_of_order_and_stream_completions() {
    let profile = profile();
    let topology = swarm_topology(&profile);
    let mut session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig::fast_test())
        .build()
        .unwrap();
    let tickets: Vec<_> = small_workload(6, 24, 2)
        .requests()
        .iter()
        .map(|r| session.submit(*r))
        .collect();

    // Wait on a ticket in the middle: other completions buffer, not drop.
    let fourth = session.wait_completion(tickets[3]).unwrap();
    assert_eq!(fourth.id, 3);
    assert_eq!(fourth.output_tokens, 2);

    session.drain().unwrap();
    let rest = session.try_completions();
    assert_eq!(rest.len(), 5, "everything but the awaited ticket");
    assert!(rest.iter().all(|o| o.id != 3));

    let report = session.finish().unwrap();
    assert_eq!(
        report.completed(),
        6,
        "the report still covers all outcomes"
    );
}

#[test]
fn idle_session_time_does_not_burn_the_drain_budget() {
    // The wall budget bounds each drain / completion wait, not session
    // lifetime: a session idle for longer than max_wall must still serve.
    let profile = profile();
    let topology = swarm_topology(&profile);
    let mut session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig {
            max_wall: std::time::Duration::from_millis(250),
            ..RuntimeConfig::fast_test()
        })
        .build()
        .unwrap();
    let ticket = session.submit(Request {
        id: 0,
        prompt_tokens: 16,
        output_tokens: 2,
        arrival_time: 0.0,
        model: ModelId::default(),
        ..Request::default()
    });
    session.wait_completion(ticket).unwrap();
    // Outlive the budget while idle …
    std::thread::sleep(std::time::Duration::from_millis(400));
    // … then serve more: the drain and the wait must both still succeed.
    let ticket = session.submit(Request {
        id: 1,
        prompt_tokens: 16,
        output_tokens: 2,
        arrival_time: 0.0,
        model: ModelId::default(),
        ..Request::default()
    });
    session.wait_completion(ticket).unwrap();
    session.drain().unwrap();
    let report = session.finish().unwrap();
    assert_eq!(report.completed(), 2);
}

/// A deployment that deliberately leaves one (redundant) node out: the
/// profile, the reduced topology, and the spare node with the layer range a
/// scale-out gives it.
fn scale_out_plan() -> (ClusterProfile, Topology, helix_cluster::NodeId, LayerRange) {
    let profile =
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_13b());
    let full = heuristics::swarm_placement(&profile).unwrap();
    let num_layers = profile.model().num_layers;
    let full_topology = Topology::plan(&profile, &full, true).unwrap();
    let assignments: Vec<(helix_cluster::NodeId, LayerRange)> = full.iter().collect();
    // The redundant node with the most planned flow, so the re-planned IWRR
    // weights are sure to route requests through it.
    let (spare, spare_range) = assignments
        .iter()
        .copied()
        .filter(|&(node, _)| {
            let mut reduced = full.clone();
            reduced.clear(node);
            reduced.has_complete_pipeline(num_layers)
                && reduced.validate(&profile).is_ok()
                && Topology::plan(&profile, &reduced, true).is_ok()
        })
        .max_by(|a, b| {
            let flow =
                |n: helix_cluster::NodeId| full_topology.node(n).map(|t| t.flow).unwrap_or(0.0);
            flow(a.0).partial_cmp(&flow(b.0)).unwrap()
        })
        .expect("some node is redundant");

    let mut reduced = full.clone();
    reduced.clear(spare);
    let topology = Topology::plan(&profile, &reduced, true).unwrap();
    (profile, topology, spare, spare_range)
}

#[test]
fn placement_delta_spawns_a_worker_mid_run() {
    // Scale out onto the spare node mid-run through the session control
    // plane: the re-plan must spawn a brand-new worker and route traffic
    // through it — the capability the fixed-at-build worker set could not
    // express.
    let (_profile, topology, spare, spare_range) = scale_out_plan();
    let mut session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig::fast_test())
        .build()
        .unwrap();

    // Scale out: put the model on the spare node mid-run.
    session.schedule(PerturbationEvent::Replan {
        at: 0.0,
        delta: PlacementDelta::new().assign(ModelId(0), spare, spare_range),
    });
    let tickets: Vec<_> = small_workload(40, 24, 3)
        .requests()
        .iter()
        .map(|r| session.submit(*r))
        .collect();
    for ticket in tickets {
        let outcome = session.wait_completion(ticket).unwrap();
        assert!(outcome.completed_at >= outcome.first_token_at);
    }
    let report = session.finish().unwrap();

    assert_eq!(report.completed(), 40);
    assert_eq!(report.replans.len(), 1, "the delta re-planned exactly once");
    assert!(matches!(report.replans[0].reason, ReplanReason::Manual));
    let spawned = report
        .nodes
        .iter()
        .find(|n| n.node == spare)
        .expect("the dynamically spawned worker reports");
    assert_eq!(spawned.layers_held, spare_range.len());
    assert!(
        spawned.batches > 0 && spawned.prompt_tokens + spawned.decode_tokens > 0,
        "the spawned worker served traffic (batches {}, tokens {})",
        spawned.batches,
        spawned.prompt_tokens + spawned.decode_tokens
    );
}

#[test]
fn a_worker_spawned_after_inject_speed_runs_slowed() {
    // Regression test: the slowdown of a node used to reach only the workers
    // that existed at the call, so a slowed node that gained a tenancy later
    // served it at nominal speed (the simulator slows such engines).  Slow
    // the spare node *before* the scale-out spawns its worker, and compare
    // with an unslowed twin.  One request is in flight at a time, so every
    // batch holds one item, both runs route identically and the spare's busy
    // seconds per batch differ by exactly the injected factor.
    let busy_per_batch = |factor: Option<f64>| {
        let (_profile, topology, spare, spare_range) = scale_out_plan();
        let mut session = ServingBuilder::new()
            .topology(&topology)
            .config(RuntimeConfig {
                execution: ExecutionKind::Analytic,
                ..RuntimeConfig::fast_test()
            })
            .build()
            .unwrap();
        if let Some(factor) = factor {
            session.schedule(PerturbationEvent::NodeSlowdown {
                at: 0.0,
                node: spare,
                factor,
            });
        }
        session.schedule(PerturbationEvent::Replan {
            at: 0.0,
            delta: PlacementDelta::new().assign(ModelId(0), spare, spare_range),
        });
        for request in small_workload(16, 24, 3).requests() {
            let ticket = session.submit(*request);
            session.wait_completion(ticket).unwrap();
        }
        let report = session.finish().unwrap();
        assert_eq!(report.completed(), 16);
        let spawned = report.nodes.iter().find(|n| n.node == spare).unwrap();
        assert!(spawned.batches > 0, "the spawned worker served traffic");
        spawned.busy_secs / spawned.batches as f64
    };
    let ratio = busy_per_batch(Some(4.0)) / busy_per_batch(None);
    assert!(
        (ratio - 4.0).abs() < 0.2,
        "the spawned pair ran at {ratio:.2}x its twin's batch time, expected 4x"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Submit-all-then-drain through the live session completes exactly the
    /// workload the legacy batch path completes, with the identical
    /// scheduling skeleton (see [`report_skeleton`] for why raw timestamps
    /// are excluded: they jitter between *any* two runs of the threaded
    /// runtime, including two batch runs).
    #[test]
    fn session_submit_then_drain_matches_batch_serve(
        n in 4u64..10,
        prompt in 16usize..48,
        output in 2usize..4,
    ) {
        let profile = profile();
        let topology = swarm_topology(&profile);
        let workload = small_workload(n, prompt, output);

        let batch = ServingBuilder::new()
            .topology(&topology)
            .config(RuntimeConfig::fast_test())
            .build()
            .unwrap()
            .serve(&workload)
            .unwrap();

        let mut session = ServingBuilder::new()
            .topology(&topology)
            .config(RuntimeConfig::fast_test())
            .build()
            .unwrap();
        for request in workload.requests() {
            session.submit(*request);
        }
        session.drain().unwrap();
        let live = session.finish().unwrap();

        prop_assert_eq!(report_skeleton(&batch), report_skeleton(&live));
        prop_assert_eq!(live.completed(), n as usize);
        prop_assert!(live.replans.is_empty());
    }

    /// The paged KV pool never loses or invents pages under arbitrary
    /// interleavings of appends and releases.
    #[test]
    fn kv_pool_conserves_pages(
        ops in prop::collection::vec((0u64..6, 1usize..200, prop::bool::ANY), 1..60),
        tokens_per_page in 1usize..64,
    ) {
        let mut pool = PagedKvPool::new(2_048.0, tokens_per_page);
        let total = pool.total_pages();
        for (request, tokens, release) in ops {
            if release {
                pool.release(request);
            } else {
                let _ = pool.append_tokens(request, tokens);
            }
            // Page conservation: used + free == total, and utilisation stays in range.
            prop_assert!(pool.used_pages() <= total);
            prop_assert!(pool.utilization() >= 0.0 && pool.utilization() <= 1.0);
            // Token accounting never exceeds what the allocated pages can hold.
            prop_assert!(pool.used_tokens() <= (pool.used_pages() * tokens_per_page) as f64 + 1e-9);
        }
        // Releasing everything returns the pool to empty.
        for request in 0..6u64 {
            pool.release(request);
        }
        prop_assert_eq!(pool.used_pages(), 0);
        prop_assert_eq!(pool.used_tokens(), 0.0);
    }
}

/// A chain placement (disjoint, contiguous ranges, each node taking half its
/// VRAM capacity) so a suffix of one node's range can migrate onto the next
/// node in the chain and merge contiguously.
fn chain_placement(profile: &ClusterProfile) -> helix_core::ModelPlacement {
    let cluster = profile.cluster();
    let mut placement = helix_core::ModelPlacement::empty(cluster.num_nodes());
    let num_layers = profile.model().num_layers;
    let mut start = 0usize;
    for id in cluster.node_ids() {
        if start >= num_layers {
            break;
        }
        let take = (profile.node_profile(id).max_layers / 2)
            .max(1)
            .min(num_layers - start);
        placement.assign(id, LayerRange::new(start, start + take));
        start += take;
    }
    assert!(placement.has_complete_pipeline(num_layers));
    placement
}

/// The smaller model on a half-capacity chain over the 10-node cluster
/// (all of its layers, with headroom for the migrated merge), and a
/// hand-over it admits: the suffix half of a chain node's range moving onto
/// its successor (validated against the profile up front).
fn migratable_chain() -> (
    ClusterProfile,
    Topology,
    (helix_cluster::NodeId, helix_cluster::NodeId, LayerRange),
) {
    let profile =
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_13b());
    let placement = chain_placement(&profile);
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let assigned: Vec<(helix_cluster::NodeId, LayerRange)> = placement.iter().collect();
    let hand_over = assigned
        .windows(2)
        .find_map(|w| {
            let (from, range) = w[0];
            let (to, to_range) = w[1];
            if range.len() < 2 {
                return None;
            }
            let mid = range.start + range.len() / 2;
            let mut mutated = placement.clone();
            mutated.assign(from, LayerRange::new(range.start, mid));
            mutated.assign(to, LayerRange::new(mid, to_range.end));
            (mutated.validate(&profile).is_ok()
                && mutated.has_complete_pipeline(profile.model().num_layers))
            .then_some((from, to, LayerRange::new(mid, range.end)))
        })
        .expect("some adjacent pair is migratable");
    (profile, topology, hand_over)
}

/// The tentpole's runtime-side acceptance test: a mid-run migration of a
/// layer sub-range hands its KV pages over as one transfer on the fabric —
/// re-route, move, both ends frozen until the pages arrive — and no
/// in-flight pipeline is dropped.
#[test]
fn partial_layer_migration_hands_kv_over_without_dropping_pipelines() {
    use helix_core::ReplanReason;
    let (profile, topology, (from, to, moved)) = migratable_chain();

    let mut session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig::fast_test())
        .build()
        .unwrap();
    let tickets: Vec<_> = small_workload(40, 24, 3)
        .requests()
        .iter()
        .map(|r| session.submit(*r))
        .collect();
    // Mid-run: move the layers (and their KV pages) while pipelines fly.
    session.schedule(PerturbationEvent::Replan {
        at: 0.0,
        delta: PlacementDelta::new().migrate(ModelId(0), from, to, moved),
    });
    for ticket in tickets {
        session.wait_completion(ticket).unwrap();
    }
    let report = session.finish().unwrap();

    assert_eq!(report.completed(), 40, "no in-flight pipeline dropped");
    assert_eq!(report.replans.len(), 1, "the migration re-planned once");
    assert!(matches!(report.replans[0].reason, ReplanReason::Manual));
    assert_eq!(report.kv_transfers.len(), 1, "one KV hand-over completed");
    let transfer = &report.kv_transfers[0];
    assert_eq!(transfer.migration.model, ModelId(0));
    assert_eq!(transfer.migration.from, from);
    assert_eq!(transfer.migration.to, to);
    assert_eq!(transfer.migration.layers, moved);
    assert!(transfer.transfer_secs >= 0.0);
    // Pages ship at page granularity with the shared pricing model: bytes
    // are exactly pages × page size for the moved layer count.
    let pricing = helix_core::KvTransferModel::new(
        profile.model().kv_bytes_per_token_per_layer(),
        helix_core::exec_model::DEFAULT_TOKENS_PER_PAGE,
    );
    assert_eq!(
        transfer.bytes,
        transfer.pages as f64 * pricing.page_bytes(moved.len())
    );
    // The destination keeps serving after the hand-over: its worker reports
    // the merged layer count.
    let dest = report
        .nodes
        .iter()
        .find(|n| n.node == to)
        .expect("destination worker reports");
    assert!(dest.batches > 0, "the destination served traffic");
}

/// On a chain every pipeline crosses the frozen source, so while a large
/// pool's pages travel the whole plane comes to rest: every request held,
/// nothing queued but the hand-over's arrival, no arrival pending.  That
/// arrival, which ends the freeze on both rows, is then the last thing the
/// loop wakes for — what they held must start in that same turn, with no
/// session call to nudge it (`wait_completion` sends none).
#[test]
fn a_hand_over_landing_on_a_plane_at_rest_resumes_the_held_work() {
    let (_, topology, (from, to, moved)) = migratable_chain();
    let mut session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig {
            max_wall: std::time::Duration::from_secs(5),
            ..RuntimeConfig::fast_test()
        })
        .build()
        .unwrap();
    // A short canary and long requests, all due at once: when the canary
    // completes the others are resident on every stage and decoding.  Their
    // prompts make the transfer (≈ half a virtual second) outlast many
    // pipeline traversals (≈ 10 ms each).
    let tickets: Vec<_> = (0..12)
        .map(|id| {
            let (prompt_tokens, output_tokens) = if id == 0 { (16, 2) } else { (512, 64) };
            session.submit(Request {
                id,
                prompt_tokens,
                output_tokens,
                ..Request::default()
            })
        })
        .collect();
    session.wait_completion(tickets[0]).unwrap();
    session.schedule(PerturbationEvent::Replan {
        at: 0.0,
        delta: PlacementDelta::new().migrate(ModelId(0), from, to, moved),
    });
    for &ticket in &tickets[1..] {
        session.wait_completion(ticket).unwrap();
    }
    let report = session.finish().unwrap();
    assert_eq!(report.completed(), 12);
    assert_eq!(report.kv_transfers.len(), 1, "the hand-over landed");
}

/// PR 4 edge cases now under test: the wall budget bounds each completion
/// wait (a ticket that never completes times out instead of hanging), a
/// drain that cannot finish inside the budget surfaces the typed error, and
/// finishing after a failed drain tears down cleanly instead of hanging —
/// repeated drains on a healthy session stay idempotent.
#[test]
fn wall_budgets_bound_waits_and_drains_and_finish_after_failure_is_clean() {
    let profile = profile();
    let topology = swarm_topology(&profile);

    // 1. A bogus ticket can never complete: wait_completion returns the
    // budget error after max_wall instead of spinning forever, and the
    // session keeps serving afterwards (repeated drains included).
    let mut session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig {
            max_wall: std::time::Duration::from_millis(200),
            ..RuntimeConfig::fast_test()
        })
        .build()
        .unwrap();
    let ticket = session.submit(Request {
        id: 1,
        prompt_tokens: 16,
        output_tokens: 2,
        arrival_time: 0.0,
        model: ModelId(0),
        ..Request::default()
    });
    session.wait_completion(ticket).unwrap();
    let err = session
        .wait_completion(helix_workload::TicketId(999))
        .unwrap_err();
    assert!(
        matches!(err, RuntimeError::WallClockBudgetExceeded { .. }),
        "got {err}"
    );
    session.drain().unwrap();
    session.drain().unwrap(); // draining twice is harmless
    let report = session.finish().unwrap();
    assert_eq!(report.completed(), 1);

    // 2. A request whose arrival time never comes wedges the drain: the
    // budget expires mid-drain with the typed error, and finish() after the
    // failed drain still tears the data plane down cleanly (the "double
    // finish" path: coordinator_died already joined the thread once).
    let mut session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig {
            max_wall: std::time::Duration::from_millis(200),
            ..RuntimeConfig::fast_test()
        })
        .build()
        .unwrap();
    session.submit(Request {
        id: 7,
        prompt_tokens: 16,
        output_tokens: 2,
        arrival_time: 1e9, // never admitted inside the budget
        model: ModelId(0),
        ..Request::default()
    });
    let err = session.drain().unwrap_err();
    assert!(
        matches!(err, RuntimeError::WallClockBudgetExceeded { .. }),
        "got {err}"
    );
    let err = session.finish().unwrap_err();
    assert!(matches!(err, RuntimeError::Disconnected(_)), "got {err}");
}

#[test]
fn a_500_node_fleet_serves_a_burst_on_a_bounded_thread_count() {
    // Workers are rows of the data plane's table, not threads, so a fleet
    // far beyond thread-per-worker scale serves in one process with a
    // handful of OS threads.  500 nodes, one model, burst submission.
    let spec = helix_cluster::ClusterBuilder::new("stress-500")
        .intra_region(10_000.0, 1.0)
        .add_nodes(
            helix_cluster::GpuType::A100_40,
            100,
            1,
            helix_cluster::Region(0),
        )
        .add_nodes(helix_cluster::GpuType::L4, 150, 1, helix_cluster::Region(0))
        .add_nodes(helix_cluster::GpuType::T4, 250, 1, helix_cluster::Region(0))
        .build();
    let profile = ClusterProfile::analytic(spec, ModelConfig::llama_30b());
    let placement = heuristics::swarm_placement(&profile).unwrap();
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    assert_eq!(
        topology.nodes().count(),
        500,
        "the plan uses the whole fleet"
    );

    #[cfg(target_os = "linux")]
    let threads_before = std::fs::read_dir("/proc/self/task").unwrap().count();

    let mut session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig::fast_test())
        .build()
        .unwrap();
    let total = 100u64;
    let tickets: Vec<_> = (0..total)
        .map(|id| {
            session.submit(Request {
                id,
                prompt_tokens: 32,
                output_tokens: 4,
                arrival_time: 0.0,
                model: ModelId(0),
                ..Request::default()
            })
        })
        .collect();

    // While 500 workers serve the burst, the process must stay on a bounded
    // thread count — the data plane is one thread, not one per worker.  The
    // bound is a delta against the pre-session count so the test harness's
    // own runner threads (one per core) don't distort it.
    #[cfg(target_os = "linux")]
    {
        let threads = std::fs::read_dir("/proc/self/task").unwrap().count();
        assert!(
            threads < threads_before + 10,
            "expected a bounded thread count with 500 workers live, \
             got {threads} (was {threads_before} before the session)"
        );
    }

    for ticket in tickets {
        let outcome = session.wait_completion(ticket).unwrap();
        assert_eq!(outcome.output_tokens, 4);
    }
    let report = session.finish().unwrap();
    assert_eq!(report.completed(), total as usize);
    assert!(report.decode_throughput() > 0.0);
    // Every worker the placement planned reported in.
    assert_eq!(report.nodes.len(), 500);
}

#[test]
fn a_completion_stream_does_not_starve_the_wait_budget() {
    // Regression test: wait_completion used to check its wall-clock budget
    // only when the completion channel went quiet.  A session with a steady
    // stream of *other* tickets' completions would keep the channel busy and
    // the check would never run — waiting on a never-completing ticket
    // blocked for as long as the stream lasted.  The budget must bound the
    // wait regardless of traffic.
    let profile = profile();
    let topology = swarm_topology(&profile);
    let budget = std::time::Duration::from_millis(250);
    let mut session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig {
            max_wall: budget,
            ..RuntimeConfig::fast_test()
        })
        .build()
        .unwrap();
    // Arrivals 2.5 virtual seconds apart stream completions for ~400 ms of
    // wall time (fast_test runs at 0.0002 wall seconds per virtual second)
    // — well past the 250 ms budget, but short enough that the drain below
    // finishes inside a fresh budget window.
    let total = 800u64;
    for id in 0..total {
        session.submit(Request {
            id,
            prompt_tokens: 16,
            output_tokens: 1,
            arrival_time: id as f64 * 2.5,
            model: ModelId(0),
            ..Request::default()
        });
    }
    let waited = std::time::Instant::now();
    let err = session
        .wait_completion(helix_workload::TicketId(u64::MAX))
        .unwrap_err();
    let elapsed = waited.elapsed();
    assert!(
        matches!(err, RuntimeError::WallClockBudgetExceeded { .. }),
        "got {err}"
    );
    // The old code returned only once the stream dried up (~400 ms); the
    // fixed code returns at the budget.  Leave slack for CI jitter while
    // still distinguishing the two behaviours.
    assert!(
        elapsed < budget + std::time::Duration::from_millis(80),
        "budget check starved: waited {elapsed:?} against a {budget:?} budget"
    );
    // The failed wait is non-destructive: the session serves on.
    session.drain().unwrap();
    let report = session.finish().unwrap();
    assert_eq!(report.completed(), total as usize);
}
