//! High-availability behaviour on the simulator surface: KV replication to
//! standby tenancies, replica promotion with bounded token loss on node
//! failure, the abort-and-readmit fallback, flaps, stragglers and
//! partitions scripted as pairs of primitive perturbations, and the
//! shared-prefix refcount leak regressions
//! (migration-seeded copies and fail-over purges must both release cleanly).

use helix_cluster::{
    ClusterBuilder, ClusterProfile, ClusterSpec, GpuType, ModelConfig, ModelId, NodeId, Region,
};
use helix_core::{
    IwrrScheduler, LayerRange, ModelPlacement, PerturbationEvent, PlacementDelta, ReplanReason,
    ReplicationPolicy, Topology,
};
use helix_sim::{ClusterSimulator, FleetRunReport, SimSession, SimulationConfig};
use helix_workload::{Request, Workload};

/// Two-stage pipeline with every stage doubled: nodes 0 and 2 hold the
/// bottom half, nodes 1 and 3 the top half.  Any single node can fail and
/// the other replica of its stage both absorbs the re-plan and acts as the
/// replication standby.
fn redundant_profile() -> (ClusterProfile, ModelPlacement) {
    let cluster = ClusterBuilder::new("ha-redundant-4")
        .intra_region(10_000.0, 1.0)
        .add_nodes(GpuType::A100_80, 4, 1, Region(0))
        .build();
    let profile = ClusterProfile::analytic(cluster, ModelConfig::llama_13b());
    let layers = profile.model().num_layers;
    let half = layers / 2;
    let mut placement = ModelPlacement::empty(4);
    placement.assign(NodeId(0), LayerRange::new(0, half));
    placement.assign(NodeId(2), LayerRange::new(0, half));
    placement.assign(NodeId(1), LayerRange::new(half, layers));
    placement.assign(NodeId(3), LayerRange::new(half, layers));
    placement.validate(&profile).unwrap();
    (profile, placement)
}

/// Same doubled-stage shape split across two regions: regions 0 and 1 each
/// hold a complete pipeline, so partitioning either region away leaves the
/// other serving.
fn two_region_profile() -> (ClusterProfile, ModelPlacement) {
    let cluster = ClusterBuilder::new("ha-two-region")
        .intra_region(10_000.0, 1.0)
        .inter_region(2_000.0, 20.0)
        .add_nodes(GpuType::A100_80, 2, 1, Region(0))
        .add_nodes(GpuType::A100_80, 2, 1, Region(1))
        .build();
    let profile = ClusterProfile::analytic(cluster, ModelConfig::llama_13b());
    let layers = profile.model().num_layers;
    let half = layers / 2;
    let mut placement = ModelPlacement::empty(4);
    placement.assign(NodeId(0), LayerRange::new(0, half));
    placement.assign(NodeId(1), LayerRange::new(half, layers));
    placement.assign(NodeId(2), LayerRange::new(0, half));
    placement.assign(NodeId(3), LayerRange::new(half, layers));
    placement.validate(&profile).unwrap();
    (profile, placement)
}

/// Single chain over the solver-quality cluster (the replanning suite's
/// shape): each node holds a distinct slab, so a partial-layer migration has
/// real KV to hand over.
fn chain_profile() -> (ClusterProfile, ModelPlacement) {
    let profile =
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_13b());
    let num_layers = profile.model().num_layers;
    let mut placement = ModelPlacement::empty(profile.cluster().num_nodes());
    let mut start = 0;
    for id in profile.cluster().node_ids() {
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
    (profile, placement)
}

/// The first adjacent chain pair whose suffix-half move keeps the placement
/// valid (mirrors the conformance suite's `migratable_pair`).
fn migratable_pair(
    profile: &ClusterProfile,
    placement: &ModelPlacement,
) -> (NodeId, NodeId, LayerRange) {
    let assigned: Vec<(NodeId, LayerRange)> = placement.iter().collect();
    assigned
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
            (mutated.validate(profile).is_ok()
                && mutated.has_complete_pipeline(profile.model().num_layers))
            .then_some((from, to, LayerRange::new(mid, range.end)))
        })
        .expect("some adjacent chain pair is migratable")
}

/// A session over the planned simulator, its window long enough for every
/// request to finish.
fn session(profile: &ClusterProfile, placement: &ModelPlacement) -> SimSession {
    let topology = Topology::plan(profile, placement, true).unwrap();
    let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
    let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
    SimSession::new(sim, SimulationConfig::offline(600.0).with_warmup(0.0))
}

/// Scripts `events`, submits `workload` and drains — the simulator stays
/// readable through the session — then reports.
fn drain(
    session: &mut SimSession,
    workload: &Workload,
    events: &[PerturbationEvent],
) -> FleetRunReport {
    events
        .iter()
        .cloned()
        .for_each(|event| session.schedule(event));
    for request in workload.requests() {
        session.submit(*request);
    }
    session.drain();
    session.report()
}

fn steady_requests(n: u64, prompt: usize, output: usize, spacing: f64) -> Workload {
    Workload::new(
        (0..n)
            .map(|i| Request {
                id: i,
                prompt_tokens: prompt,
                output_tokens: output,
                arrival_time: spacing * i as f64,
                model: ModelId(0),
                ..Request::default()
            })
            .collect(),
    )
}

fn run_failover(policy: ReplicationPolicy) -> FleetRunReport {
    let (profile, placement) = redundant_profile();
    let mut session = session(&profile, &placement);
    session.set_replication(policy);
    session.fail_node(NodeId(0), 3.0);
    session.serve(&steady_requests(48, 64, 24, 0.05))
}

/// The headline fail-over guarantee: with RF=2 a mid-run node failure loses
/// zero requests, promotes replicas instead of aborting, and recomputes
/// strictly fewer tokens than the abort-and-readmit fallback would have.
#[test]
fn rf2_failover_promotes_replicas_with_bounded_token_loss() {
    let report = run_failover(ReplicationPolicy::rf2(0, 16));

    assert_eq!(report.metrics.overall.completed_requests, 48);
    assert_eq!(report.failovers.len(), 1);
    let record = &report.failovers[0];
    assert_eq!(record.node, NodeId(0));
    assert!(
        !record.promoted.is_empty(),
        "RF=2 failure should promote replicas, got {record:?}"
    );
    assert!(
        record.aborted.is_empty(),
        "every doomed pipeline had a standby, got {record:?}"
    );
    assert!(
        record.tokens_recomputed < record.abort_recompute_tokens,
        "promotion must beat abort-and-readmit: {} vs {}",
        record.tokens_recomputed,
        record.abort_recompute_tokens
    );
    assert!(record.replica_tokens_used > 0);

    // The trickle itself showed up as replica traffic.
    assert!(report.replication.chunks > 0);
    assert!(report.replication.tokens > 0);
    assert!(report.replication.bytes > 0.0);
}

/// Control run: with replication disabled the same failure falls back to
/// abort-and-readmit — nothing is promoted, every doomed token is recomputed,
/// and no request is lost (availability without the bounded-loss bonus).
#[test]
fn disabled_replication_falls_back_to_abort_and_readmit() {
    let report = run_failover(ReplicationPolicy::disabled());

    assert_eq!(report.metrics.overall.completed_requests, 48);
    assert_eq!(report.failovers.len(), 1);
    let record = &report.failovers[0];
    assert!(record.promoted.is_empty());
    assert!(!record.aborted.is_empty());
    assert_eq!(record.tokens_recomputed, record.abort_recompute_tokens);
    assert_eq!(record.replica_tokens_used, 0);
    assert_eq!(report.replication.tokens, 0);
}

/// Regression for the migration leak: partial-layer migration seeds
/// shared-prefix copies on the destination.  Before the fix those copies
/// were never released (the prefix entry stayed on the source's books and
/// sharers decremented the wrong node), so KV residency never drained.
/// After the fix the prefix entry *moves* with the migration and completions
/// follow the forwarding chain, leaving every engine empty at the end.
#[test]
fn migrated_prefix_residency_releases_cleanly_at_completion() {
    let (profile, placement) = chain_profile();
    let (from, to, moved) = migratable_pair(&profile, &placement);
    let mut session = session(&profile, &placement);
    let workload = steady_requests(40, 96, 8, 0.2).with_shared_prefixes(4, 64, 1.0);
    let migrate = PerturbationEvent::Replan {
        at: 2.0,
        delta: PlacementDelta::new().migrate(ModelId(0), from, to, moved),
    };
    let report = drain(&mut session, &workload, &[migrate]);
    let sim = session.simulator();

    assert_eq!(report.metrics.overall.completed_requests, 40);
    assert!(report.prefix.prefix_hits + report.prefix.prefix_misses > 0);
    for node in profile.cluster().node_ids() {
        if let Some(engine) = sim.engine(node, ModelId(0)) {
            assert_eq!(
                engine.kv.used_tokens(),
                0.0,
                "node {node:?} leaked KV residency after all requests completed"
            );
        }
    }
}

/// Fail-over with shared-prefix sharers in flight: the purge must release
/// prefix references on every engine the doomed pipelines touched (including
/// replica standbys), and resumed incarnations must release their seeded KV
/// at completion — no residual pages anywhere once the run drains.
#[test]
fn node_failure_with_prefix_sharers_leaves_no_kv_residue() {
    let (profile, placement) = redundant_profile();
    let mut session = session(&profile, &placement);
    session.set_replication(ReplicationPolicy::rf2(0, 16));
    let workload = steady_requests(32, 96, 12, 0.1).with_shared_prefixes(4, 64, 1.0);
    let failure = PerturbationEvent::NodeFailure {
        at: 2.0,
        node: NodeId(0),
    };
    let report = drain(&mut session, &workload, &[failure]);
    let sim = session.simulator();

    assert_eq!(report.metrics.overall.completed_requests, 32);
    assert_eq!(report.failovers.len(), 1);
    for node in profile.cluster().node_ids() {
        if let Some(engine) = sim.engine(node, ModelId(0)) {
            assert_eq!(
                engine.kv.used_tokens(),
                0.0,
                "node {node:?} leaked KV residency across the fail-over"
            );
        }
    }
}

/// A flapping node goes down mid-run and rejoins six seconds later (a
/// `NodeFailure`, then a `NodeRejoin`): the fail-over re-routes its pipelines, the rejoin hands its layer ranges
/// back (a `NodeRejoin` re-plan), and the health directory reflects the
/// recovery.  No request is lost across the flap.
#[test]
fn flapping_node_rejoins_and_serves_again() {
    let (profile, placement) = redundant_profile();
    let mut session = session(&profile, &placement);
    session.set_replication(ReplicationPolicy::rf2(0, 16));
    let workload = steady_requests(48, 64, 24, 0.1);
    let flap = [
        PerturbationEvent::NodeFailure {
            at: 3.0,
            node: NodeId(0),
        },
        PerturbationEvent::NodeRejoin {
            at: 9.0,
            node: NodeId(0),
        },
    ];
    let report = drain(&mut session, &workload, &flap);
    let sim = session.simulator();

    assert_eq!(report.metrics.overall.completed_requests, 48);
    assert_eq!(report.failovers.len(), 1);
    assert!(report
        .replans
        .iter()
        .any(|r| matches!(r.reason, ReplanReason::NodeFailure { node } if node == NodeId(0))));
    assert!(report
        .replans
        .iter()
        .any(|r| matches!(r.reason, ReplanReason::NodeRejoin { node } if node == NodeId(0))));
    // The rejoined node holds layers again and is no longer marked down.
    let topology = sim.fleet().model(ModelId(0)).unwrap();
    assert!(topology.node(NodeId(0)).is_some());
    assert!(sim.failed_nodes().is_empty());
}

/// A straggler is a soft perturbation: the node slows down and recovers on
/// schedule (a `NodeSlowdown`, then a `NodeRecovery`) — no fail-over, no re-plan, every request completes.
#[test]
fn straggler_degrades_then_recovers_without_failover() {
    let (profile, placement) = redundant_profile();
    let mut session = session(&profile, &placement);
    session.schedule(PerturbationEvent::NodeSlowdown {
        at: 2.0,
        node: NodeId(1),
        factor: 4.0,
    });
    session.schedule(PerturbationEvent::NodeRecovery {
        at: 7.0,
        node: NodeId(1),
    });
    let report = session.serve(&steady_requests(32, 64, 16, 0.1));

    assert_eq!(report.metrics.overall.completed_requests, 32);
    assert!(report.failovers.is_empty());
}

/// A region partition takes every node of the region down at once and heals
/// later (a `RegionOutage`, then a `NodeRejoin` per node): the surviving region absorbs the traffic, the healed nodes rejoin
/// with their old ranges, and no request is lost.
#[test]
fn region_partition_heals_and_nodes_rejoin() {
    let (profile, placement) = two_region_profile();
    let mut session = session(&profile, &placement);
    let workload = steady_requests(48, 64, 16, 0.1);
    let partition = [
        PerturbationEvent::RegionOutage {
            at: 3.0,
            region: Region(1),
        },
        PerturbationEvent::NodeRejoin {
            at: 9.0,
            node: NodeId(2),
        },
        PerturbationEvent::NodeRejoin {
            at: 9.0,
            node: NodeId(3),
        },
    ];
    let report = drain(&mut session, &workload, &partition);
    let sim = session.simulator();

    assert_eq!(report.metrics.overall.completed_requests, 48);
    // Both partitioned nodes rejoined with their pre-failure ranges.
    for node in [NodeId(2), NodeId(3)] {
        assert!(report
            .replans
            .iter()
            .any(|r| matches!(r.reason, ReplanReason::NodeRejoin { node: n } if n == node)));
        let topology = sim.fleet().model(ModelId(0)).unwrap();
        assert!(topology.node(node).is_some());
    }
}

/// Regression for the missing dead-node dispatch guard: when the failure
/// re-plan is infeasible the old plan keeps serving, and its scheduler still
/// offers pipelines through the dead node.  Model 1 lives solely on node 0,
/// so removing node 0 is infeasible for the fleet and *no* re-plan applies;
/// model 0's IWRR rotation keeps alternating between the dead node 0 and the
/// live node 2.  Admissions arriving after the failure must defer until a
/// live pipeline comes up in rotation — before the guard moved into the
/// shared control plane the simulator black-holed them into the failed
/// engine (7 of 8 completed).
#[test]
fn infeasible_failure_replan_never_dispatches_through_the_dead_node() {
    use helix_core::fleet::fleet_profiles;
    use helix_core::{FleetPlacement, FleetScheduler, FleetTopology};

    let cluster = ClusterBuilder::new("ha-two-model-4")
        .intra_region(10_000.0, 1.0)
        .add_nodes(GpuType::A100_80, 4, 1, Region(0))
        .build();
    let profiles = fleet_profiles(
        &cluster,
        &[ModelConfig::llama_13b(), ModelConfig::llama_13b()],
    );
    let layers = profiles[0].model().num_layers;
    let half = layers / 2;
    let mut redundant = ModelPlacement::empty(4);
    redundant.assign(NodeId(0), LayerRange::new(0, half));
    redundant.assign(NodeId(2), LayerRange::new(0, half));
    redundant.assign(NodeId(1), LayerRange::new(half, layers));
    redundant.assign(NodeId(3), LayerRange::new(half, layers));
    let mut solitary = ModelPlacement::empty(4);
    solitary.assign(NodeId(0), LayerRange::new(0, layers));
    let placement = FleetPlacement::new(vec![redundant, solitary]);
    let fleet = FleetTopology::plan(&profiles, &placement, true).unwrap();
    let sim = ClusterSimulator::new_fleet(&fleet, FleetScheduler::iwrr(&fleet).unwrap());
    let mut session = SimSession::new(sim, SimulationConfig::online(600.0).with_warmup(0.0));

    // Four model-0 requests in flight when node 0 dies at t=1.5, four more
    // arriving afterwards.
    let arrivals = [0.0, 0.0, 0.0, 0.0, 2.9, 3.0, 3.1, 3.2];
    let workload = Workload::new(
        arrivals
            .iter()
            .enumerate()
            .map(|(i, &arrival_time)| Request {
                id: i as u64,
                prompt_tokens: 64,
                output_tokens: 24,
                arrival_time,
                model: ModelId(0),
                ..Request::default()
            })
            .collect(),
    );
    session.fail_node(NodeId(0), 1.5);
    let report = session.serve(&workload);

    assert!(
        report.replans.is_empty(),
        "removing node 0 strands model 1, so the re-plan must be rejected: {:?}",
        report.replans
    );
    assert_eq!(report.failovers.len(), 1);
    assert_eq!(
        report.metrics.overall.completed_requests, 8,
        "every request completes on the surviving node-2 pipelines"
    );
}
