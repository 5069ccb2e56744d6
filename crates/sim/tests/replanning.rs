//! Closed-loop re-planning under mid-run perturbations: the simulator
//! observes its engines, the shared [`ReplanPolicy`] fires on the observed
//! throughput gap, and [`FleetTopology::replan`] re-routes traffic — the
//! recovery the ROADMAP's online re-planning item asked for.

use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig, ModelId, NodeId};
use helix_core::{
    heuristics, IwrrScheduler, PerturbationEvent, PlacementDelta, ReplanPolicy, ReplanReason,
    Topology,
};
use helix_sim::{ClusterSimulator, SimSession, SimulationConfig};
use helix_workload::{ArrivalPattern, Workload};

fn profile() -> ClusterProfile {
    ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_13b())
}

/// Swarm's balanced stages replicate every layer range over several nodes,
/// so the planner has somewhere to shift flow when one replica degrades.
fn topology(profile: &ClusterProfile) -> Topology {
    let placement = heuristics::swarm_placement(profile).unwrap();
    Topology::plan(profile, &placement, true).unwrap()
}

fn saturating_workload(n: usize) -> Workload {
    let config = helix_workload::AzureTraceConfig {
        mean_input_tokens: 128.0,
        mean_output_tokens: 48.0,
        max_input_tokens: 384,
        max_output_tokens: 96,
    };
    config
        .generate(n, 9)
        .with_arrivals(ArrivalPattern::Offline, 4)
}

/// A session over a fresh one-model simulator under IWRR with `events`
/// scripted, its loop closed by `policy` if one is given.
fn session(
    topology: &Topology,
    config: SimulationConfig,
    events: &[PerturbationEvent],
    policy: Option<ReplanPolicy>,
) -> SimSession {
    let scheduler = IwrrScheduler::from_topology(topology).unwrap();
    let sim = ClusterSimulator::new(topology, Box::new(scheduler));
    let mut session = SimSession::new(sim, config);
    if let Some(policy) = policy {
        session = session.with_policy(policy);
    }
    events
        .iter()
        .cloned()
        .for_each(|event| session.schedule(event));
    session
}

/// Mean fleet-total interval throughput over windows inside `[from, to)`.
fn mean_window_throughput(intervals: &[helix_sim::IntervalMetrics], from: f64, to: f64) -> f64 {
    let windows: Vec<f64> = intervals
        .iter()
        .filter(|w| w.start >= from && w.end <= to)
        .map(|w| w.total_throughput())
        .collect();
    assert!(!windows.is_empty(), "no complete window in [{from}, {to})");
    windows.iter().sum::<f64>() / windows.len() as f64
}

/// The busiest node among those with the smallest positive flow share — a
/// stage replica the rest of its stage can cover for, so a slowdown is
/// recoverable by routing around it.
fn modest_flow_node(topology: &Topology) -> NodeId {
    topology
        .nodes()
        .filter(|n| n.flow > 1e-6)
        .min_by(|a, b| {
            a.flow
                .partial_cmp(&b.flow)
                .unwrap()
                .then(a.node.cmp(&b.node))
        })
        .expect("some node carries flow")
        .node
}

#[test]
fn slowdown_triggers_replan_and_recovers_ninety_percent() {
    let profile = profile();
    let topology = topology(&profile);
    let slow = modest_flow_node(&topology);
    let perturb_at = 120.0;
    let recover_at = 360.0;
    let end = 540.0;
    let events = [
        PerturbationEvent::NodeSlowdown {
            at: perturb_at,
            node: slow,
            factor: 2.0,
        },
        PerturbationEvent::NodeRecovery {
            at: recover_at,
            node: slow,
        },
    ];
    let policy = ReplanPolicy {
        check_interval_secs: 10.0,
        gap_threshold: 0.25,
        cooldown_secs: 30.0,
        min_occupancy: 0.05,
    };
    // Enough work to keep the cluster saturated through the whole horizon.
    let workload = saturating_workload(12000);
    let config = SimulationConfig::offline(end)
        .with_warmup(0.0)
        .with_admission_limit(64);

    let mut session = session(&topology, config, &events, Some(policy));
    for request in workload.requests() {
        session.submit(*request);
    }
    session.drain();
    let report = session.report();

    // The loop fired: at least one gap-triggered re-plan after the slowdown.
    let gap_replans: Vec<_> = report
        .replans
        .iter()
        .filter(|r| {
            matches!(
                r.reason,
                ReplanReason::ThroughputGap { node, speed, .. }
                    if node == slow && speed < 0.75
            )
        })
        .collect();
    assert!(
        !gap_replans.is_empty(),
        "the 2x slowdown must trigger a re-plan; log: {:?}",
        report.replans
    );
    let replan_at = gap_replans[0].at;
    assert!(replan_at >= perturb_at, "re-plan follows the slowdown");

    // Recovery: steady-state throughput after the re-plan settles is at
    // least 90% of the pre-perturbation steady state.
    let pre = mean_window_throughput(&report.intervals, 40.0, perturb_at);
    let post = mean_window_throughput(&report.intervals, replan_at + 60.0, replan_at + 180.0);
    assert!(
        post >= 0.9 * pre,
        "post-re-plan throughput {post:.1} tok/s must recover >= 90% of \
         pre-perturbation {pre:.1} tok/s (re-plan at {replan_at})"
    );

    // The gap is measured against the *plan*: once the slowdown is priced
    // in, the policy goes quiet instead of re-firing every cooldown.
    let replans_between: usize = report
        .replans
        .iter()
        .filter(|r| r.at > replan_at && r.at < recover_at)
        .count();
    assert!(
        replans_between <= 1,
        "a priced-in slowdown must not re-fire the loop every cooldown; \
         got {replans_between} extra re-plans: {:?}",
        report.replans
    );

    // When the node recovers, the upward drift re-prices it back to full
    // speed.
    let recovered = report.replans.iter().any(|r| {
        r.at >= recover_at
            && matches!(r.reason, ReplanReason::ThroughputGap { node, .. } if node == slow)
    });
    assert!(
        recovered,
        "recovery must fire the loop; log: {:?}",
        report.replans
    );
    assert_eq!(
        session.simulator().fleet().compute_share(ModelId(0), slow),
        1.0,
        "the recovered node is re-priced at full speed"
    );
}

#[test]
fn replanning_beats_not_replanning_under_the_same_slowdown() {
    let profile = profile();
    let topology = topology(&profile);
    let slow = modest_flow_node(&topology);
    let events = [PerturbationEvent::NodeSlowdown {
        at: 60.0,
        node: slow,
        factor: 4.0,
    }];
    let config = SimulationConfig::offline(360.0)
        .with_warmup(60.0)
        .with_admission_limit(64);
    let run = |policy: Option<ReplanPolicy>| {
        session(&topology, config, &events, policy).serve(&saturating_workload(2500))
    };
    let with_loop = run(Some(ReplanPolicy::default()));
    let without_loop = run(None);
    assert!(!with_loop.replans.is_empty());
    assert!(without_loop.replans.is_empty());
    // The closed loop never loses to the frozen plan under drift (small
    // tolerance absorbs scheduling noise).
    assert!(
        with_loop.metrics.overall.decode_throughput()
            >= without_loop.metrics.overall.decode_throughput() * 0.97,
        "with loop {:.1} vs frozen {:.1}",
        with_loop.metrics.overall.decode_throughput(),
        without_loop.metrics.overall.decode_throughput()
    );
}

#[test]
fn arrival_rate_shift_compresses_late_arrivals() {
    let profile = profile();
    let topology = topology(&profile);
    let workload = saturating_workload(120).with_arrivals(ArrivalPattern::constant_rate(1.0), 5);
    let config = SimulationConfig::online(400.0).with_warmup(0.0);
    let run = |workload: &Workload| session(&topology, config, &[], None).serve(workload);
    let steady = run(&workload);
    // Doubling the arrival rate from t=30 squeezes the same requests into a
    // shorter horizon: every request still completes, sooner.
    let burst = run(&workload.clone().with_rate_shift(30.0, 2.0));
    assert_eq!(
        steady.metrics.overall.completed_requests,
        burst.metrics.overall.completed_requests
    );
    assert!(burst.metrics.overall.measured_seconds <= steady.metrics.overall.measured_seconds);
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
        placement.assign(id, helix_core::LayerRange::new(start, start + take));
        start += take;
    }
    assert!(placement.has_complete_pipeline(num_layers));
    placement
}

/// Picks an adjacent chain pair `(from, to, moved)` such that moving the
/// suffix `moved` of `from`'s range onto `to` keeps the placement valid.
fn migratable_pair(
    profile: &ClusterProfile,
    placement: &helix_core::ModelPlacement,
) -> (NodeId, NodeId, helix_core::LayerRange) {
    let assigned: Vec<(NodeId, helix_core::LayerRange)> = placement.iter().collect();
    for window in assigned.windows(2) {
        let (from, from_range) = window[0];
        let (to, _) = window[1];
        if from_range.len() < 2 {
            continue;
        }
        let mid = from_range.start + from_range.len() / 2;
        let moved = helix_core::LayerRange::new(mid, from_range.end);
        let mut mutated = placement.clone();
        mutated.assign(from, helix_core::LayerRange::new(from_range.start, mid));
        mutated.assign(
            to,
            helix_core::LayerRange::new(mid, placement.range(to).unwrap().end),
        );
        if mutated.validate(profile).is_ok()
            && mutated.has_complete_pipeline(profile.model().num_layers)
        {
            return (from, to, moved);
        }
    }
    panic!("no migratable adjacent pair in the chain");
}

/// The tentpole's simulator-side acceptance test: a mid-run migration of a
/// layer sub-range moves its KV pages over the inter-node link, drops no
/// in-flight pipeline, and leaves the session serving within 10% of a fresh
/// plan of the post-migration placement.
#[test]
fn partial_layer_migration_moves_kv_and_matches_a_fresh_plan() {
    use helix_sim::SimSession;
    let profile = profile();
    let placement = chain_placement(&profile);
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let (from, to, moved) = migratable_pair(&profile, &placement);
    let config = SimulationConfig::offline(500.0).with_warmup(0.0);

    let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
    let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
    let mut session = SimSession::new(sim, config);

    // Batch 1 carries the migration mid-run: requests are in flight (KV
    // resident on `from`) when the hand-over fires at t=5.
    session.schedule(PerturbationEvent::Replan {
        at: 5.0,
        delta: PlacementDelta::new().migrate(ModelId(0), from, to, moved),
    });
    let batch1 = saturating_workload(60);
    for request in batch1.requests() {
        session.submit(*request);
    }
    session.drain();
    let first = session.report();

    // The KV pages moved as link traffic, and nothing was dropped.
    assert_eq!(first.replans.len(), 1, "the migration re-planned once");
    assert!(matches!(first.replans[0].reason, ReplanReason::Manual));
    assert_eq!(first.kv_transfers.len(), 1);
    let transfer = &first.kv_transfers[0];
    assert_eq!(transfer.migration.from, from);
    assert_eq!(transfer.migration.to, to);
    assert_eq!(transfer.migration.layers, moved);
    assert!(transfer.tokens > 0.0, "KV was resident when the move fired");
    assert!(transfer.pages > 0);
    assert!(transfer.bytes > 0.0);
    assert!(transfer.transfer_secs > 0.0);
    assert_eq!(
        first.metrics.overall.completed_requests, 60,
        "no in-flight pipeline dropped"
    );
    // The fleet now realises the migrated placement.
    let migrated_placement = session.simulator().fleet().placement().placements()[0].clone();
    assert_eq!(migrated_placement.range(from).unwrap().end, moved.start);

    // Batch 2 runs entirely on the migrated plan; a fresh session planned
    // from scratch on the same placement must serve it within 10%.
    let batch2 = saturating_workload(60);
    for request in batch2.requests() {
        session.submit(*request);
    }
    session.drain();
    let merged = session.report();
    let batch2_tokens =
        (merged.metrics.overall.decode_tokens - first.metrics.overall.decode_tokens) as f64;
    let batch2_secs =
        merged.metrics.overall.measured_seconds - first.metrics.overall.measured_seconds;
    let migrated_throughput = batch2_tokens / batch2_secs;
    assert_eq!(merged.metrics.overall.completed_requests, 120);

    let fresh_topology = Topology::plan(&profile, &migrated_placement, true).unwrap();
    let fresh_scheduler = IwrrScheduler::from_topology(&fresh_topology).unwrap();
    let fresh_sim = ClusterSimulator::new(&fresh_topology, Box::new(fresh_scheduler));
    let mut fresh_session = SimSession::new(fresh_sim, config);
    for request in batch2.requests() {
        fresh_session.submit(*request);
    }
    let fresh = fresh_session.finish();
    let fresh_throughput = fresh.metrics.overall.decode_throughput();
    let ratio = migrated_throughput / fresh_throughput;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "post-migration throughput {migrated_throughput:.1} vs fresh plan {fresh_throughput:.1} (ratio {ratio:.3})"
    );
}

/// The ROADMAP's "contention re-splitting of live engines" item, closed with
/// an enforced assertion: after a mid-run tenancy change on a shared node,
/// the *surviving* engine's execution-speed profile equals a freshly created
/// engine's under the new analytic contention split (it used to keep its
/// creation-time split forever).
#[test]
fn tenancy_change_resplits_surviving_engine_speed_profiles() {
    use helix_core::fleet::{fleet_profiles, FleetPlacement, FleetTopology};
    use helix_core::{ExecModel, FleetScheduler};
    let cluster = ClusterSpec::solver_quality_10();
    let profiles = fleet_profiles(
        &cluster,
        &[ModelConfig::llama_13b(), ModelConfig::llama_13b()],
    );
    // Both models share every chain node 50/50; at least one node stays free.
    let shared = chain_placement(&profiles[0]);
    let fleet_placement = FleetPlacement::new(vec![shared.clone(), shared.clone()]);
    fleet_placement.validate(&profiles).unwrap();
    let used: Vec<NodeId> = shared.iter().map(|(n, _)| n).collect();
    let free = cluster
        .node_ids()
        .find(|id| !used.contains(id))
        .expect("the half-size chain leaves a node free");
    // Move model 1's whole range off some shared node whose range fits the
    // free node, making model 0 that node's sole tenant.
    let (source, range) = shared
        .iter()
        .find(|&(_, r)| r.len() <= profiles[1].node_profile(free).max_layers)
        .expect("some range fits the free node");

    let fleet = FleetTopology::plan(&profiles, &fleet_placement, true).unwrap();
    let schedulers = FleetScheduler::iwrr(&fleet).unwrap();
    let sim = ClusterSimulator::new_fleet(&fleet, schedulers);
    let mut session = SimSession::new(sim, SimulationConfig::offline(600.0).with_warmup(0.0));
    let shared_exec_before = session
        .simulator()
        .engine(source, ModelId(0))
        .unwrap()
        .exec_model()
        .cloned();

    let workload = Workload::merge(vec![
        saturating_workload(25).with_model(ModelId(0)),
        saturating_workload(25).with_model(ModelId(1)),
    ])
    .with_arrivals(ArrivalPattern::Offline, 4);
    session.schedule(PerturbationEvent::Replan {
        at: 10.0,
        delta: PlacementDelta::new().migrate(ModelId(1), source, free, range),
    });
    for request in workload.requests() {
        session.submit(*request);
    }
    session.drain();
    let (report, sim) = (session.report(), session.simulator());
    assert_eq!(report.replans.len(), 1);
    assert_eq!(report.kv_transfers.len(), 1);
    assert!(report.metrics.overall.completed_requests > 0);

    // Model 0 is now the sole tenant of `source`: the surviving engine's
    // speed profile must equal a freshly created engine's under the new
    // analytic split — and differ from its creation-time 50/50 split.
    let fresh = ExecModel::new(
        sim.fleet()
            .contention_profile(ModelId(0))
            .node_profile(source),
    );
    let surviving = sim.engine(source, ModelId(0)).unwrap().exec_model();
    assert_eq!(
        surviving,
        Some(&fresh),
        "surviving engine re-split to sole tenancy"
    );
    assert_ne!(
        surviving,
        shared_exec_before.as_ref(),
        "the split actually changed (50% share -> sole tenant)"
    );
    // The destination engine exists and serves model 1's moved layers.
    assert!(sim.engine(free, ModelId(1)).is_some());
}

/// A shared prefix travels the migration link once, however many in-flight
/// requests reference it.  The cache-blind twin of the same workload holds a
/// private copy of the prefix range per request, so its KV hand-over must
/// move materially more tokens than the cache-aware run — while the aware
/// run still moves the prefix itself at least once.
#[test]
fn migration_transfers_a_shared_prefix_once_not_per_sharer() {
    use helix_sim::SimSession;
    let profile = profile();
    let placement = chain_placement(&profile);
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let (from, to, moved) = migratable_pair(&profile, &placement);
    let config = SimulationConfig::offline(500.0).with_warmup(0.0);

    // One prefix group, every request tagged: 24 sharers of a 64-token
    // prefix with a 32-token private suffix, all in flight when the
    // hand-over fires.
    let requests: Vec<helix_workload::Request> = (0..24u64)
        .map(|i| helix_workload::Request {
            id: i,
            prompt_tokens: 96,
            output_tokens: 48,
            arrival_time: 0.0,
            model: ModelId(0),
            ..helix_workload::Request::default()
        })
        .collect();
    let aware = Workload::new(requests).with_shared_prefixes(1, 64, 1.0);
    let blind = aware.clone().without_prefixes();

    let run = |workload: &Workload| {
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let mut session = SimSession::new(sim, config);
        session.schedule(PerturbationEvent::Replan {
            at: 5.0,
            delta: PlacementDelta::new().migrate(ModelId(0), from, to, moved),
        });
        for request in workload.requests() {
            session.submit(*request);
        }
        session.finish()
    };

    let aware_report = run(&aware);
    let blind_report = run(&blind);
    for report in [&aware_report, &blind_report] {
        assert_eq!(report.metrics.overall.completed_requests, 24);
        assert_eq!(report.kv_transfers.len(), 1);
        assert_eq!(report.kv_transfers[0].migration.layers, moved);
        assert!(report.kv_transfers[0].tokens > 0.0, "KV was resident");
    }

    // The first sharer materialised the prefix; the other 23 attached.
    assert_eq!(aware_report.prefix.prefix_misses, 1);
    assert_eq!(aware_report.prefix.prefix_hits, 23);
    assert_eq!(aware_report.prefix.prefill_tokens_saved, 23 * 64);
    assert_eq!(blind_report.prefix, helix_core::PrefixStats::default());
    // Skipped prefill is time saved: the aware run serves at least as fast.
    assert!(
        aware_report.metrics.overall.decode_throughput()
            >= blind_report.metrics.overall.decode_throughput()
    );

    // Deduplicated pricing: the blind run carries a private 96-token prompt
    // per request where the aware run carries a 32-token suffix each plus
    // the 64-token prefix once — 1472 fewer prompt tokens resident.  The
    // aware run decodes slightly ahead (it skipped 23 prefills), so allow
    // decode drift, but a per-sharer duplicated prefix would erase the gap
    // entirely.
    let aware_tokens = aware_report.kv_transfers[0].tokens;
    let blind_tokens = blind_report.kv_transfers[0].tokens;
    assert!(
        blind_tokens - aware_tokens >= 400.0,
        "the shared prefix travels once: aware moved {aware_tokens} tokens, \
         blind moved {blind_tokens}"
    );
    assert!(
        aware_tokens >= 64.0,
        "the prefix itself still travels with the hand-over, got {aware_tokens}"
    );
}

#[test]
fn region_outage_mid_session_loses_no_requests_and_rehomes_prefixes() {
    use helix_cluster::{ClusterBuilder, GpuType, Region};
    use helix_core::{LayerRange, ModelPlacement};
    use helix_sim::SimSession;

    // Two regions, each holding a complete two-node pipeline, so removing a
    // whole region leaves a valid plan for the survivors.
    let spec = ClusterBuilder::new("two-region-4")
        .intra_region(10_000.0, 1.0)
        .inter_region(500.0, 50.0)
        .add_nodes(GpuType::A100_80, 2, 8, Region(0))
        .add_nodes(GpuType::A100_80, 2, 8, Region(1))
        .build();
    let profile = ClusterProfile::analytic(spec, ModelConfig::llama_13b());
    let num_layers = profile.model().num_layers;
    let mut placement = ModelPlacement::empty(4);
    placement.assign(NodeId(0), LayerRange::new(0, num_layers / 2));
    placement.assign(NodeId(1), LayerRange::new(num_layers / 2, num_layers));
    placement.assign(NodeId(2), LayerRange::new(0, num_layers / 2));
    placement.assign(NodeId(3), LayerRange::new(num_layers / 2, num_layers));
    placement.validate(&profile).unwrap();
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
    let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
    let mut session = SimSession::new(sim, SimulationConfig::offline(600.0).with_warmup(0.0));

    // Batch 1 homes eight shared prefixes across both regions' pipelines.
    let tagged = |base: u64| -> Vec<helix_workload::Request> {
        (0..32u64)
            .map(|i| helix_workload::Request {
                id: base + i,
                prompt_tokens: 96,
                output_tokens: 3,
                prefix: Some(helix_cluster::PrefixId(i % 8)),
                prefix_tokens: 64,
                ..helix_workload::Request::default()
            })
            .collect()
    };
    for request in tagged(0) {
        session.submit(request);
    }
    session.drain();

    // Region 1 dies; batch 2 shares the same prefixes.  Sharers whose home
    // died must re-route as misses (a dangling home would strand them on a
    // stopped pipeline and the completion count would come up short).
    session.schedule(PerturbationEvent::RegionOutage {
        at: 0.0,
        region: Region(1),
    });
    for request in tagged(100) {
        session.submit(request);
    }
    let report = session.finish();

    assert_eq!(report.metrics.overall.completed_requests, 64);
    assert_eq!(report.replans.len(), 1);
    assert!(matches!(
        report.replans[0].reason,
        ReplanReason::RegionOutage { region } if region == Region(1)
    ));
    // Every tagged admission was counted — sharers caught in flight by the
    // outage are re-admitted and legitimately routed (and counted) again …
    let prefix = &report.prefix;
    assert!(
        prefix.prefix_hits + prefix.prefix_misses + prefix.prefix_bypasses >= 64,
        "all 64 tagged admissions routed, got {prefix:?}"
    );
    // … and the outage forced at least one re-materialisation beyond the
    // eight first-sharers of batch 1.
    assert!(
        prefix.prefix_misses > 8,
        "prefixes homed in the dead region re-home as misses, got {} misses",
        prefix.prefix_misses
    );
}
