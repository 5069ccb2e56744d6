//! High-availability behaviour on the prototype runtime: KV replication to
//! standby tenancies, replica promotion with bounded token loss when a node
//! is killed mid-run, the abort-and-readmit fallback, and the drain-gated
//! prefix-router regression (a failed node must be evicted from every
//! router even when the re-plan around it is infeasible).

use helix_cluster::{
    ClusterBuilder, ClusterProfile, GpuType, ModelConfig, ModelId, NodeId, Region,
};
use helix_core::fleet::{fleet_profiles, FleetPlacement};
use helix_core::{
    FleetScheduler, FleetTopology, IwrrScheduler, LayerRange, ModelPlacement, ReplicationPolicy,
    Topology,
};
use helix_runtime::{RuntimeConfig, RuntimeReport, ServingBuilder, ServingSession};
use helix_workload::{PrefixId, Request};
use std::time::Duration;

/// Two-stage pipeline with every stage doubled: nodes 0 and 2 hold the
/// bottom half, nodes 1 and 3 the top half — the same shape as the
/// simulator HA suite, so any single node can fail and the other replica
/// of its stage absorbs both the re-plan and the promoted pipelines.
fn redundant_topology() -> Topology {
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
    Topology::plan(&profile, &placement, true).unwrap()
}

/// Analytic execution at a strong virtual-time speed-up: the failure needs
/// real in-flight decode to interrupt, which instant execution would finish
/// before the injected timestamp ever arrives.
fn live_config() -> RuntimeConfig {
    RuntimeConfig {
        // Large enough that analytic batch durations dominate the per-event
        // wall overhead (the loop's turns and waits): the virtual clock is
        // wall-driven, and the failure must land while decode is genuinely
        // in flight — not while every pipeline is still stuck in per-event
        // overhead with zero tokens produced.
        wall_per_virtual: 0.01,
        max_wall: Duration::from_secs(20),
        ..RuntimeConfig::default()
    }
}

fn steady_requests(n: u64, prompt: usize, output: usize, spacing: f64) -> Vec<Request> {
    (0..n)
        .map(|i| Request {
            id: i,
            prompt_tokens: prompt,
            output_tokens: output,
            arrival_time: spacing * i as f64,
            model: ModelId(0),
            ..Request::default()
        })
        .collect()
}

fn run_failover(policy: ReplicationPolicy) -> RuntimeReport {
    let topology = redundant_topology();
    let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
    let mut session: ServingSession = ServingBuilder::new()
        .topology(&topology)
        .scheduler(Box::new(scheduler))
        .config(live_config())
        .build()
        .unwrap();
    session.set_replication(policy);
    for request in steady_requests(48, 64, 24, 0.05) {
        session.submit(request);
    }
    session.fail_node(NodeId(0), 3.0);
    session.drain().unwrap();
    session.finish().unwrap()
}

/// The headline fail-over guarantee, now on the threaded surface: with RF=2
/// a mid-run node failure loses zero requests, promotes replicas instead of
/// aborting, and recomputes strictly fewer tokens than abort-and-readmit.
#[test]
fn rf2_failover_promotes_replicas_with_bounded_token_loss() {
    let report = run_failover(ReplicationPolicy::rf2(0, 16));

    assert_eq!(report.completed(), 48, "no request may be lost to the kill");
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

    // Outcomes stay well-formed across the promotion hand-over.
    for outcome in &report.outcomes {
        assert!(outcome.completed_at >= outcome.first_token_at);
    }
}

/// Control run: with replication disabled the same failure falls back to
/// abort-and-readmit — nothing is promoted, every doomed token is
/// recomputed, and no request is lost.
#[test]
fn disabled_replication_falls_back_to_abort_and_readmit() {
    let report = run_failover(ReplicationPolicy::disabled());

    assert_eq!(report.completed(), 48);
    assert_eq!(report.failovers.len(), 1);
    let record = &report.failovers[0];
    assert!(record.promoted.is_empty());
    assert!(!record.aborted.is_empty());
    assert_eq!(record.tokens_recomputed, record.abort_recompute_tokens);
    assert_eq!(record.replica_tokens_used, 0);
    assert_eq!(report.replication.tokens, 0);
}

/// Regression for the drain-gated eviction path: when the re-plan around a
/// failed node is *infeasible* (here: a second model whose only replica
/// lives on the failed node), the old plan keeps serving — and before the
/// fix the prefix routers kept pointing cached prefixes at the dead node,
/// so post-failure sharers dispatched into a black hole and the drain
/// stalled.  `fail_node` must evict the node from every router regardless
/// of whether the re-plan lands.
#[test]
fn infeasible_replan_still_evicts_failed_node_from_prefix_routers() {
    let cluster = ClusterBuilder::new("ha-drain-3")
        .intra_region(10_000.0, 1.0)
        .add_nodes(GpuType::A100_80, 3, 1, Region(0))
        .build();
    let profiles = fleet_profiles(
        &cluster,
        &[ModelConfig::llama_13b(), ModelConfig::llama_13b()],
    );
    let layers = profiles[0].model().num_layers;
    let half = layers / 2;
    // Model 0: doubled bottom stage (nodes 0 and 2), single top stage.
    let mut doubled = ModelPlacement::empty(3);
    doubled.assign(NodeId(0), LayerRange::new(0, half));
    doubled.assign(NodeId(2), LayerRange::new(0, half));
    doubled.assign(NodeId(1), LayerRange::new(half, layers));
    // Model 1: sole replica on node 0 — killing node 0 makes the fleet
    // re-plan infeasible, which is exactly the path under test.
    let mut sole = ModelPlacement::empty(3);
    sole.assign(NodeId(0), LayerRange::new(0, layers));
    let placement = FleetPlacement::new(vec![doubled, sole]);
    placement.validate(&profiles).unwrap();
    let fleet = FleetTopology::plan(&profiles, &placement, true).unwrap();
    let schedulers = FleetScheduler::iwrr(&fleet).unwrap();

    let mut session: ServingSession = ServingBuilder::new()
        .fleet(&fleet)
        .schedulers(schedulers)
        .config(RuntimeConfig {
            wall_per_virtual: 0.0005,
            max_wall: Duration::from_secs(10),
            ..RuntimeConfig::default()
        })
        .build()
        .unwrap();

    // Wave 1 (completes before the kill): adopt two prefixes on model 0 —
    // IWRR alternation homes one per pipeline, so exactly one of them homes
    // on the doomed node — plus one model-1 request on the sole replica.
    let prefixed = |id: u64, prefix: u64, at: f64| Request {
        id,
        prompt_tokens: 48,
        output_tokens: 2,
        arrival_time: at,
        model: ModelId(0),
        prefix: Some(PrefixId(prefix)),
        prefix_tokens: 32,
        ..Request::default()
    };
    session.submit(prefixed(0, 0, 0.0));
    session.submit(prefixed(1, 1, 0.0));
    session.submit(Request {
        id: 2,
        prompt_tokens: 32,
        output_tokens: 2,
        arrival_time: 0.0,
        model: ModelId(1),
        ..Request::default()
    });
    session.drain().unwrap();

    // Kill node 0; the model-1 tenancy has nowhere to go, so the re-plan is
    // infeasible and the old (holed) plan keeps serving.
    session.fail_node(NodeId(0), 1.5);

    // Wave 2 (after the kill): sharers of both prefixes.  The sharer whose
    // prefix homed on node 0 must *miss* (home evicted) and re-adopt on the
    // live pipeline instead of dispatching at the dead home.
    session.submit(prefixed(3, 0, 2.5));
    session.submit(prefixed(4, 1, 2.5));
    session.submit(prefixed(5, 0, 2.6));
    session.submit(prefixed(6, 1, 2.6));
    session.drain().unwrap();
    let report = session.finish().unwrap();

    assert_eq!(
        report.completed(),
        7,
        "post-failure sharers must re-route, not stall on the dead home"
    );
    assert_eq!(report.failovers.len(), 1);
    assert_eq!(report.failovers[0].node, NodeId(0));
    // At least one wave-2 sharer still hit a (live) cached home.
    assert!(report.prefix.prefix_hits >= 1);
    // Nothing ran on node 0 after the kill: its decode work is bounded by
    // what wave 1 could have produced.
    let node0_decode: u64 = report
        .nodes
        .iter()
        .filter(|n| n.node == NodeId(0))
        .map(|n| n.decode_tokens)
        .sum();
    assert!(
        node0_decode <= 3 * 2 * 2,
        "dead node kept decoding: {node0_decode} tokens"
    );
}
