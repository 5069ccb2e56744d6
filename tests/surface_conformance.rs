//! Cross-surface conformance suite: the threaded prototype runtime
//! (`ServingSession`) and the discrete-event simulator (`SimSession`) are
//! driven through the one generic `ServingFrontEnd` over a matrix of
//! scenarios — single-model and fleet serving, a mid-run migration delta (one
//! of which drops a tenancy), speed injection, and drain-then-submit —
//! asserting that both surfaces complete the same request sets and that
//! their reports stay monotonic.
//!
//! The two surfaces model the same cluster with different mechanics (worker
//! threads and a fabric vs one event loop), so the suite compares
//! *behavioural* contracts (who completed, what was logged, monotonicity),
//! not timings.

use helix::core::{KvTransferRecord, ReplanReason, ReplanRecord};
use helix::front::ServingFrontEnd;
use helix::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn profile_13b() -> ClusterProfile {
    ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_13b())
}

/// A chain placement (disjoint contiguous ranges, half of each node's
/// capacity) so a suffix of one node's range can migrate onto the next node
/// and merge contiguously — the same shape on both surfaces.
fn chain_placement(profile: &ClusterProfile) -> ModelPlacement {
    let cluster = profile.cluster();
    let mut placement = ModelPlacement::empty(cluster.num_nodes());
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

/// The first chain pair whose suffix-half move keeps the placement valid.
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

fn requests(n: u64, base_id: u64, model: ModelId) -> Vec<Request> {
    (0..n)
        .map(|i| Request {
            id: base_id + i,
            prompt_tokens: 32,
            output_tokens: 3,
            arrival_time: 0.02 * i as f64,
            model,
            ..Request::default()
        })
        .collect()
}

fn runtime_session(topology: &Topology) -> ServingSession {
    ServingBuilder::new()
        .topology(topology)
        .config(RuntimeConfig::fast_test())
        .build()
        .expect("the runtime session builds")
}

fn sim_session(topology: &Topology) -> SimSession {
    let scheduler = IwrrScheduler::from_topology(topology).unwrap();
    let sim = ClusterSimulator::new(topology, Box::new(scheduler));
    SimSession::new(sim, SimulationConfig::offline(600.0).with_warmup(0.0))
}

fn id_set(requests: &[Request]) -> BTreeSet<u64> {
    requests.iter().map(|r| r.id).collect()
}

/// Generic matrix step: serve one batch through any front end.
fn serve_generic<F: ServingFrontEnd>(front: F, batch: &[Request]) -> F::Report {
    front
        .serve(&Workload::new(batch.to_vec()))
        .expect("the front end serves the batch")
}

/// Generic matrix step: first batch in flight, migrate mid-run, second batch
/// on the migrated plan, then finish.
fn serve_with_migration<F: ServingFrontEnd>(
    mut front: F,
    batch1: &[Request],
    batch2: &[Request],
    model: ModelId,
    from: NodeId,
    to: NodeId,
    layers: LayerRange,
) -> F::Report {
    for request in batch1 {
        front.submit(*request);
    }
    front.migrate(model, from, to, layers);
    front.drain().expect("the migrated batch drains");
    for request in batch2 {
        front.submit(*request);
    }
    front.finish().expect("the session finishes")
}

#[test]
fn single_model_completion_sets_match_across_surfaces() {
    let profile = profile_13b();
    let placement = chain_placement(&profile);
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let batch = requests(14, 0, ModelId(0));

    let runtime_report = serve_generic(runtime_session(&topology), &batch);
    let runtime_ids: BTreeSet<u64> = runtime_report.outcomes.iter().map(|o| o.id).collect();
    assert_eq!(runtime_ids, id_set(&batch), "runtime completes the set");

    let sim_report = serve_generic(sim_session(&topology), &batch);
    assert_eq!(
        sim_report.metrics.overall.completed_requests,
        batch.len() as u64,
        "simulator completes the same count of the same submitted set"
    );
    // Both surfaces generated every requested output token.
    assert_eq!(
        runtime_report.decode_tokens(),
        sim_report.metrics.overall.decode_tokens
    );
}

#[test]
fn fleet_serving_completes_the_same_per_model_sets_on_both_surfaces() {
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
    let mut batch = requests(10, 0, ModelId(0));
    batch.extend(requests(10, 100, ModelId(1)));

    let runtime_report = {
        let session = ServingBuilder::new()
            .fleet(&fleet)
            .config(RuntimeConfig::fast_test())
            .build()
            .unwrap();
        serve_generic(session, &batch)
    };
    let sim_report = {
        let schedulers = FleetScheduler::iwrr(&fleet).unwrap();
        let sim = ClusterSimulator::new_fleet(&fleet, schedulers);
        let session = SimSession::new(sim, SimulationConfig::offline(600.0).with_warmup(0.0));
        serve_generic(session, &batch)
    };

    for model in [ModelId(0), ModelId(1)] {
        let runtime_ids: BTreeSet<u64> = runtime_report
            .outcomes_for(model)
            .iter()
            .map(|o| o.id)
            .collect();
        let submitted: BTreeSet<u64> = batch
            .iter()
            .filter(|r| r.model == model)
            .map(|r| r.id)
            .collect();
        assert_eq!(runtime_ids, submitted, "runtime completes {model}'s set");
        assert_eq!(
            sim_report.metrics.per_model[model.index()].completed_requests,
            submitted.len() as u64,
            "simulator completes {model}'s count"
        );
    }
}

#[test]
fn mid_run_migration_delta_behaves_identically_on_both_surfaces() {
    let profile = profile_13b();
    let placement = chain_placement(&profile);
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let (from, to, moved) = migratable_pair(&profile, &placement);
    let batch1 = requests(12, 0, ModelId(0));
    let batch2 = requests(12, 100, ModelId(0));

    let runtime_report = serve_with_migration(
        runtime_session(&topology),
        &batch1,
        &batch2,
        ModelId(0),
        from,
        to,
        moved,
    );
    let runtime_ids: BTreeSet<u64> = runtime_report.outcomes.iter().map(|o| o.id).collect();
    let mut submitted = id_set(&batch1);
    submitted.extend(id_set(&batch2));
    assert_eq!(runtime_ids, submitted, "no pipeline dropped on the runtime");
    assert_eq!(runtime_report.replans.len(), 1);
    assert_eq!(runtime_report.kv_transfers.len(), 1);
    assert_eq!(runtime_report.kv_transfers[0].migration.layers, moved);

    let sim_report = serve_with_migration(
        sim_session(&topology),
        &batch1,
        &batch2,
        ModelId(0),
        from,
        to,
        moved,
    );
    assert_eq!(
        sim_report.metrics.overall.completed_requests,
        submitted.len() as u64,
        "no pipeline dropped on the simulator"
    );
    assert_eq!(sim_report.replans.len(), 1);
    assert_eq!(sim_report.kv_transfers.len(), 1);
    assert_eq!(sim_report.kv_transfers[0].migration.layers, moved);
    // Both surfaces log the identical migration (the simulator fires it at
    // the start of the drained batch, so its KV residency — and therefore
    // the byte count — may legitimately be zero; the sim integration test
    // covers the resident-KV case).
    let (rt, sm) = (&runtime_report.kv_transfers[0], &sim_report.kv_transfers[0]);
    assert_eq!(rt.migration, sm.migration);
    assert!(rt.bytes >= 0.0 && sm.bytes >= 0.0);
}

#[test]
fn unfrozen_layers_keep_completing_through_the_migration_transfer_window() {
    // Three identical nodes: node0 and node2 both serve [0, half) while
    // node1 serves [half, L) — every pipeline's tail runs on node1.  The
    // node0 → node1 link is slow, so handing layers [quarter, half) from
    // node0 to node1 holds those layers frozen for seconds of virtual time
    // on *both* ends of the transfer.  Layer-scoped freezing means pipelines
    // routed node2 → node1 touch only un-frozen ranges ([0, half) on node2,
    // [half, L) on node1) and must keep completing inside the transfer
    // window; a whole-worker freeze of node1 would stall every pipeline.
    let spec = ClusterBuilder::new("migration-window-3")
        .intra_region(10_000.0, 1.0)
        .override_link(Some(NodeId(0)), Some(NodeId(1)), 10_000.0, 2_500.0)
        .add_nodes(GpuType::A100_80, 3, 1, Region(0))
        .build();
    let profile = ClusterProfile::analytic(spec, ModelConfig::llama_13b());
    let num_layers = profile.model().num_layers;
    let (quarter, half) = (num_layers / 4, num_layers / 2);
    let mut placement = ModelPlacement::empty(3);
    placement.assign(NodeId(0), LayerRange::new(0, half));
    placement.assign(NodeId(2), LayerRange::new(0, half));
    placement.assign(NodeId(1), LayerRange::new(half, num_layers));
    placement.validate(&profile).unwrap();
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let moved = LayerRange::new(quarter, half);
    // Batch-1 arrivals must span several virtual seconds: on the runtime the
    // migrate control message races the data plane in *wall* time, so tightly
    // packed arrivals can all complete before the freeze lands and leave the
    // window empty.  Spreading them keeps un-frozen traffic in flight across
    // the whole transfer window wherever the freeze starts.
    let batch1: Vec<Request> = (0..16)
        .map(|i| Request {
            id: i,
            prompt_tokens: 32,
            output_tokens: 3,
            arrival_time: 0.4 * i as f64,
            model: ModelId(0),
            ..Request::default()
        })
        .collect();
    let batch2 = requests(4, 100, ModelId(0));
    let batch1_ids = id_set(&batch1);

    // The hand-over window of a report: [freeze start, resume at the
    // destination], as priced by the shared KV-transfer cost model.
    let window = |transfers: &[KvTransferRecord]| {
        assert_eq!(transfers.len(), 1);
        let hand_over = &transfers[0];
        assert_eq!(hand_over.migration.layers, moved);
        assert!(
            hand_over.transfer_secs > 1.0,
            "the slow link stretches the hand-over into a real window, got {}s",
            hand_over.transfer_secs
        );
        (hand_over.at - hand_over.transfer_secs, hand_over.at)
    };

    // The runtime maps virtual seconds onto wall time, and at `fast_test`'s
    // 0.0002 wall seconds per virtual second the whole 6 s arrival spread is
    // ~1.2 ms of wall time — comparable to the scheduling jitter between the
    // caller's thread and the data-plane thread, so the migrate message could
    // land after every batch-1 request had completed.  A 50x coarser clock
    // makes the race negligible (what the HA tests do too).  This only hides
    // the race; the real fix is ROADMAP item 1, deterministic virtual time in
    // the runtime.
    let slow_clock_session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig {
            wall_per_virtual: 0.01,
            ..RuntimeConfig::fast_test()
        })
        .build()
        .expect("the runtime session builds");
    let runtime_report = serve_with_migration(
        slow_clock_session,
        &batch1,
        &batch2,
        ModelId(0),
        NodeId(0),
        NodeId(1),
        moved,
    );
    let runtime_ids: BTreeSet<u64> = runtime_report.outcomes.iter().map(|o| o.id).collect();
    let mut submitted = id_set(&batch1);
    submitted.extend(id_set(&batch2));
    assert_eq!(runtime_ids, submitted, "no pipeline dropped on the runtime");
    let (start, end) = window(&runtime_report.kv_transfers);
    let in_window = runtime_report
        .outcomes
        .iter()
        .filter(|o| batch1_ids.contains(&o.id) && start < o.completed_at && o.completed_at < end)
        .count();
    assert!(
        in_window > 0,
        "runtime: pipelines on un-frozen layers keep completing during the \
         transfer window ({start:.3}..{end:.3}), got none"
    );

    let sim_report = serve_with_migration(
        sim_session(&topology),
        &batch1,
        &batch2,
        ModelId(0),
        NodeId(0),
        NodeId(1),
        moved,
    );
    assert_eq!(
        sim_report.metrics.overall.completed_requests,
        submitted.len() as u64,
        "no pipeline dropped on the simulator"
    );
    let (start, end) = window(&sim_report.kv_transfers);
    let in_window = sim_report
        .completions
        .iter()
        .filter(|c| batch1_ids.contains(&c.id) && start < c.at && c.at < end)
        .count();
    assert!(
        in_window > 0,
        "simulator: pipelines on un-frozen layers keep completing during the \
         transfer window ({start:.3}..{end:.3}), got none"
    );
}

#[test]
fn a_tenancy_the_plan_drops_finishes_what_it_held_and_gets_no_new_pipeline() {
    // Nodes 0 and 2 serve [0, half), node 1 serves [half, L) and node 3 is
    // free; mid-run, node 2's whole range moves to node 3, so the re-plan
    // drops node 2's tenancy while pipelines through it are decoding.
    let spec = ClusterBuilder::new("dropped-tenancy-4")
        .intra_region(10_000.0, 1.0)
        .add_nodes(GpuType::A100_80, 4, 1, Region(0))
        .build();
    let profile = ClusterProfile::analytic(spec, ModelConfig::llama_13b());
    let num_layers = profile.model().num_layers;
    let bottom = LayerRange::new(0, num_layers / 2);
    let mut placement = ModelPlacement::empty(4);
    placement.assign(NodeId(0), bottom);
    placement.assign(NodeId(2), bottom);
    placement.assign(NodeId(1), LayerRange::new(num_layers / 2, num_layers));
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let (model, dropped, to) = (ModelId(0), NodeId(2), NodeId(3));
    // Long decodes over spread arrivals: several pipelines are in flight
    // when the re-plan lands, and later arrivals are admitted after it.
    let batch1: Vec<Request> = (0..12u64)
        .map(|i| Request {
            id: i,
            prompt_tokens: 32,
            output_tokens: 512,
            arrival_time: 0.1 * i as f64,
            model,
            ..Request::default()
        })
        .collect();
    // Every batch-2 prompt outweighs all batch-1 prompts together, so one
    // batch-2 admission through the dropped node would show in its count.
    let batch2: Vec<Request> = (100..104u64)
        .map(|id| Request {
            prompt_tokens: 512,
            ..requests(1, id, model)[0]
        })
        .collect();
    let batch1_prompts: usize = batch1.iter().map(|r| r.prompt_tokens).sum();
    assert!(batch2.iter().all(|r| r.prompt_tokens > batch1_prompts));
    let mut submitted = id_set(&batch1);
    submitted.extend(id_set(&batch2));
    let held_at_replan = |transfers: &[KvTransferRecord]| {
        assert_eq!(transfers.len(), 1);
        assert_eq!(
            (transfers[0].migration.from, transfers[0].migration.to),
            (dropped, to)
        );
        transfers[0].tokens
    };

    // Runtime: migrate once a batch-1 request has completed.  The delta
    // races the data plane in wall time (ROADMAP item 2), so a coarse clock
    // keeps the pipelines through node 2 in flight for tens of wall
    // milliseconds after that completion, even on a busy host.
    let mut session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig {
            wall_per_virtual: 0.05,
            ..RuntimeConfig::fast_test()
        })
        .build()
        .unwrap();
    let tickets: Vec<TicketId> = batch1.iter().map(|r| session.submit(*r)).collect();
    session.wait_completion(tickets[1]).unwrap();
    let migrate = helix::core::PlacementDelta::new().migrate(model, dropped, to, bottom);
    session.apply_placement_delta(migrate);
    session.drain().unwrap();
    for request in &batch2 {
        session.submit(*request);
    }
    let runtime = session.finish().unwrap();
    let runtime_ids: BTreeSet<u64> = runtime.outcomes.iter().map(|o| o.id).collect();
    assert_eq!(runtime_ids, submitted, "runtime: nothing dropped");
    assert!(
        held_at_replan(&runtime.kv_transfers) > 0.0,
        "runtime: node 2 held work"
    );
    let row = runtime
        .nodes
        .iter()
        .find(|n| (n.node, n.model) == (dropped, model));
    let prompts = row
        .expect("the dropped row stays in the report")
        .prompt_tokens;
    assert!(
        0 < prompts && prompts as usize <= batch1_prompts,
        "runtime: no batch-2 admission ran through node 2 ({prompts} prompt tokens)"
    );

    // Simulator: the same migration at a fixed mid-run instant; the dropped
    // engine's token count does not move while batch 2 is served.
    let mut sim = sim_session(&topology);
    for request in &batch1 {
        sim.submit(*request);
    }
    sim.schedule(helix::sim::PerturbationEvent::Migrate {
        at: 0.5,
        model,
        from: dropped,
        to,
        layers: bottom,
    });
    sim.drain();
    let engine_tokens = |sim: &SimSession| {
        let engine = sim.simulator().engine(dropped, model);
        engine.expect("the dropped engine stays").counters().tokens
    };
    let after_batch1 = engine_tokens(&sim);
    for request in &batch2 {
        sim.submit(*request);
    }
    sim.drain();
    assert_eq!(
        engine_tokens(&sim),
        after_batch1,
        "simulator: no new pipeline"
    );
    let sim_report = sim.finish();
    let sim_ids: BTreeSet<u64> = sim_report.completions.iter().map(|c| c.id).collect();
    assert_eq!(sim_ids, submitted, "simulator: nothing dropped");
    assert!(
        held_at_replan(&sim_report.kv_transfers) > 0.0,
        "simulator: node 2 held work"
    );
    assert_eq!(sim_ids, runtime_ids);
}

#[test]
fn prefix_sharing_saves_the_same_work_on_both_surfaces() {
    let profile = profile_13b();
    let placement = chain_placement(&profile);
    let topology = Topology::plan(&profile, &placement, true).unwrap();

    // 16 requests, all arriving at t=0 so every sharer is dispatched while
    // its group's prefix is still referenced (both surfaces admit all due
    // arrivals before processing any completion).  Four groups of four with
    // every request tagged: the first of each group materialises the prefix
    // (a miss), the other three attach (hits).
    let batch: Vec<Request> = (0..16u64)
        .map(|i| Request {
            id: i,
            prompt_tokens: 96,
            output_tokens: 3,
            arrival_time: 0.0,
            model: ModelId(0),
            ..Request::default()
        })
        .collect();
    let workload = Workload::new(batch.clone()).with_shared_prefixes(4, 64, 1.0);
    let expected = PrefixStats {
        prefix_hits: 12,
        prefix_misses: 4,
        prefix_bypasses: 0,
        prefill_tokens_saved: 12 * 64,
        shared_pages: 12 * 4, // ceil(64 / 16 tokens-per-page) pages per hit
    };

    let runtime_report = runtime_session(&topology)
        .serve(&workload)
        .expect("the runtime serves the prefix-tagged batch");
    let runtime_ids: BTreeSet<u64> = runtime_report.outcomes.iter().map(|o| o.id).collect();
    assert_eq!(runtime_ids, id_set(&batch), "runtime completes the set");
    assert_eq!(runtime_report.prefix, expected, "runtime prefix counters");

    let sim_report = sim_session(&topology).serve(&workload);
    assert_eq!(
        sim_report.metrics.overall.completed_requests,
        batch.len() as u64,
        "simulator completes the same count"
    );
    assert_eq!(sim_report.prefix, expected, "simulator prefix counters");

    // The saved prefill is real work skipped, not bookkeeping: both surfaces
    // still generate every requested output token.
    assert_eq!(
        runtime_report.decode_tokens(),
        sim_report.metrics.overall.decode_tokens
    );
}

#[test]
fn untagged_workloads_are_untouched_by_the_prefix_machinery() {
    let profile = profile_13b();
    let placement = chain_placement(&profile);
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let batch = requests(14, 0, ModelId(0));
    let base = Workload::new(batch.clone());

    // Tagging then stripping is the identity on the workload itself …
    let stripped = base
        .clone()
        .with_shared_prefixes(4, 64, 1.0)
        .without_prefixes();
    assert_eq!(stripped, base);
    // … and a zero share ratio never tags in the first place.
    assert_eq!(base.clone().with_shared_prefixes(4, 64, 0.0), base);

    // With every prefix `None` the simulator's report is bit-identical to
    // the stripped equivalent and logs no prefix activity at all.
    let sim_base = serve_generic(sim_session(&topology), &batch);
    let sim_stripped = sim_session(&topology).serve(&stripped);
    assert_eq!(sim_base.metrics, sim_stripped.metrics);
    assert_eq!(sim_base.prefix, PrefixStats::default());
    assert_eq!(sim_stripped.prefix, PrefixStats::default());

    // The runtime (wall-clock timings differ run to run) completes the same
    // set and likewise reports zero prefix activity.
    let runtime_report = serve_generic(runtime_session(&topology), &batch);
    assert_eq!(runtime_report.completed(), batch.len());
    assert_eq!(runtime_report.prefix, PrefixStats::default());
}

#[test]
fn speed_injection_is_honoured_on_both_surfaces() {
    let profile = profile_13b();
    let placement = chain_placement(&profile);
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let slow = topology
        .nodes()
        .max_by(|a, b| a.flow.partial_cmp(&b.flow).unwrap())
        .unwrap()
        .node;
    let batch = requests(16, 0, ModelId(0));

    // Runtime: the run completes under the injected slowdown.
    let mut session = runtime_session(&topology);
    ServingFrontEnd::inject_speed(&mut session, slow, 3.0);
    let report = serve_generic(session, &batch);
    assert_eq!(report.completed(), batch.len());

    // Simulator: the same injection measurably degrades throughput.
    let run = |factor: Option<f64>| {
        let mut front = sim_session(&topology);
        if let Some(factor) = factor {
            ServingFrontEnd::inject_speed(&mut front, slow, factor);
        }
        serve_generic(front, &batch)
    };
    let healthy = run(None);
    let degraded = run(Some(4.0));
    assert_eq!(
        degraded.metrics.overall.completed_requests,
        batch.len() as u64
    );
    assert!(
        degraded.metrics.overall.decode_throughput() < healthy.metrics.overall.decode_throughput()
    );
}

/// Mixed multi-region batch: locality-tagged, prefix-tagged and plain
/// requests — the tag, then the ring keyed by prefix or request id.  No
/// tagged request carries a prefix.
fn multi_region_batch() -> Vec<Request> {
    let mut batch = Vec::new();
    for i in 0..8u64 {
        batch.push(Request {
            id: i,
            region: Some(Region((i % 3) as u32)),
            ..requests(1, i, ModelId(0))[0]
        });
    }
    for i in 8..16u64 {
        batch.push(Request {
            id: i,
            prefix: Some(PrefixId(i % 2)),
            prefix_tokens: 16,
            ..requests(1, i, ModelId(0))[0]
        });
    }
    for i in 16..24u64 {
        batch.push(requests(1, i, ModelId(0))[0]);
    }
    batch
}

fn front_tier<F: ServingFrontEnd>(backends: Vec<F>) -> MultiRegionSession<F> {
    MultiRegionSession::new(
        backends
            .into_iter()
            .enumerate()
            .map(|(i, f)| (Region(i as u32), f))
            .collect(),
    )
}

fn submitted_by_region<R>(report: &MultiRegionReport<R>) -> Vec<u64> {
    report.regions.iter().map(|r| r.submitted).collect()
}

/// For each shared prefix in `batch`, the regions whose completions hold
/// one of its sharers; `completed` lists one region's completed ids.
fn prefix_regions<R>(
    batch: &[Request],
    report: &MultiRegionReport<R>,
    completed: impl Fn(&R) -> Vec<u64>,
) -> BTreeMap<u64, BTreeSet<Region>> {
    let mut regions: BTreeMap<u64, BTreeSet<Region>> = BTreeMap::new();
    for region in &report.regions {
        let ids = completed(&region.report);
        for request in batch.iter().filter(|r| ids.contains(&r.id)) {
            if let Some((prefix, _)) = request.shared_prefix() {
                regions.entry(prefix.0).or_default().insert(region.region);
            }
        }
    }
    regions
}

/// Each prefix's sharers land in one region, the same on both surfaces.
fn assert_sharers_meet(
    batch: &[Request],
    sim: &MultiRegionReport<FleetRunReport>,
    runtime: &MultiRegionReport<RuntimeReport>,
) {
    let sim_regions = prefix_regions(batch, sim, |r| r.completions.iter().map(|c| c.id).collect());
    let runtime_regions = prefix_regions(batch, runtime, |r| {
        r.outcomes.iter().map(|o| o.id).collect()
    });
    assert_eq!(sim_regions.len(), 2, "both prefixes were served");
    assert!(sim_regions.values().all(|regions| regions.len() == 1));
    assert_eq!(sim_regions, runtime_regions);
}

#[test]
fn multi_region_front_tier_conforms_across_surfaces() {
    let profile = profile_13b();
    let placement = chain_placement(&profile);
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let batch = multi_region_batch();
    let workload = Workload::new(batch.clone());

    let sim_report = front_tier(vec![
        sim_session(&topology),
        sim_session(&topology),
        sim_session(&topology),
    ])
    .serve(&workload)
    .expect("the simulator tier serves the batch");
    let runtime_report = front_tier(vec![
        runtime_session(&topology),
        runtime_session(&topology),
        runtime_session(&topology),
    ])
    .serve(&workload)
    .expect("the runtime tier serves the batch");

    // The front tier's routing is deterministic and surface-independent:
    // both tiers hand every region the identical share, counted identically.
    assert_eq!(sim_report.stats, runtime_report.stats);
    assert_eq!(sim_report.stats.locality_routes, 8);
    assert_eq!(sim_report.stats.ring_routes, 16);
    // No tagged request shares a prefix, so the ring keyed by prefix id
    // places every request where the affinity table used to.
    assert_eq!(submitted_by_region(&sim_report), vec![5, 12, 7]);
    assert_eq!(submitted_by_region(&runtime_report), vec![5, 12, 7]);
    assert_sharers_meet(&batch, &sim_report, &runtime_report);

    // Every region completed exactly what it was handed, on both surfaces,
    // and the per-region totals agree across surfaces.
    assert_eq!(sim_report.completed_requests(), batch.len() as u64);
    assert_eq!(runtime_report.completed_requests(), batch.len() as u64);
    for (sim_region, runtime_region) in sim_report.regions.iter().zip(&runtime_report.regions) {
        assert_eq!(sim_region.region, runtime_region.region);
        assert_eq!(sim_region.submitted, runtime_region.submitted);
        assert_eq!(
            sim_region.report.completed_requests(),
            sim_region.submitted,
            "simulator {} completes its share",
            sim_region.region
        );
        assert_eq!(
            runtime_region.report.completed_requests(),
            runtime_region.submitted,
            "runtime {} completes its share",
            runtime_region.region
        );
    }
    assert_eq!(
        sim_report.completed_by_region(),
        runtime_report.completed_by_region()
    );
    // Both surfaces generated every requested output token.
    assert_eq!(sim_report.decode_tokens(), runtime_report.decode_tokens());
}

#[test]
fn region_outage_mid_run_loses_zero_completions_on_both_surfaces() {
    let profile = profile_13b();
    let placement = chain_placement(&profile);
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let batch = multi_region_batch();

    // Generic scenario: everything submitted, then one region dies before
    // anything was forwarded to it — its buffer must re-route losslessly.
    fn run<F: ServingFrontEnd>(
        mut tier: MultiRegionSession<F>,
        batch: &[Request],
    ) -> MultiRegionReport<F::Report> {
        for request in batch {
            tier.submit(*request);
        }
        assert!(tier.pending_in(Region(1)) > 0);
        tier.mark_down(Region(1));
        assert_eq!(tier.pending_in(Region(1)), 0);
        tier.finish().expect("the degraded tier finishes")
    }

    let sim_report = run(
        front_tier(vec![
            sim_session(&topology),
            sim_session(&topology),
            sim_session(&topology),
        ]),
        &batch,
    );
    let runtime_report = run(
        front_tier(vec![
            runtime_session(&topology),
            runtime_session(&topology),
            runtime_session(&topology),
        ]),
        &batch,
    );

    assert!(
        sim_report.stats.reroutes > 0,
        "the dead region's buffer moved"
    );
    assert_eq!(sim_report.stats, runtime_report.stats);
    // The spill lands where the parent's reroute did: region 1's buffer
    // went to its ring successors, prefixes re-homed as one.
    assert_eq!(submitted_by_region(&sim_report), vec![11, 0, 13]);
    assert_eq!(submitted_by_region(&runtime_report), vec![11, 0, 13]);
    assert_sharers_meet(&batch, &sim_report, &runtime_report);
    // Zero completions lost on either surface; the dead region served none.
    assert_eq!(sim_report.completed_requests(), batch.len() as u64);
    assert_eq!(runtime_report.completed_requests(), batch.len() as u64);
    assert!(sim_report.completed_by_region().contains(&(Region(1), 0)));
    assert_eq!(
        sim_report.completed_by_region(),
        runtime_report.completed_by_region()
    );
}

/// Two-stage pipeline with every stage doubled (nodes 0/2 bottom, 1/3 top):
/// any single node can fail and the surviving replica of its stage absorbs
/// both the re-plan and the promoted pipelines — the HA suite's shape, on
/// both surfaces.
fn redundant_topology() -> Topology {
    let cluster = ClusterBuilder::new("ha-conformance-4")
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

/// A runtime session slow enough for an injected failure to interrupt real
/// in-flight decode: the virtual clock is wall-driven, so the analytic batch
/// durations must dominate per-event overhead or every pipeline would still
/// be prompt-bound when the failure fires.
fn ha_runtime_session(topology: &Topology) -> ServingSession {
    ServingBuilder::new()
        .topology(topology)
        .config(RuntimeConfig {
            wall_per_virtual: 0.01,
            max_wall: std::time::Duration::from_secs(30),
            ..RuntimeConfig::default()
        })
        .build()
        .expect("the runtime session builds")
}

/// Generic scenario: install a replication policy, submit everything, kill
/// one node mid-run, drain through the fail-over and finish.
fn serve_with_failure<F: ServingFrontEnd>(
    mut front: F,
    batch: &[Request],
    policy: ReplicationPolicy,
    node: NodeId,
    at: f64,
) -> F::Report {
    front.set_replication(policy);
    for request in batch {
        front.submit(*request);
    }
    front.fail_node(node, at);
    front.drain().expect("the failed-over batch drains");
    front.finish().expect("the session finishes")
}

#[test]
fn rf2_mid_run_failure_conforms_across_surfaces() {
    // All-early arrivals and long outputs: every request is mid-decode on
    // both surfaces when node 0 dies, so the doomed set is determined by the
    // (shared) IWRR rotation alone and the promoted sets must be identical.
    let topology = redundant_topology();
    let batch: Vec<Request> = (0..24u64)
        .map(|i| Request {
            id: i,
            prompt_tokens: 32,
            output_tokens: 256,
            arrival_time: 0.01 * i as f64,
            model: ModelId(0),
            ..Request::default()
        })
        .collect();
    let submitted = id_set(&batch);
    let policy = ReplicationPolicy::rf2(0, 16);

    let runtime_report = serve_with_failure(
        ha_runtime_session(&topology),
        &batch,
        policy,
        NodeId(0),
        2.0,
    );
    let sim_report = serve_with_failure(sim_session(&topology), &batch, policy, NodeId(0), 2.0);

    // Zero requests lost to the kill, on either surface.
    let runtime_ids: BTreeSet<u64> = runtime_report.outcomes.iter().map(|o| o.id).collect();
    assert_eq!(runtime_ids, submitted, "runtime loses nothing to the kill");
    let sim_ids: BTreeSet<u64> = sim_report.completions.iter().map(|c| c.id).collect();
    assert_eq!(sim_ids, submitted, "simulator loses nothing to the kill");

    // Both surfaces log one structurally identical fail-over: the same node,
    // the same promoted set, nothing aborted — and each recomputed strictly
    // fewer tokens than the abort-and-readmit fallback would have.
    assert_eq!(runtime_report.failovers.len(), 1);
    assert_eq!(sim_report.failovers.len(), 1);
    let (rt, sm) = (&runtime_report.failovers[0], &sim_report.failovers[0]);
    assert_eq!(rt.node, NodeId(0));
    assert_eq!(sm.node, NodeId(0));
    let promoted =
        |record: &FailoverRecord| -> BTreeSet<u64> { record.promoted.iter().copied().collect() };
    assert_eq!(promoted(rt), promoted(sm), "identical promoted sets");
    assert!(!rt.promoted.is_empty());
    assert!(rt.aborted.is_empty() && sm.aborted.is_empty());
    for record in [rt, sm] {
        assert!(
            record.tokens_recomputed < record.abort_recompute_tokens,
            "promotion must beat abort-and-readmit: {record:?}"
        );
        assert!(record.replica_tokens_used > 0);
    }
    // The trickle showed up as replica traffic on both surfaces.
    assert!(runtime_report.replication.tokens > 0);
    assert!(sim_report.replication.tokens > 0);
}

#[test]
fn node_failure_during_migration_transfer_window_loses_zero_completions() {
    // The migration-window shape (slow node0 → node1 link stretches the
    // hand-over into seconds of virtual time); node 2 — the bottom-stage
    // replica *not* involved in the transfer — dies inside that window, so
    // the fail-over's abort-and-readmit path and the migration's
    // freeze/resume machinery overlap on both surfaces.
    let spec = ClusterBuilder::new("ha-migration-window-3")
        .intra_region(10_000.0, 1.0)
        .override_link(Some(NodeId(0)), Some(NodeId(1)), 10_000.0, 2_500.0)
        .add_nodes(GpuType::A100_80, 3, 1, Region(0))
        .build();
    let profile = ClusterProfile::analytic(spec, ModelConfig::llama_13b());
    let num_layers = profile.model().num_layers;
    let (quarter, half) = (num_layers / 4, num_layers / 2);
    let mut placement = ModelPlacement::empty(3);
    placement.assign(NodeId(0), LayerRange::new(0, half));
    placement.assign(NodeId(2), LayerRange::new(0, half));
    placement.assign(NodeId(1), LayerRange::new(half, num_layers));
    placement.validate(&profile).unwrap();
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let moved = LayerRange::new(quarter, half);
    let batch1: Vec<Request> = (0..16u64)
        .map(|i| Request {
            id: i,
            prompt_tokens: 32,
            output_tokens: 3,
            arrival_time: 0.4 * i as f64,
            model: ModelId(0),
            ..Request::default()
        })
        .collect();
    let batch2 = requests(4, 100, ModelId(0));
    let mut submitted = id_set(&batch1);
    submitted.extend(id_set(&batch2));

    // Scenario on either surface: batch 1 in flight, migrate, kill node 2
    // inside the transfer window, drain through both events, then serve
    // batch 2 on the holed plan and finish.
    let serve = |is_sim: bool| -> (BTreeSet<u64>, Vec<FailoverRecord>, usize, f64) {
        if is_sim {
            let mut front = sim_session(&topology);
            for request in &batch1 {
                front.submit(*request);
            }
            ServingFrontEnd::migrate(&mut front, ModelId(0), NodeId(0), NodeId(1), moved);
            ServingFrontEnd::fail_node(&mut front, NodeId(2), 1.5);
            ServingFrontEnd::drain(&mut front).unwrap();
            for request in &batch2 {
                front.submit(*request);
            }
            let report = ServingFrontEnd::finish(front).unwrap();
            assert_eq!(report.kv_transfers.len(), 1);
            let hand_over = &report.kv_transfers[0];
            assert_eq!(hand_over.migration.layers, moved);
            // The failure landed inside the transfer window.
            let window = (hand_over.at - hand_over.transfer_secs, hand_over.at);
            assert!(
                window.0 < report.failovers[0].at && report.failovers[0].at < window.1,
                "failure at {} missed the transfer window {window:?}",
                report.failovers[0].at
            );
            (
                report.completions.iter().map(|c| c.id).collect(),
                report.failovers.clone(),
                report.kv_transfers.len(),
                hand_over.transfer_secs,
            )
        } else {
            let mut front = ha_runtime_session(&topology);
            for request in &batch1 {
                front.submit(*request);
            }
            ServingFrontEnd::migrate(&mut front, ModelId(0), NodeId(0), NodeId(1), moved);
            ServingFrontEnd::fail_node(&mut front, NodeId(2), 1.5);
            ServingFrontEnd::drain(&mut front).unwrap();
            for request in &batch2 {
                front.submit(*request);
            }
            let report = ServingFrontEnd::finish(front).unwrap();
            assert_eq!(report.kv_transfers.len(), 1);
            assert_eq!(report.kv_transfers[0].migration.layers, moved);
            (
                report.outcomes.iter().map(|o| o.id).collect(),
                report.failovers.clone(),
                report.kv_transfers.len(),
                report.kv_transfers[0].transfer_secs,
            )
        }
    };

    for is_sim in [false, true] {
        let surface = if is_sim { "simulator" } else { "runtime" };
        let (ids, failovers, transfers, transfer_secs) = serve(is_sim);
        assert_eq!(
            ids, submitted,
            "{surface}: zero completions lost across migration + failure"
        );
        assert_eq!(transfers, 1, "{surface}: exactly one hand-over");
        assert!(
            transfer_secs > 1.0,
            "{surface}: the slow link stretches the hand-over, got {transfer_secs}s"
        );
        assert_eq!(failovers.len(), 1, "{surface}: exactly one fail-over");
        let record = &failovers[0];
        assert_eq!(record.node, NodeId(2), "{surface}: node 2 died");
        // No replication policy was installed: the fail-over is pure
        // abort-and-readmit, so nothing is promoted and the recompute bill
        // equals the fallback's by construction.
        assert!(record.promoted.is_empty(), "{surface}: nothing promotable");
        assert_eq!(record.tokens_recomputed, record.abort_recompute_tokens);
        assert_eq!(record.replica_tokens_used, 0);
    }
}

/// Two failures injected for one virtual instant are two fail-overs, one
/// per node, in call order, on both surfaces: the simulator handles one
/// failure event at a time, and the runtime fails over once per due node.
/// Every request is mid-decode when nodes 3 and 2 die (a top and a bottom
/// stage of `redundant_topology`), so the stranded sets follow from the
/// shared IWRR rotation alone: the first record aborts every pipeline
/// through node 3, the second the rest of those through node 2.  Only the
/// records' times may differ: the runtime's is the reading of the turn that
/// fired them.
#[test]
fn two_failures_at_one_instant_are_two_failovers_in_call_order_on_both_surfaces() {
    fn serve<F: ServingFrontEnd>(mut front: F, batch: &[Request]) -> F::Report {
        for request in batch {
            front.submit(*request);
        }
        front.fail_node(NodeId(3), 2.0);
        front.fail_node(NodeId(2), 2.0);
        front.drain().expect("the failed-over batch drains");
        front.finish().expect("the session finishes")
    }
    let topology = redundant_topology();
    let batch: Vec<Request> = (0..24u64)
        .map(|i| Request {
            id: i,
            prompt_tokens: 32,
            output_tokens: 256,
            arrival_time: 0.01 * i as f64,
            model: ModelId(0),
            ..Request::default()
        })
        .collect();
    let runtime_report = serve(ha_runtime_session(&topology), &batch);
    let sim_report = serve(sim_session(&topology), &batch);

    let runtime_ids: BTreeSet<u64> = runtime_report.outcomes.iter().map(|o| o.id).collect();
    let sim_ids: BTreeSet<u64> = sim_report.completions.iter().map(|c| c.id).collect();
    assert_eq!(runtime_ids, id_set(&batch), "runtime loses nothing");
    assert_eq!(sim_ids, id_set(&batch), "simulator loses nothing");
    // (node, promoted, aborted) of each record, in order.
    let shape = |records: &[FailoverRecord]| -> Vec<(NodeId, Vec<u64>, Vec<u64>)> {
        let shape = records.iter().map(|r| {
            assert!(r.at >= 2.0, "fired before it was due: {r:?}");
            (r.node, r.promoted.clone(), r.aborted.clone())
        });
        shape.collect()
    };
    let (runtime, sim) = (
        shape(&runtime_report.failovers),
        shape(&sim_report.failovers),
    );
    let nodes: Vec<NodeId> = runtime.iter().map(|r| r.0).collect();
    assert_eq!(
        nodes,
        [NodeId(3), NodeId(2)],
        "one record per node, in call order"
    );
    assert_eq!(runtime, sim, "the same fail-overs on both surfaces");
    assert!(runtime
        .iter()
        .all(|(_, promoted, aborted)| promoted.is_empty() && !aborted.is_empty()));
    let reasons = |replans: &[ReplanRecord]| -> Vec<ReplanReason> {
        replans.iter().map(|r| r.reason).collect()
    };
    let removals = [NodeId(3), NodeId(2)].map(|node| ReplanReason::NodeFailure { node });
    assert_eq!(reasons(&runtime_report.replans), removals);
    assert_eq!(reasons(&sim_report.replans), removals);
}

#[test]
fn drain_then_submit_is_served_and_reports_stay_monotonic() {
    let profile = profile_13b();
    let placement = chain_placement(&profile);
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let batch1 = requests(8, 0, ModelId(0));
    let batch2 = requests(8, 100, ModelId(0));

    // Runtime: post-drain submissions are served, completion counts are
    // monotonic, and the one genuine rejection — waiting on a ticket that
    // was never submitted — is a typed budget error, not a hang.
    let mut session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig {
            max_wall: std::time::Duration::from_millis(200),
            ..RuntimeConfig::fast_test()
        })
        .build()
        .unwrap();
    for request in &batch1 {
        session.submit(*request);
    }
    session.drain().unwrap();
    let after_first = session.try_completions().len();
    assert_eq!(after_first, batch1.len());
    for request in &batch2 {
        session.submit(*request);
    }
    session.drain().unwrap();
    let after_second = after_first + session.try_completions().len();
    assert!(after_second >= after_first, "completions are monotonic");
    assert_eq!(after_second, batch1.len() + batch2.len());
    let bogus = session
        .wait_completion(TicketId(9999))
        .expect_err("a never-submitted ticket is rejected");
    assert!(matches!(
        bogus,
        helix_runtime::RuntimeError::WallClockBudgetExceeded { .. }
    ));
    let report = session.finish().unwrap();
    assert_eq!(report.completed(), batch1.len() + batch2.len());

    // Simulator: same flow, cumulative report covers both drained batches
    // and every counter is monotonic between drains.
    let mut session = sim_session(&topology);
    for request in &batch1 {
        session.submit(*request);
    }
    SimSession::drain(&mut session);
    let first = session.report().metrics.overall;
    assert_eq!(first.completed_requests, batch1.len() as u64);
    for request in &batch2 {
        session.submit(*request);
    }
    SimSession::drain(&mut session);
    let second = session.report().metrics.overall;
    assert!(second.completed_requests >= first.completed_requests);
    assert!(second.decode_tokens >= first.decode_tokens);
    assert!(second.measured_seconds >= first.measured_seconds);
    let report = session.finish();
    assert_eq!(
        report.metrics.overall.completed_requests,
        (batch1.len() + batch2.len()) as u64
    );
    // One clock: batch 2 arrives when the first drain stopped, so each of
    // its completions comes after all of batch 1's.
    let batch1_ids = id_set(&batch1);
    let (early, late): (Vec<&helix::sim::CompletionRecord>, Vec<_>) = report
        .completions
        .iter()
        .partition(|c| batch1_ids.contains(&c.id));
    let batch1_done = early.iter().map(|c| c.at).fold(0.0, f64::max);
    assert_eq!(late.len(), batch2.len());
    assert!(
        late.iter().all(|c| c.at > batch1_done),
        "batch 2 completed before batch 1 did: {late:?} vs {batch1_done}"
    );
}
