//! Multi-region serving through the front tier: three regional fleets behind
//! one [`MultiRegionSession`], with a mid-run degradation, a short outage and
//! a rebalancing round.
//!
//! Each region runs its own flow-planned fleet (here: simulator-backed); the
//! front tier routes by locality tag, prefix affinity and consistent
//! hashing, re-weights the ring as health changes, and prices every
//! cross-region affinity move over the slow inter-region link.
//!
//! ```text
//! cargo run --release --example multi_region_serving
//! ```

use helix::prelude::*;

/// One region's fleet: a small homogeneous cluster, swarm-placed (plenty of
/// replication, so the example plans in milliseconds), served by IWRR.
fn regional_session(region: Region) -> SimSession {
    let spec = ClusterBuilder::new(format!("{region}-fleet"))
        .intra_region(10_000.0, 1.0)
        .add_nodes(GpuType::A100_80, 4, 8, region)
        .build();
    let profile = ClusterProfile::analytic(spec, ModelConfig::llama_13b());
    let placement = helix::core::heuristics::swarm_placement(&profile).expect("swarm placement");
    let topology = Topology::plan(&profile, &placement, true).expect("regional topology");
    let scheduler = IwrrScheduler::from_topology(&topology).expect("iwrr");
    let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
    SimSession::new(
        sim,
        SimulationConfig::offline(600.0)
            .with_warmup(0.0)
            .with_admission_limit(64),
    )
}

fn main() {
    let regions = [Region(0), Region(1), Region(2)];
    let mut tier = MultiRegionSession::with_options(
        regions.iter().map(|&r| (r, regional_session(r))).collect(),
        FrontTierOptions::for_model(&ModelConfig::llama_13b()),
    );
    println!(
        "front tier over {:?}: {} ring points, heartbeat interval {}s",
        tier.regions(),
        tier.ring().len(),
        helix::core::region::HEARTBEAT_INTERVAL_SECS,
    );

    // 300 requests: a third carry a user-locality tag, half share one of
    // twelve prompt prefixes, the rest are placed by consistent hashing.
    let mut requests = Workload::azure_like(300, 7)
        .with_arrivals(ArrivalPattern::Offline, 3)
        .with_shared_prefixes(12, 64, 0.5)
        .requests()
        .to_vec();
    for request in requests.iter_mut().filter(|r| r.id % 3 == 0) {
        request.region = Some(regions[(request.id / 3 % 3) as usize]);
    }
    let total = requests.len() as u64;

    // First half of the traffic against a healthy fleet-of-fleets.
    for request in requests.iter().take(150) {
        tier.submit(*request);
    }

    // Sixty seconds in, every region heartbeats (a silent region would decay
    // Healthy → Degraded → Down on its own).  Then region 1 degrades (it
    // keeps a quarter of its ring weight) and region 2 goes down outright:
    // its buffered requests re-route, its prefix homes drain to the
    // survivors as priced transfers.
    for region in regions {
        tier.heartbeat(region, 60.0);
    }
    tier.mark_degraded(Region(1));
    tier.mark_down(Region(2));
    println!(
        "\nafter 60s: region1 {:?} (weight {:.2}), region2 {:?} — {} requests rerouted",
        tier.health(Region(1)),
        tier.ring().weight(Region(1)).unwrap_or(0.0),
        tier.health(Region(2)),
        tier.stats().reroutes,
    );

    // Second half lands while the fleet is sick; a rebalance round then
    // drains affinity away from the overloaded survivors.
    for request in requests.iter().skip(150) {
        tier.submit(*request);
    }
    let moves = tier.rebalance();
    println!("rebalance planned {} move(s)", moves.len());

    // Region 2 recovers before the run ends.
    for region in [Region(0), Region(1)] {
        tier.heartbeat(region, 120.0);
    }
    tier.mark_healthy(Region(2));

    let report = tier.finish().expect("the tier finishes");

    println!(
        "\n{:<10} {:>10} {:>10} {:>14}",
        "region", "routed", "completed", "decode tok"
    );
    for region in &report.regions {
        println!(
            "{:<10} {:>10} {:>10} {:>14}",
            region.region.to_string(),
            region.submitted,
            region.report.completed_requests(),
            region.report.decode_tokens(),
        );
    }
    let stats = &report.stats;
    println!(
        "\nrouting: {} locality, {} affinity ({} hits, {:.0}% hit rate), {} ring, {} reroutes",
        stats.locality_routes,
        stats.affinity_hits + stats.affinity_misses,
        stats.affinity_hits,
        stats.affinity_hit_rate() * 100.0,
        stats.ring_routes,
        stats.reroutes,
    );
    println!(
        "cross-region transfers: {} ({} homes drained, {:.1} MB, {:.2}s link time)",
        report.transfers.len(),
        stats.affinity_drains,
        report.transfers.iter().map(|t| t.bytes).sum::<f64>() / 1e6,
        report
            .transfers
            .iter()
            .map(|t| t.transfer_secs)
            .sum::<f64>(),
    );

    // The contract the front tier exists for: an outage mid-run loses
    // nothing, and prefix affinity keeps paying off across regions.
    assert_eq!(
        report.completed_requests(),
        total,
        "every request completes despite the outage"
    );
    assert_eq!(stats.total_routed(), total);
    assert!(
        stats.affinity_hit_rate() > 0.0,
        "prefix sharers reuse their home region"
    );
    assert!(stats.reroutes > 0, "the outage re-routed buffered work");
    println!(
        "\nzero requests lost; affinity hit rate {:.0}%",
        stats.affinity_hit_rate() * 100.0
    );
}
