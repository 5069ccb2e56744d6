//! Multi-region serving through the front tier: three regional fleets behind
//! one [`MultiRegionSession`], with a mid-run outage and a recovery.
//!
//! Each region runs its own flow-planned fleet (here: simulator-backed); the
//! front tier routes by region tag, then by a consistent-hash ring keyed by
//! shared prefix or request id.  A region marked down leaves the ring and
//! spills its buffered requests to the survivors.
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
    let mut tier =
        MultiRegionSession::new(regions.iter().map(|&r| (r, regional_session(r))).collect());
    println!("front tier over {:?}", tier.regions());

    // 300 requests: a third carry a user-locality tag, half share one of
    // twelve prompt prefixes, the rest are placed by their id.
    let mut requests = Workload::azure_like(300, 7)
        .with_arrivals(ArrivalPattern::Offline, 3)
        .with_shared_prefixes(12, 64, 0.5)
        .requests()
        .to_vec();
    for request in requests.iter_mut().filter(|r| r.id % 3 == 0) {
        request.region = Some(regions[(request.id / 3 % 3) as usize]);
    }
    let total = requests.len() as u64;

    // The first third of the traffic meets a healthy fleet-of-fleets; then
    // region 2 goes down and its buffered requests spill to the survivors.
    let (first, rest) = requests.split_at(100);
    let (second, third) = rest.split_at(100);
    for request in first {
        tier.submit(*request);
    }
    tier.mark_down(Region(2));
    println!(
        "region2 down: {} buffered requests spilled",
        tier.stats().reroutes
    );

    // The second third lands on the two survivors; then region 2 recovers
    // and the last third routes over all three regions again.
    for request in second {
        tier.submit(*request);
    }
    tier.mark_healthy(Region(2));
    for request in third {
        tier.submit(*request);
    }

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
        "\nrouting: {} by tag, {} by ring, {} spilled",
        stats.locality_routes, stats.ring_routes, stats.reroutes,
    );

    // The contract the front tier exists for: an outage mid-run loses
    // nothing.
    assert_eq!(
        report.completed_requests(),
        total,
        "every request completes despite the outage"
    );
    assert_eq!(
        report.regions.iter().map(|r| r.submitted).sum::<u64>(),
        total
    );
    assert!(stats.reroutes > 0, "the outage spilled buffered work");
    assert!(
        report.regions[2].submitted > 0,
        "the recovered region serves again"
    );
    println!("\nzero requests lost");
}
