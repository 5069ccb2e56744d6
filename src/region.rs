//! The front tier: one router over a fleet of regional fleets.
//!
//! Helix plans and serves one region at a time — a [`Topology`] is a single
//! cluster, a [`FleetTopology`] a single machine room.  [`MultiRegionSession`]
//! is a thin tier in front of several such fleets that decides **which
//! region** serves each request before any per-region max-flow scheduling
//! happens.  It is generic over [`ServingFrontEnd`], so the same router
//! drives regions backed by the discrete-event simulator ([`SimSession`]) or
//! the threaded prototype runtime ([`ServingSession`]).
//!
//! ```text
//!                    MultiRegionSession  (this module)
//!                      consistent-hash ring
//!              /             |                \
//!        region0          region1           region2
//!      SimSession /     SimSession /      SimSession /
//!     ServingSession   ServingSession    ServingSession
//!      (max-flow IWRR + prefix routing *within* the region)
//! ```
//!
//! Routing is one rule:
//!
//! 1. a request tagged with [`Request::region`] goes there while that region
//!    is on the [`RegionRing`];
//! 2. everything else goes to the ring, keyed by the request's shared prefix
//!    id, else its request id — so the sharers of one prefix meet in one
//!    region, whose KV pools hold the shared pages, with no table.
//!
//! [`mark_down`](MultiRegionSession::mark_down) takes a region off the ring
//! and spills the requests buffered for it to the survivors (nothing is
//! lost); [`mark_healthy`](MultiRegionSession::mark_healthy) puts it back,
//! and the ring routes exactly as before the outage.
//!
//! A scripted [`PerturbationEvent`] goes through the tier's one
//! [`schedule`](ServingFrontEnd::schedule): a
//! [`Replan`](PerturbationEvent::Replan) to the first region on the ring,
//! every other event to every region (node ids are per-region namespaces).
//!
//! [`Topology`]: helix_core::Topology
//! [`FleetTopology`]: helix_core::FleetTopology
//! [`SimSession`]: helix_sim::SimSession
//! [`ServingSession`]: helix_runtime::ServingSession

use crate::front::ServingFrontEnd;
use helix_cluster::Region;
use helix_core::{PerturbationEvent, RegionRing, ReplicationPolicy, RingOptions};
use helix_runtime::RuntimeReport;
use helix_sim::FleetRunReport;
use helix_workload::{Request, TicketId};

/// Routing counters of one front-tier session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrontTierStats {
    /// Requests placed by their [`Request::region`] tag.
    pub locality_routes: u64,
    /// Requests placed by the ring.
    pub ring_routes: u64,
    /// Buffered requests spilled off a region after it went down.
    pub reroutes: u64,
}

/// Common read-out over the two per-region report types, so
/// [`MultiRegionReport`] can aggregate without knowing which surface
/// produced each region's report.
pub trait ReportTotals {
    /// Requests the region completed.
    fn completed_requests(&self) -> u64;
    /// Decode tokens the region produced.
    fn decode_tokens(&self) -> u64;
}

impl ReportTotals for RuntimeReport {
    fn completed_requests(&self) -> u64 {
        self.completed() as u64
    }

    fn decode_tokens(&self) -> u64 {
        RuntimeReport::decode_tokens(self)
    }
}

impl ReportTotals for FleetRunReport {
    fn completed_requests(&self) -> u64 {
        self.metrics.overall.completed_requests
    }

    fn decode_tokens(&self) -> u64 {
        self.metrics.overall.decode_tokens
    }
}

/// One region's share of a finished multi-region run.
#[derive(Debug)]
pub struct RegionReport<R> {
    /// The region.
    pub region: Region,
    /// Requests the front tier handed this region (after any spill).
    pub submitted: u64,
    /// The region's own report, untouched.
    pub report: R,
}

/// The report of a finished [`MultiRegionSession`]: every region's report
/// plus the front tier's own routing counters.
#[derive(Debug)]
pub struct MultiRegionReport<R> {
    /// Per-region reports, in registration order.
    pub regions: Vec<RegionReport<R>>,
    /// Front-tier routing counters.
    pub stats: FrontTierStats,
}

impl<R: ReportTotals> MultiRegionReport<R> {
    /// Completed requests summed over all regions.
    pub fn completed_requests(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| r.report.completed_requests())
            .sum()
    }

    /// Decode tokens summed over all regions.
    pub fn decode_tokens(&self) -> u64 {
        self.regions.iter().map(|r| r.report.decode_tokens()).sum()
    }

    /// `(region, completed)` pairs in registration order.
    pub fn completed_by_region(&self) -> Vec<(Region, u64)> {
        self.regions
            .iter()
            .map(|r| (r.region, r.report.completed_requests()))
            .collect()
    }
}

struct RegionSlot<F> {
    region: Region,
    front: F,
    /// Requests routed here and not yet forwarded; buffering until
    /// [`MultiRegionSession::drain`] is what lets an outage spill them
    /// losslessly on either backing surface.
    pending: Vec<Request>,
    submitted: u64,
}

/// A fleet of regional fleets behind one [`ServingFrontEnd`].
///
/// Owns one backing session per region and a [`RegionRing`] over the
/// regions that are up.  Submissions are buffered per region and forwarded
/// when the session drains ([`ServingFrontEnd::drain`], or
/// [`finish`](Self::finish)) — the same buffer-then-drain shape as
/// [`SimSession`](helix_sim::SimSession) — so a region marked down mid-run
/// loses nothing: its buffer spills to the survivors.
///
/// ```rust,no_run
/// use helix::prelude::*;
/// use helix::region::MultiRegionSession;
/// # fn backends() -> Vec<(Region, SimSession)> { unimplemented!() }
///
/// let mut session = MultiRegionSession::new(backends());
/// session.submit(Request { id: 0, prompt_tokens: 64, output_tokens: 8, ..Request::default() });
/// session.mark_down(Region(1)); // buffered work spills, nothing lost
/// let report = session.finish().unwrap();
/// assert_eq!(report.completed_requests(), 1);
/// ```
pub struct MultiRegionSession<F: ServingFrontEnd> {
    slots: Vec<RegionSlot<F>>,
    ring: RegionRing,
    stats: FrontTierStats,
}

impl<F: ServingFrontEnd> MultiRegionSession<F> {
    /// A front tier over `backends`, every region on the ring.
    ///
    /// # Panics
    ///
    /// When `backends` is empty or two backends claim the same region.
    pub fn new(backends: Vec<(Region, F)>) -> Self {
        assert!(
            !backends.is_empty(),
            "a MultiRegionSession needs at least one regional backend"
        );
        let mut slots = Vec::with_capacity(backends.len());
        for (region, front) in backends {
            assert!(
                slots.iter().all(|s: &RegionSlot<F>| s.region != region),
                "duplicate backend for {region}"
            );
            slots.push(RegionSlot {
                region,
                front,
                pending: Vec::new(),
                submitted: 0,
            });
        }
        let regions: Vec<Region> = slots.iter().map(|s| s.region).collect();
        MultiRegionSession {
            slots,
            ring: RegionRing::new(&regions, RingOptions::default()),
            stats: FrontTierStats::default(),
        }
    }

    /// The regions behind this tier, in registration order.
    pub fn regions(&self) -> Vec<Region> {
        self.slots.iter().map(|s| s.region).collect()
    }

    /// Routing counters so far.
    pub fn stats(&self) -> &FrontTierStats {
        &self.stats
    }

    /// Requests buffered for `region` and not yet forwarded.
    pub fn pending_in(&self, region: Region) -> usize {
        self.slots
            .iter()
            .find(|s| s.region == region)
            .map_or(0, |s| s.pending.len())
    }

    /// Takes `region` off the ring and spills every request buffered for it
    /// to the surviving regions (nothing is lost).
    pub fn mark_down(&mut self, region: Region) {
        self.ring.remove(region);
        let Some(slot) = self.slots.iter_mut().find(|s| s.region == region) else {
            return;
        };
        let spilled = std::mem::take(&mut slot.pending);
        slot.submitted -= spilled.len() as u64;
        for request in spilled {
            self.stats.reroutes += 1;
            self.submit(request);
        }
    }

    /// Puts a registered `region` back on the ring.
    pub fn mark_healthy(&mut self, region: Region) {
        if self.slots.iter().any(|s| s.region == region) {
            self.ring.insert(region);
        }
    }

    /// Routes and buffers one request; see the module docs for the rule.
    pub fn submit(&mut self, request: Request) -> TicketId {
        let region = match request.region.filter(|&tag| self.ring.contains(tag)) {
            Some(tag) => {
                self.stats.locality_routes += 1;
                Some(tag)
            }
            None => {
                self.stats.ring_routes += 1;
                let key = request.shared_prefix().map_or(request.id, |(p, _)| p.0);
                self.ring.route(key)
            }
        };
        // With every region down the request parks on the first slot,
        // still buffered: a later `mark_healthy` lets it drain normally.
        let index = region
            .and_then(|r| self.slots.iter().position(|s| s.region == r))
            .unwrap_or(0);
        let slot = &mut self.slots[index];
        slot.pending.push(request);
        slot.submitted += 1;
        TicketId(request.id)
    }

    /// Forwards every buffered request to its region and drains all
    /// regions.
    fn drain(&mut self) -> Result<(), F::Error> {
        for slot in &mut self.slots {
            for request in slot.pending.drain(..) {
                slot.front.submit(request);
            }
        }
        for slot in &mut self.slots {
            slot.front.drain()?;
        }
        Ok(())
    }

    /// Drains, finishes every region and assembles the merged report.
    pub fn finish(mut self) -> Result<MultiRegionReport<F::Report>, F::Error> {
        self.drain()?;
        let mut regions = Vec::with_capacity(self.slots.len());
        for slot in self.slots {
            regions.push(RegionReport {
                region: slot.region,
                submitted: slot.submitted,
                report: slot.front.finish()?,
            });
        }
        Ok(MultiRegionReport {
            regions,
            stats: self.stats,
        })
    }
}

impl<F: ServingFrontEnd> ServingFrontEnd for MultiRegionSession<F> {
    type Report = MultiRegionReport<F::Report>;
    type Error = F::Error;

    fn submit(&mut self, request: Request) -> TicketId {
        MultiRegionSession::submit(self, request)
    }

    /// A [`PerturbationEvent::Replan`] goes to the first region on the ring
    /// (registration order).  Every other event is broadcast to every
    /// region: node and region ids are per-region namespaces, so slowing or
    /// failing "node 3" means node 3 *everywhere* (a correlated failure).
    fn schedule(&mut self, event: PerturbationEvent) {
        if let PerturbationEvent::Replan { .. } = event {
            let ring = &self.ring;
            if let Some(slot) = self.slots.iter_mut().find(|s| ring.contains(s.region)) {
                slot.front.schedule(event);
            }
            return;
        }
        for slot in &mut self.slots {
            slot.front.schedule(event.clone());
        }
    }

    /// Broadcasts to every region: replication is a fleet-wide policy.
    fn set_replication(&mut self, policy: ReplicationPolicy) {
        for slot in &mut self.slots {
            slot.front.set_replication(policy);
        }
    }

    fn drain(&mut self) -> Result<(), F::Error> {
        MultiRegionSession::drain(self)
    }

    fn finish(self) -> Result<Self::Report, F::Error> {
        MultiRegionSession::finish(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_cluster::PrefixId;
    use std::convert::Infallible;

    /// A region backend that just records what it was handed; lets the
    /// routing logic be tested without spinning up simulators.
    #[derive(Default)]
    struct NullFront {
        submitted: Vec<Request>,
        scheduled: Vec<PerturbationEvent>,
        drained: bool,
    }

    impl ServingFrontEnd for NullFront {
        type Report = Vec<Request>;
        type Error = Infallible;

        fn submit(&mut self, request: Request) -> TicketId {
            self.submitted.push(request);
            TicketId(request.id)
        }

        fn schedule(&mut self, event: PerturbationEvent) {
            self.scheduled.push(event);
        }

        fn set_replication(&mut self, _policy: ReplicationPolicy) {}

        fn drain(&mut self) -> Result<(), Infallible> {
            self.drained = true;
            Ok(())
        }

        fn finish(self) -> Result<Vec<Request>, Infallible> {
            assert!(self.drained, "finish without drain");
            Ok(self.submitted)
        }
    }

    fn tier(regions: &[u32]) -> MultiRegionSession<NullFront> {
        MultiRegionSession::new(
            regions
                .iter()
                .map(|&r| (Region(r), NullFront::default()))
                .collect(),
        )
    }

    /// The ring a fresh tier over `regions` builds, for expected routes.
    fn ring(regions: &[u32]) -> RegionRing {
        let regions: Vec<Region> = regions.iter().map(|&r| Region(r)).collect();
        RegionRing::new(&regions, RingOptions::default())
    }

    fn tagged(id: u64, region: Option<u32>, prefix: Option<(u64, usize)>) -> Request {
        Request {
            id,
            prompt_tokens: 128,
            output_tokens: 8,
            prefix: prefix.map(|(p, _)| PrefixId(p)),
            prefix_tokens: prefix.map_or(0, |(_, t)| t),
            region: region.map(Region),
            ..Request::default()
        }
    }

    /// Ids buffered for `region`, in buffer order.
    fn pending_ids(tier: &MultiRegionSession<NullFront>, region: Region) -> Vec<u64> {
        tier.slots
            .iter()
            .filter(|s| s.region == region)
            .flat_map(|s| s.pending.iter().map(|r| r.id))
            .collect()
    }

    #[test]
    fn prefix_sharers_meet_in_one_region_without_a_table() {
        let mut tier = tier(&[0, 1, 2]);
        let home = ring(&[0, 1, 2]).route(7).unwrap();
        // Sharers of prefix 7 whose ids hash all over the ring.
        for id in 0..30 {
            tier.submit(tagged(id, None, Some((7, 64))));
        }
        assert_eq!(pending_ids(&tier, home).len(), 30);
        assert_eq!(tier.stats().ring_routes, 30);
        // A region tag wins over the prefix while its region is up.
        let elsewhere = if home == Region(0) { 1 } else { 0 };
        tier.submit(tagged(30, Some(elsewhere), Some((7, 64))));
        assert_eq!(pending_ids(&tier, Region(elsewhere)), vec![30]);
        assert_eq!(tier.stats().locality_routes, 1);
        // Untagged requests follow their own id on the ring.
        let expected = ring(&[0, 1, 2]);
        for id in 100..140 {
            tier.submit(tagged(id, None, None));
            let region = expected.route(id).unwrap();
            assert_eq!(pending_ids(&tier, region).last(), Some(&id));
        }
    }

    #[test]
    fn mark_down_reroutes_buffered_work_and_rehomes_prefixes() {
        let mut tier = tier(&[0, 1, 2]);
        let mut requests = Vec::new();
        for id in 0..30 {
            let region = (id % 5 == 0).then_some((id % 3) as u32);
            let prefix = (id % 2 == 1).then_some((id % 4, 64));
            requests.push(tagged(id, region, prefix));
        }
        for request in &requests {
            tier.submit(*request);
        }
        let victim = Region(1);
        let before: Vec<Vec<u64>> = (0..3).map(|r| pending_ids(&tier, Region(r))).collect();
        assert!(!before[1].is_empty());

        tier.mark_down(victim);
        assert_eq!(pending_ids(&tier, victim), Vec::<u64>::new());
        assert_eq!(tier.stats().reroutes, before[1].len() as u64);
        // The survivors keep their own buffers in order; the spill follows.
        let mut survivors = ring(&[0, 1, 2]);
        survivors.remove(victim);
        for r in [0, 2] {
            let after = pending_ids(&tier, Region(r));
            assert_eq!(after[..before[r as usize].len()], before[r as usize][..]);
        }
        // Each spilled request sits on its ring successor — a tag naming
        // the dead region included — so a prefix re-homes as one.
        for &id in &before[1] {
            let request = requests[id as usize];
            let key = request.shared_prefix().map_or(id, |(p, _)| p.0);
            let successor = survivors.route(key).unwrap();
            assert!(pending_ids(&tier, successor).contains(&id), "{id}");
        }
        let submitted: u64 = tier.slots.iter().map(|s| s.submitted).sum();
        assert_eq!(submitted, 30);

        // Back up: a tag naming it wins again.
        tier.mark_healthy(victim);
        tier.submit(tagged(100, Some(victim.0), None));
        assert_eq!(pending_ids(&tier, victim), vec![100]);
    }

    #[test]
    fn with_every_region_down_requests_park_on_the_first_slot_until_mark_healthy() {
        let mut tier = tier(&[3, 1, 2]);
        for r in [3, 1, 2] {
            tier.mark_down(Region(r));
        }
        for id in 0..5 {
            tier.submit(tagged(id, Some(2), Some((id, 16))));
        }
        assert_eq!(pending_ids(&tier, Region(3)), vec![0, 1, 2, 3, 4]);
        // An unknown region never joins the ring.
        tier.mark_healthy(Region(9));
        tier.submit(tagged(5, Some(9), None));
        assert_eq!(pending_ids(&tier, Region(3)).len(), 6);

        for r in [3, 1, 2] {
            tier.mark_healthy(Region(r));
        }
        let expected = ring(&[3, 1, 2]);
        for id in 10..40 {
            tier.submit(tagged(id, None, None));
            let region = expected.route(id).unwrap();
            assert_eq!(pending_ids(&tier, region).last(), Some(&id));
        }
        // The parked requests drain from where they parked.
        let report = tier.finish().unwrap();
        assert_eq!(
            report.regions.iter().map(|r| r.report.len()).sum::<usize>(),
            36
        );
        assert!(report.regions[0].report.iter().any(|r| r.id == 0));
    }

    /// A re-plan goes to the first region on the ring; every other event
    /// to every region, in call order.
    #[test]
    fn a_replan_goes_to_the_first_region_up_and_the_rest_everywhere() {
        use helix_cluster::NodeId;
        use helix_core::PlacementDelta;
        let mut tier = tier(&[0, 1, 2]);
        tier.mark_down(Region(0));
        let fail = PerturbationEvent::NodeFailure {
            at: 1.0,
            node: NodeId(3),
        };
        let replan = PerturbationEvent::Replan {
            at: 2.0,
            delta: PlacementDelta::new(),
        };
        ServingFrontEnd::fail_node(&mut tier, NodeId(3), 1.0);
        tier.schedule(replan.clone());
        let scheduled: Vec<&[PerturbationEvent]> = tier
            .slots
            .iter()
            .map(|s| s.front.scheduled.as_slice())
            .collect();
        let (both, only_fail) = ([fail.clone(), replan], [fail]);
        assert_eq!(scheduled, [&only_fail[..], &both[..], &only_fail[..]]);
    }

    #[test]
    fn finish_merges_reports_and_preserves_every_request() {
        let mut tier = tier(&[0, 1, 2]);
        for id in 0..25 {
            tier.submit(tagged(id, None, (id % 2 == 0).then_some((id / 4, 32))));
        }
        tier.mark_down(Region(1));
        let report = tier.finish().unwrap();
        let forwarded: usize = report.regions.iter().map(|r| r.report.len()).sum();
        assert_eq!(forwarded, 25);
        for region in &report.regions {
            assert_eq!(region.submitted as usize, region.report.len());
        }
        assert_eq!(
            report
                .regions
                .iter()
                .find(|r| r.region == Region(1))
                .unwrap()
                .report
                .len(),
            0
        );
    }
}
