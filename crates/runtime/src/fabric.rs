//! The network fabric and the data plane's one time-ordered queue.
//!
//! The paper's prototype ships tensors over ZeroMQ across real datacenter
//! links; here the fabric models each directed link as a [`LinkQueue`] — the
//! simulator's link model: a serial resource (messages queue behind each
//! other at the link's bandwidth) plus a propagation latency — in the
//! [`LinkTable`] the simulator uses, from the same per-link numbers the
//! planner sees through `ClusterProfile::link_profile`.  Congestion on slow
//! inter-region links — the effect behind the paper's Fig. 10b case study —
//! emerges naturally from this model.
//!
//! The fabric is plain data the plane's loop owns, it has no clock, and it
//! is the runtime's [`Wire`] — the one surface-specific part of the shared
//! actuator: `transfer` prices bytes on a link at the `now` its caller acts
//! on — KV bookkeeping, which takes effect at once, stops there — and
//! `send_hop` also queues the hop's arrival, or its token's at the
//! coordinator, at the time the link computes.  A send is stamped with the
//! clock reading of the pass (or turn) that makes it, never with a reading
//! of its own, so however long a pass runs, its sends leave at one instant.
//! What is in flight waits in the shared [`Timeline`], as the simulator's
//! 24-byte wire events: [`Event::NodeArrival`], [`Event::TokenAtCoordinator`],
//! a batch that takes time ([`Event::BatchComplete`], `completes`) and one
//! [`Event::EngineThaw`] per row when a KV hand-over arrives (`landed`).
//! The loop waits for the queue's earliest time and pops what is due —
//! nothing here runs, wakes or polls.
//!
//! [`LinkQueue`]: helix_core::LinkQueue

use crate::metrics::LinkReport;
use helix_cluster::{ClusterSpec, ModelId, NodeId, TOKEN_WIRE_BYTES};
use helix_core::{Hop, LinkKey, LinkTable, Timeline, Wire};

/// Key of one row: the (compute node, fleet model) pair it serves.
pub(crate) type RowKey = (NodeId, ModelId);

/// What becomes due at an instant of virtual time: the simulator's four
/// wire events, named as there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Event {
    /// Work reaches the row of its stage.
    NodeArrival(Hop),
    /// A token reaches the coordinator.
    TokenAtCoordinator {
        /// The slot of the request that produced it.
        slot: u32,
        /// The incarnation that produced it (see [`Hop::epoch`]).
        epoch: u64,
    },
    /// The batch a row started has run for its duration.
    BatchComplete(RowKey),
    /// A KV hand-over's transfer arrived: the row's freeze of the migrated
    /// range is over, and what it held may start.
    EngineThaw(RowKey),
}

/// Link state and everything in flight, owned by the plane's loop.
pub(crate) struct Fabric {
    /// Supplies per-link bandwidth and latency (links are shared by every
    /// model of the fleet).
    cluster: ClusterSpec,
    /// The directed links that carried traffic: queue state and counters.
    links: LinkTable,
    /// Everything in flight, by `(at, seq)`.
    pub queue: Timeline<Event>,
}

impl Fabric {
    pub(crate) fn new(cluster: ClusterSpec) -> Self {
        Fabric {
            links: LinkTable::new(cluster.num_nodes()),
            cluster,
            queue: Timeline::new(),
        }
    }

    /// One report row per link that carried traffic, by endpoints.
    pub(crate) fn link_reports(&self) -> Vec<LinkReport> {
        let used = self.links.used().iter();
        let mut rows: Vec<_> = used
            .map(|&((from, to), ref link)| LinkReport::new(from, to, link))
            .collect();
        rows.sort_by_key(|l| (l.from, l.to));
        rows
    }
}

/// The runtime's side of the shared actuator: a hop, a hand-over's arrival
/// and a batch's completion are events of the queue, and KV bookkeeping a
/// coordinator → row message on its link, counted but never queued.
impl Wire for Fabric {
    /// The link's [`LinkQueue`] computes the arrival and records the
    /// traffic counters — at the send, so the report needs nothing
    /// delivered.
    ///
    /// [`LinkQueue`]: helix_core::LinkQueue
    #[inline]
    fn transfer(&mut self, now: f64, link: LinkKey, bytes: f64) -> f64 {
        self.links
            .queue(&self.cluster, link)
            .transfer(now, bytes.max(0.0))
    }

    #[inline]
    fn send_hop(&mut self, now: f64, link: LinkKey, bytes: f64, hop: Hop) {
        let at = self.transfer(now, link, bytes);
        let event = match link.1 {
            Some(_) => Event::NodeArrival(hop),
            None => Event::TokenAtCoordinator {
                slot: hop.slot,
                epoch: hop.epoch,
            },
        };
        self.queue.push(at, event);
    }

    fn landed(&mut self, at: f64, rows: [RowKey; 2]) {
        for key in rows {
            self.queue.push(at, Event::EngineThaw(key));
        }
    }

    fn call(&mut self, now: f64, node: NodeId) {
        self.transfer(now, (None, Some(node)), TOKEN_WIRE_BYTES);
    }

    fn completes(&mut self, at: f64, row: RowKey) {
        self.queue.push(at, Event::BatchComplete(row));
    }
}

#[cfg(test)]
impl Fabric {
    /// Takes every hop and token in flight, in delivery order, undelivered,
    /// with its delivery time (batch completions and thaws are dropped).
    pub(crate) fn take_in_flight(&mut self) -> Vec<(f64, Event)> {
        let events = std::iter::from_fn(|| self.queue.pop());
        let messages = events.filter(|(_, event)| {
            matches!(
                event,
                Event::NodeArrival(_) | Event::TokenAtCoordinator { .. }
            )
        });
        messages.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{one_stage_hop, plane_of};
    use crate::runtime::ExecutionKind;
    use helix_cluster::{ModelId, NodeId};

    /// A fabric over the 10-node study cluster (every link 10 Gb/s, 1 ms).
    /// Every send names its time; delivery times are read off the queue.
    fn fabric() -> Fabric {
        Fabric::new(ClusterSpec::solver_quality_10())
    }

    /// Bytes that occupy a 10 Gb/s link for `secs` virtual seconds.
    fn link_secs(secs: f64) -> f64 {
        1.25e9 * secs
    }

    /// Sends `bytes` of `request` from `from` to `to` at `now` — work for a
    /// node, a token for the coordinator; which does not matter to the
    /// fabric.
    fn send(
        fabric: &mut Fabric,
        now: f64,
        request: u32,
        (from, to): (Option<usize>, Option<usize>),
        bytes: f64,
    ) {
        let link = (from.map(NodeId), to.map(NodeId));
        fabric.send_hop(now, link, bytes, Hop::decode(request, 0));
    }

    /// The request of a message built by [`send`], the node of a row's
    /// event.
    fn request_of(event: Event) -> u64 {
        match event {
            Event::NodeArrival(Hop { slot, .. }) | Event::TokenAtCoordinator { slot, .. } => {
                u64::from(slot)
            }
            Event::BatchComplete((node, _)) | Event::EngineThaw((node, _)) => node.index() as u64,
        }
    }

    /// Everything queued as `(at, request)`, in the order it pops.
    fn drain(fabric: &mut Fabric) -> Vec<(f64, u64)> {
        let events = std::iter::from_fn(|| fabric.queue.pop());
        events.map(|(at, event)| (at, request_of(event))).collect()
    }

    #[test]
    fn messages_reach_their_destination_with_traffic_accounting() {
        let mut fabric = fabric();
        send(&mut fabric, 0.0, 1, (None, Some(0)), 4.0);
        send(&mut fabric, 0.0, 2, (Some(0), None), 4.0);
        let delivered: Vec<Event> = fabric.take_in_flight().into_iter().map(|d| d.1).collect();
        // Work for a node arrives as work, a token as a token.
        let token = Event::TokenAtCoordinator { slot: 2, epoch: 0 };
        assert_eq!(delivered, [Event::NodeArrival(Hop::decode(1, 0)), token]);

        // Exactly one transfer per message, one row per used link, sorted
        // by endpoints — counted at the send, whatever happens after.
        let links = fabric.link_reports();
        assert_eq!(links.len(), 2);
        assert_eq!((links[0].from, links[0].to), (None, Some(NodeId(0))));
        assert_eq!(links[0].messages, 1);
        assert!((links[0].bytes - 4.0).abs() < 1e-9);
        assert_eq!(links[0].mean_queue_delay, links[0].max_queue_delay);
        assert_eq!((links[1].from, links[1].to), (Some(NodeId(0)), None));
        assert_eq!(links[1].messages, 1);
    }

    /// A priced transfer is a message on its link and nothing in the queue:
    /// KV bookkeeping pays for the wire and takes effect at once.
    #[test]
    fn a_transfer_is_counted_on_its_link_and_queues_nothing() {
        let mut fabric = fabric();
        let sent_at = 2.0;
        let at = fabric.transfer(sent_at, (None, Some(NodeId(2))), link_secs(0.030));
        // 30 ms on the wire + 1 ms latency, from the time it was given.
        assert!((at - sent_at - 0.031).abs() < 1e-9, "arrives at {at}");
        assert_eq!(fabric.queue.peek_time(), None);
        // It occupies the link: a message sent behind it at the same
        // reading queues.
        send(&mut fabric, sent_at, 1, (None, Some(2)), 0.0);
        assert!(fabric.queue.peek_time().unwrap() >= at);
        let links = fabric.link_reports();
        assert_eq!((links[0].messages, links[0].bytes), (2, link_secs(0.030)));
    }

    #[test]
    fn large_transfers_queue_behind_each_other() {
        let mut fabric = fabric();
        // Two transfers sized to occupy the link for 20 virtual seconds
        // each; the second must queue behind the first.
        for request in 0..2 {
            let link = (Some(0), Some(1));
            send(&mut fabric, 0.0, request, link, link_secs(20.0));
        }
        let arrivals = drain(&mut fabric);
        assert!(arrivals[1].0 - arrivals[0].0 > 19.9, "{arrivals:?}");
        let links = fabric.link_reports();
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].messages, 2);
        assert!(
            links[0].max_queue_delay > 19.9,
            "second transfer should have queued, max delay {}",
            links[0].max_queue_delay
        );
    }

    #[test]
    fn earliest_delivery_pops_first() {
        let mut fabric = fabric();
        // Pushed out of order, with a tie: equal times go to the one queued
        // first — work, tokens, batch completions and thaws alike; a
        // hand-over's arrival is one thaw per row, back to back.
        for (at, request) in [(5.0, 1), (1.0, 2), (3.0, 3)] {
            let event = Event::NodeArrival(Hop::decode(request, 0));
            fabric.queue.push(at, event);
        }
        let row = |node| (NodeId(node), ModelId(0));
        fabric.queue.push(3.0, Event::BatchComplete(row(4)));
        let token = Event::TokenAtCoordinator { slot: 5, epoch: 0 };
        fabric.queue.push(3.0, token);
        fabric.landed(3.0, [row(6), row(7)]);
        assert_eq!(fabric.queue.peek_time(), Some(1.0));
        assert_eq!(
            drain(&mut fabric),
            [
                (1.0, 2),
                (3.0, 3),
                (3.0, 4),
                (3.0, 5),
                (3.0, 6),
                (3.0, 7),
                (5.0, 1)
            ]
        );
    }

    #[test]
    fn links_are_fifo_and_deliveries_cross_links_in_time_order() {
        let mut fabric = fabric();
        // Link 1 → coordinator: a slow message, then a fast one that must
        // not overtake it.  Link 2 → coordinator: sent last, due first.
        send(&mut fabric, 0.0, 1, (Some(1), None), link_secs(100.0));
        send(&mut fabric, 0.0, 2, (Some(1), None), 0.0);
        send(&mut fabric, 0.0, 3, (Some(2), None), link_secs(20.0));
        let order: Vec<u64> = drain(&mut fabric).into_iter().map(|(_, r)| r).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn nothing_is_delivered_before_its_delivery_time() {
        let mut fabric = fabric();
        let sent_at = 5.0;
        // 30 ms on the wire + 1 ms latency.
        send(&mut fabric, sent_at, 7, (None, Some(3)), link_secs(0.030));
        let at = fabric.queue.peek_time().unwrap();
        assert!((at - sent_at - 0.031).abs() < 1e-9, "due at {at}");
        assert!(fabric.queue.pop_due(sent_at).is_none());
        assert!(fabric.queue.pop_due(at - 1e-9).is_none());
        assert!(fabric.queue.pop_due(at).is_some());
        assert_eq!(fabric.queue.peek_time(), None);
    }

    /// What the loop waits for is the queue's top, read afresh each turn: a
    /// later send that is due earlier moves it.
    #[test]
    fn a_new_earliest_delivery_moves_the_next_wake() {
        let mut fabric = fabric();
        send(&mut fabric, 0.0, 1, (Some(1), None), link_secs(60.0));
        let far = fabric.queue.peek_time().unwrap();
        send(&mut fabric, 0.0, 2, (None, Some(0)), 0.0);
        let near = fabric.queue.peek_time().unwrap();
        assert!(near < far - 59.0, "near {near}, far {far}");
        assert_eq!(drain(&mut fabric), vec![(near, 2), (far, 1)]);
    }

    #[test]
    fn messages_for_detached_or_unknown_workers_drop_silently() {
        let halves = crate::registry::fleet(&[&[(0, 0, 2), (1, 2, 4)]]);
        let mut plane = plane_of(halves, ExecutionKind::Instant);
        let model = ModelId::default();
        plane.act.rows.get_mut(NodeId(0), model).unwrap().fail();

        // One-stage work for a failed, a never-planned and a healthy row.
        for node in [0, 3, 1] {
            let requests = &mut plane.act.requests;
            let hop = one_stage_hop(requests, node as u64, (NodeId(node), model));
            plane
                .fabric
                .send_hop(0.0, (None, Some(NodeId(node))), 4.0, hop);
        }
        while let Some((_, Event::NodeArrival(hop))) = plane.fabric.queue.pop() {
            plane.deliver(hop);
        }
        plane.start_touched(0.0);
        // Only the healthy row batched and forwarded its item; the failed
        // one holds it...
        let row = |node| plane.act.rows.get(NodeId(node), model);
        let batches = |node| row(node).map(|row| row.totals().batches);
        assert_eq!(
            (batches(0), batches(3), batches(1)),
            (Some(0), None, Some(1))
        );
        assert_eq!(row(0).unwrap().queue_len(), 1);
        let slot = plane.act.requests.slot(1).unwrap();
        let forwarded = plane.fabric.take_in_flight();
        let token = Event::TokenAtCoordinator { slot, epoch: 0 };
        assert_eq!(forwarded.iter().map(|f| f.1).collect::<Vec<_>>(), [token]);
        // ...and the wire carried all three (and the one token, on the
        // healthy node's link to the coordinator) the same.
        let links = plane.fabric.link_reports();
        assert_eq!(links.iter().map(|l| l.messages).sum::<u64>(), 4);
        assert!(links
            .iter()
            .any(|l| (l.from, l.to) == (Some(NodeId(1)), None)));
    }

    /// Both surfaces queue 24-byte events: a 40-byte entry.
    #[test]
    fn an_event_is_three_words() {
        assert!(std::mem::size_of::<Event>() <= 24);
    }
}
