//! The network fabric: the data plane's links and its one time-ordered
//! queue.
//!
//! The paper's prototype ships tensors over ZeroMQ across real datacenter
//! links; here the fabric is the simulator's wire, [`LinkWire`]: each
//! directed link is a [`LinkQueue`] — a serial resource (messages queue
//! behind each other at the link's bandwidth) plus a propagation latency —
//! from the same per-link numbers the planner sees through
//! `ClusterProfile::link_profile`.  Congestion on slow inter-region links —
//! the effect behind the paper's Fig. 10b case study — emerges naturally
//! from this model.
//!
//! The plane's loop owns the fabric, which has no clock: a send is stamped
//! with the clock reading of the pass (or turn) that makes it, never with a
//! reading of its own, so however long a pass runs, its sends leave at one
//! instant.  What is in flight waits in the fabric's [`Timeline`] as
//! [`WireEvent`]s — the simulator's four wire events: a hop reaching its
//! stage, a token reaching the coordinator, a batch that takes time
//! completing and one thaw per row when a KV hand-over arrives.  The loop
//! waits for the queue's earliest time and pops what is due — nothing here
//! runs, wakes or polls.  What is the runtime's own is that a coordinator →
//! row call (a release, a purge, a seed) is a message: the plane builds its
//! wire with priced calls, so each is one `TOKEN_WIRE_BYTES` transfer on the
//! coordinator → node link, counted in the report but never queued.
//!
//! [`LinkQueue`]: helix_core::LinkQueue
//! [`Timeline`]: helix_core::Timeline

use crate::metrics::LinkReport;
use helix_core::{LinkWire, WireEvent};

/// One report row per link that carried traffic, sorted by endpoints.
pub(crate) fn link_reports(wire: &LinkWire<WireEvent>) -> Vec<LinkReport> {
    let used = wire.links().iter();
    let mut rows: Vec<_> = used
        .map(|&((from, to), ref link)| LinkReport {
            from,
            to,
            messages: link.transfers,
            bytes: link.bytes_transferred,
            mean_queue_delay: link.mean_queue_delay(),
            max_queue_delay: link.max_queue_delay,
        })
        .collect();
    rows.sort_by_key(|l| (l.from, l.to));
    rows
}

/// Takes every hop and token in flight on `wire`, in delivery order,
/// undelivered, with its delivery time (batch completions and thaws are
/// dropped).
#[cfg(test)]
pub(crate) fn take_in_flight(wire: &mut LinkWire<WireEvent>) -> Vec<(f64, WireEvent)> {
    let events = std::iter::from_fn(|| wire.queue.pop());
    let messages = events.filter(|(_, event)| {
        matches!(
            event,
            WireEvent::NodeArrival(_) | WireEvent::TokenAtCoordinator { .. }
        )
    });
    messages.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{one_stage_hop, plane_of};
    use crate::runtime::ExecutionKind;
    use helix_cluster::{ClusterSpec, ModelId, NodeId};
    use helix_core::{Hop, Wire};

    /// The plane's fabric over the 10-node study cluster (every link 10 Gb/s,
    /// 1 ms), calls priced.
    /// Every send names its time; delivery times are read off the queue.
    fn fabric() -> LinkWire<WireEvent> {
        LinkWire::new(ClusterSpec::solver_quality_10(), true)
    }

    /// Bytes that occupy a 10 Gb/s link for `secs` virtual seconds.
    fn link_secs(secs: f64) -> f64 {
        1.25e9 * secs
    }

    /// Sends `bytes` of `request` from `from` to `to` at `now` — work for a
    /// node, a token for the coordinator; which does not matter to the
    /// fabric.
    fn send(
        wire: &mut LinkWire<WireEvent>,
        now: f64,
        request: u32,
        (from, to): (Option<usize>, Option<usize>),
        bytes: f64,
    ) {
        let link = (from.map(NodeId), to.map(NodeId));
        wire.send_hop(now, link, bytes, Hop::decode(request, 0));
    }

    /// The request of a message built by [`send`], the node of a row's
    /// event.
    fn request_of(event: WireEvent) -> u64 {
        match event {
            WireEvent::NodeArrival(Hop { slot, .. })
            | WireEvent::TokenAtCoordinator { slot, .. } => u64::from(slot),
            WireEvent::BatchComplete((node, _)) | WireEvent::EngineThaw((node, _)) => {
                node.index() as u64
            }
        }
    }

    /// Everything queued as `(at, request)`, in the order it pops.
    fn drain(wire: &mut LinkWire<WireEvent>) -> Vec<(f64, u64)> {
        let events = std::iter::from_fn(|| wire.queue.pop());
        events.map(|(at, event)| (at, request_of(event))).collect()
    }

    #[test]
    fn messages_reach_their_destination_with_traffic_accounting() {
        let mut wire = fabric();
        send(&mut wire, 0.0, 1, (None, Some(0)), 4.0);
        send(&mut wire, 0.0, 2, (Some(0), None), 4.0);
        let delivered: Vec<WireEvent> =
            take_in_flight(&mut wire).into_iter().map(|d| d.1).collect();
        // Work for a node arrives as work, a token as a token.
        let token = WireEvent::TokenAtCoordinator { slot: 2, epoch: 0 };
        assert_eq!(
            delivered,
            [WireEvent::NodeArrival(Hop::decode(1, 0)), token]
        );

        // Exactly one transfer per message, one row per used link, sorted
        // by endpoints — counted at the send, whatever happens after.
        let links = link_reports(&wire);
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
        let mut wire = fabric();
        let sent_at = 2.0;
        let at = wire.transfer(sent_at, (None, Some(NodeId(2))), link_secs(0.030));
        // 30 ms on the wire + 1 ms latency, from the time it was given.
        assert!((at - sent_at - 0.031).abs() < 1e-9, "arrives at {at}");
        assert_eq!(wire.queue.peek_time(), None);
        // It occupies the link: a message sent behind it at the same
        // reading queues.
        send(&mut wire, sent_at, 1, (None, Some(2)), 0.0);
        assert!(wire.queue.peek_time().unwrap() >= at);
        let links = link_reports(&wire);
        assert_eq!((links[0].messages, links[0].bytes), (2, link_secs(0.030)));
    }

    #[test]
    fn large_transfers_queue_behind_each_other() {
        let mut wire = fabric();
        // Two transfers sized to occupy the link for 20 virtual seconds
        // each; the second must queue behind the first.
        for request in 0..2 {
            let link = (Some(0), Some(1));
            send(&mut wire, 0.0, request, link, link_secs(20.0));
        }
        let arrivals = drain(&mut wire);
        assert!(arrivals[1].0 - arrivals[0].0 > 19.9, "{arrivals:?}");
        let links = link_reports(&wire);
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
        let mut wire = fabric();
        // Pushed out of order, with a tie: equal times go to the one queued
        // first — work, tokens, batch completions and thaws alike; a
        // hand-over's arrival is one thaw per row, back to back.
        for (at, request) in [(5.0, 1), (1.0, 2), (3.0, 3)] {
            let event = WireEvent::NodeArrival(Hop::decode(request, 0));
            wire.queue.push(at, event);
        }
        let row = |node| (NodeId(node), ModelId(0));
        wire.queue.push(3.0, WireEvent::BatchComplete(row(4)));
        let token = WireEvent::TokenAtCoordinator { slot: 5, epoch: 0 };
        wire.queue.push(3.0, token);
        wire.landed(3.0, [row(6), row(7)]);
        assert_eq!(wire.queue.peek_time(), Some(1.0));
        assert_eq!(
            drain(&mut wire),
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
        let mut wire = fabric();
        // Link 1 → coordinator: a slow message, then a fast one that must
        // not overtake it.  Link 2 → coordinator: sent last, due first.
        send(&mut wire, 0.0, 1, (Some(1), None), link_secs(100.0));
        send(&mut wire, 0.0, 2, (Some(1), None), 0.0);
        send(&mut wire, 0.0, 3, (Some(2), None), link_secs(20.0));
        let order: Vec<u64> = drain(&mut wire).into_iter().map(|(_, r)| r).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn nothing_is_delivered_before_its_delivery_time() {
        let mut wire = fabric();
        let sent_at = 5.0;
        // 30 ms on the wire + 1 ms latency.
        send(&mut wire, sent_at, 7, (None, Some(3)), link_secs(0.030));
        let at = wire.queue.peek_time().unwrap();
        assert!((at - sent_at - 0.031).abs() < 1e-9, "due at {at}");
        assert!(wire.queue.pop_due(sent_at).is_none());
        assert!(wire.queue.pop_due(at - 1e-9).is_none());
        assert!(wire.queue.pop_due(at).is_some());
        assert_eq!(wire.queue.peek_time(), None);
    }

    /// What the loop waits for is the queue's top, read afresh each turn: a
    /// later send that is due earlier moves it.
    #[test]
    fn a_new_earliest_delivery_moves_the_next_wake() {
        let mut wire = fabric();
        send(&mut wire, 0.0, 1, (Some(1), None), link_secs(60.0));
        let far = wire.queue.peek_time().unwrap();
        send(&mut wire, 0.0, 2, (None, Some(0)), 0.0);
        let near = wire.queue.peek_time().unwrap();
        assert!(near < far - 59.0, "near {near}, far {far}");
        assert_eq!(drain(&mut wire), vec![(near, 2), (far, 1)]);
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
                .wire
                .send_hop(0.0, (None, Some(NodeId(node))), 4.0, hop);
        }
        while let Some((_, WireEvent::NodeArrival(hop))) = plane.wire.queue.pop() {
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
        let forwarded = take_in_flight(&mut plane.wire);
        let token = WireEvent::TokenAtCoordinator { slot, epoch: 0 };
        assert_eq!(forwarded.iter().map(|f| f.1).collect::<Vec<_>>(), [token]);
        // ...and the wire carried all three (and the one token, on the
        // healthy node's link to the coordinator) the same.
        let links = link_reports(&plane.wire);
        assert_eq!(links.iter().map(|l| l.messages).sum::<u64>(), 4);
        assert!(links
            .iter()
            .any(|l| (l.from, l.to) == (Some(NodeId(1)), None)));
    }

    /// Both surfaces queue 24-byte events: a 40-byte entry.
    #[test]
    fn an_event_is_three_words() {
        assert!(std::mem::size_of::<WireEvent>() <= 24);
    }
}
