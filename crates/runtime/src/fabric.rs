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
//! [`Fabric::send`] (a hop: `send_hop`) also queues the delivery of a
//! message by `(at, seq)`.  A send is stamped with the clock reading of the
//! pass (or turn) that makes it, never with a reading of its own, so however
//! long a pass runs, its sends leave at one instant.  A batch that takes
//! time and a KV hand-over's arrival are entries of the *same* queue
//! ([`Fabric::batch_done`], `landed`), as in the simulator's event queue.
//! The heap holds only 24-byte keys `(at, seq, slot)`; the event itself
//! waits in a slab slot, reused once popped.  The loop waits for [`Fabric::next_at`] and
//! applies [`Fabric::pop_due`] — nothing here runs, wakes or polls.
//!
//! [`LinkQueue`]: helix_core::LinkQueue

use crate::message::{Envelope, RuntimeMsg};
use crate::metrics::LinkReport;
use crate::registry::WorkerKey;
use helix_cluster::{ClusterSpec, NodeId, TOKEN_WIRE_BYTES};
use helix_core::{Hop, LinkKey, LinkTable, Wire};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What becomes due at an instant of virtual time.
#[derive(Debug)]
pub(crate) enum Event {
    /// A message reaches the far end of its link.
    Deliver(Envelope),
    /// The batch a worker started has run for its duration.
    BatchDone(WorkerKey),
    /// A KV hand-over's transfer arrived: both ends' freezes of the migrated
    /// range are over, and what they held may start.
    Landed([WorkerKey; 2]),
}

/// One key of the queue: when, in which order, and the slab slot of what.
#[derive(Debug)]
struct Due {
    at: f64,
    seq: u64,
    slot: usize,
}

impl PartialEq for Due {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Due {}

impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Due {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest entry pops first,
        // and of equal times the one queued first.
        let by_time = other.at.total_cmp(&self.at);
        by_time.then(other.seq.cmp(&self.seq))
    }
}

/// Link state and everything in flight, owned by the plane's loop.
pub(crate) struct Fabric {
    /// Supplies per-link bandwidth and latency (links are shared by every
    /// model of the fleet).
    cluster: ClusterSpec,
    /// The directed links that carried traffic: queue state and counters.
    links: LinkTable,
    heap: BinaryHeap<Due>,
    /// What the heap's keys name, by slot; `None` once popped.
    slab: Vec<Option<Event>>,
    /// Slots of `slab` free for the next push.
    free: Vec<usize>,
    seq: u64,
}

impl Fabric {
    pub(crate) fn new(cluster: ClusterSpec) -> Self {
        Fabric {
            links: LinkTable::new(cluster.num_nodes()),
            cluster,
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    fn push(&mut self, at: f64, what: Event) {
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(what);
                slot
            }
            None => {
                self.slab.push(Some(what));
                self.slab.len() - 1
            }
        };
        let seq = self.seq;
        self.heap.push(Due { at, seq, slot });
    }

    /// Puts `envelope` on its link at `now` and queues its delivery.
    pub(crate) fn send(&mut self, now: f64, envelope: Envelope) {
        let at = self.transfer(now, (envelope.from, envelope.to), envelope.bytes);
        self.push(at, Event::Deliver(envelope));
    }

    /// Queues the completion of the batch `key` started, due at `at`.
    pub(crate) fn batch_done(&mut self, at: f64, key: WorkerKey) {
        self.push(at, Event::BatchDone(key));
    }

    /// When the earliest entry is due.
    pub(crate) fn next_at(&self) -> Option<f64> {
        self.heap.peek().map(|due| due.at)
    }

    /// Pops the earliest entry if it is due at `now`, with its time —
    /// entries come out in `(at, seq)` order and never before their `at`.
    pub(crate) fn pop_due(&mut self, now: f64) -> Option<(f64, Event)> {
        if self.heap.peek()?.at > now {
            return None;
        }
        let due = self.heap.pop()?;
        self.free.push(due.slot);
        let what = self.slab.get_mut(due.slot)?.take()?;
        Some((due.at, what))
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

/// The runtime's side of the shared actuator: hops are messages, a
/// hand-over's arrival an entry of the queue, and KV bookkeeping a
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
    fn send_hop(&mut self, now: f64, (from, to): LinkKey, bytes: f64, hop: Hop) {
        let msg = match to {
            Some(_) => RuntimeMsg::Work(hop),
            None => RuntimeMsg::IterationDone {
                slot: hop.slot,
                epoch: hop.epoch,
                emitted_at: now,
            },
        };
        self.send(
            now,
            Envelope {
                from,
                to,
                bytes,
                msg,
            },
        );
    }

    fn landed(&mut self, at: f64, rows: [WorkerKey; 2]) {
        self.push(at, Event::Landed(rows));
    }

    fn call(&mut self, now: f64, node: NodeId) {
        self.transfer(now, (None, Some(node)), TOKEN_WIRE_BYTES);
    }
}

#[cfg(test)]
impl Fabric {
    /// Takes every message in flight, in delivery order, undelivered (batch
    /// completions are dropped).
    pub(crate) fn take_in_flight(&mut self) -> Vec<Envelope> {
        let events = std::iter::from_fn(|| self.pop_due(f64::INFINITY));
        let envelopes = events.filter_map(|(_, event)| match event {
            Event::Deliver(envelope) => Some(envelope),
            Event::BatchDone(_) | Event::Landed(_) => None,
        });
        envelopes.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::one_stage_hop;
    use crate::registry::Workers;
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

    /// A message of `request` — which kind does not matter to the fabric.
    fn message(request: u64, from: Option<usize>, to: Option<usize>, bytes: f64) -> Envelope {
        Envelope {
            from: from.map(NodeId),
            to: to.map(NodeId),
            bytes,
            msg: RuntimeMsg::IterationDone {
                slot: request as u32,
                epoch: 0,
                emitted_at: 0.0,
            },
        }
    }

    /// The request of a message built by [`message`].
    fn request_of(envelope: &Envelope) -> u64 {
        match envelope.msg {
            RuntimeMsg::IterationDone { slot, .. } | RuntimeMsg::Work(Hop { slot, .. }) => {
                u64::from(slot)
            }
        }
    }

    /// Everything in flight as `(at, request)`, in the order it pops.
    fn drain(fabric: &mut Fabric) -> Vec<(f64, u64)> {
        let events = std::iter::from_fn(|| fabric.pop_due(f64::INFINITY));
        let messages = events.map(|(at, event)| match event {
            Event::Deliver(envelope) => (at, request_of(&envelope)),
            other => panic!("expected a message in flight, got {other:?}"),
        });
        messages.collect()
    }

    #[test]
    fn messages_reach_their_destination_with_traffic_accounting() {
        let mut fabric = fabric();
        fabric.send(0.0, message(1, None, Some(0), 4.0));
        fabric.send(0.0, message(2, Some(0), None, 4.0));
        let delivered = fabric.take_in_flight();
        assert_eq!(delivered.len(), 2);
        assert_eq!(
            (delivered[0].from, delivered[0].to),
            (None, Some(NodeId(0)))
        );
        assert_eq!(
            (delivered[1].from, delivered[1].to),
            (Some(NodeId(0)), None)
        );

        // Exactly one transfer per envelope, one row per used link, sorted
        // by endpoints — counted at the send, whatever happens after.
        let links = fabric.link_reports();
        assert_eq!(links.len(), 2);
        assert_eq!((links[0].from, links[0].to), (None, Some(NodeId(0))));
        assert_eq!(links[0].messages, 1);
        assert!((links[0].bytes - 4.0).abs() < 1e-9);
        assert_eq!(links[0].mean_queue_delay, links[0].max_queue_delay);
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
        assert_eq!(fabric.next_at(), None);
        // It occupies the link: a message sent behind it at the same
        // reading queues.
        fabric.send(sent_at, message(1, None, Some(2), 0.0));
        assert!(fabric.next_at().unwrap() >= at);
        let links = fabric.link_reports();
        assert_eq!((links[0].messages, links[0].bytes), (2, link_secs(0.030)));
    }

    #[test]
    fn large_transfers_queue_behind_each_other() {
        let mut fabric = fabric();
        // Two transfers sized to occupy the link for 20 virtual seconds
        // each; the second must queue behind the first.
        for request in 0..2 {
            fabric.send(0.0, message(request, Some(0), Some(1), link_secs(20.0)));
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
        // first — deliveries, batch completions and arrivals alike.
        for (at, request) in [(5.0, 1), (1.0, 2), (3.0, 3)] {
            fabric.push(at, Event::Deliver(message(request, None, None, 0.0)));
        }
        fabric.batch_done(3.0, (NodeId(4), ModelId(0)));
        fabric.push(3.0, Event::Deliver(message(5, None, None, 0.0)));
        let row = (NodeId(6), ModelId(0));
        fabric.landed(3.0, [row, row]);
        assert_eq!(fabric.next_at(), Some(1.0));
        let order: Vec<_> = std::iter::from_fn(|| fabric.pop_due(f64::INFINITY))
            .map(|(at, event)| match event {
                Event::Deliver(envelope) => (at, request_of(&envelope)),
                Event::BatchDone((node, _)) | Event::Landed([(node, _), _]) => {
                    (at, node.index() as u64)
                }
            })
            .collect();
        assert_eq!(
            order,
            vec![(1.0, 2), (3.0, 3), (3.0, 4), (3.0, 5), (3.0, 6), (5.0, 1)]
        );
    }

    #[test]
    fn links_are_fifo_and_deliveries_cross_links_in_time_order() {
        let mut fabric = fabric();
        // Link 1 → coordinator: a slow message, then a fast one that must
        // not overtake it.  Link 2 → coordinator: sent last, due first.
        fabric.send(0.0, message(1, Some(1), None, link_secs(100.0)));
        fabric.send(0.0, message(2, Some(1), None, 0.0));
        fabric.send(0.0, message(3, Some(2), None, link_secs(20.0)));
        let order: Vec<u64> = drain(&mut fabric).into_iter().map(|(_, r)| r).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn nothing_is_delivered_before_its_delivery_time() {
        let mut fabric = fabric();
        let sent_at = 5.0;
        // 30 ms on the wire + 1 ms latency.
        fabric.send(sent_at, message(7, None, Some(3), link_secs(0.030)));
        let at = fabric.next_at().unwrap();
        assert!((at - sent_at - 0.031).abs() < 1e-9, "due at {at}");
        assert!(fabric.pop_due(sent_at).is_none());
        assert!(fabric.pop_due(at - 1e-9).is_none());
        assert!(fabric.pop_due(at).is_some());
        assert_eq!(fabric.next_at(), None);
    }

    /// What the loop waits for is the queue's top, read afresh each turn: a
    /// later send that is due earlier moves it.
    #[test]
    fn a_new_earliest_delivery_moves_the_next_wake() {
        let mut fabric = fabric();
        fabric.send(0.0, message(1, Some(1), None, link_secs(60.0)));
        let far = fabric.next_at().unwrap();
        fabric.send(0.0, message(2, None, Some(0), 0.0));
        let near = fabric.next_at().unwrap();
        assert!(near < far - 59.0, "near {near}, far {far}");
        assert_eq!(drain(&mut fabric), vec![(near, 2), (far, 1)]);
    }

    #[test]
    fn messages_for_detached_or_unknown_workers_drop_silently() {
        let mut fabric = fabric();
        let halves = crate::registry::fleet(&[&[(0, 0, 2), (1, 2, 4)]]);
        let mut workers = Workers::new(&halves, ExecutionKind::Instant);
        let model = ModelId::default();
        let failed = workers.act.rows.get_mut(NodeId(0), model).unwrap();
        failed.engine.fail();

        // One-stage work for a failed, a never-planned and a healthy worker.
        for node in [0, 3, 1] {
            let requests = &mut workers.act.requests;
            let hop = one_stage_hop(requests, node as u64, (NodeId(node), model));
            let mut envelope = message(0, None, Some(node), 4.0);
            envelope.msg = RuntimeMsg::Work(hop);
            fabric.send(0.0, envelope);
        }
        while let Some((_, Event::Deliver(envelope))) = fabric.pop_due(f64::INFINITY) {
            let RuntimeMsg::Work(hop) = envelope.msg else {
                panic!("only work was sent");
            };
            workers.deliver(hop);
        }
        workers.start_touched(0.0, &mut fabric);
        // Only the healthy row batched and forwarded its item; the failed
        // one holds it...
        let batches = |node| workers.get((NodeId(node), model)).map(|w| w.batches);
        assert_eq!(
            (batches(0), batches(3), batches(1)),
            (Some(0), None, Some(1))
        );
        assert_eq!(
            workers.get((NodeId(0), model)).unwrap().engine.queue_len(),
            1
        );
        let forwarded = fabric.take_in_flight();
        assert_eq!(forwarded.len(), 1);
        assert_eq!(forwarded[0].from, Some(NodeId(1)));
        // ...and the wire carried all three (and the one report) the same.
        let links = fabric.link_reports();
        assert_eq!(links.iter().map(|l| l.messages).sum::<u64>(), 4);
    }

    /// The queue pops in `(at, seq)` order under interleaved pushes and pops
    /// with many tied times, and its slab holds no more slots than were ever
    /// live at once.
    #[test]
    fn the_slab_queue_pops_in_at_seq_order_and_reuses_its_slots() {
        assert_eq!(std::mem::size_of::<Due>(), 24, "a sift moves 24 bytes");
        // xorshift64: a fixed, seeded interleaving.
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut draw = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut fabric = fabric();
        // The reference: every live entry's (at, seq), kept sorted.
        let mut reference: Vec<(f64, u64)> = Vec::new();
        let (mut seq, mut peak, mut popped) = (0u64, 0usize, 0usize);
        for _ in 0..10_000 {
            if reference.is_empty() || draw(5) < 3 {
                // Times on a grid of eight values: ties are common.
                let at = draw(8) as f64 * 0.5;
                seq += 1;
                let key = (NodeId(seq as usize), ModelId(0));
                fabric.batch_done(at, key);
                let place = reference.partition_point(|&(a, s)| (a, s) < (at, seq));
                reference.insert(place, (at, seq));
                peak = peak.max(reference.len());
            } else {
                let (at, event) = fabric.pop_due(f64::INFINITY).unwrap();
                let Event::BatchDone((node, _)) = event else {
                    panic!("only batch completions were queued");
                };
                assert_eq!((at, node.index() as u64), reference.remove(0));
                popped += 1;
            }
            assert!(
                fabric.slab.len() <= peak,
                "{} slots, peak {peak}",
                fabric.slab.len()
            );
        }
        assert!(popped > 2_000, "{popped} pops");
        for expected in reference {
            let (at, event) = fabric.pop_due(f64::INFINITY).unwrap();
            let Event::BatchDone((node, _)) = event else {
                panic!("only batch completions were queued");
            };
            assert_eq!((at, node.index() as u64), expected);
        }
        assert!(fabric.pop_due(f64::INFINITY).is_none());
        assert_eq!(fabric.free.len(), fabric.slab.len(), "every slot is free");
    }
}
