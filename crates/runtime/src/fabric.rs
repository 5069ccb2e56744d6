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
//! The fabric is plain data the plane's loop owns: [`Fabric::transfer`]
//! prices bytes on a link on the caller's stack — KV bookkeeping, which
//! takes effect at once, stops there — and [`Fabric::send`] also queues the
//! delivery of a message by `(at, seq)`.  A batch that takes time and a KV
//! hand-over's arrival are entries of the *same* heap
//! ([`Fabric::batch_done`], [`Fabric::landed`]), as in the simulator's event
//! queue.  The loop waits for [`Fabric::next_at`] and applies
//! [`Fabric::pop_due`] — nothing here runs, wakes or polls.
//!
//! [`LinkQueue`]: helix_core::LinkQueue

use crate::clock::VirtualClock;
use crate::message::Envelope;
use crate::metrics::LinkReport;
use crate::registry::WorkerKey;
use helix_cluster::{ClusterSpec, NodeId};
use helix_core::LinkTable;
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

/// One entry of the queue.
#[derive(Debug)]
struct Due {
    at: f64,
    seq: u64,
    what: Event,
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
    clock: VirtualClock,
    /// The directed links that carried traffic: queue state and counters.
    links: LinkTable,
    heap: BinaryHeap<Due>,
    seq: u64,
}

impl Fabric {
    pub(crate) fn new(cluster: ClusterSpec, clock: VirtualClock) -> Self {
        Fabric {
            links: LinkTable::new(cluster.num_nodes()),
            cluster,
            clock,
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, at: f64, what: Event) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Due { at, seq, what });
    }

    /// Puts `bytes` on the `from → to` link now and returns when they
    /// arrive: the link's [`LinkQueue`] computes the time and records the
    /// traffic counters — at the send, so the report needs nothing
    /// delivered.
    ///
    /// [`LinkQueue`]: helix_core::LinkQueue
    pub(crate) fn transfer(&mut self, from: Option<NodeId>, to: Option<NodeId>, bytes: f64) -> f64 {
        let queue = self.links.queue(&self.cluster, (from, to));
        queue.transfer(self.clock.now(), bytes.max(0.0))
    }

    /// Puts `envelope` on its link and queues its delivery.
    pub(crate) fn send(&mut self, envelope: Envelope) {
        let at = self.transfer(envelope.from, envelope.to, envelope.bytes);
        self.push(at, Event::Deliver(envelope));
    }

    /// Queues the completion of the batch `key` started, due at `at`.
    pub(crate) fn batch_done(&mut self, at: f64, key: WorkerKey) {
        self.push(at, Event::BatchDone(key));
    }

    /// Queues the arrival of a KV hand-over between `rows`, due at `at`.
    pub(crate) fn landed(&mut self, at: f64, rows: [WorkerKey; 2]) {
        self.push(at, Event::Landed(rows));
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
        self.heap.pop().map(|due| (due.at, due.what))
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
    use crate::message::RuntimeMsg;
    use crate::registry::Workers;
    use crate::runtime::ExecutionKind;
    use helix_cluster::{ClusterProfile, ModelConfig, ModelId, NodeId};

    /// A fabric over the 10-node study cluster (every link 10 Gb/s, 1 ms).
    /// Its clock runs — `send` stamps the wall — but no test waits on it:
    /// delivery times are read off the queue.
    fn fabric() -> Fabric {
        Fabric::new(ClusterSpec::solver_quality_10(), VirtualClock::new(1.0))
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
                request,
                emitted_at: 0.0,
                epoch: 0,
            },
        }
    }

    /// The request of a message built by [`message`].
    fn request_of(envelope: &Envelope) -> u64 {
        match envelope.msg {
            RuntimeMsg::IterationDone { request, .. } => request,
            RuntimeMsg::Work(ref work) => work.request,
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
        fabric.send(message(1, None, Some(0), 4.0));
        fabric.send(message(2, Some(0), None, 4.0));
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
        let sent_at = fabric.clock.now();
        let at = fabric.transfer(None, Some(NodeId(2)), link_secs(0.030));
        assert!(
            at - sent_at >= 0.031,
            "arrives {} after the send",
            at - sent_at
        );
        assert_eq!(fabric.next_at(), None);
        // It occupies the link: a message sent behind it queues.
        fabric.send(message(1, None, Some(2), 0.0));
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
            fabric.send(message(request, Some(0), Some(1), link_secs(20.0)));
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
        fabric.send(message(1, Some(1), None, link_secs(100.0)));
        fabric.send(message(2, Some(1), None, 0.0));
        fabric.send(message(3, Some(2), None, link_secs(20.0)));
        let order: Vec<u64> = drain(&mut fabric).into_iter().map(|(_, r)| r).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn nothing_is_delivered_before_its_delivery_time() {
        let mut fabric = fabric();
        let sent_at = fabric.clock.now();
        // 30 ms on the wire + 1 ms latency.
        fabric.send(message(7, None, Some(3), link_secs(0.030)));
        let at = fabric.next_at().unwrap();
        assert!(at - sent_at >= 0.031, "due {} after the send", at - sent_at);
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
        fabric.send(message(1, Some(1), None, link_secs(60.0)));
        let far = fabric.next_at().unwrap();
        fabric.send(message(2, None, Some(0), 0.0));
        let near = fabric.next_at().unwrap();
        assert!(near < far - 59.0, "near {near}, far {far}");
        assert_eq!(drain(&mut fabric), vec![(near, 2), (far, 1)]);
    }

    #[test]
    fn messages_for_detached_or_unknown_workers_drop_silently() {
        let mut fabric = fabric();
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let mut workers = Workers::new(10, 1, ExecutionKind::Instant);
        let model = ModelId::default();
        for node in [0, 1] {
            workers.plan(&profile, (NodeId(node), model), "node", 4, 1_000.0);
        }
        workers.retire((NodeId(0), model));

        // One-stage work for a retired, a never-planned and a live worker.
        for node in [0, 5, 1] {
            let work = crate::message::StageWork::one_stage(node as u64, NodeId(node), model);
            let mut envelope = message(0, None, Some(node), 4.0);
            envelope.msg = RuntimeMsg::Work(work);
            fabric.send(envelope);
        }
        while let Some((_, Event::Deliver(envelope))) = fabric.pop_due(f64::INFINITY) {
            let RuntimeMsg::Work(work) = envelope.msg else {
                panic!("only work was sent");
            };
            workers.deliver(work);
        }
        workers.start_touched(0.0, &mut fabric);
        // Only the live row queued, batched and forwarded its item...
        let batches = |node| workers.get((NodeId(node), model)).map(|w| w.batches);
        assert_eq!(
            (batches(0), batches(5), batches(1)),
            (Some(0), None, Some(1))
        );
        assert_eq!(workers.get((NodeId(0), model)).unwrap().core.queue_len(), 0);
        let forwarded = fabric.take_in_flight();
        assert_eq!(forwarded.len(), 1);
        assert_eq!(forwarded[0].from, Some(NodeId(1)));
        // ...and the wire carried all three (and the one report) the same.
        let links = fabric.link_reports();
        assert_eq!(links.iter().map(|l| l.messages).sum::<u64>(), 4);
    }
}
