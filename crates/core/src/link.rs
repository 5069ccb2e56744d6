//! FIFO network links with finite bandwidth and latency — the one link model
//! ([`LinkQueue`]) and the one wire both serving surfaces act through
//! ([`LinkWire`]).
//!
//! The wire owns the cluster's link numbers, the dense table of links that
//! carried traffic and the surface's [`Timeline`]: `transfer` prices bytes on a link
//! at the `now` its caller acts on — KV bookkeeping, which takes effect at
//! once, stops there — and `send_hop` also queues the hop's arrival, or its
//! token's at the coordinator, at the time the link computes.  A batch that
//! takes time queues its completion ([`WireEvent::BatchComplete`]) and a KV
//! hand-over one [`WireEvent::EngineThaw`] per row at its arrival.  The
//! surfaces differ only in what a coordinator → row call costs, which each
//! sets when it builds its wire: the runtime prices it as one
//! `TOKEN_WIRE_BYTES` message on the coordinator → node link, the simulator
//! keeps it free.  A surface's event type takes the four wire events through
//! `From`, so the simulator queues its own enum and the runtime queues
//! [`WireEvent`] itself.

use crate::actuator::Wire;
use crate::event::Timeline;
use crate::lane::Hop;
use helix_cluster::{ClusterSpec, ModelId, NodeId, TOKEN_WIRE_BYTES};

/// A directed link's endpoint pair; `None` denotes the coordinator.
pub type LinkKey = (Option<NodeId>, Option<NodeId>);

/// Key of one engine row: the (compute node, fleet model) pair it serves.
pub type RowKey = (NodeId, ModelId);

/// A directed network link modelled as a FIFO serialisation queue plus a
/// propagation delay.
///
/// Transfers are serialised: a transfer cannot start before the previous one
/// on the same link has finished being sent.  The receiver sees the data one
/// propagation latency after serialisation completes.  The queueing delay a
/// transfer experiences before it starts being sent is what the paper's
/// §6.7 case study calls congestion.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkQueue {
    bandwidth_bytes_per_sec: f64,
    latency_secs: f64,
    busy_until: f64,
    /// Total bytes carried.
    pub bytes_transferred: f64,
    /// Total number of transfers.
    pub transfers: u64,
    /// Accumulated queueing delay (seconds waited before serialisation).
    pub total_queue_delay: f64,
    /// Largest single queueing delay observed.
    pub max_queue_delay: f64,
}

impl LinkQueue {
    /// Creates an idle link.
    pub fn new(bandwidth_bytes_per_sec: f64, latency_secs: f64) -> Self {
        LinkQueue {
            bandwidth_bytes_per_sec: bandwidth_bytes_per_sec.max(1.0),
            latency_secs: latency_secs.max(0.0),
            busy_until: 0.0,
            bytes_transferred: 0.0,
            transfers: 0,
            total_queue_delay: 0.0,
            max_queue_delay: 0.0,
        }
    }

    /// Enqueues a transfer of `bytes` at time `now`; returns the time the
    /// data is fully available at the receiver.
    pub fn transfer(&mut self, now: f64, bytes: f64) -> f64 {
        let start = now.max(self.busy_until);
        let queue_delay = start - now;
        let serialisation = bytes / self.bandwidth_bytes_per_sec;
        let done_sending = start + serialisation;
        self.busy_until = done_sending;
        self.bytes_transferred += bytes;
        self.transfers += 1;
        self.total_queue_delay += queue_delay;
        self.max_queue_delay = self.max_queue_delay.max(queue_delay);
        done_sending + self.latency_secs
    }

    /// Mean queueing delay per transfer (seconds).
    pub fn mean_queue_delay(&self) -> f64 {
        if self.transfers == 0 {
            0.0
        } else {
            self.total_queue_delay / self.transfers as f64
        }
    }
}

/// Marks an endpoint pair that has carried no transfer yet.
const UNUSED: u32 = u32::MAX;

/// What the wire makes due at an instant of time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireEvent {
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

/// The links and everything in flight on them; see the
/// [module documentation](self).
#[derive(Debug)]
pub struct LinkWire<E> {
    /// Supplies every link's bandwidth and latency (links are shared by the
    /// fleet's models).
    cluster: ClusterSpec,
    /// Whether a coordinator → row call is a message on its link.
    priced_calls: bool,
    /// The link table: link queues in first-use order behind a
    /// `(num_nodes + 1)²` table of `slots`, the coordinator being row and
    /// column 0 — a hop finds its link by indexing, and every walk over the
    /// used links has one fixed order.  Only the slots are dense: that is
    /// 4 MB at 1 008 nodes, where dense queues would be 57 MB.
    side: usize,
    slots: Vec<u32>,
    queues: Vec<(LinkKey, LinkQueue)>,
    /// Everything in flight, by `(at, seq)`.
    pub queue: Timeline<E>,
}

impl<E> LinkWire<E> {
    /// An idle wire over `cluster`'s links; `priced_calls` makes each
    /// coordinator → row call one `TOKEN_WIRE_BYTES` transfer.
    pub fn new(cluster: ClusterSpec, priced_calls: bool) -> Self {
        let side = cluster.num_nodes() + 1;
        LinkWire {
            cluster,
            priced_calls,
            side,
            slots: vec![UNUSED; side * side],
            queues: Vec::new(),
            queue: Timeline::new(),
        }
    }

    /// The cluster whose links the wire prices.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Every link that has carried a transfer, with its endpoints and
    /// counters, in first-use order.
    pub fn links(&self) -> &[(LinkKey, LinkQueue)] {
        &self.queues
    }

    /// The queue of the `from → to` link, created from the cluster's link
    /// spec on first use.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not a node of the wire's cluster.
    #[inline]
    fn link(&mut self, (from, to): LinkKey) -> &mut LinkQueue {
        let end = |endpoint: Option<NodeId>| endpoint.map_or(0, |node| node.index() + 1);
        assert!(end(from) < self.side && end(to) < self.side);
        let cell = end(from) * self.side + end(to);
        let mut slot = self.slots[cell] as usize;
        if slot >= self.queues.len() {
            let spec = self.cluster.link(from, to);
            let queue = LinkQueue::new(spec.bandwidth_bytes_per_sec(), spec.latency_secs());
            slot = self.queues.len();
            self.slots[cell] = u32::try_from(slot).unwrap_or(UNUSED);
            self.queues.push(((from, to), queue));
        }
        &mut self.queues[slot].1
    }
}

impl<E: From<WireEvent>> Wire for LinkWire<E> {
    /// The link's [`LinkQueue`] computes the arrival and records the
    /// traffic counters — at the send, so a report needs nothing delivered.
    #[inline]
    fn transfer(&mut self, now: f64, link: LinkKey, bytes: f64) -> f64 {
        self.link(link).transfer(now, bytes.max(0.0))
    }

    #[inline]
    fn send_hop(&mut self, now: f64, link: LinkKey, bytes: f64, hop: Hop) {
        let at = self.transfer(now, link, bytes);
        let (slot, epoch) = (hop.slot, hop.epoch);
        let event = match link.1 {
            Some(_) => WireEvent::NodeArrival(hop),
            None => WireEvent::TokenAtCoordinator { slot, epoch },
        };
        self.queue.push(at, event.into());
    }

    fn landed(&mut self, at: f64, rows: [RowKey; 2]) {
        for row in rows {
            self.queue.push(at, WireEvent::EngineThaw(row).into());
        }
    }

    fn call(&mut self, now: f64, node: NodeId) {
        if self.priced_calls {
            self.transfer(now, (None, Some(node)), TOKEN_WIRE_BYTES);
        }
    }

    fn completes(&mut self, at: f64, row: RowKey) {
        self.queue.push(at, WireEvent::BatchComplete(row).into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wire over the 10-node study cluster (every link 10 Gb/s, 1 ms).
    fn wire(priced_calls: bool) -> LinkWire<WireEvent> {
        LinkWire::new(ClusterSpec::solver_quality_10(), priced_calls)
    }

    /// A priced call is one `TOKEN_WIRE_BYTES` transfer on the coordinator →
    /// node link, counted there and queued nowhere.
    #[test]
    fn a_priced_call_is_one_transfer_on_the_coordinator_to_node_link() {
        let mut wire = wire(true);
        wire.call(2.0, NodeId(3));
        let [((from, to), link)] = wire.links() else {
            panic!("one link, got {:?}", wire.links());
        };
        assert_eq!((*from, *to), (None, Some(NodeId(3))));
        assert_eq!(
            (link.transfers, link.bytes_transferred),
            (1, TOKEN_WIRE_BYTES)
        );
        assert!(wire.queue.is_empty());
    }

    /// An unpriced call touches no link and queues nothing.
    #[test]
    fn an_unpriced_call_touches_no_link() {
        let mut wire = wire(false);
        wire.call(2.0, NodeId(3));
        assert!(wire.links().is_empty() && wire.queue.is_empty());
    }

    /// A hop to a node is queued as its arrival there, a hop to the
    /// coordinator as its token's, each at the time its link computes — and
    /// a surface's own event type takes them through `From`.
    #[test]
    fn send_hop_queues_a_hop_or_a_token_at_the_links_arrival_time() {
        #[derive(Debug, PartialEq)]
        struct Own(WireEvent);
        impl From<WireEvent> for Own {
            fn from(event: WireEvent) -> Self {
                Own(event)
            }
        }
        let mut wire: LinkWire<Own> = LinkWire::new(ClusterSpec::solver_quality_10(), false);
        let hop = Hop::decode(4, 2);
        let bytes = 1.25e9 * 0.030; // 30 ms on a 10 Gb/s link
        wire.send_hop(1.0, (None, Some(NodeId(0))), bytes, hop);
        wire.send_hop(1.0, (Some(NodeId(0)), None), 0.0, hop);
        // The empty token overtakes the 30 ms hop.
        let to_coordinator = wire.queue.pop().unwrap();
        let to_node = wire.queue.pop().unwrap();
        assert!((to_node.0 - 1.031).abs() < 1e-9, "{to_node:?}");
        assert_eq!(to_node.1, Own(WireEvent::NodeArrival(hop)));
        assert!(
            (to_coordinator.0 - 1.001).abs() < 1e-9,
            "{to_coordinator:?}"
        );
        let token = WireEvent::TokenAtCoordinator { slot: 4, epoch: 2 };
        assert_eq!(to_coordinator.1, Own(token));
        assert!(wire.queue.is_empty());
        let sent: Vec<u64> = wire.links().iter().map(|l| l.1.transfers).collect();
        assert_eq!(sent, [1, 1]);
    }

    #[test]
    fn idle_link_delivers_after_serialisation_plus_latency() {
        let mut link = LinkQueue::new(1_000_000.0, 0.05);
        let arrival = link.transfer(1.0, 500_000.0);
        assert!((arrival - (1.0 + 0.5 + 0.05)).abs() < 1e-12);
        assert_eq!(link.transfers, 1);
        assert_eq!(link.mean_queue_delay(), 0.0);
    }

    #[test]
    fn back_to_back_transfers_queue_up() {
        let mut link = LinkQueue::new(1_000_000.0, 0.0);
        let first = link.transfer(0.0, 1_000_000.0); // takes 1s
        let second = link.transfer(0.0, 1_000_000.0); // must wait for the first
        assert!((first - 1.0).abs() < 1e-12);
        assert!((second - 2.0).abs() < 1e-12);
        assert!((link.mean_queue_delay() - 0.5).abs() < 1e-12);
        assert!((link.max_queue_delay - 1.0).abs() < 1e-12);
        assert!(link.busy_until >= 2.0 - 1e-12);
    }

    #[test]
    fn later_transfer_on_idle_link_does_not_queue() {
        let mut link = LinkQueue::new(1_000.0, 0.01);
        link.transfer(0.0, 1_000.0);
        let arrival = link.transfer(10.0, 1_000.0);
        assert!((arrival - 11.01).abs() < 1e-12);
        assert_eq!(link.max_queue_delay, 0.0);
        assert!((link.bytes_transferred - 2_000.0).abs() < 1e-12);
    }
}
