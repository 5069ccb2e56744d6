//! FIFO network links with finite bandwidth and latency — the one link model
//! ([`LinkQueue`]) and the one dense table of links ([`LinkTable`]) behind
//! the simulator's link queues and the runtime's network fabric.

use helix_cluster::{ClusterSpec, NodeId};

/// A directed link's endpoint pair; `None` denotes the coordinator.
pub type LinkKey = (Option<NodeId>, Option<NodeId>);

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

/// Link queues in first-use order behind a `(num_nodes + 1)²` table of
/// slots, the coordinator being row and column 0 — a hop finds its link by
/// indexing, and every walk over the used links has one fixed order.  Only
/// the slots are dense: that is 4 MB at 1 008 nodes, where dense queues
/// would be 57 MB.
#[derive(Debug, Clone)]
pub struct LinkTable {
    side: usize,
    slots: Vec<u32>,
    queues: Vec<(LinkKey, LinkQueue)>,
}

impl LinkTable {
    /// An empty table for a cluster of `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        let side = num_nodes + 1;
        LinkTable {
            side,
            slots: vec![UNUSED; side * side],
            queues: Vec::new(),
        }
    }

    /// The queue of the `from → to` link, created from `cluster`'s link
    /// spec on first use.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not a node of the cluster the table was
    /// sized for.
    #[inline]
    pub fn queue(&mut self, cluster: &ClusterSpec, (from, to): LinkKey) -> &mut LinkQueue {
        let end = |endpoint: Option<NodeId>| endpoint.map_or(0, |node| node.index() + 1);
        assert!(end(from) < self.side && end(to) < self.side);
        let cell = end(from) * self.side + end(to);
        let mut slot = self.slots[cell] as usize;
        if slot >= self.queues.len() {
            let spec = cluster.link(from, to);
            let queue = LinkQueue::new(spec.bandwidth_bytes_per_sec(), spec.latency_secs());
            slot = self.queues.len();
            self.slots[cell] = u32::try_from(slot).unwrap_or(UNUSED);
            self.queues.push(((from, to), queue));
        }
        &mut self.queues[slot].1
    }

    /// Every link that has carried a transfer, with its endpoints, in
    /// first-use order.
    pub fn used(&self) -> &[(LinkKey, LinkQueue)] {
        &self.queues
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
