//! The network fabric: delivers messages between the coordinator and the
//! workers with per-link bandwidth, latency and FIFO queueing.
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
//! The fabric is a structure its senders push into, not a task behind a
//! channel: [`Fabric::send`] prices the transfer on the caller's stack and
//! queues the delivery by `(deliver_at, seq)`.  One pump task hands the
//! deliveries over: woken by its timer it reads the clock once, routes
//! everything due, re-arms for the next delivery and parks; a send that
//! becomes the earliest moves that timer.  There is no polling interval.

use crate::clock::VirtualClock;
use crate::coordinator::CoordinatorMsg;
use crate::message::Envelope;
use crate::metrics::LinkReport;
use crate::registry::WorkerRegistry;
use helix_cluster::ClusterSpec;
use helix_core::LinkTable;
use minirt::channel::Sender;
use minirt::time::Deadline;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// A message waiting in the fabric for its delivery time.
#[derive(Debug)]
struct Delivery {
    deliver_at: f64,
    seq: u64,
    envelope: Envelope,
}

impl PartialEq for Delivery {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Delivery {}

impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest delivery pops
        // first, and of equal times the one sent first.
        let by_time = other.deliver_at.total_cmp(&self.deliver_at);
        by_time.then(other.seq.cmp(&self.seq))
    }
}

/// What senders and the pump share.
struct InFlight {
    /// The directed links that carried traffic: queue state and counters.
    links: LinkTable,
    heap: BinaryHeap<Delivery>,
    seq: u64,
}

/// The fabric handle shared (`Rc`) by the coordinator, every worker and the
/// pump task.
pub(crate) struct Fabric {
    /// Supplies per-link bandwidth and latency (links are shared by every
    /// model of the fleet).
    cluster: ClusterSpec,
    clock: VirtualClock,
    /// The live worker set: delivery is looked up per message, so workers
    /// spawned (or retired) mid-run become routable (or unroutable) at once.
    registry: Rc<WorkerRegistry>,
    /// Delivery channel of the coordinator (shared with the session's
    /// control messages).
    coordinator_tx: Sender<CoordinatorMsg>,
    in_flight: RefCell<InFlight>,
    /// Armed for the earliest delivery in flight; the pump waits on it.
    next_due: Deadline,
}

/// Builds the fabric and spawns its pump on `executor`.  The pump never
/// exits: idle it holds no timer, so [`minirt::Executor::drain`] delivers
/// what is in flight and returns.
pub(crate) fn spawn_fabric(
    executor: &minirt::Executor,
    cluster: ClusterSpec,
    clock: VirtualClock,
    registry: Rc<WorkerRegistry>,
    coordinator_tx: Sender<CoordinatorMsg>,
) -> Rc<Fabric> {
    let fabric = Rc::new(Fabric {
        in_flight: RefCell::new(InFlight {
            links: LinkTable::new(cluster.num_nodes()),
            heap: BinaryHeap::new(),
            seq: 0,
        }),
        cluster,
        clock,
        registry,
        coordinator_tx,
        next_due: Deadline::new(executor),
    });
    let pump = Rc::clone(&fabric);
    let _pump = executor.spawn(async move {
        loop {
            let now = pump.clock.virtual_at(pump.next_due.wait().await);
            pump.deliver_due(now);
        }
    });
    fabric
}

impl Fabric {
    /// Queues `envelope` on its link: the link's [`LinkQueue`] computes the
    /// delivery time and records the traffic counters.
    ///
    /// [`LinkQueue`]: helix_core::LinkQueue
    pub(crate) fn send(&self, envelope: Envelope) {
        let mut in_flight = self.in_flight.borrow_mut();
        let link = (envelope.from, envelope.to);
        let queue = in_flight.links.queue(&self.cluster, link);
        let deliver_at = queue.transfer(self.clock.now(), envelope.bytes.max(0.0));
        in_flight.seq += 1;
        let seq = in_flight.seq;
        let next = in_flight.heap.peek();
        let earliest = next.is_none_or(|d| deliver_at < d.deliver_at);
        in_flight.heap.push(Delivery {
            deliver_at,
            seq,
            envelope,
        });
        if earliest {
            self.next_due.set(Some(self.clock.instant_at(deliver_at)));
        }
    }

    /// One pump turn at virtual time `now`: routes everything due, in
    /// `(deliver_at, seq)` order, and re-arms for the next delivery.
    fn deliver_due(&self, now: f64) {
        let mut in_flight = self.in_flight.borrow_mut();
        while in_flight.heap.peek().is_some_and(|d| d.deliver_at <= now) {
            let envelope = in_flight.heap.pop().expect("peeked entry exists").envelope;
            // A receiver that has already shut down (or been retired from
            // the registry) simply drops the message; the coordinator only
            // exits once every request has completed, so nothing the report
            // depends on can be lost this way.
            match envelope.to {
                Some(node) => self.registry.deliver((node, envelope.model), envelope.msg),
                None => {
                    let _ = self
                        .coordinator_tx
                        .send(CoordinatorMsg::Runtime(envelope.msg));
                }
            }
        }
        let next = in_flight.heap.peek().map(|d| d.deliver_at);
        self.next_due.set(next.map(|at| self.clock.instant_at(at)));
    }

    /// One report row per link that carried traffic.
    pub(crate) fn link_reports(&self) -> Vec<LinkReport> {
        let in_flight = self.in_flight.borrow();
        let used = in_flight.links.used().iter();
        used.map(|&((from, to), ref link)| LinkReport::new(from, to, link))
            .collect()
    }
}

#[cfg(test)]
impl Fabric {
    /// A fabric over the 10-node study cluster and an empty registry whose
    /// pump never runs (its executor is gone): whatever a unit under test
    /// sends stays in flight.
    pub(crate) fn detached() -> Rc<Fabric> {
        let registry = Rc::new(WorkerRegistry::new(10, 1));
        let (coordinator_tx, _) = minirt::channel::unbounded();
        let cluster = ClusterSpec::solver_quality_10();
        let clock = VirtualClock::new(0.0001);
        let nobody = minirt::Executor::new();
        spawn_fabric(&nobody, cluster, clock, registry, coordinator_tx)
    }

    /// Takes everything in flight, in delivery order, undelivered.
    pub(crate) fn take_in_flight(&self) -> Vec<Envelope> {
        let heap = std::mem::take(&mut self.in_flight.borrow_mut().heap);
        let in_order = heap.into_sorted_vec().into_iter().rev();
        in_order.map(|delivery| delivery.envelope).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Phase, RuntimeMsg};
    use crate::registry::WorkerMeta;
    use crate::worker::SharedWorkerStats;
    use helix_cluster::{ModelId, NodeId};
    use minirt::channel::{unbounded, Receiver};
    use minirt::time::timeout_at;
    use std::time::{Duration, Instant};

    /// A pumped fabric over the 10-node study cluster (every link 10 Gb/s,
    /// 1 ms) with one bare channel registered as the worker of `node`.
    struct Rig {
        executor: minirt::Executor,
        clock: VirtualClock,
        registry: Rc<WorkerRegistry>,
        fabric: Rc<Fabric>,
        worker_rx: Receiver<RuntimeMsg>,
        coord_rx: Receiver<CoordinatorMsg>,
    }

    fn rig(node: NodeId, wall_per_virtual: f64) -> Rig {
        let executor = minirt::Executor::new();
        let clock = VirtualClock::new(wall_per_virtual);
        let registry = Rc::new(WorkerRegistry::new(10, 1));
        let (tx, worker_rx) = unbounded();
        let meta = WorkerMeta {
            name: format!("node{}", node.index()),
            layers: 0,
        };
        let stats = SharedWorkerStats::default();
        registry.register((node, ModelId::default()), tx, stats, meta);
        let (coord_tx, coord_rx) = unbounded();
        let cluster = ClusterSpec::solver_quality_10();
        let fabric = spawn_fabric(&executor, cluster, clock, Rc::clone(&registry), coord_tx);
        Rig {
            executor,
            clock,
            registry,
            fabric,
            worker_rx,
            coord_rx,
        }
    }

    /// Bytes that occupy a 10 Gb/s link for `secs` virtual seconds.
    fn link_secs(secs: f64) -> f64 {
        1.25e9 * secs
    }

    fn iteration_done(
        request: u64,
        from: Option<NodeId>,
        to: Option<NodeId>,
        bytes: f64,
    ) -> Envelope {
        Envelope {
            from,
            to,
            model: ModelId::default(),
            bytes,
            msg: RuntimeMsg::IterationDone {
                request,
                phase: Phase::Decode,
                emitted_at: 0.0,
                epoch: 0,
            },
        }
    }

    fn request_of(msg: RuntimeMsg) -> u64 {
        match msg {
            RuntimeMsg::IterationDone { request, .. } => request,
            other => panic!("expected IterationDone, got {other:?}"),
        }
    }

    #[test]
    fn messages_reach_their_destination_with_traffic_accounting() {
        let rig = rig(NodeId(0), 0.0005);
        rig.fabric
            .send(iteration_done(1, None, Some(NodeId(0)), 4.0));
        rig.fabric
            .send(iteration_done(1, Some(NodeId(0)), None, 4.0));
        rig.executor.drain();

        let to_worker = rig.worker_rx.try_recv().unwrap();
        assert!(matches!(
            to_worker,
            RuntimeMsg::IterationDone { request: 1, .. }
        ));
        let to_coord = rig.coord_rx.try_recv().ok().unwrap();
        assert!(matches!(
            to_coord,
            CoordinatorMsg::Runtime(RuntimeMsg::IterationDone { request: 1, .. })
        ));

        // Exactly one transfer per envelope, one row per used link.
        let links = rig.fabric.link_reports();
        assert_eq!(links.len(), 2);
        let entry = links
            .iter()
            .find(|l| (l.from, l.to) == (None, Some(NodeId(0))))
            .unwrap();
        assert_eq!(entry.messages, 1);
        assert!((entry.bytes - 4.0).abs() < 1e-9);
        assert_eq!(entry.mean_queue_delay, entry.max_queue_delay);
    }

    #[test]
    fn large_transfers_queue_behind_each_other() {
        let rig = rig(NodeId(1), 0.0005);
        // Two transfers sized to occupy the link for many virtual seconds
        // each; the second must queue behind the first.  The size is
        // deliberately huge: queueing is detected by comparing wall-clock
        // `now` against the link-busy horizon, so the busy window must be
        // wide enough (milliseconds of wall time at this clock scale) that
        // scheduler preemption between the two envelopes cannot swallow it.
        for request in 0..2 {
            let bytes = link_secs(20.0);
            rig.fabric.send(iteration_done(
                request,
                Some(NodeId(0)),
                Some(NodeId(1)),
                bytes,
            ));
        }
        rig.executor.drain();
        for _ in 0..2 {
            rig.worker_rx.try_recv().unwrap();
        }

        let links = rig.fabric.link_reports();
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].messages, 2);
        assert!(
            links[0].max_queue_delay > 0.05,
            "second transfer should have queued, max delay {}",
            links[0].max_queue_delay
        );
    }

    #[test]
    fn earliest_delivery_pops_first() {
        let mk = |deliver_at: f64, seq: u64| Delivery {
            deliver_at,
            seq,
            envelope: iteration_done(seq, None, None, 0.0),
        };
        let mut heap = BinaryHeap::new();
        for (deliver_at, seq) in [(5.0, 1), (1.0, 2), (3.0, 4), (3.0, 3)] {
            heap.push(mk(deliver_at, seq));
        }
        // Equal times go to the one sent first.
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|d| d.seq)).collect();
        assert_eq!(order, vec![2, 3, 4, 1]);
    }

    #[test]
    fn links_are_fifo_and_deliveries_cross_links_in_time_order() {
        let rig = rig(NodeId(0), 0.0005);
        let to_coord = |request, from: usize, secs| {
            iteration_done(request, Some(NodeId(from)), None, link_secs(secs))
        };
        // Link 1 → coordinator: a slow message, then a fast one that must
        // not overtake it.  Link 2 → coordinator: sent last, due first.
        rig.fabric.send(to_coord(1, 1, 100.0));
        rig.fabric.send(to_coord(2, 1, 0.0));
        rig.fabric.send(to_coord(3, 2, 20.0));
        rig.executor.drain();
        let order: Vec<u64> = std::iter::from_fn(|| match rig.coord_rx.try_recv().ok()? {
            CoordinatorMsg::Runtime(msg) => Some(request_of(msg)),
            CoordinatorMsg::Control(_) => None,
        })
        .collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn nothing_is_delivered_before_its_delivery_time() {
        // 1 virtual second = 1 wall second: 30 ms on the wire + 1 ms latency.
        let rig = rig(NodeId(3), 1.0);
        let sent_at = rig.clock.now();
        rig.fabric
            .send(iteration_done(7, None, Some(NodeId(3)), link_secs(0.030)));
        let got = rig.executor.block_on(rig.worker_rx.recv()).unwrap();
        assert_eq!(request_of(got), 7);
        let took = rig.clock.now() - sent_at;
        assert!(took >= 0.031, "delivered after {took} virtual seconds");
    }

    #[test]
    fn a_new_earliest_delivery_moves_the_pumps_timer() {
        // 1 virtual second = 1 wall second.  The pump parks on a delivery
        // 60 s away; a 1 ms delivery sent afterwards must not wait for it.
        let rig = rig(NodeId(0), 1.0);
        let before = Instant::now();
        let got = rig.executor.block_on(async {
            rig.fabric
                .send(iteration_done(1, Some(NodeId(1)), None, link_secs(60.0)));
            minirt::time::sleep(Duration::from_millis(5)).await;
            rig.fabric
                .send(iteration_done(2, None, Some(NodeId(0)), 0.0));
            timeout_at(before + Duration::from_secs(10), rig.worker_rx.recv()).await
        });
        let got = got.expect("delivered on its own time, not the parked one's");
        assert_eq!(request_of(got.unwrap()), 2);
        assert!(before.elapsed() < Duration::from_secs(10));
        assert!(
            rig.coord_rx.try_recv().is_err(),
            "the slow one is in flight"
        );
    }

    #[test]
    fn messages_for_detached_or_unknown_workers_drop_silently() {
        let rig = rig(NodeId(0), 0.0005);
        rig.registry.detach((NodeId(0), ModelId::default()));
        assert!(matches!(rig.worker_rx.try_recv(), Ok(RuntimeMsg::Shutdown)));
        rig.fabric
            .send(iteration_done(1, None, Some(NodeId(0)), 4.0));
        rig.fabric
            .send(iteration_done(2, None, Some(NodeId(5)), 4.0));
        rig.executor.drain();
        assert!(rig.worker_rx.try_recv().is_err());
        // The wire carried them all the same.
        let links = rig.fabric.link_reports();
        assert_eq!(links.iter().map(|l| l.messages).sum::<u64>(), 2);
    }

    #[test]
    fn drain_delivers_what_is_in_flight_and_leaves_the_traffic_to_the_report() {
        let rig = rig(NodeId(2), 0.0005);
        let fabric = Rc::clone(&rig.fabric);
        // Sent by a task, as a worker flushing its queue at shutdown does.
        rig.executor.spawn(async move {
            for request in 0..3 {
                fabric.send(iteration_done(
                    request,
                    None,
                    Some(NodeId(2)),
                    link_secs(1.0),
                ));
            }
        });
        rig.executor.drain();
        let delivered: Vec<u64> = std::iter::from_fn(|| rig.worker_rx.try_recv().ok())
            .map(request_of)
            .collect();
        assert_eq!(delivered, vec![0, 1, 2]);
        assert!(rig.fabric.take_in_flight().is_empty());
        assert_eq!(rig.fabric.link_reports()[0].messages, 3);
    }
}
