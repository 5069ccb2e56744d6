//! The network fabric: delivers messages between the coordinator and the
//! workers with per-link bandwidth, latency and FIFO queueing.
//!
//! The paper's prototype ships tensors over ZeroMQ across real datacenter
//! links; here a fabric *task* models each directed link as a
//! [`LinkQueue`] — the simulator's link model: a serial resource (messages
//! queue behind each other at the link's bandwidth) plus a propagation
//! latency — using the same per-link numbers the planner sees through
//! [`ClusterProfile::link_profile`].  Congestion on slow inter-region
//! links — the effect behind the paper's Fig. 10b case study — emerges
//! naturally from this model.
//!
//! The fabric runs as an async task on the data plane's executor: idle, it
//! parks on its ingress channel's waker; with deliveries in flight it
//! suspends on a timer until the earliest delivery is due.  There is no
//! polling interval — a message that arrives while the fabric sleeps wakes it
//! immediately.

use crate::clock::VirtualClock;
use crate::coordinator::CoordinatorMsg;
use crate::message::Envelope;
use crate::registry::WorkerRegistry;
use helix_cluster::{ClusterProfile, NodeId};
use helix_core::LinkQueue;
use minirt::channel::{Receiver, Sender};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;
use std::sync::Arc;

/// A directed link endpoint pair; `None` denotes the coordinator.
pub type LinkKey = (Option<NodeId>, Option<NodeId>);

/// The directed links that carried traffic: each link's queue state and its
/// traffic counters.  The fabric task owns the map and returns it when it
/// exits.
pub(crate) type LinkTraffic = HashMap<LinkKey, LinkQueue>;

/// A message waiting in the fabric for its delivery time.
#[derive(Debug)]
struct Delivery {
    deliver_at: f64,
    seq: u64,
    envelope: Envelope,
}

impl PartialEq for Delivery {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest delivery pops first.
        other
            .deliver_at
            .partial_cmp(&self.deliver_at)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Everything the fabric task needs to route messages.
pub(crate) struct FabricSpec {
    /// Profile supplying per-link bandwidth and latency (links are shared by
    /// every model of the fleet, so one profile suffices).
    pub profile: Arc<ClusterProfile>,
    /// Shared virtual clock.
    pub clock: VirtualClock,
    /// The live worker set: delivery is looked up per message, so workers
    /// spawned (or retired) mid-run become routable (or unroutable) at once.
    pub registry: Rc<WorkerRegistry>,
    /// Delivery channel of the coordinator (shared with the session's
    /// control messages).
    pub coordinator_tx: Sender<CoordinatorMsg>,
}

/// Spawns the fabric task on `executor`.  The task drains in-flight
/// deliveries, exits once every ingress sender has been dropped and returns
/// the traffic counters.
pub(crate) fn spawn_fabric(
    executor: &minirt::Executor,
    spec: FabricSpec,
    ingress: Receiver<Envelope>,
) -> minirt::JoinHandle<LinkTraffic> {
    executor.spawn(run_fabric(spec, ingress))
}

async fn run_fabric(spec: FabricSpec, ingress: Receiver<Envelope>) -> LinkTraffic {
    let FabricSpec {
        profile,
        clock,
        registry,
        coordinator_tx,
    } = spec;
    let mut traffic = LinkTraffic::new();
    let mut heap: BinaryHeap<Delivery> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let mut closed = false;

    loop {
        // Deliver everything that is due.
        let now = clock.now();
        while heap.peek().map(|d| d.deliver_at <= now).unwrap_or(false) {
            let delivery = heap.pop().expect("peeked entry exists");
            route(delivery.envelope, &registry, &coordinator_tx);
        }
        if closed && heap.is_empty() {
            return traffic;
        }

        // Wait for the next arrival or the next due delivery, whichever
        // comes first; both paths wake the task, neither polls.
        let next_due = heap.peek().map(|d| clock.instant_at(d.deliver_at));
        if closed {
            let due = next_due.expect("non-empty heap when closed");
            minirt::time::sleep_until(due).await;
            continue;
        }
        let received = match next_due {
            Some(due) => match minirt::time::timeout_at(due, ingress.recv()).await {
                Ok(result) => result,
                Err(_elapsed) => continue,
            },
            None => ingress.recv().await,
        };
        match received {
            Ok(envelope) => {
                seq += 1;
                let delivery = schedule(envelope, seq, &profile, &clock, &mut traffic);
                heap.push(delivery);
            }
            Err(_) => closed = true,
        }
    }
}

/// Queues an envelope on its link: the link's [`LinkQueue`] computes the
/// delivery time and records the traffic counters.
fn schedule(
    envelope: Envelope,
    seq: u64,
    profile: &ClusterProfile,
    clock: &VirtualClock,
    traffic: &mut LinkTraffic,
) -> Delivery {
    let (from, to) = (envelope.from, envelope.to);
    let deliver_at = traffic
        .entry((from, to))
        .or_insert_with(|| {
            let link = profile.link_profile(from, to).link;
            LinkQueue::new(link.bandwidth_bytes_per_sec(), link.latency_ms / 1000.0)
        })
        .transfer(clock.now(), envelope.bytes.max(0.0));
    Delivery {
        deliver_at,
        seq,
        envelope,
    }
}

fn route(envelope: Envelope, registry: &WorkerRegistry, coordinator_tx: &Sender<CoordinatorMsg>) {
    // A receiver that has already shut down (or been retired from the
    // registry) simply drops the message; the coordinator only exits once
    // every request has completed, so nothing the report depends on can be
    // lost this way.
    match envelope.to {
        Some(node) => {
            if let Some(tx) = registry.route((node, envelope.model)) {
                let _ = tx.send(envelope.msg);
            }
        }
        None => {
            let _ = coordinator_tx.send(CoordinatorMsg::Runtime(envelope.msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Phase, RuntimeMsg};
    use crate::registry::WorkerMeta;
    use crate::worker::SharedWorkerStats;
    use helix_cluster::{ClusterSpec, ModelConfig, ModelId};
    use minirt::channel::unbounded;

    fn setup() -> (Arc<ClusterProfile>, VirtualClock) {
        let profile = Arc::new(ClusterProfile::analytic(
            ClusterSpec::solver_quality_10(),
            ModelConfig::llama_30b(),
        ));
        (profile, VirtualClock::new(0.0005))
    }

    /// Registers a bare channel as a routable "worker" (no task behind it).
    fn registry_with_endpoint(
        node: NodeId,
    ) -> (Rc<WorkerRegistry>, minirt::channel::Receiver<RuntimeMsg>) {
        let registry = Rc::new(WorkerRegistry::new());
        let (tx, rx) = unbounded();
        let stats = SharedWorkerStats::default();
        registry.register(
            (node, ModelId::default()),
            tx,
            stats,
            WorkerMeta {
                name: format!("node{}", node.index()),
                layers: 0,
            },
        );
        (registry, rx)
    }

    fn iteration_done(from: Option<NodeId>, to: Option<NodeId>, bytes: f64) -> Envelope {
        Envelope {
            from,
            to,
            model: ModelId::default(),
            bytes,
            msg: RuntimeMsg::IterationDone {
                request: 1,
                phase: Phase::Decode,
                emitted_at: 0.0,
                epoch: 0,
            },
        }
    }

    #[test]
    fn messages_reach_their_destination_with_traffic_accounting() {
        let (profile, clock) = setup();
        let (registry, worker_rx) = registry_with_endpoint(NodeId(0));
        let (coord_tx, coord_rx) = unbounded();
        let (ingress_tx, ingress_rx) = unbounded();
        let executor = minirt::Executor::new();
        let spec = FabricSpec {
            profile,
            clock,
            registry,
            coordinator_tx: coord_tx,
        };
        let traffic = spawn_fabric(&executor, spec, ingress_rx);

        ingress_tx
            .send(iteration_done(None, Some(NodeId(0)), 4.0))
            .unwrap();
        ingress_tx
            .send(iteration_done(Some(NodeId(0)), None, 4.0))
            .unwrap();
        drop(ingress_tx);
        executor.drain();

        let to_worker = worker_rx.try_recv().unwrap();
        assert!(matches!(
            to_worker,
            RuntimeMsg::IterationDone { request: 1, .. }
        ));
        let to_coord = coord_rx.try_recv().unwrap();
        assert!(matches!(
            to_coord,
            CoordinatorMsg::Runtime(RuntimeMsg::IterationDone { request: 1, .. })
        ));

        let map = traffic.into_output().unwrap();
        assert_eq!(map.len(), 2);
        let entry = map.get(&(None, Some(NodeId(0)))).unwrap();
        assert_eq!(entry.transfers, 1);
        assert!((entry.bytes_transferred - 4.0).abs() < 1e-9);
        assert_eq!(entry.mean_queue_delay(), entry.total_queue_delay);
    }

    #[test]
    fn large_transfers_queue_behind_each_other() {
        let (profile, clock) = setup();
        let (registry, worker_rx) = registry_with_endpoint(NodeId(1));
        let (coord_tx, _coord_rx) = unbounded();
        let (ingress_tx, ingress_rx) = unbounded();
        let executor = minirt::Executor::new();
        let spec = FabricSpec {
            profile: Arc::clone(&profile),
            clock,
            registry,
            coordinator_tx: coord_tx,
        };
        let traffic = spawn_fabric(&executor, spec, ingress_rx);

        // Two transfers sized to occupy the link for many virtual seconds
        // each; the second must queue behind the first.  The size is
        // deliberately huge: queueing is detected by comparing wall-clock
        // `now` against the link-busy horizon, so the busy window must be
        // wide enough (milliseconds of wall time at this clock scale) that
        // scheduler preemption between the two envelopes cannot swallow it.
        let link = profile.link_profile(Some(NodeId(0)), Some(NodeId(1))).link;
        let bytes = link.bandwidth_bytes_per_sec() * 20.0;
        for _ in 0..2 {
            ingress_tx
                .send(iteration_done(Some(NodeId(0)), Some(NodeId(1)), bytes))
                .unwrap();
        }
        drop(ingress_tx);
        executor.drain();
        for _ in 0..2 {
            worker_rx.try_recv().unwrap();
        }

        let map = traffic.into_output().unwrap();
        let entry = map.get(&(Some(NodeId(0)), Some(NodeId(1)))).unwrap();
        assert_eq!(entry.transfers, 2);
        assert!(
            entry.max_queue_delay > 0.05,
            "second transfer should have queued, max delay {}",
            entry.max_queue_delay
        );
    }

    #[test]
    fn earliest_delivery_pops_first() {
        let mk = |deliver_at: f64, seq: u64| Delivery {
            deliver_at,
            seq,
            envelope: iteration_done(None, None, 0.0),
        };
        let mut heap = BinaryHeap::new();
        heap.push(mk(5.0, 1));
        heap.push(mk(1.0, 2));
        heap.push(mk(3.0, 3));
        let order: Vec<f64> = std::iter::from_fn(|| heap.pop().map(|d| d.deliver_at)).collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
    }
}
