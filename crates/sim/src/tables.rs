//! The simulator's dense state tables.  `NodeId` and `ModelId` are dense
//! indices, so a pipeline hop finds its engine and its link by indexing
//! arrays — and every walk over them has one fixed order.

use crate::engine::NodeEngine;
use helix_cluster::{ClusterSpec, ModelId, NodeId};
use helix_core::LinkQueue;

/// A link endpoint (`None` = coordinator).
type Endpoint = Option<NodeId>;

/// Every (node, model) engine, at `model.index() * num_nodes + node.index()`.
/// Sized for the whole cluster × fleet, because re-plans create engines
/// mid-run for pairs the first plan did not have.
pub(crate) struct EngineTable {
    num_nodes: usize,
    pub(crate) slots: Vec<Option<NodeEngine>>,
}

impl EngineTable {
    pub(crate) fn new(num_nodes: usize, num_models: usize) -> Self {
        // At least one column, so the table always splits into strides.
        let num_nodes = num_nodes.max(1);
        EngineTable {
            num_nodes,
            slots: (0..num_nodes * num_models).map(|_| None).collect(),
        }
    }

    fn index(&self, node: NodeId, model: ModelId) -> Option<usize> {
        (node.index() < self.num_nodes).then(|| model.index() * self.num_nodes + node.index())
    }

    pub(crate) fn get(&self, node: NodeId, model: ModelId) -> Option<&NodeEngine> {
        self.slots.get(self.index(node, model)?)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, node: NodeId, model: ModelId) -> Option<&mut NodeEngine> {
        let index = self.index(node, model)?;
        self.slots.get_mut(index)?.as_mut()
    }

    /// Installs the engine of a pair inside the table (others cannot be
    /// planned: the table spans the cluster and the fleet).
    pub(crate) fn insert(&mut self, node: NodeId, model: ModelId, engine: NodeEngine) {
        let slot = self.index(node, model).and_then(|i| self.slots.get_mut(i));
        if let Some(slot) = slot {
            *slot = Some(engine);
        }
    }

    /// One model's stride, indexed by node.
    pub(crate) fn of_model(&mut self, model: ModelId) -> &mut [Option<NodeEngine>] {
        let mut strides = self.slots.chunks_mut(self.num_nodes);
        strides.nth(model.index()).unwrap_or_default()
    }

    /// One node's engines, one per model serving it.
    pub(crate) fn of_node_mut(&mut self, node: NodeId) -> impl Iterator<Item = &mut NodeEngine> {
        let strides = self.slots.chunks_mut(self.num_nodes);
        strides.filter_map(move |stride| stride.get_mut(node.index())?.as_mut())
    }

    /// Every engine with its pair, model by model in node order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, ModelId, &NodeEngine)> {
        let n = self.num_nodes;
        let engines = self.slots.iter().enumerate();
        engines.filter_map(move |(i, e)| Some((NodeId(i % n), ModelId(i / n), e.as_ref()?)))
    }
}

/// Marks an endpoint pair that has carried no transfer yet.
const UNUSED: u32 = u32::MAX;

/// Link queues in first-use order behind a `(num_nodes + 1)²` table of
/// slots, the coordinator being row and column 0.  Only the slots are dense:
/// that is 4 MB at 1 008 nodes, where dense queues would be 57 MB.
pub(crate) struct LinkTable {
    side: usize,
    slots: Vec<u32>,
    /// Every used link with its endpoints, in first-use order.
    pub(crate) queues: Vec<((Endpoint, Endpoint), LinkQueue)>,
}

impl LinkTable {
    pub(crate) fn new(num_nodes: usize) -> Self {
        let side = num_nodes + 1;
        LinkTable {
            side,
            slots: vec![UNUSED; side * side],
            queues: Vec::new(),
        }
    }

    /// The queue of the `from → to` link, created from `cluster`'s link
    /// spec on first use.
    pub(crate) fn queue(
        &mut self,
        cluster: &ClusterSpec,
        from: Endpoint,
        to: Endpoint,
    ) -> &mut LinkQueue {
        let end = |endpoint: Endpoint| endpoint.map_or(0, |node| node.index() + 1);
        debug_assert!(end(from) < self.side && end(to) < self.side);
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
}
