//! The simulator's dense engine table.  `NodeId` and `ModelId` are dense
//! indices, so a pipeline hop finds its engine by indexing an array — and
//! every walk over the engines has one fixed order.  The link table a hop
//! indexes the same way is [`helix_core::link::LinkTable`], shared with the
//! runtime's fabric.

use crate::engine::NodeEngine;
use helix_cluster::{ModelId, NodeId};

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
