//! The dense `model × node` table both serving surfaces keep their per-pair
//! engines in (the [`Actuator`](crate::Actuator)'s rows).  `NodeId`
//! and `ModelId` are dense indices, so a pipeline hop finds its pair by
//! indexing an array, and every walk over the pairs has one fixed order.  The
//! link table a hop indexes the same way is [`LinkTable`](crate::LinkTable).

use helix_cluster::{ModelId, NodeId};

/// One `T` per (node, model) pair, at `model.index() * num_nodes +
/// node.index()`.  Sized for the whole cluster × fleet, because re-plans add
/// pairs mid-run that the first plan did not have.
#[derive(Debug, Clone)]
pub struct PairTable<T> {
    num_nodes: usize,
    slots: Vec<Option<T>>,
}

impl<T> PairTable<T> {
    /// An empty table for `num_nodes` nodes serving `num_models` models.
    pub fn new(num_nodes: usize, num_models: usize) -> Self {
        // At least one column, so the table always splits into strides.
        let num_nodes = num_nodes.max(1);
        PairTable {
            num_nodes,
            slots: (0..num_nodes * num_models).map(|_| None).collect(),
        }
    }

    #[inline]
    fn index(&self, node: NodeId, model: ModelId) -> Option<usize> {
        (node.index() < self.num_nodes).then(|| model.index() * self.num_nodes + node.index())
    }

    /// The entry of a pair, if one was inserted.
    #[inline]
    pub fn get(&self, node: NodeId, model: ModelId) -> Option<&T> {
        self.slots.get(self.index(node, model)?)?.as_ref()
    }

    /// The entry of a pair, mutably.
    #[inline]
    pub fn get_mut(&mut self, node: NodeId, model: ModelId) -> Option<&mut T> {
        let index = self.index(node, model)?;
        self.slots.get_mut(index)?.as_mut()
    }

    /// The entries of two different pairs at once, mutably — `None` unless
    /// both were inserted and they differ.
    pub fn pair_mut(
        &mut self,
        (a, m): (NodeId, ModelId),
        (b, n): (NodeId, ModelId),
    ) -> Option<[&mut T; 2]> {
        let indices = [self.index(a, m)?, self.index(b, n)?];
        let [a, b] = self.slots.get_disjoint_mut(indices).ok()?;
        Some([a.as_mut()?, b.as_mut()?])
    }

    /// Installs the entry of a pair inside the table (others cannot be
    /// planned: the table spans the cluster and the fleet).
    pub fn insert(&mut self, node: NodeId, model: ModelId, entry: T) {
        let slot = self.index(node, model).and_then(|i| self.slots.get_mut(i));
        if let Some(slot) = slot {
            *slot = Some(entry);
        }
    }

    /// One model's stride, indexed by node.
    pub fn of_model(&mut self, model: ModelId) -> &mut [Option<T>] {
        let mut strides = self.slots.chunks_mut(self.num_nodes);
        strides.nth(model.index()).unwrap_or_default()
    }

    /// One node's entries, one per model serving it.
    pub fn of_node_mut(&mut self, node: NodeId) -> impl Iterator<Item = &mut T> {
        let strides = self.slots.chunks_mut(self.num_nodes);
        strides.filter_map(move |stride| stride.get_mut(node.index())?.as_mut())
    }

    /// Every entry with its pair, model by model in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, ModelId, &T)> {
        let n = self.num_nodes;
        let entries = self.slots.iter().enumerate();
        entries.filter_map(move |(i, e)| Some((NodeId(i % n), ModelId(i / n), e.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_index_their_own_slot_and_walks_are_model_major() {
        let mut table = PairTable::new(3, 2);
        for (node, model) in [(2, 0), (0, 1), (0, 0)] {
            table.insert(NodeId(node), ModelId(model), node * 10 + model);
        }
        assert_eq!(table.get(NodeId(0), ModelId(1)), Some(&1));
        assert_eq!(table.get(NodeId(1), ModelId(0)), None);
        *table.get_mut(NodeId(2), ModelId(0)).unwrap() += 100;
        let walk: Vec<_> = table.iter().map(|(n, m, &v)| (n.0, m.0, v)).collect();
        assert_eq!(walk, vec![(0, 0, 0), (2, 0, 120), (0, 1, 1)]);
        assert_eq!(table.of_model(ModelId(0)), &[Some(0), None, Some(120)]);
        assert_eq!(table.of_node_mut(NodeId(0)).count(), 2);
        let (a, b) = ((NodeId(2), ModelId(0)), (NodeId(0), ModelId(1)));
        let [x, y] = table.pair_mut(a, b).unwrap();
        std::mem::swap(x, y);
        assert_eq!(table.get(NodeId(2), ModelId(0)), Some(&1));
        // One pair twice, or a pair never inserted, is no pair.
        assert!(table.pair_mut(a, a).is_none());
        assert!(table.pair_mut(a, (NodeId(1), ModelId(0))).is_none());
    }

    #[test]
    fn a_pair_outside_the_table_is_neither_stored_nor_found() {
        let mut table = PairTable::new(2, 1);
        // A node past the last column must not alias the next model's stride.
        table.insert(NodeId(2), ModelId(0), 7);
        table.insert(NodeId(0), ModelId(1), 7);
        assert_eq!(table.iter().count(), 0);
        assert_eq!(table.get(NodeId(2), ModelId(0)), None);
        assert!(table.get_mut(NodeId(0), ModelId(3)).is_none());
        assert!(table.of_model(ModelId(5)).is_empty());
        // Zero nodes still split into (empty-ish) strides instead of panicking.
        let mut empty: PairTable<u8> = PairTable::new(0, 2);
        assert!(empty.of_model(ModelId(1)).iter().all(Option::is_none));
    }
}
