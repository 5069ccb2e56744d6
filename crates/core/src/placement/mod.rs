//! Model placement: which layers each compute node holds.

pub mod heuristics;
pub mod hierarchical;
pub mod incremental;
pub mod milp;
pub mod partition;
pub mod refine;

use crate::error::HelixError;
use helix_cluster::{ClusterProfile, NodeId};
use std::fmt;

/// A contiguous range of model layers `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerRange {
    /// First layer held (inclusive).
    pub start: usize,
    /// One past the last layer held (exclusive).
    pub end: usize,
}

impl LayerRange {
    /// Creates a range; `start` must be strictly less than `end`.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(
            start < end,
            "empty or inverted layer range [{start}, {end})"
        );
        LayerRange { start, end }
    }

    /// Number of layers in the range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// A range is never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `layer` falls inside the range.
    pub fn contains(&self, layer: usize) -> bool {
        layer >= self.start && layer < self.end
    }

    /// Whether two ranges share at least one layer.
    pub fn intersects(&self, other: LayerRange) -> bool {
        self.start < other.end && other.start < self.end
    }
}

impl fmt::Display for LayerRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// An assignment of a contiguous layer range to each compute node.
///
/// Nodes may be left unassigned (e.g. the separate-pipelines baseline leaves
/// nodes idle when their GPU type cannot hold a full model replica).
///
/// # Example
///
/// ```rust
/// use helix_cluster::NodeId;
/// use helix_core::{LayerRange, ModelPlacement};
///
/// let mut placement = ModelPlacement::empty(3);
/// placement.assign(NodeId(0), LayerRange::new(0, 2));
/// placement.assign(NodeId(1), LayerRange::new(2, 4));
/// placement.assign(NodeId(2), LayerRange::new(0, 4));
/// // Node 2 covers the whole model by itself, so the shortest pipeline has one stage.
/// assert_eq!(placement.pipeline_depth(4), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPlacement {
    assignments: Vec<Option<LayerRange>>,
}

impl ModelPlacement {
    /// A placement for `num_nodes` nodes with nothing assigned yet.
    pub fn empty(num_nodes: usize) -> Self {
        ModelPlacement {
            assignments: vec![None; num_nodes],
        }
    }

    /// Number of nodes this placement covers (assigned or not).
    pub fn num_nodes(&self) -> usize {
        self.assignments.len()
    }

    /// Assigns `range` to `node`, replacing any previous assignment.
    ///
    /// # Panics
    ///
    /// Panics if the node index is out of range.
    pub fn assign(&mut self, node: NodeId, range: LayerRange) {
        self.assignments[node.index()] = Some(range);
    }

    /// Removes any assignment from `node`.
    pub fn clear(&mut self, node: NodeId) {
        self.assignments[node.index()] = None;
    }

    /// The range assigned to `node`, if any.
    pub fn range(&self, node: NodeId) -> Option<LayerRange> {
        self.assignments.get(node.index()).copied().flatten()
    }

    /// Iterates over `(node, range)` pairs for assigned nodes.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, LayerRange)> + '_ {
        self.assignments
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|range| (NodeId(i), range)))
    }

    /// Number of nodes holding at least one layer.
    pub fn num_assigned(&self) -> usize {
        self.assignments.iter().filter(|r| r.is_some()).count()
    }

    /// Nodes that hold the given layer.
    fn holders_of(&self, layer: usize) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, r)| r.contains(layer))
            .map(|(n, _)| n)
            .collect()
    }

    /// Nodes holding the first layer of the model.
    pub fn entry_nodes(&self) -> Vec<NodeId> {
        self.holders_of(0)
    }

    /// The minimum number of pipeline stages a request must traverse, i.e.
    /// the length of the shortest node chain from layer 0 to `num_layers`
    /// (the paper's "pipeline depth").  Returns `usize::MAX` if no complete
    /// chain exists.
    pub fn pipeline_depth(&self, num_layers: usize) -> usize {
        // BFS over layer positions: dist[p] = min #stages to have completed p layers.
        let mut dist = vec![usize::MAX; num_layers + 1];
        dist[0] = 0;
        // Relax in rounds; positions only move forward so a simple dynamic
        // program over positions in increasing order suffices.
        for p in 0..num_layers {
            if dist[p] == usize::MAX {
                continue;
            }
            for (_, r) in self.iter() {
                // With partial inference a node holding [s, e) can take a
                // request at position p if s <= p < e and advance it to e.
                if r.start <= p && p < r.end {
                    let next = r.end;
                    if dist[p] + 1 < dist[next] {
                        dist[next] = dist[p] + 1;
                    }
                }
            }
        }
        dist[num_layers]
    }

    /// Whether a request can be served end-to-end, i.e. a chain of nodes
    /// covers every layer in order.
    pub fn has_complete_pipeline(&self, num_layers: usize) -> bool {
        self.pipeline_depth(num_layers) != usize::MAX
    }

    /// Validates the placement against a profile: every assigned range must
    /// lie inside the model and fit the node's VRAM budget, and at least one
    /// complete pipeline must exist.
    ///
    /// # Errors
    ///
    /// Returns the specific [`HelixError`] describing the first violation
    /// found.
    pub fn validate(&self, profile: &ClusterProfile) -> Result<(), HelixError> {
        let num_layers = profile.model().num_layers;
        for (node, range) in self.iter() {
            if range.end > num_layers {
                return Err(HelixError::InvalidLayerRange {
                    node,
                    start: range.start,
                    end: range.end,
                    num_layers,
                });
            }
            // Placements may over-pack weights beyond the recommended 50/50
            // split (the separate-pipelines baseline does this for LLaMA 70B)
            // but never beyond what physically fits in VRAM.
            let max = profile.node_profile(node).max_layers_absolute;
            if range.len() > max {
                return Err(HelixError::ExceedsNodeCapacity {
                    node,
                    layers: range.len(),
                    max_layers: max,
                });
            }
        }
        if !self.has_complete_pipeline(num_layers) {
            return Err(HelixError::NoCompletePipeline);
        }
        Ok(())
    }

    /// Whether the directed connection `from → to` is valid under this
    /// placement (paper §4.3):
    /// with partial inference, `to` must hold the layer right after the last
    /// layer `from` computes and extend strictly beyond it
    /// (`s_to <= e_from < e_to`); without, `to` must start exactly where
    /// `from` ends.
    pub fn connection_valid(&self, from: NodeId, to: NodeId, partial_inference: bool) -> bool {
        let (Some(a), Some(b)) = (self.range(from), self.range(to)) else {
            return false;
        };
        if partial_inference {
            b.start <= a.end && a.end < b.end
        } else {
            a.end == b.start
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_cluster::{ClusterSpec, ModelConfig};

    fn tiny_placement() -> ModelPlacement {
        let mut p = ModelPlacement::empty(4);
        p.assign(NodeId(0), LayerRange::new(0, 3));
        p.assign(NodeId(1), LayerRange::new(3, 6));
        p.assign(NodeId(2), LayerRange::new(0, 6));
        p
    }

    #[test]
    fn layer_range_basics() {
        let r = LayerRange::new(2, 5);
        assert_eq!(r.len(), 3);
        assert!(r.contains(2) && r.contains(4) && !r.contains(5));
        assert_eq!(r.to_string(), "[2, 5)");
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty or inverted")]
    fn empty_layer_range_panics() {
        let _ = LayerRange::new(3, 3);
    }

    #[test]
    fn placement_queries() {
        let p = tiny_placement();
        assert_eq!(p.num_nodes(), 4);
        assert_eq!(p.num_assigned(), 3);
        assert_eq!(p.entry_nodes(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(p.holders_of(4), vec![NodeId(1), NodeId(2)]);
        assert_eq!(p.range(NodeId(3)), None);
    }

    #[test]
    fn pipeline_depth_finds_shortest_chain() {
        let p = tiny_placement();
        // Node 2 covers the whole model in one stage.
        assert_eq!(p.pipeline_depth(6), 1);
        let mut two_stage = ModelPlacement::empty(2);
        two_stage.assign(NodeId(0), LayerRange::new(0, 3));
        two_stage.assign(NodeId(1), LayerRange::new(3, 6));
        assert_eq!(two_stage.pipeline_depth(6), 2);
        let mut broken = ModelPlacement::empty(2);
        broken.assign(NodeId(0), LayerRange::new(0, 2));
        broken.assign(NodeId(1), LayerRange::new(3, 6));
        assert_eq!(broken.pipeline_depth(6), usize::MAX);
        assert!(!broken.has_complete_pipeline(6));
    }

    #[test]
    fn connection_validity_partial_and_strict() {
        let mut p = ModelPlacement::empty(3);
        p.assign(NodeId(0), LayerRange::new(0, 4));
        p.assign(NodeId(1), LayerRange::new(4, 8));
        p.assign(NodeId(2), LayerRange::new(2, 8));
        // Exact continuation is valid under both modes.
        assert!(p.connection_valid(NodeId(0), NodeId(1), false));
        assert!(p.connection_valid(NodeId(0), NodeId(1), true));
        // Overlapping continuation (0 ends at 4, 2 holds [2,8)) needs partial inference.
        assert!(!p.connection_valid(NodeId(0), NodeId(2), false));
        assert!(p.connection_valid(NodeId(0), NodeId(2), true));
        // Going backwards is never valid.
        assert!(!p.connection_valid(NodeId(1), NodeId(0), true));
        // Unassigned endpoints are never valid.
        let mut q = ModelPlacement::empty(2);
        q.assign(NodeId(0), LayerRange::new(0, 4));
        assert!(!q.connection_valid(NodeId(0), NodeId(1), true));
    }

    #[test]
    fn validate_against_profile() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let num_layers = profile.model().num_layers;
        let n = profile.cluster().num_nodes();
        // A valid chain placement across all nodes.
        let mut p = ModelPlacement::empty(n);
        let mut start = 0;
        for id in profile.cluster().node_ids() {
            let take = profile.node_profile(id).max_layers.min(num_layers - start);
            if take == 0 {
                break;
            }
            p.assign(id, LayerRange::new(start, start + take));
            start += take;
        }
        assert!(start >= num_layers, "cluster should hold the model");
        assert!(p.validate(&profile).is_ok());

        // Out-of-range layers are rejected.
        let mut bad = p.clone();
        bad.assign(NodeId(0), LayerRange::new(0, num_layers + 1));
        assert!(matches!(
            bad.validate(&profile),
            Err(HelixError::InvalidLayerRange { .. })
        ));

        // Exceeding VRAM is rejected.
        let mut fat = p.clone();
        let max0 = profile.node_profile(NodeId(0)).max_layers_absolute;
        fat.assign(NodeId(0), LayerRange::new(0, max0 + 1));
        assert!(matches!(
            fat.validate(&profile),
            Err(HelixError::ExceedsNodeCapacity { .. })
        ));

        // Removing coverage of some layers breaks the pipeline.
        let mut gap = p.clone();
        gap.clear(NodeId(0));
        assert!(matches!(
            gap.validate(&profile),
            Err(HelixError::NoCompletePipeline)
        ));
    }
}
