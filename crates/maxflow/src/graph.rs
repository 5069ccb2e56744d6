//! Directed flow-network representation.
//!
//! The network stores edges in a flat arena with "residual twin" edges, the
//! classic adjacency-list layout used by push-relabel and Dinic.  Capacities
//! are `f64` because Helix edge capacities are tokens/second derived from
//! profiled throughputs and bandwidths (paper §4.3) and are not integral.

use crate::dinic::{self, DirtyRows};
use crate::error::FlowError;
use crate::{edmonds_karp, push_relabel, MaxFlowAlgorithm, FLOW_EPS};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a node in a [`FlowNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Returns the underlying index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a directed edge in a [`FlowNetwork`].
///
/// Edge ids refer to *forward* edges only (the ones added by
/// [`FlowNetwork::add_edge`]); residual twins are an implementation detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub(crate) usize);

impl EdgeId {
    /// Returns the underlying index of this edge.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A view of one forward edge together with its current flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// Identifier of the edge.
    pub id: EdgeId,
    /// Tail (origin) node.
    pub from: NodeId,
    /// Head (destination) node.
    pub to: NodeId,
    /// Capacity of the edge.
    pub capacity: f64,
    /// Flow currently assigned to the edge (0 before any max-flow run).
    pub flow: f64,
}

/// Internal arena edge: forward edges sit at even indices, their residual
/// twins at the following odd index.
#[derive(Debug, Clone)]
pub(crate) struct ArenaEdge {
    pub(crate) to: usize,
    pub(crate) cap: f64,
    /// Remaining residual capacity (cap - flow for forward edges, flow for twins).
    pub(crate) residual: f64,
}

/// Delta undo-log: a first-touch journal of the arena edges mutated since
/// [`FlowNetwork::begin_undo_log`].
///
/// Where a full copy would save all `E` arena edges up front, the journal
/// records `(index, capacity, residual)` only for edges actually written by
/// capacity updates, flow repair or a warm re-solve — rejected annealing
/// moves that touch a handful of edges roll back in O(touched), and a re-solve
/// that touches nothing rolls back for free.  De-duplication uses an
/// epoch-stamp array so each edge is recorded at most once per transaction
/// without clearing any per-edge state between transactions.
#[derive(Debug, Clone, Default)]
struct UndoJournal {
    /// Whether a transaction is open; when false every hook is a no-op.
    active: bool,
    /// `(arena index, capacity, residual)` at first touch, in touch order.
    entries: Vec<(usize, f64, f64)>,
    /// Epoch stamp per arena edge; `stamp[i] == epoch` means already recorded.
    stamp: Vec<u32>,
    /// Current transaction epoch (bumped by `begin`).
    epoch: u32,
}

impl UndoJournal {
    /// Records the pre-mutation state of one arena edge, once per transaction.
    #[inline]
    fn record(&mut self, idx: usize, edge: &ArenaEdge) {
        if self.stamp[idx] != self.epoch {
            self.stamp[idx] = self.epoch;
            self.entries.push((idx, edge.cap, edge.residual));
        }
    }

    /// Records both arena edges of the pair `eid` / `eid ^ 1` when a
    /// transaction is open.
    #[inline]
    fn record_pair(&mut self, eid: usize, edges: &[ArenaEdge]) {
        if self.active {
            self.record(eid, &edges[eid]);
            self.record(eid ^ 1, &edges[eid ^ 1]);
        }
    }
}

/// The arena's one write hook.  Every write to an edge pair — a capacity
/// update, a rollback, the flow repair, a solver's push — goes through
/// [`Writes::touch_pair`] first, which feeds both the undo-log and the list
/// of pairs whose liveness the next sync of Dinic's live rows compares with
/// what the rows hold.  The solvers that run with no rows built push through
/// [`Writes::journal_pair`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Writes {
    journal: UndoJournal,
    pub(crate) dirty: DirtyRows,
}

impl Writes {
    /// Announces a write to the pair `eid` / `eid ^ 1`: records both arena
    /// edges in the open undo-log transaction (once each) and registers the
    /// pair for the next sync of the live rows (once).
    #[inline]
    pub(crate) fn touch_pair(&mut self, eid: usize, edges: &[ArenaEdge]) {
        self.journal.record_pair(eid, edges);
        self.dirty.register_pair(eid);
    }

    /// [`Writes::touch_pair`] for a solve that runs with no live rows built —
    /// push-relabel and Edmonds–Karp, whose warm solves drop the rows first
    /// and whose stateless solves have none — so only the undo-log is fed.
    /// Their inner loops push on every iteration; skipping the row check
    /// keeps them as fast as before the rows existed.
    #[inline]
    pub(crate) fn journal_pair(&mut self, eid: usize, edges: &[ArenaEdge]) {
        debug_assert!(!self.dirty.is_built(), "a row-less solve found rows");
        self.journal.record_pair(eid, edges);
    }
}

/// The flow repair's buffers, kept across warm solves so a re-solve
/// allocates nothing.  Between repairs `imbalance` is all zero, `unbalanced`
/// and `path` are empty and `position` is all `None`.
#[derive(Debug, Clone, Default)]
struct Repair {
    /// Forward arena indices whose residual [`FlowNetwork::set_capacity`] (or
    /// a rollback) took below zero since the last repair; may repeat.
    lowered: Vec<usize>,
    /// Flow-conservation violation per node.
    imbalance: Vec<f64>,
    /// The nodes whose `imbalance` this repair wrote, each once.
    unbalanced: Vec<usize>,
    /// Whether a node is in `unbalanced`.
    listed: Vec<bool>,
    /// `cancel_walk`'s flow-carrying arena edges of the current path.
    path: Vec<usize>,
    /// `cancel_walk`'s index in `path` per node on it.
    position: Vec<Option<usize>>,
}

impl Repair {
    /// Sizes the per-node buffers for `n` nodes and reserves the lists at
    /// their bounds, so that no later repair grows them.
    fn fit(&mut self, n: usize, forward_edges: usize) {
        self.imbalance.resize(n, 0.0);
        self.listed.resize(n, false);
        self.position.resize(n, None);
        reserve_total(&mut self.unbalanced, n);
        reserve_total(&mut self.path, n);
        reserve_total(&mut self.lowered, forward_edges);
    }

    /// Whether `node` still carries a deficit (`forward`) or an excess
    /// (`!forward`) beyond `eps`.
    fn off_balance(&self, node: usize, eps: f64, forward: bool) -> bool {
        if forward {
            self.imbalance[node] < -eps
        } else {
            self.imbalance[node] > eps
        }
    }

    /// Adds `overflow` leaving `from` for `to` to the imbalances.
    fn overflow(&mut self, from: usize, to: usize, overflow: f64) {
        self.imbalance[from] += overflow;
        self.imbalance[to] -= overflow;
        for node in [from, to] {
            if !self.listed[node] {
                self.listed[node] = true;
                self.unbalanced.push(node);
            }
        }
    }
}

/// Grows `v`'s capacity to at least `total` elements.
fn reserve_total<T>(v: &mut Vec<T>, total: usize) {
    if v.capacity() < total {
        v.reserve(total - v.len());
    }
}

/// Result of a maximum-flow computation.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowResult {
    /// Total flow value from source to sink.
    pub value: f64,
    /// Flow assigned to each forward edge, indexed by [`EdgeId::index`].
    pub edge_flows: Vec<f64>,
}

impl FlowResult {
    /// Flow over a particular forward edge.
    ///
    /// # Panics
    ///
    /// Panics if `edge` does not belong to the network that produced this
    /// result.
    pub fn flow(&self, edge: EdgeId) -> f64 {
        self.edge_flows[edge.0]
    }
}

/// A directed graph with non-negative edge capacities.
///
/// # Example
///
/// ```rust
/// use helix_maxflow::{FlowNetwork, MaxFlowAlgorithm};
///
/// let mut net = FlowNetwork::new();
/// let s = net.add_node("s");
/// let a = net.add_node("a");
/// let b = net.add_node("b");
/// let t = net.add_node("t");
/// net.add_edge(s, a, 3.0).unwrap();
/// net.add_edge(s, b, 2.0).unwrap();
/// net.add_edge(a, t, 2.0).unwrap();
/// net.add_edge(b, t, 3.0).unwrap();
/// net.add_edge(a, b, 5.0).unwrap();
/// let flow = net.max_flow_with(s, t, MaxFlowAlgorithm::Dinic);
/// assert!((flow.value - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    names: Vec<String>,
    name_index: HashMap<String, usize>,
    /// adjacency[v] = indices into `edges`
    pub(crate) adjacency: Vec<Vec<usize>>,
    pub(crate) edges: Vec<ArenaEdge>,
    /// Maps forward-edge id -> arena index (always 2 * id, kept explicit for clarity).
    forward: Vec<usize>,
    /// The largest capacity in the arena (0 when there is none), kept current
    /// by every capacity write; see `track_max`.
    max_cap: f64,
    /// Number of forward edges whose capacity equals `max_cap`; 0 with a
    /// positive `max_cap` means the maximum left and must be found again.
    at_max: usize,
    /// Undo-log and the pairs Dinic's rows must be synced for, fed by every
    /// arena write.
    writes: Writes,
    /// Warm Dinic's live rows and buffers, kept between warm solves.
    dinic: dinic::Workspace,
    /// Warm solves' flow-repair buffers.
    repair: Repair,
}

impl FlowNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty network with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        FlowNetwork {
            names: Vec::with_capacity(nodes),
            name_index: HashMap::with_capacity(nodes),
            adjacency: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges * 2),
            forward: Vec::with_capacity(edges),
            ..Self::default()
        }
    }

    /// Adds a node with a human-readable name and returns its id.
    ///
    /// Names do not need to be unique, but [`FlowNetwork::node_by_name`] only
    /// returns the first node registered under a given name.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        let id = self.names.len();
        self.name_index.entry(name.clone()).or_insert(id);
        self.names.push(name);
        self.adjacency.push(Vec::new());
        self.writes.dirty.invalidate();
        NodeId(id)
    }

    /// Looks up a node by the name given to [`FlowNetwork::add_node`].
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied().map(NodeId)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of forward edges.
    pub fn edge_count(&self) -> usize {
        self.forward.len()
    }

    /// Adds a directed edge `from -> to` with the given capacity.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidNode`] if either endpoint is out of range
    /// and [`FlowError::InvalidCapacity`] if the capacity is negative or NaN.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        capacity: f64,
    ) -> Result<EdgeId, FlowError> {
        let len = self.names.len();
        for n in [from, to] {
            if n.0 >= len {
                return Err(FlowError::InvalidNode { index: n.0, len });
            }
        }
        if !capacity.is_finite() || capacity < 0.0 {
            return Err(FlowError::InvalidCapacity { capacity });
        }
        let id = self.forward.len();
        let fwd_idx = self.edges.len();
        self.edges.push(ArenaEdge {
            to: to.0,
            cap: capacity,
            residual: capacity,
        });
        self.edges.push(ArenaEdge {
            to: from.0,
            cap: 0.0,
            residual: 0.0,
        });
        self.adjacency[from.0].push(fwd_idx);
        self.adjacency[to.0].push(fwd_idx + 1);
        self.forward.push(fwd_idx);
        if capacity > self.max_cap {
            self.max_cap = capacity;
            self.at_max = 1;
        } else if capacity == self.max_cap {
            self.at_max += 1;
        }
        self.writes.dirty.invalidate();
        Ok(EdgeId(id))
    }

    /// The view of forward edge `id`, which must be below `edge_count`.
    fn edge_ref(&self, id: usize) -> EdgeRef {
        let idx = self.forward[id];
        let e = &self.edges[idx];
        let twin = &self.edges[idx + 1];
        EdgeRef {
            id: EdgeId(id),
            from: NodeId(twin.to),
            to: NodeId(e.to),
            capacity: e.cap,
            flow: e.cap - e.residual,
        }
    }

    /// Returns a view of a forward edge.  Its `flow` is the edge's share of
    /// the standing flow left by [`FlowNetwork::resolve_from_residual`] (0
    /// on a network no warm solve has run on; stateless solves materialise
    /// their flows only in [`FlowResult`]).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidEdge`] if the id is out of range.
    pub fn edge(&self, id: EdgeId) -> Result<EdgeRef, FlowError> {
        if id.0 < self.forward.len() {
            Ok(self.edge_ref(id.0))
        } else {
            Err(FlowError::InvalidEdge {
                index: id.0,
                len: self.forward.len(),
            })
        }
    }

    /// Iterates over all forward edges.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        (0..self.forward.len()).map(|i| self.edge_ref(i))
    }

    /// Returns the ids of forward edges entering `node`.
    pub fn in_edges(&self, node: NodeId) -> Vec<EdgeId> {
        self.adjacency
            .get(node.0)
            .map(|adj| {
                adj.iter()
                    .filter(|&&idx| idx % 2 == 1)
                    .map(|&idx| EdgeId((idx - 1) / 2))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Total capacity of edges leaving `node`.
    pub fn out_capacity(&self, node: NodeId) -> f64 {
        self.adjacency.get(node.0).map_or(0.0, |adj| {
            adj.iter()
                .filter(|&&idx| idx % 2 == 0)
                .map(|&idx| self.edges[idx].cap)
                .sum()
        })
    }

    /// Computes the maximum flow from `source` to `sink` using the default
    /// algorithm (preflow-push, as used in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `source == sink` or either node is invalid.
    pub fn max_flow(&self, source: NodeId, sink: NodeId) -> FlowResult {
        self.max_flow_with(source, sink, MaxFlowAlgorithm::default())
    }

    /// Computes the maximum flow using the requested algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `source == sink` or either node is invalid.
    #[allow(
        clippy::expect_used,
        reason = "the documented panicking wrapper of try_max_flow"
    )]
    pub fn max_flow_with(
        &self,
        source: NodeId,
        sink: NodeId,
        algorithm: MaxFlowAlgorithm,
    ) -> FlowResult {
        self.try_max_flow(source, sink, algorithm)
            .expect("invalid source/sink passed to max_flow")
    }

    /// [`FlowNetwork::max_flow_with`], with the endpoints checked:
    /// [`FlowError::SourceIsSink`] if the two coincide,
    /// [`FlowError::InvalidNode`] if either is out of range.
    fn try_max_flow(
        &self,
        source: NodeId,
        sink: NodeId,
        algorithm: MaxFlowAlgorithm,
    ) -> Result<FlowResult, FlowError> {
        self.check_endpoints(source, sink)?;
        let len = self.names.len();
        let mut scratch = self.clone_arena();
        // Stateless solves work on a scratch arena: no undo-log to maintain,
        // and Dinic builds every live row afresh.
        let mut writes = Writes::default();
        let value = match algorithm {
            MaxFlowAlgorithm::PushRelabel => push_relabel::run(
                &mut scratch,
                &self.adjacency,
                len,
                source.0,
                sink.0,
                &mut writes,
            ),
            MaxFlowAlgorithm::Dinic => dinic::run(
                &mut scratch,
                &self.adjacency,
                source.0,
                sink.0,
                &mut writes,
                &mut dinic::Workspace::default(),
            ),
            MaxFlowAlgorithm::EdmondsKarp => edmonds_karp::run(
                &mut scratch,
                &self.adjacency,
                len,
                source.0,
                sink.0,
                &mut writes,
            ),
        };
        let edge_flows = self
            .forward
            .iter()
            .map(|&idx| {
                let flow = scratch[idx].cap - scratch[idx].residual;
                if flow.abs() < FLOW_EPS {
                    0.0
                } else {
                    flow
                }
            })
            .collect();
        Ok(FlowResult { value, edge_flows })
    }

    /// Rejects endpoints outside the network and a source that is the sink.
    fn check_endpoints(&self, source: NodeId, sink: NodeId) -> Result<(), FlowError> {
        let len = self.names.len();
        for n in [source, sink] {
            if n.0 >= len {
                return Err(FlowError::InvalidNode { index: n.0, len });
            }
        }
        if source == sink {
            return Err(FlowError::SourceIsSink);
        }
        Ok(())
    }

    /// Clones the arena in the zero-flow state, so stateless solves are
    /// independent of any standing flow left by
    /// [`FlowNetwork::resolve_from_residual`].
    pub(crate) fn clone_arena(&self) -> Vec<ArenaEdge> {
        let mut edges = self.edges.clone();
        for i in (0..edges.len()).step_by(2) {
            edges[i].residual = edges[i].cap;
            edges[i + 1].residual = 0.0;
        }
        edges
    }

    /// Updates the capacity of a forward edge **in place**, preserving the
    /// flow currently stored on the edge (see
    /// [`FlowNetwork::resolve_from_residual`]).
    ///
    /// If the new capacity drops below the stored flow the edge becomes
    /// temporarily infeasible; the next call to `resolve_from_residual`
    /// repairs it by cancelling the overflow before re-solving.  This is the
    /// capacity-update half of the warm-start API used by the incremental
    /// placement planner.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidEdge`] if the id is out of range and
    /// [`FlowError::InvalidCapacity`] if the capacity is negative or NaN.
    pub fn set_capacity(&mut self, edge: EdgeId, capacity: f64) -> Result<(), FlowError> {
        if !capacity.is_finite() || capacity < 0.0 {
            return Err(FlowError::InvalidCapacity { capacity });
        }
        let idx = *self.forward.get(edge.0).ok_or(FlowError::InvalidEdge {
            index: edge.0,
            len: self.forward.len(),
        })?;
        let old = self.edges[idx].cap;
        let delta = capacity - old;
        if delta == 0.0 {
            // Zero-delta short-circuit: nothing changes, nothing to journal.
            return Ok(());
        }
        self.writes.touch_pair(idx, &self.edges);
        let was_feasible = self.edges[idx].residual >= 0.0;
        self.edges[idx].cap = capacity;
        self.edges[idx].residual += delta;
        if was_feasible && self.edges[idx].residual < 0.0 {
            self.repair.lowered.push(idx);
        }
        self.track_max(old, capacity);
        Ok(())
    }

    /// Keeps `max_cap` / `at_max` current across one forward edge's capacity
    /// change from `old` to `new`.
    fn track_max(&mut self, old: f64, new: f64) {
        if new > self.max_cap {
            self.max_cap = new;
            self.at_max = 1;
        } else if old == self.max_cap && new != old {
            self.at_max -= 1;
        } else if new == self.max_cap && old != new {
            self.at_max += 1;
        }
    }

    /// The largest capacity in the arena (0 when there is none).  Found
    /// again by one scan only after the last edge at the maximum was
    /// lowered.
    fn max_capacity(&mut self) -> f64 {
        if self.at_max == 0 && self.max_cap > 0.0 {
            self.max_cap = self.edges.iter().map(|e| e.cap).fold(0.0_f64, f64::max);
            self.at_max = self
                .forward
                .iter()
                .filter(|&&idx| self.edges[idx].cap == self.max_cap)
                .count();
        }
        self.max_cap
    }

    /// Opens an undo-log transaction: every arena edge mutated by subsequent
    /// [`FlowNetwork::set_capacity`] or
    /// [`FlowNetwork::resolve_from_residual`] calls has its pre-mutation
    /// state recorded (once), until the transaction is closed by
    /// [`FlowNetwork::rollback_undo_log`] or
    /// [`FlowNetwork::discard_undo_log`].
    ///
    /// This is the O(touched) alternative to copying all `E` arena edges:
    /// rejected annealing moves perturb a handful of edges out of thousands,
    /// so rolling back only what was written dominates at fleet scale.
    /// Calling `begin_undo_log` while a transaction is open discards the old
    /// transaction and starts a fresh one.  The journal's buffers are reused
    /// across transactions and sized for every edge, so a steady-state
    /// begin/rollback cycle does not allocate.
    pub fn begin_undo_log(&mut self) {
        let journal = &mut self.writes.journal;
        journal.entries.clear();
        journal.entries.reserve(self.edges.len());
        journal.stamp.resize(self.edges.len(), 0);
        journal.epoch = journal.epoch.wrapping_add(1);
        if journal.epoch == 0 {
            // u32 epoch wrapped: clear all stamps once and restart at 1.
            journal.stamp.fill(0);
            journal.epoch = 1;
        }
        journal.active = true;
    }

    /// Number of arena edges recorded by the open undo-log transaction
    /// (0 when no transaction is open or nothing was touched).
    pub fn undo_log_len(&self) -> usize {
        self.writes.journal.entries.len()
    }

    /// Restores every edge recorded since [`FlowNetwork::begin_undo_log`] to
    /// its pre-transaction state and closes the transaction, returning the
    /// number of arena edges restored.
    ///
    /// Runs in O(touched); a transaction that touched nothing rolls back for
    /// free (no edge writes, no allocation).
    pub fn rollback_undo_log(&mut self) -> usize {
        // Closed first, so the restoring writes below reach the stale rows
        // but not the journal they are read from.
        self.writes.journal.active = false;
        let mut entries = std::mem::take(&mut self.writes.journal.entries);
        for &(idx, cap, residual) in &entries {
            self.writes.touch_pair(idx, &self.edges);
            let old = self.edges[idx].cap;
            let was_feasible = self.edges[idx].residual >= 0.0;
            self.edges[idx].cap = cap;
            self.edges[idx].residual = residual;
            if idx % 2 == 0 {
                if was_feasible && residual < 0.0 {
                    self.repair.lowered.push(idx);
                }
                self.track_max(old, cap);
            }
        }
        let n = entries.len();
        entries.clear();
        self.writes.journal.entries = entries;
        n
    }

    /// Closes the open undo-log transaction without restoring anything,
    /// committing the mutations made since [`FlowNetwork::begin_undo_log`].
    pub fn discard_undo_log(&mut self) {
        self.writes.journal.entries.clear();
        self.writes.journal.active = false;
    }

    /// Re-solves the maximum flow **from the residual state left by the
    /// previous solve**, instead of from scratch, and returns its value.
    ///
    /// Unlike [`FlowNetwork::max_flow_with`] — which clones the arena and
    /// leaves the network untouched — this method maintains a standing flow
    /// on the network itself ([`EdgeRef::flow`] of [`FlowNetwork::edges`]
    /// reads it).
    /// Calling it repeatedly after [`FlowNetwork::set_capacity`] updates
    /// gives warm-started re-solving:
    ///
    /// 1. edges whose capacity dropped below their stored flow are clamped,
    ///    and the resulting conservation violations are repaired by
    ///    cancelling flow along the paths and cycles that carried it;
    /// 2. the chosen algorithm then augments from the repaired feasible flow,
    ///    touching only the residual network.
    ///
    /// The cost follows what changed since the previous solve: the repair
    /// visits only the edges `set_capacity` lowered and walks Dinic's live
    /// rows, and those rows are edited only where a pair written since the
    /// last solve flipped between live and dead (the network keeps rows and
    /// buffers between solves, so a re-solve allocates nothing).
    /// For small capacity changes (the single-node placement moves of the
    /// annealing planner) step 2 starts from an almost-maximum flow and does
    /// a fraction of the work of a cold solve.  The result is identical to a
    /// from-scratch solve up to floating-point tolerance, for every
    /// algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::SourceIsSink`] if the endpoints coincide and
    /// [`FlowError::InvalidNode`] if either is out of range.
    pub fn resolve_from_residual(
        &mut self,
        source: NodeId,
        sink: NodeId,
        algorithm: MaxFlowAlgorithm,
    ) -> Result<f64, FlowError> {
        self.check_endpoints(source, sink)?;
        let n = self.names.len();
        let eps = (self.max_capacity() * 1e-12).max(FLOW_EPS);

        self.repair.fit(n, self.forward.len());
        self.repair_infeasible_flow(source.0, sink.0, eps);

        match algorithm {
            MaxFlowAlgorithm::PushRelabel => {
                // Pushes everywhere: the next warm Dinic builds all rows.
                self.writes.dirty.invalidate();
                push_relabel::run(
                    &mut self.edges,
                    &self.adjacency,
                    n,
                    source.0,
                    sink.0,
                    &mut self.writes,
                )
            }
            MaxFlowAlgorithm::Dinic => dinic::run(
                &mut self.edges,
                &self.adjacency,
                source.0,
                sink.0,
                &mut self.writes,
                &mut self.dinic,
            ),
            MaxFlowAlgorithm::EdmondsKarp => {
                self.writes.dirty.invalidate();
                edmonds_karp::run(
                    &mut self.edges,
                    &self.adjacency,
                    n,
                    source.0,
                    sink.0,
                    &mut self.writes,
                )
            }
        };

        // Read the value off the standing arena: the algorithms only report
        // the flow pushed *this* run, not the total.
        let mut value = 0.0;
        for &idx in &self.adjacency[source.0] {
            if idx % 2 == 0 {
                value += self.edges[idx].cap - self.edges[idx].residual;
            } else {
                // Forward edge into the source: its flow re-enters the source.
                value -= self.edges[idx].residual;
            }
        }
        if value.abs() < eps {
            value = 0.0;
        }
        Ok(value)
    }

    /// Clamps edges whose stored flow exceeds their (possibly just reduced)
    /// capacity and restores flow conservation by cancelling the overflow
    /// along the flow paths and cycles that carried it.
    ///
    /// Only `set_capacity` (and a rollback restoring its effect) drives a
    /// residual below zero, and both list the edge, so the repair visits the
    /// listed edges — in ascending index order, as a scan of every edge
    /// would — and then only the nodes their overflow unbalanced, again in
    /// ascending order.
    ///
    /// With Dinic's rows built they are synced first, because the walks read
    /// them: a rollback can put flow back on a pair whose death took it out
    /// of the rows, and only the pair's registration knows.
    fn repair_infeasible_flow(&mut self, source: usize, sink: usize, eps: f64) {
        if self.repair.lowered.is_empty() {
            return;
        }
        if self.writes.dirty.is_built() {
            dinic::sync(&mut self.dinic.rows, &mut self.writes.dirty, &self.edges);
        }
        let mut repair = std::mem::take(&mut self.repair);
        repair.lowered.sort_unstable();
        repair.lowered.dedup();
        for k in 0..repair.lowered.len() {
            let i = repair.lowered[k];
            if self.edges[i].residual < 0.0 {
                let overflow = -self.edges[i].residual;
                self.writes.touch_pair(i, &self.edges);
                self.edges[i].residual = 0.0;
                self.edges[i + 1].residual = self.edges[i].cap;
                if overflow > eps {
                    repair.overflow(self.edges[i + 1].to, self.edges[i].to, overflow);
                }
            }
        }
        repair.lowered.clear();
        repair.unbalanced.sort_unstable();
        // Deficits first (they may terminate at excess nodes and settle both
        // sides at once), then remaining excesses drain back towards the
        // source.
        for forward in [true, false] {
            for k in 0..repair.unbalanced.len() {
                let node = repair.unbalanced[k];
                if node == source || node == sink {
                    continue;
                }
                while repair.off_balance(node, eps, forward) {
                    self.cancel_walk(&mut repair, node, source, sink, eps, forward);
                }
            }
        }
        for &node in &repair.unbalanced {
            repair.imbalance[node] = 0.0;
            repair.listed[node] = false;
        }
        repair.unbalanced.clear();
        self.repair = repair;
    }

    /// Cancels one unit-path of flow starting at an imbalanced node.
    ///
    /// `forward = true` repairs a deficit (outflow exceeds inflow) by walking
    /// *with* the flow until the sink, the source or an excess node is
    /// reached; `forward = false` repairs an excess by walking *against* the
    /// flow.  Cycles encountered along the way are cancelled outright.
    ///
    /// Each step scans the live row of the node it stands on when Dinic's
    /// rows are built, and its adjacency otherwise.  The row scan finds the
    /// adjacency scan's edge: a flow-carrying pair is live, the rows were
    /// synced before the repair began, and cancelling never puts flow on a
    /// pair that had none.
    fn cancel_walk(
        &mut self,
        repair: &mut Repair,
        start: usize,
        source: usize,
        sink: usize,
        eps: f64,
        forward: bool,
    ) {
        // Arena indices of the flow-carrying edges on the current path; for
        // forward walks these are forward-edge indices, for backward walks
        // twin indices.
        let Repair {
            imbalance,
            path,
            position,
            ..
        } = repair;
        let mut current = start;
        position[current] = Some(0);
        loop {
            let Some(arena_idx) = self.flow_edge_from(current, eps, forward) else {
                // Numerical dust: no flow edge left to cancel against.
                imbalance[start] = 0.0;
                break;
            };
            let next = self.edges[arena_idx].to;
            if let Some(cycle_start) = position[next] {
                // Cancel the cycle portion and retry from `next`.
                path.push(arena_idx);
                self.cancel_along(&path[cycle_start..], forward);
                path.pop();
                // Clear path positions past the cycle start and rewind.
                for &idx in &path[cycle_start..] {
                    position[self.edges[idx].to] = None;
                }
                path.truncate(cycle_start);
                current = next;
                position[current] = Some(path.len());
                continue;
            }
            path.push(arena_idx);
            let terminal_excess = if forward {
                imbalance[next] > eps
            } else {
                imbalance[next] < -eps
            };
            if next == sink || next == source || terminal_excess {
                let magnitude = imbalance[start].abs();
                let mut amount = magnitude.min(self.flow_along(path, forward));
                if terminal_excess {
                    amount = amount.min(imbalance[next].abs());
                }
                self.cancel_amount(path, forward, amount);
                if forward {
                    imbalance[start] += amount;
                    if terminal_excess {
                        imbalance[next] -= amount;
                    }
                } else {
                    imbalance[start] -= amount;
                    if terminal_excess {
                        imbalance[next] += amount;
                    }
                }
                break;
            }
            current = next;
            position[current] = Some(path.len());
        }
        // Leave the walk's buffers at rest for the next one.
        position[start] = None;
        for &idx in path.iter() {
            position[self.edges[idx].to] = None;
        }
        path.clear();
    }

    /// The first flow-carrying arena entry leaving `current` in the walk
    /// direction: forward walks follow forward edges with positive flow
    /// (twin residual > eps); backward walks follow twin entries with
    /// positive residual (= flow on the forward edge into `current`).
    fn flow_edge_from(&self, current: usize, eps: f64, forward: bool) -> Option<usize> {
        let carries = |&idx: &usize| {
            let flow = if forward {
                idx % 2 == 0 && self.edges[idx ^ 1].residual > eps
            } else {
                idx % 2 == 1 && self.edges[idx].residual > eps
            };
            flow && self.edges[idx].to != current
        };
        let scan = if self.writes.dirty.is_built() {
            self.dinic.rows.row(current)
        } else {
            &self.adjacency[current]
        };
        let found = scan.iter().copied().find(carries);
        debug_assert_eq!(
            found,
            self.adjacency[current].iter().copied().find(carries),
            "the repair's row walk left the adjacency walk"
        );
        found
    }

    /// The smallest flow carried by the arena edges of `walk` in the walk
    /// direction.
    fn flow_along(&self, walk: &[usize], forward: bool) -> f64 {
        walk.iter()
            .map(|&idx| {
                if forward {
                    self.edges[idx ^ 1].residual
                } else {
                    self.edges[idx].residual
                }
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Cancels the whole flow a cycle carries.
    fn cancel_along(&mut self, cycle: &[usize], forward: bool) {
        let amount = self.flow_along(cycle, forward);
        self.cancel_amount(cycle, forward, amount);
    }

    /// Cancels `amount` of flow along the arena edges of `walk`.
    fn cancel_amount(&mut self, walk: &[usize], forward: bool, amount: f64) {
        for &idx in walk {
            self.writes.touch_pair(idx, &self.edges);
            if forward {
                self.edges[idx].residual += amount;
                self.edges[idx ^ 1].residual -= amount;
            } else {
                self.edges[idx ^ 1].residual += amount;
                self.edges[idx].residual -= amount;
            }
        }
    }

    /// Checks that `flows` (indexed like [`FlowResult::edge_flows`]) is a
    /// feasible source→sink flow: within capacity and conserving flow at every
    /// node other than `source` and `sink`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NotAFlow`] naming the first node at which flow
    /// conservation is violated, or [`FlowError::InvalidCapacity`] if an edge
    /// flow exceeds its capacity.
    pub fn validate_flow(
        &self,
        flows: &[f64],
        source: NodeId,
        sink: NodeId,
    ) -> Result<(), FlowError> {
        let mut balance = vec![0.0f64; self.node_count()];
        for (i, &f) in flows.iter().enumerate().take(self.forward.len()) {
            let e = self.edge_ref(i);
            if f < -FLOW_EPS || f > e.capacity + 1e-6 {
                return Err(FlowError::InvalidCapacity { capacity: f });
            }
            balance[e.from.0] -= f;
            balance[e.to.0] += f;
        }
        for (node, &b) in balance.iter().enumerate() {
            if node == source.0 || node == sink.0 {
                continue;
            }
            if b.abs() > 1e-6 {
                return Err(FlowError::NotAFlow { node, imbalance: b });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The standing per-edge flows a warm solve left on `net`.
    fn standing(net: &FlowNetwork) -> Vec<f64> {
        net.edges().map(|e| e.flow).collect()
    }

    fn diamond() -> (FlowNetwork, NodeId, NodeId) {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let a = net.add_node("a");
        let b = net.add_node("b");
        let t = net.add_node("t");
        net.add_edge(s, a, 4.0).unwrap();
        net.add_edge(s, b, 2.0).unwrap();
        net.add_edge(a, t, 3.0).unwrap();
        net.add_edge(b, t, 3.0).unwrap();
        net.add_edge(a, b, 10.0).unwrap();
        (net, s, t)
    }

    #[test]
    fn add_node_and_lookup() {
        let mut net = FlowNetwork::new();
        let a = net.add_node("alpha");
        let b = net.add_node("beta");
        assert_eq!(net.node_count(), 2);
        assert_eq!(net.node_by_name("alpha"), Some(a));
        assert_eq!(net.node_by_name("beta"), Some(b));
        assert_eq!(net.node_by_name("gamma"), None);
    }

    #[test]
    fn duplicate_names_resolve_to_first() {
        let mut net = FlowNetwork::new();
        let a = net.add_node("x");
        let _b = net.add_node("x");
        assert_eq!(net.node_by_name("x"), Some(a));
        assert_eq!(net.node_count(), 2);
    }

    #[test]
    fn add_edge_rejects_bad_input() {
        let mut net = FlowNetwork::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        assert!(matches!(
            net.add_edge(a, NodeId(7), 1.0),
            Err(FlowError::InvalidNode { .. })
        ));
        assert!(matches!(
            net.add_edge(a, b, -1.0),
            Err(FlowError::InvalidCapacity { .. })
        ));
        assert!(matches!(
            net.add_edge(a, b, f64::NAN),
            Err(FlowError::InvalidCapacity { .. })
        ));
        assert!(net.add_edge(a, b, 0.0).is_ok());
    }

    #[test]
    fn edge_views_report_endpoints_and_capacity() {
        let (net, s, t) = diamond();
        let e0 = net.edge(EdgeId(0)).unwrap();
        assert_eq!(e0.from, s);
        assert_eq!(e0.capacity, 4.0);
        assert_eq!(net.edge_count(), 5);
        assert!(net.edge(EdgeId(42)).is_err());
        let in_t = net.in_edges(t);
        assert_eq!(in_t.len(), 2);
        assert_eq!(net.out_capacity(s), 6.0);
    }

    #[test]
    fn max_flow_diamond_all_algorithms_agree() {
        let (net, s, t) = diamond();
        for alg in [
            MaxFlowAlgorithm::PushRelabel,
            MaxFlowAlgorithm::Dinic,
            MaxFlowAlgorithm::EdmondsKarp,
        ] {
            let r = net.max_flow_with(s, t, alg);
            assert!((r.value - 6.0).abs() < 1e-9, "{alg:?} gave {}", r.value);
            net.validate_flow(&r.edge_flows, s, t).unwrap();
        }
    }

    #[test]
    fn max_flow_source_is_sink_errors() {
        let (net, s, _) = diamond();
        assert!(matches!(
            net.try_max_flow(s, s, MaxFlowAlgorithm::Dinic),
            Err(FlowError::SourceIsSink)
        ));
    }

    #[test]
    fn max_flow_disconnected_is_zero() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let t = net.add_node("t");
        let r = net.max_flow(s, t);
        assert_eq!(r.value, 0.0);
    }

    #[test]
    fn zero_capacity_edges_carry_no_flow() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let t = net.add_node("t");
        let e = net.add_edge(s, t, 0.0).unwrap();
        let r = net.max_flow(s, t);
        assert_eq!(r.value, 0.0);
        assert_eq!(r.flow(e), 0.0);
    }

    #[test]
    fn validate_flow_detects_conservation_violation() {
        let (net, s, t) = diamond();
        // Push 1 unit on s->a but nothing out of a.
        let flows = vec![1.0, 0.0, 0.0, 0.0, 0.0];
        assert!(matches!(
            net.validate_flow(&flows, s, t),
            Err(FlowError::NotAFlow { .. })
        ));
    }

    #[test]
    fn parallel_edges_are_supported() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let t = net.add_node("t");
        net.add_edge(s, t, 2.0).unwrap();
        net.add_edge(s, t, 3.0).unwrap();
        let r = net.max_flow(s, t);
        assert!((r.value - 5.0).abs() < 1e-9);
    }

    #[test]
    fn self_loops_do_not_contribute_flow() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let a = net.add_node("a");
        let t = net.add_node("t");
        net.add_edge(s, a, 5.0).unwrap();
        net.add_edge(a, a, 100.0).unwrap();
        net.add_edge(a, t, 3.0).unwrap();
        for alg in [
            MaxFlowAlgorithm::PushRelabel,
            MaxFlowAlgorithm::Dinic,
            MaxFlowAlgorithm::EdmondsKarp,
        ] {
            let r = net.max_flow_with(s, t, alg);
            assert!((r.value - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn antiparallel_edges_are_supported() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let a = net.add_node("a");
        let b = net.add_node("b");
        let t = net.add_node("t");
        net.add_edge(s, a, 10.0).unwrap();
        net.add_edge(a, b, 4.0).unwrap();
        net.add_edge(b, a, 7.0).unwrap();
        net.add_edge(b, t, 10.0).unwrap();
        let r = net.max_flow(s, t);
        assert!((r.value - 4.0).abs() < 1e-9);
    }

    #[test]
    fn node_display_and_edge_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(EdgeId(2).to_string(), "e2");
    }

    #[test]
    fn set_capacity_rejects_bad_input_and_updates_views() {
        let (mut net, _, _) = diamond();
        assert!(matches!(
            net.set_capacity(EdgeId(42), 1.0),
            Err(FlowError::InvalidEdge { .. })
        ));
        assert!(matches!(
            net.set_capacity(EdgeId(0), -1.0),
            Err(FlowError::InvalidCapacity { .. })
        ));
        assert!(matches!(
            net.set_capacity(EdgeId(0), f64::NAN),
            Err(FlowError::InvalidCapacity { .. })
        ));
        net.set_capacity(EdgeId(0), 7.5).unwrap();
        assert_eq!(net.edge(EdgeId(0)).unwrap().capacity, 7.5);
    }

    #[test]
    fn warm_resolve_matches_cold_solve_after_capacity_increase() {
        let (mut net, s, t) = diamond();
        let first = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::PushRelabel)
            .unwrap();
        assert!((first - 6.0).abs() < 1e-9);
        // Raise the s->b edge: more flow becomes routable.
        net.set_capacity(EdgeId(1), 5.0).unwrap();
        let warm = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::PushRelabel)
            .unwrap();
        let cold = net.max_flow(s, t);
        assert!(
            (warm - cold.value).abs() < 1e-9,
            "warm {} cold {}",
            warm,
            cold.value
        );
        net.validate_flow(&standing(&net), s, t).unwrap();
    }

    #[test]
    fn warm_resolve_repairs_capacity_decrease_below_flow() {
        let (mut net, s, t) = diamond();
        let _ = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        // Choke the s->a edge below the flow it carries.
        net.set_capacity(EdgeId(0), 1.0).unwrap();
        let warm = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        let cold = net.max_flow(s, t);
        assert!(
            (warm - cold.value).abs() < 1e-9,
            "warm {} cold {}",
            warm,
            cold.value
        );
        net.validate_flow(&standing(&net), s, t).unwrap();
        // Restore: warm solve must recover the original maximum.
        net.set_capacity(EdgeId(0), 4.0).unwrap();
        let restored = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        assert!((restored - 6.0).abs() < 1e-9);
        net.validate_flow(&standing(&net), s, t).unwrap();
    }

    #[test]
    fn warm_resolve_handles_zeroed_and_restored_edges() {
        let (mut net, s, t) = diamond();
        let _ = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::EdmondsKarp)
            .unwrap();
        for e in 0..net.edge_count() {
            net.set_capacity(EdgeId(e), 0.0).unwrap();
        }
        let zero = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::EdmondsKarp)
            .unwrap();
        assert_eq!(zero, 0.0);
        // Bring the network back in a different shape.
        net.set_capacity(EdgeId(0), 2.0).unwrap();
        net.set_capacity(EdgeId(2), 2.0).unwrap();
        let back = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::EdmondsKarp)
            .unwrap();
        assert!((back - 2.0).abs() < 1e-9);
        net.validate_flow(&standing(&net), s, t).unwrap();
    }

    fn arena_state(net: &FlowNetwork) -> Vec<(f64, f64)> {
        net.edges.iter().map(|e| (e.cap, e.residual)).collect()
    }

    #[test]
    fn undo_log_rolls_back_capacity_change_and_resolve_exactly() {
        for alg in [
            MaxFlowAlgorithm::PushRelabel,
            MaxFlowAlgorithm::Dinic,
            MaxFlowAlgorithm::EdmondsKarp,
        ] {
            let (mut net, s, t) = diamond();
            let first = net.resolve_from_residual(s, t, alg).unwrap();
            assert!((first - 6.0).abs() < 1e-9);
            let before = arena_state(&net);

            net.begin_undo_log();
            net.set_capacity(EdgeId(0), 1.0).unwrap();
            let perturbed = net.resolve_from_residual(s, t, alg).unwrap();
            assert!(perturbed < first);
            assert!(net.undo_log_len() > 0, "{alg:?} recorded nothing");
            assert_ne!(arena_state(&net), before);

            let restored = net.rollback_undo_log();
            assert!(restored > 0);
            assert!(!net.writes.journal.active);
            // Bit-identical to the pre-transaction state, not just equivalent.
            assert_eq!(arena_state(&net), before, "{alg:?} rollback diverged");
        }
    }

    #[test]
    fn undo_log_zero_delta_transaction_records_nothing() {
        let (mut net, s, t) = diamond();
        let _ = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        let before = arena_state(&net);

        net.begin_undo_log();
        // Re-assert the capacities the edges already have: the zero-delta
        // short-circuit must skip the writes entirely...
        for id in 0..net.edge_count() {
            let cap = net.edge(EdgeId(id)).unwrap().capacity;
            net.set_capacity(EdgeId(id), cap).unwrap();
        }
        // ...and a warm re-solve of an already-maximum flow finds no
        // augmenting path, so it touches no edges either.
        let re = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        assert!((re - 6.0).abs() < 1e-9);
        assert_eq!(net.undo_log_len(), 0);
        assert_eq!(net.rollback_undo_log(), 0);
        assert_eq!(arena_state(&net), before);
    }

    #[test]
    fn undo_log_discard_commits_the_mutations() {
        let (mut net, s, t) = diamond();
        let _ = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        net.begin_undo_log();
        net.set_capacity(EdgeId(1), 5.0).unwrap();
        let improved = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        net.discard_undo_log();
        assert!(!net.writes.journal.active);
        assert_eq!(net.edge(EdgeId(1)).unwrap().capacity, 5.0);
        let after = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        assert!((after - improved).abs() < 1e-9);
    }

    #[test]
    fn undo_log_begin_restarts_an_open_transaction() {
        let (mut net, s, t) = diamond();
        let _ = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        net.begin_undo_log();
        net.set_capacity(EdgeId(0), 1.0).unwrap();
        let _ = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        let mid = arena_state(&net);
        // A fresh begin commits the first transaction implicitly.
        net.begin_undo_log();
        net.set_capacity(EdgeId(2), 1.0).unwrap();
        let _ = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        net.rollback_undo_log();
        assert_eq!(arena_state(&net), mid);
    }

    #[test]
    fn undo_log_covers_infeasible_flow_repair() {
        let (mut net, s, t) = diamond();
        let _ = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        let before = arena_state(&net);
        net.begin_undo_log();
        // Choke an edge below its standing flow: the next resolve must run
        // the repair path (clamp + cancellation walks), all journaled.
        net.set_capacity(EdgeId(0), 0.5).unwrap();
        let _ = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        net.rollback_undo_log();
        assert_eq!(arena_state(&net), before);
        // The rolled-back network still resolves to the original maximum.
        let re = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        assert!((re - 6.0).abs() < 1e-9);
    }

    fn folded_max(net: &FlowNetwork) -> f64 {
        net.edges.iter().map(|e| e.cap).fold(0.0_f64, f64::max)
    }

    #[test]
    fn max_capacity_follows_capacity_writes_and_rollbacks() {
        let (mut net, s, t) = diamond();
        assert_eq!(net.max_capacity(), 10.0);
        // Lower the only edge at the maximum: the next read finds 4.0.
        net.set_capacity(EdgeId(4), 1.0).unwrap();
        assert_eq!(net.max_capacity(), folded_max(&net));
        net.begin_undo_log();
        net.set_capacity(EdgeId(0), 12.0).unwrap();
        net.set_capacity(EdgeId(1), 12.0).unwrap();
        net.resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        assert_eq!(net.max_capacity(), 12.0);
        net.set_capacity(EdgeId(0), 0.0).unwrap();
        assert_eq!(net.max_capacity(), 12.0);
        net.rollback_undo_log();
        assert_eq!(net.max_capacity(), folded_max(&net));
        assert_eq!(net.max_capacity(), 4.0);
        net.add_edge(s, t, 30.0).unwrap();
        assert_eq!(net.max_capacity(), 30.0);
    }

    #[test]
    fn a_rollback_that_restores_an_overflow_is_repaired_by_the_next_solve() {
        // Lowered below its flow outside any transaction, the edge overflows
        // when the transaction opens; the rollback restores that overflow,
        // and the next warm solve must still clamp and repair it.
        let (mut net, s, t) = diamond();
        net.resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        net.set_capacity(EdgeId(0), 1.0).unwrap();
        net.begin_undo_log();
        net.resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        net.rollback_undo_log();
        assert!(net.edges[0].residual < 0.0);
        let value = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        let cold = net.max_flow_with(s, t, MaxFlowAlgorithm::Dinic);
        assert!(
            (value - cold.value).abs() < 1e-9,
            "{value} vs {}",
            cold.value
        );
        net.validate_flow(&standing(&net), s, t).unwrap();
    }

    #[test]
    fn a_rollback_that_revives_a_dead_flow_pair_is_synced_before_the_repair() {
        // s -> a -> b -> t carries 4.  Zeroing a -> b kills its pair, and the
        // warm solve takes it out of the rows; the rollback puts the flow
        // back, which only the pair's registration records.  Lowering s -> a
        // then leaves a with a deficit whose one way out is a -> b: the
        // repair finds it only if it syncs the rows before walking them.
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let a = net.add_node("a");
        let b = net.add_node("b");
        let t = net.add_node("t");
        let sa = net.add_edge(s, a, 4.0).unwrap();
        let ab = net.add_edge(a, b, 4.0).unwrap();
        net.add_edge(b, t, 4.0).unwrap();
        net.resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        net.begin_undo_log();
        net.set_capacity(ab, 0.0).unwrap();
        let cut = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        assert_eq!(cut, 0.0);
        net.rollback_undo_log();
        assert_eq!(net.edge(ab).unwrap().flow, 4.0);
        net.set_capacity(sa, 1.0).unwrap();
        let warm = net
            .resolve_from_residual(s, t, MaxFlowAlgorithm::Dinic)
            .unwrap();
        let cold = net.max_flow_with(s, t, MaxFlowAlgorithm::Dinic);
        assert!((warm - cold.value).abs() < 1e-9, "{warm} vs {}", cold.value);
        assert!((warm - 1.0).abs() < 1e-9, "{warm}");
        net.validate_flow(&standing(&net), s, t).unwrap();
    }
}
