//! Dinic's blocking-flow maximum-flow algorithm.
//!
//! What the planners' warm re-solves run
//! ([`FlowNetwork::resolve_from_residual`]), and an independent cross-check
//! of the preflow-push cold solves.  A standing network keeps Dinic's
//! live-edge rows between warm solves and edits them only where a written
//! pair's liveness flipped: a warm solve's row cost follows the flips, not
//! the adjacency of the nodes a write touched.

use crate::graph::{ArenaEdge, FlowNetwork, FlowResult, NodeId, Writes};
use crate::FLOW_EPS;

/// Computes the maximum flow on `network` from `source` to `sink` with
/// Dinic's algorithm.
///
/// # Panics
///
/// Panics if `source == sink` or either node is not part of `network`.
pub fn dinic(network: &FlowNetwork, source: NodeId, sink: NodeId) -> FlowResult {
    network.max_flow_with(source, sink, crate::MaxFlowAlgorithm::Dinic)
}

/// Whether the pair `eid` / `eid ^ 1` can carry flow in either direction.
/// Pushes conserve a pair's residual total, so a pair dead at the start of a
/// solve stays dead through it.
#[inline]
fn live(edges: &[ArenaEdge], eid: usize) -> bool {
    edges[eid].residual > FLOW_EPS || edges[eid ^ 1].residual > FLOW_EPS
}

/// The live-edge rows: per node, the arena entries of its adjacency whose
/// pair is [`live`], in adjacency order (which is ascending arena order).
///
/// Warm re-solves over standing networks keep invalid connections as edges
/// of capacity zero, so those networks are dominated by permanently dead
/// pairs; every BFS round, DFS walk and flow-repair walk scans only the
/// rows.  Each node owns fixed slots sized to its adjacency, and `held`
/// records per pair whether its two entries are in the rows, so [`sync`]
/// edits a row only where a pair [`DirtyRows`] lists was found to have
/// flipped.
#[derive(Debug, Clone, Default)]
pub(crate) struct LiveRows {
    /// `start[u]..start[u + 1]` are node `u`'s slots, one per adjacency entry.
    start: Vec<usize>,
    /// Number of live entries at the head of each node's slots.
    len: Vec<usize>,
    slots: Vec<usize>,
    /// Per pair (`eid >> 1`), whether the rows hold its two entries.
    held: Vec<bool>,
}

impl LiveRows {
    /// Node `u`'s live row.
    #[inline]
    pub(crate) fn row(&self, u: usize) -> &[usize] {
        &self.slots[self.start[u]..self.start[u] + self.len[u]]
    }

    fn rebuild_all(&mut self, edges: &[ArenaEdge], adjacency: &[Vec<usize>]) {
        self.start.clear();
        self.start.push(0);
        let mut total = 0;
        for adj in adjacency {
            total += adj.len();
            self.start.push(total);
        }
        self.len.clear();
        self.len.resize(adjacency.len(), 0);
        self.slots.clear();
        self.slots.resize(total, 0);
        for (u, adj) in adjacency.iter().enumerate() {
            let base = self.start[u];
            for &eid in adj {
                if live(edges, eid) {
                    self.slots[base + self.len[u]] = eid;
                    self.len[u] += 1;
                }
            }
        }
        self.held.clear();
        self.held
            .extend((0..edges.len() / 2).map(|pair| live(edges, 2 * pair)));
    }

    /// Puts arena entry `eid` into its tail's row, keeping the row ascending.
    fn insert(&mut self, eid: usize, edges: &[ArenaEdge]) {
        let u = edges[eid ^ 1].to;
        let base = self.start[u];
        let len = self.len[u];
        debug_assert!(base + len < self.start[u + 1], "a row outgrew its slots");
        let row = &mut self.slots[base..=base + len];
        let pos = row[..len].partition_point(|&x| x < eid);
        row.copy_within(pos..len, pos + 1);
        row[pos] = eid;
        self.len[u] = len + 1;
    }

    /// Takes arena entry `eid` out of its tail's row.
    fn remove(&mut self, eid: usize, edges: &[ArenaEdge]) {
        let u = edges[eid ^ 1].to;
        let base = self.start[u];
        let len = self.len[u];
        let row = &mut self.slots[base..base + len];
        let pos = row.partition_point(|&x| x < eid);
        debug_assert_eq!(row.get(pos), Some(&eid), "a held entry is not in its row");
        row.copy_within(pos + 1..len, pos);
        self.len[u] = len - 1;
    }

    /// Whether every row and every `held` bit equal what a full rebuild would
    /// produce now.
    fn match_a_rebuild(&self, edges: &[ArenaEdge], adjacency: &[Vec<usize>]) -> bool {
        self.start.len() == adjacency.len() + 1
            && self.held.len() == edges.len() / 2
            && self
                .held
                .iter()
                .enumerate()
                .all(|(pair, &held)| held == live(edges, 2 * pair))
            && adjacency.iter().enumerate().all(|(u, adj)| {
                self.start[u + 1] - self.start[u] == adj.len()
                    && self
                        .row(u)
                        .iter()
                        .copied()
                        .eq(adj.iter().copied().filter(|&eid| live(edges, eid)))
            })
    }
}

/// The arena pairs written since the network's live rows were last synced.
/// [`Writes::touch_pair`] registers them; [`sync`] compares each one's
/// liveness with what the rows hold.
#[derive(Debug, Clone, Default)]
pub(crate) struct DirtyRows {
    /// Whether the network's rows exist; until a Dinic solve builds them,
    /// every registration is a no-op and that solve builds every row.
    built: bool,
    /// Per pair (`eid >> 1`), whether it is in `pairs`.
    registered: Vec<bool>,
    /// Forward arena indices of the registered pairs, in write order.
    pairs: Vec<usize>,
}

impl DirtyRows {
    /// Registers the arena pair `eid` / `eid ^ 1`, once until the next sync.
    /// With no rows built (stateless solves, warm push-relabel and
    /// Edmonds–Karp) it does nothing.
    #[inline]
    pub(crate) fn register_pair(&mut self, eid: usize) {
        if self.built && !self.registered[eid >> 1] {
            self.registered[eid >> 1] = true;
            self.pairs.push(eid & !1);
        }
    }

    /// Whether the network's rows exist.
    pub(crate) fn is_built(&self) -> bool {
        self.built
    }

    /// Drops the rows: the next Dinic solve rebuilds every one.  Called when
    /// the adjacency changes and before warm push-relabel and Edmonds–Karp
    /// solves, which write everywhere.
    pub(crate) fn invalidate(&mut self) {
        self.built = false;
    }
}

/// Brings built rows up to date with the arena: each registered pair whose
/// liveness differs from what the rows hold has its two entries inserted
/// into, or removed from, their tails' rows.  A pair whose liveness did not
/// flip costs one comparison.
pub(crate) fn sync(rows: &mut LiveRows, dirty: &mut DirtyRows, edges: &[ArenaEdge]) {
    for &fwd in &dirty.pairs {
        let pair = fwd >> 1;
        dirty.registered[pair] = false;
        let now = live(edges, fwd);
        if now != rows.held[pair] {
            rows.held[pair] = now;
            for eid in [fwd, fwd + 1] {
                if now {
                    rows.insert(eid, edges);
                } else {
                    rows.remove(eid, edges);
                }
            }
        }
    }
    dirty.pairs.clear();
}

/// Dinic's rows and buffers, owned by a network so that warm solves reuse
/// them.  Between solves `level` is all -1.
#[derive(Debug, Clone, Default)]
pub(crate) struct Workspace {
    pub(crate) rows: LiveRows,
    /// BFS level per node, -1 when unreached.
    level: Vec<i32>,
    /// Next row position to try per node in a blocking-flow phase.
    iter: Vec<usize>,
    /// The BFS queue; after a BFS it lists exactly the nodes it reached.
    queue: Vec<usize>,
}

/// Core Dinic routine operating on the shared arena representation.
///
/// Brings the rows up to date first — builds all of them when
/// `writes.dirty` has none built, else [`sync`]s the registered pairs — then
/// runs BFS phases over the rows and resets only the nodes a phase reached.
pub(crate) fn run(
    edges: &mut [ArenaEdge],
    adjacency: &[Vec<usize>],
    source: usize,
    sink: usize,
    writes: &mut Writes,
    ws: &mut Workspace,
) -> f64 {
    let n = adjacency.len();
    let dirty = &mut writes.dirty;
    if dirty.built {
        sync(&mut ws.rows, dirty, edges);
    } else {
        ws.rows.rebuild_all(edges, adjacency);
        let pairs = edges.len() / 2;
        dirty.registered.clear();
        dirty.registered.resize(pairs, false);
        dirty.pairs.clear();
        dirty.pairs.reserve(pairs);
        dirty.built = true;
        ws.level.clear();
        ws.level.resize(n, -1);
        ws.iter.clear();
        ws.iter.resize(n, 0);
        ws.queue.clear();
        ws.queue.reserve(n);
    }
    debug_assert!(
        ws.rows.match_a_rebuild(edges, adjacency),
        "synced live rows differ from a full rebuild"
    );

    let Workspace {
        rows,
        level,
        iter,
        queue,
    } = ws;
    let mut total = 0.0f64;
    loop {
        // BFS over live edges to build the level graph.
        level[source] = 0;
        queue.clear();
        queue.push(source);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &eid in rows.row(u) {
                let v = edges[eid].to;
                if level[v] < 0 && edges[eid].residual > FLOW_EPS {
                    level[v] = level[u] + 1;
                    queue.push(v);
                }
            }
        }
        let reached = level[sink] >= 0;
        if reached {
            for &u in queue.iter() {
                iter[u] = 0;
            }
            // Repeatedly find augmenting paths in the level graph (blocking flow).
            loop {
                let pushed = dfs(
                    edges,
                    rows,
                    level,
                    iter,
                    source,
                    sink,
                    f64::INFINITY,
                    writes,
                );
                if pushed <= FLOW_EPS {
                    break;
                }
                total += pushed;
            }
        }
        for &u in queue.iter() {
            level[u] = -1;
        }
        if !reached {
            break;
        }
    }
    total
}

/// Iterative DFS would avoid recursion depth issues, but Helix graphs are at
/// most a few hundred nodes deep, so a recursive implementation is clearer.
#[allow(clippy::too_many_arguments)]
fn dfs(
    edges: &mut [ArenaEdge],
    rows: &LiveRows,
    level: &[i32],
    iter: &mut [usize],
    u: usize,
    sink: usize,
    limit: f64,
    writes: &mut Writes,
) -> f64 {
    if u == sink {
        return limit;
    }
    let row = rows.row(u);
    while iter[u] < row.len() {
        let eid = row[iter[u]];
        let v = edges[eid].to;
        if edges[eid].residual > FLOW_EPS && level[v] == level[u] + 1 {
            let pushed = dfs(
                edges,
                rows,
                level,
                iter,
                v,
                sink,
                limit.min(edges[eid].residual),
                writes,
            );
            if pushed > FLOW_EPS {
                writes.touch_pair(eid, edges);
                edges[eid].residual -= pushed;
                edges[eid ^ 1].residual += pushed;
                return pushed;
            }
        }
        iter[u] += 1;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use crate::{FlowNetwork, MaxFlowAlgorithm};

    #[test]
    fn classic_clrs_example() {
        // The flow network from CLRS figure 26.1 (max flow 23).
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let v1 = net.add_node("v1");
        let v2 = net.add_node("v2");
        let v3 = net.add_node("v3");
        let v4 = net.add_node("v4");
        let t = net.add_node("t");
        net.add_edge(s, v1, 16.0).unwrap();
        net.add_edge(s, v2, 13.0).unwrap();
        net.add_edge(v1, v3, 12.0).unwrap();
        net.add_edge(v2, v1, 4.0).unwrap();
        net.add_edge(v2, v4, 14.0).unwrap();
        net.add_edge(v3, v2, 9.0).unwrap();
        net.add_edge(v3, t, 20.0).unwrap();
        net.add_edge(v4, v3, 7.0).unwrap();
        net.add_edge(v4, t, 4.0).unwrap();
        let r = net.max_flow_with(s, t, MaxFlowAlgorithm::Dinic);
        assert!((r.value - 23.0).abs() < 1e-9);
        net.validate_flow(&r.edge_flows, s, t).unwrap();
    }

    #[test]
    fn multi_path_network() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let t = net.add_node("t");
        let mids: Vec<_> = (0..10).map(|i| net.add_node(format!("m{i}"))).collect();
        for (i, &m) in mids.iter().enumerate() {
            net.add_edge(s, m, 1.0 + i as f64 * 0.1).unwrap();
            net.add_edge(m, t, 2.0).unwrap();
        }
        let expected: f64 = (0..10).map(|i| 1.0 + i as f64 * 0.1).sum();
        let r = net.max_flow_with(s, t, MaxFlowAlgorithm::Dinic);
        assert!((r.value - expected).abs() < 1e-9);
    }

    #[test]
    fn zero_when_sink_unreachable() {
        let mut net = FlowNetwork::new();
        let s = net.add_node("s");
        let a = net.add_node("a");
        let t = net.add_node("t");
        net.add_edge(t, a, 5.0).unwrap();
        net.add_edge(a, s, 5.0).unwrap();
        let r = net.max_flow_with(s, t, MaxFlowAlgorithm::Dinic);
        assert_eq!(r.value, 0.0);
    }
}
