//! Flow networks and maximum-flow algorithms for Helix.
//!
//! Helix (ASPLOS '25) models the serving throughput of a heterogeneous GPU
//! cluster as the maximum flow of a directed graph whose edge capacities are
//! token-per-second throughputs (paper §4.3).  This crate provides the graph
//! representation and the flow algorithms used by the placement planner and
//! the per-request pipeline scheduler:
//!
//! * [`FlowNetwork`] — a directed graph with `f64` capacities and named nodes.
//! * [`push_relabel`] — the preflow-push algorithm (the algorithm cited by the
//!   paper), with FIFO active-node selection, the gap heuristic and periodic
//!   global relabeling.
//! * [`dinic`] — Dinic's algorithm: what the planners' warm re-solves
//!   ([`FlowNetwork::resolve_from_residual`]) run, and an independent
//!   cross-check of cold solves.
//! * [`edmonds_karp`] — Edmonds–Karp, used in tests for a third opinion.
//! * [`min_cut`] — the source-side minimum cut induced by a maximum flow.
//! * [`decompose_paths`] — decomposition of a feasible flow into source→sink
//!   paths; the per-path flow values become the IWRR scheduling weights.
//!
//! # Example
//!
//! ```rust
//! use helix_maxflow::FlowNetwork;
//!
//! let mut net = FlowNetwork::new();
//! let s = net.add_node("source");
//! let a = net.add_node("a");
//! let t = net.add_node("sink");
//! net.add_edge(s, a, 10.0);
//! net.add_edge(a, t, 5.0);
//! let result = net.max_flow(s, t);
//! assert_eq!(result.value, 5.0);
//! ```

mod decompose;
mod dinic;
mod edmonds_karp;
mod error;
mod graph;
mod min_cut;
mod push_relabel;

pub use decompose::{decompose_paths, FlowPath};
pub use dinic::dinic;
pub use edmonds_karp::edmonds_karp;
pub use error::FlowError;
pub use graph::{EdgeId, EdgeRef, FlowNetwork, FlowResult, NodeId};
pub use min_cut::{min_cut, MinCut};
pub use push_relabel::push_relabel;

/// Tolerance used when comparing floating-point flow values.
pub const FLOW_EPS: f64 = 1e-9;

/// Which algorithm [`FlowNetwork::max_flow_with`] should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MaxFlowAlgorithm {
    /// Preflow-push (push-relabel) with FIFO selection, gap heuristic and
    /// global relabeling.  This is the algorithm referenced by the Helix
    /// paper and the default.
    #[default]
    PushRelabel,
    /// Dinic's blocking-flow algorithm.
    Dinic,
    /// Edmonds–Karp (BFS augmenting paths).  Mostly useful for testing.
    EdmondsKarp,
}
