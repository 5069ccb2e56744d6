//! Allocation budgets of two hot paths on 24-node clusters.
//!
//! - One IWRR `schedule` on the swarm topology: a walk that every first-hop
//!   candidate masks allocates nothing, and a successful one allocates only
//!   the pipeline it returns.  The runtime's coordinator retries every
//!   deferred admission at every quiescence, so a masked walk is its most
//!   frequent call.
//! - One annealing move on the standing max-flow network, rejected
//!   (`IncrementalFlowEvaluator::assign` + `restore`) or accepted (`assign`,
//!   committed by the next `assign`): after the first move it allocates
//!   nothing — the warm re-solve's repair, the pairs registered for the
//!   live-row sync, the row edits and the undo-log all reuse buffers the
//!   network keeps.
//!
//! A global allocator counts the allocations of the calling thread, so tests
//! running alongside on other threads do not disturb the count.

use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig, NodeId};
use helix_core::{
    heuristics, ClusterState, HelixError, IdleClusterState, IncrementalFlowEvaluator,
    IwrrScheduler, LayerRange, ModelPlacement, NoCandidateReason, Scheduler, Topology,
};
use helix_maxflow::MaxFlowAlgorithm;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation and reallocation on the
/// thread that makes it.
struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method hands its arguments unchanged to `System`, so each
// call meets `System`'s contract exactly when the caller meets
// `GlobalAlloc`'s; counting touches only a constant-initialised thread-local
// `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and how many allocations it made.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Every node's KV cache full: IWRR masks every candidate.
struct Saturated;

impl ClusterState for Saturated {
    fn queue_len(&self, _node: NodeId) -> usize {
        0
    }
    fn recent_throughput(&self, _node: NodeId) -> f64 {
        0.0
    }
    fn kv_used_tokens(&self, _node: NodeId) -> f64 {
        1_000.0
    }
    fn kv_capacity_tokens(&self, _node: NodeId) -> f64 {
        1_000.0
    }
}

#[test]
fn an_iwrr_schedule_allocates_nothing_but_its_pipeline() {
    let profile =
        ClusterProfile::analytic(ClusterSpec::single_cluster_24(), ModelConfig::llama_30b());
    let placement = heuristics::swarm_placement(&profile).unwrap();
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let mut scheduler = IwrrScheduler::from_topology(&topology).unwrap();
    let num_layers = profile.model().num_layers;
    for _ in 0..100 {
        let (masked, allocations) = allocations_in(|| scheduler.schedule(&Saturated));
        let reason = NoCandidateReason::AllMasked { layer: 0 };
        assert!(
            matches!(masked, Err(HelixError::NoCandidateAvailable { reason: r }) if r == reason),
            "{masked:?}"
        );
        assert_eq!(allocations, 0, "a walk masked at its first hop allocated");

        let (pipeline, allocations) = allocations_in(|| scheduler.schedule(&IdleClusterState));
        let pipeline = pipeline.unwrap();
        assert!(pipeline.covers_model(num_layers));
        assert_eq!(allocations, 1, "a {}-stage walk", pipeline.depth());
    }
}

/// The geo-distributed 24-node cluster, its swarm placement, and a
/// deterministic tour of 64 single-node moves shaped like the planner's
/// proposals: resizes and shifts on every node in turn.
fn move_tour() -> (ClusterProfile, ModelPlacement, Vec<(NodeId, LayerRange)>) {
    let profile =
        ClusterProfile::analytic(ClusterSpec::geo_distributed_24(), ModelConfig::llama2_70b());
    let placement = heuristics::swarm_placement(&profile).unwrap();
    let num_layers = profile.model().num_layers;
    let nodes: Vec<NodeId> = profile.cluster().node_ids().collect();
    let mut moves = Vec::with_capacity(64);
    let mut step = 0usize;
    while moves.len() < 64 {
        let node = nodes[step % nodes.len()];
        let max_layers = profile.node_profile(node).max_layers.min(num_layers);
        step += 1;
        if max_layers == 0 {
            continue;
        }
        let len = 1 + (step * 3) % max_layers;
        let start = (step * 11) % (num_layers - len + 1);
        moves.push((node, LayerRange::new(start, start + len)));
    }
    (profile, placement, moves)
}

#[test]
fn a_rejected_warm_move_allocates_nothing_after_the_first() {
    let (profile, placement, moves) = move_tour();
    let mut evaluator =
        IncrementalFlowEvaluator::new(&profile, &placement, true, None, MaxFlowAlgorithm::Dinic)
            .unwrap();
    let base = evaluator.value();
    let (node, range) = moves[0];
    evaluator.assign(node, range);
    evaluator.restore(node, placement.range(node));
    let mut solved = 0;
    for &(node, range) in moves.iter().cycle().skip(1).take(100) {
        let (value, allocations) = allocations_in(|| {
            let value = evaluator.assign(node, range);
            evaluator.restore(node, placement.range(node));
            value
        });
        assert_eq!(
            allocations,
            0,
            "a warm move on node {} allocated",
            node.index()
        );
        assert_eq!(evaluator.value().to_bits(), base.to_bits());
        solved += usize::from(value != base);
    }
    assert!(solved > 10, "only {solved} of 100 moves changed the flow");
}

#[test]
fn an_accepted_warm_move_allocates_nothing_after_the_first() {
    let (profile, placement, moves) = move_tour();
    let mut evaluator =
        IncrementalFlowEvaluator::new(&profile, &placement, true, None, MaxFlowAlgorithm::Dinic)
            .unwrap();
    let base = evaluator.value();
    let (node, range) = moves[0];
    evaluator.assign(node, range);
    evaluator.assign(node, placement.range(node).unwrap());
    let mut changed = 0;
    // Every move stands, and so does the move back to the swarm range that
    // follows it: each `assign` commits the one before and opens its own.
    for &(node, range) in moves.iter().cycle().skip(1).take(100) {
        let back = placement.range(node).unwrap();
        let ((value, restored), allocations) = allocations_in(|| {
            let value = evaluator.assign(node, range);
            (value, evaluator.assign(node, back))
        });
        assert_eq!(
            allocations,
            0,
            "an accepted warm move on node {} allocated",
            node.index()
        );
        assert!(
            (restored - base).abs() <= 1e-9 * base,
            "{restored} vs {base}"
        );
        changed += usize::from(value != restored);
    }
    assert!(changed > 10, "only {changed} of 100 moves changed the flow");
}
