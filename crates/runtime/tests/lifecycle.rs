//! The data-plane thread's lifetime is the session's.  This file holds one
//! test so that no other session of the same process owns a
//! `helix-dataplane` thread while it counts them.

use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
use helix_core::{heuristics, Topology};
use helix_runtime::{RuntimeConfig, ServingBuilder};

/// Threads of this process named `helix-dataplane` (Linux only; elsewhere
/// the count is not observable and reads zero).
fn dataplane_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .filter(|name| name.trim_end() == "helix-dataplane")
        .count()
}

#[test]
fn build_then_finish_returns_an_empty_report_and_leaves_no_thread_behind() {
    let profile =
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
    let placement = heuristics::swarm_placement(&profile).unwrap();
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig::fast_test())
        .build()
        .unwrap();
    if cfg!(target_os = "linux") {
        assert_eq!(dataplane_threads(), 1, "the plane runs once built");
    }

    let report = session.finish().unwrap();
    assert_eq!(report.completed(), 0);
    assert!(report.outcomes.is_empty() && report.links.is_empty());
    assert_eq!(report.makespan, 0.0);
    // Every planned worker was spawned, shut down and reported in.
    assert_eq!(report.nodes.len(), topology.nodes().count());
    assert!(report.nodes.iter().all(|n| n.batches == 0));
    assert_eq!(
        dataplane_threads(),
        0,
        "finish joined the data-plane thread"
    );
}
