#!/bin/sh
# Greps that must print nothing: each names a fork, a layer or a protocol
# this repository removed on purpose, so bringing one back fails here
# instead of in review.  The last guard, tools/pub-fn-callers.sh, is not a
# grep: it builds a tagged copy of the tree (workspace `--all-targets` and
# the harness, cold, about a minute on two cores) so the type checker says
# which public functions have a caller.  Run from the repository root;
# exits 1 on any hit.
# Usage: tools/guards.sh
status=0
guard() {
    hits=$(sh -c "$2")
    if [ -n "$hits" ]; then
        echo "guard failed: $1"
        echo "$hits"
        status=1
    fi
}

# The data plane is one loop on one thread: no lock, no shared cell, no task.
guard "no lock or task in the data plane" \
    "grep -rnE 'Mutex|RwLock|Rc<|RefCell|\.spawn\(async|Executor::spawn' crates/runtime/src | grep -v '^crates/runtime/src/session.rs.*thread::Builder'"
guard "no task-per-worker plane" \
    "grep -rnE 'Receiver<RuntimeMsg>|Sender<RuntimeMsg>|SharedWorkerStats|publish_stats|WorkerRegistry|WorkerSpawner|CoordinatorMsg|shutdown_all|Deadline' crates/runtime/src"
guard "the plane has no executor" \
    "grep -rn 'minirt\|async \|\.await\|block_on' crates/runtime/src crates/runtime/Cargo.toml"
guard "the pair-table slot arithmetic exists once" \
    "grep -rn 'index() \* self.num_nodes\|index() \* num_nodes' crates --include=*.rs | grep -v crates/core/src/pair_table.rs"
guard "unbounded channels only at the session boundary" \
    "grep -rn 'unbounded()' crates/runtime/src | grep -v 'src/session.rs'"
guard "KV bookkeeping is a call, not a message" \
    "grep -rnE 'KvChunk|KvInstalled|RuntimeMsg::Release|pending_migrations|extract_kv|KV_CHUNK_PAGES|fn thaw' crates/*/src src"
guard "the region tier is a ring and a spill" \
    "grep -rnE 'RegionDirectory|RegionHealth|RegionRebalancer|RegionTransfer|InterRegionLink|HEARTBEAT_INTERVAL|FrontTierOptions|mark_degraded|affinity_home' crates src tests examples"
guard "worker rows follow the simulator's engine lifecycle" \
    "grep -rnE 'pending_retire|sweep_retirements|live_mut|live_pair_mut|live_of_model|is_live\(|fn retire|\.live\b|live: bool' crates/runtime/src"
guard "a re-plan is one plan_observed" \
    "grep -nE 'self\.(unsplit_link_flows|vram_overrides)|^ {4}(unsplit_link_flows|vram_overrides): Vec' crates/core/src/fleet.rs"
guard "runtime rows are the simulator's NodeEngine, fed its WorkItem" \
    "grep -rnE 'StageWork|ExecutionModel|AnalyticExecution|InstantExecution' crates/runtime/src"
# Both surfaces' row is the one concrete `NodeEngine`: no work trait, no
# generic core under it, no runtime wrapper row over it, no row parameter.
guard "one engine row" \
    "grep -rnE 'trait Work\\b|WorkMeta|EngineCore|struct Workers?\\b|AsMut<NodeEngine>|From<NodeEngine>|Actuator<' crates src tests examples"
# What the surfaces do with a control-plane decision is written once, in
# `helix_core::actuator`: no surface keeps its own KV hand-over, release,
# fail-over, token or forward step, or its own map of node slowdowns.
guard "one actuator for both surfaces" \
    "grep -rnE 'fn (hand_over|release_kv|fail_nodes|route_onward|on_iteration)\b|slowdowns: HashMap|self\.slowdowns' crates/sim/src crates/runtime/src"
# Both surfaces queue their events in the one `helix_core::Timeline`, and the
# runtime queues the simulator's wire events: no second heap, no envelope or
# message type, and a token is timed by its arrival, not its send.
guard "one time-ordered queue, no message layer" \
    "grep -rnE 'BinaryHeap|Envelope|RuntimeMsg|emitted_at' crates/sim/src crates/runtime/src"
# A warm solve edits Dinic's live rows only where a written pair flipped
# between live and dead: no per-node stale marks, no per-node row rebuild.
guard "Dinic rows are edited per flipped pair" \
    "grep -rnE 'fn mark\\(|marked: Vec|fn rebuild_row' crates/maxflow/src"
# The only JSON is the paper artifacts, built with `serde_json::json!` over
# std types: no derive, no `Serialize` / `Deserialize` trait and no vendored
# `serde` or `serde_derive` under them.
guard "no serialisation framework in the tree" \
    "grep -rnE 'Serialize|Deserialize|serde::|#\\[serde|serde_derive' crates src tests examples; ls -d vendor/serde vendor/serde_derive 2>/dev/null"
# The simulator has one clock and a later run continues it: nothing restarts
# a timeline, merges per-run reports or resets a counter when read, and a
# disturbance with a duration is two primitive perturbations.
guard "one clock per simulator" \
    "grep -rnE 'rebase_epoch|start_timeline|take_logs|take_kv_transfers|take_stats|merge_reports|merge_metrics|merge_latency|NodeFlap|NodeStraggler|RegionPartition' crates src tests examples"
# A simulator is driven through its `SimSession` alone, a MILP model and a
# flow network are built through one fallible call per element, and a type
# has one name: no direct simulator run, no `try_` twin of a builder call, no
# alias of `LatencyStats`.  (The runtime's crate-private `run` is its
# data-plane thread's body.)
guard "one way in" \
    "grep -rnE '\\b(run_per_model|run_with_events|try_add_var|try_add_constraint_expr|try_add_edge|LatencySummary)\\b|pub fn run\\(' crates/sim/src crates/milp/src crates/maxflow/src crates/core/src crates/runtime/src src tests examples crates/sim/tests"
# The MILP planner and solver take their settings as one options struct,
# and a serving builder takes its schedulers one per model: no setter twin.
guard "one way to configure a planner, a solver and a serving builder" \
    "grep -nE 'fn (partial_inference|prune_to_degree|time_limit|warm_start|warm_start_from_heuristics|early_stop_objective|record_events|options|schedulers)\\(' crates/milp/src/branch_bound.rs crates/core/src/placement/milp.rs crates/runtime/src/builder.rs"
# Every public function of the libraries has a caller in another file's
# code, as the type checker resolves it, or a line in
# tools/pub-fn-allowlist.txt naming the file that reads it.  A failed build
# fails the guard too (the check exits 2 and says which build).
guard "every public function has a caller" "tools/pub-fn-callers.sh || echo 'tools/pub-fn-callers.sh failed'"
exit $status
