//! Hierarchical parallel annealing: placement search for 1000-node fleets.
//!
//! The joint annealer ([`FleetAnnealingPlanner`]) evaluates every move on a
//! standing flow network over the **whole** cluster, so its per-move cost and
//! its mixing time both grow with fleet size — at a thousand nodes a single
//! search would need orders of magnitude more iterations to explore the same
//! fraction of the move space.  This module scales the search by exploiting
//! what the paper's §4.5 observes: placement quality is dominated by local
//! structure (which nearby nodes share a replica), while cross-cluster
//! structure matters only at the margins.
//!
//! The pipeline has three levels:
//!
//! 1. **Partition** ([`PodPartitioner`]): group nodes into locality pods by
//!    link affinity and assign one model per pod using a coarse capacity
//!    model — no flow solves at all.
//! 2. **Parallel anneal**: each pod runs an independent single-model
//!    annealing search over its own sub-cluster.  Pods are dealt to
//!    `threads` OS threads: a thread that finishes a pod takes the next one
//!    nobody has taken, so pods of uneven cost keep every thread busy.  Pods
//!    share no mutable state (each owns a disjoint sub-profile and
//!    [`IncrementalFlowEvaluator`]), each pod's RNG is seeded from
//!    `mix(seed, pod_id)` and results are kept by pod id, so the combined
//!    result is **bit-identical regardless of thread count**.
//! 3. **Refine**: a bounded top-level pass re-anneals node layer ranges on
//!    per-model standing networks spanning the whole cluster — built over a
//!    *sparse* candidate set (pod-internal pairs plus a few nearest
//!    cross-pod pairs), so the networks stay O(nodes · pod size) rather than
//!    O(nodes²).  Rejected moves roll back through the flow network's delta
//!    undo-log, so the refine loop's cost tracks edges actually touched.
//!
//! [`FleetAnnealingPlanner`]: crate::fleet::FleetAnnealingPlanner

use crate::error::HelixError;
use crate::fleet::{
    cold_flows, propose_range, FleetAnnealingOptions, FleetAnnealingPlanner, FleetPlacement,
};
use crate::placement::incremental::IncrementalFlowEvaluator;
use crate::placement::partition::{
    sub_profile_over, Pod, PodMap, PodPartitionOptions, PodPartitioner,
};
use crate::placement::refine::{
    metropolis, AnnealingOptions, FlowAnnealingPlanner, COOLING, INITIAL_TEMPERATURE,
};
use crate::placement::{LayerRange, ModelPlacement};
use helix_cluster::{ClusterProfile, ModelId, NodeId};
use helix_maxflow::MaxFlowAlgorithm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Options for the hierarchical planner.
#[derive(Debug, Clone, Default)]
pub struct HierarchicalOptions {
    /// How the cluster is cut into pods.
    pub pods: PodPartitionOptions,
    /// The total annealing budget.  `annealing.iterations` is the
    /// **fleet-wide** move budget: pods split 85 % of it proportionally to
    /// their size and the refine pass gets the rest, so hierarchical and
    /// joint searches are comparable at equal budgets.
    pub annealing: FleetAnnealingOptions,
    /// Worker threads for the per-pod searches (`0` = one per available
    /// core).  The result does not depend on this value.
    pub threads: usize,
}

/// Fraction of the iteration budget spent on the top-level cross-pod refine
/// pass.
const REFINE_FRACTION: f64 = 0.15;
/// How many nearest cross-pod neighbours each node contributes to the refine
/// stage's sparse candidate set.
const CROSS_POD_NEIGHBORS: usize = 2;

/// The result of a hierarchical planning run.
#[derive(Debug, Clone)]
pub struct HierarchicalPlan {
    /// The combined fleet placement.
    pub placement: FleetPlacement,
    /// Cold-evaluated per-model max-flow throughputs.
    pub flows: Vec<f64>,
    /// The pod partition the plan was computed over.  When the planner fell
    /// back to flat joint annealing (tiny cluster or fewer pods than
    /// models), this contains one pod per model holding that model's nodes.
    pub pods: PodMap,
    /// Whether the planner fell back to flat joint annealing.
    pub used_fallback: bool,
}

/// SplitMix64-style mixing of the base seed with a pod id.  Deliberately not
/// the standard library hasher (which is randomised per process) — per-pod
/// seeds must be stable across runs and machines.
fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `work` on every item on at most `threads` scoped threads.  A thread
/// that finishes an item takes the next one nobody has taken (a shared
/// counter), so a slow item does not hold back a queue of others behind it.
/// The results come back in item order, so they do not depend on the dealing.
fn deal<T: Sync, R: Send>(items: &[T], threads: usize, work: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, work(item)));
        }
    };
    let mut done: Vec<(usize, R)> = match threads.clamp(1, items.len().max(1)) {
        1 => worker(),
        threads => std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        }),
    };
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Three-level partition → parallel-anneal → refine placement search for
/// fleets far beyond the joint annealer's practical size.
///
/// # Example
///
/// ```rust
/// use helix_cluster::{ClusterSpec, ModelConfig};
/// use helix_core::fleet::{fleet_profiles, FleetAnnealingOptions};
/// use helix_core::{HierarchicalFleetPlanner, HierarchicalOptions};
///
/// let profiles = fleet_profiles(
///     &ClusterSpec::single_cluster_24(),
///     &[ModelConfig::llama_30b(), ModelConfig::llama_13b()],
/// );
/// let plan = HierarchicalFleetPlanner::new(&profiles)
///     .with_options(HierarchicalOptions {
///         annealing: FleetAnnealingOptions { iterations: 400, ..Default::default() },
///         ..Default::default()
///     })
///     .solve()
///     .unwrap();
/// assert!(plan.flows.iter().all(|&f| f > 0.0));
/// ```
pub struct HierarchicalFleetPlanner<'a> {
    profiles: &'a [ClusterProfile],
    options: HierarchicalOptions,
}

impl<'a> HierarchicalFleetPlanner<'a> {
    /// Creates a planner over one profile per model (all sharing a cluster).
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn new(profiles: &'a [ClusterProfile]) -> Self {
        assert!(!profiles.is_empty(), "a fleet serves at least one model");
        HierarchicalFleetPlanner {
            profiles,
            options: HierarchicalOptions::default(),
        }
    }

    /// Replaces the options.
    pub fn with_options(mut self, options: HierarchicalOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the three-level search.  Falls back to flat joint annealing when
    /// the cluster cannot be cut into at least one pod per model.
    ///
    /// # Errors
    ///
    /// Returns [`HelixError::NoPlacementFound`] if no feasible placement
    /// exists (also the flat fallback's failure mode).
    pub fn solve(&self) -> Result<HierarchicalPlan, HelixError> {
        let partition = PodPartitioner::new(self.profiles)
            .with_options(self.options.pods.clone())
            .partition();
        match partition {
            Ok(pods) if pods.num_pods() >= self.profiles.len() => self.solve_hierarchical(pods),
            _ => self.solve_flat(),
        }
    }

    /// Flat fallback: run the joint annealer and present its per-model node
    /// sets as one pod each.
    fn solve_flat(&self) -> Result<HierarchicalPlan, HelixError> {
        let (placement, flows) = FleetAnnealingPlanner::new(self.profiles)
            .with_options(self.options.annealing.clone())
            .solve()?;
        let pods = placement
            .placements()
            .iter()
            .enumerate()
            .map(|(m, p)| Pod {
                id: m,
                model: ModelId(m),
                nodes: p.iter().map(|(id, _)| id).collect(),
            })
            .collect();
        let num_nodes = self.profiles[0].cluster().num_nodes();
        Ok(HierarchicalPlan {
            placement,
            flows,
            pods: PodMap::from_pods(pods, num_nodes),
            used_fallback: true,
        })
    }

    fn solve_hierarchical(&self, pods: PodMap) -> Result<HierarchicalPlan, HelixError> {
        let cluster = self.profiles[0].cluster();
        let n = cluster.num_nodes();
        let opts = &self.options.annealing;
        let refine_iters = ((opts.iterations as f64) * REFINE_FRACTION).round() as usize;
        let pod_budget_total = opts.iterations.saturating_sub(refine_iters);

        // --- Level 2: anneal every pod independently, in parallel. ---
        // Budgets, seeds and sub-profiles are all functions of the pod id, so
        // the per-pod searches are embarrassingly parallel and their results
        // do not depend on how they are scheduled onto threads.
        let pod_placements = self.anneal_pods(&pods, pod_budget_total, n)?;

        // Merge per-pod placements into one placement per model.  Pods are
        // disjoint, so replicas of a model sit side by side.
        let mut merged: Vec<ModelPlacement> = (0..self.profiles.len())
            .map(|_| ModelPlacement::empty(n))
            .collect();
        for (pod, placement) in pods.pods().iter().zip(&pod_placements) {
            let target = &mut merged[pod.model.index()];
            for (node, range) in placement.iter() {
                target.assign(node, range);
            }
        }

        // --- Level 3: bounded cross-pod refine on standing networks. ---
        let best = self.refine(&pods, merged, refine_iters)?;

        let placement = FleetPlacement::new(best);
        placement.validate(self.profiles)?;
        let flows = self.evaluate(&placement);
        if flows.iter().any(|&f| f <= 0.0) {
            return Err(HelixError::NoPlacementFound);
        }
        Ok(HierarchicalPlan {
            placement,
            flows,
            pods,
            used_fallback: false,
        })
    }

    /// Cold-evaluates the per-model flows of a fleet placement (same
    /// convention as [`FleetAnnealingPlanner::evaluate`]).
    pub fn evaluate(&self, placement: &FleetPlacement) -> Vec<f64> {
        cold_flows(self.profiles, placement, &self.options.annealing)
    }

    /// Runs one annealing search per pod, dealt to at most
    /// `self.options.threads` OS threads, returning per-pod placements mapped
    /// back to whole-cluster node ids (indexed by pod id).
    fn anneal_pods(
        &self,
        pods: &PodMap,
        budget_total: usize,
        n: usize,
    ) -> Result<Vec<ModelPlacement>, HelixError> {
        let threads = match self.options.threads {
            0 => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            t => t,
        };
        deal(pods.pods(), threads, |pod| {
            let profile = &self.profiles[pod.model.index()];
            let (sub_profile, id_map) =
                sub_profile_over(profile, &pod.nodes, &format!("pod{}", pod.id));
            let iterations = (budget_total * pod.nodes.len()) / n.max(1);
            let planner = FlowAnnealingPlanner::new(&sub_profile).with_options(AnnealingOptions {
                iterations,
                seed: mix_seed(self.options.annealing.seed, pod.id as u64),
                ..self.options.annealing
            });
            let (sub_placement, _) = planner.solve()?;
            let mut placement = ModelPlacement::empty(n);
            for (sub_node, range) in sub_placement.iter() {
                placement.assign(id_map[sub_node.index()], range);
            }
            Ok(placement)
        })
        .into_iter()
        .collect()
    }

    /// The refine stage's sparse candidate connection set for one model: all
    /// ordered pairs inside each of the model's pods, plus each node's
    /// nearest cross-pod neighbours (by link affinity) within the model.
    fn refine_candidates(&self, pods: &PodMap, model: usize) -> Vec<(NodeId, NodeId)> {
        let cluster = self.profiles[0].cluster();
        let affinity = |a: NodeId, b: NodeId| -> f64 {
            let ab = cluster.link(Some(a), Some(b));
            let ba = cluster.link(Some(b), Some(a));
            let score = |bw: f64, lat: f64| bw / (1.0 + lat.max(0.0));
            0.5 * (score(ab.bandwidth_mbps, ab.latency_ms)
                + score(ba.bandwidth_mbps, ba.latency_ms))
        };
        let model_pods: Vec<&Pod> = pods.pods_for(ModelId(model)).collect();
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for pod in &model_pods {
            for &a in &pod.nodes {
                pairs.extend(pod.nodes.iter().filter(|&&b| b != a).map(|&b| (a, b)));
            }
        }
        if model_pods.len() > 1 {
            // Affinity descending, index ascending: a total order, so the
            // nearest neighbours are a selection, not a sort.
            let nearer = |x: &(f64, NodeId), y: &(f64, NodeId)| {
                y.0.partial_cmp(&x.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(x.1.index().cmp(&y.1.index()))
            };
            let mut keyed: Vec<(f64, NodeId)> = Vec::new();
            for pod in &model_pods {
                let foreign: Vec<NodeId> = model_pods
                    .iter()
                    .filter(|q| q.id != pod.id)
                    .flat_map(|q| q.nodes.iter().copied())
                    .collect();
                for &a in &pod.nodes {
                    // Each pair's affinity once.
                    keyed.clear();
                    keyed.extend(foreign.iter().map(|&b| (affinity(a, b), b)));
                    if keyed.len() > CROSS_POD_NEIGHBORS {
                        keyed.select_nth_unstable_by(CROSS_POD_NEIGHBORS - 1, nearer);
                    }
                    for &(_, b) in keyed.iter().take(CROSS_POD_NEIGHBORS) {
                        pairs.extend([(a, b), (b, a)]);
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// The top-level refine loop: per-model standing networks over sparse
    /// candidates, single-node range moves with metropolis acceptance, and
    /// undo-log rollbacks on rejection.
    fn refine(
        &self,
        pods: &PodMap,
        merged: Vec<ModelPlacement>,
        iterations: usize,
    ) -> Result<Vec<ModelPlacement>, HelixError> {
        let opts = &self.options.annealing;
        let mut evaluators = Vec::with_capacity(self.profiles.len());
        for (m, placement) in merged.iter().enumerate() {
            evaluators.push(IncrementalFlowEvaluator::with_candidates(
                &self.profiles[m],
                placement,
                opts.partial_inference,
                &self.refine_candidates(pods, m),
                MaxFlowAlgorithm::Dinic,
            )?);
        }

        let uppers: Vec<f64> = self
            .profiles
            .iter()
            .map(|p| p.throughput_upper_bound().max(1e-9))
            .collect();
        let objective =
            |values: &[f64]| -> f64 { values.iter().zip(&uppers).map(|(&v, &u)| v / u).sum() };
        let mut values: Vec<f64> = evaluators.iter().map(|e| e.value()).collect();
        if values.iter().any(|&v| v <= 0.0) {
            // A pod's replica came out flow-less (should not happen after a
            // successful per-pod anneal); bail rather than refine from an
            // infeasible point.
            return Err(HelixError::NoPlacementFound);
        }
        let mut current_obj = objective(&values);
        let mut best_obj = current_obj;
        let mut best = merged;

        // Refine moves stay within a node's model (= its pod's model): only
        // the layer *ranges* move, optionally stitching replicas across the
        // cross-pod candidate links.  Node→model ownership was fixed by the
        // partitioner, so per-node shares stay 1.0 throughout.
        let model_of: Vec<Option<usize>> = (0..self.profiles[0].cluster().num_nodes())
            .map(|v| pods.pod_of(NodeId(v)).map(|p| pods.pods()[p].model.index()))
            .collect();
        let nodes: Vec<NodeId> = self.profiles[0].cluster().node_ids().collect();
        let mut temperature = INITIAL_TEMPERATURE * current_obj.abs().max(1e-9);
        let mut rng = StdRng::seed_from_u64(mix_seed(opts.seed, u64::MAX));

        for _ in 0..iterations {
            temperature *= COOLING;
            let node = nodes[rng.gen_range(0..nodes.len())];
            let Some(m) = model_of[node.index()] else {
                continue;
            };
            let Some(range) =
                propose_range(&self.profiles[m], evaluators[m].placement(), node, &mut rng)
            else {
                continue;
            };
            let prev: Option<LayerRange> = evaluators[m].placement().range(node);
            let old = values[m];
            let new_value = evaluators[m].assign(node, range);
            values[m] = new_value;
            let new_obj = objective(&values);
            if metropolis(new_obj, current_obj, temperature, &mut rng) && new_value > 0.0 {
                current_obj = new_obj;
                if current_obj > best_obj {
                    best_obj = current_obj;
                    best = evaluators.iter().map(|e| e.placement().clone()).collect();
                }
            } else {
                values[m] = old;
                evaluators[m].restore(node, prev);
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::fleet_profiles;
    use helix_cluster::{ClusterSpec, ModelConfig};
    use std::collections::BTreeSet;

    fn quick(iterations: usize, threads: usize) -> HierarchicalOptions {
        HierarchicalOptions {
            annealing: FleetAnnealingOptions {
                iterations,
                ..Default::default()
            },
            threads,
            ..Default::default()
        }
    }

    #[test]
    fn plans_a_two_model_fleet_hierarchically() {
        let profiles = fleet_profiles(
            &ClusterSpec::single_cluster_24(),
            &[ModelConfig::llama_30b(), ModelConfig::llama_13b()],
        );
        let plan = HierarchicalFleetPlanner::new(&profiles)
            .with_options(HierarchicalOptions {
                pods: PodPartitionOptions {
                    max_pod_size: 12,
                    ..Default::default()
                },
                ..quick(600, 2)
            })
            .solve()
            .unwrap();
        assert!(!plan.used_fallback);
        assert!(plan.pods.num_pods() >= 2);
        assert!(plan.flows.iter().all(|&f| f > 0.0));
        plan.placement.validate(&profiles).unwrap();
    }

    #[test]
    fn result_is_identical_across_thread_counts() {
        let profiles = fleet_profiles(
            &ClusterSpec::high_heterogeneity_42(),
            &[ModelConfig::llama_30b(), ModelConfig::llama_13b()],
        );
        let solve = |threads: usize| {
            HierarchicalFleetPlanner::new(&profiles)
                .with_options(HierarchicalOptions {
                    pods: PodPartitionOptions {
                        max_pod_size: 8,
                        ..Default::default()
                    },
                    ..quick(400, threads)
                })
                .solve()
                .unwrap()
        };
        let one = solve(1);
        assert!(!one.used_fallback);
        let pods = one.pods.num_pods();
        assert!(pods > 3, "{pods} pods");
        // Which thread takes which pod depends on the count (and on timing);
        // the plan must not.  Two and three threads deal the pods unevenly,
        // `pods + 5` leaves threads with nothing to take.
        for threads in [2, 3, pods + 5] {
            let other = solve(threads);
            assert_eq!(
                one.placement.placements(),
                other.placement.placements(),
                "{threads} threads"
            );
            let bits = |flows: &[f64]| flows.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&one.flows), bits(&other.flows), "{threads} threads");
        }
    }

    #[test]
    fn tiny_cluster_falls_back_to_joint_annealing() {
        let profiles = fleet_profiles(
            &ClusterSpec::solver_quality_10(),
            &[ModelConfig::llama_30b(), ModelConfig::llama_13b()],
        );
        let plan = HierarchicalFleetPlanner::new(&profiles)
            .with_options(HierarchicalOptions {
                pods: PodPartitionOptions {
                    // Force a single pod so the fallback triggers.
                    max_pod_size: 10,
                    capacity_slack: 5.0,
                },
                ..quick(300, 1)
            })
            .solve()
            .unwrap();
        assert!(plan.flows.iter().all(|&f| f > 0.0));
        if plan.used_fallback {
            assert_eq!(plan.pods.num_pods(), profiles.len());
        }
    }

    /// The cross-pod neighbours are chosen from affinities computed once per
    /// pair; the oracle recomputes them inside the sort comparator, as the
    /// planner used to.
    #[test]
    fn refine_candidates_match_the_sort_by_recomputed_affinity_oracle() {
        use helix_cluster::{ClusterBuilder, GpuType, Region};
        // Three regions, four pods of one model (one region holds two), and
        // a few overridden links so that affinities are neither all equal
        // nor symmetric.
        let node = |i: usize| Some(NodeId(i));
        let cluster = ClusterBuilder::new("three-regions")
            .intra_region(10_000.0, 1.0)
            .inter_region(100.0, 50.0)
            .add_nodes(GpuType::A100_40, 4, 1, Region(0))
            .add_nodes(GpuType::L4, 8, 1, Region(1))
            .add_nodes(GpuType::T4, 4, 1, Region(2))
            .override_link(node(0), node(13), 900.0, 5.0)
            .override_link(node(13), node(0), 300.0, 9.0)
            .override_link(node(5), node(9), 2_000.0, 1.0)
            .override_link(node(2), node(6), 100.0, 50.0)
            .build();
        let profiles = fleet_profiles(&cluster, &[ModelConfig::llama_13b()]);
        let model = ModelId(0);
        let pod = |id: usize, nodes: std::ops::Range<usize>| Pod {
            id,
            model,
            nodes: nodes.map(NodeId).collect(),
        };
        let pods = vec![pod(0, 0..4), pod(1, 4..8), pod(2, 8..12), pod(3, 12..16)];
        let pods = PodMap::from_pods(pods, cluster.num_nodes());
        let planner = HierarchicalFleetPlanner::new(&profiles);

        let affinity = |a: NodeId, b: NodeId| -> f64 {
            let ab = cluster.link(Some(a), Some(b));
            let ba = cluster.link(Some(b), Some(a));
            let score = |bw: f64, lat: f64| bw / (1.0 + lat.max(0.0));
            0.5 * (score(ab.bandwidth_mbps, ab.latency_ms)
                + score(ba.bandwidth_mbps, ba.latency_ms))
        };
        let mut oracle: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for pod in pods.pods() {
            for &a in &pod.nodes {
                oracle.extend(pod.nodes.iter().filter(|&&b| b != a).map(|&b| (a, b)));
                let mut foreign: Vec<NodeId> = (0..16).map(NodeId).collect();
                foreign.retain(|b| !pod.nodes.contains(b));
                foreign.sort_by(|&x, &y| {
                    affinity(a, y)
                        .partial_cmp(&affinity(a, x))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(x.index().cmp(&y.index()))
                });
                for &b in foreign.iter().take(CROSS_POD_NEIGHBORS) {
                    oracle.extend([(a, b), (b, a)]);
                }
            }
        }
        let expected: Vec<(NodeId, NodeId)> = oracle.into_iter().collect();
        assert_eq!(planner.refine_candidates(&pods, 0), expected);
        // Node 0's best foreign link is the overridden one, not an index tie.
        assert!(expected.contains(&(NodeId(0), NodeId(13))));
    }
}
