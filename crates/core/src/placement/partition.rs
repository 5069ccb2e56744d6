//! Cluster partitioning for very large deployments (paper §4.5).
//!
//! The MILP planner scales to the cluster sizes the paper evaluates (24–42
//! nodes), but §4.5 notes that "for further scaling of Helix to hundreds or
//! even thousands of nodes, one viable approach is to first partition the
//! nodes into multiple smaller clusters using heuristics and then apply Helix
//! independently".  This module implements that approach: it groups nodes
//! into partitions that each can hold a full model replica (preferring to
//! keep regions together so no partition straddles a slow inter-region link),
//! plans a placement for every partition independently, and combines the
//! results into one placement whose replicas serve traffic side by side.

use crate::error::HelixError;
use crate::placement::refine::{AnnealingOptions, FlowAnnealingPlanner};
use crate::placement::{LayerRange, ModelPlacement};
use helix_cluster::{ClusterBuilder, ClusterProfile, ModelId, NodeId};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// Options controlling how the cluster is partitioned and how each partition
/// is planned.
#[derive(Debug, Clone)]
pub struct PartitionOptions {
    /// Upper bound on the number of nodes per partition.  Partitions stop
    /// growing once they can hold the model *and* reach this size.
    pub max_partition_size: usize,
    /// Slack factor on model capacity: a partition is considered able to hold
    /// the model once its summed layer capacity reaches `capacity_slack ×
    /// num_layers`.  Values above 1.0 leave headroom for KV cache and load
    /// balancing.
    pub capacity_slack: f64,
    /// Planning budget used for each partition.
    pub annealing: AnnealingOptions,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            max_partition_size: 16,
            capacity_slack: 1.2,
            annealing: AnnealingOptions::default(),
        }
    }
}

/// One planned partition: a disjoint subset of nodes serving its own model
/// replica.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The nodes of this partition (ids in the *original* cluster).
    pub nodes: Vec<NodeId>,
    /// The placement found for this partition, expressed on the original
    /// cluster's node ids (nodes outside the partition are unassigned).
    pub placement: ModelPlacement,
    /// Max-flow throughput of the partition's placement (tokens/s).
    pub throughput: f64,
}

/// The result of partitioned planning.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    partitions: Vec<Partition>,
    num_nodes: usize,
}

impl PartitionPlan {
    /// Number of independent model replicas (one per partition).
    pub fn num_replicas(&self) -> usize {
        self.partitions.len()
    }

    /// The union of all partition placements: a single placement for the full
    /// cluster in which every partition serves its own replica.
    pub fn combined_placement(&self) -> ModelPlacement {
        let mut combined = ModelPlacement::empty(self.num_nodes);
        for partition in &self.partitions {
            for (node, range) in partition.placement.iter() {
                combined.assign(node, range);
            }
        }
        combined
    }
}

/// Plans placements for clusters too large to optimise in one piece.
///
/// # Example
///
/// ```rust
/// use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
/// use helix_core::placement::partition::{PartitionOptions, PartitionedPlanner};
///
/// let profile = ClusterProfile::analytic(
///     ClusterSpec::geo_distributed_24(),
///     ModelConfig::llama_30b(),
/// );
/// let planner = PartitionedPlanner::new(&profile)
///     .with_options(PartitionOptions { max_partition_size: 10, ..Default::default() });
/// let plan = planner.solve().unwrap();
/// assert!(plan.num_replicas() >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct PartitionedPlanner<'a> {
    profile: &'a ClusterProfile,
    options: PartitionOptions,
}

impl<'a> PartitionedPlanner<'a> {
    /// Creates a planner with default options.
    pub fn new(profile: &'a ClusterProfile) -> Self {
        PartitionedPlanner {
            profile,
            options: PartitionOptions::default(),
        }
    }

    /// Overrides the partitioning options.
    pub fn with_options(mut self, options: PartitionOptions) -> Self {
        self.options = options;
        self
    }

    /// Computes the node groups without planning placements for them.
    ///
    /// Every group can hold at least one full model replica; nodes of one
    /// region stay together when the regions are large enough (no replica
    /// straddles a slow inter-region link).
    fn node_groups(&self) -> Vec<Vec<NodeId>> {
        let profile = self.profile;
        let cluster = profile.cluster();
        let num_layers = profile.model().num_layers;
        let needed = (num_layers as f64 * self.options.capacity_slack).ceil() as usize;

        // Order nodes region by region, strongest first within each region so
        // every partition gets a share of strong nodes.
        let mut ordered: Vec<NodeId> = Vec::with_capacity(cluster.num_nodes());
        let mut by_region: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
        for node in cluster.nodes() {
            by_region.entry(node.region.0).or_default().push(node.id);
        }
        for (_, mut nodes) in by_region {
            nodes.sort_by_key(|&id| std::cmp::Reverse(profile.node_profile(id).max_layers));
            ordered.extend(nodes);
        }

        let mut groups: Vec<Vec<NodeId>> = Vec::new();
        let mut current: Vec<NodeId> = Vec::new();
        let mut current_capacity = 0usize;
        for id in ordered {
            current.push(id);
            current_capacity += profile.node_profile(id).max_layers;
            let can_hold = current_capacity >= needed;
            let full = current.len() >= self.options.max_partition_size;
            if can_hold && (full || current.len() >= self.options.max_partition_size / 2) {
                groups.push(std::mem::take(&mut current));
                current_capacity = 0;
            }
        }
        if !current.is_empty() {
            // Leftover nodes that cannot hold a replica on their own join the
            // last complete group (or form the only group for tiny clusters).
            let leftover_capacity: usize = current
                .iter()
                .map(|&id| profile.node_profile(id).max_layers)
                .sum();
            if leftover_capacity >= needed || groups.is_empty() {
                groups.push(current);
            } else if let Some(last) = groups.last_mut() {
                last.extend(current);
            }
        }
        groups
    }

    /// Plans each partition independently and returns the combined plan.
    ///
    /// # Errors
    ///
    /// Returns [`HelixError::NoCompletePipeline`] if the whole cluster cannot
    /// hold even one model replica, and propagates per-partition planning
    /// errors.
    pub fn solve(&self) -> Result<PartitionPlan, HelixError> {
        let groups = self.node_groups();
        if groups.is_empty() {
            return Err(HelixError::NoCompletePipeline);
        }
        let mut partitions = Vec::with_capacity(groups.len());
        for nodes in groups {
            let (sub_profile, id_map) = self.sub_profile(&nodes);
            let planner = FlowAnnealingPlanner::new(&sub_profile)
                .with_options(self.options.annealing.clone());
            let (sub_placement, throughput) = planner.solve()?;
            // Map the sub-cluster placement back onto the original node ids.
            let mut placement = ModelPlacement::empty(self.profile.cluster().num_nodes());
            for (sub_node, range) in sub_placement.iter() {
                placement.assign(
                    id_map[sub_node.index()],
                    LayerRange::new(range.start, range.end),
                );
            }
            partitions.push(Partition {
                nodes,
                placement,
                throughput,
            });
        }
        Ok(PartitionPlan {
            partitions,
            num_nodes: self.profile.cluster().num_nodes(),
        })
    }

    /// Builds a standalone profile containing only `nodes`, preserving each
    /// node's GPU type, GPU count, region and NIC bandwidth as well as the
    /// original cluster's intra/inter-region network characteristics.
    /// Returns the profile and the mapping from sub-cluster node index to the
    /// original [`NodeId`].
    fn sub_profile(&self, nodes: &[NodeId]) -> (ClusterProfile, Vec<NodeId>) {
        sub_profile_over(self.profile, nodes, "partition")
    }
}

/// Builds a standalone [`ClusterProfile`] containing only `nodes` of
/// `profile`'s cluster, preserving each node's GPU type, GPU count, region and
/// NIC bandwidth as well as the cluster-wide intra/inter-region network
/// characteristics.  Returns the profile and the mapping from sub-cluster
/// node index back to the original [`NodeId`].
///
/// Shared by [`PartitionedPlanner`] (single-model partitions) and the
/// hierarchical fleet planner (per-pod sub-problems).
pub(crate) fn sub_profile_over(
    profile: &ClusterProfile,
    nodes: &[NodeId],
    label: &str,
) -> (ClusterProfile, Vec<NodeId>) {
    let cluster = profile.cluster();
    let mut builder = ClusterBuilder::new(format!("{}-{label}", cluster.name))
        .intra_region(
            cluster.intra_region_bandwidth_mbps,
            cluster.intra_region_latency_ms,
        )
        .inter_region(
            cluster.inter_region_bandwidth_mbps,
            cluster.inter_region_latency_ms,
        )
        .coordinator_region(cluster.coordinator_region);
    let mut id_map = Vec::with_capacity(nodes.len());
    for &id in nodes {
        let node = cluster.node(id);
        builder = builder.nic_bandwidth(node.nic_bandwidth_mbps).add_nodes(
            node.gpu,
            1,
            node.gpu_count,
            node.region,
        );
        id_map.push(id);
    }
    let sub_cluster = builder.build();
    (
        ClusterProfile::analytic(sub_cluster, profile.model().clone()),
        id_map,
    )
}

// ---------------------------------------------------------------------------
// Locality-aware pod partitioning for hierarchical fleet planning.
// ---------------------------------------------------------------------------

/// Options controlling [`PodPartitioner`].
#[derive(Debug, Clone)]
pub struct PodPartitionOptions {
    /// Upper bound on nodes per pod during locality agglomeration.  Capacity
    /// feasibility overrides this: a pod that still cannot hold every model
    /// keeps absorbing neighbours past the cap.
    pub max_pod_size: usize,
    /// Slack factor on coarse capacity: a pod counts as able to hold model
    /// `m` once its summed per-node layer capacity (the VRAM-derived
    /// `max_layers`, the same quantity [`FleetPlacement`]'s validation
    /// enforces per node) reaches `capacity_slack × num_layers(m)`.
    ///
    /// [`FleetPlacement`]: crate::fleet::FleetPlacement
    pub capacity_slack: f64,
}

impl Default for PodPartitionOptions {
    fn default() -> Self {
        PodPartitionOptions {
            max_pod_size: 24,
            capacity_slack: 1.25,
        }
    }
}

/// One pod: a disjoint subset of nodes annealed independently for a single
/// model during hierarchical fleet planning.
#[derive(Debug, Clone)]
pub struct Pod {
    /// Dense pod index (position in [`PodMap::pods`]).
    pub id: usize,
    /// The model this pod serves.
    pub model: ModelId,
    /// The pod's nodes (ids in the original cluster), ascending.
    pub nodes: Vec<NodeId>,
}

/// The partition of a cluster into model-assigned pods.
#[derive(Debug, Clone)]
pub struct PodMap {
    pods: Vec<Pod>,
    /// Pod index per cluster node.
    owner: Vec<usize>,
}

impl PodMap {
    /// Builds a map from explicit pods (used by the hierarchical planner's
    /// flat fallback, where the joint annealer's per-model node sets become
    /// one pod each).  Nodes outside every pod have no owner.
    pub(crate) fn from_pods(pods: Vec<Pod>, num_nodes: usize) -> Self {
        let mut owner = vec![usize::MAX; num_nodes];
        for pod in &pods {
            for &v in &pod.nodes {
                owner[v.index()] = pod.id;
            }
        }
        PodMap { pods, owner }
    }

    /// The pods, in deterministic order.
    pub fn pods(&self) -> &[Pod] {
        &self.pods
    }

    /// Number of pods.
    pub fn num_pods(&self) -> usize {
        self.pods.len()
    }

    /// The pod a node belongs to (`None` for nodes no pod claimed, which can
    /// happen in the flat-fallback map).
    pub fn pod_of(&self, node: NodeId) -> Option<usize> {
        let o = self.owner[node.index()];
        (o != usize::MAX).then_some(o)
    }

    /// The pods assigned to `model`.
    pub fn pods_for(&self, model: ModelId) -> impl Iterator<Item = &Pod> + '_ {
        self.pods.iter().filter(move |p| p.model == model)
    }
}

/// Groups a cluster's nodes into pods by link affinity and assigns one model
/// to each pod — stage one of hierarchical fleet planning.
///
/// The partitioner works on the coarsened capacity model only (per-node
/// `max_layers` and FLOPs); it never solves a flow.  Three steps:
///
/// 1. **Agglomerate:** Kruskal-style greedy merging over all node pairs in
///    descending link affinity (`bandwidth / (1 + latency)`, symmetrised),
///    merging while either side still lacks the coarse capacity to hold every
///    model and the merged size respects `max_pod_size` (capacity wins over
///    the size cap).  High-affinity intra-region pairs sort first, so pods
///    form inside regions and only straddle slow links when a region cannot
///    hold a model by itself.
/// 2. **Balance:** each locality group is dealt into its pods round-robin in
///    descending node strength, so sibling pods carved from one region end up
///    with comparable compute instead of id-ordered strength skew.
/// 3. **Assign:** pods are handed to models greedily (descending pod compute,
///    each pod to the model with the lowest assigned-compute/demand ratio),
///    mirroring the joint planner's node-level partitioning at pod
///    granularity.
pub struct PodPartitioner<'a> {
    profiles: &'a [ClusterProfile],
    options: PodPartitionOptions,
}

/// Union-find over node indices with union-by-size.
struct DisjointSets {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl DisjointSets {
    fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the two sets and returns the surviving root.
    fn union(&mut self, a: usize, b: usize) -> usize {
        let (mut a, mut b) = (self.find(a), self.find(b));
        if a == b {
            return a;
        }
        if self.size[a] < self.size[b] {
            std::mem::swap(&mut a, &mut b);
        }
        self.parent[b] = a;
        self.size[a] += self.size[b];
        a
    }
}

/// A node pair keyed for agglomeration.  Greater means earlier: higher
/// affinity, then smaller `a`, then smaller `b` — so a max-heap pops pairs in
/// the order a descending sort by affinity, `a`, `b` lists them.
#[derive(Debug, Clone, Copy)]
struct NodePair {
    affinity: f64,
    a: u32,
    b: u32,
}

impl Ord for NodePair {
    fn cmp(&self, other: &Self) -> Ordering {
        self.affinity
            .partial_cmp(&other.affinity)
            .unwrap_or(Ordering::Equal)
            .then(other.a.cmp(&self.a))
            .then(other.b.cmp(&self.b))
    }
}

impl PartialOrd for NodePair {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for NodePair {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for NodePair {}

/// The state of the agglomeration: components, their per-model capacity and
/// how many roots still lack the capacity for some model.
struct Agglomeration<'n> {
    sets: DisjointSets,
    /// Component capacity per model, indexed by current root.
    cap: Vec<Vec<usize>>,
    needed: &'n [usize],
    starved_roots: usize,
}

impl<'n> Agglomeration<'n> {
    fn new(layer_cap: &[Vec<usize>], needed: &'n [usize]) -> Self {
        let n = layer_cap.first().map_or(0, Vec::len);
        let cap: Vec<Vec<usize>> = (0..n)
            .map(|v| layer_cap.iter().map(|per_node| per_node[v]).collect())
            .collect();
        let mut agglomeration = Agglomeration {
            sets: DisjointSets::new(n),
            cap,
            needed,
            starved_roots: 0,
        };
        agglomeration.starved_roots = (0..n).filter(|&v| agglomeration.starved(v)).count();
        agglomeration
    }

    fn starved(&self, root: usize) -> bool {
        self.cap[root].iter().zip(self.needed).any(|(c, n)| c < n)
    }

    /// Merges the components of `a` and `b` if they differ and either still
    /// lacks the capacity to hold every model.  Inside a region (uniform high
    /// affinity) this coalesces the whole region into one locality group;
    /// cross-region pairs come later, so regions only merge when one of them
    /// cannot hold a model by itself.  The size cap is applied when groups
    /// are dealt into pods, not here.
    fn offer(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.sets.find(a), self.sets.find(b));
        if ra == rb {
            return;
        }
        let starved = usize::from(self.starved(ra)) + usize::from(self.starved(rb));
        if starved == 0 {
            return;
        }
        let merged: Vec<usize> = self.cap[ra]
            .iter()
            .zip(&self.cap[rb])
            .map(|(x, y)| x + y)
            .collect();
        let root = self.sets.union(ra, rb);
        self.cap[root] = merged;
        self.starved_roots = self.starved_roots - starved + usize::from(self.starved(root));
    }

    /// The components, each ascending, in ascending order of their smallest
    /// node.
    fn groups(mut self) -> Vec<Vec<usize>> {
        let n = self.cap.len();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
        for v in 0..n {
            let r = self.sets.find(v);
            members[r].push(v);
        }
        let mut groups: Vec<Vec<usize>> = members.into_iter().filter(|g| !g.is_empty()).collect();
        groups.sort_by_key(|g| g[0]);
        groups
    }
}

impl<'a> PodPartitioner<'a> {
    /// Creates a partitioner over the fleet's per-model profiles (which must
    /// share one cluster), with default options.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn new(profiles: &'a [ClusterProfile]) -> Self {
        assert!(!profiles.is_empty(), "at least one model profile required");
        PodPartitioner {
            profiles,
            options: PodPartitionOptions::default(),
        }
    }

    /// Overrides the partitioning options.
    pub fn with_options(mut self, options: PodPartitionOptions) -> Self {
        self.options = options;
        self
    }

    /// Symmetrised link affinity between two nodes: high bandwidth and low
    /// latency pull nodes into the same pod.
    fn affinity(&self, a: NodeId, b: NodeId) -> f64 {
        let cluster = self.profiles[0].cluster();
        let ab = cluster.link(Some(a), Some(b));
        let ba = cluster.link(Some(b), Some(a));
        let score = |bw: f64, lat: f64| bw / (1.0 + lat.max(0.0));
        0.5 * (score(ab.bandwidth_mbps, ab.latency_ms) + score(ba.bandwidth_mbps, ba.latency_ms))
    }

    /// The coarse capacity model: the layers each node can hold per model
    /// (`[model][node]`), and the per-model layer count a pod needs (with
    /// slack).
    fn coarse_capacity(&self) -> (Vec<Vec<usize>>, Vec<usize>) {
        let cluster = self.profiles[0].cluster();
        let layer_cap = self
            .profiles
            .iter()
            .map(|profile| {
                cluster
                    .node_ids()
                    .map(|id| profile.node_profile(id).max_layers)
                    .collect()
            })
            .collect();
        let needed = self
            .profiles
            .iter()
            .map(|profile| {
                let layers = profile.model().num_layers as f64;
                (layers * self.options.capacity_slack.max(1.0)).ceil() as usize
            })
            .collect();
        (layer_cap, needed)
    }

    /// The agglomeration step of [`PodPartitioner::partition`]: Kruskal-style
    /// merging over node pairs in descending affinity (ties by ascending `a`,
    /// then `b`), while either side lacks the capacity `needed` for some
    /// model.  Returns the locality groups, each ascending, ordered by their
    /// smallest node.
    ///
    /// Capacities only grow under merging, so once no component is starved
    /// no later pair can merge: the pairs come off a heap (built in O(pairs))
    /// in sorted order only until then, and the rest are never ordered.
    fn locality_groups(&self, layer_cap: &[Vec<usize>], needed: &[usize]) -> Vec<Vec<usize>> {
        let n = self.profiles[0].cluster().num_nodes();
        let mut agglomeration = Agglomeration::new(layer_cap, needed);
        let mut pairs = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for a in 0..n {
            for b in (a + 1)..n {
                pairs.push(NodePair {
                    affinity: self.affinity(NodeId(a), NodeId(b)),
                    a: a as u32,
                    b: b as u32,
                });
            }
        }
        let mut pairs = BinaryHeap::from(pairs);
        while agglomeration.starved_roots > 0 {
            let Some(pair) = pairs.pop() else {
                break;
            };
            agglomeration.offer(pair.a as usize, pair.b as usize);
        }
        agglomeration.groups()
    }

    /// Computes the pod partition and the model assignment.
    ///
    /// # Errors
    ///
    /// Returns [`HelixError::NoPlacementFound`] if the cluster's coarse
    /// capacity cannot hold every model (so no pod partition can either), or
    /// if there are fewer feasible pods than models.
    pub fn partition(&self) -> Result<PodMap, HelixError> {
        let cluster = self.profiles[0].cluster();
        let n = cluster.num_nodes();
        let num_models = self.profiles.len();
        if n == 0 {
            return Err(HelixError::NoPlacementFound);
        }

        let (layer_cap, needed) = self.coarse_capacity();

        // --- Step 1: greedy agglomeration over the cluster graph. ---
        let mut groups = self.locality_groups(&layer_cap, &needed);

        // Fold any still-starved group into its highest-affinity neighbour
        // group until every group can hold every model.  At most one group
        // can remain starved per fold round (any two starved groups would
        // have merged above), so this loop is short.
        loop {
            let group_cap = |g: &[usize]| -> Vec<usize> {
                (0..num_models)
                    .map(|m| g.iter().map(|&v| layer_cap[m][v]).sum())
                    .collect()
            };
            let Some(weak) = groups
                .iter()
                .position(|g| (0..num_models).any(|m| group_cap(g)[m] < needed[m]))
            else {
                break;
            };
            if groups.len() == 1 {
                // The whole cluster cannot hold every model.
                return Err(HelixError::NoPlacementFound);
            }
            // Highest-affinity partner group, ties by lowest group index.
            let (mut best, mut best_aff) = (usize::MAX, f64::NEG_INFINITY);
            for (gi, g) in groups.iter().enumerate() {
                if gi == weak {
                    continue;
                }
                let aff = groups[weak]
                    .iter()
                    .flat_map(|&u| g.iter().map(move |&v| (u, v)))
                    .map(|(u, v)| self.affinity(NodeId(u), NodeId(v)))
                    .fold(f64::NEG_INFINITY, f64::max);
                if aff > best_aff {
                    best_aff = aff;
                    best = gi;
                }
            }
            let weak_nodes = groups.remove(weak);
            let best = if best > weak { best - 1 } else { best };
            groups[best].extend(weak_nodes);
            groups[best].sort_unstable();
        }

        // --- Step 2: deal each locality group into balanced pods. ---
        let strength = |v: usize| cluster.node(NodeId(v)).total_fp16_flops();
        // Pods per group: enough to respect the size cap, capped by coarse
        // capacity (every pod must hold every model), and raised globally
        // until there are at least as many pods as models.
        let k_capacity: Vec<usize> = groups
            .iter()
            .map(|group| {
                (0..num_models)
                    .map(|m| {
                        let cap: usize = group.iter().map(|&v| layer_cap[m][v]).sum();
                        (cap / needed[m].max(1)).max(1)
                    })
                    .min()
                    .unwrap_or(1)
            })
            .collect();
        let mut k_of: Vec<usize> = groups
            .iter()
            .zip(&k_capacity)
            .map(|(group, &k_cap)| {
                group
                    .len()
                    .div_ceil(self.options.max_pod_size.max(1))
                    .clamp(1, k_cap)
            })
            .collect();
        while k_of.iter().sum::<usize>() < num_models {
            // Split the group with the most nodes per pod that can still grow.
            let Some(gi) = (0..groups.len())
                .filter(|&g| k_of[g] < k_capacity[g])
                .max_by(|&x, &y| {
                    let rx = groups[x].len() as f64 / k_of[x] as f64;
                    let ry = groups[y].len() as f64 / k_of[y] as f64;
                    rx.partial_cmp(&ry)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(y.cmp(&x))
                })
            else {
                break;
            };
            k_of[gi] += 1;
        }

        let mut pods_nodes: Vec<Vec<usize>> = Vec::new();
        for (gi, group) in groups.iter().enumerate() {
            let mut k = k_of[gi];
            let mut sorted: Vec<usize> = group.clone();
            sorted.sort_by(|&a, &b| {
                strength(b)
                    .partial_cmp(&strength(a))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            // Deal strongest-first round-robin so sibling pods get comparable
            // compute; shrink k until every slice is coarsely feasible.
            loop {
                let mut slices: Vec<Vec<usize>> = vec![Vec::new(); k];
                for (i, &v) in sorted.iter().enumerate() {
                    slices[i % k].push(v);
                }
                let feasible = slices.iter().all(|s| {
                    (0..num_models)
                        .all(|m| s.iter().map(|&v| layer_cap[m][v]).sum::<usize>() >= needed[m])
                });
                if feasible || k == 1 {
                    for mut s in slices {
                        s.sort_unstable();
                        pods_nodes.push(s);
                    }
                    break;
                }
                k -= 1;
            }
        }

        if pods_nodes.len() < num_models {
            // Fewer pods than models: single-model pods cannot cover the
            // fleet.  (The hierarchical planner falls back to joint
            // annealing in this regime.)
            return Err(HelixError::NoPlacementFound);
        }

        // --- Step 3: assign models to pods, balancing compute vs demand
        // (every model weighs 1 / num_models). ---
        let weight = 1.0 / num_models as f64;
        let demand: Vec<f64> = (0..num_models)
            .map(|m| {
                let model = self.profiles[m].model();
                (weight * model.num_layers as f64 * model.layer_flops_per_token()).max(1e-9)
            })
            .collect();
        let pod_compute: Vec<f64> = pods_nodes
            .iter()
            .map(|nodes| nodes.iter().map(|&v| strength(v)).sum())
            .collect();
        let mut order: Vec<usize> = (0..pods_nodes.len()).collect();
        order.sort_by(|&a, &b| {
            pod_compute[b]
                .partial_cmp(&pod_compute[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut assigned = vec![0.0f64; num_models];
        let mut pod_model = vec![0usize; pods_nodes.len()];
        for &p in &order {
            let feasible = |m: usize| {
                pods_nodes[p]
                    .iter()
                    .map(|&v| layer_cap[m][v])
                    .sum::<usize>()
                    >= needed[m]
            };
            let m = (0..num_models)
                .filter(|&m| feasible(m))
                .min_by(|&x, &y| {
                    (assigned[x] / demand[x])
                        .partial_cmp(&(assigned[y] / demand[y]))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(x.cmp(&y))
                })
                .ok_or(HelixError::NoPlacementFound)?;
            pod_model[p] = m;
            assigned[m] += pod_compute[p];
        }

        // Every model must own at least one pod: if one came up empty (all
        // pods preferred other models — only possible with extreme demand
        // skew), give it the largest pod it can hold.
        for m in 0..num_models {
            if pod_model.contains(&m) {
                continue;
            }
            let donor = order
                .iter()
                .copied()
                .find(|&p| {
                    let others = pod_model[p];
                    // Keep the donor's current model covered elsewhere.
                    pod_model
                        .iter()
                        .enumerate()
                        .any(|(q, &qm)| q != p && qm == others)
                        && pods_nodes[p]
                            .iter()
                            .map(|&v| layer_cap[m][v])
                            .sum::<usize>()
                            >= needed[m]
                })
                .ok_or(HelixError::NoPlacementFound)?;
            pod_model[donor] = m;
        }

        let mut owner = vec![usize::MAX; n];
        let pods: Vec<Pod> = pods_nodes
            .into_iter()
            .enumerate()
            .map(|(id, nodes)| {
                for &v in &nodes {
                    owner[v] = id;
                }
                Pod {
                    id,
                    model: ModelId(pod_model[id]),
                    nodes: nodes.into_iter().map(NodeId).collect(),
                }
            })
            .collect();
        debug_assert!(owner.iter().all(|&o| o != usize::MAX));
        Ok(PodMap { pods, owner })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow_graph::FlowGraphBuilder;
    use helix_cluster::{ClusterSpec, ModelConfig};

    fn quick_options(max_partition_size: usize) -> PartitionOptions {
        PartitionOptions {
            max_partition_size,
            annealing: AnnealingOptions {
                iterations: 200,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn groups_cover_all_nodes_exactly_once_and_can_hold_the_model() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::single_cluster_24(), ModelConfig::llama_30b());
        let planner = PartitionedPlanner::new(&profile).with_options(quick_options(8));
        let groups = planner.node_groups();
        assert!(groups.len() >= 2, "24 nodes with max size 8 should split");
        let mut seen = [false; 24];
        for group in &groups {
            let capacity: usize = group
                .iter()
                .map(|&id| profile.node_profile(id).max_layers)
                .sum();
            assert!(
                capacity >= profile.model().num_layers,
                "every group must hold a full replica"
            );
            for &id in group {
                assert!(!seen[id.index()], "node {id:?} appears twice");
                seen[id.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every node belongs to a group");
    }

    #[test]
    fn region_grouping_keeps_partitions_inside_regions_when_possible() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::geo_distributed_24(), ModelConfig::llama_30b());
        let planner = PartitionedPlanner::new(&profile).with_options(quick_options(12));
        let groups = planner.node_groups();
        let cluster = profile.cluster();
        // At least one group should be entirely within a single region (the
        // A100-only region can hold LLaMA 30B by itself).
        let single_region_groups = groups
            .iter()
            .filter(|group| {
                let first = cluster.node(group[0]).region;
                group.iter().all(|&id| cluster.node(id).region == first)
            })
            .count();
        assert!(single_region_groups >= 1, "groups: {groups:?}");
    }

    #[test]
    fn solve_produces_disjoint_replicas_with_additive_throughput() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::single_cluster_24(), ModelConfig::llama_30b());
        let planner = PartitionedPlanner::new(&profile).with_options(quick_options(8));
        let plan = planner.solve().unwrap();
        assert!(plan.num_replicas() >= 2);
        let total: f64 = plan.partitions.iter().map(|p| p.throughput).sum();
        assert!(total > 0.0);

        let combined = plan.combined_placement();
        combined.validate(&profile).unwrap();
        let graph = FlowGraphBuilder::new(&profile).build(&combined).unwrap();
        let flow = graph.max_flow();
        // Disjoint replicas add up: the combined placement's max flow must be
        // at least (almost) the sum of per-partition throughputs, and each
        // partition contributes something.
        assert!(
            flow.value >= 0.95 * total,
            "combined flow {} vs partition sum {total}",
            flow.value,
        );
        for partition in &plan.partitions {
            assert!(partition.throughput > 0.0);
            assert!(partition.placement.num_assigned() >= 1);
            assert!(partition.placement.num_assigned() <= partition.nodes.len());
        }
    }

    #[test]
    fn small_clusters_collapse_to_a_single_partition() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let planner = PartitionedPlanner::new(&profile).with_options(quick_options(32));
        let groups = planner.node_groups();
        assert_eq!(groups.len(), 1);
        let plan = planner.solve().unwrap();
        assert_eq!(plan.num_replicas(), 1);
        let combined = plan.combined_placement();
        assert!(combined.has_complete_pipeline(profile.model().num_layers));
    }

    // -- pod partitioner ----------------------------------------------------

    fn fleet(cluster: ClusterSpec, models: &[ModelConfig]) -> Vec<ClusterProfile> {
        crate::fleet::fleet_profiles(&cluster, models)
    }

    #[test]
    fn pods_cover_all_nodes_exactly_once_and_hold_their_model() {
        let profiles = fleet(
            ClusterSpec::single_cluster_24(),
            &[ModelConfig::llama_30b(), ModelConfig::llama_13b()],
        );
        let map = PodPartitioner::new(&profiles).partition().unwrap();
        let cluster = profiles[0].cluster();
        let mut seen = vec![false; cluster.num_nodes()];
        for pod in map.pods() {
            let m = pod.model.index();
            let capacity: usize = pod
                .nodes
                .iter()
                .map(|&id| profiles[m].node_profile(id).max_layers)
                .sum();
            assert!(
                capacity >= profiles[m].model().num_layers,
                "pod {} cannot hold model {m}",
                pod.id
            );
            for &id in &pod.nodes {
                assert!(!seen[id.index()], "node {id:?} in two pods");
                seen[id.index()] = true;
                assert_eq!(map.pod_of(id), Some(pod.id));
            }
        }
        assert!(seen.iter().all(|&s| s), "every node belongs to a pod");
        // Every model owns at least one pod.
        for m in 0..profiles.len() {
            assert!(map.pods_for(ModelId(m)).count() >= 1);
        }
    }

    #[test]
    fn pods_respect_region_locality_on_geo_clusters() {
        let profiles = fleet(
            ClusterSpec::geo_distributed_24(),
            &[ModelConfig::llama_30b()],
        );
        let map = PodPartitioner::new(&profiles)
            .with_options(PodPartitionOptions {
                max_pod_size: 12,
                ..Default::default()
            })
            .partition()
            .unwrap();
        let cluster = profiles[0].cluster();
        // At least one pod stays entirely inside a single region: intra-region
        // affinity dominates the agglomeration order.
        let single_region = map
            .pods()
            .iter()
            .filter(|pod| {
                let first = cluster.node(pod.nodes[0]).region;
                pod.nodes.iter().all(|&id| cluster.node(id).region == first)
            })
            .count();
        assert!(single_region >= 1, "pods: {:?}", map.pods());
    }

    #[test]
    fn sibling_pods_get_balanced_compute() {
        // single_cluster_24 is one region with A100s (0-3), L4s (4-11) and
        // T4s (12-23).  Slicing it by id order would give one all-strong and
        // one all-weak pod; round-robin dealing must mix them.
        let profiles = fleet(
            ClusterSpec::single_cluster_24(),
            &[ModelConfig::llama_30b()],
        );
        let map = PodPartitioner::new(&profiles)
            .with_options(PodPartitionOptions {
                max_pod_size: 12,
                ..Default::default()
            })
            .partition()
            .unwrap();
        assert!(map.num_pods() >= 2, "24 nodes at cap 12 should split");
        let cluster = profiles[0].cluster();
        let compute: Vec<f64> = map
            .pods()
            .iter()
            .map(|p| {
                p.nodes
                    .iter()
                    .map(|&id| cluster.node(id).total_fp16_flops())
                    .sum()
            })
            .collect();
        let max = compute.iter().cloned().fold(f64::MIN, f64::max);
        let min = compute.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 1.5,
            "pod compute should be balanced, got {compute:?}"
        );
    }

    #[test]
    fn partition_is_deterministic() {
        let profiles = fleet(
            ClusterSpec::high_heterogeneity_42(),
            &[ModelConfig::llama_30b(), ModelConfig::llama_13b()],
        );
        let a = PodPartitioner::new(&profiles).partition().unwrap();
        let b = PodPartitioner::new(&profiles).partition().unwrap();
        assert_eq!(a.num_pods(), b.num_pods());
        for (pa, pb) in a.pods().iter().zip(b.pods()) {
            assert_eq!(pa.model, pb.model);
            assert_eq!(pa.nodes, pb.nodes);
        }
    }

    /// Step 1 as it ran before the heap: every pair sorted, every pair
    /// offered.
    fn locality_groups_by_sorting_every_pair(partitioner: &PodPartitioner) -> Vec<Vec<usize>> {
        let (layer_cap, needed) = partitioner.coarse_capacity();
        let n = partitioner.profiles[0].cluster().num_nodes();
        let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                pairs.push((partitioner.affinity(NodeId(a), NodeId(b)), a, b));
            }
        }
        pairs.sort_unstable_by(|x, y| {
            y.0.partial_cmp(&x.0)
                .unwrap_or(Ordering::Equal)
                .then(x.1.cmp(&y.1))
                .then(x.2.cmp(&y.2))
        });
        let mut agglomeration = Agglomeration::new(&layer_cap, &needed);
        for (_, a, b) in pairs {
            agglomeration.offer(a, b);
        }
        agglomeration.groups()
    }

    fn assert_groups_match_the_sorted_oracle(profiles: &[ClusterProfile]) -> Vec<Vec<usize>> {
        let partitioner = PodPartitioner::new(profiles);
        let (layer_cap, needed) = partitioner.coarse_capacity();
        let lazy = partitioner.locality_groups(&layer_cap, &needed);
        assert_eq!(lazy, locality_groups_by_sorting_every_pair(&partitioner));
        lazy
    }

    #[test]
    fn lazy_agglomeration_matches_sorting_every_pair_under_distinct_affinities() {
        use helix_cluster::{ClusterBuilder, GpuType, Region};
        // Three regions of weak nodes and a few hundred overridden links, so
        // that affinities take many distinct values and merges straddle
        // regions.
        let mut builder = ClusterBuilder::new("overridden")
            .intra_region(10_000.0, 1.0)
            .inter_region(150.0, 40.0)
            .add_nodes(GpuType::T4, 14, 1, Region(0))
            .add_nodes(GpuType::L4, 10, 1, Region(1))
            .add_nodes(GpuType::T4, 12, 1, Region(2));
        let mut x: u64 = 0x9E37_79B9;
        let mut draw = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        for _ in 0..400 {
            let (a, b) = (draw(36) as usize, draw(36) as usize);
            if a != b {
                let bandwidth = 50.0 + draw(20_000) as f64;
                let latency = 0.5 + draw(80) as f64;
                builder =
                    builder.override_link(Some(NodeId(a)), Some(NodeId(b)), bandwidth, latency);
            }
        }
        let profiles = fleet(builder.build(), &[ModelConfig::llama_13b()]);
        let groups = assert_groups_match_the_sorted_oracle(&profiles);
        assert!(groups.len() > 1, "{groups:?}");
    }

    #[test]
    fn lazy_agglomeration_matches_sorting_every_pair_on_1008_nodes() {
        use helix_cluster::{ClusterBuilder, GpuType, Region};
        let mut builder = ClusterBuilder::new("planet-1008")
            .intra_region(10_000.0, 1.0)
            .inter_region(150.0, 40.0);
        for r in 0..12u32 {
            builder = builder
                .add_nodes(GpuType::A100_40, 16, 1, Region(r))
                .add_nodes(GpuType::L4, 28, 1, Region(r))
                .add_nodes(GpuType::T4, 40, 1, Region(r));
        }
        let profiles = fleet(
            builder.build(),
            &[
                ModelConfig::llama_30b(),
                ModelConfig::llama_13b(),
                ModelConfig::llama2_70b(),
                ModelConfig::llama3_405b(),
            ],
        );
        // The 405B model starves every region, so the regions end as one
        // group, merged over the slow inter-region pairs.
        assert_eq!(assert_groups_match_the_sorted_oracle(&profiles).len(), 1);
    }

    #[test]
    fn infeasible_fleet_is_rejected() {
        // A tiny cluster cannot hold a 175B model at all.
        let profiles = fleet(
            ClusterSpec::solver_quality_10(),
            &[ModelConfig::gpt3_175b()],
        );
        assert!(matches!(
            PodPartitioner::new(&profiles).partition(),
            Err(HelixError::NoPlacementFound)
        ));
    }
}
