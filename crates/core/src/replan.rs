//! The feedback half of the online re-planning loop: observations flowing
//! from an execution surface's engine rows back into
//! the fleet planner, placement deltas describing what should change, and the
//! policy deciding *when* the loop fires.
//!
//! The paper's max-flow formulation is solved once, offline; real clusters
//! drift — GPUs throttle, nodes drop, tenant mixes shift.  This module holds
//! the types every layer of the loop shares:
//!
//! * [`NodeObservations`] — measured per-(node, model) behaviour.  The key
//!   quantity is the **speed factor**: the ratio of model-predicted batch
//!   time to measured batch time over an observation window.  A healthy
//!   engine sits at 1.0; a thermally throttled GPU at 0.5.  When present, the
//!   speed factor overrides the analytic `compute_share` in
//!   [`FleetTopology`](crate::FleetTopology) so planning scores placements
//!   against the cluster as it *is*, not as the data sheet promised.
//! * [`PlacementDelta`] — a sparse set of per-model layer-range changes
//!   (assign / remove / **migrate**), the unit of mutation
//!   [`FleetTopology::replan`](crate::FleetTopology::replan) accepts.  A
//!   [`KvMigration`] expresses "move layers 10–14 of model 0 from node A to
//!   node B, with their KV state"; the execution surfaces turn it into an
//!   actual KV-page transfer priced by the [`KvTransferModel`].
//! * [`ReplanPolicy`] — threshold-plus-cooldown trigger shared by the
//!   simulator's coordinator loop and the runtime's coordinator thread, so
//!   both surfaces fire the loop under identical conditions.
//! * [`ReplanRecord`] / [`ReplanOutcome`] — what happened and why, for run
//!   reports and tests.
//! * [`PerturbationEvent`] — what can happen to a cluster mid-run (a slowdown,
//!   a failure, an outage, a rejoin, a manual re-plan), the one input both
//!   surfaces' sessions schedule.

use crate::error::HelixError;
use crate::fleet::FleetPlacement;
use crate::placement::LayerRange;
use helix_cluster::{ModelId, NodeId, Region};
use std::collections::BTreeMap;

/// Lower clamp on observed speed factors: even a node measured as stalled
/// keeps a sliver of planned capacity so flow solves stay numerically sane.
pub const MIN_SPEED_FACTOR: f64 = 0.01;

/// Upper clamp on observed speed factors: measurements never *increase* a
/// node's planned share beyond the analytic model (overclaiming capacity on a
/// noisy window would oscillate the planner).
pub const MAX_SPEED_FACTOR: f64 = 1.0;

/// One observation window's measurement of a (node, model) engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeObservation {
    /// Tokens/s the engine sustained while busy (prompt + decode tokens over
    /// busy seconds).  Informational; load-dependent.
    pub busy_throughput: f64,
    /// Delivered fraction of modeled capacity: predicted batch seconds over
    /// measured batch seconds for the window.  `1.0` = exactly as planned,
    /// `0.5` = batches took twice as long as the cost model predicted.
    pub speed: f64,
    /// Fraction of the observation window the engine spent executing batches.
    /// Low-occupancy windows carry little signal (an idle engine measures
    /// nothing) and are ignored by [`ReplanPolicy`].
    pub occupancy: f64,
}

impl NodeObservation {
    /// The speed factor clamped to the range planning accepts.
    fn speed_factor(&self) -> f64 {
        if self.speed.is_finite() {
            self.speed.clamp(MIN_SPEED_FACTOR, MAX_SPEED_FACTOR)
        } else {
            MAX_SPEED_FACTOR
        }
    }
}

/// Measured per-(node, model) behaviour reported by an execution surface.
///
/// Deterministically ordered (BTreeMap) so re-planning from identical
/// observations is bit-reproducible.
///
/// # Example
///
/// ```rust
/// use helix_cluster::{ModelId, NodeId};
/// use helix_core::replan::NodeObservations;
///
/// let mut obs = NodeObservations::new();
/// obs.record(NodeId(3), ModelId(0), 120.0, 0.5, 0.9);
/// assert_eq!(obs.speed_factor(NodeId(3), ModelId(0)), Some(0.5));
/// assert_eq!(obs.speed_factor(NodeId(0), ModelId(0)), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeObservations {
    observations: BTreeMap<(NodeId, ModelId), NodeObservation>,
}

impl NodeObservations {
    /// An empty observation set (planning falls back to analytic shares).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one window's measurement for a (node, model) engine,
    /// replacing any previous observation for the pair.
    pub fn record(
        &mut self,
        node: NodeId,
        model: ModelId,
        busy_throughput: f64,
        speed: f64,
        occupancy: f64,
    ) {
        self.observations.insert(
            (node, model),
            NodeObservation {
                busy_throughput,
                speed,
                occupancy,
            },
        );
    }

    /// The stored observation for a pair.
    fn get(&self, node: NodeId, model: ModelId) -> Option<&NodeObservation> {
        self.observations.get(&(node, model))
    }

    /// The clamped speed factor for a pair, if observed.
    pub fn speed_factor(&self, node: NodeId, model: ModelId) -> Option<f64> {
        self.get(node, model).map(NodeObservation::speed_factor)
    }

    /// Iterates all observations in deterministic (node, model) order.
    fn iter(&self) -> impl Iterator<Item = (NodeId, ModelId, &NodeObservation)> + '_ {
        self.observations
            .iter()
            .map(|(&(node, model), obs)| (node, model, obs))
    }
}

/// Turns cumulative per-(node, model) engine counters into windowed
/// [`NodeObservations`] — the measurement half of the loop, shared verbatim
/// by the simulator's observation ticks and the runtime coordinator's
/// checks so the two surfaces can never measure differently.
///
/// Feed each engine's *cumulative* predicted busy seconds, actual busy
/// seconds and processed tokens once per window; the accumulator keeps the
/// previous window's marks and emits the delta as an observation.  An engine
/// idle for the whole window measures nothing, so the speed the current plan
/// already priced in (`planned`) is carried forward at zero occupancy — a
/// node the re-planner routed around keeps its measured price instead of
/// snapping back to the analytic one.
#[derive(Debug, Clone, Default)]
pub struct ObservationWindows {
    /// Cumulative counters per pair at the last window boundary.
    marks: BTreeMap<(NodeId, ModelId), EngineCounters>,
}

/// One engine's *cumulative* counters, as either surface reads them off its
/// [`NodeEngine`](crate::NodeEngine) rows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineCounters {
    /// Busy seconds the execution cost model predicted for all batches run.
    pub nominal_busy_secs: f64,
    /// Busy seconds actually spent (perturbations included).
    pub busy_secs: f64,
    /// Prompt + decode tokens processed.
    pub tokens: u64,
}

impl ObservationWindows {
    /// An accumulator with no marks (the first window measures from zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Measures one engine's window from its cumulative counters into `out`.
    pub fn measure(
        &mut self,
        out: &mut NodeObservations,
        node: NodeId,
        model: ModelId,
        counters: EngineCounters,
        window_secs: f64,
        planned: &NodeObservations,
    ) {
        let prev = self
            .marks
            .insert((node, model), counters)
            .unwrap_or_default();
        let nominal = counters.nominal_busy_secs - prev.nominal_busy_secs;
        let busy = counters.busy_secs - prev.busy_secs;
        let window_tokens = counters.tokens.saturating_sub(prev.tokens);
        if busy <= 1e-9 {
            if let Some(prev) = planned.get(node, model) {
                out.record(node, model, prev.busy_throughput, prev.speed, 0.0);
            }
            return;
        }
        out.record(
            node,
            model,
            window_tokens as f64 / busy,
            nominal / busy,
            (busy / window_secs.max(1e-9)).min(1.0),
        );
    }
}

/// "Move these layers of this model from node A to node B, with their KV
/// state" — the unit of partial-layer migration.
///
/// The moved range must sit at an **edge** of the source node's current range
/// (prefix, suffix or the whole range), so the remainder stays contiguous;
/// on the destination it must either start a new range or merge contiguously
/// with an existing one.  [`PlacementDelta::resolve`] checks both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvMigration {
    /// The model whose layers move.
    pub model: ModelId,
    /// The node giving the layers (and their KV pages) up.
    pub from: NodeId,
    /// The node receiving them.
    pub to: NodeId,
    /// The moved layer sub-range.
    pub layers: LayerRange,
}

/// A sparse placement mutation: per-model layer-range changes to apply on top
/// of a fleet's current placement.
///
/// Explicit [`assign`](Self::assign)/[`remove`](Self::remove) changes apply
/// first, in insertion order; [`migrate`](Self::migrate) moves resolve
/// afterwards against the resulting placement (see
/// [`resolve`](Self::resolve)).
///
/// # Example
///
/// ```rust
/// use helix_cluster::{ModelId, NodeId};
/// use helix_core::replan::PlacementDelta;
/// use helix_core::LayerRange;
///
/// let delta = PlacementDelta::new()
///     .assign(ModelId(0), NodeId(2), LayerRange::new(0, 8))
///     .remove(ModelId(1), NodeId(5));
/// assert_eq!(delta.touched_nodes(), vec![NodeId(2), NodeId(5)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlacementDelta {
    /// The raw change list in insertion order (later entries win).
    changes: Vec<(ModelId, NodeId, Option<LayerRange>)>,
    migrations: Vec<KvMigration>,
}

impl PlacementDelta {
    /// An empty delta (placements unchanged; re-planning still re-derives
    /// shares for nodes whose observations changed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an assignment: `model` holds `range` on `node` after the delta.
    #[must_use]
    pub fn assign(mut self, model: ModelId, node: NodeId, range: LayerRange) -> Self {
        self.changes.push((model, node, Some(range)));
        self
    }

    /// Adds a removal: `model` no longer holds layers on `node`.
    #[must_use]
    pub fn remove(mut self, model: ModelId, node: NodeId) -> Self {
        self.changes.push((model, node, None));
        self
    }

    /// Adds a removal of `node` from *every* model of an `n`-model fleet —
    /// the node-failure delta.
    #[must_use]
    pub fn remove_node(mut self, node: NodeId, num_models: usize) -> Self {
        for m in 0..num_models {
            self.changes.push((ModelId(m), node, None));
        }
        self
    }

    /// Adds a partial-layer migration: `layers` of `model` move from `from`
    /// to `to` together with their KV state.  The placement mutation it
    /// implies is computed by [`resolve`](Self::resolve) against the fleet's
    /// current placement; the execution surfaces additionally move the KV
    /// pages and charge the transfer to the `from → to` link.
    #[must_use]
    pub fn migrate(mut self, model: ModelId, from: NodeId, to: NodeId, layers: LayerRange) -> Self {
        self.migrations.push(KvMigration {
            model,
            from,
            to,
            layers,
        });
        self
    }

    /// The migration moves of the delta, in insertion order.
    pub fn migrations(&self) -> &[KvMigration] {
        &self.migrations
    }

    /// Whether the delta contains no placement change.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty() && self.migrations.is_empty()
    }

    /// The distinct nodes the delta touches, sorted (migration endpoints
    /// included).
    pub fn touched_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.changes.iter().map(|&(_, n, _)| n).collect();
        for m in &self.migrations {
            nodes.push(m.from);
            nodes.push(m.to);
        }
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// The distinct models the delta touches, sorted (migrated models
    /// included).
    pub fn models(&self) -> Vec<ModelId> {
        let mut models: Vec<ModelId> = self.changes.iter().map(|&(m, _, _)| m).collect();
        models.extend(self.migrations.iter().map(|m| m.model));
        models.sort();
        models.dedup();
        models
    }

    /// Resolves the delta against a concrete placement into the full,
    /// explicit change list: the raw assignments and removals followed by
    /// the placement mutations each migration implies (source range shrunk
    /// from the moved edge, destination range created or merged).
    ///
    /// Applying the returned list to `base` yields exactly the placement a
    /// from-scratch plan of the post-migration fleet would use — the
    /// bit-identity contract of
    /// [`FleetTopology::replan`](crate::FleetTopology::replan) rests on this.
    ///
    /// # Errors
    ///
    /// Returns [`HelixError::InvalidMigration`] when the source does not hold
    /// the moved layers, the moved range is strictly interior to the source
    /// range (the remainder would not be contiguous), the destination holds a
    /// range the moved one cannot merge with contiguously, or `from == to`.
    pub fn resolve(
        &self,
        base: &FleetPlacement,
    ) -> Result<Vec<(ModelId, NodeId, Option<LayerRange>)>, HelixError> {
        let mut resolved = self.changes.clone();
        let mut placements = base.placements().to_vec();
        for &(model, node, range) in &self.changes {
            if let Some(p) = placements.get_mut(model.index()) {
                match range {
                    Some(r) => p.assign(node, r),
                    None => p.clear(node),
                }
            }
        }
        for migration in &self.migrations {
            let KvMigration {
                model,
                from,
                to,
                layers,
            } = *migration;
            let invalid = |why: &'static str| HelixError::InvalidMigration {
                model,
                from,
                to,
                layers,
                why,
            };
            if from == to {
                return Err(invalid("source and destination are the same node"));
            }
            let placement = placements
                .get_mut(model.index())
                .ok_or_else(|| invalid("the fleet does not serve this model"))?;
            let held = placement
                .range(from)
                .ok_or_else(|| invalid("the source node holds no layers of this model"))?;
            if layers.start < held.start || layers.end > held.end {
                return Err(invalid("the source node does not hold the moved layers"));
            }
            let remainder = if layers == held {
                None
            } else if layers.start == held.start {
                Some(LayerRange::new(layers.end, held.end))
            } else if layers.end == held.end {
                Some(LayerRange::new(held.start, layers.start))
            } else {
                return Err(invalid(
                    "the moved range is interior to the source range; the remainder would not be contiguous",
                ));
            };
            let merged = match placement.range(to) {
                None => layers,
                Some(existing) if layers.end >= existing.start && existing.end >= layers.start => {
                    LayerRange::new(
                        existing.start.min(layers.start),
                        existing.end.max(layers.end),
                    )
                }
                Some(_) => return Err(invalid(
                    "the destination holds a range the moved layers cannot merge with contiguously",
                )),
            };
            match remainder {
                Some(r) => placement.assign(from, r),
                None => placement.clear(from),
            }
            placement.assign(to, merged);
            resolved.push((model, from, remainder));
            resolved.push((model, to, Some(merged)));
        }
        Ok(resolved)
    }
}

/// When the re-planning loop fires: observed-vs-planned throughput gap above
/// a threshold, subject to a cooldown and a minimum-occupancy filter.
///
/// The same policy instance drives the simulator and the runtime, so the two
/// surfaces react identically to identical drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplanPolicy {
    /// Seconds between observation windows / policy checks.
    pub check_interval_secs: f64,
    /// Relative shortfall that triggers a re-plan: fire when some engine's
    /// speed factor drops below `1 - gap_threshold`.
    pub gap_threshold: f64,
    /// Minimum seconds between two re-plans (lets the previous hand-over
    /// settle and keeps measurement noise from thrashing the placement).
    pub cooldown_secs: f64,
    /// Ignore observations from engines busy less than this fraction of the
    /// window (idle engines measure nothing).
    pub min_occupancy: f64,
}

impl Default for ReplanPolicy {
    fn default() -> Self {
        ReplanPolicy {
            check_interval_secs: 10.0,
            gap_threshold: 0.25,
            cooldown_secs: 30.0,
            min_occupancy: 0.05,
        }
    }
}

impl ReplanPolicy {
    /// Whether the cooldown since the previous re-plan has elapsed at `now`.
    fn cooldown_elapsed(&self, now: f64, last_replan: Option<f64>) -> bool {
        last_replan.is_none_or(|t| now - t >= self.cooldown_secs)
    }

    /// Decides whether the measured engine speeds warrant a re-plan at
    /// `now`.  The gap is **observed vs planned**: each measurement is
    /// compared against the speed the current plan already priced in
    /// (`planned`, the fleet's stored observation snapshot; pairs absent
    /// there are planned at the analytic 1.0).  The loop therefore fires
    /// when reality drifts away from the *plan* — in either direction, so a
    /// recovered node gets its capacity re-priced back up — and goes quiet
    /// once a re-plan has absorbed the drift, instead of re-firing forever
    /// on a node that is slow but already priced as slow.
    ///
    /// Returns the worst offending (node, model, measured speed factor), or
    /// `None` when every sufficiently-busy engine is within the threshold of
    /// its planned speed or the cooldown has not elapsed.
    pub fn should_replan(
        &self,
        observed: &NodeObservations,
        planned: &NodeObservations,
        now: f64,
        last_replan: Option<f64>,
    ) -> Option<(NodeId, ModelId, f64)> {
        if !self.cooldown_elapsed(now, last_replan) {
            return None;
        }
        let mut worst: Option<(NodeId, ModelId, f64, f64)> = None;
        for (node, model, obs) in observed.iter() {
            if obs.occupancy < self.min_occupancy {
                continue;
            }
            let speed = obs.speed_factor();
            let expected = planned.speed_factor(node, model).unwrap_or(1.0);
            let ratio = speed / expected.max(MIN_SPEED_FACTOR);
            // Symmetric deviation score: 0 on plan, grows either way.
            let score = ratio.max(1.0 / ratio.max(1e-12)) - 1.0;
            let threshold = self.gap_threshold / (1.0 - self.gap_threshold).max(1e-9);
            if score > threshold && worst.is_none_or(|(_, _, _, worst_score)| score > worst_score) {
                worst = Some((node, model, speed, score));
            }
        }
        worst.map(|(node, model, speed, _)| (node, model, speed))
    }
}

/// Why a re-plan fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplanReason {
    /// An engine's observed speed factor fell below the policy threshold.
    ThroughputGap {
        /// The worst offending node.
        node: NodeId,
        /// The model whose engine measured the gap.
        model: ModelId,
        /// Its observed speed factor.
        speed: f64,
    },
    /// A node dropped out of the cluster.
    NodeFailure {
        /// The failed node.
        node: NodeId,
    },
    /// Every node of a region dropped out at once (power or backbone
    /// failure); the re-plan removed the whole region from the placement.
    RegionOutage {
        /// The failed region.
        region: Region,
    },
    /// A previously failed node came back (flap rejoin / partition heal);
    /// the re-plan handed its pre-failure layer ranges back to it.
    NodeRejoin {
        /// The rejoining node.
        node: NodeId,
    },
    /// The caller requested the re-plan explicitly.
    Manual,
}

/// One entry of a run's re-plan log.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanRecord {
    /// Virtual time the re-plan was applied.
    pub at: f64,
    /// What triggered it.
    pub reason: ReplanReason,
    /// Models whose topology was re-solved.
    pub affected: Vec<ModelId>,
    /// Fleet-total planned throughput (tokens/s) after the re-plan.
    pub planned_flow: f64,
}

/// A scripted mid-run change to the cluster — the scenarios the online
/// re-planning loop exists to absorb — in the one vocabulary both serving
/// surfaces take through their session's `schedule`, and
/// [`Actuator::perturb`](crate::Actuator::perturb) applies.
///
/// Each is one primitive step at one instant, `at`, a reading of the
/// surface's clock (virtual seconds): one timed at or before the clock's
/// reading happens at that reading.  A disturbance with a duration is two
/// steps, such as [`PerturbationEvent::NodeSlowdown`] and a later
/// [`PerturbationEvent::NodeRecovery`]; a flapping node is a
/// [`PerturbationEvent::NodeFailure`] and a later
/// [`PerturbationEvent::NodeRejoin`]; a healed partition is a
/// [`PerturbationEvent::RegionOutage`] and one rejoin per node of the region.
#[derive(Debug, Clone, PartialEq)]
pub enum PerturbationEvent {
    /// The node's batches start taking `factor`× the cost model's prediction
    /// (thermal throttling, a noisy co-tenant, a failing NIC…), on its rows
    /// present and future.  The surfaces *measure* the gap; a policy reacts
    /// to the measurement, never to the injected value.
    NodeSlowdown {
        /// When the slowdown begins.
        at: f64,
        /// The affected node.
        node: NodeId,
        /// Duration multiplier (`2.0` = half speed).
        factor: f64,
    },
    /// The node returns to nominal speed.
    NodeRecovery {
        /// When the recovery happens.
        at: f64,
        /// The recovered node.
        node: NodeId,
    },
    /// The node drops out: its rows stop, in-flight pipelines through it
    /// are promoted onto their replicas or aborted and re-admitted, and an
    /// immediate re-plan removes it from every model's placement.
    NodeFailure {
        /// When the node fails.
        at: f64,
        /// The failed node.
        node: NodeId,
    },
    /// Every node of `region` drops out at once — a power or backbone
    /// failure taking a whole regional cluster down — with **one** re-plan
    /// removing the whole region (per-node re-plans would thrash, and an
    /// intermediate single-node removal may be infeasible even when the
    /// full-region removal is not).
    RegionOutage {
        /// When the region fails.
        at: f64,
        /// The failed region (nodes resolved against the fleet's cluster
        /// spec when it happens).
        region: Region,
    },
    /// A failed node comes back: its rows recover, and the planner hands it
    /// back the layer ranges it held when it failed (a no-op for a node that
    /// never left the plan).
    NodeRejoin {
        /// When the node rejoins.
        at: f64,
        /// The rejoining node.
        node: NodeId,
    },
    /// The standing placement re-plans with `delta` ([`ReplanReason::Manual`]):
    /// each migration's KV pages travel its `from → to` link as modelled
    /// traffic while both rows freeze the moved range (in-flight pipelines
    /// keep their routes), and a tenancy the delta adds gets a row in
    /// service.  An infeasible delta leaves the standing plan serving.
    Replan {
        /// When the re-plan is applied.
        at: f64,
        /// The placement change.
        delta: PlacementDelta,
    },
}

impl PerturbationEvent {
    /// When the perturbation takes effect.
    pub fn at(&self) -> f64 {
        match *self {
            PerturbationEvent::NodeSlowdown { at, .. }
            | PerturbationEvent::NodeRecovery { at, .. }
            | PerturbationEvent::NodeFailure { at, .. }
            | PerturbationEvent::RegionOutage { at, .. }
            | PerturbationEvent::NodeRejoin { at, .. }
            | PerturbationEvent::Replan { at, .. } => at,
        }
    }
}

/// The analytic cost model of one KV-state transfer, shared by the simulator
/// and the runtime so the two surfaces price a migration identically.
///
/// KV state moves at page granularity: the tokens resident for the moved
/// layers occupy `⌈tokens / tokens_per_page⌉` pages, each page holds
/// `tokens_per_page × moved_layers × kv_bytes_per_token_per_layer` bytes, and
/// the transfer ships `bytes = pages × page size` over the inter-node link,
/// where each surface's link queue prices it (`LinkQueue`, queued behind
/// activation traffic like any other bytes).
///
/// # Example
///
/// ```rust
/// use helix_core::replan::KvTransferModel;
///
/// let model = KvTransferModel::new(1024.0, 16);
/// assert_eq!(model.pages(100.0), 7); // ceil(100 / 16)
/// let bytes = model.bytes(100.0, 5); // 7 pages x 16 tokens x 5 layers x 1 KiB
/// assert_eq!(bytes, 7.0 * 16.0 * 5.0 * 1024.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvTransferModel {
    /// KV bytes one cached token occupies per model layer.
    pub kv_bytes_per_token_per_layer: f64,
    /// Tokens per KV page (the paging granularity of the transfer).
    pub tokens_per_page: usize,
}

impl KvTransferModel {
    /// Builds the model from the fleet model's KV geometry.
    pub fn new(kv_bytes_per_token_per_layer: f64, tokens_per_page: usize) -> Self {
        KvTransferModel {
            kv_bytes_per_token_per_layer,
            tokens_per_page: tokens_per_page.max(1),
        }
    }

    /// Pages occupied by `tokens` resident tokens.
    pub fn pages(&self, tokens: f64) -> u64 {
        (tokens.max(0.0) / self.tokens_per_page as f64).ceil() as u64
    }

    /// Bytes one full page holds for `layers` moved layers.
    pub fn page_bytes(&self, layers: usize) -> f64 {
        self.tokens_per_page as f64 * layers as f64 * self.kv_bytes_per_token_per_layer
    }

    /// Bytes the transfer ships: pages × page size.
    pub fn bytes(&self, tokens: f64, layers: usize) -> f64 {
        self.pages(tokens) as f64 * self.page_bytes(layers)
    }
}

/// One completed KV-state transfer, as logged by an execution surface.
#[derive(Debug, Clone, PartialEq)]
pub struct KvTransferRecord {
    /// Virtual time the transfer completed at the destination.
    pub at: f64,
    /// The migration the transfer belonged to.
    pub migration: KvMigration,
    /// KV tokens moved.
    pub tokens: f64,
    /// KV pages moved.
    pub pages: u64,
    /// Bytes shipped over the `from → to` link (pages × page size).
    pub bytes: f64,
    /// Seconds the hand-over took, start of freeze to resume.
    pub transfer_secs: f64,
}

/// What [`FleetTopology::replan`](crate::FleetTopology::replan) did: which
/// models the change affects and the flow value of each one's new plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanOutcome {
    /// Models whose shares, placement or link split changed; every other
    /// model's topology comes out of the re-plan bit-identical.
    pub affected: Vec<ModelId>,
    /// Max-flow value per affected model, in `affected` order: the
    /// `flow_value()` of the model's new
    /// [`Topology`](crate::Topology).  No warm solve produces it; the name
    /// survives only because the frozen harness (`perf/src/surface.rs`)
    /// reads the field.
    pub warm_flow_values: Vec<f64>,
    /// The partial-layer migrations the applied delta carried — the KV
    /// hand-overs the execution surface now owes (planning itself moves no
    /// state).
    pub migrations: Vec<KvMigration>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_factor_is_clamped_and_nan_safe() {
        let obs = NodeObservation {
            busy_throughput: 10.0,
            speed: 2.5,
            occupancy: 1.0,
        };
        assert_eq!(obs.speed_factor(), MAX_SPEED_FACTOR);
        let stalled = NodeObservation { speed: 0.0, ..obs };
        assert_eq!(stalled.speed_factor(), MIN_SPEED_FACTOR);
        let nan = NodeObservation {
            speed: f64::NAN,
            ..obs
        };
        assert_eq!(nan.speed_factor(), MAX_SPEED_FACTOR);
    }

    #[test]
    fn observations_record_and_iterate_deterministically() {
        let mut obs = NodeObservations::new();
        obs.record(NodeId(5), ModelId(1), 50.0, 0.8, 0.5);
        obs.record(NodeId(1), ModelId(0), 100.0, 0.4, 0.9);
        obs.record(NodeId(5), ModelId(1), 55.0, 0.9, 0.6); // replaces
        assert_eq!(obs.observations.len(), 2);
        let order: Vec<_> = obs.iter().map(|(n, m, _)| (n, m)).collect();
        assert_eq!(
            order,
            vec![(NodeId(1), ModelId(0)), (NodeId(5), ModelId(1))]
        );
        assert_eq!(obs.speed_factor(NodeId(5), ModelId(1)), Some(0.9));
        assert_eq!(obs.get(NodeId(2), ModelId(1)), None);
    }

    #[test]
    fn delta_collects_touched_nodes_and_models() {
        let delta = PlacementDelta::new()
            .assign(ModelId(1), NodeId(4), LayerRange::new(0, 2))
            .remove(ModelId(0), NodeId(4))
            .remove_node(NodeId(2), 2);
        assert_eq!(delta.touched_nodes(), vec![NodeId(2), NodeId(4)]);
        assert_eq!(delta.models(), vec![ModelId(0), ModelId(1)]);
        assert_eq!(delta.changes.len(), 4);
        assert!(!delta.is_empty());
        assert!(PlacementDelta::new().is_empty());
    }

    #[test]
    fn migrations_resolve_to_edge_moves_and_reject_interior_ones() {
        use crate::placement::ModelPlacement;
        let mut a = ModelPlacement::empty(4);
        a.assign(NodeId(0), LayerRange::new(0, 8));
        a.assign(NodeId(1), LayerRange::new(8, 16));
        let base = FleetPlacement::new(vec![a]);

        // Suffix move onto an empty node.
        let delta =
            PlacementDelta::new().migrate(ModelId(0), NodeId(0), NodeId(2), LayerRange::new(4, 8));
        let resolved = delta.resolve(&base).unwrap();
        assert_eq!(
            resolved,
            vec![
                (ModelId(0), NodeId(0), Some(LayerRange::new(0, 4))),
                (ModelId(0), NodeId(2), Some(LayerRange::new(4, 8))),
            ]
        );
        assert_eq!(delta.touched_nodes(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(delta.models(), vec![ModelId(0)]);
        assert!(!delta.is_empty());

        // Prefix move merging contiguously with the destination's range.
        let delta =
            PlacementDelta::new().migrate(ModelId(0), NodeId(0), NodeId(1), LayerRange::new(4, 8));
        let resolved = delta.resolve(&base).unwrap();
        assert_eq!(
            resolved,
            vec![
                (ModelId(0), NodeId(0), Some(LayerRange::new(0, 4))),
                (ModelId(0), NodeId(1), Some(LayerRange::new(4, 16))),
            ]
        );

        // Whole-range move clears the source.
        let delta =
            PlacementDelta::new().migrate(ModelId(0), NodeId(0), NodeId(3), LayerRange::new(0, 8));
        let resolved = delta.resolve(&base).unwrap();
        assert_eq!(resolved[0], (ModelId(0), NodeId(0), None));

        // Interior moves, foreign layers, non-contiguous merges and self
        // moves are rejected.
        for bad in [
            PlacementDelta::new().migrate(ModelId(0), NodeId(0), NodeId(2), LayerRange::new(2, 6)),
            PlacementDelta::new().migrate(ModelId(0), NodeId(0), NodeId(2), LayerRange::new(6, 10)),
            PlacementDelta::new().migrate(ModelId(0), NodeId(0), NodeId(1), LayerRange::new(0, 4)),
            PlacementDelta::new().migrate(ModelId(0), NodeId(0), NodeId(0), LayerRange::new(0, 4)),
            PlacementDelta::new().migrate(ModelId(0), NodeId(2), NodeId(3), LayerRange::new(0, 4)),
        ] {
            assert!(matches!(
                bad.resolve(&base),
                Err(HelixError::InvalidMigration { .. })
            ));
        }
    }

    #[test]
    fn kv_transfer_model_prices_pages_and_bytes() {
        let model = KvTransferModel::new(100.0, 16);
        assert_eq!(model.pages(0.0), 0);
        assert_eq!(model.pages(1.0), 1);
        assert_eq!(model.pages(16.0), 1);
        assert_eq!(model.pages(17.0), 2);
        assert_eq!(model.page_bytes(5), 16.0 * 5.0 * 100.0);
        assert_eq!(model.bytes(17.0, 5), 2.0 * 16.0 * 5.0 * 100.0);
        assert_eq!(KvTransferModel::new(100.0, 0).tokens_per_page, 1);
    }

    #[test]
    fn policy_fires_on_gap_and_respects_cooldown_and_occupancy() {
        let policy = ReplanPolicy::default();
        let planned = NodeObservations::new();
        let mut obs = NodeObservations::new();
        // Healthy engine: no trigger.
        obs.record(NodeId(0), ModelId(0), 100.0, 0.95, 0.8);
        assert_eq!(policy.should_replan(&obs, &planned, 100.0, None), None);
        // Degraded but idle: still no trigger.
        obs.record(NodeId(1), ModelId(0), 1.0, 0.4, 0.01);
        assert_eq!(policy.should_replan(&obs, &planned, 100.0, None), None);
        // Degraded and busy: triggers; the worst offender is reported.
        obs.record(NodeId(2), ModelId(1), 60.0, 0.6, 0.9);
        obs.record(NodeId(3), ModelId(0), 30.0, 0.3, 0.9);
        assert_eq!(
            policy.should_replan(&obs, &planned, 100.0, None),
            Some((NodeId(3), ModelId(0), 0.3))
        );
        // Cooldown suppresses the trigger, then releases it.
        assert_eq!(
            policy.should_replan(&obs, &planned, 100.0, Some(90.0)),
            None
        );
        assert!(policy
            .should_replan(&obs, &planned, 90.0 + policy.cooldown_secs, Some(90.0))
            .is_some());
        assert!(policy.cooldown_elapsed(200.0, Some(90.0)));
    }

    #[test]
    fn policy_measures_the_gap_against_the_plan_not_the_analytic_model() {
        let policy = ReplanPolicy::default();
        let mut planned = NodeObservations::new();
        let mut obs = NodeObservations::new();
        // A node already priced at half speed, still measuring half speed:
        // reality matches the plan, so the loop stays quiet.
        planned.record(NodeId(3), ModelId(0), 30.0, 0.5, 0.9);
        obs.record(NodeId(3), ModelId(0), 30.0, 0.5, 0.9);
        assert_eq!(policy.should_replan(&obs, &planned, 100.0, None), None);
        // The node recovers to full speed: the upward drift fires the loop
        // so its capacity is re-priced back up.
        obs.record(NodeId(3), ModelId(0), 60.0, 1.0, 0.9);
        assert_eq!(
            policy.should_replan(&obs, &planned, 100.0, None),
            Some((NodeId(3), ModelId(0), 1.0))
        );
    }
}
