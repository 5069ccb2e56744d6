//! The front tier of a fleet of fleets: routing, membership, rebalancing.
//!
//! ROADMAP item 2's region-sharded control plane splits into a planner half
//! (`HierarchicalFleetPlanner` pods, PR 7) and a serving half: N regional
//! clusters, each with its own coordinator and session, behind one front
//! tier.  This module holds the front tier's *mechanism* — pure, surface-
//! independent state machines the facade's `MultiRegionSession` drives:
//!
//! * [`RegionRing`] — consistent hashing with virtual nodes maps request
//!   keys to regions; health-weighted so sick regions shed new traffic
//!   without reshuffling the healthy ones.
//! * [`RegionDirectory`] — discovery/membership: regions register,
//!   heartbeat, and are classified [`RegionHealth::Healthy`] /
//!   [`Degraded`](RegionHealth::Degraded) / [`Down`](RegionHealth::Down);
//!   health feeds ring re-weighting
//!   ([`RegionDirectory::routing_weights`]).
//! * [`RegionRebalancer`] / [`RegionTransferPricer`] — when a region goes
//!   down or load skews, plan which prefix-affinity entries move where, and
//!   price the resulting KV shipments over the inter-region link with the
//!   same [`KvTransferModel`](crate::KvTransferModel) arithmetic intra-
//!   region migrations use.

mod membership;
mod rebalance;
mod ring;

pub use membership::{
    RegionDirectory, RegionHealth, RegionInfo, DEGRADED_AFTER_MISSED, DOWN_AFTER_MISSED,
    HEARTBEAT_INTERVAL_SECS,
};
pub use rebalance::{
    InterRegionLink, RebalanceMove, RebalanceOptions, RegionLoad, RegionRebalancer,
    RegionTransferPricer, RegionTransferRecord,
};
pub use ring::{stable_hash64, RegionRing, RingOptions};
