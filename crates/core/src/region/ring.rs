//! Consistent-hash ring over regions, with virtual nodes and health weights.
//!
//! The front tier maps every request to one regional cluster.  A consistent
//! hash keeps the mapping stable as regions come and go: each region owns
//! 64 pseudo-random points (virtual nodes) on a `u64` ring, and a key routes
//! to the region owning the first point at or after the key's hash (wrapping).
//! Removing a region only re-routes the keys it owned; adding one only steals
//! a proportional slice from each survivor — no global reshuffle, so prefix
//! affinity and per-region KV residency survive membership churn.
//!
//! Weights in `[0, 1]` scale a region's virtual-node count: a Degraded region
//! keeps a reduced share of new traffic, a Down region (weight 0) drops off
//! the ring entirely.  Everything is deterministic — the same seed, regions
//! and weights always produce the bit-identical ring.

use helix_cluster::Region;
use std::collections::BTreeMap;

/// SplitMix64 finaliser: a fast, high-quality 64-bit mixing function.  Used
/// instead of `std`'s `DefaultHasher` because the ring must be reproducible
/// across processes and Rust versions (`DefaultHasher` makes no such
/// promise, and bit-identical region maps are part of the contract).
pub fn stable_hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Virtual nodes per full-weight region.  More virtual nodes smooth the key
/// distribution (the classic consistent-hashing variance argument) at a small
/// lookup cost; 64 keeps the per-region share within a few percent of fair
/// for realistic region counts.
const VNODES_PER_REGION: usize = 64;

/// Tuning knobs of a [`RegionRing`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingOptions {
    /// Seed mixed into every ring position, so independent deployments
    /// shuffle differently while any one deployment is reproducible.
    pub seed: u64,
}

impl Default for RingOptions {
    fn default() -> Self {
        RingOptions {
            seed: 0x0048_454C_4958_u64, // "HELIX"
        }
    }
}

/// A consistent-hash ring mapping `u64` keys to [`Region`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionRing {
    options: RingOptions,
    /// Routing weight per region, clamped to `[0, 1]`.
    weights: BTreeMap<Region, f64>,
    /// Ring points sorted by position; ties broken by region id so rebuilds
    /// are order-independent.
    points: Vec<(u64, Region)>,
}

impl RegionRing {
    /// Builds a ring over `regions` at full weight.
    pub fn new(regions: &[Region], options: RingOptions) -> Self {
        let mut ring = RegionRing {
            options,
            weights: regions.iter().map(|&r| (r, 1.0)).collect(),
            points: Vec::new(),
        };
        ring.rebuild();
        ring
    }

    /// Sets `region`'s routing weight (clamped to `[0, 1]`; `0` removes its
    /// points) and rebuilds the ring.  Unknown regions are added.
    pub fn set_weight(&mut self, region: Region, weight: f64) {
        self.weights.insert(region, weight.clamp(0.0, 1.0));
        self.rebuild();
    }

    /// Removes `region` from the ring entirely.
    pub fn remove(&mut self, region: Region) {
        self.weights.remove(&region);
        self.rebuild();
    }

    /// The regions currently holding at least one ring point, in id order.
    pub fn active_regions(&self) -> Vec<Region> {
        let mut regions: Vec<Region> = self.points.iter().map(|&(_, r)| r).collect();
        regions.sort();
        regions.dedup();
        regions
    }

    /// Current weight of `region`, if registered.
    pub fn weight(&self, region: Region) -> Option<f64> {
        self.weights.get(&region).copied()
    }

    /// Whether no region holds any point (every region removed or weighted
    /// to zero).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of ring points (≈ active regions × weighted virtual nodes).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Routes a pre-hashed key: the region owning the first ring point at or
    /// after `stable_hash64(key)`, wrapping past the top.  `None` only when
    /// the ring is empty.
    pub fn route(&self, key: u64) -> Option<Region> {
        if self.points.is_empty() {
            return None;
        }
        let position = stable_hash64(key);
        let idx = self.points.partition_point(|&(p, _)| p < position);
        Some(self.points[idx % self.points.len()].1)
    }

    /// The full key → region assignment for a batch of keys — what the
    /// conformance suite compares bit-for-bit across seeds and surfaces.
    pub fn assignment(&self, keys: impl IntoIterator<Item = u64>) -> Vec<Option<Region>> {
        keys.into_iter().map(|k| self.route(k)).collect()
    }

    fn rebuild(&mut self) {
        self.points.clear();
        for (&region, &weight) in &self.weights {
            let vnodes = if weight <= 0.0 {
                0
            } else {
                // At least one point while routable, so a tiny weight still
                // keeps the region reachable for affinity-pinned traffic.
                ((VNODES_PER_REGION as f64 * weight).round() as usize).max(1)
            };
            for vnode in 0..vnodes {
                let point = stable_hash64(
                    self.options.seed ^ stable_hash64(((region.0 as u64) << 32) | vnode as u64),
                );
                self.points.push((point, region));
            }
        }
        self.points.sort_unstable_by_key(|&(p, r)| (p, r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regions(n: u32) -> Vec<Region> {
        (0..n).map(Region).collect()
    }

    #[test]
    fn same_seed_is_bit_identical_and_seeds_differ() {
        let a = RegionRing::new(&regions(5), RingOptions::default());
        let b = RegionRing::new(&regions(5), RingOptions::default());
        assert_eq!(a, b);
        let map_a = a.assignment(0..10_000u64);
        assert_eq!(map_a, b.assignment(0..10_000u64));
        let c = RegionRing::new(&regions(5), RingOptions { seed: 7 });
        assert_ne!(map_a, c.assignment(0..10_000u64));
    }

    #[test]
    fn keys_spread_roughly_evenly() {
        let ring = RegionRing::new(&regions(4), RingOptions::default());
        let mut counts = BTreeMap::new();
        for key in 0..40_000u64 {
            *counts.entry(ring.route(key).unwrap()).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 4);
        for (&region, &count) in &counts {
            // 64 virtual nodes keep every region within ~2x of fair share.
            assert!(
                (5_000..=20_000).contains(&count),
                "{region} got {count} of 40000"
            );
        }
    }

    #[test]
    fn removing_a_region_only_moves_its_keys() {
        let full = RegionRing::new(&regions(4), RingOptions::default());
        let mut reduced = full.clone();
        reduced.remove(Region(2));
        let mut moved = 0usize;
        for key in 0..20_000u64 {
            let before = full.route(key).unwrap();
            let after = reduced.route(key).unwrap();
            assert_ne!(after, Region(2));
            if before != after {
                // Only keys the dead region owned may move.
                assert_eq!(before, Region(2), "key {key} moved needlessly");
                moved += 1;
            }
        }
        assert!(moved > 0, "the removed region owned some keys");
    }

    #[test]
    fn weights_scale_the_share_and_zero_drops_out() {
        let mut ring = RegionRing::new(&regions(3), RingOptions::default());
        ring.set_weight(Region(1), 0.25);
        let mut degraded_share = 0usize;
        for key in 0..30_000u64 {
            if ring.route(key).unwrap() == Region(1) {
                degraded_share += 1;
            }
        }
        // Weight 0.25 of 3 regions → expected share ≈ 1/9 of keys.
        assert!(
            degraded_share < 30_000 / 5,
            "degraded region still owns {degraded_share}"
        );
        ring.set_weight(Region(1), 0.0);
        assert!((0..30_000u64).all(|k| ring.route(k).unwrap() != Region(1)));
        assert_eq!(ring.active_regions(), vec![Region(0), Region(2)]);
        ring.set_weight(Region(0), 0.0);
        ring.set_weight(Region(2), 0.0);
        assert!(ring.is_empty());
        assert_eq!(ring.route(1), None);
        // Restoring a weight brings the region's original points back.
        ring.set_weight(Region(2), 1.0);
        assert_eq!(ring.active_regions(), vec![Region(2)]);
        assert_eq!(ring.weight(Region(2)), Some(1.0));
        assert!(!ring.is_empty());
    }
}
