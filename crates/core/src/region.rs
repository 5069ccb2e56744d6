//! Consistent-hash ring over regions, with virtual nodes.
//!
//! The front tier (`helix::region::MultiRegionSession`) maps every request to
//! one regional cluster.  A consistent hash keeps the mapping stable as
//! regions come and go: each member region owns 64 pseudo-random points
//! (virtual nodes) on a `u64` ring, and a key routes to the region owning the
//! first point at or after the key's hash (wrapping).  Removing a region only
//! re-routes the keys it owned, and inserting it again restores the exact
//! assignment — no global reshuffle, so per-region KV residency survives an
//! outage.  Everything is deterministic: the same seed and members always
//! produce the bit-identical ring.

use helix_cluster::Region;
use std::collections::BTreeSet;

/// SplitMix64 finaliser: a fast, high-quality 64-bit mixing function.  Used
/// instead of `std`'s `DefaultHasher` because the ring must be reproducible
/// across processes and Rust versions (`DefaultHasher` makes no such
/// promise, and bit-identical region maps are part of the contract).
fn stable_hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Virtual nodes per region.  More virtual nodes smooth the key distribution
/// (the classic consistent-hashing variance argument) at a small lookup
/// cost; 64 keeps the per-region share within a few percent of fair for
/// realistic region counts.
const VNODES_PER_REGION: u64 = 64;

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

/// A consistent-hash ring mapping `u64` keys to its member [`Region`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionRing {
    options: RingOptions,
    members: BTreeSet<Region>,
    /// Ring points sorted by position; ties broken by region id so rebuilds
    /// are order-independent.
    points: Vec<(u64, Region)>,
}

impl RegionRing {
    /// Builds a ring whose members are `regions`.
    pub fn new(regions: &[Region], options: RingOptions) -> Self {
        let mut ring = RegionRing {
            options,
            members: regions.iter().copied().collect(),
            points: Vec::new(),
        };
        ring.rebuild();
        ring
    }

    /// Makes `region` a member again; its points return to exactly where
    /// they were.
    pub fn insert(&mut self, region: Region) {
        if self.members.insert(region) {
            self.rebuild();
        }
    }

    /// Takes `region` off the ring; only the keys it owned move.
    pub fn remove(&mut self, region: Region) {
        if self.members.remove(&region) {
            self.rebuild();
        }
    }

    /// Whether `region` is a member.
    pub fn contains(&self, region: Region) -> bool {
        self.members.contains(&region)
    }

    /// Routes a key: the region owning the first ring point at or after
    /// `stable_hash64(key)`, wrapping past the top.  `None` only when the
    /// ring has no member.
    pub fn route(&self, key: u64) -> Option<Region> {
        let position = stable_hash64(key);
        let idx = self.points.partition_point(|&(p, _)| p < position);
        self.points
            .get(idx)
            .or_else(|| self.points.first())
            .map(|&(_, region)| region)
    }

    fn rebuild(&mut self) {
        self.points.clear();
        for &region in &self.members {
            for vnode in 0..VNODES_PER_REGION {
                let point = stable_hash64(
                    self.options.seed ^ stable_hash64((u64::from(region.0) << 32) | vnode),
                );
                self.points.push((point, region));
            }
        }
        self.points.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn regions(n: u32) -> Vec<Region> {
        (0..n).map(Region).collect()
    }

    fn assignment(ring: &RegionRing, keys: std::ops::Range<u64>) -> Vec<Option<Region>> {
        keys.map(|k| ring.route(k)).collect()
    }

    #[test]
    fn same_seed_is_bit_identical_and_seeds_differ() {
        let a = RegionRing::new(&regions(5), RingOptions::default());
        let b = RegionRing::new(&regions(5), RingOptions::default());
        assert_eq!(a, b);
        let map_a = assignment(&a, 0..10_000);
        assert_eq!(map_a, assignment(&b, 0..10_000));
        let c = RegionRing::new(&regions(5), RingOptions { seed: 7 });
        assert_ne!(map_a, assignment(&c, 0..10_000));
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
    fn remove_then_insert_restores_the_exact_assignment() {
        let full = RegionRing::new(&regions(3), RingOptions::default());
        let mut ring = full.clone();
        ring.remove(Region(1));
        assert!(!ring.contains(Region(1)));
        assert_ne!(assignment(&ring, 0..10_000), assignment(&full, 0..10_000));
        ring.insert(Region(1));
        assert!(ring.contains(Region(1)));
        assert_eq!(ring, full);
        assert_eq!(assignment(&ring, 0..10_000), assignment(&full, 0..10_000));
        // A ring with no member routes nothing; one member takes every key.
        for region in regions(3) {
            ring.remove(region);
        }
        assert_eq!(ring.route(1), None);
        ring.insert(Region(2));
        assert!((0..1_000u64).all(|k| ring.route(k) == Some(Region(2))));
    }
}
