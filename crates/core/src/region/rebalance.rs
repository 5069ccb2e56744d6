//! Cross-region rebalancing: pricing and planning affinity migrations.
//!
//! Within a region, a re-plan moves KV state between nodes with
//! [`PlacementDelta::migrate`](crate::PlacementDelta::migrate) priced by
//! [`KvTransferModel`].  *Across* regions the unit of movement is a shared
//! prefix's affinity entry: the pages of prefix `p` live in the region that
//! homes it, and moving the home means shipping those pages over the (slow)
//! inter-region link.  This module prices such moves with the same
//! [`KvTransferModel`] arithmetic and plans which entries to move when a
//! region degrades or load skews — the front tier executes the moves by
//! re-pointing affinity and logging a [`RegionTransferRecord`] per prefix.

use crate::replan::KvTransferModel;
use helix_cluster::{PrefixId, Region};

use super::membership::RegionHealth;

/// The inter-region link a cross-region KV transfer travels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterRegionLink {
    /// Link bandwidth in Mb/s.
    pub bandwidth_mbps: f64,
    /// One-way latency in milliseconds.
    pub latency_ms: f64,
}

impl InterRegionLink {
    /// Bandwidth in bytes/s.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bandwidth_mbps * 1e6 / 8.0
    }

    /// Latency in seconds.
    pub fn latency_secs(&self) -> f64 {
        self.latency_ms / 1e3
    }
}

impl Default for InterRegionLink {
    /// The paper's §6.4 geo-distributed setting: 100 Mb/s, 50 ms.
    fn default() -> Self {
        InterRegionLink {
            bandwidth_mbps: 100.0,
            latency_ms: 50.0,
        }
    }
}

/// One priced cross-region move of a prefix's KV residency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionTransferRecord {
    /// When the move was initiated (front-tier clock, seconds).
    pub at: f64,
    /// The prefix whose home moved.
    pub prefix: PrefixId,
    /// The region giving the pages up.
    pub from: Region,
    /// The region adopting them.
    pub to: Region,
    /// Resident tokens the prefix covers.
    pub tokens: usize,
    /// KV pages shipped.
    pub pages: u64,
    /// Bytes shipped over the inter-region link.
    pub bytes: f64,
    /// Seconds the transfer occupies the link (bytes/bandwidth + latency).
    pub transfer_secs: f64,
}

/// Prices cross-region affinity moves over a fixed inter-region link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionTransferPricer {
    /// KV geometry of the model whose pages move.
    pub model: KvTransferModel,
    /// Layers of KV state a prefix holds (a prefix is resident on every
    /// layer of its home pipeline).
    pub num_layers: usize,
    /// The link the pages travel.
    pub link: InterRegionLink,
}

impl RegionTransferPricer {
    /// Prices moving `tokens` resident prefix tokens from `from` to `to` at
    /// front-tier time `at`.
    pub fn price(
        &self,
        at: f64,
        prefix: PrefixId,
        from: Region,
        to: Region,
        tokens: usize,
    ) -> RegionTransferRecord {
        let pages = self.model.pages(tokens as f64);
        let bytes = self.model.bytes(tokens as f64, self.num_layers.max(1));
        let transfer_secs = KvTransferModel::transfer_secs(
            bytes,
            self.link.bytes_per_sec(),
            self.link.latency_secs(),
        );
        RegionTransferRecord {
            at,
            prefix,
            from,
            to,
            tokens,
            pages,
            bytes,
            transfer_secs,
        }
    }
}

/// A region's load snapshot, as the front tier sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionLoad {
    /// The region.
    pub region: Region,
    /// Requests routed there and not yet drained.
    pub pending: usize,
    /// Prefix affinity entries homed there.
    pub affinity_entries: usize,
}

/// A region rebalances when its pending load exceeds the routable mean by
/// this factor.
const SKEW_RATIO: f64 = 2.0;

/// Thresholds of the skew-triggered rebalancer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceOptions {
    /// Affinity entries moved per planning round, per overloaded region
    /// (bounds the burst of inter-region traffic one round may create).
    pub max_moves_per_round: usize,
}

impl Default for RebalanceOptions {
    fn default() -> Self {
        RebalanceOptions {
            max_moves_per_round: 16,
        }
    }
}

/// One planned affinity move: shift up to `entries` prefix homes
/// `from → to`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceMove {
    /// The overloaded (or sick) source region.
    pub from: Region,
    /// The healthy destination.
    pub to: Region,
    /// How many affinity entries to move.
    pub entries: usize,
}

/// Plans cross-region affinity moves from load snapshots and health.
///
/// Two triggers, mirroring the intra-region [`ReplanPolicy`]'s split between
/// structural and performance re-plans:
///
/// * a **non-routable** region must shed *all* its affinity entries
///   (capped per round) — its pages are unreachable for new sharers;
/// * a **skewed** healthy region (pending > 2 × routable mean)
///   sheds entries to the least-loaded healthy region, draining future
///   sharers — not in-flight work — toward spare capacity.
///
/// [`ReplanPolicy`]: crate::ReplanPolicy
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RegionRebalancer {
    /// Thresholds.
    pub options: RebalanceOptions,
}

impl RegionRebalancer {
    /// A rebalancer with the given thresholds.
    pub fn new(options: RebalanceOptions) -> Self {
        RegionRebalancer { options }
    }

    /// Plans this round's moves.  `health` classifies each region;
    /// destinations are always the least-pending Healthy region (Degraded
    /// regions keep what they have but receive nothing).  Returns an empty
    /// plan when fewer than two routable regions exist or nothing triggers.
    pub fn plan(
        &self,
        loads: &[RegionLoad],
        mut health: impl FnMut(Region) -> RegionHealth,
    ) -> Vec<RebalanceMove> {
        let healths: Vec<(RegionLoad, RegionHealth)> =
            loads.iter().map(|&l| (l, health(l.region))).collect();
        let routable: Vec<&RegionLoad> = healths
            .iter()
            .filter(|(_, h)| h.is_routable())
            .map(|(l, _)| l)
            .collect();
        if routable.is_empty() {
            return Vec::new();
        }
        let mean_pending =
            routable.iter().map(|l| l.pending).sum::<usize>() as f64 / routable.len() as f64;
        let destination = |exclude: Region| -> Option<Region> {
            healths
                .iter()
                .filter(|(l, h)| *h == RegionHealth::Healthy && l.region != exclude)
                .min_by_key(|(l, _)| (l.pending, l.region))
                .map(|(l, _)| l.region)
        };
        let mut moves = Vec::new();
        for (load, health) in &healths {
            let shed = match health {
                // Unreachable pages: drain everything (capped).
                RegionHealth::Down => load.affinity_entries,
                // Load skew on a live region: shed proportionally.
                RegionHealth::Healthy | RegionHealth::Degraded
                    if load.pending as f64 > SKEW_RATIO * mean_pending.max(1.0) =>
                {
                    load.affinity_entries / 2
                }
                _ => 0,
            };
            let shed = shed.min(self.options.max_moves_per_round);
            if shed == 0 {
                continue;
            }
            if let Some(to) = destination(load.region) {
                moves.push(RebalanceMove {
                    from: load.region,
                    to,
                    entries: shed,
                });
            }
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(region: u32, pending: usize, affinity_entries: usize) -> RegionLoad {
        RegionLoad {
            region: Region(region),
            pending,
            affinity_entries,
        }
    }

    #[test]
    fn pricing_matches_the_kv_transfer_arithmetic() {
        let pricer = RegionTransferPricer {
            model: KvTransferModel::new(1024.0, 16),
            num_layers: 40,
            link: InterRegionLink::default(),
        };
        let record = pricer.price(5.0, PrefixId(3), Region(0), Region(2), 224);
        assert_eq!(record.pages, 14);
        assert_eq!(record.bytes, 14.0 * 16.0 * 40.0 * 1024.0);
        // 100 Mb/s = 12.5 MB/s; 9.175 MB / 12.5 MB/s + 50 ms.
        let expected = record.bytes / 12.5e6 + 0.05;
        assert!((record.transfer_secs - expected).abs() < 1e-9);
        assert_eq!(record.at, 5.0);
        assert_eq!((record.from, record.to), (Region(0), Region(2)));
    }

    #[test]
    fn down_regions_shed_and_skew_triggers_proportional_moves() {
        let rebalancer = RegionRebalancer::default();
        let loads = [load(0, 10, 4), load(1, 10, 6), load(2, 9, 8)];
        // All healthy, balanced: nothing moves.
        assert!(rebalancer
            .plan(&loads, |_| RegionHealth::Healthy)
            .is_empty());
        // Region 2 down: all its entries drain to the least-loaded healthy
        // region (tie on pending broken by id → region 0).
        let moves = rebalancer.plan(&loads, |r| {
            if r == Region(2) {
                RegionHealth::Down
            } else {
                RegionHealth::Healthy
            }
        });
        assert_eq!(
            moves,
            vec![RebalanceMove {
                from: Region(2),
                to: Region(0),
                entries: 8,
            }]
        );
        // Load skew: region 0 is 3x the routable mean, sheds half its
        // entries to the emptiest healthy peer.
        let skewed = [load(0, 60, 10), load(1, 5, 2), load(2, 10, 3)];
        let moves = rebalancer.plan(&skewed, |_| RegionHealth::Healthy);
        assert_eq!(
            moves,
            vec![RebalanceMove {
                from: Region(0),
                to: Region(1),
                entries: 5,
            }]
        );
        // The per-round cap bounds the burst.
        let capped = RegionRebalancer::new(RebalanceOptions {
            max_moves_per_round: 3,
        });
        let moves = capped.plan(&loads, |r| {
            if r == Region(2) {
                RegionHealth::Down
            } else {
                RegionHealth::Healthy
            }
        });
        assert_eq!(moves[0].entries, 3);
        // No healthy destination → no moves.
        assert!(rebalancer.plan(&loads, |_| RegionHealth::Down).is_empty());
    }
}
