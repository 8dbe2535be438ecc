//! Autonomous-system breakdown (Table II).
//!
//! Section IV maps every server to its AS with whois and reports, per
//! dataset, the share of distinct servers and of bytes contributed by the
//! Google AS, the legacy YouTube-EU AS, the dataset's own AS (the EU2
//! in-ISP data center), and everything else.

use std::collections::BTreeMap;

use ytcdn_cdnsim::World;
use ytcdn_netsim::WellKnownAs;
use ytcdn_tstat::{Dataset, DatasetName};

/// Share of servers and bytes for one AS bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AsShare {
    /// Percentage of distinct server addresses (0–100).
    pub servers_pct: f64,
    /// Percentage of bytes (0–100).
    pub bytes_pct: f64,
}

/// One Table II row.
#[derive(Debug, Clone, PartialEq)]
pub struct AsBreakdown {
    /// Dataset the row describes.
    pub dataset: DatasetName,
    /// Shares per AS bucket.
    pub shares: BTreeMap<WellKnownAs, AsShare>,
}

impl AsBreakdown {
    /// The share of a bucket (zero if absent).
    pub fn share(&self, bucket: WellKnownAs) -> AsShare {
        self.shares.get(&bucket).copied().unwrap_or_default()
    }
}

/// Computes the Table II row for a dataset. Each distinct server — each
/// entry of the dataset's server dictionary — is classified once; each
/// flow adds its bytes to its entry by rank.
pub fn as_breakdown(world: &World, dataset: &Dataset) -> AsBreakdown {
    let home = world.vantage(dataset.name()).home_as;
    let registry = world.topology().registry();
    let c = dataset.columns();

    let mut entry_bytes = vec![0u64; c.servers.len()];
    for (&rank, &b) in c.server_ranks.iter().zip(&c.bytes) {
        entry_bytes[rank as usize] += b;
    }
    let mut server_count: BTreeMap<WellKnownAs, u64> = BTreeMap::new();
    let mut bytes: BTreeMap<WellKnownAs, u64> = BTreeMap::new();
    for (&ip, &b) in c.servers.iter().zip(&entry_bytes) {
        let bucket = registry.classify(ip, home);
        *server_count.entry(bucket).or_default() += 1;
        *bytes.entry(bucket).or_default() += b;
    }
    let total_bytes: u64 = entry_bytes.iter().sum();

    let total_servers = c.servers.len() as f64;
    let shares = WellKnownAs::buckets()
        .iter()
        .map(|&b| {
            let s = AsShare {
                servers_pct: if total_servers > 0.0 {
                    100.0 * server_count.get(&b).copied().unwrap_or(0) as f64 / total_servers
                } else {
                    0.0
                },
                bytes_pct: if total_bytes > 0 {
                    100.0 * bytes.get(&b).copied().unwrap_or(0) as f64 / total_bytes as f64
                } else {
                    0.0
                },
            };
            (b, s)
        })
        .collect();
    AsBreakdown {
        dataset: dataset.name(),
        shares,
    }
}

/// Extension: the four Table II buckets in column order.
pub trait WellKnownAsExt {
    /// All buckets, Table II column order.
    fn buckets() -> [WellKnownAs; 4];
}

impl WellKnownAsExt for WellKnownAs {
    fn buckets() -> [WellKnownAs; 4] {
        [
            WellKnownAs::Google,
            WellKnownAs::YouTubeEu,
            WellKnownAs::SameAs,
            WellKnownAs::Other,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};

    fn rows() -> Vec<AsBreakdown> {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.01, 17));
        s.run_all(2)
            .iter()
            .map(|ds| as_breakdown(s.world(), ds))
            .collect()
    }

    #[test]
    fn google_dominates_bytes_everywhere_but_eu2() {
        for row in rows() {
            let g = row.share(WellKnownAs::Google).bytes_pct;
            if row.dataset == DatasetName::Eu2 {
                // Table II EU2: Google 49.2% of bytes, same-AS 38.6%.
                assert!((25.0..75.0).contains(&g), "EU2 Google bytes {g}");
                let same = row.share(WellKnownAs::SameAs).bytes_pct;
                assert!(same > 20.0, "EU2 same-AS bytes {same}");
            } else {
                assert!(g > 90.0, "{}: Google bytes {g}", row.dataset);
                let same = row.share(WellKnownAs::SameAs).bytes_pct;
                assert!(same < 0.1, "{}: same-AS bytes {same}", row.dataset);
            }
        }
    }

    #[test]
    fn legacy_as_many_servers_few_bytes() {
        for row in rows() {
            if row.dataset == DatasetName::Eu2 {
                continue;
            }
            let yt = row.share(WellKnownAs::YouTubeEu);
            assert!(
                yt.servers_pct > 5.0,
                "{}: YT-EU servers {}",
                row.dataset,
                yt.servers_pct
            );
            assert!(
                yt.bytes_pct < 5.0,
                "{}: YT-EU bytes {}",
                row.dataset,
                yt.bytes_pct
            );
            assert!(yt.servers_pct > yt.bytes_pct);
        }
    }

    #[test]
    fn shares_sum_to_100() {
        for row in rows() {
            let s: f64 = WellKnownAs::buckets()
                .iter()
                .map(|&b| row.share(b).servers_pct)
                .sum();
            let b: f64 = WellKnownAs::buckets()
                .iter()
                .map(|&b| row.share(b).bytes_pct)
                .sum();
            assert!((s - 100.0).abs() < 1e-6, "{}: servers {s}", row.dataset);
            assert!((b - 100.0).abs() < 1e-6, "{}: bytes {b}", row.dataset);
        }
    }

    #[test]
    fn others_bucket_small() {
        for row in rows() {
            let o = row.share(WellKnownAs::Other);
            assert!(
                o.bytes_pct < 5.0,
                "{}: other bytes {}",
                row.dataset,
                o.bytes_pct
            );
        }
    }

    #[test]
    fn empty_dataset_all_zero() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.01, 17));
        let empty = Dataset::new(DatasetName::Eu2);
        let row = as_breakdown(s.world(), &empty);
        for b in WellKnownAs::buckets() {
            assert_eq!(row.share(b).servers_pct, 0.0);
            assert_eq!(row.share(b).bytes_pct, 0.0);
        }
    }
}
