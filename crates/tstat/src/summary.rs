//! Table I traffic summaries.

use std::fmt;

use crate::dataset::{Dataset, DatasetName};

/// One row of the paper's Table I: flows, volume, distinct servers and
/// clients for a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSummary {
    /// Which dataset this summarizes.
    pub dataset: DatasetName,
    /// Total number of YouTube flows.
    pub flows: usize,
    /// Total volume in bytes.
    pub bytes: u64,
    /// Distinct content-server IPs.
    pub servers: usize,
    /// Distinct client IPs in the PoP.
    pub clients: usize,
}

impl TrafficSummary {
    /// Computes the summary of a dataset.
    pub fn of(dataset: &Dataset) -> Self {
        Self {
            dataset: dataset.name(),
            flows: dataset.len(),
            bytes: dataset.total_bytes(),
            servers: dataset.server_ips().len(),
            clients: dataset.distinct_clients(),
        }
    }

    /// Volume in gigabytes (decimal GB, as the paper reports).
    pub fn volume_gb(&self) -> f64 {
        self.bytes as f64 / 1e9
    }
}

impl fmt::Display for TrafficSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<11} flows={:<8} volume={:.2}GB servers={} clients={}",
            self.dataset.to_string(),
            self.flows,
            self.volume_gb(),
            self.servers,
            self.clients
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowRecord, Resolution, VideoId};

    #[test]
    fn summary_counts() {
        let mk = |c: &str, s: &str, bytes: u64| FlowRecord {
            client_ip: c.parse().unwrap(),
            server_ip: s.parse().unwrap(),
            start_ms: 0,
            end_ms: 1,
            bytes,
            video_id: VideoId::from_index(0),
            resolution: Resolution::R360,
        };
        let ds = Dataset::from_records(
            DatasetName::UsCampus,
            vec![
                mk("10.0.0.1", "74.125.0.1", 1_000_000_000),
                mk("10.0.0.1", "74.125.0.2", 500),
                mk("10.0.0.2", "74.125.0.1", 2_000_000_000),
            ],
        );
        let s = ds.summary();
        assert_eq!(s.flows, 3);
        assert_eq!(s.servers, 2);
        assert_eq!(s.clients, 2);
        assert_eq!(s.bytes, 3_000_000_500);
        assert!((s.volume_gb() - 3.0).abs() < 0.01);
    }

    #[test]
    fn summary_of_empty() {
        let s = Dataset::new(DatasetName::Eu2).summary();
        assert_eq!(s.flows, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.volume_gb(), 0.0);
    }

    #[test]
    fn display_contains_name() {
        let s = Dataset::new(DatasetName::Eu1Adsl).summary();
        assert!(s.to_string().contains("EU1-ADSL"));
    }
}
