//! Prefix-preserving trace anonymization.
//!
//! Datasets like the paper's cannot be shared with raw client addresses.
//! The measurement community's standard is *prefix-preserving*
//! anonymization (Crypto-PAn, Xu et al. 2002): two addresses sharing a
//! k-bit prefix map to addresses sharing a k-bit prefix, so subnet-level
//! analyses (the paper's Figure 12!) still work on the anonymized trace.
//!
//! [`Anonymizer`] implements the Crypto-PAn construction with a keyed
//! pseudorandom function per prefix node: bit `i` of the output is the
//! input bit XOR a PRF of the preceding input bits. Server addresses are
//! left intact by [`Anonymizer::anonymize_dataset`] (they are public
//! infrastructure and the whole point of the study).

use std::net::Ipv4Addr;

use ytcdn_netsim::splitmix64;

use crate::dataset::Dataset;

/// Keyed, deterministic, prefix-preserving IPv4 anonymizer.
///
/// # Examples
///
/// ```
/// use ytcdn_tstat::Anonymizer;
///
/// let anon = Anonymizer::new(0x5EC2E7);
/// let a = anon.anonymize_ip("128.210.7.1".parse()?);
/// let b = anon.anonymize_ip("128.210.7.200".parse()?);
/// // Same /24 in, same /24 out.
/// assert_eq!(u32::from(a) >> 8, u32::from(b) >> 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Anonymizer {
    key: u64,
}

impl Anonymizer {
    /// Creates an anonymizer with a secret key. The same key always
    /// produces the same mapping (so multi-file datasets stay consistent);
    /// different keys produce unrelated mappings.
    pub fn new(key: u64) -> Self {
        Self { key }
    }

    /// Anonymizes one address, preserving prefix relationships.
    pub fn anonymize_ip(&self, addr: Ipv4Addr) -> Ipv4Addr {
        let input = u32::from(addr);
        let mut output = 0u32;
        for bit in 0..32 {
            // The PRF sees the original (plaintext) prefix above this bit —
            // the canonical Crypto-PAn construction.
            let prefix = if bit == 0 { 0 } else { input >> (32 - bit) };
            let flip = (prf(self.key, bit as u32, prefix) & 1) as u32;
            let in_bit = (input >> (31 - bit)) & 1;
            output = (output << 1) | (in_bit ^ flip);
        }
        Ipv4Addr::from(output)
    }

    /// Anonymizes every *client* address of a dataset, leaving server
    /// addresses intact.
    pub fn anonymize_dataset(&self, dataset: &Dataset) -> Dataset {
        let records = dataset
            .iter()
            .map(|mut r| {
                r.client_ip = self.anonymize_ip(r.client_ip);
                r
            })
            .collect();
        Dataset::from_records(dataset.name(), records)
    }
}

/// A small keyed PRF ([`splitmix64`] over key, position, prefix).
fn prf(key: u64, bit: u32, prefix: u32) -> u64 {
    splitmix64(key ^ (u64::from(bit) << 56) ^ u64::from(prefix))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_key_dependent() {
        let ip: Ipv4Addr = "128.210.7.9".parse().unwrap();
        let a1 = Anonymizer::new(1).anonymize_ip(ip);
        let a2 = Anonymizer::new(1).anonymize_ip(ip);
        let b = Anonymizer::new(2).anonymize_ip(ip);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_ne!(a1, ip, "identity mapping would not anonymize");
    }

    #[test]
    fn dataset_anonymization_preserves_everything_but_clients() {
        use crate::flow::{FlowRecord, Resolution, VideoId};
        let ds = Dataset::from_records(
            crate::dataset::DatasetName::UsCampus,
            vec![FlowRecord {
                client_ip: "128.210.7.9".parse().unwrap(),
                server_ip: "74.125.1.2".parse().unwrap(),
                start_ms: 5,
                end_ms: 10,
                bytes: 12345,
                video_id: VideoId::from_index(7),
                resolution: Resolution::R360,
            }],
        );
        let anon = Anonymizer::new(99).anonymize_dataset(&ds);
        let (orig, new) = (ds.row(0), anon.row(0));
        assert_ne!(new.client_ip, orig.client_ip);
        assert_eq!(new.server_ip, orig.server_ip);
        assert_eq!(new.bytes, orig.bytes);
        assert_eq!(new.video_id, orig.video_id);
        assert_eq!(anon.summary().clients, ds.summary().clients);
    }
}
