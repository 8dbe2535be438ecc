//! The simulator's stream tags. [`SimRng`] itself lives in
//! `ytcdn_netsim::rng`, shared with measurement noise and the trace model,
//! and is re-exported here.

pub use ytcdn_netsim::rng::SimRng;

/// Well-known stream tags. Each independent consumer of randomness in the
/// simulator derives its generators under its own tag so that adding draws
/// to one subsystem never shifts another's stream.
pub mod stream {
    /// Per-dataset seed derivation in `StandardScenario`.
    pub const SCENARIO: u64 = 0x5CE7;
    /// Per-hour workload (arrival-count and start-time) streams.
    pub const WORKLOAD: u64 = 0x3013;
    /// Per-session simulation streams, keyed by global session ordinal.
    pub const SESSION: u64 = 0x5E55;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_independent_of_parent_consumption() {
        // Deriving a stream never depends on draws made from other streams.
        let fresh = SimRng::for_stream(9, &[stream::SESSION, 17]);
        let mut sibling = SimRng::for_stream(9, &[stream::SESSION, 16]);
        for _ in 0..50 {
            sibling.next_u64();
        }
        assert_eq!(fresh, SimRng::for_stream(9, &[stream::SESSION, 17]));
    }

    #[test]
    fn distinct_tag_paths_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..4u64 {
            for tag in 0..64u64 {
                assert!(seen.insert(SimRng::for_stream(seed, &[stream::SESSION, tag]).next_u64()));
                assert!(seen.insert(SimRng::for_stream(seed, &[stream::WORKLOAD, tag]).next_u64()));
            }
        }
    }
}
