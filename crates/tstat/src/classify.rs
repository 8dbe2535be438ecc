//! Video vs control flow classification.
//!
//! Tstat's DPI tags every flow that talks to a YouTube content server, but
//! "it is not able to distinguish between successful video flows and control
//! messages". The paper separates them by size: the flow-size CDF (Figure 4)
//! has a sharp kink, and flows below 1000 bytes are signalling exchanges
//! (HTTP redirects, resolution-change responses) while larger flows carry
//! video payload. Manual experiments confirmed the threshold.

use std::borrow::Borrow;

use crate::flow::FlowRecord;

/// The two flow populations of the paper's Section VI-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FlowClass {
    /// Short signalling exchange: redirect, format renegotiation, error.
    Control,
    /// A connection that actually delivered video payload.
    Video,
}

impl std::fmt::Display for FlowClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FlowClass::Control => "control",
            FlowClass::Video => "video",
        })
    }
}

/// Size-threshold flow classifier.
///
/// # Examples
///
/// ```
/// use ytcdn_tstat::{FlowClass, FlowClassifier};
///
/// let c = FlowClassifier::default();
/// assert_eq!(c.threshold_bytes(), 1000);
/// assert_eq!(c.classify_bytes(999), FlowClass::Control);
/// assert_eq!(c.classify_bytes(1000), FlowClass::Video);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowClassifier {
    threshold_bytes: u64,
}

impl Default for FlowClassifier {
    /// The paper's threshold: "flows smaller than 1000 bytes ... correspond
    /// to control flows".
    fn default() -> Self {
        Self {
            threshold_bytes: 1000,
        }
    }
}

impl FlowClassifier {
    /// Creates a classifier with a custom threshold (for sensitivity
    /// analysis).
    pub fn with_threshold(threshold_bytes: u64) -> Self {
        Self { threshold_bytes }
    }

    /// The size threshold in bytes.
    pub fn threshold_bytes(&self) -> u64 {
        self.threshold_bytes
    }

    /// Classifies a raw byte count.
    pub fn classify_bytes(&self, bytes: u64) -> FlowClass {
        if bytes < self.threshold_bytes {
            FlowClass::Control
        } else {
            FlowClass::Video
        }
    }

    /// Classifies a flow record.
    pub fn classify(&self, flow: &FlowRecord) -> FlowClass {
        self.classify_bytes(flow.bytes)
    }

    /// Splits an iterator of flows — rows or references to rows — into
    /// `(video, control)` populations.
    pub fn partition<F, I>(&self, flows: I) -> (Vec<F>, Vec<F>)
    where
        F: Borrow<FlowRecord>,
        I: IntoIterator<Item = F>,
    {
        flows
            .into_iter()
            .partition(|f| self.classify(f.borrow()) == FlowClass::Video)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{Resolution, VideoId};

    fn flow(bytes: u64) -> FlowRecord {
        FlowRecord {
            client_ip: "10.0.0.1".parse().unwrap(),
            server_ip: "74.125.0.1".parse().unwrap(),
            start_ms: 0,
            end_ms: 1,
            bytes,
            video_id: VideoId::from_index(0),
            resolution: Resolution::R360,
        }
    }

    #[test]
    fn default_threshold_is_papers() {
        assert_eq!(FlowClassifier::default().threshold_bytes(), 1000);
    }

    #[test]
    fn boundary_behavior() {
        let c = FlowClassifier::default();
        assert_eq!(c.classify(&flow(0)), FlowClass::Control);
        assert_eq!(c.classify(&flow(999)), FlowClass::Control);
        assert_eq!(c.classify(&flow(1000)), FlowClass::Video);
        assert_eq!(c.classify(&flow(u64::MAX)), FlowClass::Video);
    }

    #[test]
    fn custom_threshold() {
        let c = FlowClassifier::with_threshold(500);
        assert_eq!(c.classify_bytes(499), FlowClass::Control);
        assert_eq!(c.classify_bytes(500), FlowClass::Video);
    }

    #[test]
    fn partition_splits_correctly() {
        let flows = vec![flow(10), flow(5000), flow(999), flow(1000)];
        let c = FlowClassifier::default();
        let (video, control) = c.partition(&flows);
        assert_eq!(video.len(), 2);
        assert_eq!(control.len(), 2);
        assert!(video.iter().all(|f| f.bytes >= 1000));
        assert!(control.iter().all(|f| f.bytes < 1000));
    }
}
