//! Video vs control flow classification.
//!
//! Tstat's DPI tags every flow that talks to a YouTube content server, but
//! "it is not able to distinguish between successful video flows and control
//! messages". The paper separates them by size: the flow-size CDF (Figure 4)
//! has a sharp kink, and flows below 1000 bytes are signalling exchanges
//! (HTTP redirects, resolution-change responses) while larger flows carry
//! video payload. Manual experiments confirmed the threshold.

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

/// The paper's video/control boundary: "flows smaller than 1000 bytes ...
/// correspond to control flows".
pub const VIDEO_MIN_BYTES: u64 = 1000;

impl FlowClass {
    /// The class of a flow of `bytes` bytes: video from
    /// [`VIDEO_MIN_BYTES`] up, control below.
    ///
    /// # Examples
    ///
    /// ```
    /// use ytcdn_tstat::FlowClass;
    ///
    /// assert_eq!(FlowClass::of_bytes(999), FlowClass::Control);
    /// assert_eq!(FlowClass::of_bytes(1000), FlowClass::Video);
    /// ```
    pub fn of_bytes(bytes: u64) -> Self {
        if bytes < VIDEO_MIN_BYTES {
            FlowClass::Control
        } else {
            FlowClass::Video
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowRecord, Resolution, VideoId};

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
        assert_eq!(VIDEO_MIN_BYTES, 1000);
    }

    #[test]
    fn boundary_behavior() {
        assert_eq!(FlowClass::of_bytes(0), FlowClass::Control);
        assert_eq!(FlowClass::of_bytes(999), FlowClass::Control);
        assert_eq!(FlowClass::of_bytes(1000), FlowClass::Video);
        assert_eq!(FlowClass::of_bytes(u64::MAX), FlowClass::Video);
    }

    #[test]
    fn partition_splits_correctly() {
        let flows = [flow(10), flow(5000), flow(999), flow(1000)];
        let (video, control): (Vec<_>, Vec<_>) = flows
            .iter()
            .partition(|f| FlowClass::of_bytes(f.bytes) == FlowClass::Video);
        assert_eq!(video.len(), 2);
        assert_eq!(control.len(), 2);
        assert!(video.iter().all(|f| f.bytes >= VIDEO_MIN_BYTES));
        assert!(control.iter().all(|f| f.bytes < VIDEO_MIN_BYTES));
    }
}
