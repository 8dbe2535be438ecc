//! Flow records, video identifiers, and resolutions.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use ytcdn_netsim::splitmix64;

/// YouTube's base64-style VideoID alphabet (RFC 4648 URL-safe).
const VIDEO_ID_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// An 11-character YouTube video identifier.
///
/// The paper: "Tstat records the video identifier (VideoID), which is a
/// unique 11 characters long string assigned by YouTube to the video". We
/// derive the string deterministically from a numeric catalog index so
/// generated traces stay compact and reproducible.
///
/// # Examples
///
/// ```
/// use ytcdn_tstat::VideoId;
///
/// let id = VideoId::from_index(42);
/// assert_eq!(id.as_str().len(), 11);
/// assert_eq!(id.index(), 42);
/// assert_eq!(id.as_str().parse::<VideoId>()?, id);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VideoId(u64);

impl VideoId {
    /// Creates the VideoID for catalog index `index`.
    pub fn from_index(index: u64) -> Self {
        VideoId(index)
    }

    /// The numeric catalog index this ID encodes.
    pub fn index(self) -> u64 {
        self.0
    }

    /// The canonical 11-character string form, as an inline (stack) buffer.
    pub fn as_str(self) -> VideoIdStr {
        // 11 base64 digits encode 66 bits; a u64 always fits. A light
        // bit-mixing pass makes consecutive indices visually unrelated,
        // like real VideoIDs, while remaining invertible.
        let mixed = splitmix64(self.0);
        let mut chars = [0u8; 11];
        let mut v = mixed as u128;
        for slot in chars.iter_mut().rev() {
            *slot = VIDEO_ID_ALPHABET[(v & 0x3f) as usize];
            v >>= 6;
        }
        VideoIdStr(chars)
    }
}

/// The 11-character string form of a [`VideoId`], held inline — rendering
/// an ID costs no heap allocation. Derefs to `str`, so it drops in
/// wherever a string slice is expected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VideoIdStr([u8; 11]);

impl VideoIdStr {
    /// The string view of the buffer.
    pub fn as_str(&self) -> &str {
        // ytcdn-lint: allow(PAN001) — the buffer is filled from the base-64 video-id alphabet, which is ASCII
        std::str::from_utf8(&self.0).expect("alphabet is ASCII")
    }
}

impl std::ops::Deref for VideoIdStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for VideoIdStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for VideoIdStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq<str> for VideoIdStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for VideoIdStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// Inverse of [`splitmix64`].
fn unmix(z: u64) -> u64 {
    // Inverse of each step of splitmix64's finalizer.
    fn unxorshift(mut v: u64, shift: u32) -> u64 {
        let mut res = v;
        while v != 0 {
            v >>= shift;
            res ^= v;
        }
        res
    }
    let mut x = unxorshift(z, 31);
    x = x.wrapping_mul(0x3196_42b2_d24d_8ec3); // modular inverse of 0x94d049bb133111eb
    x = unxorshift(x, 27);
    x = x.wrapping_mul(0x96de_1b17_3f11_9089); // modular inverse of 0xbf58476d1ce4e5b9
    x = unxorshift(x, 30);
    x.wrapping_sub(0x9e37_79b9_7f4a_7c15)
}

impl fmt::Display for VideoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str().as_str())
    }
}

impl FromStr for VideoId {
    type Err = ParseVideoIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bytes = s.as_bytes();
        if bytes.len() != 11 {
            return Err(ParseVideoIdError(s.to_owned()));
        }
        let mut v: u128 = 0;
        for &b in bytes {
            let digit = VIDEO_ID_ALPHABET
                .iter()
                .position(|&a| a == b)
                .ok_or_else(|| ParseVideoIdError(s.to_owned()))? as u128;
            // 11 digits × 6 bits = 66 bits, well inside the u128
            // accumulator; checked_shl makes that headroom explicit.
            v = v
                .checked_shl(6)
                .ok_or_else(|| ParseVideoIdError(s.to_owned()))?
                | digit;
        }
        // The top two of the 66 encoded bits must be zero for a u64 index.
        if v >> 64 != 0 {
            return Err(ParseVideoIdError(s.to_owned()));
        }
        Ok(VideoId(unmix(v as u64)))
    }
}

/// Error returned when parsing a malformed VideoID string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVideoIdError(String);

impl fmt::Display for ParseVideoIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid VideoID: {:?} (want 11 base64url chars)", self.0)
    }
}

impl std::error::Error for ParseVideoIdError {}

/// Video resolution of a request, as recorded by Tstat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resolution {
    /// 240p Flash-era default.
    R240,
    /// 360p.
    R360,
    /// 480p.
    R480,
    /// 720p HD.
    R720,
    /// 1080p HD.
    R1080,
}

impl Resolution {
    /// All resolutions, ascending.
    pub const ALL: [Resolution; 5] = [
        Resolution::R240,
        Resolution::R360,
        Resolution::R480,
        Resolution::R720,
        Resolution::R1080,
    ];

    /// Approximate video bitrate for this resolution, bytes per second.
    /// (2010-era H.264/FLV encodes.)
    pub fn bytes_per_sec(self) -> u64 {
        match self {
            Resolution::R240 => 40_000,
            Resolution::R360 => 70_000,
            Resolution::R480 => 120_000,
            Resolution::R720 => 260_000,
            Resolution::R1080 => 480_000,
        }
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resolution::R240 => "240p",
            Resolution::R360 => "360p",
            Resolution::R480 => "480p",
            Resolution::R720 => "720p",
            Resolution::R1080 => "1080p",
        };
        f.write_str(s)
    }
}

/// One line of a Tstat flow log: a single TCP flow between a client in the
/// monitored network and a YouTube content server.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    /// Client (monitored-network) address.
    pub client_ip: Ipv4Addr,
    /// Content-server address.
    pub server_ip: Ipv4Addr,
    /// Flow start, ms since the start of the collection window.
    pub start_ms: u64,
    /// Flow end, ms since the start of the collection window.
    pub end_ms: u64,
    /// Total bytes carried server→client.
    pub bytes: u64,
    /// The requested video.
    pub video_id: VideoId,
    /// The requested resolution.
    pub resolution: Resolution,
}

impl FlowRecord {
    /// Flow duration in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `end_ms < start_ms`; such a record is
    /// malformed.
    pub fn duration_ms(&self) -> u64 {
        debug_assert!(self.end_ms >= self.start_ms);
        self.end_ms.saturating_sub(self.start_ms)
    }

    /// Validates internal consistency (times ordered).
    pub fn is_well_formed(&self) -> bool {
        self.end_ms >= self.start_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_id_roundtrip_small() {
        for i in 0..1000u64 {
            let id = VideoId::from_index(i);
            let s = id.as_str();
            assert_eq!(s.len(), 11);
            assert_eq!(s.parse::<VideoId>().unwrap(), id, "index {i} str {s}");
        }
    }

    #[test]
    fn video_id_distinct_strings() {
        let a = VideoId::from_index(1).as_str();
        let b = VideoId::from_index(2).as_str();
        assert_ne!(a, b);
        // Consecutive indices should not produce visually consecutive IDs.
        let differing = a.bytes().zip(b.bytes()).filter(|(x, y)| x != y).count();
        assert!(differing > 3, "{a} vs {b}");
    }

    #[test]
    fn video_id_str_is_inline_and_consistent() {
        let id = VideoId::from_index(123_456);
        let s = id.as_str();
        // The buffer type derefs to the same string Display renders.
        assert_eq!(&*s, format!("{id}"));
        assert_eq!(s.as_str(), s.as_ref() as &str);
        assert_eq!(s, *s.as_str());
        assert_eq!(format!("{s}"), format!("{id}"));
        // Copy semantics: no clone needed, both copies agree.
        let t = s;
        assert_eq!(s, t);
    }

    #[test]
    fn video_id_parse_rejects_bad() {
        assert!("short".parse::<VideoId>().is_err());
        assert!("waytoolongvideoid".parse::<VideoId>().is_err());
        assert!("abc!efghijk".parse::<VideoId>().is_err());
        // 11 chars but encodes > u64::MAX (top bits set).
        assert!("__________Z".parse::<VideoId>().is_err());
    }

    #[test]
    fn resolution_bitrates_monotone() {
        let rates: Vec<_> = Resolution::ALL.iter().map(|r| r.bytes_per_sec()).collect();
        assert!(rates.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn flow_duration() {
        let f = FlowRecord {
            client_ip: "10.0.0.1".parse().unwrap(),
            server_ip: "74.125.0.1".parse().unwrap(),
            start_ms: 1000,
            end_ms: 61_000,
            bytes: 5_000_000,
            video_id: VideoId::from_index(0),
            resolution: Resolution::R360,
        };
        assert_eq!(f.duration_ms(), 60_000);
        assert!(f.is_well_formed());
    }
}
