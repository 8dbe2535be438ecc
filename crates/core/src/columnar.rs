//! The `.ytc` compact columnar dataset format.
//!
//! A week-long trace is re-analysed dozens of times per sweep; this module
//! gives the flow logs a deterministic binary on-disk form so `ytcdn repro`
//! and `ytcdn watch` can skip simulation entirely. The layout is
//! struct-of-arrays, mirroring the in-memory [`Dataset`]: each column is
//! stored contiguously — delta-encoded start timestamps, varint durations
//! and byte counts, raw client addresses, the server and video
//! dictionaries with one rank per flow (the numeric-index twin of the
//! inline [`ytcdn_tstat::VideoIdStr`] trick), one resolution byte per flow
//! — plus a per-hour block index, which the decoder cross-validates
//! against the timestamp column.
//!
//! The encoder writes the dataset's dictionaries and ranks as they are
//! (the simulation engine, or [`Dataset::from_records`] for any other
//! source of rows, built them). The decoder validates each
//! block straight into the final columns and hands them to
//! [`Dataset::from_columns`], which checks the cross-column invariants:
//! every rank in range, every dictionary entry referenced, `(start_ms,
//! end_ms)` order. A file the canonical encoder could not have written is
//! rejected, so equal datasets are equal bytes.
//!
//! Integrity: a versioned header, a SHA-256 per section, and a whole-file
//! SHA-256 (all in-tree, [`crate::sha256`]). Every way a file can be
//! malformed surfaces as a typed [`FormatError`] — decoding never panics.
//!
//! Determinism: encoding is a pure function of the header values and the
//! dataset columns. The same seed/scale/mutations produce byte-identical
//! files for any simulation worker count, so golden tests pin whole-file
//! digests.
//! The full byte layout is specified in `DESIGN.md` §13.
//!
//! Determinism note: every collection here is a `Vec` (lint rule `DET003`
//! applies to this module), so encoded bytes never depend on hash
//! iteration order.

use std::fmt;
use std::io::{Read, Write};
use std::net::Ipv4Addr;
use std::ops::Range;

use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::{
    ColumnError, Dataset, DatasetColumns, DatasetName, Resolution, VideoId, HOUR_MS,
};

use crate::sha256::{sha256, Sha256, DIGEST_LEN};

/// The file magic, first four bytes of every `.ytc` file.
pub const MAGIC: [u8; 4] = *b"YTCF";

/// The current format version. Decoders reject any other value: the format
/// versions by whole files, not by per-section negotiation (see the
/// version policy in `DESIGN.md` §13).
pub const FORMAT_VERSION: u16 = 1;

/// Column block tags, in the fixed order they appear within a dataset
/// section. Version 1 knows exactly these eight; anything else is
/// [`FormatError::UnexpectedBlock`].
const TAG_HOUR_INDEX: u8 = 1;
const TAG_START_MS: u8 = 2;
const TAG_DURATION_MS: u8 = 3;
const TAG_BYTES: u8 = 4;
const TAG_CLIENT_IP: u8 = 5;
const TAG_SERVER_DICT: u8 = 6;
const TAG_VIDEO_DICT: u8 = 7;
const TAG_RESOLUTION: u8 = 8;

/// Why a `.ytc` file could not be read or written.
///
/// The taxonomy is closed: every malformed input maps to exactly one of
/// these, and decoding never panics. Most variants compare structurally in
/// tests via `matches!`; `Io` wraps the underlying error.
#[derive(Debug)]
pub enum FormatError {
    /// An underlying read or write failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The file declares a version this decoder does not speak.
    UnsupportedVersion {
        /// The declared version.
        found: u16,
    },
    /// The input ended before a structure was complete.
    Truncated {
        /// What was being read when the bytes ran out.
        what: &'static str,
    },
    /// A section's recorded SHA-256 does not match its payload.
    ChecksumMismatch {
        /// Which section failed (`header`, `dataset section N`, `file`).
        section: String,
    },
    /// A dataset-name code outside the five known vantage points.
    UnknownDatasetName {
        /// The code found.
        code: u8,
    },
    /// A column block appeared out of the fixed v1 order.
    UnexpectedBlock {
        /// The tag required at this position.
        expected: u8,
        /// The tag found.
        found: u8,
    },
    /// A varint ran past 10 bytes or past the end of its block.
    BadVarint {
        /// Which field was being decoded.
        what: &'static str,
    },
    /// The per-hour index is inconsistent with the timestamp column.
    BadHourIndex {
        /// What invariant failed.
        reason: String,
    },
    /// A server/video dictionary is unsorted, holds an entry no flow
    /// references, or a reference is out of range.
    BadDictionary {
        /// What invariant failed.
        what: String,
    },
    /// A resolution byte outside the known codes `0..=4`.
    BadResolution {
        /// The code found.
        code: u8,
    },
    /// A record violates a flow invariant (`end_ms < start_ms`).
    MalformedRecord {
        /// Index of the record within its dataset.
        index: usize,
    },
    /// Two flows with the same `start_ms` stored with descending `end_ms`:
    /// the encoder writes flows in `(start_ms, end_ms)` order, so no
    /// canonical file holds them.
    OutOfOrder {
        /// Index of the later record within its dataset.
        index: usize,
    },
    /// The same vantage point appears twice in one file.
    DuplicateDataset {
        /// The repeated dataset name.
        name: String,
    },
    /// A dataset required by the caller is not in the file.
    MissingDataset {
        /// The absent dataset name.
        name: String,
    },
    /// Bytes remain after the whole-file checksum.
    TrailingData {
        /// How many extra bytes follow.
        extra: usize,
    },
    /// A declared count disagrees with the bytes actually present.
    CountMismatch {
        /// Which structure was inconsistent.
        what: &'static str,
        /// The declared value.
        expected: u64,
        /// The value implied by the payload.
        found: u64,
    },
    /// A wire-declared length or count does not fit this platform's
    /// address space (only reachable where `usize` is narrower than the
    /// u64 wire field, or when a derived byte length overflows).
    LengthOverflow {
        /// Which field was being converted.
        what: &'static str,
        /// The declared value.
        value: u64,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "ytc i/o error: {e}"),
            Self::BadMagic { found } => write!(
                f,
                "not a .ytc file: magic {found:02x?} (want {:02x?})",
                MAGIC
            ),
            Self::UnsupportedVersion { found } => write!(
                f,
                "unsupported .ytc version {found} (this decoder speaks {FORMAT_VERSION})"
            ),
            Self::Truncated { what } => write!(f, "truncated .ytc file while reading {what}"),
            Self::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in {section} (corrupt file)")
            }
            Self::UnknownDatasetName { code } => {
                write!(f, "unknown dataset name code {code} (want 0..=4)")
            }
            Self::UnexpectedBlock { expected, found } => write!(
                f,
                "unexpected column block tag {found} (want {expected} at this position)"
            ),
            Self::BadVarint { what } => write!(f, "malformed varint while decoding {what}"),
            Self::BadHourIndex { reason } => write!(f, "bad hour index: {reason}"),
            Self::BadDictionary { what } => write!(f, "bad dictionary: {what}"),
            Self::BadResolution { code } => {
                write!(f, "unknown resolution code {code} (want 0..=4)")
            }
            Self::MalformedRecord { index } => {
                write!(f, "malformed flow record at index {index} (end < start)")
            }
            Self::OutOfOrder { index } => write!(
                f,
                "flow record {index} ends before its predecessor with the same start"
            ),
            Self::DuplicateDataset { name } => {
                write!(f, "dataset {name} appears more than once")
            }
            Self::MissingDataset { name } => write!(f, "dataset {name} not present in the file"),
            Self::TrailingData { extra } => {
                write!(f, "{extra} trailing bytes after the file checksum")
            }
            Self::CountMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what}: declared {expected}, payload implies {found}"),
            Self::LengthOverflow { what, value } => write!(
                f,
                "{what}: declared {value} exceeds this platform's address space"
            ),
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        if let Self::Io(e) = self {
            Some(e)
        } else {
            None
        }
    }
}

impl From<std::io::Error> for FormatError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Convenience alias for this module's results.
pub type FormatResult<T> = Result<T, FormatError>;

/// Converts a wire-declared length or count to `usize`, surfacing values
/// that cannot index memory on this platform as a typed error instead of
/// truncating (`.ytc` counts are u64 on the wire; `usize` may be
/// narrower).
fn wire_len(v: u64, what: &'static str) -> FormatResult<usize> {
    usize::try_from(v).map_err(|_| FormatError::LengthOverflow { what, value: v })
}

/// The provenance a `.ytc` file records: the scenario inputs that produced
/// its datasets, so `ytcdn repro --from` and `ytcdn watch --from` can
/// rebuild the same analysis world without re-specifying them.
#[derive(Debug, Clone, PartialEq)]
pub struct YtcHeader {
    /// Workload scale the datasets were simulated at.
    pub scale: f64,
    /// Scenario seed.
    pub seed: u64,
    /// Scheduled mutation specs (`kind@hour:arg`) applied during
    /// simulation, in order; empty for an unmutated trace.
    pub mutations: Vec<String>,
}

/// One dataset as columns plus its per-hour block index: what the
/// encoder writes as the hour block, and what the decoder read from it
/// and cross-checked against the timestamp column (a file whose hour
/// block disagrees with its timestamps is rejected). Analysis does not
/// read it: [`crate::index::DatasetIndex::build`] bins the hours itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarDataset {
    dataset: Dataset,
    hour_ranges: Vec<Range<usize>>,
}

impl ColumnarDataset {
    /// Wraps a dataset, computing its per-hour index (the same binning as
    /// [`crate::index::DatasetIndex`]: always at least one range, even for
    /// an empty dataset).
    ///
    /// # Errors
    ///
    /// [`FormatError::MalformedRecord`] if any record has `end_ms <
    /// start_ms` — such a record has no encodable duration.
    pub fn from_dataset(dataset: Dataset) -> FormatResult<Self> {
        let c = dataset.columns();
        if let Some(index) = c.start_ms.iter().zip(&c.end_ms).position(|(s, e)| e < s) {
            return Err(FormatError::MalformedRecord { index });
        }
        let hour_ranges = compute_hour_ranges(&c.start_ms);
        Ok(Self {
            dataset,
            hour_ranges,
        })
    }

    /// The wrapped dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Per-hour record-index ranges, shaped exactly like
    /// [`DatasetIndex::hour_ranges`](crate::index::DatasetIndex::hour_ranges).
    pub fn hour_ranges(&self) -> &[Range<usize>] {
        &self.hour_ranges
    }

    /// Unwraps the dataset, discarding the hour index.
    pub fn into_dataset(self) -> Dataset {
        self.dataset
    }
}

/// Per-hour contiguous index ranges over a sorted start-time column: the
/// one hour binning, shared by the encoder and
/// [`crate::index::DatasetIndex::build`]. An empty dataset still gets its
/// hour-0 range, so the hourly analyses keep their "at least one sample"
/// shape.
///
/// # Panics
///
/// Panics if `start_ms` is not sorted (a [`Dataset`]'s always is).
pub(crate) fn compute_hour_ranges(start_ms: &[u64]) -> Vec<Range<usize>> {
    let n = start_ms.len();
    let hours = start_ms.last().map_or(0, |&last| last / HOUR_MS) + 1;
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(hours as usize);
    let mut pos = 0usize;
    for h in 0..hours {
        let start = pos;
        while pos < n && start_ms[pos] / HOUR_MS == h {
            pos += 1;
        }
        ranges.push(start..pos);
    }
    assert_eq!(pos, n, "dataset records must be sorted by start time");
    ranges
}

/// An in-memory `.ytc` file: provenance header plus one columnar dataset
/// per vantage point.
#[derive(Debug, Clone, PartialEq)]
pub struct YtcFile {
    /// The provenance header.
    pub header: YtcHeader,
    datasets: Vec<ColumnarDataset>,
}

impl YtcFile {
    /// Assembles a file from plain datasets (typically fresh from the
    /// simulator), in the order given.
    ///
    /// # Errors
    ///
    /// [`FormatError::DuplicateDataset`] if two datasets share a vantage
    /// point, or [`FormatError::MalformedRecord`] from
    /// [`ColumnarDataset::from_dataset`].
    pub fn new(header: YtcHeader, datasets: Vec<Dataset>) -> FormatResult<Self> {
        let mut seen = [false; DatasetName::ALL.len()];
        for ds in &datasets {
            let slot = ds.name().index();
            if seen[slot] {
                return Err(FormatError::DuplicateDataset {
                    name: ds.name().to_string(),
                });
            }
            seen[slot] = true;
        }
        let datasets = datasets
            .into_iter()
            .map(ColumnarDataset::from_dataset)
            .collect::<FormatResult<Vec<_>>>()?;
        Ok(Self { header, datasets })
    }

    /// The datasets, in file order.
    pub fn datasets(&self) -> &[ColumnarDataset] {
        &self.datasets
    }

    /// The dataset for one vantage point.
    ///
    /// # Errors
    ///
    /// [`FormatError::MissingDataset`] when the file does not carry it.
    pub fn dataset(&self, name: DatasetName) -> FormatResult<&ColumnarDataset> {
        self.datasets
            .iter()
            .find(|c| c.dataset().name() == name)
            .ok_or_else(|| FormatError::MissingDataset {
                name: name.to_string(),
            })
    }

    /// Unwraps into the columnar datasets, in file order.
    pub fn into_columnar_datasets(self) -> Vec<ColumnarDataset> {
        self.datasets
    }

    /// Unwraps into plain datasets, in file order.
    pub fn into_datasets(self) -> Vec<Dataset> {
        self.datasets
            .into_iter()
            .map(ColumnarDataset::into_dataset)
            .collect()
    }

    /// Total flow records across all datasets.
    pub fn total_flows(&self) -> u64 {
        self.datasets.iter().map(|c| c.dataset().len() as u64).sum()
    }

    /// Encodes the file to its canonical byte form. Deterministic: equal
    /// headers and columns yield identical bytes, whatever worker count
    /// produced the records. Runs the same streaming encoder as
    /// [`YtcFile::write_to`], into a `Vec`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let streamed = self.stream_to(&mut out);
        // ytcdn-lint: allow(PAN001) — writing into a Vec<u8> never fails
        streamed.expect("Vec<u8> writes are infallible");
        out
    }

    /// The one encoder: streams the header and each dataset section
    /// straight to `w` through one running SHA-256 over the file body, so
    /// the whole file is never held in memory. One section buffer is
    /// reused across sections. Returns the bytes written.
    fn stream_to<W: Write>(&self, w: W) -> std::io::Result<u64> {
        let mut body = BodyWriter::new(w);
        body.put(&MAGIC)?;
        body.put(&FORMAT_VERSION.to_le_bytes())?;

        let mut section = Vec::new();
        encode_header(&mut section, &self.header, self.datasets.len() as u64);
        body.put(&(section.len() as u32).to_le_bytes())?;
        body.put(&section)?;
        body.put(&sha256(&section))?;

        let mut block = Vec::new();
        for c in &self.datasets {
            section.clear();
            encode_section(&mut section, &mut block, c);
            body.put(&(section.len() as u64).to_le_bytes())?;
            body.put(&section)?;
            body.put(&sha256(&section))?;
        }
        body.finish()
    }

    /// Decodes a full file image, verifying every checksum and invariant.
    ///
    /// # Errors
    ///
    /// The [`FormatError`] naming the first malformation found; never
    /// panics, whatever the input bytes.
    pub fn decode(bytes: &[u8]) -> FormatResult<Self> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4, "magic")?;
        if magic != MAGIC {
            return Err(FormatError::BadMagic {
                found: [magic[0], magic[1], magic[2], magic[3]],
            });
        }
        let version = r.u16_le("version")?;
        if version != FORMAT_VERSION {
            return Err(FormatError::UnsupportedVersion { found: version });
        }

        let header_len = wire_len(u64::from(r.u32_le("header length")?), "header length")?;
        let header_bytes = r.take(header_len, "header payload")?;
        let header_digest = r.take(DIGEST_LEN, "header checksum")?;
        if sha256(header_bytes) != header_digest {
            return Err(FormatError::ChecksumMismatch {
                section: "header".to_owned(),
            });
        }
        let (header, dataset_count) = decode_header(header_bytes)?;

        let mut datasets = Vec::new();
        let mut seen = [false; DatasetName::ALL.len()];
        for i in 0..dataset_count {
            let section_len = wire_len(r.u64_le("section length")?, "section length")?;
            let payload = r.take(section_len, "dataset section payload")?;
            let digest = r.take(DIGEST_LEN, "dataset section checksum")?;
            if sha256(payload) != digest {
                return Err(FormatError::ChecksumMismatch {
                    section: format!("dataset section {i}"),
                });
            }
            let columnar = decode_section(payload)?;
            let slot = columnar.dataset().name().index();
            if seen[slot] {
                return Err(FormatError::DuplicateDataset {
                    name: columnar.dataset().name().to_string(),
                });
            }
            seen[slot] = true;
            datasets.push(columnar);
        }

        let body_end = r.pos();
        let file_digest = r.take(DIGEST_LEN, "file checksum")?;
        if sha256(&bytes[..body_end]) != file_digest {
            return Err(FormatError::ChecksumMismatch {
                section: "file".to_owned(),
            });
        }
        if r.remaining() != 0 {
            return Err(FormatError::TrailingData {
                extra: r.remaining(),
            });
        }
        Ok(Self { header, datasets })
    }

    /// Encodes and writes the file, instrumented: the write runs under a
    /// `ytc.write` span and bumps the `ytc.write.bytes` / `ytc.write.flows`
    /// counters.
    ///
    /// # Errors
    ///
    /// [`FormatError::Io`] from the writer.
    pub fn write_to<W: Write>(&self, w: W, telemetry: &Telemetry) -> FormatResult<u64> {
        let _span = telemetry.span("ytc.write");
        let written = self.stream_to(w)?;
        telemetry.counter("ytc.write.bytes").add(written);
        telemetry.counter("ytc.write.flows").add(self.total_flows());
        Ok(written)
    }

    /// Reads and decodes a file, instrumented: the read runs under a
    /// `ytc.read` span and bumps the `ytc.read.bytes` / `ytc.read.flows`
    /// counters.
    ///
    /// # Errors
    ///
    /// [`FormatError::Io`] from the reader, or any decode error.
    pub fn read_from<R: Read>(mut r: R, telemetry: &Telemetry) -> FormatResult<Self> {
        let _span = telemetry.span("ytc.read");
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let file = Self::decode(&bytes)?;
        telemetry.counter("ytc.read.bytes").add(bytes.len() as u64);
        telemetry.counter("ytc.read.flows").add(file.total_flows());
        Ok(file)
    }
}

/// The wire code of a dataset name: its position in [`DatasetName::ALL`]
/// ([`DatasetName::index`]), which is below 5 and so fits the byte.
fn name_code(name: DatasetName) -> u8 {
    name.index() as u8
}

fn name_from_code(code: u8) -> FormatResult<DatasetName> {
    DatasetName::ALL
        .get(code as usize)
        .copied()
        .ok_or(FormatError::UnknownDatasetName { code })
}

// ---------------------------------------------------------------------------
// Varints (LEB128, u64, at most 10 bytes).

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

// ---------------------------------------------------------------------------
// Encoding.

/// The file body's sink: every byte before the file digest goes to the
/// writer and into one running SHA-256, so the digest needs no second
/// pass over a buffered copy.
struct BodyWriter<W> {
    inner: W,
    hasher: Sha256,
    len: u64,
}

impl<W: Write> BodyWriter<W> {
    fn new(inner: W) -> Self {
        Self {
            inner,
            hasher: Sha256::new(),
            len: 0,
        }
    }

    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.write_all(bytes)?;
        self.hasher.update(bytes);
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Appends the file digest (not itself hashed), flushes, and returns
    /// the total bytes written.
    fn finish(mut self) -> std::io::Result<u64> {
        self.inner.write_all(&self.hasher.finalize())?;
        self.inner.flush()?;
        Ok(self.len + DIGEST_LEN as u64)
    }
}

fn encode_header(out: &mut Vec<u8>, header: &YtcHeader, dataset_count: u64) {
    out.extend_from_slice(&header.scale.to_bits().to_le_bytes());
    out.extend_from_slice(&header.seed.to_le_bytes());
    push_varint(out, header.mutations.len() as u64);
    for m in &header.mutations {
        push_varint(out, m.len() as u64);
        out.extend_from_slice(m.as_bytes());
    }
    push_varint(out, dataset_count);
}

fn push_block(out: &mut Vec<u8>, tag: u8, data: &[u8]) {
    out.push(tag);
    push_varint(out, data.len() as u64);
    out.extend_from_slice(data);
}

/// Encodes one dataset section payload (name byte, flow count, the eight
/// column blocks in fixed tag order) into `out`, staging each block in
/// `block`; both buffers are the caller's, reused across sections. The
/// dataset's columns and dictionaries are written as they are.
fn encode_section(out: &mut Vec<u8>, block: &mut Vec<u8>, c: &ColumnarDataset) {
    let cols = c.dataset().columns();
    out.push(name_code(c.dataset().name()));
    push_varint(out, c.dataset().len() as u64);

    // 1: hour index — per-hour flow counts; the ranges are their prefix sums.
    block.clear();
    push_varint(block, c.hour_ranges().len() as u64);
    for range in c.hour_ranges() {
        push_varint(block, range.len() as u64);
    }
    push_block(out, TAG_HOUR_INDEX, block);

    // 2: start timestamps, delta-encoded (sorted, so deltas are small).
    block.clear();
    let mut prev = 0u64;
    for &start in &cols.start_ms {
        push_varint(block, start - prev);
        prev = start;
    }
    push_block(out, TAG_START_MS, block);

    // 3: durations (end - start; well-formedness checked at construction).
    block.clear();
    for (&start, &end) in cols.start_ms.iter().zip(&cols.end_ms) {
        push_varint(block, end - start);
    }
    push_block(out, TAG_DURATION_MS, block);

    // 4: byte counts.
    block.clear();
    for &bytes in &cols.bytes {
        push_varint(block, bytes);
    }
    push_block(out, TAG_BYTES, block);

    // 5: client addresses, raw 4-byte big-endian octets.
    block.clear();
    for &client in &cols.clients {
        block.extend_from_slice(&client.to_be_bytes());
    }
    push_block(out, TAG_CLIENT_IP, block);

    // 6/7: the server and video dictionaries, each followed by one rank
    // per flow.
    block.clear();
    let servers = cols.servers.iter().map(|&ip| u64::from(u32::from(ip)));
    encode_dict_block(block, servers, &cols.server_ranks);
    push_block(out, TAG_SERVER_DICT, block);

    block.clear();
    encode_dict_block(
        block,
        cols.videos.iter().map(|v| v.index()),
        &cols.video_ranks,
    );
    push_block(out, TAG_VIDEO_DICT, block);

    // 8: resolutions, one code byte per flow.
    block.clear();
    block.extend(cols.resolutions.iter().map(|&r| resolution_code(r)));
    push_block(out, TAG_RESOLUTION, block);
}

fn resolution_code(r: Resolution) -> u8 {
    // Position in Resolution::ALL; the decoder indexes the same array.
    match r {
        Resolution::R240 => 0,
        Resolution::R360 => 1,
        Resolution::R480 => 2,
        Resolution::R720 => 3,
        Resolution::R1080 => 4,
    }
}

/// Dictionary block: entry count, delta-encoded ascending entries (first
/// absolute, then strictly positive deltas), then one rank per flow.
fn encode_dict_block(
    out: &mut Vec<u8>,
    entries: impl ExactSizeIterator<Item = u64>,
    ranks: &[u32],
) {
    push_varint(out, entries.len() as u64);
    let mut prev = 0u64;
    for (i, v) in entries.enumerate() {
        push_varint(out, if i == 0 { v } else { v - prev });
        prev = v;
    }
    for &rank in ranks {
        push_varint(out, u64::from(rank));
    }
}

// ---------------------------------------------------------------------------
// Decoding.

/// Bounds-checked cursor over the input image; every read names what it
/// was after, so truncation errors stay diagnosable.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn pos(&self) -> usize {
        self.pos
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> FormatResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(FormatError::Truncated { what })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self, what: &'static str) -> FormatResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u16_le(&mut self, what: &'static str) -> FormatResult<u16> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32_le(&mut self, what: &'static str) -> FormatResult<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64_le(&mut self, what: &'static str) -> FormatResult<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn varint(&mut self, what: &'static str) -> FormatResult<u64> {
        let rest = &self.buf[self.pos..];
        let mut v = 0u64;
        // LEB128: at most ten 7-bit groups for a u64 (shifts 0, 7, …, 63).
        for (len, (&byte, shift)) in (1usize..).zip(rest.iter().zip((0..=63u32).step_by(7))) {
            if shift == 63 && byte > 1 {
                // The tenth group may only contribute the top bit; a
                // continuation bit there would run past 64 bits.
                return Err(FormatError::BadVarint { what });
            }
            v |= u64::from(byte & 0x7f).wrapping_shl(shift);
            if byte & 0x80 == 0 {
                self.pos = self.pos.saturating_add(len);
                return Ok(v);
            }
        }
        // Fewer than ten bytes left, every one a continuation.
        Err(FormatError::Truncated { what })
    }
}

fn decode_header(bytes: &[u8]) -> FormatResult<(YtcHeader, u64)> {
    let mut r = Reader::new(bytes);
    let scale = f64::from_bits(r.u64_le("header scale")?);
    let seed = r.u64_le("header seed")?;
    let mutation_count = r.varint("mutation count")?;
    let mut mutations = Vec::new();
    for _ in 0..mutation_count {
        let len = wire_len(r.varint("mutation length")?, "mutation length")?;
        let raw = r.take(len, "mutation spec")?;
        let spec = std::str::from_utf8(raw)
            .map_err(|_| FormatError::BadVarint {
                what: "mutation spec utf-8",
            })?
            .to_owned();
        mutations.push(spec);
    }
    let dataset_count = r.varint("dataset count")?;
    if r.remaining() != 0 {
        return Err(FormatError::CountMismatch {
            what: "header payload length",
            expected: bytes.len() as u64,
            found: (bytes.len() - r.remaining()) as u64,
        });
    }
    Ok((
        YtcHeader {
            scale,
            seed,
            mutations,
        },
        dataset_count,
    ))
}

/// Reads one tagged block, enforcing the fixed v1 tag order, and returns
/// its data slice.
fn take_block<'a>(r: &mut Reader<'a>, expected: u8) -> FormatResult<&'a [u8]> {
    let tag = r.u8("block tag")?;
    if tag != expected {
        return Err(FormatError::UnexpectedBlock {
            expected,
            found: tag,
        });
    }
    let len = wire_len(r.varint("block length")?, "block length")?;
    r.take(len, "block data")
}

/// Decodes `n` varints from one block straight into a column, passing each
/// (flow index, value) through `value`, and requires the block to be fully
/// consumed.
fn decode_column<T>(
    block: &[u8],
    n: usize,
    what: &'static str,
    mut value: impl FnMut(usize, u64) -> FormatResult<T>,
) -> FormatResult<Vec<T>> {
    let mut r = Reader::new(block);
    // Each varint is at least one byte, so a well-formed block is at least
    // `n` bytes — the capacity hint cannot be tricked into a huge alloc.
    let mut out = Vec::with_capacity(n.min(block.len()));
    for i in 0..n {
        out.push(value(i, r.varint(what)?)?);
    }
    if r.remaining() != 0 {
        return Err(FormatError::CountMismatch {
            what,
            expected: n as u64,
            found: (n as u64).saturating_add(r.remaining() as u64),
        });
    }
    Ok(out)
}

/// Decodes a dictionary block into (ascending entries, each passed through
/// `entry`, and per-flow ranks). Rank range and use of every entry are
/// checked by [`Dataset::from_columns`].
fn decode_dict_block<T>(
    block: &[u8],
    n: usize,
    what: &'static str,
    mut entry: impl FnMut(u64) -> FormatResult<T>,
) -> FormatResult<(Vec<T>, Vec<u32>)> {
    let mut r = Reader::new(block);
    let dict_len = wire_len(r.varint(what)?, what)?;
    let mut entries = Vec::with_capacity(dict_len.min(block.len()));
    let mut prev = 0u64;
    for i in 0..dict_len {
        let delta = r.varint(what)?;
        let value = if i == 0 {
            delta
        } else {
            if delta == 0 {
                return Err(FormatError::BadDictionary {
                    what: format!("{what}: entries not strictly ascending"),
                });
            }
            prev.checked_add(delta)
                .ok_or_else(|| FormatError::BadDictionary {
                    what: format!("{what}: entry overflows u64"),
                })?
        };
        entries.push(entry(value)?);
        prev = value;
    }
    let mut ranks = Vec::with_capacity(n.min(block.len()));
    for _ in 0..n {
        let raw = r.varint(what)?;
        ranks.push(u32::try_from(raw).map_err(|_| FormatError::BadDictionary {
            what: format!("{what}: reference {raw} out of range (dict has {dict_len})"),
        })?);
    }
    if r.remaining() != 0 {
        return Err(FormatError::CountMismatch {
            what,
            expected: n as u64,
            found: (n as u64).saturating_add(r.remaining() as u64),
        });
    }
    Ok((entries, ranks))
}

/// Maps a rejected set of decoded columns onto the format's taxonomy.
fn column_error(e: ColumnError) -> FormatError {
    match e {
        ColumnError::LengthMismatch { column, len, flows } => FormatError::CountMismatch {
            what: column,
            expected: flows as u64,
            found: len as u64,
        },
        ColumnError::EndBeforeStart { flow } => FormatError::MalformedRecord { index: flow },
        ColumnError::OutOfOrder { flow } => FormatError::OutOfOrder { index: flow },
        ColumnError::DictionaryNotAscending { .. }
        | ColumnError::RankOutOfRange { .. }
        | ColumnError::UnreferencedEntry { .. } => FormatError::BadDictionary {
            what: e.to_string(),
        },
    }
}

fn decode_section(payload: &[u8]) -> FormatResult<ColumnarDataset> {
    let mut r = Reader::new(payload);
    let name = name_from_code(r.u8("dataset name")?)?;
    let n = wire_len(r.varint("flow count")?, "flow count")?;

    // 1: hour index.
    let hour_block = take_block(&mut r, TAG_HOUR_INDEX)?;
    let mut hr = Reader::new(hour_block);
    let hour_count = wire_len(hr.varint("hour count")?, "hour count")?;
    if hour_count == 0 {
        return Err(FormatError::BadHourIndex {
            reason: "zero hours (even an empty dataset has one)".to_owned(),
        });
    }
    let mut hour_ranges: Vec<Range<usize>> = Vec::with_capacity(hour_count.min(hour_block.len()));
    let mut covered = 0usize;
    for _ in 0..hour_count {
        let count = wire_len(hr.varint("hour flow count")?, "hour flow count")?;
        let end = covered
            .checked_add(count)
            .filter(|&e| e <= n)
            .ok_or_else(|| FormatError::BadHourIndex {
                reason: format!("hour counts exceed the {n} declared flows"),
            })?;
        hour_ranges.push(covered..end);
        covered = end;
    }
    if hr.remaining() != 0 {
        return Err(FormatError::CountMismatch {
            what: "hour index block",
            expected: hour_count as u64,
            found: (hour_count as u64).saturating_add(hr.remaining() as u64),
        });
    }
    if covered != n {
        return Err(FormatError::BadHourIndex {
            reason: format!("hour counts cover {covered} of {n} flows"),
        });
    }

    // 2–4: varint columns, decoded straight into start, end and bytes.
    let mut start = 0u64;
    let start_ms = decode_column(
        take_block(&mut r, TAG_START_MS)?,
        n,
        "start_ms",
        |_, delta| {
            start = start
                .checked_add(delta)
                .ok_or(FormatError::BadVarint { what: "start_ms" })?;
            Ok(start)
        },
    )?;
    let duration_block = take_block(&mut r, TAG_DURATION_MS)?;
    let end_ms = decode_column(duration_block, n, "duration_ms", |i, duration| {
        start_ms[i]
            .checked_add(duration)
            .ok_or(FormatError::BadVarint {
                what: "duration_ms",
            })
    })?;
    let bytes = decode_column(take_block(&mut r, TAG_BYTES)?, n, "bytes", |_, v| Ok(v))?;

    // 5: client addresses — exactly four bytes per flow.
    let client_block = take_block(&mut r, TAG_CLIENT_IP)?;
    let client_len = n.checked_mul(4).ok_or(FormatError::LengthOverflow {
        what: "client address block",
        value: (n as u64).saturating_mul(4),
    })?;
    if client_block.len() != client_len {
        return Err(FormatError::CountMismatch {
            what: "client address block",
            expected: (n as u64).saturating_mul(4),
            found: client_block.len() as u64,
        });
    }
    let clients = client_block
        .chunks_exact(4)
        .map(|o| u32::from_be_bytes([o[0], o[1], o[2], o[3]]))
        .collect();

    // 6–7: dictionaries.
    let server_block = take_block(&mut r, TAG_SERVER_DICT)?;
    let (servers, server_ranks) = decode_dict_block(server_block, n, "server dictionary", |v| {
        u32::try_from(v)
            .map(Ipv4Addr::from)
            .map_err(|_| FormatError::BadDictionary {
                what: format!("server dictionary: entry {v} exceeds an IPv4 address"),
            })
    })?;
    let video_block = take_block(&mut r, TAG_VIDEO_DICT)?;
    let (videos, video_ranks) = decode_dict_block(video_block, n, "video dictionary", |v| {
        Ok(VideoId::from_index(v))
    })?;

    // 8: resolutions — one code byte per flow.
    let res_block = take_block(&mut r, TAG_RESOLUTION)?;
    if res_block.len() != n {
        return Err(FormatError::CountMismatch {
            what: "resolution block",
            expected: n as u64,
            found: res_block.len() as u64,
        });
    }
    let resolutions = res_block
        .iter()
        .map(|&code| {
            Resolution::ALL
                .get(usize::from(code))
                .copied()
                .ok_or(FormatError::BadResolution { code })
        })
        .collect::<FormatResult<Vec<_>>>()?;
    if r.remaining() != 0 {
        return Err(FormatError::CountMismatch {
            what: "dataset section payload",
            expected: (payload.len() - r.remaining()) as u64,
            found: payload.len() as u64,
        });
    }

    // Cross-validate the hour index against the decoded timestamps: every
    // record must sit in its declared hour, and the trailing hour must be
    // the last non-empty one (so two equal files cannot differ in padding).
    for (h, range) in hour_ranges.iter().enumerate() {
        if let Some(i) = range.clone().find(|&i| start_ms[i] / HOUR_MS != h as u64) {
            return Err(FormatError::BadHourIndex {
                reason: format!(
                    "flow {i} starts in hour {} but is indexed under hour {h}",
                    start_ms[i] / HOUR_MS
                ),
            });
        }
    }
    // Starts ascend by delta construction, so the last is the latest.
    let expected_hours = start_ms
        .last()
        .map_or(0, |&last| last / HOUR_MS)
        .saturating_add(1);
    if hour_ranges.len() as u64 != expected_hours {
        return Err(FormatError::BadHourIndex {
            reason: format!(
                "{} hours indexed, timestamps span {expected_hours}",
                hour_ranges.len()
            ),
        });
    }

    // The cross-column invariants: dictionary use, rank range, and
    // (start, end) order among equal starts.
    let columns = DatasetColumns {
        clients,
        server_ranks,
        start_ms,
        end_ms,
        bytes,
        video_ranks,
        resolutions,
        servers,
        videos,
    };
    Ok(ColumnarDataset {
        dataset: Dataset::from_columns(name, columns).map_err(column_error)?,
        hour_ranges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytcdn_tstat::FlowRecord;

    fn flow(start: u64, dur: u64, bytes: u64, video: u64, server: &str) -> FlowRecord {
        FlowRecord {
            client_ip: "10.1.2.3".parse().unwrap(),
            server_ip: server.parse().unwrap(),
            start_ms: start,
            end_ms: start + dur,
            bytes,
            video_id: VideoId::from_index(video),
            resolution: Resolution::ALL[(start % 5) as usize],
        }
    }

    fn sample() -> YtcFile {
        let a = Dataset::from_records(
            DatasetName::UsCampus,
            vec![
                flow(0, 100, 700, 9, "74.125.0.1"),
                flow(50, 60_000, 5_000_000, 9, "74.125.0.2"),
                flow(HOUR_MS + 1, 10, 900, 3, "74.125.0.1"),
            ],
        );
        let b = Dataset::new(DatasetName::Eu2);
        YtcFile::new(
            YtcHeader {
                scale: 0.01,
                seed: 42,
                mutations: vec!["dc-down@72:milan".into()],
            },
            vec![a, b],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_identity() {
        let file = sample();
        let bytes = file.encode();
        let back = YtcFile::decode(&bytes).unwrap();
        assert_eq!(back, file);
        // Re-encoding the decoded form is byte-stable.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn hour_ranges_match_index_shape() {
        let file = sample();
        let us = file.dataset(DatasetName::UsCampus).unwrap();
        assert_eq!(us.hour_ranges(), &[0..2, 2..3]);
        let empty = file.dataset(DatasetName::Eu2).unwrap();
        assert_eq!(empty.hour_ranges().len(), 1, "one empty hour, never zero");
        assert_eq!(empty.hour_ranges()[0], 0..0);
    }

    #[test]
    fn missing_and_duplicate_datasets_are_typed() {
        let file = sample();
        assert!(matches!(
            file.dataset(DatasetName::Eu1Adsl),
            Err(FormatError::MissingDataset { .. })
        ));
        let twice = YtcFile::new(
            YtcHeader {
                scale: 0.1,
                seed: 1,
                mutations: vec![],
            },
            vec![
                Dataset::new(DatasetName::Eu2),
                Dataset::new(DatasetName::Eu2),
            ],
        );
        assert!(matches!(twice, Err(FormatError::DuplicateDataset { .. })));
    }

    #[test]
    fn malformed_record_rejected_at_construction() {
        let mut bad = flow(100, 0, 1, 1, "74.125.0.1");
        bad.end_ms = 50;
        let err = ColumnarDataset::from_dataset(Dataset::from_records(DatasetName::Eu2, vec![bad]))
            .unwrap_err();
        assert!(matches!(err, FormatError::MalformedRecord { index: 0 }));
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint("test").unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
        // An 11-byte varint is malformed, not a wrap-around.
        let mut r = Reader::new(&[0xff; 11]);
        assert!(matches!(
            r.varint("test"),
            Err(FormatError::BadVarint { .. })
        ));
    }

    #[test]
    fn errors_render_the_failure() {
        let e = FormatError::UnsupportedVersion { found: 9 };
        assert!(e.to_string().contains('9'));
        assert!(FormatError::Truncated { what: "header" }
            .to_string()
            .contains("header"));
        assert!(std::error::Error::source(&FormatError::Io(std::io::Error::other("x"))).is_some());
    }

    /// The original dictionary encoder, kept as the oracle: a
    /// `BTreeMap` from each distinct value to its rank, looked up per flow.
    fn oracle_dict_block<T: Ord + Copy + Into<u64>>(values: &[T]) -> Vec<u8> {
        use std::collections::BTreeMap;
        let mut dict: BTreeMap<T, u64> = values.iter().map(|&v| (v, 0)).collect();
        for (rank, slot) in dict.values_mut().enumerate() {
            *slot = rank as u64;
        }
        let mut out = Vec::new();
        push_varint(&mut out, dict.len() as u64);
        let mut prev = 0u64;
        for (i, value) in dict.keys().enumerate() {
            let v: u64 = (*value).into();
            push_varint(&mut out, if i == 0 { v } else { v - prev });
            prev = v;
        }
        for value in values {
            push_varint(&mut out, dict[value]);
        }
        out
    }

    /// One flow per value, in order: the dataset builds the dictionaries
    /// and ranks, the encoder writes them. Values are video ids, and
    /// server addresses too when they all fit one.
    fn assert_dict_matches_oracle<T: Ord + Copy + Into<u64> + fmt::Debug>(values: &[T]) {
        let wide: Vec<u64> = values.iter().map(|&v| v.into()).collect();
        let records = (0u64..)
            .zip(&wide)
            .map(|(k, &v)| FlowRecord {
                server_ip: Ipv4Addr::from(u32::try_from(v).unwrap_or(0)),
                ..flow(k, 1, 1, v, "0.0.0.0")
            })
            .collect();
        let ds = Dataset::from_records(DatasetName::Eu2, records);
        let c = ds.columns();
        let mut block = Vec::new();
        encode_dict_block(
            &mut block,
            c.videos.iter().map(|v| v.index()),
            &c.video_ranks,
        );
        assert_eq!(block, oracle_dict_block(values), "videos {values:?}");
        if wide.iter().all(|&v| u32::try_from(v).is_ok()) {
            block.clear();
            let servers = c.servers.iter().map(|&ip| u64::from(u32::from(ip)));
            encode_dict_block(&mut block, servers, &c.server_ranks);
            assert_eq!(block, oracle_dict_block(values), "servers {values:?}");
        }
    }

    #[test]
    fn dict_block_matches_btreemap_oracle() {
        // Edge shapes: empty, one value, all duplicates, 0 and the widest
        // server address / video id.
        assert_dict_matches_oracle::<u32>(&[]);
        assert_dict_matches_oracle::<u64>(&[]);
        assert_dict_matches_oracle(&[7u32]);
        assert_dict_matches_oracle(&[0u64]);
        assert_dict_matches_oracle(&[42u32; 9]);
        assert_dict_matches_oracle(&[0u32, u32::MAX, 0, 1, u32::MAX]);
        assert_dict_matches_oracle(&[u64::MAX, 0, u64::MAX - 1, 1, u64::MAX]);

        // SimRng-drawn sets: narrow ranges force many duplicates, wide ones
        // produce large deltas.
        let mut rng = ytcdn_cdnsim::SimRng::seed_from_u64(0x5EED);
        for case in 0..64u64 {
            let len = rng.gen_range(0..400usize);
            let span = [2u64, 50, 1 << 20, u64::MAX][(case % 4) as usize];
            let videos: Vec<u64> = (0..len)
                .map(|_| match span {
                    u64::MAX => rng.next_u64(),
                    s => rng.gen_range(0..s),
                })
                .collect();
            assert_dict_matches_oracle(&videos);
            let servers: Vec<u32> = videos
                .iter()
                .map(|&v| (v >> 32) as u32 ^ v as u32)
                .collect();
            assert_dict_matches_oracle(&servers);
        }
    }

    /// A writer that accepts one byte per `write` call.
    struct OneByteWriter(Vec<u8>);

    impl Write for OneByteWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match buf.first() {
                Some(&b) => {
                    self.0.push(b);
                    Ok(1)
                }
                None => Ok(0),
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_write_matches_encode_byte_by_byte() {
        let telemetry = Telemetry::metrics_only();
        let file = sample();
        let mut w = OneByteWriter(Vec::new());
        let written = file.write_to(&mut w, &telemetry).unwrap();
        assert_eq!(w.0, file.encode());
        assert_eq!(written as usize, w.0.len());
        let snap = telemetry.metrics_snapshot().unwrap();
        assert_eq!(snap.counters["ytc.write.bytes"], written);
    }

    /// A writer that accepts `room` bytes, then fails every write.
    struct FailingWriter {
        room: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                return Err(std::io::Error::other("device full"));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failing_writer_surfaces_io_error() {
        let file = sample();
        let len = file.encode().len();
        // Magic, version, header length, header, its digest, then the
        // first section's length: a few bytes past that is mid-section.
        let header_len = file.encode()[6..10]
            .iter()
            .rev()
            .fold(0usize, |acc, &b| (acc << 8) | usize::from(b));
        let mid_section = 10 + header_len + DIGEST_LEN + 8 + 3;
        assert!(mid_section < len);
        for room in (0..len).chain([mid_section]) {
            let telemetry = Telemetry::metrics_only();
            let err = file
                .write_to(FailingWriter { room }, &telemetry)
                .unwrap_err();
            assert!(matches!(err, FormatError::Io(_)), "room {room}: {err}");
            let snap = telemetry.metrics_snapshot().unwrap();
            assert_eq!(snap.counter("ytc.write.bytes"), 0, "room {room}");
        }
        let fits = file.write_to(FailingWriter { room: len }, &Telemetry::disabled());
        assert_eq!(fits.unwrap() as usize, len);
    }

    #[test]
    fn write_and_read_are_instrumented() {
        let telemetry = Telemetry::metrics_only();
        let file = sample();
        let mut buf = Vec::new();
        let written = file.write_to(&mut buf, &telemetry).unwrap();
        assert_eq!(written as usize, buf.len());
        let back = YtcFile::read_from(&buf[..], &telemetry).unwrap();
        assert_eq!(back, file);
        let snap = telemetry.metrics_snapshot().unwrap();
        assert_eq!(snap.counters["ytc.write.bytes"], written);
        assert_eq!(snap.counters["ytc.read.bytes"], written);
        assert_eq!(snap.counters["ytc.write.flows"], 3);
        assert_eq!(snap.counters["ytc.read.flows"], 3);
        assert_eq!(snap.histograms["ytc.write"].count, 1);
        assert_eq!(snap.histograms["ytc.read"].count, 1);
    }
}
