//! Corruption suite for the `.ytc` decoder: every way a file can be
//! malformed surfaces as a typed [`FormatError`], never a panic.
//!
//! Three layers of attack:
//!
//! 1. **Blind damage** — truncate the file at every possible length and
//!    flip every single byte. The decoder must return `Err` each time
//!    (panicking fails the test), which the checksums guarantee: every
//!    body byte is covered by a section digest, and the digests by the
//!    whole-file digest.
//! 2. **Targeted framing damage** — wrong magic, unknown version, corrupt
//!    checksums, trailing bytes — each pinned to its exact variant.
//! 3. **Payload-level malformations** — since the checksums mask any blind
//!    payload edit as `ChecksumMismatch`, a test-local section builder
//!    mirrors the v1 wire layout and reassembles files with *valid*
//!    checksums around an invalid payload, pinning each structural
//!    invariant (hour index, dictionaries, counts, codes) to its variant.
//!
//! The builder is kept honest by `hand_built_file_matches_encoder`, which
//! requires its canonical output to be byte-identical to
//! [`YtcFile::encode`]. The CLI-facing half of the contract — `ytcdn
//! repro --from corrupt.ytc` exits non-zero with the reason on stderr — is
//! exercised by `scripts/check.sh`.

use ytcdn_core::columnar::{FORMAT_VERSION, MAGIC};
use ytcdn_core::sha256::sha256;
use ytcdn_core::{FormatError, YtcFile, YtcHeader};
use ytcdn_tstat::{Dataset, DatasetName, FlowRecord, Resolution, VideoId, HOUR_MS};

// ---------------------------------------------------------------------------
// Test-local wire builder (mirrors the v1 layout in DESIGN.md §13).

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

fn varint(v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    push_varint(&mut out, v);
    out
}

/// One dataset section as raw parts, so tests can malform any block while
/// the assembly below keeps every checksum valid.
#[derive(Clone)]
struct Section {
    name: u8,
    flow_count: u64,
    /// The eight `(tag, data)` column blocks, in wire order.
    blocks: Vec<(u8, Vec<u8>)>,
    /// Extra bytes appended after the last block (payload trailing data).
    trailing: Vec<u8>,
}

/// The server address of the canonical flow, as the wire's u32.
const SERVER_U32: u64 = u32::from_be_bytes([74, 125, 0, 1]) as u64;

/// The canonical single-flow section: one US-Campus flow, start 5 ms,
/// duration 3 ms, 10 bytes, client 10.0.0.1, server 74.125.0.1, video 7,
/// resolution code 0.
fn canonical_section() -> Section {
    let mut server = varint(1);
    server.extend(varint(SERVER_U32));
    server.extend(varint(0));
    let mut video = varint(1);
    video.extend(varint(7));
    video.extend(varint(0));
    let mut hour = varint(1);
    hour.extend(varint(1));
    Section {
        name: 0, // US-Campus
        flow_count: 1,
        blocks: vec![
            (1, hour),
            (2, varint(5)),
            (3, varint(3)),
            (4, varint(10)),
            (5, vec![10, 0, 0, 1]),
            (6, server),
            (7, video),
            (8, vec![0]),
        ],
        trailing: vec![],
    }
}

/// The flow `canonical_section` encodes, for the encoder cross-check.
fn canonical_flow() -> FlowRecord {
    FlowRecord {
        client_ip: "10.0.0.1".parse().expect("literal client ip"),
        server_ip: "74.125.0.1".parse().expect("literal server ip"),
        start_ms: 5,
        end_ms: 8,
        bytes: 10,
        video_id: VideoId::from_index(7),
        resolution: Resolution::ALL[0],
    }
}

fn encode_section(s: &Section) -> Vec<u8> {
    let mut out = vec![s.name];
    push_varint(&mut out, s.flow_count);
    for (tag, data) in &s.blocks {
        out.push(*tag);
        push_varint(&mut out, data.len() as u64);
        out.extend_from_slice(data);
    }
    out.extend_from_slice(&s.trailing);
    out
}

/// The canonical header payload: scale 0.5, seed 9, no mutations.
fn header_payload(dataset_count: u64) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
    out.extend_from_slice(&9u64.to_le_bytes());
    push_varint(&mut out, 0); // mutations
    push_varint(&mut out, dataset_count);
    out
}

/// Assembles a full file image with *correct* checksums around whatever
/// payloads it is given — the key to testing post-checksum validation.
fn assemble(header: &[u8], sections: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(header.len() as u32).to_le_bytes());
    out.extend_from_slice(header);
    out.extend_from_slice(&sha256(header));
    for payload in sections {
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&sha256(payload));
    }
    let digest = sha256(&out);
    out.extend_from_slice(&digest);
    out
}

/// One-section file from a (usually malformed) section.
fn file_with(section: Section) -> Vec<u8> {
    assemble(&header_payload(1), &[encode_section(&section)])
}

/// Decodes a mutated canonical section and returns the error it must
/// produce.
fn decode_err(mutate: impl FnOnce(&mut Section)) -> FormatError {
    let mut s = canonical_section();
    mutate(&mut s);
    YtcFile::decode(&file_with(s)).expect_err("malformed section must not decode")
}

// ---------------------------------------------------------------------------
// Builder honesty + blind damage.

/// The test-local builder and the real encoder agree byte-for-byte on the
/// canonical file — any drift in the wire layout breaks this first.
#[test]
fn hand_built_file_matches_encoder() {
    let real = YtcFile::new(
        YtcHeader {
            scale: 0.5,
            seed: 9,
            mutations: vec![],
        },
        vec![Dataset::from_records(
            DatasetName::UsCampus,
            vec![canonical_flow()],
        )],
    )
    .unwrap()
    .encode();
    assert_eq!(file_with(canonical_section()), real);
    // And the canonical hand-built image decodes cleanly.
    let back = YtcFile::decode(&real).unwrap();
    assert_eq!(back.total_flows(), 1);
}

/// Every strict prefix of a valid file fails to decode (and never panics).
#[test]
fn truncation_at_every_length_is_a_typed_error() {
    let bytes = file_with(canonical_section());
    for len in 0..bytes.len() {
        let err = YtcFile::decode(&bytes[..len]).expect_err("a truncated file must not decode");
        assert!(
            matches!(
                err,
                FormatError::Truncated { .. } | FormatError::ChecksumMismatch { .. }
            ),
            "truncation at {len}/{} gave unexpected error: {err}",
            bytes.len()
        );
    }
}

/// Flipping any single byte of a valid file fails to decode: the checksums
/// leave no byte uncovered.
#[test]
fn every_single_byte_flip_is_a_typed_error() {
    let bytes = file_with(canonical_section());
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0xff;
        assert!(
            YtcFile::decode(&corrupt).is_err(),
            "flipping byte {i}/{} still decoded",
            bytes.len()
        );
    }
}

// ---------------------------------------------------------------------------
// Targeted framing damage.

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = file_with(canonical_section());
    bytes[0] = b'X';
    let err = YtcFile::decode(&bytes).unwrap_err();
    assert!(
        matches!(err, FormatError::BadMagic { found } if found[0] == b'X'),
        "got {err}"
    );
}

#[test]
fn unsupported_version_is_rejected() {
    let mut bytes = file_with(canonical_section());
    bytes[4] = 99; // version u16 LE low byte
    let err = YtcFile::decode(&bytes).unwrap_err();
    assert!(
        matches!(err, FormatError::UnsupportedVersion { found: 99 }),
        "got {err}"
    );
}

/// Corrupting each integrity region names the right section: the header
/// digest, a section payload, and the whole-file digest.
#[test]
fn checksum_corruption_names_the_section() {
    let bytes = file_with(canonical_section());
    let header_len = header_payload(1).len();

    // A byte inside the stored header digest.
    let mut corrupt = bytes.clone();
    corrupt[4 + 2 + 4 + header_len] ^= 0xff;
    match YtcFile::decode(&corrupt).unwrap_err() {
        FormatError::ChecksumMismatch { section } => assert_eq!(section, "header"),
        other => panic!("got {other}"),
    }

    // A byte inside the first dataset section payload (just past its
    // length prefix).
    let section_payload_start = 4 + 2 + 4 + header_len + 32 + 8;
    let mut corrupt = bytes.clone();
    corrupt[section_payload_start] ^= 0xff;
    match YtcFile::decode(&corrupt).unwrap_err() {
        FormatError::ChecksumMismatch { section } => {
            assert_eq!(section, "dataset section 0");
        }
        other => panic!("got {other}"),
    }

    // A byte of the trailing whole-file digest.
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xff;
    match YtcFile::decode(&corrupt).unwrap_err() {
        FormatError::ChecksumMismatch { section } => assert_eq!(section, "file"),
        other => panic!("got {other}"),
    }
}

#[test]
fn trailing_bytes_after_file_digest_are_rejected() {
    let mut bytes = file_with(canonical_section());
    bytes.extend_from_slice(&[0, 0, 0]);
    let err = YtcFile::decode(&bytes).unwrap_err();
    assert!(
        matches!(err, FormatError::TrailingData { extra: 3 }),
        "got {err}"
    );
}

/// A header that promises more sections than the file carries runs out of
/// bytes, not out of patience.
#[test]
fn missing_promised_section_is_truncation() {
    let bytes = assemble(&header_payload(2), &[encode_section(&canonical_section())]);
    let err = YtcFile::decode(&bytes).unwrap_err();
    assert!(
        matches!(
            err,
            FormatError::Truncated { .. } | FormatError::ChecksumMismatch { .. }
        ),
        "got {err}"
    );
}

// ---------------------------------------------------------------------------
// Payload-level malformations (valid checksums, invalid structure).

#[test]
fn unknown_dataset_name_code() {
    let err = decode_err(|s| s.name = 9);
    assert!(
        matches!(err, FormatError::UnknownDatasetName { code: 9 }),
        "got {err}"
    );
}

#[test]
fn out_of_order_block_tag() {
    let err = decode_err(|s| s.blocks[0].0 = 42);
    assert!(
        matches!(
            err,
            FormatError::UnexpectedBlock {
                expected: 1,
                found: 42
            }
        ),
        "got {err}"
    );
}

#[test]
fn hour_index_with_zero_hours() {
    let err = decode_err(|s| s.blocks[0].1 = varint(0));
    assert!(
        matches!(err, FormatError::BadHourIndex { ref reason } if reason.contains("zero hours")),
        "got {err}"
    );
}

#[test]
fn hour_index_undercovering_the_flows() {
    // One hour declared, covering 0 of the 1 flow.
    let err = decode_err(|s| {
        let mut hour = varint(1);
        hour.extend(varint(0));
        s.blocks[0].1 = hour;
    });
    assert!(
        matches!(err, FormatError::BadHourIndex { ref reason } if reason.contains("cover")),
        "got {err}"
    );
}

#[test]
fn hour_index_exceeding_the_flows() {
    let err = decode_err(|s| {
        let mut hour = varint(1);
        hour.extend(varint(2));
        s.blocks[0].1 = hour;
    });
    assert!(
        matches!(err, FormatError::BadHourIndex { ref reason } if reason.contains("exceed")),
        "got {err}"
    );
}

#[test]
fn hour_index_disagreeing_with_timestamps() {
    // Move the flow into hour 1 while the index still bins it under hour 0.
    let err = decode_err(|s| s.blocks[1].1 = varint(HOUR_MS + 5));
    assert!(
        matches!(err, FormatError::BadHourIndex { ref reason } if reason.contains("indexed under")),
        "got {err}"
    );
}

#[test]
fn hour_index_block_with_trailing_bytes() {
    let err = decode_err(|s| s.blocks[0].1.push(0));
    assert!(
        matches!(
            err,
            FormatError::CountMismatch {
                what: "hour index block",
                ..
            }
        ),
        "got {err}"
    );
}

#[test]
fn overlong_varint_in_a_column() {
    let err = decode_err(|s| s.blocks[1].1 = vec![0xff; 11]);
    assert!(
        matches!(err, FormatError::BadVarint { what: "start_ms" }),
        "got {err}"
    );
}

#[test]
fn column_with_leftover_bytes() {
    let err = decode_err(|s| s.blocks[2].1 = vec![3, 0]);
    assert!(
        matches!(
            err,
            FormatError::CountMismatch {
                what: "duration_ms",
                ..
            }
        ),
        "got {err}"
    );
}

#[test]
fn client_block_with_wrong_length() {
    let err = decode_err(|s| s.blocks[4].1 = vec![1, 2, 3]);
    assert!(
        matches!(
            err,
            FormatError::CountMismatch {
                what: "client address block",
                ..
            }
        ),
        "got {err}"
    );
}

#[test]
fn dictionary_reference_out_of_range() {
    let err = decode_err(|s| {
        let mut server = varint(1);
        server.extend(varint(SERVER_U32));
        server.extend(varint(5)); // dict has one entry; rank 5 is bogus
        s.blocks[5].1 = server;
    });
    assert!(
        matches!(err, FormatError::BadDictionary { ref what } if what.contains("out of range")),
        "got {err}"
    );
}

#[test]
fn dictionary_entries_not_strictly_ascending() {
    let err = decode_err(|s| {
        let mut server = varint(2);
        server.extend(varint(SERVER_U32));
        server.extend(varint(0)); // zero delta = duplicate entry
        server.extend(varint(0));
        s.blocks[5].1 = server;
    });
    assert!(
        matches!(err, FormatError::BadDictionary { ref what } if what.contains("ascending")),
        "got {err}"
    );
}

/// The canonical encoder writes exactly the values some flow uses, so a
/// dictionary entry no flow references is malformed, in either dictionary.
#[test]
fn dictionary_entry_referenced_by_no_flow() {
    let server = decode_err(|s| {
        let mut server = varint(2);
        server.extend(varint(SERVER_U32));
        server.extend(varint(1)); // a second address, never referenced
        server.extend(varint(0));
        s.blocks[5].1 = server;
    });
    assert!(
        matches!(server, FormatError::BadDictionary { ref what }
            if what.contains("server") && what.contains("referenced by no flow")),
        "got {server}"
    );
    let video = decode_err(|s| {
        let mut video = varint(2);
        video.extend(varint(7));
        video.extend(varint(1)); // video 8, never referenced
        video.extend(varint(1)); // the one flow watches video 8
        s.blocks[6].1 = video;
    });
    assert!(
        matches!(video, FormatError::BadDictionary { ref what }
            if what.contains("video") && what.contains("entry 0 referenced by no flow")),
        "got {video}"
    );
}

/// Two flows with the same start stored with descending ends: the encoder
/// writes `(start_ms, end_ms)` order, so the decoder rejects the pair
/// rather than re-sorting it.
#[test]
fn equal_starts_with_descending_ends() {
    let two_flows = |durations: [u64; 2]| {
        let mut s = canonical_section();
        s.flow_count = 2;
        let twice = |v: u64| [varint(v), varint(v)].concat();
        s.blocks[0].1 = [varint(1), varint(2)].concat();
        s.blocks[1].1 = [varint(5), varint(0)].concat();
        s.blocks[2].1 = [varint(durations[0]), varint(durations[1])].concat();
        s.blocks[3].1 = twice(10);
        s.blocks[4].1 = vec![10, 0, 0, 1, 10, 0, 0, 2];
        s.blocks[5].1 = [varint(1), varint(SERVER_U32), twice(0)].concat();
        s.blocks[6].1 = [varint(1), varint(7), twice(0)].concat();
        s.blocks[7].1 = vec![0, 0];
        YtcFile::decode(&file_with(s))
    };
    assert_eq!(
        two_flows([1, 3])
            .expect("ascending ends decode")
            .total_flows(),
        2
    );
    let err = two_flows([3, 1]).expect_err("descending ends must not decode");
    assert!(
        matches!(err, FormatError::OutOfOrder { index: 1 }),
        "got {err}"
    );
}

#[test]
fn server_dictionary_entry_wider_than_ipv4() {
    let err = decode_err(|s| {
        let mut server = varint(1);
        server.extend(varint(1u64 << 33));
        server.extend(varint(0));
        s.blocks[5].1 = server;
    });
    assert!(
        matches!(err, FormatError::BadDictionary { ref what } if what.contains("IPv4")),
        "got {err}"
    );
}

#[test]
fn unknown_resolution_code() {
    let err = decode_err(|s| s.blocks[7].1 = vec![9]);
    assert!(
        matches!(err, FormatError::BadResolution { code: 9 }),
        "got {err}"
    );
}

#[test]
fn section_payload_with_trailing_bytes() {
    let err = decode_err(|s| s.trailing = vec![0xaa, 0xbb]);
    assert!(
        matches!(
            err,
            FormatError::CountMismatch {
                what: "dataset section payload",
                ..
            }
        ),
        "got {err}"
    );
}

#[test]
fn duplicate_dataset_sections() {
    let section = encode_section(&canonical_section());
    let bytes = assemble(&header_payload(2), &[section.clone(), section]);
    let err = YtcFile::decode(&bytes).unwrap_err();
    assert!(
        matches!(err, FormatError::DuplicateDataset { ref name } if name == "US-Campus"),
        "got {err}"
    );
}

/// Every corruption error renders a human-readable reason — what `ytcdn
/// repro --from` prints to stderr before exiting non-zero.
#[test]
fn corruption_errors_render_reasons() {
    let errors = [
        decode_err(|s| s.name = 9),
        decode_err(|s| s.blocks[0].1 = varint(0)),
        decode_err(|s| s.blocks[7].1 = vec![9]),
    ];
    for err in errors {
        assert!(!err.to_string().is_empty());
    }
}
