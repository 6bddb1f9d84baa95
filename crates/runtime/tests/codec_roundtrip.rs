//! Codec round-trip properties: every wire variant survives
//! encode → decode bit-exactly, every `*_len` accounting function
//! agrees with its encoder to the byte, and malformed frames (bad
//! magic, bad version, unknown kind, truncation) are rejected rather
//! than misinterpreted. These are the invariants the transport layer's
//! byte parity rests on: the channel backend *counts* with the `_len`
//! functions while the socket backend *writes* with the encoders. One
//! frame of each per-round kind is pinned byte for byte against the
//! layout table in `docs/ARCHITECTURE.md`.
//!
//! The vendored proptest subset has no `prop_oneof`/`any`, so variant
//! coverage is driven by selector integers mapped onto constructors:
//! each raw tuple deterministically builds one variant, and the
//! full-range `0..=u64::MAX` draws cover the max-varint extremes.

use proptest::prelude::*;
use symbreak_core::Opinion;
use symbreak_runtime::codec::{
    control_len, decode_control, decode_frame, decode_report, decode_shard_message, encode_control,
    encode_report, encode_shard_message, read_frame, report_len, shard_message_len, unzigzag,
    varint_len, zigzag, FrameKind, WireError, WIRE_MAGIC, WIRE_VERSION,
};
use symbreak_runtime::message::{Control, ShardReport};
use symbreak_runtime::{
    DataFormat, OpinionPalette, PullBatch, ReportBody, ReportFormat, ShardMessage,
};

// ---------------------------------------------------------------------
// Deterministic constructors from raw draws.
// ---------------------------------------------------------------------

/// Opinions including the undecided sentinel and the largest legal
/// color (`u32::MAX - 1`, a five-byte varint after the `+1` shift).
fn opinion_from(code: u64) -> Opinion {
    match code % 66 {
        0 => Opinion::UNDECIDED,
        65 => Opinion::new(u32::MAX - 1),
        c => Opinion::new(c as u32),
    }
}

/// One data-plane message from a variant selector and raw entry draws:
/// `sel % 2` picks the variant. A pull batch takes its draw count from
/// the first triple; a palette makes each `(a, b, c)` triple one entry.
/// An empty `raw` exercises the empty batch / empty palette shapes (a
/// crashed peer's empty answer).
fn shard_message_from(sel: u64, origin: u32, round: u64, raw: &[(u64, u64, u64)]) -> ShardMessage {
    match sel % 2 {
        0 => {
            let count = raw.first().map_or(0, |&(_, _, c)| c);
            ShardMessage::Pull(PullBatch { origin, round, count })
        }
        _ => {
            let palette: Vec<Opinion> = raw.iter().map(|&(a, _, _)| opinion_from(a)).collect();
            // Run indices must stay in palette range; an empty palette
            // (encodable — the receiver sees zero drawn targets) forces
            // an empty run list.
            let runs = if palette.is_empty() {
                Vec::new()
            } else {
                raw.iter().map(|&(_, b, c)| ((b % palette.len() as u64) as u32, c)).collect()
            };
            ShardMessage::Palette(OpinionPalette { origin, round, palette, runs })
        }
    }
}

/// One control message: `sel % 6` covers all four `Round` format
/// combinations (two report formats × two data gears), `Rejoin`, and
/// `Stop`.
fn control_from(sel: u64, round: u64, body: &[(u64, u64)], undecided: u64) -> Control {
    match sel % 6 {
        s @ 0..=3 => Control::Round {
            round,
            report: [ReportFormat::Sparse, ReportFormat::Delta][s as usize % 2],
            data: if s < 2 { DataFormat::Pull } else { DataFormat::Push },
        },
        4 => Control::Rejoin {
            round,
            body: body.iter().map(|&(slot, c)| (slot as u32, c)).collect(),
            undecided,
        },
        _ => Control::Stop,
    }
}

/// One shard report: `sel % 2` picks the body encoding; the delta body
/// reinterprets the raw `u64`s through `unzigzag`, covering the full
/// signed range including `i64::MIN`/`i64::MAX`.
fn report_from(
    sel: u64,
    shard: usize,
    round: u64,
    raw: &[(u64, u64)],
    tallies: (u64, u64, u64),
    extras: (u64, u64, u64),
) -> ShardReport {
    let body = match sel % 2 {
        0 => ReportBody::Sparse(raw.iter().map(|&(s, c)| (s as u32, c)).collect()),
        _ => ReportBody::Delta(raw.iter().map(|&(s, d)| (s as u32, unzigzag(d))).collect()),
    };
    let (undecided, messages_sent, recovered) = tallies;
    let (changed, bytes_sent, bytes_received) = extras;
    ShardReport {
        shard,
        round,
        body,
        undecided,
        messages_sent,
        recovered,
        changed_slots: if changed % 2 == 0 { None } else { Some(changed >> 1) },
        bytes_sent,
        bytes_received,
    }
}

const FULL: std::ops::RangeInclusive<u64> = 0..=u64::MAX;

// ---------------------------------------------------------------------
// Round trips and length accounting.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shard_messages_round_trip(
        sel in FULL,
        origin in 0u32..=u32::MAX,
        round in FULL,
        raw in proptest::collection::vec((FULL, FULL, FULL), 0..16),
    ) {
        let msg = shard_message_from(sel, origin, round, &raw);
        let mut buf = Vec::new();
        encode_shard_message(&msg, &mut buf);
        prop_assert_eq!(shard_message_len(&msg), buf.len() as u64, "len fn must match encoder");
        let (frame, consumed) = decode_frame(&buf).expect("well-formed frame");
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(frame.wire_len(), buf.len() as u64);
        prop_assert_eq!(decode_shard_message(&frame).expect("decodes"), msg);
    }

    #[test]
    fn controls_round_trip(
        sel in FULL,
        round in FULL,
        body in proptest::collection::vec((0u64..=u64::from(u32::MAX), FULL), 0..10),
        undecided in FULL,
    ) {
        let ctrl = control_from(sel, round, &body, undecided);
        let mut buf = Vec::new();
        encode_control(&ctrl, &mut buf);
        prop_assert_eq!(control_len(&ctrl), buf.len() as u64);
        let (frame, consumed) = decode_frame(&buf).expect("well-formed frame");
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decode_control(&frame).expect("decodes"), ctrl);
    }

    #[test]
    fn reports_round_trip(
        sel in FULL,
        shard in 0usize..10_000,
        round in FULL,
        raw in proptest::collection::vec((0u64..=u64::from(u32::MAX), FULL), 0..10),
        scalars in ((FULL, FULL, FULL), (FULL, FULL, FULL)),
    ) {
        let rep = report_from(sel, shard, round, &raw, scalars.0, scalars.1);
        let mut buf = Vec::new();
        encode_report(&rep, &mut buf);
        prop_assert_eq!(report_len(&rep), buf.len() as u64);
        let (frame, consumed) = decode_frame(&buf).expect("well-formed frame");
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decode_report(&frame).expect("decodes"), rep);
    }

    /// The stream reader agrees with the slice decoder, including on
    /// back-to-back frames (no framing drift).
    #[test]
    fn stream_reader_matches_slice_decoder(
        sels in proptest::collection::vec((FULL, FULL), 1..5),
        raw in proptest::collection::vec((FULL, FULL, FULL), 0..8),
    ) {
        let msgs: Vec<ShardMessage> = sels
            .iter()
            .map(|&(sel, round)| shard_message_from(sel, (sel >> 32) as u32, round, &raw))
            .collect();
        let mut buf = Vec::new();
        for msg in &msgs {
            encode_shard_message(msg, &mut buf);
        }
        let mut stream = std::io::Cursor::new(buf);
        for msg in &msgs {
            let frame = read_frame(&mut stream).expect("io ok").expect("frame present");
            prop_assert_eq!(&decode_shard_message(&frame).expect("decodes"), msg);
        }
        prop_assert!(read_frame(&mut stream).expect("io ok").is_none(), "clean EOF");
    }

    /// Truncating a frame anywhere strictly inside it is detected: the
    /// slice decoder reports `Truncated` (never a short parse) and the
    /// stream reader reports an error (never a silent `None` mid-frame).
    #[test]
    fn truncated_frames_are_rejected(
        sel in FULL,
        round in FULL,
        raw in proptest::collection::vec((FULL, FULL, FULL), 0..8),
        cut_draw in FULL,
    ) {
        let msg = shard_message_from(sel, (sel >> 32) as u32, round, &raw);
        let mut buf = Vec::new();
        encode_shard_message(&msg, &mut buf);
        let cut = 1 + (cut_draw % (buf.len() as u64 - 1)) as usize; // 1..len
        match decode_frame(&buf[..cut]) {
            Err(WireError::Truncated) => {}
            other => prop_assert!(false, "expected Truncated at {cut}, got {other:?}"),
        }
        let mut stream = std::io::Cursor::new(buf[..cut].to_vec());
        prop_assert!(read_frame(&mut stream).is_err(), "mid-frame EOF must error");
    }
}

// ---------------------------------------------------------------------
// Malformed-header rejection.
// ---------------------------------------------------------------------

#[test]
fn bad_magic_is_rejected() {
    let mut buf = Vec::new();
    encode_control(&Control::Stop, &mut buf);
    buf[0] ^= 0xFF;
    assert!(matches!(decode_frame(&buf), Err(WireError::BadMagic)));
    let mut stream = std::io::Cursor::new(buf);
    assert!(read_frame(&mut stream).is_err());
}

#[test]
fn bad_version_is_rejected() {
    // Version 2 is the previous build's `Init` layout (one more mode
    // byte): rejected like any other mismatch.
    for version in [2, WIRE_VERSION + 1] {
        let mut buf = Vec::new();
        encode_control(&Control::Stop, &mut buf);
        buf[2] = version;
        assert!(matches!(decode_frame(&buf), Err(WireError::BadVersion(v)) if v == version));
    }
}

#[test]
fn unknown_frame_kind_is_rejected() {
    // 1 and 2 are the retired per-entry request/reply kinds: unassigned,
    // never reinterpreted.
    for kind in [1u8, 2, 0xEE] {
        let mut buf = Vec::new();
        encode_control(&Control::Stop, &mut buf);
        buf[3] = kind;
        assert!(matches!(decode_frame(&buf), Err(WireError::UnknownKind(k)) if k == kind));
        let mut stream = std::io::Cursor::new(buf);
        assert!(read_frame(&mut stream).is_err(), "stream reader must reject kind {kind}");
    }
}

#[test]
fn oversized_length_is_an_error_not_an_allocation() {
    // A valid header whose payload length claims ~2^63 bytes, then EOF:
    // the stream reader must fail with `UnexpectedEof` instead of
    // allocating the claimed length up front (a capacity-overflow panic
    // near `u64::MAX`, a terabyte request near 2^40).
    let mut buf = Vec::new();
    encode_control(&Control::Stop, &mut buf);
    buf.truncate(4); // magic, version, kind
    buf.push(0); // round 0
    let mut len = u64::MAX >> 1;
    while len >= 0x80 {
        buf.push(len as u8 | 0x80);
        len >>= 7;
    }
    buf.push(len as u8);
    buf.extend_from_slice(b"short");
    let mut stream = std::io::Cursor::new(buf);
    let err = read_frame(&mut stream).expect_err("the payload never arrives");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn retired_report_tag_is_malformed() {
    // Tag 2 was the dense report format: a `Round` command or a report
    // body carrying it decodes to `Malformed`, without panicking.
    let mut buf = Vec::new();
    let round = Control::Round { round: 3, report: ReportFormat::Sparse, data: DataFormat::Pull };
    encode_control(&round, &mut buf);
    let (mut frame, _) = decode_frame(&buf).expect("well-formed");
    frame.payload[0] = 2;
    assert!(matches!(decode_control(&frame), Err(WireError::Malformed(_))));

    let report = ShardReport {
        shard: 0,
        round: 3,
        body: ReportBody::Sparse(vec![(0, 4), (1, 4)]),
        undecided: 0,
        messages_sent: 0,
        recovered: 0,
        changed_slots: None,
        bytes_sent: 0,
        bytes_received: 0,
    };
    buf.clear();
    encode_report(&report, &mut buf);
    let (mut frame, _) = decode_frame(&buf).expect("well-formed");
    // Payload: shard varint (one byte for shard 0), then the body tag.
    assert_eq!(frame.payload[1], 0, "sparse tag");
    frame.payload[1] = 2;
    assert!(matches!(decode_report(&frame), Err(WireError::Malformed(_))));
}

#[test]
fn wrong_kind_decoders_reject() {
    let mut buf = Vec::new();
    encode_control(&Control::Stop, &mut buf);
    let (frame, _) = decode_frame(&buf).expect("well-formed");
    assert_eq!(frame.kind, FrameKind::Stop);
    assert!(decode_shard_message(&frame).is_err());
    assert!(decode_report(&frame).is_err());
}

#[test]
fn header_layout_is_pinned() {
    // The documented layout: magic "SB", version, kind, round varint,
    // length varint, payload. A Stop frame is the minimal instance.
    let mut buf = Vec::new();
    encode_control(&Control::Stop, &mut buf);
    assert_eq!(buf, vec![WIRE_MAGIC[0], WIRE_MAGIC[1], WIRE_VERSION, FrameKind::Stop as u8, 0, 0]);
}

#[test]
fn payload_layouts_are_pinned() {
    // One frame per per-round kind, byte for byte: header (magic,
    // version 4, kind, round, payload length), then the payload as the
    // layout table documents it.
    let mut buf = Vec::new();
    encode_control(&Control::Stop, &mut buf);
    assert_eq!(buf, [0x53, 0x42, 0x04, 0x08, 0x00, 0x00]);

    // Pull: origin 1, count 1000 (a two-byte varint), round 300.
    let pull = ShardMessage::Pull(PullBatch { origin: 1, round: 300, count: 1000 });
    let pull_bytes = [0x53, 0x42, 0x04, 0x03, 0xAC, 0x02, 0x03, 0x01, 0xE8, 0x07];

    // Palette: origin 2, opinions [color 0, undecided, color 130] as
    // codes 1, 0, 131, then runs (0, 7) and (2, 300).
    let palette = ShardMessage::Palette(OpinionPalette {
        origin: 2,
        round: 5,
        palette: vec![Opinion::new(0), Opinion::UNDECIDED, Opinion::new(130)],
        runs: vec![(0, 7), (2, 300)],
    });
    let palette_bytes = [
        0x53, 0x42, 0x04, 0x04, 0x05, 0x0C, // header
        0x02, 0x03, 0x01, 0x00, 0x83, 0x01, // origin, 3 opinions
        0x02, 0x00, 0x07, 0x02, 0xAC, 0x02, // 2 runs
    ];
    for (msg, bytes) in [(&pull, &pull_bytes[..]), (&palette, &palette_bytes[..])] {
        buf.clear();
        encode_shard_message(msg, &mut buf);
        assert_eq!(buf, bytes, "{msg:?}");
        assert_eq!(shard_message_len(msg), bytes.len() as u64);
    }

    // Report: shard 1, delta tag 1, pairs (3, -2) and (9, 1) zigzagged
    // to 3 and 2, undecided 4, messages_sent 200, recovered 0,
    // changed_slots Some(2), bytes 99 sent and 128 received.
    let report = ShardReport {
        shard: 1,
        round: 2,
        body: ReportBody::Delta(vec![(3, -2), (9, 1)]),
        undecided: 4,
        messages_sent: 200,
        recovered: 0,
        changed_slots: Some(2),
        bytes_sent: 99,
        bytes_received: 128,
    };
    let report_bytes = [
        0x53, 0x42, 0x04, 0x05, 0x02, 0x10, // header
        0x01, 0x01, 0x02, 0x03, 0x03, 0x09, 0x02, // shard, tag, 2 pairs
        0x04, 0xC8, 0x01, 0x00, 0x01, 0x02, 0x63, 0x80, 0x01, // scalars
    ];
    buf.clear();
    encode_report(&report, &mut buf);
    assert_eq!(buf, report_bytes);
    assert_eq!(report_len(&report), report_bytes.len() as u64);
}

#[test]
fn varint_len_matches_known_boundaries() {
    for (v, len) in [
        (0u64, 1u64),
        (127, 1),
        (128, 2),
        (16_383, 2),
        (16_384, 3),
        (u64::from(u32::MAX), 5),
        (u64::MAX, 10),
    ] {
        assert_eq!(varint_len(v), len, "varint_len({v})");
    }
    assert_eq!(zigzag(0), 0);
    assert_eq!(zigzag(-1), 1);
    assert_eq!(zigzag(1), 2);
    assert_eq!(zigzag(i64::MIN), u64::MAX);
    for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
        assert_eq!(unzigzag(zigzag(v)), v);
    }
}
