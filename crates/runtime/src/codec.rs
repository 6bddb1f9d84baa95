//! Compact, versioned byte encoding for the cluster wire protocol.
//!
//! Every message the runtime moves — shard↔shard data-plane traffic
//! ([`ShardMessage`]), coordinator control ([`Control`]), and shard
//! reports ([`ShardReport`]) — has exactly one frame encoding, used
//! verbatim by the socket transport and used *by length only* by the
//! channel transport (which keeps moving Rust enums in-process but
//! accounts each message at its encoded size, so the two backends
//! report identical byte counts for identical trajectories).
//!
//! # Frame layout
//!
//! Little-endian throughout. Multi-byte integers are LEB128 varints
//! unless stated otherwise; `i64` values are zigzag-mapped first;
//! `f64` values travel as their fixed 8-byte IEEE-754 bit patterns
//! (fault rates must survive the wire bit-exactly — the stateless
//! fault hashes key off them indirectly through the plan seed, and an
//! approximate rate would desynchronize sender and receiver).
//!
//! ```text
//! +-------+---------+------+---------------+---------------+---------+
//! | magic | version | kind | round varint  | len varint    | payload |
//! | 2 B   | 1 B     | 1 B  | 1–10 B        | 1–10 B        | len B   |
//! +-------+---------+------+---------------+---------------+---------+
//! ```
//!
//! * `magic` — `0x53 0x42` (`"SB"`); anything else is
//!   [`WireError::BadMagic`].
//! * `version` — [`WIRE_VERSION`]; mismatches are rejected, not
//!   negotiated (both ends of a fleet come from one build).
//! * `kind` — the [`FrameKind`] discriminant.
//! * `round` — the synchronous round the message belongs to. This is
//!   the tag the fault layer's stateless hash decisions and the
//!   round-parking receive loops key off, so it lives in the header,
//!   not the payload; frames without round semantics (handshake
//!   frames, `Stop`) carry `0`.
//! * `len` — payload byte length, so a reader can frame a stream
//!   without understanding every kind.
//!
//! [`Opinion`]s are varints under the map `UNDECIDED → 0`,
//! `color i → i + 1`: small color indices (the common case after
//! concentration) cost one byte, and the undecided sentinel needs no
//! out-of-band flag. Per-variant payload layouts are documented in
//! `docs/ARCHITECTURE.md` and pinned by the round-trip proptests and
//! literal byte pins. Each per-round payload is written once, over a
//! byte sink: the encoders write it into the frame, the `*_len`
//! functions the channel transport accounts with only count it.

use std::io::{self, Read, Write};

use symbreak_core::Opinion;

use crate::fault::{ByzantineSpec, CorruptionKind, CrashSpec, FaultPlan};
use crate::message::{
    Control, DataFormat, OpinionPalette, PullBatch, ReportBody, ReportFormat, ShardMessage,
    ShardReport,
};

/// The two magic bytes opening every frame (`"SB"`).
pub const WIRE_MAGIC: [u8; 2] = [0x53, 0x42];
/// The encoding version this build speaks (versions 2, 3 and 5 changed
/// the `Init` payload, version 4 the `Pull` payload).
pub const WIRE_VERSION: u8 = 5;

/// Frame type discriminant (the `kind` header byte).
///
/// Kinds 1 and 2 — the retired per-entry request and reply batches —
/// stay unassigned and decode as [`WireError::UnknownKind`]; the
/// surviving kinds keep their numbers, so per-seed byte counts are
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// [`ShardMessage::Pull`].
    Pull = 3,
    /// [`ShardMessage::Palette`].
    Palette = 4,
    /// [`ShardReport`].
    Report = 5,
    /// [`Control::Round`].
    Round = 6,
    /// [`Control::Rejoin`].
    Rejoin = 7,
    /// [`Control::Stop`].
    Stop = 8,
    /// Socket bootstrap: worker → coordinator identification.
    Hello = 9,
    /// Socket bootstrap: coordinator → worker spec + seed state.
    Init = 10,
    /// Socket bootstrap: worker → coordinator mesh-complete.
    Ready = 11,
    /// Socket bootstrap: worker → worker mesh identification.
    PeerHello = 12,
}

impl FrameKind {
    fn from_u8(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            3 => FrameKind::Pull,
            4 => FrameKind::Palette,
            5 => FrameKind::Report,
            6 => FrameKind::Round,
            7 => FrameKind::Rejoin,
            8 => FrameKind::Stop,
            9 => FrameKind::Hello,
            10 => FrameKind::Init,
            11 => FrameKind::Ready,
            12 => FrameKind::PeerHello,
            other => return Err(WireError::UnknownKind(other)),
        })
    }
}

/// Why a frame or payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first two bytes were not [`WIRE_MAGIC`].
    BadMagic,
    /// The version byte did not match [`WIRE_VERSION`].
    BadVersion(u8),
    /// The kind byte named no known [`FrameKind`].
    UnknownKind(u8),
    /// The buffer ended before the encoding did.
    Truncated,
    /// The bytes framed correctly but violated a payload invariant.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One decoded frame: the header fields plus the raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame type.
    pub kind: FrameKind,
    /// The round tag from the header (`0` for untagged kinds).
    pub round: u64,
    /// The payload bytes (layout per [`Frame::kind`]).
    pub payload: Vec<u8>,
}

impl Frame {
    /// The number of bytes this frame occupied on the wire (header +
    /// varints + payload) — what a receiver adds to its byte counters
    /// after [`read_frame`], which hands back only the decoded fields.
    pub fn wire_len(&self) -> u64 {
        frame_len(self.round, self.payload.len() as u64)
    }
}

// ---------------------------------------------------------------------------
// Primitive writers: the byte sink, LEB128 varints, zigzag, opinions.
// ---------------------------------------------------------------------------

/// Where a payload writer puts its bytes: a frame buffer (`Vec<u8>`),
/// or a [`ByteCount`] when only the encoded length is wanted.
trait Sink {
    /// One raw byte.
    fn byte(&mut self, b: u8);
    /// `v` as a LEB128 varint (7 bits per byte, high bit = more).
    fn varint(&mut self, v: u64);
}

impl Sink for Vec<u8> {
    fn byte(&mut self, b: u8) {
        self.push(b);
    }

    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.push(byte);
                return;
            }
            self.push(byte | 0x80);
        }
    }
}

/// A sink that only counts the bytes written to it.
struct ByteCount(u64);

impl Sink for ByteCount {
    fn byte(&mut self, _: u8) {
        self.0 += 1;
    }

    fn varint(&mut self, v: u64) {
        self.0 += varint_len(v);
    }
}

/// The encoded size of `v` as a varint (1–10 bytes).
pub fn varint_len(v: u64) -> u64 {
    // bits / 7, rounded up, with 0 costing one byte.
    (64 - v.max(1).leading_zeros() as u64).div_ceil(7).max(1)
}

/// Zigzag map `i64 → u64` (small magnitudes stay small).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The wire integer for an opinion: `UNDECIDED → 0`, `color i → i + 1`.
fn opinion_code(o: Opinion) -> u64 {
    if o.is_undecided() {
        0
    } else {
        o.index() as u64 + 1
    }
}

fn opinion_from_code(code: u64) -> Result<Opinion, WireError> {
    if code == 0 {
        Ok(Opinion::UNDECIDED)
    } else {
        let idx = code - 1;
        if idx >= u64::from(u32::MAX) {
            return Err(WireError::Malformed("opinion index out of range"));
        }
        Ok(Opinion::new(idx as u32))
    }
}

// ---------------------------------------------------------------------------
// Slice reader.
// ---------------------------------------------------------------------------

/// A cursor over a payload slice; every read is bounds-checked into
/// [`WireError::Truncated`].
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bad bool")),
        }
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(WireError::Malformed("varint overflows u64"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::Malformed("varint overflows u64"));
            }
        }
    }

    fn f64_bits(&mut self) -> Result<f64, WireError> {
        if self.buf.len() - self.pos < 8 {
            return Err(WireError::Truncated);
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    fn opinion(&mut self) -> Result<Opinion, WireError> {
        opinion_from_code(self.varint()?)
    }

    /// A decoded count that will drive an allocation: bounded against
    /// the remaining payload so a corrupt length cannot OOM the reader
    /// (every counted item costs at least one byte).
    fn bounded_count(&mut self) -> Result<usize, WireError> {
        let c = self.varint()?;
        if c > (self.buf.len() - self.pos) as u64 {
            return Err(WireError::Truncated);
        }
        Ok(c as usize)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing payload bytes"))
        }
    }
}

// ---------------------------------------------------------------------------
// Frame assembly and stream I/O.
// ---------------------------------------------------------------------------

/// Header size up to and including the kind byte.
const FIXED_HEADER: u64 = 4;

/// The full frame size for a payload of `payload_len` bytes tagged with
/// `round`.
fn frame_len(round: u64, payload_len: u64) -> u64 {
    FIXED_HEADER + varint_len(round) + varint_len(payload_len) + payload_len
}

/// Appends a whole frame: header + the payload bytes produced by `body`.
fn put_frame(out: &mut Vec<u8>, kind: FrameKind, round: u64, body: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_VERSION);
    out.push(kind as u8);
    out.varint(round);
    // Payload length is a varint, so the payload is built in a scratch
    // tail and the length spliced in front of it.
    let mark = out.len();
    body(out);
    let mut len_prefix = Vec::with_capacity(10);
    len_prefix.varint((out.len() - mark) as u64);
    out.splice(mark..mark, len_prefix);
}

/// A per-round message with one frame layout: its header's kind and
/// round tag, and its payload written to any [`Sink`].
trait Payload {
    fn header(&self) -> (FrameKind, u64);
    fn write(&self, s: &mut impl Sink);
}

/// Appends `msg` as one complete frame to `out`.
fn encode(msg: &impl Payload, out: &mut Vec<u8>) {
    let (kind, round) = msg.header();
    put_frame(out, kind, round, |b| msg.write(b));
}

/// The exact byte length [`encode`] would produce, without encoding.
fn encoded_len(msg: &impl Payload) -> u64 {
    let mut count = ByteCount(0);
    msg.write(&mut count);
    frame_len(msg.header().1, count.0)
}

/// Splits one frame off the front of `buf`: returns the frame and the
/// number of bytes consumed.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    if buf.len() < 2 {
        return Err(WireError::Truncated);
    }
    if buf[..2] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let mut r = Reader::new(buf);
    r.pos = 2;
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = FrameKind::from_u8(r.u8()?)?;
    let round = r.varint()?;
    let len = r.varint()?;
    if len > (buf.len() - r.pos) as u64 {
        return Err(WireError::Truncated);
    }
    let start = r.pos;
    let end = start + len as usize;
    Ok((Frame { kind, round, payload: buf[start..end].to_vec() }, end))
}

/// Reads one frame from a blocking stream. `Ok(None)` is a clean EOF at
/// a frame boundary; corruption and mid-frame EOFs are `Err`.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut head = [0u8; 4];
    // Distinguish boundary EOF (peer closed between frames) from a
    // truncated header.
    let mut got = 0usize;
    while got < head.len() {
        match stream.read(&mut head[got..])? {
            0 if got == 0 => return Ok(None),
            0 => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated header")),
            n => got += n,
        }
    }
    if head[..2] != WIRE_MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, WireError::BadMagic));
    }
    if head[2] != WIRE_VERSION {
        return Err(io::Error::new(io::ErrorKind::InvalidData, WireError::BadVersion(head[2])));
    }
    let kind =
        FrameKind::from_u8(head[3]).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let round = read_varint(stream)?;
    let len = read_varint(stream)?;
    // The length is untrusted wire data: reserve at most a bounded
    // prefix up front and read through a `take`, so the buffer grows
    // only with bytes that actually arrive (a corrupt length near
    // `u64::MAX` must fail, not allocate).
    const PREALLOC_CAP: u64 = 1 << 20;
    let mut payload = Vec::with_capacity(len.min(PREALLOC_CAP) as usize);
    stream.take(len).read_to_end(&mut payload)?;
    if (payload.len() as u64) < len {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated payload"));
    }
    Ok(Some(Frame { kind, round, payload }))
}

fn read_varint(stream: &mut impl Read) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        stream.read_exact(&mut b)?;
        if shift == 63 && b[0] > 1 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "varint overflows u64"));
        }
        v |= u64::from(b[0] & 0x7F) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "varint overflows u64"));
        }
    }
}

/// Writes pre-encoded frame bytes to a blocking stream.
pub fn write_frame(stream: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    stream.write_all(bytes)?;
    stream.flush()
}

// ---------------------------------------------------------------------------
// ShardMessage.
// ---------------------------------------------------------------------------

impl Payload for ShardMessage {
    fn header(&self) -> (FrameKind, u64) {
        match self {
            ShardMessage::Pull(batch) => (FrameKind::Pull, batch.round),
            ShardMessage::Palette(p) => (FrameKind::Palette, p.round),
        }
    }

    fn write(&self, s: &mut impl Sink) {
        match self {
            ShardMessage::Pull(batch) => {
                s.varint(u64::from(batch.origin));
                s.varint(batch.count);
            }
            ShardMessage::Palette(p) => {
                s.varint(u64::from(p.origin));
                s.varint(p.palette.len() as u64);
                for &o in &p.palette {
                    s.varint(opinion_code(o));
                }
                s.varint(p.runs.len() as u64);
                for &(pi, c) in &p.runs {
                    s.varint(u64::from(pi));
                    s.varint(c);
                }
            }
        }
    }
}

/// Encodes a [`ShardMessage`] as one complete frame appended to `out`.
pub fn encode_shard_message(msg: &ShardMessage, out: &mut Vec<u8>) {
    encode(msg, out);
}

/// The exact byte length [`encode_shard_message`] would produce,
/// without encoding — the channel transport's accounting primitive.
pub fn shard_message_len(msg: &ShardMessage) -> u64 {
    encoded_len(msg)
}

/// Decodes a [`ShardMessage`] frame.
pub fn decode_shard_message(frame: &Frame) -> Result<ShardMessage, WireError> {
    let mut r = Reader::new(&frame.payload);
    let msg = match frame.kind {
        FrameKind::Pull => {
            // The draw count sizes no allocation here; the serving
            // worker bounds it by the requester's range.
            let origin = r.varint()?;
            let count = r.varint()?;
            if origin > u64::from(u32::MAX) {
                return Err(WireError::Malformed("origin out of range"));
            }
            ShardMessage::Pull(PullBatch { origin: origin as u32, round: frame.round, count })
        }
        FrameKind::Palette => {
            let origin = r.varint()?;
            let pcount = r.bounded_count()?;
            let mut palette = Vec::with_capacity(pcount);
            for _ in 0..pcount {
                palette.push(r.opinion()?);
            }
            let rcount = r.bounded_count()?;
            let mut runs = Vec::with_capacity(rcount);
            for _ in 0..rcount {
                let pi = r.varint()?;
                let c = r.varint()?;
                if pi >= palette.len() as u64 {
                    return Err(WireError::Malformed("palette run index out of range"));
                }
                runs.push((pi as u32, c));
            }
            if origin > u64::from(u32::MAX) {
                return Err(WireError::Malformed("origin out of range"));
            }
            ShardMessage::Palette(OpinionPalette {
                origin: origin as u32,
                round: frame.round,
                palette,
                runs,
            })
        }
        _ => return Err(WireError::Malformed("not a data-plane frame")),
    };
    r.finish()?;
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Control.
// ---------------------------------------------------------------------------

fn report_format_code(f: ReportFormat) -> u8 {
    match f {
        ReportFormat::Sparse => 0,
        ReportFormat::Delta => 1,
    }
}

fn data_format_code(d: DataFormat) -> u8 {
    match d {
        DataFormat::Pull => 0,
        DataFormat::Push => 1,
    }
}

impl Payload for Control {
    fn header(&self) -> (FrameKind, u64) {
        match self {
            Control::Round { round, .. } => (FrameKind::Round, *round),
            Control::Rejoin { round, .. } => (FrameKind::Rejoin, *round),
            Control::Stop => (FrameKind::Stop, 0),
        }
    }

    fn write(&self, s: &mut impl Sink) {
        match self {
            Control::Round { report, data, .. } => {
                s.byte(report_format_code(*report));
                s.byte(data_format_code(*data));
            }
            Control::Rejoin { body, undecided, .. } => {
                s.varint(body.len() as u64);
                for &(slot, count) in body {
                    s.varint(u64::from(slot));
                    s.varint(count);
                }
                s.varint(*undecided);
            }
            Control::Stop => {}
        }
    }
}

/// Encodes a [`Control`] message as one complete frame appended to `out`.
pub fn encode_control(ctrl: &Control, out: &mut Vec<u8>) {
    encode(ctrl, out);
}

/// The exact byte length [`encode_control`] would produce.
pub fn control_len(ctrl: &Control) -> u64 {
    encoded_len(ctrl)
}

/// Decodes a [`Control`] frame.
pub fn decode_control(frame: &Frame) -> Result<Control, WireError> {
    let mut r = Reader::new(&frame.payload);
    let ctrl = match frame.kind {
        FrameKind::Round => {
            let report = match r.u8()? {
                0 => ReportFormat::Sparse,
                1 => ReportFormat::Delta,
                _ => return Err(WireError::Malformed("unknown report format")),
            };
            let data = match r.u8()? {
                0 => DataFormat::Pull,
                1 => DataFormat::Push,
                _ => return Err(WireError::Malformed("unknown data format")),
            };
            Control::Round { round: frame.round, report, data }
        }
        FrameKind::Rejoin => {
            let count = r.bounded_count()?;
            let mut body = Vec::with_capacity(count);
            for _ in 0..count {
                let slot = r.varint()?;
                let c = r.varint()?;
                if slot > u64::from(u32::MAX) {
                    return Err(WireError::Malformed("slot out of range"));
                }
                body.push((slot as u32, c));
            }
            let undecided = r.varint()?;
            Control::Rejoin { round: frame.round, body, undecided }
        }
        FrameKind::Stop => Control::Stop,
        _ => return Err(WireError::Malformed("not a control frame")),
    };
    r.finish()?;
    Ok(ctrl)
}

// ---------------------------------------------------------------------------
// ShardReport.
// ---------------------------------------------------------------------------

impl Payload for ShardReport {
    fn header(&self) -> (FrameKind, u64) {
        (FrameKind::Report, self.round)
    }

    fn write(&self, s: &mut impl Sink) {
        s.varint(self.shard as u64);
        match &self.body {
            ReportBody::Sparse(pairs) => {
                s.byte(0);
                s.varint(pairs.len() as u64);
                for &(slot, count) in pairs {
                    s.varint(u64::from(slot));
                    s.varint(count);
                }
            }
            ReportBody::Delta(pairs) => {
                s.byte(1);
                s.varint(pairs.len() as u64);
                for &(slot, delta) in pairs {
                    s.varint(u64::from(slot));
                    s.varint(zigzag(delta));
                }
            }
        }
        s.varint(self.undecided);
        s.varint(self.messages_sent);
        s.varint(self.recovered);
        match self.changed_slots {
            None => s.byte(0),
            Some(c) => {
                s.byte(1);
                s.varint(c);
            }
        }
        s.varint(self.bytes_sent);
        s.varint(self.bytes_received);
    }
}

/// Encodes a [`ShardReport`] as one complete frame appended to `out`.
pub fn encode_report(rep: &ShardReport, out: &mut Vec<u8>) {
    encode(rep, out);
}

/// The exact byte length [`encode_report`] would produce.
pub fn report_len(rep: &ShardReport) -> u64 {
    encoded_len(rep)
}

/// Decodes a [`ShardReport`] frame.
pub fn decode_report(frame: &Frame) -> Result<ShardReport, WireError> {
    if frame.kind != FrameKind::Report {
        return Err(WireError::Malformed("not a report frame"));
    }
    let mut r = Reader::new(&frame.payload);
    let shard = r.varint()?;
    let body = match r.u8()? {
        0 => {
            let count = r.bounded_count()?;
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                let slot = r.varint()?;
                let c = r.varint()?;
                if slot > u64::from(u32::MAX) {
                    return Err(WireError::Malformed("slot out of range"));
                }
                pairs.push((slot as u32, c));
            }
            ReportBody::Sparse(pairs)
        }
        1 => {
            let count = r.bounded_count()?;
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                let slot = r.varint()?;
                let d = r.varint()?;
                if slot > u64::from(u32::MAX) {
                    return Err(WireError::Malformed("slot out of range"));
                }
                pairs.push((slot as u32, unzigzag(d)));
            }
            ReportBody::Delta(pairs)
        }
        _ => return Err(WireError::Malformed("unknown report body kind")),
    };
    let undecided = r.varint()?;
    let messages_sent = r.varint()?;
    let recovered = r.varint()?;
    let changed_slots = match r.u8()? {
        0 => None,
        1 => Some(r.varint()?),
        _ => return Err(WireError::Malformed("bad option tag")),
    };
    let bytes_sent = r.varint()?;
    let bytes_received = r.varint()?;
    r.finish()?;
    Ok(ShardReport {
        shard: shard as usize,
        round: frame.round,
        body,
        undecided,
        messages_sent,
        recovered,
        changed_slots,
        bytes_sent,
        bytes_received,
    })
}

// ---------------------------------------------------------------------------
// Socket bootstrap frames (Hello / Init / Ready / PeerHello).
// ---------------------------------------------------------------------------

/// The worker → coordinator identification frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Hello {
    pub shard: usize,
    /// The worker's own listener address, in `unix:`/`tcp:` string form.
    pub peer_addr: String,
}

pub(crate) fn encode_hello(h: &Hello, out: &mut Vec<u8>) {
    put_frame(out, FrameKind::Hello, 0, |b| {
        b.varint(h.shard as u64);
        b.varint(h.peer_addr.len() as u64);
        b.extend_from_slice(h.peer_addr.as_bytes());
    });
}

pub(crate) fn decode_hello(frame: &Frame) -> Result<Hello, WireError> {
    if frame.kind != FrameKind::Hello {
        return Err(WireError::Malformed("not a hello frame"));
    }
    let mut r = Reader::new(&frame.payload);
    let shard = r.varint()? as usize;
    let len = r.bounded_count()?;
    let bytes = frame.payload[r.pos..r.pos + len].to_vec();
    r.pos += len;
    let peer_addr =
        String::from_utf8(bytes).map_err(|_| WireError::Malformed("non-utf8 address"))?;
    r.finish()?;
    Ok(Hello { shard, peer_addr })
}

pub(crate) fn encode_peer_hello(shard: usize, out: &mut Vec<u8>) {
    put_frame(out, FrameKind::PeerHello, 0, |b| b.varint(shard as u64));
}

pub(crate) fn decode_peer_hello(frame: &Frame) -> Result<usize, WireError> {
    if frame.kind != FrameKind::PeerHello {
        return Err(WireError::Malformed("not a peer-hello frame"));
    }
    let mut r = Reader::new(&frame.payload);
    let shard = r.varint()? as usize;
    r.finish()?;
    Ok(shard)
}

pub(crate) fn encode_ready(out: &mut Vec<u8>) {
    put_frame(out, FrameKind::Ready, 0, |_| {});
}

/// Everything a worker process needs to run its shard: the static spec,
/// the serialized rule, the seed body, the mesh addresses, and the
/// optional deterministic kill switch (test harness for the
/// [`crate::StopReason::TransportLost`] path).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WorkerInit {
    pub n: u32,
    pub shards: usize,
    pub k_slots: usize,
    pub tracking: bool,
    pub master_seed: u64,
    pub plan: FaultPlan,
    pub rule: crate::transport::RuleSpec,
    pub condensed: bool,
    pub body: Vec<(u32, u64)>,
    pub peer_addrs: Vec<String>,
    pub die_at_round: Option<u64>,
}

pub(crate) fn encode_worker_init(init: &WorkerInit, out: &mut Vec<u8>) {
    use crate::transport::RuleSpec;
    put_frame(out, FrameKind::Init, 0, |b| {
        b.varint(u64::from(init.n));
        b.varint(init.shards as u64);
        b.varint(init.k_slots as u64);
        b.push(u8::from(init.tracking));
        b.varint(init.master_seed);
        // Fault plan: seed, six rates (fixed f64 bits), crashes,
        // byzantine specs, max_faulty.
        let plan = &init.plan;
        b.varint(plan.seed);
        for rate in [
            plan.palette_drop,
            plan.palette_duplicate,
            plan.palette_delay,
            plan.report_drop,
            plan.report_duplicate,
            plan.report_delay,
        ] {
            b.extend_from_slice(&rate.to_bits().to_le_bytes());
        }
        b.varint(plan.crashes.len() as u64);
        for c in &plan.crashes {
            b.varint(c.shard as u64);
            b.varint(c.crash_round);
            match c.rejoin_round {
                None => b.push(0),
                Some(r) => {
                    b.push(1);
                    b.varint(r);
                }
            }
        }
        b.varint(plan.byzantine.len() as u64);
        for z in &plan.byzantine {
            b.varint(z.shard as u64);
            b.varint(z.budget);
            b.push(match z.kind {
                CorruptionKind::Plausible => 0,
                CorruptionKind::Inflate => 1,
            });
        }
        b.varint(plan.max_faulty as u64);
        // Rule spec.
        match init.rule {
            RuleSpec::Voter => b.push(0),
            RuleSpec::ThreeMajority => b.push(1),
            RuleSpec::ThreeMajorityAlt => b.push(2),
            RuleSpec::TwoChoices => b.push(3),
            RuleSpec::TwoMedian => b.push(4),
            RuleSpec::UndecidedDynamics => b.push(5),
            RuleSpec::LazyVoter(p) => {
                b.push(6);
                b.extend_from_slice(&p.to_bits().to_le_bytes());
            }
            RuleSpec::HMajority(h) => {
                b.push(7);
                b.varint(u64::from(h));
            }
        }
        b.push(u8::from(init.condensed));
        b.varint(init.body.len() as u64);
        for &(slot, count) in &init.body {
            b.varint(u64::from(slot));
            b.varint(count);
        }
        b.varint(init.peer_addrs.len() as u64);
        for addr in &init.peer_addrs {
            b.varint(addr.len() as u64);
            b.extend_from_slice(addr.as_bytes());
        }
        match init.die_at_round {
            None => b.push(0),
            Some(r) => {
                b.push(1);
                b.varint(r);
            }
        }
    });
}

pub(crate) fn decode_worker_init(frame: &Frame) -> Result<WorkerInit, WireError> {
    use crate::transport::RuleSpec;
    if frame.kind != FrameKind::Init {
        return Err(WireError::Malformed("not an init frame"));
    }
    let mut r = Reader::new(&frame.payload);
    let n = r.varint()?;
    let shards = r.varint()? as usize;
    let k_slots = r.varint()? as usize;
    let tracking = r.bool()?;
    let master_seed = r.varint()?;
    let plan_seed = r.varint()?;
    let mut rates = [0.0f64; 6];
    for rate in &mut rates {
        *rate = r.f64_bits()?;
    }
    let crash_count = r.bounded_count()?;
    let mut crashes = Vec::with_capacity(crash_count);
    for _ in 0..crash_count {
        let shard = r.varint()? as usize;
        let crash_round = r.varint()?;
        let rejoin_round = match r.u8()? {
            0 => None,
            1 => Some(r.varint()?),
            _ => return Err(WireError::Malformed("bad option tag")),
        };
        crashes.push(CrashSpec { shard, crash_round, rejoin_round });
    }
    let byz_count = r.bounded_count()?;
    let mut byzantine = Vec::with_capacity(byz_count);
    for _ in 0..byz_count {
        let shard = r.varint()? as usize;
        let budget = r.varint()?;
        let kind = match r.u8()? {
            0 => CorruptionKind::Plausible,
            1 => CorruptionKind::Inflate,
            _ => return Err(WireError::Malformed("unknown corruption kind")),
        };
        byzantine.push(ByzantineSpec { shard, budget, kind });
    }
    let max_faulty = r.varint()? as usize;
    let plan = FaultPlan {
        seed: plan_seed,
        palette_drop: rates[0],
        palette_duplicate: rates[1],
        palette_delay: rates[2],
        report_drop: rates[3],
        report_duplicate: rates[4],
        report_delay: rates[5],
        crashes,
        byzantine,
        max_faulty,
    };
    let rule = match r.u8()? {
        0 => RuleSpec::Voter,
        1 => RuleSpec::ThreeMajority,
        2 => RuleSpec::ThreeMajorityAlt,
        3 => RuleSpec::TwoChoices,
        4 => RuleSpec::TwoMedian,
        5 => RuleSpec::UndecidedDynamics,
        6 => RuleSpec::LazyVoter(r.f64_bits()?),
        7 => {
            let h = r.varint()?;
            if h == 0 || h > u64::from(u32::MAX) {
                return Err(WireError::Malformed("h out of range"));
            }
            RuleSpec::HMajority(h as u32)
        }
        _ => return Err(WireError::Malformed("unknown rule spec")),
    };
    let condensed = r.bool()?;
    let body_count = r.bounded_count()?;
    let mut body = Vec::with_capacity(body_count);
    for _ in 0..body_count {
        let slot = r.varint()?;
        let c = r.varint()?;
        if slot > u64::from(u32::MAX) {
            return Err(WireError::Malformed("slot out of range"));
        }
        body.push((slot as u32, c));
    }
    let addr_count = r.bounded_count()?;
    let mut peer_addrs = Vec::with_capacity(addr_count);
    for _ in 0..addr_count {
        let len = r.bounded_count()?;
        let bytes = frame.payload[r.pos..r.pos + len].to_vec();
        r.pos += len;
        peer_addrs
            .push(String::from_utf8(bytes).map_err(|_| WireError::Malformed("non-utf8 address"))?);
    }
    let die_at_round = match r.u8()? {
        0 => None,
        1 => Some(r.varint()?),
        _ => return Err(WireError::Malformed("bad option tag")),
    };
    if n > u64::from(u32::MAX) {
        return Err(WireError::Malformed("n out of range"));
    }
    r.finish()?;
    Ok(WorkerInit {
        n: n as u32,
        shards,
        k_slots,
        tracking,
        master_seed,
        plan,
        rule,
        condensed,
        body,
        peer_addrs,
        die_at_round,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_lengths_match_encoder() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            buf.varint(v);
            assert_eq!(buf.len() as u64, varint_len(v), "varint_len({v})");
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 63, -64] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small on the wire.
        assert!(varint_len(zigzag(-3)) == 1);
    }

    #[test]
    fn frame_round_trips_through_a_stream() {
        let msg = ShardMessage::Pull(PullBatch { origin: 3, round: 97, count: 4242 });
        let mut bytes = Vec::new();
        encode_shard_message(&msg, &mut bytes);
        assert_eq!(bytes.len() as u64, shard_message_len(&msg));

        let mut cursor = std::io::Cursor::new(bytes.clone());
        let frame = read_frame(&mut cursor).unwrap().expect("one frame");
        assert_eq!(frame.round, 97);
        assert_eq!(decode_shard_message(&frame).unwrap(), msg);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF after the frame");

        let (frame2, used) = decode_frame(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(frame2, frame);
    }

    fn sample_init() -> WorkerInit {
        WorkerInit {
            n: 1000,
            shards: 4,
            k_slots: 64,
            tracking: true,
            master_seed: u64::MAX,
            plan: FaultPlan::none()
                .with_seed(9)
                .with_palette_rates(0.1, 0.05, 0.025)
                .with_crash(CrashSpec { shard: 1, crash_round: 3, rejoin_round: Some(5) })
                .with_byzantine(ByzantineSpec {
                    shard: 2,
                    budget: 7,
                    kind: CorruptionKind::Plausible,
                })
                .with_max_faulty(2),
            rule: crate::transport::RuleSpec::LazyVoter(0.5),
            condensed: true,
            body: vec![(0, 10), (63, 990)],
            peer_addrs: vec!["unix:/tmp/a".into(), "tcp:127.0.0.1:9".into()],
            die_at_round: Some(12),
        }
    }

    #[test]
    fn worker_init_round_trips() {
        let init = sample_init();
        let mut bytes = Vec::new();
        encode_worker_init(&init, &mut bytes);
        let (frame, used) = decode_frame(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decode_worker_init(&frame).unwrap(), init);
    }

    /// Records the largest single allocation the current thread makes
    /// while armed, so the decode fuzz can bound what a hostile frame
    /// makes a decoder reserve. Unarmed threads pay one thread-local
    /// read per allocation.
    mod alloc_probe {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
        }

        pub struct Probe;

        fn note(size: usize) {
            let _ = LARGEST.try_with(|l| {
                if let Some(m) = l.get() {
                    l.set(Some(m.max(size)));
                }
            });
        }

        // SAFETY: every call forwards to `System` unchanged; `note` only
        // touches a const-initialized thread-local `Cell` and never
        // allocates.
        unsafe impl GlobalAlloc for Probe {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                System.alloc(layout)
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                System.alloc_zeroed(layout)
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                note(new_size);
                System.realloc(ptr, layout, new_size)
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                System.dealloc(ptr, layout)
            }
        }

        #[global_allocator]
        static PROBE: Probe = Probe;

        /// Runs `f`, returning its result and the largest single
        /// allocation it made on this thread.
        pub fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
            LARGEST.with(|l| l.set(Some(0)));
            let out = f();
            let largest = LARGEST.with(|l| l.take()).unwrap_or(0);
            (out, largest)
        }
    }

    /// The widest item a decoder collects per counted entry (a
    /// `CrashSpec`). Every counted entry costs at least one payload
    /// byte, so no decode may reserve more than this many bytes per
    /// frame byte.
    const WIDEST_DECODED_ITEM: usize = 32;

    /// One valid frame of every kind the wire carries.
    fn corpus() -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        let mut push = |encode: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = Vec::new();
            encode(&mut bytes);
            frames.push(bytes);
        };
        for count in [0, 4242, u64::MAX] {
            push(&|b| {
                let batch = PullBatch { origin: 3, round: 97, count };
                encode_shard_message(&ShardMessage::Pull(batch), b)
            });
        }
        for runs in [vec![], vec![(0u32, 7u64), (1, 300)]] {
            push(&|b| {
                let palette = vec![Opinion::new(5), Opinion::UNDECIDED, Opinion::new(70_000)];
                let p = OpinionPalette { origin: 1, round: 4, palette, runs: runs.clone() };
                encode_shard_message(&ShardMessage::Palette(p), b)
            });
        }
        for body in [
            ReportBody::Sparse(vec![(0, 5), (200, 1 << 40)]),
            ReportBody::Delta(vec![(3, -2), (9, 2)]),
        ] {
            push(&|b| {
                let rep = ShardReport {
                    shard: 1,
                    round: 300,
                    body: body.clone(),
                    undecided: 4,
                    messages_sent: 1 << 33,
                    recovered: 2,
                    changed_slots: Some(2),
                    bytes_sent: 99,
                    bytes_received: 77,
                };
                encode_report(&rep, b)
            });
        }
        push(&|b| {
            let round =
                Control::Round { round: 12, report: ReportFormat::Delta, data: DataFormat::Push };
            encode_control(&round, b)
        });
        push(&|b| {
            let rejoin = Control::Rejoin { round: 8, body: vec![(1, 10), (4, 20)], undecided: 3 };
            encode_control(&rejoin, b)
        });
        push(&|b| encode_control(&Control::Stop, b));
        push(&|b| encode_hello(&Hello { shard: 2, peer_addr: "unix:/tmp/s.sock".into() }, b));
        push(&|b| encode_peer_hello(5, b));
        push(&|b| encode_ready(b));
        push(&|b| encode_worker_init(&sample_init(), b));
        frames
    }

    /// Every payload decoder, run on `frame` as framed: the one its
    /// kind names must accept a valid frame, and all must return
    /// without panicking whatever the bytes.
    fn decode_all(frame: &Frame) -> [bool; 6] {
        [
            decode_shard_message(frame).is_ok(),
            decode_report(frame).is_ok(),
            decode_control(frame).is_ok(),
            decode_hello(frame).is_ok(),
            decode_peer_hello(frame).is_ok(),
            decode_worker_init(frame).is_ok(),
        ]
    }

    /// Splits `bytes` into a frame and decodes it every way, asserting
    /// the allocation bound. Returns whether the framing and the
    /// decoder its kind names both succeeded.
    fn fuzz_one(bytes: &[u8]) -> bool {
        let (ok, largest) = alloc_probe::largest_allocation(|| match decode_frame(bytes) {
            Err(_) => false,
            Ok((frame, _)) => {
                let oks = decode_all(&frame);
                // The same payload read as every other kind too.
                for kind in 3..=12 {
                    let kind = FrameKind::from_u8(kind).expect("kinds 3-12 exist");
                    decode_all(&Frame { kind, ..frame.clone() });
                }
                match frame.kind {
                    FrameKind::Pull | FrameKind::Palette => oks[0],
                    FrameKind::Report => oks[1],
                    FrameKind::Round | FrameKind::Rejoin | FrameKind::Stop => oks[2],
                    FrameKind::Hello => oks[3],
                    FrameKind::PeerHello => oks[4],
                    FrameKind::Init => oks[5],
                    FrameKind::Ready => frame.payload.is_empty(),
                }
            }
        });
        assert!(
            largest <= WIDEST_DECODED_ITEM * bytes.len().max(1),
            "a {}-byte frame made a decoder reserve {largest} bytes: {bytes:02x?}",
            bytes.len()
        );
        ok
    }

    /// Re-frames `payload` under `kind` with a correct length prefix.
    fn framed(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_frame(&mut out, kind, 1, |b| b.extend_from_slice(payload));
        out
    }

    #[test]
    fn decoders_reject_truncated_frames_and_payloads() {
        for bytes in corpus() {
            assert!(fuzz_one(&bytes), "valid frame rejected: {bytes:02x?}");
            for cut in 0..bytes.len() {
                assert!(!fuzz_one(&bytes[..cut]), "frame cut at {cut}: {bytes:02x?}");
            }
            let (frame, _) = decode_frame(&bytes).expect("valid frame");
            for cut in 0..frame.payload.len() {
                let short = framed(frame.kind, &frame.payload[..cut]);
                assert!(!fuzz_one(&short), "{:?} payload cut at {cut}", frame.kind);
            }
        }
    }

    #[test]
    fn decoders_reject_oversized_counts() {
        // Every counted field, claiming far more entries than the few
        // bytes behind it: `prefix` is what precedes the count. (A pull
        // batch's draw count sizes no decoder allocation; the worker
        // checks it against the requester's range.)
        let init_prefix = {
            let mut b = Vec::new();
            encode_worker_init(&sample_init(), &mut b);
            let (frame, _) = decode_frame(&b).expect("valid init");
            // Skip n, shards, k_slots, the two mode bytes, both seeds
            // and the six rates: everything before the crash count.
            let mut r = Reader::new(&frame.payload);
            for _ in 0..3 {
                r.varint().expect("header varint");
            }
            r.pos += 2;
            r.varint().expect("master seed");
            r.varint().expect("plan seed");
            r.pos += 48;
            frame.payload[..r.pos].to_vec()
        };
        let cases: Vec<(FrameKind, Vec<u8>)> = vec![
            (FrameKind::Palette, vec![1]),
            (FrameKind::Palette, vec![1, 1, 6]),
            (FrameKind::Report, vec![1, 0]),
            (FrameKind::Report, vec![1, 1]),
            (FrameKind::Rejoin, vec![]),
            (FrameKind::Hello, vec![2]),
            (FrameKind::Init, init_prefix.clone()),
            (FrameKind::Init, [&init_prefix[..], &[0]].concat()),
            (FrameKind::Init, [&init_prefix[..], &[0, 0, 0, 3, 0]].concat()),
            (FrameKind::Init, [&init_prefix[..], &[0, 0, 0, 3, 0, 0]].concat()),
            (FrameKind::Init, [&init_prefix[..], &[0, 0, 0, 3, 0, 0, 1]].concat()),
        ];
        for (kind, prefix) in cases {
            for count in [u64::MAX, 1 << 40, u64::from(u32::MAX), 64] {
                let mut payload = prefix.clone();
                payload.varint(count);
                payload.extend_from_slice(&[1, 2, 3]);
                let bytes = framed(kind, &payload);
                assert!(!fuzz_one(&bytes), "{kind:?} count {count} after {prefix:?}");
            }
        }
        // A header claiming a longer payload than the buffer holds.
        let mut bytes = framed(FrameKind::Report, &[1, 0, 0]);
        bytes.truncate(bytes.len() - 1);
        assert_eq!(decode_frame(&bytes).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn decoders_survive_random_and_mutated_frames() {
        use rand::{Rng, SeedableRng};
        let mut rng = symbreak_sim::rng::Pcg64::seed_from_u64(0xF022);
        let corpus = corpus();
        for _ in 0..4000 {
            // Random payloads under a valid header, of every kind.
            let kind = FrameKind::from_u8(rng.gen_range(3..=12)).expect("kinds 3-12 exist");
            let payload: Vec<u8> = (0..rng.gen_range(0..40)).map(|_| rng.gen()).collect();
            fuzz_one(&framed(kind, &payload));
            // Valid frames with a few bytes overwritten.
            let mut bytes = corpus[rng.gen_range(0..corpus.len())].clone();
            for _ in 0..rng.gen_range(1..4) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = rng.gen();
            }
            fuzz_one(&bytes);
            // Arbitrary bytes, magic and all.
            let noise: Vec<u8> = (0..rng.gen_range(0..24)).map(|_| rng.gen()).collect();
            fuzz_one(&noise);
        }
    }
}
