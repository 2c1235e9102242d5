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
//!   not the payload; frames without round semantics (per-entry
//!   batches, handshake frames, `Stop`) carry `0`.
//! * `len` — payload byte length, so a reader can frame a stream
//!   without understanding every kind.
//!
//! [`Opinion`]s are varints under the map `UNDECIDED → 0`,
//! `color i → i + 1`: small color indices (the common case after
//! concentration) cost one byte, and the undecided sentinel needs no
//! out-of-band flag. Per-variant payload layouts are documented in
//! `docs/ARCHITECTURE.md` and pinned by the round-trip proptests.

use std::io::{self, Read, Write};

use symbreak_core::{Opinion, RoundStateMode};

use crate::cluster::{ConsumeMode, ReportMode, ShardRepr, WireMode};
use crate::fault::{ByzantineSpec, CorruptionKind, CrashSpec, FaultPlan};
use crate::message::{
    Control, DataFormat, OpinionPalette, PullBatch, Reply, ReportBody, ReportFormat, Request,
    ShardMessage, ShardReport, TargetRun,
};

/// The two magic bytes opening every frame (`"SB"`).
pub const WIRE_MAGIC: [u8; 2] = [0x53, 0x42];
/// The encoding version this build speaks.
pub const WIRE_VERSION: u8 = 1;

/// Frame type discriminant (the `kind` header byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// [`ShardMessage::Requests`].
    Requests = 1,
    /// [`ShardMessage::Replies`].
    Replies = 2,
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
            1 => FrameKind::Requests,
            2 => FrameKind::Replies,
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
// Primitive writers: LEB128 varints, zigzag, opinions.
// ---------------------------------------------------------------------------

/// Appends `v` as a LEB128 varint (7 bits per byte, high bit = more).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
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
pub fn frame_len(round: u64, payload_len: u64) -> u64 {
    FIXED_HEADER + varint_len(round) + varint_len(payload_len) + payload_len
}

/// Appends a whole frame: header + the payload bytes produced by `body`.
fn put_frame(out: &mut Vec<u8>, kind: FrameKind, round: u64, body: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_VERSION);
    out.push(kind as u8);
    put_varint(out, round);
    // Payload length is a varint, so the payload is built in a scratch
    // tail and the length spliced in front of it.
    let mark = out.len();
    body(out);
    let payload_len = (out.len() - mark) as u64;
    let mut len_prefix = [0u8; 10];
    let mut tmp = Vec::with_capacity(10);
    put_varint(&mut tmp, payload_len);
    len_prefix[..tmp.len()].copy_from_slice(&tmp);
    out.splice(mark..mark, len_prefix[..tmp.len()].iter().copied());
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
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
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

/// Encodes a [`ShardMessage`] as one complete frame appended to `out`.
pub fn encode_shard_message(msg: &ShardMessage, out: &mut Vec<u8>) {
    match msg {
        ShardMessage::Requests(batch) => put_frame(out, FrameKind::Requests, 0, |b| {
            put_varint(b, batch.len() as u64);
            for req in batch {
                put_varint(b, u64::from(req.target));
                put_varint(b, u64::from(req.requester));
                b.push(req.slot);
            }
        }),
        ShardMessage::Replies(batch) => put_frame(out, FrameKind::Replies, 0, |b| {
            put_varint(b, batch.len() as u64);
            for rep in batch {
                put_varint(b, u64::from(rep.requester));
                b.push(rep.slot);
                put_varint(b, opinion_code(rep.opinion));
            }
        }),
        ShardMessage::Pull(batch) => put_frame(out, FrameKind::Pull, batch.round, |b| {
            put_varint(b, u64::from(batch.origin));
            put_varint(b, batch.target_runs.len() as u64);
            for run in &batch.target_runs {
                put_varint(b, u64::from(run.start));
                put_varint(b, u64::from(run.len));
                put_varint(b, run.count);
            }
        }),
        ShardMessage::Palette(p) => put_frame(out, FrameKind::Palette, p.round, |b| {
            put_varint(b, u64::from(p.origin));
            put_varint(b, p.palette.len() as u64);
            for &o in &p.palette {
                put_varint(b, opinion_code(o));
            }
            put_varint(b, p.runs.len() as u64);
            for &(pi, c) in &p.runs {
                put_varint(b, u64::from(pi));
                put_varint(b, c);
            }
        }),
    }
}

/// The exact byte length [`encode_shard_message`] would produce,
/// without encoding — the channel transport's accounting primitive
/// (pinned equal to the encoder by proptest).
pub fn shard_message_len(msg: &ShardMessage) -> u64 {
    let (round, payload) = match msg {
        ShardMessage::Requests(batch) => {
            let mut p = varint_len(batch.len() as u64);
            for req in batch {
                p += varint_len(u64::from(req.target)) + varint_len(u64::from(req.requester)) + 1;
            }
            (0, p)
        }
        ShardMessage::Replies(batch) => {
            let mut p = varint_len(batch.len() as u64);
            for rep in batch {
                p += varint_len(u64::from(rep.requester))
                    + 1
                    + varint_len(opinion_code(rep.opinion));
            }
            (0, p)
        }
        ShardMessage::Pull(batch) => {
            let mut p =
                varint_len(u64::from(batch.origin)) + varint_len(batch.target_runs.len() as u64);
            for run in &batch.target_runs {
                p += varint_len(u64::from(run.start))
                    + varint_len(u64::from(run.len))
                    + varint_len(run.count);
            }
            (batch.round, p)
        }
        ShardMessage::Palette(pal) => return palette_len(pal),
    };
    frame_len(round, payload)
}

/// The exact frame length of a [`ShardMessage::Palette`] carrying
/// `pal` — what [`shard_message_len`] returns for it, without wrapping
/// the palette in a message first.
pub fn palette_len(pal: &OpinionPalette) -> u64 {
    let mut p = varint_len(u64::from(pal.origin)) + varint_len(pal.palette.len() as u64);
    for &o in &pal.palette {
        p += varint_len(opinion_code(o));
    }
    p += varint_len(pal.runs.len() as u64);
    for &(pi, c) in &pal.runs {
        p += varint_len(u64::from(pi)) + varint_len(c);
    }
    frame_len(pal.round, p)
}

/// Decodes a [`ShardMessage`] frame.
pub fn decode_shard_message(frame: &Frame) -> Result<ShardMessage, WireError> {
    let mut r = Reader::new(&frame.payload);
    let msg = match frame.kind {
        FrameKind::Requests => {
            let count = r.bounded_count()?;
            let mut batch = Vec::with_capacity(count);
            for _ in 0..count {
                let target = r.varint()?;
                let requester = r.varint()?;
                let slot = r.u8()?;
                if target > u64::from(u32::MAX) || requester > u64::from(u32::MAX) {
                    return Err(WireError::Malformed("node id out of range"));
                }
                batch.push(Request { target: target as u32, requester: requester as u32, slot });
            }
            ShardMessage::Requests(batch)
        }
        FrameKind::Replies => {
            let count = r.bounded_count()?;
            let mut batch = Vec::with_capacity(count);
            for _ in 0..count {
                let requester = r.varint()?;
                let slot = r.u8()?;
                let opinion = r.opinion()?;
                if requester > u64::from(u32::MAX) {
                    return Err(WireError::Malformed("node id out of range"));
                }
                batch.push(Reply { requester: requester as u32, slot, opinion });
            }
            ShardMessage::Replies(batch)
        }
        FrameKind::Pull => {
            let origin = r.varint()?;
            let count = r.bounded_count()?;
            let mut target_runs = Vec::with_capacity(count);
            for _ in 0..count {
                let start = r.varint()?;
                let len = r.varint()?;
                let c = r.varint()?;
                if start > u64::from(u32::MAX) || len > u64::from(u32::MAX) {
                    return Err(WireError::Malformed("target run out of range"));
                }
                target_runs.push(TargetRun { start: start as u32, len: len as u32, count: c });
            }
            if origin > u64::from(u32::MAX) {
                return Err(WireError::Malformed("origin out of range"));
            }
            ShardMessage::Pull(PullBatch { origin: origin as u32, round: frame.round, target_runs })
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
        ReportFormat::Dense => 2,
    }
}

fn data_format_code(d: DataFormat) -> u8 {
    match d {
        DataFormat::Pull => 0,
        DataFormat::Push => 1,
    }
}

/// Encodes a [`Control`] message as one complete frame appended to `out`.
pub fn encode_control(ctrl: &Control, out: &mut Vec<u8>) {
    match ctrl {
        Control::Round { round, report, data } => put_frame(out, FrameKind::Round, *round, |b| {
            b.push(report_format_code(*report));
            b.push(data_format_code(*data));
        }),
        Control::Rejoin { round, body, undecided } => {
            put_frame(out, FrameKind::Rejoin, *round, |b| {
                put_varint(b, body.len() as u64);
                for &(slot, count) in body {
                    put_varint(b, u64::from(slot));
                    put_varint(b, count);
                }
                put_varint(b, *undecided);
            })
        }
        Control::Stop => put_frame(out, FrameKind::Stop, 0, |_| {}),
    }
}

/// The exact byte length [`encode_control`] would produce.
pub fn control_len(ctrl: &Control) -> u64 {
    match ctrl {
        Control::Round { round, .. } => frame_len(*round, 2),
        Control::Rejoin { round, body, undecided } => {
            let mut p = varint_len(body.len() as u64);
            for &(slot, count) in body {
                p += varint_len(u64::from(slot)) + varint_len(count);
            }
            p += varint_len(*undecided);
            frame_len(*round, p)
        }
        Control::Stop => frame_len(0, 0),
    }
}

/// Decodes a [`Control`] frame.
pub fn decode_control(frame: &Frame) -> Result<Control, WireError> {
    let mut r = Reader::new(&frame.payload);
    let ctrl = match frame.kind {
        FrameKind::Round => {
            let report = match r.u8()? {
                0 => ReportFormat::Sparse,
                1 => ReportFormat::Delta,
                2 => ReportFormat::Dense,
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

/// Encodes a [`ShardReport`] as one complete frame appended to `out`.
pub fn encode_report(rep: &ShardReport, out: &mut Vec<u8>) {
    put_frame(out, FrameKind::Report, rep.round, |b| {
        put_varint(b, rep.shard as u64);
        match &rep.body {
            ReportBody::Sparse(pairs) => {
                b.push(0);
                put_varint(b, pairs.len() as u64);
                for &(slot, count) in pairs {
                    put_varint(b, u64::from(slot));
                    put_varint(b, count);
                }
            }
            ReportBody::Delta(pairs) => {
                b.push(1);
                put_varint(b, pairs.len() as u64);
                for &(slot, delta) in pairs {
                    put_varint(b, u64::from(slot));
                    put_varint(b, zigzag(delta));
                }
            }
            ReportBody::Dense(counts) => {
                b.push(2);
                put_varint(b, counts.len() as u64);
                for &c in counts {
                    put_varint(b, c);
                }
            }
        }
        put_varint(b, rep.undecided);
        put_varint(b, rep.messages_sent);
        put_varint(b, rep.recovered);
        match rep.changed_slots {
            None => b.push(0),
            Some(c) => {
                b.push(1);
                put_varint(b, c);
            }
        }
        put_varint(b, rep.bytes_sent);
        put_varint(b, rep.bytes_received);
    });
}

/// The exact byte length [`encode_report`] would produce.
pub fn report_len(rep: &ShardReport) -> u64 {
    let mut p = varint_len(rep.shard as u64) + 1;
    match &rep.body {
        ReportBody::Sparse(pairs) => {
            p += varint_len(pairs.len() as u64);
            for &(slot, count) in pairs {
                p += varint_len(u64::from(slot)) + varint_len(count);
            }
        }
        ReportBody::Delta(pairs) => {
            p += varint_len(pairs.len() as u64);
            for &(slot, delta) in pairs {
                p += varint_len(u64::from(slot)) + varint_len(zigzag(delta));
            }
        }
        ReportBody::Dense(counts) => {
            p += varint_len(counts.len() as u64);
            for &c in counts {
                p += varint_len(c);
            }
        }
    }
    p += varint_len(rep.undecided) + varint_len(rep.messages_sent) + varint_len(rep.recovered);
    p += match rep.changed_slots {
        None => 1,
        Some(c) => 1 + varint_len(c),
    };
    p += varint_len(rep.bytes_sent) + varint_len(rep.bytes_received);
    frame_len(rep.round, p)
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
        2 => {
            let count = r.bounded_count()?;
            let mut counts = Vec::with_capacity(count);
            for _ in 0..count {
                counts.push(r.varint()?);
            }
            ReportBody::Dense(counts)
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
        put_varint(b, h.shard as u64);
        put_varint(b, h.peer_addr.len() as u64);
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
    put_frame(out, FrameKind::PeerHello, 0, |b| put_varint(b, shard as u64));
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
    pub report_mode: ReportMode,
    pub wire_mode: WireMode,
    pub consume_mode: ConsumeMode,
    pub repr: ShardRepr,
    pub master_seed: u64,
    pub plan: FaultPlan,
    pub round_state: RoundStateMode,
    pub rule: crate::transport::RuleSpec,
    pub condensed: bool,
    pub body: Vec<(u32, u64)>,
    pub peer_addrs: Vec<String>,
    pub die_at_round: Option<u64>,
}

fn mode_codes(init: &WorkerInit) -> [u8; 5] {
    [
        match init.report_mode {
            ReportMode::Sparse => 0,
            ReportMode::Delta => 1,
            ReportMode::Dense => 2,
        },
        match init.wire_mode {
            WireMode::Batched => 0,
            WireMode::PerEntry => 1,
        },
        match init.consume_mode {
            ConsumeMode::Native => 0,
            ConsumeMode::Ordered => 1,
        },
        match init.repr {
            ShardRepr::Histogram => 0,
            ShardRepr::Agents => 1,
        },
        match init.round_state {
            RoundStateMode::Rebuild => 0,
            RoundStateMode::Incremental => 1,
        },
    ]
}

pub(crate) fn encode_worker_init(init: &WorkerInit, out: &mut Vec<u8>) {
    use crate::transport::RuleSpec;
    put_frame(out, FrameKind::Init, 0, |b| {
        put_varint(b, u64::from(init.n));
        put_varint(b, init.shards as u64);
        put_varint(b, init.k_slots as u64);
        b.extend_from_slice(&mode_codes(init));
        put_varint(b, init.master_seed);
        // Fault plan: seed, six rates (fixed f64 bits), crashes,
        // byzantine specs, max_faulty.
        let plan = &init.plan;
        put_varint(b, plan.seed);
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
        put_varint(b, plan.crashes.len() as u64);
        for c in &plan.crashes {
            put_varint(b, c.shard as u64);
            put_varint(b, c.crash_round);
            match c.rejoin_round {
                None => b.push(0),
                Some(r) => {
                    b.push(1);
                    put_varint(b, r);
                }
            }
        }
        put_varint(b, plan.byzantine.len() as u64);
        for z in &plan.byzantine {
            put_varint(b, z.shard as u64);
            put_varint(b, z.budget);
            b.push(match z.kind {
                CorruptionKind::Plausible => 0,
                CorruptionKind::Inflate => 1,
            });
        }
        put_varint(b, plan.max_faulty as u64);
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
                put_varint(b, u64::from(h));
            }
        }
        b.push(u8::from(init.condensed));
        put_varint(b, init.body.len() as u64);
        for &(slot, count) in &init.body {
            put_varint(b, u64::from(slot));
            put_varint(b, count);
        }
        put_varint(b, init.peer_addrs.len() as u64);
        for addr in &init.peer_addrs {
            put_varint(b, addr.len() as u64);
            b.extend_from_slice(addr.as_bytes());
        }
        match init.die_at_round {
            None => b.push(0),
            Some(r) => {
                b.push(1);
                put_varint(b, r);
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
    let report_mode = match r.u8()? {
        0 => ReportMode::Sparse,
        1 => ReportMode::Delta,
        2 => ReportMode::Dense,
        _ => return Err(WireError::Malformed("unknown report mode")),
    };
    let wire_mode = match r.u8()? {
        0 => WireMode::Batched,
        1 => WireMode::PerEntry,
        _ => return Err(WireError::Malformed("unknown wire mode")),
    };
    let consume_mode = match r.u8()? {
        0 => ConsumeMode::Native,
        1 => ConsumeMode::Ordered,
        _ => return Err(WireError::Malformed("unknown consume mode")),
    };
    let repr = match r.u8()? {
        0 => ShardRepr::Histogram,
        1 => ShardRepr::Agents,
        _ => return Err(WireError::Malformed("unknown shard repr")),
    };
    let round_state = match r.u8()? {
        0 => RoundStateMode::Rebuild,
        1 => RoundStateMode::Incremental,
        _ => return Err(WireError::Malformed("unknown round-state mode")),
    };
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
    let condensed = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Malformed("bad bool")),
    };
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
        report_mode,
        wire_mode,
        consume_mode,
        repr,
        master_seed,
        plan,
        round_state,
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
            put_varint(&mut buf, v);
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
        let msg = ShardMessage::Pull(PullBatch {
            origin: 3,
            round: 97,
            target_runs: vec![TargetRun { start: 0, len: 1000, count: 4242 }],
        });
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

    #[test]
    fn worker_init_round_trips() {
        let init = WorkerInit {
            n: 1000,
            shards: 4,
            k_slots: 64,
            report_mode: ReportMode::Delta,
            wire_mode: WireMode::Batched,
            consume_mode: ConsumeMode::Native,
            repr: ShardRepr::Histogram,
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
            round_state: RoundStateMode::Incremental,
            rule: crate::transport::RuleSpec::LazyVoter(0.5),
            condensed: true,
            body: vec![(0, 10), (63, 990)],
            peer_addrs: vec!["unix:/tmp/a".into(), "tcp:127.0.0.1:9".into()],
            die_at_round: Some(12),
        };
        let mut bytes = Vec::new();
        encode_worker_init(&init, &mut bytes);
        let (frame, used) = decode_frame(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decode_worker_init(&frame).unwrap(), init);
    }
}
