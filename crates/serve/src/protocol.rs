//! The wire protocol of the fill service.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by the payload, whose first byte is the message type. All
//! multi-byte integers are little-endian; `f64` values travel as their
//! IEEE-754 bit patterns (`to_bits`), so a reply is a deterministic byte
//! string — the serving layer inherits the repo's bit-identical
//! invariant.
//!
//! Designs are keyed by a 256-bit SHA-256 digest of their canonical
//! text form ([`design_hash`], a [`DesignKey`]) — collision-resistant,
//! so a store key can never silently alias a different layout. A
//! request can carry the design inline, refer to a previously uploaded
//! design by key, or describe a small *edit* against a base key
//! ([`DesignRef::Edit`]) — the shape of an ECO loop, and the path that
//! exercises the server's warm [`FlowContext`] cache.
//!
//! [`FlowContext`]: pilfill_core::FlowContext

use pilfill_core::flow::{FlowConfig, FlowOutcome};
use pilfill_core::SlackColumnDef;
use pilfill_geom::Coord;
use pilfill_layout::{Design, LayerId};
use std::io::{IoSlice, Read, Write};

/// Frames larger than this are rejected before allocation (a corrupt or
/// hostile length prefix must not drive an OOM).
pub const MAX_FRAME: u32 = 64 << 20;

/// Request: run the fill flow (`0x01`).
pub const MSG_FILL: u8 = 0x01;
/// Request: window-density analysis only (`0x02`).
pub const MSG_DENSITY: u8 = 0x02;
/// Request: DRC-check a fill placement (`0x03`).
pub const MSG_VERIFY: u8 = 0x03;
/// Request: shut the server down (`0x04`).
pub const MSG_SHUTDOWN: u8 = 0x04;
/// Reply: fill outcome (`0x81`).
pub const MSG_FILL_OK: u8 = 0x81;
/// Reply: density analysis (`0x82`).
pub const MSG_DENSITY_OK: u8 = 0x82;
/// Reply: DRC report (`0x83`).
pub const MSG_VERIFY_OK: u8 = 0x83;
/// Reply: admission control pushed back — retry later (`0x84`).
pub const MSG_BUSY: u8 = 0x84;
/// Reply: request failed (`0x85`).
pub const MSG_ERR: u8 = 0x85;
/// Reply: shutdown acknowledged (`0x86`).
pub const MSG_SHUTDOWN_OK: u8 = 0x86;

/// `u32` wire lengths/indices widen losslessly into `usize` on every
/// target the workspace supports (64-bit).
fn to_usize(v: u32) -> usize {
    v as usize // pilfill: allow(as-cast)
}

/// Collection length → wire `u32`, saturating: payloads anywhere near
/// 4 GiB are rejected by the [`MAX_FRAME`] check long before a truncated
/// length could be observed.
fn len_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// A design-store key: the SHA-256 digest of the design's canonical
/// text ([`design_hash`]) or of a base key plus edit ops
/// ([`edit_hash`]). Collision resistance is what makes content
/// addressing safe here — a key that could collide would make a
/// by-hash request silently resolve to a *different* cached layout.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignKey(pub [u8; 32]);

impl DesignKey {
    /// Wire size of a key in bytes.
    pub const LEN: usize = 32;
}

impl std::fmt::Display for DesignKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for DesignKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DesignKey({self})")
    }
}

/// The design-store key: SHA-256 of the canonical text serialization.
pub fn design_hash(design: &Design) -> DesignKey {
    DesignKey(crate::sha::sha256(design.to_text().as_bytes()))
}

/// One in-place design edit, applied server-side against a cached base
/// design. Edits are the warm path: the server reuses the base's
/// [`pilfill_core::FlowContext`] through `rebuild` instead of building
/// from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditOp {
    /// Duplicate the first sink of net `net` (a value-only edit: no
    /// geometry moves, only delay weights change).
    DupSink {
        /// Net index.
        net: u32,
    },
    /// Widen segment `seg` of net `net` by `delta` dbu (a geometry edit:
    /// densities change, the budget is recomputed).
    WidenSegment {
        /// Net index.
        net: u32,
        /// Segment index within the net.
        seg: u32,
        /// Width delta in dbu (may be negative).
        delta: i64,
    },
}

/// How a request names its design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignRef {
    /// Full canonical design text, parsed and cached server-side.
    Inline(String),
    /// A design previously seen by the server, by [`design_hash`].
    Hash(DesignKey),
    /// An edit of a cached base design. The edited design's store key is
    /// derived from `(base, ops)` — [`edit_hash`] — so a repeated edit
    /// request is itself a cache hit.
    Edit {
        /// [`design_hash`] of the base design.
        base: DesignKey,
        /// Edits, applied in order.
        ops: Vec<EditOp>,
    },
}

/// Store key of an edited design: SHA-256 over the base key and the
/// serialized edit ops. Cheaper than re-serializing the edited design,
/// and stable across clients, so identical edits dedupe.
pub fn edit_hash(base: DesignKey, ops: &[EditOp]) -> DesignKey {
    let mut bytes = Vec::with_capacity(DesignKey::LEN + ops.len() * 17);
    bytes.extend_from_slice(&base.0);
    for op in ops {
        match *op {
            EditOp::DupSink { net } => {
                bytes.push(0);
                bytes.extend_from_slice(&net.to_le_bytes());
            }
            EditOp::WidenSegment { net, seg, delta } => {
                bytes.push(1);
                bytes.extend_from_slice(&net.to_le_bytes());
                bytes.extend_from_slice(&seg.to_le_bytes());
                bytes.extend_from_slice(&delta.to_le_bytes());
            }
        }
    }
    DesignKey(crate::sha::sha256(&bytes))
}

/// Fill-flow parameters of a [`Request::Fill`] — the wire form of
/// [`FlowConfig`] plus the method selector.
#[derive(Debug, Clone, PartialEq)]
pub struct FillParams {
    /// Fill target layer.
    pub layer: u32,
    /// Density window size in dbu.
    pub window: i64,
    /// Dissection parameter `r`.
    pub r: u64,
    /// Slack-column definition (1, 2, or 3).
    pub def: u8,
    /// Weighted objective?
    pub weighted: bool,
    /// Window-density upper bound.
    pub max_density: f64,
    /// Seed for stochastic methods.
    pub seed: u64,
    /// Exact-LP budgeting?
    pub lp_budget: bool,
    /// Method selector: an index into [`METHOD_NAMES`].
    pub method: u8,
}

/// CLI names of the placement methods, indexed by [`FillParams::method`].
pub const METHOD_NAMES: [&str; 5] = ["normal", "greedy", "ilp1", "ilp2", "dp"];

impl FillParams {
    /// Default parameters: window/r with ILP-II and the [`FlowConfig`]
    /// defaults.
    ///
    /// # Errors
    ///
    /// Propagates [`FlowConfig::new`] validation.
    pub fn new(window: Coord, r: usize) -> Result<Self, pilfill_core::FlowError> {
        let config = FlowConfig::new(window, r)?;
        Ok(Self::from_config(&config, 3))
    }

    /// Wire form of an existing config + method index.
    pub fn from_config(config: &FlowConfig, method: u8) -> Self {
        FillParams {
            layer: len_u32(config.layer.0),
            window: config.window,
            r: config.r as u64,
            def: match config.def {
                SlackColumnDef::One => 1,
                SlackColumnDef::Two => 2,
                SlackColumnDef::Three => 3,
            },
            weighted: config.weighted,
            max_density: config.max_density,
            seed: config.seed,
            lp_budget: config.lp_budget,
            method,
        }
    }

    /// Reconstructs the [`FlowConfig`] these parameters describe.
    ///
    /// # Errors
    ///
    /// Returns a message for out-of-range fields or invalid dissection
    /// parameters.
    pub fn to_config(&self) -> Result<FlowConfig, String> {
        let r = usize::try_from(self.r).map_err(|_| format!("r {} out of range", self.r))?;
        let mut config = FlowConfig::new(self.window, r).map_err(|e| e.to_string())?;
        config.layer = LayerId(to_usize(self.layer));
        config.def = match self.def {
            1 => SlackColumnDef::One,
            2 => SlackColumnDef::Two,
            3 => SlackColumnDef::Three,
            d => return Err(format!("unknown slack-column definition {d}")),
        };
        config.weighted = self.weighted;
        config.max_density = self.max_density;
        config.seed = self.seed;
        config.lp_budget = self.lp_budget;
        if usize::from(self.method) >= METHOD_NAMES.len() {
            return Err(format!("unknown method index {}", self.method));
        }
        Ok(config)
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run the fill flow.
    Fill {
        /// The design to fill.
        design: DesignRef,
        /// Flow parameters.
        params: FillParams,
    },
    /// Window-density analysis of the bare design.
    Density {
        /// The design to analyze.
        design: DesignRef,
        /// Layer index.
        layer: u32,
        /// Density window size in dbu.
        window: i64,
        /// Dissection parameter `r`.
        r: u64,
    },
    /// DRC-check externally supplied fill features.
    Verify {
        /// The design to check against.
        design: DesignRef,
        /// Layer index.
        layer: u32,
        /// Feature lower-left corners `(x, y)`.
        features: Vec<(i64, i64)>,
    },
    /// Shut the server down.
    Shutdown,
}

/// How warm the serving path was for a [`Reply::FillOk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillStatus {
    /// No cached context: full build + full solve.
    Cold,
    /// Cached context matched the design hash: results replayed (or
    /// solved once) with no rebuild.
    Warm,
    /// Cached context rebuilt through the incremental path.
    RebuildIncr,
    /// Cached context rebuilt through the full fallback.
    RebuildFull,
}

impl FillStatus {
    fn to_byte(self) -> u8 {
        match self {
            FillStatus::Cold => 0,
            FillStatus::Warm => 1,
            FillStatus::RebuildIncr => 2,
            FillStatus::RebuildFull => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtocolError> {
        Ok(match b {
            0 => FillStatus::Cold,
            1 => FillStatus::Warm,
            2 => FillStatus::RebuildIncr,
            3 => FillStatus::RebuildFull,
            other => return Err(ProtocolError::bad(format!("fill status {other}"))),
        })
    }
}

/// A server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Fill succeeded.
    FillOk {
        /// Cache temperature of the serving path.
        status: FillStatus,
        /// Server-side handling time in nanoseconds (excluded from the
        /// deterministic `blob`).
        server_ns: u64,
        /// Store key of the design that was filled.
        design_hash: DesignKey,
        /// Deterministic outcome serialization ([`encode_outcome_blob`]).
        blob: Vec<u8>,
    },
    /// Density analysis succeeded: `(min, max, variation, mean)`.
    DensityOk {
        /// Store key of the analyzed design.
        design_hash: DesignKey,
        /// `(min, max, variation, mean)` window density.
        analysis: (f64, f64, f64, f64),
    },
    /// Verify succeeded.
    VerifyOk {
        /// Store key of the checked design.
        design_hash: DesignKey,
        /// Features checked.
        checked: u64,
        /// Human-readable violations (empty = clean).
        violations: Vec<String>,
    },
    /// Admission control rejected the request; retry later.
    Busy {
        /// Requests in flight when the request was rejected.
        inflight: u32,
    },
    /// The request failed.
    Err {
        /// Coarse error class ([`ERR_PROTOCOL`] etc.).
        code: u8,
        /// Human-readable description.
        message: String,
    },
    /// Shutdown acknowledged; the server stops accepting connections.
    ShutdownOk,
}

/// [`Reply::Err`] code: malformed request frame.
pub const ERR_PROTOCOL: u8 = 1;
/// [`Reply::Err`] code: design parse/validation failure.
pub const ERR_DESIGN: u8 = 2;
/// [`Reply::Err`] code: flow execution failure.
pub const ERR_FLOW: u8 = 3;
/// [`Reply::Err`] code: [`DesignRef::Hash`]/[`DesignRef::Edit`] base not
/// in the store.
pub const ERR_UNKNOWN_DESIGN: u8 = 4;
/// [`Reply::Err`] code: the request was aborted (client went away).
pub const ERR_ABORTED: u8 = 5;

/// A malformed frame.
#[derive(Debug)]
pub struct ProtocolError(pub String);

impl ProtocolError {
    fn bad(what: impl Into<String>) -> Self {
        ProtocolError(what.into())
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

// ---------------------------------------------------------------- framing

/// Writes one frame: `u32` length prefix + payload. The one-slice case
/// of [`write_frame_parts`], so it reaches the stream in one
/// vectored write.
///
/// # Errors
///
/// I/O errors from `w`; an oversized payload is an `InvalidData` error.
pub fn write_frame(w: &mut dyn Write, payload: &[u8]) -> std::io::Result<()> {
    write_frame_parts(w, payload, &[])
}

/// Writes one frame whose payload is `head` followed by `body`, without
/// joining them: the length prefix and both slices go to `w` in one
/// `write_vectored` call, so a TCP peer never waits on a delayed ACK
/// between them, and a shared reply blob goes out without a copy. A
/// partial write resumes where it stopped.
///
/// # Errors
///
/// I/O errors from `w` (`WriteZero` if it stops taking bytes); an
/// oversized payload is an `InvalidData` error.
pub(crate) fn write_frame_parts(
    w: &mut dyn Write,
    head: &[u8],
    body: &[u8],
) -> std::io::Result<()> {
    let len = head
        .len()
        .checked_add(body.len())
        .and_then(|n| u32::try_from(n).ok())
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame too large"))?;
    let prefix = len.to_le_bytes();
    let mut slices = [
        IoSlice::new(&prefix),
        IoSlice::new(head),
        IoSlice::new(body),
    ];
    let mut bufs = &mut slices[..];
    // Counted in bytes, not slices: an empty trailing slice is done.
    let mut left = prefix.len() + head.len() + body.len();
    while left > 0 {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => {
                left -= n;
                IoSlice::advance_slices(&mut bufs, n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one frame payload from a *blocking* stream. `Ok(None)` on
/// clean EOF before the first length byte.
///
/// On a socket with a read timeout, use [`FrameReader`] instead: a
/// one-shot read cannot resume a partially received frame, so here a
/// timeout surfaces as a `TimedOut` error rather than desyncing the
/// stream.
///
/// # Errors
///
/// I/O errors from `r`; an oversized or truncated frame is an
/// `InvalidData`/`UnexpectedEof` error; a read timeout is `TimedOut`.
pub fn read_frame(r: &mut dyn Read) -> std::io::Result<Option<Vec<u8>>> {
    match FrameReader::new().poll(r)? {
        FrameProgress::Frame(payload) => Ok(Some(payload)),
        FrameProgress::Eof => Ok(None),
        FrameProgress::Idle | FrameProgress::Pending => Err(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "frame read timed out",
        )),
    }
}

/// What one [`FrameReader::poll`] step observed.
#[derive(Debug)]
pub enum FrameProgress {
    /// The read timed out with *no* bytes of a frame buffered — a true
    /// idle tick. Polling again later is safe.
    Idle,
    /// The read timed out mid-frame. The partial length/payload bytes
    /// are retained; the next poll resumes exactly where this one
    /// stopped.
    Pending,
    /// One complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection at a frame boundary.
    Eof,
}

/// Incremental frame reader for sockets that wake up on `SO_RCVTIMEO`.
///
/// A server poll loop needs read timeouts to notice shutdown and abort
/// flags, but a timeout can fire after part of the 4-byte length prefix
/// or payload has already been consumed. Discarding those bytes (as a
/// fresh [`read_frame`] call would) desyncs the connection: later
/// payload bytes get parsed as a new length prefix and every reply goes
/// out of phase with the client's requests. `FrameReader` keeps the
/// partial frame across polls, so the distinction the loop needs is
/// explicit: [`FrameProgress::Idle`] (nothing buffered, fine to treat
/// as an idle tick) vs [`FrameProgress::Pending`] (mid-frame, keep
/// polling).
///
/// The payload buffer grows as bytes arrive, never to the declared length
/// up front: a peer that sends a length prefix and then stalls holds one
/// 64 KiB growth step, not [`MAX_FRAME`].
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Length-prefix bytes received so far.
    len: [u8; 4],
    /// How many bytes of `len` are valid.
    have: usize,
    /// Declared payload length, once the length prefix is complete.
    want: Option<usize>,
    /// Payload buffer: zeroed space for at most the bytes received so
    /// far plus one growth step.
    payload: Vec<u8>,
    /// Payload bytes received so far.
    filled: usize,
}

/// The first payload allocation. Later ones double the buffer, so a
/// frame costs O(log len) reallocations and never more than twice the
/// bytes received plus this step.
const FRAME_STEP: usize = 64 << 10;

/// Timeout error kinds a poll tick absorbs (unix reports `WouldBlock`,
/// Windows `TimedOut`).
fn is_read_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl FrameReader {
    /// A reader with no frame in progress.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Advances the in-progress frame as far as `r` allows.
    ///
    /// # Errors
    ///
    /// I/O errors other than timeouts and interrupts; EOF mid-frame is
    /// `UnexpectedEof`, an oversized length prefix `InvalidData`. After
    /// an error the reader's position in the byte stream is undefined —
    /// drop the connection instead of polling again.
    pub fn poll(&mut self, r: &mut dyn Read) -> std::io::Result<FrameProgress> {
        let want = loop {
            if let Some(want) = self.want {
                break want;
            }
            if self.have == self.len.len() {
                let len = u32::from_le_bytes(self.len);
                if len > MAX_FRAME {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("frame length {len} exceeds cap"),
                    ));
                }
                let want = to_usize(len);
                self.want = Some(want);
                self.filled = 0;
                break want;
            }
            match r.read(&mut self.len[self.have..]) {
                Ok(0) if self.have == 0 => return Ok(FrameProgress::Eof),
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "eof inside a frame length prefix",
                    ))
                }
                Ok(n) => self.have += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if is_read_timeout(&e) => {
                    return Ok(if self.have == 0 {
                        FrameProgress::Idle
                    } else {
                        FrameProgress::Pending
                    })
                }
                Err(e) => return Err(e),
            }
        };
        while self.filled < want {
            if self.filled == self.payload.len() {
                let grow = self.payload.len().max(FRAME_STEP).min(want - self.filled);
                self.payload.reserve_exact(grow);
                self.payload.resize(self.filled + grow, 0);
            }
            match r.read(&mut self.payload[self.filled..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "eof inside a frame payload",
                    ))
                }
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if is_read_timeout(&e) => return Ok(FrameProgress::Pending),
                Err(e) => return Err(e),
            }
        }
        self.have = 0;
        self.want = None;
        Ok(FrameProgress::Frame(std::mem::take(&mut self.payload)))
    }
}

// ----------------------------------------------------------- byte cursor

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| ProtocolError::bad("truncated frame"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        // take(2) returns exactly 2 bytes. pilfill: allow(unwrap)
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        // take(4) returns exactly 4 bytes. pilfill: allow(unwrap)
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        // take(8) returns exactly 8 bytes. pilfill: allow(unwrap)
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn i64(&mut self) -> Result<i64, ProtocolError> {
        Ok(self.u64()? as i64)
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn key(&mut self) -> Result<DesignKey, ProtocolError> {
        let bytes = self.take(DesignKey::LEN)?;
        // take(32) returns exactly 32 bytes. pilfill: allow(unwrap)
        Ok(DesignKey(bytes.try_into().expect("len 32")))
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let len = to_usize(self.u32()?);
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::bad("invalid utf-8"))
    }

    fn done(&self) -> Result<(), ProtocolError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(ProtocolError::bad("trailing bytes"))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&len_u32(s.len()).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_design_ref(out: &mut Vec<u8>, design: &DesignRef) {
    match design {
        DesignRef::Inline(text) => {
            out.push(0);
            put_string(out, text);
        }
        DesignRef::Hash(h) => {
            out.push(1);
            out.extend_from_slice(&h.0);
        }
        DesignRef::Edit { base, ops } => {
            out.push(2);
            out.extend_from_slice(&base.0);
            out.extend_from_slice(&u16::try_from(ops.len()).unwrap_or(u16::MAX).to_le_bytes());
            for op in ops {
                match *op {
                    EditOp::DupSink { net } => {
                        out.push(0);
                        out.extend_from_slice(&net.to_le_bytes());
                    }
                    EditOp::WidenSegment { net, seg, delta } => {
                        out.push(1);
                        out.extend_from_slice(&net.to_le_bytes());
                        out.extend_from_slice(&seg.to_le_bytes());
                        out.extend_from_slice(&delta.to_le_bytes());
                    }
                }
            }
        }
    }
}

fn get_design_ref(c: &mut Cursor<'_>) -> Result<DesignRef, ProtocolError> {
    Ok(match c.u8()? {
        0 => DesignRef::Inline(c.string()?),
        1 => DesignRef::Hash(c.key()?),
        2 => {
            let base = c.key()?;
            let count = c.u16()?;
            // Every op takes at least 5 bytes (tag and net).
            if usize::from(count) > c.remaining() / 5 {
                return Err(ProtocolError::bad("edit count exceeds frame"));
            }
            let mut ops = Vec::with_capacity(usize::from(count));
            for _ in 0..count {
                ops.push(match c.u8()? {
                    0 => EditOp::DupSink { net: c.u32()? },
                    1 => EditOp::WidenSegment {
                        net: c.u32()?,
                        seg: c.u32()?,
                        delta: c.i64()?,
                    },
                    other => return Err(ProtocolError::bad(format!("edit op {other}"))),
                });
            }
            DesignRef::Edit { base, ops }
        }
        other => return Err(ProtocolError::bad(format!("design ref tag {other}"))),
    })
}

// ------------------------------------------------------- request codecs

/// Serializes a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Fill { design, params } => {
            out.push(MSG_FILL);
            put_design_ref(&mut out, design);
            out.extend_from_slice(&params.layer.to_le_bytes());
            out.extend_from_slice(&params.window.to_le_bytes());
            out.extend_from_slice(&params.r.to_le_bytes());
            out.push(params.def);
            out.push(u8::from(params.weighted));
            out.extend_from_slice(&params.max_density.to_bits().to_le_bytes());
            out.extend_from_slice(&params.seed.to_le_bytes());
            out.push(u8::from(params.lp_budget));
            out.push(params.method);
        }
        Request::Density {
            design,
            layer,
            window,
            r,
        } => {
            out.push(MSG_DENSITY);
            put_design_ref(&mut out, design);
            out.extend_from_slice(&layer.to_le_bytes());
            out.extend_from_slice(&window.to_le_bytes());
            out.extend_from_slice(&r.to_le_bytes());
        }
        Request::Verify {
            design,
            layer,
            features,
        } => {
            out.push(MSG_VERIFY);
            put_design_ref(&mut out, design);
            out.extend_from_slice(&layer.to_le_bytes());
            out.extend_from_slice(&len_u32(features.len()).to_le_bytes());
            for &(x, y) in features {
                out.extend_from_slice(&x.to_le_bytes());
                out.extend_from_slice(&y.to_le_bytes());
            }
        }
        Request::Shutdown => out.push(MSG_SHUTDOWN),
    }
    out
}

/// Parses a request frame payload.
///
/// # Errors
///
/// [`ProtocolError`] on unknown message types, truncation, or trailing
/// bytes.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut c = Cursor::new(payload);
    let req = match c.u8()? {
        MSG_FILL => {
            let design = get_design_ref(&mut c)?;
            let params = FillParams {
                layer: c.u32()?,
                window: c.i64()?,
                r: c.u64()?,
                def: c.u8()?,
                weighted: c.u8()? != 0,
                max_density: c.f64()?,
                seed: c.u64()?,
                lp_budget: c.u8()? != 0,
                method: c.u8()?,
            };
            Request::Fill { design, params }
        }
        MSG_DENSITY => Request::Density {
            design: get_design_ref(&mut c)?,
            layer: c.u32()?,
            window: c.i64()?,
            r: c.u64()?,
        },
        MSG_VERIFY => {
            let design = get_design_ref(&mut c)?;
            let layer = c.u32()?;
            let count = to_usize(c.u32()?);
            // 16 bytes per feature must fit the remaining payload.
            if count > payload.len() / 16 + 1 {
                return Err(ProtocolError::bad("feature count exceeds frame"));
            }
            let mut features = Vec::with_capacity(count);
            for _ in 0..count {
                features.push((c.i64()?, c.i64()?));
            }
            Request::Verify {
                design,
                layer,
                features,
            }
        }
        MSG_SHUTDOWN => Request::Shutdown,
        other => return Err(ProtocolError::bad(format!("request type {other:#x}"))),
    };
    c.done()?;
    Ok(req)
}

// --------------------------------------------------------- reply codecs

/// Bytes of a [`Reply::FillOk`] payload before its blob: message type,
/// status, server time, design key and blob length.
pub(crate) const FILL_OK_HEAD: usize = 1 + 1 + 8 + DesignKey::LEN + 4;

/// The [`Reply::FillOk`] payload up to its `blob_len`-byte blob — the one
/// place its wire layout is written, shared by [`encode_reply`] and the
/// server's vectored reply frames.
pub(crate) fn fill_ok_head(
    status: FillStatus,
    server_ns: u64,
    design_hash: &DesignKey,
    blob_len: usize,
) -> [u8; FILL_OK_HEAD] {
    let fields: [&[u8]; 5] = [
        &[MSG_FILL_OK],
        &[status.to_byte()],
        &server_ns.to_le_bytes(),
        &design_hash.0,
        &len_u32(blob_len).to_le_bytes(),
    ];
    let mut head = [0; FILL_OK_HEAD];
    let mut at = 0;
    for field in fields {
        head[at..at + field.len()].copy_from_slice(field);
        at += field.len();
    }
    head
}

/// Serializes a reply into a frame payload.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut out = Vec::new();
    match reply {
        Reply::FillOk {
            status,
            server_ns,
            design_hash,
            blob,
        } => {
            out.extend_from_slice(&fill_ok_head(*status, *server_ns, design_hash, blob.len()));
            out.extend_from_slice(blob);
        }
        Reply::DensityOk {
            design_hash,
            analysis,
        } => {
            out.push(MSG_DENSITY_OK);
            out.extend_from_slice(&design_hash.0);
            for v in [analysis.0, analysis.1, analysis.2, analysis.3] {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        Reply::VerifyOk {
            design_hash,
            checked,
            violations,
        } => {
            out.push(MSG_VERIFY_OK);
            out.extend_from_slice(&design_hash.0);
            out.extend_from_slice(&checked.to_le_bytes());
            out.extend_from_slice(&len_u32(violations.len()).to_le_bytes());
            for v in violations {
                put_string(&mut out, v);
            }
        }
        Reply::Busy { inflight } => {
            out.push(MSG_BUSY);
            out.extend_from_slice(&inflight.to_le_bytes());
        }
        Reply::Err { code, message } => {
            out.push(MSG_ERR);
            out.push(*code);
            put_string(&mut out, message);
        }
        Reply::ShutdownOk => out.push(MSG_SHUTDOWN_OK),
    }
    out
}

/// Parses a reply frame payload.
///
/// # Errors
///
/// [`ProtocolError`] on unknown message types, truncation, or trailing
/// bytes.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, ProtocolError> {
    let mut c = Cursor::new(payload);
    let reply = match c.u8()? {
        MSG_FILL_OK => {
            let status = FillStatus::from_byte(c.u8()?)?;
            let server_ns = c.u64()?;
            let design_hash = c.key()?;
            let len = to_usize(c.u32()?);
            let blob = c.take(len)?.to_vec();
            Reply::FillOk {
                status,
                server_ns,
                design_hash,
                blob,
            }
        }
        MSG_DENSITY_OK => Reply::DensityOk {
            design_hash: c.key()?,
            analysis: (c.f64()?, c.f64()?, c.f64()?, c.f64()?),
        },
        MSG_VERIFY_OK => {
            let design_hash = c.key()?;
            let checked = c.u64()?;
            let count = to_usize(c.u32()?);
            // Every violation takes at least its 4-byte length.
            if count > c.remaining() / 4 {
                return Err(ProtocolError::bad("violation count exceeds frame"));
            }
            // A `String` is 24 bytes against the wire's 4, so reserve no
            // more of them than the bytes that arrived could fill; a
            // frame that holds its strings grows the list as they come.
            let cap = count.min(c.remaining() / std::mem::size_of::<String>());
            let mut violations = Vec::with_capacity(cap);
            for _ in 0..count {
                violations.push(c.string()?);
            }
            Reply::VerifyOk {
                design_hash,
                checked,
                violations,
            }
        }
        MSG_BUSY => Reply::Busy { inflight: c.u32()? },
        MSG_ERR => Reply::Err {
            code: c.u8()?,
            message: c.string()?,
        },
        MSG_SHUTDOWN_OK => Reply::ShutdownOk,
        other => return Err(ProtocolError::bad(format!("reply type {other:#x}"))),
    };
    c.done()?;
    Ok(reply)
}

// --------------------------------------------------------- outcome blob

/// Serializes a [`FlowOutcome`] into the deterministic reply blob.
///
/// Every field except wall-clock `solve_time` is included; all floats go
/// as IEEE bit patterns. Two outcomes that compare equal (same features,
/// same accumulated impact) therefore produce byte-identical blobs —
/// this is the payload the bit-identical serving invariant is asserted
/// on, and what `pilfill request --dump` writes.
///
/// The blob is allocated once at its exact length: the server keeps it
/// beside its context for replay, so growth slack would stay resident.
pub fn encode_outcome_blob(outcome: &FlowOutcome) -> Vec<u8> {
    let impact = &outcome.impact;
    let len = 4 + outcome.method.len()
        + 4 * 8 // budget, placed, shortfall, tiles
        + 2 * 4 * 8 // density before and after
        + 5 * 8 // impact totals, free and unlocated counts
        + 4 + 8 * impact.per_net_delay.len()
        + 4 + 8 * impact.per_net_cap.len()
        + 4 + 16 * outcome.features.len();
    let mut out = Vec::with_capacity(len);
    put_string(&mut out, outcome.method);
    out.extend_from_slice(&outcome.budget_total.to_le_bytes());
    out.extend_from_slice(&outcome.placed_features.to_le_bytes());
    out.extend_from_slice(&outcome.shortfall.to_le_bytes());
    out.extend_from_slice(&(outcome.tiles as u64).to_le_bytes());
    for a in [&outcome.density_before, &outcome.density_after] {
        for v in [
            a.min_window_density,
            a.max_window_density,
            a.variation,
            a.mean_window_density,
        ] {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    for v in [impact.total_delay, impact.weighted_delay, impact.total_cap] {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&impact.free_features.to_le_bytes());
    out.extend_from_slice(&impact.unlocated_features.to_le_bytes());
    out.extend_from_slice(&len_u32(impact.per_net_delay.len()).to_le_bytes());
    for &v in &impact.per_net_delay {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&len_u32(impact.per_net_cap.len()).to_le_bytes());
    for &v in &impact.per_net_cap {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&len_u32(outcome.features.len()).to_le_bytes());
    for f in &outcome.features {
        out.extend_from_slice(&f.x.to_le_bytes());
        out.extend_from_slice(&f.y.to_le_bytes());
    }
    debug_assert_eq!(out.len(), len, "outcome blob length");
    out
}

/// Applies edit ops to a design (in order), mirroring what the server
/// does for [`DesignRef::Edit`].
///
/// # Errors
///
/// Returns a message if an op's net/segment index is out of range.
pub fn apply_edits(design: &mut Design, ops: &[EditOp]) -> Result<(), String> {
    for op in ops {
        match *op {
            EditOp::DupSink { net } => {
                let net = design
                    .nets
                    .get_mut(to_usize(net))
                    .ok_or_else(|| format!("dup-sink: no net {net}"))?;
                let sink = *net
                    .sinks
                    .first()
                    .ok_or_else(|| format!("dup-sink: net {} has no sinks", net.name))?;
                net.sinks.push(sink);
            }
            EditOp::WidenSegment { net, seg, delta } => {
                let net = design
                    .nets
                    .get_mut(to_usize(net))
                    .ok_or_else(|| format!("widen: no net {net}"))?;
                let seg = net
                    .segments
                    .get_mut(to_usize(seg))
                    .ok_or_else(|| format!("widen: net {} has no segment {seg}", net.name))?;
                seg.width = seg
                    .width
                    .checked_add(delta)
                    .filter(|&w| w > 0)
                    .ok_or_else(|| "widen: resulting width not positive".to_string())?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shorthand key for wire tests.
    fn key(b: u8) -> DesignKey {
        DesignKey([b; 32])
    }

    #[test]
    fn design_key_displays_as_hex() {
        let mut bytes = [0u8; 32];
        bytes[0] = 0xde;
        bytes[1] = 0xad;
        let shown = DesignKey(bytes).to_string();
        assert_eq!(shown.len(), 64);
        assert!(shown.starts_with("dead"));
        assert!(shown.ends_with("00"));
    }

    #[test]
    fn requests_roundtrip() {
        let requests = [
            Request::Fill {
                design: DesignRef::Inline("design x\n".into()),
                params: FillParams::new(8_000, 2).expect("valid window"),
            },
            Request::Fill {
                design: DesignRef::Edit {
                    base: key(77),
                    ops: vec![
                        EditOp::DupSink { net: 3 },
                        EditOp::WidenSegment {
                            net: 1,
                            seg: 2,
                            delta: -40,
                        },
                    ],
                },
                params: FillParams::new(16_000, 4).expect("valid window"),
            },
            Request::Density {
                design: DesignRef::Hash(key(0xbe)),
                layer: 1,
                window: 8_000,
                r: 2,
            },
            Request::Verify {
                design: DesignRef::Hash(key(9)),
                layer: 0,
                features: vec![(100, 200), (-5, 7)],
            },
            Request::Shutdown,
        ];
        for req in &requests {
            let bytes = encode_request(req);
            let back = decode_request(&bytes).expect("roundtrip decode");
            assert_eq!(&back, req);
        }
    }

    #[test]
    fn replies_roundtrip() {
        let replies = [
            Reply::FillOk {
                status: FillStatus::RebuildIncr,
                server_ns: 12_345,
                design_hash: key(42),
                blob: vec![1, 2, 3, 4],
            },
            Reply::DensityOk {
                design_hash: key(7),
                analysis: (0.1, 0.4, 0.3, 0.25),
            },
            Reply::VerifyOk {
                design_hash: key(8),
                checked: 120,
                violations: vec!["overlap at (3, 4)".into()],
            },
            Reply::Busy { inflight: 9 },
            Reply::Err {
                code: ERR_DESIGN,
                message: "parse error".into(),
            },
            Reply::ShutdownOk,
        ];
        for reply in &replies {
            let bytes = encode_reply(reply);
            let back = decode_reply(&bytes).expect("roundtrip decode");
            assert_eq!(&back, reply);
        }
    }

    #[test]
    fn truncated_and_trailing_frames_are_rejected() {
        let bytes = encode_request(&Request::Density {
            design: DesignRef::Hash(key(1)),
            layer: 0,
            window: 8_000,
            r: 2,
        });
        assert!(decode_request(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_request(&extra).is_err());
        assert!(decode_request(&[0xff]).is_err());
        assert!(decode_reply(&[0x42]).is_err());
    }

    /// An edit count the frame cannot hold is refused before anything is
    /// reserved for it.
    #[test]
    fn edit_count_beyond_the_frame_is_rejected() {
        let mut payload = vec![MSG_FILL, 2];
        payload.extend_from_slice(&key(1).0);
        payload.extend_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(payload.len(), 36);
        let err = decode_request(&payload).expect_err("65535 ops in 0 bytes");
        assert_eq!(err.0, "edit count exceeds frame");
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"").expect("write");
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).expect("read").as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).expect("read"), None);
    }

    /// A frame reaches the stream in one write call: a split prefix and
    /// payload would stall on a delayed ACK over TCP. `Counting` takes
    /// every slice of a vectored write, as a socket does.
    #[test]
    fn frame_is_written_in_one_call() {
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.write_vectored(&[IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
                self.writes += 1;
                let before = self.bytes.len();
                for buf in bufs {
                    self.bytes.extend_from_slice(buf);
                }
                Ok(self.bytes.len() - before)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting::default();
        write_frame(&mut w, b"hello").expect("write");
        assert_eq!(w.writes, 1);
        write_frame(&mut w, b"").expect("write");
        assert_eq!(w.writes, 2);
        write_frame_parts(&mut w, b"he", b"llo").expect("write");
        assert_eq!(w.writes, 3);
        assert_eq!(w.bytes, b"\x05\0\0\0hello\0\0\0\0\x05\0\0\0hello");
    }

    /// The outcome blob is allocated once, at its exact length: the
    /// server keeps it for replay, so slack would stay resident.
    #[test]
    fn outcome_blob_has_no_spare_capacity() {
        use pilfill_core::methods::GreedyFill;
        use pilfill_layout::synth::{synthesize, SynthConfig};
        let design = synthesize(&SynthConfig::small_test(5));
        let config = FlowConfig::new(8_000, 2).expect("valid window");
        let outcome = pilfill_core::flow::run_flow(&design, &config, &GreedyFill).expect("flow");
        assert!(!outcome.features.is_empty());
        let blob = encode_outcome_blob(&outcome);
        assert_eq!(blob.capacity(), blob.len());
    }

    #[test]
    fn oversized_frame_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn edit_hash_depends_on_ops_and_base() {
        let ops = [EditOp::DupSink { net: 0 }];
        let a = edit_hash(key(1), &ops);
        assert_eq!(a, edit_hash(key(1), &ops));
        assert_ne!(a, edit_hash(key(2), &ops));
        assert_ne!(a, edit_hash(key(1), &[EditOp::DupSink { net: 1 }]));
        assert_ne!(a, edit_hash(key(1), &[]));
    }

    /// A `Read` that yields `data` one byte at a time and fails with a
    /// timeout before every read — the worst-case `SO_RCVTIMEO` stream.
    struct Stutter {
        data: Vec<u8>,
        pos: usize,
        ready: bool,
    }

    impl Read for Stutter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "stutter",
                ));
            }
            self.ready = false;
            if self.pos == self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_at_every_byte_boundary() {
        // Two frames; a timeout fires before every single byte. A naive
        // reader would discard partial prefixes/payloads and desync.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").expect("write");
        write_frame(&mut wire, b"").expect("write");
        let mut stream = Stutter {
            data: wire,
            pos: 0,
            ready: false,
        };
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        let mut idle = 0;
        let mut pending = 0;
        loop {
            match reader.poll(&mut stream).expect("poll") {
                FrameProgress::Frame(p) => frames.push(p),
                FrameProgress::Idle => idle += 1,
                FrameProgress::Pending => pending += 1,
                FrameProgress::Eof => break,
            }
        }
        assert_eq!(frames, vec![b"hello".to_vec(), Vec::new()]);
        // Mid-frame stalls must be reported as Pending, never Idle: an
        // Idle verdict licenses the caller to believe no frame is in
        // flight.
        assert!(pending > 0, "mid-frame timeouts must surface as Pending");
        assert!(idle > 0, "boundary timeouts must surface as Idle");
    }

    /// A `Read` that yields `data` and then times out forever: a peer
    /// that stalls after sending part of a frame.
    struct Stall<'a>(&'a [u8]);

    impl Read for Stall<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "stall"));
            }
            let n = buf.len().min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_allocates_only_what_arrived() {
        // Four bytes claiming the largest legal frame, then silence.
        let prefix = MAX_FRAME.to_le_bytes();
        let mut reader = FrameReader::new();
        let progress = reader.poll(&mut Stall(&prefix)).expect("poll");
        assert!(matches!(progress, FrameProgress::Pending));
        assert!(
            reader.payload.capacity() <= FRAME_STEP,
            "4 bytes sent, {} bytes held",
            reader.payload.capacity()
        );

        // Three steps' worth of payload: the buffer grows with the bytes,
        // at most doubling past what arrived.
        let mut wire = prefix.to_vec();
        wire.extend((0..3 * FRAME_STEP).map(|i| (i % 251) as u8));
        let mut reader = FrameReader::new();
        let progress = reader.poll(&mut Stall(&wire)).expect("poll");
        assert!(matches!(progress, FrameProgress::Pending));
        assert_eq!(reader.filled, 3 * FRAME_STEP);
        assert!(reader.payload.capacity() <= 4 * FRAME_STEP);
    }

    #[test]
    fn frame_reader_decodes_a_trickled_frame_identically() {
        // A real request several growth steps long, fed one byte per
        // read with a timeout before every byte.
        let text: String = (0..FRAME_STEP / 4).map(|i| format!("net n{i}\n")).collect();
        let request = Request::Fill {
            design: DesignRef::Inline(text),
            params: FillParams::new(8_000, 2).expect("valid window"),
        };
        let payload = encode_request(&request);
        assert!(payload.len() > 2 * FRAME_STEP);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).expect("write");
        let mut stream = Stutter {
            data: wire,
            pos: 0,
            ready: false,
        };
        let mut reader = FrameReader::new();
        let got = loop {
            match reader.poll(&mut stream).expect("poll") {
                FrameProgress::Frame(p) => break p,
                FrameProgress::Idle | FrameProgress::Pending => {}
                FrameProgress::Eof => panic!("eof before the frame"),
            }
        };
        assert_eq!(got, payload);
        assert_eq!(decode_request(&got).expect("decode"), request);
    }

    #[test]
    fn frame_reader_reports_eof_inside_a_frame_as_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").expect("write");
        wire.truncate(6); // length prefix + 2 payload bytes
        let mut stream = Stutter {
            data: wire,
            pos: 0,
            ready: false,
        };
        let mut reader = FrameReader::new();
        let err = loop {
            match reader.poll(&mut stream) {
                Ok(FrameProgress::Idle | FrameProgress::Pending) => {}
                Ok(other) => panic!("expected an error, got {other:?}"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
