//! `CLRWIRE1`: the length-prefixed framed binary protocol `clr-served`
//! speaks.
//!
//! Every frame is a fixed 32-byte header followed by a checksummed
//! payload — the same integrity discipline as the `CLRSNAP1` snapshot
//! container:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"CLRWIRE1"
//! 8       2     protocol version, u16 LE (currently 1)
//! 10      1     frame kind, u8 (1 request, 2 response, 3 error,
//!               4 shutdown, 5 stats request, 6 stats response,
//!               7 swap-db request, 8 swap-db response,
//!               9 promote request, 10 promote response)
//! 11      5     reserved, must be 0
//! 16      8     payload length in bytes, u64 LE (capped at 64 KiB)
//! 24      8     FNV-1a 64 checksum of the payload, u64 LE
//! 32      n     payload
//! ```
//!
//! All payload integers and float bit patterns are little-endian; floats
//! travel as raw IEEE-754 bits, so a decision's numbers round-trip
//! exactly and the daemon's responses can be byte-compared against batch
//! replay output. Payloads:
//!
//! - **Request**: `seq` u64, `time` f64, `s_max` f64, `f_min` f64,
//!   tenant name (u16 length + UTF-8, `[A-Za-z0-9_-]+`). Carries one QoS
//!   requirement change addressed to a tenant — the wire form of a
//!   [`TraceEvent`].
//! - **Response**: `seq` u64, tenant name, then the full
//!   [`DecisionRecord`]: `event` u64, `time`/`s_max`/`f_min` f64,
//!   `feasible`/`from`/`to` u64, `drc` f64, optional `score`/`p_rc`
//!   (presence u8 + f64), `violated` u8, `status` u8, `fault` u8
//!   (0 = none, else 1 + index into [`FaultKind::ALL`]).
//! - **Error**: `seq` u64 (0 when the offending frame's seq is
//!   unrecoverable), message (u16 length + UTF-8).
//! - **Shutdown**: empty payload; asks the daemon to drain and exit.
//! - **Stats request** (`kind = 5`): `seq` u64, `stats_version` u16,
//!   `flight` u8, optional tenant filter (u16 length + UTF-8, length 0
//!   = whole fleet). Asks a live daemon for its telemetry snapshot.
//!   The version field is decoded leniently so a daemon can answer a
//!   too-new request with a clean error frame instead of a decode
//!   failure; a pre-stats daemon rejects kind 5 outright with its
//!   `unknown frame kind 5` error frame — the version gate for old
//!   peers.
//! - **Stats response** (`kind = 6`): `seq` u64, then the
//!   [`clr_obs::TelemetrySnapshot`] JSON line (u32 length + UTF-8).
//!   A snapshot that would not fit the payload cap is never encoded —
//!   the daemon answers an error frame suggesting a tenant filter.
//! - **Swap-db request** (`kind = 7`): `seq` u64, tenant name, optional
//!   expected generation (presence u8 + u64), snapshot path (u16
//!   length + UTF-8). Asks the daemon to hot-swap the database to the
//!   CLRSNAP1/CLRSNAP2 container at the path — by reference, because a
//!   database does not fit the payload cap. When the expected
//!   generation is present and the loaded snapshot's generation
//!   differs, the swap is refused (compare-and-swap for rollouts).
//! - **Swap-db response** (`kind = 8`): `seq` u64, tenant name, status
//!   u8 (0 swapped, 1 verify-failed, 2 unknown-tenant, 3 io-error),
//!   active generation u64 — the generation actually serving after the
//!   attempt, i.e. the last-known-good one when the swap was refused.
//! - **Promote request** (`kind = 9`): `seq` u64, tenant name. Asks
//!   the daemon to promote the tenant's shadow (candidate) value table
//!   to live — the A/B rollout's "ship it" step. Only meaningful for
//!   tenants running an `aura+learn` policy.
//! - **Promote response** (`kind = 10`): `seq` u64, tenant name,
//!   status u8 (0 promoted, 1 no-learner, 2 unknown-tenant), total
//!   promotions u64 applied to that tenant so far (0 when refused).
//!
//! A decoder rejects bad magic, unsupported versions, unknown kinds,
//! nonzero reserved bytes, over-cap or mismatched lengths and checksum
//! mismatches — a corrupted frame is refused loudly, never served.

use std::io::{Read, Write};

use clr_chaos::FaultKind;
use clr_dse::QosSpec;

use crate::{fnv1a64, is_plain_name, DecisionRecord, ServeStatus, TraceEvent};

/// Magic bytes opening every frame.
pub const WIRE_MAGIC: [u8; 8] = *b"CLRWIRE1";

/// The protocol version this build speaks.
pub const WIRE_VERSION: u16 = 1;

/// Size of the fixed frame header.
pub const WIRE_HEADER_LEN: usize = 32;

/// Upper bound on a frame payload. Tenant names are short and decision
/// records are fixed-size, so any larger declared length is hostile or
/// corrupt input, refused before allocation. Telemetry snapshots are
/// the one variable-size payload; the daemon refuses to encode one
/// over this cap (answering an error frame instead).
pub const MAX_PAYLOAD_LEN: usize = 64 * 1024;

/// The stats-payload schema this build speaks (independent of
/// [`WIRE_VERSION`]: the frame layer decodes any declared stats
/// version, the daemon answers a mismatch with an error frame).
/// Version 2 added the per-tenant active db generation.
pub const STATS_VERSION: u16 = 2;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A QoS requirement change addressed to a tenant.
    Request(Request),
    /// The decision serving one request.
    Response(Response),
    /// The request could not be served (unknown tenant, corrupt frame).
    Error(ErrorFrame),
    /// Drain everything admitted so far and exit gracefully.
    Shutdown,
    /// A live telemetry query.
    Stats(StatsRequest),
    /// The telemetry snapshot answering one stats query.
    StatsResponse(StatsResponse),
    /// A live database hot-swap command.
    SwapDb(SwapDbRequest),
    /// The outcome of one swap command.
    SwapDbResponse(SwapDbResponse),
    /// A shadow→live policy promotion command.
    Promote(PromoteRequest),
    /// The outcome of one promotion command.
    PromoteResponse(PromoteResponse),
}

/// The wire form of one QoS event (`kind = 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen sequence number, echoed on the response.
    pub seq: u64,
    /// Target tenant name.
    pub tenant: String,
    /// Event time in application-cycle units. Non-finite bit patterns
    /// are representable on the wire; the engine classifies them as
    /// malformed input and serves them through the degradation ladder.
    pub time: f64,
    /// The new requirement.
    pub spec: QosSpec,
}

impl Request {
    /// The trace event this request carries.
    pub fn to_event(&self) -> TraceEvent {
        TraceEvent {
            tenant: self.tenant.clone(),
            time: self.time,
            spec: self.spec,
        }
    }

    /// Wraps a trace event as a request frame.
    pub fn from_event(seq: u64, event: &TraceEvent) -> Self {
        Self {
            seq,
            tenant: event.tenant.clone(),
            time: event.time,
            spec: event.spec,
        }
    }
}

/// The wire form of one served decision (`kind = 2`).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's sequence number.
    pub seq: u64,
    /// The tenant that served it.
    pub tenant: String,
    /// The decision, exactly as the batch engine would record it.
    pub decision: DecisionRecord,
}

/// A live telemetry query (`kind = 5`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsRequest {
    /// Client-chosen sequence number, echoed on the response.
    pub seq: u64,
    /// The stats schema the client speaks ([`STATS_VERSION`]); the
    /// daemon answers other versions with an error frame.
    pub version: u16,
    /// Ask for every tenant's flight-recorder tail (quarantined
    /// tenants' tails are always included).
    pub flight: bool,
    /// Restrict the snapshot to one tenant (also the escape hatch when
    /// a whole-fleet snapshot would exceed the payload cap).
    pub tenant: Option<String>,
}

impl StatsRequest {
    /// A whole-fleet query at this build's stats version.
    pub fn fleet(seq: u64, flight: bool) -> Self {
        Self {
            seq,
            version: STATS_VERSION,
            flight,
            tenant: None,
        }
    }
}

/// The snapshot answering one stats query (`kind = 6`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsResponse {
    /// The query's sequence number.
    pub seq: u64,
    /// The [`clr_obs::TelemetrySnapshot`] v1 canonical JSON line.
    pub snapshot: String,
}

/// A live database hot-swap command (`kind = 7`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapDbRequest {
    /// Client-chosen sequence number, echoed on the response.
    pub seq: u64,
    /// The tenant whose database is swapped.
    pub tenant: String,
    /// Compare-and-swap guard: refuse unless the loaded snapshot's
    /// generation equals this (`None` = unconditional).
    pub expected_generation: Option<u64>,
    /// Filesystem path of the CLRSNAP1/CLRSNAP2 container to load —
    /// by reference, since databases exceed the payload cap.
    pub path: String,
}

/// How one swap command ended (`kind = 8`, the `status` byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapStatus {
    /// The tenant is now serving the new generation.
    Swapped,
    /// The snapshot failed verification (or the generation guard); the
    /// tenant keeps serving its last-known-good database.
    VerifyFailed,
    /// No such tenant in the fleet.
    UnknownTenant,
    /// The snapshot file could not be read.
    IoError,
}

impl SwapStatus {
    /// Stable lowercase label (journal/summary vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            Self::Swapped => "swapped",
            Self::VerifyFailed => "verify-failed",
            Self::UnknownTenant => "unknown-tenant",
            Self::IoError => "io-error",
        }
    }
}

/// The outcome of one swap command (`kind = 8`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapDbResponse {
    /// The command's sequence number.
    pub seq: u64,
    /// The tenant addressed.
    pub tenant: String,
    /// What happened.
    pub status: SwapStatus,
    /// The generation actually serving after the attempt (the
    /// last-known-good one when the swap was refused; 0 for an unknown
    /// tenant).
    pub generation: u64,
}

/// A shadow→live policy promotion command (`kind = 9`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromoteRequest {
    /// Client-chosen sequence number, echoed on the response.
    pub seq: u64,
    /// The tenant whose candidate table is promoted.
    pub tenant: String,
}

/// How one promotion command ended (`kind = 10`, the `status` byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromoteStatus {
    /// The shadow table now serves as the live incumbent.
    Promoted,
    /// The tenant exists but runs a non-learning policy; nothing to
    /// promote.
    NoLearner,
    /// No such tenant in the fleet.
    UnknownTenant,
}

impl PromoteStatus {
    /// Stable lowercase label (journal/summary vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            Self::Promoted => "promoted",
            Self::NoLearner => "no-learner",
            Self::UnknownTenant => "unknown-tenant",
        }
    }
}

/// The outcome of one promotion command (`kind = 10`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromoteResponse {
    /// The command's sequence number.
    pub seq: u64,
    /// The tenant addressed.
    pub tenant: String,
    /// What happened.
    pub status: PromoteStatus,
    /// Total promotions applied to this tenant so far (0 when the
    /// command was refused).
    pub promotions: u64,
}

/// A request-level failure (`kind = 3`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The offending request's sequence number (0 when unrecoverable).
    pub seq: u64,
    /// Human-readable reason.
    pub message: String,
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended inside a frame (header or payload).
    Truncated,
    /// The first 8 bytes are not [`WIRE_MAGIC`].
    BadMagic,
    /// The header declares a version this build does not speak.
    UnsupportedVersion {
        /// Declared version.
        version: u16,
    },
    /// The header's kind byte names no frame type.
    BadKind {
        /// Declared kind byte.
        kind: u8,
    },
    /// Reserved header bytes are nonzero.
    BadReserved,
    /// The declared payload length exceeds [`MAX_PAYLOAD_LEN`].
    OversizedPayload {
        /// Declared length.
        declared: u64,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum declared in the header.
        declared: u64,
        /// Checksum of the bytes present.
        actual: u64,
    },
    /// The payload's fields are malformed (bad name, bad enum code,
    /// wrong length for its kind).
    Malformed(String),
    /// The underlying reader/writer failed.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "stream truncated inside a frame"),
            Self::BadMagic => write!(f, "bad magic (not a CLRWIRE1 frame)"),
            Self::UnsupportedVersion { version } => {
                write!(
                    f,
                    "unsupported protocol version {version} (this build speaks {WIRE_VERSION})"
                )
            }
            Self::BadKind { kind } => write!(f, "unknown frame kind {kind}"),
            Self::BadReserved => write!(f, "reserved header bytes are nonzero"),
            Self::OversizedPayload { declared } => {
                write!(
                    f,
                    "declared payload length {declared} exceeds the {MAX_PAYLOAD_LEN}-byte cap"
                )
            }
            Self::ChecksumMismatch { declared, actual } => {
                write!(
                    f,
                    "payload checksum mismatch (header {declared:#018x}, payload {actual:#018x})"
                )
            }
            Self::Malformed(m) => write!(f, "malformed payload: {m}"),
            Self::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Header kind bytes, declared once: [`Frame::kind`], the header check
/// and the payload decoder all name them from here.
mod kind {
    pub const REQUEST: u8 = 1;
    pub const RESPONSE: u8 = 2;
    pub const ERROR: u8 = 3;
    pub const SHUTDOWN: u8 = 4;
    pub const STATS: u8 = 5;
    pub const STATS_RESPONSE: u8 = 6;
    pub const SWAP_DB: u8 = 7;
    pub const SWAP_DB_RESPONSE: u8 = 8;
    pub const PROMOTE: u8 = 9;
    pub const PROMOTE_RESPONSE: u8 = 10;
    /// Every kind the header accepts.
    pub const ALL: std::ops::RangeInclusive<u8> = REQUEST..=PROMOTE_RESPONSE;
}

/// A value with a stable, append-only one-byte wire code.
trait WireCode: Sized {
    /// What the code names, for decode errors.
    const WHAT: &'static str;
    fn code(self) -> u8;
    fn from_code(code: u8) -> Option<Self>;
}

/// Implements [`WireCode`] for a fieldless enum from one
/// `Variant => code` table, so the two directions cannot drift apart.
macro_rules! wire_code {
    ($ty:ident, $what:literal, $($variant:ident => $code:literal),+) => {
        impl WireCode for $ty {
            const WHAT: &'static str = $what;
            fn code(self) -> u8 {
                match self {
                    $($ty::$variant => $code,)+
                }
            }
            fn from_code(code: u8) -> Option<Self> {
                match code {
                    $($code => Some($ty::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

wire_code!(ServeStatus, "status", Normal => 0, DegradedLkg => 1, DegradedBaseline => 2,
    DegradedHold => 3, Quarantined => 4);
wire_code!(SwapStatus, "swap status", Swapped => 0, VerifyFailed => 1, UnknownTenant => 2,
    IoError => 3);
wire_code!(PromoteStatus, "promote status", Promoted => 0, NoLearner => 1, UnknownTenant => 2);

/// `0` = no fault, else `1 + index` into [`FaultKind::ALL`].
impl WireCode for Option<FaultKind> {
    const WHAT: &'static str = "fault";
    fn code(self) -> u8 {
        self.and_then(|kind| FaultKind::ALL.iter().position(|&k| k == kind))
            .map_or(0, |idx| u8::try_from(idx + 1).unwrap_or_default())
    }
    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(None),
            _ => FaultKind::ALL.get(usize::from(code) - 1).copied().map(Some),
        }
    }
}

/// Little-endian frame writer: the header goes first, and
/// [`FrameWriter::finish`] patches in the payload's length and checksum.
struct FrameWriter {
    bytes: Vec<u8>,
}

impl FrameWriter {
    fn new(kind: u8) -> Self {
        // Room for a request or a response with a short tenant name.
        let mut bytes = Vec::with_capacity(WIRE_HEADER_LEN + 128);
        bytes.extend_from_slice(&WIRE_MAGIC);
        bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bytes.push(kind);
        bytes.resize(WIRE_HEADER_LEN, 0); // reserved, length, checksum
        Self { bytes }
    }
    fn finish(mut self) -> Vec<u8> {
        let payload = &self.bytes[WIRE_HEADER_LEN..];
        let len = (payload.len() as u64).to_le_bytes();
        let sum = fnv1a64(payload).to_le_bytes();
        self.bytes[16..24].copy_from_slice(&len);
        self.bytes[24..32].copy_from_slice(&sum);
        self.bytes
    }
    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn flag(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn code(&mut self, v: impl WireCode) {
        self.u8(v.code());
    }
    /// Presence byte, then the value (zero when absent).
    fn opt_u64(&mut self, v: Option<u64>) {
        self.flag(v.is_some());
        self.u64(v.unwrap_or(0));
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        self.opt_u64(v.map(f64::to_bits));
    }
    /// A plain tenant name behind a u16 length.
    fn name(&mut self, name: &str) {
        debug_assert!(is_plain_name(name), "wire names are [A-Za-z0-9_-]+");
        let len = u16::try_from(name.len()).unwrap_or(u16::MAX);
        self.u16(len);
        self.bytes
            .extend_from_slice(&name.as_bytes()[..usize::from(len)]);
    }
    /// A tenant name, or length 0 for none.
    fn opt_name(&mut self, name: Option<&str>) {
        match name {
            Some(name) => self.name(name),
            None => self.u16(0),
        }
    }
    /// Free text behind a u16 length.
    fn text16(&mut self, text: &str) {
        let text = self.fit(text, 2);
        self.u16(u16::try_from(text.len()).unwrap_or(u16::MAX));
        self.bytes.extend_from_slice(text.as_bytes());
    }
    /// Free text behind a u32 length.
    fn text32(&mut self, text: &str) {
        let text = self.fit(text, 4);
        self.u32(u32::try_from(text.len()).unwrap_or(u32::MAX));
        self.bytes.extend_from_slice(text.as_bytes());
    }
    /// The longest prefix of `text` that ends on a character boundary
    /// and, behind a `len_bytes` length field, still fits the payload
    /// cap — so every encoded frame decodes.
    fn fit<'t>(&self, text: &'t str, len_bytes: usize) -> &'t str {
        let used = self.bytes.len() - WIRE_HEADER_LEN + len_bytes;
        &text[..text.floor_char_boundary(MAX_PAYLOAD_LEN.saturating_sub(used))]
    }
}

/// Little-endian payload reader.
struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| WireError::Malformed("payload shorter than its fields".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        let raw = self.take(2)?;
        Ok(u16::from_le_bytes([raw[0], raw[1]]))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        let raw = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(raw);
        Ok(u64::from_le_bytes(buf))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn flag(&mut self, what: &str) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!(
                "bad {what} flag {other} (expected 0 or 1)"
            ))),
        }
    }
    fn code<T: WireCode>(&mut self) -> Result<T, WireError> {
        let code = self.u8()?;
        T::from_code(code)
            .ok_or_else(|| WireError::Malformed(format!("unknown {} code {code}", T::WHAT)))
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        let present = self.flag("option")?;
        let value = self.u64()?;
        Ok(present.then_some(value))
    }
    fn opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        Ok(self.opt_u64()?.map(f64::from_bits))
    }
    fn name(&mut self) -> Result<String, WireError> {
        let len = self.u16()?;
        self.plain_name(len)
    }
    fn opt_name(&mut self) -> Result<Option<String>, WireError> {
        match self.u16()? {
            0 => Ok(None),
            len => self.plain_name(len).map(Some),
        }
    }
    fn plain_name(&mut self, len: u16) -> Result<String, WireError> {
        let name = self.utf8(usize::from(len), "tenant name")?;
        if !is_plain_name(name) {
            return Err(WireError::Malformed(format!("bad tenant name {name:?}")));
        }
        Ok(name.to_string())
    }
    fn text16(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.u16()?;
        Ok(self.utf8(usize::from(len), what)?.to_string())
    }
    fn text32(&mut self, what: &str) -> Result<String, WireError> {
        let len = usize::try_from(self.u32()?).unwrap_or(usize::MAX);
        Ok(self.utf8(len, what)?.to_string())
    }
    /// A non-empty snapshot path.
    fn path(&mut self) -> Result<String, WireError> {
        let path = self.text16("snapshot path")?;
        if path.is_empty() {
            return Err(WireError::Malformed("empty snapshot path".into()));
        }
        Ok(path)
    }
    fn utf8(&mut self, len: usize, what: &str) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| WireError::Malformed(format!("{what} is not UTF-8")))
    }
    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing payload bytes",
                self.bytes.len() - self.pos
            )))
        }
    }
}

impl Frame {
    /// The header kind byte of this frame.
    pub fn kind(&self) -> u8 {
        match self {
            Self::Request(_) => kind::REQUEST,
            Self::Response(_) => kind::RESPONSE,
            Self::Error(_) => kind::ERROR,
            Self::Shutdown => kind::SHUTDOWN,
            Self::Stats(_) => kind::STATS,
            Self::StatsResponse(_) => kind::STATS_RESPONSE,
            Self::SwapDb(_) => kind::SWAP_DB,
            Self::SwapDbResponse(_) => kind::SWAP_DB_RESPONSE,
            Self::Promote(_) => kind::PROMOTE,
            Self::PromoteResponse(_) => kind::PROMOTE_RESPONSE,
        }
    }

    /// Encodes the frame (header + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = FrameWriter::new(self.kind());
        match self {
            Self::Request(r) => {
                w.u64(r.seq);
                w.f64(r.time);
                w.f64(r.spec.max_makespan);
                w.f64(r.spec.min_reliability);
                w.name(&r.tenant);
            }
            Self::Response(r) => {
                let d = &r.decision;
                w.u64(r.seq);
                w.name(&r.tenant);
                w.u64(d.event as u64);
                w.f64(d.time);
                w.f64(d.spec.max_makespan);
                w.f64(d.spec.min_reliability);
                w.u64(d.feasible as u64);
                w.u64(d.from as u64);
                w.u64(d.to as u64);
                w.f64(d.drc);
                w.opt_f64(d.score);
                w.opt_f64(d.p_rc);
                w.flag(d.violated);
                w.code(d.status);
                w.code(d.fault);
            }
            Self::Error(e) => {
                w.u64(e.seq);
                w.text16(&e.message);
            }
            Self::Shutdown => {}
            Self::Stats(s) => {
                w.u64(s.seq);
                w.u16(s.version);
                w.flag(s.flight);
                w.opt_name(s.tenant.as_deref());
            }
            Self::StatsResponse(s) => {
                w.u64(s.seq);
                w.text32(&s.snapshot);
            }
            Self::SwapDb(s) => {
                w.u64(s.seq);
                w.name(&s.tenant);
                w.opt_u64(s.expected_generation);
                w.text16(&s.path);
            }
            Self::SwapDbResponse(s) => {
                w.u64(s.seq);
                w.name(&s.tenant);
                w.code(s.status);
                w.u64(s.generation);
            }
            Self::Promote(p) => {
                w.u64(p.seq);
                w.name(&p.tenant);
            }
            Self::PromoteResponse(p) => {
                w.u64(p.seq);
                w.name(&p.tenant);
                w.code(p.status);
                w.u64(p.promotions);
            }
        }
        w.finish()
    }

    /// Decodes one frame from a validated header's kind and checksum and
    /// its payload.
    fn from_parts(byte: u8, checksum: u64, payload: &[u8]) -> Result<Self, WireError> {
        let actual = fnv1a64(payload);
        if actual != checksum {
            return Err(WireError::ChecksumMismatch {
                declared: checksum,
                actual,
            });
        }
        let mut r = PayloadReader::new(payload);
        let frame = match byte {
            kind::REQUEST => {
                let seq = r.u64()?;
                let time = r.f64()?;
                let s_max = r.f64()?;
                let f_min = r.f64()?;
                let tenant = r.name()?;
                Self::Request(Request {
                    seq,
                    tenant,
                    time,
                    spec: QosSpec::new(s_max, f_min),
                })
            }
            kind::RESPONSE => {
                let seq = r.u64()?;
                let tenant = r.name()?;
                let event = usize::try_from(r.u64()?)
                    .map_err(|_| WireError::Malformed("event ordinal overflows usize".into()))?;
                let time = r.f64()?;
                let s_max = r.f64()?;
                let f_min = r.f64()?;
                let idx = |v: u64| {
                    usize::try_from(v)
                        .map_err(|_| WireError::Malformed("point index overflows usize".into()))
                };
                Self::Response(Response {
                    seq,
                    tenant,
                    decision: DecisionRecord {
                        event,
                        time,
                        spec: QosSpec::new(s_max, f_min),
                        feasible: idx(r.u64()?)?,
                        from: idx(r.u64()?)?,
                        to: idx(r.u64()?)?,
                        drc: r.f64()?,
                        score: r.opt_f64()?,
                        p_rc: r.opt_f64()?,
                        violated: r.flag("violated")?,
                        status: r.code()?,
                        fault: r.code()?,
                    },
                })
            }
            kind::ERROR => Self::Error(ErrorFrame {
                seq: r.u64()?,
                message: r.text16("error message")?,
            }),
            kind::SHUTDOWN => Self::Shutdown,
            kind::STATS => Self::Stats(StatsRequest {
                seq: r.u64()?,
                version: r.u16()?,
                flight: r.flag("flight")?,
                tenant: r.opt_name()?,
            }),
            kind::STATS_RESPONSE => Self::StatsResponse(StatsResponse {
                seq: r.u64()?,
                snapshot: r.text32("snapshot")?,
            }),
            kind::SWAP_DB => Self::SwapDb(SwapDbRequest {
                seq: r.u64()?,
                tenant: r.name()?,
                expected_generation: r.opt_u64()?,
                path: r.path()?,
            }),
            kind::SWAP_DB_RESPONSE => Self::SwapDbResponse(SwapDbResponse {
                seq: r.u64()?,
                tenant: r.name()?,
                status: r.code()?,
                generation: r.u64()?,
            }),
            kind::PROMOTE => Self::Promote(PromoteRequest {
                seq: r.u64()?,
                tenant: r.name()?,
            }),
            kind::PROMOTE_RESPONSE => Self::PromoteResponse(PromoteResponse {
                seq: r.u64()?,
                tenant: r.name()?,
                status: r.code()?,
                promotions: r.u64()?,
            }),
            other => return Err(WireError::BadKind { kind: other }),
        };
        r.finish()?;
        Ok(frame)
    }

    /// Decodes one frame from a byte buffer, returning the frame and the
    /// total bytes consumed.
    ///
    /// # Errors
    ///
    /// Every structural violation is a typed [`WireError`]; see the
    /// module docs for the rejection rules.
    pub fn from_bytes(bytes: &[u8]) -> Result<(Self, usize), WireError> {
        if bytes.len() < WIRE_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let (byte, declared_len, checksum) = decode_header(&bytes[..WIRE_HEADER_LEN])?;
        // The header caps the length, so this cannot overflow.
        let total = WIRE_HEADER_LEN + declared_len;
        let payload = bytes
            .get(WIRE_HEADER_LEN..total)
            .ok_or(WireError::Truncated)?;
        Ok((Self::from_parts(byte, checksum, payload)?, total))
    }

    /// Writes the encoded frame to `w`.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the writer fails.
    pub fn write_to(&self, w: &mut dyn Write) -> Result<(), WireError> {
        w.write_all(&self.to_bytes())
            .map_err(|e| WireError::Io(e.to_string()))
    }

    /// Reads one frame from `r`. Returns `Ok(None)` on a clean EOF at a
    /// frame boundary; EOF inside a frame is [`WireError::Truncated`].
    ///
    /// # Errors
    ///
    /// [`WireError`] for structural violations or reader failures.
    pub fn read_from(r: &mut dyn Read) -> Result<Option<Self>, WireError> {
        let mut header = [0u8; WIRE_HEADER_LEN];
        let mut filled = 0usize;
        while filled < header.len() {
            match r.read(&mut header[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => return Err(WireError::Truncated),
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Io(e.to_string())),
            }
        }
        let (byte, declared_len, checksum) = decode_header(&header)?;
        let mut payload = vec![0u8; declared_len];
        r.read_exact(&mut payload).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                WireError::Truncated
            } else {
                WireError::Io(e.to_string())
            }
        })?;
        Ok(Some(Self::from_parts(byte, checksum, &payload)?))
    }
}

/// Validates a frame header, returning `(kind, payload_len, checksum)`.
fn decode_header(header: &[u8]) -> Result<(u8, usize, u64), WireError> {
    debug_assert_eq!(header.len(), WIRE_HEADER_LEN);
    if header[0..8] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes([header[8], header[9]]);
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { version });
    }
    let kind = header[10];
    if !kind::ALL.contains(&kind) {
        return Err(WireError::BadKind { kind });
    }
    if header[11..16] != [0u8; 5] {
        return Err(WireError::BadReserved);
    }
    let mut len8 = [0u8; 8];
    len8.copy_from_slice(&header[16..24]);
    let declared = u64::from_le_bytes(len8);
    let declared_len = usize::try_from(declared)
        .ok()
        .filter(|&n| n <= MAX_PAYLOAD_LEN)
        .ok_or(WireError::OversizedPayload { declared })?;
    let mut sum8 = [0u8; 8];
    sum8.copy_from_slice(&header[24..32]);
    Ok((kind, declared_len, u64::from_le_bytes(sum8)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(seq: u64, tenant: &str) -> Frame {
        Frame::Request(Request {
            seq,
            tenant: tenant.into(),
            time: 103.25,
            spec: QosSpec::new(120.5, 0.92),
        })
    }

    fn response(status: ServeStatus, fault: Option<FaultKind>) -> Frame {
        Frame::Response(Response {
            seq: 7,
            tenant: "cam0".into(),
            decision: DecisionRecord {
                event: 3,
                time: 103.25,
                spec: QosSpec::new(120.5, 0.92),
                feasible: 12,
                from: 2,
                to: 5,
                drc: 1.75,
                score: Some(0.875),
                p_rc: None,
                violated: fault.is_some(),
                status,
                fault,
            },
        })
    }

    fn swap_db(expected_generation: Option<u64>, path: &str) -> Frame {
        Frame::SwapDb(SwapDbRequest {
            seq: 21,
            tenant: "cam0".into(),
            expected_generation,
            path: path.into(),
        })
    }

    fn swap_response(status: SwapStatus) -> Frame {
        Frame::SwapDbResponse(SwapDbResponse {
            seq: 21,
            tenant: "cam0".into(),
            status,
            generation: 3,
        })
    }

    fn promote_response(status: PromoteStatus) -> Frame {
        Frame::PromoteResponse(PromoteResponse {
            seq: 31,
            tenant: "nav".into(),
            status,
            promotions: 2,
        })
    }

    /// One frame per kind, plus every option, flag and status code.
    fn samples() -> Vec<Frame> {
        let mut frames = vec![
            request(7, "cam0"),
            Frame::Error(ErrorFrame {
                seq: 9,
                message: "unknown tenant \"ghost\"".into(),
            }),
            Frame::Shutdown,
            Frame::Stats(StatsRequest::fleet(11, true)),
            Frame::Stats(StatsRequest {
                seq: 12,
                version: STATS_VERSION,
                flight: false,
                tenant: Some("cam0".into()),
            }),
            // A future stats version decodes at the frame layer; the
            // daemon is the one that objects.
            Frame::Stats(StatsRequest {
                seq: 13,
                version: 9,
                flight: false,
                tenant: None,
            }),
            Frame::StatsResponse(StatsResponse {
                seq: 11,
                snapshot: "{\"schema\":2,\"tenants\":[]}".into(),
            }),
            swap_db(Some(3), "out/fleet.snap"),
            swap_db(None, "/tmp/gen 4 (with spaces) é.snap"),
            Frame::Promote(PromoteRequest {
                seq: 31,
                tenant: "cam0".into(),
            }),
        ];
        for status in [
            ServeStatus::Normal,
            ServeStatus::DegradedLkg,
            ServeStatus::DegradedBaseline,
            ServeStatus::DegradedHold,
            ServeStatus::Quarantined,
        ] {
            for fault in std::iter::once(None).chain(FaultKind::ALL.map(Some)) {
                frames.push(response(status, fault));
            }
        }
        for status in [
            SwapStatus::Swapped,
            SwapStatus::VerifyFailed,
            SwapStatus::UnknownTenant,
            SwapStatus::IoError,
        ] {
            frames.push(swap_response(status));
        }
        for status in [
            PromoteStatus::Promoted,
            PromoteStatus::NoLearner,
            PromoteStatus::UnknownTenant,
        ] {
            frames.push(promote_response(status));
        }
        frames
    }

    type Patch = fn(&mut Vec<u8>);

    /// Re-encodes `frame` with its payload edited by `patch`, refreshing
    /// the header's length and checksum so only the payload checks can
    /// object.
    fn patched(frame: &Frame, patch: Patch) -> Result<(Frame, usize), WireError> {
        let good = frame.to_bytes();
        let mut payload = good[WIRE_HEADER_LEN..].to_vec();
        patch(&mut payload);
        let mut bytes = good[..WIRE_HEADER_LEN].to_vec();
        bytes[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes[24..32].copy_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        Frame::from_bytes(&bytes)
    }

    #[test]
    fn every_frame_round_trips_and_refuses_a_flipped_payload() {
        for frame in samples() {
            let bytes = frame.to_bytes();
            let (decoded, consumed) = Frame::from_bytes(&bytes).unwrap();
            assert_eq!(consumed, bytes.len());
            assert_eq!(decoded, frame);
            // Streaming decode agrees with buffer decode.
            let mut cursor = std::io::Cursor::new(bytes.clone());
            assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(frame.clone()));
            assert_eq!(Frame::read_from(&mut cursor).unwrap(), None);
            if bytes.len() > WIRE_HEADER_LEN {
                let mut flipped = bytes;
                let last = flipped.len() - 1;
                flipped[last] ^= 0x01;
                assert!(
                    matches!(
                        Frame::from_bytes(&flipped),
                        Err(WireError::ChecksumMismatch { .. })
                    ),
                    "{frame:?}"
                );
            }
        }
    }

    #[test]
    fn the_header_accepts_exactly_the_kinds_frames_produce() {
        let produced: Vec<u8> = samples().iter().map(Frame::kind).collect();
        for k in kind::ALL {
            assert!(produced.contains(&k), "no frame produces kind {k}");
        }
        let next = kind::ALL.end() + 1;
        let mut bytes = Frame::Shutdown.to_bytes();
        bytes[10] = next;
        assert_eq!(
            Frame::from_bytes(&bytes).unwrap_err(),
            WireError::BadKind { kind: next }
        );
    }

    #[test]
    fn non_finite_floats_round_trip_bitwise() {
        for time in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let frame = Frame::Request(Request {
                seq: 1,
                tenant: "t".into(),
                time,
                spec: QosSpec::new(1.0, 0.5),
            });
            let (decoded, _) = Frame::from_bytes(&frame.to_bytes()).unwrap();
            let Frame::Request(r) = decoded else {
                panic!("kind changed in flight")
            };
            assert_eq!(r.time.to_bits(), time.to_bits());
        }
    }

    #[test]
    fn oversized_text_is_cut_at_a_character_boundary() {
        let message = "é".repeat(MAX_PAYLOAD_LEN);
        let bytes = Frame::Error(ErrorFrame { seq: 1, message }).to_bytes();
        assert!(bytes.len() <= WIRE_HEADER_LEN + MAX_PAYLOAD_LEN);
        let (Frame::Error(e), _) = Frame::from_bytes(&bytes).unwrap() else {
            panic!("kind changed in flight")
        };
        // 8 seq + 2 length bytes leave 65,526 for text: 32,763 "é"s.
        assert_eq!(e.message, "é".repeat((MAX_PAYLOAD_LEN - 10) / 2));
    }

    #[test]
    fn corrupted_header_fields_are_rejected() {
        let good = request(7, "cam0").to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            Frame::from_bytes(&bad_magic).unwrap_err(),
            WireError::BadMagic
        );

        let mut bad_version = good.clone();
        bad_version[8] = 99;
        assert!(matches!(
            Frame::from_bytes(&bad_version),
            Err(WireError::UnsupportedVersion { version: 99 })
        ));

        let mut bad_kind = good.clone();
        bad_kind[10] = 42;
        assert!(matches!(
            Frame::from_bytes(&bad_kind),
            Err(WireError::BadKind { kind: 42 })
        ));

        let mut bad_reserved = good.clone();
        bad_reserved[12] = 1;
        assert_eq!(
            Frame::from_bytes(&bad_reserved).unwrap_err(),
            WireError::BadReserved
        );

        let mut oversized = good.clone();
        oversized[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Frame::from_bytes(&oversized),
            Err(WireError::OversizedPayload { .. })
        ));

        assert_eq!(
            Frame::from_bytes(&good[..WIRE_HEADER_LEN - 1]).unwrap_err(),
            WireError::Truncated
        );
        assert_eq!(
            Frame::from_bytes(&good[..good.len() - 1]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn patched_payloads_are_malformed() {
        let fleet_stats = Frame::Stats(StatsRequest::fleet(3, false));
        let stats_response = Frame::StatsResponse(StatsResponse {
            seq: 2,
            snapshot: "{\"schema\":2}".into(),
        });
        let cases: [(Frame, Patch); 8] = [
            // Trailing garbage after a complete request.
            (request(1, "ok"), |p| p.push(0xAB)),
            // A name outside [A-Za-z0-9_-].
            (request(1, "ok"), |p| *p.last_mut().unwrap() = b' '),
            // The declared snapshot length now lies.
            (stats_response, |p| p.truncate(p.len() - 3)),
            // The flight byte follows seq u64 + version u16.
            (fleet_stats, |p| p[10] = 7),
            // An empty snapshot path: drop the byte, declare length 0.
            (swap_db(None, "x"), |p| {
                p.pop();
                let at = p.len() - 2;
                p[at..].copy_from_slice(&0u16.to_le_bytes());
            }),
            // A bad expected-generation presence byte (after seq u64 +
            // the name "cam0" behind its u16 length).
            (swap_db(Some(1), "x"), |p| p[14] = 2),
            // Unknown status codes: the byte before the trailing u64.
            (swap_response(SwapStatus::Swapped), |p| {
                let at = p.len() - 9;
                p[at] = 9;
            }),
            (promote_response(PromoteStatus::Promoted), |p| {
                let at = p.len() - 9;
                p[at] = 9;
            }),
        ];
        for (frame, patch) in cases {
            assert!(
                matches!(patched(&frame, patch), Err(WireError::Malformed(_))),
                "{frame:?}"
            );
        }
    }
}
