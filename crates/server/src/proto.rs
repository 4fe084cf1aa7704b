//! The framed, dependency-free TCP ingest protocol.
//!
//! Every message is one length-prefixed frame:
//!
//! ```text
//! [len: u32 BE][tag: u8][body: len bytes]
//! ```
//!
//! `len` counts the body only (the tag byte is not included) and is
//! capped at [`MAX_BODY`] — a malformed or hostile length prefix fails
//! fast instead of allocating. The tag is checked before the body is
//! read, and a body's buffer grows as its bytes arrive. Control
//! messages carry JSON bodies; the hot [`ClientMsg::Frame`] path
//! carries a fixed binary header plus raw pixel bytes, with the
//! timestamp shipped as `f64` bits so the server-side frame is
//! bit-identical to the client's.
//!
//! Decoding maps 1:1 onto the typed session API: a [`ClientMsg`]
//! ingest message converts to exactly one [`SessionInput`] via
//! [`ClientMsg::into_input`], so the wire format and the in-process
//! API cannot drift.

use dievent_analysis::CameraObservation;
use dievent_core::{AnalysisDigest, CameraId, EventId, PipelineConfig, SessionInput};
use dievent_scene::Scenario;
use dievent_video::{GrayFrame, Timestamp};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};

/// Maximum body length the decoder accepts (32 MiB — enough for a
/// 4096×4096 8-bit frame with headroom).
pub const MAX_BODY: usize = 32 * 1024 * 1024;

/// Maximum frame width/height accepted on the wire.
pub const MAX_DIM: u32 = 8192;

/// Fixed binary header of a `Frame` body:
/// event u64 | camera u32 | seq u64 | timestamp-bits u64 | w u32 | h u32.
const FRAME_HEADER: usize = 8 + 4 + 8 + 8 + 4 + 4;

const TAG_OPEN: u8 = 1;
const TAG_FRAME: u8 = 2;
const TAG_POSE: u8 = 3;
const TAG_FINISH: u8 = 4;
const TAG_DRAIN: u8 = 5;

const TAG_OPENED: u8 = 0x81;
const TAG_REJECTED: u8 = 0x82;
const TAG_FINISHED: u8 = 0x83;
const TAG_DRAINED: u8 = 0x84;

/// Why a protocol read or decode failed.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket read/write failed.
    Io(io::Error),
    /// The bytes were well-framed but the content was invalid
    /// (unknown tag, oversized body, bad JSON, dimension mismatch).
    Malformed(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "protocol i/o error: {e}"),
            ProtoError::Malformed(msg) => write!(f, "malformed message: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Typed rejection reasons carried by [`ServerMsg::Rejected`] — the
/// admission-control and protocol edge cases a client can act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// `OpenEvent` refused: the per-process session quota is full.
    QuotaExhausted,
    /// `OpenEvent` refused: the server is draining toward shutdown.
    Draining,
    /// `OpenEvent` refused: that event id is already open.
    DuplicateEvent,
    /// `OpenEvent` refused: the pipeline config failed validation.
    InvalidConfig,
    /// Ingest/finish refused: no open session with that event id.
    UnknownEvent,
    /// Ingest refused: per-camera sequence number is not the next
    /// expected one (a gap or duplicate on the client side).
    BadSeq,
    /// Connection refused: the per-process connection cap is reached.
    ServerBusy,
    /// The message could not be decoded, or its frame's size is not
    /// the event's.
    Malformed,
    /// The session rejected the input (closed, worker died, ...).
    Internal,
}

impl RejectCode {
    /// Stable wire string for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectCode::QuotaExhausted => "quota_exhausted",
            RejectCode::Draining => "draining",
            RejectCode::DuplicateEvent => "duplicate_event",
            RejectCode::InvalidConfig => "invalid_config",
            RejectCode::UnknownEvent => "unknown_event",
            RejectCode::BadSeq => "bad_seq",
            RejectCode::ServerBusy => "server_busy",
            RejectCode::Malformed => "malformed",
            RejectCode::Internal => "internal",
        }
    }

    /// Parses a wire string back into the code.
    pub fn parse(s: &str) -> Option<RejectCode> {
        Some(match s {
            "quota_exhausted" => RejectCode::QuotaExhausted,
            "draining" => RejectCode::Draining,
            "duplicate_event" => RejectCode::DuplicateEvent,
            "invalid_config" => RejectCode::InvalidConfig,
            "unknown_event" => RejectCode::UnknownEvent,
            "bad_seq" => RejectCode::BadSeq,
            "server_busy" => RejectCode::ServerBusy,
            "malformed" => RejectCode::Malformed,
            "internal" => RejectCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for RejectCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which request a [`ServerMsg::Rejected`] answers. Ingest messages
/// are normally unacknowledged, so without this a client could not
/// tell a late ingest refusal from the refusal of the control message
/// it is currently waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectOp {
    /// Refusing an `OpenEvent`.
    Open,
    /// Refusing a `Frame` or `PoseObs`.
    Ingest,
    /// Refusing a `FinishEvent`.
    Finish,
    /// Refusing the connection itself (over the connection cap).
    Connection,
}

impl RejectOp {
    /// Stable wire string for this op.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectOp::Open => "open",
            RejectOp::Ingest => "ingest",
            RejectOp::Finish => "finish",
            RejectOp::Connection => "connection",
        }
    }

    /// Parses a wire string back into the op.
    pub fn parse(s: &str) -> Option<RejectOp> {
        Some(match s {
            "open" => RejectOp::Open,
            "ingest" => RejectOp::Ingest,
            "finish" => RejectOp::Finish,
            "connection" => RejectOp::Connection,
            _ => return None,
        })
    }
}

impl fmt::Display for RejectOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A client → server message.
///
/// `OpenEvent` inlines its scenario + config rather than boxing them:
/// every variant is decoded once and consumed immediately, never
/// stored in bulk, so the size skew has no resident cost.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum ClientMsg {
    /// Open a session for `event` over `scenario`'s rig. The server
    /// answers `Opened` or `Rejected`.
    OpenEvent {
        /// Tenant/event id (must be unused among open sessions).
        event: EventId,
        /// The rig + participants the session analyzes.
        scenario: Scenario,
        /// Requested pipeline configuration. The server overrides the
        /// streaming quota knobs and observability per its own policy.
        config: PipelineConfig,
    },
    /// One camera frame. Not acknowledged unless rejected.
    Frame {
        /// Target event.
        event: EventId,
        /// Source camera.
        camera: CameraId,
        /// Per-camera sequence number, starting at 0, no gaps.
        seq: u64,
        /// The frame itself; the timestamp travels as `f64` bits.
        frame: GrayFrame,
    },
    /// Pre-extracted pose observations for one frame of one camera.
    PoseObs {
        /// Target event.
        event: EventId,
        /// Source camera.
        camera: CameraId,
        /// Per-camera sequence number (shared with `Frame` ordering).
        seq: u64,
        /// The observations an external tracker already extracted.
        observations: Vec<CameraObservation>,
    },
    /// Finish `event`: run the remaining stages and answer `Finished`.
    FinishEvent {
        /// Target event.
        event: EventId,
    },
    /// Finish every open session; the server answers one `Finished`
    /// per drained session, then `Drained`. New `OpenEvent`s are
    /// rejected from now on.
    Drain,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// The session is open and accepting input.
    Opened {
        /// The event that opened.
        event: EventId,
    },
    /// A request was refused; the connection stays usable (except
    /// for [`RejectOp::Connection`], after which the server closes).
    Rejected {
        /// The event the refused request targeted, when attributable.
        event: Option<EventId>,
        /// Which request this refusal answers.
        op: RejectOp,
        /// Typed reason.
        code: RejectCode,
        /// Human-readable detail.
        message: String,
    },
    /// A session completed; carries the analysis digest plus the
    /// conservation ledger (`processed + dropped == pushed` for
    /// frame-only workloads).
    Finished {
        /// The event that finished.
        event: EventId,
        /// Digest of the final `EventAnalysis`.
        digest: AnalysisDigest,
        /// Inputs the server accepted for this tenant.
        pushed: u64,
        /// Frames the extraction stage consumed.
        processed: u64,
        /// Inputs shed by the tenant's `DropOldest` policy.
        dropped: u64,
    },
    /// Drain finished.
    Drained {
        /// Sessions finished by this drain.
        finished: u64,
    },
}

#[derive(Serialize, Deserialize)]
struct OpenBody {
    event: EventId,
    scenario: Scenario,
    config: PipelineConfig,
}

#[derive(Serialize, Deserialize)]
struct PoseBody {
    event: EventId,
    camera: CameraId,
    seq: u64,
    observations: Vec<CameraObservation>,
}

#[derive(Serialize, Deserialize)]
struct FinishBody {
    event: EventId,
}

#[derive(Serialize, Deserialize)]
struct OpenedBody {
    event: EventId,
}

#[derive(Serialize, Deserialize)]
struct RejectedBody {
    event: Option<EventId>,
    op: String,
    code: String,
    message: String,
}

#[derive(Serialize, Deserialize)]
struct FinishedBody {
    event: EventId,
    digest: AnalysisDigest,
    pushed: u64,
    processed: u64,
    dropped: u64,
}

#[derive(Serialize, Deserialize)]
struct DrainedBody {
    finished: u64,
}

impl ClientMsg {
    /// Converts an ingest message into its target and the exact
    /// [`SessionInput`] the typed session API takes — `None` for
    /// control messages. This is the single point where the wire
    /// format meets the in-process API.
    pub fn into_input(self) -> Option<(EventId, CameraId, u64, SessionInput)> {
        match self {
            ClientMsg::Frame {
                event,
                camera,
                seq,
                frame,
            } => Some((event, camera, seq, SessionInput::Frame(frame))),
            ClientMsg::PoseObs {
                event,
                camera,
                seq,
                observations,
            } => Some((
                event,
                camera,
                seq,
                SessionInput::PoseObservations(observations),
            )),
            _ => None,
        }
    }

    /// Writes this message as one frame.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        match self {
            ClientMsg::OpenEvent {
                event,
                scenario,
                config,
            } => {
                let body = encode_json(&OpenBody {
                    event: *event,
                    scenario: scenario.clone(),
                    config: *config,
                });
                write_frame(w, TAG_OPEN, &body)
            }
            ClientMsg::Frame {
                event,
                camera,
                seq,
                frame,
            } => {
                let pixels = frame.data();
                let mut body = Vec::with_capacity(FRAME_HEADER + pixels.len());
                body.extend_from_slice(&event.raw().to_be_bytes());
                body.extend_from_slice(&(camera.index() as u32).to_be_bytes());
                body.extend_from_slice(&seq.to_be_bytes());
                body.extend_from_slice(&frame.timestamp.0.to_bits().to_be_bytes());
                body.extend_from_slice(&frame.width().to_be_bytes());
                body.extend_from_slice(&frame.height().to_be_bytes());
                body.extend_from_slice(pixels);
                write_frame(w, TAG_FRAME, &body)
            }
            ClientMsg::PoseObs {
                event,
                camera,
                seq,
                observations,
            } => {
                let body = encode_json(&PoseBody {
                    event: *event,
                    camera: *camera,
                    seq: *seq,
                    observations: observations.clone(),
                });
                write_frame(w, TAG_POSE, &body)
            }
            ClientMsg::FinishEvent { event } => {
                let body = encode_json(&FinishBody { event: *event });
                write_frame(w, TAG_FINISH, &body)
            }
            ClientMsg::Drain => write_frame(w, TAG_DRAIN, &[]),
        }
    }

    /// Reads one client message. `Ok(None)` on clean end-of-stream
    /// (the peer closed between frames); `should_stop` lets a server
    /// with a read timeout abandon an idle wait.
    ///
    /// An unknown tag, or a `Frame` whose dimensions disagree with its
    /// length prefix, is refused before the body is read; after any
    /// `Malformed` the stream is out of step and must be closed.
    pub fn read_from(
        r: &mut impl Read,
        should_stop: &dyn Fn() -> bool,
    ) -> Result<Option<ClientMsg>, ProtoError> {
        let Some((tag, len)) = read_header(r, should_stop)? else {
            return Ok(None);
        };
        let msg = match tag {
            TAG_OPEN => {
                let open: OpenBody = read_json(r, len, should_stop)?;
                ClientMsg::OpenEvent {
                    event: open.event,
                    scenario: open.scenario,
                    config: open.config,
                }
            }
            TAG_FRAME => read_frame_body(r, len, should_stop)?,
            TAG_POSE => {
                let pose: PoseBody = read_json(r, len, should_stop)?;
                ClientMsg::PoseObs {
                    event: pose.event,
                    camera: pose.camera,
                    seq: pose.seq,
                    observations: pose.observations,
                }
            }
            TAG_FINISH => {
                let finish: FinishBody = read_json(r, len, should_stop)?;
                ClientMsg::FinishEvent {
                    event: finish.event,
                }
            }
            TAG_DRAIN => {
                read_body(r, len, should_stop)?;
                ClientMsg::Drain
            }
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unknown client message tag {other:#04x}"
                )))
            }
        };
        Ok(Some(msg))
    }
}

impl ServerMsg {
    /// Writes this message as one frame.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        match self {
            ServerMsg::Opened { event } => {
                let body = encode_json(&OpenedBody { event: *event });
                write_frame(w, TAG_OPENED, &body)
            }
            ServerMsg::Rejected {
                event,
                op,
                code,
                message,
            } => {
                let body = encode_json(&RejectedBody {
                    event: *event,
                    op: op.as_str().to_owned(),
                    code: code.as_str().to_owned(),
                    message: message.clone(),
                });
                write_frame(w, TAG_REJECTED, &body)
            }
            ServerMsg::Finished {
                event,
                digest,
                pushed,
                processed,
                dropped,
            } => {
                let body = encode_json(&FinishedBody {
                    event: *event,
                    digest: digest.clone(),
                    pushed: *pushed,
                    processed: *processed,
                    dropped: *dropped,
                });
                write_frame(w, TAG_FINISHED, &body)
            }
            ServerMsg::Drained { finished } => {
                let body = encode_json(&DrainedBody {
                    finished: *finished,
                });
                write_frame(w, TAG_DRAINED, &body)
            }
        }
    }

    /// Reads one server message; `Ok(None)` on clean end-of-stream.
    /// An unknown tag is refused before its body is read.
    pub fn read_from(
        r: &mut impl Read,
        should_stop: &dyn Fn() -> bool,
    ) -> Result<Option<ServerMsg>, ProtoError> {
        let Some((tag, len)) = read_header(r, should_stop)? else {
            return Ok(None);
        };
        let msg = match tag {
            TAG_OPENED => {
                let opened: OpenedBody = read_json(r, len, should_stop)?;
                ServerMsg::Opened {
                    event: opened.event,
                }
            }
            TAG_REJECTED => {
                let rejected: RejectedBody = read_json(r, len, should_stop)?;
                let code = RejectCode::parse(&rejected.code).ok_or_else(|| {
                    ProtoError::Malformed(format!("unknown reject code {:?}", rejected.code))
                })?;
                let op = RejectOp::parse(&rejected.op).ok_or_else(|| {
                    ProtoError::Malformed(format!("unknown reject op {:?}", rejected.op))
                })?;
                ServerMsg::Rejected {
                    event: rejected.event,
                    op,
                    code,
                    message: rejected.message,
                }
            }
            TAG_FINISHED => {
                let fin: FinishedBody = read_json(r, len, should_stop)?;
                ServerMsg::Finished {
                    event: fin.event,
                    digest: fin.digest,
                    pushed: fin.pushed,
                    processed: fin.processed,
                    dropped: fin.dropped,
                }
            }
            TAG_DRAINED => {
                let drained: DrainedBody = read_json(r, len, should_stop)?;
                ServerMsg::Drained {
                    finished: drained.finished,
                }
            }
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unknown server message tag {other:#04x}"
                )))
            }
        };
        Ok(Some(msg))
    }
}

/// JSON-encodes a control-message body. The vendored serializer is
/// total (every `Value` renders), so the `Result` unwraps to empty
/// only if that ever changes — and an empty body then fails loudly at
/// the decoder, not silently mid-protocol.
fn encode_json<T: Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_vec(value).unwrap_or_default()
}

/// Reads a `len`-byte JSON body and decodes it.
fn read_json<T: Deserialize>(
    r: &mut impl Read,
    len: usize,
    should_stop: &dyn Fn() -> bool,
) -> Result<T, ProtoError> {
    let body = read_body(r, len, should_stop)?;
    serde_json::from_slice(&body).map_err(|e| ProtoError::Malformed(format!("bad JSON body: {e}")))
}

/// Reads a `len`-byte `Frame` body. The fixed header comes first; the
/// dimensions are checked against the length prefix *before* any pixel
/// is read (`GrayFrame::from_data` treats a pixel count mismatch as a
/// programmer error, so the wire layer must never let one through).
/// The pixels are then read straight into the frame's buffer.
fn read_frame_body(
    r: &mut impl Read,
    len: usize,
    should_stop: &dyn Fn() -> bool,
) -> Result<ClientMsg, ProtoError> {
    if len < FRAME_HEADER {
        return Err(ProtoError::Malformed(format!(
            "frame body is {len} bytes, header alone needs {FRAME_HEADER}"
        )));
    }
    let mut head = [0u8; FRAME_HEADER];
    if let ReadOutcome::Eof = read_full(r, &mut head, should_stop, false)? {
        return Err(mid_message_eof());
    }
    let event = EventId::new(u64::from_be_bytes(sub8(&head, 0)));
    let camera = CameraId::new(u32::from_be_bytes(sub4(&head, 8)) as usize);
    let seq = u64::from_be_bytes(sub8(&head, 12));
    let ts = f64::from_bits(u64::from_be_bytes(sub8(&head, 20)));
    let width = u32::from_be_bytes(sub4(&head, 28));
    let height = u32::from_be_bytes(sub4(&head, 32));
    if width > MAX_DIM || height > MAX_DIM {
        return Err(ProtoError::Malformed(format!(
            "frame dimensions {width}x{height} exceed the {MAX_DIM} cap"
        )));
    }
    let expected = (width as usize) * (height as usize);
    if len - FRAME_HEADER != expected {
        return Err(ProtoError::Malformed(format!(
            "frame claims {width}x{height} = {expected} pixels but its length prefix leaves {}",
            len - FRAME_HEADER
        )));
    }
    let pixels = read_body(r, expected, should_stop)?;
    let frame = GrayFrame::from_data(width, height, pixels).with_timestamp(Timestamp(ts));
    Ok(ClientMsg::Frame {
        event,
        camera,
        seq,
        frame,
    })
}

/// `body[at..at + 8]` as an array. Callers pass the `FRAME_HEADER`-byte
/// header.
fn sub8(body: &[u8], at: usize) -> [u8; 8] {
    let mut out = [0u8; 8];
    out.copy_from_slice(&body[at..at + 8]);
    out
}

fn sub4(body: &[u8], at: usize) -> [u8; 4] {
    let mut out = [0u8; 4];
    out.copy_from_slice(&body[at..at + 4]);
    out
}

/// Writes one `[len][tag][body]` frame.
fn write_frame(w: &mut impl Write, tag: u8, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("message body {} exceeds the {MAX_BODY} cap", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_be_bytes())?;
    w.write_all(&[tag])?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one `[len][tag]` header and checks the length against
/// [`MAX_BODY`]. `Ok(None)` when the stream ends cleanly *between*
/// frames (or `should_stop` fires while waiting there); EOF mid-frame
/// is an error.
fn read_header(
    r: &mut impl Read,
    should_stop: &dyn Fn() -> bool,
) -> Result<Option<(u8, usize)>, ProtoError> {
    let mut head = [0u8; 5];
    match read_full(r, &mut head, should_stop, true)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Full => {}
    }
    let len = u32::from_be_bytes([head[0], head[1], head[2], head[3]]) as usize;
    if len > MAX_BODY {
        return Err(ProtoError::Malformed(format!(
            "length prefix {len} exceeds the {MAX_BODY} cap"
        )));
    }
    Ok(Some((head[4], len)))
}

/// The most a body buffer grows ahead of the bytes received. A 640×480
/// frame arrives in one step; a stalled peer holds at most this much.
const READ_STEP: usize = 1 << 20;

/// Reads a `len`-byte body into a buffer that grows as bytes arrive,
/// [`READ_STEP`] at a time, rather than one sized from the length
/// prefix up front.
fn read_body(
    r: &mut impl Read,
    len: usize,
    should_stop: &dyn Fn() -> bool,
) -> Result<Vec<u8>, ProtoError> {
    let mut body = Vec::new();
    while body.len() < len {
        let filled = body.len();
        body.resize(filled + (len - filled).min(READ_STEP), 0);
        if let ReadOutcome::Eof = read_full(r, &mut body[filled..], should_stop, false)? {
            return Err(mid_message_eof());
        }
    }
    Ok(body)
}

fn mid_message_eof() -> ProtoError {
    ProtoError::Io(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "stream ended mid-message",
    ))
}

enum ReadOutcome {
    Full,
    Eof,
}

/// Fills `buf`, tolerating read timeouts (`WouldBlock`/`TimedOut`):
/// a timeout with *nothing read yet* re-polls `should_stop` — that is
/// how a server connection thread notices shutdown while idle — while
/// a timeout mid-buffer just keeps reading. `eof_ok` maps EOF at
/// offset 0 to a clean end-of-stream.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    should_stop: &dyn Fn() -> bool,
    eof_ok: bool,
) -> Result<ReadOutcome, ProtoError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && eof_ok {
                    return Ok(ReadOutcome::Eof);
                }
                return Err(mid_message_eof());
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if filled == 0 && should_stop() {
                    return Ok(ReadOutcome::Eof);
                }
            }
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEVER: &dyn Fn() -> bool = &|| false;

    #[test]
    fn frame_round_trips_bit_exact() {
        let frame =
            GrayFrame::from_data(3, 2, vec![1, 2, 3, 4, 5, 6]).with_timestamp(Timestamp(0.1 + 0.2)); // deliberately non-representable
        let msg = ClientMsg::Frame {
            event: EventId::new(42),
            camera: CameraId::new(1),
            seq: 7,
            frame: frame.clone(),
        };
        let mut wire = Vec::new();
        msg.write_to(&mut wire).unwrap();
        let decoded = ClientMsg::read_from(&mut wire.as_slice(), NEVER)
            .unwrap()
            .unwrap();
        match &decoded {
            ClientMsg::Frame { frame: got, .. } => {
                assert_eq!(got.timestamp.0.to_bits(), frame.timestamp.0.to_bits());
            }
            other => panic!("decoded {other:?}"),
        }
        assert_eq!(decoded, msg);
        let (event, camera, seq, input) = decoded.into_input().unwrap();
        assert_eq!((event.raw(), camera.index(), seq), (42, 1, 7));
        assert_eq!(input, SessionInput::Frame(frame));
    }

    #[test]
    fn control_messages_round_trip() {
        let open = ClientMsg::OpenEvent {
            event: EventId::new(3),
            scenario: Scenario::two_camera_dinner(5, 1),
            config: PipelineConfig::default(),
        };
        let pose = ClientMsg::PoseObs {
            event: EventId::new(3),
            camera: CameraId::new(0),
            seq: 0,
            observations: vec![],
        };
        let finish = ClientMsg::FinishEvent {
            event: EventId::new(3),
        };
        for msg in [open, pose, finish, ClientMsg::Drain] {
            let mut wire = Vec::new();
            msg.write_to(&mut wire).unwrap();
            let decoded = ClientMsg::read_from(&mut wire.as_slice(), NEVER)
                .unwrap()
                .unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn server_messages_round_trip() {
        let rejected = ServerMsg::Rejected {
            event: Some(EventId::new(9)),
            op: RejectOp::Open,
            code: RejectCode::QuotaExhausted,
            message: "5 of 5 sessions open".into(),
        };
        let drained = ServerMsg::Drained { finished: 4 };
        let opened = ServerMsg::Opened {
            event: EventId::new(9),
        };
        for msg in [rejected, drained, opened] {
            let mut wire = Vec::new();
            msg.write_to(&mut wire).unwrap();
            let decoded = ServerMsg::read_from(&mut wire.as_slice(), NEVER)
                .unwrap()
                .unwrap();
            assert_eq!(decoded, msg);
        }
    }

    /// A reader that fails the test if anything reads from it.
    struct Tripwire;

    impl Read for Tripwire {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            panic!("the decoder read a body it should have refused");
        }
    }

    /// A reader that hands out at most 7 bytes per call.
    struct Dribble<'a>(&'a [u8]);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.0.len()).min(7);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// A `Frame` body's fixed header claiming `width × height`.
    fn frame_header(width: u32, height: u32) -> Vec<u8> {
        let mut head = Vec::new();
        head.extend_from_slice(&1u64.to_be_bytes());
        head.extend_from_slice(&0u32.to_be_bytes());
        head.extend_from_slice(&0u64.to_be_bytes());
        head.extend_from_slice(&0u64.to_be_bytes());
        head.extend_from_slice(&width.to_be_bytes());
        head.extend_from_slice(&height.to_be_bytes());
        head
    }

    #[test]
    fn unknown_tag_is_refused_before_its_body_is_read() {
        for tag in [0u8, 0x7f, TAG_OPENED] {
            let mut head = (MAX_BODY as u32).to_be_bytes().to_vec();
            head.push(tag);
            let mut wire = head.as_slice().chain(Tripwire);
            assert!(matches!(
                ClientMsg::read_from(&mut wire, NEVER),
                Err(ProtoError::Malformed(_))
            ));
        }
        let mut head = (MAX_BODY as u32).to_be_bytes().to_vec();
        head.push(TAG_FRAME);
        let mut wire = head.as_slice().chain(Tripwire);
        assert!(matches!(
            ServerMsg::read_from(&mut wire, NEVER),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn frame_disagreeing_with_its_length_is_refused_before_its_pixels() {
        // (claimed width, claimed height, pixels the length prefix leaves)
        for (width, height, pixels) in [
            (4, 4, 15),
            (4, 4, 17),
            (640, 480, 1000),
            (1, 1, MAX_BODY - FRAME_HEADER),
            (MAX_DIM + 1, 1, MAX_DIM as usize + 1),
            (0, 5, 5),
        ] {
            let mut wire = ((FRAME_HEADER + pixels) as u32).to_be_bytes().to_vec();
            wire.push(TAG_FRAME);
            wire.extend_from_slice(&frame_header(width, height));
            let mut wire = wire.as_slice().chain(Tripwire);
            let got = ClientMsg::read_from(&mut wire, NEVER);
            assert!(
                matches!(got, Err(ProtoError::Malformed(_))),
                "{width}x{height} with {pixels} pixels: {got:?}"
            );
        }
        // Shorter than the fixed header: refused before reading it.
        let mut wire = ((FRAME_HEADER - 1) as u32).to_be_bytes().to_vec();
        wire.push(TAG_FRAME);
        let mut wire = wire.as_slice().chain(Tripwire);
        assert!(matches!(
            ClientMsg::read_from(&mut wire, NEVER),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn every_message_kind_round_trips() {
        let wide = GrayFrame::from_data(2048, 1024, (0..2048 * 1024).map(|i| i as u8).collect())
            .with_timestamp(Timestamp(1.0 / 3.0));
        let clients = [
            ClientMsg::OpenEvent {
                event: EventId::new(3),
                scenario: Scenario::two_camera_dinner(5, 1),
                config: PipelineConfig::default(),
            },
            ClientMsg::Frame {
                event: EventId::new(3),
                camera: CameraId::new(1),
                seq: 9,
                frame: GrayFrame::from_data(3, 2, vec![1, 2, 3, 4, 5, 6]),
            },
            // Larger than one read step: the buffer grows as bytes arrive.
            ClientMsg::Frame {
                event: EventId::new(3),
                camera: CameraId::new(0),
                seq: 10,
                frame: wide,
            },
            ClientMsg::Frame {
                event: EventId::new(3),
                camera: CameraId::new(0),
                seq: 11,
                frame: GrayFrame::from_data(0, 0, vec![]),
            },
            ClientMsg::PoseObs {
                event: EventId::new(3),
                camera: CameraId::new(0),
                seq: 0,
                observations: vec![],
            },
            ClientMsg::FinishEvent {
                event: EventId::new(3),
            },
            ClientMsg::Drain,
        ];
        let servers = [
            ServerMsg::Opened {
                event: EventId::new(9),
            },
            ServerMsg::Rejected {
                event: Some(EventId::new(9)),
                op: RejectOp::Open,
                code: RejectCode::QuotaExhausted,
                message: "5 of 5 sessions open".into(),
            },
            ServerMsg::Finished {
                event: EventId::new(9),
                digest: AnalysisDigest {
                    participants: 2,
                    fps: 25.0,
                    frames: 40,
                    summary: vec![vec![0, 3], vec![2, 0]],
                    received_looks: vec![2, 3],
                    dominant: Some(1),
                    attention_share: vec![0.4, 0.6],
                    mean_overall_happiness: 0.1 + 0.2,
                    eye_contact_episodes: 1,
                    highlights: 2,
                    precision: 0.9,
                    recall: 0.8,
                    f1: 0.85,
                    timings: Default::default(),
                },
                pushed: 80,
                processed: 79,
                dropped: 1,
            },
            ServerMsg::Drained { finished: 4 },
        ];
        let mut wire = Vec::new();
        for msg in &clients {
            msg.write_to(&mut wire).unwrap();
        }
        let mut reader = Dribble(&wire);
        for msg in &clients {
            assert_eq!(
                ClientMsg::read_from(&mut reader, NEVER).unwrap().as_ref(),
                Some(msg)
            );
        }
        assert!(ClientMsg::read_from(&mut reader, NEVER).unwrap().is_none());
        let mut wire = Vec::new();
        for msg in &servers {
            msg.write_to(&mut wire).unwrap();
        }
        let mut reader = Dribble(&wire);
        for msg in &servers {
            assert_eq!(
                ServerMsg::read_from(&mut reader, NEVER).unwrap().as_ref(),
                Some(msg)
            );
        }
        assert!(ServerMsg::read_from(&mut reader, NEVER).unwrap().is_none());
    }

    #[test]
    fn malformed_frames_are_rejected_not_panicked() {
        // Pixel-count mismatch: claims 4x4 but ships 3 bytes.
        let mut body = Vec::new();
        body.extend_from_slice(&1u64.to_be_bytes());
        body.extend_from_slice(&0u32.to_be_bytes());
        body.extend_from_slice(&0u64.to_be_bytes());
        body.extend_from_slice(&0u64.to_be_bytes());
        body.extend_from_slice(&4u32.to_be_bytes());
        body.extend_from_slice(&4u32.to_be_bytes());
        body.extend_from_slice(&[1, 2, 3]);
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_be_bytes());
        wire.push(TAG_FRAME);
        wire.extend_from_slice(&body);
        assert!(matches!(
            ClientMsg::read_from(&mut wire.as_slice(), NEVER),
            Err(ProtoError::Malformed(_))
        ));

        // Oversized length prefix: refused before allocation.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_be_bytes());
        wire.push(TAG_FRAME);
        assert!(matches!(
            ClientMsg::read_from(&mut wire.as_slice(), NEVER),
            Err(ProtoError::Malformed(_))
        ));

        // Unknown tag.
        let mut wire = Vec::new();
        wire.extend_from_slice(&0u32.to_be_bytes());
        wire.push(0x7f);
        assert!(matches!(
            ClientMsg::read_from(&mut wire.as_slice(), NEVER),
            Err(ProtoError::Malformed(_))
        ));

        // EOF mid-message.
        let msg = ClientMsg::FinishEvent {
            event: EventId::new(1),
        };
        let mut wire = Vec::new();
        msg.write_to(&mut wire).unwrap();
        wire.truncate(wire.len() - 2);
        assert!(matches!(
            ClientMsg::read_from(&mut wire.as_slice(), NEVER),
            Err(ProtoError::Io(_))
        ));

        // Clean EOF between frames is not an error.
        assert!(matches!(
            ClientMsg::read_from(&mut [].as_slice(), NEVER),
            Ok(None)
        ));
    }
}
