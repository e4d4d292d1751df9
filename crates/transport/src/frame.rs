//! Length-prefixed wire frames for BYZ envelopes and round marks.
//!
//! The TCP backend needs a codec; to keep the container dependency-free it
//! is hand-rolled: every frame is a little-endian `u32` byte length
//! followed by that many payload bytes. The payload is a tagged binary
//! encoding of [`Frame`]:
//!
//! ```text
//! frame    := tag:u8 body
//! envelope := 0x01 src:u32 value path          (a BYZ protocol message)
//! mark     := 0x02 src:u32 round:u32           (round-barrier control)
//! traced   := 0x03 src:u32 value path trace    (envelope + causal context)
//! value    := 0x00 | 0x01 v:u64                (V_d | Value(v))
//! path     := len:u32 id:u32 ...               (relay path, sender first)
//! trace    := instance:u64 hop:u32 len:u32 id:u64 ...
//! ```
//!
//! Wire payloads are `u64` ([`Val`]); the experiments never need more, and
//! fixing the value type keeps the codec closed (no serde data format in
//! the tree). Decoding is total: every error is a [`FrameError`], never a
//! panic, because bytes off a socket are adversary-controlled in this
//! codebase's threat model. The same frames travel over in-process
//! channels un-encoded — the codec round-trip is exercised only by the TCP
//! backend and the codec tests.
//!
//! Trace context is observability metadata, not protocol state, so its
//! failure domain is deliberately smaller: a `0x03` frame whose envelope
//! part decodes but whose trace section is truncated or malformed degrades
//! to an **untraced** delivery (`trace: None`) instead of poisoning the
//! connection. Corruption in the envelope part itself stays fatal, exactly
//! as for `0x01`.

use degradable::{AgreementValue, ByzMsg, Path, Val};
use obs::TraceCtx;
use simnet::NodeId;
use std::io::{self, Read, Write};

/// Hard cap on a frame's payload size (1 MiB). A length prefix beyond this
/// is treated as a corrupt stream rather than an allocation request.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

const TAG_ENVELOPE: u8 = 0x01;
const TAG_MARK: u8 = 0x02;
const TAG_TRACED: u8 = 0x03;
const VAL_DEFAULT: u8 = 0x00;
const VAL_VALUE: u8 = 0x01;

/// One unit of inter-node traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A BYZ protocol message from `src`.
    Envelope {
        /// The node that put the message on the wire.
        src: NodeId,
        /// The relay-path-tagged claim.
        msg: ByzMsg<u64>,
        /// Causal trace context stamped by the sender, when tracing is
        /// on. Untraced envelopes use wire tag `0x01`, traced ones
        /// `0x03`; a malformed trace section on the wire decodes as
        /// `None`, never as a frame error.
        trace: Option<TraceCtx>,
    },
    /// "`src` has finished sending for `round`" — the barrier control
    /// frame real transports use for message-absence detection.
    Mark {
        /// The node whose round is complete.
        src: NodeId,
        /// The completed round.
        round: usize,
    },
}

impl Frame {
    /// The node that emitted this frame.
    pub fn src(&self) -> NodeId {
        match *self {
            Frame::Envelope { src, .. } | Frame::Mark { src, .. } => src,
        }
    }
}

/// Why a byte stream failed to parse as a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// The stream ended inside a frame.
    Truncated,
    /// A tag, length, or id field held an impossible value.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io error: {e}"),
            FrameError::Truncated => write!(f, "frame truncated mid-stream"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encodes `frame` as a length-prefixed byte vector.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut body = Vec::with_capacity(32);
    match frame {
        Frame::Envelope { src, msg, trace } => {
            body.push(if trace.is_some() {
                TAG_TRACED
            } else {
                TAG_ENVELOPE
            });
            put_u32(&mut body, src.index() as u32);
            match msg.value {
                AgreementValue::Default => body.push(VAL_DEFAULT),
                AgreementValue::Value(v) => {
                    body.push(VAL_VALUE);
                    body.extend_from_slice(&v.to_le_bytes());
                }
            }
            let ids = msg.path.as_slice();
            put_u32(&mut body, ids.len() as u32);
            for id in ids {
                put_u32(&mut body, id.index() as u32);
            }
            if let Some(ctx) = trace {
                body.extend_from_slice(&ctx.instance.to_le_bytes());
                put_u32(&mut body, ctx.hop);
                put_u32(&mut body, ctx.path.len() as u32);
                for node in &ctx.path {
                    body.extend_from_slice(&node.to_le_bytes());
                }
            }
        }
        Frame::Mark { src, round } => {
            body.push(TAG_MARK);
            put_u32(&mut body, src.index() as u32);
            put_u32(&mut body, *round as u32);
        }
    }
    let mut out = Vec::with_capacity(4 + body.len());
    put_u32(&mut out, body.len() as u32);
    out.extend_from_slice(&body);
    out
}

/// Writes one encoded frame to `w` (a single `write_all`, so concurrent
/// writers on a shared stream never interleave partial frames).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), FrameError> {
    w.write_all(&encode(frame))?;
    Ok(())
}

/// Reads one frame from `r`. `Ok(None)` on clean EOF at a frame boundary;
/// [`FrameError::Truncated`] on EOF inside a frame.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, FrameError> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Partial => return Err(FrameError::Truncated),
        ReadOutcome::Full => {}
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Malformed("length prefix exceeds MAX_FRAME_LEN"));
    }
    let mut body = vec![0u8; len as usize];
    match read_exact_or_eof(r, &mut body)? {
        ReadOutcome::Full => {}
        _ => return Err(FrameError::Truncated),
    }
    decode(&body).map(Some)
}

/// Decodes one frame body (the bytes after the length prefix). The whole
/// body must be consumed — trailing bytes are malformed.
pub fn decode(body: &[u8]) -> Result<Frame, FrameError> {
    let mut cur = Cursor { buf: body, pos: 0 };
    let frame = match cur.u8()? {
        tag @ (TAG_ENVELOPE | TAG_TRACED) => {
            let src = NodeId::new(cur.u32()? as usize);
            let value: Val = match cur.u8()? {
                VAL_DEFAULT => AgreementValue::Default,
                VAL_VALUE => AgreementValue::Value(cur.u64()?),
                _ => return Err(FrameError::Malformed("unknown value tag")),
            };
            let path_len = cur.u32()? as usize;
            if path_len == 0 {
                return Err(FrameError::Malformed("empty relay path"));
            }
            // One pass over the ids; a forged length fails the bounds
            // check in `take` before anything is allocated.
            let ids = cur
                .take(path_len * 4)?
                .chunks_exact(4)
                .map(|b| NodeId::new(u32::from_le_bytes(b.try_into().unwrap()) as usize))
                .collect();
            let path =
                Path::from_ids(ids).ok_or(FrameError::Malformed("relay path repeats a node"))?;
            let trace = if tag == TAG_TRACED {
                // Observability metadata degrades instead of failing:
                // whatever is wrong with the trace section, the envelope
                // is still a valid protocol message, so consume the rest
                // of the body and deliver it untraced.
                let ctx = decode_trace_section(&mut cur);
                if ctx.is_none() {
                    cur.pos = body.len();
                }
                ctx
            } else {
                None
            };
            Frame::Envelope {
                src,
                msg: ByzMsg { path, value },
                trace,
            }
        }
        TAG_MARK => {
            let src = NodeId::new(cur.u32()? as usize);
            let round = cur.u32()? as usize;
            Frame::Mark { src, round }
        }
        _ => return Err(FrameError::Malformed("unknown frame tag")),
    };
    if cur.pos != body.len() {
        return Err(FrameError::Malformed("trailing bytes after frame body"));
    }
    Ok(frame)
}

/// Parses the trace section of a `0x03` frame. `None` on any truncation,
/// oversized claim, or trailing garbage — the caller degrades the frame
/// to an untraced envelope rather than surfacing an error.
fn decode_trace_section(cur: &mut Cursor<'_>) -> Option<TraceCtx> {
    let instance = cur.u64().ok()?;
    let hop = cur.u32().ok()?;
    let path_len = cur.u32().ok()? as usize;
    let mut path = Vec::new();
    for _ in 0..path_len {
        path.push(cur.u64().ok()?);
    }
    if cur.pos != cur.buf.len() {
        return None;
    }
    Some(TraceCtx {
        instance,
        path,
        hop,
    })
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

/// `read_exact` that distinguishes a clean EOF before the first byte from
/// an EOF mid-buffer.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                });
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadOutcome::Full)
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, k: usize) -> Result<&[u8], FrameError> {
        if k > self.buf.len() - self.pos {
            return Err(FrameError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + k];
        self.pos += k;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimRng;

    fn nid(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Envelope {
                src: nid(0),
                msg: ByzMsg {
                    path: Path::root(nid(0)),
                    value: AgreementValue::Value(u64::MAX),
                },
                trace: None,
            },
            Frame::Envelope {
                src: nid(3),
                msg: ByzMsg {
                    path: Path::root(nid(0)).child(nid(2)).child(nid(3)),
                    value: AgreementValue::Default,
                },
                trace: None,
            },
            Frame::Envelope {
                src: nid(3),
                msg: ByzMsg {
                    path: Path::root(nid(0)).child(nid(3)),
                    value: AgreementValue::Value(42),
                },
                trace: Some(TraceCtx::new(5, vec![0, 3])),
            },
            Frame::Mark {
                src: nid(7),
                round: 0,
            },
            Frame::Mark {
                src: nid(1),
                round: 4096,
            },
        ]
    }

    #[test]
    fn roundtrip_through_a_byte_stream() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = wire.as_slice();
        let mut back = Vec::new();
        while let Some(f) = read_frame(&mut r).unwrap() {
            back.push(f);
        }
        assert_eq!(back, frames);
    }

    #[test]
    fn clean_eof_is_none() {
        let mut r: &[u8] = &[];
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn eof_inside_prefix_is_truncated() {
        let wire = encode(&sample_frames()[0]);
        let mut r = &wire[..2];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
    }

    #[test]
    fn eof_inside_body_is_truncated() {
        let wire = encode(&sample_frames()[0]);
        let mut r = &wire[..wire.len() - 1];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
    }

    #[test]
    fn oversized_prefix_is_malformed() {
        let mut wire = Vec::new();
        put_u32(&mut wire, MAX_FRAME_LEN + 1);
        let mut r = wire.as_slice();
        assert!(matches!(read_frame(&mut r), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn junk_tag_and_trailing_bytes_are_malformed() {
        assert!(matches!(decode(&[0xff]), Err(FrameError::Malformed(_))));
        let mut body = encode(&Frame::Mark {
            src: nid(0),
            round: 1,
        })[4..]
            .to_vec();
        body.push(0);
        assert!(matches!(decode(&body), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn empty_path_is_rejected() {
        // envelope, src 0, V_d, then the path: empty, or [0, 1, 1], which
        // repeats a relayer.
        for ids in [&[][..], &[0, 1, 1]] {
            let mut body = vec![TAG_ENVELOPE];
            put_u32(&mut body, 0);
            body.push(VAL_DEFAULT);
            put_u32(&mut body, ids.len() as u32);
            for &id in ids {
                put_u32(&mut body, id);
            }
            assert!(
                matches!(decode(&body), Err(FrameError::Malformed(_))),
                "{ids:?}"
            );
        }
    }

    /// Seeded robustness sweep: truncated, bit-flipped and length-forged
    /// encodings of valid frames must decode to a frame or a
    /// [`FrameError`], never panic.
    #[test]
    fn decode_never_panics_on_mutated_frames() {
        let mut rng = SimRng::seed(0xF4A3E);
        let mut frames = sample_frames();
        // A deep traced path, so bit flips can turn one id into another.
        frames.push(Frame::Envelope {
            src: nid(5),
            msg: ByzMsg {
                path: (1..6).fold(Path::root(nid(0)), |p, i| p.child(nid(i))),
                value: AgreementValue::Value(9),
            },
            trace: Some(TraceCtx::new(1, vec![0, 1, 2])),
        });
        for frame in &frames {
            let body = &encode(frame)[4..];
            assert_eq!(decode(body).unwrap(), *frame);
            // The envelope's path-length field: tag, src, value.
            let path_len_at = match frame {
                Frame::Envelope { msg, .. } => match msg.value {
                    AgreementValue::Default => Some(1 + 4 + 1),
                    AgreementValue::Value(_) => Some(1 + 4 + 1 + 8),
                },
                Frame::Mark { .. } => None,
            };
            for _ in 0..2000 {
                let mut bytes = body.to_vec();
                match rng.below(3) {
                    0 => bytes.truncate(rng.below(bytes.len() as u64) as usize),
                    1 => {
                        for _ in 0..=rng.below(3) {
                            let bit = rng.below(bytes.len() as u64 * 8) as usize;
                            bytes[bit / 8] ^= 1 << (bit % 8);
                        }
                    }
                    _ => {
                        let at = match path_len_at {
                            Some(at) if rng.chance(0.5) => at,
                            _ => rng.below(bytes.len() as u64 - 3) as usize,
                        };
                        let forged = match rng.below(3) {
                            0 => u32::MAX,
                            1 => rng.below(64) as u32,
                            _ => rng.below(1 << 32) as u32,
                        };
                        bytes[at..at + 4].copy_from_slice(&forged.to_le_bytes());
                    }
                }
                let _ = decode(&bytes);
            }
        }
    }

    #[test]
    fn untraced_envelopes_keep_the_v1_wire_tag() {
        let wire = encode(&sample_frames()[0]);
        assert_eq!(wire[4], TAG_ENVELOPE);
        let wire = encode(&sample_frames()[2]);
        assert_eq!(wire[4], TAG_TRACED);
    }

    #[test]
    fn traced_envelope_round_trips_its_context() {
        let frame = &sample_frames()[2];
        let wire = encode(frame);
        let back = decode(&wire[4..]).unwrap();
        assert_eq!(&back, frame);
        match back {
            Frame::Envelope { trace, .. } => {
                assert_eq!(trace, Some(TraceCtx::new(5, vec![0, 3])));
            }
            other => panic!("expected envelope, got {other:?}"),
        }
    }

    /// The satellite invariant: a `0x03` frame whose trace section is
    /// truncated, padded, or garbage still decodes — as an *untraced*
    /// envelope — so one corrupt trace never kills a mesh connection.
    #[test]
    fn malformed_trace_sections_degrade_to_untraced() {
        let frame = sample_frames()[2].clone();
        let untraced = match &frame {
            Frame::Envelope { src, msg, .. } => Frame::Envelope {
                src: *src,
                msg: msg.clone(),
                trace: None,
            },
            other => panic!("expected envelope, got {other:?}"),
        };
        let body = &encode(&frame)[4..];
        // Chop the trace section at every possible length, including
        // removing it entirely; the envelope part is bytes [0, split).
        let split = body.len() - (8 + 4 + 4 + 2 * 8);
        for cut in split..body.len() {
            let got = decode(&body[..cut])
                .unwrap_or_else(|e| panic!("truncated trace at {cut} must degrade, got {e}"));
            assert_eq!(got, untraced, "cut at {cut}");
        }
        // Trailing garbage after a complete trace section.
        let mut padded = body.to_vec();
        padded.push(0xAA);
        assert_eq!(decode(&padded).unwrap(), untraced);
        // An absurd path-length claim inside the trace section.
        let mut bloated = body[..split].to_vec();
        bloated.extend_from_slice(&7u64.to_le_bytes());
        put_u32(&mut bloated, 2);
        put_u32(&mut bloated, u32::MAX);
        assert_eq!(decode(&bloated).unwrap(), untraced);
        // But corruption in the *envelope* part stays fatal.
        assert!(matches!(decode(&body[..3]), Err(FrameError::Truncated)));
    }

    #[test]
    fn frame_src_accessor() {
        for f in sample_frames() {
            let _ = f.src();
        }
        assert_eq!(sample_frames()[1].src(), nid(3));
    }
}
