//! Length-prefixed wire framing.
//!
//! Every message on a serve connection is one *frame*:
//!
//! ```text
//! [ u32 big-endian length L ][ u8 kind ][ L - 1 bytes payload ]
//! ```
//!
//! where `L` counts the kind byte plus the payload and is capped at
//! [`MAX_FRAME`]. Two kinds exist: [`KIND_JSON`] (a UTF-8 JSON
//! document — every request and every response envelope) and
//! [`KIND_BLOCK`] (a binary packed-permutation chunk — see
//! [`crate::protocol::BlockChunk`]).
//!
//! The decoder is the first code in this workspace that touches
//! *untrusted* bytes, so its contract is strict and pinned by the
//! protocol fuzz suite:
//!
//! - it never panics, whatever the input;
//! - it never allocates more than `MAX_FRAME` bytes, and rejects an
//!   oversized declared length **before** allocating anything;
//! - a connection closed cleanly between frames is `Ok(None)`, while
//!   a close mid-frame is a [`FrameError::Truncated`].

use std::io::{Read, Write};

/// Hard cap on a frame's declared length (kind byte + payload), in
/// bytes. Chosen so the largest server-side chunk (65 536 packed words
/// = 512 KiB plus the 40-byte chunk header) fits with headroom, while
/// a hostile 4 GiB length prefix is rejected without allocating.
pub const MAX_FRAME: usize = 1 << 20;

/// Frame kind: UTF-8 JSON document (requests, response envelopes).
pub const KIND_JSON: u8 = 0;

/// Frame kind: binary packed-permutation chunk (block / random-stream
/// data plane).
pub const KIND_BLOCK: u8 = 1;

/// Everything that can go wrong while reading one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection in the middle of a frame.
    Truncated {
        /// Bytes the frame still owed when the stream ended.
        missing: usize,
    },
    /// The length prefix declares more than [`MAX_FRAME`] bytes.
    Oversized {
        /// The declared length.
        declared: u64,
    },
    /// The length prefix declares zero bytes (not even a kind byte).
    Empty,
    /// The kind byte is neither [`KIND_JSON`] nor [`KIND_BLOCK`].
    UnknownKind(u8),
    /// A socket read deadline fired before the frame completed — the
    /// peer idled (or stalled mid-frame) past the configured timeout.
    TimedOut,
    /// Transport-level I/O failure.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { missing } => {
                write!(f, "truncated frame: stream ended {missing} byte(s) early")
            }
            FrameError::Oversized { declared } => write!(
                f,
                "oversized frame: declared length {declared} exceeds the {MAX_FRAME}-byte cap"
            ),
            FrameError::Empty => write!(f, "empty frame: length prefix declares zero bytes"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::TimedOut => {
                write!(
                    f,
                    "idle timeout: no complete frame arrived before the deadline"
                )
            }
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads exactly `buf.len()` bytes; distinguishes a clean close before
/// the first byte (`Ok(false)`) from a mid-read close (`Truncated`).
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(FrameError::Truncated {
                    missing: buf.len() - filled,
                });
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // A socket read deadline (set_read_timeout) surfaces as
            // WouldBlock on Unix and TimedOut on Windows; both mean
            // the peer stalled past the configured idle budget.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(FrameError::TimedOut)
            }
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(true)
}

/// Reads one frame, returning `(kind, payload)` — or `Ok(None)` when
/// the peer closed the connection cleanly between frames.
///
/// Never panics and never allocates more than [`MAX_FRAME`] bytes: the
/// declared length is validated against the cap before the payload
/// buffer exists.
///
/// The kind byte is read on its own and the payload straight into its
/// own buffer, so a 512 KiB chunk is never shifted to drop its kind
/// byte. The kind is still checked only once the whole frame is in:
/// an unknown-kind frame that is also cut short reports `Truncated`.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
    let mut prefix = [0u8; 4];
    if !read_full(r, &mut prefix)? {
        return Ok(None);
    }
    let declared = u32::from_be_bytes(prefix) as u64;
    if declared == 0 {
        return Err(FrameError::Empty);
    }
    if declared > MAX_FRAME as u64 {
        return Err(FrameError::Oversized { declared });
    }
    let mut kind = [0u8; 1];
    if !read_full(r, &mut kind)? {
        return Err(FrameError::Truncated {
            missing: declared as usize,
        });
    }
    let mut payload = vec![0u8; declared as usize - 1];
    if !read_full(r, &mut payload)? {
        return Err(FrameError::Truncated {
            missing: payload.len(),
        });
    }
    let kind = kind[0];
    if kind != KIND_JSON && kind != KIND_BLOCK {
        return Err(FrameError::UnknownKind(kind));
    }
    Ok(Some((kind, payload)))
}

/// Writes one frame.
///
/// # Panics
/// Panics if `payload.len() + 1` exceeds [`MAX_FRAME`] — the server
/// controls every frame it emits, so an oversized outbound frame is a
/// bug, not a runtime condition.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    let len = payload.len() + 1;
    assert!(
        len <= MAX_FRAME,
        "outbound frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
    );
    w.write_all(&(len as u32).to_be_bytes())?;
    w.write_all(&[kind])?;
    w.write_all(payload)
}

/// The full on-wire encoding of one frame (prefix + kind + payload),
/// for transcript pinning in tests.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + payload.len());
    write_frame(&mut out, kind, payload).expect("Vec write is infallible");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_both_kinds() {
        for (kind, payload) in [
            (KIND_JSON, b"{\"cmd\":\"stats\"}".to_vec()),
            (KIND_BLOCK, vec![0u8; 64]),
            (KIND_JSON, Vec::new()),
        ] {
            let wire = encode_frame(kind, &payload);
            let mut cursor = Cursor::new(wire);
            let (k, body) = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(k, kind);
            assert_eq!(body, payload);
            // Clean EOF after the frame.
            assert_eq!(read_frame(&mut cursor).unwrap(), None);
        }
    }

    #[test]
    fn clean_close_between_frames_is_none() {
        let mut empty = Cursor::new(Vec::<u8>::new());
        assert_eq!(read_frame(&mut empty).unwrap(), None);
    }

    #[test]
    fn truncated_prefix_and_body_are_errors() {
        // Two of the four prefix bytes.
        let mut cursor = Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Truncated { .. })
        ));
        // Full prefix declaring 10 bytes, only 3 present.
        let mut wire = 10u32.to_be_bytes().to_vec();
        wire.extend_from_slice(&[KIND_JSON, b'{', b'}']);
        let mut cursor = Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        // A hostile prefix claiming 4 GiB must fail fast; the body is
        // absent, so any attempt to read it would report Truncated
        // instead — Oversized proves the length check fired first.
        let mut cursor = Cursor::new(0xFFFF_FFFFu32.to_be_bytes().to_vec());
        assert_eq!(
            read_frame(&mut cursor),
            Err(FrameError::Oversized {
                declared: 0xFFFF_FFFF
            })
        );
        // One past the cap is rejected; the cap itself is accepted.
        let mut cursor = Cursor::new(((MAX_FRAME + 1) as u32).to_be_bytes().to_vec());
        assert_eq!(
            read_frame(&mut cursor),
            Err(FrameError::Oversized {
                declared: MAX_FRAME as u64 + 1
            })
        );
        let mut wire = (MAX_FRAME as u32).to_be_bytes().to_vec();
        wire.push(KIND_BLOCK);
        wire.extend_from_slice(&vec![0u8; MAX_FRAME - 1]);
        let (kind, body) = read_frame(&mut Cursor::new(wire)).unwrap().unwrap();
        assert_eq!(kind, KIND_BLOCK);
        assert_eq!(body.len(), MAX_FRAME - 1);
    }

    #[test]
    fn zero_length_and_unknown_kind_rejected() {
        let mut cursor = Cursor::new(0u32.to_be_bytes().to_vec());
        assert_eq!(read_frame(&mut cursor), Err(FrameError::Empty));
        let wire = encode_frame(KIND_JSON, b"x");
        let mut bad = wire.clone();
        bad[4] = 7; // corrupt the kind byte
        assert_eq!(
            read_frame(&mut Cursor::new(bad)),
            Err(FrameError::UnknownKind(7))
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn outbound_oversize_is_a_bug() {
        let mut sink = Vec::new();
        write_frame(&mut sink, KIND_BLOCK, &vec![0u8; MAX_FRAME]).unwrap();
    }
}
