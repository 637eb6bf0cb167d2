//! Protocol fuzz suite: the frame decoder, the JSON parser, the
//! request validator and the chunk decoder are the serve stack's
//! untrusted-input surface. Whatever bytes arrive, they must return
//! clean errors — no panics, no unbounded allocation — and a live
//! server fed garbage must answer with an error envelope and close.

use hwperm_serve::{
    decode_chunk, encode_frame, parse_request, read_frame, Client, FrameError, Json, Listener,
    Message, ServeOptions, DEFAULT_CHUNK, KIND_BLOCK, KIND_JSON, MAX_FRAME,
};
use proptest::prelude::*;
use std::io::{Cursor, Read};

/// The original frame reader, kept as a reference: it reads the kind
/// byte and payload as one body, then drops the kind byte with
/// `remove(0)`. [`read_frame`] reads them separately and must agree
/// with this on every input, error variant and `missing` count
/// included.
fn reference_read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
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
                Err(e) => return Err(FrameError::Io(e.to_string())),
            }
        }
        Ok(true)
    }
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
    let mut body = vec![0u8; declared as usize];
    if !read_full(r, &mut body)? {
        return Err(FrameError::Truncated {
            missing: body.len(),
        });
    }
    let kind = body[0];
    if kind != KIND_JSON && kind != KIND_BLOCK {
        return Err(FrameError::UnknownKind(kind));
    }
    body.remove(0);
    Ok(Some((kind, body)))
}

/// A reader that hands out at most `step` bytes per `read`, so both
/// readers' partial-read loops run the way a socket makes them.
struct Dribble {
    bytes: Cursor<Vec<u8>>,
    step: usize,
}

impl Read for Dribble {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let len = buf.len().min(self.step);
        self.bytes.read(&mut buf[..len])
    }
}

/// Reads frames from `wire` with both readers until either stops, and
/// checks that every outcome and the bytes consumed agree.
fn assert_readers_agree(wire: &[u8], step: usize) {
    let mut new = Dribble {
        bytes: Cursor::new(wire.to_vec()),
        step,
    };
    let mut old = Dribble {
        bytes: Cursor::new(wire.to_vec()),
        step,
    };
    loop {
        let got = read_frame(&mut new);
        let want = reference_read_frame(&mut old);
        assert_eq!(got, want, "readers disagree on {wire:?}");
        assert_eq!(
            new.bytes.position(),
            old.bytes.position(),
            "readers consumed different byte counts of {wire:?}"
        );
        if !matches!(got, Ok(Some(_))) {
            return;
        }
    }
}

/// A frame's declared length: honest, or any of the lengths a hostile
/// or broken peer sends (zero, small, around the cap, anything).
fn declared_len() -> impl Strategy<Value = Option<u32>> {
    (0u8..6, any::<u32>()).prop_map(|(pick, v)| match pick {
        0..=2 => None,
        3 => Some(v % 48),
        4 => Some(MAX_FRAME as u32 - 1 + v % 3),
        _ => Some(v),
    })
}

/// A frame kind: mostly the two known ones, sometimes any byte.
fn frame_kind() -> impl Strategy<Value = u8> {
    (0u8..4, any::<u8>()).prop_map(|(pick, k)| match pick {
        0 => KIND_JSON,
        1 => KIND_BLOCK,
        _ => k,
    })
}

/// Strings that stress the JSON writer's escaping: quotes,
/// backslashes, every control character below 0x20, DEL, and non-ASCII
/// scalars of every UTF-8 length (including U+2028 and astral ones).
fn tricky_string() -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..4, any::<u32>()), 0..24).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(class, v)| match class {
                0 => char::from_u32(v % 0x20).expect("control characters are scalars"),
                1 => ['"', '\\', '/', '\u{7f}', 'a', ' '][v as usize % 6],
                2 => ['é', '€', '\u{2028}', '\u{fffd}', '😀'][v as usize % 5],
                _ => char::from_u32(v % 0x11_0000).unwrap_or('\u{10ffff}'),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rendered_strings_parse_back_verbatim(s in tricky_string()) {
        let text = Json::Str(s.clone()).to_string();
        prop_assert_eq!(Json::parse(text.as_bytes()), Ok(Json::Str(s.clone())));
        // Keys go through the same escaper.
        let doc = Json::obj([(s.clone(), Json::Str(s))]);
        prop_assert_eq!(Json::parse(doc.to_string().as_bytes()), Ok(doc));
    }

    #[test]
    fn frame_decoder_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Every outcome is allowed except a panic; any successfully
        // decoded payload obeys the allocation cap.
        if let Ok(Some((kind, payload))) = read_frame(&mut Cursor::new(bytes)) {
            prop_assert!(kind == KIND_JSON || kind == KIND_BLOCK);
            prop_assert!(payload.len() < MAX_FRAME);
        }
    }

    #[test]
    fn oversized_length_prefixes_fail_before_allocating(
        declared in (MAX_FRAME as u64 + 1..=u32::MAX as u64),
        tail in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        // A hostile prefix can declare up to 4 GiB; the decoder must
        // reject on the declared value alone. If it tried to allocate
        // and read first, this test would report Truncated (the body
        // is at most 8 bytes) — Oversized proves the cap check fired.
        let mut wire = (declared as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&tail);
        prop_assert_eq!(
            read_frame(&mut Cursor::new(wire)),
            Err(FrameError::Oversized { declared })
        );
    }

    #[test]
    fn truncated_frames_never_parse_as_complete(
        payload in prop::collection::vec(any::<u8>(), 0..32),
        kind in 0u8..2,
        cut in any::<usize>(),
    ) {
        let wire = encode_frame(kind, &payload);
        let cut = cut % wire.len(); // strictly shorter than the frame
        match read_frame(&mut Cursor::new(wire[..cut].to_vec())) {
            Ok(None) => prop_assert_eq!(cut, 0, "only an empty stream is a clean close"),
            Err(_) => {}
            Ok(Some(_)) => prop_assert!(false, "truncated frame decoded as complete"),
        }
    }

    #[test]
    fn read_frame_matches_the_reference_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        step in 1usize..8,
    ) {
        assert_readers_agree(&bytes, step);
    }

    #[test]
    fn read_frame_matches_the_reference_on_framed_streams(
        frames in prop::collection::vec(
            (
                frame_kind(),
                prop::collection::vec(any::<u8>(), 0..40),
                declared_len(),
            ),
            0..4,
        ),
        cut in any::<usize>(),
        step in (0u8..2, 1usize..8).prop_map(|(whole, s)| if whole == 0 { usize::MAX } else { s }),
    ) {
        // Well-formed, unknown-kind, empty, oversized and mis-declared
        // frames back to back, then cut anywhere (or not at all).
        let mut wire = Vec::new();
        for (kind, payload, declared) in &frames {
            let declared = declared.unwrap_or(payload.len() as u32 + 1);
            wire.extend_from_slice(&declared.to_be_bytes());
            wire.push(*kind);
            wire.extend_from_slice(payload);
        }
        wire.truncate(cut % (wire.len() + 1));
        assert_readers_agree(&wire, step);
    }

    #[test]
    fn json_parser_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        // Whatever parses must survive a render and re-parse unchanged.
        if let Ok(doc) = Json::parse(&bytes) {
            prop_assert_eq!(Json::parse(doc.to_string().as_bytes()), Ok(doc));
        }
    }

    #[test]
    fn request_parser_never_panics_and_errors_carry_messages(
        bytes in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        if let Err(e) = parse_request(&bytes, DEFAULT_CHUNK) {
            prop_assert!(!e.message.is_empty());
            prop_assert!(!e.command.is_empty());
        }
    }

    #[test]
    fn chunk_decoder_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        if let Ok(chunk) = decode_chunk(&bytes) {
            prop_assert_eq!(chunk.words.len() * 8 + 40, bytes.len());
        }
    }

    #[test]
    fn random_json_fragments_round_trip_or_reject(
        n in 1u64..1000,
        deep in 0usize..80,
    ) {
        // Structured-ish inputs: nested arrays stay within the depth
        // cap or error cleanly, and numbers survive exactly.
        let doc = format!("{}{}{}", "[".repeat(deep), n, "]".repeat(deep));
        match Json::parse(doc.as_bytes()) {
            Ok(mut j) => {
                prop_assert_eq!(Json::parse(j.to_string().as_bytes()), Ok(j.clone()));
                for _ in 0..deep {
                    let arr = j.as_array().expect("peeled a nested array").to_vec();
                    prop_assert_eq!(arr.len(), 1);
                    j = arr.into_iter().next().expect("one element");
                }
                prop_assert_eq!(j.as_u64(), Some(n));
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}

/// The depth cap itself, pinned: 100 000 open brackets must be
/// rejected (not overflow the stack), while a document at the cap
/// parses.
#[test]
fn depth_bomb_is_rejected_cleanly() {
    let bomb = "[".repeat(100_000);
    assert!(Json::parse(bomb.as_bytes()).is_err());
}

/// A live server fed each class of hostile input answers with exactly
/// one error envelope, then closes the connection (there is no
/// resynchronization point in a length-prefixed stream).
#[test]
fn live_server_survives_hostile_frames() {
    let hostile: [(&str, Vec<u8>); 4] = [
        // Oversized declared length.
        ("oversized", 0xFFFF_FFFFu32.to_be_bytes().to_vec()),
        // Zero-length frame.
        ("empty", 0u32.to_be_bytes().to_vec()),
        // Unknown frame kind.
        ("unknown-kind", {
            let mut w = 2u32.to_be_bytes().to_vec();
            w.extend_from_slice(&[9, b'x']);
            w
        }),
        // Truncated frame: declares 100 bytes, delivers 3, then EOF.
        ("truncated", {
            let mut w = 100u32.to_be_bytes().to_vec();
            w.extend_from_slice(&[0, b'{', b'}']);
            w
        }),
    ];
    for (label, bytes) in hostile {
        let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
        let server = hwperm_serve::spawn(listener, ServeOptions::default()).expect("spawn");
        let mut client = Client::connect(server.endpoint()).expect("connect");
        client.send_raw(&bytes).expect("send");
        client.finish_writes().expect("half-close");
        let first = client.read_message().expect("one response expected");
        match first {
            Some(Message::Envelope(env)) => {
                let text = String::from_utf8(env).expect("utf-8 envelope");
                assert!(
                    text.contains("\"status\":\"error\""),
                    "{label}: not an error envelope: {text}"
                );
            }
            other => panic!("{label}: expected an error envelope, got {other:?}"),
        }
        assert_eq!(
            client.read_message().expect("clean close"),
            None,
            "{label}: server must close after a framing error"
        );
        server.stop().expect("stop");
    }

    // Unparseable JSON inside a well-formed frame: error envelope, but
    // the connection survives (framing is still synchronized).
    let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
    let server = hwperm_serve::spawn(listener, ServeOptions::default()).expect("spawn");
    let mut client = Client::connect(server.endpoint()).expect("connect");
    let bad = client.request("not json at all").expect("response");
    assert!(!bad.is_ok(), "invalid JSON must be an error envelope");
    let good = client
        .request("{\"id\":2,\"cmd\":\"unrank\",\"n\":3,\"index\":4}")
        .expect("connection must survive a JSON error");
    assert!(good.is_ok());
    server.stop().expect("stop");
}

/// The write path refuses to build an oversized outbound frame (server
/// invariant pinned at the library boundary): the largest legal chunk
/// still fits the cap.
#[test]
fn largest_legal_chunk_fits_the_frame_cap() {
    use hwperm_serve::{encode_chunk, CHUNK_CAP, CHUNK_HEADER};
    let words = vec![0u8; CHUNK_CAP * 8];
    let payload = encode_chunk(0, 0, 0, 0, &words);
    assert_eq!(payload.len(), CHUNK_HEADER + CHUNK_CAP * 8);
    assert!(payload.len() < MAX_FRAME);
    // encode_frame would panic if this overflowed the cap.
    let _ = encode_frame(KIND_BLOCK, &payload);
}
