//! Chunk file format: fixed header + packed little-endian u64 body,
//! integrity-bound by a content hash recomputed on every load.

use crate::{io_err, Order, StoreError};
use std::path::Path;

/// First four bytes of every chunk file.
pub const STORE_MAGIC: [u8; 4] = *b"HWPT";

/// Schema version this build writes and reads.
pub const STORE_SCHEMA_VERSION: u16 = 1;

/// Fixed header length in bytes: magic (4) + schema (2) + order (2) +
/// n (4) + base (8) + words (4) + reserved (4) + hash (8).
pub const CHUNK_HEADER_LEN: usize = 36;

/// Content hash of a chunk body: four independent multiply-xor chains
/// consuming one u64 each per step (round-robin over the words),
/// folded together and finished with a splitmix64-style avalanche.
/// The lanes are seeded with the word count so chunks that are
/// prefixes of each other never collide trivially. Four chains matter
/// for the warm path: a single chain is latency-bound on its multiply
/// (every step depends on the last), and at ~2 ns/word the hash — not
/// the disk — would dominate warm loads and sink the
/// warm-vs-recompute advantage. Interleaving keeps the hash
/// throughput-bound and the load I/O-bound.
pub fn hash_words(words: &[u64]) -> u64 {
    let quads = words.chunks_exact(4);
    let tail = quads.remainder().iter().copied();
    hash_quads(words.len(), quads.map(|q| [q[0], q[1], q[2], q[3]]), tail)
}

/// [`hash_words`] of the words a little-endian body encodes, read in
/// place: a chunk body is checked without first decoding it.
///
/// # Panics
/// Panics if `body` is not a whole number of words.
pub fn hash_le_bytes(body: &[u8]) -> u64 {
    assert!(
        body.len().is_multiple_of(8),
        "body of {} bytes is not a whole number of words",
        body.len()
    );
    let le = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte word"));
    let quads = body.chunks_exact(32);
    let tail = quads.remainder().chunks_exact(8).map(le);
    hash_quads(
        body.len() / 8,
        quads.map(|q| [le(&q[..8]), le(&q[8..16]), le(&q[16..24]), le(&q[24..])]),
        tail,
    )
}

/// The hash core: `len` words arriving as whole quads, one per lane,
/// then up to three trailing words.
fn hash_quads(
    len: usize,
    quads: impl Iterator<Item = [u64; 4]>,
    tail: impl Iterator<Item = u64>,
) -> u64 {
    const MUL: u64 = 0x2545_F491_4F6C_DD1D;
    let seed: u64 = 0x9E37_79B9_7F4A_7C15 ^ (len as u64);
    let mut lanes = [
        seed,
        seed ^ 0xA5A5_A5A5_A5A5_A5A5,
        seed ^ 0x5A5A_5A5A_5A5A_5A5A,
        seed ^ 0x3C3C_3C3C_3C3C_3C3C,
    ];
    for quad in quads {
        for (lane, w) in lanes.iter_mut().zip(quad) {
            let h = (*lane ^ w).wrapping_mul(MUL);
            *lane = h ^ (h >> 32);
        }
    }
    for (lane, w) in lanes.iter_mut().zip(tail) {
        let h = (*lane ^ w).wrapping_mul(MUL);
        *lane = h ^ (h >> 32);
    }
    let mut h = lanes[0];
    for &lane in &lanes[1..] {
        h = (h ^ lane).wrapping_mul(MUL);
        h ^= h >> 32;
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// What a chunk file is declared to hold. The encoder derives the
/// header from this; the decoder checks the header against it field by
/// field, so a chunk copied into the wrong directory fails loudly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkShape {
    /// Permutation size of the table.
    pub n: usize,
    /// Table order.
    pub order: Order,
    /// Index of the first word in this chunk.
    pub base: u64,
    /// Number of words in this chunk.
    pub words: u32,
}

/// Encode `words` as a complete chunk file image (header + body).
pub fn encode_chunk(shape: ChunkShape, words: &[u64]) -> Vec<u8> {
    assert_eq!(
        words.len(),
        shape.words as usize,
        "chunk body length disagrees with its declared shape"
    );
    let mut out = Vec::with_capacity(CHUNK_HEADER_LEN + words.len() * 8);
    out.extend_from_slice(&STORE_MAGIC);
    out.extend_from_slice(&STORE_SCHEMA_VERSION.to_le_bytes());
    out.extend_from_slice(&shape.order.id().to_le_bytes());
    out.extend_from_slice(&(shape.n as u32).to_le_bytes());
    out.extend_from_slice(&shape.base.to_le_bytes());
    out.extend_from_slice(&shape.words.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&hash_words(words).to_le_bytes());
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

fn le_u16(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([bytes[at], bytes[at + 1]])
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Decode and fully validate a chunk file image against the shape the
/// layout expects at its path (see [`validate_chunk`]). Returns the
/// body words.
pub fn decode_chunk(path: &Path, shape: ChunkShape, bytes: &[u8]) -> Result<Vec<u64>, StoreError> {
    let body = validate_chunk(path, shape, bytes)?;
    Ok(body
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("exact 8-byte chunk")))
        .collect())
}

/// Fully validate a chunk file image against the shape the layout
/// expects at its path. Validation order: length, magic, schema
/// version, order, n, base, word count, exact body length, body hash.
/// Returns the body: `shape.words` little-endian words.
pub fn validate_chunk<'a>(
    path: &Path,
    shape: ChunkShape,
    bytes: &'a [u8],
) -> Result<&'a [u8], StoreError> {
    let want_len = CHUNK_HEADER_LEN as u64 + shape.words as u64 * 8;
    if bytes.len() < CHUNK_HEADER_LEN {
        return Err(StoreError::Truncated {
            path: path.to_path_buf(),
            got: bytes.len() as u64,
            want: want_len,
        });
    }
    if bytes[0..4] != STORE_MAGIC {
        return Err(StoreError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let schema = le_u16(bytes, 4);
    if schema != STORE_SCHEMA_VERSION {
        return Err(StoreError::SchemaVersion {
            path: path.to_path_buf(),
            got: schema,
        });
    }
    let check = |field: &'static str, got: u64, want: u64| -> Result<(), StoreError> {
        if got != want {
            return Err(StoreError::HeaderMismatch {
                path: path.to_path_buf(),
                field,
                got,
                want,
            });
        }
        Ok(())
    };
    check("order", le_u16(bytes, 6) as u64, shape.order.id() as u64)?;
    check("n", le_u32(bytes, 8) as u64, shape.n as u64)?;
    check("base", le_u64(bytes, 12), shape.base)?;
    check("words", le_u32(bytes, 20) as u64, shape.words as u64)?;
    if bytes.len() as u64 != want_len {
        return Err(StoreError::Truncated {
            path: path.to_path_buf(),
            got: bytes.len() as u64,
            want: want_len,
        });
    }
    let header_hash = le_u64(bytes, 28);
    let body = &bytes[CHUNK_HEADER_LEN..];
    let got_hash = hash_le_bytes(body);
    if got_hash != header_hash {
        return Err(StoreError::HashMismatch {
            path: path.to_path_buf(),
            got: got_hash,
            want: header_hash,
        });
    }
    Ok(body)
}

/// The content hash a chunk file's header records, without decoding
/// the body (used to cross-check the manifest).
pub fn header_hash(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < CHUNK_HEADER_LEN {
        return None;
    }
    Some(le_u64(bytes, 28))
}

/// Read a whole chunk file into memory with one buffered read.
pub fn read_chunk_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    std::fs::read(path).map_err(|e| io_err(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn shape(words: u32) -> ChunkShape {
        ChunkShape {
            n: 5,
            order: Order::Lex,
            base: 64,
            words,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let words: Vec<u64> = (0..100).map(|i| i * 0x0101_0101).collect();
        let bytes = encode_chunk(shape(100), &words);
        assert_eq!(bytes.len(), CHUNK_HEADER_LEN + 800);
        let back = decode_chunk(&PathBuf::from("c"), shape(100), &bytes).unwrap();
        assert_eq!(back, words);
    }

    #[test]
    fn hash_is_order_and_length_sensitive() {
        assert_ne!(hash_words(&[1, 2]), hash_words(&[2, 1]));
        assert_ne!(hash_words(&[0]), hash_words(&[0, 0]));
        assert_ne!(hash_words(&[]), hash_words(&[0]));
        // Pinned so the on-disk format can never drift silently.
        assert_eq!(hash_words(&[]), hash_words(&[]));
        let h = hash_words(&[0xDEAD_BEEF, 42]);
        assert_eq!(h, hash_words(&[0xDEAD_BEEF, 42]));
    }

    #[test]
    fn byte_hash_equals_word_hash_and_both_stay_pinned() {
        let words: Vec<u64> = (0..7u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        // Values of the original word-slice hash: the on-disk format
        // must not drift when the hash core is reshaped.
        for (k, want) in [
            (0usize, 0x6b53_bc5c_e065_0755u64),
            (1, 0x5e3b_5a07_45a7_3d91),
            (3, 0x8cbe_f796_9f73_a33f),
            (4, 0xb115_12e7_a377_01b7),
            (7, 0x2fd8_e387_a15a_14ae),
        ] {
            assert_eq!(hash_words(&words[..k]), want, "{k} words");
        }
        for k in 0..=words.len() {
            let bytes: Vec<u8> = words[..k].iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_eq!(hash_le_bytes(&bytes), hash_words(&words[..k]), "{k} words");
        }
    }

    #[test]
    fn flipped_body_byte_fails_the_hash() {
        let words: Vec<u64> = (0..16).collect();
        let mut bytes = encode_chunk(shape(16), &words);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        let err = decode_chunk(&PathBuf::from("c"), shape(16), &bytes).unwrap_err();
        assert!(matches!(err, StoreError::HashMismatch { .. }), "{err}");
    }

    #[test]
    fn truncation_and_header_mismatches_are_detected() {
        let words: Vec<u64> = (0..16).collect();
        let bytes = encode_chunk(shape(16), &words);

        let err = decode_chunk(&PathBuf::from("c"), shape(16), &bytes[..bytes.len() - 3]);
        assert!(matches!(err, Err(StoreError::Truncated { .. })));

        let err = decode_chunk(&PathBuf::from("c"), shape(16), &bytes[..10]);
        assert!(matches!(err, Err(StoreError::Truncated { .. })));

        let mut wrong_n = shape(16);
        wrong_n.n = 6;
        let err = decode_chunk(&PathBuf::from("c"), wrong_n, &bytes).unwrap_err();
        assert_eq!(
            err,
            StoreError::HeaderMismatch {
                path: PathBuf::from("c"),
                field: "n",
                got: 5,
                want: 6,
            }
        );

        let mut wrong_base = shape(16);
        wrong_base.base = 0;
        let err = decode_chunk(&PathBuf::from("c"), wrong_base, &bytes).unwrap_err();
        assert!(
            matches!(err, StoreError::HeaderMismatch { field: "base", .. }),
            "{err}"
        );

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        let err = decode_chunk(&PathBuf::from("c"), shape(16), &bad_magic).unwrap_err();
        assert!(matches!(err, StoreError::BadMagic { .. }));

        let mut bad_schema = bytes;
        bad_schema[4] = 9;
        let err = decode_chunk(&PathBuf::from("c"), shape(16), &bad_schema).unwrap_err();
        assert!(matches!(err, StoreError::SchemaVersion { got: 9, .. }));
    }

    #[test]
    fn header_hash_matches_recomputed_hash() {
        let words: Vec<u64> = (100..164).collect();
        let bytes = encode_chunk(shape(64), &words);
        assert_eq!(header_hash(&bytes), Some(hash_words(&words)));
        assert_eq!(header_hash(&bytes[..8]), None);
    }
}
