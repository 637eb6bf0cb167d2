//! Reading a persisted table: open a complete table for range reads,
//! verify every chunk end-to-end, report store status, and the
//! [`TableSource`] abstraction the sweep/prove consumers go through.

use crate::format::{decode_chunk, header_hash, read_chunk_file, validate_chunk, ChunkShape};
use crate::manifest::Manifest;
use crate::{chunk_file_name, table_dir, Order, StoreError};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// A complete, manifest-backed table opened for reading. Every chunk
/// read re-validates the header, recomputes the body hash, and
/// cross-checks it against the manifest record — corruption surfaces
/// at the first read that touches it.
#[derive(Debug)]
pub struct OpenTable {
    dir: PathBuf,
    manifest: Manifest,
}

impl OpenTable {
    /// Open the `n`-table under `store_dir`.
    ///
    /// `Ok(None)` means the table is simply not warm (no manifest, or
    /// a build still in progress) — the caller falls back to
    /// computing. `Err` means the store is *broken*: a malformed or
    /// stale manifest never degrades silently.
    pub fn open(store_dir: &Path, n: usize) -> Result<Option<OpenTable>, StoreError> {
        let dir = table_dir(store_dir, n);
        let Some(manifest) = Manifest::load(&dir)? else {
            return Ok(None);
        };
        let stale = |reason: String| StoreError::Manifest {
            path: dir.join(crate::MANIFEST_FILE),
            reason,
        };
        if manifest.n != n {
            return Err(stale(format!(
                "records n = {} but this table dir is for n = {n}",
                manifest.n
            )));
        }
        if !manifest.complete {
            return Ok(None);
        }
        Ok(Some(OpenTable { dir, manifest }))
    }

    /// Permutation size of the table.
    pub fn n(&self) -> usize {
        self.manifest.n
    }

    /// Total words in the table (`n!`).
    pub fn total_words(&self) -> u64 {
        self.manifest.total_words
    }

    /// Number of chunk files.
    pub fn chunks_total(&self) -> u64 {
        self.manifest.chunks_total()
    }

    /// The word-index range chunk `c` covers.
    pub fn chunk_range(&self, c: u64) -> Range<u64> {
        self.manifest.chunk_range(c)
    }

    /// Read and fully validate chunk `c`, returning its body words.
    pub fn read_chunk(&self, c: u64) -> Result<Vec<u64>, StoreError> {
        let (path, shape, bytes) = self.read_chunk_image(c)?;
        let words = decode_chunk(&path, shape, &bytes)?;
        self.check_recorded_hash(c, &bytes)?;
        Ok(words)
    }

    /// Read chunk `c`'s file image, with the path and the shape the
    /// layout expects of it. Nothing is validated yet.
    fn read_chunk_image(&self, c: u64) -> Result<(PathBuf, ChunkShape, Vec<u8>), StoreError> {
        let range = self.manifest.chunk_range(c);
        assert!(range.start < range.end, "chunk index {c} beyond the table");
        let path = self.dir.join(chunk_file_name(c));
        let bytes = read_chunk_file(&path)?;
        let shape = ChunkShape {
            n: self.manifest.n,
            order: Order::Lex,
            base: range.start,
            words: (range.end - range.start) as u32,
        };
        Ok((path, shape, bytes))
    }

    /// Cross-check a validated chunk image's header hash against the
    /// manifest record.
    fn check_recorded_hash(&self, c: u64, bytes: &[u8]) -> Result<(), StoreError> {
        let recorded = self.manifest.chunks.get(&c).map(|rec| rec.hash);
        if header_hash(bytes) != recorded {
            return Err(StoreError::Manifest {
                path: self.dir.join(crate::MANIFEST_FILE),
                reason: format!("chunk {c} hash on disk disagrees with the manifest record"),
            });
        }
        Ok(())
    }

    /// Append the words of `range` (word indices) to `out`, streaming
    /// chunk by chunk.
    pub fn read_words_into(&self, range: Range<u64>, out: &mut Vec<u64>) -> Result<(), StoreError> {
        out.reserve(range.end.saturating_sub(range.start) as usize);
        self.for_each_chunk(range, |c, words| {
            out.extend_from_slice(&self.read_chunk(c)?[words]);
            Ok(())
        })
    }

    /// Walks the chunks `range` touches, in order, handing `visit` each
    /// chunk index and the span of that chunk's body words inside
    /// `range`. Stops at the first error.
    fn for_each_chunk(
        &self,
        range: Range<u64>,
        mut visit: impl FnMut(u64, Range<usize>) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        assert!(
            range.end <= self.manifest.total_words,
            "range end {} beyond the {}-word table",
            range.end,
            self.manifest.total_words
        );
        let chunk_words = self.manifest.chunk_words as u64;
        let mut at = range.start;
        while at < range.end {
            let c = at / chunk_words;
            let chunk_range = self.manifest.chunk_range(c);
            let lo = (at - chunk_range.start) as usize;
            let hi = (range.end.min(chunk_range.end) - chunk_range.start) as usize;
            visit(c, lo..hi)?;
            at = chunk_range.end;
        }
        Ok(())
    }

    /// Append the words of `range` as little-endian bytes — the layout
    /// the serve protocol's binary chunk frames carry. Each chunk is
    /// validated exactly as [`OpenTable::read_chunk`] does, then its
    /// body bytes are appended as they lie in the file.
    pub fn read_le_bytes_into(
        &self,
        range: Range<u64>,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        self.for_each_chunk(range, |c, words| {
            let (path, shape, bytes) = self.read_chunk_image(c)?;
            let body = validate_chunk(&path, shape, &bytes)?;
            self.check_recorded_hash(c, &bytes)?;
            out.extend_from_slice(&body[words.start * 8..words.end * 8]);
            Ok(())
        })
    }

    /// Load the entire table into memory.
    pub fn load_words(&self) -> Result<Vec<u64>, StoreError> {
        let mut out = Vec::with_capacity(self.manifest.total_words as usize);
        self.read_words_into(0..self.manifest.total_words, &mut out)?;
        Ok(out)
    }
}

/// What [`verify_store`] confirmed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreVerifyReport {
    /// Permutation size of the table.
    pub n: usize,
    /// Chunks read and validated.
    pub chunks: u64,
    /// Words validated.
    pub words: u64,
    /// Chunk-file bytes read.
    pub bytes: u64,
}

/// Read and validate every chunk of the `n`-table: header fields, body
/// hash, and manifest cross-check. Requires a complete table —
/// [`StoreError::Missing`] otherwise.
pub fn verify_store(store_dir: &Path, n: usize) -> Result<StoreVerifyReport, StoreError> {
    let Some(table) = OpenTable::open(store_dir, n)? else {
        return Err(StoreError::Missing {
            dir: store_dir.to_path_buf(),
            n,
        });
    };
    let mut words = 0u64;
    let mut bytes = 0u64;
    for c in 0..table.chunks_total() {
        let chunk = table.read_chunk(c)?;
        words += chunk.len() as u64;
        bytes += crate::CHUNK_HEADER_LEN as u64 + chunk.len() as u64 * 8;
    }
    Ok(StoreVerifyReport {
        n,
        chunks: table.chunks_total(),
        words,
        bytes,
    })
}

/// A snapshot of one table's on-disk state, complete or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStat {
    /// Permutation size of the table.
    pub n: usize,
    /// Total words the complete table holds.
    pub total_words: u64,
    /// Words per chunk.
    pub chunk_words: usize,
    /// Chunks in the complete table.
    pub chunks_total: u64,
    /// Chunks recorded as built.
    pub chunks_present: u64,
    /// Whether the table is complete.
    pub complete: bool,
    /// Chunk-file bytes the recorded chunks occupy.
    pub bytes: u64,
}

/// Report the `n`-table's state under `store_dir`. `Ok(None)` means
/// the table was never started.
pub fn stat(store_dir: &Path, n: usize) -> Result<Option<StoreStat>, StoreError> {
    let dir = table_dir(store_dir, n);
    let Some(manifest) = Manifest::load(&dir)? else {
        return Ok(None);
    };
    let bytes = manifest
        .chunks
        .values()
        .map(|rec| crate::CHUNK_HEADER_LEN as u64 + rec.words as u64 * 8)
        .sum();
    Ok(Some(StoreStat {
        n: manifest.n,
        total_words: manifest.total_words,
        chunk_words: manifest.chunk_words,
        chunks_total: manifest.chunks_total(),
        chunks_present: manifest.chunks.len() as u64,
        complete: manifest.complete,
        bytes,
    }))
}

/// Where a consumer's expectation table comes from: computed in memory
/// (the historical path) or loaded from a persisted store. Both
/// produce byte-identical words; the store variant is *strict* — a
/// missing or broken table is an error, never a silent recompute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableSource {
    /// Compute the table with `expected_permutation_words`.
    Computed,
    /// Load the table from a persisted store.
    Store {
        /// The store root directory.
        dir: PathBuf,
    },
}

impl TableSource {
    /// The full `[0, n!)` table of packed permutation words.
    pub fn permutation_words(&self, n: usize) -> Result<Vec<u64>, StoreError> {
        match self {
            TableSource::Computed => Ok(hwperm_verify::expected_permutation_words(n)),
            TableSource::Store { dir } => match OpenTable::open(dir, n)? {
                Some(table) => table.load_words(),
                None => Err(StoreError::Missing {
                    dir: dir.clone(),
                    n,
                }),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, BuildOptions};
    use hwperm_verify::expected_permutation_words;

    fn built_store(tag: &str, n: usize, chunk_words: usize) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hwperm-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        build(
            &dir,
            n,
            &BuildOptions {
                jobs: 2,
                chunk_words,
                max_chunks: None,
            },
        )
        .unwrap();
        dir
    }

    #[test]
    fn range_reads_match_the_computed_table() {
        let store = built_store("reads", 5, 16);
        let table = OpenTable::open(&store, 5).unwrap().unwrap();
        let expected = expected_permutation_words(5);
        assert_eq!(table.total_words(), 120);
        assert_eq!(table.load_words().unwrap(), expected);
        // Ranges that start and end mid-chunk.
        let mut words = Vec::new();
        table.read_words_into(7..99, &mut words).unwrap();
        assert_eq!(words, expected[7..99]);
        let mut bytes = Vec::new();
        table.read_le_bytes_into(3..21, &mut bytes).unwrap();
        let mut want = Vec::new();
        for &w in &expected[3..21] {
            want.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(bytes, want);
        std::fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn open_is_none_when_cold_and_verify_reports_coverage() {
        let empty = std::env::temp_dir().join(format!("hwperm-store-cold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&empty);
        assert!(OpenTable::open(&empty, 5).unwrap().is_none());
        assert!(matches!(
            verify_store(&empty, 5),
            Err(StoreError::Missing { .. })
        ));
        assert_eq!(stat(&empty, 5).unwrap(), None);

        let store = built_store("vstat", 4, 8);
        let report = verify_store(&store, 4).unwrap();
        assert_eq!(
            report,
            StoreVerifyReport {
                n: 4,
                chunks: 3,
                words: 24,
                bytes: 3 * 36 + 24 * 8,
            }
        );
        let s = stat(&store, 4).unwrap().unwrap();
        assert!(s.complete);
        assert_eq!(s.chunks_present, 3);
        assert_eq!(s.bytes, report.bytes);
        std::fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn partial_table_is_not_warm() {
        let dir = std::env::temp_dir().join(format!("hwperm-store-part-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        build(
            &dir,
            5,
            &BuildOptions {
                jobs: 1,
                chunk_words: 32,
                max_chunks: Some(2),
            },
        )
        .unwrap();
        assert!(OpenTable::open(&dir, 5).unwrap().is_none());
        let s = stat(&dir, 5).unwrap().unwrap();
        assert!(!s.complete);
        assert_eq!(s.chunks_present, 2);
        assert_eq!(s.chunks_total, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_source_variants_agree_and_store_is_strict() {
        let store = built_store("src", 5, 32);
        let computed = TableSource::Computed.permutation_words(5).unwrap();
        let loaded = TableSource::Store { dir: store.clone() }
            .permutation_words(5)
            .unwrap();
        assert_eq!(computed, loaded);
        assert_eq!(computed, expected_permutation_words(5));

        // A store source never falls back to computing.
        let err = TableSource::Store { dir: store.clone() }
            .permutation_words(6)
            .unwrap_err();
        assert!(matches!(err, StoreError::Missing { n: 6, .. }), "{err}");

        std::fs::remove_dir_all(&store).unwrap();
    }
}
