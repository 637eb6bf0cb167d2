//! Persisted-store economics: what the on-disk oracle store buys.
//!
//! The store trades a one-time cold build (block-decode + hash +
//! chunked write) for warm starts that are I/O bound instead of
//! compute bound. This module times the three phases of that trade at
//! n = 7 and n = 8 — cold build, warm load (read + hash-verify), and
//! the in-memory recompute a storeless run pays — plus the end-to-end
//! converter sweep fed by a computed vs a store-backed expectation
//! table, which must agree on every word. The acceptance floor (a warm
//! load at n = 8 beats recompute by at least 5×) lives here as an
//! ignored release-mode test, mirroring the other bench floors.
//!
//! Rendered as a text table by the `tables` binary (`storebench`) and
//! as a machine-readable record (`storebench-json`) that CI archives as
//! `BENCH_store.json`.

use crate::{record, with_commas};
use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_serve::Json;
use hwperm_store::{build, BuildOptions, OpenTable, TableSource};
use hwperm_verify::Sweep;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Permutation sizes the sweep covers — the largest tables the store
/// caps at are where the cold/warm asymmetry matters.
pub const STORE_BENCH_SIZES: [usize; 2] = [7, 8];

/// One (n, phase) cell of the store-economics matrix.
#[derive(Debug, Clone)]
pub struct StoreRow {
    /// Permutation size.
    pub n: usize,
    /// Which phase this row times: `build-cold`, `load-warm`,
    /// `recompute`, `sweep-computed` or `sweep-store`.
    pub phase: &'static str,
    /// Timed repetitions (the row keeps the best).
    pub rounds: usize,
    /// Packed words the phase produced or consumed.
    pub words: u64,
    /// On-disk bytes touched, zero for the in-memory phases.
    pub bytes: u64,
    /// Best wall-clock nanoseconds across the rounds.
    pub ns_best: u128,
}

impl StoreRow {
    /// Packed words per second at the best-round rate.
    pub fn words_per_sec(&self) -> f64 {
        self.words as f64 * 1e9 / self.ns_best.max(1) as f64
    }
}

fn factorial(n: usize) -> u64 {
    (1..=n as u64).product()
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hwperm-storebench-{tag}-{}", std::process::id()))
}

/// Times a cold build: each round starts from an empty directory, so
/// the measurement covers decode, hashing, chunk writes and the
/// manifest protocol end to end.
pub fn measure_build_cold(n: usize, dir: &Path, rounds: usize) -> StoreRow {
    let mut best = u128::MAX;
    let mut bytes = 0;
    for _ in 0..rounds.max(1) {
        let _ = std::fs::remove_dir_all(dir);
        let start = Instant::now();
        let report = build(dir, n, &BuildOptions::default()).expect("cold build");
        best = best.min(start.elapsed().as_nanos());
        assert!(report.complete, "cold build must complete");
        bytes = report.bytes_written;
    }
    StoreRow {
        n,
        phase: "build-cold",
        rounds: rounds.max(1),
        words: factorial(n),
        bytes,
        ns_best: best,
    }
}

/// Times a warm load: open the manifest, read every chunk, verify every
/// content hash, return the full word table. The directory must hold a
/// complete table (run [`measure_build_cold`] first).
pub fn measure_load_warm(n: usize, dir: &Path, rounds: usize) -> StoreRow {
    let mut best = u128::MAX;
    let mut bytes = 0;
    let mut words = 0;
    for _ in 0..rounds.max(1) {
        let start = Instant::now();
        let table = OpenTable::open(dir, n)
            .expect("open store")
            .expect("store must be warm");
        let loaded = table.load_words().expect("load store table");
        best = best.min(start.elapsed().as_nanos());
        words = loaded.len() as u64;
        bytes = table.chunks_total() * hwperm_store::CHUNK_HEADER_LEN as u64 + words * 8;
    }
    StoreRow {
        n,
        phase: "load-warm",
        rounds: rounds.max(1),
        words,
        bytes,
        ns_best: best,
    }
}

/// Times the storeless path: recompute the full expectation table in
/// memory through the block decoder, exactly what `verify --batch`
/// does without `--store`.
pub fn measure_recompute(n: usize, rounds: usize) -> StoreRow {
    let mut best = u128::MAX;
    let mut words = 0;
    for _ in 0..rounds.max(1) {
        let start = Instant::now();
        let table = TableSource::Computed
            .permutation_words(n)
            .expect("recompute table");
        best = best.min(start.elapsed().as_nanos());
        words = table.len() as u64;
    }
    StoreRow {
        n,
        phase: "recompute",
        rounds: rounds.max(1),
        words,
        bytes: 0,
        ns_best: best,
    }
}

/// Times an end-to-end converter sweep fed by `source`: acquire the
/// expectation table (computed or store-backed), then run the batched
/// exhaustive check against the gate-level netlist.
pub fn measure_sweep(n: usize, source: &TableSource, phase: &'static str) -> StoreRow {
    let netlist = converter_netlist(n, ConverterOptions::default());
    let start = Instant::now();
    let expected = source.permutation_words(n).expect("expectation table");
    Sweep::<u64>::new(&netlist, "index", "perm", &expected)
        .check(1)
        .expect("converter sweep");
    let ns_best = start.elapsed().as_nanos();
    StoreRow {
        n,
        phase,
        rounds: 1,
        words: expected.len() as u64,
        bytes: 0,
        ns_best,
    }
}

/// Default measurement matrix: for each n in [`STORE_BENCH_SIZES`],
/// cold build, warm load and recompute (best of 3), then the two
/// end-to-end sweeps. Scratch stores live under the system temp
/// directory and are removed before returning.
pub fn default_matrix() -> Vec<StoreRow> {
    let mut rows = Vec::new();
    for &n in &STORE_BENCH_SIZES {
        let dir = scratch_dir(&format!("matrix-n{n}"));
        rows.push(measure_build_cold(n, &dir, 1));
        rows.push(measure_load_warm(n, &dir, 3));
        rows.push(measure_recompute(n, 3));
        rows.push(measure_sweep(n, &TableSource::Computed, "sweep-computed"));
        rows.push(measure_sweep(
            n,
            &TableSource::Store { dir: dir.clone() },
            "sweep-store",
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
    rows
}

/// Warm-load speedup over recompute for the given n, reading both
/// phases out of a measured matrix. Returns `None` if either row is
/// missing.
pub fn warm_speedup(rows: &[StoreRow], n: usize) -> Option<f64> {
    let find = |phase: &str| {
        rows.iter()
            .find(|r| r.n == n && r.phase == phase)
            .map(|r| r.ns_best)
    };
    let warm = find("load-warm")?;
    let recompute = find("recompute")?;
    Some(recompute as f64 / warm.max(1) as f64)
}

/// Text rendering for the `tables` binary.
pub fn text() -> String {
    render_text(&default_matrix())
}

fn render_text(rows: &[StoreRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Persisted-store economics — cold build vs warm load vs in-memory recompute"
    )
    .unwrap();
    writeln!(
        out,
        "{:>3}  {:>14}  {:>7}  {:>10}  {:>11}  {:>12}  {:>16}",
        "n", "phase", "rounds", "words", "bytes", "ms (best)", "words/s"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>3}  {:>14}  {:>7}  {:>10}  {:>11}  {:>12.3}  {:>16}",
            r.n,
            r.phase,
            r.rounds,
            with_commas(r.words),
            with_commas(r.bytes),
            r.ns_best as f64 / 1e6,
            with_commas(r.words_per_sec() as u64),
        )
        .unwrap();
    }
    for &n in &STORE_BENCH_SIZES {
        if let Some(speedup) = warm_speedup(rows, n) {
            writeln!(
                out,
                "(n = {n}: warm load is {speedup:.2}x the recompute rate)"
            )
            .unwrap();
        }
    }
    out
}

/// The `BENCH_store.json` record (the common shape of [`crate::record`]).
pub fn json() -> String {
    render_json(&default_matrix())
}

fn render_json(rows: &[StoreRow]) -> String {
    let sizes = STORE_BENCH_SIZES.iter().copied().collect();
    let speedups = STORE_BENCH_SIZES
        .iter()
        .filter_map(|&n| warm_speedup(rows, n).map(|s| (format!("n{n}"), Json::fixed(s, 3))));
    let summary = vec![("sizes", sizes), ("warm_speedup", Json::obj(speedups))];
    let rows = rows.iter().map(|r| {
        Json::obj([
            ("n", Json::from(r.n)),
            ("phase", r.phase.into()),
            ("rounds", r.rounds.into()),
            ("words", r.words.into()),
            ("bytes", r.bytes.into()),
            ("ns_best", r.ns_best.into()),
            ("words_per_sec", Json::fixed(r.words_per_sec(), 0)),
        ])
    });
    record::render(
        "store_economics",
        "cold build vs warm load vs recompute, plus computed vs store-backed converter sweeps",
        rows,
        summary,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::check_record;

    #[test]
    fn small_n_matrix_cells_measure_and_agree() {
        // n = 5 keeps the debug run fast; the phases must all see the
        // same 120-word table.
        let dir = scratch_dir("test-cells");
        let built = measure_build_cold(5, &dir, 1);
        let warm = measure_load_warm(5, &dir, 2);
        let recompute = measure_recompute(5, 2);
        let sweep = measure_sweep(5, &TableSource::Store { dir: dir.clone() }, "sweep-store");
        std::fs::remove_dir_all(&dir).unwrap();
        for row in [&built, &warm, &recompute, &sweep] {
            assert_eq!(row.words, 120, "{row:?}");
            assert!(row.ns_best > 0, "{row:?}");
            assert!(row.words_per_sec() > 0.0, "{row:?}");
        }
        assert!(built.bytes > 120 * 8, "build reports chunk bytes");
        assert_eq!(warm.bytes, built.bytes, "load touches what build wrote");
    }

    #[test]
    fn warm_speedup_reads_the_right_rows() {
        let rows = vec![
            StoreRow {
                n: 8,
                phase: "load-warm",
                rounds: 3,
                words: 40_320,
                bytes: 322_560,
                ns_best: 1_000_000,
            },
            StoreRow {
                n: 8,
                phase: "recompute",
                rounds: 3,
                words: 40_320,
                bytes: 0,
                ns_best: 7_000_000,
            },
        ];
        assert_eq!(warm_speedup(&rows, 8), Some(7.0));
        assert_eq!(warm_speedup(&rows, 7), None);
    }

    #[test]
    fn json_record_carries_the_stable_keys() {
        let rows = vec![StoreRow {
            n: 8,
            phase: "load-warm",
            rounds: 3,
            words: 40_320,
            bytes: 322_560,
            ns_best: 1_000_000,
        }];
        check_record(
            &render_json(&rows),
            "store_economics",
            &[
                "n",
                "phase",
                "rounds",
                "words",
                "bytes",
                "ns_best",
                "words_per_sec",
            ],
            &[&[
                ("n", "8"),
                ("phase", "\"load-warm\""),
                ("rounds", "3"),
                ("words", "40320"),
                ("bytes", "322560"),
                ("ns_best", "1000000"),
                ("words_per_sec", "40320000"),
            ]],
            &[("sizes", "[7,8]"), ("warm_speedup", "{}")],
        );
    }

    #[test]
    fn text_table_reports_the_speedup_line() {
        let rows = vec![
            StoreRow {
                n: 7,
                phase: "load-warm",
                rounds: 3,
                words: 5_040,
                bytes: 40_356,
                ns_best: 1_000_000,
            },
            StoreRow {
                n: 7,
                phase: "recompute",
                rounds: 3,
                words: 5_040,
                bytes: 0,
                ns_best: 6_000_000,
            },
        ];
        let text = render_text(&rows);
        assert!(text.contains("load-warm"), "{text}");
        assert!(text.contains("warm load is 6.00x"), "{text}");
    }

    /// The PR's acceptance floor: at n = 8, loading the warm store
    /// (read + hash-verify every chunk) beats recomputing the table
    /// in memory by at least 5×. Ignored by default — I/O-vs-compute
    /// ratios are a release-build property — run it with
    /// `cargo test --release -p hwperm-bench -- --ignored`.
    #[test]
    #[ignore = "release-mode store floor (run with --ignored)"]
    fn n8_warm_store_load_meets_the_5x_floor() {
        if cfg!(debug_assertions) {
            eprintln!("skipping store floor: debug build (decode cost is a release property)");
            return;
        }
        let dir = scratch_dir("floor-n8");
        let _ = measure_build_cold(8, &dir, 1);
        let warm = measure_load_warm(8, &dir, 5);
        let recompute = measure_recompute(8, 5);
        std::fs::remove_dir_all(&dir).unwrap();
        let speedup = recompute.ns_best as f64 / warm.ns_best.max(1) as f64;
        assert!(
            speedup >= 5.0,
            "warm store load only {speedup:.2}x faster than recompute at n = 8 (floor 5x): \
             warm {warm:?}, recompute {recompute:?}"
        );
    }
}
