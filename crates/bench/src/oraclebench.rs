//! Oracle-generation throughput: how fast the software side can
//! produce the expectation tables the exhaustive sweeps compare
//! against.
//!
//! `simbench` and `threadbench` measure the *simulation* side of the
//! differential checks; this module measures the other half — the
//! packed-word table `[0, n!)` itself — across three generation
//! strategies:
//!
//! - `naive`: one full factoradic decode + pack per index (what
//!   `expected_permutation_words` did before the block engine);
//! - `block`: the [`hwperm_factoradic::BlockDecoder`] — one true
//!   unranking per table, in-place lexicographic successor steps for
//!   the rest;
//! - `par-K`: the block engine sharded over `K` worker threads
//!   ([`expected_permutation_words_parallel`]), byte-identical output.
//!
//! Rendered as a text table by the `tables` binary (`oraclebench`) and
//! as a machine-readable record (`oraclebench-json`) that CI archives
//! as `BENCH_oracle.json` next to `BENCH_sim.json` and
//! `BENCH_parallel.json`.

use crate::{record, with_commas};
use hwperm_factoradic::unrank_u64;
use hwperm_serve::Json;
use hwperm_verify::{expected_permutation_words, expected_permutation_words_parallel};
use std::fmt::Write as _;
use std::time::Instant;

/// Worker counts the sharded generation column sweeps.
pub const ORACLE_WORKER_COUNTS: [usize; 3] = [2, 4, 8];

/// One (n, method) cell of the oracle-generation matrix.
#[derive(Debug, Clone)]
pub struct OracleRow {
    /// Permutation size.
    pub n: usize,
    /// Table entries generated (`n!`).
    pub indices: usize,
    /// Generation strategy: `"naive"`, `"block"`, or `"par-K"`.
    pub method: String,
    /// Worker threads (1 for the single-threaded methods).
    pub workers: usize,
    /// Best-of-rounds time to generate the full table, in nanoseconds.
    pub ns_per_table: u128,
}

impl OracleRow {
    /// Speedup of this row over a baseline table time (normally the
    /// same n's naive row).
    pub fn speedup_over(&self, baseline_ns: u128) -> f64 {
        baseline_ns as f64 / self.ns_per_table.max(1) as f64
    }

    /// Permutations generated per second.
    pub fn perms_per_sec(&self) -> f64 {
        self.indices as f64 * 1e9 / self.ns_per_table.max(1) as f64
    }
}

/// The pre-block-engine path: one factoradic decode, one `Permutation`
/// allocation, and one pack per index. Kept callable so the matrix
/// always carries its own baseline.
pub fn naive_table(n: usize) -> Vec<u64> {
    let total: u64 = (1..=n as u64).product();
    (0..total)
        .map(|i| {
            unrank_u64(n, i)
                .pack()
                .to_u64()
                .expect("packed width <= 64 for n <= 16")
        })
        .collect()
}

fn time_best_of(rounds: usize, mut f: impl FnMut() -> Vec<u64>) -> u128 {
    assert!(rounds > 0);
    let mut best = u128::MAX;
    for _ in 0..rounds {
        let t = Instant::now();
        let table = f();
        best = best.min(t.elapsed().as_nanos());
        std::hint::black_box(table);
    }
    best
}

/// Measures one (n, method) cell, best of `rounds` full-table builds.
/// `workers == 1` selects the method by name (`"naive"` or `"block"`);
/// `workers > 1` measures the sharded path.
pub fn measure(n: usize, method: &str, workers: usize, rounds: usize) -> OracleRow {
    let ns_per_table = match (method, workers) {
        ("naive", 1) => time_best_of(rounds, || naive_table(n)),
        ("block", 1) => time_best_of(rounds, || expected_permutation_words(n)),
        ("par", w) if w > 1 => time_best_of(rounds, || expected_permutation_words_parallel(n, w)),
        _ => panic!("unknown oracle method {method:?} with {workers} workers"),
    };
    OracleRow {
        n,
        indices: (1..=n as u64).product::<u64>() as usize,
        method: if workers > 1 {
            format!("par-{workers}")
        } else {
            method.to_string()
        },
        workers,
        ns_per_table,
    }
}

/// Default measurement matrix: n = 6..9, naive vs block vs sharded
/// block at [`ORACLE_WORKER_COUNTS`].
pub fn default_matrix() -> Vec<OracleRow> {
    let mut rows = Vec::new();
    for n in 6usize..=9 {
        // Small tables finish in microseconds; more rounds stabilize
        // the best-of.
        let rounds = if n <= 7 { 9 } else { 3 };
        rows.push(measure(n, "naive", 1, rounds));
        rows.push(measure(n, "block", 1, rounds));
        for workers in ORACLE_WORKER_COUNTS {
            rows.push(measure(n, "par", workers, rounds));
        }
    }
    rows
}

/// Table time of the `n`'s naive row, the per-n speedup baseline.
fn baseline_ns(rows: &[OracleRow], n: usize) -> u128 {
    rows.iter()
        .find(|r| r.n == n && r.method == "naive")
        .map(|r| r.ns_per_table)
        .expect("matrix carries a naive baseline per n")
}

/// Text rendering for the `tables` binary.
pub fn text() -> String {
    render_text(&default_matrix())
}

fn render_text(rows: &[OracleRow]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    let mut out = String::new();
    writeln!(
        out,
        "Oracle throughput — packed expectation table [0, n!), per-index unranking vs block decoding"
    )
    .unwrap();
    writeln!(
        out,
        "{:>3}  {:>8}  {:>7}  {:>14}  {:>8}  {:>16}",
        "n", "indices", "method", "ns/table", "speedup", "perm/s"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>3}  {:>8}  {:>7}  {:>14}  {:>7.2}x  {:>16}",
            r.n,
            r.indices,
            r.method,
            with_commas(r.ns_per_table as u64),
            r.speedup_over(baseline_ns(rows, r.n)),
            with_commas(r.perms_per_sec() as u64),
        )
        .unwrap();
    }
    writeln!(
        out,
        "(speedup vs the same n's naive per-index row, best-of-rounds; host reports {cores} hardware threads)"
    )
    .unwrap();
    out
}

/// The `BENCH_oracle.json` record (the common shape of [`crate::record`]).
pub fn json() -> String {
    render_json(&default_matrix())
}

fn render_json(rows: &[OracleRow]) -> String {
    let json_rows = rows.iter().map(|r| {
        Json::obj([
            ("n", Json::from(r.n)),
            ("indices", r.indices.into()),
            ("method", r.method.as_str().into()),
            ("workers", r.workers.into()),
            ("ns_per_table", r.ns_per_table.into()),
            (
                "speedup_vs_naive",
                Json::fixed(r.speedup_over(baseline_ns(rows, r.n)), 2),
            ),
            ("perms_per_sec", Json::fixed(r.perms_per_sec(), 0)),
        ])
    });
    record::render(
        "oracle_throughput",
        "packed expectation table generation, indices 0..n!",
        json_rows,
        vec![],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::check_record;

    #[test]
    fn rows_are_well_formed() {
        let naive = measure(5, "naive", 1, 2);
        assert_eq!(naive.n, 5);
        assert_eq!(naive.indices, 120);
        assert_eq!(naive.method, "naive");
        assert!(naive.ns_per_table > 0);
        assert!(naive.perms_per_sec() > 0.0);
        let par = measure(5, "par", 2, 2);
        assert_eq!(par.method, "par-2");
        assert_eq!(par.workers, 2);
    }

    #[test]
    fn measured_methods_generate_identical_tables() {
        // The matrix times three paths; they must be the same table.
        let reference = naive_table(6);
        assert_eq!(expected_permutation_words(6), reference);
        for workers in ORACLE_WORKER_COUNTS {
            assert_eq!(expected_permutation_words_parallel(6, workers), reference);
        }
    }

    #[test]
    #[should_panic(expected = "unknown oracle method")]
    fn unknown_method_rejected() {
        measure(5, "quantum", 1, 1);
    }

    #[test]
    fn json_record_carries_the_stable_keys() {
        let rows = vec![
            OracleRow {
                n: 8,
                indices: 40320,
                method: "naive".into(),
                workers: 1,
                ns_per_table: 10_000,
            },
            OracleRow {
                n: 8,
                indices: 40320,
                method: "par-4".into(),
                workers: 4,
                ns_per_table: 1_000,
            },
        ];
        check_record(
            &render_json(&rows),
            "oracle_throughput",
            &[
                "n",
                "indices",
                "method",
                "workers",
                "ns_per_table",
                "speedup_vs_naive",
                "perms_per_sec",
            ],
            &[
                &[
                    ("n", "8"),
                    ("method", "\"naive\""),
                    ("workers", "1"),
                    ("ns_per_table", "10000"),
                    ("speedup_vs_naive", "1.00"),
                ],
                &[
                    ("n", "8"),
                    ("indices", "40320"),
                    ("method", "\"par-4\""),
                    ("workers", "4"),
                    ("ns_per_table", "1000"),
                    ("speedup_vs_naive", "10.00"),
                    ("perms_per_sec", "40320000000"),
                ],
            ],
            &[],
        );
    }

    #[test]
    fn text_table_reports_per_n_speedups() {
        let mk = |method: &str, workers: usize, ns: u128| OracleRow {
            n: 7,
            indices: 5040,
            method: method.into(),
            workers,
            ns_per_table: ns,
        };
        let rows = vec![mk("naive", 1, 60_000), mk("block", 1, 6_000)];
        let text = render_text(&rows);
        assert!(text.contains("1.00x"), "{text}");
        assert!(text.contains("10.00x"), "{text}");
        assert!(text.lines().count() >= 5);
    }

    /// The PR's acceptance floor: block decoding ≥ 5× faster than
    /// per-index unranking for the n = 8 table in release mode. Ignored
    /// by default — amortization is a release-build property — run it
    /// with `cargo test --release -p hwperm-bench -- --ignored`.
    #[test]
    #[ignore = "release-mode throughput floor (run with --ignored)"]
    fn n8_block_decode_meets_the_5x_floor() {
        if cfg!(debug_assertions) {
            eprintln!(
                "skipping throughput floor: debug build (amortization is a release property)"
            );
            return;
        }
        let naive = measure(8, "naive", 1, 5);
        let block = measure(8, "block", 1, 5);
        let speedup = block.speedup_over(naive.ns_per_table);
        assert!(
            speedup >= 5.0,
            "n=8 block decode only {speedup:.2}x faster than per-index unranking (floor 5x): \
             naive {naive:?}, block {block:?}"
        );
    }
}
