//! Wide-word speedup of the exhaustive verification sweep.
//!
//! `simbench` measures what 64 lanes buy over scalar simulation and
//! `threadbench` measures worker-thread scaling; this module measures
//! the third axis the wide `SimWord` types open up — lane width. Each
//! cell sweeps the full `[0, n!)` converter differential over one
//! compiled tape at a chosen lane width (64 = `u64`, 256 = `W256`,
//! 512 = `W512`), worker count, and fusion setting, plus a scalar
//! baseline row per n (width 1). The methodology mirrors the sibling
//! benches: tape compiled and expectation table transposed outside the
//! timed region, `repeats` sweeps per round so spawn cost amortizes,
//! best-of rounds.
//!
//! Rendered as a text table by the `tables` binary (`widebench`) and as
//! a machine-readable record (`widebench-json`) that CI archives as
//! `BENCH_wide.json`.
//!
//! Width scaling is bounded by the host vector units: on a narrow or
//! single-core container the wide rows measure little over `u64`. The
//! ≥3× acceptance floor is therefore asserted by an `#[ignore]`d
//! release-mode test that first checks
//! `std::thread::available_parallelism()`.

use crate::threadbench::repeated_check;
use crate::{record, with_commas};
use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_logic::{Netlist, SimProgram, SimWord, Simulator, W256, W512};
use hwperm_serve::Json;
use hwperm_verify::{exhaustive_check_scalar_with, expected_permutation_words, Sweep};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Lane widths the matrix sweeps (the scalar baseline rows use 1).
pub const WIDTHS: [usize; 3] = [64, 256, 512];

/// Worker counts the matrix sweeps per width.
pub const WORKER_COUNTS: [usize; 2] = [1, 8];

/// One (n, width, workers, fused) cell of the wide-word matrix.
#[derive(Debug, Clone)]
pub struct WideRow {
    /// Permutation size.
    pub n: usize,
    /// Indices swept per pass (`n!`).
    pub indices: usize,
    /// Gate count of the swept netlist.
    pub gates: usize,
    /// Lanes per pass: 1 (scalar), 64, 256 or 512.
    pub width: usize,
    /// Worker threads the sweep was sharded over (1 for scalar).
    pub workers: usize,
    /// Whether the tape was compiled with opcode fusion.
    pub fused: bool,
    /// Tape ops actually executed per pass (shorter when fused).
    pub tape_ops: usize,
    /// Best-of-rounds time of one full sweep, in nanoseconds.
    pub ns_per_sweep: u128,
}

impl WideRow {
    /// Speedup of this row over a baseline sweep time (normally the
    /// same n's scalar row).
    pub fn speedup_over(&self, baseline_ns: u128) -> f64 {
        baseline_ns as f64 / self.ns_per_sweep.max(1) as f64
    }

    /// Permutations verified per second.
    pub fn perms_per_sec(&self) -> f64 {
        self.indices as f64 * 1e9 / self.ns_per_sweep.max(1) as f64
    }
}

fn converter(n: usize) -> (Netlist, Vec<u64>) {
    (
        converter_netlist(n, ConverterOptions::default()),
        expected_permutation_words(n),
    )
}

/// Measures the scalar (one index per tape walk) baseline row for `n`.
pub fn measure_scalar(n: usize, repeats: usize, rounds: usize) -> WideRow {
    assert!(repeats > 0 && rounds > 0);
    let (netlist, expected) = converter(n);
    let gates = netlist.len();
    let mut sim = Simulator::new(netlist);
    let tape_ops = sim.program().stats().ops;
    let mut ns_per_sweep = u128::MAX;
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..repeats {
            exhaustive_check_scalar_with(&mut sim, "index", "perm", &expected)
                .expect("pristine converter passes the scalar sweep");
        }
        ns_per_sweep = ns_per_sweep.min(t.elapsed().as_nanos() / repeats as u128);
    }
    WideRow {
        n,
        indices: expected.len(),
        gates,
        width: 1,
        workers: 1,
        fused: false,
        tape_ops,
        ns_per_sweep,
    }
}

fn measure_word<W: SimWord + Send + Sync>(
    n: usize,
    workers: usize,
    fused: bool,
    repeats: usize,
    rounds: usize,
) -> WideRow {
    assert!(repeats > 0 && rounds > 0);
    let (netlist, expected) = converter(n);
    let gates = netlist.len();
    let program: Arc<SimProgram> = if fused {
        SimProgram::compile_fused_shared(netlist)
    } else {
        SimProgram::compile_shared(netlist)
    };
    let tape_ops = program.stats().ops;
    let sweep = Sweep::<W>::from_program(program, "index", "perm", &expected);
    let mut ns_per_sweep = u128::MAX;
    for _ in 0..rounds {
        let t = Instant::now();
        repeated_check(&sweep, workers, repeats).expect("pristine converter passes the wide sweep");
        ns_per_sweep = ns_per_sweep.min(t.elapsed().as_nanos() / repeats as u128);
    }
    WideRow {
        n,
        indices: expected.len(),
        gates,
        width: W::LANES,
        workers,
        fused,
        tape_ops,
        ns_per_sweep,
    }
}

/// Measures one (n, width, workers, fused) cell; `width` must be one
/// of [`WIDTHS`].
pub fn measure(
    n: usize,
    width: usize,
    workers: usize,
    fused: bool,
    repeats: usize,
    rounds: usize,
) -> WideRow {
    match width {
        64 => measure_word::<u64>(n, workers, fused, repeats, rounds),
        256 => measure_word::<W256>(n, workers, fused, repeats, rounds),
        512 => measure_word::<W512>(n, workers, fused, repeats, rounds),
        other => panic!("unsupported lane width {other} (widths: 64 | 256 | 512)"),
    }
}

/// Default measurement matrix: a scalar baseline per n = 5, 6, 7, then
/// every width × workers × fusion cell, with repeat counts scaled to
/// keep each cell's total work comparable.
pub fn default_matrix() -> Vec<WideRow> {
    let mut rows = Vec::new();
    for (n, repeats) in [(5usize, 200usize), (6, 40), (7, 6)] {
        rows.push(measure_scalar(n, repeats.div_ceil(8), 2));
        for width in WIDTHS {
            for workers in WORKER_COUNTS {
                for fused in [false, true] {
                    rows.push(measure(n, width, workers, fused, repeats, 2));
                }
            }
        }
    }
    rows
}

/// Sweep time of the `n`'s scalar row, the per-n speedup baseline.
fn baseline_ns(rows: &[WideRow], n: usize) -> u128 {
    rows.iter()
        .find(|r| r.n == n && r.width == 1)
        .map(|r| r.ns_per_sweep)
        .expect("matrix carries a scalar baseline per n")
}

/// Text rendering for the `tables` binary.
pub fn text() -> String {
    render_text(&default_matrix())
}

fn render_text(rows: &[WideRow]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    let mut out = String::new();
    writeln!(
        out,
        "Wide-word simulation — exhaustive [0, n!) sweep across lane width, workers and fusion"
    )
    .unwrap();
    writeln!(
        out,
        "{:>3}  {:>7}  {:>6}  {:>5}  {:>7}  {:>5}  {:>8}  {:>14}  {:>8}  {:>16}",
        "n",
        "indices",
        "gates",
        "width",
        "workers",
        "fused",
        "tape ops",
        "ns/sweep",
        "speedup",
        "perm/s"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>3}  {:>7}  {:>6}  {:>5}  {:>7}  {:>5}  {:>8}  {:>14}  {:>7.2}x  {:>16}",
            r.n,
            r.indices,
            r.gates,
            r.width,
            r.workers,
            if r.fused { "yes" } else { "no" },
            r.tape_ops,
            with_commas(r.ns_per_sweep as u64),
            r.speedup_over(baseline_ns(rows, r.n)),
            with_commas(r.perms_per_sec() as u64),
        )
        .unwrap();
    }
    writeln!(
        out,
        "(speedup vs the same n's scalar sweep, best-of-2 rounds; host reports {cores} hardware threads)"
    )
    .unwrap();
    out
}

/// The `BENCH_wide.json` record (the common shape of [`crate::record`]).
pub fn json() -> String {
    render_json(&default_matrix())
}

fn render_json(rows: &[WideRow]) -> String {
    let json_rows = rows.iter().map(|r| {
        Json::obj([
            ("n", Json::from(r.n)),
            ("indices", r.indices.into()),
            ("gates", r.gates.into()),
            ("width", r.width.into()),
            ("workers", r.workers.into()),
            ("fused", Json::Bool(r.fused)),
            ("tape_ops", r.tape_ops.into()),
            ("ns_per_sweep", r.ns_per_sweep.into()),
            (
                "speedup_vs_scalar",
                Json::fixed(r.speedup_over(baseline_ns(rows, r.n)), 2),
            ),
            ("perms_per_sec", Json::fixed(r.perms_per_sec(), 0)),
        ])
    });
    record::render(
        "wide_word",
        "exhaustive converter differential, indices 0..n!",
        json_rows,
        vec![],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::check_record;

    #[test]
    fn rows_are_well_formed_at_every_width() {
        let scalar = measure_scalar(4, 2, 1);
        assert_eq!((scalar.width, scalar.workers), (1, 1));
        assert_eq!(scalar.indices, 24);
        for width in WIDTHS {
            let row = measure(4, width, 2, true, 2, 1);
            assert_eq!(row.n, 4);
            assert_eq!(row.indices, 24);
            assert_eq!(row.width, width);
            assert_eq!(row.workers, 2);
            assert!(row.fused);
            assert!(row.gates > 0);
            assert!(row.ns_per_sweep > 0);
            assert!(row.perms_per_sec() > 0.0);
        }
    }

    #[test]
    fn fused_rows_execute_a_shorter_tape() {
        // The measured region *is* the verification (a cell only
        // renders if its sweep passed), and the fused cell must
        // actually run fewer tape ops than the canonical one.
        let canonical = measure(4, 256, 1, false, 2, 1);
        let fused = measure(4, 256, 1, true, 2, 1);
        assert!(
            fused.tape_ops < canonical.tape_ops,
            "fusion saved nothing: {} vs {}",
            fused.tape_ops,
            canonical.tape_ops
        );
    }

    #[test]
    fn json_record_carries_the_stable_keys() {
        let mk = |width: usize, fused: bool, ns: u128| WideRow {
            n: 6,
            indices: 720,
            gates: 300,
            width,
            workers: 1,
            fused,
            tape_ops: if fused { 250 } else { 300 },
            ns_per_sweep: ns,
        };
        let rows = vec![
            WideRow {
                width: 1,
                ..mk(1, false, 64000)
            },
            mk(64, false, 1000),
            mk(512, true, 125),
        ];
        check_record(
            &render_json(&rows),
            "wide_word",
            &[
                "n",
                "indices",
                "gates",
                "width",
                "workers",
                "fused",
                "tape_ops",
                "ns_per_sweep",
                "speedup_vs_scalar",
                "perms_per_sec",
            ],
            &[
                &[
                    ("width", "1"),
                    ("fused", "false"),
                    ("ns_per_sweep", "64000"),
                    ("speedup_vs_scalar", "1.00"),
                ],
                &[
                    ("width", "64"),
                    ("fused", "false"),
                    ("tape_ops", "300"),
                    ("ns_per_sweep", "1000"),
                    ("speedup_vs_scalar", "64.00"),
                ],
                &[
                    ("n", "6"),
                    ("indices", "720"),
                    ("width", "512"),
                    ("workers", "1"),
                    ("fused", "true"),
                    ("tape_ops", "250"),
                    ("ns_per_sweep", "125"),
                    ("speedup_vs_scalar", "512.00"),
                    ("perms_per_sec", "5760000000"),
                ],
            ],
            &[],
        );
    }

    #[test]
    fn text_table_reports_per_n_speedups() {
        let mk = |width: usize, ns: u128| WideRow {
            n: 5,
            indices: 120,
            gates: 200,
            width,
            workers: 1,
            fused: width > 1,
            tape_ops: 180,
            ns_per_sweep: ns,
        };
        let rows = vec![mk(1, 8000), mk(64, 2000), mk(256, 1000), mk(512, 500)];
        let text = render_text(&rows);
        assert!(text.contains("1.00x"), "{text}");
        assert!(text.contains("4.00x"), "{text}");
        assert!(text.contains("8.00x"), "{text}");
        assert!(text.contains("16.00x"), "{text}");
        assert!(text.lines().count() >= 7);
    }

    /// The PR's acceptance floor: a wide sweep (256 or 512 lanes) at
    /// least 3× faster than the 64-lane sweep for n = 6 on one worker.
    /// Ignored by default — it needs an optimized build *and* real
    /// vector hardware — run it with
    /// `cargo test --release -p hwperm-bench -- --ignored`.
    #[test]
    #[ignore = "release-mode width floor; needs a multi-core vector host (run with --ignored)"]
    fn wide_sweep_meets_the_3x_floor_over_u64() {
        if cfg!(debug_assertions) {
            eprintln!(
                "skipping width floor: debug build (autovectorization is a release property)"
            );
            return;
        }
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        if cores < 4 {
            eprintln!("skipping width floor: host reports only {cores} hardware thread(s)");
            return;
        }
        let base = measure(6, 64, 1, true, 40, 3);
        let wide = [
            measure(6, 256, 1, true, 40, 3),
            measure(6, 512, 1, true, 40, 3),
        ];
        let speedup = wide
            .iter()
            .map(|r| r.speedup_over(base.ns_per_sweep))
            .fold(0.0f64, f64::max);
        assert!(
            speedup >= 3.0,
            "n=6 wide sweep only {speedup:.2}x faster than 64 lanes (floor 3x) on {cores} threads: \
             base {base:?}, wide {wide:?}"
        );
    }
}
