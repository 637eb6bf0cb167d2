//! Scalar-vs-batched netlist simulation throughput.
//!
//! The word-level `BatchSimulator` settles 64 exhaustive-check lanes
//! per netlist walk; this module measures what that buys on the Fig. 1
//! converter's full `[0, n!)` differential sweep. Both sides time the
//! steady state (simulator and expectation table prepared once, best-of
//! rounds), so the numbers are simulation throughput — not setup, not
//! software unranking.
//!
//! Rendered as a text table by the `tables` binary (`simbench`) and as
//! a machine-readable record (`simbench-json`) that CI archives as
//! `BENCH_sim.json`.

use crate::{record, with_commas};
use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_logic::{SimProgram, Simulator};
use hwperm_serve::Json;
use hwperm_verify::{exhaustive_check_scalar_with, expected_permutation_words, Sweep};
use std::fmt::Write as _;
use std::time::Instant;

/// One n's worth of scalar-vs-batched measurement.
#[derive(Debug, Clone)]
pub struct SimThroughputRow {
    /// Permutation size.
    pub n: usize,
    /// Indices swept per pass (`n!`).
    pub indices: usize,
    /// Gate count of the swept netlist.
    pub gates: usize,
    /// Best-of-rounds time of one full scalar sweep, in nanoseconds.
    pub scalar_ns: u128,
    /// Best-of-rounds time of one full batched sweep, in nanoseconds.
    pub batched_ns: u128,
}

impl SimThroughputRow {
    /// Scalar-to-batched sweep-time ratio.
    pub fn speedup(&self) -> f64 {
        self.scalar_ns as f64 / self.batched_ns.max(1) as f64
    }

    /// Permutations verified per second on the scalar path.
    pub fn scalar_perms_per_sec(&self) -> f64 {
        self.indices as f64 * 1e9 / self.scalar_ns.max(1) as f64
    }

    /// Permutations verified per second on the batched path.
    pub fn batched_perms_per_sec(&self) -> f64 {
        self.indices as f64 * 1e9 / self.batched_ns.max(1) as f64
    }
}

/// Measures one n: `repeats` consecutive sweeps per timing round, best
/// of `rounds` rounds, both paths over identical expectation data.
pub fn measure(n: usize, repeats: usize, rounds: usize) -> SimThroughputRow {
    assert!(repeats > 0 && rounds > 0);
    let netlist = converter_netlist(n, ConverterOptions::default());
    let expected = expected_permutation_words(n);
    let mut scalar = Simulator::new(netlist.clone());
    let program = SimProgram::compile_shared(netlist.clone());
    let sweep = Sweep::<u64>::from_program(program, "index", "perm", &expected);
    let mut batched = sweep.simulator();

    let mut scalar_ns = u128::MAX;
    let mut batched_ns = u128::MAX;
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..repeats {
            exhaustive_check_scalar_with(&mut scalar, "index", "perm", &expected)
                .expect("pristine converter passes the scalar sweep");
        }
        scalar_ns = scalar_ns.min(t.elapsed().as_nanos() / repeats as u128);

        let t = Instant::now();
        for _ in 0..repeats {
            sweep
                .check_batches(&mut batched, 0..sweep.batches())
                .expect("pristine converter passes the batched sweep");
        }
        batched_ns = batched_ns.min(t.elapsed().as_nanos() / repeats as u128);
    }
    SimThroughputRow {
        n,
        indices: expected.len(),
        gates: netlist.len(),
        scalar_ns,
        batched_ns,
    }
}

/// Default measurement set: n = 4, 5, 6 with repeat counts scaled to
/// keep each sweep's total work comparable.
pub fn default_rows() -> Vec<SimThroughputRow> {
    [(4usize, 2000usize), (5, 400), (6, 60)]
        .into_iter()
        .map(|(n, repeats)| measure(n, repeats, 3))
        .collect()
}

/// Text rendering for the `tables` binary.
pub fn text() -> String {
    render_text(&default_rows())
}

fn render_text(rows: &[SimThroughputRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Word-level simulation — exhaustive [0, n!) differential sweep, scalar vs 64-lane batched"
    )
    .unwrap();
    writeln!(
        out,
        "{:>3}  {:>7}  {:>6}  {:>14}  {:>14}  {:>8}  {:>16}  {:>16}",
        "n",
        "indices",
        "gates",
        "scalar ns",
        "batched ns",
        "speedup",
        "scalar perm/s",
        "batched perm/s"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>3}  {:>7}  {:>6}  {:>14}  {:>14}  {:>7.1}x  {:>16}  {:>16}",
            r.n,
            r.indices,
            r.gates,
            with_commas(r.scalar_ns as u64),
            with_commas(r.batched_ns as u64),
            r.speedup(),
            with_commas(r.scalar_perms_per_sec() as u64),
            with_commas(r.batched_perms_per_sec() as u64),
        )
        .unwrap();
    }
    writeln!(
        out,
        "(ns = one full sweep, best-of-3 rounds; the batched path settles 64 indices per netlist walk)"
    )
    .unwrap();
    out
}

/// The `BENCH_sim.json` record (the common shape of [`crate::record`]).
pub fn json() -> String {
    render_json(&default_rows())
}

fn render_json(rows: &[SimThroughputRow]) -> String {
    let rows = rows.iter().map(|r| {
        Json::obj([
            ("n", Json::from(r.n)),
            ("indices", r.indices.into()),
            ("gates", r.gates.into()),
            ("scalar_ns_per_sweep", r.scalar_ns.into()),
            ("batched_ns_per_sweep", r.batched_ns.into()),
            ("speedup", Json::fixed(r.speedup(), 2)),
            (
                "scalar_perms_per_sec",
                Json::fixed(r.scalar_perms_per_sec(), 0),
            ),
            (
                "batched_perms_per_sec",
                Json::fixed(r.batched_perms_per_sec(), 0),
            ),
        ])
    });
    record::render(
        "sim_throughput",
        "exhaustive converter differential, indices 0..n!",
        rows,
        vec![],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::check_record;

    #[test]
    fn n4_batched_sweep_meets_the_speedup_bar() {
        // The PR's acceptance criterion: the batched exhaustive n = 4
        // converter check beats the scalar path by >= 20x. Asserted at
        // full strength under the release profile (what the bench job
        // runs); the unoptimized dev profile keeps a conservative floor
        // so `cargo test` still guards against path regressions.
        let row = measure(4, 400, 4);
        let bar = if cfg!(debug_assertions) { 8.0 } else { 20.0 };
        assert!(
            row.speedup() >= bar,
            "n=4 batched sweep only {:.1}x faster than scalar (bar {bar}x): {row:?}",
            row.speedup()
        );
    }

    #[test]
    fn rows_are_well_formed() {
        let row = measure(4, 50, 2);
        assert_eq!(row.n, 4);
        assert_eq!(row.indices, 24);
        assert!(row.gates > 0);
        assert!(row.scalar_ns > 0 && row.batched_ns > 0);
        assert!(row.scalar_perms_per_sec() > 0.0);
        assert!(row.batched_perms_per_sec() > row.scalar_perms_per_sec());
    }

    #[test]
    fn json_record_carries_the_stable_keys() {
        let rows = vec![SimThroughputRow {
            n: 4,
            indices: 24,
            gates: 52,
            scalar_ns: 6000,
            batched_ns: 200,
        }];
        check_record(
            &render_json(&rows),
            "sim_throughput",
            &[
                "n",
                "indices",
                "gates",
                "scalar_ns_per_sweep",
                "batched_ns_per_sweep",
                "speedup",
                "scalar_perms_per_sec",
                "batched_perms_per_sec",
            ],
            &[&[
                ("n", "4"),
                ("indices", "24"),
                ("gates", "52"),
                ("scalar_ns_per_sweep", "6000"),
                ("batched_ns_per_sweep", "200"),
                ("speedup", "30.00"),
                ("scalar_perms_per_sec", "4000000"),
                ("batched_perms_per_sec", "120000000"),
            ]],
            &[],
        );
    }

    #[test]
    fn text_table_lists_every_row() {
        let rows = vec![
            SimThroughputRow {
                n: 4,
                indices: 24,
                gates: 52,
                scalar_ns: 6000,
                batched_ns: 200,
            },
            SimThroughputRow {
                n: 5,
                indices: 120,
                gates: 104,
                scalar_ns: 48000,
                batched_ns: 600,
            },
        ];
        let text = render_text(&rows);
        assert!(text.contains("30.0x"));
        assert!(text.contains("80.0x"));
        assert!(text.lines().count() >= 5);
    }
}
