//! SAT proof-obligation throughput.
//!
//! `faultbench` times the simulation-based campaigns; this module times
//! the formal side — the CDCL obligations `hwperm prove` discharges.
//! Each cell encodes one obligation to CNF (Tseitin over the levelized
//! tape order), runs the solver to Unsat, and reports formula size and
//! search effort alongside wall-clock time, so a regression in either
//! the encoder (clause blow-up) or the solver (conflict blow-up) is
//! visible in the same table.
//!
//! Rendered as a text table by the `tables` binary (`provebench`) and
//! as a machine-readable record (`provebench-json`) that CI archives
//! as `BENCH_prove.json` next to the other bench artifacts.

use crate::{record, with_commas};
use hwperm_circuits::{converter_netlist, ConverterOptions, PermToIndexConverter};
use hwperm_serve::Json;
use hwperm_verify::{
    expected_permutation_words, prove_against_table, prove_inverse_identity,
    prove_pipelined_equivalent, ProveOutcome,
};
use std::fmt::Write as _;
use std::time::Instant;

/// One (n, obligation) cell of the proof-throughput matrix.
#[derive(Debug, Clone)]
pub struct ProveBenchRow {
    /// Permutation size.
    pub n: usize,
    /// Obligation name: `"table"`, `"inverse"`, or `"unroll"`.
    pub obligation: &'static str,
    /// CNF variables the encoding produced.
    pub vars: usize,
    /// CNF clauses the encoding produced.
    pub clauses: usize,
    /// Conflicts the CDCL search needed to close the proof.
    pub conflicts: u64,
    /// Decisions the CDCL search made.
    pub decisions: u64,
    /// Best-of-rounds time of one encode+solve, in nanoseconds.
    pub ns_per_proof: u128,
}

impl ProveBenchRow {
    /// Conflicts resolved per second of proof time.
    pub fn conflicts_per_sec(&self) -> f64 {
        self.conflicts as f64 * 1e9 / self.ns_per_proof.max(1) as f64
    }
}

/// Discharges the named obligation once and returns the outcome. The
/// obligations mirror `hwperm prove`: `table` proves the combinational
/// converter against the block-decoded oracle, `inverse` proves
/// rank ∘ unrank = identity, `unroll` proves the pipelined converter
/// equals its combinational twin by (n−1)-step unrolling.
fn run_obligation(n: usize, obligation: &str) -> ProveOutcome {
    let factorial: u64 = (1..=n as u64).product();
    let comb = converter_netlist(n, ConverterOptions::default());
    match obligation {
        "table" => {
            let expected = expected_permutation_words(n);
            prove_against_table(&comb, "index", "perm", &expected)
        }
        "inverse" => {
            let rank = PermToIndexConverter::new(n).netlist().clone();
            prove_inverse_identity(
                &comb, "index", "perm", &rank, "perm", "index", factorial, None,
            )
        }
        "unroll" => {
            let pipe = converter_netlist(
                n,
                ConverterOptions {
                    pipelined: true,
                    perm_input_port: false,
                },
            );
            prove_pipelined_equivalent(&pipe, &comb, "index", "perm", n - 1, factorial, None)
        }
        other => panic!("unknown obligation {other:?}"),
    }
    .expect("bench obligations are well-formed")
}

/// Measures one cell: best of `rounds` encode+solve runs. Netlist
/// construction and oracle-table generation are *inside* the measured
/// region — a proof is a cold-start workload like a fault campaign.
pub fn measure(n: usize, obligation: &'static str, rounds: usize) -> ProveBenchRow {
    assert!(rounds > 0);
    let mut ns_per_proof = u128::MAX;
    let mut outcome = None;
    for _ in 0..rounds {
        let t = Instant::now();
        let o = run_obligation(n, obligation);
        ns_per_proof = ns_per_proof.min(t.elapsed().as_nanos());
        outcome = Some(o);
    }
    let outcome = outcome.expect("rounds > 0");
    assert!(
        matches!(outcome, ProveOutcome::Proved(_)),
        "bench obligation {obligation} at n = {n} did not prove: {outcome:?}"
    );
    let s = outcome.stats();
    ProveBenchRow {
        n,
        obligation,
        vars: s.vars,
        clauses: s.clauses,
        conflicts: s.conflicts,
        decisions: s.decisions,
        ns_per_proof,
    }
}

/// Default measurement matrix: n = 4, 5, 6, each with the table,
/// inverse-identity, and unrolling obligations.
pub fn default_matrix() -> Vec<ProveBenchRow> {
    let mut rows = Vec::new();
    for n in [4usize, 5, 6] {
        for obligation in ["table", "inverse", "unroll"] {
            rows.push(measure(n, obligation, 3));
        }
    }
    rows
}

/// Text rendering for the `tables` binary.
pub fn text() -> String {
    render_text(&default_matrix())
}

fn render_text(rows: &[ProveBenchRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "SAT proof throughput — CDCL obligations of `hwperm prove` (encode + solve to Unsat)"
    )
    .unwrap();
    writeln!(
        out,
        "{:>3}  {:>10}  {:>10}  {:>11}  {:>10}  {:>10}  {:>14}  {:>12}",
        "n", "obligation", "vars", "clauses", "conflicts", "decisions", "ns/proof", "conflicts/s"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>3}  {:>10}  {:>10}  {:>11}  {:>10}  {:>10}  {:>14}  {:>12}",
            r.n,
            r.obligation,
            with_commas(r.vars as u64),
            with_commas(r.clauses as u64),
            with_commas(r.conflicts),
            with_commas(r.decisions),
            with_commas(r.ns_per_proof as u64),
            with_commas(r.conflicts_per_sec() as u64),
        )
        .unwrap();
    }
    writeln!(
        out,
        "(best-of-3 rounds; every obligation must close as Unsat)"
    )
    .unwrap();
    out
}

/// The `BENCH_prove.json` record (the common shape of [`crate::record`]).
pub fn json() -> String {
    render_json(&default_matrix())
}

fn render_json(rows: &[ProveBenchRow]) -> String {
    let rows = rows.iter().map(|r| {
        Json::obj([
            ("n", Json::from(r.n)),
            ("obligation", r.obligation.into()),
            ("vars", r.vars.into()),
            ("clauses", r.clauses.into()),
            ("conflicts", r.conflicts.into()),
            ("decisions", r.decisions.into()),
            ("ns_per_proof", r.ns_per_proof.into()),
            ("conflicts_per_sec", Json::fixed(r.conflicts_per_sec(), 0)),
        ])
    });
    record::render(
        "sat_prove",
        "CDCL proof obligations of hwperm prove (table, inverse, unroll)",
        rows,
        vec![],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::check_record;

    #[test]
    fn rows_are_well_formed() {
        let row = measure(4, "table", 1);
        assert_eq!(row.n, 4);
        assert_eq!(row.obligation, "table");
        assert!(row.vars > 0);
        assert!(row.clauses > row.vars, "Tseitin emits >1 clause per gate");
        assert!(row.ns_per_proof > 0);
    }

    #[test]
    fn every_default_obligation_proves_at_n3() {
        for obligation in ["table", "inverse", "unroll"] {
            let row = measure(3, obligation, 1);
            assert!(row.vars > 0, "{obligation}: {row:?}");
        }
    }

    #[test]
    fn json_record_carries_the_stable_keys() {
        let mk = |n: usize, obligation: &'static str| ProveBenchRow {
            n,
            obligation,
            vars: 1_000,
            clauses: 3_500,
            conflicts: 42,
            decisions: 99,
            ns_per_proof: 2_000_000,
        };
        let rows = vec![mk(5, "table"), mk(5, "unroll")];
        check_record(
            &render_json(&rows),
            "sat_prove",
            &[
                "n",
                "obligation",
                "vars",
                "clauses",
                "conflicts",
                "decisions",
                "ns_per_proof",
                "conflicts_per_sec",
            ],
            &[
                &[
                    ("n", "5"),
                    ("obligation", "\"table\""),
                    ("vars", "1000"),
                    ("clauses", "3500"),
                    ("conflicts", "42"),
                    ("decisions", "99"),
                    ("ns_per_proof", "2000000"),
                    ("conflicts_per_sec", "21000"),
                ],
                &[("obligation", "\"unroll\"")],
            ],
            &[],
        );
    }

    #[test]
    fn text_table_lists_every_row() {
        let mk = |n: usize, obligation: &'static str| ProveBenchRow {
            n,
            obligation,
            vars: 10,
            clauses: 30,
            conflicts: 5,
            decisions: 7,
            ns_per_proof: 1_000,
        };
        let rows = vec![mk(4, "table"), mk(4, "inverse"), mk(4, "unroll")];
        let text = render_text(&rows);
        for obligation in ["table", "inverse", "unroll"] {
            assert!(text.contains(obligation), "{text}");
        }
        assert!(text.contains("ns/proof"), "{text}");
    }

    /// The PR's acceptance floor: the full n = 8 converter table proof
    /// (Fig. 1 at the largest single-u64-index size the oracle sweeps)
    /// closes as Unsat inside a 10-minute wall-clock budget. Measured
    /// at ~83 s on the development host, so the budget carries ~7×
    /// headroom for slow CI runners. Ignored by default — it needs an
    /// optimized build — run it with
    /// `cargo test --release -p hwperm-bench -- --ignored`.
    #[test]
    #[ignore = "release-mode proof floor (run with --ignored)"]
    fn n8_converter_table_proof_meets_the_wall_clock_floor() {
        if cfg!(debug_assertions) {
            eprintln!("skipping proof floor: debug build (solver speed is a release property)");
            return;
        }
        let budget = std::time::Duration::from_secs(600);
        let t = Instant::now();
        let row = measure(8, "table", 1);
        let elapsed = t.elapsed();
        assert!(
            elapsed <= budget,
            "n=8 converter table proof took {elapsed:?} (budget {budget:?}): {row:?}"
        );
    }
}
