//! Throughput of the single-stuck-at fault campaign engine.
//!
//! `simbench` times fault-free simulation and `threadbench` times the
//! sharded golden sweep; this module times the third workload the tape
//! was built for — exhaustive fault campaigns. Each cell runs the full
//! single-stuck-at universe of the Fig. 1 converter against the
//! block-decoded oracle with the permutation-validity predicate
//! enabled (the configuration `hwperm faults` ships), comparing the
//! scalar one-fault-at-a-time reference engine against the 64-lane
//! one-fault-per-lane batched engine at 1 and 8 workers.
//!
//! Rendered as a text table by the `tables` binary (`faultbench`) and
//! as a machine-readable record (`faultbench-json`) that CI archives
//! as `BENCH_faults.json` next to the other bench artifacts.

use crate::{record, with_commas};
use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_perm::packed_is_permutation_u64;
use hwperm_serve::Json;
use hwperm_verify::{
    expected_permutation_words, single_stuck_at_universe, stuck_at_campaign_scalar,
    stuck_at_campaign_wide, CampaignReport,
};
use std::fmt::Write as _;
use std::time::Instant;

/// One (n, engine) cell of the campaign-throughput matrix.
#[derive(Debug, Clone)]
pub struct FaultBenchRow {
    /// Permutation size.
    pub n: usize,
    /// Faults in the single-stuck-at universe (`2 × nets`).
    pub faults: usize,
    /// Indices swept per fault (`n!`).
    pub indices: usize,
    /// Campaign engine: `"scalar"` or `"batched"`.
    pub engine: &'static str,
    /// Worker threads (always 1 for the scalar engine).
    pub workers: usize,
    /// Best-of-rounds time of one full campaign, in nanoseconds.
    pub ns_per_campaign: u128,
    /// Fault coverage the campaign reported, in percent.
    pub coverage_percent: f64,
}

impl FaultBenchRow {
    /// Speedup of this row over a baseline campaign time (normally the
    /// same n's scalar row).
    pub fn speedup_over(&self, baseline_ns: u128) -> f64 {
        baseline_ns as f64 / self.ns_per_campaign.max(1) as f64
    }

    /// Fault verdicts settled per second.
    pub fn faults_per_sec(&self) -> f64 {
        self.faults as f64 * 1e9 / self.ns_per_campaign.max(1) as f64
    }
}

/// Runs one converter campaign with the engine named by
/// (`batched`, `workers`) and returns the report.
fn run_campaign(n: usize, batched: bool, workers: usize) -> CampaignReport {
    let netlist = converter_netlist(n, ConverterOptions::default());
    let expected = expected_permutation_words(n);
    let valid = move |word: u64| packed_is_permutation_u64(n, word);
    if batched {
        stuck_at_campaign_wide::<u64>(&netlist, "index", "perm", &expected, Some(&valid), workers)
    } else {
        stuck_at_campaign_scalar(&netlist, "index", "perm", &expected, Some(&valid))
    }
}

/// Measures one cell: best of `rounds` full campaigns. The measured
/// region includes tape compilation (a campaign is a cold-start
/// workload, unlike the steady-state sweeps simbench times), but the
/// oracle table is built once outside it.
pub fn measure(n: usize, batched: bool, workers: usize, rounds: usize) -> FaultBenchRow {
    assert!(rounds > 0);
    let netlist = converter_netlist(n, ConverterOptions::default());
    let faults = single_stuck_at_universe(&netlist).len();
    let expected = expected_permutation_words(n);
    let mut ns_per_campaign = u128::MAX;
    let mut coverage_percent = 0.0;
    for _ in 0..rounds {
        let t = Instant::now();
        let report = run_campaign(n, batched, workers);
        ns_per_campaign = ns_per_campaign.min(t.elapsed().as_nanos());
        coverage_percent = report.coverage_percent();
    }
    FaultBenchRow {
        n,
        faults,
        indices: expected.len(),
        engine: if batched { "batched" } else { "scalar" },
        workers,
        ns_per_campaign,
        coverage_percent,
    }
}

/// Default measurement matrix: n = 4, 5, 6, each with the scalar
/// reference engine and the batched engine at 1 and 8 workers.
pub fn default_matrix() -> Vec<FaultBenchRow> {
    let mut rows = Vec::new();
    for n in [4usize, 5, 6] {
        rows.push(measure(n, false, 1, 3));
        for workers in [1usize, 8] {
            rows.push(measure(n, true, workers, 3));
        }
    }
    rows
}

/// Campaign time of the `n`'s scalar row, the per-n speedup baseline.
fn baseline_ns(rows: &[FaultBenchRow], n: usize) -> u128 {
    rows.iter()
        .find(|r| r.n == n && r.engine == "scalar")
        .map(|r| r.ns_per_campaign)
        .expect("matrix carries a scalar baseline per n")
}

/// Text rendering for the `tables` binary.
pub fn text() -> String {
    render_text(&default_matrix())
}

fn render_text(rows: &[FaultBenchRow]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    let mut out = String::new();
    writeln!(
        out,
        "Fault-campaign throughput — full single-stuck-at universe of the Fig. 1 converter"
    )
    .unwrap();
    writeln!(
        out,
        "{:>3}  {:>7}  {:>7}  {:>8}  {:>8}  {:>14}  {:>8}  {:>12}  {:>9}",
        "n",
        "faults",
        "indices",
        "engine",
        "workers",
        "ns/campaign",
        "speedup",
        "faults/s",
        "coverage"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>3}  {:>7}  {:>7}  {:>8}  {:>8}  {:>14}  {:>7.2}x  {:>12}  {:>8.2}%",
            r.n,
            r.faults,
            r.indices,
            r.engine,
            r.workers,
            with_commas(r.ns_per_campaign as u64),
            r.speedup_over(baseline_ns(rows, r.n)),
            with_commas(r.faults_per_sec() as u64),
            r.coverage_percent,
        )
        .unwrap();
    }
    writeln!(
        out,
        "(speedup vs the same n's scalar campaign, best-of-3 rounds; host reports {cores} hardware threads)"
    )
    .unwrap();
    out
}

/// The `BENCH_faults.json` record (the common shape of [`crate::record`]).
pub fn json() -> String {
    render_json(&default_matrix())
}

fn render_json(rows: &[FaultBenchRow]) -> String {
    let json_rows = rows.iter().map(|r| {
        Json::obj([
            ("n", Json::from(r.n)),
            ("faults", r.faults.into()),
            ("indices", r.indices.into()),
            ("engine", r.engine.into()),
            ("workers", r.workers.into()),
            ("ns_per_campaign", r.ns_per_campaign.into()),
            (
                "speedup_vs_scalar",
                Json::fixed(r.speedup_over(baseline_ns(rows, r.n)), 2),
            ),
            ("faults_per_sec", Json::fixed(r.faults_per_sec(), 0)),
            ("coverage_percent", Json::fixed(r.coverage_percent, 2)),
        ])
    });
    record::render(
        "fault_campaign",
        "single-stuck-at universe of the converter vs the block-decoded oracle",
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
        let row = measure(4, true, 2, 1);
        assert_eq!(row.n, 4);
        assert_eq!(row.indices, 24);
        assert_eq!(row.engine, "batched");
        assert_eq!(row.workers, 2);
        assert!(row.faults > 0);
        assert!(row.ns_per_campaign > 0);
        assert!(row.faults_per_sec() > 0.0);
        assert!(row.coverage_percent > 90.0);
    }

    #[test]
    fn scalar_and_batched_cells_report_the_same_coverage() {
        // The measured region *is* the campaign: both engines must land
        // on the identical coverage number for the same netlist.
        let scalar = measure(4, false, 1, 1);
        let batched = measure(4, true, 1, 1);
        assert_eq!(scalar.coverage_percent, batched.coverage_percent);
        assert_eq!(scalar.faults, batched.faults);
    }

    #[test]
    fn json_record_carries_the_stable_keys() {
        let mk = |engine: &'static str, workers: usize, ns: u128| FaultBenchRow {
            n: 5,
            faults: 600,
            indices: 120,
            engine,
            workers,
            ns_per_campaign: ns,
            coverage_percent: 97.5,
        };
        let rows = vec![mk("scalar", 1, 40_000), mk("batched", 8, 2_000)];
        check_record(
            &render_json(&rows),
            "fault_campaign",
            &[
                "n",
                "faults",
                "indices",
                "engine",
                "workers",
                "ns_per_campaign",
                "speedup_vs_scalar",
                "faults_per_sec",
                "coverage_percent",
            ],
            &[
                &[
                    ("n", "5"),
                    ("engine", "\"scalar\""),
                    ("ns_per_campaign", "40000"),
                    ("speedup_vs_scalar", "1.00"),
                ],
                &[
                    ("n", "5"),
                    ("faults", "600"),
                    ("indices", "120"),
                    ("engine", "\"batched\""),
                    ("workers", "8"),
                    ("ns_per_campaign", "2000"),
                    ("speedup_vs_scalar", "20.00"),
                    ("faults_per_sec", "300000000"),
                    ("coverage_percent", "97.50"),
                ],
            ],
            &[],
        );
    }

    #[test]
    fn text_table_reports_per_n_speedups() {
        let mk = |n: usize, engine: &'static str, workers: usize, ns: u128| FaultBenchRow {
            n,
            faults: 400,
            indices: 24,
            engine,
            workers,
            ns_per_campaign: ns,
            coverage_percent: 96.0,
        };
        let rows = vec![
            mk(4, "scalar", 1, 64_000),
            mk(4, "batched", 1, 4_000),
            mk(5, "scalar", 1, 900_000),
            mk(5, "batched", 8, 30_000),
        ];
        let text = render_text(&rows);
        assert!(text.contains("1.00x"), "{text}");
        assert!(text.contains("16.00x"), "{text}");
        assert!(text.contains("30.00x"), "{text}");
        assert!(text.contains("96.00%"), "{text}");
    }

    /// The PR's acceptance floor: the 64-lane one-fault-per-lane
    /// batched engine is ≥10× faster than the scalar reference on the
    /// n = 6 converter campaign, already at one worker (pure lane
    /// parallelism, no multi-core dependence). n = 6 rather than 5
    /// because each timed campaign is cold-start (tape compiled
    /// inside), and the smaller sweep doesn't amortize that fixed cost
    /// past 10× on slow hosts. Ignored by default — it needs an
    /// optimized build — run it with
    /// `cargo test --release -p hwperm-bench -- --ignored`.
    #[test]
    #[ignore = "release-mode throughput floor (run with --ignored)"]
    fn n6_batched_campaign_meets_the_10x_floor() {
        if cfg!(debug_assertions) {
            eprintln!("skipping campaign floor: debug build (lane speedup is a release property)");
            return;
        }
        let scalar = measure(6, false, 1, 3);
        let batched = measure(6, true, 1, 3);
        let speedup = batched.speedup_over(scalar.ns_per_campaign);
        assert!(
            speedup >= 10.0,
            "n=6 batched campaign only {speedup:.2}x faster than scalar (floor 10x): \
             scalar {scalar:?}, batched {batched:?}"
        );
    }
}
