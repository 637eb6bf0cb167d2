//! Throughput under injected network faults: what retry/backoff costs.
//!
//! `servebench` measures the wire protocol on a perfect network; this
//! module puts the [`hwperm_serve::ChaosProxy`] between the clients and
//! the server and kills a deterministic fraction of request attempts —
//! connection resets, truncations, corrupted length prefixes — while
//! the retrying clients reconnect and replay. Reported per fault rate
//! (0% / 1% / 5% of attempts), with the 0% row as the clean baseline,
//! so the number the table pins down is the *overhead of recovery*,
//! not raw socket speed. The acceptance floor (5% faults sustain at
//! least half the clean-through-proxy rate) lives here as an ignored
//! release-mode test, mirroring the other bench floors.
//!
//! Rendered as a text table by the `tables` binary (`chaosbench`) and
//! as a machine-readable record (`chaosbench-json`) that CI archives
//! as `BENCH_chaos.json`.

use crate::{record, with_commas};
use hwperm_serve::{ChaosProxy, Fault, Json, Listener, RetryClient, RetryPolicy, ServeOptions};
use std::fmt::Write as _;
use std::time::Instant;

/// Fraction of request attempts each sweep row kills.
pub const CHAOS_FAULT_RATES: [f64; 3] = [0.0, 0.01, 0.05];

/// Chunk size the sweep requests — full frames, matching `servebench`.
pub const CHAOS_BENCH_CHUNK: usize = 16_384;

/// The rotating kill mix: every entry destroys the attempt in flight
/// on that connection, each through a different failure mode. All are
/// framing-level — the wire carries no payload checksum, so only
/// framing damage is detectable (see the chaos module docs).
const KILLS: [Fault; 3] = [
    Fault::Reset { after: 1_500 },
    Fault::Truncate { after: 700 },
    Fault::Corrupt { at: 0, mask: 0x80 },
];

/// One fault-rate row of the chaos-throughput table.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Permutation size.
    pub n: usize,
    /// Concurrent retrying clients.
    pub clients: usize,
    /// Full-table `block` requests per client.
    pub rounds: usize,
    /// Fraction of attempts the schedule killed.
    pub fault_rate: f64,
    /// Faults the proxy actually injected.
    pub faults: u64,
    /// Replays the clients performed to converge.
    pub retries: u64,
    /// Packed words delivered across all clients and rounds.
    pub words: u64,
    /// Wall-clock nanoseconds for the whole row.
    pub ns_total: u128,
}

impl ChaosRow {
    /// Aggregate packed permutations delivered per second.
    pub fn perms_per_sec(&self) -> f64 {
        self.words as f64 * 1e9 / self.ns_total.max(1) as f64
    }

    /// Fraction of the clean (0% fault) rate this row sustains.
    pub fn ratio_vs(&self, clean_perms_per_sec: f64) -> f64 {
        self.perms_per_sec() / clean_perms_per_sec.max(1.0)
    }
}

/// Measures one row: server behind a chaos proxy whose schedule kills
/// `fault_rate` of the `clients * rounds` attempts, retrying clients
/// replaying until every word arrives. Fault placement is
/// deterministic (front-loaded schedule, rotating kill mix); a tight
/// backoff keeps the row measuring recovery work, not sleeps.
pub fn measure(n: usize, clients: usize, rounds: usize, fault_rate: f64) -> ChaosRow {
    let total: u64 = (1..=n as u64).product();
    let attempts = (clients * rounds) as f64;
    let fault_count = (attempts * fault_rate).ceil() as usize;
    let schedule: Vec<Fault> = (0..fault_count).map(|i| KILLS[i % KILLS.len()]).collect();
    let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
    let server = hwperm_serve::spawn(
        listener,
        ServeOptions {
            workers: 4,
            ..ServeOptions::default()
        },
    )
    .expect("spawn server");
    let proxy = ChaosProxy::spawn(server.endpoint().clone(), &schedule).expect("spawn proxy");
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let endpoint = proxy.endpoint().clone();
            // Budget for the worst case: one client absorbing every
            // scheduled fault before the queue drains clean.
            let policy = RetryPolicy {
                max_attempts: fault_count as u32 + 2,
                backoff_ms: 1,
                max_backoff_ms: 4,
                seed: 0xBEEF ^ c as u64,
            };
            std::thread::spawn(move || {
                let mut client = RetryClient::new(endpoint, policy);
                let mut words = 0u64;
                for round in 0..rounds {
                    let req = Json::obj([
                        ("id", Json::from(round + 1)),
                        ("cmd", "block".into()),
                        ("n", n.into()),
                        ("chunk", CHAOS_BENCH_CHUNK.into()),
                    ])
                    .to_string();
                    let resp = client.request(&req).expect("block response");
                    assert!(resp.is_ok(), "block request failed");
                    words += resp
                        .chunks
                        .iter()
                        .map(|chunk| chunk.words.len() as u64)
                        .sum::<u64>();
                }
                (words, client.stats().retries)
            })
        })
        .collect();
    let (words, retries) = handles.into_iter().fold((0u64, 0u64), |(w, r), h| {
        let (cw, cr) = h.join().expect("client thread");
        (w + cw, r + cr)
    });
    let ns_total = start.elapsed().as_nanos();
    let report = proxy.stop();
    server.stop().expect("stop server");
    assert_eq!(
        words,
        total * (clients * rounds) as u64,
        "every requested word must arrive despite the faults"
    );
    assert_eq!(
        report.threads_spawned, report.threads_joined,
        "proxy leaked threads: {report:?}"
    );
    ChaosRow {
        n,
        clients,
        rounds,
        fault_rate,
        faults: report.faults_injected,
        retries,
        words,
        ns_total,
    }
}

/// Default measurement matrix: n = 8 full tables, 4 retrying clients,
/// one row per fault rate.
pub fn default_matrix() -> Vec<ChaosRow> {
    CHAOS_FAULT_RATES
        .iter()
        .map(|&rate| measure(8, 4, 6, rate))
        .collect()
}

/// Text rendering for the `tables` binary.
pub fn text() -> String {
    render_text(&default_matrix())
}

fn render_text(rows: &[ChaosRow]) -> String {
    let clean = rows.first().map_or(1.0, ChaosRow::perms_per_sec);
    let mut out = String::new();
    writeln!(
        out,
        "Chaos throughput — block requests through a fault-injecting proxy, retrying clients"
    )
    .unwrap();
    writeln!(
        out,
        "{:>3}  {:>8}  {:>7}  {:>6}  {:>7}  {:>8}  {:>10}  {:>16}  {:>9}",
        "n", "clients", "rounds", "rate", "faults", "retries", "words", "perm/s", "vs clean"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>3}  {:>8}  {:>7}  {:>5.0}%  {:>7}  {:>8}  {:>10}  {:>16}  {:>8.2}x",
            r.n,
            r.clients,
            r.rounds,
            r.fault_rate * 100.0,
            r.faults,
            r.retries,
            with_commas(r.words),
            with_commas(r.perms_per_sec() as u64),
            r.ratio_vs(clean),
        )
        .unwrap();
    }
    writeln!(
        out,
        "(kill mix rotates reset / truncate / corrupt-length; every fault costs one replayed \
         attempt on a fresh connection)"
    )
    .unwrap();
    out
}

/// The `BENCH_chaos.json` record (the common shape of [`crate::record`]).
pub fn json() -> String {
    render_json(&default_matrix())
}

fn render_json(rows: &[ChaosRow]) -> String {
    let clean = rows.first().map_or(1.0, ChaosRow::perms_per_sec);
    let rows = rows.iter().map(|r| {
        Json::obj([
            ("n", Json::from(r.n)),
            ("clients", r.clients.into()),
            ("rounds", r.rounds.into()),
            ("fault_rate", Json::fixed(r.fault_rate, 2)),
            ("faults", r.faults.into()),
            ("retries", r.retries.into()),
            ("words", r.words.into()),
            ("ns_total", r.ns_total.into()),
            ("perms_per_sec", Json::fixed(r.perms_per_sec(), 0)),
            ("ratio_vs_clean", Json::fixed(r.ratio_vs(clean), 3)),
        ])
    });
    record::render(
        "chaos_throughput",
        "full block table through a fault-injecting proxy at 0/1/5% attempt kill rates",
        rows,
        vec![],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::check_record;

    #[test]
    fn faulted_cell_still_delivers_every_word() {
        // 2 clients * 2 rounds at 25% => exactly one killed attempt;
        // measure() itself asserts full delivery and no leaked
        // threads.
        let row = measure(5, 2, 2, 0.25);
        assert_eq!(row.words, 480);
        assert_eq!(row.faults, 1, "the one scheduled fault must fire");
        assert!(row.retries >= 1, "the killed attempt must be replayed");
        assert!(row.perms_per_sec() > 0.0);
    }

    #[test]
    fn clean_cell_needs_no_retries() {
        let row = measure(4, 2, 1, 0.0);
        assert_eq!(row.words, 48);
        assert_eq!(row.faults, 0);
        assert_eq!(row.retries, 0);
    }

    #[test]
    fn json_record_carries_the_stable_keys() {
        let rows = vec![
            ChaosRow {
                n: 8,
                clients: 4,
                rounds: 6,
                fault_rate: 0.0,
                faults: 0,
                retries: 0,
                words: 967_680,
                ns_total: 1_000_000_000,
            },
            ChaosRow {
                n: 8,
                clients: 4,
                rounds: 6,
                fault_rate: 0.05,
                faults: 2,
                retries: 2,
                words: 967_680,
                ns_total: 2_000_000_000,
            },
        ];
        check_record(
            &render_json(&rows),
            "chaos_throughput",
            &[
                "n",
                "clients",
                "rounds",
                "fault_rate",
                "faults",
                "retries",
                "words",
                "ns_total",
                "perms_per_sec",
                "ratio_vs_clean",
            ],
            &[
                &[
                    ("fault_rate", "0.00"),
                    ("faults", "0"),
                    ("ratio_vs_clean", "1.000"),
                ],
                &[
                    ("n", "8"),
                    ("clients", "4"),
                    ("rounds", "6"),
                    ("fault_rate", "0.05"),
                    ("faults", "2"),
                    ("retries", "2"),
                    ("words", "967680"),
                    ("ns_total", "2000000000"),
                    ("perms_per_sec", "483840"),
                    ("ratio_vs_clean", "0.500"),
                ],
            ],
            &[],
        );
    }

    #[test]
    fn text_table_reports_the_clean_ratio() {
        let rows = vec![
            ChaosRow {
                n: 8,
                clients: 4,
                rounds: 6,
                fault_rate: 0.0,
                faults: 0,
                retries: 0,
                words: 967_680,
                ns_total: 1_000_000_000,
            },
            ChaosRow {
                n: 8,
                clients: 4,
                rounds: 6,
                fault_rate: 0.01,
                faults: 1,
                retries: 1,
                words: 967_680,
                ns_total: 1_250_000_000,
            },
        ];
        let text = render_text(&rows);
        assert!(text.contains("vs clean"), "{text}");
        assert!(text.contains("0.80x"), "{text}");
    }

    /// The PR's acceptance floor: a 5% attempt-kill rate sustains at
    /// least half the clean-through-proxy rate — recovery must cost
    /// retried work, not collapse. Ignored by default — throughput is
    /// a release-build property — run with
    /// `cargo test --release -p hwperm-bench -- --ignored`.
    #[test]
    #[ignore = "release-mode chaos floor (run with --ignored)"]
    fn five_percent_faults_stay_within_2x_of_clean_rate() {
        if cfg!(debug_assertions) {
            eprintln!("skipping chaos floor: debug build (throughput is a release property)");
            return;
        }
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        if cores < 4 {
            eprintln!("skipping chaos floor: {cores} hardware thread(s) (needs >= 4)");
            return;
        }
        let clean = measure(8, 4, 6, 0.0);
        let faulted = measure(8, 4, 6, 0.05);
        let ratio = faulted.ratio_vs(clean.perms_per_sec());
        assert!(
            ratio >= 0.5,
            "5% fault rate only sustains {ratio:.3}x of the clean rate (floor 0.5x): \
             {faulted:?}, clean {:.0} perm/s",
            clean.perms_per_sec()
        );
    }
}
