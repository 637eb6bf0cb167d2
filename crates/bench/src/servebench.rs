//! Serve-path throughput: how much of the in-process block-decode rate
//! survives the trip through the wire protocol.
//!
//! `oraclebench` measures the raw [`hwperm_factoradic::BlockDecoder`]
//! rate; this module runs the same full-table `block` request through a
//! live `hwperm-serve` instance — framing, worker-pool sharding, binary
//! chunking, socket copies and all — at 1 / 2 / 4 / 8 concurrent
//! clients, and reports each configuration's aggregate permutations per
//! second next to the in-process baseline. The acceptance floor
//! (8 clients within 2× of the in-process rate) lives here as an
//! ignored release-mode test, mirroring the other bench floors.
//!
//! Rendered as a text table by the `tables` binary (`servebench`) and
//! as a machine-readable record (`servebench-json`) that CI archives as
//! `BENCH_serve.json`.

use crate::{oraclebench, record, with_commas};
use hwperm_serve::{Client, Json, Listener, ServeOptions};
use std::fmt::Write as _;
use std::time::Instant;

/// Concurrent-client counts the sweep covers.
pub const SERVE_CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Chunk size the sweep requests — full frames, the throughput
/// configuration.
pub const SERVE_BENCH_CHUNK: usize = 16_384;

/// One (clients, workers) cell of the serve-throughput matrix.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Permutation size.
    pub n: usize,
    /// Concurrent protocol clients.
    pub clients: usize,
    /// Server worker-pool size.
    pub workers: usize,
    /// Full-table `block` requests per client.
    pub rounds: usize,
    /// Packed words delivered across all clients and rounds.
    pub words: u64,
    /// Wall-clock nanoseconds for the whole sweep cell.
    pub ns_total: u128,
}

impl ServeRow {
    /// Aggregate packed permutations delivered per second.
    pub fn perms_per_sec(&self) -> f64 {
        self.words as f64 * 1e9 / self.ns_total.max(1) as f64
    }

    /// Fraction of an in-process rate this cell sustains.
    pub fn ratio_vs(&self, inprocess_perms_per_sec: f64) -> f64 {
        self.perms_per_sec() / inprocess_perms_per_sec.max(1.0)
    }
}

/// Measures one cell: spins an in-process server, runs `clients`
/// threads each requesting the full `[0, n!)` block `rounds` times, and
/// checks every word arrived.
pub fn measure(n: usize, clients: usize, workers: usize, rounds: usize) -> ServeRow {
    let total: u64 = (1..=n as u64).product();
    let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
    let options = ServeOptions {
        workers,
        ..ServeOptions::default()
    };
    let server = hwperm_serve::spawn(listener, options).expect("spawn server");
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let endpoint = server.endpoint().clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&endpoint).expect("connect");
                let mut words = 0u64;
                for round in 0..rounds {
                    let req = Json::obj([
                        ("id", Json::from(round + 1)),
                        ("cmd", "block".into()),
                        ("n", n.into()),
                        ("chunk", SERVE_BENCH_CHUNK.into()),
                    ])
                    .to_string();
                    let resp = client.request(&req).expect("block response");
                    assert!(resp.is_ok(), "block request failed");
                    words += resp
                        .chunks
                        .iter()
                        .map(|c| c.words.len() as u64)
                        .sum::<u64>();
                }
                words
            })
        })
        .collect();
    let words: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .sum();
    let ns_total = start.elapsed().as_nanos();
    server.stop().expect("stop server");
    assert_eq!(
        words,
        total * clients as u64 * rounds as u64,
        "every requested word must arrive"
    );
    ServeRow {
        n,
        clients,
        workers,
        rounds,
        words,
        ns_total,
    }
}

/// The in-process baseline the ratio column compares against: the
/// single-threaded block decode of the same table.
pub fn inprocess_baseline(n: usize, rounds: usize) -> f64 {
    oraclebench::measure(n, "block", 1, rounds).perms_per_sec()
}

/// Default measurement matrix: n = 8 full tables, pool of 8 workers,
/// 1 / 2 / 4 / 8 clients.
pub fn default_matrix() -> (f64, Vec<ServeRow>) {
    let n = 8;
    let rounds = 3;
    let baseline = inprocess_baseline(n, rounds);
    let rows = SERVE_CLIENT_COUNTS
        .iter()
        .map(|&clients| measure(n, clients, 8, rounds))
        .collect();
    (baseline, rows)
}

/// Text rendering for the `tables` binary.
pub fn text() -> String {
    let (baseline, rows) = default_matrix();
    render_text(baseline, &rows)
}

fn render_text(baseline: f64, rows: &[ServeRow]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    let mut out = String::new();
    writeln!(
        out,
        "Serve throughput — full [0, n!) block requests over the wire protocol vs in-process decode"
    )
    .unwrap();
    writeln!(
        out,
        "{:>3}  {:>8}  {:>8}  {:>7}  {:>10}  {:>16}  {:>9}",
        "n", "clients", "workers", "rounds", "words", "perm/s", "vs local"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>3}  {:>8}  {:>8}  {:>7}  {:>10}  {:>16}  {:>8.2}x",
            r.n,
            r.clients,
            r.workers,
            r.rounds,
            with_commas(r.words),
            with_commas(r.perms_per_sec() as u64),
            r.ratio_vs(baseline),
        )
        .unwrap();
    }
    writeln!(
        out,
        "(in-process baseline {} perm/s, single-threaded block decode; host reports {cores} hardware threads)",
        with_commas(baseline as u64),
    )
    .unwrap();
    out
}

/// The `BENCH_serve.json` record (the common shape of [`crate::record`]).
pub fn json() -> String {
    let (baseline, rows) = default_matrix();
    render_json(baseline, &rows)
}

fn render_json(baseline: f64, rows: &[ServeRow]) -> String {
    let rows = rows.iter().map(|r| {
        Json::obj([
            ("n", Json::from(r.n)),
            ("clients", r.clients.into()),
            ("workers", r.workers.into()),
            ("rounds", r.rounds.into()),
            ("words", r.words.into()),
            ("ns_total", r.ns_total.into()),
            ("perms_per_sec", Json::fixed(r.perms_per_sec(), 0)),
            ("ratio_vs_inprocess", Json::fixed(r.ratio_vs(baseline), 3)),
        ])
    });
    record::render(
        "serve_throughput",
        "full block table over the wire, 1/2/4/8 concurrent clients",
        rows,
        vec![("inprocess_perms_per_sec", Json::fixed(baseline, 0))],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::check_record;

    #[test]
    fn measured_cell_delivers_every_word() {
        // n = 5 keeps the debug-mode run fast; measure() itself asserts
        // the word count.
        let row = measure(5, 2, 2, 1);
        assert_eq!(row.words, 240);
        assert!(row.ns_total > 0);
        assert!(row.perms_per_sec() > 0.0);
    }

    #[test]
    fn json_record_carries_the_stable_keys() {
        let rows = vec![ServeRow {
            n: 8,
            clients: 8,
            workers: 8,
            rounds: 3,
            words: 967_680,
            ns_total: 1_000_000_000,
        }];
        check_record(
            &render_json(2_000_000.0, &rows),
            "serve_throughput",
            &[
                "n",
                "clients",
                "workers",
                "rounds",
                "words",
                "ns_total",
                "perms_per_sec",
                "ratio_vs_inprocess",
            ],
            &[&[
                ("n", "8"),
                ("clients", "8"),
                ("workers", "8"),
                ("rounds", "3"),
                ("words", "967680"),
                ("ns_total", "1000000000"),
                ("perms_per_sec", "967680"),
                ("ratio_vs_inprocess", "0.484"),
            ]],
            &[("inprocess_perms_per_sec", "2000000")],
        );
    }

    #[test]
    fn text_table_reports_the_ratio_column() {
        let rows = vec![ServeRow {
            n: 8,
            clients: 1,
            workers: 8,
            rounds: 3,
            words: 120_960,
            ns_total: 120_960_000,
        }];
        let text = render_text(2_000_000.0, &rows);
        assert!(text.contains("vs local"), "{text}");
        assert!(text.contains("0.50x"), "{text}");
    }

    /// The PR's acceptance floor: 8 concurrent clients sustain at least
    /// half the in-process single-threaded block rate for the full
    /// n = 8 table. Ignored by default — socket throughput is a
    /// release-build property — run it with
    /// `cargo test --release -p hwperm-bench -- --ignored`.
    #[test]
    #[ignore = "release-mode throughput floor (run with --ignored)"]
    fn eight_clients_stay_within_2x_of_inprocess_block_rate() {
        if cfg!(debug_assertions) {
            eprintln!("skipping throughput floor: debug build (socket amortization is a release property)");
            return;
        }
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        if cores < 4 {
            // The floor compares a concurrent wire pipeline against a
            // bare in-process decode; with both socket ends, the
            // worker pool and the decode multiplexed onto one or two
            // hardware threads the comparison measures scheduler
            // thrash, not protocol overhead.
            eprintln!("skipping throughput floor: {cores} hardware thread(s) (needs >= 4)");
            return;
        }
        let baseline = inprocess_baseline(8, 5);
        let row = measure(8, 8, 8, 5);
        let ratio = row.ratio_vs(baseline);
        assert!(
            ratio >= 0.5,
            "8-client serve rate only {ratio:.3}x of the in-process block rate (floor 0.5x): \
             {row:?}, baseline {baseline:.0} perm/s"
        );
    }
}
