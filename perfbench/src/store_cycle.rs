//! `store-cycle`: cold `store build 8` and `store build 9` into a fresh
//! empty directory, then `store verify 9`, then
//! `verify 8 --batch --store <dir>`, repeated by one caller through
//! `hwperm_cli::run`, at most one cycle every 500 ms.
//!
//! Builds write through the store layer (decode, hash, atomic write,
//! manifest); the other two steps read from it (read plus hash check,
//! and a store-backed sweep). The chunk and byte counts are simulated
//! statistics that must equal `exact_stats.json`.

use crate::stats::{median, Metric};
use crate::trace::Tracer;
use crate::{exact_u64, fresh_dir, ok_envelope, results, timed_cli, Report};
use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_logic::W512;
use hwperm_serve::Json;
use hwperm_store::{BuildOptions, OpenTable};
use std::path::Path;
use std::time::{Duration, Instant};

/// Fresh processes timed for `setup_s`, each running one cold pass.
const COLD_PASSES: usize = 5;
/// Cycles start at most this often. Back to back, the cycles write
/// ~40 MB/s of fsync'd chunks and deletes, the virtual disk's
/// writeback falls behind, and the build time climbs from run to run
/// (60 ms to 133 ms over ten 35 s runs on a 2-core VM); paced like a
/// designer re-running the cycle, it measures the store, not the
/// disk's backlog.
const CYCLE_PERIOD: Duration = Duration::from_millis(500);
/// Store verifies and store-backed sweeps per cycle.
const READ_REPEATS: usize = 4;

/// Sleeps until cycle `k` of the run that started at `start` is due.
fn pace(start: Instant, k: usize) {
    let due = start + CYCLE_PERIOD * k as u32;
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
}

fn check_build(n: &str, out: Result<String, String>, exact: &Json, report: &mut Report) {
    report.attempted += 1;
    let env = match out.and_then(|text| ok_envelope(&text)) {
        Ok(env) => env,
        Err(e) => return report.fail_op(e),
    };
    let Some(row) = results(&env).first() else {
        return report.fail_op(format!("store build {n}: no result row"));
    };
    let field = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
    let complete = matches!(row.get("complete"), Some(Json::Bool(true)));
    if !complete || field("resumed") != 0 || field("built") != field("chunks") {
        return report.fail_op(format!("store build {n}: not a complete cold build"));
    }
    for k in ["chunks", "bytes_written"] {
        let want = exact_u64(exact, &["store_build", n, k]);
        report.exact(&format!("store build {n} {k}"), want, field(k));
    }
}

/// Empties `dir` and runs the two cold builds; returns their wall time
/// in ms.
fn build_step(dir: &Path, exact: &Json, report: &mut Report) -> f64 {
    if dir.exists() {
        if let Err(e) = std::fs::remove_dir_all(dir) {
            report.problem(format!("emptying {}: {e}", dir.display()));
        }
    }
    let d = dir.to_str().expect("work dirs are UTF-8");
    let mut ms = 0.0;
    for n in ["8", "9"] {
        let (out, t) = timed_cli(&["store", "build", n, "--dir", d, "--json"]);
        ms += t;
        check_build(n, out, exact, report);
    }
    ms
}

/// `store verify 9`; wall time in ms.
fn store_verify_step(d: &str, exact: &Json, report: &mut Report) -> f64 {
    let (out, t) = timed_cli(&["store", "verify", "9", "--dir", d, "--json"]);
    report.attempted += 1;
    match out.and_then(|text| ok_envelope(&text)) {
        Ok(env) => match results(&env).first() {
            Some(row) if row.get("verdict").and_then(Json::as_str) == Some("ok") => {
                for k in ["chunks", "words", "bytes"] {
                    let got = row.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
                    let want = exact_u64(exact, &["store_verify_n9", k]);
                    report.exact(&format!("store verify 9 {k}"), want, got);
                }
            }
            _ => report.fail_op("store verify 9: verdict is not ok".into()),
        },
        Err(e) => report.fail_op(e),
    }
    t
}

/// `verify 8 --batch --store <dir>`; wall time in ms.
fn sweep_step(d: &str, report: &mut Report) -> f64 {
    let (out, t) = timed_cli(&["verify", "8", "--batch", "--store", d]);
    report.attempted += 1;
    match out {
        Ok(text)
            if text.starts_with("OK: all 40320 conversions match software for n = 8")
                && text.contains("store-backed") => {}
        Ok(text) => report.fail_op(format!("store-backed verify verdict: {}", text.trim())),
        Err(e) => report.fail_op(e),
    }
    t
}

/// One store cycle in `dir`; returns the wall time in ms of the two
/// builds, the store verify and the store-backed sweep.
pub fn pass(dir: &Path, exact: &Json, report: &mut Report) -> [f64; 3] {
    let d = dir.to_str().expect("work dirs are UTF-8");
    [
        build_step(dir, exact, report),
        store_verify_step(d, exact, report),
        sweep_step(d, report),
    ]
}

fn params(report: &mut Report) {
    report.params.push(format!(
        "store-cycle: builds=8,9 build_jobs=1 store_verify_n=9 sweep_n=8 sweep_width=512 \
         reads_per_cycle={READ_REPEATS} cycle_period_ms={} cold_passes={COLD_PASSES}",
        CYCLE_PERIOD.as_millis()
    ));
}

/// The end-to-end run: cold passes in fresh processes for `setup_s`,
/// one warm-up pass, then paced cycles until `seconds` have been
/// measured.
pub fn run(seconds: f64, exact: &Json, report: &mut Report) {
    params(report);
    let mut setup = Vec::new();
    for i in 0..COLD_PASSES {
        report.attempted += 1;
        let dir = match fresh_dir(&format!("store-cold-{i}")) {
            Ok(d) => d,
            Err(e) => {
                report.fail_op(e);
                continue;
            }
        };
        let d = dir.to_str().expect("work dirs are UTF-8");
        match crate::cold_child(&["--cold-pass", "store-cycle", d]) {
            Ok(s) => setup.push(s),
            Err(e) => report.fail_op(e),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let dir = match fresh_dir("store-cycle") {
        Ok(d) => d,
        Err(e) => return report.fail_op(e),
    };
    pass(&dir, exact, report);
    let d = dir.to_str().expect("work dirs are UTF-8");
    let mut steps: [Vec<f64>; 3] = Default::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || steps[0].len() < 3 {
        pace(start, steps[0].len());
        steps[0].push(build_step(&dir, exact, report));
        // The reads take a few ms and their times are bimodal within a
        // run; a few reads per build keep the median off the boundary
        // between the modes.
        for _ in 0..READ_REPEATS {
            steps[1].push(store_verify_step(d, exact, report));
            steps[2].push(sweep_step(d, report));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    if !setup.is_empty() {
        report.push(Metric::median_of("setup_s", "s", &setup));
    }
    match crate::peak_rss_mb("self") {
        Ok(mb) => report.push(Metric::single("peak_rss_mb", "MB", mb)),
        Err(e) => report.problem(e),
    }
    // The cold builds are fsync-bound; their run median moved by a
    // quarter between runs with the virtual disk, so it is reported,
    // not bounded (`store.build_ms` in the traced run).
    let build = Metric::median_of("build_ms", "ms", &steps[0]);
    report.params.push(format!(
        "observed: build_ms={:.4} cycles={}",
        build.value, build.samples
    ));
    report.push(Metric::median_of("step1_ms", "ms", &steps[1]));
    report.push(Metric::median_of("step2_ms", "ms", &steps[2]));
}

/// The same cycle through the store and verify entry points, each call
/// in a span; returns the wall time in ms of the spans that mirror the
/// three CLI steps.
fn traced_pass(
    dir: &Path,
    id: u64,
    exact: &Json,
    tracer: &Tracer,
    report: &mut Report,
) -> (f64, [u64; 2]) {
    if dir.exists() {
        if let Err(e) = std::fs::remove_dir_all(dir) {
            report.problem(format!("emptying {}: {e}", dir.display()));
        }
    }
    let mut written = [0u64; 2];
    let t = Instant::now();
    tracer.span("store.build", None, id, |_| {
        for n in [8usize, 9] {
            report.attempted += 1;
            match hwperm_store::build(dir, n, &BuildOptions::default()) {
                Ok(b) if b.complete && b.resumed == 0 => {
                    let key = n.to_string();
                    let want = |k| exact_u64(exact, &["store_build", &key, k]);
                    report.exact(
                        &format!("traced build {n} chunks"),
                        want("chunks"),
                        b.chunks_total,
                    );
                    report.exact(
                        &format!("traced build {n} bytes_written"),
                        want("bytes_written"),
                        b.bytes_written,
                    );
                    written[0] += b.chunks_total;
                    written[1] += b.bytes_written;
                }
                Ok(_) => report.fail_op(format!("traced build {n}: not a complete cold build")),
                Err(e) => report.fail_op(format!("traced build {n}: {e}")),
            }
        }
    });
    tracer.span("store.verify", None, id, |_| {
        report.attempted += 1;
        match hwperm_store::verify_store(dir, 9) {
            Ok(v) => {
                let want = exact_u64(exact, &["store_verify_n9", "bytes"]);
                report.exact("traced store verify 9 bytes", want, v.bytes);
            }
            Err(e) => report.fail_op(format!("traced store verify 9: {e}")),
        }
    });
    tracer.span("verify.store_sweep", None, id, |parent| {
        report.attempted += 1;
        let table = tracer.span("store.open", Some(parent), id, |_| OpenTable::open(dir, 8));
        let words = match table {
            Ok(Some(table)) => tracer.span("store.load", Some(parent), id, |_| table.load_words()),
            Ok(None) => return report.fail_op("traced sweep: n = 8 table is cold".into()),
            Err(e) => return report.fail_op(format!("traced sweep: {e}")),
        };
        let expected = match words {
            Ok(w) => w,
            Err(e) => return report.fail_op(format!("traced sweep: {e}")),
        };
        let netlist = converter_netlist(8, ConverterOptions::default());
        if let Err(m) = hwperm_verify::exhaustive_check_batched_wide::<W512>(
            &netlist, "index", "perm", &expected,
        ) {
            report.fail_op(format!("traced store-backed sweep: MISMATCH {m}"));
        }
    });
    (t.elapsed().as_secs_f64() * 1e3, written)
}

/// The traced run's share for this workload: untraced and traced cycles
/// alternate after a warm-up cycle; the per-layer metrics come from the
/// spans.
pub fn traced(seconds: f64, exact: &Json, tracer: &Tracer, report: &mut Report) {
    params(report);
    let dir = match fresh_dir("store-traced") {
        Ok(d) => d,
        Err(e) => return report.fail_op(e),
    };
    pass(&dir, exact, report);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut written = [0u64; 2];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || traced.is_empty() {
        pace(start, 2 * traced.len());
        untraced.push(pass(&dir, exact, report).iter().sum::<f64>());
        pace(start, 2 * traced.len() + 1);
        let (ms, w) = traced_pass(&dir, traced.len() as u64 + 1, exact, tracer, report);
        traced.push(ms);
        written = w;
    }
    let _ = std::fs::remove_dir_all(&dir);

    let ms = |name: &str| tracer.durations_ms(name);
    report.push(Metric::median_of(
        "store.build_ms",
        "ms",
        &ms("store.build"),
    ));
    report.push(Metric::single("store.chunks", "count", written[0] as f64));
    report.push(Metric::single(
        "store.bytes_written",
        "count",
        written[1] as f64,
    ));
    report.push(Metric::median_of("store.open_ms", "ms", &ms("store.open")));
    // Chunk-file bytes of the n = 8 table per second of `load_words`
    // (read plus hash check).
    let table_mb =
        exact_u64(exact, &["store_build", "8", "bytes_written"]).unwrap_or(0) as f64 / 1e6;
    let rates: Vec<f64> = ms("store.load")
        .iter()
        .map(|ms| table_mb / (ms / 1e3))
        .collect();
    report.push(Metric::median_of("store.read_mb_per_s", "MB/s", &rates));
    report.push(Metric::median_of(
        "store.verify_ms",
        "ms",
        &ms("store.verify"),
    ));
    report.push(Metric::median_of(
        "verify.store_sweep_ms",
        "ms",
        &ms("verify.store_sweep"),
    ));
    let overhead = 100.0 * (median(&traced) / median(&untraced) - 1.0);
    report.push(Metric::single("trace.overhead_pct.store", "%", overhead));
}
