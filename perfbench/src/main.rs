//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-mix|signoff|store-cycle> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the workload's
//! end-to-end metrics through the `hwperm` argv surface
//! (`hwperm_cli::run`) and the serve wire protocol
//! (`hwperm_serve::Client`) only. `--trace 1` is the separate traced
//! run: it wraps the benchmark's calls into each layer's public
//! functions in spans and prints every per-layer metric plus the
//! tracing overhead against an untraced pass. Every output is checked;
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`, and the exit code is non-zero
//! when any check failed. `perfbench/NOTES.md` defines every metric.

mod serve_mix;
mod signoff;
mod stats;
mod store_cycle;
mod trace;

use hwperm_serve::Json;
use stats::Metric;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The workloads, in the order a traced run visits their layers.
const WORKLOADS: [&str; 3] = ["serve-mix", "signoff", "store-cycle"];

/// Scratch space for stores and span files, relative to the checkout
/// root the benchmark runs from.
const WORK_DIR: &str = ".perfbench";

/// What a run measured and what went wrong in it.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted: requests, lookups and CLI commands.
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// Every failed check (operation or exact statistic), for stderr.
    pub problems: Vec<String>,
    /// Workload parameters for the provenance line.
    pub params: Vec<String>,
}

impl Report {
    /// Counts one failed operation.
    pub fn fail_op(&mut self, why: String) {
        self.failed += 1;
        self.problem(why);
    }

    /// Records a failed check that is not an operation (an exact
    /// statistic that differs from the record).
    pub fn problem(&mut self, why: String) {
        if self.problems.len() < 50 {
            self.problems.push(why);
        }
    }

    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Compares a simulated statistic with its recorded value.
    pub fn exact(&mut self, what: &str, want: Option<u64>, got: u64) {
        if want != Some(got) {
            self.problem(format!(
                "exact statistic {what}: recorded {want:?}, measured {got}"
            ));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// The recorded simulated statistics (`perfbench/exact_stats.json`).
pub fn exact_stats() -> Json {
    Json::parse(include_bytes!("../exact_stats.json")).expect("exact_stats.json is valid JSON")
}

/// Looks up `a.b.c` in the exact-statistics record.
pub fn exact_u64(record: &Json, path: &[&str]) -> Option<u64> {
    path.iter()
        .try_fold(record, |node, key| node.get(key))
        .and_then(Json::as_u64)
}

/// Runs one `hwperm` command through the argv surface.
pub fn cli(args: &[&str]) -> Result<String, String> {
    let owned: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    hwperm_cli::run(&owned).map_err(|e| format!("hwperm {}: {e}", args.join(" ")))
}

/// Runs one `hwperm` command and returns it with its wall time in ms.
pub fn timed_cli(args: &[&str]) -> (Result<String, String>, f64) {
    let t = Instant::now();
    let out = cli(args);
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Parses a `--json` envelope and checks that it reports success.
pub fn ok_envelope(text: &str) -> Result<Json, String> {
    let json = Json::parse(text.trim().as_bytes()).map_err(|e| format!("bad envelope: {e}"))?;
    match json.get("status").and_then(Json::as_str) {
        Some("ok") => Ok(json),
        other => Err(format!("envelope status {other:?}: {}", text.trim())),
    }
}

/// The envelope's `results` array.
pub fn results(envelope: &Json) -> &[Json] {
    envelope
        .get("results")
        .and_then(Json::as_array)
        .unwrap_or(&[])
}

/// Worker threads for `--jobs` and `--workers`: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of process `pid` (`"self"` for this one), in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

/// A fresh, empty directory under the work dir.
pub fn fresh_dir(name: &str) -> Result<PathBuf, String> {
    let dir = Path::new(WORK_DIR).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs this binary again with `args` (a cold pass or the server) and
/// returns its wall time in seconds; fails unless it exits with 0.
pub fn cold_child(args: &[&str]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let t = Instant::now();
    let status = Command::new(exe)
        .args(args)
        .status()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if status.success() {
        Ok(secs)
    } else {
        Err(format!("child {args:?} exited with {status}"))
    }
}

/// A small deterministic generator for the seeded inputs (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` by multiply-shift; the bias is below
    /// bound / 2^64, under 2^-19 for every bound used here (≤ 16!).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (workloads: {})",
            WORKLOADS.join(" | ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn commit() -> String {
    // Only a checkout root that is itself a git work tree names a
    // commit; never search parent directories.
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// CPU time the hypervisor took from this machine so far, in seconds
/// (the `steal` column of `/proc/stat`, at the usual 100 ticks/s);
/// `None` where it cannot be read.
fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

fn json_number(v: f64) -> String {
    // Rust's shortest round-trip float formatting keeps every digit.
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--serve-child") => return serve_mix::serve_child(&argv[1..]),
        Some("--cold-pass") => return cold_pass(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(WORK_DIR) {
        eprintln!("perfbench: cannot create {WORK_DIR}: {e}");
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    let exact = exact_stats();
    let started = Instant::now();
    let steal_at_start = host_steal_s();
    if args.trace {
        // Every traced run records every layer: each workload's traced
        // loop gets an equal share of the run.
        let tracer = trace::Tracer::new();
        let share = args.seconds / WORKLOADS.len() as f64;
        serve_mix::traced(args.seed, share, &tracer, &mut report);
        signoff::traced(share, &exact, &tracer, &mut report);
        store_cycle::traced(share, &exact, &tracer, &mut report);
        let path =
            Path::new(WORK_DIR).join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(n) => println!("# {n} spans written to {}", path.display()),
            Err(e) => report.problem(format!("writing {}: {e}", path.display())),
        }
    } else {
        match args.workload.as_str() {
            "serve-mix" => serve_mix::run(args.seed, args.seconds, &mut report),
            "signoff" => signoff::run(args.seconds, &exact, &mut report),
            _ => store_cycle::run(args.seconds, &exact, &mut report),
        }
        let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.push(Metric::single("ok_frac", "ratio", ok));
    }
    if report.attempted == 0 {
        report.problem("no operation was attempted".into());
    }

    let steal = match (steal_at_start, host_steal_s()) {
        (Some(a), Some(b)) => format!("{:.2}", b - a),
        _ => "unknown".into(),
    };
    println!(
        "# provenance: workload={} seed={} seconds={} trace={} nproc={} arch={} os={} \
         rustc=\"{}\" commit={} wall_s={:.3} host_steal_s={steal}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        std::env::consts::ARCH,
        std::env::consts::OS,
        env!("PERFBENCH_RUSTC"),
        commit(),
        started.elapsed().as_secs_f64(),
    );
    for p in &report.params {
        println!("# parameters: {p}");
    }
    println!(
        "# {:<34} {:>16} {:<8} {:>7} {:>14} {:>14} {:>8}",
        "metric", "value", "unit", "samples", "p25", "p75", "spread"
    );
    for m in &report.metrics {
        println!(
            "  {:<34} {:>16.6} {:<8} {:>7} {:>14.6} {:>14.6} {:>7.2}%",
            m.name,
            m.value,
            m.unit,
            m.samples,
            m.p25,
            m.p75,
            100.0 * m.spread()
        );
    }
    let infinite: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} is not finite", m.name))
        .collect();
    for p in infinite {
        report.problem(p);
    }
    for p in &report.problems {
        eprintln!("perfbench: FAILED CHECK: {p}");
    }
    let correct = report.correct();
    let metrics = report
        .metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--cold-pass <workload> [dir]`: one pass in a fresh process, timed
/// by the parent as the workload's set-up.
fn cold_pass(argv: &[String]) -> ExitCode {
    let mut report = Report::default();
    let exact = exact_stats();
    match argv {
        [w] if w == "signoff" => {
            signoff::pass(&exact, &mut report);
        }
        [w, dir] if w == "store-cycle" => {
            store_cycle::pass(Path::new(dir), &exact, &mut report);
        }
        _ => report.problem(format!("bad --cold-pass arguments {argv:?}")),
    }
    for p in &report.problems {
        eprintln!("perfbench cold pass: {p}");
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
