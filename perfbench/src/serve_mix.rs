//! `serve-mix`: `hwperm serve` on TCP loopback with `--workers nproc`
//! and the default chunk, driven by one load generator with two threads
//! and two connections:
//!
//! - an open-loop lookup stream at a fixed offered rate, half `unrank`
//!   and half `rank`, seeded n in 8..=16 and seeded indices, each lookup
//!   timed from its due time;
//! - a closed-loop bulk client sending `block` requests over n = 10 with
//!   seeded starts, 2^16 words each.
//!
//! Bulk streams and point lookups share the worker pool, the writer
//! queues and the sockets. Every block word is checked against a digest
//! of the in-process `BlockDecoder` output for its range, computed
//! before timing starts; every lookup answer against `Unranker` /
//! `rank_u64`.

use crate::stats::{median, Metric};
use crate::trace::Tracer;
use crate::{cli, exact_u64, nproc, Report, Rng};
use hwperm_factoradic::{rank_u64, BlockDecoder, Unranker};
use hwperm_serve::{Client, Endpoint, Json, Message};
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Permutation size of the bulk `block` requests.
const BLOCK_N: usize = 10;
/// Words per `block` request.
const BLOCK_LEN: u64 = 1 << 16;
/// Seeded block ranges; requests cycle through them, so their digests
/// are all computed before timing starts.
const RANGE_POOL: usize = 64;
/// Offered lookup rate (lookups/s). One closed-loop connection reaches
/// ~14-15k lookups/s on an idle 2-core host, but beside the bulk client
/// and under the host's steal bursts 2000/s left too little headroom:
/// one burst built a backlog that took the rest of the run to drain
/// (median latency from due time 0.2 ms in one run, 25 ms in another).
const LOOKUP_RATE: f64 = 1000.0;
/// Server processes started (and timed) per run for `setup_s`; the last
/// one serves the load.
const SERVER_SPAWNS: usize = 15;

fn factorial(n: usize) -> u64 {
    (1..=n as u64).product()
}

/// Order-dependent digest of a word sequence.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0x243F_6A88_85A3_08D3, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29)
    })
}

/// The seeded block ranges and their reference digests.
struct Plan {
    ranges: Vec<(u64, u64)>,
    digests: Vec<u64>,
    /// Digest of the fixed probe range `[0, BLOCK_LEN)`.
    probe_digest: u64,
}

fn plan(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 1);
    let mut decoder = BlockDecoder::new(BLOCK_N);
    let mut decode = |start: u64| digest(decoder.decode_words(start..start + BLOCK_LEN));
    let starts: Vec<u64> = (0..RANGE_POOL)
        .map(|_| rng.below(factorial(BLOCK_N) - BLOCK_LEN + 1))
        .collect();
    Plan {
        ranges: starts.iter().map(|&s| (s, s + BLOCK_LEN)).collect(),
        digests: starts.iter().map(|&s| decode(s)).collect(),
        probe_digest: decode(0),
    }
}

/// One seeded lookup and its expected answer.
struct Lookup {
    id: u64,
    body: String,
    rank: bool,
    /// The permutation (`unrank` answer, or the `rank` request).
    perm: Vec<u32>,
    packed: u64,
    /// The expected `rank` answer, from `rank_u64`.
    index: u64,
}

struct LookupGen {
    rng: Rng,
    unrankers: Vec<Unranker>,
    next_id: u64,
}

impl LookupGen {
    fn new(seed: u64) -> LookupGen {
        LookupGen {
            rng: Rng::new(seed, 2),
            unrankers: (0..=16).map(Unranker::new).collect(),
            next_id: 1,
        }
    }

    fn next(&mut self) -> Lookup {
        let n = 8 + self.rng.below(9) as usize;
        let index = self.rng.below(factorial(n));
        let rank = self.rng.next_u64() & 1 == 1;
        let perm = self.unrankers[n].unrank(index);
        let id = self.next_id;
        self.next_id += 1;
        let elems: Vec<u32> = perm.as_slice().to_vec();
        let body = if rank {
            let list: Vec<String> = elems.iter().map(u32::to_string).collect();
            format!(r#"{{"id":{id},"cmd":"rank","perm":[{}]}}"#, list.join(","))
        } else {
            format!(r#"{{"id":{id},"cmd":"unrank","n":{n},"index":{index}}}"#)
        };
        Lookup {
            id,
            body,
            rank,
            packed: perm.pack_u64(),
            index: rank_u64(&perm),
            perm: elems,
        }
    }
}

/// Parses an envelope, checks that it is ok, and returns it with its
/// first result row and the server's `metrics.micros`.
fn parse_ok(envelope: &[u8]) -> Result<(Json, u64), String> {
    let json = Json::parse(envelope).map_err(|e| format!("bad envelope: {e}"))?;
    if json.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!(
            "error envelope: {}",
            String::from_utf8_lossy(envelope).trim()
        ));
    }
    let micros = json
        .get("metrics")
        .and_then(|m| m.get("micros"))
        .and_then(Json::as_u64)
        .ok_or("envelope without metrics.micros")?;
    Ok((json, micros))
}

fn first_result(json: &Json) -> Option<&Json> {
    json.get("results")?.as_array()?.first()
}

/// Checks a lookup answer; returns the server's micros.
fn check_lookup(l: &Lookup, envelope: &[u8]) -> Result<u64, String> {
    let (json, micros) = parse_ok(envelope)?;
    let row = first_result(&json).ok_or("lookup envelope without a result")?;
    let ok = if l.rank {
        row.get("index").and_then(Json::as_u64) == Some(l.index)
    } else {
        let perm: Option<Vec<u64>> = row
            .get("perm")
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(Json::as_u64).collect());
        let want: Vec<u64> = l.perm.iter().map(|&e| e as u64).collect();
        perm == Some(want) && row.get("packed").and_then(Json::as_u64) == Some(l.packed)
    };
    if ok {
        Ok(micros)
    } else {
        Err(format!(
            "lookup {} answered wrongly: {}",
            l.body,
            String::from_utf8_lossy(envelope).trim()
        ))
    }
}

/// A server process: this binary re-run as `--serve-child`, which calls
/// `hwperm_cli::run(["serve", ...])`. Killed on drop if still running.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    endpoint: Endpoint,
    control: Option<Client>,
}

impl Server {
    fn start(workers: usize) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--serve-child", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            stdout,
            endpoint: Endpoint::Tcp(([127, 0, 0, 1], 0).into()),
            control: None,
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("server stdout: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not announce an address: {line:?}"))?;
        server.endpoint = Endpoint::Tcp(addr);
        Ok(server)
    }

    /// One request on the control connection.
    fn request(&mut self, body: &str) -> Result<hwperm_serve::Response, String> {
        if self.control.is_none() {
            let client = Client::connect(&self.endpoint).map_err(|e| format!("connect: {e}"))?;
            self.control = Some(client);
        }
        let client = self.control.as_mut().expect("connected above");
        client.request(body).map_err(|e| format!("{body}: {e}"))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `shutdown` and waits (at most 10 s) for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        let answer = self.request(r#"{"id":0,"cmd":"shutdown"}"#);
        self.control = None;
        answer.and_then(|r| parse_ok(&r.envelope).map(drop))?;
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not exit within 10 s of shutdown".into()),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `--serve-child <workers>`: the server process.
pub fn serve_child(argv: &[String]) -> ExitCode {
    let Some(workers) = argv.first() else {
        eprintln!("perfbench: --serve-child needs a worker count");
        return ExitCode::from(2);
    };
    match cli(&["serve", "127.0.0.1:0", "--workers", workers]) {
        Ok(summary) => {
            print!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one load phase measured.
#[derive(Default)]
struct Load {
    /// Lookup latency from the due time, µs (a failed lookup is +∞).
    lookup_due_us: Vec<f64>,
    /// The server's `metrics.micros` per lookup.
    lookup_server_us: Vec<f64>,
    /// How late each lookup was sent, µs.
    late_us: Vec<f64>,
    /// Lookups due before the end but never sent.
    backlog: u64,
    block_ms: Vec<f64>,
    block_server_us: Vec<f64>,
    words: u64,
    block_secs: f64,
    chunks: u64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The open-loop lookup stream until `end`.
fn lookup_stream(
    endpoint: &Endpoint,
    gen: &mut LookupGen,
    t0: Instant,
    end: Instant,
    tracer: Option<&Tracer>,
    load: &mut Load,
    report: &mut Report,
) {
    let mut client = match Client::connect(endpoint) {
        Ok(c) => c,
        Err(e) => return report.fail_op(format!("lookup connect: {e}")),
    };
    let period = Duration::from_secs_f64(1.0 / LOOKUP_RATE);
    for i in 0u32.. {
        let due = t0 + period * i;
        if due >= end {
            break;
        }
        let l = gen.next();
        let now = Instant::now();
        if now >= end {
            load.backlog = ((end - due).as_secs_f64() * LOOKUP_RATE).ceil() as u64;
            break;
        }
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        load.late_us.push(us(sent - due));
        report.attempted += 1;
        let answer = client.request(&l.body);
        let done = Instant::now();
        if let Some(t) = tracer {
            t.record("serve.lookup", None, l.id, sent, done);
        }
        let checked = match answer {
            Ok(r) if r.chunks.is_empty() => check_lookup(&l, &r.envelope),
            Ok(_) => Err(format!("lookup {} answered with binary chunks", l.id)),
            Err(e) => Err(format!("lookup {}: {e}", l.body)),
        };
        match checked {
            Ok(micros) => {
                load.lookup_due_us.push(us(done - due));
                load.lookup_server_us.push(micros as f64);
            }
            Err(e) => {
                load.lookup_due_us.push(f64::INFINITY);
                report.fail_op(e);
            }
        }
    }
}

/// Reads one `block` response; returns the envelope plus the first- and
/// last-chunk arrival times (the envelope's, for a response without
/// chunks).
fn read_block(
    client: &mut Client,
    chunks: &mut Vec<hwperm_serve::BlockChunk>,
) -> Result<(Vec<u8>, [Instant; 2]), String> {
    let mut arrivals: Option<[Instant; 2]> = None;
    loop {
        let message = client.read_message();
        let now = Instant::now();
        match message {
            Ok(Some(Message::Chunk(c))) => {
                let first = arrivals.map_or(now, |[first, _]| first);
                arrivals = Some([first, now]);
                chunks.push(c);
            }
            Ok(Some(Message::Envelope(e))) => return Ok((e, arrivals.unwrap_or([now, now]))),
            Ok(None) => return Err("connection closed before the envelope".into()),
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Checks a `block` response against the reference digest of its range.
fn check_block(
    id: u64,
    (start, end): (u64, u64),
    want: u64,
    envelope: &[u8],
    chunks: &mut [hwperm_serve::BlockChunk],
) -> Result<u64, String> {
    let (json, micros) = parse_ok(envelope)?;
    let row = first_result(&json).ok_or("block envelope without a result")?;
    if row.get("chunks").and_then(Json::as_u64) != Some(chunks.len() as u64) {
        return Err(format!(
            "block {id}: envelope chunk count differs from chunks received"
        ));
    }
    chunks.sort_by_key(|c| c.base);
    let mut next = start;
    for c in chunks.iter() {
        if c.id != id || c.base != next {
            return Err(format!(
                "block {id}: chunk id {} base {} out of place",
                c.id, c.base
            ));
        }
        next += c.words.len() as u64;
    }
    if next != end {
        return Err(format!("block {id}: words end at {next}, want {end}"));
    }
    if digest(chunks.iter().flat_map(|c| c.words.iter().copied())) != want {
        return Err(format!(
            "block {id} [{start}, {end}): words differ from BlockDecoder"
        ));
    }
    Ok(micros)
}

/// The closed-loop bulk client until `end`.
fn block_stream(
    endpoint: &Endpoint,
    plan: &Plan,
    first_id: u64,
    end: Instant,
    tracer: Option<&Tracer>,
    load: &mut Load,
    report: &mut Report,
) {
    let mut client = match Client::connect(endpoint) {
        Ok(c) => c,
        Err(e) => return report.fail_op(format!("block connect: {e}")),
    };
    let mut chunks = Vec::new();
    for k in 0usize.. {
        if Instant::now() >= end {
            break;
        }
        let range = plan.ranges[k % RANGE_POOL];
        let id = first_id + k as u64;
        let body = format!(
            r#"{{"id":{id},"cmd":"block","n":{BLOCK_N},"start":{},"end":{}}}"#,
            range.0, range.1
        );
        report.attempted += 1;
        chunks.clear();
        let sent = Instant::now();
        let answer = client
            .send_json(&body)
            .map_err(|e| e.to_string())
            .and_then(|()| read_block(&mut client, &mut chunks));
        let done = Instant::now();
        let (envelope, [first, last]) = match answer {
            Ok(a) => a,
            Err(e) => return report.fail_op(format!("block {id}: {e}")),
        };
        load.chunks += chunks.len() as u64;
        if let Some(t) = tracer {
            let span = t.record("serve.block", None, id, sent, done);
            t.record("serve.block.first_chunk", Some(span), id, sent, first);
            t.record("serve.block.tail", Some(span), id, last, done);
        }
        match check_block(
            id,
            range,
            plan.digests[k % RANGE_POOL],
            &envelope,
            &mut chunks,
        ) {
            Ok(micros) => {
                load.block_ms.push((done - sent).as_secs_f64() * 1e3);
                load.block_server_us.push(micros as f64);
                load.words += range.1 - range.0;
                load.block_secs += (done - sent).as_secs_f64();
            }
            Err(e) => report.fail_op(e),
        }
    }
}

/// Runs the lookup stream and the bulk client side by side for `seconds`.
fn load_phase(
    endpoint: &Endpoint,
    plan: &Plan,
    gen: &mut LookupGen,
    first_block_id: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> Load {
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let (mut lookups, mut blocks) = (Load::default(), Load::default());
    let (mut rep_l, mut rep_b) = (Report::default(), Report::default());
    std::thread::scope(|scope| {
        scope.spawn(|| lookup_stream(endpoint, gen, t0, end, tracer, &mut lookups, &mut rep_l));
        scope.spawn(|| {
            block_stream(
                endpoint,
                plan,
                first_block_id,
                end,
                tracer,
                &mut blocks,
                &mut rep_b,
            )
        });
    });
    for rep in [rep_l, rep_b] {
        report.attempted += rep.attempted;
        report.failed += rep.failed;
        for p in rep.problems {
            report.problem(p);
        }
    }
    Load {
        block_ms: blocks.block_ms,
        block_server_us: blocks.block_server_us,
        words: blocks.words,
        block_secs: blocks.block_secs,
        chunks: blocks.chunks,
        ..lookups
    }
}

/// Sends the fixed probe block and checks its chunk count against the
/// record and its words against the reference digest.
fn probe(server: &mut Server, workers: usize, plan: &Plan, report: &mut Report) -> u64 {
    report.attempted += 1;
    let body = format!(r#"{{"id":900,"cmd":"block","n":{BLOCK_N},"start":0,"end":{BLOCK_LEN}}}"#);
    let mut resp = match server.request(&body) {
        Ok(r) => r,
        Err(e) => {
            report.fail_op(format!("probe: {e}"));
            return 0;
        }
    };
    if let Err(e) = check_block(
        900,
        (0, BLOCK_LEN),
        plan.probe_digest,
        &resp.envelope,
        &mut resp.chunks,
    ) {
        report.fail_op(format!("probe: {e}"));
    }
    let key = workers.min(8).to_string();
    let want = exact_u64(
        &crate::exact_stats(),
        &["serve_probe_chunks_by_workers", &key],
    );
    report.exact(
        &format!("serve probe chunks at {key} workers"),
        want,
        resp.chunks.len() as u64,
    );
    resp.chunks.len() as u64
}

/// The server's counters from a final `stats` request: chunks,
/// bytes_out, errors, requests_timed_out, conns_rejected.
fn final_stats(server: &mut Server, chunks_received: u64, report: &mut Report) -> [u64; 5] {
    report.attempted += 1;
    let row = server
        .request(r#"{"id":901,"cmd":"stats"}"#)
        .and_then(|r| parse_ok(&r.envelope).map(|(json, _)| json));
    let json = match row {
        Ok(j) => j,
        Err(e) => {
            report.fail_op(format!("stats: {e}"));
            return [0; 5];
        }
    };
    let row = first_result(&json);
    let field = |k: &str| {
        row.and_then(|r| r.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX)
    };
    let counters = [
        "chunks",
        "bytes_out",
        "errors",
        "requests_timed_out",
        "conns_rejected",
    ]
    .map(field);
    report.exact(
        "serve chunks sent vs received",
        Some(chunks_received),
        counters[0],
    );
    for (k, v) in ["errors", "requests_timed_out", "conns_rejected"]
        .iter()
        .zip(&counters[2..])
    {
        if *v != 0 {
            report.fail_op(format!("server reports {k} = {v}"));
        }
    }
    counters
}

fn params(report: &mut Report, workers: usize) {
    report.params.push(format!(
        "serve-mix: workers={workers} chunk=8192 transport=tcp-loopback \
         lookup_rate={LOOKUP_RATE}/s open-loop lookup_n=8..=16 unrank:rank=1:1 \
         block_n={BLOCK_N} block_len={BLOCK_LEN} block_ranges={RANGE_POOL} closed-loop \
         server_spawns={SERVER_SPAWNS}"
    ));
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let workers = nproc();
    params(report, workers);
    let plan = plan(seed);
    let mut setup = Vec::new();
    let mut kept = None;
    for i in 0..SERVER_SPAWNS {
        report.attempted += 1;
        let l = LookupGen::new(seed ^ 0x5E7_0000 ^ i as u64).next();
        let t = Instant::now();
        let first = Server::start(workers).and_then(|mut s| {
            let r = s.request(&l.body)?;
            check_lookup(&l, &r.envelope)?;
            Ok(s)
        });
        match first {
            Ok(s) => {
                setup.push(t.elapsed().as_secs_f64());
                if i + 1 < SERVER_SPAWNS {
                    if let Err(e) = s.shutdown() {
                        report.fail_op(e);
                    }
                } else {
                    kept = Some(s);
                }
            }
            Err(e) => report.fail_op(format!("server start: {e}")),
        }
    }
    let Some(mut server) = kept else { return };
    let probe_chunks = probe(&mut server, workers, &plan, report);
    let mut gen = LookupGen::new(seed);
    let load = load_phase(
        &server.endpoint.clone(),
        &plan,
        &mut gen,
        1 << 32,
        seconds,
        None,
        report,
    );
    final_stats(&mut server, probe_chunks + load.chunks, report);
    match crate::peak_rss_mb(&server.pid()) {
        Ok(mb) => report.push(Metric::single("peak_rss_mb", "MB", mb)),
        Err(e) => report.problem(e),
    }
    if let Err(e) = server.shutdown() {
        report.fail_op(e);
    }
    let stalled = load.block_ms.iter().filter(|&&ms| ms > 20.0).count();
    let block = Metric::median_of("block_p50_ms", "ms", &load.block_ms);
    let lookup = Metric::median_of("lookup_p50_us", "us", &load.lookup_due_us);
    report.params.push(format!(
        "observed: block_requests={} blocks_over_20ms={stalled} block_p50_ms={:.4} \
         lookups={} lookup_p50_from_due_us={:.2} backlog={}",
        block.samples, block.value, lookup.samples, lookup.value, load.backlog
    ));
    report.push(Metric::median_of("setup_s", "s", &setup));
    // A fifth to a third of the bulk requests wait ~40 ms for their
    // envelope (a delayed-ACK stall behind Nagle); the 90th and 95th
    // percentiles sit on that stall and repeat within a few percent.
    // The median block, the mean (the delivered rate) and the lookup
    // median from due time move by a fifth to several-fold between runs
    // with the host's steal, so they are reported, not bounded.
    report.push(Metric::quantile_of("step1_ms", "ms", &load.block_ms, 0.95));
    report.push(Metric::quantile_of("step2_ms", "ms", &load.block_ms, 0.90));
}

/// The traced run's share for this workload: an untraced and a traced
/// load phase against one server, then the in-process factoradic layer
/// over the same seeded inputs.
pub fn traced(seed: u64, seconds: f64, tracer: &Tracer, report: &mut Report) {
    let workers = nproc();
    params(report, workers);
    let plan = plan(seed);
    let mut server = match Server::start(workers) {
        Ok(s) => s,
        Err(e) => return report.fail_op(format!("server start: {e}")),
    };
    let probe_chunks = probe(&mut server, workers, &plan, report);
    let endpoint = server.endpoint.clone();
    let mut gen = LookupGen::new(seed);
    let phase = seconds * 0.4;
    let untraced = load_phase(&endpoint, &plan, &mut gen, 1 << 32, phase, None, report);
    let traced = load_phase(
        &endpoint,
        &plan,
        &mut gen,
        2 << 32,
        phase,
        Some(tracer),
        report,
    );
    let counters = final_stats(
        &mut server,
        probe_chunks + untraced.chunks + traced.chunks,
        report,
    );
    if let Err(e) = server.shutdown() {
        report.fail_op(e);
    }

    let rtt = tracer.durations_ns("serve.lookup");
    let wire: Vec<f64> = rtt
        .iter()
        .zip(&traced.lookup_server_us)
        .map(|(ns, server)| ns / 1e3 - server)
        .collect();
    let span_us = |name: &str| -> Vec<f64> {
        tracer
            .durations_ns(name)
            .iter()
            .map(|ns| ns / 1e3)
            .collect()
    };
    report.push(Metric::median_of(
        "serve.lookup.server_us",
        "us",
        &traced.lookup_server_us,
    ));
    report.push(Metric::median_of("serve.lookup.wire_us", "us", &wire));
    report.push(Metric::median_of(
        "serve.lookup_p50_us",
        "us",
        &traced.lookup_due_us,
    ));
    report.push(Metric::quantile_of(
        "serve.lookup_p99_us",
        "us",
        &traced.lookup_due_us,
        0.99,
    ));
    report.push(Metric::median_of(
        "serve.block.first_chunk_us",
        "us",
        &span_us("serve.block.first_chunk"),
    ));
    report.push(Metric::median_of(
        "serve.block_p50_ms",
        "ms",
        &traced.block_ms,
    ));
    report.push(Metric::median_of(
        "serve.block.server_us",
        "us",
        &traced.block_server_us,
    ));
    report.push(Metric::median_of(
        "serve.block.tail_us",
        "us",
        &span_us("serve.block.tail"),
    ));
    let served = traced.words as f64 / traced.block_secs / 1e6;
    report.push(Metric::single(
        "serve.block_mperms_per_s",
        "Mperm/s",
        served,
    ));
    let names = [
        "serve.chunks",
        "serve.bytes_out",
        "serve.errors",
        "serve.requests_timed_out",
        "serve.conns_rejected",
    ];
    for (name, v) in names.iter().zip(counters) {
        report.push(Metric::single(name, "count", v as f64));
    }
    report.push(Metric::quantile_of(
        "gen.late_us",
        "us",
        &traced.late_us,
        0.99,
    ));
    report.push(Metric::single(
        "gen.backlog",
        "count",
        (untraced.backlog + traced.backlog) as f64,
    ));

    // The factoradic layer in-process on the same seeded inputs.
    let budget = Duration::from_secs_f64(seconds * 0.1);
    let mut decoder = BlockDecoder::new(BLOCK_N);
    let mut words = Vec::with_capacity(BLOCK_LEN as usize);
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < budget || k < RANGE_POOL {
        let (s, e) = plan.ranges[k % RANGE_POOL];
        tracer.span("factoradic.block", None, k as u64, |_| {
            words.clear();
            decoder.decode_words_into(s..e, &mut words);
        });
        if digest(words.iter().copied()) != plan.digests[k % RANGE_POOL] {
            report.fail_op(format!("BlockDecoder range {k} differs from its digest"));
        }
        k += 1;
    }
    let rates: Vec<f64> = tracer
        .durations_ns("factoradic.block")
        .iter()
        .map(|ns| BLOCK_LEN as f64 / ns * 1e3)
        .collect();
    let decode_rate = median(&rates);
    report.push(Metric::median_of(
        "factoradic.block_mperms_per_s",
        "Mperm/s",
        &rates,
    ));
    report.push(Metric::single(
        "serve.wire_efficiency",
        "ratio",
        served / decode_rate,
    ));

    let mut gen = LookupGen::new(seed);
    let lookups: Vec<(usize, u64)> = (0..1000)
        .map(|_| {
            let l = gen.next();
            (l.perm.len(), l.index)
        })
        .collect();
    let mut unrankers: Vec<Unranker> = (0..=16).map(Unranker::new).collect();
    let start = Instant::now();
    let mut batch = 0;
    while start.elapsed() < budget || batch < 10 {
        tracer.span("factoradic.unrank", None, batch, |_| {
            for &(n, index) in &lookups {
                std::hint::black_box(unrankers[n].unrank(std::hint::black_box(index)));
            }
        });
        batch += 1;
    }
    let per_call: Vec<f64> = tracer
        .durations_ns("factoradic.unrank")
        .iter()
        .map(|ns| ns / lookups.len() as f64)
        .collect();
    report.push(Metric::median_of("factoradic.unrank_ns", "ns", &per_call));

    let overhead = 100.0 * (median(&traced.block_ms) / median(&untraced.block_ms) - 1.0);
    report.push(Metric::single("trace.overhead_pct.serve", "%", overhead));
}
