//! `kamino-loadgen` — production-traffic load generator for the serving
//! stack, reporting sustained `/synthesize` throughput and latency
//! quantiles as `BENCH_serve.json`.
//!
//! ```text
//! kamino-loadgen [--fast] [--out FILE]
//! ```
//!
//! The workload is "fetch N synthetic rows per request" on keep-alive
//! connections, measured across serving configurations:
//!
//! * `direct` — the epoll event loop with pooling disabled
//!   (`--pool-batches 0`): each request is sampled inline as a single
//!   whole-request draw.
//! * `pooled_hot` — the event loop with the speculation ring warm;
//!   clients stream the same N rows as aligned `--pool-rows` chunks the
//!   ring pre-sampled. Pooling fixes the draw granularity at the ring's
//!   batch size and takes sampling off the request critical path.
//! * `pooled_c2` / `pooled_c4` — the pooled path under 2 and 4
//!   concurrent clients (scaling behavior of the single event loop).
//!
//! Timing comes from `kamino-obs` instrumentation: every server feeds
//! the `kamino_http_request_duration_seconds` histogram (p50/p99), and
//! the monotonic obs clock frames the sustained-RPS window. All
//! wall-clock-dependent values live under `"timing"` keys so CI can
//! assert the rest of the document byte-identical across runs.
//!
//! Overload replies are retried, not fatal: a 429 (queue shed) or 503
//! (deadline expired) backs off on a deterministic, jitter-free
//! exponential schedule — `25ms · 2^attempt`, capped at 800ms, floored
//! by the server's `Retry-After` — and the per-scenario retry counts are
//! reported as the non-timing `retries_429`/`retries_503` keys (both 0
//! when the server is run without `--max-queue`/`--request-timeout`, as
//! here, keeping the document byte-stable).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::thread;
use std::time::Duration;

use kamino_obs::metrics::LATENCY_BUCKETS_S;
use kamino_obs::{clock, ObsHandle};
use kamino_serve::{Json, ServeConfig, Server};

/// Worker threads per event-loop scenario server.
const THREADS: usize = 4;
/// Speculated batches kept per model in the pooled scenarios.
const POOL_BATCHES: usize = 32;
/// Rows per speculated batch — the pool's fixed draw granularity.
const POOL_ROWS: usize = 10;
/// First backoff delay after a 429/503 reply.
const BACKOFF_BASE_MS: u64 = 25;
/// Backoff ceiling (the server's `Retry-After` may still exceed it).
const BACKOFF_CAP_MS: u64 = 800;
/// Retries per request before the run is declared stuck.
const BACKOFF_MAX_ATTEMPTS: u32 = 10;

/// Knobs that differ between `--fast` (CI smoke) and the full run.
struct LoadCfg {
    fast: bool,
    fit_rows: usize,
    train_scale: f64,
    /// Rows fetched per `/synthesize` request (the workload unit).
    rows_per_request: usize,
    requests_per_client: usize,
}

impl LoadCfg {
    fn new(fast: bool) -> LoadCfg {
        LoadCfg {
            fast,
            fit_rows: if fast { 100 } else { 200 },
            train_scale: if fast { 0.03 } else { 0.05 },
            rows_per_request: 400,
            requests_per_client: if fast { 40 } else { 150 },
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: kamino-loadgen [--fast] [--out FILE]");
    std::process::exit(2);
}

/// One `Connection: close` exchange (control plane: fit, metrics, poll).
fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: loadgen\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, payload) = text.split_once("\r\n\r\n").expect("no header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, payload.to_string())
}

fn boot(pooled: bool, obs: &ObsHandle) -> (Server, SocketAddr) {
    let server = Server::bind(ServeConfig {
        listen: "127.0.0.1:0".into(),
        threads: THREADS,
        pool_batches: if pooled { POOL_BATCHES } else { 0 },
        pool_rows: POOL_ROWS,
        obs: obs.clone(),
        ..ServeConfig::default()
    })
    .expect("bind scenario server");
    let addr = server.local_addr();
    (server, addr)
}

/// Fits the scenario model over HTTP and waits for readiness.
fn fit_model(addr: SocketAddr, cfg: &LoadCfg) -> u64 {
    let spec = format!(
        r#"{{"corpus":"adult","rows":{},"epsilon":1.0,"seed":17,"train_scale":{}}}"#,
        cfg.fit_rows, cfg.train_scale
    );
    let (status, body) = request(addr, "POST", "/fit", Some(&spec));
    assert!(status.contains("202"), "fit rejected: {status} {body}");
    let id = Json::parse(&body)
        .expect("fit response JSON")
        .get("model_id")
        .and_then(Json::as_u64)
        .expect("model_id");
    let t0 = clock::now_nanos();
    loop {
        let (_, body) = request(addr, "GET", &format!("/models/{id}"), None);
        match Json::parse(&body)
            .expect("model info JSON")
            .get("status")
            .and_then(Json::as_str)
        {
            Some("ready") => return id,
            Some("failed") => panic!("fit failed: {body}"),
            _ => {
                assert!(clock::secs_since(t0) < 300.0, "fit did not finish");
                thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Drives the pool to full depth before a pooled measurement: one aligned
/// request triggers speculation, then `/metrics` is polled until the ring
/// reports `POOL_BATCHES`.
fn warm_pool(addr: SocketAddr, id: u64) {
    let path = format!("/models/{id}/synthesize?n={POOL_ROWS}&batch={POOL_ROWS}&format=csv");
    let (status, _) = request(addr, "POST", &path, None);
    assert!(status.contains("200"), "warmup request failed: {status}");
    let series = format!("kamino_pool_depth{{model=\"{id}\"}} ");
    let t0 = clock::now_nanos();
    loop {
        let (_, body) = request(addr, "GET", "/metrics", None);
        let depth: u64 = body
            .lines()
            .find_map(|l| l.strip_prefix(series.as_str()))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        if depth as usize >= POOL_BATCHES {
            return;
        }
        assert!(clock::secs_since(t0) < 60.0, "pool never warmed: {body}");
        thread::sleep(Duration::from_millis(10));
    }
}

/// Per-client overload retry counters (summed into the scenario report).
#[derive(Default)]
struct ClientStats {
    retries_429: u64,
    retries_503: u64,
}

/// Deterministic, jitter-free exponential backoff for shed (429) and
/// deadline (503) replies: `25ms · 2^attempt` capped at 800ms, floored
/// by the server's `Retry-After`. No randomness — replaying a run
/// replays its exact retry timeline.
fn backoff_delay(attempt: u32, retry_after_secs: Option<u64>) -> Duration {
    let ms = BACKOFF_BASE_MS
        .saturating_mul(1 << attempt.min(5))
        .min(BACKOFF_CAP_MS);
    Duration::from_millis(ms.max(retry_after_secs.unwrap_or(0).saturating_mul(1000)))
}

/// Offset just past the head's blank line, once it has fully arrived.
fn head_end(raw: &[u8]) -> Option<usize> {
    raw.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Reads one full HTTP response: chunked bodies to their terminating
/// chunk (a deadline trailer also terminates), otherwise to the declared
/// `Content-Length`. CSV payloads contain no CR, so the chunked framing
/// terminators are unambiguous.
fn read_full_response(stream: &mut TcpStream, buf: &mut [u8]) -> Vec<u8> {
    let mut raw = Vec::new();
    loop {
        if let Some(end) = head_end(&raw) {
            let head = String::from_utf8_lossy(&raw[..end]).to_ascii_lowercase();
            let done = if head.contains("transfer-encoding: chunked") {
                raw.ends_with(b"\r\n0\r\n\r\n") || raw.ends_with(b"deadline-expired\r\n\r\n")
            } else {
                let len: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length: "))
                    .expect("no content length")
                    .trim()
                    .parse()
                    .expect("bad content length");
                raw.len() >= end + len
            };
            if done {
                return raw;
            }
        }
        let n = stream.read(buf).expect("read response");
        assert!(n > 0, "server closed mid-response");
        raw.extend_from_slice(&buf[..n]);
    }
}

/// One keep-alive client: `requests` back-to-back `/synthesize` streams on
/// a single connection. `batch = None` requests the whole stream as one
/// draw; `Some(b)` streams aligned `b`-row chunks.
/// Overloaded replies (429/503, or a stream cut by a deadline trailer)
/// back off deterministically and retry. Returns the raw bytes of the
/// first response so the caller can validate row counts once, plus the
/// retry counters.
fn client_loop(
    addr: SocketAddr,
    id: u64,
    batch: Option<usize>,
    cfg: &LoadCfg,
) -> (Vec<u8>, ClientStats) {
    let mut stream = TcpStream::connect(addr).expect("client connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let batch = batch.unwrap_or(cfg.rows_per_request);
    let req = format!(
        "POST /models/{id}/synthesize?n={n}&batch={batch}&format=csv HTTP/1.1\r\nhost: loadgen\r\ncontent-length: 0\r\n\r\n",
        n = cfg.rows_per_request
    );
    let mut stats = ClientStats::default();
    let mut first = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    for i in 0..cfg.requests_per_client {
        let mut attempt = 0u32;
        let raw = loop {
            stream.write_all(req.as_bytes()).expect("write request");
            let raw = read_full_response(&mut stream, &mut buf);
            let expired =
                raw.starts_with(b"HTTP/1.1 200") && raw.ends_with(b"deadline-expired\r\n\r\n");
            if raw.starts_with(b"HTTP/1.1 200") && !expired {
                break raw;
            }
            let end = head_end(&raw).unwrap_or(raw.len());
            let head = String::from_utf8_lossy(&raw[..end]).to_ascii_lowercase();
            if raw.starts_with(b"HTTP/1.1 429") {
                stats.retries_429 += 1;
            } else if raw.starts_with(b"HTTP/1.1 503") || expired {
                stats.retries_503 += 1;
            } else {
                panic!(
                    "unexpected reply under load: {}",
                    head.lines().next().unwrap_or("")
                );
            }
            assert!(
                attempt < BACKOFF_MAX_ATTEMPTS,
                "server still shedding after {attempt} retries"
            );
            // an expired stream is closed by the server; sheds may also
            // request a close — either way, reconnect before retrying
            if expired || head.contains("connection: close") {
                stream = TcpStream::connect(addr).expect("client reconnect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .unwrap();
            }
            let retry_after = head
                .lines()
                .find_map(|l| l.strip_prefix("retry-after: "))
                .and_then(|v| v.trim().parse().ok());
            thread::sleep(backoff_delay(attempt, retry_after));
            attempt += 1;
        };
        if i == 0 {
            first = raw;
        }
    }
    (first, stats)
}

/// Rows in a de-chunked CSV response (excluding the header line).
fn response_rows(raw: &[u8]) -> usize {
    let text = String::from_utf8_lossy(raw);
    let (_, payload) = text.split_once("\r\n\r\n").expect("no body");
    let mut rows = 0usize;
    let mut rest = payload;
    let mut first_chunk = true;
    while let Some((size_line, after)) = rest.split_once("\r\n") {
        let size = usize::from_str_radix(size_line.trim(), 16).unwrap_or(0);
        if size == 0 {
            break;
        }
        let chunk = &after[..size];
        rows += chunk.lines().count();
        if first_chunk {
            rows -= 1; // the CSV header line
            first_chunk = false;
        }
        rest = after[size..].strip_prefix("\r\n").unwrap_or(&after[size..]);
    }
    rows
}

struct ScenarioResult {
    name: &'static str,
    clients: usize,
    pooled: bool,
    requests: usize,
    rows_streamed: usize,
    retries_429: u64,
    retries_503: u64,
    secs: f64,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    pool_hits: u64,
}

/// Reads p50/p99 for the synthesize route out of an obs registry.
fn latency_quantiles(obs: &ObsHandle, min_count: u64, name: &str) -> (f64, f64) {
    let histo = obs.histogram(
        "kamino_http_request_duration_seconds",
        &[
            ("method", "POST"),
            ("route", "/models/{id}/synthesize"),
            ("status", "200"),
        ],
        LATENCY_BUCKETS_S,
    );
    let inner = histo.inner().expect("histogram detached");
    // server threads observe after the last response byte is written, so
    // the final observation can trail the client's read by a moment
    let t0 = clock::now_nanos();
    while inner.count() < min_count {
        assert!(
            clock::secs_since(t0) < 5.0,
            "{name}: histogram missed requests ({}/{min_count})",
            inner.count()
        );
        thread::sleep(Duration::from_millis(5));
    }
    (inner.quantile(0.5) * 1e3, inner.quantile(0.99) * 1e3)
}

/// Boots a fresh event-loop server, runs `clients` keep-alive loops to
/// completion, and reads throughput + latency out of the server's own obs
/// registry.
fn run_scenario(name: &'static str, pooled: bool, clients: usize, cfg: &LoadCfg) -> ScenarioResult {
    let obs = ObsHandle::enabled();
    let (server, addr) = boot(pooled, &obs);
    let handle = thread::spawn(move || server.run().expect("server run"));
    let id = fit_model(addr, cfg);
    if pooled {
        warm_pool(addr, id);
    }
    let batch = pooled.then_some(POOL_ROWS);

    let t0 = clock::now_nanos();
    let outcomes: Vec<(Vec<u8>, ClientStats)> = thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|_| s.spawn(move || client_loop(addr, id, batch, cfg)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client panicked"))
            .collect()
    });
    let secs = clock::secs_since(t0);

    for (first, _) in &outcomes {
        assert_eq!(
            response_rows(first),
            cfg.rows_per_request,
            "{name}: short stream"
        );
    }
    let retries_429 = outcomes.iter().map(|(_, s)| s.retries_429).sum();
    let retries_503 = outcomes.iter().map(|(_, s)| s.retries_503).sum();
    let requests = clients * cfg.requests_per_client;
    let (p50_ms, p99_ms) = latency_quantiles(&obs, requests as u64, name);

    let (_, metrics) = request(addr, "GET", "/metrics", None);
    let pool_hits: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("kamino_pool_hits_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);

    let (status, _) = request(addr, "POST", "/shutdown", None);
    assert!(status.contains("200"), "shutdown failed: {status}");
    handle.join().expect("server thread panicked");

    ScenarioResult {
        name,
        clients,
        pooled,
        requests,
        rows_streamed: requests * cfg.rows_per_request,
        retries_429,
        retries_503,
        secs,
        rps: requests as f64 / secs,
        p50_ms,
        p99_ms,
        pool_hits,
    }
}

fn scenario_json(r: &ScenarioResult) -> Json {
    Json::obj([
        ("name", Json::Str(r.name.to_string())),
        ("clients", Json::Num(r.clients as f64)),
        ("pooled", Json::Bool(r.pooled)),
        ("requests", Json::Num(r.requests as f64)),
        ("rows_streamed", Json::Num(r.rows_streamed as f64)),
        // non-timing: 0 under in-spec load, so byte-stable in CI
        ("retries_429", Json::Num(r.retries_429 as f64)),
        ("retries_503", Json::Num(r.retries_503 as f64)),
        (
            "timing",
            Json::obj([
                ("secs", Json::Num(round3(r.secs))),
                ("rps", Json::Num(round1(r.rps))),
                ("p50_ms", Json::Num(round3(r.p50_ms))),
                ("p99_ms", Json::Num(round3(r.p99_ms))),
                ("pool_hits", Json::Num(r.pool_hits as f64)),
            ]),
        ),
    ])
}

fn round1(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn main() -> ExitCode {
    let mut fast = false;
    let mut out = PathBuf::from("BENCH_serve.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--out" => out = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    let cfg = LoadCfg::new(fast);

    println!(
        "kamino-loadgen: {} mode, {} requests/client × {} rows/request",
        if cfg.fast { "fast" } else { "full" },
        cfg.requests_per_client,
        cfg.rows_per_request
    );
    let results: Vec<ScenarioResult> = [
        ("direct", false, 1usize),
        ("pooled_hot", true, 1),
        ("pooled_c2", true, 2),
        ("pooled_c4", true, 4),
    ]
    .into_iter()
    .map(|(name, pooled, clients)| run_scenario(name, pooled, clients, &cfg))
    .collect();
    for r in &results {
        println!(
            "  {:<18} {} client(s): {:.0} rps, p50 {:.2} ms, p99 {:.2} ms, {} pool hits, \
             {} shed retries, {} deadline retries",
            r.name, r.clients, r.rps, r.p50_ms, r.p99_ms, r.pool_hits, r.retries_429, r.retries_503
        );
    }

    let doc = Json::obj([
        ("schema_version", Json::Num(1.0)),
        (
            "config",
            Json::obj([
                ("fast", Json::Bool(cfg.fast)),
                ("fit_rows", Json::Num(cfg.fit_rows as f64)),
                ("train_scale", Json::Num(cfg.train_scale)),
                ("rows_per_request", Json::Num(cfg.rows_per_request as f64)),
                (
                    "requests_per_client",
                    Json::Num(cfg.requests_per_client as f64),
                ),
                ("pool_batches", Json::Num(POOL_BATCHES as f64)),
                ("pool_rows", Json::Num(POOL_ROWS as f64)),
                ("threads", Json::Num(THREADS as f64)),
                ("backoff_base_ms", Json::Num(BACKOFF_BASE_MS as f64)),
                ("backoff_cap_ms", Json::Num(BACKOFF_CAP_MS as f64)),
            ]),
        ),
        (
            "scenarios",
            Json::Arr(results.iter().map(scenario_json).collect()),
        ),
    ]);
    if let Err(e) = std::fs::write(&out, format!("{doc}\n")) {
        eprintln!("kamino-loadgen: writing {} failed: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("kamino-loadgen: wrote {}", out.display());
    ExitCode::SUCCESS
}
