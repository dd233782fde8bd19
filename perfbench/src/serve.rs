//! serve_tpch, and the small serve probe every other workload's traced
//! run makes so that the serve layer's per-layer keys exist everywhere.
//! Both boot `kamino-serve` in-process on a loopback port with
//! `ServeConfig` defaults apart from the port, the worker count and a
//! fresh model directory, and talk to it over plain HTTP/1.1.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use kamino_datasets::Corpus;
use kamino_obs::ObsHandle;
use kamino_serve::{Json, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checks::{dechunk_ok, parse_csv, plant_violating_pair, Quality, Truth};
use crate::stats::{mean, median, now, quantile, Digest, Kernel};
use crate::trace::Tracer;
use crate::workloads::{check_epsilon, end_to_end, finish_traced, FitSpec, OpTimes, Throughput};
use crate::{replay, Args, Corrupt, Layers, Run, SETUP_REPEATS};

/// The model each serve_tpch client reads from.
pub const SERVE_FIT: FitSpec = FitSpec {
    corpus: Corpus::TpcH,
    rows: 2000,
    train_scale: 1.0,
};
/// Keep-alive clients, one per model.
pub const CLIENTS: usize = 2;
/// Rows of an aligned request: the server's default pool batch, so these
/// requests are served from the sample pool at response scope.
pub const ALIGNED_ROWS: usize = 1000;
/// A run keeps going past its window until this many requests completed,
/// so at least ten lie beyond the 90th percentile.
pub const MIN_REQUESTS: u64 = 100;
/// Synthesize responses per client that enter the quality figures and the
/// CSV digest (a fixed prefix, so both are seed-determined).
pub const QUALITY_RESPONSES: usize = 10;
/// Share of requests that write a durable snapshot.
const SNAPSHOT_SHARE: f64 = 0.02;
/// Share of requests (after snapshots) with a misaligned row count.
const MISALIGNED_SHARE: f64 = 0.1;
/// Reference-kernel passes timed just before and just after the window.
const SERVE_REF_PASSES: usize = 20;
/// Attempts per request while the server sheds load (429/503).
const MAX_ATTEMPTS: u32 = 10;

/// One request of a client's seeded sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// `POST /models/{id}/synthesize?n=N&batch=N&format=csv`.
    Synth(usize),
    /// `POST /models/{id}/snapshot`.
    Snapshot,
}

/// The seeded request sequence of client `client`: mostly aligned
/// 1,000-row draws, about one in ten misaligned (100–500 rows, which
/// rewinds the pool and draws directly), about one in fifty a snapshot.
pub fn request_plan(seed: u64, client: usize) -> impl FnMut() -> Req {
    // kamino-lint: allow(raw_rng) -- generates benchmark inputs (which request comes next), not a mechanism; no privacy budget is involved
    let mut rng = StdRng::seed_from_u64(seed ^ (0x5E57_0000 + client as u64));
    move || {
        let u: f64 = rng.gen();
        if u < SNAPSHOT_SHARE {
            Req::Snapshot
        } else if u < SNAPSHOT_SHARE + MISALIGNED_SHARE {
            Req::Synth(rng.gen_range(100..501))
        } else {
            Req::Synth(ALIGNED_ROWS)
        }
    }
}

/// A server running on a thread of this process, with its model
/// directory. Dropping it shuts the server down and joins the thread.
pub struct LiveServer {
    /// Where it listens.
    pub addr: SocketAddr,
    dir: PathBuf,
    thread: Option<thread::JoinHandle<std::io::Result<()>>>,
}

impl LiveServer {
    /// Boots a server with a fresh, empty model directory named `tag`.
    pub fn boot(tag: &str) -> Result<LiveServer, String> {
        let dir = PathBuf::from(crate::report::OUT_DIR)
            .join(format!("models-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("model dir: {e}"))?;
        let threads = thread::available_parallelism().map_or(2, |n| n.get());
        let server = Server::bind(ServeConfig {
            listen: "127.0.0.1:0".into(),
            model_dir: Some(dir.clone()),
            threads,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let thread = thread::spawn(move || server.run());
        Ok(LiveServer {
            addr,
            dir,
            thread: Some(thread),
        })
    }

    /// Graceful shutdown; reports a server error or panic.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let sent = control(self.addr, "POST", "/shutdown", "");
        let joined = thread.join();
        let _ = std::fs::remove_dir_all(&self.dir);
        sent?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server error: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// One `Connection: close` exchange; returns (status line, body).
fn control(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(String, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {path}: {e}"))?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{path}: malformed response"))?;
    Ok((
        head.lines().next().unwrap_or("").to_string(),
        payload.to_string(),
    ))
}

/// Starts a fit over `POST /fit`; returns the model id.
fn start_fit(addr: SocketAddr, spec: FitSpec, seed: u64) -> Result<u64, String> {
    let body = format!(
        r#"{{"corpus":"{}","rows":{},"epsilon":{},"delta":{},"seed":{seed},"data_seed":{seed},"train_scale":{},"shards":1}}"#,
        spec.corpus.id(),
        spec.rows,
        crate::EPSILON,
        crate::DELTA,
        spec.train_scale
    );
    let (status, reply) = control(addr, "POST", "/fit", &body)?;
    if !status.contains("202") {
        return Err(format!("fit refused: {status} {reply}"));
    }
    Json::parse(&reply)
        .ok()
        .and_then(|j| j.get("model_id").and_then(Json::as_u64))
        .ok_or_else(|| format!("fit reply without model_id: {reply}"))
}

/// Polls a model until it is ready; returns its achieved ε.
fn wait_ready(addr: SocketAddr, id: u64) -> Result<f64, String> {
    let t0 = now();
    loop {
        let (_, body) = control(addr, "GET", &format!("/models/{id}"), "")?;
        let info = Json::parse(&body).map_err(|e| format!("model info: {e}"))?;
        match info.get("status").and_then(Json::as_str) {
            Some("ready") => {
                return info
                    .get("achieved_epsilon")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| "ready model without achieved_epsilon".into())
            }
            Some("failed") => return Err(format!("fit failed: {body}")),
            _ if t0.elapsed() > Duration::from_secs(150) => {
                return Err("fit did not finish in 150 s".into())
            }
            _ => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// A counter or gauge from the `/metrics` exposition (0 when absent).
fn scrape(addr: SocketAddr, series: &str) -> Result<f64, String> {
    let (_, body) = control(addr, "GET", "/metrics", "")?;
    Ok(body
        .lines()
        .find_map(|l| l.strip_prefix(series))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0))
}

/// Fills a model's sample pool before measuring: one aligned request
/// starts speculation, then the pool depth gauge is polled until full.
fn warm(addr: SocketAddr, id: u64) -> Result<(), String> {
    let path = format!("/models/{id}/synthesize?n={ALIGNED_ROWS}&batch={ALIGNED_ROWS}&format=csv");
    let (status, _) = control(addr, "POST", &path, "")?;
    if !status.contains("200") {
        return Err(format!("warm-up request: {status}"));
    }
    let full = ServeConfig::default().pool_batches as f64;
    let series = format!("kamino_pool_depth{{model=\"{id}\"}} ");
    let t0 = now();
    while scrape(addr, &series)? < full {
        if t0.elapsed() > Duration::from_secs(60) {
            return Err("pool never filled".into());
        }
        thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

/// Pool hits and misses so far.
fn pool_counts(addr: SocketAddr) -> Result<(f64, f64), String> {
    Ok((
        scrape(addr, "kamino_pool_hits_total ")?,
        scrape(addr, "kamino_pool_misses_total ")?,
    ))
}

/// A keep-alive connection.
struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One timed exchange on a keep-alive connection.
struct Exchange {
    raw: Vec<u8>,
    sent: Instant,
    first_byte: Instant,
    done: Instant,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            addr,
            stream,
            buf: vec![0; 64 * 1024],
        })
    }

    /// Sends one request and reads its whole response: a chunked body to
    /// its terminal chunk (or a trailer), otherwise `content-length`
    /// bytes, or whatever arrived before the server closed.
    fn exchange(&mut self, method: &str, path: &str) -> Result<Exchange, String> {
        let req =
            format!("{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: 0\r\n\r\n");
        let sent = now();
        self.stream
            .write_all(req.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut raw = Vec::new();
        let mut first_byte = None;
        loop {
            if let Some(end) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&raw[..end]).to_ascii_lowercase();
                let complete = if head.contains("transfer-encoding: chunked") {
                    raw.ends_with(b"\r\n0\r\n\r\n") || raw.ends_with(b"-expired\r\n\r\n")
                } else {
                    let len: usize = head
                        .lines()
                        .find_map(|l| l.strip_prefix("content-length: "))
                        .and_then(|v| v.trim().parse().ok())
                        .unwrap_or(0);
                    raw.len() >= end + 4 + len
                };
                if complete {
                    let done = now();
                    if head.contains("connection: close") {
                        *self = Conn::open(self.addr)?;
                    }
                    return Ok(Exchange {
                        raw,
                        sent,
                        first_byte: first_byte.unwrap_or(done),
                        done,
                    });
                }
            }
            let n = self
                .stream
                .read(&mut self.buf)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                let done = now();
                *self = Conn::open(self.addr)?;
                return Ok(Exchange {
                    raw,
                    sent,
                    first_byte: first_byte.unwrap_or(done),
                    done,
                });
            }
            first_byte.get_or_insert_with(now);
            raw.extend_from_slice(&self.buf[..n]);
        }
    }

    /// [`Conn::exchange`], retrying while the server sheds load.
    fn exchange_retrying(
        &mut self,
        method: &str,
        path: &str,
        retries: &mut u64,
    ) -> Result<Exchange, String> {
        let mut attempt = 0;
        loop {
            let ex = self.exchange(method, path)?;
            let shed = ex.raw.starts_with(b"HTTP/1.1 429") || ex.raw.starts_with(b"HTTP/1.1 503");
            if !shed || attempt + 1 >= MAX_ATTEMPTS {
                return Ok(ex);
            }
            *retries += 1;
            attempt += 1;
            thread::sleep(Duration::from_millis(25 << attempt.min(5)));
        }
    }
}

/// Timing of one synthesize request.
#[derive(Debug, Clone, Copy)]
pub struct RequestTiming {
    sent: Instant,
    first_byte: Instant,
    done: Instant,
    rows: usize,
    traced: bool,
}

impl RequestTiming {
    fn ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientOut {
    requests: Vec<RequestTiming>,
    snapshot_ms: Vec<f64>,
    snapshot_path: Option<String>,
    retries: u64,
    /// Requests attempted and failed, with the first failure messages.
    checks: Run,
    /// Worst hard-DC %, mean TVD over the first responses.
    hard_pct: f64,
    tvds: Vec<f64>,
    digest: Digest,
    last_done: Option<Instant>,
}

impl ClientOut {
    fn op(&mut self, result: Result<(), String>) {
        self.checks.op("request", result);
    }
}

/// Checks one synthesize response; returns its parsed rows.
fn check_response(
    truth: &Truth,
    raw: &mut Vec<u8>,
    n: usize,
    corrupt: Option<Corrupt>,
) -> Result<(kamino_data::Instance, Vec<u8>, Quality), String> {
    if corrupt == Some(Corrupt::ShortStream) {
        raw.truncate(raw.len().saturating_sub(7));
    }
    let body = dechunk_ok(raw)?;
    let mut inst = parse_csv(&truth.data.schema, &body, n)?;
    if corrupt == Some(Corrupt::ViolatingPair) {
        plant_violating_pair(truth, &mut inst);
    }
    let q = truth.check(&inst, n)?;
    Ok((inst, body, q))
}

/// What a client loop needs to know.
struct ClientCtx<'a> {
    addr: SocketAddr,
    model: u64,
    truth: &'a Truth,
    seed: u64,
    client: usize,
    start: &'a Barrier,
    window: Duration,
    trace_after: Option<Duration>,
    completed: &'a AtomicU64,
    corrupt: Option<Corrupt>,
}

/// One closed-loop client: sends its seeded sequence on one keep-alive
/// connection, each request only after the previous reply completed, until
/// the window is over and the run holds at least [`MIN_REQUESTS`].
fn client_loop(cx: ClientCtx<'_>) -> ClientOut {
    let mut out = ClientOut::default();
    let mut next = request_plan(cx.seed, cx.client);
    let mut conn = match Conn::open(cx.addr) {
        Ok(c) => c,
        Err(e) => {
            cx.start.wait();
            out.op(Err(e));
            return out;
        }
    };
    cx.start.wait();
    let start = now();
    let mut checked = 0usize;
    loop {
        let elapsed = start.elapsed();
        if elapsed >= cx.window && cx.completed.load(Ordering::Relaxed) >= MIN_REQUESTS {
            break;
        }
        let traced = cx.trace_after.is_some_and(|t| elapsed >= t);
        let req = next();
        let (method, path) = match req {
            Req::Synth(n) => (
                "POST",
                format!("/models/{}/synthesize?n={n}&batch={n}&format=csv", cx.model),
            ),
            Req::Snapshot => ("POST", format!("/models/{}/snapshot", cx.model)),
        };
        let ex = match conn.exchange_retrying(method, &path, &mut out.retries) {
            Ok(ex) => ex,
            Err(e) => {
                out.op(Err(e));
                break;
            }
        };
        cx.completed.fetch_add(1, Ordering::Relaxed);
        out.last_done = Some(ex.done);
        let mut raw = ex.raw;
        match req {
            Req::Snapshot => {
                out.snapshot_ms
                    .push((ex.done - ex.sent).as_secs_f64() * 1e3);
                let saved = dechunk_ok(&raw).and_then(|body| {
                    let reply = String::from_utf8_lossy(&body).into_owned();
                    Json::parse(&reply)
                        .ok()
                        .and_then(|j| j.get("path").and_then(Json::as_str).map(str::to_string))
                        .ok_or_else(|| format!("snapshot reply without a path: {reply}"))
                });
                let result = saved.map(|p| {
                    out.snapshot_path.get_or_insert(p);
                });
                out.op(result);
            }
            Req::Synth(n) => {
                out.requests.push(RequestTiming {
                    sent: ex.sent,
                    first_byte: ex.first_byte,
                    done: ex.done,
                    rows: n,
                    traced,
                });
                let corrupt = if cx.client == 0 && checked == 0 {
                    cx.corrupt
                } else {
                    None
                };
                match check_response(cx.truth, &mut raw, n, corrupt) {
                    Ok((_, body, q)) => {
                        if checked < QUALITY_RESPONSES {
                            out.hard_pct = out.hard_pct.max(q.hard_dc_violation_pct);
                            out.tvds.push(q.marginal_tvd_1way);
                            out.digest.update(&body);
                        }
                        out.op(Ok(()));
                    }
                    Err(e) => out.op(Err(format!("response {}: {e}", checked + 1))),
                }
                checked += 1;
            }
        }
    }
    out
}

/// Boots a server, fits the two client models over HTTP and fills their
/// pools. Returns the server, the model ids and the fit latencies.
fn set_up(tag: &str, seed: u64) -> Result<(LiveServer, Vec<u64>, Vec<f64>), String> {
    let server = LiveServer::boot(tag)?;
    let t0 = now();
    let ids = (0..CLIENTS)
        .map(|c| start_fit(server.addr, SERVE_FIT, model_seed(seed, c)))
        .collect::<Result<Vec<u64>, String>>()?;
    let mut fit_s = Vec::new();
    for &id in &ids {
        check_epsilon(wait_ready(server.addr, id)?)?;
        fit_s.push(t0.elapsed().as_secs_f64());
    }
    for &id in &ids {
        warm(server.addr, id)?;
    }
    Ok((server, ids, fit_s))
}

/// The seed (data and fit) of client `c`'s model.
fn model_seed(seed: u64, c: usize) -> u64 {
    seed * CLIENTS as u64 + c as u64
}

/// serve_tpch: two closed-loop clients, one per TPC-H model.
pub fn serve_tpch(args: &Args, run: &mut Run) {
    let mut tr = Tracer::new(args.trace);
    let obs = ObsHandle::enabled();
    let mut setup = Vec::new();
    let mut fit_s = Vec::new();
    let mut live = None;
    for k in 0..SETUP_REPEATS {
        let t0 = now();
        match set_up(&format!("serve{k}"), args.seed) {
            Ok((server, ids, fits)) => {
                setup.push(t0.elapsed().as_secs_f64());
                fit_s.extend(fits);
                if let Some((old, _)) = live.replace((server, ids)) {
                    run.op("server shutdown", LiveServer::stop(old));
                }
            }
            Err(e) => {
                run.op("set-up", Err(e));
                return;
            }
        }
    }
    let (server, ids) = live.expect("set-up ran");
    run.note("fit_s", median(&fit_s), "s");
    let truths: Vec<Truth> = (0..CLIENTS)
        .map(|c| {
            Truth::new(
                SERVE_FIT
                    .corpus
                    .generate(SERVE_FIT.rows, model_seed(args.seed, c)),
            )
        })
        .collect();

    // the reference kernel runs while the server is idle, just before and
    // just after the window, so server load cannot inflate it
    let mut times = OpTimes::new(Kernel::Mixed);
    times.calibrate(SERVE_REF_PASSES);
    let before = pool_counts(server.addr);
    let barrier = Barrier::new(CLIENTS + 1);
    let completed = AtomicU64::new(0);
    let window = Duration::from_secs_f64(args.seconds);
    let (outs, start) = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let cx = ClientCtx {
                    addr: server.addr,
                    model: ids[c],
                    truth: &truths[c],
                    seed: args.seed,
                    client: c,
                    start: &barrier,
                    window,
                    trace_after: args.trace.then_some(window / 2),
                    completed: &completed,
                    corrupt: args.corrupt,
                };
                s.spawn(move || client_loop(cx))
            })
            .collect();
        barrier.wait();
        let start = now();
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect();
        (outs, start)
    });
    let after = pool_counts(server.addr);
    times.calibrate(SERVE_REF_PASSES);
    times.pool_calibration();

    let mut all_ms = Vec::new();
    let (mut ttfb, mut stream, mut snapshots) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rows, mut requests, mut retries) = (0usize, 0usize, 0u64);
    let mut hard = 0.0f64;
    let mut tvds = Vec::new();
    let mut end = start;
    let mut snapshot_path = None;
    for (c, out) in outs.into_iter().enumerate() {
        run.attempted += out.checks.attempted;
        run.failed += out.checks.failed;
        run.errors.extend(
            out.checks
                .errors
                .into_iter()
                .map(|e| format!("client {c}: {e}")),
        );
        for r in &out.requests {
            let request = tr.record("serve.request", tr.ns_at(r.sent), tr.ns_at(r.done), None);
            tr.record(
                "serve.head",
                tr.ns_at(r.sent),
                tr.ns_at(r.first_byte),
                Some(request),
            );
            tr.record(
                "serve.stream",
                tr.ns_at(r.first_byte),
                tr.ns_at(r.done),
                Some(request),
            );
            times.push(r.traced, r.ms() / 1e3);
            all_ms.push(r.ms());
            ttfb.push((r.first_byte - r.sent).as_secs_f64() * 1e3);
            stream.push((r.done - r.first_byte).as_secs_f64() * 1e3);
            rows += r.rows;
        }
        requests += out.requests.len() + out.snapshot_ms.len();
        snapshots.extend(out.snapshot_ms);
        retries += out.retries;
        hard = hard.max(out.hard_pct);
        tvds.extend(out.tvds);
        end = end.max(out.last_done.unwrap_or(start));
        run.digests.insert(
            if c == 0 { "client0.csv" } else { "client1.csv" },
            out.digest.hex(),
        );
        snapshot_path = snapshot_path.or(out.snapshot_path.map(|p| (c, p)));
    }
    if all_ms.len() < MIN_REQUESTS as usize / 2 {
        run.op(
            "window",
            Err(format!("only {} requests completed", all_ms.len())),
        );
    }
    let q = Quality {
        hard_dc_violation_pct: hard,
        soft_dc_violation_gap_pct: 0.0,
        marginal_tvd_1way: mean(&tvds),
    };
    let secs = (end - start).as_secs_f64();
    run.note("requests", requests as f64, "count");
    run.note("requests_per_s", requests as f64 / secs, "req/s");
    run.note("request_ms_p50", median(&all_ms), "ms");
    run.note("request_ms_p90", quantile(&all_ms, 0.9), "ms");
    run.note("snapshots", snapshots.len() as f64, "count");

    let mut layers = Layers::default();
    match (before, after) {
        (Ok((h0, m0)), Ok((h1, m1))) => pool_layers(&mut layers, h1 - h0, m1 - m0),
        (Err(e), _) | (_, Err(e)) => run.op("metrics scrape", Err(e)),
    }
    layers.set("serve.ttfb_ms_p50", median(&ttfb));
    layers.set("serve.stream_ms_p50", median(&stream));
    layers.set("serve.snapshot_write_ms_p50", median(&snapshots));
    layers.set("serve.retries", retries as f64);
    for (k, v) in &layers.0 {
        if k.starts_with("serve.pool") || *k == "serve.retries" {
            let unit = if k.ends_with("ratio") {
                "ratio"
            } else {
                "count"
            };
            run.note(k, *v, unit);
        }
    }

    if args.trace {
        // replay the layers under the served model: its snapshot file (or a
        // fresh one) decoded, phase-by-phase fit replay, sampler replays
        let path = snapshot_path
            .map(Ok)
            .unwrap_or_else(|| -> Result<(usize, String), String> {
                let mut conn = Conn::open(server.addr)?;
                let mut r = 0;
                let ex = conn.exchange_retrying(
                    "POST",
                    &format!("/models/{}/snapshot", ids[0]),
                    &mut r,
                )?;
                let body = dechunk_ok(&ex.raw)?;
                let reply = String::from_utf8_lossy(&body).into_owned();
                Json::parse(&reply)
                    .ok()
                    .and_then(|j| {
                        j.get("path")
                            .and_then(Json::as_str)
                            .map(|p| (0, p.to_string()))
                    })
                    .ok_or_else(|| format!("snapshot reply without a path: {reply}"))
            });
        let model = path.and_then(|(c, p)| {
            let bytes = std::fs::read(&p).map_err(|e| format!("read {p}: {e}"))?;
            let fitted = kamino_serve::decode_fitted(&bytes).map_err(|e| e.to_string())?;
            Ok((c, fitted))
        });
        match model {
            Ok((c, fitted)) => {
                let cfg = crate::workloads::kamino_cfg(fitted.config().seed, SERVE_FIT.train_scale);
                let matches =
                    replay::fit_phases(&mut tr, &truths[c].data, &cfg, &fitted, &mut layers);
                run.op(
                    "fit replay",
                    if matches {
                        Ok(())
                    } else {
                        Err("phase replay disagrees with the served model".into())
                    },
                );
                let replayed =
                    replay::sample_layers(&mut tr, &fitted, ALIGNED_ROWS, &obs, &mut layers);
                run.op("sample replay", replayed.map(|_| ()));
            }
            Err(e) => run.op("served snapshot", Err(e)),
        }
        run.op("server shutdown", server.stop());
        finish_traced(args, run, &tr, &obs, layers, q, times.overhead_ratio());
    } else {
        run.op("server shutdown", server.stop());
        end_to_end(run, &setup, &times, Throughput::Window { rows, secs }, q);
    }
}

/// Pool keys from hit/miss deltas.
fn pool_layers(layers: &mut Layers, hits: f64, misses: f64) {
    layers.set("serve.pool_hits", hits);
    layers.set("serve.pool_misses", misses);
    layers.set(
        "serve.pool_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
}

/// Requests of the traced runs' serve probe.
const PROBE: &[Req] = &[
    Req::Synth(ALIGNED_ROWS),
    Req::Synth(ALIGNED_ROWS),
    Req::Synth(ALIGNED_ROWS),
    Req::Synth(300),
    Req::Synth(ALIGNED_ROWS),
    Req::Snapshot,
    Req::Synth(ALIGNED_ROWS),
];

/// The serve probe of fit and draw workloads' traced runs: the workload's
/// own fit served by a fresh server, a short fixed request sequence on one
/// connection, and the serve layer's keys from it.
pub fn probe(args: &Args, tr: &mut Tracer, spec: FitSpec, layers: &mut Layers, run: &mut Run) {
    let truth = Truth::new(spec.corpus.generate(spec.rows, args.seed));
    let result = (|| -> Result<(), String> {
        let server = LiveServer::boot("probe")?;
        let id = start_fit(server.addr, spec, args.seed)?;
        check_epsilon(wait_ready(server.addr, id)?)?;
        warm(server.addr, id)?;
        let (h0, m0) = pool_counts(server.addr)?;
        let mut conn = Conn::open(server.addr)?;
        let (mut ttfb, mut stream, mut snaps) = (Vec::new(), Vec::new(), Vec::new());
        let mut retries = 0;
        tr.time("serve.probe", |tr| {
            for &req in PROBE {
                let path = match req {
                    Req::Synth(n) => format!("/models/{id}/synthesize?n={n}&batch={n}&format=csv"),
                    Req::Snapshot => format!("/models/{id}/snapshot"),
                };
                let ex = conn.exchange_retrying("POST", &path, &mut retries)?;
                let request =
                    tr.record("serve.request", tr.ns_at(ex.sent), tr.ns_at(ex.done), None);
                tr.record(
                    "serve.head",
                    tr.ns_at(ex.sent),
                    tr.ns_at(ex.first_byte),
                    Some(request),
                );
                tr.record(
                    "serve.stream",
                    tr.ns_at(ex.first_byte),
                    tr.ns_at(ex.done),
                    Some(request),
                );
                let mut raw = ex.raw;
                match req {
                    Req::Synth(n) => {
                        ttfb.push((ex.first_byte - ex.sent).as_secs_f64() * 1e3);
                        stream.push((ex.done - ex.first_byte).as_secs_f64() * 1e3);
                        run.op(
                            "probe request",
                            check_response(&truth, &mut raw, n, None).map(|_| ()),
                        );
                    }
                    Req::Snapshot => {
                        snaps.push((ex.done - ex.sent).as_secs_f64() * 1e3);
                        run.op("probe snapshot", dechunk_ok(&raw).map(|_| ()));
                    }
                }
            }
            Ok::<(), String>(())
        })
        .0?;
        let (h1, m1) = pool_counts(server.addr)?;
        pool_layers(layers, h1 - h0, m1 - m0);
        layers.set("serve.ttfb_ms_p50", median(&ttfb));
        layers.set("serve.stream_ms_p50", median(&stream));
        layers.set("serve.snapshot_write_ms_p50", median(&snaps));
        layers.set("serve.retries", retries as f64);
        server.stop()
    })();
    run.op("serve probe", result);
}
