//! The synthesis server: an epoll event loop feeding a worker pool,
//! serving fitted Kamino models over HTTP/1.1.
//!
//! ## Endpoints
//!
//! | Method + path | Purpose |
//! |---|---|
//! | `POST /fit` | start an async fit job; returns a model id immediately |
//! | `GET /models` | list models and their states |
//! | `GET /models/{id}` | fit status, achieved ε, parameters, timings |
//! | `POST /models/{id}/synthesize?n=..&batch=..&format=csv\|json` | stream rows (chunked) |
//! | `POST /models/{id}/snapshot` | rewrite the model's own snapshot file (an imported one in place; otherwise `model-{id}.kamino` in the `--model-dir`) |
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | Prometheus text exposition of the server's one obs registry: request/row/fit counters, latency histograms, pool/LRU gauges, DP budget ledger (empty when the obs handle is disabled) |
//! | `POST /debug/trace` | chrome://tracing JSON of recorded spans and events |
//! | `POST /shutdown` | graceful stop: drain in-flight responses, exit `run` |
//!
//! ## Architecture
//!
//! One thread runs the readiness-driven event loop ([`crate::sys`] +
//! connection state machines in the `event_loop` module); `--threads`
//! workers execute the CPU-bound jobs it dispatches — fits, snapshot
//! loads, on-demand sample batches and pool refills — and report back
//! through a completion queue that wakes the poller. The event loop
//! itself never blocks on a model mutex: pooled batches are drained via
//! `try_lock`, and anything heavier becomes a `Job`.
//!
//! ## Privacy
//!
//! The privacy budget is spent exactly once, inside the fit job
//! ([`kamino_core::fit_kamino`]). Everything `/synthesize` does
//! afterwards — direct draws, pooled pre-sampling, eviction and reload —
//! is post-processing of the fitted model: any number of rows, for any
//! number of concurrent clients, is covered by the ε reported in
//! `GET /models/{id}`. Concurrent `/synthesize` requests against one
//! model serialize on the model's mutex per batch (the session RNG
//! advances under the lock), so clients interleave without data races
//! and without budget re-spend.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use kamino_core::{fit_kamino, KaminoConfig};
use kamino_datasets::Corpus;
use kamino_dp::Budget;
use kamino_obs::clock;
use kamino_obs::metrics::{Counter, Gauge, LATENCY_BUCKETS_S};
use kamino_obs::ObsHandle;

use crate::http::Request;
use crate::json::Json;
use crate::pool::{Format, PoolConfig};
use crate::registry::{ModelSlot, PinGuard, Registry, Resident, SlotStatus};
use crate::sys;

/// How long an idle keep-alive connection may sit without a request
/// before the event loop closes it. Bounds shutdown latency: no idle
/// connection outlives draining by more than this.
pub(crate) const IDLE_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a connection with pending response bytes may make zero
/// write progress before it is dropped (slow-loris guard; clients that
/// keep reading — however slowly — never hit it).
pub(crate) const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Caps on `/synthesize` query parameters.
const MAX_SYNTH_ROWS: usize = 10_000_000;
const MAX_BATCH: usize = 100_000;
/// Cap on `/fit` input rows (the corpus generators are in-memory).
const MAX_FIT_ROWS: usize = 200_000;
/// Cap on concurrently *training* fit jobs. Without a cap, a burst of
/// `POST /fit` could exhaust CPU and memory and starve `/synthesize`.
/// Excess requests get `429` and retry.
const MAX_CONCURRENT_FITS: u64 = 4;

/// Server configuration (mirrors the binary's flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (port 0 picks an ephemeral
    /// port — see [`Server::local_addr`]).
    pub listen: String,
    /// Directory for `.kamino` snapshots: registered lazily at boot,
    /// written by fit jobs, `POST /models/{id}/snapshot` and LRU
    /// eviction.
    pub model_dir: Option<PathBuf>,
    /// Worker threads for CPU-bound jobs (fits, loads, sample batches,
    /// pool refills).
    pub threads: usize,
    /// Most models resident in memory at once (`0` = unbounded). The
    /// least-recently-used unpinned model is evicted to its snapshot.
    pub max_models: usize,
    /// Pre-sampled batches kept per model (`0` disables pooling).
    pub pool_batches: usize,
    /// Rows per pooled batch; `/synthesize` requests streaming in
    /// chunks of exactly this size are served from the pool.
    pub pool_rows: usize,
    /// Per-request deadline. A request that cannot complete within it is
    /// answered `503` + `Retry-After`; a chunked stream already under
    /// way is terminated early with a `kamino-trailer: deadline-expired`
    /// trailer. [`Duration::ZERO`] (the default) disables deadlines.
    pub request_timeout: Duration,
    /// Bound on queued worker jobs. While the queue holds this many,
    /// new `/synthesize` and `/models/{id}/snapshot` work is shed with
    /// `429` + `Retry-After` (in-flight streams keep their lane), and
    /// pool speculation pauses once the queue is half full. `0` (the
    /// default) disables shedding.
    pub max_queue: usize,
    /// Observability handle shared by every request, fit job and model.
    /// Enabled by default — the server is the intended consumer of
    /// `/metrics` and `/debug/trace` — and strictly off the determinism
    /// contract: synthesized bytes are identical either way.
    pub obs: ObsHandle,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            listen: "127.0.0.1:7878".into(),
            model_dir: None,
            threads: 4,
            max_models: 0,
            pool_batches: 4,
            pool_rows: 1_000,
            request_timeout: Duration::ZERO,
            max_queue: 0,
            obs: ObsHandle::enabled(),
        }
    }
}

/// The server's own `/metrics` series, registered once at bind: hot
/// paths bump a held handle (one relaxed atomic op) and never look a
/// family up per event. All are detached no-ops on a disabled handle;
/// [`ServerMetrics::register`] names the series each field feeds.
pub(crate) struct ServerMetrics {
    pub requests: Counter,
    /// Requests that ended in a 4xx/5xx.
    pub errors: Counter,
    pub rows: Counter,
    pub fits_started: Counter,
    /// Fit jobs installed successfully.
    pub fits_done: Counter,
    /// `429`s from a full worker queue.
    pub sheds: Counter,
    /// `503`s and truncated streams from the per-request deadline.
    pub deadline_expired: Counter,
    /// `429`s from the concurrent-fit cap.
    pub fit_rejected: Counter,
    /// Set by the event loop, the only owner of connections.
    pub open_connections: Gauge,
    uptime: Gauge,
    queue_depth: Gauge,
    speculation_paused: Gauge,
    /// Spans the trace ring overwrote: non-zero means `/debug/trace`
    /// holds only the newest spans.
    spans_dropped: Gauge,
}

impl ServerMetrics {
    fn register(obs: &ObsHandle) -> ServerMetrics {
        ServerMetrics {
            requests: obs.counter("kamino_http_requests_total", &[]),
            errors: obs.counter("kamino_http_errors_total", &[]),
            rows: obs.counter("kamino_rows_synthesized_total", &[]),
            fits_started: obs.counter("kamino_fits_started_total", &[]),
            fits_done: obs.counter("kamino_fits_done_total", &[]),
            sheds: obs.counter("kamino_shed_total", &[]),
            deadline_expired: obs.counter("kamino_deadline_expired_total", &[]),
            fit_rejected: obs.counter("kamino_fit_rejected_total", &[]),
            open_connections: obs.gauge("kamino_open_connections", &[]),
            uptime: obs.gauge("kamino_uptime_seconds", &[]),
            queue_depth: obs.gauge("kamino_queue_depth", &[]),
            speculation_paused: obs.gauge("kamino_speculation_paused", &[]),
            spans_dropped: obs.gauge("kamino_trace_spans_dropped", &[]),
        }
    }
}

/// Everything the event loop and the workers share.
pub(crate) struct AppState {
    pub registry: Registry,
    pub metrics: ServerMetrics,
    pub obs: ObsHandle,
    pub addr: SocketAddr,
    /// obs-clock reading at bind; anchors uptime.
    pub started_ns: u64,
    /// Set by `POST /shutdown`: stop accepting, drain, exit.
    pub draining: AtomicBool,
    /// Fit jobs currently training (bounded by [`MAX_CONCURRENT_FITS`]).
    pub active_fits: AtomicU64,
    /// Worker jobs queued but not yet picked up (drives shedding).
    pub queue_depth: AtomicU64,
    /// Set while pool speculation is paused under queue pressure.
    pub speculation_paused: AtomicBool,
    /// Per-request deadline in nanoseconds (0 = off).
    pub request_timeout_ns: u64,
    /// Queued-job bound for load shedding (0 = off).
    pub max_queue: u64,
}

impl AppState {
    fn uptime_ns(&self) -> u64 {
        clock::now_nanos().saturating_sub(self.started_ns)
    }
}

/// CPU-bound work the event loop hands to the worker pool.
pub(crate) enum Job {
    /// Train a model (the only code path that touches private data).
    Fit { slot: Arc<ModelSlot>, spec: FitSpec },
    /// Produce the next batch of a `/synthesize` stream (loading the
    /// model first when necessary).
    Batch {
        token: u64,
        gen: u64,
        slot: Arc<ModelSlot>,
        rows: usize,
        format: Format,
        need_header: bool,
    },
    /// Top a model's sample pool back up.
    Refill { slot: Arc<ModelSlot> },
    /// Encode and persist a model snapshot.
    Snapshot {
        token: u64,
        gen: u64,
        slot: Arc<ModelSlot>,
    },
}

/// A batch produced by a worker for a streaming connection.
pub(crate) struct BatchOut {
    pub text: Arc<str>,
    pub rows: u64,
    /// CSV header line, present on the first batch of a stream whose
    /// model had to load before its schema was known.
    pub header: Option<String>,
}

/// Worker → event loop results, matched to connections by (token, gen).
pub(crate) enum Completion {
    Batch {
        token: u64,
        gen: u64,
        result: Result<BatchOut, (&'static str, String)>,
    },
    Snapshot {
        token: u64,
        gen: u64,
        result: Result<PathBuf, (&'static str, String)>,
    },
}

/// The completion queue plus the waker that interrupts the poller.
pub(crate) struct CompletionQueue {
    queue: Mutex<Vec<Completion>>,
    waker: sys::Waker,
}

impl CompletionQueue {
    pub fn new(waker: sys::Waker) -> CompletionQueue {
        CompletionQueue {
            queue: Mutex::new(Vec::new()),
            waker,
        }
    }

    pub fn push(&self, c: Completion) {
        // kamino-lint: allow(unordered_reduce) -- completions are routed by (token, gen) with at most one outstanding per connection; arrival order cannot reorder any client's byte stream
        self.queue.lock().unwrap().push(c);
        self.waker.wake();
    }

    pub fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue.lock().unwrap())
    }

    pub fn waker(&self) -> &sys::Waker {
        &self.waker
    }
}

/// An immediate (non-streaming) reply.
pub(crate) struct Reply {
    pub status: &'static str,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    pub close: bool,
    /// `Retry-After` seconds, set on shed (`429`) and deadline (`503`)
    /// replies so well-behaved clients back off instead of hammering.
    pub retry_after: Option<u32>,
}

impl Reply {
    pub fn json(status: &'static str, body: Json, close: bool) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            body: body.to_string().into_bytes(),
            close,
            retry_after: None,
        }
    }

    /// A JSON reply carrying a `Retry-After` header.
    pub fn json_retry(status: &'static str, body: Json, close: bool, secs: u32) -> Reply {
        Reply {
            retry_after: Some(secs),
            ..Reply::json(status, body, close)
        }
    }
}

/// What the event loop should do with a parsed request.
pub(crate) enum Action {
    /// Write this response now.
    Respond(Reply),
    /// Begin a chunked `/synthesize` stream.
    Stream(StreamStart),
    /// A job was dispatched; a [`Completion`] addressed to this
    /// connection will carry the response.
    AwaitWorker,
}

/// Everything the event loop needs to run one `/synthesize` stream.
pub(crate) struct StreamStart {
    pub slot: Arc<ModelSlot>,
    pub pin: PinGuard,
    pub remaining: usize,
    pub batch: usize,
    pub format: Format,
    /// CSV header line when the model's schema is already known
    /// (`None` outer: head deferred to the first worker batch).
    pub csv_header: Option<Option<String>>,
}

/// The `{"error": msg}` body of every JSON error reply.
pub(crate) fn err_json(msg: &str) -> Json {
    Json::obj([("error", Json::Str(msg.to_string()))])
}

/// Normalized route label for metrics and spans: model ids collapse to
/// `{id}` so the label set stays bounded no matter how many models the
/// server has fitted.
pub(crate) fn route_label(req: &Request) -> &'static str {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["healthz"] => "/healthz",
        ["metrics"] => "/metrics",
        ["shutdown"] => "/shutdown",
        ["fit"] => "/fit",
        ["models"] => "/models",
        ["models", _] => "/models/{id}",
        ["models", _, "synthesize"] => "/models/{id}/synthesize",
        ["models", _, "snapshot"] => "/models/{id}/snapshot",
        ["debug", "trace"] => "/debug/trace",
        _ => "other",
    }
}

/// Feeds one finished request into `kamino_http_request_duration_seconds`.
pub(crate) fn observe_request(
    state: &AppState,
    route: &str,
    method: &str,
    status: &str,
    dur_ns: u64,
) {
    if !state.obs.is_enabled() {
        return;
    }
    let code = status.split(' ').next().unwrap_or(status);
    state
        .obs
        .histogram(
            "kamino_http_request_duration_seconds",
            &[("method", method), ("route", route), ("status", code)],
            LATENCY_BUCKETS_S,
        )
        .observe(dur_ns as f64 / 1e9);
}

/// A bound (but not yet running) synthesis server.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    threads: usize,
}

impl Server {
    /// Binds the listen address and registers (without decoding) any
    /// snapshots found in the model directory.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        let pool_cfg = PoolConfig {
            batches: cfg.pool_batches,
            rows: cfg.pool_rows,
        };
        let registry = Registry::new(cfg.max_models, pool_cfg, cfg.model_dir.clone(), &cfg.obs);
        registry.boot_scan()?;
        let state = Arc::new(AppState {
            registry,
            metrics: ServerMetrics::register(&cfg.obs),
            obs: cfg.obs.clone(),
            addr,
            started_ns: clock::now_nanos(),
            draining: AtomicBool::new(false),
            active_fits: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            speculation_paused: AtomicBool::new(false),
            request_timeout_ns: cfg.request_timeout.as_nanos().min(u64::MAX as u128) as u64,
            max_queue: cfg.max_queue as u64,
        });
        Ok(Server {
            listener,
            state,
            threads: cfg.threads.max(1),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serves until `POST /shutdown`: the listener stops accepting,
    /// in-flight responses — including chunked `/synthesize` streams —
    /// drain to completion, idle keep-alive connections close, queued
    /// fit jobs finish, and `run` returns.
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener,
            state,
            threads,
        } = self;
        let poller = sys::Poller::new()?;
        let waker = sys::Waker::new()?;
        let done = Arc::new(CompletionQueue::new(waker));
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Mutex::new(job_rx);
        thread::scope(|scope| {
            for _ in 0..threads {
                let state = &state;
                let job_rx = &job_rx;
                let done = Arc::clone(&done);
                scope.spawn(move || worker_loop(state, job_rx, &done));
            }
            // the event loop owns the only Sender: when it returns, the
            // channel disconnects and the workers drain the queue and exit
            crate::event_loop::run(poller, listener, &state, job_tx, &done)
        })
    }
}

/// Queues a job, keeping the shed/speculation pressure state current.
pub(crate) fn send_job(state: &AppState, jobs: &mpsc::Sender<Job>, job: Job) {
    let depth = state.queue_depth.fetch_add(1, Ordering::AcqRel) + 1;
    note_queue_depth(state, depth);
    let _ = jobs.send(job);
}

/// `true` while the worker queue is at the shed bound.
pub(crate) fn overloaded(state: &AppState) -> bool {
    state.max_queue > 0 && state.queue_depth.load(Ordering::Acquire) >= state.max_queue
}

/// `true` while pool speculation should stay paused (queue pressure).
pub(crate) fn speculation_paused(state: &AppState) -> bool {
    state.speculation_paused.load(Ordering::Acquire)
}

/// Pressure hysteresis: speculation pauses once the queue is half full
/// and resumes only when it fully drains, so sustained load cannot
/// flap it per-job.
fn note_queue_depth(state: &AppState, depth: u64) {
    if state.max_queue == 0 {
        return;
    }
    if depth >= state.max_queue.div_ceil(2) {
        state.speculation_paused.store(true, Ordering::Release);
    } else if depth == 0 {
        state.speculation_paused.store(false, Ordering::Release);
    }
}

/// The `GET /metrics` body: refreshes the gauges that mirror state the
/// server already holds — without touching any model mutex — then
/// renders the obs registry, which holds every series.
fn render_metrics(state: &AppState) -> String {
    if !state.obs.is_enabled() {
        return String::new();
    }
    let m = &state.metrics;
    m.uptime.set(state.uptime_ns() as f64 / 1e9);
    m.queue_depth
        .set(state.queue_depth.load(Ordering::Relaxed) as f64);
    m.speculation_paused
        .set(f64::from(u8::from(speculation_paused(state))));
    m.spans_dropped.set(state.obs.spans_dropped() as f64);
    state.registry.publish_gauges();
    state.obs.render_prometheus()
}

/// The uniform shed reply: `429` + `Retry-After: 1`.
fn shed_reply(state: &AppState, close: bool) -> Action {
    state.metrics.sheds.inc();
    Action::Respond(Reply::json_retry(
        "429 Too Many Requests",
        err_json("server overloaded: worker queue is full; retry shortly"),
        close,
        1,
    ))
}

/// One worker thread: executes jobs until the event loop hangs up.
fn worker_loop(state: &Arc<AppState>, rx: &Mutex<mpsc::Receiver<Job>>, done: &CompletionQueue) {
    loop {
        let job = rx.lock().unwrap().recv();
        let Ok(job) = job else { break };
        let depth = state
            .queue_depth
            .fetch_sub(1, Ordering::AcqRel)
            .saturating_sub(1);
        note_queue_depth(state, depth);
        match job {
            Job::Fit { slot, spec } => run_fit(state, &slot, spec),
            Job::Refill { slot } => run_refill(&slot),
            Job::Batch {
                token,
                gen,
                slot,
                rows,
                format,
                need_header,
            } => {
                let result = run_batch(state, &slot, rows, format, need_header);
                let refill = matches!(result, Ok((_, true)));
                let result = result.map(|(out, _)| out);
                done.push(Completion::Batch { token, gen, result });
                // top the pool back up while the loop streams the bytes
                if refill {
                    run_refill(&slot);
                }
            }
            Job::Snapshot { token, gen, slot } => {
                let result = run_snapshot(state, &slot);
                done.push(Completion::Snapshot { token, gen, result });
            }
        }
    }
}

/// Serves the next `rows` of a resident model's stream — the one drain
/// behind the event loop's pooled fast path and the worker's batch job.
/// Runs [`crate::pool::SamplePool::take_batch`], sets the pool-depth
/// gauge, counts the pool hit or miss and touches the slot. Returns the
/// text, the row count, and whether the caller claimed a refill: the
/// batch is aligned, the ring is not full, speculation is not paused,
/// and `refill_queued` was free. The loop then queues a [`Job::Refill`];
/// a worker refills inline.
pub(crate) fn drain_batch(
    state: &AppState,
    slot: &ModelSlot,
    r: &mut Resident,
    rows: usize,
    format: Format,
) -> Result<(Arc<str>, u64, bool), String> {
    let (text, served, hit) = r.pool.take_batch(&mut r.fitted, rows, format)?;
    slot.pool_depth.set(r.pool.depth() as f64);
    let counter = if hit {
        &state.registry.pool_hits
    } else {
        &state.registry.pool_misses
    };
    counter.inc();
    state.registry.touch(slot);
    let refill = r.pool.aligned(rows)
        && r.pool.wants_refill()
        && !speculation_paused(state)
        && !slot.refill_queued.swap(true, Ordering::AcqRel);
    Ok((text, served, refill))
}

/// Refills a resident model's pool to its configured depth, releasing
/// the model mutex between batches so drains interleave, then releases
/// the refill claim [`drain_batch`] took.
fn run_refill(slot: &Arc<ModelSlot>) {
    loop {
        let mut guard = slot.resident.lock().unwrap();
        let Some(r) = guard.as_mut() else { break };
        if !r.pool.refill_one(&mut r.fitted) {
            break;
        }
        slot.pool_depth.set(r.pool.depth() as f64);
    }
    slot.refill_queued.store(false, Ordering::Release);
}

/// Maps an [`Registry::ensure_resident`] error to a status line.
fn residency_status(msg: &str) -> &'static str {
    if msg.contains("still fitting") || msg.starts_with("model failed to fit") {
        "409 Conflict"
    } else {
        "500 Internal Server Error"
    }
}

/// Produces one stream batch on a worker: loads the model if needed,
/// then drains it. The flag says whether to refill the pool afterwards.
fn run_batch(
    state: &Arc<AppState>,
    slot: &Arc<ModelSlot>,
    rows: usize,
    format: Format,
    need_header: bool,
) -> Result<(BatchOut, bool), (&'static str, String)> {
    state
        .registry
        .ensure_resident(slot)
        .map_err(|msg| (residency_status(&msg), msg))?;
    // between ensure_resident and this lock an eviction may race us;
    // one reload retry is enough because we then hold the mutex
    for _ in 0..2 {
        let mut guard = slot.resident.lock().unwrap();
        let Some(r) = guard.as_mut() else {
            drop(guard);
            state
                .registry
                .ensure_resident(slot)
                .map_err(|msg| (residency_status(&msg), msg))?;
            continue;
        };
        let header = if need_header && format == Format::Csv {
            match kamino_data::csv::header_line(r.fitted.schema()) {
                Ok(h) => Some(h),
                Err(e) => {
                    return Err((
                        "500 Internal Server Error",
                        format!("schema is not CSV-serializable: {e}"),
                    ))
                }
            }
        } else {
            None
        };
        let (text, served, refill) = drain_batch(state, slot, r, rows, format)
            .map_err(|e| ("500 Internal Server Error", e))?;
        let out = BatchOut {
            text,
            rows: served,
            header,
        };
        return Ok((out, refill));
    }
    Err((
        "500 Internal Server Error",
        "model kept being evicted under the request".into(),
    ))
}

/// `POST /models/{id}/snapshot`: loads the model if needed and
/// persists it at its canonical cursor without discarding speculation.
/// `dispatch` has already refused servers without a model directory.
fn run_snapshot(
    state: &Arc<AppState>,
    slot: &Arc<ModelSlot>,
) -> Result<PathBuf, (&'static str, String)> {
    state
        .registry
        .ensure_resident(slot)
        .map_err(|msg| (residency_status(&msg), msg))?;
    let mut guard = slot.resident.lock().unwrap();
    let Some(r) = guard.as_mut() else {
        return Err(("409 Conflict", "model not ready".into()));
    };
    let path = state
        .registry
        .persist(slot, r)
        .map_err(|e| ("500 Internal Server Error", format!("snapshot failed: {e}")))?;
    state.registry.touch(slot);
    Ok(path)
}

/// The async fit job. A panic inside the pipeline (e.g. an infeasible
/// budget) marks the model `failed` instead of taking a worker down.
///
/// The durable ledger brackets the privacy-relevant section: a
/// `FitIntent` is fsync'd *before* any mechanism runs — if the intent
/// cannot be made durable the fit is refused — and a `FitCommit` (or
/// `FitAbort` on panic) lands after. A crash anywhere between the two is
/// replayed at the next boot as `failed (crashed)` with the budgeted ε
/// still counted as spent.
fn run_fit(state: &Arc<AppState>, slot: &Arc<ModelSlot>, spec: FitSpec) {
    let budget = spec.cfg.budget;
    let plan_hash = spec.cfg.stable_hash();
    if let Err(msg) =
        state
            .registry
            .record_fit_intent(slot.id, budget.epsilon, budget.delta, plan_hash)
    {
        state.registry.finish_fit(
            slot,
            Err(format!(
                "refused: fit intent could not be made durable: {msg}"
            )),
            false,
        );
        state.active_fits.fetch_sub(1, Ordering::AcqRel);
        return;
    }
    crate::durable::chaos::fault_point("fit.after_intent");
    let result = catch_unwind(AssertUnwindSafe(|| {
        let d = spec.corpus.generate(spec.rows, spec.data_seed);
        fit_kamino(&d.schema, &d.instance, &d.dcs, &spec.cfg)
    }));
    let outcome = match result {
        Ok(fitted) => {
            let p = &fitted.params;
            let fingerprint = kamino_dp::spend_fingerprint(
                p.sigma_g,
                p.sigma_d,
                p.sigma_w,
                fitted.achieved_epsilon(),
            );
            state
                .registry
                .record_fit_commit(slot.id, fitted.achieved_epsilon(), fingerprint);
            Ok(fitted)
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "fit panicked".into());
            state
                .registry
                .record_fit_abort(slot.id, crate::durable::AbortReason::Panic);
            Err(msg)
        }
    };
    if state.registry.finish_fit(slot, outcome, spec.persist) {
        state.metrics.fits_done.inc();
    }
    state.active_fits.fetch_sub(1, Ordering::AcqRel);
}

/// The request surface of `POST /fit`.
pub(crate) struct FitSpec {
    corpus: Corpus,
    rows: usize,
    data_seed: u64,
    cfg: KaminoConfig,
    persist: bool,
}

/// The field `key` of `body` read through `read`: `Ok(None)` when absent,
/// an error naming the expected `kind` when present with another type.
fn field<'a, T>(
    body: &'a Json,
    key: &str,
    kind: &str,
    read: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    body.get(key)
        .map(|v| read(v).ok_or_else(|| format!("`{key}` must be {kind}")))
        .transpose()
}

fn parse_fit_spec(body: &Json, model_dir_set: bool) -> Result<FitSpec, String> {
    const UINT: &str = "a non-negative integer";
    let corpus = match field(body, "corpus", "a string", Json::as_str)?.unwrap_or("adult") {
        "adult" => Corpus::Adult,
        "br2000" => Corpus::Br2000,
        "tax" => Corpus::Tax,
        "tpch" => Corpus::TpcH,
        other => return Err(format!("unknown corpus `{other}`")),
    };
    let rows = field(body, "rows", UINT, Json::as_u64)?.unwrap_or(200) as usize;
    if rows == 0 || rows > MAX_FIT_ROWS {
        return Err(format!("`rows` must be in [1, {MAX_FIT_ROWS}]"));
    }
    // `"epsilon": "inf"` asks for the non-private run, like `non_private`
    let epsilon_inf = body.get("epsilon").and_then(Json::as_str) == Some("inf");
    let epsilon = if epsilon_inf {
        None
    } else {
        field(body, "epsilon", "a number or \"inf\"", Json::as_f64)?
    };
    let delta = field(body, "delta", "a number", Json::as_f64)?;
    let non_private =
        field(body, "non_private", "a boolean", Json::as_bool)?.unwrap_or(false) || epsilon_inf;
    let budget = if non_private {
        Budget::non_private()
    } else {
        let epsilon = epsilon.unwrap_or(1.0);
        let delta = delta.unwrap_or(1e-6);
        if epsilon <= 0.0 {
            return Err("`epsilon` must be positive".into());
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err("`delta` must be in (0, 1)".into());
        }
        Budget::new(epsilon, delta)
    };
    let mut cfg = KaminoConfig::new(budget);
    if let Some(seed) = field(body, "seed", UINT, Json::as_u64)? {
        cfg.seed = seed;
    }
    // one sampling engine: older clients may still send `"shards": 1`
    if body.get("shards").is_some_and(|v| v.as_u64() != Some(1)) {
        return Err("`shards` must be 1".into());
    }
    if let Some(scale) = field(body, "train_scale", "a number", Json::as_f64)? {
        if !(scale > 0.0 && scale <= 1.0) {
            return Err("`train_scale` must be in (0, 1]".into());
        }
        cfg.train_scale = scale;
    }
    if let Some(ratio) = field(body, "mcmc_ratio", "a number", Json::as_f64)? {
        if !(0.0..=1.0).contains(&ratio) {
            return Err("`mcmc_ratio` must be in [0, 1]".into());
        }
        cfg.mcmc_ratio = ratio;
    }
    let persist = field(body, "persist", "a boolean", Json::as_bool)?.unwrap_or(model_dir_set);
    Ok(FitSpec {
        corpus,
        rows,
        data_seed: field(body, "data_seed", UINT, Json::as_u64)?.unwrap_or(1),
        cfg,
        persist,
    })
}

/// Routes one parsed request. `token`/`gen` identify the connection for
/// worker completions; `close` is what the connection decided about
/// keep-alive (echoed into immediate replies).
pub(crate) fn dispatch(
    req: &Request,
    token: u64,
    gen: u64,
    state: &Arc<AppState>,
    jobs: &mpsc::Sender<Job>,
    close: bool,
) -> Action {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let body = Json::obj([
                ("status", Json::Str("ok".into())),
                ("models", Json::Num(state.registry.len() as f64)),
                (
                    "uptime_ms",
                    Json::Num((state.uptime_ns() / 1_000_000) as f64),
                ),
            ]);
            Action::Respond(Reply::json("200 OK", body, close))
        }
        ("GET", ["metrics"]) => Action::Respond(Reply {
            status: "200 OK",
            content_type: "text/plain; version=0.0.4",
            body: render_metrics(state).into_bytes(),
            close,
            retry_after: None,
        }),
        ("POST", ["debug", "trace"]) => Action::Respond(Reply {
            status: "200 OK",
            content_type: "application/json",
            body: state.obs.chrome_trace_json().into_bytes(),
            close,
            retry_after: None,
        }),
        ("POST", ["shutdown"]) => {
            state.draining.store(true, Ordering::Release);
            let body = Json::obj([("status", Json::Str("shutting down".into()))]);
            Action::Respond(Reply::json("200 OK", body, true))
        }
        ("POST", ["fit"]) => dispatch_fit(req, state, jobs, close),
        ("GET", ["models"]) => {
            let list: Vec<Json> = state
                .registry
                .list()
                .into_iter()
                .map(|s| {
                    Json::obj([
                        ("model_id", Json::Num(s.id as f64)),
                        ("status", Json::Str(s.status.lock().unwrap().name().into())),
                    ])
                })
                .collect();
            Action::Respond(Reply::json("200 OK", Json::Arr(list), close))
        }
        ("GET", ["models", id]) => match lookup(state, id) {
            None => not_found(close),
            Some(slot) => Action::Respond(Reply::json("200 OK", slot.info_json(), close)),
        },
        ("POST", ["models", id, "synthesize"]) => match lookup(state, id) {
            None => not_found(close),
            Some(slot) => dispatch_synthesize(req, state, slot, close),
        },
        ("POST", ["models", id, "snapshot"]) => match lookup(state, id) {
            None => not_found(close),
            Some(slot) => {
                if state.registry.model_dir().is_none() {
                    return Action::Respond(Reply::json(
                        "409 Conflict",
                        err_json("server started without --model-dir"),
                        close,
                    ));
                }
                if overloaded(state) {
                    return shed_reply(state, close);
                }
                send_job(state, jobs, Job::Snapshot { token, gen, slot });
                Action::AwaitWorker
            }
        },
        (_, ["healthz" | "metrics" | "shutdown" | "fit" | "models" | "debug", ..]) => {
            Action::Respond(Reply::json(
                "405 Method Not Allowed",
                err_json("method not allowed on this path"),
                close,
            ))
        }
        _ => Action::Respond(Reply::json(
            "404 Not Found",
            err_json("unknown path"),
            close,
        )),
    }
}

fn lookup(state: &AppState, id: &str) -> Option<Arc<ModelSlot>> {
    id.parse::<u64>().ok().and_then(|id| state.registry.get(id))
}

fn not_found(close: bool) -> Action {
    Action::Respond(Reply::json(
        "404 Not Found",
        err_json("no such model"),
        close,
    ))
}

fn dispatch_fit(
    req: &Request,
    state: &Arc<AppState>,
    jobs: &mpsc::Sender<Job>,
    close: bool,
) -> Action {
    let text = String::from_utf8_lossy(&req.body);
    let body = if req.body.is_empty() {
        Json::obj([])
    } else {
        match Json::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                return Action::Respond(Reply::json(
                    "400 Bad Request",
                    err_json(&format!("invalid JSON body: {e}")),
                    close,
                ))
            }
        }
    };
    let mut spec = match parse_fit_spec(&body, state.registry.model_dir().is_some()) {
        Ok(s) => s,
        Err(e) => return Action::Respond(Reply::json("400 Bad Request", err_json(&e), close)),
    };
    // fit phases, per-column sample spans and the DP budget ledger all
    // land in the server's shared obs sinks
    spec.cfg.obs = state.obs.clone();

    // admission control: claim a training slot or turn the burst away
    let claimed = state
        .active_fits
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            (n < MAX_CONCURRENT_FITS).then_some(n + 1)
        })
        .is_ok();
    if !claimed {
        state.metrics.fit_rejected.inc();
        return Action::Respond(Reply::json_retry(
            "429 Too Many Requests",
            err_json(&format!(
                "{MAX_CONCURRENT_FITS} fit jobs already training; retry shortly"
            )),
            close,
            1,
        ));
    }

    let slot = state.registry.create_fitting();
    let id = slot.id;
    state.metrics.fits_started.inc();
    send_job(state, jobs, Job::Fit { slot, spec });

    let body = Json::obj([
        ("model_id", Json::Num(id as f64)),
        ("status", Json::Str("fitting".into())),
        ("poll", Json::Str(format!("/models/{id}"))),
    ]);
    Action::Respond(Reply::json("202 Accepted", body, close))
}

fn dispatch_synthesize(
    req: &Request,
    state: &Arc<AppState>,
    slot: Arc<ModelSlot>,
    close: bool,
) -> Action {
    // shed at admission only: streams already running keep their lane
    // (their batch jobs are never shed mid-flight)
    if overloaded(state) {
        return shed_reply(state, close);
    }
    let bad = |msg: &str| Action::Respond(Reply::json("400 Bad Request", err_json(msg), close));
    let (n, batch) = match (req.query_usize("n"), req.query_usize("batch")) {
        (Ok(n), Ok(batch)) => (n.unwrap_or(100), batch.unwrap_or(1_000)),
        (Err(e), _) | (_, Err(e)) => return bad(&e),
    };
    if n == 0 || n > MAX_SYNTH_ROWS {
        return bad(&format!("`n` must be in [1, {MAX_SYNTH_ROWS}]"));
    }
    if batch == 0 || batch > MAX_BATCH {
        return bad(&format!("`batch` must be in [1, {MAX_BATCH}]"));
    }
    let format = match req.query.get("format").map(String::as_str).unwrap_or("csv") {
        "csv" => Format::Csv,
        "json" => Format::Json,
        _ => return bad("`format` must be `csv` or `json`"),
    };

    // refuse early when the model cannot serve; grab cached metadata so
    // ready models start streaming without waiting on the model mutex
    let meta = {
        let guard = slot.status.lock().unwrap();
        match &*guard {
            SlotStatus::Fitting => {
                return Action::Respond(Reply::json(
                    "409 Conflict",
                    err_json("model is still fitting"),
                    close,
                ))
            }
            SlotStatus::Failed(msg) => {
                return Action::Respond(Reply::json(
                    "409 Conflict",
                    err_json(&format!("model failed to fit: {msg}")),
                    close,
                ))
            }
            other => other.meta(),
        }
    };
    let csv_header = match &meta {
        Some(m) if format == Format::Csv => {
            if m.csv_header.is_none() {
                return Action::Respond(Reply::json(
                    "500 Internal Server Error",
                    err_json("schema is not CSV-serializable"),
                    close,
                ));
            }
            Some(m.csv_header.clone())
        }
        // NDJSON needs no header line, but a known schema still lets the
        // response head go out immediately
        Some(_) => Some(None),
        // never loaded since boot: the first worker batch brings the
        // header, and load errors still get a clean JSON status
        None => None,
    };
    let pin = state.registry.pin(&slot);
    state.registry.touch(&slot);
    Action::Stream(StreamStart {
        slot,
        pin,
        remaining: n,
        batch,
        format,
        csv_header,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(body: &str) -> Result<FitSpec, String> {
        parse_fit_spec(&Json::parse(body).unwrap(), false)
    }

    #[test]
    fn metrics_count_the_spans_a_full_trace_ring_dropped() {
        let obs = ObsHandle::with_caps(4, 4);
        let server = Server::bind(ServeConfig {
            listen: "127.0.0.1:0".into(),
            obs: obs.clone(),
            ..ServeConfig::default()
        })
        .unwrap();
        for _ in 0..6 {
            drop(obs.span("test.span"));
        }
        let body = render_metrics(&server.state);
        assert!(
            body.lines().any(|l| l == "kamino_trace_spans_dropped 2"),
            "{body}"
        );
    }

    #[test]
    fn fit_spec_rejects_a_wrongly_typed_epsilon() {
        assert_eq!(parse(r#"{"epsilon":0.5}"#).unwrap().cfg.budget.epsilon, 0.5);
        assert!(parse(r#"{"epsilon":"0.5"}"#).is_err());
        assert!(parse(r#"{"epsilon":true}"#).is_err());
        // the one string it takes asks for the non-private run
        let inf = parse(r#"{"epsilon":"inf"}"#).unwrap();
        assert!(inf.cfg.budget.is_non_private());
    }

    #[test]
    fn fit_spec_rejects_a_wrongly_typed_delta() {
        let spec = parse(r#"{"epsilon":0.5,"delta":1e-9}"#).unwrap();
        assert_eq!(spec.cfg.budget.delta, 1e-9);
        assert!(parse(r#"{"epsilon":0.5,"delta":"1e-9"}"#).is_err());
    }

    #[test]
    fn fit_spec_rejects_a_wrongly_typed_seed() {
        assert_eq!(parse(r#"{"seed":7}"#).unwrap().cfg.seed, 7);
        assert!(parse(r#"{"seed":"7"}"#).is_err());
        assert!(parse(r#"{"seed":-7}"#).is_err());
    }

    #[test]
    fn fit_spec_accepts_one_shard_only() {
        assert!(parse(r#"{"shards":1}"#).is_ok());
        for body in [r#"{"shards":0}"#, r#"{"shards":2}"#, r#"{"shards":"1"}"#] {
            assert_eq!(parse(body).err().as_deref(), Some("`shards` must be 1"));
        }
    }

    #[test]
    fn fit_spec_rejects_out_of_range_values() {
        let rows = "`rows` must be in [1, 200000]";
        let cases = [
            (r#"{"rows":0}"#, rows),
            (r#"{"rows":200001}"#, rows),
            (r#"{"epsilon":0}"#, "`epsilon` must be positive"),
            (r#"{"epsilon":-1}"#, "`epsilon` must be positive"),
            (r#"{"delta":0}"#, "`delta` must be in (0, 1)"),
            (r#"{"delta":1}"#, "`delta` must be in (0, 1)"),
            (r#"{"train_scale":0}"#, "`train_scale` must be in (0, 1]"),
            (r#"{"train_scale":1.5}"#, "`train_scale` must be in (0, 1]"),
            (r#"{"mcmc_ratio":-0.1}"#, "`mcmc_ratio` must be in [0, 1]"),
            (r#"{"mcmc_ratio":1.5}"#, "`mcmc_ratio` must be in [0, 1]"),
            (r#"{"corpus":"census"}"#, "unknown corpus `census`"),
        ];
        for (body, want) in cases {
            assert_eq!(parse(body).err().as_deref(), Some(want), "{body}");
        }
    }
}
