//! The readiness-driven connection engine behind [`crate::server`].
//!
//! One thread owns every socket. Connections live in a slab indexed by
//! epoll token (token 0 is the listener, token 1 the worker-completion
//! waker, tokens ≥ 2 are connections); each carries a generation counter
//! so a completion addressed to a connection that died and whose slot
//! was reused is dropped instead of corrupting a stranger's stream.
//!
//! Per connection the loop runs a small state machine:
//!
//! * **Idle** — buffering bytes and feeding them to the incremental
//!   HTTP parser ([`crate::http::try_parse`]); pipelined requests on one
//!   connection are served strictly in order.
//! * **AwaitWorker** — a job (snapshot persist) is on the worker queue;
//!   the matching [`Completion`] carries the response.
//! * **Streaming** — a chunked `/synthesize` response is in flight.
//!   Pooled batches are drained inline via `try_lock` (never blocking
//!   the loop); anything else — cold pools, lazy loads, misaligned batch
//!   sizes — is dispatched as a [`Job::Batch`] and written when the
//!   completion arrives. A high-water mark on the write buffer stops the
//!   loop from buffering a 10M-row response for a slow reader.
//!
//! Draining (`POST /shutdown`) deregisters the listener, closes idle
//! keep-alive connections, lets every in-flight response — including
//! chunked streams — run to completion, and returns once the slab is
//! empty; dropping the job sender then lets the workers finish queued
//! fits and exit.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};

use kamino_obs::clock;
use kamino_obs::span::SpanGuard;

use crate::http::{self, Parse, Request};
use crate::json::Json;
use crate::pool::Format;
use crate::registry::{ModelSlot, PinGuard};
use crate::server::{
    self, Action, AppState, BatchOut, Completion, CompletionQueue, Job, Reply, StreamStart,
    IDLE_READ_TIMEOUT, WRITE_STALL_TIMEOUT,
};
use crate::sys;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_BASE: u64 = 2;

/// Poll timeout: bounds how stale timeout checks can get.
const POLL_TICK_MS: i32 = 250;

/// Stop generating response bytes for a connection once this much is
/// already buffered; resume when the peer drains it.
const HIGH_WATER: usize = 256 * 1024;

/// Stop reading from a connection once this much request data is
/// buffered un-parsed (a full head plus a full body plus slack).
const READ_CAP: usize = http::MAX_HEAD + http::MAX_BODY + 4096;

/// The in-flight request's observability: span + latency sample.
struct Inflight {
    span: SpanGuard,
    t0: u64,
    route: &'static str,
    method: String,
}

/// A chunked `/synthesize` response in flight.
struct Stream {
    slot: Arc<ModelSlot>,
    /// Keeps the model safe from eviction until the stream ends.
    _pin: PinGuard,
    remaining: usize,
    batch: usize,
    format: Format,
    /// Pre-rendered CSV header to emit right after the response head.
    csv_header: Option<String>,
    head_sent: bool,
    /// A worker batch is outstanding; the completion resumes the pump.
    awaiting: bool,
}

enum Phase {
    Idle,
    AwaitWorker,
    Streaming(Box<Stream>),
}

struct Conn {
    stream: TcpStream,
    gen: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    phase: Phase,
    /// Close once the buffered response bytes are flushed.
    close_after: bool,
    /// Peer half-closed its write side: finish responding, accept no
    /// new requests.
    read_closed: bool,
    /// Unrecoverable socket error: drop as soon as we see it.
    dead: bool,
    last_activity: u64,
    interest: sys::Interest,
    inflight: Option<Inflight>,
}

fn content_type(format: Format) -> &'static str {
    match format {
        Format::Csv => "text/csv",
        Format::Json => "application/x-ndjson",
    }
}

fn err_body(msg: &str) -> Vec<u8> {
    Json::obj([("error", Json::Str(msg.to_string()))])
        .to_string()
        .into_bytes()
}

/// Closes out the in-flight request's span and latency sample.
fn finish_inflight(c: &mut Conn, state: &AppState, status: &'static str) {
    if let Some(mut inflight) = c.inflight.take() {
        if inflight.span.is_active() {
            inflight.span.arg("status", status.to_string());
        }
        drop(inflight.span);
        server::observe_request(
            state,
            inflight.route,
            &inflight.method,
            status,
            clock::now_nanos().saturating_sub(inflight.t0),
        );
    }
    if !status.starts_with('2') {
        state.metrics.errors.inc();
    }
}

/// Buffers an immediate response and finishes the request accounting.
fn send_reply(c: &mut Conn, state: &AppState, reply: Reply) {
    let retry_after = reply.retry_after.map(|secs| secs.to_string());
    let extra: Vec<(&str, &str)> = retry_after
        .as_deref()
        .map(|v| ("retry-after", v))
        .into_iter()
        .collect();
    let _ = http::write_response_extra(
        &mut c.write_buf,
        reply.status,
        reply.content_type,
        &reply.body,
        reply.close,
        &extra,
    );
    c.close_after |= reply.close;
    finish_inflight(c, state, reply.status);
}

/// Starts a chunked stream: the head (and CSV header) go out now when
/// the model's schema is already known, otherwise with the first worker
/// batch so load failures still get a clean JSON error status.
fn begin_stream(c: &mut Conn, start: StreamStart, close: bool) {
    c.close_after |= close;
    let mut s = Stream {
        slot: start.slot,
        _pin: start.pin,
        remaining: start.remaining,
        batch: start.batch,
        format: start.format,
        csv_header: start.csv_header.flatten(),
        head_sent: false,
        awaiting: false,
    };
    if start.meta_known {
        let _ = http::start_chunked(&mut c.write_buf, "200 OK", content_type(s.format));
        if let Some(h) = s.csv_header.take() {
            let _ = http::write_chunk(&mut c.write_buf, h.as_bytes());
        }
        s.head_sent = true;
    }
    c.phase = Phase::Streaming(Box::new(s));
}

/// Generates stream bytes until the request is satisfied, the write
/// buffer hits the high-water mark, or a worker has to take over.
fn pump(c: &mut Conn, token: u64, state: &Arc<AppState>, jobs: &mpsc::Sender<Job>) {
    let done = {
        let Phase::Streaming(s) = &mut c.phase else {
            return;
        };
        if s.awaiting {
            return;
        }
        while s.remaining > 0 && c.write_buf.len() < HIGH_WATER {
            let take = s.remaining.min(s.batch);
            let mut fast = false;
            // pooled fast path: a try_lock miss or a cold ring just means
            // a worker does it instead — the loop never blocks on a model
            if s.head_sent {
                if let Ok(mut guard) = s.slot.resident.try_lock() {
                    if let Some(r) = guard.as_mut() {
                        if r.pool.has_ready(take, s.format) {
                            if let Ok((text, rows, _hit)) =
                                r.pool.take_batch(&mut r.fitted, take, s.format)
                            {
                                s.slot.pool_depth.set(r.pool.depth() as f64);
                                // speculation pauses while the worker
                                // queue is under pressure
                                let refill = !server::speculation_paused(state)
                                    && r.pool.wants_refill()
                                    && !s.slot.refill_queued.swap(true, Ordering::AcqRel);
                                drop(guard);
                                state.registry.pool_hits.inc();
                                state.metrics.rows.add(rows);
                                state.registry.touch(&s.slot);
                                let _ = http::write_chunk(&mut c.write_buf, text.as_bytes());
                                s.remaining -= take;
                                if refill {
                                    server::send_job(
                                        state,
                                        jobs,
                                        Job::Refill {
                                            slot: Arc::clone(&s.slot),
                                        },
                                    );
                                }
                                fast = true;
                            }
                        }
                    }
                }
            }
            if !fast {
                // never shed mid-stream: admission control happens in
                // dispatch; an admitted stream keeps its worker lane
                server::send_job(
                    state,
                    jobs,
                    Job::Batch {
                        token,
                        gen: c.gen,
                        slot: Arc::clone(&s.slot),
                        rows: take,
                        format: s.format,
                        need_header: !s.head_sent,
                    },
                );
                s.awaiting = true;
                return;
            }
        }
        s.remaining == 0
    };
    if done {
        let _ = http::finish_chunked(&mut c.write_buf);
        c.phase = Phase::Idle; // drops the pin
        finish_inflight(c, state, "200 OK");
    }
}

/// Applies one worker completion to its connection (dropped when the
/// connection died or was reused — the generation check).
fn apply_completion(conns: &mut [Option<Conn>], comp: Completion, state: &Arc<AppState>) {
    match comp {
        Completion::Batch { token, gen, result } => {
            let Some(c) = conn_for(conns, token, gen) else {
                return;
            };
            apply_batch(c, state, result);
        }
        Completion::Snapshot { token, gen, result } => {
            let Some(c) = conn_for(conns, token, gen) else {
                return;
            };
            if !matches!(c.phase, Phase::AwaitWorker) {
                return;
            }
            c.phase = Phase::Idle;
            let reply = match result {
                Ok(path) => Reply::json(
                    "200 OK",
                    Json::obj([
                        ("status", Json::Str("saved".into())),
                        ("path", Json::Str(path.display().to_string())),
                    ]),
                    c.close_after,
                ),
                Err((status, msg)) => Reply {
                    status,
                    content_type: "application/json",
                    body: err_body(&msg),
                    close: c.close_after,
                    retry_after: None,
                },
            };
            send_reply(c, state, reply);
        }
    }
}

fn conn_for(conns: &mut [Option<Conn>], token: u64, gen: u64) -> Option<&mut Conn> {
    let idx = usize::try_from(token.checked_sub(TOKEN_BASE)?).ok()?;
    let c = conns.get_mut(idx)?.as_mut()?;
    (c.gen == gen).then_some(c)
}

fn apply_batch(
    c: &mut Conn,
    state: &Arc<AppState>,
    result: Result<BatchOut, (&'static str, String)>,
) {
    enum Outcome {
        Continue,
        Truncated,
        Failed(&'static str, String, bool),
    }
    let outcome = {
        let Phase::Streaming(s) = &mut c.phase else {
            return;
        };
        if !s.awaiting {
            return;
        }
        s.awaiting = false;
        match result {
            Ok(out) => {
                if !s.head_sent {
                    let _ = http::start_chunked(&mut c.write_buf, "200 OK", content_type(s.format));
                    if let Some(h) = &out.header {
                        let _ = http::write_chunk(&mut c.write_buf, h.as_bytes());
                    }
                    s.head_sent = true;
                }
                let _ = http::write_chunk(&mut c.write_buf, out.text.as_bytes());
                state.metrics.rows.add(out.rows);
                let take = s.remaining.min(s.batch);
                s.remaining -= take;
                Outcome::Continue
            }
            Err((status, msg)) => {
                if s.head_sent {
                    // status already on the wire: end the stream early
                    // rather than desync the framing
                    eprintln!(
                        "kamino-serve: stream for model {} truncated: {msg}",
                        s.slot.id
                    );
                    Outcome::Truncated
                } else {
                    Outcome::Failed(status, msg, c.close_after)
                }
            }
        }
    };
    match outcome {
        // the post-completion advance pass pumps the next batch
        Outcome::Continue => {}
        Outcome::Truncated => {
            let _ = http::finish_chunked(&mut c.write_buf);
            c.phase = Phase::Idle;
            c.close_after = true;
            finish_inflight(c, state, "200 OK");
        }
        Outcome::Failed(status, msg, close) => {
            c.phase = Phase::Idle;
            send_reply(
                c,
                state,
                Reply {
                    status,
                    content_type: "application/json",
                    body: err_body(&msg),
                    close,
                    retry_after: None,
                },
            );
        }
    }
}

/// Enforces the per-request deadline (`--request-timeout`).
///
/// A request whose status line has not gone out yet is answered
/// `503` + `Retry-After`; a chunked stream whose `200` head is already
/// on the wire is terminated with a well-formed empty chunk carrying a
/// `kamino-trailer: deadline-expired` trailer, then closed. Either way
/// the connection's generation is bumped so a late worker completion
/// addressed to the expired request is dropped, never written into the
/// next exchange.
fn expire_deadline(c: &mut Conn, state: &Arc<AppState>, now: u64, next_gen: &mut u64) {
    let timeout = state.request_timeout_ns;
    if timeout == 0 {
        return;
    }
    let Some(t0) = c.inflight.as_ref().map(|i| i.t0) else {
        return;
    };
    if now.saturating_sub(t0) <= timeout {
        return;
    }
    let head_sent = match &c.phase {
        // the response is already buffered; only the socket is slow, and
        // the write-stall guard owns that case
        Phase::Idle => return,
        Phase::AwaitWorker => false,
        Phase::Streaming(s) => s.head_sent,
    };
    c.gen = *next_gen;
    *next_gen += 1;
    state.metrics.deadline_expired.inc();
    c.phase = Phase::Idle; // drops the stream's pin, if any
    if head_sent {
        let _ = http::finish_chunked_with_trailer(
            &mut c.write_buf,
            "kamino-trailer",
            "deadline-expired",
        );
        c.close_after = true;
        finish_inflight(c, state, "200 OK");
    } else {
        let reply = Reply::json_retry(
            "503 Service Unavailable",
            Json::obj([("error", Json::Str("deadline expired".into()))]),
            c.close_after,
            1,
        );
        send_reply(c, state, reply);
    }
}

/// Parses and dispatches buffered requests while the connection is idle.
fn serve_buffered(
    c: &mut Conn,
    token: u64,
    state: &Arc<AppState>,
    jobs: &mpsc::Sender<Job>,
    draining: bool,
) {
    loop {
        pump(c, token, state, jobs);
        if !matches!(c.phase, Phase::Idle)
            || c.close_after
            || c.dead
            || c.write_buf.len() >= HIGH_WATER
        {
            return;
        }
        match http::try_parse(&c.read_buf) {
            Parse::Partial => {
                if c.read_closed && !c.read_buf.is_empty() {
                    // a half request can never complete
                    c.dead = true;
                }
                return;
            }
            Parse::Bad(status) => {
                state.metrics.requests.inc();
                state.metrics.errors.inc();
                let _ = http::write_response(
                    &mut c.write_buf,
                    status,
                    "application/json",
                    &err_body("malformed request"),
                    true,
                );
                server::observe_request(state, "unparsed", "-", status, 0);
                c.close_after = true;
                return;
            }
            Parse::Ready { req, consumed } => {
                c.read_buf.drain(..consumed);
                handle_request(c, token, &req, state, jobs, draining);
            }
        }
    }
}

fn handle_request(
    c: &mut Conn,
    token: u64,
    req: &Request,
    state: &Arc<AppState>,
    jobs: &mpsc::Sender<Job>,
    draining: bool,
) {
    state.metrics.requests.inc();
    let close = req.wants_close() || draining;
    let route = server::route_label(req);
    let mut span = state.obs.span("serve.request");
    if span.is_active() {
        span.arg("route", route.to_string());
        span.arg("method", req.method.clone());
    }
    c.inflight = Some(Inflight {
        span,
        t0: clock::now_nanos(),
        route,
        method: req.method.clone(),
    });
    match server::dispatch(req, token, c.gen, state, jobs, close) {
        Action::Respond(reply) => send_reply(c, state, reply),
        Action::Stream(start) => begin_stream(c, start, close),
        Action::AwaitWorker => {
            c.phase = Phase::AwaitWorker;
            c.close_after |= close;
        }
    }
}

/// Pulls everything the socket has for us (up to the read cap).
fn do_read(c: &mut Conn, now: u64) {
    let mut buf = [0u8; 16 * 1024];
    while c.read_buf.len() < READ_CAP {
        match c.stream.read(&mut buf) {
            Ok(0) => {
                c.read_closed = true;
                return;
            }
            Ok(n) => {
                c.read_buf.extend_from_slice(&buf[..n]);
                c.last_activity = now;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                return;
            }
        }
    }
}

/// Flushes as much buffered response as the socket accepts.
fn do_write(c: &mut Conn, now: u64) {
    while !c.write_buf.is_empty() {
        match c.stream.write(&c.write_buf) {
            Ok(0) => {
                c.dead = true;
                return;
            }
            Ok(n) => {
                c.write_buf.drain(..n);
                c.last_activity = now;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                return;
            }
        }
    }
}

/// Whether the connection has nothing left to do and should close.
fn finished(c: &Conn, draining: bool) -> bool {
    if c.dead {
        return true;
    }
    let idle = matches!(c.phase, Phase::Idle) && c.write_buf.is_empty();
    if idle && (c.close_after || draining) {
        return true;
    }
    // peer will never send another request and we owe it nothing
    idle && c.read_closed && c.read_buf.is_empty()
}

/// The event loop. Owns the listener, the poller and every connection;
/// returns after a drain completes. Dropping `jobs` on return is what
/// lets the worker threads finish and exit.
pub(crate) fn run(
    mut poller: sys::Poller,
    listener: TcpListener,
    state: &Arc<AppState>,
    jobs: mpsc::Sender<Job>,
    done: &Arc<CompletionQueue>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    poller.add(&listener, TOKEN_LISTENER, sys::Interest::READABLE)?;
    poller.add(done.waker(), TOKEN_WAKER, sys::Interest::READABLE)?;
    let mut listener_armed = true;
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut events: Vec<sys::Event> = Vec::new();
    let mut next_gen: u64 = 1;
    let mut open: u64 = 0;
    loop {
        poller.wait(POLL_TICK_MS, &mut events)?;
        let now = clock::now_nanos();
        let draining = state.draining.load(Ordering::Acquire);
        let accepting = !draining;
        for &ev in &events {
            match ev.token {
                TOKEN_LISTENER if accepting => loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if accept(&poller, &mut conns, stream, &mut next_gen, now) {
                                open += 1;
                                state.metrics.open_connections.set(open as f64);
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                },
                TOKEN_LISTENER => {}
                TOKEN_WAKER => done.waker().drain(),
                token => {
                    if let Some(c) = conn_at(&mut conns, token) {
                        if ev.readable || ev.hangup {
                            do_read(c, now);
                        }
                        if ev.writable {
                            do_write(c, now);
                        }
                    }
                }
            }
        }
        for comp in done.drain() {
            apply_completion(&mut conns, comp, state);
        }
        // re-read: a completion-applied /shutdown or one parsed below can
        // only be observed on the next tick, which is fine
        let draining = state.draining.load(Ordering::Acquire);
        if draining && listener_armed {
            let _ = poller.delete(&listener);
            listener_armed = false;
        }
        for (idx, entry) in conns.iter_mut().enumerate() {
            let token = idx as u64 + TOKEN_BASE;
            let Some(c) = entry.as_mut() else {
                continue;
            };
            expire_deadline(c, state, now, &mut next_gen);
            serve_buffered(c, token, state, &jobs, draining);
            do_write(c, now);
            if !c.dead && !c.write_buf.is_empty() {
                if now.saturating_sub(c.last_activity) > WRITE_STALL_TIMEOUT.as_nanos() as u64 {
                    c.dead = true;
                }
            } else if !c.dead
                && matches!(c.phase, Phase::Idle)
                && c.inflight.is_none()
                && now.saturating_sub(c.last_activity) > IDLE_READ_TIMEOUT.as_nanos() as u64
            {
                c.dead = true;
            }
            if finished(c, draining) {
                // dropping the Conn closes the socket and releases any pin
                let _ = poller.delete(&c.stream);
                *entry = None;
                open -= 1;
                state.metrics.open_connections.set(open as f64);
            } else {
                let want = sys::Interest {
                    readable: !c.read_closed && c.read_buf.len() < READ_CAP,
                    writable: !c.write_buf.is_empty(),
                };
                if want != c.interest && poller.modify(&c.stream, token, want).is_ok() {
                    c.interest = want;
                }
            }
        }
        if draining && conns.iter().all(Option::is_none) {
            return Ok(());
        }
    }
}

fn conn_at(conns: &mut [Option<Conn>], token: u64) -> Option<&mut Conn> {
    let idx = usize::try_from(token.checked_sub(TOKEN_BASE)?).ok()?;
    conns.get_mut(idx)?.as_mut()
}

/// Registers an accepted connection; `false` when it could not be set up
/// (the stream is dropped, closing it).
fn accept(
    poller: &sys::Poller,
    conns: &mut Vec<Option<Conn>>,
    stream: TcpStream,
    next_gen: &mut u64,
    now: u64,
) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let _ = stream.set_nodelay(true);
    let idx = match conns.iter().position(Option::is_none) {
        Some(i) => i,
        None => {
            conns.push(None);
            conns.len() - 1
        }
    };
    let token = idx as u64 + TOKEN_BASE;
    if poller.add(&stream, token, sys::Interest::READABLE).is_err() {
        return false;
    }
    let gen = *next_gen;
    *next_gen += 1;
    conns[idx] = Some(Conn {
        stream,
        gen,
        read_buf: Vec::new(),
        write_buf: Vec::new(),
        phase: Phase::Idle,
        close_after: false,
        read_closed: false,
        dead: false,
        last_activity: now,
        interest: sys::Interest::READABLE,
        inflight: None,
    });
    true
}
