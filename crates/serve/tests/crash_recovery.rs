//! Crash-recovery suite: the real `kamino-serve` binary is spawned
//! with `KAMINO_CHAOS_FAULT` set, killed hard (`abort`/SIGKILL) at an
//! injected fault point, and restarted over the same `--model-dir`. The
//! invariants after every crash:
//!
//! * the budget ledger never under-counts — every durably-intended ε is
//!   still reported as spent after recovery, and a crashed fit surfaces
//!   as a `failed` model rather than vanishing;
//! * torn ledger tails and stale atomic-install tmp files are truncated
//!   or quarantined, never fatal and never loaded, while a snapshot
//!   renamed in before the crash is served;
//! * a persisted model resumes its sample stream bit-exactly;
//! * a snapshot of an unsupported format version is quarantined at boot
//!   while the models beside it keep serving;
//! * `/healthz` answers after every recovery.
//!
//! The final test drives the overload surface in-process: per-request
//! deadlines (503 + `Retry-After`, mid-stream trailer termination) and
//! bounded-queue load shedding (429 + `Retry-After`).

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use common::{
    assert_healthy, boot, fit_and_wait, json, list_models, metric, read_response, request,
    request_lossy, scratch_dir, shutdown, wait_ready,
};
use kamino_serve::{Json, ServeConfig};

// ------------------------------------------------------------ subprocess

/// A `kamino-serve` child process bound to an ephemeral port.
struct ChaosServer {
    child: Child,
    addr: SocketAddr,
}

impl ChaosServer {
    /// Spawns the real binary over `dir` with optional chaos env vars.
    /// Pooling is disabled so sample streams are a pure function of the
    /// snapshot RNG cursor (bit-exact resume is asserted below).
    fn spawn(dir: &Path, env: &[(&str, &str)]) -> ChaosServer {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_kamino-serve"));
        cmd.arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--model-dir")
            .arg(dir)
            .arg("--threads")
            .arg("2")
            .arg("--pool-batches")
            .arg("0")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn kamino-serve");
        let stdout = child.stdout.take().expect("child stdout");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = reader.read_line(&mut line).expect("read child stdout");
            assert!(n > 0, "kamino-serve exited before printing its address");
            if let Some(rest) = line
                .trim()
                .strip_prefix("kamino-serve listening on http://")
            {
                break rest.parse().expect("listen address");
            }
        };
        // keep draining stdout so the child never blocks on a full pipe
        thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        ChaosServer { child, addr }
    }

    /// Waits for the child to die on its own (injected abort).
    fn wait_crash(&mut self, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            if self.child.try_wait().expect("try_wait").is_some() {
                return;
            }
            assert!(Instant::now() < deadline, "{what}: child never crashed");
            thread::sleep(Duration::from_millis(50));
        }
    }

    /// SIGKILL — no shutdown handshake, no flush.
    fn kill_hard(&mut self) {
        self.child.kill().expect("kill child");
        let _ = self.child.wait();
    }

    /// Graceful `POST /shutdown`; asserts a zero exit.
    fn shutdown_clean(&mut self, what: &str) {
        let (status, _) = request(self.addr, "POST", "/shutdown", None);
        assert!(status.contains("200"), "{what}: shutdown got {status}");
        let code = self.child.wait().expect("wait child");
        assert!(code.success(), "{what}: unclean exit {code:?}");
    }
}

impl Drop for ChaosServer {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

const FIT_BODY: &str =
    r#"{"corpus":"adult","rows":100,"epsilon":1.0,"seed":11,"train_scale":0.03,"persist":true}"#;

// -------------------------------------------------------------- scenarios

/// Kill -9 between the durable `FitIntent` and the fit itself. On
/// restart the ledger replays: the model surfaces as `failed (crashed)`,
/// its budgeted ε stays counted as spent, and its id is never reused.
#[test]
fn crashed_fit_replays_as_failed_with_budget_spent() {
    let dir = scratch_dir("crash-mid-fit");
    let mut s = ChaosServer::spawn(&dir, &[("KAMINO_CHAOS_FAULT", "fit.after_intent")]);
    request_lossy(s.addr, "POST", "/fit", Some(FIT_BODY));
    s.wait_crash("mid-fit abort");

    let ledger = dir.join("ledger.kamlog");
    assert!(ledger.is_file(), "intent was not made durable before crash");

    let mut s = ChaosServer::spawn(&dir, &[]);
    assert_healthy(s.addr, "ledger replay boot");

    // the interrupted fit is visible, failed, and explains itself
    let (status, body) = request(s.addr, "GET", "/models/1", None);
    assert!(status.contains("200"), "{status}: {body}");
    let info = json(&body);
    assert_eq!(info.get("status").and_then(Json::as_str), Some("failed"));
    let error = info.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(error.contains("crashed"), "unexpected error: {error}");
    assert!(
        error.contains("spent"),
        "ε accounting not surfaced: {error}"
    );

    let (_, metrics) = request(s.addr, "GET", "/metrics", None);
    assert_eq!(metric(&metrics, "kamino_ledger_replays_total"), 1.0);
    assert!(
        metric(&metrics, "kamino_ledger_epsilon_total") >= 1.0,
        "crashed ε was forgotten"
    );

    // the crashed id is burned: the next fit gets a fresh one, and the
    // ledger total now reflects both intents
    let id = fit_and_wait(s.addr, FIT_BODY);
    assert_eq!(id, 2, "crashed model id must never be reused");
    let (_, metrics) = request(s.addr, "GET", "/metrics", None);
    assert!(metric(&metrics, "kamino_ledger_epsilon_total") >= 2.0);

    s.shutdown_clean("ledger replay scenario");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill -9 halfway through a ledger frame append. Replay must truncate
/// the torn tail and boot; ε that never became durable was never spent,
/// so no model is surfaced.
#[test]
fn torn_ledger_append_is_truncated_on_replay() {
    let dir = scratch_dir("crash-torn-append");
    let mut s = ChaosServer::spawn(&dir, &[("KAMINO_CHAOS_FAULT", "ledger.torn_append")]);
    request_lossy(s.addr, "POST", "/fit", Some(FIT_BODY));
    s.wait_crash("torn append abort");
    assert!(
        std::fs::metadata(dir.join("ledger.kamlog"))
            .expect("ledger")
            .len()
            > 0,
        "the torn half-frame should be on disk"
    );

    let mut s = ChaosServer::spawn(&dir, &[]);
    assert_healthy(s.addr, "torn-tail boot");
    assert!(
        list_models(s.addr).is_empty(),
        "a torn (never-durable) intent must not surface a model"
    );
    let (_, metrics) = request(s.addr, "GET", "/metrics", None);
    assert_eq!(metric(&metrics, "kamino_ledger_replays_total"), 0.0);

    // the truncated ledger accepts new appends: a fresh fit works
    let id = fit_and_wait(s.addr, FIT_BODY);
    assert_eq!(id, 1);
    s.shutdown_clean("torn append scenario");

    // and the next boot replays the clean intent+commit pair
    let mut s = ChaosServer::spawn(&dir, &[]);
    assert_healthy(s.addr, "post-truncation boot");
    let (_, metrics) = request(s.addr, "GET", "/metrics", None);
    assert_eq!(metric(&metrics, "kamino_ledger_replays_total"), 2.0);
    s.shutdown_clean("torn append scenario reboot");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill -9 after the snapshot tmp file is written but before its atomic
/// rename. Boot must quarantine the stale tmp, keep the fit's ε spent,
/// and hand the next fit a fresh id.
#[test]
fn crash_before_snapshot_rename_quarantines_the_stale_tmp() {
    let dir = scratch_dir("crash-pre-rename");
    let mut s = ChaosServer::spawn(&dir, &[("KAMINO_CHAOS_FAULT", "snapshot.pre_rename")]);
    request_lossy(s.addr, "POST", "/fit", Some(FIT_BODY));
    s.wait_crash("pre-rename abort");

    let tmp_left = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .any(|e| e.file_name().to_string_lossy().contains(".tmp-"));
    assert!(tmp_left, "crash should leave the tmp file behind");

    let mut s = ChaosServer::spawn(&dir, &[]);
    assert_healthy(s.addr, "stale-tmp boot");
    let quarantined = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".quarantine"))
        .count();
    assert_eq!(quarantined, 1, "stale tmp must be quarantined");
    assert!(
        !dir.join("model-1.kamino").exists(),
        "a half-installed snapshot must never appear under its real name"
    );
    let (_, metrics) = request(s.addr, "GET", "/metrics", None);
    assert_eq!(metric(&metrics, "kamino_quarantined_files_total"), 1.0);
    assert!(
        metric(&metrics, "kamino_ledger_epsilon_total") >= 1.0,
        "the committed fit's ε must stay spent even though its snapshot is gone"
    );

    // id 1 lives in the ledger, so the next fit is id 2
    let id = fit_and_wait(s.addr, FIT_BODY);
    assert_eq!(id, 2);
    assert!(dir.join("model-2.kamino").is_file());
    s.shutdown_clean("stale tmp scenario");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill -9 after the snapshot's atomic rename but before the MANIFEST
/// is rewritten. The snapshot is complete under its real name, so boot
/// must register it (nothing to quarantine), serve it, keep its ε spent
/// and hand the next fit a fresh id.
#[test]
fn crash_after_snapshot_rename_serves_the_installed_model() {
    let dir = scratch_dir("crash-post-rename");
    let mut s = ChaosServer::spawn(&dir, &[("KAMINO_CHAOS_FAULT", "snapshot.post_rename")]);
    request_lossy(s.addr, "POST", "/fit", Some(FIT_BODY));
    s.wait_crash("post-rename abort");
    assert!(dir.join("model-1.kamino").is_file(), "rename did not land");
    assert!(
        !dir.join("MANIFEST").exists(),
        "the crash must precede the manifest rewrite"
    );

    let mut s = ChaosServer::spawn(&dir, &[]);
    assert_healthy(s.addr, "post-rename boot");
    let (status, rows) = request(
        s.addr,
        "POST",
        "/models/1/synthesize?n=10&batch=5&format=json",
        None,
    );
    assert!(status.contains("200"), "{status}: {rows}");
    assert_eq!(rows.lines().count(), 10);
    let (status, body) = request(s.addr, "GET", "/models/1", None);
    assert!(status.contains("200"), "{status}: {body}");
    assert_eq!(
        json(&body).get("status").and_then(Json::as_str),
        Some("ready")
    );

    let (_, metrics) = request(s.addr, "GET", "/metrics", None);
    assert_eq!(metric(&metrics, "kamino_ledger_replays_total"), 2.0);
    assert!(
        metric(&metrics, "kamino_ledger_epsilon_total") >= 1.0,
        "the installed fit's ε must stay spent"
    );
    assert_eq!(metric(&metrics, "kamino_quarantined_files_total"), 0.0);
    let quarantined = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .any(|e| e.file_name().to_string_lossy().ends_with(".quarantine"));
    assert!(!quarantined, "a complete snapshot must not be quarantined");

    let id = fit_and_wait(s.addr, FIT_BODY);
    assert_eq!(id, 2);
    s.shutdown_clean("post-rename scenario");
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGKILL with a persisted model, then restart: the reloaded snapshot
/// must resume the sample stream bit-exactly — the same request yields
/// byte-identical rows before and after the crash.
#[test]
fn sample_streams_resume_bit_exact_after_kill() {
    let dir = scratch_dir("crash-resume");
    let mut s = ChaosServer::spawn(&dir, &[]);
    let id = fit_and_wait(s.addr, FIT_BODY);
    let path = format!("/models/{id}/synthesize?n=60&batch=20&format=csv");

    let (status, before) = request(s.addr, "POST", &path, None);
    assert!(status.contains("200"), "{status}");
    assert_eq!(before.lines().count(), 61, "header + 60 rows");
    s.kill_hard();

    let mut s = ChaosServer::spawn(&dir, &[]);
    assert_healthy(s.addr, "post-SIGKILL boot");
    let (status, after) = request(s.addr, "POST", &path, None);
    assert!(status.contains("200"), "{status}");
    assert_eq!(
        before, after,
        "snapshot reload must resume the stream bit-exactly"
    );
    s.shutdown_clean("bit-exact resume scenario");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A format-1 snapshot (one an older build wrote) left beside a served
/// model: boot quarantines it, counts it, and keeps serving the current
/// model's stream bit-exactly.
#[test]
fn format_one_snapshot_is_quarantined_at_boot() {
    let dir = scratch_dir("crash-format-1");
    let mut s = ChaosServer::spawn(&dir, &[]);
    let id = fit_and_wait(s.addr, FIT_BODY);
    let path = format!("/models/{id}/synthesize?n=40&batch=20&format=csv");
    let (status, before) = request(s.addr, "POST", &path, None);
    assert!(status.contains("200"), "{status}");
    s.kill_hard();

    let mut old = std::fs::read(dir.join(format!("model-{id}.kamino"))).unwrap();
    assert_eq!(
        &old[..12],
        b"KAMSNAP\0\x02\0\0\0",
        "served snapshot is not format 2"
    );
    old[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(dir.join("format-1.kamino"), &old).unwrap();

    let mut s = ChaosServer::spawn(&dir, &[]);
    assert_healthy(s.addr, "boot beside a format-1 snapshot");
    assert!(dir.join("format-1.kamino.quarantine").is_file());
    assert!(!dir.join("format-1.kamino").exists());
    let (_, metrics) = request(s.addr, "GET", "/metrics", None);
    assert_eq!(metric(&metrics, "kamino_quarantined_files_total"), 1.0);
    let (status, after) = request(s.addr, "POST", &path, None);
    assert!(status.contains("200"), "{status}");
    assert_eq!(before, after, "the format-2 model must serve the same rows");
    assert_healthy(s.addr, "serving beside a quarantined snapshot");
    s.shutdown_clean("format-1 quarantine scenario");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A full disk (shimmed) fails snapshots with a clean 500 but never
/// takes the server down: fits still land in memory, streams still
/// serve, and shutdown stays graceful.
#[test]
fn disk_full_degrades_snapshots_not_liveness() {
    let dir = scratch_dir("crash-disk-full");
    let mut s = ChaosServer::spawn(&dir, &[("KAMINO_CHAOS_DISK_FULL", "1")]);
    let id = fit_and_wait(s.addr, FIT_BODY);
    assert!(
        !dir.join(format!("model-{id}.kamino")).exists(),
        "nothing can be installed on a full disk"
    );

    let (status, body) = request(s.addr, "POST", &format!("/models/{id}/snapshot"), None);
    assert!(status.contains("500"), "snapshot on a full disk: {status}");
    assert!(body.contains("disk full"), "{body}");

    assert_healthy(s.addr, "disk-full snapshot failure");
    let (status, rows) = request(
        s.addr,
        "POST",
        &format!("/models/{id}/synthesize?n=10&batch=5&format=json"),
        None,
    );
    assert!(status.contains("200"), "{status}");
    assert_eq!(rows.lines().count(), 10);
    s.shutdown_clean("disk-full scenario");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------- overload (in-proc)

/// Deadlines and load shedding under a saturated single-worker server:
/// queued requests past `--max-queue` get 429 + `Retry-After`; requests
/// that outlive `--request-timeout` get 503 + `Retry-After` (head not
/// sent) or a `kamino-trailer: deadline-expired` termination (mid-chunk);
/// and the server drains back to full service afterwards.
#[test]
fn overload_sheds_and_deadlines_expire() {
    let dir = scratch_dir("crash-overload");
    let (addr, handle) = boot(ServeConfig {
        threads: 1,
        max_queue: 2,
        request_timeout: Duration::from_millis(500),
        pool_batches: 0,
        model_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });

    // calibrate: time a reference fit, then size the worker-occupying
    // fit so the single worker stays busy for several seconds while the
    // deadline/shed sequence below runs (fit cost scales ~linearly in
    // rows at fixed train_scale)
    let fast = r#"{"corpus":"adult","rows":100,"epsilon":1.0,"seed":11,"train_scale":0.03,"persist":false}"#;
    let t0 = Instant::now();
    let (status, reply) = request(addr, "POST", "/fit", Some(fast));
    assert!(status.contains("202"), "{status}: {reply}");
    let model = json(&reply).get("model_id").and_then(Json::as_u64).unwrap();
    loop {
        let (_, body) = request(addr, "GET", &format!("/models/{model}"), None);
        match json(&body).get("status").and_then(Json::as_str) {
            Some("ready") => break,
            Some("failed") => panic!("fit failed: {body}"),
            _ => thread::sleep(Duration::from_millis(5)),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(300),
            "fit never finished"
        );
    }
    let t_fit = t0.elapsed().as_secs_f64().max(0.005);
    let slow_rows = ((100.0 * (8.0 / t_fit).ceil()) as usize).clamp(100, 100_000);

    // occupy the single worker; wait until the job is off the queue (so
    // admission sees depth 0) and confirmed running
    let slow = format!(
        r#"{{"corpus":"adult","rows":{slow_rows},"epsilon":1.0,"seed":13,"train_scale":0.03,"persist":false}}"#
    );
    let (status, reply) = request(addr, "POST", "/fit", Some(&slow));
    assert!(status.contains("202"), "{status}: {reply}");
    let slow_id = json(&reply).get("model_id").and_then(Json::as_u64).unwrap();
    let t0 = Instant::now();
    loop {
        let (_, metrics) = request(addr, "GET", "/metrics", None);
        if metric(&metrics, "kamino_queue_depth") == 0.0 {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(30), "fit never dequeued");
        thread::sleep(Duration::from_millis(10));
    }
    let (_, body) = request(addr, "GET", &format!("/models/{slow_id}"), None);
    assert_eq!(
        json(&body).get("status").and_then(Json::as_str),
        Some("fitting"),
        "occupier fit finished before the overload sequence — calibration too small"
    );

    // C1: admitted stream — head (and CSV header) go out immediately,
    // its batch job queues behind the fit (depth 1)
    let mut c1 = TcpStream::connect(addr).unwrap();
    c1.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    write!(
        c1,
        "POST /models/{model}/synthesize?n=10&batch=10&format=csv HTTP/1.1\r\nhost: c\r\ncontent-length: 0\r\n\r\n"
    )
    .unwrap();

    // C3: admitted snapshot — queued, head not sent (depth 2 = max)
    let mut c3 = TcpStream::connect(addr).unwrap();
    c3.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    write!(
        c3,
        "POST /models/{model}/snapshot HTTP/1.1\r\nhost: c\r\ncontent-length: 0\r\n\r\n"
    )
    .unwrap();
    thread::sleep(Duration::from_millis(100));

    // C2: over the bound — shed at admission with 429 + Retry-After
    let mut c2 = TcpStream::connect(addr).unwrap();
    c2.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    write!(
        c2,
        "POST /models/{model}/synthesize?n=10&batch=10&format=csv HTTP/1.1\r\nhost: c\r\ncontent-length: 0\r\n\r\n"
    )
    .unwrap();
    let (head, body) = read_response(&mut c2);
    assert!(head.starts_with("HTTP/1.1 429"), "shed got {head}");
    assert!(
        head.to_ascii_lowercase().contains("\r\nretry-after: 1\r\n"),
        "429 without Retry-After: {head}"
    );
    assert!(body.contains("overloaded"), "{body}");

    // C3 expires with its head unsent: 503 + Retry-After
    let (head, body) = read_response(&mut c3);
    assert!(head.starts_with("HTTP/1.1 503"), "deadline got {head}");
    assert!(
        head.to_ascii_lowercase().contains("\r\nretry-after: 1\r\n"),
        "503 without Retry-After: {head}"
    );
    assert!(body.contains("deadline expired"), "{body}");

    // C1 expires mid-chunk: the stream terminates with the trailer and
    // the connection closes instead of desyncing
    let mut raw = Vec::new();
    c1.read_to_end(&mut raw).expect("read expired stream");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(
        text.ends_with("0\r\nkamino-trailer: deadline-expired\r\n\r\n"),
        "missing deadline trailer: ...{:?}",
        &text[text.len().saturating_sub(80)..]
    );

    // mid-overload metrics: 1 shed, 2 expiries, both queued jobs visible,
    // speculation paused at half the bound
    let (_, metrics) = request(addr, "GET", "/metrics", None);
    assert_eq!(metric(&metrics, "kamino_shed_total"), 1.0);
    assert_eq!(metric(&metrics, "kamino_deadline_expired_total"), 2.0);
    assert_eq!(metric(&metrics, "kamino_queue_depth"), 2.0);
    assert_eq!(metric(&metrics, "kamino_speculation_paused"), 1.0);

    // the server recovers fully: the slow fit completes, late completions
    // for expired requests are dropped, and a fresh stream serves again
    wait_ready(addr, slow_id);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, rows) = request(
            addr,
            "POST",
            &format!("/models/{model}/synthesize?n=10&batch=10&format=json"),
            None,
        );
        if status.contains("200") {
            assert_eq!(rows.lines().count(), 10);
            break;
        }
        assert!(
            status.contains("429") || status.contains("503"),
            "unexpected drain status {status}"
        );
        assert!(Instant::now() < deadline, "server never drained");
        thread::sleep(Duration::from_millis(100));
    }

    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
