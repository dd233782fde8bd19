//! End-to-end server smoke: boot on an ephemeral port, drive
//! `/fit` → `/models/{id}` → `/synthesize` → `/healthz` → `/shutdown`
//! with a tiny std client, including ≥ 4 concurrent `/synthesize`
//! clients against one model — no data races, no ε re-spend — and a
//! persistence round-trip through `--model-dir`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use kamino_serve::{Json, ServeConfig, Server};

/// One HTTP exchange over a fresh connection (`Connection: close`),
/// returning (status line, body). Chunked bodies are de-chunked.
fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {text:?}"));
    let status = head.lines().next().unwrap_or("").to_string();
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        dechunk(payload)
    } else {
        payload.to_string()
    };
    (status, body)
}

fn dechunk(payload: &str) -> String {
    let mut out = String::new();
    let mut rest = payload;
    while let Some((size_line, after)) = rest.split_once("\r\n") {
        let size = usize::from_str_radix(size_line.trim(), 16).unwrap_or(0);
        if size == 0 {
            break;
        }
        out.push_str(&after[..size]);
        rest = after[size..].strip_prefix("\r\n").unwrap_or(&after[size..]);
    }
    out
}

fn json(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
}

/// Polls `GET /models/{id}` until the fit finishes (panics on `failed`).
fn wait_ready(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let (status, body) = request(addr, "GET", &format!("/models/{id}"), None);
        assert!(status.contains("200"), "{status}: {body}");
        let info = json(&body);
        match info.get("status").and_then(Json::as_str) {
            Some("ready") => return info,
            Some("failed") => panic!("fit failed: {body}"),
            _ => {
                assert!(Instant::now() < deadline, "fit did not finish in time");
                thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

fn boot(model_dir: Option<std::path::PathBuf>) -> (SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind(ServeConfig {
        listen: "127.0.0.1:0".into(),
        model_dir,
        threads: 6,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn shutdown(addr: SocketAddr, handle: thread::JoinHandle<()>) {
    let (status, _) = request(addr, "POST", "/shutdown", None);
    assert!(status.contains("200"), "{status}");
    handle.join().expect("server thread panicked");
}

#[test]
fn fit_synthesize_concurrent_clients_and_clean_shutdown() {
    let (addr, handle) = boot(None);

    // liveness before any model exists
    let (status, body) = request(addr, "GET", "/healthz", None);
    assert!(status.contains("200"), "{status}");
    assert_eq!(json(&body).get("status").and_then(Json::as_str), Some("ok"));

    // unknown model and unknown route fail cleanly
    let (status, _) = request(addr, "GET", "/models/99", None);
    assert!(status.contains("404"), "{status}");
    let (status, _) = request(addr, "GET", "/nope", None);
    assert!(status.contains("404"), "{status}");

    // async fit
    let (status, body) = request(
        addr,
        "POST",
        "/fit",
        Some(r#"{"corpus":"adult","rows":120,"epsilon":1.0,"seed":7,"train_scale":0.05}"#),
    );
    assert!(status.contains("202"), "{status}: {body}");
    let id = json(&body).get("model_id").and_then(Json::as_u64).unwrap();

    let info = wait_ready(addr, id);
    let eps = info.get("achieved_epsilon").and_then(Json::as_f64).unwrap();
    assert!(eps > 0.0 && eps <= 1.0, "achieved ε {eps} out of budget");

    // a single synthesize stream, CSV with one header line
    let (status, body) = request(
        addr,
        "POST",
        &format!("/models/{id}/synthesize?n=50&batch=20&format=csv"),
        None,
    );
    assert!(status.contains("200"), "{status}: {body}");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 51, "header + 50 rows, got {}", lines.len());
    assert!(lines[0].contains(','), "header row missing: {:?}", lines[0]);

    // NDJSON format
    let (status, body) = request(
        addr,
        "POST",
        &format!("/models/{id}/synthesize?n=10&batch=4&format=json"),
        None,
    );
    assert!(status.contains("200"), "{status}");
    assert_eq!(body.lines().count(), 10);
    for line in body.lines() {
        assert!(matches!(json(line), Json::Obj(_)));
    }

    // ≥ 4 concurrent clients against the same loaded model
    let workers: Vec<_> = (0..4)
        .map(|_| {
            thread::spawn(move || {
                let (status, body) = request(
                    addr,
                    "POST",
                    &format!("/models/{id}/synthesize?n=40&batch=10&format=csv"),
                    None,
                );
                assert!(status.contains("200"), "{status}");
                assert_eq!(body.lines().count(), 41, "header + 40 rows");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread panicked");
    }

    // ε unchanged after 220 synthesized rows: sampling re-spends nothing
    let (_, body) = request(addr, "GET", &format!("/models/{id}"), None);
    let eps_after = json(&body)
        .get("achieved_epsilon")
        .and_then(Json::as_f64)
        .unwrap();
    assert_eq!(eps_after, eps);

    // metrics saw the traffic (Prometheus text exposition)
    let (status, body) = request(addr, "GET", "/metrics", None);
    assert!(status.contains("200"), "{status}");
    assert_one_type_line_per_family(&body);
    for (family, kind) in SERVER_FAMILIES {
        assert!(
            body.contains(&format!("# TYPE {family} {kind}\n")),
            "missing {kind} {family}: {body}"
        );
    }
    assert_eq!(metric(&body, "kamino_fits_started_total "), Some(1.0));
    assert_eq!(metric(&body, "kamino_fits_done_total "), Some(1.0));
    // 50 + 10 + 4 × 40 rows streamed above
    assert_eq!(metric(&body, "kamino_rows_synthesized_total "), Some(220.0));
    assert_eq!(metric(&body, "kamino_resident_models "), Some(1.0));
    assert_eq!(metric(&body, "kamino_open_models "), Some(1.0));
    // one registry holds the serving series, the request-latency
    // histograms and the DP budget ledger from the fit above
    assert!(
        body.contains("kamino_http_request_duration_seconds_bucket"),
        "latency histogram missing"
    );
    assert!(
        body.contains("kamino_dp_plans_total 1"),
        "budget ledger missing"
    );
    assert!(body.contains("kamino_dp_sigma{mechanism=\"m2_dpsgd\"}"));

    // the chrome trace is valid JSON and contains the request spans
    let (status, body) = request(addr, "POST", "/debug/trace", None);
    assert!(status.contains("200"), "{status}");
    let trace = json(&body);
    assert!(matches!(trace.get("traceEvents"), Some(Json::Arr(_))));
    assert!(body.contains("serve.request"));
    assert!(body.contains("fit.training"));

    // bad requests answer 400, not a dropped connection or a default
    for query in ["n=0", "n=abc", "n=50&batch=abc", "n=-3"] {
        let (status, _) = request(
            addr,
            "POST",
            &format!("/models/{id}/synthesize?{query}"),
            None,
        );
        assert!(status.contains("400"), "{query}: {status}");
    }
    for body in [
        "{not json",
        r#"{"epsilon":"0.5"}"#,
        r#"{"epsilon":0.5,"delta":"1e-9"}"#,
        r#"{"seed":"7"}"#,
        r#"{"shards":4}"#,
    ] {
        let (status, _) = request(addr, "POST", "/fit", Some(body));
        assert!(status.contains("400"), "{body}: {status}");
    }

    shutdown(addr, handle);
}

/// Reads a single-sample Prometheus series (exact line-prefix match).
fn metric(body: &str, series: &str) -> Option<f64> {
    body.lines()
        .find_map(|l| l.strip_prefix(series))
        .and_then(|rest| rest.trim().parse().ok())
}

/// Every serving family `/metrics` exports, with its Prometheus type.
const SERVER_FAMILIES: [(&str, &str); 23] = [
    ("kamino_uptime_seconds", "gauge"),
    ("kamino_http_requests_total", "counter"),
    ("kamino_http_errors_total", "counter"),
    ("kamino_rows_synthesized_total", "counter"),
    ("kamino_fits_started_total", "counter"),
    ("kamino_fits_done_total", "counter"),
    ("kamino_open_connections", "gauge"),
    ("kamino_shed_total", "counter"),
    ("kamino_deadline_expired_total", "counter"),
    ("kamino_fit_rejected_total", "counter"),
    ("kamino_queue_depth", "gauge"),
    ("kamino_speculation_paused", "gauge"),
    ("kamino_open_models", "gauge"),
    ("kamino_resident_models", "gauge"),
    ("kamino_max_resident_models", "gauge"),
    ("kamino_model_loads_total", "counter"),
    ("kamino_model_evictions_total", "counter"),
    ("kamino_pool_hits_total", "counter"),
    ("kamino_pool_misses_total", "counter"),
    ("kamino_ledger_replays_total", "counter"),
    ("kamino_quarantined_files_total", "counter"),
    ("kamino_ledger_epsilon_total", "gauge"),
    ("kamino_pool_depth", "gauge"),
];

/// One renderer means one `# TYPE` line per family.
fn assert_one_type_line_per_family(body: &str) {
    let mut types: Vec<&str> = body.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    let n = types.len();
    types.sort_unstable();
    types.dedup();
    assert_eq!(types.len(), n, "duplicate # TYPE lines: {body}");
}

#[test]
fn non_private_fit_renders_an_infinite_ledger_bound() {
    let dir = std::env::temp_dir().join(format!(
        "kamino-serve-smoke-{}-{}",
        std::process::id(),
        "nonprivate"
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle) = boot(Some(dir.clone()));
    let (_, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(metric(&body, "kamino_ledger_epsilon_total "), Some(0.0));

    let (status, body) = request(
        addr,
        "POST",
        "/fit",
        Some(r#"{"corpus":"adult","rows":80,"non_private":true,"seed":4,"train_scale":0.02}"#),
    );
    assert!(status.contains("202"), "{status}: {body}");
    let id = json(&body).get("model_id").and_then(Json::as_u64).unwrap();
    wait_ready(addr, id);
    let (_, body) = request(addr, "GET", "/metrics", None);
    assert_one_type_line_per_family(&body);
    assert!(
        body.contains("\nkamino_ledger_epsilon_total +Inf\n"),
        "a non-private fit must make the durable ε bound infinite: {body}"
    );
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pooled_path_serves_aligned_traffic_and_exports_gauges() {
    let server = Server::bind(ServeConfig {
        listen: "127.0.0.1:0".into(),
        threads: 4,
        max_models: 2,
        pool_batches: 3,
        pool_rows: 20,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("server run"));

    let (status, body) = request(
        addr,
        "POST",
        "/fit",
        Some(r#"{"corpus":"adult","rows":100,"epsilon":1.0,"seed":9,"train_scale":0.03}"#),
    );
    assert!(status.contains("202"), "{status}: {body}");
    let id = json(&body).get("model_id").and_then(Json::as_u64).unwrap();
    wait_ready(addr, id);

    // aligned traffic: batch == --pool-rows, so serving triggers refills
    // and later chunks are served from the speculation ring
    let (status, body) = request(
        addr,
        "POST",
        &format!("/models/{id}/synthesize?n=100&batch=20&format=csv"),
        None,
    );
    assert!(status.contains("200"), "{status}");
    assert_eq!(body.lines().count(), 101, "header + 100 rows");

    // background refills land asynchronously; wait for the ring to show
    // depth, then drain it with more aligned traffic
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = request(addr, "GET", "/metrics", None);
        let depth = metric(&body, &format!("kamino_pool_depth{{model=\"{id}\"}} "));
        if depth.unwrap_or(0.0) > 0.0 {
            break;
        }
        assert!(Instant::now() < deadline, "pool never refilled: {body}");
        thread::sleep(Duration::from_millis(50));
    }
    let (status, body) = request(
        addr,
        "POST",
        &format!("/models/{id}/synthesize?n=40&batch=20&format=csv"),
        None,
    );
    assert!(status.contains("200"), "{status}");
    assert_eq!(body.lines().count(), 41);

    // pool and LRU telemetry is on /metrics
    let (status, body) = request(addr, "GET", "/metrics", None);
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("# TYPE kamino_pool_depth gauge"), "{body}");
    assert!(
        metric(&body, "kamino_pool_hits_total").unwrap_or(0.0) >= 1.0,
        "aligned traffic never hit the pool: {body}"
    );
    assert_eq!(metric(&body, "kamino_resident_models"), Some(1.0));
    assert_eq!(metric(&body, "kamino_max_resident_models"), Some(2.0));
    assert_eq!(metric(&body, "kamino_model_evictions_total"), Some(0.0));
    assert!(metric(&body, "kamino_pool_misses_total").is_some());
    assert!(metric(&body, "kamino_model_loads_total").is_some());

    shutdown(addr, handle);
}

#[test]
fn model_dir_persists_models_across_restarts() {
    let dir = std::env::temp_dir().join(format!(
        "kamino-serve-smoke-{}-{}",
        std::process::id(),
        "persist"
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // first server: fit (auto-persists when --model-dir is set)
    let (addr, handle) = boot(Some(dir.clone()));
    let (status, body) = request(
        addr,
        "POST",
        "/fit",
        Some(r#"{"corpus":"adult","rows":100,"epsilon":1.0,"seed":3,"train_scale":0.03}"#),
    );
    assert!(status.contains("202"), "{status}: {body}");
    let id = json(&body).get("model_id").and_then(Json::as_u64).unwrap();
    let info = wait_ready(addr, id);
    let eps = info.get("achieved_epsilon").and_then(Json::as_f64).unwrap();
    shutdown(addr, handle);
    assert!(dir.join(format!("model-{id}.kamino")).is_file());

    // second server: the snapshot is registered at boot without being
    // decoded — the slot reports `unloaded` until a request touches it
    let (addr, handle) = boot(Some(dir.clone()));
    let (status, body) = request(addr, "GET", "/models/1", None);
    assert!(status.contains("200"), "{status}: {body}");
    let info = json(&body);
    assert_eq!(info.get("status").and_then(Json::as_str), Some("unloaded"));
    // first synthesize lazily loads the model and serves rows at the
    // original ε without re-fitting
    let (status, body) = request(addr, "POST", "/models/1/synthesize?n=25&batch=25", None);
    assert!(status.contains("200"), "{status}");
    assert_eq!(body.lines().count(), 26);
    let (status, body) = request(addr, "GET", "/models/1", None);
    assert!(status.contains("200"), "{status}: {body}");
    let info = json(&body);
    assert_eq!(info.get("status").and_then(Json::as_str), Some("ready"));
    assert_eq!(
        info.get("achieved_epsilon").and_then(Json::as_f64),
        Some(eps)
    );

    // ids stay stable across restarts: a new fit must take the next free
    // id, never re-using (and overwriting the snapshot of) model 1
    let (status, body) = request(
        addr,
        "POST",
        "/fit",
        Some(r#"{"corpus":"br2000","rows":80,"epsilon":1.0,"seed":5,"train_scale":0.03}"#),
    );
    assert!(status.contains("202"), "{status}: {body}");
    let id2 = json(&body).get("model_id").and_then(Json::as_u64).unwrap();
    assert_eq!(id2, 2, "restarted server must not renumber model 1");
    wait_ready(addr, id2);
    shutdown(addr, handle);
    assert!(dir.join("model-1.kamino").is_file());
    assert!(dir.join("model-2.kamino").is_file());

    let _ = std::fs::remove_dir_all(&dir);
}
