//! End-to-end server smoke: boot on an ephemeral port, drive
//! `/fit` → `/models/{id}` → `/synthesize` → `/healthz` → `/shutdown`
//! with a tiny std client, including ≥ 4 concurrent `/synthesize`
//! clients against one model — no data races, no ε re-spend — and a
//! persistence round-trip through `--model-dir`.

mod common;

use std::thread;
use std::time::{Duration, Instant};

use common::{
    assert_healthy, boot, fit_and_wait, json, list_models, metric, request, scratch_dir, shutdown,
    wait_ready,
};
use kamino_serve::{Json, ServeConfig};

#[test]
fn fit_synthesize_concurrent_clients_and_clean_shutdown() {
    let (addr, handle) = boot(ServeConfig {
        threads: 6,
        ..ServeConfig::default()
    });

    // liveness before any model exists
    assert_healthy(addr, "boot");

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
    assert_eq!(metric(&body, "kamino_fits_started_total"), 1.0);
    assert_eq!(metric(&body, "kamino_fits_done_total"), 1.0);
    // 50 + 10 + 4 × 40 rows streamed above
    assert_eq!(metric(&body, "kamino_rows_synthesized_total"), 220.0);
    assert_eq!(metric(&body, "kamino_resident_models"), 1.0);
    assert_eq!(metric(&body, "kamino_open_models"), 1.0);
    // one registry holds the serving series, the request-latency
    // histograms and the DP budget ledger from the fit above
    assert!(
        body.contains("kamino_http_request_duration_seconds_bucket"),
        "latency histogram missing"
    );
    assert_eq!(
        metric(&body, "kamino_dp_plans_total"),
        1.0,
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
    for query in [
        "n=0",
        "n=abc",
        "n=50&batch=abc",
        "n=-3",
        "n=50&batch=0",
        "n=50&batch=100001",
    ] {
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
    let dir = scratch_dir("serve-smoke-nonprivate");
    let (addr, handle) = boot(ServeConfig {
        threads: 6,
        model_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let (_, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(metric(&body, "kamino_ledger_epsilon_total"), 0.0);

    fit_and_wait(
        addr,
        r#"{"corpus":"adult","rows":80,"non_private":true,"seed":4,"train_scale":0.02}"#,
    );
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
    let (addr, handle) = boot(ServeConfig {
        threads: 4,
        max_models: 2,
        pool_batches: 3,
        pool_rows: 20,
        ..ServeConfig::default()
    });
    let id = fit_and_wait(
        addr,
        r#"{"corpus":"adult","rows":100,"epsilon":1.0,"seed":9,"train_scale":0.03}"#,
    );

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
        if metric(&body, &format!("kamino_pool_depth{{model=\"{id}\"}}")) > 0.0 {
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
        metric(&body, "kamino_pool_hits_total") >= 1.0,
        "aligned traffic never hit the pool: {body}"
    );
    assert_eq!(metric(&body, "kamino_resident_models"), 1.0);
    assert_eq!(metric(&body, "kamino_max_resident_models"), 2.0);
    assert_eq!(metric(&body, "kamino_model_evictions_total"), 0.0);
    assert!(metric(&body, "kamino_pool_misses_total") >= 0.0);
    assert!(metric(&body, "kamino_model_loads_total") >= 0.0);

    shutdown(addr, handle);
}

#[test]
fn model_dir_persists_models_across_restarts() {
    let dir = scratch_dir("serve-smoke-persist");
    let config = || ServeConfig {
        threads: 6,
        model_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // first server: fit (auto-persists when --model-dir is set)
    let (addr, handle) = boot(config());
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
    let (addr, handle) = boot(config());
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
    let id2 = fit_and_wait(
        addr,
        r#"{"corpus":"br2000","rows":80,"epsilon":1.0,"seed":5,"train_scale":0.03}"#,
    );
    assert_eq!(id2, 2, "restarted server must not renumber model 1");
    shutdown(addr, handle);
    assert!(dir.join("model-1.kamino").is_file());
    assert!(dir.join("model-2.kamino").is_file());

    let _ = std::fs::remove_dir_all(&dir);
}

/// `POST /models/{id}/snapshot` on a model booted from a foreign file
/// name rewrites that file in place: the next boot registers the model
/// once, not once per file.
#[test]
fn snapshotting_an_imported_model_keeps_one_file() {
    let dir = scratch_dir("serve-smoke-imported");
    let config = || ServeConfig {
        threads: 2,
        model_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let (addr, handle) = boot(config());
    let id = fit_and_wait(
        addr,
        r#"{"corpus":"adult","rows":100,"epsilon":1.0,"seed":4,"train_scale":0.03}"#,
    );
    shutdown(addr, handle);
    let imported = dir.join("imported.kamino");
    std::fs::rename(dir.join(format!("model-{id}.kamino")), &imported).unwrap();

    let (addr, handle) = boot(config());
    let listed = list_models(addr);
    assert_eq!(listed.len(), 1, "{listed:?}");
    let id = listed[0].get("model_id").and_then(Json::as_u64).unwrap();
    let (status, body) = request(addr, "POST", &format!("/models/{id}/snapshot"), None);
    assert!(status.contains("200"), "{status}: {body}");
    assert_eq!(
        json(&body).get("path").and_then(Json::as_str),
        Some(imported.display().to_string().as_str())
    );
    shutdown(addr, handle);

    let (addr, handle) = boot(config());
    let listed = list_models(addr);
    assert_eq!(
        listed.len(),
        1,
        "the snapshot duplicated the model: {listed:?}"
    );
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
