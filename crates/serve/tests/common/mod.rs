//! The HTTP client the serve integration suites share: a tiny std-only
//! HTTP/1.1 client, one response reader for both body framings, and the
//! boot / poll / probe helpers every suite drives the server with.

// each suite compiles this module separately and uses a subset of it
#![allow(dead_code)]

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use kamino_serve::{Json, ServeConfig, Server};

/// Opens a connection and writes one `Connection: close` request.
fn send(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(180)))?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )?;
    Ok(stream)
}

/// One `Connection: close` exchange, returning (status line, body);
/// panics on transport errors.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (String, String) {
    let mut stream = send(addr, method, path, body).expect("send request");
    let (head, body) = read_response(&mut stream);
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body)
}

/// Like [`request`], but tolerates the server dying mid-exchange — used
/// for the request that rides into an injected crash.
pub fn request_lossy(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) {
    if let Ok(mut stream) = send(addr, method, path, body) {
        let _ = stream.read_to_end(&mut Vec::new());
    }
}

/// Reads exactly one HTTP response off `r` — a keep-alive connection or
/// bytes already read — and returns (raw head, body). Chunked bodies are
/// de-chunked (trailers are read and dropped); anything else must carry
/// a `content-length`. Leaves a keep-alive stream at the next response.
pub fn read_response(r: &mut impl Read) -> (String, String) {
    let head = read_line_until(r, b"\r\n\r\n", "head");
    let lower = head.to_ascii_lowercase();
    let body = if lower.contains("\r\ntransfer-encoding: chunked\r\n") {
        let mut body = Vec::new();
        loop {
            let size_line = read_line_until(r, b"\r\n", "chunk size");
            let size = usize::from_str_radix(size_line.trim(), 16)
                .unwrap_or_else(|_| panic!("bad chunk size {size_line:?}"));
            if size == 0 {
                // trailer fields, then the blank line ending the message
                while read_line_until(r, b"\r\n", "trailer") != "\r\n" {}
                break;
            }
            let mut chunk = vec![0u8; size + 2];
            r.read_exact(&mut chunk).expect("read chunk");
            assert!(chunk.ends_with(b"\r\n"), "chunk overran its size");
            body.extend_from_slice(&chunk[..size]);
        }
        body
    } else {
        let len: usize = lower
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .unwrap_or_else(|| panic!("no content length in {head:?}"))
            .trim()
            .parse()
            .expect("content length");
        let mut body = vec![0u8; len];
        r.read_exact(&mut body).expect("read body");
        body
    };
    (head, String::from_utf8_lossy(&body).into_owned())
}

/// Reads byte-wise up to and including `end` (so nothing past it is
/// consumed).
fn read_line_until(r: &mut impl Read, end: &[u8], what: &str) -> String {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(end) {
        assert_eq!(r.read(&mut byte).expect(what), 1, "eof in {what}");
        raw.push(byte[0]);
        assert!(raw.len() < 64 * 1024, "unterminated {what}");
    }
    String::from_utf8_lossy(&raw).into_owned()
}

pub fn json(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
}

/// The value of one `/metrics` sample, e.g. `kamino_shed_total` or
/// `kamino_pool_depth{model="1"}`: the exact series (name plus label
/// set) followed by one space. Panics if the series is missing or its
/// value does not parse (`+Inf` parses as infinity).
pub fn metric(body: &str, series: &str) -> f64 {
    let prefix = format!("{series} ");
    let value = body
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("metric {series} missing:\n{body}"));
    value
        .parse()
        .unwrap_or_else(|e| panic!("metric {series} has unparseable value {value:?}: {e}"))
}

/// Polls `GET /models/{id}` until the fit finishes and returns the ready
/// model's info (panics on `failed`).
pub fn wait_ready(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(300);
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

/// Starts a fit and polls the model until it is ready; returns the id.
pub fn fit_and_wait(addr: SocketAddr, body: &str) -> u64 {
    let (status, reply) = request(addr, "POST", "/fit", Some(body));
    assert!(status.contains("202"), "fit rejected: {status} {reply}");
    let id = json(&reply).get("model_id").and_then(Json::as_u64).unwrap();
    wait_ready(addr, id);
    id
}

/// `GET /models`: every registered model's info.
pub fn list_models(addr: SocketAddr) -> Vec<Json> {
    let (status, body) = request(addr, "GET", "/models", None);
    assert!(status.contains("200"), "{status}");
    match json(&body) {
        Json::Arr(items) => items,
        other => panic!("expected array, got {other:?}"),
    }
}

/// The liveness probe run after every fault: the server must still
/// answer a clean request correctly.
pub fn assert_healthy(addr: SocketAddr, scenario: &str) {
    let (status, body) = request(addr, "GET", "/healthz", None);
    assert!(status.contains("200"), "dead after {scenario}: {status}");
    assert_eq!(
        json(&body).get("status").and_then(Json::as_str),
        Some("ok"),
        "unhealthy after {scenario}"
    );
}

/// Runs an in-process server for `cfg` on an ephemeral loopback port
/// (`cfg.listen` is ignored).
pub fn boot(cfg: ServeConfig) -> (SocketAddr, JoinHandle<()>) {
    let server = Server::bind(ServeConfig {
        listen: "127.0.0.1:0".into(),
        ..cfg
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// `POST /shutdown`, then joins the server thread.
pub fn shutdown(addr: SocketAddr, handle: JoinHandle<()>) {
    let (status, _) = request(addr, "POST", "/shutdown", None);
    assert!(status.contains("200"), "{status}");
    handle.join().expect("server thread panicked");
}

/// An empty per-process scratch directory under the system temp dir.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kamino-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
