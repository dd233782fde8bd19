//! Boot the synthesis server in-process, fit the Adult corpus over HTTP,
//! and stream synthetic rows back over loopback — the full
//! "fit offline, sample online" loop of `kamino-serve`, with nothing but
//! the standard library on the client side.
//!
//! ```bash
//! cargo run --release --example serve_and_query
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use kamino::serve::{Json, ServeConfig, Server};

/// One HTTP exchange over a fresh loopback connection.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: example\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    raw
}

/// Strips headers and de-chunks the body.
fn body_of(response: &str) -> String {
    let (head, payload) = response.split_once("\r\n\r\n").expect("malformed response");
    if !head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        return payload.to_string();
    }
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

fn main() {
    // 1. boot the server on an ephemeral loopback port
    let server = Server::bind(ServeConfig {
        listen: "127.0.0.1:0".into(),
        model_dir: None,
        threads: 4,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("server"));
    println!("server up on http://{addr}");

    // 2. start an async fit job on the Adult corpus
    let fit = body_of(&request(
        addr,
        "POST",
        "/fit",
        r#"{"corpus":"adult","rows":300,"epsilon":1.0,"delta":1e-6,"seed":7,"train_scale":0.05}"#,
    ));
    let fit = Json::parse(&fit).expect("fit response");
    let id = fit
        .get("model_id")
        .and_then(Json::as_u64)
        .expect("model id");
    println!("fit job accepted: model {id}");

    // 3. poll until the model is ready
    let info = loop {
        let body = body_of(&request(addr, "GET", &format!("/models/{id}"), ""));
        let info = Json::parse(&body).expect("model info");
        match info.get("status").and_then(Json::as_str) {
            Some("ready") => break info,
            Some("failed") => panic!("fit failed: {body}"),
            _ => thread::sleep(Duration::from_millis(150)),
        }
    };
    let eps = info
        .get("achieved_epsilon")
        .and_then(Json::as_f64)
        .expect("achieved epsilon");
    println!("model {id} ready: achieved ε = {eps:.4} (≤ 1.0 by the planner's construction)");

    // 4. stream 10 synthetic rows as CSV — pure post-processing, no
    //    further privacy cost no matter how many rows are drawn
    let csv = body_of(&request(
        addr,
        "POST",
        &format!("/models/{id}/synthesize?n=10&batch=5&format=csv"),
        "",
    ));
    println!("\n10 synthetic Adult rows:\n{csv}");

    // 5. Prometheus metrics (request/row counters, latency histograms, the
    //    DP budget ledger), then a graceful shutdown
    let metrics = body_of(&request(addr, "GET", "/metrics", ""));
    let rows_line = metrics
        .lines()
        .find(|l| l.starts_with("kamino_rows_synthesized_total"))
        .expect("rows counter");
    println!("metrics sample: {rows_line}");
    let _ = request(addr, "POST", "/shutdown", "");
    handle.join().expect("server thread");
    println!("server shut down cleanly");
}
