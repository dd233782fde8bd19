//! Fault-injection suite for the serving event loop: torn writes,
//! premature disconnects mid-stream, oversized heads and bodies,
//! pipelined keep-alive traffic, slow readers and rapid churn. The
//! invariant under every fault: the server never panics, never desyncs
//! a keep-alive connection, answers malformed input with the right
//! 4xx/5xx, and stays fully live for the next client.

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::thread;
use std::time::Duration;

use common::{
    assert_healthy, boot, fit_and_wait, json, list_models, metric, read_response, request,
    scratch_dir, shutdown,
};
use kamino_serve::{Json, ServeConfig};

const TINY_FIT: &str =
    r#"{"corpus":"adult","rows":100,"epsilon":1.0,"seed":11,"train_scale":0.03}"#;

#[test]
fn faults_never_kill_or_desync_the_server() {
    let (addr, handle) = boot(ServeConfig {
        threads: 4,
        ..ServeConfig::default()
    });
    let id = fit_and_wait(addr, TINY_FIT);

    // --- torn writes: a request dribbled in byte-sized pieces ---------
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let raw = b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n";
        for piece in raw.chunks(7) {
            s.write_all(piece).unwrap();
            s.flush().unwrap();
            thread::sleep(Duration::from_millis(5));
        }
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        let (head, body) = read_response(&mut out.as_slice());
        assert!(head.starts_with("HTTP/1.1 200"), "torn write got {head}");
        assert_eq!(json(&body).get("status").and_then(Json::as_str), Some("ok"));
    }
    assert_healthy(addr, "torn writes");

    // --- torn write split inside the body ----------------------------
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let body = r#"{"corpus":"nope"}"#;
        write!(
            s,
            "POST /fit HTTP/1.1\r\nhost: t\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .unwrap();
        let (a, b) = body.as_bytes().split_at(5);
        s.write_all(a).unwrap();
        s.flush().unwrap();
        thread::sleep(Duration::from_millis(20));
        s.write_all(b).unwrap();
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        let (head, body) = read_response(&mut out.as_slice());
        assert!(head.starts_with("HTTP/1.1 400"), "split body got {head}");
        assert!(body.contains("unknown corpus"));
    }
    assert_healthy(addr, "split body");

    // --- oversized head: 431, connection closed ----------------------
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n");
        // dribble far more header bytes than MAX_HEAD without terminating
        let filler = format!("x-junk: {}\r\n", "a".repeat(1024));
        for _ in 0..64 {
            if s.write_all(filler.as_bytes()).is_err() {
                break; // server already slammed the door — also fine
            }
        }
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        let text = String::from_utf8_lossy(&out);
        assert!(
            text.starts_with("HTTP/1.1 431"),
            "oversized head got {:?}",
            text.lines().next()
        );
    }
    assert_healthy(addr, "oversized head");

    // --- oversized body: 413 from the declared length alone ----------
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(b"POST /fit HTTP/1.1\r\nhost: t\r\ncontent-length: 999999999\r\n\r\n")
            .unwrap();
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        let (head, _) = read_response(&mut out.as_slice());
        assert!(
            head.starts_with("HTTP/1.1 413"),
            "oversized body got {head}"
        );
    }
    assert_healthy(addr, "oversized body");

    // --- garbage bytes: 400, not a hang or a crash --------------------
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(b"\x16\x03\x01\x02\x00 not http at all\r\n\r\n")
            .unwrap();
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        let (head, _) = read_response(&mut out.as_slice());
        assert!(
            head.starts_with("HTTP/1.1 400") || head.starts_with("HTTP/1.1 505"),
            "garbage got {head}"
        );
    }
    assert_healthy(addr, "garbage bytes");

    // --- pipelined keep-alive: three requests in one write, three
    // --- responses in order, then a clean reuse of the connection -----
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let one = "GET /healthz HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n";
        let synth = format!(
            "POST /models/{id}/synthesize?n=12&batch=5&format=json HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n"
        );
        s.write_all(format!("{one}{synth}{one}").as_bytes())
            .unwrap();
        let (h1, _) = read_response(&mut s);
        let (h2, rows) = read_response(&mut s);
        let (h3, _) = read_response(&mut s);
        assert!([h1, h2, h3].iter().all(|h| h.starts_with("HTTP/1.1 200")));
        assert_eq!(rows.lines().count(), 12, "pipelined stream desynced");
        // the same connection still serves a fourth request
        s.write_all(one.as_bytes()).unwrap();
        let (h4, _) = read_response(&mut s);
        assert!(
            h4.starts_with("HTTP/1.1 200"),
            "keep-alive connection desynced"
        );
    }
    assert_healthy(addr, "pipelined keep-alive");

    // --- premature disconnect mid-chunked-response --------------------
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        write!(
            s,
            "POST /models/{id}/synthesize?n=100000&batch=200&format=csv HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n"
        )
        .unwrap();
        // take a few KB of the stream, then vanish
        let mut buf = [0u8; 4096];
        let n = s.read(&mut buf).unwrap();
        assert!(n > 0, "no stream bytes before disconnect");
        drop(s);
    }
    assert_healthy(addr, "mid-stream disconnect");

    // --- half-close mid-stream (FIN while the server streams) ---------
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        write!(
            s,
            "POST /models/{id}/synthesize?n=2000&batch=100&format=csv HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n"
        )
        .unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        // the response must still arrive complete
        let (head, body) = read_response(&mut s);
        assert!(head.starts_with("HTTP/1.1 200"), "half-close got {head}");
        assert_eq!(
            body.lines().count(),
            2001,
            "half-close truncated the stream"
        );
    }
    assert_healthy(addr, "half-close mid-stream");

    // --- slow reader: drain a stream a few bytes at a time ------------
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        write!(
            s,
            "POST /models/{id}/synthesize?n=300&batch=50&format=csv HTTP/1.1\r\nhost: t\r\nconnection: close\r\ncontent-length: 0\r\n\r\n"
        )
        .unwrap();
        let mut raw = Vec::new();
        let mut buf = [0u8; 512];
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    raw.extend_from_slice(&buf[..n]);
                    thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("slow read failed: {e}"),
            }
        }
        let (head, body) = read_response(&mut raw.as_slice());
        assert!(head.starts_with("HTTP/1.1 200"), "slow reader got {head}");
        assert_eq!(body.lines().count(), 301, "slow reader lost rows");
    }
    assert_healthy(addr, "slow reader");

    // --- rapid connect/disconnect churn -------------------------------
    for _ in 0..50 {
        let s = TcpStream::connect(addr).unwrap();
        drop(s);
    }
    {
        // and churn with partial requests in flight
        for _ in 0..20 {
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = s.write_all(b"POST /fit HTTP/1.1\r\nhost:");
            drop(s);
        }
    }
    assert_healthy(addr, "connect/disconnect churn");

    // the full fault gauntlet never killed a worker or the loop: a last
    // real synthesize still produces exact rows
    let (status, body) = request(
        addr,
        "POST",
        &format!("/models/{id}/synthesize?n=25&batch=10&format=json"),
        None,
    );
    assert!(status.contains("200"), "{status}");
    assert_eq!(body.lines().count(), 25);

    shutdown(addr, handle);
}

/// Corrupt model-dir contents at boot: a truncated snapshot, a snapshot
/// with a flipped payload byte (bad CRC) and a stale atomic-install tmp
/// file left by a crash. Boot must quarantine all three — rename to
/// `*.quarantine`, never load them — and serve the intact snapshot.
#[test]
fn corrupt_snapshots_are_quarantined_at_boot_not_fatal() {
    let dir = scratch_dir("quarantine");

    let fitted = {
        let d = kamino_datasets::adult_like(80, 3);
        let mut cfg = kamino_core::KaminoConfig::new(kamino_dp::Budget::new(1.0, 1e-6));
        cfg.train_scale = 0.02;
        cfg.embed_dim = 8;
        cfg.seed = 71;
        kamino_core::fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg)
    };
    for name in ["model-1.kamino", "model-2.kamino", "model-3.kamino"] {
        kamino_serve::save_fitted(&fitted, &dir.join(name)).unwrap();
    }
    // model-1: truncated to half its length (torn write)
    let bytes = std::fs::read(dir.join("model-1.kamino")).unwrap();
    std::fs::write(dir.join("model-1.kamino"), &bytes[..bytes.len() / 2]).unwrap();
    // model-2: one payload byte flipped (bad section CRC)
    let mut bytes = std::fs::read(dir.join("model-2.kamino")).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(dir.join("model-2.kamino"), &bytes).unwrap();
    // a stale tmp file from an interrupted atomic install
    std::fs::write(dir.join("model-9.kamino.tmp-777-0"), b"half a snapshot").unwrap();

    let (addr, handle) = boot(ServeConfig {
        threads: 2,
        model_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    assert_healthy(addr, "boot over corrupt snapshots");

    // only the intact snapshot is registered
    let listed = list_models(addr);
    assert_eq!(
        listed.len(),
        1,
        "corrupt snapshots must not register: {listed:?}"
    );

    // the corrupt files were renamed aside, not deleted and not loaded
    assert!(dir.join("model-1.kamino.quarantine").is_file());
    assert!(dir.join("model-2.kamino.quarantine").is_file());
    assert!(dir.join("model-9.kamino.tmp-777-0.quarantine").is_file());
    assert!(!dir.join("model-1.kamino").exists());
    assert!(!dir.join("model-2.kamino").exists());

    let (status, body) = request(addr, "GET", "/metrics", None);
    assert!(status.contains("200"), "{status}");
    assert_eq!(metric(&body, "kamino_quarantined_files_total"), 3.0);

    // the survivor still serves
    let (status, body) = request(
        addr,
        "POST",
        "/models/3/synthesize?n=10&batch=5&format=json",
        None,
    );
    assert!(status.contains("200"), "{status}: {body}");
    assert_eq!(body.lines().count(), 10);

    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: `POST /shutdown` while a chunked `/synthesize` response
/// is in flight must drain that response to completion — full row count
/// and a proper terminating chunk — before the server exits.
#[test]
fn shutdown_drains_in_flight_chunked_streams() {
    let (addr, handle) = boot(ServeConfig {
        threads: 4,
        ..ServeConfig::default()
    });
    let id = fit_and_wait(addr, TINY_FIT);

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    write!(
        s,
        "POST /models/{id}/synthesize?n=3000&batch=250&format=csv HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n"
    )
    .unwrap();
    // make sure the stream has started before shutting down
    let mut first = [0u8; 256];
    let n = s.read(&mut first).unwrap();
    assert!(n > 0);

    let (status, _) = request(addr, "POST", "/shutdown", None);
    assert!(status.contains("200"), "{status}");

    // keep reading: the stream must terminate cleanly, not get cut
    let mut raw = first[..n].to_vec();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) => panic!("stream died during drain: {e}"),
        }
    }
    let (head, body) = read_response(&mut raw.as_slice());
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(
        body.lines().count(),
        3001,
        "shutdown truncated an in-flight stream"
    );
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.ends_with("0\r\n\r\n"),
        "stream is missing its terminating chunk"
    );

    handle.join().expect("server thread panicked");
}
