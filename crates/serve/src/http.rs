//! Hand-rolled HTTP/1.1 plumbing: request parsing, response writing and
//! chunked transfer encoding, on nothing but `std`.
//!
//! The parser is deliberately strict and bounded — request line ≤ 8 KiB,
//! ≤ 64 headers, body ≤ 16 MiB — because the server faces the network.
//! Anything outside those bounds is a `400`/`413`, not an allocation.
//! Keep-alive is supported (HTTP/1.1 default); a `Connection: close`
//! header from either side ends the connection after the in-flight
//! exchange.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};

/// Bound on the request line and on any single header line.
const MAX_LINE: usize = 8 * 1024;
/// Bound on the number of headers.
const MAX_HEADERS: usize = 64;
/// Bound on a request body.
pub const MAX_BODY: usize = 16 * 1024 * 1024;
/// Bound on the whole request head (request line + headers + blank
/// line). The event loop buffers at most this much while hunting for the
/// head terminator; anything longer is answered with `431` instead of an
/// allocation.
pub const MAX_HEAD: usize = 32 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path, without the query string.
    pub path: String,
    /// Query parameters in order-independent form.
    pub query: BTreeMap<String, String>,
    /// Lower-cased header names → values.
    pub headers: BTreeMap<String, String>,
    /// Request body (empty when none).
    pub body: Vec<u8>,
}

impl Request {
    /// Whether the client asked to drop the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// A query parameter parsed to `usize`.
    pub fn query_usize(&self, key: &str) -> Option<usize> {
        self.query.get(key).and_then(|v| v.parse().ok())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before a request started — the
    /// normal end of a keep-alive session.
    Eof,
    /// Transport failure mid-request.
    Io(io::Error),
    /// The bytes are not valid HTTP within the parser's bounds. The
    /// payload is the status line to answer with.
    Bad(&'static str),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> ReadError {
        ReadError::Io(e)
    }
}

fn read_line<R: BufRead>(r: &mut R) -> Result<String, ReadError> {
    let mut line = Vec::with_capacity(128);
    loop {
        let mut byte = [0u8; 1];
        let n = r.read(&mut byte).map_err(ReadError::Io)?;
        if n == 0 {
            if line.is_empty() {
                return Err(ReadError::Eof);
            }
            return Err(ReadError::Bad("400 Bad Request"));
        }
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line).map_err(|_| ReadError::Bad("400 Bad Request"));
        }
        line.push(byte[0]);
        if line.len() > MAX_LINE {
            return Err(ReadError::Bad("431 Request Header Fields Too Large"));
        }
    }
}

/// Decodes `%XX` escapes and `+` in a query component.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    let h = std::str::from_utf8(h).ok()?;
                    u8::from_str_radix(h, 16).ok()
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(q: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for pair in q.split('&') {
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.insert(percent_decode(k), percent_decode(v));
    }
    out
}

/// Parses the request line and headers (through the blank line), leaving
/// the body unread. Returns the request with an empty body plus the
/// declared `content-length`. The head parser behind the event loop's
/// incremental [`try_parse`].
pub fn read_head<R: BufRead>(r: &mut R) -> Result<(Request, usize), ReadError> {
    let request_line = read_line(r)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(ReadError::Bad("400 Bad Request"))?
        .to_ascii_uppercase();
    let target = parts.next().ok_or(ReadError::Bad("400 Bad Request"))?;
    let version = parts.next().ok_or(ReadError::Bad("400 Bad Request"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad("505 HTTP Version Not Supported"));
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), BTreeMap::new()),
    };

    let mut headers = BTreeMap::new();
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ReadError::Bad("431 Request Header Fields Too Large"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ReadError::Bad("400 Bad Request"))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }

    // chunked request bodies are not implemented; silently treating the
    // body as empty would desync the keep-alive stream (the chunk bytes
    // would parse as the next request), so refuse loudly
    if headers.contains_key("transfer-encoding") {
        return Err(ReadError::Bad("501 Not Implemented"));
    }

    let len = match headers.get("content-length") {
        None => 0,
        Some(v) => {
            let len: usize = v.parse().map_err(|_| ReadError::Bad("400 Bad Request"))?;
            if len > MAX_BODY {
                return Err(ReadError::Bad("413 Content Too Large"));
            }
            len
        }
    };

    Ok((
        Request {
            method,
            path,
            query,
            headers,
            body: Vec::new(),
        },
        len,
    ))
}

/// Outcome of an incremental parse attempt over buffered bytes.
#[derive(Debug)]
pub enum Parse {
    /// Not enough bytes for a complete request yet; read more.
    Partial,
    /// One complete request, and how many buffered bytes it consumed
    /// (drain exactly that many — pipelined requests may follow).
    Ready {
        /// The parsed request.
        req: Request,
        /// Bytes consumed from the front of the buffer.
        consumed: usize,
    },
    /// The bytes are not valid HTTP within the parser's bounds; answer
    /// with this status line and close (resync is impossible).
    Bad(&'static str),
}

/// Finds the end of the request head (the byte after the blank line),
/// accepting both CRLF and bare-LF line endings like [`read_line`] does.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match buf.get(i + 1..i + 3) {
                Some(b"\r\n") => return Some(i + 3),
                _ => {
                    if buf.get(i + 1) == Some(&b'\n') {
                        return Some(i + 2);
                    }
                }
            }
        }
        i += 1;
    }
    None
}

/// Attempts to parse one request from the front of `buf` without
/// blocking: the event loop calls this after every read. The bounded
/// [`read_head`] parser does the head work once the terminator is
/// buffered, so torn and pipelined writes converge to the outcome a
/// single whole-request write gets.
pub fn try_parse(buf: &[u8]) -> Parse {
    let Some(head_end) = find_head_end(buf) else {
        // no terminator yet: bound how much head a client may dribble in
        if buf.len() > MAX_HEAD {
            return Parse::Bad("431 Request Header Fields Too Large");
        }
        return Parse::Partial;
    };
    if head_end > MAX_HEAD {
        return Parse::Bad("431 Request Header Fields Too Large");
    }
    let mut head = &buf[..head_end];
    match read_head(&mut head) {
        // Eof cannot happen (the terminator is present), but treat it as
        // malformed rather than looping
        Err(ReadError::Eof) | Err(ReadError::Io(_)) => Parse::Bad("400 Bad Request"),
        Err(ReadError::Bad(status)) => Parse::Bad(status),
        Ok((mut req, len)) => {
            let total = head_end + len;
            if buf.len() < total {
                return Parse::Partial;
            }
            req.body = buf[head_end..total].to_vec();
            Parse::Ready {
                req,
                consumed: total,
            }
        }
    }
}

/// Writes a complete (non-chunked) response.
pub fn write_response<W: Write>(
    w: &mut W,
    status: &str,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    write_response_extra(w, status, content_type, body, close, &[])
}

/// [`write_response`] with extra response headers (e.g. `Retry-After`
/// on `429`/`503`). Header names and values must already be wire-safe.
pub fn write_response_extra<W: Write>(
    w: &mut W,
    status: &str,
    content_type: &str,
    body: &[u8],
    close: bool,
    extra: &[(&str, &str)],
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        body.len(),
        if close { "close" } else { "keep-alive" },
    )?;
    for (name, value) in extra {
        write!(w, "{name}: {value}\r\n")?;
    }
    write!(w, "\r\n")?;
    w.write_all(body)?;
    w.flush()
}

/// Writes the header of a chunked response; follow with
/// [`write_chunk`] calls and one [`finish_chunked`].
pub fn start_chunked<W: Write>(w: &mut W, status: &str, content_type: &str) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status}\r\ncontent-type: {content_type}\r\ntransfer-encoding: chunked\r\nconnection: keep-alive\r\n\r\n"
    )
}

/// Writes one chunk (empty input is skipped — an empty chunk would
/// terminate the stream).
pub fn write_chunk<W: Write>(w: &mut W, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(w, "{:x}\r\n", data.len())?;
    w.write_all(data)?;
    write!(w, "\r\n")
}

/// Terminates a chunked response.
pub fn finish_chunked<W: Write>(w: &mut W) -> io::Result<()> {
    write!(w, "0\r\n\r\n")?;
    w.flush()
}

/// Terminates a chunked response early with a trailer header — the only
/// in-band way to tell a client mid-stream that the body is incomplete
/// (e.g. `kamino-trailer: deadline-expired`). Clients that ignore
/// trailers still see a well-formed, terminated chunked body.
pub fn finish_chunked_with_trailer<W: Write>(w: &mut W, name: &str, value: &str) -> io::Result<()> {
    write!(w, "0\r\n{name}: {value}\r\n\r\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses one complete request; `Err` carries the refusal status.
    /// Panics on `Partial` — every input here is whole.
    fn req(raw: &str) -> Result<Request, &'static str> {
        match try_parse(raw.as_bytes()) {
            Parse::Ready { req, consumed } => {
                assert_eq!(consumed, raw.len(), "one request, fully consumed");
                Ok(req)
            }
            Parse::Bad(status) => Err(status),
            Parse::Partial => panic!("incomplete request: {raw:?}"),
        }
    }

    #[test]
    fn parses_get_with_query() {
        let r =
            req("GET /models/3/synthesize?n=500&batch=50&format=csv HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/models/3/synthesize");
        assert_eq!(r.query_usize("n"), Some(500));
        assert_eq!(r.query_usize("batch"), Some(50));
        assert_eq!(r.query.get("format").map(String::as_str), Some("csv"));
        assert!(!r.wants_close());
    }

    #[test]
    fn parses_post_with_body() {
        let r =
            req("POST /fit HTTP/1.1\r\nContent-Length: 11\r\nConnection: close\r\n\r\nhello world")
                .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"hello world");
        assert!(r.wants_close());
    }

    #[test]
    fn eof_and_garbage_are_distinct() {
        // no bytes yet is a wait, not an error; garbage is refused
        assert!(matches!(try_parse(b""), Parse::Partial));
        assert!(matches!(req("NOT HTTP\r\n\r\n"), Err("400 Bad Request")));
        assert!(matches!(
            req("GET / SPDY/99\r\n\r\n"),
            Err("505 HTTP Version Not Supported")
        ));
    }

    #[test]
    fn chunked_request_bodies_are_refused() {
        let raw = "POST /fit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        assert!(matches!(req(raw), Err("501 Not Implemented")));
    }

    #[test]
    fn oversized_body_rejected() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(req(&raw), Err("413 Content Too Large")));
    }

    #[test]
    fn percent_decoding() {
        let r = req("GET /x?name=a%20b+c&pct=%2f HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.query.get("name").map(String::as_str), Some("a b c"));
        assert_eq!(r.query.get("pct").map(String::as_str), Some("/"));
    }

    #[test]
    fn incremental_parse_matches_blocking_parse() {
        let raw = b"POST /fit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        // every prefix short of the full request is Partial, never Bad
        for cut in 0..raw.len() {
            assert!(
                matches!(try_parse(&raw[..cut]), Parse::Partial),
                "cut at {cut}"
            );
        }
        let Parse::Ready { req, consumed } = try_parse(raw) else {
            panic!("full request must parse");
        };
        assert_eq!(consumed, raw.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn incremental_parse_handles_pipelined_requests() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let Parse::Ready { req, consumed } = try_parse(raw) else {
            panic!("first request must parse");
        };
        assert_eq!(req.path, "/healthz");
        let rest = &raw[consumed..];
        let Parse::Ready { req, consumed } = try_parse(rest) else {
            panic!("second request must parse");
        };
        assert_eq!(req.path, "/metrics");
        assert_eq!(consumed, rest.len());
    }

    #[test]
    fn incremental_parse_bounds_the_head() {
        // a head that never terminates must hit the 431 bound, not grow
        let mut dribble = b"GET / HTTP/1.1\r\n".to_vec();
        while dribble.len() <= MAX_HEAD {
            dribble.extend_from_slice(b"x-pad: yyyyyyyyyyyyyyyyyyyyyyyyyyyy\r\n");
        }
        assert!(matches!(try_parse(&dribble), Parse::Bad(s) if s.starts_with("431")));
        // an oversized declared body is refused before buffering it
        let raw = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(try_parse(raw.as_bytes()), Parse::Bad(s) if s.starts_with("413")));
        // garbage is Bad, not Partial
        assert!(matches!(
            try_parse(b"NOT HTTP AT ALL\r\n\r\n"),
            Parse::Bad(_)
        ));
    }

    #[test]
    fn incremental_parse_accepts_bare_lf_heads() {
        let raw = b"GET /healthz HTTP/1.1\nhost: x\n\n";
        let Parse::Ready { req, consumed } = try_parse(raw) else {
            panic!("bare-LF request must parse");
        };
        assert_eq!(req.path, "/healthz");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn response_and_chunked_writers() {
        let mut out = Vec::new();
        write_response(&mut out, "200 OK", "application/json", b"{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        start_chunked(&mut out, "200 OK", "text/csv").unwrap();
        write_chunk(&mut out, b"a,b\n").unwrap();
        write_chunk(&mut out, b"").unwrap();
        write_chunk(&mut out, b"1,2\n").unwrap();
        finish_chunked(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("transfer-encoding: chunked"));
        assert!(text.contains("4\r\na,b\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }

    #[test]
    fn extra_headers_and_trailers_render() {
        let mut out = Vec::new();
        write_response_extra(
            &mut out,
            "429 Too Many Requests",
            "application/json",
            b"{}",
            false,
            &[("retry-after", "1")],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\r\nretry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        start_chunked(&mut out, "200 OK", "text/csv").unwrap();
        write_chunk(&mut out, b"a,b\n").unwrap();
        finish_chunked_with_trailer(&mut out, "kamino-trailer", "deadline-expired").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.ends_with("0\r\nkamino-trailer: deadline-expired\r\n\r\n"));
    }
}
