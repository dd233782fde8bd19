//! `http::try_parse` reads raw client bytes, and the event loop calls it
//! on every prefix a torn write delivers. Whatever the bytes, it must
//! return (never panic), and a request it accepts must consume no more
//! than the buffer holds, with its body the last bytes it consumed.

use kamino_serve::http::{try_parse, Parse};
use proptest::prelude::*;

/// Request heads that parse, each reaching a different branch of the
/// head parser: a body length, percent escapes and a bare-LF head, an
/// overflowing length, a refused transfer encoding, a bad version.
const HEADS: [&str; 6] = [
    "GET /healthz HTTP/1.1\r\n\r\n",
    "POST /fit HTTP/1.1\r\ncontent-length: 5\r\n\r\n",
    "POST /models/1/synthesize?n=20&batch=%41%zz+x&=&k HTTP/1.0\nHost: a\n\n",
    "GET / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
    "PUT /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
    "GET / HTTP/2\r\n\r\n",
];

/// Parses every prefix of `buf`, as a stream of torn reads would see it,
/// and checks what an accepted request consumed.
fn parse_every_prefix(buf: &[u8]) {
    for end in 0..=buf.len() {
        let prefix = &buf[..end];
        if let Parse::Ready { req, consumed } = try_parse(prefix) {
            assert!(
                consumed <= prefix.len(),
                "consumed {consumed} of {} bytes",
                prefix.len()
            );
            assert!(consumed >= req.body.len());
            assert_eq!(req.body, prefix[consumed - req.body.len()..consumed]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        parse_every_prefix(&bytes);
    }

    /// A valid head, optionally with one byte overwritten, followed by
    /// garbage: the garbage is the body, a pipelined request, or both.
    #[test]
    fn a_valid_head_then_garbage_never_panics(
        head in prop::sample::select(HEADS.to_vec()),
        flip in any::<u64>(),
        flip_to in any::<u8>(),
        garbage in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        let mut buf = head.as_bytes().to_vec();
        // one case in four keeps the head intact
        if !flip.is_multiple_of(4) {
            let at = (flip / 4) as usize % buf.len();
            buf[at] = flip_to;
        }
        buf.extend_from_slice(&garbage);
        parse_every_prefix(&buf);
    }
}
