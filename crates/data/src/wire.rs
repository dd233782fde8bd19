//! Byte-level primitives shared by the model-snapshot codecs.
//!
//! Every crate that persists part of a fitted model (schema here, plan
//! σ's in `kamino-dp`, weight tensors in `kamino-nn`, the assembled
//! sections in `kamino-serve`) encodes through this module, so the wire
//! rules live in exactly one place:
//!
//! * **fixed endianness** — all integers and floats are little-endian;
//!   `f64` travels as its IEEE-754 bit pattern, so NaN payloads and ±∞
//!   (hard-DC weights, non-private ε) round-trip bit-exactly;
//! * **length-prefixed containers** — strings and vectors carry a `u32`
//!   length, bounded by [`MAX_CONTAINER_LEN`] so a corrupted length can
//!   never trigger a multi-gigabyte allocation;
//! * **checked reads** — [`ByteReader`] returns [`WireError`] instead of
//!   panicking, which the snapshot loader surfaces as a corrupt-file
//!   error.
//!
//! [`crc32`] implements the IEEE CRC-32 every snapshot section is sealed
//! with, and [`fnv1a64`] the 64-bit FNV-1a hash behind config cache keys,
//! plan fingerprints and the pinned output digests.

use std::fmt;

/// Upper bound on any length prefix (strings, vectors, tables). Fitted
/// models are a few MB at most; 256 Mi entries is far beyond any valid
/// snapshot and small enough to fail fast on garbage.
pub const MAX_CONTAINER_LEN: u32 = 1 << 28;

/// Decoding failure: the bytes do not follow the wire rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes remained than the read required.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A tag or length had no valid interpretation.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated input: needed {needed} bytes, {remaining} left"
                )
            }
            WireError::Malformed(msg) => write!(f, "malformed input: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Growable little-endian byte sink.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (fixed width across platforms).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its little-endian IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        assert!(bytes.len() <= MAX_CONTAINER_LEN as usize, "blob too large");
        self.put_u32(bytes.len() as u32);
        self.put_raw(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Writes a length-prefixed `f64` slice.
    pub fn put_f64s(&mut self, vs: &[f64]) {
        assert!(vs.len() <= MAX_CONTAINER_LEN as usize, "vector too large");
        self.put_u32(vs.len() as u32);
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Writes a length-prefixed `usize` slice (as `u64`s).
    pub fn put_usizes(&mut self, vs: &[usize]) {
        assert!(vs.len() <= MAX_CONTAINER_LEN as usize, "vector too large");
        self.put_u32(vs.len() as u32);
        for &v in vs {
            self.put_usize(v);
        }
    }
}

/// Checked little-endian cursor over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader has consumed every byte.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool (rejecting anything but 0/1 — a corruption tell).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Malformed(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` written by [`ByteWriter::put_usize`].
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Malformed(format!("usize overflow: {v}")))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a container length prefix, bounded by [`MAX_CONTAINER_LEN`].
    pub fn len_prefix(&mut self) -> Result<usize, WireError> {
        let n = self.u32()?;
        if n > MAX_CONTAINER_LEN {
            return Err(WireError::Malformed(format!(
                "container length {n} too large"
            )));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len_prefix()?;
        self.take(n)
    }

    /// Reads exactly `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.len_prefix()?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `usize` vector.
    pub fn usizes(&mut self) -> Result<Vec<usize>, WireError> {
        let n = self.len_prefix()?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.usize()?);
        }
        Ok(out)
    }
}

/// IEEE CRC-32 (polynomial `0xEDB88320`), the per-section checksum of the
/// snapshot format. Table-driven; the table is built on first use.
pub fn crc32(bytes: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// 64-bit FNV-1a: tiny, dependency-free and stable across platforms.
/// Config cache keys, budget-plan fingerprints and the tests that pin
/// sampled output and snapshot bytes all hash through it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_usize(12345);
        w.put_f64(-0.125);
        w.put_f64(f64::INFINITY);
        w.put_f64(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.f64().unwrap().is_infinite());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.is_exhausted());
    }

    #[test]
    fn container_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_str("schéma");
        w.put_f64s(&[1.0, -2.5, f64::NEG_INFINITY]);
        w.put_usizes(&[0, 9, 81]);
        w.put_bytes(b"raw");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.string().unwrap(), "schéma");
        assert_eq!(r.f64s().unwrap(), vec![1.0, -2.5, f64::NEG_INFINITY]);
        assert_eq!(r.usizes().unwrap(), vec![0, 9, 81]);
        assert_eq!(r.bytes().unwrap(), b"raw");
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(matches!(r.u64(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn bogus_lengths_and_bools_rejected() {
        // length prefix far beyond MAX_CONTAINER_LEN
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(
            ByteReader::new(&bytes).len_prefix(),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            ByteReader::new(&[2u8]).bool(),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn crc32_known_vector() {
        // the classic check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn fnv1a64_known_vectors() {
        // the offset basis, and two vectors from the FNV reference suite
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
