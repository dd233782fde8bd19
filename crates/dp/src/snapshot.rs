//! Snapshot codec for the privacy layer: a [`Budget`] round-trips
//! through the shared wire rules. A persisted model carries its budget
//! here and its solved σ's and achieved ε in the pipeline layer's privacy
//! parameters, so a loaded session reports the *original* achieved ε —
//! reloading spends nothing (sampling is post-processing), and
//! re-planning could silently drift if planner defaults ever change.

use kamino_data::wire::{ByteReader, ByteWriter, WireError};

use crate::Budget;

/// Encodes a budget. ε = ∞ (non-private) survives as the IEEE bit
/// pattern.
pub fn encode_budget(b: &Budget, w: &mut ByteWriter) {
    w.put_f64(b.epsilon);
    w.put_f64(b.delta);
}

/// Decodes a budget written by [`encode_budget`], re-validating the
/// (ε, δ) ranges the constructors enforce.
pub fn decode_budget(r: &mut ByteReader<'_>) -> Result<Budget, WireError> {
    let epsilon = r.f64()?;
    let delta = r.f64()?;
    if epsilon.is_nan() || epsilon <= 0.0 {
        return Err(WireError::Malformed(format!("invalid epsilon {epsilon}")));
    }
    if delta.is_nan() || delta <= 0.0 || delta >= 1.0 {
        return Err(WireError::Malformed(format!("invalid delta {delta}")));
    }
    Ok(Budget { epsilon, delta })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_roundtrip_including_non_private() {
        for b in [Budget::new(1.0, 1e-6), Budget::non_private()] {
            let mut w = ByteWriter::new();
            encode_budget(&b, &mut w);
            let bytes = w.into_bytes();
            let got = decode_budget(&mut ByteReader::new(&bytes)).unwrap();
            assert_eq!(got.epsilon.to_bits(), b.epsilon.to_bits());
            assert_eq!(got.delta, b.delta);
        }
    }

    #[test]
    fn corrupt_budget_rejected() {
        let mut w = ByteWriter::new();
        w.put_f64(-1.0); // negative ε
        w.put_f64(1e-6);
        let bytes = w.into_bytes();
        assert!(decode_budget(&mut ByteReader::new(&bytes)).is_err());
        let mut w = ByteWriter::new();
        w.put_f64(1.0);
        w.put_f64(2.0); // δ out of range
        let bytes = w.into_bytes();
        assert!(decode_budget(&mut ByteReader::new(&bytes)).is_err());
    }
}
