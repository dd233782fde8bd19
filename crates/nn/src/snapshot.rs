//! Weight-tensor snapshot codec: every layer the Kamino model is built
//! from ([`Linear`], [`Embedding`], [`ContinuousEncoder`], [`Attention`],
//! the two heads) round-trips through the shared wire rules. Only
//! parameter *values* travel — gradient buffers are transient optimizer
//! state and come back zeroed, exactly like a freshly built layer between
//! steps.

use kamino_data::wire::{ByteReader, ByteWriter, WireError};

use crate::attention::Attention;
use crate::heads::{CategoricalHead, GaussianHead};
use crate::layers::{ContinuousEncoder, Embedding, Linear};

/// Encodes a dense layer (shape + weight and bias tensors).
pub fn encode_linear(l: &Linear, w: &mut ByteWriter) {
    w.put_usize(l.n_in());
    w.put_usize(l.n_out());
    w.put_f64s(&l.w.values);
    w.put_f64s(&l.b.values);
}

/// Decodes a dense layer written by [`encode_linear`].
pub fn decode_linear(r: &mut ByteReader<'_>) -> Result<Linear, WireError> {
    let n_in = r.usize()?;
    let n_out = r.usize()?;
    let wv = r.f64s()?;
    let bv = r.f64s()?;
    if wv.len() != n_in * n_out || bv.len() != n_out {
        return Err(WireError::Malformed(format!(
            "linear tensor shape mismatch: {}x{} with |w|={} |b|={}",
            n_out,
            n_in,
            wv.len(),
            bv.len()
        )));
    }
    Ok(Linear::from_values(n_in, n_out, wv, bv))
}

/// Encodes an embedding table.
pub fn encode_embedding(e: &Embedding, w: &mut ByteWriter) {
    w.put_usize(e.card());
    w.put_usize(e.dim());
    w.put_f64s(&e.table.values);
}

/// Decodes an embedding written by [`encode_embedding`].
pub fn decode_embedding(r: &mut ByteReader<'_>) -> Result<Embedding, WireError> {
    let card = r.usize()?;
    let dim = r.usize()?;
    let table = r.f64s()?;
    if table.len() != card * dim {
        return Err(WireError::Malformed(format!(
            "embedding table shape mismatch: {card}x{dim} with {} values",
            table.len()
        )));
    }
    Ok(Embedding::from_values(card, dim, table))
}

/// Encodes a continuous-scalar encoder (`z = B·ω(A·x + c) + d`).
pub fn encode_encoder(e: &ContinuousEncoder, w: &mut ByteWriter) {
    w.put_usize(e.dim());
    w.put_f64s(&e.a.values);
    w.put_f64s(&e.c.values);
    w.put_f64s(&e.b.values);
    w.put_f64s(&e.d.values);
}

/// Decodes an encoder written by [`encode_encoder`].
pub fn decode_encoder(r: &mut ByteReader<'_>) -> Result<ContinuousEncoder, WireError> {
    let dim = r.usize()?;
    let a = r.f64s()?;
    let c = r.f64s()?;
    let b = r.f64s()?;
    let d = r.f64s()?;
    if a.len() != dim || c.len() != dim || b.len() != dim * dim || d.len() != dim {
        return Err(WireError::Malformed(format!(
            "encoder tensor shape mismatch at dim {dim}"
        )));
    }
    Ok(ContinuousEncoder::from_values(dim, a, c, b, d))
}

/// Encodes an attention combiner (scores + width).
pub fn encode_attention(a: &Attention, w: &mut ByteWriter) {
    w.put_usize(a.dim());
    w.put_f64s(&a.scores.values);
}

/// Decodes attention written by [`encode_attention`].
pub fn decode_attention(r: &mut ByteReader<'_>) -> Result<Attention, WireError> {
    let dim = r.usize()?;
    let scores = r.f64s()?;
    Ok(Attention::from_values(dim, scores))
}

/// Encodes a categorical head (its logit layer).
pub fn encode_cat_head(h: &CategoricalHead, w: &mut ByteWriter) {
    encode_linear(h.linear(), w);
}

/// Decodes a categorical head written by [`encode_cat_head`].
pub fn decode_cat_head(r: &mut ByteReader<'_>) -> Result<CategoricalHead, WireError> {
    Ok(CategoricalHead::from_linear(decode_linear(r)?))
}

/// Encodes a Gaussian head (its (μ, ln σ) layer).
pub fn encode_gauss_head(h: &GaussianHead, w: &mut ByteWriter) {
    encode_linear(h.linear(), w);
}

/// Decodes a Gaussian head written by [`encode_gauss_head`].
pub fn decode_gauss_head(r: &mut ByteReader<'_>) -> Result<GaussianHead, WireError> {
    let linear = decode_linear(r)?;
    if linear.n_out() != 2 {
        return Err(WireError::Malformed(format!(
            "Gaussian head must have 2 outputs, got {}",
            linear.n_out()
        )));
    }
    Ok(GaussianHead::from_linear(linear))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_roundtrip_preserves_forward() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = Linear::new(3, 4, &mut rng);
        let mut w = ByteWriter::new();
        encode_linear(&l, &mut w);
        let bytes = w.into_bytes();
        let got = decode_linear(&mut ByteReader::new(&bytes)).unwrap();
        let x = [0.5, -1.0, 2.0];
        let (mut y1, mut y2) = ([0.0; 4], [0.0; 4]);
        l.forward(&x, &mut y1);
        got.forward(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn embedding_and_encoder_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let e = Embedding::new(5, 4, &mut rng);
        let enc = ContinuousEncoder::new(4, &mut rng);
        let mut w = ByteWriter::new();
        encode_embedding(&e, &mut w);
        encode_encoder(&enc, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let e2 = decode_embedding(&mut r).unwrap();
        let enc2 = decode_encoder(&mut r).unwrap();
        assert_eq!(e.forward(3), e2.forward(3));
        let (mut z1, mut z2) = (vec![0.0; 4], vec![0.0; 4]);
        let mut scratch = crate::Scratch::new();
        enc.forward(0.7, &mut z1, &mut scratch);
        enc2.forward(0.7, &mut z2, &mut scratch);
        assert_eq!(z1, z2);
    }

    #[test]
    fn attention_and_heads_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = Attention::new(3, 4);
        a.scores.values = vec![0.2, -0.4, 0.9];
        let ch = CategoricalHead::new(4, 6, &mut rng);
        let gh = GaussianHead::new(4, &mut rng);
        let mut w = ByteWriter::new();
        encode_attention(&a, &mut w);
        encode_cat_head(&ch, &mut w);
        encode_gauss_head(&gh, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let a2 = decode_attention(&mut r).unwrap();
        let ch2 = decode_cat_head(&mut r).unwrap();
        let gh2 = decode_gauss_head(&mut r).unwrap();
        assert_eq!(a.weights(), a2.weights());
        let v = [0.1, 0.2, -0.3, 0.4];
        let (mut p1, mut p2) = ([0.0; 6], [0.0; 6]);
        ch.predict(&v, &mut p1);
        ch2.predict(&v, &mut p2);
        assert_eq!(p1, p2);
        assert_eq!(gh.predict(&v), gh2.predict(&v));
        assert!(r.is_exhausted());
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_usize(3); // n_in
        w.put_usize(4); // n_out
        w.put_f64s(&[0.0; 5]); // wrong: needs 12
        w.put_f64s(&[0.0; 4]);
        let bytes = w.into_bytes();
        assert!(decode_linear(&mut ByteReader::new(&bytes)).is_err());
    }
}
