//! Snapshot codec for the pipeline layer: the trained [`DataModel`]
//! (embedding stores, attention, heads, noisy marginals), the selected
//! [`PrivacyParams`], the [`KaminoConfig`] and the fit-phase timings all
//! round-trip through the shared wire rules. `kamino-serve` assembles
//! these encodings (plus the schema/DC/RNG sections) into the versioned
//! snapshot file; this module only knows how to turn each piece into
//! bytes and back.

use std::time::Duration;

use kamino_data::snapshot::{decode_standardizer, encode_standardizer};
use kamino_data::wire::{ByteReader, ByteWriter, WireError};
use kamino_dp::snapshot::{decode_budget, encode_budget};
use kamino_nn::snapshot::{
    decode_attention, decode_cat_head, decode_embedding, decode_encoder, decode_gauss_head,
    encode_attention, encode_cat_head, encode_embedding, encode_encoder, encode_gauss_head,
};

use crate::model::{AttrEmbedder, DataModel, EmbeddingStore, Head, SubModel, SubModelKind};
use crate::params::PrivacyParams;
use crate::pipeline::{KaminoConfig, PhaseTimings};

const EMBEDDER_CAT: u8 = 0;
const EMBEDDER_NUM: u8 = 1;
const HEAD_CAT: u8 = 0;
const HEAD_NUM: u8 = 1;
const KIND_DISCRIMINATIVE: u8 = 0;
const KIND_NOISY_MARGINAL: u8 = 1;

fn encode_embedder(e: &AttrEmbedder, w: &mut ByteWriter) {
    match e {
        AttrEmbedder::Cat(emb) => {
            w.put_u8(EMBEDDER_CAT);
            encode_embedding(emb, w);
        }
        AttrEmbedder::Num { enc, std } => {
            w.put_u8(EMBEDDER_NUM);
            encode_encoder(enc, w);
            encode_standardizer(std, w);
        }
    }
}

fn decode_embedder(r: &mut ByteReader<'_>) -> Result<AttrEmbedder, WireError> {
    match r.u8()? {
        EMBEDDER_CAT => Ok(AttrEmbedder::Cat(decode_embedding(r)?)),
        EMBEDDER_NUM => Ok(AttrEmbedder::Num {
            enc: decode_encoder(r)?,
            std: decode_standardizer(r)?,
        }),
        tag => Err(WireError::Malformed(format!("unknown embedder tag {tag}"))),
    }
}

fn encode_store(s: &EmbeddingStore, w: &mut ByteWriter) {
    w.put_usize(s.dim());
    w.put_u32(s.embedders().len() as u32);
    for e in s.embedders() {
        // Option tag 1: every store embeds every attribute. The tag stays
        // so the format is unchanged.
        w.put_u8(1);
        encode_embedder(e, w);
    }
}

fn decode_store(r: &mut ByteReader<'_>) -> Result<EmbeddingStore, WireError> {
    let dim = r.usize()?;
    let n = r.len_prefix()?;
    let mut embedders = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        match r.u8()? {
            1 => embedders.push(decode_embedder(r)?),
            0 => {
                return Err(WireError::Malformed(
                    "embedding store lacks an attribute's embedder".into(),
                ))
            }
            tag => return Err(WireError::Malformed(format!("unknown option tag {tag}"))),
        }
    }
    Ok(EmbeddingStore::from_parts(embedders, dim))
}

fn encode_submodel(sm: &SubModel, w: &mut ByteWriter) {
    w.put_usize(sm.target);
    w.put_usizes(&sm.context);
    match &sm.kind {
        SubModelKind::Discriminative { attention, head } => {
            w.put_u8(KIND_DISCRIMINATIVE);
            encode_attention(attention, w);
            match head {
                Head::Cat(h) => {
                    w.put_u8(HEAD_CAT);
                    encode_cat_head(h, w);
                }
                Head::Num(h) => {
                    w.put_u8(HEAD_NUM);
                    encode_gauss_head(h, w);
                }
            }
        }
        SubModelKind::NoisyMarginal { dist } => {
            w.put_u8(KIND_NOISY_MARGINAL);
            w.put_f64s(dist);
        }
    }
    match &sm.own_store {
        None => w.put_u8(0),
        Some(store) => {
            w.put_u8(1);
            encode_store(store, w);
        }
    }
}

fn decode_submodel(r: &mut ByteReader<'_>) -> Result<SubModel, WireError> {
    let target = r.usize()?;
    let context = r.usizes()?;
    let kind = match r.u8()? {
        KIND_DISCRIMINATIVE => {
            let attention = decode_attention(r)?;
            let head = match r.u8()? {
                HEAD_CAT => Head::Cat(decode_cat_head(r)?),
                HEAD_NUM => Head::Num(decode_gauss_head(r)?),
                tag => return Err(WireError::Malformed(format!("unknown head tag {tag}"))),
            };
            if attention.n_context() != context.len() {
                return Err(WireError::Malformed(format!(
                    "attention arity {} does not match context arity {}",
                    attention.n_context(),
                    context.len()
                )));
            }
            SubModelKind::Discriminative { attention, head }
        }
        KIND_NOISY_MARGINAL => SubModelKind::NoisyMarginal { dist: r.f64s()? },
        tag => return Err(WireError::Malformed(format!("unknown sub-model tag {tag}"))),
    };
    let own_store = match r.u8()? {
        0 => None,
        1 => Some(decode_store(r)?),
        tag => return Err(WireError::Malformed(format!("unknown option tag {tag}"))),
    };
    Ok(SubModel {
        target,
        context,
        kind,
        own_store,
    })
}

/// Encodes the trained probabilistic model `M`.
pub fn encode_model(m: &DataModel, w: &mut ByteWriter) {
    w.put_usizes(&m.sequence);
    w.put_f64s(&m.first_dist);
    encode_store(&m.store, w);
    w.put_u32(m.submodels.len() as u32);
    for sm in &m.submodels {
        encode_submodel(sm, w);
    }
}

/// Decodes a model written by [`encode_model`].
pub fn decode_model(r: &mut ByteReader<'_>) -> Result<DataModel, WireError> {
    let sequence = r.usizes()?;
    let first_dist = r.f64s()?;
    let store = decode_store(r)?;
    let n = r.len_prefix()?;
    if n + 1 != sequence.len() {
        return Err(WireError::Malformed(format!(
            "{n} sub-models for a {}-attribute sequence",
            sequence.len()
        )));
    }
    let mut submodels = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        submodels.push(decode_submodel(r)?);
    }
    Ok(DataModel {
        sequence,
        first_dist,
        store,
        submodels,
    })
}

/// Encodes the selected privacy parameters Ψ.
pub fn encode_params(p: &PrivacyParams, w: &mut ByteWriter) {
    w.put_bool(p.non_private);
    w.put_f64(p.sigma_g);
    w.put_f64(p.sigma_d);
    w.put_usize(p.b);
    w.put_usize(p.t);
    w.put_f64(p.clip);
    w.put_f64(p.lr);
    w.put_bool(p.learn_weights);
    w.put_f64(p.sigma_w);
    w.put_usize(p.l_w);
    w.put_usize(p.b_w);
    w.put_usize(p.t_w);
    w.put_f64(p.achieved_epsilon);
}

/// Decodes parameters written by [`encode_params`].
pub fn decode_params(r: &mut ByteReader<'_>) -> Result<PrivacyParams, WireError> {
    Ok(PrivacyParams {
        non_private: r.bool()?,
        sigma_g: r.f64()?,
        sigma_d: r.f64()?,
        b: r.usize()?,
        t: r.usize()?,
        clip: r.f64()?,
        lr: r.f64()?,
        learn_weights: r.bool()?,
        sigma_w: r.f64()?,
        l_w: r.usize()?,
        b_w: r.usize()?,
        t_w: r.usize()?,
        achieved_epsilon: r.f64()?,
    })
}

/// Encodes the pipeline configuration (budget included).
pub fn encode_config(c: &KaminoConfig, w: &mut ByteWriter) {
    encode_budget(&c.budget, w);
    w.put_u64(c.seed);
    w.put_usize(c.embed_dim);
    w.put_f64(c.lr);
    w.put_usize(c.d_candidates);
    w.put_f64(c.mcmc_ratio);
    w.put_bool(c.parallel_training);
    w.put_bool(c.constraint_aware_sampling);
    w.put_bool(c.constraint_aware_sequencing);
    w.put_bool(c.hard_fd_lookup);
    w.put_bool(c.ar_sampling);
    w.put_bool(c.parallel_substrate);
    w.put_f64(c.train_scale);
    match c.output_n {
        None => w.put_u8(0),
        Some(n) => {
            w.put_u8(1);
            w.put_usize(n);
        }
    }
    w.put_usize(c.large_domain_threshold);
    // the slot of the retired shard count: always 1, so bytes do not
    // depend on the no-op `KaminoConfig::shards`
    w.put_usize(1);
}

/// Decodes a configuration written by [`encode_config`].
pub fn decode_config(r: &mut ByteReader<'_>) -> Result<KaminoConfig, WireError> {
    let budget = decode_budget(r)?;
    let mut cfg = KaminoConfig::new(budget);
    cfg.seed = r.u64()?;
    cfg.embed_dim = r.usize()?;
    cfg.lr = r.f64()?;
    cfg.d_candidates = r.usize()?;
    cfg.mcmc_ratio = r.f64()?;
    cfg.parallel_training = r.bool()?;
    cfg.constraint_aware_sampling = r.bool()?;
    cfg.constraint_aware_sequencing = r.bool()?;
    cfg.hard_fd_lookup = r.bool()?;
    cfg.ar_sampling = r.bool()?;
    cfg.parallel_substrate = r.bool()?;
    cfg.train_scale = r.f64()?;
    cfg.output_n = match r.u8()? {
        0 => None,
        1 => Some(r.usize()?),
        tag => return Err(WireError::Malformed(format!("unknown option tag {tag}"))),
    };
    cfg.large_domain_threshold = r.usize()?;
    // old files may hold any shard count here; there is one engine now
    let _retired_shards = r.usize()?;
    Ok(cfg)
}

/// Encodes fit-phase timings as nanosecond counts. The wire layout is
/// frozen at the original four fields so old readers and old snapshots
/// stay compatible; the sample-side breakdown travels separately via
/// [`encode_sample_timings`] (containers put it in an optional section).
pub fn encode_timings(t: &PhaseTimings, w: &mut ByteWriter) {
    for d in [t.sequencing, t.training, t.dc_weights, t.sampling] {
        w.put_u64(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }
}

/// Decodes timings written by [`encode_timings`]; the sample-side
/// breakdown stays zero unless [`decode_sample_timings`] fills it in.
pub fn decode_timings(r: &mut ByteReader<'_>) -> Result<PhaseTimings, WireError> {
    Ok(PhaseTimings {
        sequencing: Duration::from_nanos(r.u64()?),
        training: Duration::from_nanos(r.u64()?),
        dc_weights: Duration::from_nanos(r.u64()?),
        sampling: Duration::from_nanos(r.u64()?),
        ..PhaseTimings::default()
    })
}

/// Encodes the sample-side phase breakdown (fill/MCMC) as nanosecond
/// counts — the payload of the container's optional sample-timings
/// section. The middle slot belonged to the retired repair pass and is
/// written as zero.
pub fn encode_sample_timings(t: &PhaseTimings, w: &mut ByteWriter) {
    for d in [t.sample_fill, Duration::ZERO, t.sample_mcmc] {
        w.put_u64(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }
}

/// Decodes a breakdown written by [`encode_sample_timings`] into an
/// already-decoded [`PhaseTimings`].
pub fn decode_sample_timings(
    r: &mut ByteReader<'_>,
    t: &mut PhaseTimings,
) -> Result<(), WireError> {
    t.sample_fill = Duration::from_nanos(r.u64()?);
    let _retired_repair = r.u64()?;
    t.sample_mcmc = Duration::from_nanos(r.u64()?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamino_dp::Budget;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn params_and_config_roundtrip() {
        let p = PrivacyParams {
            non_private: false,
            sigma_g: 1.5,
            sigma_d: 0.7,
            b: 32,
            t: 120,
            clip: 1.0,
            lr: 0.05,
            learn_weights: true,
            sigma_w: 2.0,
            l_w: 100,
            b_w: 1,
            t_w: 100,
            achieved_epsilon: 0.93,
        };
        let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
        cfg.seed = 99;
        cfg.output_n = Some(450);
        cfg.shards = 4;
        let mut w = ByteWriter::new();
        encode_params(&p, &mut w);
        encode_config(&cfg, &mut w);
        encode_timings(
            &PhaseTimings {
                sequencing: Duration::from_millis(2),
                training: Duration::from_millis(300),
                dc_weights: Duration::ZERO,
                sampling: Duration::ZERO,
                ..PhaseTimings::default()
            },
            &mut w,
        );
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let p2 = decode_params(&mut r).unwrap();
        assert_eq!(p2.achieved_epsilon, 0.93);
        assert_eq!((p2.b, p2.t, p2.l_w), (32, 120, 100));
        let cfg2 = decode_config(&mut r).unwrap();
        assert_eq!(cfg2.seed, 99);
        assert_eq!(cfg2.output_n, Some(450));
        let t2 = decode_timings(&mut r).unwrap();
        assert_eq!(t2.training, Duration::from_millis(300));
        assert!(r.is_exhausted());

        // the retired shard slot is a constant: 4 shards encode like 1
        let config_bytes = |c: &KaminoConfig| {
            let mut w = ByteWriter::new();
            encode_config(c, &mut w);
            w.into_bytes()
        };
        let mut one = cfg.clone();
        one.shards = 1;
        assert_eq!(config_bytes(&cfg), config_bytes(&one));
    }

    #[test]
    fn trained_model_roundtrip_predicts_identically() {
        // fit a tiny real model and require bit-identical predictions
        let d = kamino_datasets::adult_like(120, 5);
        let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
        cfg.train_scale = 0.02;
        cfg.embed_dim = 8;
        cfg.seed = 3;
        let fitted = crate::pipeline::fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        let model = fitted.model();
        let mut w = ByteWriter::new();
        encode_model(model, &mut w);
        let bytes = w.into_bytes();
        let got = decode_model(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(got.sequence, model.sequence);
        assert_eq!(got.first_dist, model.first_dist);
        assert_eq!(got.submodels.len(), model.submodels.len());
        // spot-check a prediction through each sub-model kind
        let mut rng = StdRng::seed_from_u64(0);
        use rand::Rng;
        for (a, b) in model.submodels.iter().zip(&got.submodels) {
            assert_eq!(a.target, b.target);
            assert_eq!(a.context, b.context);
            let ctx: Vec<kamino_data::Value> = a
                .context
                .iter()
                .map(|&j| match &d.schema.attr(j).kind {
                    kamino_data::AttrKind::Categorical { labels } => {
                        kamino_data::Value::Cat(rng.gen_range(0..labels.len()) as u32)
                    }
                    kamino_data::AttrKind::Numeric { min, max, .. } => {
                        kamino_data::Value::Num(rng.gen_range(*min..*max))
                    }
                })
                .collect();
            if d.schema.attr(a.target).is_categorical() {
                assert_eq!(
                    a.predict_cat(&model.store, &ctx),
                    b.predict_cat(&got.store, &ctx)
                );
            } else if matches!(a.kind, SubModelKind::Discriminative { .. }) {
                assert_eq!(
                    a.predict_num(&model.store, &ctx),
                    b.predict_num(&got.store, &ctx)
                );
            }
        }
    }

    #[test]
    fn submodel_count_mismatch_rejected() {
        let mut w = ByteWriter::new();
        w.put_usizes(&[0, 1, 2]); // 3-attribute sequence
        w.put_f64s(&[0.5, 0.5]);
        // empty store
        w.put_usize(4);
        w.put_u32(0);
        w.put_u32(5); // wrong: needs exactly 2 sub-models
        let bytes = w.into_bytes();
        assert!(decode_model(&mut ByteReader::new(&bytes)).is_err());
    }
}
