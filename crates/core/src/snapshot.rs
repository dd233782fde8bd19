//! Snapshot codec for the pipeline layer: the trained [`DataModel`]
//! (embedding stores, attention, heads, noisy marginals), the selected
//! [`PrivacyParams`], the [`KaminoConfig`] and the phase timings all
//! round-trip through the shared wire rules. `kamino-serve` assembles
//! these encodings (plus the schema/DC/RNG sections) into the versioned
//! snapshot file; this module turns each piece into bytes and back, and
//! decides whether a decoded model fits the schema it travels with.

use std::time::Duration;

use kamino_constraints::{DenialConstraint, Hardness};
use kamino_data::snapshot::{decode_standardizer, encode_standardizer};
use kamino_data::wire::{ByteReader, ByteWriter, WireError};
use kamino_data::Schema;
use kamino_dp::snapshot::{decode_budget, encode_budget};
use kamino_dp::Budget;
use kamino_nn::snapshot::{
    decode_attention, decode_cat_head, decode_embedding, decode_encoder, decode_gauss_head,
    encode_attention, encode_cat_head, encode_embedding, encode_encoder, encode_gauss_head,
};

use crate::model::{AttrEmbedder, DataModel, EmbeddingStore, Head, SubModel, SubModelKind};
use crate::params::PrivacyParams;
use crate::pipeline::{KaminoConfig, PhaseTimings, MAX_MCMC_RATIO};
use crate::sampler::SamplingRule;
use crate::weights::HARD_WEIGHT;

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
        encode_embedder(e, w);
    }
}

fn decode_store(r: &mut ByteReader<'_>) -> Result<EmbeddingStore, WireError> {
    let dim = r.usize()?;
    let n = r.len_prefix()?;
    let mut embedders = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        embedders.push(decode_embedder(r)?);
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

/// Decodes a model written by [`encode_model`] and checks it against
/// `schema`, the schema it was fitted on.
pub fn decode_model(r: &mut ByteReader<'_>, schema: &Schema) -> Result<DataModel, WireError> {
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
    for j in 1..=n {
        let sm = decode_submodel(r)?;
        // the sampler fills sequence position j from exactly the values of
        // sequence[..j]; any other pairing panics or mixes up domains
        if sm.target != sequence[j] || sm.context != sequence[..j] {
            return Err(WireError::Malformed(format!(
                "sub-model {j} does not predict sequence position {j} from its prefix"
            )));
        }
        submodels.push(sm);
    }
    let model = DataModel {
        sequence,
        first_dist,
        store,
        submodels,
    };
    validate_model(&model, schema)?;
    Ok(model)
}

/// Range-checks every attribute index the model carries against its
/// schema, so a divergent snapshot fails at decode instead of panicking
/// inside `sample()` (which would poison a served model's mutex), and
/// refuses non-finite parameters and released distributions with a
/// non-finite or negative entry, which would draw cells outside their
/// domains. The DC section gets the same treatment inside
/// `kamino_constraints::snapshot::decode_dcs`.
fn validate_model(model: &DataModel, schema: &Schema) -> Result<(), WireError> {
    let k = schema.len();
    if model.sequence.len() != k {
        return Err(WireError::Malformed(format!(
            "model sequence covers {} attributes, schema has {k}",
            model.sequence.len()
        )));
    }
    let mut seen = vec![false; k];
    for &a in &model.sequence {
        if a >= k || std::mem::replace(&mut seen[a], true) {
            return Err(WireError::Malformed(format!(
                "model sequence is not a permutation of 0..{k}"
            )));
        }
    }
    if model.first_dist.len() != schema.attr(model.sequence[0]).domain_size() {
        return Err(WireError::Malformed(format!(
            "first-attribute distribution has {} entries for a domain of {}",
            model.first_dist.len(),
            schema.attr(model.sequence[0]).domain_size()
        )));
    }
    check_distribution("first-attribute distribution", &model.first_dist)?;
    validate_store(&model.store, schema)?;
    for sm in &model.submodels {
        if sm.target >= k {
            return Err(WireError::Malformed(format!(
                "sub-model target {} out of range",
                sm.target
            )));
        }
        if let Some(&bad) = sm.context.iter().find(|&&c| c >= k) {
            return Err(WireError::Malformed(format!(
                "sub-model context attribute {bad} out of range"
            )));
        }
        if let Some(store) = &sm.own_store {
            validate_store(store, schema)?;
        }
        let store = sm.own_store.as_ref().unwrap_or(&model.store);
        let target_attr = schema.attr(sm.target);
        // the sampler combines context embeddings at the store's width,
        // so attention of any other width is as malformed as a head's
        if let SubModelKind::Discriminative { attention, head } = &sm.kind {
            if attention.dim() != store.dim() {
                return Err(WireError::Malformed(
                    "attention width disagrees with embedding dim".into(),
                ));
            }
            let linear = head.linear();
            check_finite("attention score", &attention.scores.values)?;
            check_finite("head weight", &linear.w.values)?;
            check_finite("head bias", &linear.b.values)?;
        }
        match &sm.kind {
            SubModelKind::NoisyMarginal { dist } => {
                check_distribution("noisy marginal", dist)?;
                if dist.len() != target_attr.domain_size() {
                    return Err(WireError::Malformed(format!(
                        "noisy marginal for `{}` has {} entries for a domain of {}",
                        target_attr.name,
                        dist.len(),
                        target_attr.domain_size()
                    )));
                }
            }
            SubModelKind::Discriminative { head, .. } => match head {
                Head::Cat(h) => {
                    if !target_attr.is_categorical() || h.card() != target_attr.domain_size() {
                        return Err(WireError::Malformed(format!(
                            "categorical head for `{}` predicts {} classes over a domain of {}",
                            target_attr.name,
                            h.card(),
                            target_attr.domain_size()
                        )));
                    }
                    if h.linear().n_in() != store.dim() {
                        return Err(WireError::Malformed(
                            "head width disagrees with embedding dim".into(),
                        ));
                    }
                }
                Head::Num(h) => {
                    if target_attr.is_categorical() {
                        return Err(WireError::Malformed(format!(
                            "Gaussian head for categorical attribute `{}`",
                            target_attr.name
                        )));
                    }
                    if h.linear().n_in() != store.dim() {
                        return Err(WireError::Malformed(
                            "head width disagrees with embedding dim".into(),
                        ));
                    }
                }
            },
        }
    }
    Ok(())
}

/// Refuses a non-finite model parameter: a NaN or infinite weight decodes
/// as bytes, but the predictions it feeds are NaN, so a draw would emit
/// cells outside their domains.
fn check_finite(what: &str, values: &[f64]) -> Result<(), WireError> {
    match values.iter().find(|v| !v.is_finite()) {
        Some(v) => Err(WireError::Malformed(format!("{what} {v} is not finite"))),
        None => Ok(()),
    }
}

/// Refuses a released distribution with a non-finite or negative entry,
/// which `normalize` never produces.
fn check_distribution(what: &str, dist: &[f64]) -> Result<(), WireError> {
    match dist.iter().find(|p| !(p.is_finite() && **p >= 0.0)) {
        Some(p) => Err(WireError::Malformed(format!("{what} has entry {p}"))),
        None => Ok(()),
    }
}

/// Checks a store's embedders against the schema: attribute coverage,
/// kind (categorical vs numeric), domain cardinality, embedding width and
/// finite parameters — each mismatch would otherwise panic inside
/// `sample()` or draw cells outside their domains.
fn validate_store(store: &EmbeddingStore, schema: &Schema) -> Result<(), WireError> {
    if store.embedders().len() != schema.len() {
        return Err(WireError::Malformed(format!(
            "embedding store covers {} attributes, schema has {}",
            store.embedders().len(),
            schema.len()
        )));
    }
    for (attr, embedder) in schema.attrs().iter().zip(store.embedders()) {
        match embedder {
            AttrEmbedder::Cat(e) => {
                if !attr.is_categorical() || e.card() != attr.domain_size() {
                    return Err(WireError::Malformed(format!(
                        "embedder for `{}` covers {} codes over a domain of {}",
                        attr.name,
                        e.card(),
                        attr.domain_size()
                    )));
                }
                if e.dim() != store.dim() {
                    return Err(WireError::Malformed(format!(
                        "embedder for `{}` has width {} in a dim-{} store",
                        attr.name,
                        e.dim(),
                        store.dim()
                    )));
                }
                check_finite("embedding", &e.table.values)?;
            }
            AttrEmbedder::Num { enc, .. } => {
                if attr.is_categorical() {
                    return Err(WireError::Malformed(format!(
                        "numeric encoder for categorical attribute `{}`",
                        attr.name
                    )));
                }
                if enc.dim() != store.dim() {
                    return Err(WireError::Malformed(format!(
                        "encoder for `{}` has width {} in a dim-{} store",
                        attr.name,
                        enc.dim(),
                        store.dim()
                    )));
                }
                for block in [&enc.a, &enc.c, &enc.b, &enc.d] {
                    check_finite("encoder parameter", &block.values)?;
                }
            }
        }
    }
    Ok(())
}

/// Checks a session's DC weights against its DCs: one weight per DC,
/// [`HARD_WEIGHT`] for a hard DC and a finite weight ≥ 0 for a soft one
/// (what Algorithm 5 releases). Anything else would change what a draw
/// enforces: scoring skips a zero-weight DC and only an infinite weight
/// triggers the forced-value probe, so a hard DC at `0.0` would be off.
pub fn validate_weights(weights: &[f64], dcs: &[DenialConstraint]) -> Result<(), WireError> {
    if weights.len() != dcs.len() {
        return Err(WireError::Malformed(format!(
            "{} weights for {} DCs",
            weights.len(),
            dcs.len()
        )));
    }
    for (dc, &w) in dcs.iter().zip(weights) {
        let valid = match dc.hardness {
            Hardness::Hard => w == HARD_WEIGHT,
            Hardness::Soft => w.is_finite() && w >= 0.0,
        };
        if !valid {
            return Err(WireError::Malformed(format!(
                "{:?} DC `{}` has weight {w}",
                dc.hardness, dc.name
            )));
        }
    }
    Ok(())
}

/// Encodes the selected privacy parameters Ψ.
pub fn encode_params(p: &PrivacyParams, w: &mut ByteWriter) {
    w.put_bool(p.non_private);
    w.put_f64(p.sigma_g);
    w.put_f64(p.sigma_d);
    w.put_usize(p.b);
    w.put_usize(p.t);
    w.put_f64(p.clip);
    w.put_bool(p.learn_weights);
    w.put_f64(p.sigma_w);
    w.put_usize(p.l_w);
    w.put_usize(p.b_w);
    w.put_usize(p.t_w);
    w.put_f64(p.achieved_epsilon);
}

/// Decodes parameters written by [`encode_params`] and checks them
/// against `budget`, the budget they were planned for: a restored session
/// reports the decoded ε, so it must be one the fit could have spent.
pub fn decode_params(r: &mut ByteReader<'_>, budget: &Budget) -> Result<PrivacyParams, WireError> {
    let p = PrivacyParams {
        non_private: r.bool()?,
        sigma_g: r.f64()?,
        sigma_d: r.f64()?,
        b: r.usize()?,
        t: r.usize()?,
        clip: r.f64()?,
        learn_weights: r.bool()?,
        sigma_w: r.f64()?,
        l_w: r.usize()?,
        b_w: r.usize()?,
        t_w: r.usize()?,
        achieved_epsilon: r.f64()?,
    };
    if p.non_private != budget.is_non_private() {
        return Err(WireError::Malformed(format!(
            "non-private flag {} under a budget of ε = {}",
            p.non_private, budget.epsilon
        )));
    }
    // ε = ∞ passes only here: the budget is then non-private too
    if !(p.achieved_epsilon > 0.0 && p.achieved_epsilon <= budget.epsilon) {
        return Err(WireError::Malformed(format!(
            "achieved ε {} is not in (0, {}]",
            p.achieved_epsilon, budget.epsilon
        )));
    }
    if let Some(s) = [p.sigma_g, p.sigma_d, p.sigma_w]
        .into_iter()
        .find(|s| !(*s >= 0.0 && s.is_finite()))
    {
        return Err(WireError::Malformed(format!(
            "noise multiplier {s} is not a nonnegative finite number"
        )));
    }
    if !p.non_private && (p.b == 0 || p.t == 0) {
        return Err(WireError::Malformed(format!(
            "a private fit with batch {} and {} steps",
            p.b, p.t
        )));
    }
    Ok(p)
}

/// Encodes the pipeline configuration (budget included). The sampling
/// rule is one tag: 0 and 1 are Algorithm 3 without and with the hard-FD
/// lookup, 2 is RandSampling, 3 accept–reject.
pub fn encode_config(c: &KaminoConfig, w: &mut ByteWriter) {
    encode_budget(&c.budget, w);
    w.put_u64(c.seed);
    w.put_usize(c.embed_dim);
    w.put_f64(c.lr);
    w.put_f64(c.mcmc_ratio);
    w.put_bool(c.parallel_training);
    w.put_u8(match c.sampling {
        SamplingRule::Algorithm3 { hard_fd_lookup } => u8::from(hard_fd_lookup),
        SamplingRule::RandSampling => 2,
        SamplingRule::AcceptReject => 3,
    });
    w.put_bool(c.constraint_aware_sequencing);
    w.put_f64(c.train_scale);
    w.put_usize(c.large_domain_threshold);
}

/// Decodes a configuration written by [`encode_config`].
pub fn decode_config(r: &mut ByteReader<'_>) -> Result<KaminoConfig, WireError> {
    let mut cfg = KaminoConfig::new(decode_budget(r)?);
    cfg.seed = r.u64()?;
    cfg.embed_dim = r.usize()?;
    cfg.lr = r.f64()?;
    cfg.mcmc_ratio = r.f64()?;
    if !(0.0..=MAX_MCMC_RATIO).contains(&cfg.mcmc_ratio) {
        return Err(WireError::Malformed(format!(
            "mcmc ratio {} is not in [0, {MAX_MCMC_RATIO}]",
            cfg.mcmc_ratio
        )));
    }
    cfg.parallel_training = r.bool()?;
    cfg.sampling = match r.u8()? {
        tag @ (0 | 1) => SamplingRule::Algorithm3 {
            hard_fd_lookup: tag == 1,
        },
        2 => SamplingRule::RandSampling,
        3 => SamplingRule::AcceptReject,
        tag => {
            return Err(WireError::Malformed(format!(
                "unknown sampling rule tag {tag}"
            )))
        }
    };
    cfg.constraint_aware_sequencing = r.bool()?;
    cfg.train_scale = r.f64()?;
    cfg.large_domain_threshold = r.usize()?;
    Ok(cfg)
}

/// Encodes the phase timings as nanosecond counts.
pub fn encode_timings(t: &PhaseTimings, w: &mut ByteWriter) {
    for d in [
        t.sequencing,
        t.training,
        t.dc_weights,
        t.sampling,
        t.sample_fill,
        t.sample_mcmc,
    ] {
        w.put_u64(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }
}

/// Decodes timings written by [`encode_timings`].
pub fn decode_timings(r: &mut ByteReader<'_>) -> Result<PhaseTimings, WireError> {
    Ok(PhaseTimings {
        sequencing: Duration::from_nanos(r.u64()?),
        training: Duration::from_nanos(r.u64()?),
        dc_weights: Duration::from_nanos(r.u64()?),
        sampling: Duration::from_nanos(r.u64()?),
        sample_fill: Duration::from_nanos(r.u64()?),
        sample_mcmc: Duration::from_nanos(r.u64()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
            learn_weights: true,
            sigma_w: 2.0,
            l_w: 100,
            b_w: 1,
            t_w: 100,
            achieved_epsilon: 0.93,
        };
        let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
        cfg.seed = 99;
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
        let p2 = decode_params(&mut r, &cfg.budget).unwrap();
        assert_eq!(p2.achieved_epsilon, 0.93);
        assert_eq!((p2.b, p2.t, p2.l_w), (32, 120, 100));
        let cfg2 = decode_config(&mut r).unwrap();
        assert_eq!(cfg2.seed, 99);
        let t2 = decode_timings(&mut r).unwrap();
        assert_eq!(t2.training, Duration::from_millis(300));
        assert!(r.is_exhausted());
    }

    /// Tags 0..=3 are the four sampling rules; every other tag is refused.
    #[test]
    fn unknown_sampling_rule_tags_are_malformed() {
        let mut w = ByteWriter::new();
        encode_config(&KaminoConfig::new(Budget::new(1.0, 1e-6)), &mut w);
        let mut bytes = w.into_bytes();
        // the tag precedes a bool, `train_scale` and the threshold
        let at = bytes.len() - 18;
        assert_eq!(bytes[at], 0);
        for tag in 4..=u8::MAX {
            bytes[at] = tag;
            assert!(
                matches!(
                    decode_config(&mut ByteReader::new(&bytes)),
                    Err(WireError::Malformed(msg)) if msg.contains("sampling rule tag")
                ),
                "rule tag {tag} was accepted"
            );
        }
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
        let got = decode_model(&mut ByteReader::new(&bytes), &d.schema).unwrap();
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
    fn non_finite_parameters_and_bad_distributions_are_refused() {
        let d = kamino_datasets::adult_like(120, 5);
        let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
        cfg.train_scale = 0.02;
        cfg.embed_dim = 8;
        cfg.seed = 3;
        let fitted = crate::pipeline::fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        let decode = |model: &DataModel| {
            let mut w = ByteWriter::new();
            encode_model(model, &mut w);
            decode_model(&mut ByteReader::new(&w.into_bytes()), &d.schema)
        };
        let model = fitted.model();
        assert!(decode(model).is_ok());
        // a noisy marginal in place of a categorical sub-model
        let j = model
            .submodels
            .iter()
            .position(|sm| d.schema.attr(sm.target).is_categorical())
            .unwrap();
        let card = d.schema.attr(model.submodels[j].target).domain_size();
        let with_marginal = |p: f64| {
            let mut m = clone_model(model);
            let mut dist = vec![1.0 / card as f64; card];
            dist[0] = p;
            m.submodels[j].kind = SubModelKind::NoisyMarginal { dist };
            m
        };
        assert!(decode(&with_marginal(0.0)).is_ok());
        for bad in [f64::NAN, f64::INFINITY, -1.0, -1e-300] {
            assert!(decode(&with_marginal(bad)).is_err(), "noisy marginal {bad}");
            let mut m = clone_model(model);
            m.first_dist[0] = bad;
            assert!(decode(&m).is_err(), "first distribution {bad}");
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut m = clone_model(model);
            let SubModelKind::Discriminative { attention, .. } = &mut m.submodels[j].kind else {
                unreachable!("fitted sub-models are discriminative")
            };
            attention.scores.values[0] = bad;
            assert!(decode(&m).is_err(), "attention score {bad}");
        }
    }

    /// A copy of `m` (a `DataModel` is not `Clone`).
    fn clone_model(m: &DataModel) -> DataModel {
        DataModel {
            sequence: m.sequence.clone(),
            first_dist: m.first_dist.clone(),
            store: m.store.clone(),
            submodels: m.submodels.clone(),
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
        let schema = kamino_datasets::adult_like(10, 1).schema;
        assert!(decode_model(&mut ByteReader::new(&bytes), &schema).is_err());
    }
}
