//! The probabilistic data model `M` (§2.3 / Algorithm 2 output).
//!
//! `M` consists of a (noisy) distribution for the first sequence attribute
//! and one discriminative sub-model `M_{S_:j, S[j]}` per remaining
//! attribute: context-attribute embeddings (shared and reused across
//! sub-models in sequential training, per Algorithm 2 lines 7/19),
//! a learned attention combiner, and a categorical or Gaussian output head.
//!
//! For attributes with extremely large domains, §4.3 prescribes falling
//! back to an independent Gaussian-mechanism histogram instead of a
//! discriminative model ("apply Gaussian mechanism to its true
//! distribution, and sample independently without relying on the context
//! attributes") — [`SubModelKind::NoisyMarginal`] implements that fallback,
//! and the privacy accounting in [`crate::params`] charges it as an extra
//! full-rate Gaussian release.

use kamino_data::stats::Standardizer;
use kamino_data::{AttrKind, Schema, Value};
use kamino_nn::layers::EncoderCache;
use kamino_nn::linalg::axpy;
use kamino_nn::{
    Attention, CategoricalHead, ContinuousEncoder, Embedding, GaussianHead, ParamBlock,
    PerExampleModel, Scratch,
};
use rand::Rng;

/// A [`SubModelTrainer`]'s buffer pool for forward/backward. Buffers are
/// re-zeroed or fully overwritten before every use, so pooling changes no
/// numeric result — it only removes the per-example allocations. Each
/// trainer owns its pool, so the Exp. 10 sub-model trainer threads never
/// share one.
#[derive(Default)]
struct TrainScratch {
    nn: Scratch,
    embs: Vec<Vec<f64>>,
    ctxs: Vec<EmbedCtx>,
    d_embs: Vec<Vec<f64>>,
    v: Vec<f64>,
    dv: Vec<f64>,
}

/// Embeds one attribute's values into `R^dim`.
#[derive(Clone)]
pub enum AttrEmbedder {
    /// Lookup table for categorical codes.
    Cat(Embedding),
    /// Standardize-then-encode for numeric values (`z = Bω(Ax+c)+d`).
    Num {
        /// The nonlinear scalar encoder.
        enc: ContinuousEncoder,
        /// Domain-derived standardizer (data-independent, so it leaks
        /// nothing).
        std: Standardizer,
    },
}

/// Backward context produced by [`EmbeddingStore::embed`].
pub enum EmbedCtx {
    /// The embedded categorical code.
    Cat(u32),
    /// The encoder cache for a numeric value.
    Num(EncoderCache),
}

/// One embedder per schema attribute, all with a common dimension `d`
/// (§2.3: "a unified representation with a fixed dimensionality for each
/// attribute").
#[derive(Clone)]
pub struct EmbeddingStore {
    embedders: Vec<AttrEmbedder>,
    dim: usize,
}

impl EmbeddingStore {
    /// Fresh embedders for every attribute of `schema`.
    pub fn new<R: Rng + ?Sized>(schema: &Schema, dim: usize, rng: &mut R) -> EmbeddingStore {
        let embedders = schema
            .attrs()
            .iter()
            .map(|attr| match &attr.kind {
                AttrKind::Categorical { labels } => {
                    AttrEmbedder::Cat(Embedding::new(labels.len(), dim, rng))
                }
                AttrKind::Numeric { min, max, .. } => AttrEmbedder::Num {
                    enc: ContinuousEncoder::new(dim, rng),
                    std: Standardizer::from_range(*min, *max),
                },
            })
            .collect();
        EmbeddingStore { embedders, dim }
    }

    /// Embedding dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The per-attribute embedders (snapshot support).
    pub fn embedders(&self) -> &[AttrEmbedder] {
        &self.embedders
    }

    /// Rebuilds a store from persisted embedders (snapshot support).
    pub fn from_parts(embedders: Vec<AttrEmbedder>, dim: usize) -> EmbeddingStore {
        EmbeddingStore { embedders, dim }
    }

    /// Embeds `v` (a value of attribute `attr`) into `out`. A numeric
    /// encoder's hidden buffer is drawn from `scratch`; retire the returned
    /// `EmbedCtx::Num` cache via [`EncoderCache::recycle`] once backward is
    /// done with it.
    pub fn embed(&self, attr: usize, v: Value, out: &mut [f64], scratch: &mut Scratch) -> EmbedCtx {
        match (&self.embedders[attr], v) {
            (AttrEmbedder::Cat(e), Value::Cat(code)) => {
                out.copy_from_slice(e.forward(code));
                EmbedCtx::Cat(code)
            }
            (AttrEmbedder::Num { enc, std }, Value::Num(x)) => {
                EmbedCtx::Num(enc.forward(std.forward(x), out, scratch))
            }
            _ => panic!("value kind does not match attribute {attr}'s embedder"),
        }
    }

    /// Backpropagates `dz` through the embedder used in [`Self::embed`],
    /// with intermediates pooled in `scratch`.
    pub fn backward(&mut self, attr: usize, ctx: &EmbedCtx, dz: &[f64], scratch: &mut Scratch) {
        match (&mut self.embedders[attr], ctx) {
            (AttrEmbedder::Cat(e), EmbedCtx::Cat(code)) => e.backward(*code, dz),
            (AttrEmbedder::Num { enc, .. }, EmbedCtx::Num(cache)) => {
                enc.backward(cache, dz, scratch)
            }
            _ => panic!("embed context does not match attribute {attr}'s embedder"),
        }
    }

    /// The standardizer of a numeric attribute (panics for categorical).
    pub fn standardizer(&self, attr: usize) -> Standardizer {
        match &self.embedders[attr] {
            AttrEmbedder::Num { std, .. } => *std,
            AttrEmbedder::Cat(_) => panic!("attribute {attr} is categorical"),
        }
    }

    /// Calls `f(table, row)` for the embedding-table row that embedding
    /// `v` (a value of attribute `attr`) reads. A numeric attribute's
    /// encoder is dense and reads no such row.
    pub fn visit_read_row(
        &mut self,
        attr: usize,
        v: Value,
        f: &mut dyn FnMut(&mut ParamBlock, usize),
    ) {
        if let (AttrEmbedder::Cat(e), Value::Cat(code)) = (&mut self.embedders[attr], v) {
            e.visit_row(code, f);
        }
    }

    /// Visits the parameter blocks of one attribute's embedder.
    pub fn visit_attr_blocks(&mut self, attr: usize, f: &mut dyn FnMut(&mut ParamBlock)) {
        match &mut self.embedders[attr] {
            AttrEmbedder::Cat(e) => e.visit_blocks(f),
            AttrEmbedder::Num { enc, .. } => enc.visit_blocks(f),
        }
    }
}

/// The output head of a discriminative sub-model.
#[derive(Clone)]
pub enum Head {
    /// Softmax over the categorical target domain.
    Cat(CategoricalHead),
    /// Gaussian (μ, σ) regression for numeric targets (standardized units).
    Num(GaussianHead),
}

/// How a sub-model predicts its target.
#[derive(Clone)]
pub enum SubModelKind {
    /// AimNet-style discriminative model: attention over context
    /// embeddings feeding a head.
    Discriminative {
        /// Attention over the context attributes.
        attention: Attention,
        /// Output head.
        head: Head,
    },
    /// §4.3 extreme-domain fallback: a noisy independent distribution over
    /// the target's (quantized) domain.
    NoisyMarginal {
        /// Post-processed probability distribution.
        dist: Vec<f64>,
    },
}

/// One conditional `Pr(t[A_j] | t[S_:j])`.
#[derive(Clone)]
pub struct SubModel {
    /// Target attribute (schema index).
    pub target: usize,
    /// Context attributes `S_:j` (schema indices, in sequence order).
    pub context: Vec<usize>,
    /// Predictor.
    pub kind: SubModelKind,
    /// A private embedding store when trained in parallel mode (Exp. 10);
    /// `None` means the model uses the shared store.
    pub own_store: Option<EmbeddingStore>,
}

impl SubModel {
    /// Class probabilities for a categorical target given context values
    /// (aligned with `self.context`). A one-shot [`ColumnPredictor`];
    /// the sampler keeps one per column instead.
    pub fn predict_cat(&self, store: &EmbeddingStore, ctx_values: &[Value]) -> Vec<f64> {
        ColumnPredictor::new(self, store)
            .predict_cat(ctx_values)
            .to_vec()
    }

    /// (μ, σ) in *data units* for a numeric target given context values.
    /// A one-shot [`ColumnPredictor`], like [`SubModel::predict_cat`].
    pub fn predict_num(&self, store: &EmbeddingStore, ctx_values: &[Value]) -> (f64, f64) {
        ColumnPredictor::new(self, store).predict_num(ctx_values)
    }

    /// The learned attention weights over context attributes (uniform at
    /// init; `None` for noisy-marginal sub-models).
    pub fn attention_weights(&self) -> Option<Vec<f64>> {
        match &self.kind {
            SubModelKind::Discriminative { attention, .. } => Some(attention.weights()),
            SubModelKind::NoisyMarginal { .. } => None,
        }
    }
}

/// Sub-model `j`'s predictor for every cell of one column (Algorithm 3
/// asks it for `Pr(t[S[j]] | t[S_:j])` once per cell).
///
/// What does not depend on the cell is resolved once, at construction:
/// the store the sub-model reads (its own, else the shared one) and the
/// attention weights `α = softmax(scores)`, which are constant for a
/// fitted model. Each prediction then builds the context vector in a
/// reused buffer — `v` zeroed, then `axpy(α_i, e_i, v)` in context order,
/// with a categorical `e_i` read in place from its embedding row and a
/// numeric one encoded into a reused buffer — and the head writes into a
/// reused buffer too. That is the arithmetic, in the order, of
/// `Attention::forward` followed by the head's `predict`, so predictions
/// are bit-identical to that composition; prediction draws no RNG, so
/// the sampler's stream does not depend on how often it predicts.
pub struct ColumnPredictor<'a> {
    sm: &'a SubModel,
    store: &'a EmbeddingStore,
    /// `softmax(attention.scores)` (empty for a noisy marginal).
    alpha: Vec<f64>,
    /// The context vector.
    v: Vec<f64>,
    /// One numeric context attribute's embedding.
    emb: Vec<f64>,
    /// A categorical head's class probabilities.
    probs: Vec<f64>,
    /// The numeric encoders' hidden buffers.
    nn: Scratch,
    /// Discriminative predictions made (the sampler's work counter).
    predicts: u64,
}

impl<'a> ColumnPredictor<'a> {
    /// The predictor for `sm`, reading `sm`'s own store if it has one and
    /// `shared` otherwise.
    pub fn new(sm: &'a SubModel, shared: &'a EmbeddingStore) -> ColumnPredictor<'a> {
        let store = sm.own_store.as_ref().unwrap_or(shared);
        let (alpha, card) = match &sm.kind {
            SubModelKind::Discriminative { attention, head } => {
                assert_eq!(
                    attention.n_context(),
                    sm.context.len(),
                    "context arity mismatch"
                );
                assert_eq!(
                    attention.dim(),
                    store.dim(),
                    "attention width disagrees with embedding dim"
                );
                let card = match head {
                    Head::Cat(h) => h.card(),
                    Head::Num(_) => 0,
                };
                (attention.weights(), card)
            }
            SubModelKind::NoisyMarginal { .. } => (Vec::new(), 0),
        };
        ColumnPredictor {
            sm,
            store,
            alpha,
            v: vec![0.0; store.dim()],
            emb: vec![0.0; store.dim()],
            probs: vec![0.0; card],
            nn: Scratch::new(),
            predicts: 0,
        }
    }

    /// Discriminative predictions made so far.
    pub fn predicts(&self) -> u64 {
        self.predicts
    }

    /// Class probabilities for a categorical target given context values
    /// (aligned with the sub-model's context); a noisy marginal returns
    /// its distribution.
    pub fn predict_cat(&mut self, ctx_values: &[Value]) -> &[f64] {
        let sm = self.sm;
        match &sm.kind {
            SubModelKind::NoisyMarginal { dist } => dist,
            SubModelKind::Discriminative { head, .. } => {
                let Head::Cat(h) = head else {
                    panic!("target is not categorical")
                };
                self.context_vector(ctx_values);
                h.predict(&self.v, &mut self.probs);
                &self.probs
            }
        }
    }

    /// (μ, σ) in *data units* for a numeric target given context values.
    pub fn predict_num(&mut self, ctx_values: &[Value]) -> (f64, f64) {
        let sm = self.sm;
        let SubModelKind::Discriminative { head, .. } = &sm.kind else {
            panic!("predict_num on a noisy-marginal sub-model")
        };
        let Head::Num(h) = head else {
            panic!("target is not numeric")
        };
        self.context_vector(ctx_values);
        let (mu_s, sigma_s) = h.predict(&self.v);
        let std = self.store.standardizer(sm.target);
        (std.inverse(mu_s), sigma_s * std.std)
    }

    /// Writes `v = Σ α_i e_i` for `ctx_values` into `self.v`.
    fn context_vector(&mut self, ctx_values: &[Value]) {
        let (context, store) = (&self.sm.context, self.store);
        assert_eq!(ctx_values.len(), context.len(), "context arity mismatch");
        self.v.iter_mut().for_each(|x| *x = 0.0);
        for ((&attr, &val), &a) in context.iter().zip(ctx_values).zip(&self.alpha) {
            match (&store.embedders[attr], val) {
                (AttrEmbedder::Cat(e), Value::Cat(code)) => axpy(a, e.forward(code), &mut self.v),
                (AttrEmbedder::Num { enc, std }, Value::Num(x)) => {
                    enc.forward(std.forward(x), &mut self.emb, &mut self.nn)
                        .recycle(&mut self.nn);
                    axpy(a, &self.emb, &mut self.v);
                }
                _ => panic!("value kind does not match attribute {attr}'s embedder"),
            }
        }
        self.predicts += 1;
    }
}

/// One training example for a sub-model: context values + target value.
pub struct TrainRow {
    /// Values of the context attributes, aligned with `SubModel::context`.
    pub context: Vec<Value>,
    /// The target attribute's value.
    pub target: Value,
}

/// Mutable view pairing a sub-model with the store it trains against;
/// implements [`PerExampleModel`] for DP-SGD.
pub struct SubModelTrainer<'a> {
    /// The embedding store being trained (shared or model-private).
    pub store: &'a mut EmbeddingStore,
    /// The discriminative sub-model being trained.
    pub sm: &'a mut SubModel,
    scratch: TrainScratch,
}

impl<'a> SubModelTrainer<'a> {
    /// A trainer for `sm` against `store`, with an empty buffer pool.
    pub fn new(store: &'a mut EmbeddingStore, sm: &'a mut SubModel) -> SubModelTrainer<'a> {
        SubModelTrainer {
            store,
            sm,
            scratch: TrainScratch::default(),
        }
    }
}

impl PerExampleModel<TrainRow> for SubModelTrainer<'_> {
    fn forward_backward(&mut self, row: &TrainRow) -> f64 {
        let SubModelKind::Discriminative { attention, head } = &mut self.sm.kind else {
            panic!("training a noisy-marginal sub-model")
        };
        let dim = self.store.dim();
        let m = self.sm.context.len();
        // All intermediates come from the trainer's pool; every buffer is
        // zeroed/overwritten before use, so the arithmetic is identical to
        // the allocating formulation — just without the ~4·|context| heap
        // allocations per example.
        let TrainScratch {
            nn,
            embs,
            ctxs,
            d_embs,
            v,
            dv,
        } = &mut self.scratch;
        // embed contexts (owned copies so the store can be mutated later)
        embs.resize_with(m, Vec::new);
        ctxs.clear();
        for ((&attr, &val), e) in self
            .sm
            .context
            .iter()
            .zip(&row.context)
            .zip(embs.iter_mut())
        {
            e.clear();
            e.resize(dim, 0.0);
            ctxs.push(self.store.embed(attr, val, e, nn));
        }
        let refs: Vec<&[f64]> = embs.iter().map(Vec::as_slice).collect();
        v.clear();
        v.resize(dim, 0.0);
        let att_cache = attention.forward(&refs, v, nn);
        // head loss + gradient at the context vector
        dv.clear();
        dv.resize(dim, 0.0);
        let loss = match head {
            Head::Cat(h) => h.loss_backward(v, row.target.cat(), dv, nn),
            Head::Num(h) => {
                let std = self.store.standardizer(self.sm.target);
                h.loss_backward(v, std.forward(row.target.num()), dv)
            }
        };
        // attention backward → per-context embedding grads
        d_embs.resize_with(m, Vec::new);
        for de in d_embs.iter_mut() {
            de.clear();
            de.resize(dim, 0.0);
        }
        attention.backward(&refs, &att_cache, dv, d_embs, nn);
        drop(refs);
        nn.put(att_cache.alpha);
        for ((&attr, ctx), de) in self.sm.context.iter().zip(ctxs.iter()).zip(d_embs.iter()) {
            self.store.backward(attr, ctx, de, nn);
        }
        // retire the numeric encoder caches back into the pool
        for ctx in ctxs.drain(..) {
            if let EmbedCtx::Num(cache) = ctx {
                cache.recycle(nn);
            }
        }
        loss
    }

    fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        let SubModelKind::Discriminative { attention, head } = &mut self.sm.kind else {
            panic!("training a noisy-marginal sub-model")
        };
        for &attr in &self.sm.context {
            self.store.visit_attr_blocks(attr, f);
        }
        attention.visit_blocks(f);
        match head {
            Head::Cat(h) => h.visit_blocks(f),
            Head::Num(h) => h.visit_blocks(f),
        }
    }

    fn visit_read_rows(&mut self, row: &TrainRow, f: &mut dyn FnMut(&mut ParamBlock, usize)) {
        for (&attr, &val) in self.sm.context.iter().zip(&row.context) {
            self.store.visit_read_row(attr, val, f);
        }
    }
}

/// The trained probabilistic data model `M`.
pub struct DataModel {
    /// The schema sequence `S` (attribute indices).
    pub sequence: Vec<usize>,
    /// Noisy distribution over the first attribute's (quantized) domain.
    pub first_dist: Vec<f64>,
    /// Shared embedding store (sequential training mode).
    pub store: EmbeddingStore,
    /// Sub-models for `sequence[1..]`, in order.
    pub submodels: Vec<SubModel>,
}

impl DataModel {
    /// The sub-model whose target is sequence position `j` (`j ≥ 1`).
    pub fn submodel_at(&self, j: usize) -> &SubModel {
        &self.submodels[j - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamino_data::Attribute;
    use kamino_nn::DpSgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::categorical_indexed("a", 3).unwrap(),
            Attribute::numeric("x", 0.0, 10.0, 5).unwrap(),
            Attribute::categorical_indexed("b", 2).unwrap(),
        ])
        .unwrap()
    }

    fn disc_submodel(
        store: &EmbeddingStore,
        target: usize,
        context: Vec<usize>,
        rng: &mut StdRng,
        schema: &Schema,
    ) -> SubModel {
        let head = match schema.attr(target).kind {
            AttrKind::Categorical { .. } => Head::Cat(CategoricalHead::new(
                store.dim(),
                schema.attr(target).domain_size(),
                rng,
            )),
            AttrKind::Numeric { .. } => Head::Num(GaussianHead::new(store.dim(), rng)),
        };
        SubModel {
            target,
            context: context.clone(),
            kind: SubModelKind::Discriminative {
                attention: Attention::new(context.len(), store.dim()),
                head,
            },
            own_store: None,
        }
    }

    #[test]
    fn embedding_store_embeds_both_kinds() {
        let s = schema();
        let mut rng = StdRng::seed_from_u64(0);
        let store = EmbeddingStore::new(&s, 8, &mut rng);
        let mut out = vec![0.0; 8];
        let mut scratch = Scratch::new();
        store.embed(0, Value::Cat(2), &mut out, &mut scratch);
        assert!(out.iter().any(|&x| x != 0.0));
        store.embed(1, Value::Num(5.0), &mut out, &mut scratch);
        assert!(out.iter().all(|x| x.is_finite()));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn embedding_kind_mismatch_panics() {
        let s = schema();
        let mut rng = StdRng::seed_from_u64(0);
        let store = EmbeddingStore::new(&s, 4, &mut rng);
        let mut out = vec![0.0; 4];
        store.embed(0, Value::Num(1.0), &mut out, &mut Scratch::new());
    }

    #[test]
    fn predict_cat_is_distribution() {
        let s = schema();
        let mut rng = StdRng::seed_from_u64(1);
        let store = EmbeddingStore::new(&s, 8, &mut rng);
        let sm = disc_submodel(&store, 2, vec![0, 1], &mut rng, &s);
        let p = sm.predict_cat(&store, &[Value::Cat(1), Value::Num(3.0)]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn predict_num_destandardizes() {
        let s = schema();
        let mut rng = StdRng::seed_from_u64(2);
        let store = EmbeddingStore::new(&s, 8, &mut rng);
        let sm = disc_submodel(&store, 1, vec![0], &mut rng, &s);
        let (mu, sigma) = sm.predict_num(&store, &[Value::Cat(0)]);
        assert!(mu.is_finite());
        assert!(sigma > 0.0);
        // destandardized σ reflects the domain scale (range 10 ⇒ std ≈ 2.9)
        assert!(sigma < 50.0);
    }

    #[test]
    fn noisy_marginal_submodel_predicts_dist() {
        let sm = SubModel {
            target: 0,
            context: vec![],
            kind: SubModelKind::NoisyMarginal {
                dist: vec![0.25, 0.5, 0.25],
            },
            own_store: None,
        };
        let s = schema();
        let mut rng = StdRng::seed_from_u64(3);
        let store = EmbeddingStore::new(&s, 4, &mut rng);
        assert_eq!(sm.predict_cat(&store, &[]), vec![0.25, 0.5, 0.25]);
        assert!(sm.attention_weights().is_none());
    }

    /// End-to-end sub-model learning: b depends deterministically on a;
    /// non-private SGD training must recover the mapping.
    #[test]
    fn submodel_learns_deterministic_mapping() {
        let s = schema();
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = EmbeddingStore::new(&s, 8, &mut rng);
        let mut sm = disc_submodel(&store, 2, vec![0, 1], &mut rng, &s);
        let rows: Vec<TrainRow> = (0..60)
            .map(|i| {
                let a = (i % 3) as u32;
                TrainRow {
                    context: vec![Value::Cat(a), Value::Num((i % 10) as f64)],
                    target: Value::Cat(u32::from(a == 1)),
                }
            })
            .collect();
        let cfg = DpSgd::non_private(0.3, rows.len() as f64);
        for _ in 0..150 {
            let mut trainer = SubModelTrainer::new(&mut store, &mut sm);
            cfg.step(&mut trainer, &rows, &mut rng);
        }
        let p_yes = sm.predict_cat(&store, &[Value::Cat(1), Value::Num(5.0)]);
        let p_no = sm.predict_cat(&store, &[Value::Cat(0), Value::Num(5.0)]);
        assert!(p_yes[1] > 0.85, "P(b=1 | a=1) = {} too low", p_yes[1]);
        assert!(p_no[0] > 0.85, "P(b=0 | a=0) = {} too low", p_no[0]);
    }

    /// Numeric-target sub-model: x depends linearly on a's code.
    #[test]
    fn submodel_learns_numeric_target() {
        let s = schema();
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = EmbeddingStore::new(&s, 8, &mut rng);
        let mut sm = disc_submodel(&store, 1, vec![0], &mut rng, &s);
        let rows: Vec<TrainRow> = (0..60)
            .map(|i| {
                let a = (i % 3) as u32;
                TrainRow {
                    context: vec![Value::Cat(a)],
                    target: Value::Num(2.0 + 3.0 * a as f64),
                }
            })
            .collect();
        // clip like the real pipeline: the Gaussian head's μ-gradient
        // scales like 1/σ², so unclipped SGD destabilizes as σ shrinks
        let cfg = DpSgd {
            clip: 1.0,
            noise_multiplier: 0.0,
            lr: 0.1,
            expected_batch: rows.len() as f64,
        };
        for _ in 0..600 {
            let mut trainer = SubModelTrainer::new(&mut store, &mut sm);
            cfg.step(&mut trainer, &rows, &mut rng);
        }
        for a in 0..3u32 {
            let (mu, _) = sm.predict_num(&store, &[Value::Cat(a)]);
            let want = 2.0 + 3.0 * a as f64;
            assert!((mu - want).abs() < 0.8, "mu(a={a}) = {mu}, want {want}");
        }
    }

    #[test]
    fn own_store_overrides_shared() {
        let s = schema();
        let mut rng = StdRng::seed_from_u64(6);
        let store = EmbeddingStore::new(&s, 8, &mut rng);
        let mut sm = disc_submodel(&store, 2, vec![0], &mut rng, &s);
        let private = EmbeddingStore::new(&s, 8, &mut rng);
        sm.own_store = Some(private);
        // prediction must not panic and must use the private store
        let p = sm.predict_cat(&store, &[Value::Cat(0)]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn gradcheck_full_submodel() {
        // finite-difference check through embedder → attention → head
        let s = schema();
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = EmbeddingStore::new(&s, 4, &mut rng);
        let mut sm = disc_submodel(&store, 2, vec![0, 1], &mut rng, &s);
        let row = TrainRow {
            context: vec![Value::Cat(1), Value::Num(7.0)],
            target: Value::Cat(1),
        };
        let mut trainer = SubModelTrainer::new(&mut store, &mut sm);
        kamino_nn::testutil::finite_diff_check(
            &mut |t: &mut SubModelTrainer<'_>| {
                // loss via a throwaway gradient pass (grads zeroed after)
                let sm_kind_loss = {
                    let SubModelKind::Discriminative { attention, head } = &t.sm.kind else {
                        unreachable!()
                    };
                    let dim = t.store.dim();
                    let mut scratch = Scratch::new();
                    let mut embs: Vec<Vec<f64>> = Vec::new();
                    for (&attr, &v) in t.sm.context.iter().zip(&row.context) {
                        let mut e = vec![0.0; dim];
                        t.store.embed(attr, v, &mut e, &mut scratch);
                        embs.push(e);
                    }
                    let refs: Vec<&[f64]> = embs.iter().map(Vec::as_slice).collect();
                    let mut v = vec![0.0; dim];
                    attention.forward(&refs, &mut v, &mut scratch);
                    let Head::Cat(h) = head else { unreachable!() };
                    let mut p = vec![0.0; h.card()];
                    h.predict(&v, &mut p);
                    -p[1].ln()
                };
                sm_kind_loss
            },
            &mut |t: &mut SubModelTrainer<'_>| {
                t.forward_backward(&row);
            },
            &mut |t, f| t.visit_blocks(f),
            &mut trainer,
        );
    }
}
