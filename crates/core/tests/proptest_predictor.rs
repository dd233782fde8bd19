//! Bit-for-bit parity of the sampler's column predictor against the
//! reference composition it replaces: every context value embedded into
//! its own buffer, `Attention::forward`, then the head's `predict` (and,
//! for a numeric target, de-standardisation into data units).
//!
//! The sampled rows are pinned by hash, so "close" is not enough: the
//! predictor must reproduce the reference's exact `f64` bits. The
//! properties sweep mixed categorical/numeric contexts, embedding widths,
//! domain sizes, numeric values at the domain bounds and `-0.0`, extreme
//! attention scores, shared and private stores, and many successive
//! contexts through one predictor, so reused buffers cannot carry state
//! from one cell to the next.

use kamino_core::model::{ColumnPredictor, EmbeddingStore, Head, SubModel, SubModelKind};
use kamino_data::{AttrKind, Attribute, Schema, Value};
use kamino_nn::{Attention, CategoricalHead, GaussianHead};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Attention scores that stress the softmax: huge, overflowing,
/// underflowing, signed zeros and infinities, mixed with ordinary ones.
const EXTREME_SCORES: [f64; 10] = [
    0.0,
    -0.0,
    1e300,
    -1e300,
    745.0,
    -745.0,
    40.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MAX,
];

/// `m` context attributes `a0..a{m-1}` and the target `a{m}`, each
/// categorical (1–200 codes) or numeric (a range around zero).
fn schema(m: usize, target_numeric: bool, rng: &mut StdRng) -> Schema {
    let attrs = (0..=m)
        .map(|i| {
            let numeric = if i == m {
                target_numeric
            } else {
                rng.gen_bool(0.5)
            };
            if numeric {
                let (lo, hi) = (rng.gen_range(0.5..100.0), rng.gen_range(0.5..100.0));
                Attribute::numeric(format!("a{i}"), -lo, hi, 8).unwrap()
            } else {
                Attribute::categorical_indexed(format!("a{i}"), rng.gen_range(1..=200usize))
                    .unwrap()
            }
        })
        .collect();
    Schema::new(attrs).unwrap()
}

/// A discriminative sub-model predicting `a{m}` from `a0..a{m-1}`, its
/// attention scores drawn from [`EXTREME_SCORES`] or a normal range.
fn submodel(schema: &Schema, dim: usize, rng: &mut StdRng) -> SubModel {
    let m = schema.len() - 1;
    let scores = (0..m)
        .map(|_| {
            if rng.gen_bool(0.5) {
                EXTREME_SCORES[rng.gen_range(0..EXTREME_SCORES.len())]
            } else {
                rng.gen_range(-5.0..5.0)
            }
        })
        .collect();
    let head = match schema.attr(m).kind {
        AttrKind::Categorical { .. } => {
            Head::Cat(CategoricalHead::new(dim, schema.attr(m).domain_size(), rng))
        }
        AttrKind::Numeric { .. } => Head::Num(GaussianHead::new(dim, rng)),
    };
    SubModel {
        target: m,
        context: (0..m).collect(),
        kind: SubModelKind::Discriminative {
            attention: Attention::from_values(dim, scores),
            head,
        },
        own_store: None,
    }
}

/// One context row: codes anywhere in the domain, numeric values at
/// either bound, at `±0.0`, or inside the range.
fn context(schema: &Schema, rng: &mut StdRng) -> Vec<Value> {
    (0..schema.len() - 1)
        .map(|i| match schema.attr(i).kind {
            AttrKind::Categorical { ref labels } => {
                Value::Cat(rng.gen_range(0..labels.len() as u32))
            }
            AttrKind::Numeric { min, max, .. } => Value::Num(match rng.gen_range(0..5u32) {
                0 => min,
                1 => max,
                2 => -0.0,
                3 => 0.0,
                _ => rng.gen_range(min..max),
            }),
        })
        .collect()
}

/// The reference composition, allocating a buffer per embedding.
fn reference(sm: &SubModel, shared: &EmbeddingStore, ctx: &[Value]) -> Vec<u64> {
    let SubModelKind::Discriminative { attention, head } = &sm.kind else {
        unreachable!("the property builds discriminative sub-models")
    };
    let store = sm.own_store.as_ref().unwrap_or(shared);
    let embs: Vec<Vec<f64>> = sm
        .context
        .iter()
        .zip(ctx)
        .map(|(&attr, &val)| {
            let mut e = vec![0.0; store.dim()];
            store.embed(attr, val, &mut e);
            e
        })
        .collect();
    let refs: Vec<&[f64]> = embs.iter().map(Vec::as_slice).collect();
    let mut v = vec![0.0; store.dim()];
    attention.forward(&refs, &mut v);
    match head {
        Head::Cat(h) => h.predict(&v).iter().map(|p| p.to_bits()).collect(),
        Head::Num(h) => {
            let (mu, sigma) = h.predict(&v);
            let std = store.standardizer(sm.target);
            vec![std.inverse(mu).to_bits(), (sigma * std.std).to_bits()]
        }
    }
}

/// The predictor's answer, as bits comparable with [`reference`].
fn predicted(p: &mut ColumnPredictor<'_>, numeric: bool, ctx: &[Value]) -> Vec<u64> {
    if numeric {
        let (mu, sigma) = p.predict_num(ctx);
        vec![mu.to_bits(), sigma.to_bits()]
    } else {
        p.predict_cat(ctx).iter().map(|x| x.to_bits()).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One predictor answers a run of cells exactly as the reference
    /// answers each of them, for a shared or a private store.
    #[test]
    fn column_predictor_matches_reference_bit_for_bit(
        m in 1usize..7,
        dim in 1usize..17,
        target_numeric in any::<bool>(),
        private in any::<bool>(),
        cells in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = schema(m, target_numeric, &mut rng);
        let shared = EmbeddingStore::new(&s, dim, &mut rng);
        let mut sm = submodel(&s, dim, &mut rng);
        if private {
            sm.own_store = Some(EmbeddingStore::new(&s, dim, &mut rng));
        }
        let mut p = ColumnPredictor::new(&sm, &shared);
        for cell in 0..cells {
            let ctx = context(&s, &mut rng);
            let want = reference(&sm, &shared, &ctx);
            let got = predicted(&mut p, target_numeric, &ctx);
            prop_assert_eq!(got, want, "cell {} of {:?}", cell, ctx);
        }
        prop_assert_eq!(p.predicts(), cells as u64);
        // the one-shot calls run the same path
        let ctx = context(&s, &mut rng);
        let want = reference(&sm, &shared, &ctx);
        let one_shot: Vec<u64> = if target_numeric {
            let (mu, sigma) = sm.predict_num(&shared, &ctx);
            vec![mu.to_bits(), sigma.to_bits()]
        } else {
            sm.predict_cat(&shared, &ctx).iter().map(|x| x.to_bits()).collect()
        };
        prop_assert_eq!(one_shot, want);
    }
}
