//! Bit-for-bit parity of the sub-model trainer's batched clip-and-sum
//! kernel against the reference step it replaces: `DpSgd::step` runs
//! `SubModelTrainer`'s whole-batch kernel, `DpSgd::step_reference` the
//! all-dense three-pass kernel over `forward_backward`, and a wrapper that
//! keeps the trait's default runs the generic fused per-example kernel.
//!
//! The fit is pinned by hash, so "close" is not enough: after every step
//! and after `finish`, every parameter of every store and sub-model, and
//! the loss, must carry the same `f64` bits on all three, and the batched
//! step's work counts must equal the generic kernel's field for field.
//! The properties sweep categorical and numeric contexts and targets,
//! Gaussian heads whose `ln σ` sits beyond its clamp, small domains whose
//! codes repeat within a batch, empty batches, clips that do and do not
//! bind, `σ_d = 0` and `σ_d > 0`, and sequential training on one shared
//! store against Exp. 10's private store per sub-model. Some cases put an
//! infinity into a context embedding: a Gaussian head then has an exactly
//! zero `ln σ` gradient against an infinite input, where only the
//! backward pass's `d == 0.0` skip keeps `0·∞` out of the sum.

use kamino_core::model::{
    AttrEmbedder, EmbeddingStore, Head, SubModel, SubModelKind, SubModelTrainer, TrainRow,
};
use kamino_data::{AttrKind, Attribute, Schema, Value};
use kamino_nn::{
    Attention, CategoricalHead, DpSgd, GaussianHead, Linear, ParamBlock, PerExampleModel,
    StepReport,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Optimizer steps per sub-model.
const STEPS: usize = 4;

/// `k + 1` attributes, each categorical with 1–6 codes (so a batch
/// repeats codes) or numeric over a range around zero.
fn schema(k: usize, rng: &mut StdRng) -> Schema {
    let attrs = (0..=k)
        .map(|i| {
            if rng.gen_bool(0.5) {
                let (lo, hi) = (rng.gen_range(0.5..50.0), rng.gen_range(0.5..50.0));
                Attribute::numeric(format!("a{i}"), -lo, hi, 8).unwrap()
            } else {
                Attribute::categorical_indexed(format!("a{i}"), rng.gen_range(1..=6usize)).unwrap()
            }
        })
        .collect();
    Schema::new(attrs).unwrap()
}

/// The sub-model predicting attribute `j` from attributes `0..j`, with
/// random attention scores; a Gaussian head's `ln σ` bias is sometimes
/// far outside its clamp, so its `ln σ` gradient is exactly zero.
fn submodel(schema: &Schema, j: usize, dim: usize, rng: &mut StdRng) -> SubModel {
    let scores = (0..j).map(|_| rng.gen_range(-3.0..3.0)).collect();
    let head = match schema.attr(j).kind {
        AttrKind::Categorical { .. } => {
            Head::Cat(CategoricalHead::new(dim, schema.attr(j).domain_size(), rng))
        }
        AttrKind::Numeric { .. } => {
            let w = (0..2 * dim).map(|_| rng.gen_range(-0.5..0.5)).collect();
            let ln_sigma = [-10.0, 0.0, 10.0][rng.gen_range(0..3usize)];
            Head::Num(GaussianHead::from_linear(Linear::from_values(
                dim,
                2,
                w,
                vec![rng.gen_range(-0.5..0.5), ln_sigma],
            )))
        }
    };
    SubModel {
        target: j,
        context: (0..j).collect(),
        kind: SubModelKind::Discriminative {
            attention: Attention::from_values(dim, scores),
            head,
        },
        own_store: None,
    }
}

/// One value of attribute `attr`: any code, or a numeric value at either
/// bound, at `±0.0`, or inside the range.
fn value(schema: &Schema, attr: usize, rng: &mut StdRng) -> Value {
    match schema.attr(attr).kind {
        AttrKind::Categorical { ref labels } => Value::Cat(rng.gen_range(0..labels.len() as u32)),
        AttrKind::Numeric { min, max, .. } => Value::Num(match rng.gen_range(0..5u32) {
            0 => min,
            1 => max,
            2 => -0.0,
            3 => 0.0,
            _ => rng.gen_range(min..max),
        }),
    }
}

/// A batch of `len` rows for the sub-model predicting attribute `j`.
fn batch(schema: &Schema, j: usize, len: usize, rng: &mut StdRng) -> Vec<TrainRow> {
    (0..len)
        .map(|_| TrainRow {
            context: (0..j).map(|a| value(schema, a, rng)).collect(),
            target: value(schema, j, rng),
        })
        .collect()
}

/// The trainer with the trait's default clip-and-sum: the generic fused
/// per-example kernel over `forward_backward`.
struct Generic<'a>(SubModelTrainer<'a>);

impl PerExampleModel<TrainRow> for Generic<'_> {
    fn forward_backward(&mut self, row: &TrainRow) -> f64 {
        self.0.forward_backward(row)
    }
    fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        self.0.visit_blocks(f);
    }
    fn visit_read_rows(&mut self, row: &TrainRow, f: &mut dyn FnMut(&mut ParamBlock, usize)) {
        self.0.visit_read_rows(row, f);
    }
}

/// Bits of a value, every NaN read as one: which NaN an invalid
/// operation yields is not part of the contract, only that it is NaN.
fn bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// Appends a block's values to `out`, as bits.
fn put(b: &ParamBlock, out: &mut Vec<u64>) {
    out.extend(b.values.iter().map(|&v| bits(v)));
}

/// Appends every parameter of `store` to `out`, as bits.
fn put_store(store: &EmbeddingStore, out: &mut Vec<u64>) {
    for e in store.embedders() {
        match e {
            AttrEmbedder::Cat(e) => put(&e.table, out),
            AttrEmbedder::Num { enc, .. } => {
                for b in [&enc.a, &enc.c, &enc.b, &enc.d] {
                    put(b, out);
                }
            }
        }
    }
}

/// Every parameter of `store` and of `sms` (with their private stores),
/// as bits.
fn params(store: &EmbeddingStore, sms: &[SubModel]) -> Vec<u64> {
    let mut out = Vec::new();
    put_store(store, &mut out);
    for sm in sms {
        if let Some(own) = &sm.own_store {
            put_store(own, &mut out);
        }
        let SubModelKind::Discriminative { attention, head } = &sm.kind else {
            unreachable!("the property builds discriminative sub-models")
        };
        put(&attention.scores, &mut out);
        let linear = head.linear();
        put(&linear.w, &mut out);
        put(&linear.b, &mut out);
    }
    out
}

/// A [`StepReport`]'s fields: the loss as bits, then the visits, noise
/// draws and settled rows.
type Fields = (u64, u64, u64, u64);

/// A report's fields.
fn fields(r: &StepReport) -> Fields {
    (
        bits(r.loss),
        r.coords_visited,
        r.noise_draws,
        r.rows_settled,
    )
}

/// Which kernel a [`Fit`] steps with.
#[derive(Clone, Copy)]
enum Kernel {
    Batched,
    Generic,
    Reference,
}

/// One model state: a shared store, the sub-models trained so far, the
/// RNG the steps draw from, and a log of what each step left.
struct Fit {
    store: EmbeddingStore,
    sms: Vec<SubModel>,
    rng: StdRng,
    kernel: Kernel,
    /// Per step: the trained store's and sub-model's parameters, and the
    /// step's report.
    log: Vec<(Vec<u64>, Fields)>,
}

impl Fit {
    fn new(store: &EmbeddingStore, seed: u64, kernel: Kernel) -> Fit {
        Fit {
            store: store.clone(),
            sms: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            kernel,
            log: Vec::new(),
        }
    }

    /// Trains `sm` on `batches`, on the shared store or on a private copy
    /// of it (Exp. 10's layout), logging each step in place of the last
    /// sub-model's log, then `finish`es and returns the finish report.
    fn train(
        &mut self,
        mut sm: SubModel,
        private: bool,
        opt: &DpSgd,
        batches: &[Vec<TrainRow>],
    ) -> StepReport {
        self.log.clear();
        let mut own = private.then(|| self.store.clone());
        let store = own.as_mut().unwrap_or(&mut self.store);
        for rows in batches {
            let report = {
                let mut trainer = SubModelTrainer::new(store, &mut sm);
                match self.kernel {
                    Kernel::Batched => opt.step(&mut trainer, rows, &mut self.rng),
                    Kernel::Generic => opt.step(&mut Generic(trainer), rows, &mut self.rng),
                    Kernel::Reference => opt.step_reference(&mut trainer, rows, &mut self.rng),
                }
            };
            let trained = params(store, std::slice::from_ref(&sm));
            self.log.push((trained, fields(&report)));
        }
        let done = opt.finish(&mut SubModelTrainer::new(store, &mut sm), &mut self.rng);
        sm.own_store = own;
        self.sms.push(sm);
        done
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Sub-models trained one after another (on one shared store, or each
    /// on its own copy) end with the same bits under the batched, generic
    /// fused and reference kernels, step by step.
    #[test]
    fn batched_step_matches_reference_bit_for_bit(
        k in 1usize..5,
        dim in 1usize..7,
        private in any::<bool>(),
        noisy in any::<bool>(),
        clip_raw in 1u32..60,
        empty_step in 0usize..STEPS + 1,
        extreme in 0u32..7,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = schema(k, &mut rng);
        let mut store = EmbeddingStore::new(&s, dim, &mut rng);
        if extreme == 0 {
            // one context coordinate that a batch will read
            if let Some(AttrEmbedder::Cat(e)) = store.embedders().first().cloned() {
                let mut table = e.table.values.clone();
                let at = rng.gen_range(0..table.len());
                table[at] = f64::INFINITY;
                let mut embedders = store.embedders().to_vec();
                embedders[0] = AttrEmbedder::Cat(kamino_nn::Embedding::from_values(
                    e.card(),
                    dim,
                    table,
                ));
                store = EmbeddingStore::from_parts(embedders, dim);
            }
        }
        let opt = DpSgd {
            clip: if !noisy && clip_raw == 1 { f64::INFINITY } else { clip_raw as f64 / 20.0 },
            noise_multiplier: if noisy { 1.1 } else { 0.0 },
            lr: 0.5,
            expected_batch: 2.0,
        };
        let mut fits = [Kernel::Batched, Kernel::Generic, Kernel::Reference]
            .map(|kernel| Fit::new(&store, seed, kernel));
        for j in 1..=k {
            let sm = submodel(&s, j, dim, &mut rng);
            let batches: Vec<Vec<TrainRow>> = (0..STEPS)
                .map(|step| {
                    let len = if step == empty_step { 0 } else { rng.gen_range(1..12usize) };
                    batch(&s, j, len, &mut rng)
                })
                .collect();
            let done = fits
                .each_mut()
                .map(|fit| fields(&fit.train(sm.clone(), private, &opt, &batches)));
            let [batched, generic, reference] = &fits;
            for (step, want) in batched.log.iter().enumerate() {
                let (g, r) = (&generic.log[step], &reference.log[step]);
                prop_assert!(g.0 == want.0 && r.0 == want.0,
                    "sub-model {}, step {}: parameters differ", j, step);
                // the reference visits every coordinate, not the live ones
                prop_assert_eq!(g.1, want.1, "sub-model {}, step {}", j, step);
                let (w, r) = (want.1, r.1);
                prop_assert_eq!((r.0, r.2, r.3), (w.0, w.2, w.3), "sub-model {}, step {}", j, step);
            }
            prop_assert_eq!(done[1], done[0]);
            prop_assert_eq!(done[2], done[0]);
            let after = params(&batched.store, &batched.sms);
            prop_assert!(after == params(&generic.store, &generic.sms), "sub-model {}", j);
            prop_assert!(after == params(&reference.store, &reference.sms), "sub-model {}", j);
        }
    }
}
