//! Probabilistic data-model training (Algorithm 2).
//!
//! The first sequence attribute's (quantized) histogram is released with
//! the Gaussian mechanism (L2 sensitivity √2 — one tuple change moves two
//! counts — matching the paper's `N(0, 2σ_g²)` noise). Each remaining
//! attribute gets a discriminative sub-model trained with DP-SGD at
//! sampling rate `b/n` for `T` iterations; embeddings are saved after each
//! sub-model and reused to initialize the next (Algorithm 2 lines 7/19).
//!
//! Two deviations, both from the paper itself:
//! * attributes with domains larger than `large_domain_threshold` use the
//!   §4.3 extreme-domain fallback (independent noisy histogram);
//! * `parallel` trains sub-models on separate threads with fresh private
//!   embeddings instead of reused ones — the §7.3.6 optimization, which the
//!   paper reports costs ≈0.01 task quality for a 3.5× speedup.

use kamino_data::stats::{histogram, normalize};
use kamino_data::{AttrKind, Instance, Schema};
use kamino_dp::{poisson_sample, release_histogram};
use kamino_nn::{Attention, CategoricalHead, DpSgd, GaussianHead, StepReport};
use kamino_obs::ObsHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::model::{
    DataModel, EmbeddingStore, Head, SubModel, SubModelKind, SubModelTrainer, TrainRow,
};

/// Training configuration — the slice of Ψ that Algorithm 2 consumes.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Embedding dimension `d`.
    pub embed_dim: usize,
    /// Learning rate `η`.
    pub lr: f64,
    /// Expected batch size `b`.
    pub batch: usize,
    /// DP-SGD iterations `T` per sub-model.
    pub iters: usize,
    /// Per-example gradient clip `C`.
    pub clip: f64,
    /// Noise multiplier for histogram releases (`σ_g`); 0 disables noise
    /// (non-private mode).
    pub sigma_g: f64,
    /// DP-SGD noise multiplier (`σ_d`); 0 disables noise.
    pub sigma_d: f64,
    /// Train sub-models in parallel with private embeddings (Exp. 10).
    /// This changes the trained model (no embedding reuse across
    /// sub-models).
    pub parallel: bool,
    /// Has no effect: every DP-SGD step runs the serial microbatch
    /// kernel. Kept only because the benchmark package still sets it;
    /// it goes when that package stops naming it.
    pub microbatch_parallel: bool,
    /// Domains larger than this use the §4.3 noisy-marginal fallback.
    pub large_domain_threshold: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            embed_dim: 16,
            lr: 0.05,
            batch: 32,
            iters: 200,
            clip: 1.0,
            sigma_g: 1.0,
            sigma_d: 1.1,
            parallel: false,
            microbatch_parallel: true,
            large_domain_threshold: 256,
            seed: 0,
        }
    }
}

/// Releases attribute `attr`'s histogram with the Gaussian mechanism and
/// post-processes it into a distribution.
fn noisy_distribution(
    schema: &Schema,
    inst: &Instance,
    attr: usize,
    sigma_g: f64,
    rng: &mut StdRng,
) -> Vec<f64> {
    let mut counts = histogram(schema, inst, attr);
    release_histogram(&mut counts, sigma_g, rng);
    normalize(&counts)
}

/// Extracts the training rows (context values + target) for one sub-model.
fn training_rows(
    inst: &Instance,
    context: &[usize],
    target: usize,
    ids: &[usize],
) -> Vec<TrainRow> {
    ids.iter()
        .map(|&i| TrainRow {
            context: context.iter().map(|&a| inst.value(i, a)).collect(),
            target: inst.value(i, target),
        })
        .collect()
}

fn fresh_submodel(
    schema: &Schema,
    store: &EmbeddingStore,
    context: &[usize],
    target: usize,
    rng: &mut StdRng,
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
        context: context.to_vec(),
        kind: SubModelKind::Discriminative {
            attention: Attention::new(context.len(), store.dim()),
            head,
        },
        own_store: None,
    }
}

/// DP-SGD-trains one sub-model for `cfg.iters` steps and settles the
/// embedding-table noise the steps deferred, adding the work counts to
/// `obs`' `kamino_dpsgd_coords_visited_total`,
/// `kamino_dpsgd_noise_draws_total` and `kamino_dpsgd_rows_settled_total`
/// counters.
fn train_one(
    inst: &Instance,
    store: &mut EmbeddingStore,
    sm: &mut SubModel,
    cfg: &TrainConfig,
    n: usize,
    rng: &mut StdRng,
    obs: &ObsHandle,
) {
    // Clipping is part of Algorithm 2 regardless of privacy (line 14);
    // only the noise is privacy-specific. It also stabilizes the Gaussian
    // head, whose μ-gradient scales like 1/σ² as σ shrinks.
    let opt = DpSgd {
        clip: cfg.clip,
        noise_multiplier: cfg.sigma_d,
        lr: cfg.lr,
        expected_batch: cfg.batch as f64,
    };
    let rate = (cfg.batch as f64 / n.max(1) as f64).min(1.0);
    let mut trainer = SubModelTrainer { store, sm };
    let mut work = StepReport::default();
    let mut count = |step: StepReport| {
        work.coords_visited += step.coords_visited;
        work.noise_draws += step.noise_draws;
        work.rows_settled += step.rows_settled;
    };
    for _ in 0..cfg.iters {
        let ids = poisson_sample(n, rate, rng);
        let rows = training_rows(inst, &trainer.sm.context, trainer.sm.target, &ids);
        count(opt.step(&mut trainer, &rows, rng));
    }
    count(opt.finish(&mut trainer, rng));
    obs.counter("kamino_dpsgd_coords_visited_total", &[])
        .add(work.coords_visited);
    obs.counter("kamino_dpsgd_noise_draws_total", &[])
        .add(work.noise_draws);
    obs.counter("kamino_dpsgd_rows_settled_total", &[])
        .add(work.rows_settled);
}

/// Trains the full probabilistic data model (Algorithm 2).
pub fn train_model(
    schema: &Schema,
    inst: &Instance,
    sequence: &[usize],
    cfg: &TrainConfig,
) -> DataModel {
    train_model_with_obs(schema, inst, sequence, cfg, &ObsHandle::disabled())
}

/// [`train_model`], adding DP-SGD's deterministic work counters
/// (`kamino_dpsgd_coords_visited_total`, `kamino_dpsgd_noise_draws_total`,
/// `kamino_dpsgd_rows_settled_total`) to `obs`. The returned model is
/// byte-identical to [`train_model`].
pub fn train_model_with_obs(
    schema: &Schema,
    inst: &Instance,
    sequence: &[usize],
    cfg: &TrainConfig,
    obs: &ObsHandle,
) -> DataModel {
    assert_eq!(
        sequence.len(),
        schema.len(),
        "sequence must cover the schema"
    );
    let n = inst.n_rows();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7EA1);
    let mut store = EmbeddingStore::new(schema, cfg.embed_dim, &mut rng);

    // Line 2-4: noisy distribution for the first attribute.
    let first_dist = noisy_distribution(schema, inst, sequence[0], cfg.sigma_g, &mut rng);

    // Lines 6-20: one sub-model per remaining attribute.
    let plan: Vec<(Vec<usize>, usize)> = (1..sequence.len())
        .map(|j| (sequence[..j].to_vec(), sequence[j]))
        .collect();

    let mut submodels: Vec<SubModel> = Vec::with_capacity(plan.len());
    if cfg.parallel {
        // Exp. 10: fresh private embeddings per sub-model, trained on
        // separate threads (no reuse ⇒ independent, embarrassingly parallel).
        let results: Vec<SubModel> = std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .iter()
                .enumerate()
                .map(|(idx, (context, target))| {
                    let store_proto = &store;
                    scope.spawn(move || {
                        let mut trng = StdRng::seed_from_u64(cfg.seed ^ (0xBEE5 + idx as u64));
                        let mut own = store_proto.clone();
                        let mut sm =
                            large_or_disc(schema, inst, &own, context, *target, cfg, &mut trng);
                        if matches!(sm.kind, SubModelKind::Discriminative { .. }) {
                            train_one(inst, &mut own, &mut sm, cfg, n, &mut trng, obs);
                            sm.own_store = Some(own);
                        }
                        sm
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("trainer thread panicked"))
                .collect()
        });
        submodels = results;
    } else {
        for (context, target) in &plan {
            let mut sm = large_or_disc(schema, inst, &store, context, *target, cfg, &mut rng);
            if matches!(sm.kind, SubModelKind::Discriminative { .. }) {
                train_one(inst, &mut store, &mut sm, cfg, n, &mut rng, obs);
            }
            submodels.push(sm);
        }
    }

    DataModel {
        sequence: sequence.to_vec(),
        first_dist,
        store,
        submodels,
    }
}

/// Chooses between the discriminative sub-model and the §4.3 extreme-domain
/// noisy-marginal fallback for `target`.
fn large_or_disc(
    schema: &Schema,
    inst: &Instance,
    store: &EmbeddingStore,
    context: &[usize],
    target: usize,
    cfg: &TrainConfig,
    rng: &mut StdRng,
) -> SubModel {
    if schema.attr(target).domain_size() > cfg.large_domain_threshold {
        let dist = noisy_distribution(schema, inst, target, cfg.sigma_g, rng);
        SubModel {
            target,
            context: context.to_vec(),
            kind: SubModelKind::NoisyMarginal { dist },
            own_store: None,
        }
    } else {
        fresh_submodel(schema, store, context, target, rng)
    }
}

/// Number of full-rate Gaussian histogram releases the model will make:
/// one for the first attribute plus one per large-domain fallback target.
/// [`crate::params::search_params`] charges the accountant accordingly.
pub fn count_marginal_releases(
    schema: &Schema,
    sequence: &[usize],
    large_domain_threshold: usize,
) -> usize {
    1 + sequence[1..]
        .iter()
        .filter(|&&a| schema.attr(a).domain_size() > large_domain_threshold)
        .count()
}

/// Number of DP-SGD-trained sub-models (the `k − 1` of Theorem 1 minus the
/// large-domain fallbacks).
pub fn count_sgd_models(
    schema: &Schema,
    sequence: &[usize],
    large_domain_threshold: usize,
) -> usize {
    sequence[1..]
        .iter()
        .filter(|&&a| schema.attr(a).domain_size() <= large_domain_threshold)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamino_data::{Attribute, Value};
    use rand::Rng;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::categorical_indexed("a", 3).unwrap(),
            Attribute::categorical_indexed("b", 3).unwrap(),
            Attribute::numeric("x", 0.0, 10.0, 5).unwrap(),
        ])
        .unwrap()
    }

    /// b == a always; x = 3·a + small noise.
    fn toy_instance(schema: &Schema, n: usize, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inst = Instance::empty(schema);
        for _ in 0..n {
            let a = rng.gen_range(0..3u32);
            let x = (3.0 * a as f64 + rng.gen::<f64>() * 0.5).clamp(0.0, 10.0);
            inst.push_row(schema, &[Value::Cat(a), Value::Cat(a), Value::Num(x)])
                .unwrap();
        }
        inst
    }

    fn non_private(iters: usize) -> TrainConfig {
        TrainConfig {
            sigma_g: 0.0,
            sigma_d: 0.0,
            iters,
            lr: 0.2,
            batch: 32,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn first_dist_matches_truth_when_noiseless() {
        let s = schema();
        let inst = toy_instance(&s, 300, 1);
        let model = train_model(&s, &inst, &[0, 1, 2], &non_private(1));
        let truth = normalize(&histogram(&s, &inst, 0));
        for (a, b) in model.first_dist.iter().zip(&truth) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn noise_perturbs_first_dist() {
        let s = schema();
        let inst = toy_instance(&s, 300, 1);
        let mut cfg = non_private(1);
        cfg.sigma_g = 5.0;
        let model = train_model(&s, &inst, &[0, 1, 2], &cfg);
        let truth = normalize(&histogram(&s, &inst, 0));
        let dist: f64 = model
            .first_dist
            .iter()
            .zip(&truth)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>();
        assert!(dist > 1e-4, "sigma_g = 5 left the distribution untouched");
        assert!((model.first_dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn non_private_training_learns_fd() {
        let s = schema();
        let inst = toy_instance(&s, 400, 2);
        let model = train_model(&s, &inst, &[0, 1, 2], &non_private(300));
        // P(b = a | a) must dominate after training
        for a in 0..3u32 {
            let p = model
                .submodel_at(1)
                .predict_cat(&model.store, &[Value::Cat(a)]);
            assert!(
                p[a as usize] > 0.7,
                "P(b={a}|a={a}) = {} too low",
                p[a as usize]
            );
        }
    }

    #[test]
    fn numeric_submodel_tracks_context() {
        let s = schema();
        let inst = toy_instance(&s, 400, 3);
        let model = train_model(&s, &inst, &[0, 1, 2], &non_private(400));
        let (mu0, _) = model
            .submodel_at(2)
            .predict_num(&model.store, &[Value::Cat(0), Value::Cat(0)]);
        let (mu2, _) = model
            .submodel_at(2)
            .predict_num(&model.store, &[Value::Cat(2), Value::Cat(2)]);
        assert!(mu2 > mu0 + 2.0, "x(a=2) = {mu2} not above x(a=0) = {mu0}");
    }

    #[test]
    fn private_training_runs_and_stays_finite() {
        let s = schema();
        let inst = toy_instance(&s, 200, 4);
        let cfg = TrainConfig {
            iters: 30,
            ..TrainConfig::default()
        };
        let model = train_model(&s, &inst, &[0, 1, 2], &cfg);
        let p = model
            .submodel_at(1)
            .predict_cat(&model.store, &[Value::Cat(1)]);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn private_training_leaves_no_row_owing_noise() {
        // the trained model is the release, so every embedding row must
        // carry the noise of all its steps, in both training modes
        let s = schema();
        let inst = toy_instance(&s, 200, 4);
        for parallel in [false, true] {
            let cfg = TrainConfig {
                iters: 30,
                parallel,
                ..TrainConfig::default()
            };
            let mut model = train_model(&s, &inst, &[0, 1, 2], &cfg);
            let own = model
                .submodels
                .iter_mut()
                .filter_map(|sm| sm.own_store.as_mut());
            for store in own.chain([&mut model.store]) {
                for attr in 0..s.len() {
                    store.visit_attr_blocks(attr, &mut |b| {
                        assert!(
                            !b.owes_noise(),
                            "attribute {attr} owes noise (parallel: {parallel})"
                        )
                    });
                }
            }
        }
    }

    #[test]
    fn parallel_training_produces_private_stores() {
        let s = schema();
        let inst = toy_instance(&s, 200, 5);
        let mut cfg = non_private(50);
        cfg.parallel = true;
        let model = train_model(&s, &inst, &[0, 1, 2], &cfg);
        for sm in &model.submodels {
            assert!(
                sm.own_store.is_some(),
                "parallel training must produce private stores"
            );
        }
        // predictions still work through the private stores
        let p = model
            .submodel_at(1)
            .predict_cat(&model.store, &[Value::Cat(2)]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn large_domain_fallback_used() {
        let s = Schema::new(vec![
            Attribute::categorical_indexed("small", 3).unwrap(),
            Attribute::categorical_indexed("huge", 500).unwrap(),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut inst = Instance::empty(&s);
        for _ in 0..100 {
            inst.push_row(
                &s,
                &[
                    Value::Cat(rng.gen_range(0..3)),
                    Value::Cat(rng.gen_range(0..500)),
                ],
            )
            .unwrap();
        }
        let cfg = non_private(5);
        let model = train_model(&s, &inst, &[0, 1], &cfg);
        assert!(matches!(
            model.submodels[0].kind,
            SubModelKind::NoisyMarginal { .. }
        ));
        assert_eq!(count_marginal_releases(&s, &[0, 1], 256), 2);
        assert_eq!(count_sgd_models(&s, &[0, 1], 256), 0);
    }

    #[test]
    fn release_counting() {
        let s = schema();
        assert_eq!(count_marginal_releases(&s, &[0, 1, 2], 256), 1);
        assert_eq!(count_sgd_models(&s, &[0, 1, 2], 256), 2);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let s = schema();
        let inst = toy_instance(&s, 150, 9);
        let m1 = train_model(&s, &inst, &[0, 1, 2], &non_private(20));
        let m2 = train_model(&s, &inst, &[0, 1, 2], &non_private(20));
        let p1 = m1.submodel_at(1).predict_cat(&m1.store, &[Value::Cat(1)]);
        let p2 = m2.submodel_at(1).predict_cat(&m2.store, &[Value::Cat(1)]);
        assert_eq!(p1, p2);
    }
}
