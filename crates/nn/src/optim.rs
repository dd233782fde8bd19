//! DP-SGD — Algorithm 2 lines 11–16 of the paper.
//!
//! Each iteration Poisson-samples a batch, computes the gradient of each
//! example separately, clips every per-example gradient to global L2 norm
//! `C`, sums the clipped gradients, perturbs the sum with `N(0, σ_d²C²I)`,
//! divides by the *expected* batch size `b`, and takes a gradient step.
//! Plain SGD is recovered with `noise_multiplier = 0` and `clip = ∞`, so
//! private and non-private training share one code path (the ε = ∞ runs of
//! Figure 6 use exactly that).

use rand::Rng;

use kamino_dp::standard_normal;

use crate::param::ParamBlock;

/// A model trainable one example at a time.
///
/// `forward_backward` must *accumulate* gradients for exactly one example
/// into the model's parameter blocks (the optimizer zeroes them first), and
/// return that example's loss.
pub trait PerExampleModel<E: ?Sized> {
    /// Computes loss and gradients for one example.
    fn forward_backward(&mut self, example: &E) -> f64;
    /// Enumerates all trainable parameter blocks in a stable order.
    fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock));
}

/// DP-SGD configuration (the relevant slice of the paper's Ψ).
#[derive(Debug, Clone, Copy)]
pub struct DpSgd {
    /// Per-example gradient clip threshold `C`.
    pub clip: f64,
    /// Noise multiplier `σ_d` (noise std is `σ_d·C`).
    pub noise_multiplier: f64,
    /// Learning rate `η`.
    pub lr: f64,
    /// Expected batch size `b` (the divisor; Poisson batches vary around it).
    pub expected_batch: f64,
}

/// Fixed per-example-gradient microbatch size. A step accumulates
/// clipped gradients microbatch-by-microbatch into fresh partial sums and
/// merges them in microbatch order; that order fixes the floating-point
/// summation, so every trained parameter depends on it.
pub const MICROBATCH: usize = 16;

/// What one [`DpSgd::step`] did: the mean example loss plus two
/// deterministic work counts, taken where the work happens.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepReport {
    /// Mean example loss (0.0 for an empty Poisson batch).
    pub loss: f64,
    /// Gradient coordinates visited by the two per-example passes (the
    /// L2-norm pass and the scale-accumulate pass), summed over examples.
    pub coords_visited: u64,
    /// `N(0, 1)` draws made by the noise step: one per parameter when the
    /// noise multiplier is positive, none otherwise.
    pub noise_draws: u64,
}

/// What a per-microbatch clip-and-sum kernel returns: the clipped gradient
/// sums (shaped like the model's blocks), the total example loss, and the
/// gradient coordinates its two per-example passes visited.
type Clipped = (Vec<Vec<f64>>, f64, u64);

/// A per-microbatch clip-and-sum kernel: `(model, microbatch, clip,
/// block sizes) → clipped sums, total loss, coordinates visited`.
type Accumulate<M, E> = fn(&mut M, &[E], f64, &[usize]) -> Clipped;

/// Accumulates the clipped per-example gradient sums and total loss for
/// `batch` (one microbatch) into fresh buffers shaped like `sizes`.
///
/// This is the **fused, row-sparse** clip-and-accumulate kernel. After
/// each example's backward pass it makes two passes over the gradients
/// instead of the reference's three (zero, norm, scale-add): one computes
/// the global L2 norm, and a second fused one scales, accumulates into
/// `sums` *and re-zeroes* the gradient buffers for the next example. Both
/// passes visit every coordinate of a dense block but only the touched
/// rows of a row-sparse block (an embedding table, where an example
/// touches one row), in ascending order. The per-sum arithmetic
/// (`s += scale · g` in block/index order) is exactly that of
/// [`accumulate_clipped_reference`] minus additions of exact zeros, so the
/// result is bit-identical (see [`ParamBlock`] for why each skip is an
/// identity); the parity is property-tested in `tests/proptest_kernels.rs`
/// and pinned by the `fused_step_matches_reference_step` test below.
fn accumulate_clipped<E, M>(model: &mut M, batch: &[E], clip: f64, sizes: &[usize]) -> Clipped
where
    M: PerExampleModel<E>,
{
    let mut sums: Vec<Vec<f64>> = sizes.iter().map(|&n| vec![0.0; n]).collect();
    let mut total_loss = 0.0;
    let mut visited = 0;
    // The fused pass below leaves every gradient buffer zeroed after each
    // example, so clearing any caller-left state once up front preserves
    // the trait's "the optimizer zeroes them first" contract.
    model.visit_blocks(&mut |b| b.zero_grad());
    for example in batch {
        total_loss += model.forward_backward(example);
        // Global L2 norm across all blocks, then clip scale.
        let mut sq = 0.0;
        model.visit_blocks(&mut |b| {
            let (block_sq, coords) = b.live_sq_norm();
            sq += block_sq;
            visited += 2 * coords as u64;
        });
        let norm = sq.sqrt();
        let scale = if norm > clip { clip / norm } else { 1.0 };
        let mut idx = 0;
        model.visit_blocks(&mut |b| {
            b.drain_scaled_into(scale, &mut sums[idx]);
            idx += 1;
        });
    }
    (sums, total_loss, visited)
}

/// The unfused, all-dense serial-reference twin of `accumulate_clipped`:
/// zero the gradients, backward, norm pass, then a separate scale-and-add
/// pass — three traversals of every coordinate per example, row-sparse
/// blocks included. Kept public so parity tests and the microbenchmarks
/// can pin the fused kernel against it. Its visit count covers the norm
/// and scale-add passes, the two the fused kernel also makes.
pub fn accumulate_clipped_reference<E, M>(
    model: &mut M,
    batch: &[E],
    clip: f64,
    sizes: &[usize],
) -> Clipped
where
    M: PerExampleModel<E>,
{
    let mut sums: Vec<Vec<f64>> = sizes.iter().map(|&n| vec![0.0; n]).collect();
    let mut total_loss = 0.0;
    let per_example = 2 * sizes.iter().sum::<usize>() as u64;
    for example in batch {
        model.visit_blocks(&mut |b| b.zero_grad());
        total_loss += model.forward_backward(example);
        let mut sq = 0.0;
        model.visit_blocks(&mut |b| sq += b.grad_sq_norm());
        let norm = sq.sqrt();
        let scale = if norm > clip { clip / norm } else { 1.0 };
        let mut idx = 0;
        model.visit_blocks(&mut |b| {
            for (s, g) in sums[idx].iter_mut().zip(&b.grads) {
                *s += scale * g;
            }
            idx += 1;
        });
    }
    (sums, total_loss, per_example * batch.len() as u64)
}

impl DpSgd {
    /// A non-private configuration (no clipping, no noise).
    pub fn non_private(lr: f64, expected_batch: f64) -> DpSgd {
        DpSgd {
            clip: f64::INFINITY,
            noise_multiplier: 0.0,
            lr,
            expected_batch,
        }
    }

    /// Rejects a configuration that could not run as stated. In
    /// particular a positive noise multiplier needs a finite clip: the
    /// noise std is `σ_d·C`, and a step must never carry a σ while
    /// silently adding no noise.
    fn check(&self) {
        assert!(
            self.expected_batch > 0.0,
            "expected batch size must be positive"
        );
        assert!(self.clip > 0.0, "clip threshold must be positive");
        assert!(
            self.noise_multiplier.is_finite() && self.noise_multiplier >= 0.0,
            "noise multiplier must be finite and non-negative, got {}",
            self.noise_multiplier
        );
        assert!(
            self.noise_multiplier == 0.0 || self.clip.is_finite(),
            "a positive noise multiplier needs a finite clip (noise std is σ_d·C)"
        );
    }

    /// Block shapes of `model` (stable order, per `visit_blocks`).
    fn block_sizes<E, M: PerExampleModel<E>>(&self, model: &mut M) -> Vec<usize> {
        let mut sizes = Vec::new();
        model.visit_blocks(&mut |b| sizes.push(b.len()));
        sizes
    }

    /// Noises the merged gradient sum (σ_d·C per coordinate), averages by
    /// the expected batch size, and applies the step to `model`. Always
    /// dense: noise on every coordinate *is* the mechanism. Returns the
    /// number of `N(0, 1)` draws made.
    fn apply<E, M, R>(&self, model: &mut M, sums: &[Vec<f64>], rng: &mut R) -> u64
    where
        M: PerExampleModel<E>,
        R: Rng + ?Sized,
    {
        // `check` guarantees a finite clip whenever noise is on.
        let noisy = self.noise_multiplier > 0.0;
        let noise_std = self.noise_multiplier * self.clip;
        let mut draws = 0;
        let mut idx = 0;
        model.visit_blocks(&mut |b| {
            for (i, s) in sums[idx].iter().enumerate() {
                let noisy_sum = s + if noisy {
                    noise_std * standard_normal(rng)
                } else {
                    0.0
                };
                b.values[i] -= self.lr * noisy_sum / self.expected_batch;
            }
            if noisy {
                draws += sums[idx].len() as u64;
            }
            idx += 1;
        });
        draws
    }

    /// Runs one optimizer step on `batch`, returning the mean example loss
    /// (or 0.0 for an empty Poisson batch — the step still applies noise,
    /// as the mechanism requires) and the step's work counts.
    pub fn step<E, M, R>(&self, model: &mut M, batch: &[E], rng: &mut R) -> StepReport
    where
        M: PerExampleModel<E>,
        R: Rng + ?Sized,
    {
        self.step_with(model, batch, rng, accumulate_clipped)
    }

    /// [`DpSgd::step`] built on [`accumulate_clipped_reference`] — the
    /// unfused, all-dense three-traversal kernel. Produces bit-identical
    /// parameters, loss and noise draws to [`DpSgd::step`]; retained as
    /// the reference twin for the parity suite and the `micro_substrates`
    /// fused-vs-reference pairs.
    pub fn step_reference<E, M, R>(&self, model: &mut M, batch: &[E], rng: &mut R) -> StepReport
    where
        M: PerExampleModel<E>,
        R: Rng + ?Sized,
    {
        self.step_with(model, batch, rng, accumulate_clipped_reference)
    }

    /// One step with `accumulate` as the per-microbatch clip-and-sum
    /// kernel: partial sums merge in microbatch order, then noise and
    /// apply.
    fn step_with<E, M, R>(
        &self,
        model: &mut M,
        batch: &[E],
        rng: &mut R,
        accumulate: Accumulate<M, E>,
    ) -> StepReport
    where
        M: PerExampleModel<E>,
        R: Rng + ?Sized,
    {
        self.check();
        let sizes = self.block_sizes::<E, _>(model);
        let mut sums: Vec<Vec<f64>> = sizes.iter().map(|&n| vec![0.0; n]).collect();
        let mut total_loss = 0.0;
        let mut coords_visited = 0;
        for micro in batch.chunks(MICROBATCH) {
            let (part, loss, visited) = accumulate(model, micro, self.clip, &sizes);
            for (s, p) in sums.iter_mut().zip(&part) {
                for (a, b) in s.iter_mut().zip(p) {
                    *a += b;
                }
            }
            total_loss += loss;
            coords_visited += visited;
        }
        let noise_draws = self.apply::<E, _, _>(model, &sums, rng);
        let loss = if batch.is_empty() {
            0.0
        } else {
            total_loss / batch.len() as f64
        };
        StepReport {
            loss,
            coords_visited,
            noise_draws,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 1-parameter quadratic model: loss(x) = (w − x)²/2, grad = w − x.
    struct Quad {
        w: ParamBlock,
    }

    impl PerExampleModel<f64> for Quad {
        fn forward_backward(&mut self, x: &f64) -> f64 {
            let d = self.w.values[0] - x;
            self.w.grads[0] += d;
            0.5 * d * d
        }
        fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
            f(&mut self.w);
        }
    }

    #[test]
    fn non_private_sgd_converges_to_mean() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Quad {
            w: ParamBlock::zeros(1),
        };
        let data = [1.0, 2.0, 3.0, 4.0];
        let cfg = DpSgd::non_private(0.2, data.len() as f64);
        for _ in 0..200 {
            cfg.step(&mut model, &data, &mut rng);
        }
        assert!((model.w.values[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn clipping_bounds_per_example_influence() {
        // One outlier example (x = 1000) must move w by at most
        // lr·C/b per step when clipping is on.
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = Quad {
            w: ParamBlock::zeros(1),
        };
        let cfg = DpSgd {
            clip: 1.0,
            noise_multiplier: 0.0,
            lr: 0.5,
            expected_batch: 1.0,
        };
        cfg.step(&mut model, &[1000.0], &mut rng);
        // unclipped gradient would be −1000; clipped is −1
        assert!((model.w.values[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fused_accumulate_matches_reference_twin() {
        // direct twin pairing: the fused two-pass accumulate must agree
        // bit-for-bit with the three-pass reference on the same batch
        let data = [1.0, -3.0, 250.0, 0.25];
        let mut fused_model = Quad {
            w: ParamBlock::zeros(1),
        };
        let mut ref_model = Quad {
            w: ParamBlock::zeros(1),
        };
        let sizes = vec![1usize];
        let (fused, fused_loss, fused_visits) =
            accumulate_clipped(&mut fused_model, &data, 1.0, &sizes);
        let (reference, ref_loss, ref_visits) =
            accumulate_clipped_reference(&mut ref_model, &data, 1.0, &sizes);
        assert_eq!(fused, reference);
        assert_eq!(fused_loss.to_bits(), ref_loss.to_bits());
        // a dense model: both kernels visit every coordinate twice
        assert_eq!((fused_visits, ref_visits), (8, 8));
    }

    #[test]
    fn clipping_is_global_across_blocks() {
        struct TwoBlock {
            a: ParamBlock,
            b: ParamBlock,
        }
        impl PerExampleModel<()> for TwoBlock {
            fn forward_backward(&mut self, _: &()) -> f64 {
                self.a.grads[0] += 3.0;
                self.b.grads[0] += 4.0;
                0.0
            }
            fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
                f(&mut self.a);
                f(&mut self.b);
            }
        }
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = TwoBlock {
            a: ParamBlock::zeros(1),
            b: ParamBlock::zeros(1),
        };
        // global norm is 5; clip to 1 ⇒ per-block grads scale by 1/5
        let cfg = DpSgd {
            clip: 1.0,
            noise_multiplier: 0.0,
            lr: 1.0,
            expected_batch: 1.0,
        };
        cfg.step(&mut model, &[()], &mut rng);
        assert!((model.a.values[0] + 0.6).abs() < 1e-12);
        assert!((model.b.values[0] + 0.8).abs() < 1e-12);
    }

    #[test]
    fn noise_perturbs_empty_batches_too() {
        // the Gaussian mechanism must fire even when the Poisson batch is
        // empty, otherwise the release leaks the batch size
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = Quad {
            w: ParamBlock::zeros(1),
        };
        let cfg = DpSgd {
            clip: 1.0,
            noise_multiplier: 1.0,
            lr: 1.0,
            expected_batch: 4.0,
        };
        let step = cfg.step::<f64, _, _>(&mut model, &[], &mut rng);
        assert_eq!(step.loss, 0.0);
        assert_eq!(step.noise_draws, 1);
        assert_ne!(
            model.w.values[0], 0.0,
            "noise must be applied to empty batches"
        );
    }

    #[test]
    fn noise_magnitude_scales_with_multiplier() {
        let trials = 2000;
        let spread = |mult: f64, seed: u64| -> f64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = DpSgd {
                clip: 1.0,
                noise_multiplier: mult,
                lr: 1.0,
                expected_batch: 1.0,
            };
            let mut acc = 0.0;
            for _ in 0..trials {
                let mut model = Quad {
                    w: ParamBlock::zeros(1),
                };
                cfg.step::<f64, _, _>(&mut model, &[], &mut rng);
                acc += model.w.values[0] * model.w.values[0];
            }
            (acc / trials as f64).sqrt()
        };
        let s1 = spread(1.0, 7);
        let s3 = spread(3.0, 7);
        assert!((s3 / s1 - 3.0).abs() < 0.3, "noise ratio {}", s3 / s1);
    }

    #[test]
    fn private_training_still_converges_roughly() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = Quad {
            w: ParamBlock::zeros(1),
        };
        let data = [2.0, 3.0];
        let cfg = DpSgd {
            clip: 5.0,
            noise_multiplier: 0.1,
            lr: 0.1,
            expected_batch: 2.0,
        };
        for _ in 0..500 {
            cfg.step(&mut model, &data, &mut rng);
        }
        assert!(
            (model.w.values[0] - 2.5).abs() < 0.5,
            "w = {}",
            model.w.values[0]
        );
    }

    #[test]
    fn fused_step_matches_reference_step() {
        // The fused clip-accumulate (norm pass + scale-add-rezero pass)
        // must reproduce the unfused three-pass reference bit for bit,
        // including with noise on (identical rng consumption).
        let data: Vec<f64> = (0..40).map(|i| (i % 9) as f64 - 4.0).collect();
        for noise in [0.0, 1.1] {
            let cfg = DpSgd {
                clip: 1.0,
                noise_multiplier: noise,
                lr: 0.1,
                expected_batch: 32.0,
            };
            let mut fused = Quad {
                w: ParamBlock::zeros(1),
            };
            let mut rng_f = StdRng::seed_from_u64(17);
            let mut reference = Quad {
                w: ParamBlock::zeros(1),
            };
            let mut rng_r = StdRng::seed_from_u64(17);
            for _ in 0..20 {
                let lf = cfg.step(&mut fused, &data, &mut rng_f);
                let lr = cfg.step_reference(&mut reference, &data, &mut rng_r);
                assert_eq!(lf.loss.to_bits(), lr.loss.to_bits());
                assert_eq!(lf.noise_draws, lr.noise_draws);
            }
            assert_eq!(fused.w.values[0].to_bits(), reference.w.values[0].to_bits());
        }
    }

    /// Lookup model over one row-sparse embedding table: loss(code, y)
    /// = ‖e_code − y‖²/2, so an example's gradient lives in one row.
    #[derive(Clone)]
    struct Lookup {
        emb: crate::layers::Embedding,
    }

    impl PerExampleModel<(u32, f64)> for Lookup {
        fn forward_backward(&mut self, &(code, y): &(u32, f64)) -> f64 {
            let dz: Vec<f64> = self.emb.forward(code).iter().map(|e| e - y).collect();
            self.emb.backward(code, &dz);
            0.5 * dz.iter().map(|d| d * d).sum::<f64>()
        }
        fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
            self.emb.visit_blocks(f);
        }
    }

    fn lookup(card: usize, dim: usize) -> Lookup {
        let table = (0..card * dim)
            .map(|i| (i % 7) as f64 / 7.0 - 0.5)
            .collect();
        Lookup {
            emb: crate::layers::Embedding::from_values(card, dim, table),
        }
    }

    #[test]
    fn fused_step_clears_stale_gradients() {
        // forward_backward accumulates, so any caller-left gradient state
        // must be cleared before the first example — the fused kernel does
        // it once at entry instead of per example.
        let mut rng = StdRng::seed_from_u64(23);
        let mut model = Quad {
            w: ParamBlock::zeros(1),
        };
        model.w.grads[0] = 1e9; // stale garbage
        let cfg = DpSgd::non_private(0.5, 1.0);
        cfg.step(&mut model, &[0.0], &mut rng);
        assert_eq!(model.w.values[0], 0.0, "stale gradient leaked into step");

        // a row-sparse block with stale gradients in every row *and*
        // stale touched rows: the step must match a clean model's bits,
        // and rows no example touched must not move
        let batch = [(1u32, 0.25), (1, -2.0), (3, 1.0)];
        let mut clean = lookup(5, 3);
        let mut stale = clean.clone();
        stale.emb.table.grads.iter_mut().for_each(|g| *g = 1e9);
        for row in [0, 4, 4, 2] {
            stale.emb.table.touch_row(row);
        }
        let cfg = DpSgd {
            clip: 1.0,
            noise_multiplier: 0.0,
            lr: 0.5,
            expected_batch: 3.0,
        };
        let clean_step = cfg.step(&mut clean, &batch, &mut rng);
        let stale_step = cfg.step(&mut stale, &batch, &mut rng);
        // the stale rows are forgotten, not visited
        assert_eq!(stale_step.coords_visited, clean_step.coords_visited);
        let bits =
            |m: &Lookup| -> Vec<u64> { m.emb.table.values.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&stale), bits(&clean), "stale sparse state leaked");
        let fresh = lookup(5, 3);
        for row in [0, 2, 4] {
            assert_eq!(fresh.emb.forward(row), stale.emb.forward(row));
        }
        assert!(stale.emb.table.grads.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn sparse_step_visits_only_touched_rows_and_matches_reference() {
        let batch: Vec<(u32, f64)> = (0..40).map(|i| ((i * 7 % 11) as u32, 0.3)).collect();
        for noise in [0.0, 1.1] {
            let cfg = DpSgd {
                clip: 0.5,
                noise_multiplier: noise,
                lr: 0.1,
                expected_batch: 32.0,
            };
            let mut fused = lookup(50, 4);
            let mut reference = fused.clone();
            let mut rng_f = StdRng::seed_from_u64(29);
            let mut rng_r = StdRng::seed_from_u64(29);
            for _ in 0..5 {
                let f = cfg.step(&mut fused, &batch, &mut rng_f);
                let r = cfg.step_reference(&mut reference, &batch, &mut rng_r);
                assert_eq!(f.loss.to_bits(), r.loss.to_bits());
                // one 4-wide row per example, twice, against the whole
                // 50×4 table twice
                assert_eq!(f.coords_visited, 40 * 2 * 4);
                assert_eq!(r.coords_visited, 40 * 2 * 200);
                let draws = if noise > 0.0 { 200 } else { 0 };
                assert_eq!((f.noise_draws, r.noise_draws), (draws, draws));
            }
            for (a, b) in fused
                .emb
                .table
                .values
                .iter()
                .zip(&reference.emb.table.values)
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// A step that must refuse to run: each of these used to train with
    /// no noise while carrying a σ.
    fn must_refuse(clip: f64, noise_multiplier: f64) {
        let cfg = DpSgd {
            clip,
            noise_multiplier,
            lr: 0.1,
            expected_batch: 1.0,
        };
        let mut model = Quad {
            w: ParamBlock::zeros(1),
        };
        cfg.step(&mut model, &[1.0], &mut StdRng::seed_from_u64(31));
    }

    #[test]
    #[should_panic(expected = "needs a finite clip")]
    fn noise_without_a_finite_clip_is_rejected() {
        must_refuse(f64::INFINITY, 1.1);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_noise_multiplier_is_rejected() {
        must_refuse(1.0, -1.1);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_noise_multiplier_is_rejected() {
        must_refuse(1.0, f64::NAN);
    }

    #[test]
    fn reports_mean_loss() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = Quad {
            w: ParamBlock::zeros(1),
        };
        let cfg = DpSgd::non_private(0.0, 2.0); // lr 0: loss unchanged
        let loss = cfg.step(&mut model, &[1.0, 3.0], &mut rng).loss;
        assert!((loss - (0.5 + 4.5) / 2.0).abs() < 1e-12);
    }
}
