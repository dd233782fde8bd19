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

/// A per-microbatch clip-and-sum kernel: `(model, microbatch, clip,
/// block sizes) → (clipped gradient sums, total loss)`.
type Accumulate<M, E> = fn(&mut M, &[E], f64, &[usize]) -> (Vec<Vec<f64>>, f64);

/// Accumulates the clipped per-example gradient sums and total loss for
/// `batch` (one microbatch) into fresh buffers shaped like `sizes`.
///
/// This is the **fused** clip-and-accumulate kernel: after each example's
/// backward pass, one traversal computes the global L2 norm and a second
/// fused traversal scales, accumulates into `sums`, *and re-zeroes* the
/// gradient buffers for the next example — two passes over the gradients
/// instead of the reference's three (norm, scale-add, zero). The per-sum
/// arithmetic (`s += scale · g` in block/index order) is exactly that of
/// [`accumulate_clipped_reference`], so the result is bit-identical; the
/// parity is property-tested in `tests/proptest_kernels.rs` and pinned by
/// the `fused_step_matches_reference_step` test below.
fn accumulate_clipped<E, M>(
    model: &mut M,
    batch: &[E],
    clip: f64,
    sizes: &[usize],
) -> (Vec<Vec<f64>>, f64)
where
    M: PerExampleModel<E>,
{
    let mut sums: Vec<Vec<f64>> = sizes.iter().map(|&n| vec![0.0; n]).collect();
    let mut total_loss = 0.0;
    // The fused pass below leaves every gradient buffer zeroed after each
    // example, so clearing any caller-left state once up front preserves
    // the trait's "the optimizer zeroes them first" contract.
    model.visit_blocks(&mut |b| b.zero_grad());
    for example in batch {
        total_loss += model.forward_backward(example);
        // Global L2 norm across all blocks, then clip scale.
        let mut sq = 0.0;
        model.visit_blocks(&mut |b| sq += b.grad_sq_norm());
        let norm = sq.sqrt();
        let scale = if norm > clip { clip / norm } else { 1.0 };
        let mut idx = 0;
        model.visit_blocks(&mut |b| {
            for (s, g) in sums[idx].iter_mut().zip(b.grads.iter_mut()) {
                *s += scale * *g;
                *g = 0.0;
            }
            idx += 1;
        });
    }
    (sums, total_loss)
}

/// The unfused serial-reference twin of `accumulate_clipped`: zero the
/// gradients, backward, norm pass, then a separate scale-and-add pass —
/// three traversals per example. Kept public so parity tests and the
/// microbenchmarks can pin the fused kernel against it.
pub fn accumulate_clipped_reference<E, M>(
    model: &mut M,
    batch: &[E],
    clip: f64,
    sizes: &[usize],
) -> (Vec<Vec<f64>>, f64)
where
    M: PerExampleModel<E>,
{
    let mut sums: Vec<Vec<f64>> = sizes.iter().map(|&n| vec![0.0; n]).collect();
    let mut total_loss = 0.0;
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
    (sums, total_loss)
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

    fn check(&self) {
        assert!(
            self.expected_batch > 0.0,
            "expected batch size must be positive"
        );
        assert!(self.clip > 0.0, "clip threshold must be positive");
    }

    /// Block shapes of `model` (stable order, per `visit_blocks`).
    fn block_sizes<E, M: PerExampleModel<E>>(&self, model: &mut M) -> Vec<usize> {
        let mut sizes = Vec::new();
        model.visit_blocks(&mut |b| sizes.push(b.len()));
        sizes
    }

    /// Noises the merged gradient sum (σ_d·C per coordinate), averages by
    /// the expected batch size, and applies the step to `model`.
    fn apply<E, M, R>(&self, model: &mut M, sums: &[Vec<f64>], rng: &mut R)
    where
        M: PerExampleModel<E>,
        R: Rng + ?Sized,
    {
        let noise_std = self.noise_multiplier
            * if self.clip.is_finite() {
                self.clip
            } else {
                0.0
            };
        let mut idx = 0;
        model.visit_blocks(&mut |b| {
            for (i, s) in sums[idx].iter().enumerate() {
                let noisy = s + if noise_std > 0.0 {
                    noise_std * standard_normal(rng)
                } else {
                    0.0
                };
                b.values[i] -= self.lr * noisy / self.expected_batch;
            }
            idx += 1;
        });
    }

    /// Runs one optimizer step on `batch`, returning the mean example loss
    /// (or 0.0 for an empty Poisson batch — the step still applies noise,
    /// as the mechanism requires).
    pub fn step<E, M, R>(&self, model: &mut M, batch: &[E], rng: &mut R) -> f64
    where
        M: PerExampleModel<E>,
        R: Rng + ?Sized,
    {
        self.step_with(model, batch, rng, accumulate_clipped)
    }

    /// [`DpSgd::step`] built on [`accumulate_clipped_reference`] — the
    /// unfused three-traversal kernel. Produces bit-identical parameters
    /// and loss to [`DpSgd::step`]; retained as the reference twin for
    /// the parity suite and the `micro_substrates` fused-vs-reference
    /// pair.
    pub fn step_reference<E, M, R>(&self, model: &mut M, batch: &[E], rng: &mut R) -> f64
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
    ) -> f64
    where
        M: PerExampleModel<E>,
        R: Rng + ?Sized,
    {
        self.check();
        let sizes = self.block_sizes::<E, _>(model);
        let mut sums: Vec<Vec<f64>> = sizes.iter().map(|&n| vec![0.0; n]).collect();
        let mut total_loss = 0.0;
        for micro in batch.chunks(MICROBATCH) {
            let (part, loss) = accumulate(model, micro, self.clip, &sizes);
            for (s, p) in sums.iter_mut().zip(&part) {
                for (a, b) in s.iter_mut().zip(p) {
                    *a += b;
                }
            }
            total_loss += loss;
        }
        self.apply::<E, _, _>(model, &sums, rng);
        if batch.is_empty() {
            0.0
        } else {
            total_loss / batch.len() as f64
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
        let (fused, fused_loss) = accumulate_clipped(&mut fused_model, &data, 1.0, &sizes);
        let (reference, ref_loss) =
            accumulate_clipped_reference(&mut ref_model, &data, 1.0, &sizes);
        assert_eq!(fused, reference);
        assert_eq!(fused_loss.to_bits(), ref_loss.to_bits());
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
        let loss = cfg.step::<f64, _, _>(&mut model, &[], &mut rng);
        assert_eq!(loss, 0.0);
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
                assert_eq!(lf.to_bits(), lr.to_bits());
            }
            assert_eq!(fused.w.values[0].to_bits(), reference.w.values[0].to_bits());
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
    }

    #[test]
    fn reports_mean_loss() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = Quad {
            w: ParamBlock::zeros(1),
        };
        let cfg = DpSgd::non_private(0.0, 2.0); // lr 0: loss unchanged
        let loss = cfg.step(&mut model, &[1.0, 3.0], &mut rng);
        assert!((loss - (0.5 + 4.5) / 2.0).abs() < 1e-12);
    }
}
