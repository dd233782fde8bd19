//! DP-SGD — Algorithm 2 lines 11–16 of the paper.
//!
//! Each iteration Poisson-samples a batch, computes the gradient of each
//! example separately, clips every per-example gradient to global L2 norm
//! `C`, sums the clipped gradients, perturbs the sum with `N(0, σ_d²C²I)`,
//! divides by the *expected* batch size `b`, and takes a gradient step.
//! Plain SGD is recovered with `noise_multiplier = 0` and `clip = ∞`, so
//! private and non-private training share one code path (the ε = ∞ runs of
//! Figure 6 use exactly that).
//!
//! **One gradient sum per block.** Each [`ParamBlock`] keeps the step's
//! sum in one buffer, allocated on the block's first step and reused by
//! every later one. A step adds each clipped per-example gradient into it
//! in batch order, so that order alone fixes the floating-point sum; the
//! update re-zeroes what it consumed, and [`DpSgd::finish`] frees it.
//! [`DpSgd::step`] runs the model's
//! [`PerExampleModel::clip_and_sum`] to fill the sums. Its default is
//! the generic fused per-example kernel: one `forward_backward` into the
//! blocks' gradient buffers, a norm pass and a scale-add-and-rezero pass
//! per example. A model may override it with a whole-batch kernel that
//! keeps each example's gradient in factored form (a linear layer's
//! weight gradient as its `(dy, x)` pair, a table's as one row and a
//! short vector), reads each example's squared norm from the factors with
//! [`crate::linalg::add_outer_sq_norms`] and
//! [`crate::linalg::add_sq_norms`], and makes one pass per block with
//! [`ParamBlock::sum_dense`], [`ParamBlock::sum_outer`] and
//! [`ParamBlock::sum_rows`], each adding `scale_i · g_i` per coordinate
//! in batch order. Both fix the same sums, loss and work counts bit for
//! bit: every coordinate is computed as the backward pass writes it, and
//! every block's norm is folded in the generic kernel's block and
//! coordinate order. `kamino-core`'s sub-model trainer is the one model
//! that overrides it.
//!
//! **Deferred noise on row-sparse blocks.** An embedding table row that no
//! example reads for `k` steps would receive `k` independent noise draws
//! `−(lr/b)·σ_d·C·z` per coordinate and nothing else. Their sum is one
//! Gaussian with `k` times the variance, so a step adds no noise to a
//! row-sparse [`ParamBlock`]; it counts one more owed step instead. Before
//! a step's per-example passes, [`DpSgd::step`] *settles* every row the
//! batch will read (the model reports them through
//! [`PerExampleModel::visit_read_rows`]): it adds `−(lr/b)·σ_d·C·√k·z` to
//! each coordinate, one draw per coordinate however large `k` is. After
//! the last step, [`DpSgd::finish`] settles every row still owing noise.
//! No row is read while it owes noise (the fused kernel panics if one is),
//! and the final model is the release, so the released parameters have
//! exactly the distribution of the all-dense mechanism and the privacy
//! guarantee is unchanged. Dense blocks are noised in full every step.

use rand::Rng;

use kamino_dp::add_gaussian_noise;

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
    /// Calls `f(block, row)` for every row of a row-sparse block that
    /// `forward_backward(example)` will read, in a stable order, so DP-SGD
    /// can settle the row's deferred noise first. A model with only dense
    /// blocks reads no such row, which is the default. A model that leaves
    /// out a row it then writes makes a private step panic.
    fn visit_read_rows(&mut self, example: &E, f: &mut dyn FnMut(&mut ParamBlock, usize)) {
        let _ = (example, f);
    }
    /// The clip-and-sum kernel [`DpSgd::step`] runs: adds every clipped
    /// per-example gradient of `batch`, in batch order, into each block's
    /// gradient sum (allocated, `+0.0` on entry), and returns the total
    /// loss and the gradient coordinates visited, two per live coordinate
    /// per example. The default is the generic fused per-example kernel
    /// (see the module doc). A model that overrides it must produce the
    /// same sums, loss and count bit for bit, and mark the row-sparse rows
    /// it sums into as that kernel does.
    fn clip_and_sum(&mut self, batch: &[E], clip: f64) -> (f64, u64)
    where
        E: Sized,
    {
        accumulate_clipped(self, batch, clip)
    }
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

/// What one [`DpSgd::step`] (or [`DpSgd::finish`]) did: the mean example
/// loss plus deterministic work counts, taken where the work happens.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepReport {
    /// Mean example loss (0.0 for an empty Poisson batch).
    pub loss: f64,
    /// Gradient coordinates visited by the norm pass and the
    /// scale-accumulate pass: two per live coordinate (every coordinate of
    /// a dense block, the touched rows of a row-sparse one) per example,
    /// whether the kernel reads them from gradient buffers or, in a
    /// whole-batch kernel, from factors.
    pub coords_visited: u64,
    /// `N(0, 1)` draws made: one per parameter of every dense block, and
    /// one per coordinate of every row-sparse row settled. None when the
    /// noise multiplier is 0.
    pub noise_draws: u64,
    /// Row-sparse rows whose owed noise was settled.
    pub rows_settled: u64,
}

/// A clip-and-sum kernel: `(model, batch, clip) → total loss, coordinates
/// visited`, with the contract of [`PerExampleModel::clip_and_sum`].
type Accumulate<M, E> = fn(&mut M, &[E], f64) -> (f64, u64);

/// Adds the clipped per-example gradients of `batch` into each block's
/// gradient sum, returning the total loss and the coordinates visited.
///
/// This is the **fused, row-sparse** clip-and-accumulate kernel. After
/// each example's backward pass it makes two passes over the gradients
/// instead of the reference's three (zero, norm, scale-add): one computes
/// the global L2 norm, and a second fused one scales, accumulates into
/// the sums *and re-zeroes* the gradient buffers for the next example. Both
/// passes visit every coordinate of a dense block but only the touched
/// rows of a row-sparse block (an embedding table, where an example
/// touches one row), in ascending order. The per-sum arithmetic
/// (`s += scale · g` in block/index order) is exactly that of
/// [`accumulate_clipped_reference`] minus additions of exact zeros, so the
/// result is bit-identical (see [`ParamBlock`] for why each skip is an
/// identity); the parity is property-tested in `tests/proptest_kernels.rs`
/// and pinned by the `fused_step_matches_reference_step` test below.
fn accumulate_clipped<E, M>(model: &mut M, batch: &[E], clip: f64) -> (f64, u64)
where
    M: PerExampleModel<E> + ?Sized,
{
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
        model.visit_blocks(&mut |b| b.drain_scaled(scale));
    }
    (total_loss, visited)
}

/// The unfused, all-dense serial-reference twin of `accumulate_clipped`:
/// zero the gradients, backward, norm pass, then a separate scale-and-add
/// pass — three traversals of every coordinate per example, row-sparse
/// blocks included. [`DpSgd::step_reference`] runs it, so the parity tests
/// and the microbenchmarks can pin the fused kernel against it. Its visit
/// count covers the norm and scale-add passes, the two the fused kernel
/// also makes.
fn accumulate_clipped_reference<E, M>(model: &mut M, batch: &[E], clip: f64) -> (f64, u64)
where
    M: PerExampleModel<E>,
{
    let mut total_loss = 0.0;
    let mut per_example = 0;
    model.visit_blocks(&mut |b| per_example += 2 * b.len() as u64);
    for example in batch {
        model.visit_blocks(&mut |b| b.zero_grad());
        total_loss += model.forward_backward(example);
        let mut sq = 0.0;
        model.visit_blocks(&mut |b| sq += b.grad_sq_norm());
        let norm = sq.sqrt();
        let scale = if norm > clip { clip / norm } else { 1.0 };
        model.visit_blocks(&mut |b| b.add_scaled(scale));
    }
    (total_loss, per_example * batch.len() as u64)
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
        assert!(
            self.lr.is_finite() && self.lr >= 0.0,
            "learning rate must be finite and non-negative, got {}",
            self.lr
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

    /// Settles the noise `row` of `block` owes for its `k` unsettled
    /// private steps: [`add_gaussian_noise`] at sensitivity `C·√k` and
    /// σ_d draws the sum of their `k` Gaussians as one, into `z`, and the
    /// row takes it like [`DpSgd::apply`]'s update, `v −= lr · z / b`.
    /// Adds the draws to `report` (none for a settled row or a dense
    /// block).
    fn settle<R: Rng + ?Sized>(
        &self,
        block: &mut ParamBlock,
        row: usize,
        z: &mut Vec<f64>,
        report: &mut StepReport,
        rng: &mut R,
    ) {
        let owed = block.settle_row(row);
        let Some(w) = block.row_width().filter(|_| owed > 0) else {
            return;
        };
        z.clear();
        z.resize(w, 0.0);
        let sensitivity = self.clip * (owed as f64).sqrt();
        add_gaussian_noise(z, sensitivity, self.noise_multiplier, rng);
        for (v, z) in block.values[row * w..(row + 1) * w].iter_mut().zip(&*z) {
            *v -= self.lr * z / self.expected_batch;
        }
        report.noise_draws += w as u64;
        report.rows_settled += 1;
    }

    /// Noises the gradient sum of every dense block in place through the
    /// Gaussian mechanism ([`add_gaussian_noise`] at sensitivity `C` and
    /// σ_d, one call per block), counts the step as owed on every
    /// row-sparse block (see the module doc), averages by the expected
    /// batch size, and applies the step to `model`. Returns the number of
    /// `N(0, 1)` draws made.
    fn apply<E, M, R>(&self, model: &mut M, rng: &mut R) -> u64
    where
        M: PerExampleModel<E>,
        R: Rng + ?Sized,
    {
        let mut draws = 0;
        model.visit_blocks(&mut |b| {
            // `check` guarantees a finite clip whenever noise is on.
            if self.noise_multiplier > 0.0 {
                if b.row_width().is_some() {
                    b.owe_step();
                } else {
                    let sums = b.sums_mut();
                    add_gaussian_noise(sums, self.clip, self.noise_multiplier, rng);
                    draws += sums.len() as u64;
                }
            }
            b.descend(self.lr, self.expected_batch);
        });
        draws
    }

    /// Runs one optimizer step on `batch` with the model's
    /// [`PerExampleModel::clip_and_sum`], returning the mean example loss
    /// (or 0.0 for an empty Poisson batch — the step still noises, or owes
    /// noise on, every parameter, as the mechanism requires) and the
    /// step's work counts. Call [`DpSgd::finish`] after the last step.
    pub fn step<E, M, R>(&self, model: &mut M, batch: &[E], rng: &mut R) -> StepReport
    where
        M: PerExampleModel<E>,
        R: Rng + ?Sized,
    {
        self.step_with(model, batch, rng, M::clip_and_sum)
    }

    /// [`DpSgd::step`] built on `accumulate_clipped_reference` — the
    /// unfused, all-dense three-traversal kernel over `forward_backward`,
    /// whatever `clip_and_sum` the model has. Produces bit-identical
    /// parameters, loss and noise draws to [`DpSgd::step`]; retained as
    /// the reference twin for the parity suites and the `micro_substrates`
    /// pairs.
    pub fn step_reference<E, M, R>(&self, model: &mut M, batch: &[E], rng: &mut R) -> StepReport
    where
        M: PerExampleModel<E>,
        R: Rng + ?Sized,
    {
        self.step_with(model, batch, rng, accumulate_clipped_reference)
    }

    /// Settles every row of `model`'s row-sparse blocks that still owes
    /// noise, in block order and then row order, so the trained model
    /// carries the noise of every step, and frees every block's gradient
    /// sum. Call it once after the last step, with the configuration the
    /// steps ran under, and before the model is read or released.
    pub fn finish<E, M, R>(&self, model: &mut M, rng: &mut R) -> StepReport
    where
        M: PerExampleModel<E>,
        R: Rng + ?Sized,
    {
        self.check();
        let mut report = StepReport::default();
        let mut z = Vec::new();
        model.visit_blocks(&mut |b| {
            b.free_sums();
            let Some(w) = b.row_width() else { return };
            for row in 0..b.len() / w {
                self.settle(b, row, &mut z, &mut report, rng);
            }
        });
        report
    }

    /// One step with `accumulate` as the clip-and-sum kernel: settle the
    /// rows the batch reads, allocate any block's gradient sum on its
    /// first step, accumulate the batch into the sums, then noise and
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
        let mut report = StepReport::default();
        let mut z = Vec::new();
        for example in batch {
            model.visit_read_rows(example, &mut |b, row| {
                self.settle(b, row, &mut z, &mut report, rng)
            });
        }
        model.visit_blocks(&mut |b| b.alloc_sums());
        let (total_loss, visited) = accumulate(model, batch, self.clip);
        report.coords_visited = visited;
        report.noise_draws += self.apply::<E, _, _>(model, rng);
        if !batch.is_empty() {
            report.loss = total_loss / batch.len() as f64;
        }
        report
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
        // direct twin pairing: the fused two-pass accumulate must leave the
        // same gradient sums, bit for bit, as the three-pass reference, on
        // a row-sparse table and a dense block alike
        let data: Vec<(u32, f64)> = [(1, 0.5), (3, -3.0), (1, 250.0), (0, 0.25), (3, 0.0)].into();
        let mut fused = Biased {
            lookup: lookup(5, 3),
            bias: ParamBlock::from_values(vec![0.1, -0.2, 0.3]),
        };
        let mut reference = fused.clone();
        let sums = |m: &mut Biased| -> Vec<Vec<u64>> {
            let mut out = Vec::new();
            m.visit_blocks(&mut |b| out.push(b.sums_mut().iter().map(|s| s.to_bits()).collect()));
            out
        };
        for m in [&mut fused, &mut reference] {
            m.visit_blocks(&mut |b| b.alloc_sums());
        }
        let (fused_loss, fused_visits) = accumulate_clipped(&mut fused, &data, 1.0);
        let (ref_loss, ref_visits) = accumulate_clipped_reference(&mut reference, &data, 1.0);
        let fused_sums = sums(&mut fused);
        assert_eq!(fused_sums, sums(&mut reference));
        assert_eq!(fused_loss.to_bits(), ref_loss.to_bits());
        // both blocks summed something, and the table's unread rows nothing
        assert!(fused_sums.iter().all(|s| s.iter().any(|&b| b != 0)));
        assert!(fused_sums[0][2 * 3..3 * 3].iter().all(|&b| b == 0));
        // the fused kernel visits one table row and the bias per example,
        // twice; the reference visits every coordinate twice
        assert_eq!((fused_visits, ref_visits), (5 * 2 * 6, 5 * 2 * 18));
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
    fn dense_noise_has_the_calibrated_per_coordinate_std() {
        // Every coordinate of a 64-wide dense block must move by
        // lr·σ_d·C/b in std on an empty batch, and adjacent coordinates
        // (consecutive draws) must be uncorrelated: a dropped draw zeroes
        // a coordinate's std, a draw added twice doubles it, and one
        // reused across coordinates correlates them.
        struct Dense {
            w: ParamBlock,
        }
        impl PerExampleModel<()> for Dense {
            fn forward_backward(&mut self, _: &()) -> f64 {
                0.0
            }
            fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
                f(&mut self.w);
            }
        }
        let cfg = DpSgd {
            clip: 2.0,
            noise_multiplier: 1.5,
            lr: 0.1,
            expected_batch: 4.0,
        };
        let want = cfg.lr * cfg.noise_multiplier * cfg.clip / cfg.expected_batch;
        let mut rng = StdRng::seed_from_u64(31);
        let mut model = Dense {
            w: ParamBlock::zeros(64),
        };
        let steps = 5000;
        let mut updates = vec![Vec::new(); 64];
        for _ in 0..steps {
            let before = model.w.values.clone();
            let step = cfg.step::<(), _, _>(&mut model, &[], &mut rng);
            assert_eq!(step.noise_draws, 64);
            for (i, (a, b)) in model.w.values.iter().zip(&before).enumerate() {
                updates[i].push(a - b);
            }
        }
        for (i, u) in updates.iter().enumerate() {
            let (_, std) = moments(u);
            assert!(
                (std / want - 1.0).abs() < 0.05,
                "coordinate {i}: std {std}, expected {want}"
            );
        }
        for pair in updates.chunks(2) {
            let corr = correlation(&pair[0], &pair[1]);
            assert!(corr.abs() < 0.07, "adjacent coordinates correlate: {corr}");
        }
    }

    /// Sample mean and standard deviation.
    fn moments(u: &[f64]) -> (f64, f64) {
        let mean = u.iter().sum::<f64>() / u.len() as f64;
        let var = u.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / u.len() as f64;
        (mean, var.sqrt())
    }

    /// Sample correlation of two equally long series.
    fn correlation(a: &[f64], b: &[f64]) -> f64 {
        let ((ma, sa), (mb, sb)) = (moments(a), moments(b));
        let cov = a
            .iter()
            .zip(b)
            .map(|(x, y)| (x - ma) * (y - mb))
            .sum::<f64>()
            / a.len() as f64;
        cov / (sa * sb)
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
        fn visit_read_rows(
            &mut self,
            &(code, _): &(u32, f64),
            f: &mut dyn FnMut(&mut ParamBlock, usize),
        ) {
            self.emb.visit_row(code, f);
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

    /// [`Lookup`] plus a dense bias: loss(code, y) = ‖e_code + bias −
    /// y‖²/2, so an example's gradient lives in one row and the bias.
    #[derive(Clone)]
    struct Biased {
        lookup: Lookup,
        bias: ParamBlock,
    }

    impl PerExampleModel<(u32, f64)> for Biased {
        fn forward_backward(&mut self, &(code, y): &(u32, f64)) -> f64 {
            let emb = &mut self.lookup.emb;
            let dz: Vec<f64> = emb
                .forward(code)
                .iter()
                .zip(&self.bias.values)
                .map(|(e, b)| e + b - y)
                .collect();
            emb.backward(code, &dz);
            for (g, d) in self.bias.grads.iter_mut().zip(&dz) {
                *g += d;
            }
            0.5 * dz.iter().map(|d| d * d).sum::<f64>()
        }
        fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
            self.lookup.visit_blocks(f);
            f(&mut self.bias);
        }
        fn visit_read_rows(
            &mut self,
            example: &(u32, f64),
            f: &mut dyn FnMut(&mut ParamBlock, usize),
        ) {
            self.lookup.visit_read_rows(example, f);
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
            for step in 0..5 {
                let f = cfg.step(&mut fused, &batch, &mut rng_f);
                let r = cfg.step_reference(&mut reference, &batch, &mut rng_r);
                assert_eq!(f.loss.to_bits(), r.loss.to_bits());
                // one 4-wide row per example, twice, against the whole
                // 50×4 table twice
                assert_eq!(f.coords_visited, 40 * 2 * 4);
                assert_eq!(r.coords_visited, 40 * 2 * 200);
                // the batch reads 11 distinct rows, each owing the one
                // step before it (the first step owes nothing)
                let settled = if noise > 0.0 && step > 0 { 11 } else { 0 };
                assert_eq!((f.rows_settled, r.rows_settled), (settled, settled));
                assert_eq!((f.noise_draws, r.noise_draws), (4 * settled, 4 * settled));
            }
            // after the last step every one of the 50 rows owes noise
            let f = cfg.finish(&mut fused, &mut rng_f);
            let r = cfg.finish(&mut reference, &mut rng_r);
            let settled = if noise > 0.0 { 50 } else { 0 };
            assert_eq!((f.rows_settled, r.rows_settled), (settled, settled));
            assert_eq!((f.noise_draws, r.noise_draws), (4 * settled, 4 * settled));
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

    /// One embedding table whose examples read a row and write it a zero
    /// gradient, so that without noise no value ever moves. Each read
    /// records the row as the forward pass saw it.
    struct Probe {
        emb: crate::layers::Embedding,
        seen: Vec<(u32, Vec<f64>)>,
    }

    impl PerExampleModel<u32> for Probe {
        fn forward_backward(&mut self, &code: &u32) -> f64 {
            let row = self.emb.forward(code).to_vec();
            self.emb.backward(code, &vec![0.0; row.len()]);
            self.seen.push((code, row));
            0.0
        }
        fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
            self.emb.visit_blocks(f);
        }
        fn visit_read_rows(&mut self, &code: &u32, f: &mut dyn FnMut(&mut ParamBlock, usize)) {
            self.emb.visit_row(code, f);
        }
    }

    #[test]
    fn deferred_noise_has_the_dense_distribution_at_every_read_and_at_the_end() {
        // Row 0 is read at steps 0 and 5, row 1 at step 2, row 2 at step
        // 7, row 3 never. With zero gradients the noise-free trajectory is
        // the initial table, so a coordinate read at step t must have
        // deviated by the dense mechanism's t steps of noise, std
        // lr·σ_d·C/b·√t, and after `finish` every coordinate by all T of
        // them. Adjacent coordinates (consecutive draws) must be
        // uncorrelated. A dropped settle or `finish` leaves rows
        // short of noise; settling at sensitivity C·k instead of C·√k
        // gives a row read at step t too much by √t.
        let cfg = DpSgd {
            clip: 2.0,
            noise_multiplier: 1.5,
            lr: 0.1,
            expected_batch: 4.0,
        };
        let per_step = cfg.lr * cfg.noise_multiplier * cfg.clip / cfg.expected_batch;
        let (rows, width, steps) = (4, 3, 8);
        let schedule: [&[u32]; 8] = [&[0], &[], &[1], &[], &[], &[0], &[], &[2]];
        let init: Vec<f64> = (0..rows * width).map(|i| i as f64 / 8.0 - 0.75).collect();
        let trials = 4000;
        // deviations per (read index, coordinate in the row), and per
        // table coordinate after `finish`
        let mut at_read = vec![vec![Vec::new(); width]; 4];
        let mut at_end = vec![Vec::new(); rows * width];
        for trial in 0..trials {
            let mut rng = StdRng::seed_from_u64(trial);
            let mut model = Probe {
                emb: crate::layers::Embedding::from_values(rows, width, init.clone()),
                seen: Vec::new(),
            };
            for batch in schedule {
                cfg.step(&mut model, batch, &mut rng);
            }
            let done = cfg.finish(&mut model, &mut rng);
            assert_eq!(
                done.rows_settled, rows as u64,
                "every row owes the last step"
            );
            for (read, (code, row)) in model.seen.iter().enumerate() {
                let base = *code as usize * width;
                for (k, v) in row.iter().enumerate() {
                    at_read[read][k].push(v - init[base + k]);
                }
            }
            for (i, v) in model.emb.table.values.iter().enumerate() {
                at_end[i].push(v - init[i]);
            }
        }
        let read_steps = [0, 2, 5, 7];
        for (read, coords) in at_read.iter().enumerate() {
            let want = per_step * (read_steps[read] as f64).sqrt();
            for (k, u) in coords.iter().enumerate() {
                let (_, std) = moments(u);
                if want == 0.0 {
                    assert_eq!(std, 0.0, "read {read}: a step-0 read owes nothing");
                } else {
                    assert!(
                        (std / want - 1.0).abs() < 0.05,
                        "read {read} (step {}), coordinate {k}: std {std}, expected {want}",
                        read_steps[read]
                    );
                }
            }
            if want > 0.0 {
                let corr = correlation(&coords[0], &coords[1]);
                assert!(
                    corr.abs() < 0.07,
                    "read {read}: adjacent coordinates correlate: {corr}"
                );
            }
        }
        let want = per_step * (steps as f64).sqrt();
        for (i, u) in at_end.iter().enumerate() {
            let (_, std) = moments(u);
            assert!(
                (std / want - 1.0).abs() < 0.05,
                "coordinate {i} after finish: std {std}, expected {want}"
            );
        }
        for row in at_end.chunks(width) {
            let corr = correlation(&row[0], &row[1]);
            assert!(
                corr.abs() < 0.07,
                "adjacent coordinates correlate after finish: {corr}"
            );
        }
    }

    /// [`Lookup`] without [`PerExampleModel::visit_read_rows`]: it reads
    /// rows the optimizer is never told about.
    struct Unreported(Lookup);

    impl PerExampleModel<(u32, f64)> for Unreported {
        fn forward_backward(&mut self, example: &(u32, f64)) -> f64 {
            self.0.forward_backward(example)
        }
        fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
            self.0.visit_blocks(f);
        }
    }

    #[test]
    #[should_panic(expected = "while it owes 1 steps of DP-SGD noise")]
    fn reading_a_row_that_owes_noise_panics() {
        let cfg = DpSgd {
            clip: 1.0,
            noise_multiplier: 1.1,
            lr: 0.1,
            expected_batch: 2.0,
        };
        let mut model = Unreported(lookup(5, 3));
        let mut rng = StdRng::seed_from_u64(37);
        // the first step owes nothing; the second reads an owing row
        for _ in 0..2 {
            cfg.step(&mut model, &[(2, 0.5)], &mut rng);
        }
    }

    /// The step before noise was deferred, written out densely: per
    /// example zero, backward, norm and scale-add over every coordinate
    /// into one flat sum in batch order; every coordinate updated.
    /// Noise-free only.
    fn dense_non_private_step<E, M: PerExampleModel<E>>(cfg: &DpSgd, model: &mut M, batch: &[E]) {
        let mut sums = Vec::new();
        model.visit_blocks(&mut |b| sums.push(vec![0.0; b.len()]));
        for example in batch {
            model.visit_blocks(&mut |b| b.zero_grad());
            model.forward_backward(example);
            let mut sq = 0.0;
            model.visit_blocks(&mut |b| sq += b.grad_sq_norm());
            let norm = sq.sqrt();
            let scale = if norm > cfg.clip {
                cfg.clip / norm
            } else {
                1.0
            };
            let mut idx = 0;
            model.visit_blocks(&mut |b| {
                for (s, g) in sums[idx].iter_mut().zip(&b.grads) {
                    *s += scale * g;
                }
                idx += 1;
            });
        }
        let mut idx = 0;
        model.visit_blocks(&mut |b| {
            for (v, s) in b.values.iter_mut().zip(&sums[idx]) {
                *v -= cfg.lr * s / cfg.expected_batch;
            }
            idx += 1;
        });
    }

    #[test]
    fn non_private_steps_draw_nothing_and_match_the_dense_step_bit_for_bit() {
        // 40 examples over a table with signed zeros in it, where most
        // rows are never read: the sparse update must leave every
        // untouched value's bits alone. Each example has its own target,
        // so the examples that share a row add distinct gradients, whose
        // sum depends on its grouping; and `lr/b` is large enough that a
        // last-bit change in a sum still reaches the updated values (at
        // 0.1/32 it rounds away, and a 16-example regrouping passed).
        let batch: Vec<(u32, f64)> = (0..40)
            .map(|i| ((i * 7 % 11) as u32, (i % 13) as f64 / 6.0 - 1.0))
            .collect();
        let cfg = DpSgd {
            clip: 0.5,
            noise_multiplier: 0.0,
            lr: 0.5,
            expected_batch: 2.0,
        };
        let mut sparse = lookup(50, 4);
        for (i, v) in sparse.emb.table.values.iter_mut().enumerate() {
            if i % 5 == 0 {
                *v = -0.0;
            }
        }
        let mut dense = sparse.clone();
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..5 {
            let step = cfg.step(&mut sparse, &batch, &mut rng);
            assert_eq!((step.noise_draws, step.rows_settled), (0, 0));
            dense_non_private_step(&cfg, &mut dense, &batch);
        }
        let done = cfg.finish(&mut sparse, &mut rng);
        assert_eq!((done.noise_draws, done.rows_settled), (0, 0));
        assert!(
            sparse.emb.table.sums_mut().is_empty(),
            "finish frees the sum"
        );
        let bits =
            |m: &Lookup| -> Vec<u64> { m.emb.table.values.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&sparse), bits(&dense));
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
    #[should_panic(expected = "learning rate must be finite and non-negative")]
    fn negative_learning_rate_is_rejected() {
        // the sparse update skips untouched rows because `v − lr·(+0.0)/b`
        // is `v`, which needs `lr ≥ 0`
        let mut model = Quad {
            w: ParamBlock::zeros(1),
        };
        DpSgd::non_private(-0.1, 1.0).step(&mut model, &[1.0], &mut StdRng::seed_from_u64(43));
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
