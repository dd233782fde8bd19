//! Output heads for the discriminative sub-models (§2.3): "a list of
//! prediction probabilities for all values of a target attribute with the
//! discrete domain, or the regression parameters (mean and std) of a
//! Gaussian distribution for a target attribute with a continuous domain."

use rand::Rng;

use crate::layers::Linear;
use crate::linalg::{matvec_t_acc, softmax_in_place};
use crate::loss::{gaussian_nll, softmax_cross_entropy};
use crate::param::ParamBlock;
use crate::scratch::Scratch;

/// Categorical head: `logits = W·v + b`, softmax prediction, cross-entropy
/// training loss.
#[derive(Debug, Clone)]
pub struct CategoricalHead {
    linear: Linear,
}

impl CategoricalHead {
    /// Head mapping a `dim`-dimensional context vector to `card` classes.
    pub fn new<R: Rng + ?Sized>(dim: usize, card: usize, rng: &mut R) -> CategoricalHead {
        CategoricalHead {
            linear: Linear::new(dim, card, rng),
        }
    }

    /// Rebuilds a head from its persisted linear layer (snapshot support).
    pub fn from_linear(linear: Linear) -> CategoricalHead {
        CategoricalHead { linear }
    }

    /// The underlying logit layer (snapshot support).
    pub fn linear(&self) -> &Linear {
        &self.linear
    }

    /// The logit layer, for DP-SGD's batched clip-and-sum kernel.
    pub fn linear_mut(&mut self) -> &mut Linear {
        &mut self.linear
    }

    /// Number of classes.
    pub fn card(&self) -> usize {
        self.linear.n_out()
    }

    /// Class probabilities for context vector `v`, written into `out`
    /// (length [`CategoricalHead::card`]; every element is overwritten).
    pub fn predict(&self, v: &[f64], out: &mut [f64]) {
        self.linear.forward(v, out);
        softmax_in_place(out);
    }

    /// Training step piece: computes the cross-entropy loss for `target`
    /// and accumulates parameter gradients; writes `∂L/∂v` into `dv`. The
    /// logit buffers are drawn from (and returned to) `scratch`.
    pub fn loss_backward(
        &mut self,
        v: &[f64],
        target: u32,
        dv: &mut [f64],
        scratch: &mut Scratch,
    ) -> f64 {
        let mut dlogits = scratch.take(self.card());
        let loss = self.loss_grad(v, target, &mut dlogits, dv, scratch);
        self.linear.backward(v, &dlogits, None);
        scratch.put(dlogits);
        loss
    }

    /// [`CategoricalHead::loss_backward`] in factored form, touching no
    /// gradient: returns the loss and writes `∂L/∂logits` into `dlogits`
    /// (the weight gradient is `dlogits ⊗ v`, the bias gradient
    /// `dlogits`) and `∂L/∂v` into `dv`.
    pub fn loss_grad(
        &self,
        v: &[f64],
        target: u32,
        dlogits: &mut [f64],
        dv: &mut [f64],
        scratch: &mut Scratch,
    ) -> f64 {
        let mut logits = scratch.take(self.card());
        self.linear.forward(v, &mut logits);
        let loss = softmax_cross_entropy(&logits, target as usize, dlogits);
        scratch.put(logits);
        dv.iter_mut().for_each(|x| *x = 0.0);
        matvec_t_acc(&self.linear.w.values, dlogits, dv);
        loss
    }

    /// Applies `f` to the head's parameter blocks.
    pub fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        self.linear.visit_blocks(f);
    }
}

/// Gaussian regression head: `μ = w_μ·v + b_μ`, `ln σ = clamp(w_σ·v + b_σ)`,
/// trained with Gaussian NLL. Sampling candidates for a continuous target
/// (Algorithm 3) draws from `N(μ, σ²)`.
#[derive(Debug, Clone)]
pub struct GaussianHead {
    linear: Linear, // 2 outputs: [μ, ln σ]
}

/// Clamp range for `ln σ`: σ ∈ [e^{−4}, e^{2}] ≈ [0.018, 7.4] in
/// standardized units, wide enough for any attribute and narrow enough to
/// keep NLL gradients bounded.
const LOG_SIGMA_RANGE: (f64, f64) = (-4.0, 2.0);

impl GaussianHead {
    /// Head mapping a `dim`-dimensional context vector to (μ, ln σ).
    pub fn new<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> GaussianHead {
        GaussianHead {
            linear: Linear::new(dim, 2, rng),
        }
    }

    /// Rebuilds a head from its persisted linear layer (snapshot support).
    pub fn from_linear(linear: Linear) -> GaussianHead {
        assert_eq!(linear.n_out(), 2, "Gaussian head needs exactly (μ, ln σ)");
        GaussianHead { linear }
    }

    /// The underlying (μ, ln σ) layer (snapshot support).
    pub fn linear(&self) -> &Linear {
        &self.linear
    }

    /// The (μ, ln σ) layer, for DP-SGD's batched clip-and-sum kernel.
    pub fn linear_mut(&mut self) -> &mut Linear {
        &mut self.linear
    }

    /// Predicted (μ, σ) in standardized units.
    pub fn predict(&self, v: &[f64]) -> (f64, f64) {
        let mut out = [0.0; 2];
        self.linear.forward(v, &mut out);
        let log_sigma = out[1].clamp(LOG_SIGMA_RANGE.0, LOG_SIGMA_RANGE.1);
        (out[0], log_sigma.exp())
    }

    /// Computes the Gaussian NLL of target `y` (standardized), accumulates
    /// parameter gradients, writes `∂L/∂v` into `dv`.
    pub fn loss_backward(&mut self, v: &[f64], y: f64, dv: &mut [f64]) -> f64 {
        let mut dout = [0.0; 2];
        let loss = self.loss_grad(v, y, &mut dout, dv);
        self.linear.backward(v, &dout, None);
        loss
    }

    /// [`GaussianHead::loss_backward`] in factored form, touching no
    /// gradient: returns the loss and writes `∂L/∂(μ, ln σ)` into `dout`
    /// (the weight gradient is `dout ⊗ v`, the bias gradient `dout`) and
    /// `∂L/∂v` into `dv`.
    pub fn loss_grad(&self, v: &[f64], y: f64, dout: &mut [f64], dv: &mut [f64]) -> f64 {
        let mut out = [0.0; 2];
        self.linear.forward(v, &mut out);
        let clamped = out[1].clamp(LOG_SIGMA_RANGE.0, LOG_SIGMA_RANGE.1);
        let (loss, dmu, dls) = gaussian_nll(out[0], clamped, y);
        // gradient does not flow through an active clamp
        let dls = if out[1] == clamped { dls } else { 0.0 };
        dout.copy_from_slice(&[dmu, dls]);
        dv.iter_mut().for_each(|x| *x = 0.0);
        matvec_t_acc(&self.linear.w.values, dout, dv);
        loss
    }

    /// Applies `f` to the head's parameter blocks.
    pub fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        self.linear.visit_blocks(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::finite_diff_check;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The class probabilities of `h` at `v`.
    fn probs(h: &CategoricalHead, v: &[f64]) -> Vec<f64> {
        let mut p = vec![0.0; h.card()];
        h.predict(v, &mut p);
        p
    }

    #[test]
    fn categorical_predict_is_distribution() {
        let mut rng = StdRng::seed_from_u64(0);
        let head = CategoricalHead::new(4, 5, &mut rng);
        let p = probs(&head, &[0.1, -0.3, 0.8, 0.0]);
        assert_eq!(p.len(), 5);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn categorical_gradcheck() {
        let mut rng = StdRng::seed_from_u64(1);
        let v = [0.2, -0.5, 0.9];
        let mut head = CategoricalHead::new(3, 4, &mut rng);
        finite_diff_check(
            &mut |h: &mut CategoricalHead| -probs(h, &v)[2].ln(),
            &mut |h: &mut CategoricalHead| {
                let mut dv = [0.0; 3];
                h.loss_backward(&v, 2, &mut dv, &mut Scratch::new());
            },
            &mut |h, f| h.visit_blocks(f),
            &mut head,
        );
    }

    #[test]
    fn categorical_dv_matches_fd() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut head = CategoricalHead::new(3, 4, &mut rng);
        let v = [0.2, -0.5, 0.9];
        let mut dv = [0.0; 3];
        head.loss_backward(&v, 1, &mut dv, &mut Scratch::new());
        let h = 1e-6;
        for i in 0..3 {
            let mut vp = v;
            vp[i] += h;
            let mut vm = v;
            vm[i] -= h;
            let lp = -probs(&head, &vp)[1].ln();
            let lm = -probs(&head, &vm)[1].ln();
            let num = (lp - lm) / (2.0 * h);
            assert!((num - dv[i]).abs() < 1e-5, "dv[{i}] {num} vs {}", dv[i]);
        }
    }

    #[test]
    fn training_categorical_head_fits_simple_mapping() {
        // v = [1,0] ⇒ class 0; v = [0,1] ⇒ class 1. A few hundred SGD steps
        // on the head alone must learn it.
        let mut rng = StdRng::seed_from_u64(3);
        let mut head = CategoricalHead::new(2, 2, &mut rng);
        let mut scratch = Scratch::new();
        for _ in 0..300 {
            for (v, t) in [([1.0, 0.0], 0u32), ([0.0, 1.0], 1u32)] {
                let mut dv = [0.0; 2];
                head.visit_blocks(&mut |b| b.zero_grad());
                head.loss_backward(&v, t, &mut dv, &mut scratch);
                head.visit_blocks(&mut |b| {
                    for i in 0..b.len() {
                        b.values[i] -= 0.5 * b.grads[i];
                    }
                });
            }
        }
        assert!(probs(&head, &[1.0, 0.0])[0] > 0.9);
        assert!(probs(&head, &[0.0, 1.0])[1] > 0.9);
    }

    #[test]
    fn gaussian_predict_positive_sigma() {
        let mut rng = StdRng::seed_from_u64(4);
        let head = GaussianHead::new(3, &mut rng);
        let (mu, sigma) = head.predict(&[0.5, -0.5, 0.2]);
        assert!(mu.is_finite());
        assert!(sigma > 0.0);
    }

    #[test]
    fn gaussian_gradcheck() {
        let mut rng = StdRng::seed_from_u64(5);
        let v = [0.4, 0.1, -0.6];
        let y = 0.9;
        let mut head = GaussianHead::new(3, &mut rng);
        finite_diff_check(
            &mut |h: &mut GaussianHead| {
                let (mu, sigma) = h.predict(&v);
                sigma.ln() + (y - mu) * (y - mu) / (2.0 * sigma * sigma)
            },
            &mut |h: &mut GaussianHead| {
                let mut dv = [0.0; 3];
                h.loss_backward(&v, y, &mut dv);
            },
            &mut |h, f| h.visit_blocks(f),
            &mut head,
        );
    }

    #[test]
    fn training_gaussian_head_recovers_mean() {
        // As σ approaches the clamp floor the μ-gradient grows like 1/σ²,
        // so unclipped fixed-lr SGD on a constant target diverges — the
        // same reason Algorithm 2 clips per-example gradients. Train with
        // an L2 clip like the real pipeline does.
        let mut rng = StdRng::seed_from_u64(6);
        let mut head = GaussianHead::new(2, &mut rng);
        let v = [1.0, 0.0];
        for t in 0..2000 {
            let mut dv = [0.0; 2];
            head.visit_blocks(&mut |b| b.zero_grad());
            head.loss_backward(&v, 1.7, &mut dv);
            let mut sq = 0.0;
            head.visit_blocks(&mut |b| sq += b.grad_sq_norm());
            let scale = (1.0 / sq.sqrt()).min(1.0);
            let lr = 0.1 / (1.0 + t as f64 / 200.0);
            head.visit_blocks(&mut |b| {
                for i in 0..b.len() {
                    b.values[i] -= lr * scale * b.grads[i];
                }
            });
        }
        let (mu, sigma) = head.predict(&v);
        assert!((mu - 1.7).abs() < 0.05, "mu {mu}");
        // constant target ⇒ σ shrinks toward the clamp floor
        assert!(sigma < 0.2, "sigma {sigma}");
    }
}
