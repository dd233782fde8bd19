//! Small ReLU MLPs.
//!
//! The DP-VAE and PATE-GAN baselines and the MLP classifier in the
//! evaluation stack all need a generic feed-forward network. Hidden layers
//! use ReLU; the output layer is linear (callers attach the loss).

use rand::Rng;

use crate::layers::Linear;
use crate::param::ParamBlock;

/// A feed-forward network `linear → relu → … → linear`.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

/// Forward activations cached for backward.
#[derive(Debug, Clone, Default)]
pub struct MlpCache {
    /// `acts[0]` is the input; `acts[i]` the post-activation output of
    /// layer `i−1` (post-ReLU for hidden layers, raw for the last).
    acts: Vec<Vec<f64>>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[8, 16, 16, 4]` for
    /// an 8-input, 4-output network with two hidden layers of 16.
    pub fn new<R: Rng + ?Sized>(widths: &[usize], rng: &mut R) -> Mlp {
        assert!(
            widths.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        self.layers[0].n_in()
    }

    /// Output width.
    pub fn n_out(&self) -> usize {
        self.layers.last().unwrap().n_out()
    }

    /// Runs the network, filling `cache` for a later [`Mlp::backward`].
    /// Returns the output activation.
    ///
    /// Reusing the same `cache` across calls also reuses its activation
    /// buffers, so steady-state forward passes only allocate the returned
    /// output vector.
    pub fn forward(&self, x: &[f64], cache: &mut MlpCache) -> Vec<f64> {
        let n = self.layers.len();
        cache.acts.resize_with(n + 1, Vec::new);
        cache.acts[0].clear();
        cache.acts[0].extend_from_slice(x);
        let last = n - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let (prev, rest) = cache.acts.split_at_mut(i + 1);
            let out = &mut rest[0];
            out.clear();
            out.resize(layer.n_out(), 0.0);
            layer.forward(&prev[i], out);
            if i != last {
                // ReLU in place: the cache stores the post-activation value
                for v in out.iter_mut() {
                    *v = v.max(0.0);
                }
            }
        }
        cache.acts[n].clone()
    }

    /// Backpropagates `dout` (gradient at the network output), accumulating
    /// parameter gradients, and returns the gradient at the input.
    pub fn backward(&mut self, cache: &MlpCache, dout: &[f64]) -> Vec<f64> {
        assert_eq!(
            cache.acts.len(),
            self.layers.len() + 1,
            "cache does not match forward"
        );
        let mut grad = dout.to_vec();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            // ReLU backward for hidden layers (the cached act is post-ReLU)
            if i != last {
                let act = &cache.acts[i + 1];
                for (g, &a) in grad.iter_mut().zip(act) {
                    *g = if a > 0.0 { *g } else { 0.0 };
                }
            }
            let mut dx = vec![0.0; layer.n_in()];
            layer.backward(&cache.acts[i], &grad, Some(&mut dx));
            grad = dx;
        }
        grad
    }

    /// Applies `f` to every layer's parameter blocks.
    pub fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        for layer in &mut self.layers {
            layer.visit_blocks(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::finite_diff_check;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A forward pass through a fresh cache.
    fn infer(mlp: &Mlp, x: &[f64]) -> Vec<f64> {
        mlp.forward(x, &mut MlpCache::default())
    }

    #[test]
    fn shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[3, 8, 2], &mut rng);
        assert_eq!(mlp.n_in(), 3);
        assert_eq!(mlp.n_out(), 2);
        assert_eq!(infer(&mlp, &[0.1, 0.2, 0.3]).len(), 2);
    }

    #[test]
    fn reused_cache_matches_a_fresh_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&[4, 6, 3], &mut rng);
        let x = [0.5, -0.5, 0.2, 0.9];
        let mut cache = MlpCache::default();
        mlp.forward(&[1.0, 2.0, 3.0, 4.0], &mut cache);
        assert_eq!(mlp.forward(&x, &mut cache), infer(&mlp, &x));
    }

    #[test]
    fn gradcheck_two_hidden_layers() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = [0.3, -0.8, 0.5];
        let mut mlp = Mlp::new(&[3, 5, 4, 2], &mut rng);
        finite_diff_check(
            &mut |m: &mut Mlp| {
                let y = infer(m, &x);
                0.5 * y.iter().map(|v| v * v).sum::<f64>()
            },
            &mut |m: &mut Mlp| {
                let mut cache = MlpCache::default();
                let y = m.forward(&x, &mut cache);
                m.backward(&cache, &y);
            },
            &mut |m, f| m.visit_blocks(f),
            &mut mlp,
        );
    }

    #[test]
    fn input_gradient_matches_fd() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&[2, 4, 1], &mut rng);
        let x = [0.7, -0.2];
        let mut cache = MlpCache::default();
        let y = mlp.forward(&x, &mut cache);
        let dx = mlp.backward(&cache, &[y[0]]);
        let h = 1e-6;
        for i in 0..2 {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let lp = 0.5 * infer(&mlp, &xp)[0].powi(2);
            let lm = 0.5 * infer(&mlp, &xm)[0].powi(2);
            let num = (lp - lm) / (2.0 * h);
            assert!((num - dx[i]).abs() < 1e-5, "dx[{i}] {num} vs {}", dx[i]);
        }
    }

    #[test]
    fn learns_xor() {
        // the classic nonlinear sanity check: XOR is not linearly separable
        let mut rng = StdRng::seed_from_u64(1);
        let mut mlp = Mlp::new(&[2, 8, 1], &mut rng);
        let data = [
            ([0.0, 0.0], 0.0),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        for _ in 0..3000 {
            for (x, t) in data {
                let mut cache = MlpCache::default();
                let y = mlp.forward(&x, &mut cache);
                let (_, dlogit) = crate::loss::bce_with_logit(y[0], t);
                mlp.visit_blocks(&mut |b| b.zero_grad());
                mlp.backward(&cache, &[dlogit]);
                mlp.visit_blocks(&mut |b| {
                    for i in 0..b.len() {
                        b.values[i] -= 0.5 * b.grads[i];
                    }
                });
            }
        }
        for (x, t) in data {
            let p = 1.0 / (1.0 + (-infer(&mlp, &x)[0]).exp());
            assert!((p - t).abs() < 0.2, "xor({x:?}) predicted {p}, want {t}");
        }
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn rejects_degenerate_widths() {
        let mut rng = StdRng::seed_from_u64(0);
        Mlp::new(&[3], &mut rng);
    }
}
