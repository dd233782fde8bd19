//! MLP classifier on the shared neural substrate.

use kamino_nn::mlp::MlpCache;
use kamino_nn::{loss, Mlp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{majority, Classifier};

/// A one-hidden-layer MLP trained with minibatch SGD on BCE loss.
#[derive(Debug, Clone)]
pub struct MlpClassifier {
    /// Hidden width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f64,
    net: Option<Mlp>,
    fallback: bool,
}

impl Default for MlpClassifier {
    fn default() -> Self {
        MlpClassifier {
            hidden: 16,
            epochs: 40,
            batch: 16,
            lr: 0.3,
            net: None,
            fallback: false,
        }
    }
}

impl Classifier for MlpClassifier {
    fn name(&self) -> &'static str {
        "MLP"
    }

    fn fit(&mut self, x: &[Vec<f64>], y: &[bool], seed: u64) {
        self.fallback = majority(y);
        let d = x.first().map_or(1, Vec::len);
        // kamino-lint: allow(raw_rng) -- fixed-seed evaluation model; post-processing of already-released data
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3177);
        let mut net = Mlp::new(&[d, self.hidden, 1], &mut rng);
        let n = x.len();
        for _ in 0..self.epochs {
            for _ in 0..n.div_ceil(self.batch) {
                net.visit_blocks(&mut |b| b.zero_grad());
                let mut count = 0;
                for _ in 0..self.batch {
                    let i = rng.gen_range(0..n);
                    let mut cache = MlpCache::default();
                    let out = net.forward(&x[i], &mut cache);
                    let (_, dlogit) = loss::bce_with_logit(out[0], f64::from(y[i]));
                    net.backward(&cache, &[dlogit]);
                    count += 1;
                }
                let scale = self.lr / count as f64;
                net.visit_blocks(&mut |b| {
                    for i in 0..b.len() {
                        b.values[i] -= scale * b.grads[i];
                    }
                });
            }
        }
        self.net = Some(net);
    }

    fn predict_one(&self, x: &[f64]) -> bool {
        match &self.net {
            Some(net) => net.forward(x, &mut MlpCache::default())[0] > 0.0,
            None => self.fallback,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{blobs, train_accuracy, xor};
    use super::*;

    #[test]
    fn learns_blobs_and_xor() {
        let (x, y) = blobs(200, 1);
        assert!(train_accuracy(&mut MlpClassifier::default(), &x, &y) > 0.95);
        let (x, y) = xor(300, 2);
        let mut big = MlpClassifier {
            epochs: 120,
            ..Default::default()
        };
        assert!(train_accuracy(&mut big, &x, &y) > 0.85);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs(100, 3);
        let mut a = MlpClassifier::default();
        let mut b = MlpClassifier::default();
        a.fit(&x, &y, 5);
        b.fit(&x, &y, 5);
        for xi in &x {
            assert_eq!(a.predict_one(xi), b.predict_one(xi));
        }
    }
}
