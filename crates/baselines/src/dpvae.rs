//! DP-VAE (Chen et al., "Differentially Private Data Generative Models").
//!
//! A variational auto-encoder over the mixed one-hot/standardized encoding,
//! trained with DP-SGD (per-example clipping + Gaussian noise, the same
//! optimizer Kamino's sub-models use). Synthesis decodes latent-prior
//! samples `z ∼ N(0, I)`; tuples are therefore i.i.d., which is why DP-VAE
//! shows the largest DC-violation rates in Table 2.

use kamino_data::encode::Segment;
use kamino_data::{Instance, MixedEncoder, Schema};
use kamino_dp::normal::standard_normal;
use kamino_dp::{calibrate_sgm_sigma, poisson_sample, Budget};
use kamino_nn::mlp::MlpCache;
use kamino_nn::{loss, DpSgd, Mlp, ParamBlock, PerExampleModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Synthesizer;

/// DP-VAE configuration.
#[derive(Debug, Clone)]
pub struct DpVae {
    /// Latent dimension.
    pub latent: usize,
    /// Hidden width of encoder/decoder.
    pub hidden: usize,
    /// DP-SGD steps.
    pub steps: usize,
    /// Expected batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f64,
    /// Per-example clip.
    pub clip: f64,
    /// KL term weight (β-VAE style; 1.0 = plain VAE).
    pub kl_weight: f64,
}

impl Default for DpVae {
    fn default() -> Self {
        DpVae {
            latent: 8,
            hidden: 48,
            steps: 400,
            batch: 32,
            lr: 0.08,
            clip: 1.0,
            kl_weight: 0.4,
        }
    }
}

const LOGVAR_RANGE: (f64, f64) = (-6.0, 4.0);

/// One training example: the encoded row plus the reparameterization noise
/// (pre-sampled so `forward_backward` stays deterministic given the batch).
struct VaeExample {
    x: Vec<f64>,
    eps: Vec<f64>,
}

struct VaeModel {
    enc: Mlp, // dim → hidden → 2·latent
    dec: Mlp, // latent → hidden → dim
    latent: usize,
    segments: Vec<Segment>,
    kl_weight: f64,
}

impl VaeModel {
    /// Reconstruction loss and its gradient at the decoder output:
    /// cross-entropy per categorical block, ½-MSE per numeric slot.
    fn recon_loss(&self, y: &[f64], x: &[f64], dy: &mut [f64]) -> f64 {
        let mut total = 0.0;
        for seg in &self.segments {
            match seg {
                Segment::Cat { offset, card } => {
                    let target = x[*offset..offset + card]
                        .iter()
                        .position(|&v| v == 1.0)
                        .expect("one-hot block has a hot slot");
                    total += loss::softmax_cross_entropy(
                        &y[*offset..offset + card],
                        target,
                        &mut dy[*offset..offset + card],
                    );
                }
                Segment::Num { offset, .. } => {
                    let e = y[*offset] - x[*offset];
                    dy[*offset] = e;
                    total += 0.5 * e * e;
                }
            }
        }
        total
    }
}

impl PerExampleModel<VaeExample> for VaeModel {
    fn forward_backward(&mut self, ex: &VaeExample) -> f64 {
        let l = self.latent;
        let mut enc_cache = MlpCache::default();
        let h = self.enc.forward(&ex.x, &mut enc_cache);
        let (mu, logvar_raw) = h.split_at(l);
        let logvar: Vec<f64> = logvar_raw
            .iter()
            .map(|&v| v.clamp(LOGVAR_RANGE.0, LOGVAR_RANGE.1))
            .collect();
        let std: Vec<f64> = logvar.iter().map(|&v| (0.5 * v).exp()).collect();
        let z: Vec<f64> = (0..l).map(|i| mu[i] + std[i] * ex.eps[i]).collect();

        let mut dec_cache = MlpCache::default();
        let y = self.dec.forward(&z, &mut dec_cache);
        let mut dy = vec![0.0; y.len()];
        let recon = self.recon_loss(&y, &ex.x, &mut dy);
        let dz = self.dec.backward(&dec_cache, &dy);

        // KL(q(z|x) ‖ N(0, I)) = ½ Σ (μ² + e^logvar − 1 − logvar)
        let kl: f64 = (0..l)
            .map(|i| 0.5 * (mu[i] * mu[i] + logvar[i].exp() - 1.0 - logvar[i]))
            .sum();
        let mut dh = vec![0.0; 2 * l];
        for i in 0..l {
            dh[i] = dz[i] + self.kl_weight * mu[i];
            // gradient flows through logvar only when the clamp is inactive
            if logvar_raw[l + i - l] == logvar[i] {
                dh[l + i] = dz[i] * 0.5 * std[i] * ex.eps[i]
                    + self.kl_weight * 0.5 * (logvar[i].exp() - 1.0);
            }
        }
        self.enc.backward(&enc_cache, &dh);
        recon + self.kl_weight * kl
    }

    fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        self.enc.visit_blocks(f);
        self.dec.visit_blocks(f);
    }
}

impl Synthesizer for DpVae {
    fn name(&self) -> &'static str {
        "DP-VAE"
    }

    fn synthesize(
        &self,
        schema: &Schema,
        instance: &Instance,
        budget: Budget,
        n_out: usize,
        seed: u64,
    ) -> Instance {
        // kamino-lint: allow(raw_rng) -- baseline stream derived from the caller-provided session seed; privacy accounted by the planner
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD7AE);
        let enc = MixedEncoder::new(schema);
        let n = instance.n_rows();
        let dim = enc.dim();
        let mut model = VaeModel {
            enc: Mlp::new(&[dim, self.hidden, 2 * self.latent], &mut rng),
            dec: Mlp::new(&[self.latent, self.hidden, dim], &mut rng),
            latent: self.latent,
            segments: enc.segments().to_vec(),
            kl_weight: self.kl_weight,
        };

        let q = (self.batch as f64 / n.max(1) as f64).min(1.0);
        let sigma = if budget.is_non_private() {
            0.0
        } else {
            calibrate_sgm_sigma(budget.epsilon, budget.delta, q, self.steps as u64)
        };
        let opt = DpSgd {
            clip: self.clip,
            noise_multiplier: sigma,
            lr: self.lr,
            expected_batch: self.batch as f64,
        };
        let encoded: Vec<Vec<f64>> = (0..n).map(|i| enc.encode_row(instance, i)).collect();
        for _ in 0..self.steps {
            let ids = poisson_sample(n, q, &mut rng);
            let batch: Vec<VaeExample> = ids
                .iter()
                .map(|&i| VaeExample {
                    x: encoded[i].clone(),
                    eps: (0..self.latent)
                        .map(|_| standard_normal(&mut rng))
                        .collect(),
                })
                .collect();
            opt.step(&mut model, &batch, &mut rng);
        }
        opt.finish(&mut model, &mut rng);

        // decode latent-prior samples
        let mut out = Instance::zeroed(schema, n_out);
        for i in 0..n_out {
            let z: Vec<f64> = (0..self.latent)
                .map(|_| standard_normal(&mut rng))
                .collect();
            let y = model.dec.forward(&z, &mut MlpCache::default());
            let row = enc.decode_sampled(schema, &y, &mut rng);
            for (j, v) in row.into_iter().enumerate() {
                out.set(i, j, v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamino_data::stats::{histogram, normalize};
    use kamino_data::{Attribute, Value};
    use kamino_datasets::adult_like;

    #[test]
    fn non_private_vae_tracks_dominant_marginal() {
        // a single heavily-skewed categorical: the VAE must reproduce the
        // skew (this catches sign errors in the ELBO gradients)
        let s = Schema::new(vec![
            Attribute::categorical_indexed("a", 3).unwrap(),
            Attribute::numeric("x", 0.0, 1.0, 4).unwrap(),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..300)
            .map(|i| {
                let a = if i % 10 == 0 { 1 } else { 0 };
                vec![Value::Cat(a), Value::Num(0.5)]
            })
            .collect();
        let inst = Instance::from_rows(&s, &rows).unwrap();
        let vae = DpVae {
            steps: 600,
            ..DpVae::default()
        };
        let out = vae.synthesize(&s, &inst, Budget::non_private(), 600, 1);
        let m = normalize(&histogram(&s, &out, 0));
        assert!(m[0] > 0.6, "dominant class lost: {m:?}");
        assert!(m[2] < 0.2, "never-seen class over-generated: {m:?}");
    }

    #[test]
    fn private_run_valid_on_adult() {
        let d = adult_like(300, 2);
        let vae = DpVae {
            steps: 60,
            ..DpVae::default()
        };
        let out = vae.synthesize(&d.schema, &d.instance, Budget::new(1.0, 1e-6), 200, 3);
        assert_eq!(out.n_rows(), 200);
        for i in 0..out.n_rows() {
            for j in 0..d.schema.len() {
                assert!(d.schema.attr(j).validate(out.value(i, j)).is_ok());
            }
        }
    }

    #[test]
    fn violates_dcs_like_the_paper_reports() {
        let d = adult_like(400, 4);
        let vae = DpVae {
            steps: 100,
            ..DpVae::default()
        };
        let out = vae.synthesize(&d.schema, &d.instance, Budget::new(1.0, 1e-6), 400, 5);
        let total: f64 = d
            .dcs
            .iter()
            .map(|dc| kamino_constraints::violation_percentage(dc, &out))
            .sum();
        assert!(
            total > 0.0,
            "i.i.d. VAE sampling should violate the Adult DCs"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let d = adult_like(150, 6);
        let vae = DpVae {
            steps: 30,
            ..DpVae::default()
        };
        let a = vae.synthesize(&d.schema, &d.instance, Budget::new(1.0, 1e-6), 80, 7);
        let b = vae.synthesize(&d.schema, &d.instance, Budget::new(1.0, 1e-6), 80, 7);
        assert_eq!(a, b);
    }
}
