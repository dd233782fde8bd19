//! PATE-GAN (Jordon, Yoon, van der Schaar — ICLR 2019), simplified.
//!
//! Structure preserved from the original: the training data is sharded
//! across `k` teacher discriminators; a student discriminator only ever
//! sees *noisy majority votes* of the teachers on generated samples (the
//! only privacy-bearing channel); the generator trains against the student.
//!
//! Documented simplification (DESIGN.md §3): the original uses PATE's
//! data-dependent moments accountant, under which high-consensus votes cost
//! almost nothing. We charge every vote query with the data-independent
//! Gaussian accountant instead, which is a valid but much looser bound —
//! at small ε our PATE-GAN is noisier than the paper's. The i.i.d.
//! generation path (and hence the DC-violation behaviour that Table 2
//! measures) is unaffected.

use kamino_data::{Instance, MixedEncoder, Schema};
use kamino_dp::normal::standard_normal;
use kamino_dp::{calibrate_sgm_sigma, Budget};
use kamino_nn::mlp::MlpCache;
use kamino_nn::{loss, Mlp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Synthesizer;

/// PATE-GAN configuration.
#[derive(Debug, Clone)]
pub struct PateGan {
    /// Number of teacher discriminators (data shards).
    pub n_teachers: usize,
    /// Adversarial training steps.
    pub steps: usize,
    /// Generator latent dimension.
    pub latent: usize,
    /// Hidden width of all networks.
    pub hidden: usize,
    /// Fakes labeled per step (vote queries per step).
    pub label_batch: usize,
    /// Learning rate.
    pub lr: f64,
}

impl Default for PateGan {
    fn default() -> Self {
        PateGan {
            n_teachers: 5,
            steps: 150,
            latent: 8,
            hidden: 48,
            label_batch: 8,
            lr: 0.1,
        }
    }
}

/// One plain SGD step on a single example: zero grads, backprop `dlogit`,
/// apply `−lr·g`.
fn sgd_single(net: &mut Mlp, x: &[f64], dlogit: f64, lr: f64) -> Vec<f64> {
    let mut cache = MlpCache::default();
    net.forward(x, &mut cache);
    net.visit_blocks(&mut |b| b.zero_grad());
    let dx = net.backward(&cache, &[dlogit]);
    net.visit_blocks(&mut |b| {
        for i in 0..b.len() {
            b.values[i] -= lr * b.grads[i];
        }
    });
    dx
}

fn logit(net: &Mlp, x: &[f64]) -> f64 {
    net.forward(x, &mut MlpCache::default())[0]
}

impl Synthesizer for PateGan {
    fn name(&self) -> &'static str {
        "PATE-GAN"
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
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9A7E);
        let enc = MixedEncoder::new(schema);
        let dim = enc.dim();
        let n = instance.n_rows();
        let k = self.n_teachers.max(1);

        let mut generator = Mlp::new(&[self.latent, self.hidden, dim], &mut rng);
        let mut teachers: Vec<Mlp> = (0..k)
            .map(|_| Mlp::new(&[dim, self.hidden, 1], &mut rng))
            .collect();
        let mut student = Mlp::new(&[dim, self.hidden, 1], &mut rng);

        // shard the (encoded) data across teachers
        let encoded: Vec<Vec<f64>> = (0..n).map(|i| enc.encode_row(instance, i)).collect();
        let shards: Vec<Vec<usize>> = (0..k).map(|t| (t..n).step_by(k).collect()).collect();

        // one vote-count release per labeled fake
        let total_queries = (self.steps * self.label_batch) as u64;
        let sigma_vote = if budget.is_non_private() {
            0.0
        } else {
            calibrate_sgm_sigma(budget.epsilon, budget.delta, 1.0, total_queries.max(1))
        };

        let gen_fake = |g: &Mlp, rng: &mut StdRng| -> (Vec<f64>, Vec<f64>) {
            let z: Vec<f64> = (0..self.latent).map(|_| standard_normal(rng)).collect();
            let x = g.forward(&z, &mut MlpCache::default());
            (z, x)
        };

        for _ in 0..self.steps {
            // 1. teachers: one real + one fake example each
            for (t, teacher) in teachers.iter_mut().enumerate() {
                if shards[t].is_empty() {
                    continue;
                }
                let real = &encoded[shards[t][rng.gen_range(0..shards[t].len())]];
                let (_, fake) = gen_fake(&generator, &mut rng);
                let (_, d_real) = loss::bce_with_logit(logit(teacher, real), 1.0);
                sgd_single(teacher, real, d_real, self.lr);
                let (_, d_fake) = loss::bce_with_logit(logit(teacher, &fake), 0.0);
                sgd_single(teacher, &fake, d_fake, self.lr);
            }
            // 2. label fakes by noisy teacher majority; train the student
            for _ in 0..self.label_batch {
                let (_, fake) = gen_fake(&generator, &mut rng);
                let votes = teachers.iter().filter(|t| logit(t, &fake) > 0.0).count() as f64;
                let noisy = votes + sigma_vote * standard_normal(&mut rng);
                let label = f64::from(noisy > k as f64 / 2.0);
                let (_, dlogit) = loss::bce_with_logit(logit(&student, &fake), label);
                sgd_single(&mut student, &fake, dlogit, self.lr);
            }
            // 3. generator: fool the student (student frozen)
            let (z, fake) = gen_fake(&generator, &mut rng);
            let (_, dlogit) = loss::bce_with_logit(logit(&student, &fake), 1.0);
            let mut cache = MlpCache::default();
            student.forward(&fake, &mut cache);
            student.visit_blocks(&mut |b| b.zero_grad());
            let dfake = student.backward(&cache, &[dlogit]);
            student.visit_blocks(&mut |b| b.zero_grad()); // discard student grads
            let mut gcache = MlpCache::default();
            generator.forward(&z, &mut gcache);
            generator.visit_blocks(&mut |b| b.zero_grad());
            generator.backward(&gcache, &dfake);
            generator.visit_blocks(&mut |b| {
                for i in 0..b.len() {
                    b.values[i] -= self.lr * b.grads[i];
                }
            });
        }

        // synthesize
        let mut out = Instance::zeroed(schema, n_out);
        for i in 0..n_out {
            let (_, x) = gen_fake(&generator, &mut rng);
            let row = enc.decode_sampled(schema, &x, &mut rng);
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
    use kamino_datasets::adult_like;

    #[test]
    fn produces_valid_instances() {
        let d = adult_like(250, 1);
        let gan = PateGan {
            steps: 40,
            ..PateGan::default()
        };
        let out = gan.synthesize(&d.schema, &d.instance, Budget::new(1.0, 1e-6), 150, 2);
        assert_eq!(out.n_rows(), 150);
        for i in 0..out.n_rows() {
            for j in 0..d.schema.len() {
                assert!(d.schema.attr(j).validate(out.value(i, j)).is_ok());
            }
        }
    }

    #[test]
    fn violates_dcs_like_the_paper_reports() {
        let d = adult_like(300, 3);
        let gan = PateGan {
            steps: 50,
            ..PateGan::default()
        };
        let out = gan.synthesize(&d.schema, &d.instance, Budget::new(1.0, 1e-6), 300, 4);
        let total: f64 = d
            .dcs
            .iter()
            .map(|dc| kamino_constraints::violation_percentage(dc, &out))
            .sum();
        assert!(total > 0.0, "GAN sampling should violate the Adult DCs");
    }

    #[test]
    fn non_private_votes_are_exact() {
        // with ε = ∞ the vote noise is zero; just verify the run completes
        // and produces diverse output (generator did not collapse to one row)
        let d = adult_like(250, 5);
        let gan = PateGan {
            steps: 60,
            ..PateGan::default()
        };
        let out = gan.synthesize(&d.schema, &d.instance, Budget::non_private(), 120, 6);
        let distinct: std::collections::HashSet<Vec<String>> = (0..out.n_rows())
            .map(|i| {
                (0..d.schema.len())
                    .map(|j| format!("{}", out.value(i, j)))
                    .collect()
            })
            .collect();
        assert!(
            distinct.len() > 10,
            "generator collapsed: {} distinct rows",
            distinct.len()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let d = adult_like(150, 7);
        let gan = PateGan {
            steps: 20,
            ..PateGan::default()
        };
        let a = gan.synthesize(&d.schema, &d.instance, Budget::new(1.0, 1e-6), 60, 8);
        let b = gan.synthesize(&d.schema, &d.instance, Budget::new(1.0, 1e-6), 60, 8);
        assert_eq!(a, b);
    }
}
