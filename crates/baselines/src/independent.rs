//! Independent noisy-histogram synthesizer.
//!
//! The simplest possible DP synthesizer: release every attribute's
//! histogram with the Gaussian mechanism and sample each cell i.i.d. It
//! preserves 1-way marginals and *nothing else* — a floor that the
//! experiment tables use to contextualize the real methods.

use kamino_data::stats::normalize;
use kamino_data::{Instance, Schema};
use kamino_dp::{calibrate_sgm_sigma, release_histogram, Budget};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::discretize::Discretized;
use crate::Synthesizer;

/// Independent per-attribute noisy histograms.
#[derive(Debug, Clone, Default)]
pub struct Independent;

impl Synthesizer for Independent {
    fn name(&self) -> &'static str {
        "Independent"
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
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1D9);
        let disc = Discretized::from_instance(schema, instance);
        let k = schema.len();
        let sigma = if budget.is_non_private() {
            0.0
        } else {
            calibrate_sgm_sigma(budget.epsilon, budget.delta, 1.0, k as u64)
        };
        let dists: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                let mut counts = disc.marginal(j);
                release_histogram(&mut counts, sigma, &mut rng);
                normalize(&counts)
            })
            .collect();
        let mut out = Instance::zeroed(schema, n_out);
        for i in 0..n_out {
            for (j, dist) in dists.iter().enumerate() {
                let code = kamino_data::stats::sample_weighted(dist, &mut rng) as u32;
                out.set(i, j, disc.decode(j, code, &mut rng));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamino_data::stats::{histogram, normalize};
    use kamino_datasets::adult_like;

    #[test]
    fn preserves_oneway_marginals_non_private() {
        let d = adult_like(800, 1);
        let out = Independent.synthesize(&d.schema, &d.instance, Budget::non_private(), 4_000, 2);
        assert_eq!(out.n_rows(), 4_000);
        // pick the income attribute: marginal should track the truth
        let income = d.schema.index_of("income").unwrap();
        let truth = normalize(&histogram(&d.schema, &d.instance, income));
        let synth = normalize(&histogram(&d.schema, &out, income));
        for (t, s) in truth.iter().zip(&synth) {
            assert!(
                (t - s).abs() < 0.05,
                "marginal drift {truth:?} vs {synth:?}"
            );
        }
    }

    #[test]
    fn destroys_correlations() {
        // education → education_num is an exact FD in the truth; an
        // independent sampler inevitably breaks it.
        let d = adult_like(500, 3);
        let out = Independent.synthesize(&d.schema, &d.instance, Budget::non_private(), 500, 4);
        let violations = kamino_constraints::count_violating_pairs(&d.dcs[0], &out);
        assert!(violations > 0, "independent sampling should violate the FD");
    }

    #[test]
    fn private_run_is_valid_and_noisy() {
        let d = adult_like(300, 5);
        let out = Independent.synthesize(&d.schema, &d.instance, Budget::new(1.0, 1e-6), 300, 6);
        for i in 0..out.n_rows() {
            for j in 0..d.schema.len() {
                assert!(d.schema.attr(j).validate(out.value(i, j)).is_ok());
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = adult_like(200, 7);
        let a = Independent.synthesize(&d.schema, &d.instance, Budget::new(1.0, 1e-6), 100, 8);
        let b = Independent.synthesize(&d.schema, &d.instance, Budget::new(1.0, 1e-6), 100, 8);
        assert_eq!(a, b);
    }
}
