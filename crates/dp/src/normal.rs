//! Standard-normal sampling.
//!
//! The allowed dependency set excludes `rand_distr`, so Gaussian noise is
//! generated here and statistically tested below. Two exact samplers live
//! here: the scalar [`standard_normal`] (Box–Muller) for one-off draws,
//! and [`standard_normal_pair`] (Marsaglia polar), which
//! [`crate::add_gaussian_noise`] uses for every vector release. Both are
//! floating-point samplers, with the usual caveat (Mironov, CCS 2012).

use rand::Rng;

/// Draws one sample from `N(0, 1)`.
///
/// Uses the basic (trigonometric) Box–Muller transform. The second variate
/// of each pair is discarded, which keeps the function stateless and so
/// trivially thread-safe. It serves scalar draws: the corpus generators,
/// numeric cells and GAN/VAE latents. A vector release (the DP-SGD noise,
/// the M1 histograms, the M3 weights) goes through
/// [`crate::add_gaussian_noise`] instead, which uses both outputs of each
/// [`standard_normal_pair`].
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 ∈ (0, 1]: guard against ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws two independent samples from `N(0, 1)` with Marsaglia's polar
/// method.
///
/// Draws `x, y` uniform on `[−1, 1)` until `0 < s = x² + y² < 1` (an
/// acceptance rate of π/4), then returns `x·√(−2 ln s / s)` and
/// `y·√(−2 ln s / s)`: one `ln` and one `sqrt` per two variates, with no
/// trigonometry.
#[inline]
pub fn standard_normal_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    loop {
        let x = 2.0 * rng.gen::<f64>() - 1.0;
        let y = 2.0 * rng.gen::<f64>() - 1.0;
        let s = x * x + y * y;
        if s > 0.0 && s < 1.0 {
            let f = (-2.0 * s.ln() / s).sqrt();
            return (x * f, y * f);
        }
    }
}

/// Draws one sample from `N(mean, std²)`.
#[inline]
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let samples: Vec<f64> = (0..200_000).map(|_| standard_normal(&mut rng)).collect();
        let (mean, var) = moments(&samples);
        assert!(mean.abs() < 0.01, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.02, "variance {var} too far from 1");
    }

    #[test]
    fn standard_normal_tail_mass() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let beyond_2: usize = (0..n)
            .filter(|_| standard_normal(&mut rng).abs() > 2.0)
            .count();
        // P(|Z| > 2) ≈ 0.0455
        let frac = beyond_2 as f64 / n as f64;
        assert!((frac - 0.0455).abs() < 0.005, "two-sigma tail mass {frac}");
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..100_000).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let (mean, var) = moments(&samples);
        assert!((mean - 5.0).abs() < 0.03);
        assert!((var - 4.0).abs() < 0.1);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
        }
    }

    #[test]
    fn all_samples_finite() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..100_000).all(|_| standard_normal(&mut rng).is_finite()));
    }
}
