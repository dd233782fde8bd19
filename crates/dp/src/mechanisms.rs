//! The Gaussian and Laplace mechanisms.

use rand::Rng;

use crate::normal::standard_normal;

/// Adds `N(0, (sensitivity·σ)²)` noise to each component in place — the
/// Gaussian mechanism applied to a vector-valued query with L2 sensitivity
/// `sensitivity` and noise multiplier `sigma`.
pub fn add_gaussian_noise<R: Rng + ?Sized>(
    values: &mut [f64],
    sensitivity: f64,
    sigma: f64,
    rng: &mut R,
) {
    assert!(
        sensitivity >= 0.0 && sigma >= 0.0,
        "noise parameters must be nonnegative"
    );
    let std = sensitivity * sigma;
    if std == 0.0 {
        return;
    }
    for v in values {
        *v += std * standard_normal(rng);
    }
}

/// Adds `Laplace(0, scale)` noise to each component in place. For a query
/// with L1 sensitivity `s`, `scale = s/ε` gives (ε, 0)-DP. Used by the
/// PrivBayes baseline, which follows its paper's Laplace-noised marginals.
pub fn add_laplace_noise<R: Rng + ?Sized>(values: &mut [f64], scale: f64, rng: &mut R) {
    assert!(scale >= 0.0, "scale must be nonnegative");
    if scale == 0.0 {
        return;
    }
    for v in values {
        // inverse-CDF sampling: u ∈ (-0.5, 0.5)
        let u: f64 = rng.gen::<f64>() - 0.5;
        *v -= scale * u.signum() * (1.0 - 2.0 * u.abs()).ln_1p_workaround();
    }
}

/// `ln(1+x)` helper; stabilizes Laplace inverse-CDF sampling near u = ±0.5.
trait Ln1pWorkaround {
    fn ln_1p_workaround(self) -> f64;
}

impl Ln1pWorkaround for f64 {
    #[inline]
    fn ln_1p_workaround(self) -> f64 {
        // self = 1 − 2|u| ∈ (0, 1]; ln of it directly is fine, but route
        // through ln_1p for the near-zero region to keep precision.
        if self > 0.5 {
            self.ln()
        } else {
            (self - 1.0).ln_1p()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_noise_statistics() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mut values = vec![0.0; n];
        add_gaussian_noise(&mut values, 2.0, 1.5, &mut rng);
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05);
        assert!(
            (var - 9.0).abs() < 0.2,
            "variance {var}, expected (2·1.5)² = 9"
        );
    }

    #[test]
    fn zero_sigma_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut values = vec![1.0, 2.0, 3.0];
        add_gaussian_noise(&mut values, 1.0, 0.0, &mut rng);
        assert_eq!(values, vec![1.0, 2.0, 3.0]);
        add_laplace_noise(&mut values, 0.0, &mut rng);
        assert_eq!(values, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn laplace_noise_statistics() {
        let mut rng = StdRng::seed_from_u64(13);
        let n = 200_000;
        let scale = 2.0;
        let mut values = vec![0.0; n];
        add_laplace_noise(&mut values, scale, &mut rng);
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05);
        // Laplace variance = 2·scale²
        assert!((var - 8.0).abs() < 0.3, "variance {var}, expected 8");
        // median of |x| should be ln(2)·scale ≈ 1.386
        let mut abs: Vec<f64> = values.iter().map(|v| v.abs()).collect();
        abs.sort_by(f64::total_cmp);
        let median = abs[n / 2];
        assert!((median - 2.0 * std::f64::consts::LN_2).abs() < 0.05);
    }

    #[test]
    fn laplace_samples_finite() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut values = vec![0.0; 100_000];
        add_laplace_noise(&mut values, 1.0, &mut rng);
        assert!(values.iter().all(|v| v.is_finite()));
    }
}
