//! The Gaussian and Laplace mechanisms.

use rand::Rng;

use crate::normal::ziggurat;
use crate::sensitivity::HISTOGRAM_SENSITIVITY;

/// Adds `N(0, (sensitivity·σ)²)` noise to each component in place — the
/// Gaussian mechanism applied to a vector-valued query with L2 sensitivity
/// `sensitivity` and noise multiplier `sigma`.
///
/// This is the one vector Gaussian mechanism: DP-SGD's per-step noise, the
/// M1 histograms, the M3 weights and the Gaussian baselines all release
/// through it. Components are noised in order, one
/// [`standard_normal_ziggurat`](crate::normal::standard_normal_ziggurat)
/// variate each, and no draw is discarded. `sigma = 0` is the identity
/// (whatever the sensitivity, and without touching `rng`); a positive
/// `sigma` needs a finite sensitivity.
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
    // Before the product: ∞·0 is NaN.
    if sigma == 0.0 {
        return;
    }
    assert!(
        sensitivity.is_finite(),
        "a positive sigma needs a finite sensitivity, got {sensitivity}"
    );
    let std = sensitivity * sigma;
    if std == 0.0 {
        return;
    }
    let zig = ziggurat();
    for v in values {
        *v += std * zig.sample(rng);
    }
}

/// Releases a histogram with the Gaussian mechanism at noise multiplier
/// `sigma`: [`add_gaussian_noise`] at [`HISTOGRAM_SENSITIVITY`]. Kamino's
/// M1 marginals and the Gaussian baselines' 1- and 2-way marginals all
/// release through it, so the neighbouring relation is set in one place.
pub fn release_histogram<R: Rng + ?Sized>(counts: &mut [f64], sigma: f64, rng: &mut R) {
    add_gaussian_noise(counts, HISTOGRAM_SENSITIVITY, sigma, rng);
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
    use crate::normal::standard_normal_ziggurat;
    use crate::testkit::normal_cdf;
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

    /// 200k unit-variance draws through the mechanism, on a zero vector.
    fn unit_draws(seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut values = vec![0.0; 200_000];
        add_gaussian_noise(&mut values, 1.0, 1.0, &mut rng);
        values
    }

    fn mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    fn corr(a: &[f64], b: &[f64]) -> f64 {
        let (ma, va) = mean_var(a);
        let (mb, vb) = mean_var(b);
        let cov = a
            .iter()
            .zip(b)
            .map(|(x, y)| (x - ma) * (y - mb))
            .sum::<f64>()
            / a.len() as f64;
        cov / (va * vb).sqrt()
    }

    /// The mechanism's unit-variance draws (one ziggurat variate per
    /// component) have the moments of `N(0, 1)`.
    #[test]
    fn paired_draws_have_unit_moments() {
        let values = unit_draws(101);
        let (mean, var) = mean_var(&values);
        assert!(mean.abs() < 0.01, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.02, "variance {var} too far from 1");
        let n = values.len() as f64;
        let skew = values.iter().map(|v| v.powi(3)).sum::<f64>() / n;
        let kurt = values.iter().map(|v| v.powi(4)).sum::<f64>() / n;
        assert!(skew.abs() < 0.03, "third moment {skew}, expected 0");
        assert!(
            (kurt - 3.0).abs() < 0.08,
            "fourth moment {kurt}, expected 3"
        );
    }

    /// The mechanism's unit-variance draws pass a one-sample KS test
    /// against Φ at the 1% level.
    #[test]
    fn paired_draws_pass_kolmogorov_smirnov() {
        let mut values = unit_draws(102);
        values.sort_by(f64::total_cmp);
        let n = values.len() as f64;
        let d = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let cdf = normal_cdf(v);
                (cdf - i as f64 / n).max((i + 1) as f64 / n - cdf)
            })
            .fold(f64::NEG_INFINITY, f64::max);
        // the 1% critical value of the one-sample KS statistic
        let critical = 1.63 / n.sqrt();
        assert!(d < critical, "KS statistic {d} ≥ {critical}");
    }

    /// Consecutive components are independent: over 200k draws the
    /// lag-1 and lag-2 correlations of the values and of their squares
    /// are within ≈ 5 standard errors (≈ 0.0022 each) of 0. A draw reused
    /// across components, or a sampler that pairs its outputs, shows here.
    #[test]
    fn consecutive_draws_are_independent() {
        let values = unit_draws(103);
        let sq: Vec<f64> = values.iter().map(|v| v * v).collect();
        for lag in [1, 2] {
            let n = values.len() - lag;
            let linear = corr(&values[..n], &values[lag..]);
            assert!(linear.abs() < 0.011, "lag-{lag} corr(z, z′) = {linear}");
            let square = corr(&sq[..n], &sq[lag..]);
            assert!(square.abs() < 0.011, "lag-{lag} corr(z², z′²) = {square}");
        }
    }

    /// Each component takes exactly one ziggurat variate, in order: the
    /// noise of any length is the scaled prefix of one draw sequence, and
    /// the generator ends where that many draws leave it.
    #[test]
    fn every_component_takes_one_draw_in_order() {
        let (sensitivity, sigma) = (2.0, 1.5);
        for len in [1, 2, 3, 7, 64] {
            let mut rng = StdRng::seed_from_u64(104);
            let mut values = vec![0.0; len];
            add_gaussian_noise(&mut values, sensitivity, sigma, &mut rng);
            let mut reference = StdRng::seed_from_u64(104);
            let want: Vec<f64> = (0..len)
                .map(|_| sensitivity * sigma * standard_normal_ziggurat(&mut reference))
                .collect();
            assert_eq!(values, want, "len {len}");
            assert_eq!(rng.state(), reference.state(), "len {len}");
            assert!(values.iter().all(|v| *v != 0.0 && v.is_finite()));
        }
    }

    #[test]
    fn paired_draws_are_deterministic_under_seed() {
        let bits = |v: Vec<f64>| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(unit_draws(105)), bits(unit_draws(105)));
        assert_ne!(bits(unit_draws(105)), bits(unit_draws(106)));
    }

    #[test]
    fn zero_sigma_with_infinite_sensitivity_is_identity() {
        // ∞·0 is NaN: σ = 0 must return before forming the product
        let mut rng = StdRng::seed_from_u64(0);
        let mut values = vec![1.0, 2.0, 3.0];
        add_gaussian_noise(&mut values, f64::INFINITY, 0.0, &mut rng);
        assert_eq!(values, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "finite sensitivity")]
    fn positive_sigma_rejects_infinite_sensitivity() {
        let mut rng = StdRng::seed_from_u64(0);
        add_gaussian_noise(&mut [0.0; 4], f64::INFINITY, 1.0, &mut rng);
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
