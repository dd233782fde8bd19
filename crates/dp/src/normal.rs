//! Standard-normal sampling.
//!
//! The allowed dependency set excludes `rand_distr`, so Gaussian noise is
//! generated here and statistically tested below. Two samplers live here:
//! * [`standard_normal`] (Box–Muller), for one-off scalar draws: the
//!   corpus generators, numeric cells and GAN/VAE latents;
//! * [`standard_normal_ziggurat`] (Marsaglia & Tsang's 256-layer
//!   ziggurat, JSS 2000), which [`crate::add_gaussian_noise`] draws once
//!   per noised component: DP-SGD's noise, the M1 histograms, the M3
//!   weights and the Gaussian baselines.
//!
//! Both are floating-point samplers, so neither draws the continuous
//! Gaussian the privacy analysis assumes: their outputs lie on a grid of
//! doubles, and the ziggurat's layer tables are rounded. Mironov (CCS
//! 2012) showed that a textbook floating-point Laplace sampler's output
//! set can leak the value it noises, and Jin et al. (S&P 2022) showed
//! such leaks in floating-point Gaussian samplers; Kamino's guarantee,
//! like the paper's, is stated for the ideal mechanism.

use std::sync::OnceLock;

use rand::Rng;

/// Draws one sample from `N(0, 1)`.
///
/// Uses the basic (trigonometric) Box–Muller transform. The second variate
/// of each pair is discarded, which keeps the function stateless and so
/// trivially thread-safe. It serves scalar draws: the corpus generators,
/// numeric cells and GAN/VAE latents. A vector release (the DP-SGD noise,
/// the M1 histograms, the M3 weights) goes through
/// [`crate::add_gaussian_noise`] instead, which draws
/// [`standard_normal_ziggurat`] variates.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 ∈ (0, 1]: guard against ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Layers of the ziggurat.
const LAYERS: usize = 256;
/// `R`, where the base strip's tail starts: the right edge of the lowest
/// full rectangle (Marsaglia & Tsang's 3.6541528853610088, the same
/// double).
const ZIG_R: f64 = 3.654_152_885_361_009;
/// `V`, the area of every layer under `f(x) = exp(−x²/2)`; the base
/// strip's area includes its tail beyond `R`.
const ZIG_V: f64 = 4.928_673_233_99e-3;

/// The unnormalised density the layers cover.
#[inline]
fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// The layer tables of the 256-layer ziggurat for `N(0, 1)`: 257 edges
/// and their densities, about 4 KB, built once from the recurrence.
pub(crate) struct Ziggurat {
    /// Layer `i` spans `|x| < x[i]` and `f(x[i]) ≤ y < f(x[i + 1])`, so
    /// `x` falls from `x[0] = V/f(R)` (the base strip's width as a
    /// rectangle of height `f(R)`) through `x[1] = R` to `x[256] = 0`.
    x: [f64; LAYERS + 1],
    /// `f[i] = f(x[i])`.
    f: [f64; LAYERS + 1],
}

/// The shared tables, built on first use.
pub(crate) fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; LAYERS + 1];
        x[0] = ZIG_V / density(ZIG_R);
        x[1] = ZIG_R;
        // layer i has area x[i]·(f(x[i + 1]) − f(x[i])) = V
        for i in 1..LAYERS - 1 {
            x[i + 1] = (-2.0 * (ZIG_V / x[i] + density(x[i])).ln()).sqrt();
        }
        Ziggurat {
            x,
            f: x.map(density),
        }
    })
}

impl Ziggurat {
    /// [`standard_normal_ziggurat`] on these tables.
    ///
    /// The signed uniform `u` is an odd multiple of 2⁻⁵³ in (−1, 1), so it
    /// is symmetric about 0 and never 0. `x = u·x[i]` is returned at once
    /// when `|x| < x[i + 1]`, where layer `i` lies wholly under the curve.
    #[inline]
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0xff) as usize;
            let u =
                ((bits >> 11) as i64 * 2 + 1 - (1i64 << 53)) as f64 * (1.0 / (1u64 << 53) as f64);
            let x = u * self.x[i];
            if x.abs() < self.x[i + 1] {
                return x;
            }
            if i == 0 {
                return tail(rng, x < 0.0);
            }
            let y = self.f[i] + (self.f[i + 1] - self.f[i]) * rng.gen::<f64>();
            if y < density(x) {
                return x;
            }
        }
    }
}

/// A draw from the normal tail beyond `R` on the side `negative` names:
/// `R + a` for `a ~ Exp(R)`, kept with probability `exp(−a²/2)` (the
/// test `2b ≥ a²` for `b ~ Exp(1)`).
#[cold]
fn tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        // 1 − U ∈ (0, 1]: guard against ln(0)
        let a = -(1.0 - rng.gen::<f64>()).ln() / ZIG_R;
        let b = -(1.0 - rng.gen::<f64>()).ln();
        if 2.0 * b >= a * a {
            return if negative { -(ZIG_R + a) } else { ZIG_R + a };
        }
    }
}

/// Draws one sample from `N(0, 1)` with the 256-layer ziggurat of
/// Marsaglia & Tsang (`R` = 3.6541528853610088, `V` = 4.92867323399e-3).
///
/// One `next_u64` picks a layer (its low 8 bits) and a signed uniform
/// (its top 53 bits), and ≈ 99% of draws end there with a table read and
/// a multiply. The rest land in a wedge, kept when a uniform height falls
/// under the density, or in the base strip's tail beyond `R`, drawn by
/// Marsaglia's exponential method; a rejected draw starts over. The
/// layer tables (257 edges and their densities) are built once, from the
/// recurrence that gives every layer area `V`.
#[inline]
pub fn standard_normal_ziggurat<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ziggurat().sample(rng)
}

/// Draws one sample from `N(mean, std²)`.
#[inline]
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{chi2_critical, normal_cdf, normal_upper_tail, within_binomial};
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

    /// `draws` ziggurat variates from one seeded generator.
    fn ziggurat_draws(seed: u64, draws: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..draws)
            .map(|_| standard_normal_ziggurat(&mut rng))
            .collect()
    }

    /// The recurrence closes: the edges fall from `V/f(R)` through `R` to
    /// 0, every layer above the base strip has area `V`, and the base
    /// strip (rectangle plus tail) has area `V` too.
    #[test]
    fn ziggurat_layers_have_equal_area() {
        let zig = ziggurat();
        assert_eq!((zig.x[1], zig.x[LAYERS]), (ZIG_R, 0.0));
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]), "edges must fall");
        for i in 1..LAYERS {
            let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            assert!(
                (area - ZIG_V).abs() < 1e-9 * ZIG_V,
                "layer {i} has area {area}"
            );
        }
        let sqrt_2pi = (std::f64::consts::TAU).sqrt();
        let base = ZIG_R * density(ZIG_R) + sqrt_2pi * normal_upper_tail(ZIG_R);
        assert!((base - ZIG_V).abs() < 1e-6 * ZIG_V, "base strip {base}");
        assert!((zig.x[0] * density(ZIG_R) - ZIG_V).abs() < 1e-15);
    }

    #[test]
    fn ziggurat_moments() {
        let samples = ziggurat_draws(42, 200_000);
        let (mean, var) = moments(&samples);
        assert!(mean.abs() < 0.01, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.02, "variance {var} too far from 1");
        let n = samples.len() as f64;
        let skew = samples.iter().map(|v| v.powi(3)).sum::<f64>() / n;
        let kurt = samples.iter().map(|v| v.powi(4)).sum::<f64>() / n;
        assert!(skew.abs() < 0.03, "third moment {skew}, expected 0");
        assert!(
            (kurt - 3.0).abs() < 0.08,
            "fourth moment {kurt}, expected 3"
        );
    }

    /// The mass beyond `R` (where the base strip hands over to the tail
    /// draw) and beyond 3, on each side, over 10⁷ draws: every count within
    /// five binomial standard deviations of `N·P(Z > t)`.
    #[test]
    fn ziggurat_tail_mass() {
        let draws = ziggurat_draws(7, 10_000_000);
        let n = draws.len() as u64;
        for t in [ZIG_R, 3.0] {
            let p = normal_upper_tail(t);
            let above = draws.iter().filter(|&&z| z > t).count() as u64;
            let below = draws.iter().filter(|&&z| z < -t).count() as u64;
            for (side, count) in [("above", above), ("below", below)] {
                assert!(
                    within_binomial(count, n, p),
                    "{count} draws {side} ±{t}, expected {:.0}",
                    n as f64 * p
                );
            }
        }
    }

    /// The wedges have the right shape: 10⁷ draws mapped through Φ into
    /// 1000 equiprobable bins pass a χ² test at the 0.1% level. A wedge
    /// accepted under the wrong curve, or a layer of the wrong width,
    /// shifts mass between neighbouring bins.
    #[test]
    fn ziggurat_fills_equiprobable_bins() {
        let bins = 1_000;
        let mut counts = vec![0u64; bins];
        for z in ziggurat_draws(11, 10_000_000) {
            counts[((normal_cdf(z) * bins as f64) as usize).min(bins - 1)] += 1;
        }
        let expect = 10_000_000.0 / bins as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - expect).powi(2) / expect)
            .sum();
        let critical = chi2_critical((bins - 1) as f64);
        assert!(chi2 < critical, "χ² {chi2} ≥ {critical}");
    }

    #[test]
    fn ziggurat_is_deterministic_under_seed_and_finite() {
        let a = ziggurat_draws(9, 100_000);
        assert!(a.iter().all(|z| z.is_finite()));
        assert_eq!(a, ziggurat_draws(9, 100_000));
        assert_ne!(a, ziggurat_draws(10, 100_000));
    }
}
