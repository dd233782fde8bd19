//! Poisson subsampling.
//!
//! DP-SGD (Algorithm 2 line 12) samples each training row independently
//! with probability `b/n`, and Algorithm 5 (line 3) samples rows with
//! probability `L_w/n`. Poisson sampling is what the Sampled Gaussian
//! Mechanism analysis in [`crate::rdp`] assumes, so both code paths share
//! this helper.

use rand::Rng;

/// Returns the indices of a Poisson subsample of `0..n`, each index
/// included independently with probability `rate` (clamped to [0, 1]).
///
/// Each index takes one `next_u64` and is kept when its top 53 bits fall
/// below `⌈rate·2⁵³⌉`. That is exactly the test `rng.gen::<f64>() < rate`
/// without the conversion: `gen::<f64>()` is `(x >> 11)·2⁻⁵³`, scaling by
/// 2⁵³ is exact, and for an integer `m`, `m < r ⟺ m < ⌈r⌉`.
pub fn poisson_sample<R: Rng + ?Sized>(n: usize, rate: f64, rng: &mut R) -> Vec<usize> {
    let rate = rate.clamp(0.0, 1.0);
    if rate == 0.0 {
        return Vec::new();
    }
    if rate == 1.0 {
        return (0..n).collect();
    }
    let threshold = (rate * (1u64 << 53) as f64).ceil() as u64;
    let mut out = Vec::with_capacity((n as f64 * rate * 1.5) as usize + 4);
    for i in 0..n {
        if rng.next_u64() >> 11 < threshold {
            out.push(i);
        }
    }
    out
}

/// Poisson-samples and then crops to at most `cap` indices by uniformly
/// dropping the excess (Algorithm 5 line 4: "Drop tuples from the sample if
/// |D̂| > L_w"). Cropping is post-processing of the subsample, so the
/// SGM sensitivity bound computed for `cap` still applies.
pub fn poisson_sample_capped<R: Rng + ?Sized>(
    n: usize,
    rate: f64,
    cap: usize,
    rng: &mut R,
) -> Vec<usize> {
    let mut sample = poisson_sample(n, rate, rng);
    while sample.len() > cap {
        let drop = rng.gen_range(0..sample.len());
        sample.swap_remove(drop);
    }
    sample.sort_unstable();
    sample
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The Bernoulli-per-row draw as `rng.gen::<f64>() < rate`, the form
    /// [`poisson_sample`]'s integer threshold replaces.
    fn poisson_sample_ref(n: usize, rate: f64, rng: &mut StdRng) -> Vec<usize> {
        let rate = rate.clamp(0.0, 1.0);
        if rate == 0.0 {
            return Vec::new();
        }
        if rate == 1.0 {
            return (0..n).collect();
        }
        (0..n).filter(|_| rng.gen::<f64>() < rate).collect()
    }

    /// Same indices and the same generator state afterwards as
    /// [`poisson_sample_ref`], at rates whose `rate·2⁵³` is and is not an
    /// integer, at the smallest and largest rates below 1, and at the
    /// clamped edges.
    #[test]
    fn poisson_sample_matches_the_float_comparison() {
        let mut rates = vec![
            1.0 / 5000.0,
            32.0 / 5000.0,
            32.0 / 2000.0,
            100.0 / 5000.0,
            0.3,
            1e-300,
            f64::MIN_POSITIVE,
            1.0 - f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            0.0,
            1.0,
            -0.5,
            1.5,
        ];
        rates.extend((1..=53).map(|k| 0.5f64.powi(k)));
        for (i, &rate) in rates.iter().enumerate() {
            for n in [0, 1, 7, 2_000, 5_000] {
                let mut a = StdRng::seed_from_u64(1_000 + i as u64);
                let mut b = StdRng::seed_from_u64(1_000 + i as u64);
                for _ in 0..3 {
                    assert_eq!(
                        poisson_sample(n, rate, &mut a),
                        poisson_sample_ref(n, rate, &mut b),
                        "rate {rate:e}, n {n}"
                    );
                    assert_eq!(a.state(), b.state(), "rate {rate:e}, n {n}");
                }
            }
        }
    }

    #[test]
    fn expected_sample_size() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 50_000;
        let rate = 0.01;
        let total: usize = (0..20)
            .map(|_| poisson_sample(n, rate, &mut rng).len())
            .sum();
        let mean = total as f64 / 20.0;
        assert!(
            (mean - 500.0).abs() < 50.0,
            "mean sample size {mean}, expected ≈ 500"
        );
    }

    #[test]
    fn edge_rates() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(poisson_sample(100, 0.0, &mut rng).is_empty());
        assert_eq!(poisson_sample(100, 1.0, &mut rng).len(), 100);
        // rates outside [0,1] clamp rather than panic
        assert_eq!(poisson_sample(10, 2.0, &mut rng).len(), 10);
        assert!(poisson_sample(10, -1.0, &mut rng).is_empty());
    }

    #[test]
    fn indices_are_sorted_and_unique() {
        let mut rng = StdRng::seed_from_u64(23);
        let s = poisson_sample(10_000, 0.05, &mut rng);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&i| i < 10_000));
    }

    #[test]
    fn capped_sampling_respects_cap() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..10 {
            let s = poisson_sample_capped(1000, 0.5, 100, &mut rng);
            assert!(s.len() <= 100);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn capped_sampling_no_crop_when_small() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let uncapped = poisson_sample(1000, 0.01, &mut a);
        let capped = poisson_sample_capped(1000, 0.01, 1000, &mut b);
        assert_eq!(uncapped, capped);
    }
}
