//! Poisson subsampling.
//!
//! DP-SGD (Algorithm 2 line 12) samples each training row independently
//! with probability `b/n`, and Algorithm 5 (line 3) samples rows with
//! probability `L_w/n`. Poisson sampling is what the Sampled Gaussian
//! Mechanism analysis in [`crate::rdp`] assumes, so both code paths share
//! this helper.
//!
//! [`poisson_sample`] jumps from one kept row to the next by a geometric
//! gap (the sampling model of Abadi et al., CCS 2016), so a draw costs
//! about one uniform per kept row rather than one per row.

use rand::Rng;

/// Returns the indices of a Poisson subsample of `0..n`, each index
/// included independently with probability `rate` (clamped to [0, 1]).
///
/// Rates 0 and 1 return at once, drawing nothing. Otherwise the draw skips
/// `gap = ⌊ln U / ln(1 − q′)⌋` rows before each kept one, with
/// `U = 1 − gen::<f64>()` in (0, 1]: by inversion the gaps are geometric,
/// `P(gap ≥ k) = (1 − q′)^k`, which makes the kept rows independent
/// Bernoulli(q′) draws. A call takes at most `|sample| + 1` words from
/// `rng`.
///
/// `q′` is `rate` less a margin of `n·(rate·2⁻⁴⁶ + 2⁻⁵²)`, so that no row
/// is kept with a probability above `rate`, the rate the accountant
/// charges (the subsampled Gaussian's RDP rises with the rate, so a
/// charge at `rate` covers `q′`). Floating point perturbs the gaps in two
/// ways. The quotient `ln U / ln_1p(−q′)` is within a relative 2⁻⁴⁸ of
/// the exact one (`ln`, `ln_1p` and the division together err by a few
/// ulps), which can raise the chance that a row `k` after the last kept
/// one is kept to at most `q′·(1 + 2⁻⁴⁸·(2k + 2))`. And `U` lies on a grid
/// of step 2⁻⁵³, so each of a row's at most `n` possible gap lengths can
/// add at most 2⁻⁵³ to its probability of being kept. Summed, row `j < n`
/// is kept with probability at most `q′ + q′·n·2⁻⁴⁷ + n·2⁻⁵³`, which the
/// margin (doubled to absorb its own rounding) keeps below `rate`. A rate
/// within the margin of 0 keeps no row.
pub fn poisson_sample<R: Rng + ?Sized>(n: usize, rate: f64, rng: &mut R) -> Vec<usize> {
    let rate = rate.clamp(0.0, 1.0);
    if rate == 0.0 {
        return Vec::new();
    }
    if rate == 1.0 {
        return (0..n).collect();
    }
    let q = gap_rate(n, rate);
    if q <= 0.0 {
        return Vec::new();
    }
    // ln(1 − q′) < 0, and ln U ≤ 0: the quotient is ≥ 0
    let ln_skip = (-q).ln_1p();
    let mut out = Vec::with_capacity((n as f64 * q * 1.5) as usize + 4);
    let mut next = 0;
    while next < n {
        let u = 1.0 - rng.gen::<f64>();
        let gap = (u.ln() / ln_skip).floor();
        if gap >= (n - next) as f64 {
            break;
        }
        next += gap as usize;
        out.push(next);
        next += 1;
    }
    out
}

/// `q′`, the rate [`poisson_sample`] draws its gaps at: `rate` (in (0, 1))
/// less the margin `n·(rate·2⁻⁴⁶ + 2⁻⁵²)` its docs derive.
fn gap_rate(n: usize, rate: f64) -> f64 {
    let (two_m46, two_m52) = (0.5f64.powi(46), 0.5f64.powi(52));
    rate - n as f64 * (rate * two_m46 + two_m52)
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
    use crate::testkit::chi2_critical;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// A generator that counts the words drawn from it.
    struct Counting {
        rng: StdRng,
        words: u64,
    }

    impl RngCore for Counting {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.rng.next_u64()
        }
    }

    /// A call draws one word per kept row and at most one more (the gap
    /// that runs past `n`), so a per-row draw (n words) fails here.
    #[test]
    fn a_call_draws_one_word_per_kept_row_and_at_most_one_more() {
        let mut rng = Counting {
            rng: StdRng::seed_from_u64(1_000),
            words: 0,
        };
        let mut kept_total = 0;
        for rate in [1.0 / 5000.0, 32.0 / 5000.0, 32.0 / 2000.0, 0.3, 0.9] {
            for n in [1, 7, 2_000, 5_000] {
                for _ in 0..20 {
                    let before = rng.words;
                    let kept = poisson_sample(n, rate, &mut rng).len();
                    let words = rng.words - before;
                    assert!(
                        words == kept as u64 || words == kept as u64 + 1,
                        "rate {rate}, n {n}: {words} words for {kept} kept rows"
                    );
                    kept_total += kept;
                }
            }
        }
        assert!(kept_total > 0);
    }

    /// The batch size of `n = 5000` rows at `b/n = 32/5000` is
    /// Binomial(n, q): mean 32 and variance ≈ 31.8, over 20,000 calls
    /// (standard errors ≈ 0.04 and ≈ 0.32).
    #[test]
    fn batch_size_has_the_binomial_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(17);
        let (n, rate, calls) = (5_000, 32.0 / 5_000.0, 20_000);
        let sizes: Vec<f64> = (0..calls)
            .map(|_| poisson_sample(n, rate, &mut rng).len() as f64)
            .collect();
        let mean = sizes.iter().sum::<f64>() / calls as f64;
        let var = sizes.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / calls as f64;
        let want_var = n as f64 * rate * (1.0 - rate);
        assert!((mean - 32.0).abs() < 0.2, "mean batch size {mean}");
        assert!(
            (var - want_var).abs() < 1.6,
            "batch-size variance {var} vs {want_var}"
        );
    }

    /// Every position of `0..100` is kept at the rate: over 100,000 calls
    /// at rate 0.1 the per-position counts pass a χ² test against
    /// Binomial(100,000, 0.1) at the 0.1% level.
    #[test]
    fn every_position_is_kept_at_the_rate() {
        let mut rng = StdRng::seed_from_u64(29);
        let (n, rate, calls) = (100, 0.1, 100_000);
        let mut counts = vec![0u64; n];
        for _ in 0..calls {
            for i in poisson_sample(n, rate, &mut rng) {
                counts[i] += 1;
            }
        }
        let expect = calls as f64 * rate;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - expect).powi(2) / (expect * (1.0 - rate)))
            .sum();
        let critical = chi2_critical(n as f64);
        assert!(chi2 < critical, "χ² {chi2} ≥ {critical}: counts {counts:?}");
    }

    /// The gaps between kept rows (and before the first) follow the
    /// geometric law `P(gap = k) = (1 − q)^k·q`: a χ² test over gaps
    /// 0..=59 and a tail bin, at rate 0.05 over 500 calls of n = 20,000.
    #[test]
    fn gaps_follow_the_geometric_law() {
        let mut rng = StdRng::seed_from_u64(31);
        let (n, rate, bins) = (20_000, 0.05, 60);
        let mut counts = vec![0u64; bins + 1];
        for _ in 0..500 {
            let mut prev = None;
            for i in poisson_sample(n, rate, &mut rng) {
                let gap = prev.map_or(i, |p: usize| i - p - 1);
                counts[gap.min(bins)] += 1;
                prev = Some(i);
            }
        }
        let total = counts.iter().sum::<u64>() as f64;
        let chi2: f64 = counts
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                let p = if k < bins {
                    (1.0 - rate).powi(k as i32) * rate
                } else {
                    (1.0 - rate).powi(bins as i32)
                };
                (c as f64 - total * p).powi(2) / (total * p)
            })
            .sum();
        let critical = chi2_critical(bins as f64);
        assert!(chi2 < critical, "χ² {chi2} ≥ {critical}: counts {counts:?}");
    }

    /// The gaps run at a rate below the one charged, by a margin that is
    /// negligible at the rates Kamino charges (batches of 16 or more, as
    /// DP-SGD's `b = 32` and Algorithm 5's `L_w = 100`, over up to 10⁵
    /// rows: relative 10⁻⁶), and a rate within the margin of 0 keeps
    /// nothing.
    #[test]
    fn gap_rate_stays_below_the_charged_rate() {
        for n in [1, 100, 2_000, 5_000, 32_561, 100_000, 1_000_000] {
            for batch in [1.0, 16.0, 32.0, 100.0] {
                let rate = f64::min(batch / n as f64, 0.5);
                let q = gap_rate(n, rate);
                assert!(q > 0.0 && q < rate, "n {n}, rate {rate}: q′ {q}");
                if n <= 100_000 && batch >= 16.0 {
                    assert!(rate - q < 1e-6 * rate, "n {n}, rate {rate}: q′ {q}");
                }
            }
        }
        assert!(gap_rate(10, 1e-300) <= 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(poisson_sample(10, 1e-300, &mut rng).is_empty());
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

    /// Rates 0 and 1 (and the rates that clamp to them) draw nothing; a
    /// rate a hair below 1 keeps almost every row; and `n = 0` is empty.
    #[test]
    fn edge_rates() {
        let mut rng = Counting {
            rng: StdRng::seed_from_u64(0),
            words: 0,
        };
        assert!(poisson_sample(100, 0.0, &mut rng).is_empty());
        assert_eq!(poisson_sample(100, 1.0, &mut rng).len(), 100);
        // rates outside [0,1] clamp rather than panic
        assert_eq!(poisson_sample(10, 2.0, &mut rng).len(), 10);
        assert!(poisson_sample(10, -1.0, &mut rng).is_empty());
        assert_eq!(rng.words, 0, "rates 0 and 1 must not draw");
        assert!(poisson_sample(0, 0.5, &mut rng).is_empty());
        let near_one = poisson_sample(1_000, 1.0 - f64::EPSILON, &mut rng);
        assert!(near_one.len() >= 999, "kept {} of 1000", near_one.len());
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
