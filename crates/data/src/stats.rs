//! Column statistics: histograms, standardization, categorical sampling.

use rand::Rng;

use crate::instance::{Column, Instance};
use crate::quantize::Quantizer;
use crate::schema::Schema;

/// [`histogram_with_clamped`]'s output: bin counts plus how many values
/// fell outside the declared domain.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramCounts {
    /// Counts of values per quantization bin.
    pub counts: Vec<f64>,
    /// Categorical codes outside the declared domain, folded into the
    /// last bin (saturating — though in practice any nonzero value is an
    /// encoding bug upstream).
    pub clamped: u64,
}

/// Counts of values per quantization bin for attribute `attr` — the `H` of
/// Algorithm 2 line 2 (before noise is added) — together with a count of
/// out-of-domain categorical codes. A code past the declared domain is an
/// encoding bug in the caller: folding it silently into the last bin (the
/// old behaviour) corrupts the released M1 histogram, so callers on
/// private paths should inspect [`HistogramCounts::clamped`].
pub fn histogram_with_clamped(schema: &Schema, inst: &Instance, attr: usize) -> HistogramCounts {
    let q = Quantizer::for_attr(schema.attr(attr));
    let mut counts = vec![0.0; q.n_bins()];
    let mut clamped: u64 = 0;
    match inst.column(attr) {
        Column::Cat(v) => {
            for &c in v {
                let (bin, out_of_domain) = q.bin_checked(crate::Value::Cat(c));
                if out_of_domain {
                    clamped = clamped.saturating_add(1);
                }
                counts[bin] += 1.0;
            }
        }
        Column::Num(v) => {
            for &x in v {
                counts[q.bin(crate::Value::Num(x))] += 1.0;
            }
        }
    }
    HistogramCounts { counts, clamped }
}

/// [`histogram_with_clamped`] without the clamp diagnostics. Debug builds
/// assert that no categorical code fell outside the domain — surfacing the
/// encoding bug at its source instead of corrupting the histogram.
pub fn histogram(schema: &Schema, inst: &Instance, attr: usize) -> Vec<f64> {
    let h = histogram_with_clamped(schema, inst, attr);
    debug_assert_eq!(
        h.clamped, 0,
        "attribute {attr}: {} categorical codes outside the declared domain \
         were folded into the last bin — encoding bug upstream",
        h.clamped
    );
    h.counts
}

/// Normalizes nonnegative weights into a probability distribution. All-zero
/// (or fully clipped) inputs fall back to uniform, which is how the paper's
/// post-processing treats fully-noised-out histograms.
pub fn normalize(weights: &[f64]) -> Vec<f64> {
    let clipped: Vec<f64> = weights.iter().map(|&w| w.max(0.0)).collect();
    let total: f64 = clipped.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        let u = 1.0 / clipped.len() as f64;
        return vec![u; clipped.len()];
    }
    clipped.iter().map(|&w| w / total).collect()
}

/// Samples an index from an (unnormalized, nonnegative) weight vector.
/// All-zero weights fall back to uniform. Every sampler in the workspace
/// (Algorithm 3's reweighted draw, baselines, generators) funnels through
/// this.
///
/// Otherwise the index always has a positive weight: when rounding in the
/// running subtraction walks `u` past every weight, the last positive one
/// is returned (Algorithm 3 gives a hard-violating candidate weight 0).
pub fn sample_weighted<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    debug_assert!(!weights.is_empty());
    let total: f64 = weights.iter().map(|&w| w.max(0.0)).sum();
    if total <= 0.0 || !total.is_finite() {
        return rng.gen_range(0..weights.len());
    }
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        let w = w.max(0.0);
        if u < w {
            return i;
        }
        u -= w;
    }
    // `total > 0`, so some weight is positive
    weights.iter().rposition(|&w| w > 0.0).unwrap_or(0)
}

/// Mean and standard deviation of one numeric column, used to standardize
/// continuous inputs for the tuple-embedding encoder (§2.3: "standardizes
/// each dimension to zero mean and unit variance").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Standardizer {
    /// Column mean.
    pub mean: f64,
    /// Column standard deviation (floored at a small epsilon so constant
    /// columns do not divide by zero).
    pub std: f64,
}

impl Standardizer {
    /// Fits standardization parameters on a numeric column.
    pub fn fit(values: &[f64]) -> Standardizer {
        if values.is_empty() {
            return Standardizer {
                mean: 0.0,
                std: 1.0,
            };
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Standardizer {
            mean,
            std: var.sqrt().max(1e-9),
        }
    }

    /// Fits from the attribute's declared domain rather than the data; this
    /// is what private code paths use so that standardization itself leaks
    /// nothing (the domain is public input).
    pub fn from_range(min: f64, max: f64) -> Standardizer {
        let mean = 0.5 * (min + max);
        // uniform-distribution std over the range
        let std = ((max - min) * (max - min) / 12.0).sqrt().max(1e-9);
        Standardizer { mean, std }
    }

    /// Standardizes one value.
    #[inline]
    pub fn forward(&self, x: f64) -> f64 {
        (x - self.mean) / self.std
    }

    /// Inverts standardization.
    #[inline]
    pub fn inverse(&self, z: f64) -> f64 {
        z * self.std + self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use crate::Value;

    #[test]
    fn histogram_counts_categorical() {
        let s = Schema::new(vec![Attribute::categorical_indexed("c", 3).unwrap()]).unwrap();
        let inst = Instance::from_rows(
            &s,
            &[
                vec![Value::Cat(0)],
                vec![Value::Cat(2)],
                vec![Value::Cat(2)],
            ],
        )
        .unwrap();
        assert_eq!(histogram(&s, &inst, 0), vec![1.0, 0.0, 2.0]);
    }

    #[test]
    fn histogram_counts_numeric_bins() {
        let s = Schema::new(vec![Attribute::numeric("x", 0.0, 10.0, 2).unwrap()]).unwrap();
        let inst = Instance::from_rows(
            &s,
            &[
                vec![Value::Num(1.0)],
                vec![Value::Num(6.0)],
                vec![Value::Num(9.0)],
            ],
        )
        .unwrap();
        assert_eq!(histogram(&s, &inst, 0), vec![1.0, 2.0]);
    }

    #[test]
    fn histogram_reports_out_of_domain_codes() {
        let s = Schema::new(vec![Attribute::categorical_indexed("c", 3).unwrap()]).unwrap();
        // bypass row validation by writing the raw code directly
        let mut inst =
            Instance::from_rows(&s, &[vec![Value::Cat(0)], vec![Value::Cat(1)]]).unwrap();
        inst.set(1, 0, Value::Cat(7)); // out of domain
        let h = histogram_with_clamped(&s, &inst, 0);
        assert_eq!(h.clamped, 1);
        assert_eq!(h.counts, vec![1.0, 0.0, 1.0]);
        // in-domain data reports zero clamps
        let clean = Instance::from_rows(&s, &[vec![Value::Cat(2)]]).unwrap();
        assert_eq!(histogram_with_clamped(&s, &clean, 0).clamped, 0);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "outside the declared domain")
    )]
    fn histogram_asserts_on_out_of_domain_codes() {
        let s = Schema::new(vec![Attribute::categorical_indexed("c", 3).unwrap()]).unwrap();
        let mut inst = Instance::from_rows(&s, &[vec![Value::Cat(0)]]).unwrap();
        inst.set(0, 0, Value::Cat(9));
        let counts = histogram(&s, &inst, 0);
        // release builds: still folded (saturating), not lost
        assert_eq!(counts.iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn normalize_clips_negatives_and_sums_to_one() {
        let p = normalize(&[3.0, -2.0, 1.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(p[1], 0.0);
        assert!((p[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn normalize_all_zero_falls_back_to_uniform() {
        let p = normalize(&[-1.0, -5.0, 0.0, -0.2]);
        for &x in &p {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn standardizer_fit_roundtrips() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        let st = Standardizer::fit(&vals);
        assert!((st.mean - 2.5).abs() < 1e-12);
        for &x in &vals {
            assert!((st.inverse(st.forward(x)) - x).abs() < 1e-9);
        }
        // standardized values have ~zero mean
        let m: f64 = vals.iter().map(|&x| st.forward(x)).sum::<f64>() / 4.0;
        assert!(m.abs() < 1e-12);
    }

    #[test]
    fn standardizer_constant_column_does_not_blow_up() {
        let st = Standardizer::fit(&[5.0, 5.0, 5.0]);
        assert!(st.forward(5.0).is_finite());
    }

    #[test]
    fn standardizer_from_range_is_data_independent() {
        let st = Standardizer::from_range(0.0, 12.0);
        assert!((st.mean - 6.0).abs() < 1e-12);
        assert!((st.std - (12.0f64 * 12.0 / 12.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn standardizer_empty_input() {
        let st = Standardizer::fit(&[]);
        assert_eq!(st.mean, 0.0);
        assert_eq!(st.std, 1.0);
    }

    #[test]
    fn sample_weighted_respects_weights() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[sample_weighted(&weights, &mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn sample_weighted_degenerate_inputs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        // all-zero weights fall back to uniform over all indices
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[sample_weighted(&[0.0, 0.0, 0.0], &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // negative weights are treated as zero
        for _ in 0..100 {
            assert_ne!(sample_weighted(&[-5.0, 1.0], &mut rng), 0);
        }
        // single-element vector
        assert_eq!(sample_weighted(&[0.4], &mut rng), 0);
    }

    /// A generator whose every word is `u64::MAX`, so `gen::<f64>()` is
    /// `1 − 2⁻⁵³`, the largest uniform.
    struct Top;

    impl rand::RngCore for Top {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    #[test]
    fn sample_weighted_never_returns_a_zero_weight_when_rounding_overshoots() {
        // `u = (1 − 2⁻⁵³) · total` survives the running subtraction past
        // the three positive weights, so the walk falls off the end
        let weights = [0.2, 0.551204754915506, 0.7291692649955287, 0.0];
        assert_eq!(sample_weighted(&weights, &mut Top), 2);
        // zero weights between positive ones are skipped as well
        assert_eq!(
            sample_weighted(
                &[0.2, 0.551204754915506, 0.7291692649955287, 0.0, -1.0, 0.0],
                &mut Top
            ),
            2
        );
    }
}
