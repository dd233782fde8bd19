//! Reference distributions for the samplers' statistical tests.

/// `P(Z > x)` for `Z ~ N(0, 1)`, through the complementary error function
/// of Numerical Recipes (Chebyshev fit, fractional error below 1.2e-7 for
/// every `x`, so tail probabilities keep their relative accuracy).
pub(crate) fn normal_upper_tail(x: f64) -> f64 {
    let z = (x / std::f64::consts::SQRT_2).abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let erfc = t * poly.exp();
    if x >= 0.0 {
        0.5 * erfc
    } else {
        1.0 - 0.5 * erfc
    }
}

/// Φ, the standard normal CDF.
pub(crate) fn normal_cdf(x: f64) -> f64 {
    normal_upper_tail(-x)
}

/// The 0.1% upper critical value of χ² with `df` degrees of freedom
/// (Wilson–Hilferty; within 1% of the exact value for `df ≥ 10`).
pub(crate) fn chi2_critical(df: f64) -> f64 {
    let z = 3.090_232; // the 99.9% normal quantile
    let c = 2.0 / (9.0 * df);
    df * (1.0 - c + z * c.sqrt()).powi(3)
}

/// `|count − N·p| ≤ 5·√(N·p·(1 − p))`: a binomial count within five
/// standard deviations of its mean.
pub(crate) fn within_binomial(count: u64, trials: u64, p: f64) -> bool {
    let mean = trials as f64 * p;
    (count as f64 - mean).abs() <= 5.0 * (mean * (1.0 - p)).sqrt()
}
