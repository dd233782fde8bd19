//! Rényi differential privacy accounting (§6 of the paper).
//!
//! Kamino composes three mechanisms (Theorem 1): a full-rate Gaussian
//! release for the first attribute's histogram (`M1`), `T·(k−1)` steps of
//! DP-SGD — each a Sampled Gaussian Mechanism at rate `b/n` (`M2`), and one
//! SGM release of the violation matrix at rate `L_w/n` (`M3`). The total
//! RDP cost at each order α is the sum of the per-step costs; Eqn. (7)
//! converts to (ε, δ) by minimizing `R(α) + ln(1/δ)/(α−1)` over α.

/// Integer Rényi orders the accountant tracks. The SGM bound below is the
/// integer-α binomial form; the grid spans the range useful for
/// ε ∈ [0.05, 20] at δ ≥ 1e-9 (small α for loose budgets, large α for
/// tight ones).
pub const ALPHA_GRID: [u64; 23] = [
    2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 64, 96, 128, 256, 512,
];

/// RDP of the (unsampled) Gaussian mechanism at order α: `α / (2σ²)`.
pub fn gaussian_rdp(alpha: f64, sigma: f64) -> f64 {
    assert!(sigma > 0.0, "sigma must be positive");
    assert!(alpha > 1.0, "alpha must exceed 1");
    alpha / (2.0 * sigma * sigma)
}

/// RDP of the Sampled Gaussian Mechanism at integer order α with sampling
/// rate `q` and noise multiplier `σ` (Mironov, Talwar, Zhang 2019):
///
/// ```text
/// R(α) = 1/(α−1) · ln Σ_{k=0}^{α} C(α,k) (1−q)^{α−k} q^k e^{k(k−1)/(2σ²)}
/// ```
///
/// Evaluated in log-space (log-sum-exp) so large α and small q stay stable.
/// `q = 0` costs nothing; `q = 1` reduces exactly to [`gaussian_rdp`].
///
/// The paper's Lemma 2 prints `e^{(α²−α)/(2σ²)}` inside the sum — constant
/// in `k`, which would erase the subsampling amplification; this is the
/// corrected standard bound (see DESIGN.md).
pub fn sgm_rdp(alpha: u64, sigma: f64, q: f64) -> f64 {
    assert!(sigma > 0.0, "sigma must be positive");
    assert!((0.0..=1.0).contains(&q), "sampling rate must be in [0, 1]");
    assert!(alpha >= 2, "alpha must be an integer ≥ 2");
    if q == 0.0 {
        return 0.0;
    }
    if q == 1.0 {
        return gaussian_rdp(alpha as f64, sigma);
    }
    let a = alpha as f64;
    let ln_q = q.ln();
    let ln_1mq = (-q).ln_1p();
    let inv_2s2 = 1.0 / (2.0 * sigma * sigma);
    // log-sum-exp over k = 0..=α
    let mut max_term = f64::NEG_INFINITY;
    let mut terms = Vec::with_capacity(alpha as usize + 1);
    let mut ln_binom = 0.0; // ln C(α, 0)
    for k in 0..=alpha {
        if k > 0 {
            // C(α,k) = C(α,k−1)·(α−k+1)/k
            ln_binom += ((a - k as f64 + 1.0) / k as f64).ln();
        }
        let kf = k as f64;
        let t = ln_binom + (a - kf) * ln_1mq + kf * ln_q + kf * (kf - 1.0) * inv_2s2;
        max_term = max_term.max(t);
        terms.push(t);
    }
    let sum: f64 = terms.iter().map(|t| (t - max_term).exp()).sum();
    (max_term + sum.ln()) / (a - 1.0)
}

/// Accumulates RDP costs across adaptive mechanisms over [`ALPHA_GRID`] and
/// converts to (ε, δ) via Eqn. (7).
///
/// ```
/// use kamino_dp::RdpAccountant;
///
/// // a DP-SGD run: 2,000 steps at sampling rate 1/1000, σ = 1.1,
/// // composed with one full-rate histogram release at σ = 8
/// let mut acc = RdpAccountant::new();
/// acc.add_sgm(1.1, 0.001, 2_000);
/// acc.add_gaussian(8.0, 1);
/// let eps = acc.epsilon(1e-6);
/// assert!(eps > 0.0 && eps < 2.0, "eps = {eps}");
/// ```
#[derive(Debug, Clone)]
pub struct RdpAccountant {
    costs: [f64; ALPHA_GRID.len()],
}

impl Default for RdpAccountant {
    fn default() -> Self {
        Self::new()
    }
}

impl RdpAccountant {
    /// An accountant with zero spent cost.
    pub fn new() -> RdpAccountant {
        RdpAccountant {
            costs: [0.0; ALPHA_GRID.len()],
        }
    }

    /// Composes `count` releases of an unsampled Gaussian mechanism with
    /// noise multiplier `sigma`.
    pub fn add_gaussian(&mut self, sigma: f64, count: u64) {
        for (i, &alpha) in ALPHA_GRID.iter().enumerate() {
            self.costs[i] += count as f64 * gaussian_rdp(alpha as f64, sigma);
        }
    }

    /// Composes `count` SGM releases with noise multiplier `sigma` and
    /// sampling rate `q` (e.g. `T·(k−1)` DP-SGD steps at rate `b/n`).
    pub fn add_sgm(&mut self, sigma: f64, q: f64, count: u64) {
        for (i, &alpha) in ALPHA_GRID.iter().enumerate() {
            self.costs[i] += count as f64 * sgm_rdp(alpha, sigma, q);
        }
    }

    /// Total RDP cost at grid index `i` (test hook).
    pub fn cost_at(&self, i: usize) -> f64 {
        self.costs[i]
    }

    /// The (ε, δ) guarantee implied by the accumulated cost:
    /// `ε(δ) = min_α [R(α) + ln(1/δ)/(α−1)]` (Eqn. 7).
    pub fn epsilon(&self, delta: f64) -> f64 {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        let ln_inv_delta = (1.0 / delta).ln();
        ALPHA_GRID
            .iter()
            .enumerate()
            .map(|(i, &alpha)| self.costs[i] + ln_inv_delta / (alpha as f64 - 1.0))
            .fold(f64::INFINITY, f64::min)
    }
}

/// The smallest ε the grid's RDP→(ε, δ) conversion can express at `delta`
/// — `ln(1/δ)/(α_max − 1)` (Eqn. 7 with zero accumulated cost). No amount
/// of noise pushes a mechanism's converted ε below this, so calibration
/// targets at or under the floor are infeasible.
pub fn conversion_floor(delta: f64) -> f64 {
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
    (1.0 / delta).ln() / (ALPHA_GRID[ALPHA_GRID.len() - 1] as f64 - 1.0)
}

/// A calibration target that no noise multiplier can meet (it sits at or
/// below [`conversion_floor`], or past the search cap).
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationError {
    /// The infeasible (ε, δ) target.
    pub target_eps: f64,
    /// δ the target was requested at.
    pub delta: f64,
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no noise multiplier meets epsilon {} at delta {}: the RDP \
             conversion floor is {} (Eqn. 7 over the integer alpha grid)",
            self.target_eps,
            self.delta,
            conversion_floor(self.delta)
        )
    }
}

impl std::error::Error for CalibrationError {}

/// Binary-searches the smallest noise multiplier σ such that `count` SGM
/// releases at sampling rate `q` cost at most `target_eps` at `delta`
/// (`q = 1` calibrates plain Gaussian releases). Used by Algorithm 6, the
/// [`crate::planner::BudgetPlanner`], and the baselines to fit their
/// budgets.
///
/// Panics when the target is infeasible (below the grid's
/// [`conversion_floor`]); use [`try_calibrate_sgm_sigma`] to handle that
/// case gracefully.
pub fn calibrate_sgm_sigma(target_eps: f64, delta: f64, q: f64, count: u64) -> f64 {
    match try_calibrate_sgm_sigma(target_eps, delta, q, count) {
        Ok(sigma) => sigma,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`calibrate_sgm_sigma`]: `Err` when no σ can meet the
/// target instead of silently returning a non-fitting multiplier.
pub fn try_calibrate_sgm_sigma(
    target_eps: f64,
    delta: f64,
    q: f64,
    count: u64,
) -> Result<f64, CalibrationError> {
    assert!(
        target_eps > 0.0 && target_eps.is_finite(),
        "target epsilon must be positive"
    );
    let eps_of = |sigma: f64| {
        let mut acc = RdpAccountant::new();
        acc.add_sgm(sigma, q, count);
        acc.epsilon(delta)
    };
    // Upper bracket: grow until the budget fits. ε(σ) is decreasing in σ
    // but bounded below by the conversion floor, so a cap that never fits
    // means the target is infeasible — error out rather than silently
    // returning a σ that does not meet the budget.
    let mut hi = 2.0;
    while eps_of(hi) > target_eps {
        hi *= 2.0;
        if hi > 1e7 {
            return Err(CalibrationError { target_eps, delta });
        }
    }
    // Lower bracket: shrink until it *overshoots* the target. Pinning
    // `lo = 0.3` silently over-noised loose budgets whose true σ* < 0.3
    // (the search would converge to ≈ lo instead of σ*).
    let mut lo = hi.min(0.3);
    while lo > 1e-9 && eps_of(lo) <= target_eps {
        hi = lo;
        lo *= 0.5;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if eps_of(mid) > target_eps {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_sigma_fits_and_is_tight() {
        for &(eps, q, count) in &[(1.0, 1.0, 1u64), (0.5, 0.01, 500), (2.0, 0.001, 2000)] {
            let sigma = calibrate_sgm_sigma(eps, 1e-6, q, count);
            let mut acc = RdpAccountant::new();
            acc.add_sgm(sigma, q, count);
            assert!(acc.epsilon(1e-6) <= eps + 1e-9);
            let mut acc2 = RdpAccountant::new();
            acc2.add_sgm(sigma * 0.7, q, count);
            assert!(acc2.epsilon(1e-6) > eps, "calibration is far from tight");
        }
    }

    #[test]
    fn loose_budget_calibration_is_tight_not_pinned() {
        // The old search pinned lo = 0.3: any target loose enough that
        // σ* < 0.3 silently came back as σ ≈ 0.3, over-noising the release.
        for &(eps, q, count) in &[(50.0, 1.0, 1u64), (30.0, 1.0, 1), (200.0, 1.0, 8)] {
            let sigma = calibrate_sgm_sigma(eps, 1e-6, q, count);
            assert!(
                sigma < 0.3,
                "eps {eps}: sigma {sigma} stuck at the old lo bracket"
            );
            let mut acc = RdpAccountant::new();
            acc.add_sgm(sigma, q, count);
            assert!(
                acc.epsilon(1e-6) <= eps + 1e-9,
                "calibrated sigma does not fit"
            );
            let mut acc2 = RdpAccountant::new();
            acc2.add_sgm(sigma * 0.7, q, count);
            assert!(
                acc2.epsilon(1e-6) > eps,
                "eps {eps}: calibration is far from tight"
            );
        }
    }

    #[test]
    fn infeasible_target_errors_instead_of_lying() {
        // Below the conversion floor no σ fits; the old code fell out of
        // the doubling loop at the 1e7 cap and returned a σ that does NOT
        // meet the target.
        let floor = conversion_floor(1e-6);
        assert!((floor - (1e6f64).ln() / 511.0).abs() < 1e-12);
        let err = try_calibrate_sgm_sigma(floor * 0.5, 1e-6, 1.0, 1).unwrap_err();
        assert_eq!(err.target_eps, floor * 0.5);
        // and just above the floor it still succeeds (with a huge σ)
        let sigma = calibrate_sgm_sigma(floor * 1.05, 1e-6, 1.0, 1).max(1.0);
        let mut acc = RdpAccountant::new();
        acc.add_sgm(sigma, 1.0, 1);
        assert!(acc.epsilon(1e-6) <= floor * 1.05 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "conversion floor")]
    fn infeasible_target_panics_in_strict_form() {
        calibrate_sgm_sigma(1e-4, 1e-6, 1.0, 1);
    }

    #[test]
    fn gaussian_rdp_closed_form() {
        assert!((gaussian_rdp(2.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((gaussian_rdp(10.0, 2.0) - 10.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn sgm_q1_equals_gaussian() {
        for &alpha in &[2u64, 5, 16, 64] {
            for &sigma in &[0.7, 1.1, 3.0] {
                let a = sgm_rdp(alpha, sigma, 1.0);
                let b = gaussian_rdp(alpha as f64, sigma);
                assert!(
                    (a - b).abs() < 1e-9,
                    "alpha={alpha} sigma={sigma}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn sgm_q0_is_free() {
        assert_eq!(sgm_rdp(8, 1.1, 0.0), 0.0);
    }

    #[test]
    fn sgm_amplification_is_dramatic_at_small_q() {
        // Subsampling at q = 1/1000 must cost far less than the full-rate
        // mechanism — this is the property the paper's printed Lemma 2
        // formula would destroy.
        let full = gaussian_rdp(16.0, 1.1);
        let sampled = sgm_rdp(16, 1.1, 0.001);
        assert!(
            sampled < full / 100.0,
            "amplification too weak: sampled {sampled} vs full {full}"
        );
    }

    #[test]
    fn sgm_monotone_in_q_and_sigma() {
        let base = sgm_rdp(8, 1.1, 0.01);
        assert!(sgm_rdp(8, 1.1, 0.05) > base, "more sampling must cost more");
        assert!(sgm_rdp(8, 2.0, 0.01) < base, "more noise must cost less");
    }

    #[test]
    fn sgm_small_q_quadratic_regime() {
        // For small q and moderate α, R(α) ≈ q²·α·(e^{1/σ²}−1)-ish: halving
        // q should cut cost by ~4×. Check the ratio is close to quadratic.
        let r1 = sgm_rdp(4, 1.5, 0.02);
        let r2 = sgm_rdp(4, 1.5, 0.01);
        let ratio = r1 / r2;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio} not ≈ 4");
    }

    #[test]
    fn sgm_stable_at_large_alpha() {
        let r = sgm_rdp(512, 1.1, 0.001);
        assert!(r.is_finite() && r > 0.0);
    }

    #[test]
    fn accountant_composes_linearly() {
        let mut acc = RdpAccountant::new();
        acc.add_sgm(1.1, 0.01, 100);
        let mut acc2 = RdpAccountant::new();
        for _ in 0..100 {
            acc2.add_sgm(1.1, 0.01, 1);
        }
        for i in 0..ALPHA_GRID.len() {
            assert!((acc.cost_at(i) - acc2.cost_at(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn epsilon_conversion_gaussian_sanity() {
        // One full-rate Gaussian release calibrated for (1, 1e-6) must
        // convert back to ε ≤ ~1 (within 15%) and not implausibly below.
        let sigma = calibrate_sgm_sigma(1.0, 1e-6, 1.0, 1);
        let mut acc = RdpAccountant::new();
        acc.add_gaussian(sigma, 1);
        let eps = acc.epsilon(1e-6);
        assert!(eps < 1.15, "eps {eps} unexpectedly large for sigma {sigma}");
        assert!(eps > 0.2, "eps {eps} implausibly small");
    }

    #[test]
    fn epsilon_decreases_with_delta_relaxation() {
        let mut acc = RdpAccountant::new();
        acc.add_sgm(1.1, 0.01, 1000);
        assert!(acc.epsilon(1e-5) < acc.epsilon(1e-9));
    }

    #[test]
    fn dpsgd_regime_epsilon_plausible() {
        // A standard DP-SGD run: n = 32561, b = 32 (q ≈ 0.000983), σ = 1.1,
        // T = 5000 steps. Published accountants put ε(1e-6) for this regime
        // in the low single digits; assert the right ballpark.
        let mut acc = RdpAccountant::new();
        acc.add_sgm(1.1, 32.0 / 32561.0, 5000);
        let eps = acc.epsilon(1e-6);
        assert!(
            eps > 0.3 && eps < 3.0,
            "eps {eps} outside plausible DP-SGD range"
        );
    }

    #[test]
    fn more_steps_cost_more_epsilon() {
        let mut a = RdpAccountant::new();
        a.add_sgm(1.1, 0.001, 1000);
        let mut b = RdpAccountant::new();
        b.add_sgm(1.1, 0.001, 4000);
        assert!(b.epsilon(1e-6) > a.epsilon(1e-6));
    }

    #[test]
    fn empty_accountant_epsilon_small() {
        let acc = RdpAccountant::new();
        // only the conversion overhead ln(1/δ)/(α−1) at the largest α
        let eps = acc.epsilon(1e-6);
        let expect = (1e6f64).ln() / 511.0;
        assert!((eps - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn sgm_rejects_alpha_one() {
        sgm_rdp(1, 1.0, 0.5);
    }
}
