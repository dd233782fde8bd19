//! Rényi differential privacy accounting (§6 of the paper).
//!
//! Kamino composes three mechanisms (Theorem 1): a full-rate Gaussian
//! release for the first attribute's histogram (`M1`), `T·(k−1)` steps of
//! DP-SGD — each a Sampled Gaussian Mechanism at rate `b/n` (`M2`), and one
//! SGM release of the violation matrix at rate `L_w/n` (`M3`). The total
//! RDP cost at each order α is the sum of the per-step costs; Eqn. (7)
//! converts to (ε, δ) by minimizing `R(α) + ln(1/δ)/(α−1)` over α.
//!
//! Everything here is exact to the bit against the plain formulation,
//! and the speed comes only from work that cannot change a result:
//! [`sgm_rdp`] reads its binomial logs from a table and skips the `exp`s
//! that round away (its docs give the rules), and the σ calibration
//! ([`try_calibrate_sgm_sigma`]) asks "does σ fit?" one order at a time —
//! `min_α ε_α ≤ target` holds exactly when some order's `ε_α` does — and
//! stops bisecting once no step can move its bracket. Its σ is the one a
//! 60-step bisection on [`RdpAccountant::epsilon`] returns.

use std::sync::OnceLock;

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
///
/// The result is bit-identical to the plain log-sum-exp (every term's
/// `exp`, summed in k order from `-0.0`), while doing less work:
/// * `ln C(α, k)` comes from a table built once per [`ALPHA_GRID`] order
///   by the same running recurrence `C(α,k) = C(α,k−1)·(α−k+1)/k`, so its
///   bits are the ones the per-term `ln` produced (an off-grid α builds
///   its row per call);
/// * one pass finds the largest term and a second recomputes each term
///   (the same expression) and sums the `exp`s, with no buffer;
/// * a term's `exp` is skipped only when adding it cannot change the sum:
///   when `t − max < −746` (`exp` underflows to exactly `+0.0` below
///   −745.13), or, once the largest term has been added and the sum is
///   ≥ 1, when `t − max < −38` (`e^{−38} ≈ 3.1e-17` is under half an ulp
///   of any sum ≥ 1, so the sum rounds back to itself).
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
    match ALPHA_GRID.binary_search(&alpha) {
        Ok(i) => sgm_log_sum_exp(&ln_binom_table()[i], sigma, q),
        Err(_) => sgm_log_sum_exp(&ln_binom_row(alpha), sigma, q),
    }
}

/// `ln C(α, k)` for `k = 0..=α`, by the running recurrence `sgm_rdp`'s sum
/// has always used.
fn ln_binom_row(alpha: u64) -> Vec<f64> {
    let a = alpha as f64;
    let mut ln_binom = 0.0; // ln C(α, 0)
    (0..=alpha)
        .map(|k| {
            if k > 0 {
                // C(α,k) = C(α,k−1)·(α−k+1)/k
                ln_binom += ((a - k as f64 + 1.0) / k as f64).ln();
            }
            ln_binom
        })
        .collect()
}

/// [`ln_binom_row`] of every [`ALPHA_GRID`] order (1,367 values), built on
/// first use.
fn ln_binom_table() -> &'static [Vec<f64>] {
    static TABLE: OnceLock<Vec<Vec<f64>>> = OnceLock::new();
    TABLE.get_or_init(|| ALPHA_GRID.iter().map(|&a| ln_binom_row(a)).collect())
}

/// `sgm_rdp`'s log-sum-exp for `0 < q < 1`, over the `ln C(α, k)` row
/// `ln_binom` (α = `ln_binom.len() − 1`).
fn sgm_log_sum_exp(ln_binom: &[f64], sigma: f64, q: f64) -> f64 {
    let a = (ln_binom.len() - 1) as f64;
    let ln_q = q.ln();
    let ln_1mq = (-q).ln_1p();
    let inv_2s2 = 1.0 / (2.0 * sigma * sigma);
    let term = |k: usize| {
        let kf = k as f64;
        ln_binom[k] + (a - kf) * ln_1mq + kf * ln_q + kf * (kf - 1.0) * inv_2s2
    };
    let max_term = (0..ln_binom.len()).fold(f64::NEG_INFINITY, |m, k| m.max(term(k)));
    let mut sum = -0.0;
    let mut past_max = false;
    for k in 0..ln_binom.len() {
        let d = term(k) - max_term;
        if d < -746.0 || (past_max && d < -38.0) {
            continue;
        }
        sum += d.exp();
        past_max |= d == 0.0;
    }
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
        let ln_inv_delta = ln_inv_delta(delta);
        (0..ALPHA_GRID.len())
            .map(|i| converted(self.costs[i], ln_inv_delta, i))
            .fold(f64::INFINITY, f64::min)
    }
}

/// `ln(1/δ)`, the numerator of Eqn. (7)'s conversion term.
pub(crate) fn ln_inv_delta(delta: f64) -> f64 {
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
    (1.0 / delta).ln()
}

/// Eqn. (7)'s ε at grid order `i` for an accumulated RDP cost `cost`:
/// `cost + ln(1/δ)/(α_i − 1)`. [`RdpAccountant::epsilon`] is the min of
/// this over the grid.
pub(crate) fn converted(cost: f64, ln_inv_delta: f64, i: usize) -> f64 {
    cost + ln_inv_delta / (ALPHA_GRID[i] as f64 - 1.0)
}

/// Whether `ε(δ) ≤ target`, asked one order at a time: `fits(i)` says
/// whether order `i`'s [`converted`] ε is ≤ the target. The min over the
/// grid is a selection, so "min ≤ target" is exactly "some order fits"
/// (an order whose ε is NaN never fits, as `f64::min` never selects it).
/// Tries `*last` first — the order that fitted the previous question —
/// then the others in grid order, stops at the first that fits and
/// remembers it in `*last`.
pub(crate) fn some_order_fits(last: &mut usize, mut fits: impl FnMut(usize) -> bool) -> bool {
    let n = ALPHA_GRID.len();
    match (0..n).map(|j| (*last + j) % n).find(|&i| fits(i)) {
        Some(i) => {
            *last = i;
            true
        }
        None => false,
    }
}

/// Up to 60 bisection steps between an over-budget `lo` and a fitting
/// `hi`, keeping the fitting end: `over(mid)` moves `lo` up, otherwise
/// `hi` down. Returns the final `hi`.
///
/// It stops as soon as no further step can move either end, so it
/// returns exactly what all 60 steps would: when the midpoint rounds to
/// `hi` (either answer leaves `hi` where it is), or when it rounds to a
/// `lo` already seen over budget (`lo_over`: the answer is known, and
/// leaves both ends in place). A `lo` nobody tested is still asked.
pub(crate) fn bisect(
    mut lo: f64,
    mut hi: f64,
    mut lo_over: bool,
    mut over: impl FnMut(f64) -> bool,
) -> f64 {
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if mid == hi || (mid == lo && lo_over) {
            break;
        }
        if over(mid) {
            lo = mid;
            lo_over = true;
        } else {
            hi = mid;
        }
    }
    hi
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
    calibrate(target_eps, delta, q, count, &mut 0)
}

/// [`try_calibrate_sgm_sigma`], adding the number of `(order, σ)`
/// [`sgm_rdp`] evaluations it made to `rdp_evals`.
///
/// Each "does σ fit?" question asks the orders one at a time
/// ([`some_order_fits`]), summing each order's cost as
/// [`RdpAccountant::add_sgm`] does, and the bisection stops once it can no
/// longer move ([`bisect`]): the σ returned is bit-identical to a plain
/// 60-step bisection on the accountant's full ε.
pub(crate) fn calibrate(
    target_eps: f64,
    delta: f64,
    q: f64,
    count: u64,
    rdp_evals: &mut u64,
) -> Result<f64, CalibrationError> {
    assert!(
        target_eps > 0.0 && target_eps.is_finite(),
        "target epsilon must be positive"
    );
    let ln_inv_delta = ln_inv_delta(delta);
    let mut last = ALPHA_GRID.len() - 1;
    let mut fits = |sigma: f64| {
        some_order_fits(&mut last, |i| {
            *rdp_evals += 1;
            let cost = 0.0 + count as f64 * sgm_rdp(ALPHA_GRID[i], sigma, q);
            converted(cost, ln_inv_delta, i) <= target_eps
        })
    };
    // Upper bracket: grow until the budget fits. ε(σ) is decreasing in σ
    // but bounded below by the conversion floor, so a cap that never fits
    // means the target is infeasible — error out rather than silently
    // returning a σ that does not meet the budget.
    let mut hi = 2.0;
    while !fits(hi) {
        hi *= 2.0;
        if hi > 1e7 {
            return Err(CalibrationError { target_eps, delta });
        }
    }
    // Lower bracket: shrink until it *overshoots* the target. Pinning
    // `lo = 0.3` silently over-noised loose budgets whose true σ* < 0.3
    // (the search would converge to ≈ lo instead of σ*). A `lo` the loop
    // leaves at ≤ 1e-9 was never tested.
    let mut lo = hi.min(0.3);
    while lo > 1e-9 && fits(lo) {
        hi = lo;
        lo *= 0.5;
    }
    Ok(bisect(lo, hi, lo > 1e-9, |sigma| !fits(sigma)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The running-sum loop `sgm_rdp` evaluated before its table and
    /// skip rules: one `ln` per binomial step, every term kept in a `Vec`,
    /// every `exp` summed. [`sgm_rdp`] must match it bit for bit.
    fn sgm_rdp_ref(alpha: u64, sigma: f64, q: f64) -> f64 {
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
        let mut max_term = f64::NEG_INFINITY;
        let mut terms = Vec::with_capacity(alpha as usize + 1);
        let mut ln_binom = 0.0;
        for k in 0..=alpha {
            if k > 0 {
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

    /// `sgm_rdp` equals [`sgm_rdp_ref`] bit for bit on 10⁶ seeded cells:
    /// every grid order and the off-grid orders 11, 33 and 100, at q
    /// log-uniform in [1e-6, 1) and σ log-uniform in [0.1, 100], plus the
    /// q = 0 and q = 1 edges.
    #[test]
    fn sgm_rdp_matches_the_running_sum_loop_bit_for_bit() {
        let orders: Vec<u64> = ALPHA_GRID.iter().copied().chain([11, 33, 100]).collect();
        let mut rng = StdRng::seed_from_u64(0x5637_2d52_4450);
        let cells = 1_000_000 / orders.len() + 1;
        for _ in 0..cells {
            let q = (1e-6f64).powf(1.0 - rng.gen::<f64>());
            let sigma = 0.1 * (1e3f64).powf(rng.gen::<f64>());
            for &alpha in &orders {
                let (got, want) = (sgm_rdp(alpha, sigma, q), sgm_rdp_ref(alpha, sigma, q));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "alpha {alpha}, sigma {sigma:e}, q {q:e}: {got:e} vs {want:e}"
                );
            }
        }
        for &alpha in &orders {
            for q in [0.0, 1.0] {
                assert_eq!(
                    sgm_rdp(alpha, 1.3, q).to_bits(),
                    sgm_rdp_ref(alpha, 1.3, q).to_bits()
                );
            }
        }
    }

    /// Φ, the standard normal CDF, by composite Simpson over the tail:
    /// `Q(y) = φ(y)·∫₀^U e^{−yu − u²/2} du` (the substitution t = y + u on
    /// `∫_y^{y+40} φ`, cut at `U = 30/y` once that is shorter: past it the
    /// integrand is below e^{−30} of its start), then `Φ(x) = Q(−x)` for
    /// x ≤ 0 and `1 − Q(x)` otherwise. 4,000 panels keep the relative
    /// error ≤ 1e-9 (checked in the test below).
    fn normal_cdf(x: f64) -> f64 {
        let tail = |y: f64| {
            let u_max = if y > 0.75 { 30.0 / y } else { 40.0 };
            let panels = 4_000;
            let h = u_max / panels as f64;
            let g = |u: f64| (-y * u - 0.5 * u * u).exp();
            let inner: f64 = (1..panels)
                .map(|j| if j % 2 == 1 { 4.0 } else { 2.0 } * g(j as f64 * h))
                .sum();
            let density = (-0.5 * y * y).exp() / (2.0 * std::f64::consts::PI).sqrt();
            density * (g(0.0) + inner + g(u_max)) * h / 3.0
        };
        if x <= 0.0 {
            tail(-x)
        } else {
            1.0 - tail(x)
        }
    }

    /// The accountant's ε for one Gaussian release is sound: at that ε the
    /// exact privacy profile of the Gaussian mechanism (sensitivity 1,
    /// noise σ), `δ(ε) = Φ(1/(2σ) − εσ) − e^ε·Φ(−1/(2σ) − εσ)` (Balle &
    /// Wang, ICML 2018, Thm. 8), is at most δ — for σ on a log grid over
    /// [0.5, 50] and δ ∈ {1e-5, 1e-6, 1e-9}. The RDP route over the integer
    /// grid is loose, but boundedly so: its ε stays within 1.75× of the
    /// exact ε (the smallest ε whose δ(ε) ≤ δ, by bisection). The loosest
    /// cell today is 1.67× (σ = 39.7, δ = 1e-5, where the smallest order,
    /// α = 2, is still too large); at δ = 1e-6 and σ ≤ 5 it is ≤ 1.29×.
    #[test]
    fn accountant_is_sound_against_the_exact_gaussian_profile() {
        for (x, want) in [
            (0.0, 0.5),
            (-1.0, 0.158_655_253_931_457_05),
            (-5.0, 2.866_515_718_791_939e-7),
            (-10.0, 7.619_853_024_160_527e-24),
            (-20.0, 2.753_624_118_606_233_7e-89),
            (2.0, 0.977_249_868_051_820_8),
        ] {
            let got = normal_cdf(x);
            assert!(
                (got / want - 1.0).abs() <= 1e-9,
                "Φ({x}) = {got:e}, want {want:e}"
            );
        }
        let exact_delta = |eps: f64, sigma: f64| {
            normal_cdf(0.5 / sigma - eps * sigma)
                - eps.exp() * normal_cdf(-0.5 / sigma - eps * sigma)
        };
        let mut worst: f64 = 0.0;
        for delta in [1e-5, 1e-6, 1e-9] {
            for j in 0..=20 {
                let sigma = 0.5 * 100f64.powf(j as f64 / 20.0);
                let mut acc = RdpAccountant::new();
                acc.add_gaussian(sigma, 1);
                let eps = acc.epsilon(delta);
                let spent = exact_delta(eps, sigma);
                assert!(
                    spent <= delta,
                    "σ {sigma}, δ {delta:e}: the accountant's ε {eps} has exact δ {spent:e}"
                );
                let (mut lo, mut hi) = (0.0, eps);
                for _ in 0..50 {
                    let mid = 0.5 * (lo + hi);
                    if exact_delta(mid, sigma) > delta {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                worst = worst.max(eps / hi);
            }
        }
        assert!(worst <= 1.75, "the accountant's ε is {worst}× the exact ε");
    }

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

    /// `sgm_rdp` at α = 2 and 3 against the binomial sums written out:
    /// `R(2) = ln(1 + q²(e^{1/σ²} − 1))` and
    /// `R(3) = ½·ln((1−q)³ + 3q(1−q)² + 3q²(1−q)e^{1/σ²} + q³e^{3/σ²})`.
    /// The plain binomial weights sum to 1, so the references take the
    /// argument as `1 + x` and use `ln_1p`/`exp_m1` to keep a small cost's
    /// digits. The log-sum-exp under test keeps relative error ≤ 1e-12
    /// down to a cost of 1e-3; below that its error is absolute (≤ 1e-15:
    /// at q = 1e-4, σ = 10 the relative error is ~1e-6), so the bound is
    /// `1e-12 · max(R, 1e-3)`.
    #[test]
    fn sgm_low_orders_match_their_binomial_sums() {
        for q in [1e-4, 1e-3, 0.01, 0.016, 0.05, 0.1, 0.25, 0.5, 0.9, 0.99f64] {
            for sigma in [0.5, 0.8, 1.0, 1.1, 2.0, 3.0, 5.0, 10.0f64] {
                let e1 = (1.0 / (sigma * sigma)).exp_m1();
                let e3 = (3.0 / (sigma * sigma)).exp_m1();
                let r2 = (q * q * e1).ln_1p();
                let r3 = 0.5 * (3.0 * q * q * (1.0 - q) * e1 + q * q * q * e3).ln_1p();
                for (alpha, want) in [(2, r2), (3, r3)] {
                    let got = sgm_rdp(alpha, sigma, q);
                    assert!(
                        (got - want).abs() <= 1e-12 * want.max(1e-3),
                        "R({alpha}) at q = {q}, σ = {sigma}: {got:e} vs {want:e}"
                    );
                }
            }
        }
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
