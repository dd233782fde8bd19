//! L2 sensitivity bounds.

/// L2 sensitivity of a histogram — a vector of counts over any domain,
/// 1-way or joint — under the replace-one neighbouring relation: changing
/// one tuple moves one count down by 1 and another up by 1, so
/// `‖Δ‖₂ = √2`. [`crate::release_histogram`] noises at this scale.
pub const HISTOGRAM_SENSITIVITY: f64 = std::f64::consts::SQRT_2;

/// Lemma 1 of the paper: the L2 sensitivity of the violation matrix over a
/// size-`l_w` sample, for a DC set with `n_unary` unary and `n_binary`
/// binary DCs:
///
/// ```text
/// S_w = |φ_u| + |φ_b| · √(L_w² − L_w)
/// ```
///
/// Changing one tuple changes a unary DC's violation count by at most 1,
/// while for a binary DC the differing tuple may newly violate against all
/// other `L_w − 1` rows (contributing `(L_w−1)²` to its own entry and 1 to
/// each partner's), giving `√((L_w−1)² + (L_w−1)) = √(L_w² − L_w)` per
/// binary DC.
pub fn violation_matrix_sensitivity(n_unary: usize, n_binary: usize, l_w: usize) -> f64 {
    assert!(l_w >= 1, "sample size must be at least 1");
    let l = l_w as f64;
    n_unary as f64 + n_binary as f64 * (l * l - l).sqrt()
}

/// L2 norm of a flat vector — the quantity DP-SGD clips (Algorithm 2
/// line 14 clips each per-example gradient to norm `C`).
pub fn l2_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Scales `v` in place so its L2 norm is at most `c` (the paper's
/// `ḡ ← g / max(1, ‖g‖₂/C)`). Returns the pre-clip norm.
pub fn clip_l2(v: &mut [f64], c: f64) -> f64 {
    assert!(c > 0.0, "clip threshold must be positive");
    let norm = l2_norm(v);
    if norm > c {
        let scale = c / norm;
        for x in v {
            *x *= scale;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_sensitivity_is_the_largest_replace_one_change() {
        // every way to change one tuple of a 3-code histogram
        let mut worst = 0.0f64;
        for from in 0..3 {
            for to in 0..3 {
                let mut delta = [0.0; 3];
                delta[from] -= 1.0;
                delta[to] += 1.0;
                worst = worst.max(l2_norm(&delta));
            }
        }
        assert_eq!(worst, HISTOGRAM_SENSITIVITY);
    }

    #[test]
    fn lemma1_closed_form() {
        // |φ_u| = 1, |φ_b| = 2, L_w = 100 ⇒ 1 + 2·√9900
        let s = violation_matrix_sensitivity(1, 2, 100);
        assert!((s - (1.0 + 2.0 * (9900.0f64).sqrt())).abs() < 1e-9);
    }

    #[test]
    fn lemma1_unary_only() {
        assert_eq!(violation_matrix_sensitivity(3, 0, 100), 3.0);
    }

    #[test]
    fn lemma1_degenerate_sample() {
        // a single-row sample cannot create binary violations
        assert_eq!(violation_matrix_sensitivity(0, 5, 1), 0.0);
    }

    #[test]
    fn lemma1_monotone_in_sample_size() {
        assert!(violation_matrix_sensitivity(0, 1, 200) > violation_matrix_sensitivity(0, 1, 100));
    }

    #[test]
    fn l2_norm_and_clip() {
        let mut v = vec![3.0, 4.0];
        assert_eq!(l2_norm(&v), 5.0);
        let pre = clip_l2(&mut v, 1.0);
        assert_eq!(pre, 5.0);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-12);
        // direction preserved
        assert!((v[0] / v[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn clip_noop_below_threshold() {
        let mut v = vec![0.3, 0.4];
        clip_l2(&mut v, 1.0);
        assert_eq!(v, vec![0.3, 0.4]);
    }

    #[test]
    fn clip_zero_vector() {
        let mut v = vec![0.0, 0.0];
        assert_eq!(clip_l2(&mut v, 1.0), 0.0);
        assert_eq!(v, vec![0.0, 0.0]);
    }
}
