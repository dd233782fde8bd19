//! Dense kernels shared by all layers.
//!
//! Matrices are row-major `out × in`, stored flat. These are the only
//! numeric kernels in the workspace; everything else composes them, so
//! keeping them allocation-free matters (the performance guide's
//! "reuse workhorse buffers" idiom — callers pass output slices).
//!
//! ## Tiling and the bit-identity contract
//!
//! The matvec/outer kernels are register-blocked over `ROW_BLOCK` output
//! rows: one pass over `x` (or `x_grad`) serves four rows at a time, which
//! cuts memory traffic ~4× and gives the CPU four independent accumulation
//! chains. Crucially, the blocking never reorders the floating-point
//! operations *of any single output element* — each `y[o]` is still a
//! strictly left-to-right dot product, and each `x_grad[j]` still receives
//! its `d·w` terms in ascending `o` order with the exact `d == 0.0` skips
//! of the naive loop. The tiled kernels are therefore **bit-identical** to
//! their [`matvec_ref`]/[`matvec_t_acc_ref`]/[`outer_acc_ref`] reference
//! twins (property-tested in `tests/proptest_kernels.rs`), and the
//! workspace determinism contract (tiled ≡ pre-tiling output) is
//! unaffected.

/// Output rows processed per register block by the tiled kernels.
const ROW_BLOCK: usize = 4;

/// `y = W·x` for row-major `W (out × in)` — naive per-row reference.
///
/// The serial-reference twin of [`matvec`]; kept (and exported) so parity
/// tests and microbenchmarks can pin the tiled kernel against it.
#[inline]
pub fn matvec_ref(w: &[f64], x: &[f64], y: &mut [f64]) {
    let n_in = x.len();
    debug_assert_eq!(w.len(), y.len() * n_in);
    for (o, yo) in y.iter_mut().enumerate() {
        let row = &w[o * n_in..(o + 1) * n_in];
        *yo = dot(row, x);
    }
}

/// `y = W·x` for row-major `W (out × in)`, blocked over `ROW_BLOCK`
/// output rows. Bit-identical to [`matvec_ref`] (each `y[o]` is the same
/// left-to-right dot product; see the module docs).
#[inline]
pub fn matvec(w: &[f64], x: &[f64], y: &mut [f64]) {
    let n_in = x.len();
    let n_out = y.len();
    debug_assert_eq!(w.len(), n_out * n_in);
    let mut o = 0;
    while o + ROW_BLOCK <= n_out {
        let base = o * n_in;
        let r0 = &w[base..base + n_in];
        let r1 = &w[base + n_in..base + 2 * n_in];
        let r2 = &w[base + 2 * n_in..base + 3 * n_in];
        let r3 = &w[base + 3 * n_in..base + 4 * n_in];
        // -0.0 is `Sum for f64`'s fold identity (and IEEE's true additive
        // identity), so starting there keeps each row bit-identical to
        // `dot` even when every product is -0.0.
        let (mut a0, mut a1, mut a2, mut a3) = (-0.0, -0.0, -0.0, -0.0);
        for (k, &xk) in x.iter().enumerate() {
            a0 += r0[k] * xk;
            a1 += r1[k] * xk;
            a2 += r2[k] * xk;
            a3 += r3[k] * xk;
        }
        y[o] = a0;
        y[o + 1] = a1;
        y[o + 2] = a2;
        y[o + 3] = a3;
        o += ROW_BLOCK;
    }
    for o in o..n_out {
        y[o] = dot(&w[o * n_in..(o + 1) * n_in], x);
    }
}

/// `x_grad += Wᵀ·dy` for row-major `W (out × in)` — naive per-row
/// reference (the serial twin of [`matvec_t_acc`]).
#[inline]
pub fn matvec_t_acc_ref(w: &[f64], dy: &[f64], x_grad: &mut [f64]) {
    let n_in = x_grad.len();
    debug_assert_eq!(w.len(), dy.len() * n_in);
    for (o, &d) in dy.iter().enumerate() {
        if d == 0.0 {
            continue;
        }
        let row = &w[o * n_in..(o + 1) * n_in];
        for (xg, &wv) in x_grad.iter_mut().zip(row) {
            *xg += d * wv;
        }
    }
}

/// `x_grad += Wᵀ·dy` for row-major `W (out × in)`, blocked over
/// `ROW_BLOCK` rows of `W` so each pass over `x_grad` retires four `dy`
/// terms. Bit-identical to [`matvec_t_acc_ref`]: per element `x_grad[j]`
/// the `d·w` terms are added in the same ascending-`o` order, and a term
/// is skipped exactly when `d == 0.0` (the skip is semantic, not an
/// optimization — adding `0.0` could flip `-0.0` to `+0.0` or turn `±∞`
/// weights into NaN).
#[inline]
pub fn matvec_t_acc(w: &[f64], dy: &[f64], x_grad: &mut [f64]) {
    let n_in = x_grad.len();
    let n_out = dy.len();
    debug_assert_eq!(w.len(), n_out * n_in);
    let mut o = 0;
    while o + ROW_BLOCK <= n_out {
        let (d0, d1, d2, d3) = (dy[o], dy[o + 1], dy[o + 2], dy[o + 3]);
        if d0 == 0.0 && d1 == 0.0 && d2 == 0.0 && d3 == 0.0 {
            o += ROW_BLOCK;
            continue;
        }
        let base = o * n_in;
        let r0 = &w[base..base + n_in];
        let r1 = &w[base + n_in..base + 2 * n_in];
        let r2 = &w[base + 2 * n_in..base + 3 * n_in];
        let r3 = &w[base + 3 * n_in..base + 4 * n_in];
        for (j, xg) in x_grad.iter_mut().enumerate() {
            let mut acc = *xg;
            if d0 != 0.0 {
                acc += d0 * r0[j];
            }
            if d1 != 0.0 {
                acc += d1 * r1[j];
            }
            if d2 != 0.0 {
                acc += d2 * r2[j];
            }
            if d3 != 0.0 {
                acc += d3 * r3[j];
            }
            *xg = acc;
        }
        o += ROW_BLOCK;
    }
    for (o, &d) in dy.iter().enumerate().skip(o) {
        if d == 0.0 {
            continue;
        }
        let row = &w[o * n_in..(o + 1) * n_in];
        for (xg, &wv) in x_grad.iter_mut().zip(row) {
            *xg += d * wv;
        }
    }
}

/// `W_grad += dy ⊗ x` (outer product accumulate) — naive per-row
/// reference (the serial twin of [`outer_acc`]).
#[inline]
pub fn outer_acc_ref(w_grad: &mut [f64], dy: &[f64], x: &[f64]) {
    let n_in = x.len();
    debug_assert_eq!(w_grad.len(), dy.len() * n_in);
    for (o, &d) in dy.iter().enumerate() {
        if d == 0.0 {
            continue;
        }
        let row = &mut w_grad[o * n_in..(o + 1) * n_in];
        for (wg, &xv) in row.iter_mut().zip(x) {
            *wg += d * xv;
        }
    }
}

/// `W_grad += dy ⊗ x`, blocked over `ROW_BLOCK` gradient rows so one
/// pass over `x` feeds four rows. Every `w_grad[o][j]` is touched at most
/// once (the update is element-wise independent), so the blocking is
/// trivially bit-identical to [`outer_acc_ref`]; the `d == 0.0` skip is
/// preserved per row.
#[inline]
pub fn outer_acc(w_grad: &mut [f64], dy: &[f64], x: &[f64]) {
    let n_in = x.len();
    let n_out = dy.len();
    debug_assert_eq!(w_grad.len(), n_out * n_in);
    let mut o = 0;
    while o + ROW_BLOCK <= n_out {
        let (d0, d1, d2, d3) = (dy[o], dy[o + 1], dy[o + 2], dy[o + 3]);
        if d0 == 0.0 && d1 == 0.0 && d2 == 0.0 && d3 == 0.0 {
            o += ROW_BLOCK;
            continue;
        }
        let block = &mut w_grad[o * n_in..(o + ROW_BLOCK) * n_in];
        let (b0, rest) = block.split_at_mut(n_in);
        let (b1, rest) = rest.split_at_mut(n_in);
        let (b2, b3) = rest.split_at_mut(n_in);
        for (j, &xj) in x.iter().enumerate() {
            if d0 != 0.0 {
                b0[j] += d0 * xj;
            }
            if d1 != 0.0 {
                b1[j] += d1 * xj;
            }
            if d2 != 0.0 {
                b2[j] += d2 * xj;
            }
            if d3 != 0.0 {
                b3[j] += d3 * xj;
            }
        }
        o += ROW_BLOCK;
    }
    for (o, &d) in dy.iter().enumerate().skip(o) {
        if d == 0.0 {
            continue;
        }
        let row = &mut w_grad[o * n_in..(o + 1) * n_in];
        for (wg, &xv) in row.iter_mut().zip(x) {
            *wg += d * xv;
        }
    }
}

/// Dot product.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha·x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// In-place numerically-stable softmax.
pub fn softmax_in_place(z: &mut [f64]) {
    let max = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in z.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 && sum.is_finite() {
        for v in z.iter_mut() {
            *v /= sum;
        }
    } else {
        let u = 1.0 / z.len() as f64;
        z.iter_mut().for_each(|v| *v = u);
    }
}

/// Numerically-stable `ln Σ exp(z_i)`.
pub fn log_sum_exp(z: &[f64]) -> f64 {
    let max = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return max;
    }
    max + z.iter().map(|&v| (v - max).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_2x3() {
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // [[1,2,3],[4,5,6]]
        let x = [1.0, 0.0, -1.0];
        let mut y = [0.0; 2];
        matvec(&w, &x, &mut y);
        assert_eq!(y, [-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_acc_transposes() {
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let dy = [1.0, 1.0];
        let mut xg = [0.0; 3];
        matvec_t_acc(&w, &dy, &mut xg);
        assert_eq!(xg, [5.0, 7.0, 9.0]);
    }

    #[test]
    fn outer_acc_accumulates() {
        let mut wg = [0.0; 6];
        outer_acc(&mut wg, &[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(wg, [3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
        outer_acc(&mut wg, &[1.0, 0.0], &[1.0, 1.0, 1.0]);
        assert_eq!(wg, [4.0, 5.0, 6.0, 6.0, 8.0, 10.0]);
    }

    /// Deterministic pseudo-random fill with awkward values mixed in
    /// (negative zero, subnormal-ish magnitudes) to stress bit-identity.
    fn fill(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match state % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * (i as f64 + 1.0),
                }
            })
            .collect()
    }

    #[test]
    fn tiled_kernels_are_bit_identical_to_reference() {
        // shapes straddling the ROW_BLOCK boundary, including a remainder
        for &(n_out, n_in) in &[(1usize, 1usize), (3, 5), (4, 4), (5, 7), (8, 3), (13, 11)] {
            let w = fill(n_out as u64 * 31 + n_in as u64, n_out * n_in);
            let x = fill(n_in as u64 + 7, n_in);
            let dy = fill(n_out as u64 + 99, n_out);

            let mut y_t = vec![0.0; n_out];
            let mut y_r = vec![0.0; n_out];
            matvec(&w, &x, &mut y_t);
            matvec_ref(&w, &x, &mut y_r);
            for (a, b) in y_t.iter().zip(&y_r) {
                assert_eq!(a.to_bits(), b.to_bits(), "matvec {n_out}x{n_in}");
            }

            let mut xg_t = fill(5, n_in);
            let mut xg_r = xg_t.clone();
            matvec_t_acc(&w, &dy, &mut xg_t);
            matvec_t_acc_ref(&w, &dy, &mut xg_r);
            for (a, b) in xg_t.iter().zip(&xg_r) {
                assert_eq!(a.to_bits(), b.to_bits(), "matvec_t_acc {n_out}x{n_in}");
            }

            let mut wg_t = fill(9, n_out * n_in);
            let mut wg_r = wg_t.clone();
            outer_acc(&mut wg_t, &dy, &x);
            outer_acc_ref(&mut wg_r, &dy, &x);
            for (a, b) in wg_t.iter().zip(&wg_r) {
                assert_eq!(a.to_bits(), b.to_bits(), "outer_acc {n_out}x{n_in}");
            }
        }
    }

    #[test]
    fn zero_skip_preserves_signed_zero_and_infinities() {
        // dy = 0.0 must skip the term entirely: adding 0.0·w would flip
        // -0.0 accumulators to +0.0 and turn infinite weights into NaN.
        let w = [f64::INFINITY, -1.0, 2.0, 5.0];
        let dy = [0.0, 1.0];
        let mut xg = [-0.0, 0.5];
        matvec_t_acc(&w, &dy, &mut xg);
        assert_eq!(xg[0].to_bits(), (2.0f64 + -0.0).to_bits());
        let mut wg = [-0.0, -0.0, 0.0, 0.0];
        outer_acc(&mut wg, &[0.0, 0.0], &[1.0, 1.0]);
        assert_eq!(wg[0].to_bits(), (-0.0f64).to_bits(), "skipped row mutated");
    }

    #[test]
    fn dot_and_axpy() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut y = [1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, [3.0, -1.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let mut a = [1.0, 2.0, 3.0];
        let mut b = [1001.0, 1002.0, 1003.0];
        softmax_in_place(&mut a);
        softmax_in_place(&mut b);
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
        assert!(a[2] > a[1] && a[1] > a[0]);
    }

    #[test]
    fn softmax_handles_extreme_inputs() {
        let mut z = [f64::NEG_INFINITY, 0.0];
        softmax_in_place(&mut z);
        assert_eq!(z, [0.0, 1.0]);
        let mut all_neg_inf = [f64::NEG_INFINITY, f64::NEG_INFINITY];
        softmax_in_place(&mut all_neg_inf);
        assert_eq!(all_neg_inf, [0.5, 0.5]);
    }

    #[test]
    fn log_sum_exp_stable() {
        let z = [1000.0, 1000.0];
        assert!((log_sum_exp(&z) - (1000.0 + 2f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }
}
