//! Parameter blocks: flat value/gradient buffers.

use rand::Rng;

/// One trainable tensor, stored flat, with a gradient buffer of the same
/// shape. Layers own their blocks; models expose them to the optimizer via
/// [`crate::optim::PerExampleModel::visit_blocks`].
///
/// A block is either dense or **row-sparse**. A row-sparse block (an
/// [`crate::Embedding`] table) is rows of a fixed width, and its backward
/// pass marks each row it writes as touched. Between gradient clears,
/// every coordinate outside the touched rows is exactly `+0.0`, so the
/// fused DP-SGD kernel visits only the touched rows, and a step's
/// gradient sum and update visit only the rows touched that step. Code
/// that writes a row-sparse block's `grads` directly must go through that
/// backward pass, or the kernel will miss the write.
///
/// A row-sparse block also carries DP-SGD's deferred noise: a private
/// step adds none to it, but counts one more step that every row owes.
/// [`crate::DpSgd`] settles a row's owed noise (one Gaussian for all its
/// owed steps) before any example reads the row, and every row at the end
/// of training, so no value is read or released while it owes noise.
///
/// During training every block also holds DP-SGD's gradient sum: the sum
/// of the step's clipped per-example gradients, `+0.0` between steps. It
/// is allocated on the block's first step and freed by
/// [`crate::DpSgd::finish`], so a trained model carries none.
#[derive(Debug, Clone)]
pub struct ParamBlock {
    /// Parameter values.
    pub values: Vec<f64>,
    /// Gradient accumulator (per-example during DP-SGD).
    pub grads: Vec<f64>,
    /// Boxed so a block stays small.
    dp: Box<DpState>,
}

/// The DP-SGD state of a [`ParamBlock`].
#[derive(Debug, Clone, Default)]
struct DpState {
    /// The gradient sum; empty outside training.
    sums: Vec<f64>,
    /// `None` for a dense block.
    sparse: Option<RowSparse>,
}

/// The row-sparse state of a [`ParamBlock`].
#[derive(Debug, Clone)]
struct RowSparse {
    /// Coordinates per row.
    width: usize,
    /// Rows written since the gradient was last cleared, in write order
    /// and possibly repeated.
    rows: Vec<usize>,
    /// Rows drained into this step's gradient sum, possibly repeated:
    /// outside them the sum is exactly `+0.0`.
    step_rows: Vec<usize>,
    /// Private DP-SGD steps applied to the block.
    steps: u64,
    /// Per row, how many of those steps' noise its values already carry.
    settled: Vec<u64>,
}

impl RowSparse {
    /// Panics unless `row` carries the noise of every step so far: a row
    /// read while it owes noise would train on (and could release) an
    /// under-noised value.
    #[inline]
    fn assert_settled(&self, row: usize) {
        let owed = self.steps - self.settled[row];
        assert!(
            owed == 0,
            "row {row} of a row-sparse block was read while it owes {owed} steps of \
             DP-SGD noise; the model must report it through \
             `PerExampleModel::visit_read_rows`"
        );
    }
}

impl ParamBlock {
    /// A dense block holding `values`, with a zeroed gradient.
    pub fn from_values(values: Vec<f64>) -> ParamBlock {
        ParamBlock {
            grads: vec![0.0; values.len()],
            values,
            dp: Box::default(),
        }
    }

    /// A zero-initialized block of `len` parameters.
    pub fn zeros(len: usize) -> ParamBlock {
        ParamBlock::from_values(vec![0.0; len])
    }

    /// A block initialized uniformly on `[-scale, scale]`.
    pub fn uniform<R: Rng + ?Sized>(len: usize, scale: f64, rng: &mut R) -> ParamBlock {
        ParamBlock::from_values(
            (0..len)
                .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
                .collect(),
        )
    }

    /// This block as a row-sparse one with rows of `row_width`
    /// coordinates (0 keeps it dense). Its writers must then mark every
    /// row they write with [`ParamBlock::touch_row`].
    pub(crate) fn row_sparse(mut self, row_width: usize) -> ParamBlock {
        assert!(
            row_width == 0 || self.len().is_multiple_of(row_width),
            "row width {row_width} does not divide block length {}",
            self.len()
        );
        self.dp.sparse = (row_width > 0).then(|| RowSparse {
            width: row_width,
            rows: Vec::new(),
            step_rows: Vec::new(),
            steps: 0,
            settled: vec![0; self.len() / row_width],
        });
        self
    }

    /// The row width of a row-sparse block; `None` for a dense one.
    #[inline]
    pub fn row_width(&self) -> Option<usize> {
        self.dp.sparse.as_ref().map(|t| t.width)
    }

    /// Marks `row` as written since the last gradient clear. A no-op on a
    /// dense block.
    #[inline]
    pub(crate) fn touch_row(&mut self, row: usize) {
        if let Some(t) = &mut self.dp.sparse {
            t.rows.push(row);
        }
    }

    /// Counts one more private step whose noise every row of a row-sparse
    /// block owes. A no-op on a dense block, which is noised in full.
    pub(crate) fn owe_step(&mut self) {
        if let Some(t) = &mut self.dp.sparse {
            t.steps += 1;
        }
    }

    /// Whether a row of a row-sparse block still owes deferred DP-SGD
    /// noise ([`crate::DpSgd::finish`] settles them all).
    pub fn owes_noise(&self) -> bool {
        self.dp
            .sparse
            .as_ref()
            .is_some_and(|t| t.settled.iter().any(|&s| s < t.steps))
    }

    /// Marks `row` as carrying all noise so far and returns how many
    /// steps' noise it owed, for the caller to add. A dense block owes
    /// nothing.
    pub(crate) fn settle_row(&mut self, row: usize) -> u64 {
        let Some(t) = &mut self.dp.sparse else {
            return 0;
        };
        let owed = t.steps - t.settled[row];
        t.settled[row] = t.steps;
        owed
    }

    /// Number of parameters.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the block is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Zeroes the gradient buffer and forgets the touched rows.
    #[inline]
    pub fn zero_grad(&mut self) {
        self.grads.iter_mut().for_each(|g| *g = 0.0);
        if let Some(t) = &mut self.dp.sparse {
            t.rows.clear();
        }
    }

    /// Sum of squared gradients (for global-norm clipping).
    #[inline]
    pub fn grad_sq_norm(&self) -> f64 {
        self.grads.iter().map(|g| g * g).sum()
    }

    /// The fused DP-SGD kernel's norm pass: [`ParamBlock::grad_sq_norm`]
    /// over only the coordinates that can be nonzero, plus how many
    /// coordinates it visited. A dense block visits every coordinate; a
    /// row-sparse one sorts and dedups its touched rows and visits those,
    /// in ascending order, panicking if one still owes noise. Since every
    /// skipped `g·g` is `+0.0` and the running sum (seeded `-0.0`, like
    /// `Sum for f64`) becomes `+0.0` or positive on its first addition,
    /// the result matches the dense pass bit for bit once it is added into
    /// a `+0.0`-seeded total.
    pub(crate) fn live_sq_norm(&mut self) -> (f64, usize) {
        let Some(t) = &mut self.dp.sparse else {
            return (self.grad_sq_norm(), self.len());
        };
        t.rows.sort_unstable();
        t.rows.dedup();
        let w = t.width;
        let grads = &self.grads;
        let sq = t
            .rows
            .iter()
            .flat_map(|&r| {
                t.assert_settled(r);
                &grads[r * w..(r + 1) * w]
            })
            .map(|g| g * g)
            .sum();
        (sq, t.rows.len() * w)
    }

    /// Allocates the block's gradient sum, all `+0.0`, unless it has one.
    pub(crate) fn alloc_sums(&mut self) {
        if self.dp.sums.len() != self.len() {
            self.dp.sums = vec![0.0; self.len()];
        }
    }

    /// Frees the gradient sum.
    pub(crate) fn free_sums(&mut self) {
        self.dp.sums = Vec::new();
    }

    /// The gradient sum; empty unless [`ParamBlock::alloc_sums`] ran.
    pub(crate) fn sums_mut(&mut self) -> &mut [f64] {
        &mut self.dp.sums
    }

    /// The fused DP-SGD kernel's second pass, over the coordinates
    /// [`ParamBlock::live_sq_norm`] just visited: `sums += scale · grads`,
    /// then those gradients are re-zeroed and the touched rows handed to
    /// the step's live rows. Each skipped coordinate would have added
    /// `scale · +0.0 = +0.0` to a sum that is `+0.0` between steps and can
    /// never become `-0.0`, so skipping it is an exact identity.
    pub(crate) fn drain_scaled(&mut self, scale: f64) {
        let drain = |s: &mut [f64], g: &mut [f64]| {
            for (s, g) in s.iter_mut().zip(g) {
                *s += scale * *g;
                *g = 0.0;
            }
        };
        let dp = &mut *self.dp;
        let Some(t) = &mut dp.sparse else {
            drain(&mut dp.sums, &mut self.grads);
            return;
        };
        let w = t.width;
        for &r in &t.rows {
            let rows = r * w..(r + 1) * w;
            drain(&mut dp.sums[rows.clone()], &mut self.grads[rows]);
        }
        t.step_rows.append(&mut t.rows);
    }

    /// The all-dense reference kernel's counterpart of
    /// [`ParamBlock::drain_scaled`]: `sums += scale · grads` over every
    /// coordinate, then the touched rows are handed to the step's live
    /// rows, panicking if one still owes noise. The gradients are left for
    /// the next example's clear.
    pub(crate) fn add_scaled(&mut self, scale: f64) {
        let dp = &mut *self.dp;
        for (s, g) in dp.sums.iter_mut().zip(&self.grads) {
            *s += scale * g;
        }
        if let Some(t) = &mut dp.sparse {
            for &r in &t.rows {
                t.assert_settled(r);
            }
            t.step_rows.append(&mut t.rows);
        }
    }

    /// The gradient step `values -= lr · sums / batch`, re-zeroing the sum
    /// it consumed, then the step's live rows are forgotten. A row-sparse
    /// block visits only those rows: elsewhere the sum is `+0.0`, and
    /// `v − lr · (+0.0) / batch` is `v` for a non-negative `lr`, so
    /// skipping it is an exact identity.
    pub(crate) fn descend(&mut self, lr: f64, batch: f64) {
        let step = |v: &mut [f64], s: &mut [f64]| {
            for (v, s) in v.iter_mut().zip(s) {
                *v -= lr * *s / batch;
                *s = 0.0;
            }
        };
        let dp = &mut *self.dp;
        let Some(t) = &mut dp.sparse else {
            step(&mut self.values, &mut dp.sums);
            return;
        };
        let w = t.width;
        t.step_rows.sort_unstable();
        t.step_rows.dedup();
        for &r in &t.step_rows {
            let rows = r * w..(r + 1) * w;
            step(&mut self.values[rows.clone()], &mut dp.sums[rows]);
        }
        t.step_rows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_shape() {
        let b = ParamBlock::zeros(5);
        assert_eq!(b.len(), 5);
        assert!(b.values.iter().all(|&v| v == 0.0));
        assert!(!b.is_empty());
    }

    #[test]
    fn uniform_init_within_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = ParamBlock::uniform(1000, 0.2, &mut rng);
        assert!(b.values.iter().all(|&v| v.abs() <= 0.2));
        // not degenerate
        let distinct = b.values.iter().filter(|&&v| v != b.values[0]).count();
        assert!(distinct > 900);
    }

    #[test]
    fn row_sparse_passes_match_the_dense_ones_bit_for_bit() {
        // 4 rows of 3; rows 2 and 0 written (row 2 twice, out of order),
        // with signed zeros among the written gradients
        let mut sparse = ParamBlock::zeros(12).row_sparse(3);
        let mut dense = ParamBlock::zeros(12);
        for (row, g) in [
            (2, [0.5, -0.0, 3.0]),
            (0, [-0.0, -0.0, -0.0]),
            (2, [1.0, 0.0, -2.0]),
        ] {
            for b in [&mut sparse, &mut dense] {
                for (k, v) in g.iter().enumerate() {
                    b.grads[row * 3 + k] += v;
                }
                b.touch_row(row);
            }
        }
        let (sq_s, visited_s) = sparse.live_sq_norm();
        let (sq_d, visited_d) = dense.live_sq_norm();
        assert_eq!(sq_s.to_bits(), sq_d.to_bits());
        assert_eq!((visited_s, visited_d), (6, 12));
        for b in [&mut sparse, &mut dense] {
            b.alloc_sums();
            b.drain_scaled(0.5);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(sparse.sums_mut()), bits(dense.sums_mut()));
        assert!(sparse.grads.iter().all(|&g| g == 0.0));
        // the touched rows were forgotten: nothing left to visit
        assert_eq!(sparse.live_sq_norm().1, 0);
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn row_width_must_divide_the_block() {
        let _ = ParamBlock::zeros(10).row_sparse(3);
    }

    #[test]
    fn zero_grad_and_norm() {
        let mut b = ParamBlock::zeros(3);
        b.grads = vec![3.0, 4.0, 0.0];
        assert_eq!(b.grad_sq_norm(), 25.0);
        b.zero_grad();
        assert_eq!(b.grad_sq_norm(), 0.0);
    }
}
