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
/// fused DP-SGD kernel visits only the touched rows. Code that writes a
/// row-sparse block's `grads` directly must go through that backward
/// pass, or the kernel will miss the write.
#[derive(Debug, Clone)]
pub struct ParamBlock {
    /// Parameter values.
    pub values: Vec<f64>,
    /// Gradient accumulator (per-example during DP-SGD).
    pub grads: Vec<f64>,
    /// `None` for a dense block. Boxed so a dense block stays small.
    sparse: Option<Box<TouchedRows>>,
}

/// The row-sparse state of a [`ParamBlock`].
#[derive(Debug, Clone)]
struct TouchedRows {
    /// Coordinates per row.
    width: usize,
    /// Rows written since the gradient was last cleared, in write order
    /// and possibly repeated.
    rows: Vec<usize>,
}

impl ParamBlock {
    /// A dense block holding `values`, with a zeroed gradient.
    pub fn from_values(values: Vec<f64>) -> ParamBlock {
        ParamBlock {
            grads: vec![0.0; values.len()],
            values,
            sparse: None,
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
        self.sparse = (row_width > 0).then(|| {
            Box::new(TouchedRows {
                width: row_width,
                rows: Vec::new(),
            })
        });
        self
    }

    /// Marks `row` as written since the last gradient clear. A no-op on a
    /// dense block.
    #[inline]
    pub(crate) fn touch_row(&mut self, row: usize) {
        if let Some(t) = &mut self.sparse {
            t.rows.push(row);
        }
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
        if let Some(t) = &mut self.sparse {
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
    /// in ascending order. Since every skipped `g·g` is `+0.0` and the
    /// running sum (seeded `-0.0`, like `Sum for f64`) becomes `+0.0` or
    /// positive on its first addition, the result matches the dense pass
    /// bit for bit once it is added into a `+0.0`-seeded total.
    pub(crate) fn live_sq_norm(&mut self) -> (f64, usize) {
        let Some(t) = self.sparse.as_deref_mut() else {
            return (self.grad_sq_norm(), self.len());
        };
        t.rows.sort_unstable();
        t.rows.dedup();
        let w = t.width;
        let grads = &self.grads;
        let sq = t
            .rows
            .iter()
            .flat_map(|&r| &grads[r * w..(r + 1) * w])
            .map(|g| g * g)
            .sum();
        (sq, t.rows.len() * w)
    }

    /// The fused DP-SGD kernel's second pass, over the coordinates
    /// [`ParamBlock::live_sq_norm`] just visited: `sums += scale · grads`,
    /// then those gradients are re-zeroed and the touched rows forgotten.
    /// Each skipped coordinate would have added `scale · +0.0 = +0.0` to a
    /// sum seeded `+0.0`, which can never be `-0.0`, so skipping it is an
    /// exact identity.
    pub(crate) fn drain_scaled_into(&mut self, scale: f64, sums: &mut [f64]) {
        let drain = |s: &mut [f64], g: &mut [f64]| {
            for (s, g) in s.iter_mut().zip(g) {
                *s += scale * *g;
                *g = 0.0;
            }
        };
        let Some(t) = self.sparse.as_deref_mut() else {
            drain(sums, &mut self.grads);
            return;
        };
        let w = t.width;
        for &r in &t.rows {
            let rows = r * w..(r + 1) * w;
            drain(&mut sums[rows.clone()], &mut self.grads[rows]);
        }
        t.rows.clear();
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
        let (mut sums_s, mut sums_d) = (vec![0.0; 12], vec![0.0; 12]);
        sparse.drain_scaled_into(0.5, &mut sums_s);
        dense.drain_scaled_into(0.5, &mut sums_d);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sums_s), bits(&sums_d));
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
