//! Core layers: linear, categorical embedding, continuous encoder.

use rand::Rng;

use crate::init::xavier;
use crate::linalg::{axpy, matvec, matvec_t_acc, outer_acc};
use crate::param::ParamBlock;
use crate::scratch::Scratch;

/// A dense layer `y = W·x + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, row-major `out × in`.
    pub w: ParamBlock,
    /// Bias vector of length `out`.
    pub b: ParamBlock,
    n_in: usize,
    n_out: usize,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new<R: Rng + ?Sized>(n_in: usize, n_out: usize, rng: &mut R) -> Linear {
        Linear {
            w: xavier(n_out, n_in, rng),
            b: ParamBlock::zeros(n_out),
            n_in,
            n_out,
        }
    }

    /// Rebuilds a layer from persisted parameter values (snapshot
    /// support). Gradient buffers start zeroed, like a freshly
    /// constructed layer between optimizer steps.
    pub fn from_values(n_in: usize, n_out: usize, w: Vec<f64>, b: Vec<f64>) -> Linear {
        assert_eq!(w.len(), n_in * n_out, "weight tensor shape mismatch");
        assert_eq!(b.len(), n_out, "bias tensor shape mismatch");
        Linear {
            w: ParamBlock::from_values(w),
            b: ParamBlock::from_values(b),
            n_in,
            n_out,
        }
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Output width.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// `y = W·x + b`.
    pub fn forward(&self, x: &[f64], y: &mut [f64]) {
        matvec(&self.w.values, x, y);
        axpy(1.0, &self.b.values, y);
    }

    /// Accumulates parameter gradients given the forward input `x` and the
    /// output gradient `dy`; accumulates the input gradient into `dx` when
    /// provided (the first layer of a model passes `None`).
    pub fn backward(&mut self, x: &[f64], dy: &[f64], dx: Option<&mut [f64]>) {
        outer_acc(&mut self.w.grads, dy, x);
        axpy(1.0, dy, &mut self.b.grads);
        if let Some(dx) = dx {
            matvec_t_acc(&self.w.values, dy, dx);
        }
    }

    /// Applies `f` to both parameter blocks.
    pub fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

/// Lookup-table embedding for a categorical attribute: code → `R^d`
/// (§2.3: "a learnable lookup table mapping embeddings to domain values").
///
/// The table is a row-sparse [`ParamBlock`] with rows of `dim`: one
/// example's backward pass writes exactly one row, so DP-SGD's per-example
/// clip-and-accumulate visits only that row.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// `card × dim` table, row-major.
    pub table: ParamBlock,
    card: usize,
    dim: usize,
}

impl Embedding {
    /// A new embedding table with small uniform init.
    pub fn new<R: Rng + ?Sized>(card: usize, dim: usize, rng: &mut R) -> Embedding {
        let scale = (1.0 / dim as f64).sqrt();
        Embedding {
            table: ParamBlock::uniform(card * dim, scale, rng).row_sparse(dim),
            card,
            dim,
        }
    }

    /// Rebuilds an embedding table from persisted values (snapshot
    /// support).
    pub fn from_values(card: usize, dim: usize, table: Vec<f64>) -> Embedding {
        assert_eq!(table.len(), card * dim, "embedding table shape mismatch");
        Embedding {
            table: ParamBlock::from_values(table).row_sparse(dim),
            card,
            dim,
        }
    }

    /// Domain cardinality.
    pub fn card(&self) -> usize {
        self.card
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The embedding row for `code`.
    pub fn forward(&self, code: u32) -> &[f64] {
        let c = code as usize;
        assert!(
            c < self.card,
            "code {c} out of range for cardinality {}",
            self.card
        );
        &self.table.values[c * self.dim..(c + 1) * self.dim]
    }

    /// Accumulates the gradient `dz` into the row for `code`, and marks
    /// that row touched.
    pub fn backward(&mut self, code: u32, dz: &[f64]) {
        let c = code as usize;
        axpy(
            1.0,
            dz,
            &mut self.table.grads[c * self.dim..(c + 1) * self.dim],
        );
        self.table.touch_row(c);
    }

    /// Applies `f` to the table block.
    pub fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        f(&mut self.table);
    }

    /// Applies `f` to the table block and the row [`Embedding::forward`]
    /// reads for `code`: what a model reports from
    /// [`crate::PerExampleModel::visit_read_rows`].
    pub fn visit_row(&mut self, code: u32, f: &mut dyn FnMut(&mut ParamBlock, usize)) {
        let c = code as usize;
        assert!(
            c < self.card,
            "code {c} out of range for cardinality {}",
            self.card
        );
        f(&mut self.table, c);
    }
}

/// Encoder for a (standardized) continuous scalar, per §2.3:
/// `z = B·ω(A·x + c) + d` with ReLU `ω`, mapping `x ∈ R` to `R^dim`
/// through a hidden layer of the same width.
#[derive(Debug, Clone)]
pub struct ContinuousEncoder {
    /// Hidden projection `A` (`dim × 1`) — stored as a vector.
    pub a: ParamBlock,
    /// Hidden bias `c`.
    pub c: ParamBlock,
    /// Output projection `B` (`dim × dim`).
    pub b: ParamBlock,
    /// Output bias `d`.
    pub d: ParamBlock,
    dim: usize,
}

/// Forward cache for [`ContinuousEncoder::forward`], needed by backward.
#[derive(Debug, Clone)]
pub struct EncoderCache {
    x: f64,
    hidden: Vec<f64>, // post-ReLU
}

impl EncoderCache {
    /// Retires the cache's hidden buffer back into `scratch` once backward
    /// no longer needs it (pairs with [`ContinuousEncoder::forward`]).
    pub fn recycle(self, scratch: &mut Scratch) {
        scratch.put(self.hidden);
    }
}

impl ContinuousEncoder {
    /// A new encoder producing `dim`-dimensional embeddings.
    pub fn new<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> ContinuousEncoder {
        ContinuousEncoder {
            a: xavier(dim, 1, rng),
            c: ParamBlock::zeros(dim),
            b: xavier(dim, dim, rng),
            d: ParamBlock::zeros(dim),
            dim,
        }
    }

    /// Rebuilds an encoder from persisted values (snapshot support).
    pub fn from_values(
        dim: usize,
        a: Vec<f64>,
        c: Vec<f64>,
        b: Vec<f64>,
        d: Vec<f64>,
    ) -> ContinuousEncoder {
        assert_eq!(a.len(), dim, "encoder A shape mismatch");
        assert_eq!(c.len(), dim, "encoder c shape mismatch");
        assert_eq!(b.len(), dim * dim, "encoder B shape mismatch");
        assert_eq!(d.len(), dim, "encoder d shape mismatch");
        ContinuousEncoder {
            a: ParamBlock::from_values(a),
            c: ParamBlock::from_values(c),
            b: ParamBlock::from_values(b),
            d: ParamBlock::from_values(d),
            dim,
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Computes `z = B·relu(A·x + c) + d`, returning the cache for backward.
    /// The cache's hidden buffer comes from `scratch`; retire the cache with
    /// [`EncoderCache::recycle`] when backward is done with it.
    pub fn forward(&self, x: f64, z: &mut [f64], scratch: &mut Scratch) -> EncoderCache {
        let mut hidden = scratch.take(self.dim);
        for ((h, &a), &c) in hidden.iter_mut().zip(&self.a.values).zip(&self.c.values) {
            *h = (a * x + c).max(0.0);
        }
        matvec(&self.b.values, &hidden, z);
        axpy(1.0, &self.d.values, z);
        EncoderCache { x, hidden }
    }

    /// Accumulates parameter gradients given the output gradient `dz`,
    /// with the intermediate `dh` buffer drawn from (and returned to)
    /// `scratch`.
    pub fn backward(&mut self, cache: &EncoderCache, dz: &[f64], scratch: &mut Scratch) {
        // z = B·h + d
        outer_acc(&mut self.b.grads, dz, &cache.hidden);
        axpy(1.0, dz, &mut self.d.grads);
        let mut dh = scratch.take(self.dim);
        matvec_t_acc(&self.b.values, dz, &mut dh);
        // h = relu(a·x + c)
        for ((&dhi, &h), (ga, gc)) in dh
            .iter()
            .zip(&cache.hidden)
            .zip(self.a.grads.iter_mut().zip(self.c.grads.iter_mut()))
        {
            if h > 0.0 {
                *ga += dhi * cache.x;
                *gc += dhi;
            }
        }
        scratch.put(dh);
    }

    /// Applies `f` to all four parameter blocks.
    pub fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        f(&mut self.a);
        f(&mut self.c);
        f(&mut self.b);
        f(&mut self.d);
    }
}

/// ReLU forward: `y = max(x, 0)`.
#[inline]
pub fn relu(x: &[f64], y: &mut [f64]) {
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv = xv.max(0.0);
    }
}

/// ReLU backward: `dx = dy ⊙ [y > 0]` given the forward *output* `y`.
#[inline]
pub fn relu_backward(y: &[f64], dy: &[f64], dx: &mut [f64]) {
    for i in 0..y.len() {
        dx[i] = if y[i] > 0.0 { dy[i] } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::finite_diff_check;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_matches_manual() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(2, 2, &mut rng);
        l.w.values = vec![1.0, 2.0, 3.0, 4.0];
        l.b.values = vec![0.5, -0.5];
        let mut y = [0.0; 2];
        l.forward(&[1.0, 1.0], &mut y);
        assert_eq!(y, [3.5, 6.5]);
        assert_eq!(l.n_in(), 2);
        assert_eq!(l.n_out(), 2);
    }

    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = [0.3, -0.7, 1.1];
        // loss = sum(y²)/2 so dy = y
        let mut layer = Linear::new(3, 2, &mut rng);
        finite_diff_check(
            &mut |l: &mut Linear| {
                let mut y = [0.0; 2];
                l.forward(&x, &mut y);
                0.5 * (y[0] * y[0] + y[1] * y[1])
            },
            &mut |l: &mut Linear| {
                let mut y = [0.0; 2];
                l.forward(&x, &mut y);
                l.backward(&x, &y, None);
            },
            &mut |l, f| l.visit_blocks(f),
            &mut layer,
        );
    }

    #[test]
    fn linear_input_gradient() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(2, 2, &mut rng);
        l.w.values = vec![1.0, 2.0, 3.0, 4.0];
        let mut dx = [0.0; 2];
        l.backward(&[0.0, 0.0], &[1.0, 1.0], Some(&mut dx));
        assert_eq!(dx, [4.0, 6.0]);
    }

    #[test]
    fn embedding_rows_and_backward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut e = Embedding::new(3, 4, &mut rng);
        assert_eq!(e.card(), 3);
        assert_eq!(e.forward(2).len(), 4);
        e.backward(1, &[1.0, 2.0, 3.0, 4.0]);
        e.backward(1, &[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(&e.table.grads[4..8], &[2.0, 2.0, 3.0, 4.0]);
        assert!(e.table.grads[0..4].iter().all(|&g| g == 0.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn embedding_code_out_of_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let e = Embedding::new(3, 4, &mut rng);
        e.forward(3);
    }

    #[test]
    fn encoder_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = 0.8;
        let mut enc = ContinuousEncoder::new(5, &mut rng);
        finite_diff_check(
            &mut |e: &mut ContinuousEncoder| {
                let mut z = vec![0.0; 5];
                e.forward(x, &mut z, &mut Scratch::new());
                0.5 * z.iter().map(|v| v * v).sum::<f64>()
            },
            &mut |e: &mut ContinuousEncoder| {
                let mut z = vec![0.0; 5];
                let mut scratch = Scratch::new();
                let cache = e.forward(x, &mut z, &mut scratch);
                e.backward(&cache, &z, &mut scratch);
            },
            &mut |e, f| e.visit_blocks(f),
            &mut enc,
        );
    }

    #[test]
    fn relu_roundtrip() {
        let x = [-1.0, 0.0, 2.0];
        let mut y = [0.0; 3];
        relu(&x, &mut y);
        assert_eq!(y, [0.0, 0.0, 2.0]);
        let mut dx = [0.0; 3];
        relu_backward(&y, &[1.0, 1.0, 1.0], &mut dx);
        assert_eq!(dx, [0.0, 0.0, 1.0]);
    }
}
