//! Learned attention over context-attribute embeddings.
//!
//! AimNet (§2.3) "relies on the attention mechanism to learn structural
//! dependencies between different attributes … and uses the attention
//! weights to combine the representations of inputs into a vector
//! representation (the context vector) for the target attribute." Each
//! discriminative sub-model has a fixed set of context attributes, so the
//! attention here is a learned score per context position: the scores pass
//! through a softmax and the context vector is the convex combination of
//! context embeddings. After training, [`Attention::weights`] exposes which
//! attributes the model attends to — the interpretable structure AimNet
//! reports.

use crate::linalg::{axpy, dot, softmax_in_place};
use crate::param::ParamBlock;
use crate::scratch::Scratch;

/// Softmax attention with one learnable score per context attribute.
#[derive(Debug, Clone)]
pub struct Attention {
    /// Raw scores (length = number of context attributes).
    pub scores: ParamBlock,
    dim: usize,
}

/// Forward cache for [`Attention::forward`].
#[derive(Debug, Clone)]
pub struct AttentionCache {
    /// Softmax weights α.
    pub alpha: Vec<f64>,
}

impl Attention {
    /// Attention over `n_context` embeddings of width `dim`. Scores start
    /// at zero — uniform attention.
    pub fn new(n_context: usize, dim: usize) -> Attention {
        Attention {
            scores: ParamBlock::zeros(n_context),
            dim,
        }
    }

    /// Rebuilds attention from persisted score values (snapshot support).
    pub fn from_values(dim: usize, scores: Vec<f64>) -> Attention {
        Attention {
            scores: ParamBlock::from_values(scores),
            dim,
        }
    }

    /// Number of context positions.
    pub fn n_context(&self) -> usize {
        self.scores.len()
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Current attention weights (softmax of scores).
    pub fn weights(&self) -> Vec<f64> {
        let mut alpha = self.scores.values.clone();
        softmax_in_place(&mut alpha);
        alpha
    }

    /// Combines context embeddings into the context vector
    /// `v = Σ α_i e_i`, `α = softmax(scores)`. The cache's `α` buffer is
    /// drawn from `scratch`; retire it with `scratch.put(cache.alpha)`
    /// after backward.
    pub fn forward(
        &self,
        embeddings: &[&[f64]],
        v: &mut [f64],
        scratch: &mut Scratch,
    ) -> AttentionCache {
        assert_eq!(
            embeddings.len(),
            self.scores.len(),
            "context arity mismatch"
        );
        assert_eq!(v.len(), self.dim);
        let mut alpha = scratch.take(self.scores.len());
        alpha.copy_from_slice(&self.scores.values);
        softmax_in_place(&mut alpha);
        v.iter_mut().for_each(|x| *x = 0.0);
        for (a, e) in alpha.iter().zip(embeddings) {
            axpy(*a, e, v);
        }
        AttentionCache { alpha }
    }

    /// Backward pass: given `dv`, accumulates score gradients and writes
    /// each context embedding's gradient into `d_embeddings`.
    ///
    /// With `g_i = e_i · dv`: `de_i = α_i·dv` and
    /// `ds_i = α_i (g_i − Σ_j α_j g_j)` (softmax Jacobian); the `g` buffer
    /// is drawn from (and returned to) `scratch`.
    pub fn backward(
        &mut self,
        embeddings: &[&[f64]],
        cache: &AttentionCache,
        dv: &[f64],
        d_embeddings: &mut [Vec<f64>],
        scratch: &mut Scratch,
    ) {
        let m = embeddings.len();
        assert_eq!(d_embeddings.len(), m);
        let mut g = scratch.take(m);
        for (gi, e) in g.iter_mut().zip(embeddings) {
            *gi = dot(e, dv);
        }
        score_grads(&cache.alpha, &mut g);
        for i in 0..m {
            self.scores.grads[i] += g[i];
            d_embeddings[i].iter_mut().for_each(|x| *x = 0.0);
            axpy(cache.alpha[i], dv, &mut d_embeddings[i]);
        }
        scratch.put(g);
    }

    /// Applies `f` to the score block.
    pub fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        f(&mut self.scores);
    }
}

/// The softmax Jacobian of [`Attention::backward`], in place: given
/// `g_i = e_i · dv`, overwrites each `g_i` with the score gradient
/// `α_i (g_i − Σ_j α_j g_j)`.
pub fn score_grads(alpha: &[f64], g: &mut [f64]) {
    let mean: f64 = alpha.iter().zip(&*g).map(|(a, gi)| a * gi).sum();
    for (gi, a) in g.iter_mut().zip(alpha) {
        *gi = a * (*gi - mean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::finite_diff_check;

    #[test]
    fn uniform_attention_at_init() {
        let attn = Attention::new(4, 2);
        let w = attn.weights();
        assert!(w.iter().all(|&a| (a - 0.25).abs() < 1e-12));
    }

    #[test]
    fn forward_is_convex_combination() {
        let mut attn = Attention::new(2, 2);
        attn.scores.values = vec![0.0, f64::NEG_INFINITY];
        let e1 = [1.0, 2.0];
        let e2 = [10.0, 20.0];
        let mut v = [0.0; 2];
        attn.forward(&[&e1, &e2], &mut v, &mut Scratch::new());
        // all mass on the first embedding
        assert!((v[0] - 1.0).abs() < 1e-12 && (v[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn score_gradients_match_finite_differences() {
        let e1 = [0.5, -0.2, 0.1];
        let e2 = [1.5, 0.3, -0.4];
        let e3 = [-0.9, 0.8, 0.2];
        let mut attn = Attention::new(3, 3);
        attn.scores.values = vec![0.1, -0.2, 0.3];
        finite_diff_check(
            &mut |a: &mut Attention| {
                let mut v = [0.0; 3];
                a.forward(&[&e1, &e2, &e3], &mut v, &mut Scratch::new());
                0.5 * v.iter().map(|x| x * x).sum::<f64>()
            },
            &mut |a: &mut Attention| {
                let mut v = [0.0; 3];
                let mut scratch = Scratch::new();
                let cache = a.forward(&[&e1, &e2, &e3], &mut v, &mut scratch);
                let mut de = vec![vec![0.0; 3]; 3];
                a.backward(&[&e1, &e2, &e3], &cache, &v, &mut de, &mut scratch);
            },
            &mut |a, f| a.visit_blocks(f),
            &mut attn,
        );
    }

    #[test]
    fn embedding_gradients_scale_with_alpha() {
        let mut attn = Attention::new(2, 2);
        attn.scores.values = vec![1.0, 1.0]; // α = [0.5, 0.5]
        let e1 = [1.0, 0.0];
        let e2 = [0.0, 1.0];
        let mut v = [0.0; 2];
        let mut scratch = Scratch::new();
        let cache = attn.forward(&[&e1, &e2], &mut v, &mut scratch);
        let mut de = vec![vec![0.0; 2]; 2];
        attn.backward(&[&e1, &e2], &cache, &[2.0, 4.0], &mut de, &mut scratch);
        assert!((de[0][0] - 1.0).abs() < 1e-12 && (de[0][1] - 2.0).abs() < 1e-12);
        assert!((de[1][0] - 1.0).abs() < 1e-12 && (de[1][1] - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_context_count_panics() {
        let attn = Attention::new(2, 2);
        let e1 = [0.0, 0.0];
        let mut v = [0.0; 2];
        attn.forward(&[&e1], &mut v, &mut Scratch::new());
    }
}
