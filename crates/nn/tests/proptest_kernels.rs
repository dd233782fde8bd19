//! Property-based parity tests for the optimized numeric kernels.
//!
//! The determinism contract (see ARCHITECTURE.md) requires the tiled
//! linalg kernels and the fused DP-SGD clip-accumulate to be **bit
//! identical** to their serial reference twins — not merely close: the
//! sampler's pinned-output regression tests hash exact `f64` bits. These
//! properties sweep random shapes and seeds, including exact `0.0` /
//! `-0.0` entries (the skip-guard edge cases), and compare via `to_bits`.

use kamino_nn::linalg::{
    matvec, matvec_ref, matvec_t_acc, matvec_t_acc_ref, outer_acc, outer_acc_ref,
};
use kamino_nn::{DpSgd, Embedding, ParamBlock, PerExampleModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic fill from a seed, mixing in exact zeros of both signs so
/// the tiled kernels' `d != 0.0` skip guards are exercised.
fn fill(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 7 {
                0 => 0.0,
                1 => -0.0,
                _ => (state % 1000) as f64 / 500.0 - 1.0,
            }
        })
        .collect()
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}[{i}]: {x:?} vs {y:?} differ in bits"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tiled forward matvec ≡ naive reference, to the bit, for any shape.
    #[test]
    fn tiled_matvec_matches_reference(
        n_out in 1usize..24,
        n_in in 1usize..24,
        seed in any::<u64>(),
    ) {
        let w = fill(seed, n_out * n_in);
        let x = fill(seed.wrapping_add(1), n_in);
        let mut y_t = vec![0.0; n_out];
        let mut y_r = vec![0.0; n_out];
        matvec(&w, &x, &mut y_t);
        matvec_ref(&w, &x, &mut y_r);
        assert_bits_eq(&y_t, &y_r, "matvec");
    }

    /// Tiled `x_grad += Wᵀ·dy` ≡ reference, starting from the same
    /// non-zero accumulator state (the += path matters, not just zeros).
    #[test]
    fn tiled_matvec_t_acc_matches_reference(
        n_out in 1usize..24,
        n_in in 1usize..24,
        seed in any::<u64>(),
    ) {
        let w = fill(seed, n_out * n_in);
        let dy = fill(seed.wrapping_add(2), n_out);
        let init = fill(seed.wrapping_add(3), n_in);
        let mut g_t = init.clone();
        let mut g_r = init;
        matvec_t_acc(&w, &dy, &mut g_t);
        matvec_t_acc_ref(&w, &dy, &mut g_r);
        assert_bits_eq(&g_t, &g_r, "matvec_t_acc");
    }

    /// Tiled `w_grad += dy·xᵀ` ≡ reference from shared accumulator state.
    #[test]
    fn tiled_outer_acc_matches_reference(
        n_out in 1usize..24,
        n_in in 1usize..24,
        seed in any::<u64>(),
    ) {
        let dy = fill(seed, n_out);
        let x = fill(seed.wrapping_add(4), n_in);
        let init = fill(seed.wrapping_add(5), n_out * n_in);
        let mut g_t = init.clone();
        let mut g_r = init;
        outer_acc(&mut g_t, &dy, &x);
        outer_acc_ref(&mut g_r, &dy, &x);
        assert_bits_eq(&g_t, &g_r, "outer_acc");
    }

    /// Fused clip-and-accumulate DP-SGD step ≡ the two-pass reference
    /// step: same losses and same final weights, to the bit, across
    /// random model sizes, batch sizes, clip bounds, and noise settings
    /// (both sides draw noise from identically seeded RNG streams).
    #[test]
    fn fused_dpsgd_step_matches_reference(
        dim in 1usize..6,
        batch_len in 1usize..16,
        clip_raw in 1u32..40,
        noisy in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let clip = clip_raw as f64 / 10.0;
        let batch: Vec<Vec<f64>> = (0..batch_len)
            .map(|i| fill(seed.wrapping_add(6 + i as u64), dim))
            .collect();
        let opt = DpSgd {
            clip,
            noise_multiplier: if noisy { 1.1 } else { 0.0 },
            lr: 0.1,
            expected_batch: batch_len as f64,
        };
        let mut fused = Ridge::new(dim, seed);
        let mut reference = fused.clone();
        for step in 0..4 {
            let mut r1 = StdRng::seed_from_u64(seed ^ step);
            let mut r2 = StdRng::seed_from_u64(seed ^ step);
            let l1 = opt.step(&mut fused, &batch, &mut r1).loss;
            let l2 = opt.step_reference(&mut reference, &batch, &mut r2).loss;
            prop_assert!(
                l1.to_bits() == l2.to_bits(),
                "loss diverged at step {step}: {l1:?} vs {l2:?}"
            );
            assert_bits_eq(&fused.w.values, &reference.w.values, "weights");
        }
    }

    /// The row-sparse fused step ≡ the all-dense reference step, to the
    /// bit, on random embedding models: 1–4 lookup tables plus one dense
    /// block, codes repeated within a batch (and one table touched
    /// twice per example, out of row order), signed-zero-laden `dz`,
    /// random clip, noise on and off, over several steps and the final
    /// settle of deferred noise.
    #[test]
    fn sparse_dpsgd_step_matches_dense_reference(
        cards in prop::collection::vec(1usize..64, 1..=4),
        dims in prop::collection::vec(1usize..8, 4..=4),
        dense_len in 1usize..6,
        batch_len in 0usize..40,
        clip_raw in 1u32..40,
        noisy in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let clip = clip_raw as f64 / 10.0;
        let batch: Vec<u64> = (0..batch_len as u64).map(|i| seed.wrapping_add(i % 7)).collect();
        let opt = DpSgd {
            clip,
            noise_multiplier: if noisy { 1.1 } else { 0.0 },
            lr: 0.1,
            expected_batch: batch_len.max(1) as f64,
        };
        let shapes: Vec<(usize, usize)> = cards.into_iter().zip(dims).collect();
        let mut fused = Lookups::new(&shapes, dense_len, seed);
        let mut reference = fused.clone();
        for step in 0..4 {
            let mut r1 = StdRng::seed_from_u64(seed ^ step);
            let mut r2 = StdRng::seed_from_u64(seed ^ step);
            let s1 = opt.step(&mut fused, &batch, &mut r1);
            let s2 = opt.step_reference(&mut reference, &batch, &mut r2);
            prop_assert!(
                s1.loss.to_bits() == s2.loss.to_bits(),
                "loss diverged at step {step}: {:?} vs {:?}", s1.loss, s2.loss
            );
            prop_assert_eq!(s1.noise_draws, s2.noise_draws);
            prop_assert!(s1.coords_visited <= s2.coords_visited);
            for (f, r) in fused.tables.iter().zip(&reference.tables) {
                assert_bits_eq(&f.table.values, &r.table.values, "table");
            }
            assert_bits_eq(&fused.dense.values, &reference.dense.values, "dense");
        }
        // both settle the same owed rows from the same stream
        let mut r1 = StdRng::seed_from_u64(seed ^ 4);
        let mut r2 = StdRng::seed_from_u64(seed ^ 4);
        let f1 = opt.finish(&mut fused, &mut r1);
        let f2 = opt.finish(&mut reference, &mut r2);
        prop_assert_eq!(f1.noise_draws, f2.noise_draws);
        for (f, r) in fused.tables.iter().zip(&reference.tables) {
            assert_bits_eq(&f.table.values, &r.table.values, "finished table");
        }
    }
}

/// Embedding-context model: one row-sparse lookup table per context
/// attribute plus a dense block, with a loss linear in the looked-up rows
/// so `dz` is the signed-zero-laden [`fill`] stream itself. An example is
/// a seed; its codes hash from it, so repeated seeds repeat codes.
#[derive(Clone)]
struct Lookups {
    tables: Vec<Embedding>,
    dense: ParamBlock,
}

impl Lookups {
    fn new(shapes: &[(usize, usize)], dense_len: usize, seed: u64) -> Lookups {
        let tables = shapes
            .iter()
            .enumerate()
            .map(|(t, &(card, dim))| {
                Embedding::from_values(card, dim, fill(seed.wrapping_add(t as u64), card * dim))
            })
            .collect();
        Lookups {
            tables,
            dense: ParamBlock::from_values(fill(seed.wrapping_add(99), dense_len)),
        }
    }
}

/// The rows example `ex` reads from table `t` of `card` rows, and the
/// hash they derive from.
fn codes(ex: u64, t: usize, card: usize) -> (u64, Vec<u32>) {
    let card = card as u64;
    let mix = ex
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(t as u32 * 7);
    let mut codes = vec![(mix % card) as u32];
    if t == 0 {
        // a second, possibly equal or lower, row of the same table
        codes.push(((mix >> 32) % card) as u32);
    }
    (mix, codes)
}

impl PerExampleModel<u64> for Lookups {
    fn forward_backward(&mut self, &ex: &u64) -> f64 {
        let mut loss = 0.0;
        for (t, table) in self.tables.iter_mut().enumerate() {
            let (mix, codes) = codes(ex, t, table.card());
            for (k, &code) in codes.iter().enumerate() {
                let dz = fill(mix.wrapping_add(k as u64), table.dim());
                loss += table
                    .forward(code)
                    .iter()
                    .zip(&dz)
                    .map(|(e, d)| e * d)
                    .sum::<f64>();
                table.backward(code, &dz);
            }
        }
        let x = fill(ex.wrapping_add(3), self.dense.len());
        for ((g, w), xc) in self.dense.grads.iter_mut().zip(&self.dense.values).zip(&x) {
            loss += w * xc;
            *g += xc;
        }
        loss
    }

    fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        for table in &mut self.tables {
            table.visit_blocks(f);
        }
        f(&mut self.dense);
    }

    fn visit_read_rows(&mut self, &ex: &u64, f: &mut dyn FnMut(&mut ParamBlock, usize)) {
        for (t, table) in self.tables.iter_mut().enumerate() {
            for code in codes(ex, t, table.card()).1 {
                table.visit_row(code, f);
            }
        }
    }
}

/// Tiny dense regression model: one matvec + outer-product gradient per
/// example — enough structure to make clipping and accumulation order
/// observable.
#[derive(Clone)]
struct Ridge {
    w: ParamBlock,
    dim: usize,
}

impl Ridge {
    fn new(dim: usize, seed: u64) -> Ridge {
        Ridge {
            w: ParamBlock::from_values(fill(seed, dim * dim)),
            dim,
        }
    }
}

impl PerExampleModel<Vec<f64>> for Ridge {
    fn forward_backward(&mut self, x: &Vec<f64>) -> f64 {
        let d = self.dim;
        let mut loss = 0.0;
        for r in 0..d {
            let row = r * d..(r + 1) * d;
            let y: f64 = self.w.values[row.clone()]
                .iter()
                .zip(x)
                .map(|(w, xc)| w * xc)
                .sum();
            let err = y - x[r];
            loss += 0.5 * err * err;
            for (g, &xc) in self.w.grads[row].iter_mut().zip(x) {
                *g += err * xc;
            }
        }
        loss
    }

    fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        f(&mut self.w);
    }
}
