//! A tiny buffer pool for the per-example hot loops.
//!
//! The encoder, attention and categorical-head kernels need a handful of
//! short `Vec<f64>` intermediates (encoder hidden layers, head logits,
//! attention dot products). At DP-SGD batch sizes that would be thousands
//! of allocations per optimizer step, so each of those kernels takes the
//! caller's [`Scratch`]: `take(len)` hands out a zeroed buffer (reusing a
//! retired one when available) and `put` retires it again.
//!
//! The pool is purely an allocation cache — buffers are re-zeroed on
//! `take`, no numeric state leaks between uses, and nothing about the
//! pool touches RNG streams or summation order, so a kernel's result does
//! not depend on the pool it draws from (see the determinism notes in
//! ARCHITECTURE.md).

/// A recycling pool of `Vec<f64>` buffers.
#[derive(Debug, Default)]
pub struct Scratch {
    pool: Vec<Vec<f64>>,
}

impl Scratch {
    /// An empty pool.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// A zeroed buffer of exactly `len` elements, reusing a retired
    /// buffer's allocation when one is available.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        match self.pool.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(len, 0.0);
                v
            }
            None => vec![0.0; len],
        }
    }

    /// Retires a buffer back into the pool for later reuse.
    pub fn put(&mut self, v: Vec<f64>) {
        self.pool.push(v);
    }

    /// Number of retired buffers currently pooled (for tests).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_and_zeroes() {
        let mut s = Scratch::new();
        let mut a = s.take(4);
        a[0] = 7.0;
        let cap = a.capacity();
        s.put(a);
        assert_eq!(s.pooled(), 1);
        let b = s.take(3);
        assert_eq!(b, vec![0.0; 3]);
        assert_eq!(b.capacity(), cap, "allocation was not reused");
        assert_eq!(s.pooled(), 0);
    }

    #[test]
    fn take_grows_when_needed() {
        let mut s = Scratch::new();
        s.put(Vec::new());
        let b = s.take(8);
        assert_eq!(b.len(), 8);
        assert!(b.iter().all(|&x| x == 0.0));
    }
}
