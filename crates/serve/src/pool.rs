//! Per-model pre-sampled row pools: a bounded ring of pre-drawn,
//! pre-encoded batches that lets hot `/synthesize` requests complete at
//! memcpy speed.
//!
//! ## Determinism contract
//!
//! A fitted model's sample stream is defined by the *sequence of draw
//! sizes* applied to its RNG cursor (sampling is column-major per batch,
//! so `sample(40)` ≠ `sample(20)` twice). The pool therefore never
//! changes what bytes a client observes — it only moves the work
//! earlier:
//!
//! * Every pooled batch records the RNG cursor captured **before** its
//!   draw (`rng_before`). The ring is a pure speculation of the next
//!   `depth` draws of exactly [`PoolConfig::rows`] rows each.
//! * A request whose batch size matches [`PoolConfig::rows`] pops the
//!   oldest speculation — bytes identical to what a direct draw at that
//!   cursor would have produced, because it *is* that draw.
//! * Any other batch size rewinds: the RNG is restored to the oldest
//!   unserved batch's `rng_before` and the ring is discarded, making the
//!   session behave as if no speculation ever happened. The direct draw
//!   then proceeds from the canonical cursor.
//! * Persistence (snapshot, LRU eviction) stores the **rewound** cursor,
//!   so an evict→reload resumes the observable stream bit-exactly: the
//!   reloaded session re-draws whatever the discarded ring had
//!   speculated.
//!
//! Drains and refills both require `&mut` access and are serialized by
//! the owning slot's model mutex (see [`crate::registry`]), so batches
//! are always served in cursor order.

use std::collections::VecDeque;
use std::sync::Arc;

use kamino_core::FittedKamino;
use kamino_data::{AttrKind, Instance, Schema, Value};

use crate::json::Json;

/// Output encoding of a synthesized batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Comma-separated rows (no header — the stream writes that once).
    Csv,
    /// Newline-delimited JSON objects.
    Json,
}

/// Pool sizing, applied to every model the server holds.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Ring depth in batches; `0` disables pooling entirely.
    pub batches: usize,
    /// Rows per pooled batch. Only requests streaming in chunks of
    /// exactly this size are pool-eligible.
    pub rows: usize,
}

impl PoolConfig {
    /// A configuration with pooling switched off.
    pub fn disabled() -> PoolConfig {
        PoolConfig {
            batches: 0,
            rows: 0,
        }
    }

    /// Whether this configuration pools at all.
    pub fn enabled(&self) -> bool {
        self.batches > 0 && self.rows > 0
    }
}

/// One speculated draw: the cursor it started from plus both encodings
/// of its rows (encoded once at refill, shared by reference afterwards).
struct PooledBatch {
    rng_before: [u64; 4],
    rows: u64,
    /// `None` when the schema turned out not to be CSV-serializable.
    csv: Option<Arc<str>>,
    ndjson: Arc<str>,
}

/// A bounded ring of pre-drawn batches for one resident model.
pub struct SamplePool {
    cfg: PoolConfig,
    ring: VecDeque<PooledBatch>,
}

impl SamplePool {
    /// An empty pool with the given shape.
    pub fn new(cfg: PoolConfig) -> SamplePool {
        SamplePool {
            cfg,
            ring: VecDeque::with_capacity(cfg.batches),
        }
    }

    /// Batches currently speculated.
    pub fn depth(&self) -> usize {
        self.ring.len()
    }

    /// Whether a background refill would add anything.
    pub fn wants_refill(&self) -> bool {
        self.cfg.enabled() && self.ring.len() < self.cfg.batches
    }

    /// Whether `rows` is a pool-eligible batch size.
    pub(crate) fn aligned(&self, rows: usize) -> bool {
        self.cfg.enabled() && rows == self.cfg.rows
    }

    /// Whether [`SamplePool::take_batch`] would be a pure pop (no
    /// sampling) for this request — the event loop's fast-path gate.
    pub fn has_ready(&self, rows: usize, format: Format) -> bool {
        self.aligned(rows)
            && match self.ring.front() {
                Some(b) => format == Format::Json || b.csv.is_some(),
                None => false,
            }
    }

    /// Speculates one more batch: captures the cursor, draws
    /// [`PoolConfig::rows`] rows, encodes both formats. Returns `false`
    /// when the ring is full or pooling is disabled.
    pub fn refill_one(&mut self, fitted: &mut FittedKamino) -> bool {
        if !self.wants_refill() {
            return false;
        }
        let rng_before = fitted.rng_state();
        let inst = fitted.sample(self.cfg.rows);
        let rows = inst.n_rows() as u64;
        let csv = kamino_data::csv::rows_text(fitted.schema(), &inst)
            .ok()
            .map(Arc::from);
        let ndjson: Arc<str> = Arc::from(ndjson_rows(fitted.schema(), &inst));
        self.ring.push_back(PooledBatch {
            rng_before,
            rows,
            csv,
            ndjson,
        });
        true
    }

    /// Discards every speculated batch and restores the RNG to the
    /// canonical cursor (the oldest unserved batch's `rng_before`), as
    /// if no speculation had happened.
    pub fn rewind(&mut self, fitted: &mut FittedKamino) {
        if let Some(front) = self.ring.front() {
            fitted.set_rng_state(front.rng_before);
        }
        self.ring.clear();
    }

    /// The cursor persistence must store: where the observable stream
    /// actually is, excluding speculated-but-unserved batches.
    pub fn persist_state(&self, fitted: &FittedKamino) -> [u64; 4] {
        match self.ring.front() {
            Some(front) => front.rng_before,
            None => fitted.rng_state(),
        }
    }

    /// Serves the next `rows` of the stream in `format`. Pops a pooled
    /// batch when one matches (a *hit*, no sampling); otherwise rewinds
    /// any speculation and draws directly. Returns the encoded text, the
    /// row count, and whether it was a hit. `Err` carries an encoding
    /// failure (CSV on a non-serializable schema).
    pub fn take_batch(
        &mut self,
        fitted: &mut FittedKamino,
        rows: usize,
        format: Format,
    ) -> Result<(Arc<str>, u64, bool), String> {
        if self.has_ready(rows, format) {
            if let Some(b) = self.ring.pop_front() {
                let text = match format {
                    Format::Json => b.ndjson,
                    Format::Csv => b.csv.unwrap_or_else(|| Arc::from("")),
                };
                return Ok((text, b.rows, true));
            }
        }
        self.rewind(fitted);
        let inst = fitted.sample(rows);
        let n = inst.n_rows() as u64;
        let text = match format {
            Format::Csv => {
                kamino_data::csv::rows_text(fitted.schema(), &inst).map_err(|e| e.to_string())?
            }
            Format::Json => ndjson_rows(fitted.schema(), &inst),
        };
        Ok((Arc::from(text), n, false))
    }
}

/// Formats a batch as NDJSON: one object per row per line (categorical
/// codes resolve to their labels, numerics stay numbers).
pub fn ndjson_rows(schema: &Schema, inst: &Instance) -> String {
    let mut out = String::with_capacity(inst.n_rows() * schema.len() * 16);
    for i in 0..inst.n_rows() {
        let obj = Json::Obj(
            (0..schema.len())
                .map(|j| {
                    let attr = schema.attr(j);
                    let v = match (inst.value(i, j), &attr.kind) {
                        (Value::Cat(c), AttrKind::Categorical { .. }) => {
                            Json::Str(attr.label(c).unwrap_or("?").to_string())
                        }
                        (Value::Num(x), _) => Json::Num(x),
                        (Value::Cat(c), _) => Json::Num(c as f64),
                    };
                    (attr.name.clone(), v)
                })
                .collect(),
        );
        out.push_str(&obj.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamino_core::{fit_kamino, KaminoConfig};
    use kamino_dp::Budget;
    use std::sync::OnceLock;

    fn fitted_bytes() -> &'static Vec<u8> {
        static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
        BYTES.get_or_init(|| {
            let d = kamino_datasets::adult_like(80, 3);
            let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
            cfg.train_scale = 0.02;
            cfg.embed_dim = 8;
            cfg.seed = 21;
            let fitted = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
            crate::snapshot::encode_fitted(&fitted)
        })
    }

    fn fresh_fitted() -> FittedKamino {
        crate::snapshot::decode_fitted(fitted_bytes()).unwrap()
    }

    #[test]
    fn pooled_hits_match_direct_draws_exactly() {
        let mut pooled = fresh_fitted();
        let mut direct = fresh_fitted();
        let mut pool = SamplePool::new(PoolConfig {
            batches: 3,
            rows: 7,
        });
        // speculate ahead of the client
        assert!(pool.refill_one(&mut pooled));
        assert!(pool.refill_one(&mut pooled));
        assert_eq!(pool.depth(), 2);
        for _ in 0..4 {
            let (text, rows, hit) = pool.take_batch(&mut pooled, 7, Format::Csv).unwrap();
            let d = direct.sample(7);
            let want = kamino_data::csv::rows_text(direct.schema(), &d).unwrap();
            assert_eq!(&*text, want, "pooled bytes must equal the direct path");
            assert_eq!(rows, 7);
            // the first two were speculated, the rest drawn on demand
            let _ = hit;
        }
    }

    #[test]
    fn misaligned_request_rewinds_the_speculation() {
        let mut pooled = fresh_fitted();
        let mut direct = fresh_fitted();
        let mut pool = SamplePool::new(PoolConfig {
            batches: 4,
            rows: 5,
        });
        pool.refill_one(&mut pooled);
        pool.refill_one(&mut pooled);
        // a different batch size must behave as if nothing was speculated
        let (text, rows, hit) = pool.take_batch(&mut pooled, 9, Format::Json).unwrap();
        assert!(!hit);
        assert_eq!(rows, 9);
        assert_eq!(pool.depth(), 0, "speculation discarded");
        let d = direct.sample(9);
        assert_eq!(&*text, ndjson_rows(direct.schema(), &d));
        // and the streams stay in lockstep afterwards
        let (after, _, _) = pool.take_batch(&mut pooled, 5, Format::Json).unwrap();
        let d = direct.sample(5);
        assert_eq!(&*after, ndjson_rows(direct.schema(), &d));
    }

    #[test]
    fn persist_state_excludes_unserved_speculation() {
        let mut fitted = fresh_fitted();
        let before = fitted.rng_state();
        let mut pool = SamplePool::new(PoolConfig {
            batches: 2,
            rows: 6,
        });
        pool.refill_one(&mut fitted);
        assert_ne!(fitted.rng_state(), before, "speculation advanced the rng");
        assert_eq!(
            pool.persist_state(&fitted),
            before,
            "persisted cursor must rewind past the speculation"
        );
        // serving the speculated batch moves the persisted cursor forward
        let _ = pool.take_batch(&mut fitted, 6, Format::Json).unwrap();
        assert_eq!(pool.persist_state(&fitted), fitted.rng_state());
    }

    #[test]
    fn disabled_pool_is_a_pure_pass_through() {
        let mut fitted = fresh_fitted();
        let mut direct = fresh_fitted();
        let mut pool = SamplePool::new(PoolConfig::disabled());
        assert!(!pool.refill_one(&mut fitted));
        assert!(!pool.wants_refill());
        let (text, rows, hit) = pool.take_batch(&mut fitted, 11, Format::Csv).unwrap();
        assert!(!hit);
        assert_eq!(rows, 11);
        let d = direct.sample(11);
        assert_eq!(
            &*text,
            kamino_data::csv::rows_text(direct.schema(), &d).unwrap()
        );
    }
}
