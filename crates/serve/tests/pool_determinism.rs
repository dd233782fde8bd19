//! Property tests for the deterministic sample pool: under random
//! schemas, seeds, pool depths and request interleavings, the pooled
//! stream must be **byte identical** to the direct (pool-less) sample
//! stream, and an evict → persist → reload cycle mid-stream must resume
//! the stream bit-exactly.
//!
//! Fitting is expensive, so fitted models are cached per
//! (corpus, seed) as encoded snapshot bytes and decoded fresh for every
//! proptest case — decoding is cheap and guarantees case isolation.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use kamino_core::{fit_kamino, FittedKamino, KaminoConfig};
use kamino_dp::Budget;
use kamino_serve::pool::{ndjson_rows, Format};
use kamino_serve::registry::Resident;
use kamino_serve::snapshot::{decode_fitted, encode_fitted};
use kamino_serve::{PoolConfig, SamplePool};
use proptest::prelude::*;

type SnapshotCache = Mutex<BTreeMap<(u8, u64), Arc<Vec<u8>>>>;

fn snapshot_bytes(corpus: u8, seed: u64) -> Arc<Vec<u8>> {
    static CACHE: OnceLock<SnapshotCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut guard = cache.lock().unwrap();
    guard
        .entry((corpus, seed))
        .or_insert_with(|| {
            let d = match corpus {
                0 => kamino_datasets::adult_like(80, 3),
                _ => kamino_datasets::br2000_like(70, 4),
            };
            let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
            cfg.train_scale = 0.02;
            cfg.embed_dim = 8;
            cfg.seed = 70 + seed;
            let fitted = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
            Arc::new(encode_fitted(&fitted))
        })
        .clone()
}

/// One step of a randomized serving schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Serve `rows` in the given format (misaligned sizes force the
    /// rewind path; aligned ones may hit the ring).
    Take(usize, Format),
    /// Serve exactly the pool's batch size — the hit path when the ring
    /// has speculation queued.
    TakeAligned(Format),
    /// A background refill tick: speculate one more batch ahead.
    Refill,
    /// LRU eviction mid-stream: encode the model at its canonical cursor
    /// with the same `Resident::canonical_bytes` the registry's `persist`
    /// writes, drop it, and reload from those bytes with an empty ring —
    /// the registry's `try_evict` in miniature.
    Evict,
}

prop_compose! {
    /// One step of the serving schedule, weighted toward serves (the
    /// vendored proptest shim has no `prop_oneof`, so the weighting is a
    /// tag draw).
    fn op()(tag in 0u8..9, rows in 1usize..10, json in any::<bool>()) -> Op {
        let format = if json { Format::Json } else { Format::Csv };
        match tag {
            0..=2 => Op::Take(rows, format),
            3..=5 => Op::TakeAligned(format),
            6..=7 => Op::Refill,
            _ => Op::Evict,
        }
    }
}

/// The direct path: what the pre-pool server streamed — sample, encode.
fn direct(f: &mut FittedKamino, rows: usize, format: Format) -> (String, u64) {
    let inst = f.sample(rows);
    let n = inst.n_rows() as u64;
    let text = match format {
        Format::Csv => kamino_data::csv::rows_text(f.schema(), &inst).expect("encode csv"),
        Format::Json => ndjson_rows(f.schema(), &inst),
    };
    (text, n)
}

/// Runs a schedule against a pooled model and a direct reference decoded
/// from the same snapshot, asserting byte equality on every serve and
/// canonical-cursor equality after every op.
fn run_schedule(corpus: u8, seed: u64, cfg: PoolConfig, ops: &[Op]) {
    let bytes = snapshot_bytes(corpus, seed);
    let mut pooled = decode_fitted(&bytes).expect("decode pooled");
    let mut reference = decode_fitted(&bytes).expect("decode reference");
    let mut pool = SamplePool::new(cfg);

    for (i, op) in ops.iter().enumerate() {
        let serve = match op {
            Op::Take(rows, format) => Some((*rows, *format)),
            Op::TakeAligned(format) => Some((cfg.rows, *format)),
            _ => None,
        };
        match (op, serve) {
            (_, Some((rows, format))) => {
                let (got, n, _hit) = pool
                    .take_batch(&mut pooled, rows, format)
                    .expect("take_batch");
                let (want, want_n) = direct(&mut reference, rows, format);
                assert_eq!(n, want_n, "op {i}: row count diverged");
                assert_eq!(
                    &*got, want,
                    "op {i} ({op:?}): pooled bytes diverged from direct"
                );
            }
            (Op::Refill, _) => {
                pool.refill_one(&mut pooled);
            }
            (Op::Evict, _) => {
                // the registry's eviction protocol: persist the canonical
                // cursor, drop the model and its pool, reload cold
                let mut evicted = Resident {
                    fitted: Box::new(pooled),
                    pool,
                };
                let frozen = evicted.canonical_bytes();
                pooled = decode_fitted(&frozen).expect("decode after evict");
                pool = SamplePool::new(cfg);
            }
            (Op::Take(..) | Op::TakeAligned(_), _) => unreachable!(),
        }
        // the persistable cursor must always equal the observable stream
        // position — i.e. the reference model's live cursor
        assert_eq!(
            pool.persist_state(&pooled),
            reference.rng_state(),
            "op {i} ({op:?}): canonical cursor drifted from the stream position"
        );
        assert!(pool.depth() <= cfg.batches, "op {i}: ring overfilled");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of takes (aligned and misaligned, both formats)
    /// and refill ticks yields exactly the direct stream, byte for byte.
    #[test]
    fn pooled_stream_is_byte_identical_to_direct(
        corpus in 0u8..2,
        seed in 0u64..2,
        batches in 0usize..4,
        rows in 1usize..7,
        ops in prop::collection::vec(op(), 1..14),
    ) {
        // strip evictions: this property isolates pure pool behavior
        let ops: Vec<Op> = ops
            .into_iter()
            .filter(|op| !matches!(op, Op::Evict))
            .collect();
        run_schedule(corpus, seed, PoolConfig { batches, rows }, &ops);
    }

    /// Evicting mid-stream — persist at the canonical cursor, reload
    /// with a cold pool — resumes the stream bit-exactly no matter where
    /// in the schedule the eviction lands.
    #[test]
    fn evict_reload_mid_stream_resumes_byte_exactly(
        corpus in 0u8..2,
        seed in 0u64..2,
        batches in 1usize..4,
        rows in 1usize..7,
        ops in prop::collection::vec(op(), 2..14),
        at in 0usize..12,
    ) {
        // guarantee at least one eviction with speculation in flight,
        // landed at a random point in the schedule
        let mut ops = ops;
        let at = at % ops.len();
        ops.insert(at, Op::Evict);
        ops.insert(at, Op::Refill);
        run_schedule(corpus, seed, PoolConfig { batches, rows }, &ops);
    }
}
