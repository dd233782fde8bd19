//! Property tests for the `.kamino` snapshot codec: across randomized
//! schemas, instances and budgets, save → load must resume
//! the exact deterministic sample stream, and corrupted or
//! wrong-version files must fail loudly instead of yielding a wrong
//! model.

use kamino_core::{fit_kamino, FittedKamino, KaminoConfig};
use kamino_data::{Attribute, Instance, Schema, Value};
use kamino_dp::Budget;
use kamino_serve::snapshot::{decode_fitted, encode_fitted, SnapshotError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a randomized-but-consistent dataset: categorical `a`, its FD
/// dependent `b`, and a numeric `x`, with the hard FD `a → b` planted so
/// constraint-aware sampling has something to preserve.
fn build_dataset(
    card_a: usize,
    card_b: usize,
    bins: usize,
    rows: usize,
    data_seed: u64,
) -> (Schema, Instance, Vec<kamino_constraints::DenialConstraint>) {
    let schema = Schema::new(vec![
        Attribute::categorical_indexed("a", card_a).unwrap(),
        Attribute::categorical_indexed("b", card_b).unwrap(),
        Attribute::numeric("x", 0.0, 9.0, bins).unwrap(),
    ])
    .unwrap();
    let mut rng = StdRng::seed_from_u64(data_seed);
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|_| {
            let a = rng.gen_range(0..card_a) as u32;
            vec![
                Value::Cat(a),
                Value::Cat(a % card_b as u32),
                Value::Num(rng.gen_range(0.0..9.0)),
            ]
        })
        .collect();
    let instance = Instance::from_rows(&schema, &rows).unwrap();
    let dc = kamino_constraints::parse_dc(
        &schema,
        "fd_ab",
        "!(t1.a == t2.a & t1.b != t2.b)",
        kamino_constraints::Hardness::Hard,
    )
    .unwrap();
    (schema, instance, vec![dc])
}

fn fit(
    card_a: usize,
    card_b: usize,
    bins: usize,
    rows: usize,
    data_seed: u64,
    fit_seed: u64,
    epsilon: f64,
) -> FittedKamino {
    let (schema, instance, dcs) = build_dataset(card_a, card_b, bins, rows, data_seed);
    let mut cfg = KaminoConfig::new(if epsilon.is_infinite() {
        Budget::non_private()
    } else {
        Budget::new(epsilon, 1e-6)
    });
    cfg.train_scale = 0.02;
    cfg.embed_dim = 8;
    cfg.seed = fit_seed;
    fit_kamino(&schema, &instance, &dcs, &cfg)
}

proptest! {
    // each case fits a real (tiny) model, so keep the count modest
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary schema/weights/params → save → load → the next 64
    /// sampled rows are bit-identical to the unsaved session's.
    #[test]
    fn save_load_resumes_bit_identical_stream(
        card_a in 2usize..5,
        card_b in 2usize..6,
        bins in 4usize..12,
        rows in 30usize..70,
        data_seed in 0u64..1000,
        fit_seed in 0u64..1000,
        epsilon in prop::sample::select(vec![0.8, 1.0, f64::INFINITY]),
        warmup in prop::sample::select(vec![0usize, 13]),
    ) {
        let mut live = fit(card_a, card_b, bins, rows, data_seed, fit_seed, epsilon);
        if warmup > 0 {
            // snapshots taken mid-stream must also resume exactly
            let _ = live.sample(warmup);
        }
        let bytes = encode_fitted(&live);
        let mut loaded = decode_fitted(&bytes).expect("snapshot must decode");
        prop_assert_eq!(loaded.achieved_epsilon().to_bits(), live.achieved_epsilon().to_bits());
        prop_assert_eq!(&loaded.sequence, &live.sequence);
        prop_assert_eq!(loaded.n_input(), live.n_input());
        prop_assert_eq!(loaded.rng_state(), live.rng_state());
        let a = live.sample(64);
        let b = loaded.sample(64);
        prop_assert_eq!(a, b);
        // still in lockstep on a second draw
        prop_assert_eq!(live.sample(5), loaded.sample(5));
    }

    /// Flipping any single byte of the payload (or truncating the file)
    /// never yields a successfully loaded model: sections are CRC-sealed.
    #[test]
    fn corruption_never_loads_silently(
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
        data_seed in 0u64..100,
    ) {
        let live = fit(3, 3, 6, 35, data_seed, 7, 1.0);
        let bytes = encode_fitted(&live);
        let mut corrupt = bytes.clone();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        corrupt[pos] ^= 1 << bit;
        // either an explicit error, or (if the flip landed in the section
        // table's offsets/CRCs) still an error — never a quiet success
        // with different bytes
        match decode_fitted(&corrupt) {
            Err(_) => {}
            Ok(reloaded) => {
                // the only acceptable "success" is a flip that decode
                // cannot see... which cannot exist because every byte is
                // either header (validated) or CRC-sealed payload.
                prop_assert!(
                    false,
                    "corrupted snapshot loaded (pos {pos}, bit {bit}, eps {})",
                    reloaded.achieved_epsilon()
                );
            }
        }
    }
}

#[test]
fn wrong_version_is_refused_with_a_clear_error() {
    let live = fit(3, 3, 6, 35, 1, 2, 1.0);
    let mut bytes = encode_fitted(&live);
    // bump the version field (bytes 8..12, little-endian)
    bytes[8] = 2;
    match decode_fitted(&bytes) {
        Err(SnapshotError::UnsupportedVersion(2)) => {}
        Err(other) => panic!("expected UnsupportedVersion(2), got {other:?}"),
        Ok(_) => panic!("expected UnsupportedVersion(2), got a loaded model"),
    }
}

#[test]
fn truncation_is_refused() {
    let live = fit(3, 4, 8, 40, 3, 4, 1.0);
    let bytes = encode_fitted(&live);
    for cut in [0, 7, 12, 16, bytes.len() / 3, bytes.len() - 1] {
        assert!(decode_fitted(&bytes[..cut]).is_err(), "cut at {cut} loaded");
    }
}
