//! Property-based tests on the core invariants, spanning crates.
//!
//! * Eqn. (3): the incremental counters' chain rule matches full-instance
//!   counting for random instances and random DC shapes.
//! * The engine's FD/order fast paths agree with the naive pair scan.
//! * The partitioned strict-order scan layout answers like its generic
//!   reference twin and a brute-force feasible band, through interleaved
//!   inserts and removes.
//! * CSV round-trips arbitrary instances.
//! * Quantizer bins stay within range and sample back into themselves.
//! * The RDP accountant is monotone in its inputs.

use kamino::constraints::{
    count_violating_pairs, parse_dc, CandidateRow, CmpOp, DcCounter, DenialConstraint, Hardness,
    Operand, Predicate, ScanIndexRef, ScoreSet, TupleRef,
};
use kamino::data::{csv, Attribute, Instance, Quantizer, Schema, Value};
use kamino::dp::{sgm_rdp, RdpAccountant};
use proptest::prelude::*;

fn small_schema() -> Schema {
    Schema::new(vec![
        Attribute::categorical_indexed("a", 4).unwrap(),
        Attribute::categorical_indexed("b", 3).unwrap(),
        Attribute::integer("x", 0.0, 9.0, 10).unwrap(),
        Attribute::numeric("y", 0.0, 1.0, 4).unwrap(),
    ])
    .unwrap()
}

prop_compose! {
    /// `x` and `y` land on `±0.0` often, so every equality and order path
    /// sees both signed zeros.
    fn arb_row()(
        a in 0u32..4,
        b in 0u32..3,
        x in 0i32..10,
        x_sign in prop::sample::select(vec![1.0, -1.0]),
        y in prop::sample::select(vec![None, Some(0.0), Some(-0.0)]),
        y_draw in 0.0f64..1.0,
    ) -> Vec<Value> {
        vec![
            Value::Cat(a),
            Value::Cat(b),
            Value::Num(if x == 0 { x_sign * 0.0 } else { x as f64 }),
            Value::Num(y.unwrap_or(y_draw)),
        ]
    }
}

prop_compose! {
    fn arb_instance(max_rows: usize)(rows in prop::collection::vec(arb_row(), 2..max_rows)) -> Instance {
        Instance::from_rows(&small_schema(), &rows).unwrap()
    }
}

/// A pool of DC shapes covering FD, strict order (every operator pair, a
/// categorical order attribute, zero to two equality attributes),
/// non-strict order, and unary constraints.
fn dc_pool() -> Vec<DenialConstraint> {
    let s = small_schema();
    [
        "!(t1.a == t2.a & t1.b != t2.b)",
        "!(t1.a == t2.a & t1.x != t2.x)",
        "!(t1.x > t2.x & t1.y < t2.y)",
        "!(t1.a == t2.a & t1.x > t2.x & t1.y < t2.y)",
        "!(t1.x >= t2.x & t1.y <= t2.y)",
        "!(t1.x > 7 & t1.y < 0.3)",
        "!(t1.x > t2.x & t1.y > t2.y)",
        "!(t1.x < t2.x & t1.y < t2.y)",
        "!(t1.a == t2.a & t1.b == t2.b & t1.x < t2.x & t1.y > t2.y)",
    ]
    .iter()
    .enumerate()
    .map(|(i, text)| parse_dc(&s, &format!("dc{i}"), text, Hardness::Soft).unwrap())
    .chain(std::iter::once(categorical_order_dc()))
    .collect()
}

/// `¬(t1.b > t2.b ∧ t1.y < t2.y)`: an order over categorical codes. The
/// parser rejects ordering a categorical attribute, but the AST and every
/// counting path admit it, so it is built directly.
fn categorical_order_dc() -> DenialConstraint {
    let pred = |attr, op| Predicate {
        lhs: Operand::Attr {
            tuple: TupleRef::T1,
            attr,
        },
        op,
        rhs: Operand::Attr {
            tuple: TupleRef::T2,
            attr,
        },
    };
    DenialConstraint::new(
        "dc_cat_order",
        vec![pred(1, CmpOp::Gt), pred(3, CmpOp::Lt)],
        Hardness::Soft,
    )
}

/// Naive reference: unordered pairs violating in either orientation.
fn naive_pairs(dc: &DenialConstraint, inst: &Instance) -> u64 {
    let n = inst.n_rows();
    let mut count = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            if dc.violated_by_pair(&|a| inst.value(i, a), &|a| inst.value(j, a)) {
                count += 1;
            }
        }
    }
    count
}

/// Brute-force feasible band for `target` under the strict-order `dc`:
/// scan every stored row (other than the candidate's own) in the
/// candidate's equality group and intersect the bands each orientation
/// forbids.
fn brute_band(
    dc: &DenialConstraint,
    inst: &Instance,
    stored: &[usize],
    cand: &CandidateRow<'_>,
    target: usize,
) -> Option<(f64, f64)> {
    let order = dc.as_strict_order().unwrap();
    let ((_, op_t), (o, op_o)) = if order.a.0 == target {
        (order.a, order.b)
    } else if order.b.0 == target {
        (order.b, order.a)
    } else {
        return None;
    };
    cand.get(target).as_num()?;
    let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
    for &r in stored.iter().filter(|&&r| r != cand.row()) {
        if !order
            .eq_attrs
            .iter()
            .all(|&e| CmpOp::Eq.eval(inst.value(r, e), cand.get(e)))
        {
            continue;
        }
        let t_r = inst.value(r, target).num();
        let o_r = inst.value(r, o);
        // candidate as t1: op_t(v, t_r) is forbidden when op_o(o_cand, o_r)
        if op_o.eval(cand.get(o), o_r) {
            if op_t == CmpOp::Lt {
                lo = lo.max(t_r);
            } else {
                hi = hi.min(t_r);
            }
        }
        // candidate as t2: op_t(t_r, v) is forbidden when op_o(o_r, o_cand)
        if op_o.eval(o_r, cand.get(o)) {
            if op_t == CmpOp::Lt {
                hi = hi.min(t_r);
            } else {
                lo = lo.max(t_r);
            }
        }
    }
    (lo <= hi).then_some((lo, hi))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict-order DC's partitioned layout answers `count_new` like
    /// the generic `ScanIndexRef` and `feasible_range` like a brute-force
    /// band, after a random interleaving of inserts and removes into one
    /// `ScoreSet`, and for candidates that tie stored values or carry a
    /// stored row's own id.
    #[test]
    fn order_layout_matches_reference_through_inserts_and_removes(
        inst in arb_instance(40),
        // each step toggles one row: inserted if absent, removed if
        // present; rows never toggled stay fresh probe rows
        toggles in prop::collection::vec(0usize..40, 0..120),
    ) {
        let pool = dc_pool();
        let active: Vec<usize> = (0..pool.len())
            .filter(|&l| pool[l].as_strict_order().is_some())
            .collect();
        let n = inst.n_rows();
        let target = 3; // any attribute: inserts read whole committed rows
        let mut set = ScoreSet::build(&active, &pool);
        let mut present = vec![false; n];
        for i in toggles.into_iter().filter(|&i| i < n) {
            let row = CandidateRow::committed(&inst, i, target);
            if present[i] {
                set.remove(&row);
            } else {
                set.insert(&row);
            }
            present[i] = !present[i];
        }
        let stored: Vec<usize> = (0..n).filter(|&i| present[i]).collect();
        let mirrored_rows: Vec<Vec<Value>> = (0..n).rev().map(|i| inst.row(i)).collect();
        let mirrored = Instance::from_rows(&small_schema(), &mirrored_rows).unwrap();

        for (l, counter) in set.iter() {
            let dc = &pool[l];
            let order = dc.as_strict_order().unwrap();
            prop_assert_eq!(counter.len(), stored.len(), "{}", dc.name);
            let mut reference = ScanIndexRef::new(dc);
            for &i in &stored {
                reference.insert(&CandidateRow::committed(&inst, i, target));
            }
            // Probe rows come from the instance itself and from its mirror
            // image, whose row ids collide with stored rows that carry
            // other values: a pair with the candidate's own id must never
            // count, whatever its values.
            for probe in [&inst, &mirrored] {
                for probe_row in 0..n {
                    for t in [order.a.0, order.b.0] {
                        // the row's own value, then values stored rows carry
                        let values = std::iter::once(probe.value(probe_row, t))
                            .chain(stored.iter().take(4).map(|&i| inst.value(i, t)));
                        for v in values {
                            let cand = CandidateRow::new(probe, probe_row, t, v);
                            prop_assert_eq!(
                                counter.count_new(&cand),
                                reference.count_new(&cand),
                                "{} row {} attr {} = {}", dc.name, probe_row, t, v
                            );
                            prop_assert_eq!(
                                counter.feasible_range(&cand, t),
                                brute_band(dc, &inst, &stored, &cand, t),
                                "{} row {} attr {}", dc.name, probe_row, t
                            );
                        }
                    }
                }
            }
        }
    }

    /// Fast-path counting equals the naive scan for every DC shape.
    #[test]
    fn engine_fast_paths_match_naive(inst in arb_instance(40)) {
        for dc in dc_pool().iter().filter(|dc| dc.is_binary()) {
            prop_assert_eq!(
                count_violating_pairs(dc, &inst),
                naive_pairs(dc, &inst),
                "{}", dc.name
            );
        }
    }

    /// Eqn. (3): Σ_i |V(φ, t_i | D_:i)| == |V(φ, D)| via the incremental
    /// counters, for every binary DC shape.
    #[test]
    fn incremental_chain_rule(inst in arb_instance(30)) {
        for dc in dc_pool().iter().filter(|dc| dc.is_binary()) {
            let target = *dc.attrs().iter().next_back().unwrap();
            let mut counter = DcCounter::build(dc);
            let mut sum = 0;
            for i in 0..inst.n_rows() {
                let cand = CandidateRow::committed(&inst, i, target);
                sum += counter.count_new(&cand);
                counter.insert(&cand);
            }
            prop_assert_eq!(sum, count_violating_pairs(dc, &inst), "{}", dc.name);
        }
    }

    /// Removing and re-inserting any row leaves counter answers unchanged.
    #[test]
    fn counter_remove_insert_is_identity(inst in arb_instance(25), probe in arb_row()) {
        let s = small_schema();
        let mut with_probe_rows: Vec<Vec<Value>> =
            (0..inst.n_rows()).map(|i| inst.row(i)).collect();
        with_probe_rows.push(probe);
        let ext = Instance::from_rows(&s, &with_probe_rows).unwrap();
        let probe_row = ext.n_rows() - 1;
        for dc in dc_pool().iter().filter(|dc| dc.is_binary()) {
            let target = *dc.attrs().iter().next_back().unwrap();
            let mut counter = DcCounter::build(dc);
            for i in 0..inst.n_rows() {
                counter.insert(&CandidateRow::committed(&ext, i, target));
            }
            let cand = CandidateRow::committed(&ext, probe_row, target);
            let before = counter.count_new(&cand);
            let victim = CandidateRow::committed(&ext, 0, target);
            counter.remove(&victim);
            counter.insert(&victim);
            prop_assert_eq!(before, counter.count_new(&cand), "{}", dc.name);
        }
    }

    /// CSV round-trips arbitrary instances exactly for categorical codes
    /// and within float-printing fidelity for numerics.
    #[test]
    fn csv_roundtrip(inst in arb_instance(30)) {
        let s = small_schema();
        let mut buf = Vec::new();
        csv::write_csv(&s, &inst, &mut buf).unwrap();
        let back = csv::read_csv(&s, buf.as_slice()).unwrap();
        prop_assert_eq!(back.n_rows(), inst.n_rows());
        for i in 0..inst.n_rows() {
            for j in 0..s.len() {
                match (inst.value(i, j), back.value(i, j)) {
                    (Value::Cat(a), Value::Cat(b)) => prop_assert_eq!(a, b),
                    (Value::Num(a), Value::Num(b)) => prop_assert!((a - b).abs() < 1e-9),
                    _ => prop_assert!(false, "kind changed through CSV"),
                }
            }
        }
    }

    /// Quantizer: bins are in range, and sampling inside a bin lands back
    /// in that bin.
    #[test]
    fn quantizer_bin_roundtrip(x in -5.0f64..15.0, bin in 0usize..10, seed in 0u64..1000) {
        use rand::SeedableRng;
        let attr = Attribute::numeric("q", 0.0, 10.0, 10).unwrap();
        let q = Quantizer::for_attr(&attr);
        prop_assert!(q.bin(Value::Num(x)) < 10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let v = q.sample_in_bin(bin, &mut rng);
        prop_assert_eq!(q.bin(v), bin);
    }

    /// SGM RDP is monotone: more sampling or less noise never costs less.
    #[test]
    fn rdp_monotonicity(q in 0.001f64..0.5, sigma in 0.8f64..4.0) {
        let base = sgm_rdp(8, sigma, q);
        prop_assert!(sgm_rdp(8, sigma, (q * 1.5).min(1.0)) >= base - 1e-12);
        prop_assert!(sgm_rdp(8, sigma * 1.5, q) <= base + 1e-12);
        // composition is additive
        let mut acc = RdpAccountant::new();
        acc.add_sgm(sigma, q, 3);
        let mut acc2 = RdpAccountant::new();
        for _ in 0..3 { acc2.add_sgm(sigma, q, 1); }
        prop_assert!((acc.epsilon(1e-6) - acc2.epsilon(1e-6)).abs() < 1e-9);
    }
}
