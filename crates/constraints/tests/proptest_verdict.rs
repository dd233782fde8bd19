//! The facts the sampler's per-cell verdict relies on. Before it scores a
//! cell, Algorithm 3's sampler probes the hard counters once, and skips
//! every counter walk whose answer that probe already decides:
//!
//! * any value inside a strict order's `feasible_range` adds no violation
//!   of that DC (the band is closed and exact), so a clamped candidate
//!   skips the DC's scan;
//! * when an FD's `required_value` is `Some(v)`, every candidate with
//!   another key violates it at least once, so at weight `+∞` it scores
//!   `+∞` without a walk;
//! * together: `ScoreSet::score_decided_into` under the probe's verdict
//!   writes the very bits `score_candidates_into` does.
//!
//! Prefixes are random, inserted and partly removed again (MCMC's
//! `remove`/`insert`), and values sit on a coarse grid with ties, signed
//! zeros and negatives.

use kamino_constraints::{
    parse_dc, CandidateRow, CellContext, DcCounter, DenialConstraint, Hardness, ScoreSet,
};
use kamino_data::{Attribute, Instance, Schema, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Attributes `e` and `f` (categorical, 3 codes) and `a`, `b`, `c`
/// (numeric over [-10, 10], `b` integer).
fn schema() -> Schema {
    Schema::new(vec![
        Attribute::categorical_indexed("e", 3).unwrap(),
        Attribute::categorical_indexed("f", 3).unwrap(),
        Attribute::numeric("a", -10.0, 10.0, 8).unwrap(),
        Attribute::integer("b", -10.0, 10.0, 8).unwrap(),
        Attribute::numeric("c", -10.0, 10.0, 8).unwrap(),
    ])
    .unwrap()
}

const A: usize = 2;
const B: usize = 3;
const C: usize = 4;

/// A value on a coarse grid over [-10, 10]: ties are common, and 0 comes
/// with either sign.
fn grid(rng: &mut StdRng) -> f64 {
    let x = f64::from(rng.gen_range(-8i32..=8)) * 1.25;
    if x == 0.0 && rng.gen::<bool>() {
        -0.0
    } else {
        x
    }
}

/// `n` random rows of [`schema`].
fn rows(n: usize, rng: &mut StdRng) -> Instance {
    let s = schema();
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|_| {
            vec![
                Value::Cat(rng.gen_range(0..3u32)),
                Value::Cat(rng.gen_range(0..3u32)),
                Value::Num(grid(rng)),
                Value::Num(grid(rng).round()),
                Value::Num(grid(rng)),
            ]
        })
        .collect();
    Instance::from_rows(&s, &rows).unwrap()
}

/// `!(eqs ∧ t1.a opA t2.a ∧ t1.b opB t2.b)` for random strict operators,
/// with no, one or two equality attributes.
fn strict_order(rng: &mut StdRng) -> DenialConstraint {
    let op = |rng: &mut StdRng| if rng.gen::<bool>() { "<" } else { ">" };
    let eqs = ["", "t1.e == t2.e & ", "t1.e == t2.e & t1.f == t2.f & "][rng.gen_range(0..3usize)];
    let text = format!("!({eqs}t1.a {} t2.a & t1.b {} t2.b)", op(rng), op(rng));
    parse_dc(&schema(), "ord", &text, Hardness::Hard).unwrap()
}

/// Inserts the rows of `inst` below `n` that keep every counter in
/// `counters` violation-free, then removes about a third of them again.
fn consistent_prefix(counters: &mut [DcCounter], inst: &Instance, n: usize, rng: &mut StdRng) {
    let mut inserted = Vec::new();
    for i in 0..n {
        let row = CandidateRow::committed(inst, i, 0);
        if counters.iter().all(|c| c.count_new(&row) == 0) {
            counters.iter_mut().for_each(|c| c.insert(&row));
            inserted.push(i);
        }
    }
    for &i in &inserted {
        if rng.gen_range(0..3) == 0 {
            let row = CandidateRow::committed(inst, i, 0);
            counters.iter_mut().for_each(|c| c.remove(&row));
        }
    }
}

/// Points of the closed band `[lo, hi]` to probe: its finite endpoints,
/// its midpoint, integer points next to each and a signed zero.
fn band_points(lo: f64, hi: f64) -> Vec<f64> {
    let (l, h) = (lo.max(-1e3), hi.min(1e3));
    let mid = l + (h - l) / 2.0;
    let mut points = vec![lo, hi, mid, mid.round(), l.ceil(), h.floor(), 0.0, -0.0];
    points.retain(|&x| x.is_finite() && lo <= x && x <= hi);
    points
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every value in a strict order's feasible band adds no violation.
    #[test]
    fn values_inside_the_feasible_band_add_no_violation(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dc = strict_order(&mut rng);
        let n = rng.gen_range(1..60);
        let inst = rows(n + 1, &mut rng);
        let mut counters = [DcCounter::build(&dc)];
        consistent_prefix(&mut counters, &inst, n, &mut rng);
        let target = if rng.gen::<bool>() { A } else { B };
        let cell = CellContext::new(&inst, n, target);
        if let Some((lo, hi)) = counters[0].feasible_range(&cell.with(Value::Num(0.0)), target) {
            prop_assert!(lo <= hi);
            for x in band_points(lo, hi) {
                prop_assert_eq!(
                    counters[0].count_new(&cell.with(Value::Num(x))),
                    0,
                    "{} at {x} in [{lo}, {hi}]",
                    dc.name
                );
            }
        }
    }

    /// When an FD forces a value, every other key violates it.
    #[test]
    fn a_forced_value_is_the_only_one_that_does_not_violate(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = schema();
        let (text, target, numeric) = [
            ("!(t1.e == t2.e & t1.f != t2.f)", 1, false),
            ("!(t1.e == t2.e & t1.f == t2.f & t1.c != t2.c)", C, true),
            ("!(t1.a == t2.a & t1.e != t2.e)", 0, false),
        ][rng.gen_range(0..3usize)];
        let dc = parse_dc(&s, "fd", text, Hardness::Hard).unwrap();
        let n = rng.gen_range(1..40);
        let inst = rows(n + 1, &mut rng);
        // FD groups may be inconsistent here: `required_value` must then
        // say nothing
        let mut counter = DcCounter::build(&dc);
        let mut inserted = Vec::new();
        for i in 0..n {
            counter.insert(&CandidateRow::committed(&inst, i, 0));
            inserted.push(i);
        }
        for &i in &inserted {
            if rng.gen_range(0..3) == 0 {
                counter.remove(&CandidateRow::committed(&inst, i, 0));
            }
        }
        let cell = CellContext::new(&inst, n, target);
        let probe = if numeric { Value::Num(0.0) } else { Value::Cat(0) };
        if let Some(v) = counter.required_value(&cell.with(probe)) {
            prop_assert_eq!(counter.count_new(&cell.with(v)), 0);
            let others: Vec<Value> = if numeric {
                (-8..=8).map(|k| Value::Num(f64::from(k) * 1.25)).collect()
            } else {
                (0..3).map(Value::Cat).collect()
            };
            for w in others {
                if w.compare(v) != std::cmp::Ordering::Equal {
                    prop_assert!(counter.count_new(&cell.with(w)) >= 1, "{w:?} against forced {v:?}");
                }
            }
        }
    }

    /// Scoring under the probe's verdict, as the sampler builds it, gives
    /// every candidate the bits of the plain scoring walk.
    #[test]
    fn decided_scores_equal_plain_scores(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = schema();
        let mut dcs = vec![
            strict_order(&mut rng),
            parse_dc(&s, "fd", "!(t1.e == t2.e & t1.b != t2.b)", Hardness::Hard).unwrap(),
            parse_dc(&s, "fd2", "!(t1.f == t2.f & t1.b != t2.b)", Hardness::Hard).unwrap(),
            parse_dc(&s, "cap", "!(t1.b > 6)", Hardness::Soft).unwrap(),
            parse_dc(&s, "gen", "!(t1.a <= t2.a & t1.b > t2.b)", Hardness::Soft).unwrap(),
        ];
        dcs.truncate(rng.gen_range(1..=dcs.len()));
        let weights: Vec<f64> = dcs
            .iter()
            .map(|dc| match dc.hardness {
                Hardness::Hard => f64::INFINITY,
                Hardness::Soft => [0.0, 0.5, 2.0][rng.gen_range(0..3usize)],
            })
            .collect();
        let n = rng.gen_range(1..50);
        let inst = rows(n + 1, &mut rng);
        let active: Vec<usize> = (0..dcs.len()).collect();
        let mut set = ScoreSet::build(&active, &dcs);
        // most prefixes keep the hard DCs clean, as a draw's do
        let clean = rng.gen_range(0..4usize) > 0;
        for i in 0..n {
            let row = CandidateRow::committed(&inst, i, 0);
            let hard_clean = set
                .iter()
                .all(|(l, c)| !weights[l].is_infinite() || c.count_new(&row) == 0);
            if rng.gen_range(0..4usize) > 0 && (hard_clean || !clean) {
                set.insert(&row);
            }
        }
        // the sampler's probe: forced values and bands of the hard DCs
        let cell = CellContext::new(&inst, n, B);
        let probe = cell.with(Value::Num(-10.0));
        let (mut forced, mut banded) = (Vec::new(), Vec::new());
        let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
        for (l, c) in set.iter() {
            if !weights[l].is_infinite() {
                continue;
            }
            if c.fd_rhs() == Some(B) {
                forced.extend(c.required_value(&probe));
            }
            if let Some((l_b, h_b)) = c.feasible_range(&probe, B) {
                (lo, hi) = (lo.max(l_b), hi.min(h_b));
                banded.push(l);
            }
        }
        let agreed = match forced.split_first() {
            Some((&v, rest)) if rest.iter().all(|&f| f.compare(v).is_eq()) => Some(v),
            _ => None,
        };
        let mut values: Vec<Value> = (0..12).map(|_| Value::Num(grid(&mut rng).round())).collect();
        values.extend(forced.iter().copied());
        if lo <= hi {
            for v in &mut values {
                *v = Value::Num(v.num().clamp(lo, hi));
            }
        } else {
            banded.clear();
        }
        let (mut plain, mut decided) = (Vec::new(), Vec::new());
        set.score_candidates_into(cell, &values, &weights, false, &mut plain);
        set.score_decided_into(cell, &values, &weights, agreed, &banded, &mut decided);
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&decided), bits(&plain), "values {:?}", values);
    }
}

/// An FD whose dependent is one of its determinants is never violated, and
/// forces no value: the group it would read moves with the value scored.
#[test]
fn a_self_determined_fd_forces_nothing() {
    let s = schema();
    let dc = parse_dc(&s, "self", "!(t1.e == t2.e & t1.e != t2.e)", Hardness::Hard).unwrap();
    let inst = rows(20, &mut StdRng::seed_from_u64(3));
    let mut counter = DcCounter::build(&dc);
    for i in 0..19 {
        counter.insert(&CandidateRow::committed(&inst, i, 0));
    }
    let cell = CellContext::new(&inst, 19, 0);
    for code in 0..3 {
        let cand = cell.with(Value::Cat(code));
        assert_eq!(counter.count_new(&cand), 0);
        assert_eq!(counter.required_value(&cand), None);
    }
}
