//! Full-instance violation counting.
//!
//! These functions implement the paper's violation set `V(φ, D)`:
//! * unary DCs — the set of tuples making all predicates true;
//! * binary DCs — the set of *unordered tuple pairs* `{i, j}` such that
//!   some orientation `(t_i, t_j)` makes all predicates true. This matches
//!   Metric I (§7.1), which reports `100·|V(φ, D)| / C(n, 2)`.
//!
//! Counting dispatches on DC shape:
//! * FD-shaped DCs count in O(n) by grouping on the determinant;
//! * DCs of the shape `equalities ∧ (A strict-op) ∧ (B strict-op)` (e.g.
//!   φ₂ᵃ, φ₆ᵗ) count in O(n log n) with a Fenwick tree per equality group;
//! * everything else falls back to the exact O(n²) pair scan — the
//!   complexity the paper itself states for general binary DCs.

use std::collections::HashMap;

use kamino_data::{Instance, Value};

use crate::ast::{CmpOp, DenialConstraint, StrictOrder};

/// Stable hashable key for a cell value. Keys are only ever compared
/// within a single attribute, whose values are all of one kind, so no
/// cross-kind tag is needed (an earlier version OR-ed tag bits into the
/// float pattern, which collided 0.0 with 2.0 — caught by the workspace
/// property tests).
#[inline]
pub(crate) fn value_key(v: Value) -> u64 {
    match v {
        Value::Cat(c) => c as u64,
        Value::Num(x) => {
            // Normalize -0.0 to 0.0 so equal numbers share a key.
            let x = if x == 0.0 { 0.0 } else { x };
            x.to_bits()
        }
    }
}

/// Number of tuples violating a unary DC.
///
/// # Panics
/// Panics if `dc` is binary.
pub fn count_unary_violations(dc: &DenialConstraint, inst: &Instance) -> u64 {
    assert!(
        !dc.is_binary(),
        "count_unary_violations called with a binary DC"
    );
    let mut count = 0;
    for i in 0..inst.n_rows() {
        if dc.violated_by_tuple(|a| inst.value(i, a)) {
            count += 1;
        }
    }
    count
}

/// Number of unordered tuple pairs violating a binary DC (in either
/// orientation).
///
/// # Panics
/// Panics if `dc` is unary.
pub fn count_violating_pairs(dc: &DenialConstraint, inst: &Instance) -> u64 {
    assert!(
        dc.is_binary(),
        "count_violating_pairs called with a unary DC"
    );
    if let Some(fd) = dc.as_fd() {
        return fd_violating_pairs(&fd.lhs, fd.rhs, inst);
    }
    if let Some(shape) = OrderShape::recognize(dc) {
        return shape.count_pairs(inst);
    }
    naive_violating_pairs(dc, inst)
}

fn naive_violating_pairs(dc: &DenialConstraint, inst: &Instance) -> u64 {
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

/// O(n) FD pair counting: for groups with equal determinant values, pairs
/// that disagree on the dependent violate. `Σ_g [C(g,2) − Σ_v C(c_v,2)]`.
fn fd_violating_pairs(lhs: &[usize], rhs: usize, inst: &Instance) -> u64 {
    let mut groups: HashMap<Vec<u64>, HashMap<u64, u64>> = HashMap::new();
    for i in 0..inst.n_rows() {
        let key: Vec<u64> = lhs.iter().map(|&a| value_key(inst.value(i, a))).collect();
        *groups
            .entry(key)
            .or_default()
            .entry(value_key(inst.value(i, rhs)))
            .or_insert(0) += 1;
    }
    let choose2 = |m: u64| m * m.saturating_sub(1) / 2;
    groups
        .values()
        .map(|by_rhs| {
            let g: u64 = by_rhs.values().sum();
            choose2(g) - by_rhs.values().map(|&c| choose2(c)).sum::<u64>()
        })
        .sum()
}

/// Per-tuple violation counts `V(φ, t_i | D − {t_i})`: for binary DCs the
/// number of partner tuples forming a violating pair with `t_i`; for unary
/// DCs 1 if `t_i` itself violates, else 0. This is the column of the
/// violation matrix Algorithm 5 builds.
pub fn per_tuple_violations(dc: &DenialConstraint, inst: &Instance) -> Vec<u64> {
    let n = inst.n_rows();
    if !dc.is_binary() {
        return (0..n)
            .map(|i| u64::from(dc.violated_by_tuple(|a| inst.value(i, a))))
            .collect();
    }
    if let Some(fd) = dc.as_fd() {
        // partner count = group size − tuples sharing the dependent value
        let mut groups: HashMap<Vec<u64>, HashMap<u64, u64>> = HashMap::new();
        let mut keys = Vec::with_capacity(n);
        for i in 0..n {
            let key: Vec<u64> = fd
                .lhs
                .iter()
                .map(|&a| value_key(inst.value(i, a)))
                .collect();
            let rv = value_key(inst.value(i, fd.rhs));
            *groups
                .entry(key.clone())
                .or_default()
                .entry(rv)
                .or_insert(0) += 1;
            keys.push((key, rv));
        }
        return keys
            .into_iter()
            .map(|(key, rv)| {
                let by_rhs = &groups[&key];
                let g: u64 = by_rhs.values().sum();
                g - by_rhs[&rv]
            })
            .collect();
    }
    let mut counts = vec![0u64; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if dc.violated_by_pair(&|a| inst.value(i, a), &|a| inst.value(j, a)) {
                counts[i] += 1;
                counts[j] += 1;
            }
        }
    }
    counts
}

/// Metric I: percentage of violating tuple pairs (binary DCs) or violating
/// tuples (unary DCs). Returns 0 for instances too small to form a pair.
pub fn violation_percentage(dc: &DenialConstraint, inst: &Instance) -> f64 {
    let n = inst.n_rows() as u64;
    if dc.is_binary() {
        if n < 2 {
            return 0.0;
        }
        let pairs = n * (n - 1) / 2;
        100.0 * count_violating_pairs(dc, inst) as f64 / pairs as f64
    } else {
        if n == 0 {
            return 0.0;
        }
        100.0 * count_unary_violations(dc, inst) as f64 / n as f64
    }
}

/// The strict-order shape (see [`StrictOrder`]) counted with a Fenwick
/// tree per equality group.
pub(crate) struct OrderShape {
    order: StrictOrder,
}

impl OrderShape {
    pub(crate) fn recognize(dc: &DenialConstraint) -> Option<OrderShape> {
        dc.as_strict_order().map(|order| OrderShape { order })
    }

    /// Counts unordered violating pairs in O(n log n) per equality group.
    ///
    /// Canonicalize so that within a pair, `u` is the row with the strictly
    /// larger `A` value; a violation occurs iff `b_u CMP b_v` where `CMP` is
    /// `op_b` when `op_a = >`, or the flip of `op_b` when `op_a = <`
    /// (swapping the roles of `t1`/`t2`). Strictness means equal-`A` or
    /// equal-`B` pairs never violate, so each violating unordered pair is
    /// counted exactly once.
    pub(crate) fn count_pairs(&self, inst: &Instance) -> u64 {
        let n = inst.n_rows();
        let mut groups: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
        for i in 0..n {
            let key: Vec<u64> = self
                .order
                .eq_attrs
                .iter()
                .map(|&a| value_key(inst.value(i, a)))
                .collect();
            groups.entry(key).or_default().push(i);
        }
        let larger_b_means_violation = match (self.order.a.1, self.order.b.1) {
            (CmpOp::Gt, op) => op == CmpOp::Lt, // u has larger a; need b_u op b_v
            (CmpOp::Lt, op) => op == CmpOp::Gt, // u plays t2; flip
            _ => unreachable!("recognize() only admits strict ops"),
        };
        // `larger_b_means_violation == true`  ⇒ violation iff b_u < b_v
        // (the larger-a row has the *smaller* b) — count inserted rows with
        // b strictly greater; otherwise count strictly smaller.
        let mut total = 0u64;
        for rows in groups.values() {
            total += self.count_group(inst, rows, larger_b_means_violation);
        }
        total
    }

    fn count_group(&self, inst: &Instance, rows: &[usize], count_greater: bool) -> u64 {
        let (attr_a, attr_b) = (self.order.a.0, self.order.b.0);
        // Sort by a ascending; process tie-blocks of equal a together.
        let mut order: Vec<usize> = rows.to_vec();
        order.sort_by(|&i, &j| inst.value(i, attr_a).compare(inst.value(j, attr_a)));
        // Coordinate-compress b.
        let mut bs: Vec<Value> = rows.iter().map(|&i| inst.value(i, attr_b)).collect();
        bs.sort_by(|x, y| x.compare(*y));
        bs.dedup_by(|x, y| x.compare(*y) == std::cmp::Ordering::Equal);
        let rank = |v: Value| -> usize {
            bs.partition_point(|&x| x.compare(v) == std::cmp::Ordering::Less)
        };
        let mut bit = Fenwick::new(bs.len());
        let mut total = 0u64;
        let mut idx = 0;
        while idx < order.len() {
            // Identify the tie-block [idx, end) of equal a-values.
            let mut end = idx + 1;
            let a_val = inst.value(order[idx], attr_a);
            while end < order.len()
                && inst.value(order[end], attr_a).compare(a_val) == std::cmp::Ordering::Equal
            {
                end += 1;
            }
            // Query the whole block against strictly-smaller-a rows...
            for &i in &order[idx..end] {
                let r = rank(inst.value(i, attr_b));
                total += if count_greater {
                    bit.total() - bit.prefix(r + 1) // strictly greater b
                } else {
                    bit.prefix(r) // strictly smaller b
                };
            }
            // ...then insert the block.
            for &i in &order[idx..end] {
                bit.add(rank(inst.value(i, attr_b)));
            }
            idx = end;
        }
        total
    }
}

/// Minimal Fenwick (binary indexed) tree over counts.
pub(crate) struct Fenwick {
    tree: Vec<u64>,
    total: u64,
}

impl Fenwick {
    pub(crate) fn new(n: usize) -> Fenwick {
        Fenwick {
            tree: vec![0; n + 1],
            total: 0,
        }
    }

    /// Adds one occurrence at 0-based position `i`.
    pub(crate) fn add(&mut self, i: usize) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
        self.total += 1;
    }

    /// Count of occurrences at positions `< i` (0-based exclusive bound).
    pub(crate) fn prefix(&self, i: usize) -> u64 {
        let mut i = i.min(self.tree.len() - 1);
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Total inserted count.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Hardness;
    use crate::parser::parse_dc;
    use kamino_data::{Attribute, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::categorical_indexed("edu", 4).unwrap(),
            Attribute::integer("edu_num", 1.0, 16.0, 16).unwrap(),
            Attribute::numeric("gain", 0.0, 100.0, 10).unwrap(),
            Attribute::numeric("loss", 0.0, 100.0, 10).unwrap(),
            Attribute::categorical_indexed("state", 3).unwrap(),
        ])
        .unwrap()
    }

    fn inst(s: &Schema, rows: &[(u32, f64, f64, f64, u32)]) -> Instance {
        let rows: Vec<Vec<Value>> = rows
            .iter()
            .map(|&(e, en, g, l, st)| {
                vec![
                    Value::Cat(e),
                    Value::Num(en),
                    Value::Num(g),
                    Value::Num(l),
                    Value::Cat(st),
                ]
            })
            .collect();
        Instance::from_rows(s, &rows).unwrap()
    }

    #[test]
    fn fd_pair_counting_matches_naive() {
        let s = schema();
        let dc = parse_dc(
            &s,
            "fd",
            "!(t1.edu == t2.edu & t1.edu_num != t2.edu_num)",
            Hardness::Hard,
        )
        .unwrap();
        // group edu=0: edu_num 10,10,12 → 2 violating pairs; edu=1: 10,11 → 1
        let d = inst(
            &s,
            &[
                (0, 10.0, 0.0, 0.0, 0),
                (0, 10.0, 0.0, 0.0, 0),
                (0, 12.0, 0.0, 0.0, 0),
                (1, 10.0, 0.0, 0.0, 0),
                (1, 11.0, 0.0, 0.0, 0),
            ],
        );
        assert_eq!(count_violating_pairs(&dc, &d), 3);
        assert_eq!(naive_violating_pairs(&dc, &d), 3);
        assert!((violation_percentage(&dc, &d) - 100.0 * 3.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn order_dc_fast_path_matches_naive() {
        let s = schema();
        let dc = parse_dc(
            &s,
            "ord",
            "!(t1.gain > t2.gain & t1.loss < t2.loss)",
            Hardness::Hard,
        )
        .unwrap();
        let d = inst(
            &s,
            &[
                (0, 0.0, 10.0, 1.0, 0),
                (0, 0.0, 5.0, 9.0, 0),
                (0, 0.0, 7.0, 7.0, 0),
                (0, 0.0, 10.0, 1.0, 0), // ties with r0 on both: no violation
                (0, 0.0, 1.0, 0.5, 0),  // smallest on both: no violation
            ],
        );
        // violating pairs: {0,1}, {0,2}, {1,2}, {1,3}, {2,3}
        let fast = count_violating_pairs(&dc, &d);
        let naive = naive_violating_pairs(&dc, &d);
        assert_eq!(fast, naive);
        assert_eq!(fast, 5);
    }

    #[test]
    fn grouped_order_dc_matches_naive() {
        let s = schema();
        let dc = parse_dc(
            &s,
            "tax6",
            "!(t1.state == t2.state & t1.gain > t2.gain & t1.loss < t2.loss)",
            Hardness::Hard,
        )
        .unwrap();
        let d = inst(
            &s,
            &[
                (0, 0.0, 10.0, 1.0, 0),
                (0, 0.0, 5.0, 9.0, 0), // same state as r0: violating pair
                (0, 0.0, 10.0, 1.0, 1),
                (0, 0.0, 5.0, 9.0, 2), // different states: no violation
            ],
        );
        assert!(OrderShape::recognize(&dc).is_some());
        assert_eq!(
            count_violating_pairs(&dc, &d),
            naive_violating_pairs(&dc, &d)
        );
        assert_eq!(count_violating_pairs(&dc, &d), 1);
    }

    #[test]
    fn non_strict_order_uses_naive_and_counts_correctly() {
        let s = schema();
        let dc = parse_dc(
            &s,
            "ns",
            "!(t1.gain >= t2.gain & t1.loss <= t2.loss)",
            Hardness::Soft,
        )
        .unwrap();
        assert!(OrderShape::recognize(&dc).is_none());
        let d = inst(&s, &[(0, 0.0, 5.0, 5.0, 0), (0, 0.0, 5.0, 5.0, 0)]);
        // equal rows satisfy >= and <= in both orientations
        assert_eq!(count_violating_pairs(&dc, &d), 1);
    }

    #[test]
    fn unary_counting() {
        let s = schema();
        let dc = parse_dc(&s, "u", "!(t1.edu_num < 5 & t1.gain > 90)", Hardness::Hard).unwrap();
        let d = inst(
            &s,
            &[
                (0, 3.0, 95.0, 0.0, 0), // violates
                (0, 3.0, 10.0, 0.0, 0),
                (0, 10.0, 95.0, 0.0, 0),
                (0, 1.0, 99.0, 0.0, 0), // violates
            ],
        );
        assert_eq!(count_unary_violations(&dc, &d), 2);
        assert!((violation_percentage(&dc, &d) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn per_tuple_violations_fd() {
        let s = schema();
        let dc = parse_dc(
            &s,
            "fd",
            "!(t1.edu == t2.edu & t1.edu_num != t2.edu_num)",
            Hardness::Hard,
        )
        .unwrap();
        let d = inst(
            &s,
            &[
                (0, 10.0, 0.0, 0.0, 0),
                (0, 10.0, 0.0, 0.0, 0),
                (0, 12.0, 0.0, 0.0, 0),
                (1, 9.0, 0.0, 0.0, 0),
            ],
        );
        // r0,r1 each conflict with r2; r2 conflicts with both; r3 alone
        assert_eq!(per_tuple_violations(&dc, &d), vec![1, 1, 2, 0]);
    }

    #[test]
    fn per_tuple_violations_general_binary_and_unary() {
        let s = schema();
        let ord = parse_dc(
            &s,
            "ord",
            "!(t1.gain > t2.gain & t1.loss < t2.loss)",
            Hardness::Soft,
        )
        .unwrap();
        let d = inst(
            &s,
            &[
                (0, 0.0, 10.0, 1.0, 0),
                (0, 0.0, 5.0, 9.0, 0),
                (0, 0.0, 1.0, 10.0, 0),
            ],
        );
        // pairs (0,1), (0,2), (1,2) all violate
        assert_eq!(per_tuple_violations(&ord, &d), vec![2, 2, 2]);
        let u = parse_dc(&s, "u", "!(t1.gain > 90)", Hardness::Soft).unwrap();
        let d2 = inst(&s, &[(0, 0.0, 95.0, 0.0, 0), (0, 0.0, 5.0, 0.0, 0)]);
        assert_eq!(per_tuple_violations(&u, &d2), vec![1, 0]);
    }

    #[test]
    fn empty_and_singleton_instances() {
        let s = schema();
        let dc = parse_dc(
            &s,
            "fd",
            "!(t1.edu == t2.edu & t1.edu_num != t2.edu_num)",
            Hardness::Hard,
        )
        .unwrap();
        let empty = Instance::empty(&s);
        assert_eq!(count_violating_pairs(&dc, &empty), 0);
        assert_eq!(violation_percentage(&dc, &empty), 0.0);
        let single = inst(&s, &[(0, 10.0, 0.0, 0.0, 0)]);
        assert_eq!(count_violating_pairs(&dc, &single), 0);
        assert_eq!(violation_percentage(&dc, &single), 0.0);
    }

    #[test]
    fn signed_zero_equality_agrees_across_paths() {
        // value_key merges -0.0 with 0.0; the predicate `==` must too, or
        // the FD fast path and the pair scan count the same DC differently
        let s = schema();
        let dc = parse_dc(
            &s,
            "fd0",
            "!(t1.gain == t2.gain & t1.loss != t2.loss)",
            Hardness::Hard,
        )
        .unwrap();
        let d = inst(&s, &[(0, 1.0, 0.0, 1.0, 0), (0, 1.0, -0.0, 2.0, 0)]);
        assert_eq!(count_violating_pairs(&dc, &d), 1);
        assert_eq!(naive_violating_pairs(&dc, &d), 1);
        assert_eq!(per_tuple_violations(&dc, &d), vec![1, 1]);
        let mut scan = crate::incremental::ScanIndexRef::new(&dc);
        scan.insert(&crate::incremental::CandidateRow::committed(&d, 0, 3));
        assert_eq!(
            scan.count_new(&crate::incremental::CandidateRow::committed(&d, 1, 3)),
            1
        );
    }

    #[test]
    fn fenwick_prefix_counts() {
        let mut f = Fenwick::new(5);
        f.add(0);
        f.add(2);
        f.add(2);
        f.add(4);
        assert_eq!(f.total(), 4);
        assert_eq!(f.prefix(0), 0);
        assert_eq!(f.prefix(1), 1);
        assert_eq!(f.prefix(3), 3);
        assert_eq!(f.prefix(5), 4);
        // out-of-range queries clamp
        assert_eq!(f.prefix(99), 4);
    }

    #[test]
    fn value_key_injective_within_kind() {
        assert_eq!(value_key(Value::Num(0.0)), value_key(Value::Num(-0.0)));
        assert_ne!(value_key(Value::Num(1.0)), value_key(Value::Num(2.0)));
        // the regression that motivated dropping the tag bits:
        assert_ne!(value_key(Value::Num(0.0)), value_key(Value::Num(2.0)));
        assert_ne!(value_key(Value::Num(1.0)), value_key(Value::Num(-1.0)));
        assert_ne!(value_key(Value::Cat(3)), value_key(Value::Cat(4)));
    }
}
