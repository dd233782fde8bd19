//! Full-instance violation counting.
//!
//! These functions implement the paper's violation set `V(φ, D)`:
//! * unary DCs — the set of tuples making all predicates true;
//! * binary DCs — the set of *unordered tuple pairs* `{i, j}` such that
//!   some orientation `(t_i, t_j)` makes all predicates true. This matches
//!   Metric I (§7.1), which reports `100·|V(φ, D)| / C(n, 2)`.
//!
//! Every count runs through the sampler's own index for the DC's shape,
//! [`DcCounter::build`], so the zero Algorithm 3 enforces and the Ψ that
//! Metric I and Algorithm 5's violation matrix report come from one
//! counter per shape:
//! * pair totals are Equation (3), `|V(φ, D)| = Σ_i |V(φ, t_i | D_:i)|`:
//!   each row's `count_new` against the rows before it, then `insert` —
//!   O(n) for FDs, and the exact O(n²) scan the paper states for general
//!   binary DCs;
//! * strict orders (e.g. φ₂ᵃ, φ₆ᵗ) insert every row and count the stored
//!   pairs in one O(n log n) Fenwick pass per equality partition;
//! * per-tuple counts insert every row, then read each row's `count_new`;
//!   every index leaves the row itself out of that count.

use kamino_data::{Instance, Value};

use crate::ast::DenialConstraint;
use crate::incremental::{CandidateRow, DcCounter};

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

/// The rows of `inst` as stored, in order. (The target attribute of a
/// committed view only matters for a hypothetical value; 0 is any.)
fn rows(inst: &Instance) -> impl Iterator<Item = CandidateRow<'_>> {
    (0..inst.n_rows()).map(move |i| CandidateRow::committed(inst, i, 0))
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
    let counter = DcCounter::build(dc);
    rows(inst).map(|row| counter.count_new(&row)).sum()
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
    let mut counter = DcCounter::build(dc);
    if dc.as_strict_order().is_some() {
        rows(inst).for_each(|row| counter.insert(&row));
        return counter
            .stored_order_pairs()
            .expect("a strict-order counter");
    }
    rows(inst)
        .map(|row| {
            let new = counter.count_new(&row);
            counter.insert(&row);
            new
        })
        .sum()
}

/// Per-tuple violation counts `V(φ, t_i | D − {t_i})`: for binary DCs the
/// number of partner tuples forming a violating pair with `t_i`; for unary
/// DCs 1 if `t_i` itself violates, else 0. This is the column of the
/// violation matrix Algorithm 5 builds.
pub fn per_tuple_violations(dc: &DenialConstraint, inst: &Instance) -> Vec<u64> {
    let mut counter = DcCounter::build(dc);
    rows(inst).for_each(|row| counter.insert(&row));
    rows(inst).map(|row| counter.count_new(&row)).collect()
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

/// Minimal Fenwick (binary indexed) tree over counts.
pub(crate) struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    pub(crate) fn new(n: usize) -> Fenwick {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Adds one occurrence at 0-based position `i`.
    pub(crate) fn add(&mut self, i: usize) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Hardness;
    use crate::parser::parse_dc;
    use kamino_data::{Attribute, Schema};

    /// The reference: every unordered pair, evaluated in both orientations.
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
        assert!(dc.as_strict_order().is_some());
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
        assert!(dc.as_strict_order().is_none());
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
