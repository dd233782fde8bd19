//! Post-hoc constraint repair — the "cleaned" arm of Figure 1.
//!
//! The paper applies HoloClean to fix the violations baseline synthesizers
//! leave behind, then shows the repaired data scores *worse* on both tasks:
//! repair restores consistency by rewriting cells, which collapses the very
//! distributions the tasks need. This module reproduces that repair with
//! the two rules the evaluation DCs require:
//!
//! * **FD repair**: group rows by the determinant and overwrite the
//!   dependent with the group's majority value;
//! * **strict-order repair**: within each equality group, reassign the
//!   second order attribute's *multiset of values* so it is concordant
//!   (or anti-concordant, per the operators) with the first — marginals
//!   survive, joint structure does not.
//!
//! Other DC shapes are left untouched (the paper's evaluation DCs are all
//! FD- or order-shaped).

use std::cmp::Ordering;
use std::collections::BTreeMap;

use kamino_constraints::{CmpOp, DenialConstraint, StrictOrder};
use kamino_data::{Instance, Schema, Value};

/// Applies majority-FD and order repairs for every DC, returning the
/// repaired instance.
pub fn repair(schema: &Schema, inst: &Instance, dcs: &[DenialConstraint]) -> Instance {
    let mut out = inst.clone();
    for dc in dcs {
        if let Some(fd) = dc.as_fd() {
            repair_fd(&mut out, &fd.lhs, fd.rhs);
        } else if let Some(so) = dc.as_strict_order() {
            repair_order(schema, &mut out, &so);
        }
    }
    out
}

fn key_of(inst: &Instance, row: usize, attrs: &[usize]) -> Vec<u64> {
    // keys never mix kinds within one attribute, so no cross-kind tag
    attrs
        .iter()
        .map(|&a| match inst.value(row, a) {
            Value::Cat(c) => c as u64,
            Value::Num(x) => (if x == 0.0 { 0.0 } else { x }).to_bits(),
        })
        .collect()
}

/// Majority-vote FD repair.
fn repair_fd(inst: &mut Instance, lhs: &[usize], rhs: usize) {
    let n = inst.n_rows();
    // group → dependent value key → (count, representative value)
    let mut groups: BTreeMap<Vec<u64>, BTreeMap<u64, (usize, Value)>> = BTreeMap::new();
    for i in 0..n {
        let key = key_of(inst, i, lhs);
        let v = inst.value(i, rhs);
        let vk = key_of(inst, i, &[rhs])[0];
        groups.entry(key).or_default().entry(vk).or_insert((0, v)).0 += 1;
    }
    let majority: BTreeMap<Vec<u64>, Value> = groups
        .into_iter()
        .map(|(k, by_v)| {
            let (_, &(_, v)) = by_v
                .iter()
                .max_by_key(|&(_, &(c, _))| c)
                .expect("non-empty group");
            (k, v)
        })
        .collect();
    for i in 0..n {
        let key = key_of(inst, i, lhs);
        inst.set(i, rhs, majority[&key]);
    }
}

/// Order repair: within each equality group, sort rows by attribute `a` and
/// reassign attribute `b`'s multiset so pairs are concordant
/// (`(>, ≥ requires) …`) per the operator combination. Ties in `a` receive
/// `b` values in an arbitrary but deterministic order (strict operators
/// never fire on ties).
fn repair_order(_schema: &Schema, inst: &mut Instance, order: &StrictOrder) {
    let ((attr_a, op_a), (attr_b, op_b)) = (order.a, order.b);
    // violation fires when the larger-a row's b is op-related; concordant
    // assignment fixes ¬(A↑ ∧ B↓); anti-concordant fixes ¬(A↑ ∧ B↑)
    let concordant = match (op_a, op_b) {
        (CmpOp::Gt, CmpOp::Lt) | (CmpOp::Lt, CmpOp::Gt) => true,
        (CmpOp::Gt, CmpOp::Gt) | (CmpOp::Lt, CmpOp::Lt) => false,
        _ => unreachable!("as_strict_order only admits strict ops"),
    };
    let n = inst.n_rows();
    let mut groups: BTreeMap<Vec<u64>, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        groups
            .entry(key_of(inst, i, &order.eq_attrs))
            .or_default()
            .push(i);
    }
    for rows in groups.values() {
        let mut by_a: Vec<usize> = rows.clone();
        by_a.sort_by(|&i, &j| {
            inst.value(i, attr_a)
                .compare(inst.value(j, attr_a))
                .then(Ordering::Equal)
        });
        let mut b_values: Vec<Value> = rows.iter().map(|&i| inst.value(i, attr_b)).collect();
        b_values.sort_by(|x, y| x.compare(*y));
        if !concordant {
            b_values.reverse();
        }
        for (&row, v) in by_a.iter().zip(b_values) {
            inst.set(row, attr_b, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamino_constraints::{count_violating_pairs, parse_dc, violation_percentage, Hardness};
    use kamino_data::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::categorical_indexed("edu", 3).unwrap(),
            Attribute::integer("edu_num", 0.0, 16.0, 16).unwrap(),
            Attribute::numeric("gain", 0.0, 100.0, 10).unwrap(),
            Attribute::numeric("loss", 0.0, 100.0, 10).unwrap(),
        ])
        .unwrap()
    }

    fn inst(s: &Schema, rows: &[(u32, f64, f64, f64)]) -> Instance {
        Instance::from_rows(
            s,
            &rows
                .iter()
                .map(|&(e, en, g, l)| {
                    vec![Value::Cat(e), Value::Num(en), Value::Num(g), Value::Num(l)]
                })
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn fd_repair_majority_vote() {
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
                (0, 10.0, 0.0, 0.0),
                (0, 10.0, 0.0, 0.0),
                (0, 12.0, 0.0, 0.0), // minority → rewritten to 10
                (1, 5.0, 0.0, 0.0),
            ],
        );
        let fixed = repair(&s, &d, std::slice::from_ref(&dc));
        assert_eq!(count_violating_pairs(&dc, &fixed), 0);
        assert_eq!(fixed.num(2, 1), 10.0);
        assert_eq!(fixed.num(3, 1), 5.0, "other groups untouched");
    }

    #[test]
    fn order_repair_makes_concordant() {
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
                (0, 0.0, 10.0, 1.0),
                (0, 0.0, 50.0, 0.5), // big gain, small loss: discordant
                (0, 0.0, 30.0, 9.0),
            ],
        );
        assert!(count_violating_pairs(&dc, &d) > 0);
        let fixed = repair(&s, &d, std::slice::from_ref(&dc));
        assert_eq!(count_violating_pairs(&dc, &fixed), 0);
        // the loss *marginal* is preserved (same multiset)
        let mut before: Vec<f64> = (0..3).map(|i| d.num(i, 3)).collect();
        let mut after: Vec<f64> = (0..3).map(|i| fixed.num(i, 3)).collect();
        before.sort_by(f64::total_cmp);
        after.sort_by(f64::total_cmp);
        assert_eq!(before, after);
    }

    #[test]
    fn repair_degrades_joint_structure() {
        // the Figure 1 phenomenon in miniature: repair zeroes violations
        // but rewrites cells, so the joint (edu_num, gain) distribution
        // moves even though no DC touches gain
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
                (0, 10.0, 90.0, 0.0),
                (0, 12.0, 10.0, 0.0),
                (0, 10.0, 85.0, 0.0),
            ],
        );
        let fixed = repair(&s, &d, std::slice::from_ref(&dc));
        assert_eq!(violation_percentage(&dc, &fixed), 0.0);
        // row 1's edu_num was rewritten 12 → 10, breaking its pairing with
        // the low gain value
        assert_eq!(fixed.num(1, 1), 10.0);
    }

    #[test]
    fn eq_grouped_order_repair_stays_within_groups() {
        let s = schema();
        let dc = parse_dc(
            &s,
            "grp",
            "!(t1.edu == t2.edu & t1.gain > t2.gain & t1.loss < t2.loss)",
            Hardness::Hard,
        )
        .unwrap();
        let d = inst(
            &s,
            &[
                (0, 0.0, 10.0, 9.0),
                (0, 0.0, 50.0, 1.0), // discordant within edu=0
                (1, 0.0, 99.0, 0.1), // alone in edu=1: untouched
            ],
        );
        let fixed = repair(&s, &d, std::slice::from_ref(&dc));
        assert_eq!(count_violating_pairs(&dc, &fixed), 0);
        assert_eq!(fixed.num(2, 3), 0.1);
    }

    #[test]
    fn unknown_shapes_left_alone() {
        let s = schema();
        let dc = parse_dc(&s, "u", "!(t1.gain > 90)", Hardness::Hard).unwrap();
        let d = inst(&s, &[(0, 0.0, 95.0, 0.0)]);
        let fixed = repair(&s, &d, &[dc]);
        assert_eq!(fixed, d);
    }
}
