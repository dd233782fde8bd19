//! Batch candidate scoring.
//!
//! Algorithm 3's inner loop asks, for every candidate value `v` of a cell,
//! the weighted violation penalty `Σ_{φ ∈ Φ_{S[j]}} w_φ · |V(φ, t_i[S[j]]=v
//! | D'_:i)|`. [`ScoreSet`] owns the incremental counters for the active
//! DCs of one sequence position and answers that query **in batch** over a
//! whole candidate set: every candidate is scored in input order, each by
//! one walk over the counters that skips the zero-weight DCs. Nothing is
//! allocated per cell or per candidate.
//!
//! The sampler probes the hard counters once per cell before it scores,
//! and [`ScoreSet::score_decided_into`] takes what that probe decided, the
//! cell's *verdict*, so the walk skips work whose answer is already known:
//!
//! * **a forced value `v`**: every hard FD on the target whose determinant
//!   group exists forces the one dependent the group carries, and they all
//!   agree on `v`. A candidate whose key differs from `v`'s (the equality
//!   [`DcCounter::count_new`] uses for an FD) scores `+∞` without a walk:
//!   the forcing FD counts at least one violation (its group is not
//!   empty) at weight `+∞`, and every other term is `≥ 0`. The candidates
//!   equal to `v` share one walk: every counter keys a value the same way,
//!   so they score alike;
//! * **banded DCs**: a hard strict-order DC's `feasible_range` is closed
//!   and exact, so a candidate inside it adds exactly 0 for that DC, and
//!   the walk skips it. The caller names only the DCs whose bands contain
//!   every candidate.
//!
//! Every other counter is walked in DC order, so a decided score equals
//! the undecided one bit for bit (given weights that are `+∞` or finite
//! and `≥ 0`), and [`ScoreSet::score_candidates_into`] is the empty
//! verdict.
//!
//! Determinism: scoring is pure (no RNG, no mutation), so a batch returns
//! exactly the penalties [`ScoreSet::penalty`] gives one candidate at a
//! time.

use kamino_data::Value;

use crate::ast::DenialConstraint;
use crate::engine::value_key;
use crate::incremental::{CandidateRow, CellContext, DcCounter};

/// The incremental counters for the DCs active at one sequence position,
/// plus the batch scoring entry point the sampler drives.
///
/// Each entry pairs the DC's index into the pipeline's DC list (so weights
/// stay aligned) with its counter.
pub struct ScoreSet {
    counters: Vec<(usize, DcCounter)>,
}

impl ScoreSet {
    /// Builds counters for the DCs named by `active` (indices into `dcs`).
    pub fn build(active: &[usize], dcs: &[DenialConstraint]) -> ScoreSet {
        ScoreSet {
            counters: active
                .iter()
                .map(|&l| (l, DcCounter::build(&dcs[l])))
                .collect(),
        }
    }

    /// Whether no DCs are active at this position.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// The (dc-index, counter) pairs — used by the sampler's hard-FD and
    /// feasible-band fast paths.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &DcCounter)> {
        self.counters.iter().map(|(l, c)| (*l, c))
    }

    /// Commits a finalized row into every counter.
    pub fn insert(&mut self, cand: &CandidateRow<'_>) {
        for (_, c) in &mut self.counters {
            c.insert(cand);
        }
    }

    /// Removes a previously committed row from every counter (MCMC).
    pub fn remove(&mut self, cand: &CandidateRow<'_>) {
        for (_, c) in &mut self.counters {
            c.remove(cand);
        }
    }

    /// The weighted violation penalty of a single hypothesis. A
    /// zero-weight DC adds exactly `+0.0` to every penalty, so it is left
    /// out of the walk.
    pub fn penalty(&self, cand: &CandidateRow<'_>, weights: &[f64]) -> f64 {
        self.walk(cand, weights, &[])
    }

    /// The one scoring walk: every counter in DC order except the
    /// zero-weight DCs and the `banded` ones (DC indices), whose count is
    /// known to be 0 for this candidate.
    fn walk(&self, cand: &CandidateRow<'_>, weights: &[f64], banded: &[usize]) -> f64 {
        let mut penalty = 0.0;
        for (l, c) in &self.counters {
            let w = weights[*l];
            if w == 0.0 || banded.contains(l) {
                continue;
            }
            let vio = c.count_new(cand);
            if vio > 0 {
                penalty += w * vio as f64;
            }
        }
        penalty
    }

    /// Batch scoring: the weighted violation penalty for **every**
    /// candidate value of the cell, in input order.
    pub fn score_candidates(
        &self,
        cell: CellContext<'_>,
        values: &[Value],
        weights: &[f64],
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(values.len());
        self.score_candidates_into(cell, values, weights, false, &mut out);
        out
    }

    /// [`ScoreSet::score_candidates`] writing into a caller-provided buffer
    /// (cleared first), so a hot sampling loop can reuse one allocation
    /// across cells. Penalties are identical to the allocating form.
    ///
    /// `_parallel` has no effect; it is kept only for the benchmark
    /// package's callers and goes when they stop passing it.
    pub fn score_candidates_into(
        &self,
        cell: CellContext<'_>,
        values: &[Value],
        weights: &[f64],
        _parallel: bool,
        out: &mut Vec<f64>,
    ) {
        self.score_decided_into(cell, values, weights, None, &[], out);
    }

    /// Batch scoring under the cell's verdict (see the module docs):
    /// `forced` is the value every hard FD on the target forces, and
    /// `banded` the hard strict-order DCs whose feasible band contains
    /// every candidate. Writes the same penalties as
    /// [`ScoreSet::score_candidates_into`], into `out` (cleared first).
    pub fn score_decided_into(
        &self,
        cell: CellContext<'_>,
        values: &[Value],
        weights: &[f64],
        forced: Option<Value>,
        banded: &[usize],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let forced = forced.map(value_key);
        let mut shared = None;
        out.extend(values.iter().map(|&v| match forced {
            Some(k) if value_key(v) != k => f64::INFINITY,
            Some(_) => *shared.get_or_insert_with(|| self.walk(&cell.with(v), weights, banded)),
            None => self.walk(&cell.with(v), weights, banded),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Hardness;
    use crate::parser::parse_dc;
    use kamino_data::{Attribute, Instance, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::categorical_indexed("a", 4).unwrap(),
            Attribute::integer("x", 0.0, 31.0, 32).unwrap(),
            Attribute::numeric("y", 0.0, 100.0, 10).unwrap(),
        ])
        .unwrap()
    }

    fn dcs(s: &Schema) -> Vec<DenialConstraint> {
        vec![
            parse_dc(s, "fd", "!(t1.a == t2.a & t1.x != t2.x)", Hardness::Hard).unwrap(),
            parse_dc(s, "ord", "!(t1.x > t2.x & t1.y < t2.y)", Hardness::Soft).unwrap(),
            parse_dc(s, "cap", "!(t1.y > 95)", Hardness::Soft).unwrap(),
        ]
    }

    fn filled_instance(s: &Schema, n: usize) -> Instance {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    Value::Cat((i % 4) as u32),
                    Value::Num((i % 4) as f64 * 3.0),
                    Value::Num((i % 50) as f64 * 2.0),
                ]
            })
            .collect();
        Instance::from_rows(s, &rows).unwrap()
    }

    #[test]
    fn batch_equals_per_candidate_penalty() {
        let s = schema();
        let all = dcs(&s);
        let weights = [f64::INFINITY, 2.5, 0.7];
        let inst = filled_instance(&s, 200);
        let mut set = ScoreSet::build(&[0, 1, 2], &all);
        for i in 0..199 {
            set.insert(&CandidateRow::committed(&inst, i, 2));
        }
        let cell = CellContext::new(&inst, 199, 2);
        let values: Vec<Value> = (0..100).map(|k| Value::Num(k as f64)).collect();
        let batch = set.score_candidates(cell, &values, &weights);
        for (v, got) in values.iter().zip(&batch) {
            let want = set.penalty(&cell.with(*v), &weights);
            assert!(
                (got - want).abs() == 0.0 || (got.is_infinite() && want.is_infinite()),
                "batch {got} vs single {want}"
            );
        }
    }

    #[test]
    fn insert_remove_roundtrip_keeps_scores() {
        let s = schema();
        let all = dcs(&s);
        let weights = [1.0, 1.0, 1.0];
        let inst = filled_instance(&s, 50);
        let mut set = ScoreSet::build(&[0, 1], &all);
        for i in 0..50 {
            set.insert(&CandidateRow::committed(&inst, i, 2));
        }
        let probe_rows = filled_instance(&s, 51);
        let cell = CellContext::new(&probe_rows, 50, 2);
        let values: Vec<Value> = (0..10).map(|k| Value::Num(k as f64 * 7.0)).collect();
        let before = set.score_candidates(cell, &values, &weights);
        let victim = CandidateRow::committed(&inst, 7, 2);
        set.remove(&victim);
        set.insert(&victim);
        let after = set.score_candidates(cell, &values, &weights);
        assert_eq!(before, after);
    }

    #[test]
    fn zero_weight_dcs_leave_penalties_bit_identical() {
        let s = schema();
        let all = dcs(&s);
        let inst = filled_instance(&s, 81);
        let mut with_zero = ScoreSet::build(&[0, 1, 2], &all);
        let mut without = ScoreSet::build(&[0, 2], &all);
        for i in 0..80 {
            with_zero.insert(&CandidateRow::committed(&inst, i, 2));
            without.insert(&CandidateRow::committed(&inst, i, 2));
        }
        let cell = CellContext::new(&inst, 80, 2);
        let values: Vec<Value> = (0..50).map(|k| Value::Num(k as f64 * 2.1)).collect();
        for weights in [[1.5, 0.0, 0.7], [f64::INFINITY, 0.0, 0.0], [0.0, 0.0, 0.0]] {
            let a = with_zero.score_candidates(cell, &values, &weights);
            let b = without.score_candidates(cell, &values, &weights);
            let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "weights {weights:?}");
            for &v in &values {
                let (a, b) = (
                    with_zero.penalty(&cell.with(v), &weights),
                    without.penalty(&cell.with(v), &weights),
                );
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // the skipped scan DC really does see violations at these values
        let scan = with_zero.iter().find(|&(l, _)| l == 1).unwrap().1;
        assert!(values.iter().any(|&v| scan.count_new(&cell.with(v)) > 0));
    }

    #[test]
    fn empty_set_scores_zero() {
        let s = schema();
        let all = dcs(&s);
        let set = ScoreSet::build(&[], &all);
        assert!(set.is_empty());
        let inst = filled_instance(&s, 3);
        let cell = CellContext::new(&inst, 0, 2);
        let out = set.score_candidates(cell, &[Value::Num(1.0)], &[]);
        assert_eq!(out, vec![0.0]);
    }
}
