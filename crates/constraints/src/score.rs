//! The parallel candidate-scoring substrate.
//!
//! Algorithm 3's inner loop asks, for every candidate value `v` of a cell,
//! the weighted violation penalty `Σ_{φ ∈ Φ_{S[j]}} w_φ · |V(φ, t_i[S[j]]=v
//! | D'_:i)|`. [`ScoreSet`] owns the incremental counters for the active
//! DCs of one sequence position and answers that query **in batch** over a
//! whole candidate set through the counters' `&self` scoring views
//! ([`DcScorer`]), which makes the candidates embarrassingly parallel:
//! with the `parallel` feature (default on) the batch fans out across
//! rayon workers whenever the work estimate says threads pay for
//! themselves.
//!
//! Determinism: scoring is pure (no RNG, no mutation), and results are
//! written back by candidate index, so the parallel path returns
//! bit-identical penalties to the serial path for any thread count — the
//! sampler's output for a fixed seed does not depend on the `parallel`
//! switch.

use kamino_data::Value;

use crate::ast::DenialConstraint;
use crate::incremental::{CandidateRow, CellContext, DcCounter, DcScorer};

/// Minimum estimated work (candidates × prefix rows visited per candidate)
/// before the batch is fanned out across threads. Below this, thread
/// dispatch costs more than the scan itself.
#[cfg(feature = "parallel")]
const MIN_PARALLEL_WORK: usize = 4_096;

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

    /// Absorbs another `ScoreSet` built from the **same** active-DC list
    /// over a disjoint row-id range (a shard's prefix). Counters merge
    /// pair-wise, so the result scores exactly as if every row of both
    /// sets had been inserted into one. Shards must be merged in a fixed
    /// (shard-index) order by the caller so any panic messages and debug
    /// assertions fire deterministically; the merged *scores* themselves
    /// are order-independent, since all counter state is additive.
    pub fn merge(&mut self, other: ScoreSet) {
        assert_eq!(
            self.counters.len(),
            other.counters.len(),
            "merging ScoreSets with different active-DC lists"
        );
        for ((l_a, c_a), (l_b, c_b)) in self.counters.iter_mut().zip(other.counters) {
            assert_eq!(
                *l_a, l_b,
                "merging ScoreSets with different active-DC lists"
            );
            c_a.merge(c_b);
        }
    }

    /// Total rows inserted across all counters' prefix indexes (0 when
    /// only unary counters are active — they keep no state).
    pub fn len(&self) -> usize {
        self.counters
            .iter()
            .map(|(_, c)| c.len())
            .max()
            .unwrap_or(0)
    }

    /// The weighted violation penalty of a single hypothesis.
    pub fn penalty(&self, cand: &CandidateRow<'_>, weights: &[f64]) -> f64 {
        penalty_with(&self.scorers(weights), cand, weights)
    }

    /// Batch scoring: the weighted violation penalty for **every**
    /// candidate value of the cell, in input order.
    ///
    /// `parallel` is a runtime switch on top of the compile-time
    /// `parallel` feature; the penalties returned are identical either
    /// way (see the module docs on determinism).
    pub fn score_candidates(
        &self,
        cell: CellContext<'_>,
        values: &[Value],
        weights: &[f64],
        parallel: bool,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(values.len());
        self.score_candidates_into(cell, values, weights, parallel, &mut out);
        out
    }

    /// [`ScoreSet::score_candidates`] writing into a caller-provided buffer
    /// (cleared first), so a hot sampling loop can reuse one allocation
    /// across cells. Penalties are identical to the allocating form.
    pub fn score_candidates_into(
        &self,
        cell: CellContext<'_>,
        values: &[Value],
        weights: &[f64],
        parallel: bool,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let scorers = self.scorers(weights);
        #[cfg(feature = "parallel")]
        {
            let per_candidate: usize = scorers.iter().map(|(_, s)| s.scan_cost()).sum();
            let work = values.len().saturating_mul(per_candidate.max(1));
            if parallel && work >= MIN_PARALLEL_WORK && rayon::current_num_threads() > 1 {
                out.extend(rayon::par_map_indexed(values.len(), |i| {
                    penalty_with(&scorers, &cell.with(values[i]), weights)
                }));
                return;
            }
        }
        let _ = parallel;
        out.extend(
            values
                .iter()
                .map(|&v| penalty_with(&scorers, &cell.with(v), weights)),
        );
    }

    /// The scoring views of the counters that can move a penalty. A
    /// zero-weight DC adds exactly `+0.0` to every penalty, so it is left
    /// out — of the scan and of the parallel work estimate alike.
    fn scorers(&self, weights: &[f64]) -> Vec<(usize, DcScorer<'_>)> {
        self.counters
            .iter()
            .filter(|(l, _)| weights[*l] != 0.0)
            .map(|(l, c)| (*l, c.scorer()))
            .collect()
    }
}

fn penalty_with(
    scorers: &[(usize, DcScorer<'_>)],
    cand: &CandidateRow<'_>,
    weights: &[f64],
) -> f64 {
    let mut penalty = 0.0;
    for (l, s) in scorers {
        let vio = s.count_new(cand);
        if vio > 0 {
            penalty += weights[*l] * vio as f64;
        }
    }
    penalty
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
    fn batch_equals_per_candidate_serial_and_parallel() {
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
        let serial = set.score_candidates(cell, &values, &weights, false);
        let parallel = set.score_candidates(cell, &values, &weights, true);
        assert_eq!(serial, parallel, "parallel scoring must be bit-identical");
        for (v, got) in values.iter().zip(&serial) {
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
        let before = set.score_candidates(cell, &values, &weights, false);
        let victim = CandidateRow::committed(&inst, 7, 2);
        set.remove(&victim);
        set.insert(&victim);
        let after = set.score_candidates(cell, &values, &weights, false);
        assert_eq!(before, after);
    }

    #[test]
    fn merged_shards_score_like_one_sequential_set() {
        // Build one ScoreSet sequentially over 120 rows, and the same 120
        // rows as three 40-row shards merged in shard order: every scoring
        // query must agree exactly (FD, order-scan, and unary counters).
        let s = schema();
        let all = dcs(&s);
        let weights = [f64::INFINITY, 2.5, 0.7];
        let inst = filled_instance(&s, 121);
        let active = [0usize, 1, 2];

        let mut sequential = ScoreSet::build(&active, &all);
        for i in 0..120 {
            sequential.insert(&CandidateRow::committed(&inst, i, 2));
        }

        let mut merged = ScoreSet::build(&active, &all);
        for shard in 0..3 {
            let mut part = ScoreSet::build(&active, &all);
            for i in (shard * 40)..((shard + 1) * 40) {
                part.insert(&CandidateRow::committed(&inst, i, 2));
            }
            merged.merge(part);
        }
        assert_eq!(merged.len(), sequential.len());

        let cell = CellContext::new(&inst, 120, 2);
        let values: Vec<Value> = (0..60).map(|k| Value::Num(k as f64 * 1.7)).collect();
        let a = sequential.score_candidates(cell, &values, &weights, false);
        let b = merged.score_candidates(cell, &values, &weights, false);
        assert_eq!(a, b, "merged shards must score identically");

        // fast-path queries agree too
        for ((_, ca), (_, cb)) in sequential.iter().zip(merged.iter()) {
            let probe = cell.with(Value::Num(3.0));
            assert_eq!(ca.required_value(&probe), cb.required_value(&probe));
            assert_eq!(ca.feasible_range(&probe, 2), cb.feasible_range(&probe, 2));
        }

        // and mutation keeps working on the merged set (repair/MCMC path)
        let victim = CandidateRow::committed(&inst, 57, 2);
        merged.remove(&victim);
        sequential.remove(&victim);
        merged.insert(&victim);
        sequential.insert(&victim);
        assert_eq!(
            sequential.score_candidates(cell, &values, &weights, false),
            merged.score_candidates(cell, &values, &weights, false)
        );
    }

    #[test]
    #[should_panic(expected = "present in both shards")]
    fn overlapping_shards_panic() {
        let s = schema();
        let all = dcs(&s);
        let inst = filled_instance(&s, 10);
        let mut a = ScoreSet::build(&[1], &all);
        let mut b = ScoreSet::build(&[1], &all);
        a.insert(&CandidateRow::committed(&inst, 3, 2));
        b.insert(&CandidateRow::committed(&inst, 3, 2));
        a.merge(b);
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
            for parallel in [false, true] {
                let a = with_zero.score_candidates(cell, &values, &weights, parallel);
                let b = without.score_candidates(cell, &values, &weights, parallel);
                let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "weights {weights:?}");
            }
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
        let out = set.score_candidates(cell, &[Value::Num(1.0)], &[], true);
        assert_eq!(out, vec![0.0]);
    }
}
