//! The NIST Differential Privacy Synthetic Data Challenge winner's recipe
//! (McKenna, Sheldon, Miklau — "Graphical-model based estimation and
//! inference for differential privacy"), configured as the paper does in
//! §7.1: "marginals over every single attribute, and over 10 randomly
//! chosen attribute pairs".
//!
//! Measured marginals are released with the Gaussian mechanism; inference
//! uses the tree-structured graphical model over the measured pairs (a
//! maximum spanning forest weighted by noisy mutual information), which is
//! the exact special case of the PGM machinery. Attributes outside the
//! forest sample from their noisy 1-way marginals — and when the noise
//! dominates a marginal, post-processing can concentrate it onto a single
//! value, reproducing the paper's observation that NIST "filled the entire
//! edu_num column with the same value".

use std::collections::HashMap;

use kamino_data::stats::{normalize, sample_weighted};
use kamino_data::{Instance, Schema};
use kamino_dp::{calibrate_sgm_sigma, release_histogram, Budget};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::discretize::{mutual_information, Discretized};
use crate::Synthesizer;

/// NIST-winner-style marginal + tree-PGM synthesizer.
#[derive(Debug, Clone)]
pub struct NistPgm {
    /// Number of random 2-way marginals to measure (paper: 10).
    pub n_pairs: usize,
}

impl Default for NistPgm {
    fn default() -> Self {
        NistPgm { n_pairs: 10 }
    }
}

/// Union-find for Kruskal's maximum spanning forest.
struct Dsu(Vec<usize>);

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu((0..n).collect())
    }
    fn find(&mut self, x: usize) -> usize {
        if self.0[x] != x {
            let r = self.find(self.0[x]);
            self.0[x] = r;
        }
        self.0[x]
    }
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.0[ra] = rb;
        true
    }
}

impl Synthesizer for NistPgm {
    fn name(&self) -> &'static str {
        "NIST"
    }

    fn synthesize(
        &self,
        schema: &Schema,
        instance: &Instance,
        budget: Budget,
        n_out: usize,
        seed: u64,
    ) -> Instance {
        // kamino-lint: allow(raw_rng) -- baseline stream derived from the caller-provided session seed; privacy accounted by the planner
        let mut rng = StdRng::seed_from_u64(seed ^ 0x215);
        let disc = Discretized::from_instance(schema, instance);
        let k = schema.len();

        // random measured pairs (data-independent)
        let mut all_pairs: Vec<(usize, usize)> = (0..k)
            .flat_map(|a| ((a + 1)..k).map(move |b| (a, b)))
            .collect();
        all_pairs.shuffle(&mut rng);
        let measured: Vec<(usize, usize)> = all_pairs
            .into_iter()
            .take(self.n_pairs.min(k * (k - 1) / 2))
            .collect();

        // calibrate one σ for all (k + |pairs|) Gaussian releases
        let releases = (k + measured.len()) as u64;
        let sigma = if budget.is_non_private() {
            0.0
        } else {
            calibrate_sgm_sigma(budget.epsilon, budget.delta, 1.0, releases)
        };

        // noisy 1-way marginals
        let oneway: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                let mut c = disc.marginal(j);
                release_histogram(&mut c, sigma, &mut rng);
                normalize(&c)
            })
            .collect();
        // noisy 2-way marginals (kept as nonnegative joint mass)
        let mut twoway: HashMap<(usize, usize), Vec<f64>> = HashMap::new();
        for &(a, b) in &measured {
            let mut c = disc.joint2(a, b);
            release_histogram(&mut c, sigma, &mut rng);
            for x in &mut c {
                *x = x.max(0.0);
            }
            twoway.insert((a, b), c);
        }

        // maximum spanning forest over measured pairs, weighted by noisy MI
        let mut edges: Vec<(f64, usize, usize)> = measured
            .iter()
            .map(|&(a, b)| (mutual_information(&twoway[&(a, b)], disc.cards[b]), a, b))
            .collect();
        edges.sort_by(|x, y| y.0.total_cmp(&x.0));
        let mut dsu = Dsu::new(k);
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (_, a, b) in edges {
            if dsu.union(a, b) {
                adj[a].push(b);
                adj[b].push(a);
            }
        }

        // tree-ordered conditional sampling
        let mut out = Instance::zeroed(schema, n_out);
        let mut codes = vec![0u32; k];
        for i in 0..n_out {
            let mut visited = vec![false; k];
            for root in 0..k {
                if visited[root] {
                    continue;
                }
                // sample the component root from its 1-way marginal
                codes[root] = sample_weighted(&oneway[root], &mut rng) as u32;
                visited[root] = true;
                let mut stack = vec![root];
                while let Some(u) = stack.pop() {
                    for &v in &adj[u] {
                        if visited[v] {
                            continue;
                        }
                        visited[v] = true;
                        codes[v] = sample_conditional(
                            &twoway, &disc, u, codes[u], v, &oneway[v], &mut rng,
                        );
                        stack.push(v);
                    }
                }
            }
            for (j, &code) in codes.iter().enumerate() {
                out.set(i, j, disc.decode(j, code, &mut rng));
            }
        }
        out
    }
}

/// Samples `child` conditioned on `parent = pcode` from the measured joint,
/// falling back to the child's 1-way marginal when the slice has no mass.
fn sample_conditional(
    twoway: &HashMap<(usize, usize), Vec<f64>>,
    disc: &Discretized,
    parent: usize,
    pcode: u32,
    child: usize,
    child_oneway: &[f64],
    rng: &mut StdRng,
) -> u32 {
    let (joint, stride_child, slice): (&Vec<f64>, bool, Vec<f64>) =
        if let Some(j) = twoway.get(&(parent, child)) {
            // layout card(parent) × card(child): row = parent code
            let cb = disc.cards[child];
            let row = j[pcode as usize * cb..(pcode as usize + 1) * cb].to_vec();
            (j, true, row)
        } else if let Some(j) = twoway.get(&(child, parent)) {
            // layout card(child) × card(parent): column = parent code
            let cb = disc.cards[parent];
            let col: Vec<f64> = (0..disc.cards[child])
                .map(|x| j[x * cb + pcode as usize])
                .collect();
            (j, false, col)
        } else {
            unreachable!("tree edges are always measured pairs")
        };
    let _ = (joint, stride_child);
    if slice.iter().sum::<f64>() > 0.0 {
        sample_weighted(&slice, rng) as u32
    } else {
        sample_weighted(child_oneway, rng) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamino_data::{Attribute, Value};
    use kamino_datasets::adult_like;

    #[test]
    fn preserves_measured_pair_when_tree_includes_it() {
        // two perfectly-correlated attributes; with all pairs measured the
        // spanning tree must include the single edge
        let s = Schema::new(vec![
            Attribute::categorical_indexed("a", 3).unwrap(),
            Attribute::categorical_indexed("b", 3).unwrap(),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..400)
            .map(|i| vec![Value::Cat((i % 3) as u32), Value::Cat((i % 3) as u32)])
            .collect();
        let inst = Instance::from_rows(&s, &rows).unwrap();
        let out = NistPgm { n_pairs: 1 }.synthesize(&s, &inst, Budget::non_private(), 400, 1);
        let agree = (0..out.n_rows())
            .filter(|&i| out.cat(i, 0) == out.cat(i, 1))
            .count();
        assert!(
            agree as f64 / 400.0 > 0.95,
            "tree edge not exploited: {agree}/400"
        );
    }

    #[test]
    fn unmeasured_dependencies_are_lost() {
        // same data, but zero pairs measured: correlation must vanish
        let s = Schema::new(vec![
            Attribute::categorical_indexed("a", 3).unwrap(),
            Attribute::categorical_indexed("b", 3).unwrap(),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..600)
            .map(|i| vec![Value::Cat((i % 3) as u32), Value::Cat((i % 3) as u32)])
            .collect();
        let inst = Instance::from_rows(&s, &rows).unwrap();
        let out = NistPgm { n_pairs: 0 }.synthesize(&s, &inst, Budget::non_private(), 600, 2);
        let agree = (0..out.n_rows())
            .filter(|&i| out.cat(i, 0) == out.cat(i, 1))
            .count();
        let rate = agree as f64 / 600.0;
        assert!(rate < 0.6, "independent sampling should agree ~1/3: {rate}");
    }

    #[test]
    fn runs_on_adult_privately() {
        let d = adult_like(300, 3);
        let out =
            NistPgm::default().synthesize(&d.schema, &d.instance, Budget::new(1.0, 1e-6), 300, 4);
        assert_eq!(out.n_rows(), 300);
        for i in 0..out.n_rows() {
            for j in 0..d.schema.len() {
                assert!(d.schema.attr(j).validate(out.value(i, j)).is_ok());
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = adult_like(200, 5);
        let m = NistPgm::default();
        let a = m.synthesize(&d.schema, &d.instance, Budget::new(1.0, 1e-6), 100, 6);
        let b = m.synthesize(&d.schema, &d.instance, Budget::new(1.0, 1e-6), 100, 6);
        assert_eq!(a, b);
    }

    #[test]
    fn dsu_union_find() {
        let mut d = Dsu::new(4);
        assert!(d.union(0, 1));
        assert!(!d.union(1, 0));
        assert!(d.union(2, 3));
        assert!(d.union(0, 3));
        assert_eq!(d.find(1), d.find(2));
    }
}
