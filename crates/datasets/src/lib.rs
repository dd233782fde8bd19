//! Seeded synthetic generators for the paper's four evaluation datasets.
//!
//! The originals (UCI Adult, BR2000, the Tax benchmark, a TPC-H join) are
//! not redistributable inside this repository, so each generator plants the
//! *structure the experiments measure*: the schema shape and mixed data
//! types of Table 1, the exact denial constraints of Table 1 (hard DCs hold
//! exactly; soft DCs hold with small truth violation rates like the paper's
//! Table 2 "Truth" column), and strong attribute correlations for the
//! classification/marginal tasks. See DESIGN.md §3 for the substitution
//! rationale.
//!
//! All generators are deterministic given `(n, seed)`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adult;
pub mod br2000;
pub mod tax;
pub mod tpch;

use kamino_constraints::DenialConstraint;
use kamino_data::{Instance, Schema};

pub use adult::adult_like;
pub use br2000::br2000_like;
pub use tax::{tax_like, tax_like_scaled};
pub use tpch::tpch_like;

/// A generated dataset: schema + instance + the DC set of Table 1.
pub struct Dataset {
    /// Dataset name (`adult`, `br2000`, `tax`, `tpch`).
    pub name: String,
    /// Relation schema.
    pub schema: Schema,
    /// The "true" database instance `D*`.
    pub instance: Instance,
    /// The denial constraints Φ with their hardness.
    pub dcs: Vec<DenialConstraint>,
}

/// The four corpora of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// Census-like data with an education FD and a capital order DC.
    Adult,
    /// Small-domain survey data with three *soft* DCs.
    Br2000,
    /// Tax records with chained large-domain FDs and an order DC.
    Tax,
    /// A TPC-H Orders⋈Customer⋈Nation join with key-induced FDs.
    TpcH,
}

impl Corpus {
    /// Generates the corpus at `n` rows with the given seed.
    pub fn generate(self, n: usize, seed: u64) -> Dataset {
        match self {
            Corpus::Adult => adult_like(n, seed),
            Corpus::Br2000 => br2000_like(n, seed),
            Corpus::Tax => tax_like(n, seed),
            Corpus::TpcH => tpch_like(n, seed),
        }
    }

    /// The paper-scale row count from Table 1.
    pub fn paper_n(self) -> usize {
        match self {
            Corpus::Adult => 32_561,
            Corpus::Br2000 => 38_000,
            Corpus::Tax => 30_000,
            Corpus::TpcH => 20_000,
        }
    }

    /// All four corpora in the paper's presentation order.
    pub fn all() -> [Corpus; 4] {
        [Corpus::Adult, Corpus::Br2000, Corpus::Tax, Corpus::TpcH]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Corpus::Adult => "Adult",
            Corpus::Br2000 => "BR2000",
            Corpus::Tax => "Tax",
            Corpus::TpcH => "TPC-H",
        }
    }

    /// The lowercase identifier the generator writes into
    /// [`Dataset::name`] — the key machine-readable output (cache files,
    /// result cells) is indexed by. [`Corpus::generate`] is tested to
    /// agree with this.
    pub fn id(self) -> &'static str {
        match self {
            Corpus::Adult => "adult",
            Corpus::Br2000 => "br2000",
            Corpus::Tax => "tax",
            Corpus::TpcH => "tpch",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_metadata() {
        assert_eq!(Corpus::Adult.paper_n(), 32_561);
        assert_eq!(Corpus::all().len(), 4);
        assert_eq!(Corpus::Tax.name(), "Tax");
    }

    #[test]
    fn generate_dispatches() {
        for c in Corpus::all() {
            let d = c.generate(50, 1);
            assert_eq!(d.instance.n_rows(), 50);
            assert!(!d.dcs.is_empty());
            assert_eq!(d.name, c.id(), "generator name must match Corpus::id");
        }
    }
}
