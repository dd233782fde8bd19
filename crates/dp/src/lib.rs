//! Differential-privacy substrate for the Kamino reproduction.
//!
//! Provides everything §2.4 and §6 of the paper rely on:
//! * [`normal`] — hand-rolled standard-normal samplers (the allowed crate
//!   set does not include `rand_distr`): scalar Box–Muller for one-off
//!   draws, and Marsaglia & Tsang's 256-layer ziggurat, one variate per
//!   component, for every vector release,
//! * [`mechanisms`] — the one vector Gaussian mechanism,
//!   [`add_gaussian_noise`], through which DP-SGD, the M1 histograms, the
//!   M3 weights and the Gaussian baselines all release (its σ comes from
//!   the [`planner`] or [`rdp`] calibration); [`release_histogram`], the
//!   one histogram release at [`HISTOGRAM_SENSITIVITY`]; and the Laplace
//!   mechanism (used by the PrivBayes baseline),
//! * [`rdp`] — a Rényi-DP accountant implementing the Sampled Gaussian
//!   Mechanism bound of Mironov et al. (2019), RDP composition, and the
//!   RDP→(ε, δ) conversion of the paper's Eqn. (7),
//! * [`sensitivity`] — L2 sensitivities: a histogram's under the
//!   replace-one relation, and Lemma 1's violation matrix bound,
//! * [`sampling`] — Poisson subsampling shared by DP-SGD and Algorithm 5,
//!   drawn by geometric gaps between kept rows at a rate `q′` a hair
//!   below the charged rate, so no row is kept more often than the
//!   accountant assumes,
//! * [`planner`] — the [`BudgetPlanner`]: solves per-mechanism σ's for
//!   Theorem 1's three-way composition (M1 histogram, M2 DP-SGD, M3
//!   weights) under one (ε, δ) budget, replacing hand-tuned constants.
//!
//! Both samplers compute in floating point, so, like every textbook
//! sampler, they only approximate the ideal mechanisms the accountant
//! charges: see Mironov (CCS 2012) on floating-point Laplace noise and
//! Jin et al. (S&P 2022) on floating-point Gaussian samplers.
//!
//! Note on the paper's Lemma 2: as printed, the binomial sum carries
//! `exp((α²−α)/2σ²)` independent of the summation index, which collapses to
//! the unsampled Gaussian cost and ignores privacy amplification — a typo.
//! We implement the standard bound with `exp(k(k−1)/2σ²)` inside the sum.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod mechanisms;
pub mod normal;
pub mod planner;
pub mod rdp;
pub mod sampling;
pub mod sensitivity;
pub mod snapshot;
#[cfg(test)]
pub(crate) mod testkit;

pub use mechanisms::{add_gaussian_noise, add_laplace_noise, release_histogram};
pub use normal::standard_normal;
pub use planner::{
    composed_epsilon, mechanism, spend_fingerprint, BudgetPlan, BudgetPlanner, CalibratedPlan,
    RunShape,
};
pub use rdp::{
    calibrate_sgm_sigma, conversion_floor, gaussian_rdp, sgm_rdp, sgm_rdp_evaluations,
    try_calibrate_sgm_sigma, CalibrationError, RdpAccountant,
};
pub use sampling::poisson_sample;
pub use sensitivity::{violation_matrix_sensitivity, HISTOGRAM_SENSITIVITY};

/// An (ε, δ) differential-privacy budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// The ε parameter (multiplicative bound).
    pub epsilon: f64,
    /// The δ parameter (additive slack).
    pub delta: f64,
}

impl Budget {
    /// Creates a budget, panicking on non-positive ε or δ outside (0, 1).
    pub fn new(epsilon: f64, delta: f64) -> Budget {
        assert!(epsilon > 0.0, "epsilon must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        Budget { epsilon, delta }
    }

    /// An effectively unbounded budget, used for the paper's ε = ∞
    /// (non-private) runs in Figure 6.
    pub fn non_private() -> Budget {
        Budget {
            epsilon: f64::INFINITY,
            delta: 1e-6,
        }
    }

    /// Whether this budget disables privacy noise (ε = ∞).
    pub fn is_non_private(&self) -> bool {
        self.epsilon.is_infinite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_validation() {
        let b = Budget::new(1.0, 1e-6);
        assert_eq!(b.epsilon, 1.0);
        assert!(!b.is_non_private());
        assert!(Budget::non_private().is_non_private());
    }

    #[test]
    fn infinite_budget_is_allowed() {
        let b = Budget::new(f64::INFINITY, 1e-6);
        assert!(b.is_non_private());
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_zero_epsilon() {
        Budget::new(0.0, 1e-6);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn rejects_bad_delta() {
        Budget::new(1.0, 1.5);
    }
}
