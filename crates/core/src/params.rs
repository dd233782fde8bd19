//! Privacy-parameter search (Algorithm 6).
//!
//! Given the end-to-end budget (ε, δ) and the model shape, pick
//! `Ψ = {σ_g, σ_d, σ_w, b, T, …}` so the composed RDP cost converts to at
//! most ε at δ (Eqn. 7). The σ's are no longer hand-tuned constants
//! escalated by a back-off loop: for each candidate iteration count `T`
//! the [`BudgetPlanner`] *solves* the per-mechanism σ's of Theorem 1
//! directly, and the search only walks `T` down from its quality-greedy
//! maximum until the planned DP-SGD noise is below the paper's `σ_d` cap
//! (or `T` bottoms out — privacy always wins over accuracy, so the final
//! plan is accepted whatever its σ's).
//!
//! Deviations (documented in DESIGN.md):
//! * `σ_w` is calibrated so the single violation-matrix release consumes a
//!   fixed fraction (10%) of ε under the corrected SGM accounting. The
//!   paper's `ε_w = 100` with the classic calibration formula yields
//!   `σ_w ≈ 0.05`, whose RDP cost alone exceeds any practical ε (the
//!   classic formula is only valid for ε < 1 in the first place).

use kamino_dp::{sgm_rdp_evaluations, Budget, BudgetPlanner, RunShape};

/// The searched parameter set Ψ.
#[derive(Debug, Clone)]
pub struct PrivacyParams {
    /// True when ε = ∞: all noise disabled.
    pub non_private: bool,
    /// Histogram-release noise multiplier `σ_g`.
    pub sigma_g: f64,
    /// DP-SGD noise multiplier `σ_d`.
    pub sigma_d: f64,
    /// Expected batch size `b`.
    pub b: usize,
    /// DP-SGD iterations `T` per sub-model.
    pub t: usize,
    /// Per-example clip `C`.
    pub clip: f64,
    /// Whether Algorithm 5 runs (weights unknown).
    pub learn_weights: bool,
    /// Violation-matrix noise multiplier `σ_w`.
    pub sigma_w: f64,
    /// Weight-learning sample cap `L_w`.
    pub l_w: usize,
    /// Weight-learning batch `b_w`.
    pub b_w: usize,
    /// Weight-learning iterations `T_w`.
    pub t_w: usize,
    /// The ε actually achieved at the requested δ (≤ the budget).
    pub achieved_epsilon: f64,
}

/// Model-shape inputs to the search (computed from schema + sequence).
#[derive(Debug, Clone, Copy)]
pub struct SearchShape {
    /// Number of tuples `n`.
    pub n: usize,
    /// DP-SGD-trained sub-models (`k−1` minus large-domain fallbacks).
    pub n_sgd_models: usize,
    /// Full-rate Gaussian histogram releases (first attribute + fallbacks).
    pub n_marginal_releases: usize,
    /// Domain size of the first sequence attribute (`|D(S[1])|`).
    pub first_attr_domain: usize,
    /// Whether soft-DC weights must be learned.
    pub weights_unknown: bool,
    /// Harness scale factor multiplying the `T` range (quality knob only —
    /// fewer iterations always costs *less* privacy).
    pub train_scale: f64,
}

/// The paper's cap on DP-SGD noise: above this, gradient signal drowns and
/// it is better to trade iterations away instead.
const SIGMA_D_CAP: f64 = 1.5;

/// Weight-learning sample cap `L_w` (Algorithm 5's default).
const L_W: usize = 100;

/// Algorithm 6: search a Ψ fitting `budget` for the given model shape.
///
/// The σ's come from the [`BudgetPlanner`] (which solves Theorem 1's
/// composition exactly); the search itself only picks `T`, preferring the
/// quality-greedy maximum and backing off while the planned `σ_d` exceeds
/// the paper's cap.
pub fn search_params(budget: Budget, shape: SearchShape) -> PrivacyParams {
    search_params_with_obs(budget, shape, &kamino_obs::ObsHandle::disabled())
}

/// [`search_params`], recording the accepted plan's σ calibrations and
/// composed ε/δ spend on `obs`' budget ledger. Back-off iterations the
/// search discards are not recorded — the ledger reflects what the run
/// actually spends — and the accepted plan is recorded as the walk made
/// it, not planned again. The planner's work over the whole T-walk,
/// rejected plans included, is added to the
/// `kamino_dp_planner_rdp_evals_total` counter: one per `(order, σ)`
/// evaluation of the SGM's RDP. The returned Ψ is byte-identical to
/// [`search_params`].
pub fn search_params_with_obs(
    budget: Budget,
    shape: SearchShape,
    obs: &kamino_obs::ObsHandle,
) -> PrivacyParams {
    let scale = shape.train_scale.max(1e-6);
    let b = 32usize;
    let b_min = 16usize;
    let t_max = (((5 * shape.n) as f64 / b_min as f64) * scale)
        .ceil()
        .max(1.0) as usize;
    let t_min = ((shape.n as f64 / b_min as f64) * scale).ceil().max(1.0) as usize;

    if budget.is_non_private() {
        return PrivacyParams {
            non_private: true,
            sigma_g: 0.0,
            sigma_d: 0.0,
            b,
            t: t_max,
            clip: 1.0,
            learn_weights: shape.weights_unknown,
            sigma_w: 0.0,
            l_w: L_W,
            b_w: 1,
            t_w: 100,
            achieved_epsilon: f64::INFINITY,
        };
    }

    let planner = BudgetPlanner::new(budget);
    let run_shape = |t: usize| RunShape {
        n: shape.n,
        histogram_releases: shape.n_marginal_releases as u64,
        sgd_steps: (t * shape.n_sgd_models) as u64,
        batch: b,
        weight_sample: if shape.weights_unknown { L_W } else { 0 },
    };

    let evals_before = sgm_rdp_evaluations();
    let mut t = t_max;
    let mut planned = planner.calibrated(&run_shape(t));
    while planned.plan.sigma_d > SIGMA_D_CAP && t > t_min {
        t = ((t as f64 * 0.7) as usize).max(t_min);
        planned = planner.calibrated(&run_shape(t));
    }
    obs.counter("kamino_dp_planner_rdp_evals_total", &[])
        .add(sgm_rdp_evaluations() - evals_before);
    let plan = planner.record(planned, obs);

    PrivacyParams {
        non_private: false,
        sigma_g: plan.sigma_g,
        sigma_d: plan.sigma_d,
        b,
        t,
        clip: 1.0,
        learn_weights: shape.weights_unknown,
        sigma_w: plan.sigma_w,
        l_w: L_W,
        b_w: 1,
        t_w: L_W,
        achieved_epsilon: plan.achieved_epsilon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamino_dp::RdpAccountant;

    fn shape(n: usize) -> SearchShape {
        SearchShape {
            n,
            n_sgd_models: 14,
            n_marginal_releases: 1,
            first_attr_domain: 16,
            weights_unknown: false,
            train_scale: 1.0,
        }
    }

    #[test]
    fn fits_budget_across_epsilons() {
        for &eps in &[0.1, 0.2, 0.4, 0.8, 1.6] {
            let budget = Budget::new(eps, 1e-6);
            let p = search_params(budget, shape(32_561));
            assert!(!p.non_private);
            assert!(
                p.achieved_epsilon <= eps,
                "eps {eps}: achieved {} exceeds budget",
                p.achieved_epsilon
            );
            assert!(p.achieved_epsilon > 0.0);
        }
    }

    #[test]
    fn tighter_budget_means_more_noise_or_fewer_steps() {
        let loose = search_params(Budget::new(1.6, 1e-6), shape(32_561));
        let tight = search_params(Budget::new(0.1, 1e-6), shape(32_561));
        let loose_work = loose.t as f64 / (loose.sigma_d * loose.sigma_g);
        let tight_work = tight.t as f64 / (tight.sigma_d * tight.sigma_g);
        assert!(
            tight_work < loose_work,
            "tight budget should trade steps/noise: {tight_work} vs {loose_work}"
        );
    }

    #[test]
    fn non_private_budget_disables_noise() {
        let p = search_params(Budget::non_private(), shape(1_000));
        assert!(p.non_private);
        assert_eq!(p.sigma_d, 0.0);
        assert_eq!(p.sigma_g, 0.0);
        assert!(p.achieved_epsilon.is_infinite());
    }

    #[test]
    fn weight_learning_share_is_accounted() {
        let mut sh = shape(30_000);
        sh.weights_unknown = true;
        let budget = Budget::new(1.0, 1e-6);
        let p = search_params(budget, sh);
        assert!(p.learn_weights);
        assert!(p.sigma_w > 0.0);
        assert!(p.achieved_epsilon <= 1.0);
        // the σ_w release alone fits the 10% share
        let mut acc = RdpAccountant::new();
        acc.add_sgm(p.sigma_w, 100.0 / 30_000.0, 1);
        assert!(acc.epsilon(1e-6) <= 0.1 + 1e-6);
    }

    #[test]
    fn train_scale_shrinks_iterations() {
        let full = search_params(Budget::new(1.0, 1e-6), shape(32_561));
        let mut sh = shape(32_561);
        sh.train_scale = 0.05;
        let scaled = search_params(Budget::new(1.0, 1e-6), sh);
        assert!(scaled.t < full.t);
        assert!(scaled.achieved_epsilon <= 1.0);
    }

    #[test]
    fn terminates_on_tiny_budget() {
        let p = search_params(Budget::new(0.05, 1e-9), shape(2_000));
        assert!(p.achieved_epsilon <= 0.05);
    }

    /// `search_params` is pinned bit for bit on the three perfbench shapes
    /// (TPC-H, Tax at `train_scale` 0.2, BR2000 with weights), each at
    /// ε ∈ {0.4, 1, 4}, δ = 1e-6: the accepted T, then σ_g, σ_d, σ_w and
    /// the achieved ε as `f64::to_bits` in hex.
    #[test]
    fn search_is_pinned_bit_for_bit() {
        // T, then σ_g, σ_d, σ_w and the achieved ε
        const PINS: &[&str] = &[
            // tpch: ε = 0.4, 1, 4
            "313 40582875cd6aa285 4010b1c8a768d201 0000000000000000 3fd999999999995b",
            "313 404483881d860bdd 3ffd315dd6c7b6ba 0000000000000000 3fefffffffffff8f",
            "1563 4024c8470e6a9cda 3ff30410b773701e 0000000000000000 400ffffffffffd22",
            // tax: ε = 0.4, 1, 4
            "25 405846481e2acc86 400d2d045744f694 0000000000000000 3fd9999999999992",
            "25 40455821750146c3 3ffbb0c8e9db6c26 0000000000000000 3feffffffffffff0",
            "125 40254c944ccabf03 3ff1d2eb51d99085 0000000000000000 400fffffffffffa9",
            // br2000: ε = 0.4, 1, 4
            "313 405109fee8b7c4cd 40167dcd0e49e809 40202e4fdf11d5e3 3fd999999999998e",
            "313 403c9c226d449f86 4002f5e0d2e6f5f8 4016c2e518404b23 3fefffffffffff5d",
            "1563 401cb78c737d0d66 3ff7d2bc7c834fad 4001d15601b72ab6 400ffffffffffe2c",
        ];
        let mut got = Vec::new();
        // (name, n, SGD models, histogram releases, weights unknown, train_scale)
        for (name, n, models, releases, weights_unknown, train_scale) in [
            ("tpch", 5_000, 7, 2, false, 1.0),
            ("tax", 2_000, 10, 2, false, 0.2),
            ("br2000", 5_000, 13, 1, true, 1.0),
        ] {
            for eps in [0.4, 1.0, 4.0] {
                let shape = SearchShape {
                    n,
                    n_sgd_models: models,
                    n_marginal_releases: releases,
                    first_attr_domain: 16,
                    weights_unknown,
                    train_scale,
                };
                let p = search_params(Budget::new(eps, 1e-6), shape);
                let bits = [p.sigma_g, p.sigma_d, p.sigma_w, p.achieved_epsilon]
                    .map(|v| format!("{:016x}", v.to_bits()));
                got.push((
                    format!("{name} eps={eps}"),
                    format!("{} {}", p.t, bits.join(" ")),
                ));
            }
        }
        let table: String = got
            .iter()
            .map(|(name, pin)| format!("\"{pin}\", // {name}\n"))
            .collect();
        assert_eq!(got.len(), PINS.len(), "today's table:\n{table}");
        for ((name, pin), want) in got.iter().zip(PINS) {
            assert_eq!(pin, want, "{name}: search moved; today's table:\n{table}");
        }
    }

    /// A traced search records the accepted plan as the walk made it:
    /// it evaluates the SGM's RDP exactly as often as the silent search
    /// (re-planning the accepted T for the ledger would double the work of
    /// a one-plan walk), reports that count, returns the same Ψ, and
    /// records the ledger the accepted plan records on its own.
    #[test]
    fn a_traced_search_plans_each_walked_t_once() {
        // TPC-H's shape: ε = 1 walks T down twice, ε = 4 accepts T_max
        for eps in [1.0, 4.0] {
            let budget = Budget::new(eps, 1e-6);
            let shape = SearchShape {
                n: 5_000,
                n_sgd_models: 7,
                n_marginal_releases: 2,
                first_attr_domain: 16,
                weights_unknown: false,
                train_scale: 1.0,
            };
            let before = sgm_rdp_evaluations();
            let silent = search_params(budget, shape);
            let silent_evals = sgm_rdp_evaluations() - before;
            let obs = kamino_obs::ObsHandle::enabled();
            let before = sgm_rdp_evaluations();
            let traced = search_params_with_obs(budget, shape, &obs);
            let traced_evals = sgm_rdp_evaluations() - before;
            assert_eq!(
                traced_evals, silent_evals,
                "eps {eps}: the traced search re-planned"
            );
            let counted = obs.counter("kamino_dp_planner_rdp_evals_total", &[]).get();
            assert_eq!(counted, silent_evals, "eps {eps}");
            let bits = |p: &PrivacyParams| {
                [p.sigma_g, p.sigma_d, p.sigma_w, p.achieved_epsilon].map(f64::to_bits)
            };
            assert_eq!((traced.t, bits(&traced)), (silent.t, bits(&silent)));

            let reference = kamino_obs::ObsHandle::enabled();
            let planner = BudgetPlanner::new(budget);
            planner.record(
                planner.calibrated(&RunShape {
                    n: shape.n,
                    histogram_releases: 2,
                    sgd_steps: (traced.t * 7) as u64,
                    batch: traced.b,
                    weight_sample: 0,
                }),
                &reference,
            );
            let events = |o: &kamino_obs::ObsHandle| -> Vec<_> {
                o.events().into_iter().map(|r| r.event).collect()
            };
            assert_eq!(events(&obs), events(&reference), "eps {eps}");
            let ledger = |o: &kamino_obs::ObsHandle| -> Vec<String> {
                o.render_prometheus()
                    .lines()
                    .filter(|l| l.starts_with("kamino_dp_") && !l.contains("rdp_evals"))
                    .map(str::to_owned)
                    .collect()
            };
            assert_eq!(ledger(&obs), ledger(&reference), "eps {eps}");
            assert!(!ledger(&obs).is_empty());
        }
    }

    #[test]
    fn more_submodels_cost_more() {
        let small = search_params(Budget::new(1.0, 1e-6), shape(32_561));
        let mut sh = shape(32_561);
        sh.n_sgd_models = 50;
        let big = search_params(Budget::new(1.0, 1e-6), sh);
        // same budget, more models ⇒ the search must back off harder
        let small_work = small.t as f64 / small.sigma_d;
        let big_work = big.t as f64 / big.sigma_d;
        assert!(big_work <= small_work);
    }
}
