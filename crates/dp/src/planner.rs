//! Unified privacy-budget planning for Theorem 1's composition.
//!
//! Kamino's end-to-end guarantee composes three mechanisms under one
//! (ε, δ) budget: `M1` — full-rate Gaussian histogram releases for the
//! first sequence attribute and the §4.3 large-domain fallbacks; `M2` —
//! `T·(k−1)` DP-SGD steps, each a Sampled Gaussian Mechanism at rate
//! `b/n`; `M3` — one SGM release of the violation matrix at rate `L_w/n`.
//! Historically each mechanism's σ was a hand-tuned constant escalated by
//! Algorithm 6's back-off loop; [`BudgetPlanner`] instead *solves* for the
//! per-mechanism σ's:
//!
//! 1. `σ_w` is calibrated to a fixed share (default 10%) of ε — the single
//!    violation-matrix release is cheap and its quality is insensitive to
//!    small share changes, so it is planned first and held fixed;
//! 2. `σ_g` and `σ_d` are seeded by per-mechanism calibration at nominal
//!    shares of ε (these only set their *ratio*), then a single global
//!    scale `s` on `(σ_g, σ_d)` is bisected so the **composed** RDP cost —
//!    all three mechanisms on one [`RdpAccountant`] — converts to the
//!    largest ε' ≤ ε the grid admits.
//!
//! Step 2 is what makes the plan tight: per-mechanism calibration triple-
//! counts the `ln(1/δ)/(α−1)` conversion overhead, so summing three
//! individually-fitted ε shares would leave budget on the table. The
//! bisection recovers it. The composed ε can never go below the grid's
//! [`conversion_floor`]; budgets at or under the floor (plus the fixed
//! `σ_w` cost) are rejected loudly.

use kamino_obs::events::Event;
use kamino_obs::ObsHandle;

use crate::rdp::{conversion_floor, try_calibrate_sgm_sigma, RdpAccountant};
use crate::Budget;

/// Mechanism ids used across the budget-ledger event stream and the
/// `kamino_dp_*` metric labels.
pub mod mechanism {
    /// `M1`: full-rate Gaussian histogram releases.
    pub const M1: &str = "m1_histogram";
    /// `M2`: DP-SGD (Sampled Gaussian Mechanism per step).
    pub const M2: &str = "m2_dpsgd";
    /// `M3`: the single violation-matrix release.
    pub const M3: &str = "m3_weights";
    /// The composed three-way total.
    pub const COMPOSED: &str = "composed";
}

/// The shape of one end-to-end run — everything the accountant needs to
/// know about Theorem 1's composition besides the σ's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunShape {
    /// Number of tuples `n` in the true instance.
    pub n: usize,
    /// Full-rate Gaussian histogram releases (first attribute + §4.3
    /// large-domain fallbacks) — the `M1` count.
    pub histogram_releases: u64,
    /// Total DP-SGD steps across all sub-models (`T·(k−1)` less fallbacks)
    /// — the `M2` count.
    pub sgd_steps: u64,
    /// Expected DP-SGD batch size `b` (`M2` samples at rate `b/n`).
    pub batch: usize,
    /// Weight-learning sample cap `L_w`; 0 when all DCs are hard and `M3`
    /// never runs.
    pub weight_sample: usize,
}

impl RunShape {
    /// `M2`'s sampling rate `b/n`, clamped to [0, 1].
    pub fn sgd_rate(&self) -> f64 {
        (self.batch as f64 / self.n.max(1) as f64).min(1.0)
    }

    /// `M3`'s sampling rate `L_w/n`, clamped to [0, 1].
    pub fn weight_rate(&self) -> f64 {
        (self.weight_sample as f64 / self.n.max(1) as f64).min(1.0)
    }
}

/// The planner's output: per-mechanism noise multipliers whose composed
/// RDP cost fits the requested budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetPlan {
    /// Histogram-release noise multiplier (`M1`).
    pub sigma_g: f64,
    /// DP-SGD noise multiplier (`M2`).
    pub sigma_d: f64,
    /// Violation-matrix noise multiplier (`M3`; 0 when `M3` never runs).
    pub sigma_w: f64,
    /// The ε the composed plan actually converts to at the budget's δ —
    /// always ≤ the requested ε (∞ for non-private plans).
    pub achieved_epsilon: f64,
}

impl BudgetPlan {
    /// Stable fingerprint of the executed spend:
    /// [`spend_fingerprint`] over this plan's σ's and achieved ε.
    /// Serving's durable ledger stores it in each `FitCommit` so a
    /// replayed ledger can be cross-checked against the model's
    /// persisted parameters.
    pub fn fingerprint(&self) -> u64 {
        spend_fingerprint(
            self.sigma_g,
            self.sigma_d,
            self.sigma_w,
            self.achieved_epsilon,
        )
    }
}

/// FNV-1a over the exact bit patterns of a plan's noise multipliers and
/// achieved ε. Two spends fingerprint equal iff every σ and the
/// composed ε are bit-identical — the same equality the determinism
/// contract holds snapshots to, so a fingerprint recorded at commit
/// time keeps matching the plan reconstructed from a reloaded model.
pub fn spend_fingerprint(sigma_g: f64, sigma_d: f64, sigma_w: f64, epsilon: f64) -> u64 {
    let bytes: Vec<u8> = [sigma_g, sigma_d, sigma_w, epsilon]
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    kamino_data::wire::fnv1a64(&bytes)
}

/// Replays a plan against a fresh accountant: the composed (ε, δ)
/// conversion of `M1 + M2 + M3` under `plan`'s σ's. This is the round-trip
/// the planner's guarantee is stated in — tests and the `Synthesizer`
/// session assert `composed_epsilon(..) ≤ ε` through it.
pub fn composed_epsilon(shape: &RunShape, plan: &BudgetPlan, delta: f64) -> f64 {
    let mut acc = RdpAccountant::new();
    if shape.histogram_releases > 0 && plan.sigma_g > 0.0 {
        acc.add_gaussian(plan.sigma_g, shape.histogram_releases);
    }
    if shape.sgd_steps > 0 && plan.sigma_d > 0.0 {
        acc.add_sgm(plan.sigma_d, shape.sgd_rate(), shape.sgd_steps);
    }
    if shape.weight_sample > 0 && plan.sigma_w > 0.0 {
        acc.add_sgm(plan.sigma_w, shape.weight_rate(), 1);
    }
    acc.epsilon(delta)
}

/// Solves per-mechanism σ's for Theorem 1's three-way composition under
/// one (ε, δ) budget. See the module docs for the algorithm.
///
/// ```
/// use kamino_dp::{Budget, BudgetPlanner, RunShape, composed_epsilon};
///
/// let shape = RunShape {
///     n: 32_561,
///     histogram_releases: 1,
///     sgd_steps: 20_000,
///     batch: 32,
///     weight_sample: 100,
/// };
/// let planner = BudgetPlanner::new(Budget::new(1.0, 1e-6));
/// let plan = planner.plan(&shape);
/// let eps = composed_epsilon(&shape, &plan, 1e-6);
/// assert!(eps <= 1.0 && eps > 0.9, "plan not tight: {eps}");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BudgetPlanner {
    budget: Budget,
    /// Fixed ε share of the single `M3` release (when it runs).
    weight_share: f64,
    /// Nominal ε share seeding `σ_g`'s ratio against `σ_d`.
    histogram_share: f64,
}

impl BudgetPlanner {
    /// A planner with the default shares: 10% of ε to `M3` when weights
    /// are learned, 15% seeding `M1` against `M2` (the shares only fix
    /// ratios — the bisection makes the composed plan tight regardless).
    pub fn new(budget: Budget) -> BudgetPlanner {
        BudgetPlanner {
            budget,
            weight_share: 0.10,
            histogram_share: 0.15,
        }
    }

    /// Overrides the fixed `M3` share.
    pub fn with_weight_share(mut self, share: f64) -> BudgetPlanner {
        assert!((0.0..1.0).contains(&share), "share must be in [0, 1)");
        self.weight_share = share;
        self
    }

    /// The budget this planner fits.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Plans σ's for `shape`. Panics when the budget is infeasible — ε at
    /// or below the grid's conversion floor (plus the fixed `M3` cost) —
    /// since silently returning a non-fitting plan would fake a guarantee.
    pub fn plan(&self, shape: &RunShape) -> BudgetPlan {
        self.plan_with_obs(shape, &ObsHandle::disabled())
    }

    /// [`Self::plan`], with every σ calibration and the composed ε/δ
    /// spend recorded on `obs`' budget ledger (events plus
    /// `kamino_dp_sigma`/`kamino_dp_epsilon` gauges and a
    /// `kamino_dp_plans_total` counter). Planning itself is byte-identical
    /// whether or not `obs` is enabled.
    pub fn plan_with_obs(&self, shape: &RunShape, obs: &ObsHandle) -> BudgetPlan {
        let plan = self.plan_inner(shape, obs);
        if obs.is_enabled() {
            let delta = self.budget.delta;
            for (mech, sigma) in [
                (mechanism::M1, plan.sigma_g),
                (mechanism::M2, plan.sigma_d),
                (mechanism::M3, plan.sigma_w),
            ] {
                if sigma > 0.0 {
                    obs.event(Event::BudgetSpend {
                        mechanism: mech,
                        sigma,
                        composed_epsilon: plan.achieved_epsilon,
                        delta,
                    });
                    obs.counter("kamino_dp_spends_total", &[("mechanism", mech)])
                        .inc();
                    obs.gauge("kamino_dp_sigma", &[("mechanism", mech)])
                        .set(sigma);
                }
            }
            obs.event(Event::BudgetSpend {
                mechanism: mechanism::COMPOSED,
                sigma: 0.0,
                composed_epsilon: plan.achieved_epsilon,
                delta,
            });
            obs.gauge("kamino_dp_epsilon", &[("kind", "achieved")])
                .set(plan.achieved_epsilon);
            obs.gauge("kamino_dp_epsilon", &[("kind", "budget")])
                .set(self.budget.epsilon);
            obs.gauge("kamino_dp_delta", &[]).set(delta);
            obs.counter("kamino_dp_plans_total", &[]).inc();
        }
        plan
    }

    fn plan_inner(&self, shape: &RunShape, obs: &ObsHandle) -> BudgetPlan {
        assert!(shape.n > 0, "run shape needs at least one tuple");
        if self.budget.is_non_private() {
            return BudgetPlan {
                sigma_g: 0.0,
                sigma_d: 0.0,
                sigma_w: 0.0,
                achieved_epsilon: f64::INFINITY,
            };
        }
        let (eps, delta) = (self.budget.epsilon, self.budget.delta);
        let floor = conversion_floor(delta);
        assert!(
            eps > floor,
            "budget epsilon {eps} is at or below the RDP conversion floor {floor} at delta {delta}"
        );

        // M3 first, at its fixed share (never rescaled afterwards — see
        // module docs). Targets below the floor are relaxed to just above
        // it: the release then costs ≈ the floor, and the bisection
        // absorbs that cost when fitting M1/M2.
        let sigma_w = if shape.weight_sample > 0 {
            let target = (self.weight_share * eps).max(1.05 * floor);
            let sigma = try_calibrate_sgm_sigma(target, delta, shape.weight_rate(), 1)
                .expect("relaxed M3 target is above the floor by construction");
            obs.event(Event::BudgetCalibration {
                mechanism: mechanism::M3,
                sigma,
                epsilon_share: target,
            });
            sigma
        } else {
            0.0
        };

        // Seed σ_g : σ_d ratios by per-mechanism calibration at nominal
        // shares (relaxed to stay feasible); only the ratio matters.
        let g_share = if shape.sgd_steps > 0 {
            self.histogram_share
        } else {
            1.0 - self.weight_share
        };
        let d_share = (1.0 - g_share - self.weight_share).max(0.05);
        let seed_sigma = |share: f64, q: f64, count: u64| -> f64 {
            let target = (share * eps).max(1.05 * floor);
            try_calibrate_sgm_sigma(target, delta, q, count)
                .expect("relaxed seed target is above the floor by construction")
        };
        let sigma_g_hat = if shape.histogram_releases > 0 {
            let sigma = seed_sigma(g_share, 1.0, shape.histogram_releases);
            obs.event(Event::BudgetCalibration {
                mechanism: mechanism::M1,
                sigma,
                epsilon_share: g_share * eps,
            });
            sigma
        } else {
            0.0
        };
        let sigma_d_hat = if shape.sgd_steps > 0 {
            let sigma = seed_sigma(d_share, shape.sgd_rate(), shape.sgd_steps);
            obs.event(Event::BudgetCalibration {
                mechanism: mechanism::M2,
                sigma,
                epsilon_share: d_share * eps,
            });
            sigma
        } else {
            0.0
        };

        // Bisect the global scale s on (σ_g, σ_d): composed ε is strictly
        // decreasing in s, so find the smallest s whose composed cost fits.
        let plan_at = |s: f64| BudgetPlan {
            sigma_g: sigma_g_hat * s,
            sigma_d: sigma_d_hat * s,
            sigma_w,
            achieved_epsilon: f64::NAN,
        };
        let eps_of = |s: f64| composed_epsilon(shape, &plan_at(s), delta);

        let mut hi = 1.0;
        let mut grow = 0;
        while eps_of(hi) > eps {
            hi *= 2.0;
            grow += 1;
            assert!(
                grow < 60,
                "budget epsilon {eps} infeasible for this shape at delta {delta}: \
                 composed cost cannot be pushed under the budget \
                 (conversion floor {floor} plus the fixed weight-release share)"
            );
        }
        let mut lo = hi * 0.5;
        while lo > 1e-9 && eps_of(lo) <= eps {
            hi = lo;
            lo *= 0.5;
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if eps_of(mid) > eps {
                lo = mid;
            } else {
                hi = mid;
            }
        }

        let mut plan = plan_at(hi);
        plan.achieved_epsilon = composed_epsilon(shape, &plan, delta);
        debug_assert!(plan.achieved_epsilon <= eps + 1e-9);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> RunShape {
        RunShape {
            n: 32_561,
            histogram_releases: 1,
            sgd_steps: 28_000,
            batch: 32,
            weight_sample: 100,
        }
    }

    #[test]
    fn plan_fits_and_is_tight_across_budgets() {
        for &eps in &[0.1, 0.5, 1.0, 2.0, 8.0] {
            let planner = BudgetPlanner::new(Budget::new(eps, 1e-6));
            let plan = planner.plan(&shape());
            let achieved = composed_epsilon(&shape(), &plan, 1e-6);
            assert!(achieved <= eps + 1e-9, "eps {eps}: achieved {achieved}");
            assert!(
                achieved > 0.95 * eps,
                "eps {eps}: achieved {achieved} leaves budget on the table"
            );
            assert!((plan.achieved_epsilon - achieved).abs() < 1e-12);
            assert!(plan.sigma_g > 0.0 && plan.sigma_d > 0.0 && plan.sigma_w > 0.0);
        }
    }

    #[test]
    fn loose_budgets_get_small_sigmas() {
        // The regime the pinned lo = 0.3 bracket used to hide: a loose
        // total budget must produce σ's well under the old bracket floor,
        // not silently over-noise.
        let planner = BudgetPlanner::new(Budget::new(50.0, 1e-6));
        let mut sh = shape();
        sh.sgd_steps = 0;
        sh.weight_sample = 0;
        let plan = planner.plan(&sh);
        assert!(plan.sigma_g < 0.3, "sigma_g {} over-noised", plan.sigma_g);
        let achieved = composed_epsilon(&sh, &plan, 1e-6);
        assert!(achieved <= 50.0 && achieved > 25.0, "achieved {achieved}");
    }

    #[test]
    fn tighter_budget_means_more_noise() {
        let loose = BudgetPlanner::new(Budget::new(2.0, 1e-6)).plan(&shape());
        let tight = BudgetPlanner::new(Budget::new(0.2, 1e-6)).plan(&shape());
        assert!(tight.sigma_g > loose.sigma_g);
        assert!(tight.sigma_d > loose.sigma_d);
        assert!(tight.sigma_w > loose.sigma_w);
    }

    #[test]
    fn weight_share_is_respected() {
        let planner = BudgetPlanner::new(Budget::new(1.0, 1e-6));
        let plan = planner.plan(&shape());
        let mut acc = RdpAccountant::new();
        acc.add_sgm(plan.sigma_w, shape().weight_rate(), 1);
        assert!(acc.epsilon(1e-6) <= 0.1 + 1e-9, "M3 exceeds its 10% share");
    }

    #[test]
    fn hard_only_runs_skip_m3() {
        let mut sh = shape();
        sh.weight_sample = 0;
        let plan = BudgetPlanner::new(Budget::new(1.0, 1e-6)).plan(&sh);
        assert_eq!(plan.sigma_w, 0.0);
        assert!(composed_epsilon(&sh, &plan, 1e-6) <= 1.0);
    }

    #[test]
    fn non_private_plan_is_noiseless() {
        let plan = BudgetPlanner::new(Budget::non_private()).plan(&shape());
        assert_eq!(plan.sigma_g, 0.0);
        assert_eq!(plan.sigma_d, 0.0);
        assert!(plan.achieved_epsilon.is_infinite());
    }

    #[test]
    fn more_steps_cost_more_noise() {
        let small = BudgetPlanner::new(Budget::new(1.0, 1e-6)).plan(&shape());
        let mut sh = shape();
        sh.sgd_steps *= 10;
        let big = BudgetPlanner::new(Budget::new(1.0, 1e-6)).plan(&sh);
        assert!(big.sigma_d > small.sigma_d);
    }

    #[test]
    fn near_floor_budget_still_plans() {
        // δ = 1e-9 ⇒ floor ≈ 0.0405; ε = 0.05 sits just above it.
        let plan = BudgetPlanner::new(Budget::new(0.05, 1e-9)).plan(&RunShape {
            n: 2_000,
            histogram_releases: 1,
            sgd_steps: 500,
            batch: 16,
            weight_sample: 0,
        });
        assert!(plan.achieved_epsilon <= 0.05);
        assert!(plan.sigma_d > 10.0, "near-floor plan must be very noisy");
    }

    #[test]
    #[should_panic(expected = "conversion floor")]
    fn sub_floor_budget_panics() {
        BudgetPlanner::new(Budget::new(0.01, 1e-6)).plan(&shape());
    }

    #[test]
    fn ledger_records_every_mechanism_and_matches_silent_plan() {
        let planner = BudgetPlanner::new(Budget::new(1.0, 1e-6));
        let obs = ObsHandle::enabled();
        let plan = planner.plan_with_obs(&shape(), &obs);
        // the ledger must not perturb the plan itself
        assert_eq!(plan, planner.plan(&shape()));

        let events = obs.events();
        let calibrated: Vec<&str> = events
            .iter()
            .filter_map(|r| match &r.event {
                Event::BudgetCalibration { mechanism, .. } => Some(*mechanism),
                _ => None,
            })
            .collect();
        assert_eq!(
            calibrated,
            vec![mechanism::M3, mechanism::M1, mechanism::M2]
        );
        let spends: Vec<&str> = events
            .iter()
            .filter_map(|r| match &r.event {
                Event::BudgetSpend { mechanism, .. } => Some(*mechanism),
                _ => None,
            })
            .collect();
        assert_eq!(
            spends,
            vec![
                mechanism::M1,
                mechanism::M2,
                mechanism::M3,
                mechanism::COMPOSED
            ]
        );
        for r in &events {
            if let Event::BudgetSpend {
                composed_epsilon, ..
            } = r.event
            {
                assert!((composed_epsilon - plan.achieved_epsilon).abs() < 1e-12);
            }
        }
        let prom = obs.render_prometheus();
        assert!(prom.contains("kamino_dp_plans_total 1"));
        assert!(prom.contains("kamino_dp_sigma{mechanism=\"m2_dpsgd\"}"));
        assert!(prom.contains("kamino_dp_epsilon{kind=\"achieved\"}"));
    }

    #[test]
    fn spend_fingerprint_separates_plans_bit_exactly() {
        let a = BudgetPlan {
            sigma_g: 1.5,
            sigma_d: 0.9,
            sigma_w: 0.0,
            achieved_epsilon: 0.97,
        };
        assert_eq!(a.fingerprint(), a.fingerprint());
        let mut b = a;
        b.sigma_d = f64::from_bits(a.sigma_d.to_bits() + 1); // one ulp
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            spend_fingerprint(1.5, 0.9, 0.0, 0.97),
            "method and free function must agree"
        );
    }
}
