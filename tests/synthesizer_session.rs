//! The fitted session end to end: planner-derived budgets verified
//! through the RDP accountant, repeated draws that each hold the hard
//! DCs, and equal-seed replay.

use kamino::constraints::{count_violating_pairs, Hardness};
use kamino::core::train::{count_marginal_releases, count_sgd_models};
use kamino::core::{fit_kamino, FittedKamino, KaminoConfig};
use kamino::data::Instance;
use kamino::datasets::{adult_like, Dataset};
use kamino::dp::{composed_epsilon, Budget, BudgetPlan, RunShape};

fn fit(data: &Dataset, budget: Budget, seed: u64) -> FittedKamino {
    let mut cfg = KaminoConfig::new(budget);
    cfg.seed = seed;
    cfg.train_scale = 0.05;
    cfg.embed_dim = 8;
    fit_kamino(&data.schema, &data.instance, &data.dcs, &cfg)
}

/// One `sample` call per entry of `sizes`, in order.
fn draw(session: &mut FittedKamino, sizes: &[usize]) -> Vec<Instance> {
    sizes.iter().map(|&n| session.sample(n)).collect()
}

/// Acceptance criterion: an end-to-end fit with a planner-derived budget
/// satisfies `RdpAccountant::epsilon(δ) ≤ ε` — re-derived here from the
/// session's Ψ and the run shape, not trusted from `achieved_epsilon`.
#[test]
fn planner_budget_round_trips_through_the_accountant() {
    let data = adult_like(300, 1);
    let session = fit(&data, Budget::new(1.0, 1e-6), 3);
    let p = &session.params;
    assert!(!p.non_private);

    // rebuild Theorem 1's shape exactly as the pipeline planned it
    let shape = RunShape {
        n: data.instance.n_rows(),
        histogram_releases: count_marginal_releases(&data.schema, &session.sequence, 256) as u64,
        sgd_steps: (p.t * count_sgd_models(&data.schema, &session.sequence, 256)) as u64,
        batch: p.b,
        weight_sample: if p.learn_weights { p.l_w } else { 0 },
    };
    let plan = BudgetPlan {
        sigma_g: p.sigma_g,
        sigma_d: p.sigma_d,
        sigma_w: p.sigma_w,
        achieved_epsilon: p.achieved_epsilon,
    };
    let eps = composed_epsilon(&shape, &plan, 1e-6);
    assert!(
        eps <= 1.0 + 1e-9,
        "composed epsilon {eps} exceeds the budget"
    );
    assert!(
        (eps - session.achieved_epsilon()).abs() < 1e-9,
        "session reports {} but the accountant derives {eps}",
        session.achieved_epsilon()
    );
}

#[test]
fn batches_stream_the_requested_rows() {
    let data = adult_like(200, 7);
    let mut session = fit(&data, Budget::new(1.0, 1e-6), 3);
    let batches = draw(&mut session, &[50, 50, 30]);
    assert_eq!(
        batches.iter().map(|b| b.n_rows()).collect::<Vec<_>>(),
        vec![50, 50, 30]
    );
    // every draw upholds the hard DCs on its own
    for (i, b) in batches.iter().enumerate() {
        for dc in &data.dcs {
            if dc.hardness == Hardness::Hard {
                assert_eq!(
                    count_violating_pairs(dc, b),
                    0,
                    "batch {i} violates {}",
                    dc.name
                );
            }
        }
    }
}

#[test]
fn batch_streams_replay_deterministically() {
    let data = adult_like(150, 9);
    let run = || draw(&mut fit(&data, Budget::new(1.0, 1e-6), 3), &[40, 40, 10]);
    assert_eq!(
        run(),
        run(),
        "equal-seeded sessions must replay identically"
    );
}

#[test]
fn non_private_session_skips_noise() {
    let data = adult_like(150, 15);
    let session = fit(&data, Budget::non_private(), 1);
    assert!(session.params.non_private);
    assert!(session.achieved_epsilon().is_infinite());
}
