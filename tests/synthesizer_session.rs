//! The `Synthesizer` session API end to end: planner-derived budgets
//! verified through the RDP accountant, batch streaming, and bit-identity
//! with the one-shot pipeline.

use kamino::constraints::{count_violating_pairs, Hardness};
use kamino::core::train::{count_marginal_releases, count_sgd_models};
use kamino::core::{run_kamino, KaminoConfig};
use kamino::datasets::adult_like;
use kamino::dp::{composed_epsilon, Budget, BudgetPlan, RunShape};
use kamino::Synthesizer;

fn builder() -> kamino::SynthesizerBuilder {
    Synthesizer::builder()
        .epsilon(1.0)
        .delta(1e-6)
        .seed(3)
        .train_scale(0.05)
        .configure(|c| c.embed_dim = 8)
}

/// Acceptance criterion: an end-to-end run through `Synthesizer` with a
/// planner-derived budget satisfies `RdpAccountant::epsilon(δ) ≤ ε` —
/// re-derived here from the session's Ψ and the run shape, not trusted
/// from `achieved_epsilon`.
#[test]
fn planner_budget_round_trips_through_the_accountant() {
    let data = adult_like(300, 1);
    let session = builder()
        .build()
        .fit(&data.schema, &data.instance, &data.dcs);
    let p = session.params();
    assert!(!p.non_private);

    // rebuild Theorem 1's shape exactly as the pipeline planned it
    let shape = RunShape {
        n: data.instance.n_rows(),
        histogram_releases: count_marginal_releases(&data.schema, session.sequence(), 256) as u64,
        sgd_steps: (p.t * count_sgd_models(&data.schema, session.sequence(), 256)) as u64,
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

/// A session must reproduce `run_kamino` bit-for-bit: the facade is a
/// re-plumbing of the same pipeline, not a second code path.
#[test]
fn session_with_one_shard_matches_run_kamino_exactly() {
    let data = adult_like(200, 5);
    let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
    cfg.seed = 11;
    cfg.train_scale = 0.05;
    cfg.embed_dim = 8;
    let report = run_kamino(&data.schema, &data.instance, &data.dcs, &cfg);

    let mut session = Synthesizer::builder()
        .epsilon(1.0)
        .delta(1e-6)
        .seed(11)
        .train_scale(0.05)
        .configure(|c| c.embed_dim = 8)
        .build()
        .fit(&data.schema, &data.instance, &data.dcs);
    let inst = session.synthesize(200);
    assert_eq!(
        inst, report.instance,
        "facade output diverged from run_kamino"
    );
}

#[test]
fn batches_stream_the_requested_rows() {
    let data = adult_like(200, 7);
    let mut session = builder()
        .build()
        .fit(&data.schema, &data.instance, &data.dcs);
    let batches: Vec<_> = session.synthesize_batches(130, 50).collect();
    assert_eq!(
        batches.iter().map(|b| b.n_rows()).collect::<Vec<_>>(),
        vec![50, 50, 30]
    );
    // every batch upholds the hard DCs on its own
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
    // exact-size iterator contract
    let mut it = session.synthesize_batches(130, 50);
    assert_eq!(it.len(), 3);
    it.next();
    assert_eq!(it.len(), 2);
}

#[test]
fn batch_streams_replay_deterministically() {
    let data = adult_like(150, 9);
    let run = |(): ()| -> Vec<kamino::data::Instance> {
        let mut session = builder()
            .build()
            .fit(&data.schema, &data.instance, &data.dcs);
        session.synthesize_batches(90, 40).collect()
    };
    let a = run(());
    let b = run(());
    assert_eq!(a, b, "equal-seeded sessions must replay identically");
}

#[test]
fn non_private_session_skips_noise() {
    let data = adult_like(150, 15);
    let session = Synthesizer::builder()
        .non_private()
        .seed(1)
        .train_scale(0.05)
        .configure(|c| c.embed_dim = 8)
        .build()
        .fit(&data.schema, &data.instance, &data.dcs);
    assert!(session.params().non_private);
    assert!(session.achieved_epsilon().is_infinite());
}
