//! Cross-crate integration: the paper's headline comparison. Kamino must
//! preserve constraints that every i.i.d. baseline breaks, without giving
//! up marginal quality relative to the noisiest baselines.

use kamino::baselines::paper_baselines;
use kamino::constraints::violation_percentage;
use kamino::core::{fit_kamino, KaminoConfig};
use kamino::datasets::Corpus;
use kamino::dp::Budget;
use kamino::eval::marginals::{summarize, tvd_all_singles};

#[test]
fn kamino_preserves_what_baselines_break() {
    let d = Corpus::Adult.generate(300, 1);
    let budget = Budget::new(1.0, 1e-6);

    let mut cfg = KaminoConfig::new(budget);
    cfg.train_scale = 0.05;
    cfg.embed_dim = 8;
    cfg.seed = 3;
    let kamino_out = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg).sample(300);
    let kamino_viol: f64 = d
        .dcs
        .iter()
        .map(|dc| violation_percentage(dc, &kamino_out))
        .sum();
    assert!(
        kamino_viol < 0.5,
        "Kamino violated hard DCs: {kamino_viol}%"
    );

    for baseline in paper_baselines() {
        let out = baseline.synthesize(&d.schema, &d.instance, budget, 300, 3);
        let viol: f64 = d.dcs.iter().map(|dc| violation_percentage(dc, &out)).sum();
        assert!(
            viol > kamino_viol + 1.0,
            "{} at {viol}% should violate far more than Kamino's {kamino_viol}%",
            baseline.name()
        );
    }
}

#[test]
fn kamino_marginals_competitive_non_private() {
    // with privacy off, Kamino's 1-way marginals must be close to the
    // truth (the sampler draws the first attribute from the exact
    // histogram and conditionals from a converged model)
    let d = Corpus::Adult.generate(400, 5);
    let mut cfg = KaminoConfig::new(Budget::non_private());
    cfg.train_scale = 0.3;
    cfg.lr = 0.25;
    cfg.seed = 7;
    let out = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg).sample(400);
    let (mean_tvd, _, max_tvd) = summarize(&tvd_all_singles(&d.schema, &d.instance, &out));
    assert!(mean_tvd < 0.25, "non-private 1-way TVD mean {mean_tvd}");
    assert!(max_tvd < 0.6, "non-private 1-way TVD max {max_tvd}");
}

#[test]
fn all_baselines_produce_valid_instances_on_all_corpora() {
    let budget = Budget::new(1.0, 1e-6);
    for corpus in Corpus::all() {
        let d = corpus.generate(200, 9);
        for baseline in paper_baselines() {
            let out = baseline.synthesize(&d.schema, &d.instance, budget, 120, 11);
            assert_eq!(
                out.n_rows(),
                120,
                "{} on {}",
                baseline.name(),
                corpus.name()
            );
            for i in 0..out.n_rows() {
                for j in 0..d.schema.len() {
                    assert!(
                        d.schema.attr(j).validate(out.value(i, j)).is_ok(),
                        "{} on {}: invalid cell",
                        baseline.name(),
                        corpus.name()
                    );
                }
            }
        }
    }
}
