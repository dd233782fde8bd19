//! Census synthesis with downstream evaluation: compare Kamino against
//! PrivBayes on the paper's three utility metrics — DC violations, the
//! classification task (train-on-synthetic, test-on-true), and marginal
//! distances.
//!
//! ```sh
//! cargo run --release --example census_synthesis
//! ```

use kamino::baselines::{PrivBayes, Synthesizer};
use kamino::constraints::violation_percentage;
use kamino::core::{fit_kamino, KaminoConfig};
use kamino::data::Instance;
use kamino::datasets::adult_like;
use kamino::dp::Budget;
use kamino::eval::marginals::{summarize, tvd_all_pairs, tvd_all_singles};
use kamino::eval::tasks::evaluate_classification;

fn evaluate(name: &str, data: &kamino::datasets::Dataset, synth: &Instance) {
    let viol: f64 = data
        .dcs
        .iter()
        .map(|dc| violation_percentage(dc, synth))
        .sum();
    let summary = evaluate_classification(&data.schema, &data.instance, synth, 3);
    let (tvd1, _, _) = summarize(&tvd_all_singles(&data.schema, &data.instance, synth));
    let (tvd2, _, _) = summarize(&tvd_all_pairs(&data.schema, &data.instance, synth));
    println!(
        "{name:10}  DC violations {viol:6.2}%   accuracy {:.3}   F1 {:.3}   1-way TVD {tvd1:.3}   2-way TVD {tvd2:.3}",
        summary.mean_accuracy(),
        summary.mean_f1(),
    );
}

fn main() {
    let budget = Budget::new(1.0, 1e-6);
    let data = adult_like(800, 11);
    println!("Adult-like, n = 800, (eps, delta) = (1, 1e-6); nine-classifier Metric II\n");

    // Kamino
    let mut cfg = KaminoConfig::new(budget);
    cfg.seed = 5;
    cfg.train_scale = 0.4;
    cfg.lr = 0.25;
    cfg.embed_dim = 12;
    let synthetic = fit_kamino(&data.schema, &data.instance, &data.dcs, &cfg).sample(800);
    evaluate("Kamino", &data, &synthetic);

    // PrivBayes
    let pb = PrivBayes::default().synthesize(&data.schema, &data.instance, budget, 800, 5);
    evaluate("PrivBayes", &data, &pb);

    // Truth ceiling (train and test on the true data)
    evaluate("Truth", &data, &data.instance);

    println!(
        "\nExpected shape (paper Figs. 3-4, Table 2): Kamino at ~0% violations\n\
         with accuracy/F1 at or above PrivBayes and below the Truth ceiling."
    );
}
