//! Privacy/utility trade-off: sweep ε over the paper's Figure 6 grid and
//! watch the parameter search (Algorithm 6) trade DP-SGD iterations for
//! noise, and utility respond.
//!
//! ```sh
//! cargo run --release --example privacy_sweep
//! ```

use kamino::constraints::violation_percentage;
use kamino::core::{fit_kamino, KaminoConfig};
use kamino::datasets::adult_like;
use kamino::dp::Budget;
use kamino::eval::marginals::{summarize, tvd_all_singles};

fn main() {
    let data = adult_like(600, 21);
    println!("Adult-like, n = 600, delta = 1e-6\n");
    println!(
        "{:>6}  {:>9}  {:>5}  {:>7}  {:>7}  {:>9}  {:>9}",
        "eps", "achieved", "T", "sigma_d", "sigma_g", "1-way TVD", "violations"
    );
    for eps in [0.1, 0.2, 0.4, 0.8, 1.6, f64::INFINITY] {
        let budget = if eps.is_infinite() {
            Budget::non_private()
        } else {
            Budget::new(eps, 1e-6)
        };
        let mut cfg = KaminoConfig::new(budget);
        cfg.seed = 13;
        cfg.train_scale = 0.3;
        let mut session = fit_kamino(&data.schema, &data.instance, &data.dcs, &cfg);
        let synthetic = session.sample(data.instance.n_rows());
        let (tvd1, _, _) = summarize(&tvd_all_singles(&data.schema, &data.instance, &synthetic));
        let viol: f64 = data
            .dcs
            .iter()
            .map(|dc| violation_percentage(dc, &synthetic))
            .sum();
        println!(
            "{:>6}  {:>9.3}  {:>5}  {:>7.2}  {:>7.3}  {:>9.3}  {:>9.2}%",
            if eps.is_infinite() {
                "inf".to_string()
            } else {
                format!("{eps}")
            },
            session.params.achieved_epsilon,
            session.params.t,
            session.params.sigma_d,
            session.params.sigma_g,
            tvd1,
            viol
        );
    }
    println!(
        "\nExpected shape (paper Fig. 6): marginal distance shrinks as eps grows;\n\
         hard-DC violations stay at 0% at every budget — structure preservation\n\
         does not degrade with privacy, only statistical fidelity does."
    );
}
