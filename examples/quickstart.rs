//! Quickstart: synthesize a census-like table under differential privacy
//! and check that its denial constraints survived.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use kamino::constraints::violation_percentage;
use kamino::core::{fit_kamino, KaminoConfig};
use kamino::datasets::adult_like;
use kamino::dp::Budget;

fn main() {
    // The "private" data: 1,000 census-like rows with two hard DCs
    // (education → education_num, and capital gain/loss monotonicity).
    let data = adult_like(1_000, 42);
    println!(
        "true data: {} rows × {} attributes",
        data.instance.n_rows(),
        data.schema.len()
    );
    for dc in &data.dcs {
        println!("  constraint {}: {}", dc.name, dc.display(&data.schema));
    }

    // Synthesize under (ε = 1, δ = 1e-6)-DP.
    let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
    cfg.seed = 7;
    cfg.train_scale = 0.3; // fraction of the paper's training budget
    let mut session = fit_kamino(&data.schema, &data.instance, &data.dcs, &cfg);
    let synthetic = session.sample(data.instance.n_rows());

    println!("\nsynthesized {} rows", synthetic.n_rows());
    println!(
        "privacy spent: epsilon = {:.3} (budget 1.0)",
        session.achieved_epsilon()
    );
    println!(
        "schema sequence: {:?}",
        session
            .sequence
            .iter()
            .map(|&a| data.schema.attr(a).name.as_str())
            .collect::<Vec<_>>()
    );
    println!("\nconstraint violations (percentage of tuple pairs):");
    for dc in &data.dcs {
        println!(
            "  {}: truth {:.2}%  synthetic {:.2}%",
            dc.name,
            violation_percentage(dc, &data.instance),
            violation_percentage(dc, &synthetic),
        );
    }

    // Write the synthetic instance out as CSV.
    let mut buf = Vec::new();
    kamino::data::csv::write_csv(&data.schema, &synthetic, &mut buf).unwrap();
    let path = std::env::temp_dir().join("kamino_quickstart.csv");
    std::fs::write(&path, &buf).unwrap();
    println!("\nsynthetic data written to {}", path.display());
}
