//! Bring your own data: define a schema, load rows from CSV, declare
//! denial constraints in the text syntax, and synthesize. This is the
//! end-to-end path a downstream user of the library follows.
//!
//! ```sh
//! cargo run --release --example custom_schema
//! ```

use kamino::prelude::*;

fn main() {
    // 1. Declare the schema: a small patient-visits relation.
    let schema = Schema::new(vec![
        Attribute::categorical(
            "clinic",
            vec!["north".into(), "south".into(), "east".into()],
        )
        .unwrap(),
        Attribute::categorical("region", vec!["metro".into(), "rural".into()]).unwrap(),
        Attribute::integer("age", 0.0, 99.0, 10).unwrap(),
        // Equal bin counts matter here: Algorithm 4 orders non-FD
        // attributes by domain size, and visit_cost must be sampled
        // *before* copay so the cost→copay order constraint and the
        // minor-cap constraint never squeeze a row into an infeasible
        // band (see DESIGN.md on interacting constraints).
        Attribute::numeric("visit_cost", 0.0, 5_000.0, 20).unwrap(),
        Attribute::numeric("copay", 0.0, 500.0, 20).unwrap(),
    ])
    .unwrap();

    // 2. Load the "private" data (inline CSV here; any BufRead works).
    let csv = "\
clinic,region,age,visit_cost,copay
north,metro,34,120,12
north,metro,61,950,95
south,rural,45,300,30
south,rural,23,80,8
east,metro,71,2100,210
east,metro,55,600,60
north,metro,29,150,15
south,rural,38,410,41
east,metro,64,1800,180
north,metro,42,510,51
";
    // replicate the mini-table to a workable size
    let base = kamino::data::csv::read_csv(&schema, csv.as_bytes()).unwrap();
    let mut instance = Instance::empty(&schema);
    for rep in 0..60 {
        for i in 0..base.n_rows() {
            let mut row = base.row(i);
            // jitter ages so the table is not 60 exact copies
            if let Value::Num(age) = row[2] {
                row[2] = Value::Num((age + (rep % 3) as f64).min(99.0));
            }
            instance.push_row(&schema, &row).unwrap();
        }
    }

    // 3. Declare constraints in the text syntax.
    let dcs = vec![
        // each clinic sits in exactly one region (an FD)
        parse_dc(
            &schema,
            "clinic_region",
            "!(t1.clinic == t2.clinic & t1.region != t2.region)",
            Hardness::Hard,
        )
        .unwrap(),
        // copay scales with cost: no pair may have higher cost but lower copay
        parse_dc(
            &schema,
            "cost_copay",
            "!(t1.visit_cost > t2.visit_cost & t1.copay < t2.copay)",
            Hardness::Hard,
        )
        .unwrap(),
        // minors are never billed more than 1000
        parse_dc(
            &schema,
            "minor_cap",
            "!(t1.age < 18 & t1.visit_cost > 1000)",
            Hardness::Hard,
        )
        .unwrap(),
    ];

    // 4. Synthesize under (ε = 2, δ = 1e-6).
    let mut cfg = KaminoConfig::new(Budget::new(2.0, 1e-6));
    cfg.seed = 1;
    cfg.train_scale = 0.3;
    let mut session = fit_kamino(&schema, &instance, &dcs, &cfg);
    let synthetic = session.sample(instance.n_rows());

    println!(
        "synthesized {} rows at epsilon = {:.3}",
        synthetic.n_rows(),
        session.achieved_epsilon()
    );
    for dc in &dcs {
        println!(
            "  {}: truth {:.2}%, synthetic {:.2}% violating",
            dc.name,
            violation_percentage(dc, &instance),
            violation_percentage(dc, &synthetic)
        );
    }
    // show a few synthetic rows
    let mut out = Vec::new();
    kamino::data::csv::write_csv(&schema, &synthetic, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    println!("\nfirst synthetic rows:");
    for line in text.lines().take(6) {
        println!("  {line}");
    }
}
