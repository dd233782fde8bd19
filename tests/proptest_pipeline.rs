//! Property tests on the user-facing surfaces: the DC parser must never
//! panic on arbitrary input, and the end-to-end pipeline must produce
//! schema-conformant, budget-respecting output across randomized
//! configurations.

use kamino::constraints::{parse_dc, violation_percentage, Hardness};
use kamino::core::{fit_kamino, KaminoConfig, SamplingRule};
use kamino::data::{Attribute, Instance, Schema, Value};
use kamino::dp::Budget;
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::categorical_indexed("a", 3).unwrap(),
        Attribute::categorical_indexed("b", 4).unwrap(),
        Attribute::integer("x", 0.0, 9.0, 10).unwrap(),
        Attribute::numeric("y", 0.0, 1.0, 4).unwrap(),
    ])
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser returns Ok or Err on arbitrary strings — never panics.
    #[test]
    fn parser_never_panics(text in ".{0,60}") {
        let s = schema();
        let _ = parse_dc(&s, "fuzz", &text, Hardness::Soft);
    }

    /// Near-miss DC syntax (structured fuzz around the grammar) also never
    /// panics and either parses or errors cleanly.
    #[test]
    fn parser_structured_fuzz(
        t1 in prop::sample::select(vec!["t1", "t2", "tq", ""]),
        attr in prop::sample::select(vec!["a", "b", "x", "zzz", ""]),
        op in prop::sample::select(vec!["==", "!=", "<", ">=", "=", "<>", ""]),
        rhs in prop::sample::select(vec!["t2.b", "3", "'v1'", "'nope'", "t1.y", ""]),
    ) {
        let s = schema();
        let text = format!("!({t1}.{attr} {op} {rhs})");
        let _ = parse_dc(&s, "fuzz", &text, Hardness::Hard);
    }
}

prop_compose! {
    fn arb_row()(a in 0u32..3, b in 0u32..4, x in 0i32..10, y in 0.0f64..1.0) -> Vec<Value> {
        vec![Value::Cat(a), Value::Cat(b), Value::Num(x as f64), Value::Num(y)]
    }
}

proptest! {
    // end-to-end runs are costly; a handful of randomized cases suffices
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random instances, seeds, budgets and ablation switches, the
    /// pipeline yields a schema-conformant instance within budget, and the
    /// hard FD holds whenever constraint-aware sampling is on.
    #[test]
    fn pipeline_conformance(
        rows in prop::collection::vec(arb_row(), 30..60),
        seed in 0u64..1000,
        eps in prop::sample::select(vec![0.5, 1.0, f64::INFINITY]),
        aware in any::<bool>(),
        mcmc in prop::sample::select(vec![0.0, 0.5]),
    ) {
        let s = schema();
        // plant the FD a→b so the constraint is satisfiable
        let rows: Vec<Vec<Value>> = rows
            .into_iter()
            .map(|mut r| {
                let Value::Cat(a) = r[0] else { unreachable!() };
                r[1] = Value::Cat(a % 4);
                r
            })
            .collect();
        let inst = Instance::from_rows(&s, &rows).unwrap();
        let dc = parse_dc(&s, "fd", "!(t1.a == t2.a & t1.b != t2.b)", Hardness::Hard).unwrap();

        let budget = if eps.is_infinite() { Budget::non_private() } else { Budget::new(eps, 1e-6) };
        let mut cfg = KaminoConfig::new(budget);
        cfg.seed = seed;
        cfg.train_scale = 0.05;
        cfg.embed_dim = 4;
        cfg.sampling = if aware {
            SamplingRule::Algorithm3 { hard_fd_lookup: false }
        } else {
            SamplingRule::RandSampling
        };
        cfg.mcmc_ratio = mcmc;
        let mut session = fit_kamino(&s, &inst, std::slice::from_ref(&dc), &cfg);
        let out = session.sample(inst.n_rows());

        prop_assert_eq!(out.n_rows(), inst.n_rows());
        prop_assert!(session.achieved_epsilon() <= budget.epsilon);
        for i in 0..out.n_rows() {
            for j in 0..s.len() {
                prop_assert!(s.attr(j).validate(out.value(i, j)).is_ok());
            }
        }
        if aware {
            prop_assert_eq!(violation_percentage(&dc, &out), 0.0);
        }
    }
}
