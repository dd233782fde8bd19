//! Workspace smoke test: the full pipeline builds, runs under privacy,
//! holds hard DCs, and the inert `parallel_substrate` switch changes no
//! output byte.

use kamino::datasets::adult_like;
use kamino::prelude::*;

fn smoke_cfg(seed: u64) -> KaminoConfig {
    let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
    cfg.train_scale = 0.05;
    cfg.embed_dim = 8;
    cfg.seed = seed;
    cfg
}

#[test]
fn run_kamino_on_adult_holds_hard_dcs() {
    let d = adult_like(200, 21);
    let cfg = smoke_cfg(23);
    let report = run_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
    assert_eq!(report.instance.n_rows(), 200);
    assert!(report.params.achieved_epsilon <= 1.0, "budget exceeded");
    for dc in &d.dcs {
        assert_eq!(
            violation_percentage(dc, &report.instance),
            0.0,
            "hard DC {} violated",
            dc.name
        );
    }
}

#[test]
fn parallel_substrate_switch_changes_no_output() {
    // Same seed, same data; only `parallel_substrate` differs. The switch
    // has no effect, so the library default (`true`) and the benchmark's
    // `false` must give the same instance exactly — the benchmark then
    // measures the code every other caller runs.
    let d = adult_like(200, 25);
    let run = |substrate: bool| {
        let mut cfg = smoke_cfg(27);
        cfg.parallel_substrate = substrate;
        run_kamino(&d.schema, &d.instance, &d.dcs, &cfg)
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(on.instance, off.instance, "sampled instances diverged");
    assert_eq!(on.weights, off.weights);
    assert_eq!(on.sequence, off.sequence);
}
