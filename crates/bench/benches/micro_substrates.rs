//! Microbenchmarks for the hot substrate kernels: violation counting
//! (FD fast path, order fast path, naive scan), incremental counters, the
//! RDP accountant, batch candidate scoring (and the compact scan table vs.
//! its row-map reference), DP-SGD steps (fused vs. reference
//! clip-accumulate), and the tiled matvec against its naive reference.
//!
//! The `matvec_{tiled,ref}` and `scan_count_{compact,rowmap_ref}` pairs
//! are single-thread algorithmic comparisons that share one setup and
//! produce identical outputs; they should show movement on any host, as
//! does `scan_count_order_grouped` (the partitioned strict-order layout
//! on Tax φ₆ᵗ) beside the row-map reference. The
//! `dpsgd_step_{fused,reference}_b256_d64x64` pair documents that the
//! fused clip-accumulate is at worst cost-neutral on a dense single-block
//! model (the traversal it eliminates is a memset; the win grows with
//! block count) while staying bit-identical; the
//! `dpsgd_step_{fused,reference}_embed_card500_d16` pair shows its
//! row-sparse win on an embedding-context model shaped like TPC-H's
//! `c_custkey` (asserted bit-identical in setup).
//! `synthesize_serial_n512` times the full Algorithm 3 column walk
//! (hard-DC clean, asserted in setup). The
//! `predict_column_{reference,predictor}_br2000` pair re-predicts every
//! cell of a 1,000-row BR2000 draw, once through the per-cell reference
//! composition (each context value embedded into its own buffer,
//! `Attention::forward`, the head's `predict`) and once through one
//! `ColumnPredictor` per column (asserted bit-identical in setup). The
//! `gaussian_noise_{polar_pairs,box_muller}_17k` pair times the vector
//! Gaussian mechanism, which draws Marsaglia polar pairs and uses both
//! outputs, against a scalar Box–Muller loop (one `ln`, `sqrt` and `cos`
//! per variate) at the same noise std. `search_params_tpch_shape` runs
//! Algorithm 6's whole σ search (the T-walk and its planner bisections)
//! on fit_tpch's shape, beside `rdp_accountant_5000_sgm_steps`.

use criterion::{criterion_group, criterion_main, Criterion};
use kamino_constraints::{
    count_violating_pairs, parse_dc, CandidateRow, CellContext, DcCounter, Hardness, ScanIndexRef,
    ScoreSet,
};
use kamino_core::params::SearchShape;
use kamino_core::search_params;
use kamino_data::Value;
use kamino_datasets::{adult_like, tax_like};
use kamino_dp::{add_gaussian_noise, standard_normal, Budget, RdpAccountant};
use kamino_nn::{DpSgd, Embedding, Linear, ParamBlock, PerExampleModel, Scratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Dense linear model (64×64) for DP-SGD step benchmarks: one
/// matrix-vector product + outer-product gradient per example.
struct DenseModel {
    w: ParamBlock,
    dim: usize,
}

impl DenseModel {
    fn new(dim: usize) -> DenseModel {
        DenseModel {
            w: ParamBlock::zeros(dim * dim),
            dim,
        }
    }
}

impl PerExampleModel<Vec<f64>> for DenseModel {
    fn forward_backward(&mut self, x: &Vec<f64>) -> f64 {
        let d = self.dim;
        let mut loss = 0.0;
        for r in 0..d {
            let row = r * d..(r + 1) * d;
            let y: f64 = self.w.values[row.clone()]
                .iter()
                .zip(x)
                .map(|(w, xc)| w * xc)
                .sum();
            let err = y - x[r];
            loss += 0.5 * err * err;
            for (g, &xc) in self.w.grads[row].iter_mut().zip(x) {
                *g += err * xc;
            }
        }
        loss
    }

    fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        f(&mut self.w);
    }
}

/// Embedding-context model shaped like TPC-H's `c_custkey` context: a
/// 500×16 lookup table feeding a dense 16→5 linear head with squared
/// error against a one-hot target. An example touches one table row.
struct EmbedModel {
    emb: Embedding,
    head: Linear,
}

impl EmbedModel {
    fn new(card: usize, dim: usize, classes: usize) -> EmbedModel {
        let mut rng = StdRng::seed_from_u64(9);
        EmbedModel {
            emb: Embedding::new(card, dim, &mut rng),
            head: Linear::new(dim, classes, &mut rng),
        }
    }
}

impl PerExampleModel<(u32, usize)> for EmbedModel {
    fn forward_backward(&mut self, &(code, class): &(u32, usize)) -> f64 {
        let x = self.emb.forward(code).to_vec();
        let mut y = vec![0.0; self.head.n_out()];
        self.head.forward(&x, &mut y);
        y[class] -= 1.0;
        let loss = 0.5 * y.iter().map(|e| e * e).sum::<f64>();
        let mut dx = vec![0.0; x.len()];
        self.head.backward(&x, &y, Some(&mut dx));
        self.emb.backward(code, &dx);
        loss
    }

    fn visit_blocks(&mut self, f: &mut dyn FnMut(&mut ParamBlock)) {
        self.emb.visit_blocks(f);
        self.head.visit_blocks(f);
    }

    fn visit_read_rows(
        &mut self,
        &(code, _): &(u32, usize),
        f: &mut dyn FnMut(&mut ParamBlock, usize),
    ) {
        self.emb.visit_row(code, f);
    }
}

/// The per-cell reference composition the sampler's `ColumnPredictor`
/// replaced: embed every context value into its own buffer, combine them
/// with `Attention::forward`, then the head's `predict` (de-standardised
/// for a numeric target). Appends the prediction's bits to `out`.
fn reference_predict(
    sm: &kamino_core::SubModel,
    store: &kamino_core::model::EmbeddingStore,
    ctx: &[Value],
    out: &mut Vec<u64>,
) {
    use kamino_core::model::{Head, SubModelKind};
    let SubModelKind::Discriminative { attention, head } = &sm.kind else {
        unreachable!("only discriminative columns are replayed")
    };
    let store = sm.own_store.as_ref().unwrap_or(store);
    let mut scratch = Scratch::new();
    let embs: Vec<Vec<f64>> = sm
        .context
        .iter()
        .zip(ctx)
        .map(|(&attr, &val)| {
            let mut e = vec![0.0; store.dim()];
            store.embed(attr, val, &mut e, &mut scratch);
            e
        })
        .collect();
    let refs: Vec<&[f64]> = embs.iter().map(Vec::as_slice).collect();
    let mut v = vec![0.0; store.dim()];
    attention.forward(&refs, &mut v, &mut scratch);
    match head {
        Head::Cat(h) => {
            let mut p = vec![0.0; h.card()];
            h.predict(&v, &mut p);
            out.extend(p.iter().map(|p| p.to_bits()));
        }
        Head::Num(h) => {
            let (mu, sigma) = h.predict(&v);
            let std = store.standardizer(sm.target);
            out.extend([std.inverse(mu).to_bits(), (sigma * std.std).to_bits()]);
        }
    }
}

fn bench(c: &mut Criterion) {
    let d = adult_like(2_000, 1);
    let fd = &d.dcs[0];
    let ord = &d.dcs[1];
    let naive_ord = parse_dc(
        &d.schema,
        "naive",
        "!(t1.capital_gain >= t2.capital_gain & t1.capital_loss <= t2.capital_loss & t1.age > t2.age)",
        Hardness::Soft,
    )
    .unwrap();

    let mut g = c.benchmark_group("micro_substrates");
    g.sample_size(10);
    g.bench_function("count_pairs_fd_fastpath_n2000", |b| {
        b.iter(|| black_box(count_violating_pairs(fd, &d.instance)))
    });
    g.bench_function("count_pairs_order_fenwick_n2000", |b| {
        b.iter(|| black_box(count_violating_pairs(ord, &d.instance)))
    });
    g.bench_function("count_pairs_naive_scan_n2000", |b| {
        b.iter(|| black_box(count_violating_pairs(&naive_ord, &d.instance)))
    });
    g.bench_function("incremental_fd_counter_fill_n2000", |b| {
        let edu_num = d.schema.index_of("education_num").unwrap();
        b.iter(|| {
            let mut counter = DcCounter::build(fd);
            let mut total = 0;
            for i in 0..d.instance.n_rows() {
                let cand = CandidateRow::committed(&d.instance, i, edu_num);
                total += counter.count_new(&cand);
                counter.insert(&cand);
            }
            black_box(total)
        })
    });

    // Batch candidate scoring through the scan-counter prefix: the
    // Algorithm 3 inner loop at n = 2000 with a 64-value candidate set
    // (~128k pair evaluations per call).
    {
        let gain = d.schema.index_of("capital_gain").unwrap();
        let dcs = vec![naive_ord.clone()];
        let weights = [1.5];
        let mut set = ScoreSet::build(&[0], &dcs);
        for i in 0..d.instance.n_rows() {
            set.insert(&CandidateRow::committed(&d.instance, i, gain));
        }
        let cell = CellContext::new(&d.instance, d.instance.n_rows() - 1, gain);
        let values: Vec<Value> = (0..64).map(|k| Value::Num(k as f64 * 30.0)).collect();
        g.bench_function("score_candidates_serial_n2000_d64", |b| {
            b.iter(|| black_box(set.score_candidates(cell, &values, &weights)))
        });

        // Compact contiguous scan table vs. its row-map reference twin
        // (per-row heap allocations behind a hash map — the layout the
        // compact index replaced): identical per-candidate counts
        // (asserted in setup), single-thread, so the pair isolates what
        // the layout change buys the scoring scan on any host.
        let mut compact = DcCounter::build(&naive_ord);
        let mut rowmap = ScanIndexRef::new(&naive_ord);
        for i in 0..d.instance.n_rows() {
            let cand = CandidateRow::committed(&d.instance, i, gain);
            compact.insert(&cand);
            rowmap.insert(&cand);
        }
        for &v in &values {
            let cand = cell.with(v);
            assert_eq!(
                compact.count_new(&cand),
                rowmap.count_new(&cand),
                "compact scan diverged from the row-map reference"
            );
        }
        g.bench_function("scan_count_rowmap_ref_n2000_d64", |b| {
            b.iter(|| {
                let mut total = 0;
                for &v in &values {
                    total += rowmap.count_new(&cell.with(v));
                }
                black_box(total)
            })
        });
        g.bench_function("scan_count_compact_n2000_d64", |b| {
            b.iter(|| {
                let mut total = 0;
                for &v in &values {
                    total += compact.count_new(&cell.with(v));
                }
                black_box(total)
            })
        });
    }

    // A grouped strict-order DC (Tax φ₆ᵗ: same state ∧ salary↑ ∧ rate↓)
    // through the partitioned layout, which scans only the candidate's
    // state partition with two integer compares per row. Counts match the
    // row-map twin (asserted in setup); set beside
    // `scan_count_rowmap_ref_n2000_d64`, it shows what the order layout
    // buys over a full-prefix scan at the same n and candidate count.
    {
        let tax = tax_like(2_000, 1);
        let phi6 = tax
            .dcs
            .iter()
            .find(|dc| dc.name == "phi_t6")
            .expect("Tax carries phi_t6");
        let rate = tax.schema.index_of("rate").unwrap();
        let mut grouped = DcCounter::build(phi6);
        let mut rowmap = ScanIndexRef::new(phi6);
        for i in 0..tax.instance.n_rows() {
            let cand = CandidateRow::committed(&tax.instance, i, rate);
            grouped.insert(&cand);
            rowmap.insert(&cand);
        }
        let cell = CellContext::new(&tax.instance, tax.instance.n_rows() - 1, rate);
        let values: Vec<Value> = (0..64)
            .map(|k| Value::Num(k as f64 * 10.0 / 63.0))
            .collect();
        for &v in &values {
            let cand = cell.with(v);
            assert_eq!(
                grouped.count_new(&cand),
                rowmap.count_new(&cand),
                "order layout diverged from the row-map reference"
            );
        }
        g.bench_function("scan_count_order_grouped_n2000_d64", |b| {
            b.iter(|| {
                let mut total = 0;
                for &v in &values {
                    total += grouped.count_new(&cell.with(v));
                }
                black_box(total)
            })
        });
    }

    // Tiled (register-blocked) matvec vs. the naive reference on a
    // 256×256 weight: a single-thread algorithmic pair — the tiled kernel
    // is bit-identical (asserted in setup) and should win on any host.
    {
        use kamino_nn::linalg::{matvec, matvec_ref};
        let dim = 256;
        let mut rng = StdRng::seed_from_u64(5);
        let w: Vec<f64> = (0..dim * dim).map(|_| rng.gen::<f64>() - 0.5).collect();
        let x: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() - 0.5).collect();
        let mut y_t = vec![0.0; dim];
        let mut y_r = vec![0.0; dim];
        matvec(&w, &x, &mut y_t);
        matvec_ref(&w, &x, &mut y_r);
        assert!(
            y_t.iter()
                .zip(&y_r)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "tiled matvec must be bit-identical to the reference"
        );
        g.bench_function("matvec_ref_256x256", |b| {
            b.iter(|| {
                matvec_ref(black_box(&w), black_box(&x), &mut y_r);
                black_box(&y_r);
            })
        });
        g.bench_function("matvec_tiled_256x256", |b| {
            b.iter(|| {
                matvec(black_box(&w), black_box(&x), &mut y_t);
                black_box(&y_t);
            })
        });
    }

    // One DP-SGD step on a dense 64×64 model over a 256-example batch:
    // fused clip-and-accumulate vs. the three-pass reference kernel. Same
    // gradients to the bit (pinned by a test in kamino_nn::optim), fewer
    // traversals of every gradient buffer.
    {
        let dim = 64;
        let mut rng = StdRng::seed_from_u64(7);
        let batch: Vec<Vec<f64>> = (0..256)
            .map(|_| (0..dim).map(|_| rng.gen::<f64>() - 0.5).collect())
            .collect();
        let opt = DpSgd {
            clip: 1.0,
            noise_multiplier: 1.1,
            lr: 0.05,
            expected_batch: 256.0,
        };
        g.bench_function("dpsgd_step_reference_b256_d64x64", |b| {
            let mut model = DenseModel::new(dim);
            let mut rng = StdRng::seed_from_u64(8);
            b.iter(|| black_box(opt.step_reference(&mut model, &batch, &mut rng)))
        });
        g.bench_function("dpsgd_step_fused_b256_d64x64", |b| {
            let mut model = DenseModel::new(dim);
            let mut rng = StdRng::seed_from_u64(8);
            b.iter(|| black_box(opt.step(&mut model, &batch, &mut rng)))
        });
    }

    // The same step on the embedding-context model: 256 examples over a
    // 500×16 table (TPC-H's `c_custkey`). The fused kernel visits one
    // table row per example; the all-dense reference visits all 500.
    {
        let mut rng = StdRng::seed_from_u64(10);
        let batch: Vec<(u32, usize)> = (0..256)
            .map(|_| (rng.gen_range(0..500u32), rng.gen_range(0..5usize)))
            .collect();
        let opt = DpSgd {
            clip: 1.0,
            noise_multiplier: 1.1,
            lr: 0.05,
            expected_batch: 256.0,
        };
        let (mut fused, mut reference) = (EmbedModel::new(500, 16, 5), EmbedModel::new(500, 16, 5));
        let (mut rf, mut rr) = (StdRng::seed_from_u64(12), StdRng::seed_from_u64(12));
        for _ in 0..3 {
            opt.step(&mut fused, &batch, &mut rf);
            opt.step_reference(&mut reference, &batch, &mut rr);
        }
        assert!(
            fused
                .emb
                .table
                .values
                .iter()
                .zip(&reference.emb.table.values)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "row-sparse DP-SGD step must be bit-identical to the dense reference"
        );
        g.bench_function("dpsgd_step_reference_embed_card500_d16", |b| {
            let mut model = EmbedModel::new(500, 16, 5);
            let mut rng = StdRng::seed_from_u64(8);
            b.iter(|| black_box(opt.step_reference(&mut model, &batch, &mut rng)))
        });
        g.bench_function("dpsgd_step_fused_embed_card500_d16", |b| {
            let mut model = EmbedModel::new(500, 16, 5);
            let mut rng = StdRng::seed_from_u64(8);
            b.iter(|| black_box(opt.step(&mut model, &batch, &mut rng)))
        });
    }

    // Synthesis: one trained model, the full Algorithm 3 column walk at
    // n = 512, with the hard-DC guarantee asserted before timing.
    {
        use kamino_core::{synthesize, train_model, KaminoConfig, PhaseTimings, TrainConfig};
        use kamino_dp::Budget;

        let dsmall = adult_like(512, 3);
        let sequence = kamino_core::sequence_attrs(&dsmall.schema, &dsmall.dcs);
        let tc = TrainConfig {
            iters: 40,
            embed_dim: 8,
            ..TrainConfig::default()
        };
        let model = train_model(&dsmall.schema, &dsmall.instance, &sequence, &tc);
        let weights = vec![f64::INFINITY; dsmall.dcs.len()];
        let cfg = KaminoConfig::new(Budget::non_private());
        let draw = |rng: &mut StdRng| {
            let mut timings = PhaseTimings::default();
            synthesize(
                &dsmall.schema,
                &model,
                &dsmall.dcs,
                &weights,
                &cfg,
                512,
                rng,
                &mut timings,
            )
        };
        let out = draw(&mut StdRng::seed_from_u64(11));
        for dc in &dsmall.dcs {
            assert_eq!(count_violating_pairs(dc, &out), 0, "{} violated", dc.name);
        }
        g.bench_function("synthesize_serial_n512", |b| {
            let mut rng = StdRng::seed_from_u64(11);
            b.iter(|| black_box(draw(&mut rng)))
        });
    }

    // Prediction: every cell of a 1,000-row BR2000 draw (the
    // `draw_br2000` shape) re-predicted from its row's prefix, per cell
    // through the reference composition and per column through one
    // `ColumnPredictor`; the two agree to the bit (asserted in setup).
    {
        use kamino_core::model::{ColumnPredictor, Head, SubModelKind};
        use kamino_core::{fit_kamino, KaminoConfig, SubModel};
        use kamino_dp::Budget;

        let data = kamino_datasets::br2000_like(5_000, 1);
        let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
        cfg.seed = 1;
        let mut session = fit_kamino(&data.schema, &data.instance, &data.dcs, &cfg);
        let drawn = session.sample(1_000);
        let model = session.model();
        // (sub-model, numeric target, one context row per drawn row)
        let columns: Vec<(&SubModel, bool, Vec<Vec<Value>>)> = (1..model.sequence.len())
            .filter_map(|j| {
                let sm = model.submodel_at(j);
                let SubModelKind::Discriminative { head, .. } = &sm.kind else {
                    return None;
                };
                let rows = (0..drawn.n_rows())
                    .map(|i| {
                        model.sequence[..j]
                            .iter()
                            .map(|&a| drawn.value(i, a))
                            .collect()
                    })
                    .collect();
                Some((sm, matches!(head, Head::Num(_)), rows))
            })
            .collect();
        let reference = |out: &mut Vec<u64>| {
            out.clear();
            for (sm, _, rows) in &columns {
                for ctx in rows {
                    reference_predict(sm, &model.store, ctx, out);
                }
            }
        };
        let predictor = |out: &mut Vec<u64>| {
            out.clear();
            for (sm, numeric, rows) in &columns {
                let mut p = ColumnPredictor::new(sm, &model.store);
                for ctx in rows {
                    if *numeric {
                        let (mu, sigma) = p.predict_num(ctx);
                        out.extend([mu.to_bits(), sigma.to_bits()]);
                    } else {
                        out.extend(p.predict_cat(ctx).iter().map(|x| x.to_bits()));
                    }
                }
            }
        };
        let (mut want, mut got) = (Vec::new(), Vec::new());
        reference(&mut want);
        predictor(&mut got);
        assert!(!want.is_empty());
        assert_eq!(want, got, "the column predictor must be bit-identical");
        g.bench_function("predict_column_reference_br2000", |b| {
            b.iter(|| {
                reference(&mut want);
                black_box(&want);
            })
        });
        g.bench_function("predict_column_predictor_br2000", |b| {
            b.iter(|| {
                predictor(&mut got);
                black_box(&got);
            })
        });
    }

    {
        // The vector Gaussian mechanism (Marsaglia polar pairs, both
        // outputs used) against a scalar Box–Muller loop over the same
        // 17k coordinates at the same noise std.
        const N: usize = 17_000;
        let (sensitivity, sigma) = (1.0, 1.1);
        g.bench_function("gaussian_noise_polar_pairs_17k", |b| {
            let mut rng = StdRng::seed_from_u64(13);
            let mut values = vec![0.0; N];
            b.iter(|| {
                add_gaussian_noise(&mut values, sensitivity, sigma, &mut rng);
                black_box(&values);
            })
        });
        g.bench_function("gaussian_noise_box_muller_17k", |b| {
            let mut rng = StdRng::seed_from_u64(13);
            let mut values = vec![0.0; N];
            b.iter(|| {
                for v in values.iter_mut() {
                    *v += sensitivity * sigma * standard_normal(&mut rng);
                }
                black_box(&values);
            })
        });
    }

    g.bench_function("rdp_accountant_5000_sgm_steps", |b| {
        b.iter(|| {
            let mut acc = RdpAccountant::new();
            acc.add_sgm(1.1, 0.001, 5_000);
            black_box(acc.epsilon(1e-6))
        })
    });
    // Algorithm 6's whole σ search on fit_tpch's shape: TPC-H at n = 5000,
    // 7 DP-SGD sub-models, 2 histogram releases, ε = 1
    let tpch = SearchShape {
        n: 5_000,
        n_sgd_models: 7,
        n_marginal_releases: 2,
        first_attr_domain: 16,
        weights_unknown: false,
        train_scale: 1.0,
    };
    g.bench_function("search_params_tpch_shape", |b| {
        b.iter(|| black_box(search_params(Budget::new(1.0, 1e-6), tpch)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
