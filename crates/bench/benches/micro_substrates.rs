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
//! `dpsgd_step_{fused,reference}` pair documents that the fused
//! clip-accumulate is at worst cost-neutral on a dense single-block model
//! (the traversal it eliminates is a memset; the win grows with block
//! count) while staying bit-identical. `synthesize_serial_n512` times the
//! full Algorithm 3 column walk (hard-DC clean, asserted in setup).

use criterion::{criterion_group, criterion_main, Criterion};
use kamino_constraints::{
    count_violating_pairs, parse_dc, CandidateRow, CellContext, DcCounter, Hardness, ScanIndexRef,
    ScoreSet,
};
use kamino_data::Value;
use kamino_datasets::{adult_like, tax_like};
use kamino_dp::RdpAccountant;
use kamino_nn::{DpSgd, ParamBlock, PerExampleModel};
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

    // One DP-SGD step on a dense 64×64 model over a 256-example batch
    // (16 microbatches): fused clip-and-accumulate vs. the two-pass
    // reference kernel. Same gradients to the bit (pinned by a test in
    // kamino_nn::optim), fewer traversals of every gradient buffer.
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

    g.bench_function("rdp_accountant_5000_sgm_steps", |b| {
        b.iter(|| {
            let mut acc = RdpAccountant::new();
            acc.add_sgm(1.1, 0.001, 5_000);
            black_box(acc.epsilon(1e-6))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
