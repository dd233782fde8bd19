//! The paper-reproduction harness behind the `kamino-repro` binary.
//!
//! Runs the §7 evaluation as an experiment matrix — every cell is one
//! `(dataset, ε, synthesizer)` triple taken end-to-end: fit, synthesize,
//! then score with the `kamino-eval` stack (Metric I Ψ violation rates
//! per DC, Metric II downstream classifier accuracy/F1, Metric III
//! total-variation distance on 1-/2-way marginals). Cells are mutually
//! independent, so the matrix runs them concurrently on scoped threads;
//! results are collected by cell index, so output order (and content) is
//! deterministic regardless of scheduling.
//!
//! The experiments that are not a point of the dataset × ε × method grid
//! — the Table 3 ablations, accept–reject and MCMC sampling, the Exp 10
//! optimizations, Fig 1's repaired baselines and Fig 8's DC-count axis —
//! are [`Study`] cells: extra `(dataset, ε, method)` triples listed in
//! [`ReproConfig::studies`], run by the same pool and scored the same way.
//!
//! ## Snapshot cache
//!
//! Kamino cells dominate wall-clock through their DP-SGD fit. The fit is
//! fully determined by `(dataset, ε, seed, config)`, so the harness
//! persists each fitted session as a `.kamino` snapshot (via
//! [`kamino_serve::save_fitted`]) keyed by the dataset id, ε, seed,
//! [`kamino_core::FIT_REVISION`] and [`KaminoConfig::stable_hash`] — which
//! covers every Kamino variant's knobs, so each variant caches separately,
//! while the revision keeps a cache warmed by an older fit procedure from
//! being served. A re-run — or a sweep that
//! shares cells with a previous run — loads the snapshot and skips the
//! fit entirely. Snapshots are written *before* sampling, so a cached
//! session resumes the exact RNG cursor a fresh fit would have: cached
//! and uncached runs produce byte-identical results.
//!
//! ## Artifacts
//!
//! * `BENCH_repro.json` — machine-readable cell results, deterministic
//!   key order and content, diffable across PRs. Wall-clock fields are
//!   only included when
//!   explicitly requested (`--timings`), because timing noise would break
//!   byte-for-byte diffability.
//! * `REPRODUCTION.md` — markdown tables mirroring the paper's Table 2 /
//!   figure layout per dataset, plus a "vs. paper" table with deltas
//!   against paper-reported reference numbers and a pass/fail tolerance
//!   column, and a "Studies" table when any study cells ran.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use kamino_baselines::{DpVae, Independent, NistPgm, PateGan, PrivBayes, Synthesizer};
use kamino_constraints::discovery::discover_approximate_dcs;
use kamino_core::{fit_kamino, KaminoConfig, PhaseTimings, SamplingRule, FIT_REVISION};
use kamino_datasets::{Corpus, Dataset};
use kamino_dp::Budget;
use kamino_eval::classifiers::Classifier;
use kamino_eval::clean::repair;
use kamino_eval::tasks::evaluate_classification_with;
use kamino_eval::{tvd_all_pairs, tvd_all_singles, violation_table};
use kamino_obs::ObsHandle;
use kamino_serve::Json;

/// The δ every cell runs at (the paper's default).
pub const DELTA: f64 = 1e-6;

/// Ψ tolerance (percentage points) for the vs-paper pass/fail column:
/// pass when our violation total is at most the paper's plus this.
pub const TOL_PSI_PP: f64 = 5.0;

/// Accuracy tolerance for the vs-paper pass/fail column: pass when our
/// mean accuracy is at least the paper's minus this.
pub const TOL_ACCURACY: f64 = 0.15;

/// A synthesizer the matrix can run: Kamino or one of its §7 variants
/// (all snapshot-cached), a §7 baseline, or a baseline whose output is
/// repaired post hoc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MethodKind {
    /// Full Kamino (Algorithm 1) through the session pipeline.
    Kamino,
    /// Kamino with a random attribute sequence (Table 3 "RandSequence").
    RandSequence,
    /// Kamino sampling i.i.d. from its model (Table 3 "RandSampling").
    RandSampling,
    /// Both ablations at once (Table 3 "RandBoth").
    RandBoth,
    /// Kamino with accept–reject sampling instead of Algorithm 3 (Exp 6).
    AcceptReject,
    /// Kamino plus `m = ratio · n` constrained-MCMC re-samples (Fig 9).
    Mcmc(f64),
    /// Kamino with the hard-FD lookup fast path (Exp 10b).
    HardFdLookup,
    /// Kamino training sub-models in parallel with fresh embeddings
    /// (Exp 10a).
    ParallelTraining,
    /// PrivBayes (Zhang et al.).
    PrivBayes,
    /// The NIST-challenge PGM recipe (McKenna et al.).
    Nist,
    /// DP-VAE (Chen et al.).
    DpVae,
    /// PATE-GAN (Jordon et al.).
    PateGan,
    /// Independent noisy histograms (the floor).
    Independent,
    /// A baseline's output passed through [`kamino_eval::clean::repair`]
    /// (Fig 1's "cleaned" arm).
    Repaired(&'static MethodKind),
}

impl MethodKind {
    /// Display name matching the paper's tables.
    pub fn name(self) -> String {
        match self {
            MethodKind::Kamino => "Kamino".into(),
            MethodKind::RandSequence => "RandSequence".into(),
            MethodKind::RandSampling => "RandSampling".into(),
            MethodKind::RandBoth => "RandBoth".into(),
            MethodKind::AcceptReject => "Kamino-AR".into(),
            MethodKind::Mcmc(ratio) => format!("Kamino-MCMC{ratio}"),
            MethodKind::HardFdLookup => "Kamino-FDLookup".into(),
            MethodKind::ParallelTraining => "Kamino-Parallel".into(),
            MethodKind::PrivBayes => "PrivBayes".into(),
            MethodKind::Nist => "NIST".into(),
            MethodKind::DpVae => "DP-VAE".into(),
            MethodKind::PateGan => "PATE-GAN".into(),
            MethodKind::Independent => "Independent".into(),
            MethodKind::Repaired(base) => format!("{}-repaired", base.name()),
        }
    }

    /// Whether the method runs through the fit/snapshot pipeline (Kamino
    /// and its variants) rather than as a baseline.
    pub fn is_kamino(self) -> bool {
        matches!(
            self,
            MethodKind::Kamino
                | MethodKind::RandSequence
                | MethodKind::RandSampling
                | MethodKind::RandBoth
                | MethodKind::AcceptReject
                | MethodKind::Mcmc(_)
                | MethodKind::HardFdLookup
                | MethodKind::ParallelTraining
        )
    }

    /// Runs a baseline (harness-scale step counts) and, for a
    /// [`MethodKind::Repaired`] arm, repairs its output against the
    /// dataset's DCs.
    ///
    /// # Panics
    ///
    /// On a Kamino-family method, which runs through the snapshot cache.
    fn synthesize_baseline(
        self,
        d: &Dataset,
        budget: Budget,
        rows: usize,
        seed: u64,
    ) -> kamino_data::Instance {
        let synth: Box<dyn Synthesizer> = match self {
            MethodKind::PrivBayes => Box::new(PrivBayes::default()),
            MethodKind::Nist => Box::new(NistPgm::default()),
            MethodKind::DpVae => Box::new(DpVae {
                steps: 200,
                ..DpVae::default()
            }),
            MethodKind::PateGan => Box::new(PateGan {
                steps: 120,
                ..PateGan::default()
            }),
            MethodKind::Independent => Box::new(Independent),
            MethodKind::Repaired(base) => {
                let raw = base.synthesize_baseline(d, budget, rows, seed);
                return repair(&d.schema, &raw, &d.dcs);
            }
            kamino => unreachable!("{} runs through the snapshot cache", kamino.name()),
        };
        synth.synthesize(&d.schema, &d.instance, budget, rows, seed)
    }
}

/// A dataset the harness scores on: a generated corpus, optionally with
/// its DC list replaced by approximate DCs discovered on the corpus
/// itself (Fig 8's DC-count axis; discovered DCs are soft).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// The generated corpus.
    pub corpus: Corpus,
    /// `Some(k)`: score under `k` discovered soft DCs instead of the
    /// corpus's own.
    pub discovered_dcs: Option<usize>,
}

impl DatasetSpec {
    /// The corpus with its own DCs.
    pub fn plain(corpus: Corpus) -> DatasetSpec {
        DatasetSpec {
            corpus,
            discovered_dcs: None,
        }
    }

    /// The id cells and cache paths carry: the corpus id, suffixed with
    /// `-dcs{k}` for discovered DC sets. The suffix is load-bearing —
    /// the DC list is a fit input, not a config field, so
    /// [`KaminoConfig::stable_hash`] cannot tell these fits apart.
    pub fn id(self) -> String {
        match self.discovered_dcs {
            None => self.corpus.id().to_string(),
            Some(k) => format!("{}-dcs{k}", self.corpus.id()),
        }
    }

    fn generate(self, rows: usize, seed: u64) -> Dataset {
        let mut d = self.corpus.generate(rows, seed);
        if let Some(k) = self.discovered_dcs {
            d.dcs = discover_approximate_dcs(&d.schema, &d.instance, k, 25.0)
                .into_iter()
                .map(|found| found.dc)
                .collect();
            d.name = self.id();
        }
        d
    }
}

/// One study cell: a `(dataset, ε, method)` triple outside the matrix
/// grid, tagged with the paper figure or table it reproduces.
#[derive(Debug, Clone, Copy)]
pub struct Study {
    /// The paper figure or table (the Studies table's first column).
    pub paper: &'static str,
    /// The dataset.
    pub dataset: DatasetSpec,
    /// The budget (`f64::INFINITY` for the non-private ε = ∞).
    pub epsilon: f64,
    /// The synthesizer.
    pub method: MethodKind,
}

/// The §7 experiments that are not points of the matrix grid, as study
/// cells. Rows whose triple is already a matrix cell (or an earlier
/// study) are scored once and shown under every study that lists them.
fn paper_studies() -> Vec<Study> {
    use MethodKind::*;
    let adult = DatasetSpec::plain(Corpus::Adult);
    let mut studies = Vec::new();
    let mut add = |paper, dataset, epsilon, method| {
        studies.push(Study {
            paper,
            dataset,
            epsilon,
            method,
        })
    };
    for method in [Kamino, RandSequence, RandSampling, RandBoth] {
        add("Table 3 / Fig 5", adult, 1.0, method);
    }
    for corpus in [Corpus::Adult, Corpus::Br2000] {
        for method in [Kamino, AcceptReject] {
            add("Exp 6", DatasetSpec::plain(corpus), 1.0, method);
        }
    }
    for method in [Kamino, Mcmc(0.5), Mcmc(1.0), Mcmc(2.0), Mcmc(3.0)] {
        add("Fig 9", adult, 1.0, method);
    }
    for method in [Kamino, ParallelTraining] {
        add("Exp 10a", adult, 1.0, method);
    }
    for method in [Kamino, HardFdLookup] {
        add("Exp 10b", DatasetSpec::plain(Corpus::TpcH), 1.0, method);
    }
    for epsilon in [1.0, f64::INFINITY] {
        for base in [&PrivBayes, &PateGan, &DpVae] {
            add("Fig 1", adult, epsilon, *base);
            add("Fig 1", adult, epsilon, Repaired(base));
        }
    }
    for k in [2, 4, 8, 16, 32, 64, 128] {
        let dataset = DatasetSpec {
            corpus: Corpus::Adult,
            discovered_dcs: Some(k),
        };
        add("Fig 8", dataset, 1.0, Kamino);
    }
    studies
}

/// Matrix configuration. Build with [`ReproConfig::fast`] (CI-sized:
/// subsampled corpora, 2-point ε grid, Kamino + 2 baselines, no studies)
/// or [`ReproConfig::full`] (the offline default: all four corpora, the
/// full ε grid, Kamino + every baseline, every §7 study), then adjust
/// fields.
#[derive(Debug, Clone)]
pub struct ReproConfig {
    /// `"fast"` or `"full"` — recorded in the artifacts.
    pub mode: &'static str,
    /// Master seed: corpus generation, fits and evaluation derive from it.
    pub seed: u64,
    /// Rows per generated corpus (and rows synthesized per cell).
    pub rows: usize,
    /// The ε grid, ascending.
    pub epsilons: Vec<f64>,
    /// Corpora under evaluation.
    pub datasets: Vec<Corpus>,
    /// Synthesizer roster.
    pub methods: Vec<MethodKind>,
    /// Study cells run after the matrix (the experiments off its grid).
    pub studies: Vec<Study>,
    /// Worker threads for the cell pool (cells are independent).
    pub threads: usize,
    /// Directory for cached `.kamino` fit snapshots.
    pub cache_dir: PathBuf,
    /// Kamino DP-SGD iteration scale (quality knob, privacy-safe).
    pub train_scale: f64,
    /// Include wall-clock fields in the artifacts. Off by default: the
    /// artifacts are byte-for-byte diffable only without timings.
    pub timings: bool,
    /// Observability sink shared by every cell (spans, fit phases, the
    /// DP budget ledger), and the only clock the run reads: every
    /// wall-clock figure is a span duration, so with it disabled they
    /// are all zero. Disabled by default (the `kamino-repro` binary
    /// always enables it); enabling it must not — and does not — change
    /// a single artifact byte (CI re-asserts this).
    pub obs: ObsHandle,
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl ReproConfig {
    /// CI-sized matrix: Adult + Tax, ε ∈ {0.4, 1.0}, Kamino + PrivBayes +
    /// Independent, small corpora. Finishes in minutes.
    pub fn fast(seed: u64) -> ReproConfig {
        ReproConfig {
            mode: "fast",
            seed,
            rows: 2000,
            epsilons: vec![0.4, 1.0],
            datasets: vec![Corpus::Adult, Corpus::Tax],
            methods: vec![
                MethodKind::Kamino,
                MethodKind::PrivBayes,
                MethodKind::Independent,
            ],
            studies: Vec::new(),
            threads: default_threads(),
            cache_dir: PathBuf::from("target/repro-cache"),
            train_scale: 0.05,
            timings: false,
            obs: ObsHandle::disabled(),
        }
    }

    /// The offline default: all four corpora, ε ∈ {0.2, 0.4, 1.0, 2.0},
    /// Kamino + all four baselines + the independent floor, plus the
    /// study cells of Table 3 / Fig 5, Exp 6, Figs 1, 8 and 9 and Exp 10.
    pub fn full(seed: u64) -> ReproConfig {
        ReproConfig {
            mode: "full",
            seed,
            rows: 800,
            epsilons: vec![0.2, 0.4, 1.0, 2.0],
            datasets: Corpus::all().to_vec(),
            methods: vec![
                MethodKind::Kamino,
                MethodKind::PrivBayes,
                MethodKind::Nist,
                MethodKind::DpVae,
                MethodKind::PateGan,
                MethodKind::Independent,
            ],
            studies: paper_studies(),
            threads: default_threads(),
            cache_dir: PathBuf::from("target/repro-cache"),
            train_scale: 0.4,
            timings: false,
            obs: ObsHandle::disabled(),
        }
    }

    /// The Kamino pipeline configuration for one cell — shared by the
    /// fit and by the cache key, with the variant's knobs applied (a
    /// baseline gets the plain Kamino config).
    pub fn kamino_config(&self, epsilon: f64, method: MethodKind) -> KaminoConfig {
        let mut cfg = KaminoConfig::new(Budget::new(epsilon, DELTA));
        cfg.seed = self.seed;
        cfg.train_scale = self.train_scale;
        cfg.embed_dim = 12;
        cfg.lr = 0.25;
        cfg.obs = self.obs.clone();
        match method {
            MethodKind::RandSequence => cfg.constraint_aware_sequencing = false,
            MethodKind::RandSampling => cfg.sampling = SamplingRule::RandSampling,
            MethodKind::RandBoth => {
                cfg.constraint_aware_sequencing = false;
                cfg.sampling = SamplingRule::RandSampling;
            }
            MethodKind::AcceptReject => cfg.sampling = SamplingRule::AcceptReject,
            MethodKind::Mcmc(ratio) => cfg.mcmc_ratio = ratio,
            MethodKind::HardFdLookup => {
                cfg.sampling = SamplingRule::Algorithm3 {
                    hard_fd_lookup: true,
                }
            }
            MethodKind::ParallelTraining => cfg.parallel_training = true,
            _ => {}
        }
        cfg
    }

    /// The snapshot path for one Kamino-family cell:
    /// `{dataset}-n{rows}-eps{ε}-seed{seed}-r{FIT_REVISION}-{config_hash:016x}.kamino`.
    /// The row count is part of the key because it sizes the generated
    /// corpus the model was fitted on — the config hash alone cannot see
    /// it (the corpus is an input to the fit, not a config field). The
    /// fit revision is part of it because a cache warmed by a build whose
    /// fit made different bytes from the same config must not be served.
    pub fn cache_path(&self, dataset: &str, epsilon: f64, method: MethodKind) -> PathBuf {
        let hash = self.kamino_config(epsilon, method).stable_hash();
        self.cache_dir.join(format!(
            "{dataset}-n{}-eps{epsilon}-seed{}-r{FIT_REVISION}-{hash:016x}.kamino",
            self.rows, self.seed
        ))
    }

    /// The classifier roster Metric II runs with: 2 models in fast mode,
    /// the reduced five otherwise. Pinned per mode and read from no
    /// environment variable: the artifacts must be byte-identical for a
    /// given config across hosts.
    fn classifier_roster(&self) -> Vec<Box<dyn Classifier>> {
        use kamino_eval::classifiers::{
            BernoulliNb, DecisionTree, LogisticRegression, RandomForest, XgbLite,
        };
        if self.mode == "fast" {
            vec![
                Box::new(LogisticRegression::default()),
                Box::new(DecisionTree::default()),
            ]
        } else {
            let mut forest = RandomForest::default();
            forest.n_trees = 8;
            let mut xgb = XgbLite::default();
            xgb.rounds = 15;
            vec![
                Box::new(LogisticRegression::default()),
                Box::new(DecisionTree::default()),
                Box::new(forest),
                Box::new(xgb),
                Box::new(BernoulliNb::default()),
            ]
        }
    }
}

/// Whether a cell's fit came from the snapshot cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Loaded from a `.kamino` snapshot — the DP-SGD fit was skipped.
    Hit,
    /// Fitted fresh (and the snapshot was written for next time).
    Miss,
    /// Baselines are not snapshot-cached.
    NotCached,
}

/// One scored experiment cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Dataset id (`adult`, `br2000`, `tax`, `tpch`, or a study id such
    /// as `adult-dcs16`).
    pub dataset: String,
    /// Synthesizer name.
    pub method: String,
    /// The requested ε.
    pub epsilon: f64,
    /// The ε Kamino actually spent (planner-composed); `None` for
    /// baselines, which calibrate internally to the full budget.
    pub achieved_epsilon: Option<f64>,
    /// Per-DC `(name, truth %, synth %)` violation rates (Metric I).
    pub psi: Vec<(String, f64, f64)>,
    /// Mean 1-way marginal TVD over attributes (Metric III).
    pub tvd1_mean: f64,
    /// Max 1-way marginal TVD over attributes.
    pub tvd1_max: f64,
    /// Mean 2-way marginal TVD over attribute pairs.
    pub tvd2_mean: f64,
    /// Mean classifier accuracy over attributes × models (Metric II).
    pub accuracy: f64,
    /// Mean classifier F1 over attributes × models.
    pub f1: f64,
    /// Cache disposition of the fit.
    pub cache: CacheStatus,
    /// Cell wall-clock (fit-or-load + synthesize + score), seconds: the
    /// duration of the cell's `repro.cell` span. Only surfaced in
    /// artifacts when [`ReproConfig::timings`] is set.
    pub seconds: f64,
    /// Kamino-family cells: the fit phases as recorded when the model was
    /// fitted (a cache hit reports the cached fit's), plus this cell's
    /// sampling time — all span-derived, so zero if the fit or the draw
    /// ran without a handle. Only surfaced with [`ReproConfig::timings`].
    pub phases: Option<PhaseTimings>,
}

impl CellResult {
    /// Total synthetic violation percentage across DCs — the scalar the
    /// vs-paper table compares.
    pub fn psi_total(&self) -> f64 {
        self.psi.iter().map(|(_, _, s)| s).sum()
    }
}

/// Everything one matrix run produced.
#[derive(Debug)]
pub struct MatrixReport {
    /// Cell results in matrix order (dataset-major, then ε, then method),
    /// then the study cells in [`ReproConfig::studies`] order.
    pub cells: Vec<CellResult>,
    /// Snapshot-cache hits across Kamino-family cells.
    pub cache_hits: usize,
    /// Snapshot-cache misses (fresh fits) across Kamino-family cells.
    pub cache_misses: usize,
    /// Number of Kamino-family (snapshot-cached) cells; always
    /// `cache_hits + cache_misses`.
    pub kamino_cells: usize,
    /// End-to-end wall-clock of the run, seconds: the duration of the
    /// `repro.matrix` span.
    pub total_seconds: f64,
}

/// One cell's coordinates: an index into [`dataset_specs`], ε, method.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    dataset: usize,
    epsilon: f64,
    method: MethodKind,
}

/// Every dataset a run scores on: the matrix corpora, then each study
/// dataset not already among them, in first-use order.
fn dataset_specs(cfg: &ReproConfig) -> Vec<DatasetSpec> {
    let mut specs: Vec<DatasetSpec> = cfg
        .datasets
        .iter()
        .map(|&c| DatasetSpec::plain(c))
        .collect();
    for study in &cfg.studies {
        if !specs.contains(&study.dataset) {
            specs.push(study.dataset);
        }
    }
    specs
}

/// Enumerates the cells in deterministic order: the matrix dataset-major,
/// then ε ascending, then the configured method order; then each study
/// whose triple is not already a cell.
fn enumerate_cells(cfg: &ReproConfig) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(
        cfg.datasets.len() * cfg.epsilons.len() * cfg.methods.len() + cfg.studies.len(),
    );
    for d in 0..cfg.datasets.len() {
        for &epsilon in &cfg.epsilons {
            for &method in &cfg.methods {
                cells.push(Cell {
                    dataset: d,
                    epsilon,
                    method,
                });
            }
        }
    }
    let specs = dataset_specs(cfg);
    for study in &cfg.studies {
        let cell = Cell {
            dataset: specs
                .iter()
                .position(|s| *s == study.dataset)
                .expect("dataset_specs covers every study"),
            epsilon: study.epsilon,
            method: study.method,
        };
        if !cells.contains(&cell) {
            cells.push(cell);
        }
    }
    cells
}

/// Fits (or cache-loads) a Kamino-family method and synthesizes the
/// cell's rows, returning them with the achieved ε, the cache status and
/// the session's span-derived phase timings (a cache hit carries the
/// cached fit's). Snapshots are saved *before* sampling so the cached RNG
/// cursor equals the fresh-fit cursor — cached and uncached runs sample
/// identically.
fn draw_kamino_cell(
    d: &Dataset,
    cfg: &ReproConfig,
    epsilon: f64,
    method: MethodKind,
) -> (kamino_data::Instance, f64, CacheStatus, PhaseTimings) {
    let path = cfg.cache_path(&d.name, epsilon, method);
    let (mut session, status) = match kamino_serve::load_fitted(&path) {
        Ok(session) => (session, CacheStatus::Hit),
        Err(_) => {
            let kcfg = cfg.kamino_config(epsilon, method);
            let fitted = fit_kamino(&d.schema, &d.instance, &d.dcs, &kcfg);
            if let Err(e) = kamino_serve::save_fitted(&fitted, &path) {
                eprintln!(
                    "kamino-repro: cannot cache snapshot {}: {e}",
                    path.display()
                );
            }
            (fitted, CacheStatus::Miss)
        }
    };
    // snapshots carry no handle: re-attach the run's so cache hits trace
    // (and time) their draw like fresh fits
    session.set_obs(cfg.obs.clone());
    let achieved = session.achieved_epsilon();
    let synth = session.sample(cfg.rows);
    (synth, achieved, status, session.timings)
}

/// Runs one cell end-to-end and scores it. `truth_psi` is the dataset's
/// truth-side violation table, computed once per dataset in
/// [`run_matrix`] (it is O(n²) per DC and identical for every cell of
/// the dataset).
fn run_cell(d: &Dataset, truth_psi: &[(String, f64)], cfg: &ReproConfig, cell: Cell) -> CellResult {
    let mut span = cfg.obs.span("repro.cell");
    if span.is_active() {
        span.arg("dataset", d.name.clone());
        span.arg("method", cell.method.name());
        span.arg("epsilon", cell.epsilon.to_string());
    }
    let (synth, achieved, cache, phases) = if cell.method.is_kamino() {
        let (synth, achieved, cache, phases) = draw_kamino_cell(d, cfg, cell.epsilon, cell.method);
        (synth, Some(achieved), cache, Some(phases))
    } else {
        let budget = Budget::new(cell.epsilon, DELTA);
        let synth = cell
            .method
            .synthesize_baseline(d, budget, cfg.rows, cfg.seed);
        (synth, None, CacheStatus::NotCached, None)
    };

    let synth_psi = violation_table(&d.dcs, &synth);
    let psi = truth_psi
        .iter()
        .cloned()
        .zip(synth_psi)
        .map(|((name, t), (_, s))| (name, t, s))
        .collect();

    let tvd1 = tvd_all_singles(&d.schema, &d.instance, &synth);
    let tvd2 = tvd_all_pairs(&d.schema, &d.instance, &synth);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    // kamino-lint: allow(float_fold) -- max accumulator: 0.0 is the identity for max over non-negative values, not a sum seed
    let max = |xs: &[f64]| xs.iter().copied().fold(0.0f64, f64::max);

    let tasks = evaluate_classification_with(&d.schema, &d.instance, &synth, cfg.seed, || {
        cfg.classifier_roster()
    });

    CellResult {
        dataset: d.name.clone(),
        method: cell.method.name(),
        epsilon: cell.epsilon,
        achieved_epsilon: achieved,
        psi,
        tvd1_mean: mean(&tvd1),
        tvd1_max: max(&tvd1),
        tvd2_mean: mean(&tvd2),
        accuracy: tasks.mean_accuracy(),
        f1: tasks.mean_f1(),
        cache,
        seconds: span.finish().as_secs_f64(),
        phases,
    }
}

/// Runs the whole matrix and its studies: generates each dataset once,
/// then drains the cell list with a scoped-thread worker pool. Results
/// land in cell order regardless of which worker finishes first.
pub fn run_matrix(cfg: &ReproConfig) -> MatrixReport {
    let span = cfg.obs.span("repro.matrix");
    std::fs::create_dir_all(&cfg.cache_dir).ok();
    let datasets: Vec<Dataset> = dataset_specs(cfg)
        .into_iter()
        .map(|spec| spec.generate(cfg.rows, cfg.seed))
        .collect();
    let truth_psis: Vec<Vec<(String, f64)>> = datasets
        .iter()
        .map(|d| violation_table(&d.dcs, &d.instance))
        .collect();
    let cells = enumerate_cells(cfg);
    let results: Vec<Mutex<Option<CellResult>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    let workers = cfg.threads.clamp(1, cells.len().max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i).copied() else {
                    break;
                };
                let res = run_cell(
                    &datasets[cell.dataset],
                    &truth_psis[cell.dataset],
                    cfg,
                    cell,
                );
                *results[i].lock().unwrap() = Some(res);
            });
        }
    });

    let cells: Vec<CellResult> = results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("worker pool drained every cell")
        })
        .collect();
    let cache_hits = cells.iter().filter(|c| c.cache == CacheStatus::Hit).count();
    let cache_misses = cells
        .iter()
        .filter(|c| c.cache == CacheStatus::Miss)
        .count();
    let kamino_cells = cells
        .iter()
        .filter(|c| c.cache != CacheStatus::NotCached)
        .count();
    MatrixReport {
        cells,
        cache_hits,
        cache_misses,
        kamino_cells,
        total_seconds: span.finish().as_secs_f64(),
    }
}

/// Paper-reported reference numbers the `REPRODUCTION.md` deltas compare
/// against: the total Ψ violation percentage and mean downstream accuracy
/// at ε = 1 (Table 2 and Figures 3–5 of the paper).
///
/// These are **transcribed approximations of the published magnitudes**,
/// not re-measured ground truth: the paper evaluates the real corpora at
/// full scale, while this harness runs seeded lookalike generators at
/// harness scale — which is why the pass/fail column carries generous
/// tolerances ([`TOL_PSI_PP`], [`TOL_ACCURACY`]) and is advisory.
pub mod paper_ref {
    /// Reference point for one `(dataset, method)` at ε = 1.
    #[derive(Debug, Clone, Copy)]
    // kamino-lint: allow(twin_drift) -- transcribed paper reference table, not a runtime parity twin
    pub struct PaperRef {
        /// Total Ψ violation percentage across the dataset's DCs.
        pub psi_total: f64,
        /// Mean downstream classifier accuracy.
        pub accuracy: f64,
    }

    /// Looks up the reference for `(dataset, method)`; `None` when the
    /// paper reports no number for the pair.
    pub fn reference(dataset: &str, method: &str) -> Option<PaperRef> {
        let (psi_total, accuracy) = match (dataset, method) {
            ("adult", "Kamino") => (0.05, 0.77),
            ("adult", "PrivBayes") => (13.5, 0.74),
            ("adult", "NIST") => (9.2, 0.72),
            ("adult", "DP-VAE") => (20.0, 0.70),
            ("adult", "PATE-GAN") => (27.0, 0.66),
            ("adult", "Independent") => (15.0, 0.65),
            ("br2000", "Kamino") => (1.0, 0.80),
            ("br2000", "PrivBayes") => (4.0, 0.78),
            ("br2000", "NIST") => (3.0, 0.76),
            ("br2000", "DP-VAE") => (6.0, 0.72),
            ("br2000", "PATE-GAN") => (8.0, 0.68),
            ("br2000", "Independent") => (5.0, 0.66),
            ("tax", "Kamino") => (0.1, 0.85),
            ("tax", "PrivBayes") => (11.0, 0.80),
            ("tax", "NIST") => (8.0, 0.78),
            ("tax", "DP-VAE") => (18.0, 0.74),
            ("tax", "PATE-GAN") => (25.0, 0.70),
            ("tax", "Independent") => (14.0, 0.68),
            ("tpch", "Kamino") => (0.05, 0.88),
            ("tpch", "PrivBayes") => (9.0, 0.82),
            ("tpch", "NIST") => (7.0, 0.80),
            ("tpch", "DP-VAE") => (15.0, 0.75),
            ("tpch", "PATE-GAN") => (20.0, 0.72),
            ("tpch", "Independent") => (12.0, 0.70),
            _ => return None,
        };
        Some(PaperRef {
            psi_total,
            accuracy,
        })
    }
}

/// Serializes a matrix run as the `BENCH_repro.json` document.
/// Deterministic: sorted object keys (the codec's `BTreeMap`), matrix
/// cell order, and no wall-clock fields unless `cfg.timings` is set.
pub fn to_json(report: &MatrixReport, cfg: &ReproConfig) -> Json {
    let cells = report
        .cells
        .iter()
        .map(|c| {
            let mut pairs = vec![
                ("dataset", Json::Str(c.dataset.clone())),
                ("method", Json::Str(c.method.clone())),
                ("epsilon", Json::Num(c.epsilon)),
                (
                    "achieved_epsilon",
                    c.achieved_epsilon.map_or(Json::Null, Json::Num),
                ),
                (
                    "psi",
                    Json::Arr(
                        c.psi
                            .iter()
                            .map(|(name, truth, synth)| {
                                Json::obj([
                                    ("dc", Json::Str(name.clone())),
                                    ("truth_pct", Json::Num(*truth)),
                                    ("synth_pct", Json::Num(*synth)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("psi_total", Json::Num(c.psi_total())),
                ("tvd1_mean", Json::Num(c.tvd1_mean)),
                ("tvd1_max", Json::Num(c.tvd1_max)),
                ("tvd2_mean", Json::Num(c.tvd2_mean)),
                ("accuracy", Json::Num(c.accuracy)),
                ("f1", Json::Num(c.f1)),
            ];
            if cfg.timings {
                pairs.push(("wall_seconds", Json::Num(c.seconds)));
                if let Some(p) = &c.phases {
                    pairs.push((
                        "phase_seconds",
                        Json::obj([
                            ("sequencing", Json::Num(p.sequencing.as_secs_f64())),
                            ("training", Json::Num(p.training.as_secs_f64())),
                            ("dc_weights", Json::Num(p.dc_weights.as_secs_f64())),
                            ("sampling", Json::Num(p.sampling.as_secs_f64())),
                        ]),
                    ));
                }
            }
            Json::obj(pairs)
        })
        .collect();

    let mut top = vec![
        ("schema_version", Json::Num(1.0)),
        ("mode", Json::Str(cfg.mode.to_string())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("rows", Json::Num(cfg.rows as f64)),
        ("delta", Json::Num(DELTA)),
        (
            "epsilons",
            Json::Arr(cfg.epsilons.iter().map(|&e| Json::Num(e)).collect()),
        ),
        (
            // the ids every cell's "dataset" field carries (matrix
            // corpora, then study datasets), so the manifest joins
            // against the cells
            "datasets",
            Json::Arr(
                dataset_specs(cfg)
                    .into_iter()
                    .map(|d| Json::Str(d.id()))
                    .collect(),
            ),
        ),
        (
            "methods",
            Json::Arr(cfg.methods.iter().map(|m| Json::Str(m.name())).collect()),
        ),
        ("cells", Json::Arr(cells)),
    ];
    if cfg.timings {
        top.push(("total_wall_seconds", Json::Num(report.total_seconds)));
    }
    Json::obj(top)
}

/// The grid ε closest to 1.0 — the point the vs-paper table compares at
/// (the paper's headline budget).
fn reference_epsilon(cfg: &ReproConfig) -> f64 {
    cfg.epsilons
        .iter()
        .copied()
        .min_by(|a, b| (a - 1.0).abs().total_cmp(&(b - 1.0).abs()))
        .unwrap_or(1.0)
}

/// Renders the generated `REPRODUCTION.md`: per-dataset Ψ / TVD /
/// accuracy tables across the ε grid, the vs-paper delta table, then the
/// Studies table when the config lists studies.
/// Deterministic for a fixed config (no timestamps; timings only when
/// requested).
pub fn render_markdown(report: &MatrixReport, cfg: &ReproConfig) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let eps_cols: Vec<String> = cfg.epsilons.iter().map(|e| format!("ε={e}")).collect();
    let cell = |dataset: &str, method: MethodKind, eps: f64| -> Option<&CellResult> {
        let method = method.name();
        report
            .cells
            .iter()
            .find(|c| c.dataset == dataset && c.method == method && c.epsilon == eps)
    };

    let _ = writeln!(out, "# Reproducing Kamino §7 — generated report\n");
    let _ = writeln!(
        out,
        "Generated by `kamino-repro` (do **not** edit by hand). \
         Mode: `{}` · seed {} · {} rows per corpus · δ = {DELTA:e}.\n",
        cfg.mode, cfg.seed, cfg.rows
    );
    let _ = writeln!(
        out,
        "Corpora are the seeded lookalike generators of `kamino-datasets` \
         (the originals are not redistributable), so absolute numbers differ \
         from the paper; the *structure* — which methods break which \
         constraints, and how utility orders across methods — is what this \
         report checks. See the tolerance notes in the final table.\n"
    );

    for corpus in &cfg.datasets {
        let dataset = corpus.id().to_string();
        let _ = writeln!(out, "## {}\n", corpus.name());

        // DC names come from any scored cell of this dataset.
        let dc_names: Vec<String> = report
            .cells
            .iter()
            .find(|c| c.dataset == dataset)
            .map(|c| c.psi.iter().map(|(name, _, _)| name.clone()).collect())
            .unwrap_or_default();

        // Metric I — the Table 2 shape: one row per DC × method.
        let _ = writeln!(
            out,
            "### Ψ — DC violation rate (% violating tuple pairs) · paper Table 2\n"
        );
        let _ = writeln!(out, "| DC | Method | Truth | {} |", eps_cols.join(" | "));
        let _ = writeln!(
            out,
            "|---|---|---|{}|",
            cfg.epsilons
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for (dc_idx, dc_name) in dc_names.iter().enumerate() {
            for method in &cfg.methods {
                let mut row = Vec::new();
                let mut truth = String::from("—");
                for &eps in &cfg.epsilons {
                    match cell(&dataset, *method, eps) {
                        Some(c) => {
                            truth = format!("{:.2}", c.psi[dc_idx].1);
                            row.push(format!("{:.2}", c.psi[dc_idx].2));
                        }
                        None => row.push("—".into()),
                    }
                }
                let _ = writeln!(
                    out,
                    "| {dc_name} | {} | {truth} | {} |",
                    method.name(),
                    row.join(" | ")
                );
            }
        }
        let _ = writeln!(out);

        // Metric III — marginals.
        for (title, pick) in [
            (
                "1-way marginal TVD (mean over attributes) · paper Figure 4",
                0usize,
            ),
            ("2-way marginal TVD (mean over pairs) · paper Figure 4", 1),
        ] {
            let _ = writeln!(out, "### {title}\n");
            let _ = writeln!(out, "| Method | {} |", eps_cols.join(" | "));
            let _ = writeln!(
                out,
                "|---|{}|",
                cfg.epsilons
                    .iter()
                    .map(|_| "---")
                    .collect::<Vec<_>>()
                    .join("|")
            );
            for method in &cfg.methods {
                let row: Vec<String> = cfg
                    .epsilons
                    .iter()
                    .map(|&eps| match cell(&dataset, *method, eps) {
                        Some(c) => {
                            format!("{:.4}", if pick == 0 { c.tvd1_mean } else { c.tvd2_mean })
                        }
                        None => "—".into(),
                    })
                    .collect();
                let _ = writeln!(out, "| {} | {} |", method.name(), row.join(" | "));
            }
            let _ = writeln!(out);
        }

        // Metric II — downstream classification.
        let _ = writeln!(
            out,
            "### Downstream classification accuracy (mean over attributes × models) · paper Figure 3\n"
        );
        let _ = writeln!(out, "| Method | {} |", eps_cols.join(" | "));
        let _ = writeln!(
            out,
            "|---|{}|",
            cfg.epsilons
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for method in &cfg.methods {
            let row: Vec<String> = cfg
                .epsilons
                .iter()
                .map(|&eps| match cell(&dataset, *method, eps) {
                    Some(c) => format!("{:.3}", c.accuracy),
                    None => "—".into(),
                })
                .collect();
            let _ = writeln!(out, "| {} | {} |", method.name(), row.join(" | "));
        }
        let _ = writeln!(out);
    }

    // vs-paper deltas at the headline budget.
    let ref_eps = reference_epsilon(cfg);
    let _ = writeln!(out, "## vs. paper-reported numbers (at ε = {ref_eps})\n");
    let _ = writeln!(
        out,
        "Reference values are transcribed approximations of the paper's \
         reported magnitudes at ε = 1 on the real corpora. `pass` means \
         ours is within tolerance of — or better than — the reference: \
         Ψ ≤ paper + {TOL_PSI_PP} pp, accuracy ≥ paper − {TOL_ACCURACY}. \
         Advisory at harness scale.\n"
    );
    if cfg.mode == "fast" {
        let _ = writeln!(
            out,
            "**This is a `--fast` (CI-sized) run** — subsampled corpora, a \
             reduced classifier roster and a short DP-SGD schedule. Utility \
             rows (accuracy, and Ψ for the i.i.d. baselines) are expected to \
             miss the paper's full-scale numbers here; the offline full \
             matrix is the fidelity check. The Kamino hard-constraint rows \
             (Ψ ≈ 0) should pass at any scale.\n"
        );
    }
    let _ = writeln!(
        out,
        "| Dataset | Method | Metric | Ours | Paper | Δ | Tolerance | Status |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for corpus in &cfg.datasets {
        let dataset = corpus.id();
        for method in &cfg.methods {
            let Some(c) = cell(dataset, *method, ref_eps) else {
                continue;
            };
            let Some(pref) = paper_ref::reference(dataset, &method.name()) else {
                continue;
            };
            let psi = c.psi_total();
            let psi_pass = psi <= pref.psi_total + TOL_PSI_PP;
            let _ = writeln!(
                out,
                "| {} | {} | Ψ total (%) | {:.2} | {:.2} | {:+.2} | ≤ paper + {TOL_PSI_PP} | {} |",
                corpus.name(),
                method.name(),
                psi,
                pref.psi_total,
                psi - pref.psi_total,
                if psi_pass { "pass" } else { "FAIL" }
            );
            let acc_pass = c.accuracy >= pref.accuracy - TOL_ACCURACY;
            let _ = writeln!(
                out,
                "| {} | {} | accuracy | {:.3} | {:.3} | {:+.3} | ≥ paper − {TOL_ACCURACY} | {} |",
                corpus.name(),
                method.name(),
                c.accuracy,
                pref.accuracy,
                c.accuracy - pref.accuracy,
                if acc_pass { "pass" } else { "FAIL" }
            );
        }
    }

    if !cfg.studies.is_empty() {
        let _ = writeln!(out, "\n## Studies\n");
        let _ = writeln!(
            out,
            "The §7 experiments off the matrix grid: Kamino variants, \
             baselines standard vs. repaired, and Adult under discovered \
             soft-DC sets (`adult-dcs{{k}}`). A row shared by several \
             studies is one scored cell.\n"
        );
        let _ = writeln!(
            out,
            "| Paper | Dataset | ε | Method | DCs | Ψ truth (%) | Ψ total (%) | 1-way TVD | 2-way TVD | Accuracy | F1 |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|");
        for s in &cfg.studies {
            let Some(c) = cell(&s.dataset.id(), s.method, s.epsilon) else {
                continue;
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {:.2} | {:.2} | {:.4} | {:.4} | {:.3} | {:.3} |",
                s.paper,
                c.dataset,
                c.epsilon,
                c.method,
                c.psi.len(),
                c.psi.iter().map(|(_, truth, _)| truth).sum::<f64>(),
                c.psi_total(),
                c.tvd1_mean,
                c.tvd2_mean,
                c.accuracy,
                c.f1
            );
        }
    }

    if cfg.timings {
        let _ = writeln!(out, "\n## Wall-clock\n");
        let _ = writeln!(
            out,
            "Kamino-family cells split into the Figure 7 phases; a cache hit \
             reports the phases of the fit that wrote its snapshot.\n"
        );
        let _ = writeln!(
            out,
            "| Dataset | Method | ε | Seconds | Sequencing | Training | DC weights | Sampling |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
        for c in &report.cells {
            let phases = match &c.phases {
                Some(p) => [p.sequencing, p.training, p.dc_weights, p.sampling]
                    .map(|d| format!("{:.3}", d.as_secs_f64()))
                    .join(" | "),
                None => "— | — | — | —".to_string(),
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {:.2} | {phases} |",
                c.dataset, c.method, c.epsilon, c.seconds
            );
        }
        let _ = writeln!(
            out,
            "\nTotal: {:.2} s ({} cache hits, {} misses across {} Kamino cells).",
            report.total_seconds, report.cache_hits, report.cache_misses, report.kamino_cells
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_enumeration_is_dataset_major_and_complete() {
        let cfg = ReproConfig::fast(17);
        let cells = enumerate_cells(&cfg);
        assert_eq!(cells.len(), 2 * 2 * 3);
        // dataset-major: first half is dataset 0
        assert!(cells[..6].iter().all(|c| c.dataset == 0));
        // ε ascending within a dataset block, method order preserved
        assert_eq!(cells[0].epsilon, 0.4);
        assert_eq!(cells[3].epsilon, 1.0);
        assert_eq!(cells[0].method, MethodKind::Kamino);
        assert_eq!(cells[2].method, MethodKind::Independent);
    }

    #[test]
    fn cache_path_tracks_the_fit_identity() {
        let a = ReproConfig::fast(17);
        let mut b = ReproConfig::fast(17);
        let path = |cfg: &ReproConfig, dataset: &str, eps: f64, method: MethodKind| {
            cfg.cache_path(dataset, eps, method)
        };
        let kamino = MethodKind::Kamino;
        assert_eq!(
            path(&a, "adult", 1.0, kamino),
            path(&b, "adult", 1.0, kamino)
        );
        assert_ne!(
            path(&a, "adult", 1.0, kamino),
            path(&a, "adult", 0.4, kamino),
            "ε must key the cache"
        );
        assert_ne!(
            path(&a, "adult", 1.0, kamino),
            path(&a, "tax", 1.0, kamino),
            "dataset must key the cache"
        );
        assert_ne!(
            path(&a, "adult", 1.0, kamino),
            path(&a, "adult", 1.0, MethodKind::RandBoth),
            "the Kamino variant must key the cache"
        );
        b.seed = 18;
        assert_ne!(
            path(&a, "adult", 1.0, kamino),
            path(&b, "adult", 1.0, kamino),
            "seed must key the cache"
        );
        b.seed = 17;
        b.train_scale = 0.5;
        assert_ne!(
            path(&a, "adult", 1.0, kamino),
            path(&b, "adult", 1.0, kamino),
            "config hash must key the cache"
        );
    }

    #[test]
    fn default_kamino_cache_path_is_pinned() {
        // the variant knobs must leave the plain Kamino cell's config —
        // and so the key's hash segment — exactly where it was; that
        // segment moves only with the config's snapshot encoding, the
        // revision segment only with `FIT_REVISION`
        assert_eq!(
            ReproConfig::fast(17).cache_path("adult", 1.0, MethodKind::Kamino),
            PathBuf::from("target/repro-cache/adult-n2000-eps1-seed17-r4-0f1715d3c635c7b9.kamino")
        );
    }

    /// Every Kamino-family method the §7 studies run keeps its cache key:
    /// a slip in mapping a method onto its config knobs would re-key (and
    /// silently re-fit) its study cells.
    #[test]
    fn every_study_method_cache_key_is_pinned() {
        use MethodKind::*;
        let cfg = ReproConfig::fast(17);
        let methods = [
            (Kamino, "0f1715d3c635c7b9"),
            (RandSequence, "6adb63d9487dc016"),
            (RandSampling, "a9dac5042ecea6c3"),
            (RandBoth, "30eb9d0b10721178"),
            (AcceptReject, "53705fb6f7ddf21e"),
            (Mcmc(0.5), "354204a19d85e952"),
            (Mcmc(1.0), "6d8d6d109df66382"),
            (Mcmc(2.0), "ca4242e0aba84ef9"),
            (Mcmc(3.0), "0ebbf5cd9e2511d1"),
            (HardFdLookup, "2698e59d533231f4"),
            (ParallelTraining, "0ac39f06f2c317ae"),
        ];
        for (method, hash) in methods {
            assert_eq!(
                cfg.cache_path("adult", 1.0, method),
                PathBuf::from(format!(
                    "target/repro-cache/adult-n2000-eps1-seed17-r4-{hash}.kamino"
                )),
                "{} re-keyed",
                method.name()
            );
        }
        // the table covers every Kamino-family method the studies run
        for study in paper_studies() {
            assert!(
                !study.method.is_kamino() || methods.iter().any(|&(m, _)| m == study.method),
                "{} has no pinned key",
                study.method.name()
            );
        }
    }

    #[test]
    fn method_names() {
        let names: Vec<String> = [
            MethodKind::Kamino,
            MethodKind::RandBoth,
            MethodKind::AcceptReject,
            MethodKind::Mcmc(0.5),
            MethodKind::Mcmc(2.0),
            MethodKind::Repaired(&MethodKind::PateGan),
        ]
        .into_iter()
        .map(MethodKind::name)
        .collect();
        assert_eq!(
            names,
            [
                "Kamino",
                "RandBoth",
                "Kamino-AR",
                "Kamino-MCMC0.5",
                "Kamino-MCMC2",
                "PATE-GAN-repaired"
            ]
        );
        assert!(MethodKind::Mcmc(1.0).is_kamino());
        assert!(!MethodKind::Repaired(&MethodKind::PrivBayes).is_kamino());
    }

    #[test]
    fn ablation_switch_wiring() {
        let cfg = ReproConfig::fast(17);
        let algorithm3 = |hard_fd_lookup| SamplingRule::Algorithm3 { hard_fd_lookup };
        let plain = cfg.kamino_config(1.0, MethodKind::Kamino);
        assert_eq!(plain.sampling, algorithm3(false));
        assert!(plain.constraint_aware_sequencing);
        let k = cfg.kamino_config(1.0, MethodKind::RandSampling);
        assert_eq!(k.sampling, SamplingRule::RandSampling);
        assert!(k.constraint_aware_sequencing);
        let k = cfg.kamino_config(1.0, MethodKind::RandBoth);
        assert_eq!(k.sampling, SamplingRule::RandSampling);
        assert!(!k.constraint_aware_sequencing);
        assert_eq!(
            cfg.kamino_config(1.0, MethodKind::AcceptReject).sampling,
            SamplingRule::AcceptReject
        );
        assert_eq!(
            cfg.kamino_config(1.0, MethodKind::Mcmc(2.0)).mcmc_ratio,
            2.0
        );
        assert_eq!(
            cfg.kamino_config(1.0, MethodKind::HardFdLookup).sampling,
            algorithm3(true)
        );
        assert!(
            cfg.kamino_config(1.0, MethodKind::ParallelTraining)
                .parallel_training
        );
    }

    #[test]
    fn full_mode_studies_cover_every_section_once_per_cell() {
        let cfg = ReproConfig::full(11);
        let matrix = cfg.datasets.len() * cfg.epsilons.len() * cfg.methods.len();
        let cells = enumerate_cells(&cfg);
        let mut papers: Vec<&str> = cfg.studies.iter().map(|s| s.paper).collect();
        papers.dedup();
        assert_eq!(
            papers,
            [
                "Table 3 / Fig 5",
                "Exp 6",
                "Fig 9",
                "Exp 10a",
                "Exp 10b",
                "Fig 1",
                "Fig 8"
            ]
        );
        // rows already in the matrix (or an earlier study) are not re-run
        for (i, a) in cells.iter().enumerate() {
            assert!(!cells[..i].contains(a), "duplicate cell {a:?}");
        }
        assert!(cells.len() > matrix);
        let ids: Vec<String> = dataset_specs(&cfg).iter().map(|d| d.id()).collect();
        assert!(ids.contains(&"adult-dcs128".to_string()), "{ids:?}");
    }

    #[test]
    fn reference_epsilon_picks_nearest_to_one() {
        let mut cfg = ReproConfig::fast(1);
        assert_eq!(reference_epsilon(&cfg), 1.0);
        cfg.epsilons = vec![0.2, 0.8, 2.0];
        assert_eq!(reference_epsilon(&cfg), 0.8);
    }

    fn fake_report(cfg: &ReproConfig) -> MatrixReport {
        let cells = enumerate_cells(cfg)
            .into_iter()
            .map(|c| CellResult {
                dataset: match c.dataset {
                    0 => "adult".to_string(),
                    _ => "tax".to_string(),
                },
                method: c.method.name(),
                epsilon: c.epsilon,
                achieved_epsilon: (c.method == MethodKind::Kamino).then_some(0.93),
                psi: vec![("fd".into(), 0.0, 1.25)],
                tvd1_mean: 0.05,
                tvd1_max: 0.11,
                tvd2_mean: 0.08,
                accuracy: 0.75,
                f1: 0.6,
                cache: CacheStatus::NotCached,
                seconds: 1.0,
                phases: None,
            })
            .collect();
        MatrixReport {
            cells,
            cache_hits: 0,
            cache_misses: 4,
            kamino_cells: 4,
            total_seconds: 12.0,
        }
    }

    #[test]
    fn json_is_deterministic_and_timings_are_opt_in() {
        let cfg = ReproConfig::fast(17);
        let report = fake_report(&cfg);
        let a = to_json(&report, &cfg).to_string();
        let b = to_json(&report, &cfg).to_string();
        assert_eq!(a, b);
        assert!(a.contains("\"psi_total\""));
        assert!(a.contains("\"mode\":\"fast\""));
        assert!(
            !a.contains("wall_seconds"),
            "timings must be opt-in for diffable artifacts"
        );
        let mut timed = cfg.clone();
        timed.timings = true;
        assert!(to_json(&report, &timed)
            .to_string()
            .contains("wall_seconds"));
    }

    #[test]
    fn matrix_cache_roundtrip_is_deterministic() {
        // one tiny Kamino cell, run twice against a fresh cache dir: the
        // second run must load the snapshot instead of refitting, and
        // both runs must serialize identically
        let dir = std::env::temp_dir().join(format!(
            "kamino-repro-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ReproConfig::fast(17);
        cfg.rows = 120;
        cfg.train_scale = 0.02;
        cfg.datasets = vec![Corpus::Adult];
        cfg.epsilons = vec![1.0];
        cfg.methods = vec![MethodKind::Kamino];
        cfg.cache_dir = dir.clone();

        let first = run_matrix(&cfg);
        assert_eq!((first.cache_hits, first.cache_misses), (0, 1));
        assert_eq!(first.kamino_cells, 1);
        let second = run_matrix(&cfg);
        assert_eq!(
            (second.cache_hits, second.cache_misses),
            (1, 0),
            "second run must reuse the cached snapshot"
        );
        assert_eq!(
            to_json(&first, &cfg).to_string(),
            to_json(&second, &cfg).to_string(),
            "cached and fresh fits must score identically"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn study_cells_run_cache_and_render() {
        // one study of each kind — a Kamino variant, a repaired baseline
        // and a discovered-DC dataset — beside the one matrix cell
        let dir = std::env::temp_dir().join(format!(
            "kamino-repro-studies-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ReproConfig::fast(17);
        cfg.rows = 120;
        cfg.train_scale = 0.02;
        cfg.datasets = vec![Corpus::Adult];
        cfg.epsilons = vec![1.0];
        cfg.methods = vec![MethodKind::Kamino];
        cfg.cache_dir = dir.clone();
        let adult = DatasetSpec::plain(Corpus::Adult);
        let adult_dcs2 = DatasetSpec {
            corpus: Corpus::Adult,
            discovered_dcs: Some(2),
        };
        cfg.studies = vec![
            Study {
                paper: "Table 3 / Fig 5",
                dataset: adult,
                epsilon: 1.0,
                method: MethodKind::RandBoth,
            },
            Study {
                paper: "Fig 1",
                dataset: adult,
                epsilon: f64::INFINITY,
                method: MethodKind::Repaired(&MethodKind::PrivBayes),
            },
            Study {
                paper: "Fig 8",
                dataset: adult_dcs2,
                epsilon: 1.0,
                method: MethodKind::Kamino,
            },
        ];
        assert_ne!(
            cfg.cache_path(&adult.id(), 1.0, MethodKind::Kamino),
            cfg.cache_path(&adult_dcs2.id(), 1.0, MethodKind::Kamino),
            "the DC list is not in the config hash, so the id must key it"
        );

        let first = run_matrix(&cfg);
        assert_eq!((first.cache_hits, first.cache_misses), (0, 3));
        assert_eq!(first.kamino_cells, 3);
        let json = to_json(&first, &cfg).to_string();
        for needle in [
            "\"method\":\"RandBoth\"",
            "\"method\":\"PrivBayes-repaired\"",
            "\"dataset\":\"adult-dcs2\"",
            "\"datasets\":[\"adult\",\"adult-dcs2\"]",
        ] {
            assert!(json.contains(needle), "missing `{needle}` in {json}");
        }
        let dcs2 = first
            .cells
            .iter()
            .find(|c| c.dataset == "adult-dcs2")
            .expect("the discovered-DC cell ran");
        assert_eq!(dcs2.psi.len(), 2);
        let md = render_markdown(&first, &cfg);
        assert!(md.contains("## Studies"), "{md}");
        assert!(
            md.contains("| Fig 1 | adult | inf | PrivBayes-repaired |"),
            "{md}"
        );

        let second = run_matrix(&cfg);
        assert_eq!(
            (second.cache_hits, second.cache_misses, second.kamino_cells),
            (3, 0, 3),
            "every Kamino-family cell must come from the cache"
        );
        assert_eq!(json, to_json(&second, &cfg).to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn markdown_renders_every_required_table() {
        let cfg = ReproConfig::fast(17);
        let report = fake_report(&cfg);
        let md = render_markdown(&report, &cfg);
        for needle in [
            "## Adult",
            "## Tax",
            "Ψ — DC violation rate",
            "1-way marginal TVD",
            "Downstream classification accuracy",
            "## vs. paper-reported numbers (at ε = 1)",
            "| Adult | Kamino | Ψ total (%) |",
            "ε=0.4 | ε=1",
        ] {
            assert!(md.contains(needle), "missing `{needle}` in:\n{md}");
        }
        assert_eq!(
            md,
            render_markdown(&report, &cfg),
            "markdown must be deterministic"
        );
        assert!(!md.contains("Wall-clock"), "timings are opt-in");
        assert!(!md.contains("## Studies"), "fast mode runs no studies");
    }
}
