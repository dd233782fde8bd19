//! The model registry: a lazy-loading, bounded-residency LRU over
//! `.kamino` snapshots.
//!
//! Boot does not decode the snapshots in `--model-dir`: each file's
//! header, section table, required sections and section CRCs are checked
//! with [`crate::snapshot::verify_snapshot`] (a file that fails is
//! quarantined), and the file is registered as an *unloaded* slot. The
//! first request that needs the model loads it
//! ([`Registry::ensure_resident`]); once more than `--max-models` are
//! resident, the least-recently-touched unpinned model is evicted.
//!
//! Eviction is cursor-exact: `Registry::persist` writes the model at
//! its canonical RNG cursor (the pool's `persist_state`, which excludes
//! speculated-but-unserved batches — see [`crate::pool`]), then the
//! in-memory model and its pool are dropped. Reloading resumes the
//! observable sample stream bit-for-bit where the evicted one left it.
//! The same `persist` backs fit completion and `POST
//! /models/{id}/snapshot`, and one `Registry::install` path makes a
//! model resident after a fit or a lazy load.
//!
//! ## Locking
//!
//! Each slot splits its state in two so the event loop never blocks on
//! sampling:
//!
//! * [`ModelSlot::status`] — a cheap mutex over the lifecycle state and
//!   cached metadata, held only for copies. `/models` listings and
//!   `/models/{id}` info never touch the model mutex.
//! * [`ModelSlot::resident`] — the heavy mutex guarding the fitted model
//!   and its pool, held across sampling, refills, loads and eviction.
//!
//! Lock order is always `resident` before `status`. Pins
//! ([`Registry::pin`]) are taken *before* any eviction scan can observe
//! the slot lock-free, and eviction re-checks the pin count while
//! holding the model mutex, so a model streaming rows is never evicted
//! under its client.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use kamino_core::FittedKamino;
use kamino_obs::metrics::{Counter, Gauge};
use kamino_obs::{Event, ObsHandle};

use crate::durable::{self, AbortReason, Ledger, LedgerRecord, Manifest};
use crate::json::Json;
use crate::pool::{PoolConfig, SamplePool};
use crate::snapshot::{
    encode_fitted, load_fitted, verify_snapshot, write_snapshot_bytes, SnapshotError,
};

/// A fitted model held in memory together with its sample pool.
pub struct Resident {
    /// The fitted session (boxed: it is large and moves between states).
    pub fitted: Box<FittedKamino>,
    /// Its ring of speculated batches.
    pub pool: SamplePool,
}

impl Resident {
    /// The model's `.kamino` bytes at the canonical cursor
    /// ([`SamplePool::persist_state`]): speculated-but-unserved batches
    /// are excluded, so a reload resumes the observable stream
    /// bit-exactly. The live cursor and the pool are left as they were.
    pub fn canonical_bytes(&mut self) -> Vec<u8> {
        let live = self.fitted.rng_state();
        self.fitted
            .set_rng_state(self.pool.persist_state(&self.fitted));
        let bytes = encode_fitted(&self.fitted);
        self.fitted.set_rng_state(live);
        bytes
    }
}

/// Cheap, copyable facts about a fitted model, cached in the slot status
/// so info routes never wait on the model mutex.
pub struct ModelMeta {
    /// Pre-rendered CSV header line (`None` when the schema is not
    /// CSV-serializable).
    pub csv_header: Option<String>,
    /// The `GET /models/{id}` detail fields (everything except
    /// `model_id` and `status`).
    pub info: Vec<(&'static str, Json)>,
}

fn duration_ms(d: std::time::Duration) -> Json {
    Json::Num(d.as_secs_f64() * 1e3)
}

fn epsilon_json(eps: f64) -> Json {
    if eps.is_finite() {
        Json::Num(eps)
    } else {
        Json::Str("inf".into())
    }
}

impl ModelMeta {
    /// Captures the metadata of a freshly fitted or loaded session.
    pub fn new(f: &FittedKamino) -> Arc<ModelMeta> {
        let info = vec![
            ("achieved_epsilon", epsilon_json(f.achieved_epsilon())),
            ("delta", Json::Num(f.config().budget.delta)),
            ("n_input", Json::Num(f.n_input() as f64)),
            ("attributes", Json::Num(f.schema().len() as f64)),
            ("dcs", Json::Num(f.dcs().len() as f64)),
            (
                "sequence",
                Json::Arr(f.sequence.iter().map(|&i| Json::Num(i as f64)).collect()),
            ),
            (
                "params",
                Json::obj([
                    ("sigma_g", Json::Num(f.params.sigma_g)),
                    ("sigma_d", Json::Num(f.params.sigma_d)),
                    ("sigma_w", Json::Num(f.params.sigma_w)),
                    ("iterations", Json::Num(f.params.t as f64)),
                    ("batch", Json::Num(f.params.b as f64)),
                    ("clip", Json::Num(f.params.clip)),
                ]),
            ),
            (
                "timings_ms",
                Json::obj([
                    ("sequencing", duration_ms(f.timings.sequencing)),
                    ("training", duration_ms(f.timings.training)),
                    ("dc_weights", duration_ms(f.timings.dc_weights)),
                    ("sampling", duration_ms(f.timings.sampling)),
                    ("sample_fill", duration_ms(f.timings.sample_fill)),
                    ("sample_mcmc", duration_ms(f.timings.sample_mcmc)),
                ]),
            ),
        ];
        Arc::new(ModelMeta {
            csv_header: kamino_data::csv::header_line(f.schema()).ok(),
            info,
        })
    }
}

/// Lifecycle state of a slot, visible without the model mutex.
pub enum SlotStatus {
    /// A fit job is still training.
    Fitting,
    /// Resident in memory, ready to sample.
    Ready(Arc<ModelMeta>),
    /// On disk only. The metadata is cached when the model was resident
    /// before (eviction keeps it); `None` for never-loaded boot entries.
    Unloaded(Option<Arc<ModelMeta>>),
    /// The fit failed.
    Failed(String),
}

impl SlotStatus {
    /// The wire name of the state.
    pub fn name(&self) -> &'static str {
        match self {
            SlotStatus::Fitting => "fitting",
            SlotStatus::Ready(_) => "ready",
            SlotStatus::Unloaded(_) => "unloaded",
            SlotStatus::Failed(_) => "failed",
        }
    }

    /// The cached metadata, when any exists.
    pub fn meta(&self) -> Option<Arc<ModelMeta>> {
        match self {
            SlotStatus::Ready(m) => Some(Arc::clone(m)),
            SlotStatus::Unloaded(m) => m.clone(),
            _ => None,
        }
    }
}

/// One model slot: identity, lifecycle, and (possibly) a resident model.
pub struct ModelSlot {
    /// Stable model id (survives restarts for `model-{id}.kamino` files).
    pub id: u64,
    /// Snapshot path backing this slot, when one exists.
    path: Mutex<Option<PathBuf>>,
    /// Lifecycle + cached metadata (cheap mutex, held for copies only).
    pub status: Mutex<SlotStatus>,
    /// The fitted model and its pool (heavy mutex, held across sampling).
    pub resident: Mutex<Option<Resident>>,
    /// Streams currently using the model; eviction skips pinned slots.
    pins: AtomicU64,
    /// Recency stamp from the registry's logical touch counter.
    last_touch: AtomicU64,
    /// Set while a refill job is queued or running (dedupes refills).
    pub refill_queued: AtomicBool,
    /// `kamino_pool_depth{model=id}`: the pool's ring depth, written by
    /// whoever changes it so a scrape never takes the model mutex.
    pub pool_depth: Gauge,
}

impl ModelSlot {
    fn new(id: u64, status: SlotStatus, path: Option<PathBuf>, obs: &ObsHandle) -> Arc<ModelSlot> {
        Arc::new(ModelSlot {
            id,
            path: Mutex::new(path),
            status: Mutex::new(status),
            resident: Mutex::new(None),
            pins: AtomicU64::new(0),
            last_touch: AtomicU64::new(0),
            refill_queued: AtomicBool::new(false),
            pool_depth: obs.gauge("kamino_pool_depth", &[("model", &id.to_string())]),
        })
    }

    /// The snapshot path backing this slot, if any.
    pub fn snapshot_path(&self) -> Option<PathBuf> {
        self.path.lock().unwrap().clone()
    }

    /// Records the snapshot path [`Registry::persist`] wrote.
    fn set_snapshot_path(&self, p: PathBuf) {
        *self.path.lock().unwrap() = Some(p);
    }

    /// The `GET /models/{id}` body.
    pub fn info_json(&self) -> Json {
        let guard = self.status.lock().unwrap();
        let mut fields = vec![
            ("model_id".to_string(), Json::Num(self.id as f64)),
            ("status".to_string(), Json::Str(guard.name().into())),
        ];
        match &*guard {
            SlotStatus::Failed(msg) => fields.push(("error".into(), Json::Str(msg.clone()))),
            _ => {
                if let Some(meta) = guard.meta() {
                    for (k, v) in &meta.info {
                        fields.push((k.to_string(), v.clone()));
                    }
                }
            }
        }
        Json::Obj(fields.into_iter().collect())
    }
}

/// Keeps a slot safe from eviction while a stream is using it.
pub struct PinGuard {
    slot: Arc<ModelSlot>,
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.slot.pins.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The server's model table.
pub struct Registry {
    slots: Mutex<BTreeMap<u64, Arc<ModelSlot>>>,
    next_id: AtomicU64,
    /// Monotonic logical clock for LRU recency (never wall time).
    touch_seq: AtomicU64,
    max_resident: usize,
    pool_cfg: PoolConfig,
    model_dir: Option<PathBuf>,
    /// The durable write-ahead ledger (`Some` once [`Registry::boot_scan`]
    /// ran with a model directory). Appends serialize on this mutex.
    ledger: Mutex<Option<Ledger>>,
    /// The committed-model manifest mirror, rewritten atomically on disk
    /// after every snapshot commit.
    manifest: Mutex<Manifest>,
    /// Home of the registry's `/metrics` series, and the handle every
    /// model loaded from disk samples under.
    obs: ObsHandle,
    /// Pooled batches served without sampling.
    pub pool_hits: Counter,
    /// Batches that had to sample on demand.
    pub pool_misses: Counter,
    /// Models evicted to disk.
    pub evictions: Counter,
    /// Snapshot loads (lazy boot loads and post-eviction reloads).
    pub loads: Counter,
    /// Ledger records replayed at boot.
    pub ledger_replays: Counter,
    /// Files quarantined at boot or during recovery.
    pub quarantined: Counter,
    /// Σ budgeted ε across every ledger intent — the durable upper
    /// bound on privacy spend against this model directory (∞ when any
    /// fit was non-private; 0 without a `--model-dir`). Set under the
    /// ledger mutex.
    ledger_epsilon: Gauge,
    open_models: Gauge,
    resident_models: Gauge,
}

impl Registry {
    /// An empty registry whose series live in `obs`. `max_resident == 0`
    /// means unbounded.
    pub fn new(
        max_resident: usize,
        pool_cfg: PoolConfig,
        model_dir: Option<PathBuf>,
        obs: &ObsHandle,
    ) -> Registry {
        obs.gauge("kamino_max_resident_models", &[])
            .set(max_resident as f64);
        Registry {
            slots: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            touch_seq: AtomicU64::new(1),
            max_resident,
            pool_cfg,
            model_dir,
            ledger: Mutex::new(None),
            manifest: Mutex::new(Manifest::default()),
            obs: obs.clone(),
            pool_hits: obs.counter("kamino_pool_hits_total", &[]),
            pool_misses: obs.counter("kamino_pool_misses_total", &[]),
            evictions: obs.counter("kamino_model_evictions_total", &[]),
            loads: obs.counter("kamino_model_loads_total", &[]),
            ledger_replays: obs.counter("kamino_ledger_replays_total", &[]),
            quarantined: obs.counter("kamino_quarantined_files_total", &[]),
            ledger_epsilon: obs.gauge("kamino_ledger_epsilon_total", &[]),
            open_models: obs.gauge("kamino_open_models", &[]),
            resident_models: obs.gauge("kamino_resident_models", &[]),
        }
    }

    /// The model directory, when serving with persistence.
    pub fn model_dir(&self) -> Option<&Path> {
        self.model_dir.as_deref()
    }

    /// Boots the durable state of the model directory:
    ///
    /// 1. replays the write-ahead ledger — truncating any torn tail,
    ///    counting every intent's ε as spent, appending a recovery
    ///    `FitAbort` for each dangling intent and surfacing it as a
    ///    `failed (crashed)` model;
    /// 2. loads the committed-model manifest (an unreadable one is
    ///    quarantined, not fatal);
    /// 3. registers every `.kamino` whose section CRCs all verify as an
    ///    unloaded slot, quarantines the rest along with stale tmp
    ///    files, and warns about manifest entries whose snapshot is
    ///    gone.
    ///
    /// Ids embedded in server-written names (`model-{id}.kamino`) stay
    /// stable across restarts; foreign names get the next free id after
    /// every recognized one — and after every id the ledger has ever
    /// mentioned, so a crashed fit's id is never reused.
    pub fn boot_scan(&self) -> std::io::Result<()> {
        let Some(dir) = &self.model_dir else {
            return Ok(());
        };
        let dir = dir.clone();
        std::fs::create_dir_all(&dir)?;
        let ledger_max = self.boot_ledger(&dir)?;
        self.boot_manifest(&dir);
        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in std::fs::read_dir(&dir)?.filter_map(|e| e.ok()) {
            let path = entry.path();
            if durable::is_stale_tmp(&path) {
                self.quarantine_file(&path, "stale tmp from an interrupted install");
            } else if path.extension().is_some_and(|x| x == "kamino") {
                paths.push(path);
            }
        }
        paths.sort();
        let mut foreign = Vec::new();
        let mut registered = Vec::new();
        for path in paths {
            if let Err(e) = verify_snapshot(&path) {
                self.quarantine_file(&path, &e.to_string());
                continue;
            }
            registered.extend(path.file_name().map(|s| s.to_string_lossy().into_owned()));
            match id_from_snapshot_name(&path) {
                Some(id) if !self.slots.lock().unwrap().contains_key(&id) => {
                    self.insert_unloaded(id, path);
                }
                _ => foreign.push(path),
            }
        }
        // a committed model whose snapshot vanished (or was quarantined)
        // is an operational loss worth shouting about — but not an outage
        for (id, name) in self.manifest.lock().unwrap().unbacked(&registered) {
            eprintln!(
                "kamino-serve: WARNING: manifest lists committed model {id} \
                 ({name}) but no verified snapshot backs it"
            );
        }
        let max_id = self
            .slots
            .lock()
            .unwrap()
            .keys()
            .next_back()
            .copied()
            .unwrap_or(0)
            .max(ledger_max);
        self.next_id.store(max_id + 1, Ordering::Relaxed);
        for path in foreign {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.insert_unloaded(id, path);
        }
        Ok(())
    }

    /// Opens and replays the ledger; converts dangling intents into
    /// `failed (crashed)` slots. Returns the largest model id the ledger
    /// has ever mentioned.
    fn boot_ledger(&self, dir: &Path) -> std::io::Result<u64> {
        let (mut ledger, replay) = Ledger::open(dir)?;
        for &(id, _) in &replay.dangling {
            ledger.append(&LedgerRecord::FitAbort {
                model_id: id,
                reason: AbortReason::Crash,
            })?;
        }
        self.ledger_replays.add(replay.records.len() as u64);
        self.ledger_epsilon.set(ledger.spent_epsilon());
        if !replay.records.is_empty() || replay.truncated_bytes > 0 {
            println!(
                "kamino-serve: replayed {} ledger record(s) ({} dangling, {} torn byte(s) \
                 truncated); ε recorded as spent: {}",
                replay.records.len(),
                replay.dangling.len(),
                replay.truncated_bytes,
                replay.spent_epsilon
            );
            self.obs.event(Event::LedgerReplay {
                records: replay.records.len() as u64,
                dangling: replay.dangling.len() as u64,
                spent_epsilon: replay.spent_epsilon,
            });
        }
        for (id, epsilon) in replay.dangling {
            self.slots.lock().unwrap().entry(id).or_insert_with(|| {
                ModelSlot::new(
                    id,
                    SlotStatus::Failed(format!(
                        "crashed: the process died mid-fit; its budgeted ε={epsilon} \
                         stays counted as spent"
                    )),
                    None,
                    &self.obs,
                )
            });
        }
        let max = replay.max_model_id;
        *self.ledger.lock().unwrap() = Some(ledger);
        Ok(max)
    }

    /// Loads the manifest; a present-but-unreadable one is quarantined.
    fn boot_manifest(&self, dir: &Path) {
        match Manifest::load(dir) {
            Ok(Some(m)) => *self.manifest.lock().unwrap() = m,
            Ok(None) => {}
            Err(e) => {
                self.quarantine_file(&dir.join(durable::MANIFEST_NAME), &e);
            }
        }
    }

    /// Renames a failed file to `*.quarantine`, logs, and counts it.
    fn quarantine_file(&self, path: &Path, why: &str) {
        match durable::quarantine(path) {
            Ok(target) => {
                self.quarantined.inc();
                eprintln!(
                    "kamino-serve: quarantined {} -> {} ({why})",
                    path.display(),
                    target.display()
                );
            }
            Err(e) => eprintln!(
                "kamino-serve: failed to quarantine {} ({why}): {e}",
                path.display()
            ),
        }
    }

    /// Durably records a fit intent *before* any DP mechanism runs.
    /// With a ledger, an `Err` means the intent could not be made
    /// durable — the caller must not run the fit. Without one
    /// (no `--model-dir`), spends are process-local by design and the
    /// intent is a no-op.
    pub fn record_fit_intent(
        &self,
        model_id: u64,
        epsilon: f64,
        delta: f64,
        plan_hash: u64,
    ) -> Result<(), String> {
        let mut guard = self.ledger.lock().unwrap();
        let Some(ledger) = guard.as_mut() else {
            return Ok(());
        };
        ledger
            .append(&LedgerRecord::FitIntent {
                model_id,
                epsilon,
                delta,
                plan_hash,
            })
            .map_err(|e| format!("budget ledger append failed: {e}"))?;
        self.ledger_epsilon.set(ledger.spent_epsilon());
        Ok(())
    }

    /// Records a fit commit (best-effort: the spend itself is already
    /// durable via the intent).
    pub fn record_fit_commit(&self, model_id: u64, achieved_epsilon: f64, fingerprint: u64) {
        if let Some(ledger) = self.ledger.lock().unwrap().as_mut() {
            if let Err(e) = ledger.append(&LedgerRecord::FitCommit {
                model_id,
                achieved_epsilon,
                fingerprint,
            }) {
                eprintln!("kamino-serve: ledger commit for model {model_id} failed: {e}");
            }
        }
    }

    /// Records a fit abort (best-effort, like commits).
    pub fn record_fit_abort(&self, model_id: u64, reason: AbortReason) {
        if let Some(ledger) = self.ledger.lock().unwrap().as_mut() {
            if let Err(e) = ledger.append(&LedgerRecord::FitAbort { model_id, reason }) {
                eprintln!("kamino-serve: ledger abort for model {model_id} failed: {e}");
            }
        }
    }

    /// Commits a model to the manifest (dropping any older id for the
    /// same file) and atomically rewrites it on disk when that changed
    /// it. Called by [`Registry::persist`] after every successful
    /// snapshot write.
    fn commit_to_manifest(&self, model_id: u64, path: &Path) {
        let Some(dir) = &self.model_dir else { return };
        let name = path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut manifest = self.manifest.lock().unwrap();
        if !manifest.commit(model_id, &name) {
            return;
        }
        if let Err(e) = manifest.store(dir) {
            eprintln!("kamino-serve: manifest update for model {model_id} failed: {e}");
        }
    }

    fn insert_unloaded(&self, id: u64, path: PathBuf) {
        println!("kamino-serve: registered {} as model {id}", path.display());
        let slot = ModelSlot::new(id, SlotStatus::Unloaded(None), Some(path), &self.obs);
        self.slots.lock().unwrap().insert(id, slot);
    }

    /// Looks a slot up by id.
    pub fn get(&self, id: u64) -> Option<Arc<ModelSlot>> {
        self.slots.lock().unwrap().get(&id).cloned()
    }

    /// Every slot, in id order.
    pub fn list(&self) -> Vec<Arc<ModelSlot>> {
        self.slots.lock().unwrap().values().cloned().collect()
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// Whether no models exist at all.
    pub fn is_empty(&self) -> bool {
        self.slots.lock().unwrap().is_empty()
    }

    /// Creates a fresh slot in the `Fitting` state and returns it.
    pub fn create_fitting(&self) -> Arc<ModelSlot> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = ModelSlot::new(id, SlotStatus::Fitting, None, &self.obs);
        self.slots.lock().unwrap().insert(id, Arc::clone(&slot));
        slot
    }

    /// Bumps a slot's LRU recency (logical counter — the lint contract
    /// keeps wall clocks out of ordering decisions).
    pub fn touch(&self, slot: &ModelSlot) {
        let stamp = self.touch_seq.fetch_add(1, Ordering::Relaxed);
        slot.last_touch.store(stamp, Ordering::Relaxed);
    }

    /// Pins a slot against eviction for the guard's lifetime.
    pub fn pin(&self, slot: &Arc<ModelSlot>) -> PinGuard {
        slot.pins.fetch_add(1, Ordering::AcqRel);
        PinGuard {
            slot: Arc::clone(slot),
        }
    }

    /// Installs a finished fit into its slot (or records the failure),
    /// persisting a snapshot when asked and a model directory exists.
    /// Returns whether the install succeeded.
    pub fn finish_fit(
        &self,
        slot: &Arc<ModelSlot>,
        outcome: Result<FittedKamino, String>,
        persist: bool,
    ) -> bool {
        match outcome {
            Err(msg) => {
                *slot.status.lock().unwrap() = SlotStatus::Failed(msg);
                false
            }
            Ok(fitted) => {
                let persist = persist && self.model_dir.is_some();
                self.install(slot, slot.resident.lock().unwrap(), fitted, persist);
                true
            }
        }
    }

    /// Makes the slot's model resident, loading its snapshot if needed.
    /// Blocking (worker threads only — the event loop must not call
    /// this). Returns the error text for a 4xx/5xx reply on failure.
    pub fn ensure_resident(&self, slot: &Arc<ModelSlot>) -> Result<(), String> {
        let resident = slot.resident.lock().unwrap();
        if resident.is_some() {
            drop(resident);
            self.touch(slot);
            self.evict_over_capacity();
            return Ok(());
        }
        match &*slot.status.lock().unwrap() {
            SlotStatus::Fitting => return Err("model is still fitting".into()),
            SlotStatus::Failed(msg) => return Err(format!("model failed to fit: {msg}")),
            SlotStatus::Ready(_) | SlotStatus::Unloaded(_) => {}
        }
        let Some(path) = slot.snapshot_path() else {
            return Err("model has no snapshot to load".into());
        };
        let mut fitted =
            load_fitted(&path).map_err(|e| format!("loading model {} failed: {e}", slot.id))?;
        // snapshots carry no handle: without this, reloaded models
        // would draw with no `sample` spans
        fitted.set_obs(self.obs.clone());
        self.loads.inc();
        self.install(slot, resident, fitted, false);
        Ok(())
    }

    /// The one way a model becomes resident (fit completion and lazy
    /// load): under the held model mutex, sets the model with an empty
    /// pool, persists it when asked — so a fit's snapshot is on disk
    /// before its slot turns `Ready` — and flips the status to `Ready`;
    /// then touches the slot and evicts down to capacity.
    fn install(
        &self,
        slot: &Arc<ModelSlot>,
        mut resident: MutexGuard<'_, Option<Resident>>,
        fitted: FittedKamino,
        persist: bool,
    ) {
        let meta = ModelMeta::new(&fitted);
        let r = resident.insert(Resident {
            fitted: Box::new(fitted),
            pool: SamplePool::new(self.pool_cfg),
        });
        if persist {
            if let Err(e) = self.persist(slot, r) {
                eprintln!("kamino-serve: snapshot of model {} failed: {e}", slot.id);
            }
        }
        *slot.status.lock().unwrap() = SlotStatus::Ready(meta);
        drop(resident);
        self.touch(slot);
        self.evict_over_capacity();
    }

    /// The one way a model reaches disk (fit completion, `POST
    /// /models/{id}/snapshot`, LRU eviction). The caller holds the model
    /// mutex that guards `r`. Writes [`Resident::canonical_bytes`]
    /// atomically to the slot's snapshot path — an imported file is
    /// rewritten in place — or, for a slot without one,
    /// `model_dir/model-{id}.kamino`; then commits the model to the
    /// manifest and records the path.
    pub(crate) fn persist(
        &self,
        slot: &ModelSlot,
        r: &mut Resident,
    ) -> Result<PathBuf, SnapshotError> {
        let path = match (slot.snapshot_path(), &self.model_dir) {
            (Some(p), _) => p,
            (None, Some(dir)) => dir.join(format!("model-{}.kamino", slot.id)),
            (None, None) => {
                return Err(std::io::Error::other("server started without --model-dir").into())
            }
        };
        write_snapshot_bytes(&r.canonical_bytes(), &path)?;
        self.commit_to_manifest(slot.id, &path);
        slot.set_snapshot_path(path.clone());
        Ok(path)
    }

    /// Evicts least-recently-touched unpinned models until at most
    /// `max_resident` remain. Eviction persists the model at its
    /// canonical cursor and drops it. Without a model directory nothing
    /// can be persisted, so nothing is evicted; models whose mutex is
    /// busy are skipped — residency is a soft bound under contention,
    /// never a correctness risk.
    pub fn evict_over_capacity(&self) {
        if self.max_resident == 0 || self.model_dir.is_none() {
            return;
        }
        loop {
            let mut resident: Vec<(u64, Arc<ModelSlot>)> = self
                .list()
                .into_iter()
                .filter(|s| matches!(&*s.status.lock().unwrap(), SlotStatus::Ready(_)))
                .map(|s| (s.last_touch.load(Ordering::Relaxed), s))
                .collect();
            if resident.len() <= self.max_resident {
                return;
            }
            resident.sort_by_key(|(touch, s)| (*touch, s.id));
            let mut evicted_one = false;
            for (_, slot) in resident {
                if slot.pins.load(Ordering::Acquire) > 0 {
                    continue;
                }
                if self.try_evict(&slot) {
                    evicted_one = true;
                    break;
                }
            }
            if !evicted_one {
                return;
            }
        }
    }

    /// Attempts to evict one slot. `false` when it is busy, pinned, or
    /// its snapshot write fails (the model then stays resident).
    fn try_evict(&self, slot: &Arc<ModelSlot>) -> bool {
        // try_lock: an actively sampling model is busy by definition —
        // skip it rather than stall whoever triggered the eviction
        let Ok(mut resident) = slot.resident.try_lock() else {
            return false;
        };
        if slot.pins.load(Ordering::Acquire) > 0 {
            return false;
        }
        let Some(r) = resident.as_mut() else {
            return false;
        };
        if let Err(e) = self.persist(slot, r) {
            eprintln!(
                "kamino-serve: evicting model {} failed to persist: {e}",
                slot.id
            );
            return false;
        }
        *resident = None;
        slot.pool_depth.set(0.0);
        let mut status = slot.status.lock().unwrap();
        *status = SlotStatus::Unloaded(status.meta());
        self.evictions.inc();
        true
    }

    /// Sets the open/resident model gauges from the slot table (status
    /// mutexes only, never a model mutex). Called just before
    /// `/metrics` renders.
    pub fn publish_gauges(&self) {
        let slots = self.list();
        let resident = slots
            .iter()
            .filter(|s| matches!(&*s.status.lock().unwrap(), SlotStatus::Ready(_)))
            .count();
        self.open_models.set(slots.len() as f64);
        self.resident_models.set(resident as f64);
    }
}

/// Extracts the id from a server-written snapshot name
/// (`model-{id}.kamino`).
fn id_from_snapshot_name(path: &Path) -> Option<u64> {
    path.file_stem()?
        .to_str()?
        .strip_prefix("model-")?
        .parse()
        .ok()
}
