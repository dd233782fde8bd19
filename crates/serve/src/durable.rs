//! The durability layer behind `--model-dir`: a write-ahead budget
//! ledger, an atomic file-install protocol, a committed-model manifest,
//! and the quarantine policy for anything on disk that fails its checks.
//!
//! ## Why a ledger
//!
//! The privacy budget is spent *inside* a fit job — by the time
//! `fit_kamino` returns, the Gaussian mechanisms of M1/M2/M3 have
//! already consumed ε/δ against the private input. A crash between
//! "mechanisms ran" and "model persisted" must therefore never erase the
//! record of that spend: the composition guarantee (PAPER.md §5,
//! Theorem 1) is an invariant over *attempted* runs, not successful
//! ones. The ledger records a [`LedgerRecord::FitIntent`] — budgeted ε,
//! δ and the config's stable hash — durably (fsync'd) *before* any
//! mechanism executes, and a `FitCommit`/`FitAbort` after. On boot the
//! ledger is replayed: an intent with no matching commit or abort is a
//! crashed fit, surfaced as a `failed (crashed)` model whose budgeted ε
//! counts as spent. ε is never double-counted (each intent is counted
//! once, keyed by model id) and never forgotten (the intent is on disk
//! before the spend).
//!
//! ## Ledger format (`ledger.kamlog`)
//!
//! An append-only sequence of CRC-framed records:
//!
//! ```text
//! ┌──────────────┬──────────────┬──────────────┐
//! │ len (u32 LE) │ crc (u32 LE) │ payload      │
//! └──────────────┴──────────────┴──────────────┘
//! ```
//!
//! `crc` is the IEEE CRC-32 of the payload. Replay stops at the first
//! frame that is short, oversized or fails its CRC — a torn tail from a
//! crash mid-append — and truncates the file back to the last complete
//! frame, so the next append starts on a clean boundary.
//!
//! ## Atomic installs and the manifest
//!
//! [`write_atomic`] is the only sanctioned way to install a file in the
//! model directory: write a uniquely-named tmp sibling, `fsync` it,
//! `rename` over the target, then `fsync` the directory so the rename
//! itself is durable. A versioned [`Manifest`] (`MANIFEST` in the model
//! directory, installed via the same protocol) lists every committed
//! model id and snapshot file name; boot cross-checks it and warns
//! loudly about committed models whose snapshot has gone missing.
//!
//! Anything that fails its checks at boot — a snapshot with a bad CRC, a
//! stale tmp file from a crashed install, an unreadable manifest — is
//! [`quarantine`]d: renamed to `*.quarantine`, logged, and never loaded.
//! Boot continues; corruption of one file is not an outage.
//!
//! ## Fault injection
//!
//! The [`chaos`] module gives the crash-recovery suite
//! (`tests/crash_recovery.rs`) syscall-level fault points:
//! `KAMINO_CHAOS_FAULT=<point>` aborts the process (SIGKILL-equivalent)
//! the first time execution crosses the named point, and
//! `KAMINO_CHAOS_DISK_FULL=1` makes [`write_atomic`] fail like a full
//! disk. Both are inert unless the environment variable is set. The
//! points are `fit.after_intent` (in the server's fit job),
//! `ledger.torn_append` ([`Ledger::append`]), and `snapshot.pre_rename`
//! and `snapshot.post_rename` ([`write_atomic`]).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use kamino_data::wire::{crc32, ByteReader, ByteWriter};

/// The ledger's file name inside `--model-dir`.
pub const LEDGER_NAME: &str = "ledger.kamlog";

/// The manifest's file name inside `--model-dir`.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// Manifest file magic.
pub const MANIFEST_MAGIC: [u8; 8] = *b"KAMMANF\0";

/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// Largest ledger frame replay will accept. Real records are tens of
/// bytes; anything bigger is torn or foreign bytes, not a record.
const MAX_FRAME: u32 = 4096;

/// Why a fit that recorded an intent did not commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The fit pipeline panicked (infeasible budget, bad input…).
    Panic,
    /// Boot-time recovery: the process died with the intent dangling.
    Crash,
}

impl AbortReason {
    fn to_wire(self) -> u8 {
        match self {
            AbortReason::Panic => 0,
            AbortReason::Crash => 1,
        }
    }

    fn from_wire(b: u8) -> Option<AbortReason> {
        match b {
            0 => Some(AbortReason::Panic),
            1 => Some(AbortReason::Crash),
            _ => None,
        }
    }
}

/// One ledger record.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerRecord {
    /// Appended — and fsync'd — before any DP mechanism of the fit runs.
    FitIntent {
        /// The model slot the fit will fill.
        model_id: u64,
        /// Budgeted ε (`f64::INFINITY` for non-private fits).
        epsilon: f64,
        /// Budgeted δ.
        delta: f64,
        /// [`kamino_core::KaminoConfig::stable_hash`] of the fit config.
        plan_hash: u64,
    },
    /// The fit finished and its model is installed.
    FitCommit {
        /// The model the intent announced.
        model_id: u64,
        /// ε actually achieved by the calibrated plan (≤ budgeted ε).
        achieved_epsilon: f64,
        /// [`kamino_dp::spend_fingerprint`] of the executed plan.
        fingerprint: u64,
    },
    /// The fit ended without a model; its budgeted ε stays spent.
    FitAbort {
        /// The model the intent announced.
        model_id: u64,
        /// Why it aborted.
        reason: AbortReason,
    },
}

const TAG_INTENT: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 3;

impl LedgerRecord {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            LedgerRecord::FitIntent {
                model_id,
                epsilon,
                delta,
                plan_hash,
            } => {
                w.put_u8(TAG_INTENT);
                w.put_u64(*model_id);
                w.put_f64(*epsilon);
                w.put_f64(*delta);
                w.put_u64(*plan_hash);
            }
            LedgerRecord::FitCommit {
                model_id,
                achieved_epsilon,
                fingerprint,
            } => {
                w.put_u8(TAG_COMMIT);
                w.put_u64(*model_id);
                w.put_f64(*achieved_epsilon);
                w.put_u64(*fingerprint);
            }
            LedgerRecord::FitAbort { model_id, reason } => {
                w.put_u8(TAG_ABORT);
                w.put_u64(*model_id);
                w.put_u8(reason.to_wire());
            }
        }
        w.into_bytes()
    }

    fn decode(payload: &[u8]) -> Option<LedgerRecord> {
        let mut r = ByteReader::new(payload);
        let rec = match r.u8().ok()? {
            TAG_INTENT => LedgerRecord::FitIntent {
                model_id: r.u64().ok()?,
                epsilon: r.f64().ok()?,
                delta: r.f64().ok()?,
                plan_hash: r.u64().ok()?,
            },
            TAG_COMMIT => LedgerRecord::FitCommit {
                model_id: r.u64().ok()?,
                achieved_epsilon: r.f64().ok()?,
                fingerprint: r.u64().ok()?,
            },
            TAG_ABORT => LedgerRecord::FitAbort {
                model_id: r.u64().ok()?,
                reason: AbortReason::from_wire(r.u8().ok()?)?,
            },
            _ => return None,
        };
        r.is_exhausted().then_some(rec)
    }

    /// The model id every record carries.
    pub fn model_id(&self) -> u64 {
        match self {
            LedgerRecord::FitIntent { model_id, .. }
            | LedgerRecord::FitCommit { model_id, .. }
            | LedgerRecord::FitAbort { model_id, .. } => *model_id,
        }
    }
}

/// What replaying the ledger at boot learned.
#[derive(Debug, Default)]
pub struct LedgerReplay {
    /// Every intact record, in append order.
    pub records: Vec<LedgerRecord>,
    /// Bytes of torn tail truncated away (0 on a clean file).
    pub truncated_bytes: u64,
    /// Intents with no matching commit or abort: fits the process died
    /// inside. Their budgeted ε is spent.
    pub dangling: Vec<(u64, f64)>,
    /// Σ budgeted ε over every intent — a durable upper bound on all ε
    /// ever spent against this model directory (never an undercount).
    pub spent_epsilon: f64,
    /// Largest model id any record mentions (0 when none).
    pub max_model_id: u64,
}

/// The append-only write-ahead ledger. One instance per server; appends
/// are serialized by the registry's mutex around it.
pub struct Ledger {
    file: File,
    /// Σ budgeted ε over every intent on file, appends included.
    spent_epsilon: f64,
}

impl Ledger {
    /// Opens (creating if absent) and replays `dir/ledger.kamlog`,
    /// truncating any torn tail so the next append lands on a frame
    /// boundary.
    pub fn open(dir: &Path) -> io::Result<(Ledger, LedgerReplay)> {
        let path = dir.join(LEDGER_NAME);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut replay = LedgerReplay::default();
        let mut off = 0usize;
        while off < bytes.len() {
            let Some(head) = bytes.get(off..off + 8) else {
                break;
            };
            let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
            let crc = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
            if len > MAX_FRAME {
                break;
            }
            let Some(payload) = bytes.get(off + 8..off + 8 + len as usize) else {
                break;
            };
            if crc32(payload) != crc {
                break;
            }
            let Some(rec) = LedgerRecord::decode(payload) else {
                break;
            };
            replay.max_model_id = replay.max_model_id.max(rec.model_id());
            replay.records.push(rec);
            off += 8 + len as usize;
        }
        if off < bytes.len() {
            replay.truncated_bytes = (bytes.len() - off) as u64;
            file.set_len(off as u64)?;
            file.sync_all()?;
        }
        // resolve intents against later commits/aborts
        let mut open: Vec<(u64, f64)> = Vec::new();
        for rec in &replay.records {
            match rec {
                LedgerRecord::FitIntent {
                    model_id, epsilon, ..
                } => {
                    replay.spent_epsilon += epsilon;
                    open.push((*model_id, *epsilon));
                }
                LedgerRecord::FitCommit { model_id, .. }
                | LedgerRecord::FitAbort { model_id, .. } => {
                    if let Some(i) = open.iter().position(|(id, _)| id == model_id) {
                        open.remove(i);
                    }
                }
            }
        }
        replay.dangling = open;
        use std::io::Seek;
        file.seek(io::SeekFrom::End(0))?;
        fsync_dir(dir)?;
        let ledger = Ledger {
            file,
            spent_epsilon: replay.spent_epsilon,
        };
        Ok((ledger, replay))
    }

    /// Σ budgeted ε over every intent on file — the replayed total plus
    /// every intent appended since (∞ once any fit was non-private).
    pub fn spent_epsilon(&self) -> f64 {
        self.spent_epsilon
    }

    /// Appends one record durably: the frame is written and fsync'd
    /// before this returns. Chaos point: `ledger.torn_append` (die after
    /// half a frame).
    pub fn append(&mut self, rec: &LedgerRecord) -> io::Result<()> {
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        if chaos::should_fire("ledger.torn_append") {
            let _ = self.file.write_all(&frame[..frame.len() / 2]);
            let _ = self.file.sync_all();
            chaos::abort_now("ledger.torn_append");
        }
        self.file.write_all(&frame)?;
        self.file.sync_all()?;
        if let LedgerRecord::FitIntent { epsilon, .. } = rec {
            self.spent_epsilon += epsilon;
        }
        Ok(())
    }
}

/// The committed-model manifest: every model id whose snapshot install
/// completed, with its snapshot file name. Rewritten atomically after
/// each commit; an unreadable manifest is quarantined at boot, not
/// fatal (snapshot files re-register from the directory scan).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// `model id → snapshot file name`, sorted by id.
    pub entries: std::collections::BTreeMap<u64, String>,
}

impl Manifest {
    /// Serializes: magic, version, entry count, entries, trailing CRC of
    /// everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_raw(&MANIFEST_MAGIC);
        w.put_u32(MANIFEST_VERSION);
        w.put_u32(self.entries.len() as u32);
        for (id, name) in &self.entries {
            w.put_u64(*id);
            w.put_str(name);
        }
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Deserializes and CRC-verifies manifest bytes.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, String> {
        if bytes.len() < 4 {
            return Err("manifest shorter than its checksum".into());
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
        if crc32(body) != stored {
            return Err("manifest failed its CRC check".into());
        }
        let mut r = ByteReader::new(body);
        let magic = r.raw(8).map_err(|e| e.to_string())?;
        if magic != MANIFEST_MAGIC {
            return Err("not a Kamino manifest (bad magic)".into());
        }
        let version = r.u32().map_err(|e| e.to_string())?;
        if version != MANIFEST_VERSION {
            return Err(format!(
                "unsupported manifest version {version} (this build reads {MANIFEST_VERSION})"
            ));
        }
        let count = r.u32().map_err(|e| e.to_string())? as usize;
        let mut entries = std::collections::BTreeMap::new();
        for _ in 0..count {
            let id = r.u64().map_err(|e| e.to_string())?;
            let name = r.string().map_err(|e| e.to_string())?;
            entries.insert(id, name);
        }
        Ok(Manifest { entries })
    }

    /// Records `name` as model `id`'s snapshot and drops every other id
    /// mapped to the same file: boot gives imported (foreign-named)
    /// snapshots a fresh id each time, so an older id for the file is a
    /// stale alias. Returns whether the entries changed.
    pub fn commit(&mut self, id: u64, name: &str) -> bool {
        let before = self.entries.clone();
        self.entries.retain(|&other, n| other == id || n != name);
        self.entries.insert(id, name.to_owned());
        self.entries != before
    }

    /// The committed entries whose file name is not among `registered`.
    /// Matched by name, not id: an imported snapshot may come back under
    /// another id than the one it was committed as.
    pub fn unbacked<'a>(&'a self, registered: &[String]) -> Vec<(u64, &'a str)> {
        self.entries
            .iter()
            .filter(|(_, name)| !registered.contains(name))
            .map(|(&id, name)| (id, name.as_str()))
            .collect()
    }

    /// Loads `dir/MANIFEST`. `Ok(None)` when none exists yet;
    /// `Err` when one exists but does not verify.
    pub fn load(dir: &Path) -> Result<Option<Manifest>, String> {
        let path = dir.join(MANIFEST_NAME);
        match fs::read(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("reading manifest: {e}")),
            Ok(bytes) => Manifest::decode(&bytes).map(Some),
        }
    }

    /// Atomically installs this manifest as `dir/MANIFEST`.
    pub fn store(&self, dir: &Path) -> io::Result<()> {
        write_atomic(&self.encode(), &dir.join(MANIFEST_NAME))
    }
}

/// Atomically installs `bytes` at `path`: write a uniquely-named tmp
/// sibling, fsync it, rename over the target, fsync the parent
/// directory. A crash at any point leaves either the old file or the
/// new one — never a torn mix — plus at worst a stale tmp that boot
/// quarantines. Chaos points: `snapshot.pre_rename` (die with the tmp
/// written), `snapshot.post_rename` (die with the target renamed in,
/// before the directory fsync); `KAMINO_CHAOS_DISK_FULL=1` fails the
/// write up front like a full disk.
pub fn write_atomic(bytes: &[u8], path: &Path) -> io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    if chaos::disk_full() {
        return Err(io::Error::other("disk full (chaos shim)"));
    }
    let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut tmp_name = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".into());
    tmp_name.push_str(&format!(".tmp-{}-{n}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let cleanup = |e: io::Error| {
        let _ = fs::remove_file(&tmp);
        e
    };
    let mut f = File::create(&tmp)?;
    f.write_all(bytes).map_err(cleanup)?;
    f.sync_all().map_err(cleanup)?;
    drop(f);
    chaos::fault_point("snapshot.pre_rename");
    fs::rename(&tmp, path).map_err(cleanup)?;
    chaos::fault_point("snapshot.post_rename");
    if let Some(dir) = path.parent() {
        fsync_dir(dir)?;
    }
    Ok(())
}

/// Fsyncs a directory so completed renames/creates inside it survive a
/// crash.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Renames a failed file to `<name>.quarantine` (never loaded again,
/// kept for post-mortem). The suffix is appended, so quarantining is
/// idempotent-safe: a second failure of the same name targets the same
/// quarantine path and simply overwrites it.
pub fn quarantine(path: &Path) -> io::Result<PathBuf> {
    let mut name = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".into());
    name.push_str(".quarantine");
    let target = path.with_file_name(name);
    fs::rename(path, &target)?;
    Ok(target)
}

/// Whether a directory entry is a stale tmp file from a crashed
/// [`write_atomic`] install.
pub fn is_stale_tmp(path: &Path) -> bool {
    path.file_name()
        .and_then(|s| s.to_str())
        .is_some_and(|name| name.contains(".tmp-") && !name.ends_with(".quarantine"))
}

/// Process-abort fault injection for the crash-recovery suite.
///
/// `KAMINO_CHAOS_FAULT=<point>` arms exactly one named point; the first
/// time execution crosses it, the process aborts — the in-process
/// equivalent of `kill -9` at that syscall boundary.
/// `KAMINO_CHAOS_DISK_FULL=1` makes [`write_atomic`] fail. Unset
/// variables make every hook inert and branch-predictable.
pub mod chaos {
    use std::sync::OnceLock;

    /// Whether the named point is the armed one. Used by call sites that
    /// need to do damage (e.g. write half a frame) before [`abort_now`].
    pub fn should_fire(point: &str) -> bool {
        static ARMED: OnceLock<Option<String>> = OnceLock::new();
        ARMED
            .get_or_init(|| std::env::var("KAMINO_CHAOS_FAULT").ok())
            .as_deref()
            == Some(point)
    }

    /// Aborts the process like `kill -9` would: no unwinding, no
    /// destructors, no flushes.
    pub fn abort_now(point: &str) -> ! {
        eprintln!("kamino-serve: aborting at chaos fault point `{point}`");
        std::process::abort()
    }

    /// Dies here if the named fault point is armed.
    pub fn fault_point(point: &str) {
        if should_fire(point) {
            abort_now(point);
        }
    }

    /// Whether the disk-full shim is on (`KAMINO_CHAOS_DISK_FULL=1`).
    pub fn disk_full() -> bool {
        static ON: OnceLock<bool> = OnceLock::new();
        *ON.get_or_init(|| {
            std::env::var("KAMINO_CHAOS_DISK_FULL").is_ok_and(|v| v == "1" || v == "true")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kamino-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn intent(id: u64, eps: f64) -> LedgerRecord {
        LedgerRecord::FitIntent {
            model_id: id,
            epsilon: eps,
            delta: 1e-6,
            plan_hash: 0xfeed,
        }
    }

    #[test]
    fn ledger_roundtrip_and_replay() {
        let dir = tmpdir("roundtrip");
        {
            let (mut ledger, replay) = Ledger::open(&dir).unwrap();
            assert!(replay.records.is_empty());
            ledger.append(&intent(1, 1.0)).unwrap();
            ledger
                .append(&LedgerRecord::FitCommit {
                    model_id: 1,
                    achieved_epsilon: 0.97,
                    fingerprint: 42,
                })
                .unwrap();
            ledger.append(&intent(2, 0.5)).unwrap();
        }
        let (_ledger, replay) = Ledger::open(&dir).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.dangling, vec![(2, 0.5)]);
        assert!((replay.spent_epsilon - 1.5).abs() < 1e-12);
        assert_eq!(replay.max_model_id, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let dir = tmpdir("torn");
        {
            let (mut ledger, _) = Ledger::open(&dir).unwrap();
            ledger.append(&intent(1, 1.0)).unwrap();
        }
        let path = dir.join(LEDGER_NAME);
        let clean_len = fs::metadata(&path).unwrap().len();
        // simulate a crash mid-append: garbage half-frame at the tail
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2, 3]);
        fs::write(&path, &bytes).unwrap();
        let (mut ledger, replay) = Ledger::open(&dir).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.truncated_bytes, 7);
        assert_eq!(fs::metadata(&path).unwrap().len(), clean_len);
        // the next append lands on the clean boundary and replays whole
        ledger
            .append(&LedgerRecord::FitAbort {
                model_id: 1,
                reason: AbortReason::Crash,
            })
            .unwrap();
        drop(ledger);
        let (_ledger, replay) = Ledger::open(&dir).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(replay.dangling.is_empty());
        assert!((replay.spent_epsilon - 1.0).abs() < 1e-12);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_stops_replay_at_last_good_record() {
        let dir = tmpdir("corrupt");
        {
            let (mut ledger, _) = Ledger::open(&dir).unwrap();
            ledger.append(&intent(1, 1.0)).unwrap();
            ledger.append(&intent(2, 2.0)).unwrap();
        }
        let path = dir.join(LEDGER_NAME);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // flip a payload bit in the second frame
        fs::write(&path, &bytes).unwrap();
        let (_ledger, replay) = Ledger::open(&dir).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.truncated_bytes > 0);
        assert_eq!(replay.dangling, vec![(1, 1.0)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_private_intents_replay_as_infinite_spend() {
        let dir = tmpdir("inf");
        {
            let (mut ledger, _) = Ledger::open(&dir).unwrap();
            ledger.append(&intent(1, f64::INFINITY)).unwrap();
        }
        let (_ledger, replay) = Ledger::open(&dir).unwrap();
        assert!(replay.spent_epsilon.is_infinite());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_roundtrip_and_corruption_detection() {
        let dir = tmpdir("manifest");
        assert_eq!(Manifest::load(&dir).unwrap(), None);
        let mut m = Manifest::default();
        m.entries.insert(3, "model-3.kamino".into());
        m.entries.insert(7, "model-7.kamino".into());
        m.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(m.clone()));
        // a flipped byte must fail the CRC, not decode garbage
        let path = dir.join(MANIFEST_NAME);
        let mut bytes = fs::read(&path).unwrap();
        bytes[12] ^= 0x55;
        fs::write(&path, &bytes).unwrap();
        assert!(Manifest::load(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn renumbered_import_stays_backed_and_replaces_its_old_id() {
        // an import committed as model 1, then a fit written as model 2;
        // on the next boot the import is registered as model 3
        let mut m = Manifest::default();
        assert!(m.commit(1, "imported.kamino"));
        assert!(m.commit(2, "model-2.kamino"));
        assert!(!m.commit(2, "model-2.kamino"), "a repeat commit is a no-op");
        let registered = vec!["imported.kamino".to_string(), "model-2.kamino".to_string()];
        assert!(m.unbacked(&registered).is_empty());
        // committing it under its new id drops the stale alias
        assert!(m.commit(3, "imported.kamino"));
        let ids: Vec<(u64, &str)> = m.entries.iter().map(|(&id, n)| (id, n.as_str())).collect();
        assert_eq!(ids, [(2, "model-2.kamino"), (3, "imported.kamino")]);
        // a snapshot that really is gone is still reported
        let registered = vec!["model-2.kamino".to_string()];
        assert_eq!(m.unbacked(&registered), vec![(3, "imported.kamino")]);
    }

    #[test]
    fn write_atomic_installs_and_leaves_no_tmp() {
        let dir = tmpdir("atomic");
        let path = dir.join("model-1.kamino");
        write_atomic(b"hello", &path).unwrap();
        write_atomic(b"world", &path).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"world");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| is_stale_tmp(&e.path()))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_renames_with_suffix() {
        let dir = tmpdir("quarantine");
        let path = dir.join("model-1.kamino");
        fs::write(&path, b"garbage").unwrap();
        let target = quarantine(&path).unwrap();
        assert!(!path.exists());
        assert!(target.exists());
        assert!(target
            .to_string_lossy()
            .ends_with("model-1.kamino.quarantine"));
        assert!(!is_stale_tmp(&target));
        assert!(is_stale_tmp(&dir.join("model-1.kamino.tmp-44-0")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_hooks_are_inert_without_env() {
        // the crash-recovery suite sets the env vars in *spawned*
        // processes only, so in-process tests must never trip them
        chaos::fault_point("fit.after_intent");
        assert!(!chaos::should_fire("ledger.torn_append"));
        assert!(!chaos::disk_full());
    }
}
