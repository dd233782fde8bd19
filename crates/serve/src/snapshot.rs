//! The `.kamino` snapshot container: a versioned, endianness-fixed binary
//! format that persists a complete fitted synthesis session.
//!
//! ## Layout
//!
//! ```text
//! ┌─────────────────────────────────────────────────────────┐
//! │ magic  "KAMSNAP\0"                              8 bytes │
//! │ format version (u32 LE, currently 2)            4 bytes │
//! │ section count   (u32 LE)                        4 bytes │
//! │ section table: id u32 · offset u64 · len u64 · crc u32  │
//! │ payload: the sections, back to back                     │
//! └─────────────────────────────────────────────────────────┘
//! ```
//!
//! Offsets are relative to the payload base (first byte after the
//! table). Each section is sealed with an IEEE CRC-32; the loader
//! verifies every checksum before decoding a single byte of payload, so
//! bit rot surfaces as [`SnapshotError::CrcMismatch`] instead of a
//! garbage model. Unknown *extra* sections are ignored on load — future
//! versions can append sections without breaking old readers — while any
//! other version number (an incompatible layout, version 1 included) is
//! refused outright as [`SnapshotError::UnsupportedVersion`].
//!
//! The sections persist everything [`FittedKamino`] is made of, each
//! field once:
//!
//! | id | section | holds                                                   |
//! |----|---------|---------------------------------------------------------|
//! | 1  | SCHEMA  | the schema (which determines quantizers/encoders)       |
//! | 2  | DCS     | the DC list with hardness                               |
//! | 3  | MODEL   | the sequence and the trained model tensors              |
//! | 4  | PARAMS  | the selected privacy parameters and the achieved ε      |
//! | 5  | CONFIG  | the pipeline configuration (budget included)            |
//! | 6  | SESSION | learned DC weights, input size, the six phase timings   |
//! | 7  | RNG     | the sample stream's cursor                              |
//!
//! Loading therefore resumes the *exact* deterministic sample stream the
//! saved session would have produced next — sampling spends no privacy
//! budget, so a snapshot can be shared and queried forever at the ε it
//! was fitted under.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use kamino_core::snapshot as core_codec;
use kamino_core::FittedKamino;
use kamino_data::wire::{crc32, ByteReader, ByteWriter, WireError};

/// File magic, 8 bytes.
pub const MAGIC: [u8; 8] = *b"KAMSNAP\0";

/// Current container format version.
pub const FORMAT_VERSION: u32 = 2;

/// Section ids of format version 2. Id 8 held version 1's sample-phase
/// timings; it is never reused, so a reader cannot mistake such bytes
/// for a later section.
mod section {
    pub const SCHEMA: u32 = 1;
    pub const DCS: u32 = 2;
    pub const MODEL: u32 = 3;
    pub const PARAMS: u32 = 4;
    pub const CONFIG: u32 = 5;
    pub const SESSION: u32 = 6;
    pub const RNG: u32 = 7;
    /// The sections [`super::decode_fitted`] cannot do without.
    pub const REQUIRED: [u32; 7] = [SCHEMA, DCS, MODEL, PARAMS, CONFIG, SESSION, RNG];
}

fn section_name(id: u32) -> &'static str {
    match id {
        section::SCHEMA => "schema",
        section::DCS => "dcs",
        section::MODEL => "model",
        section::PARAMS => "params",
        section::CONFIG => "config",
        section::SESSION => "session",
        section::RNG => "rng",
        _ => "unknown",
    }
}

/// Everything that can go wrong saving or loading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file does not start with the `KAMSNAP` magic.
    BadMagic,
    /// The file declares a format version this build cannot read.
    UnsupportedVersion(u32),
    /// A section's CRC-32 does not match its bytes.
    CrcMismatch {
        /// Human-readable section name.
        section: &'static str,
    },
    /// A required section is absent from the table.
    MissingSection {
        /// Human-readable section name.
        section: &'static str,
    },
    /// The section table points outside the payload.
    BadSectionTable(String),
    /// A section's bytes do not decode.
    Wire(WireError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a Kamino snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            SnapshotError::CrcMismatch { section } => {
                write!(
                    f,
                    "snapshot section `{section}` failed its CRC check (corrupted file)"
                )
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "snapshot is missing required section `{section}`")
            }
            SnapshotError::BadSectionTable(msg) => write!(f, "bad section table: {msg}"),
            SnapshotError::Wire(e) => write!(f, "snapshot payload does not decode: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> SnapshotError {
        SnapshotError::Wire(e)
    }
}

/// Serializes a fitted session to the container format in memory.
pub fn encode_fitted(fitted: &FittedKamino) -> Vec<u8> {
    let mut sections: Vec<(u32, Vec<u8>)> = Vec::with_capacity(section::REQUIRED.len());

    let mut w = ByteWriter::new();
    kamino_data::snapshot::encode_schema(fitted.schema(), &mut w);
    sections.push((section::SCHEMA, w.into_bytes()));

    let mut w = ByteWriter::new();
    kamino_constraints::snapshot::encode_dcs(fitted.dcs(), &mut w);
    sections.push((section::DCS, w.into_bytes()));

    let mut w = ByteWriter::new();
    core_codec::encode_model(fitted.model(), &mut w);
    sections.push((section::MODEL, w.into_bytes()));

    let mut w = ByteWriter::new();
    core_codec::encode_params(&fitted.params, &mut w);
    sections.push((section::PARAMS, w.into_bytes()));

    let mut w = ByteWriter::new();
    core_codec::encode_config(fitted.config(), &mut w);
    sections.push((section::CONFIG, w.into_bytes()));

    let mut w = ByteWriter::new();
    w.put_f64s(&fitted.weights);
    w.put_usize(fitted.n_input());
    core_codec::encode_timings(&fitted.timings, &mut w);
    sections.push((section::SESSION, w.into_bytes()));

    let mut w = ByteWriter::new();
    for s in fitted.rng_state() {
        w.put_u64(s);
    }
    sections.push((section::RNG, w.into_bytes()));

    let mut header = ByteWriter::new();
    header.put_raw(&MAGIC);
    header.put_u32(FORMAT_VERSION);
    header.put_u32(sections.len() as u32);
    let mut offset = 0u64;
    for (id, bytes) in &sections {
        header.put_u32(*id);
        header.put_u64(offset);
        header.put_u64(bytes.len() as u64);
        header.put_u32(crc32(bytes));
        offset += bytes.len() as u64;
    }
    let mut out = header.into_bytes();
    for (_, bytes) in &sections {
        out.extend_from_slice(bytes);
    }
    out
}

/// One parsed-and-verified section table entry.
struct SectionSlice<'a> {
    id: u32,
    bytes: &'a [u8],
}

fn parse_sections(bytes: &[u8]) -> Result<Vec<SectionSlice<'_>>, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.raw(8).map_err(|_| SnapshotError::BadMagic)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32().map_err(SnapshotError::Wire)?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let count = r.u32()? as usize;
    if count > 256 {
        return Err(SnapshotError::BadSectionTable(format!(
            "{count} sections is beyond any valid snapshot"
        )));
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let id = r.u32()?;
        let offset = r.u64()?;
        let len = r.u64()?;
        let crc = r.u32()?;
        entries.push((id, offset, len, crc));
    }
    let payload_base = bytes.len() - r.remaining();
    let payload = &bytes[payload_base..];
    let mut out = Vec::with_capacity(count);
    for (id, offset, len, crc) in entries {
        let end = offset.checked_add(len).ok_or_else(|| {
            SnapshotError::BadSectionTable(format!("section {id} offset overflow"))
        })?;
        if end > payload.len() as u64 {
            return Err(SnapshotError::BadSectionTable(format!(
                "section `{}` [{offset}, {end}) exceeds payload of {} bytes",
                section_name(id),
                payload.len()
            )));
        }
        let slice = &payload[offset as usize..end as usize];
        if crc32(slice) != crc {
            return Err(SnapshotError::CrcMismatch {
                section: section_name(id),
            });
        }
        out.push(SectionSlice { id, bytes: slice });
    }
    Ok(out)
}

fn find<'a>(sections: &'a [SectionSlice<'a>], id: u32) -> Result<ByteReader<'a>, SnapshotError> {
    sections
        .iter()
        .find(|s| s.id == id)
        .map(|s| ByteReader::new(s.bytes))
        .ok_or(SnapshotError::MissingSection {
            section: section_name(id),
        })
}

/// Deserializes a fitted session from container bytes.
pub fn decode_fitted(bytes: &[u8]) -> Result<FittedKamino, SnapshotError> {
    let sections = parse_sections(bytes)?;

    let mut r = find(&sections, section::SCHEMA)?;
    let schema = kamino_data::snapshot::decode_schema(&mut r)?;

    let mut r = find(&sections, section::DCS)?;
    let dcs = kamino_constraints::snapshot::decode_dcs(&mut r, &schema)?;

    let mut r = find(&sections, section::MODEL)?;
    let model = core_codec::decode_model(&mut r, &schema)?;

    let mut r = find(&sections, section::CONFIG)?;
    let cfg = core_codec::decode_config(&mut r)?;

    let mut r = find(&sections, section::PARAMS)?;
    let params = core_codec::decode_params(&mut r, &cfg.budget)?;

    let mut r = find(&sections, section::SESSION)?;
    let weights = r.f64s()?;
    let n_input = r.usize()?;
    let timings = core_codec::decode_timings(&mut r)?;
    core_codec::validate_weights(&weights, &dcs)?;

    let mut r = find(&sections, section::RNG)?;
    let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];

    let sequence = model.sequence.clone();
    Ok(FittedKamino::from_parts(
        sequence, weights, params, timings, schema, dcs, model, cfg, n_input, rng_state,
    ))
}

/// Writes already-encoded snapshot bytes to `path` through the durable
/// install protocol ([`crate::durable::write_atomic`]: unique tmp →
/// fsync file → rename → fsync dir). Split from [`save_fitted`] so
/// callers holding a lock on the session can encode under the lock and
/// do the disk I/O outside it. The tmp name is unique per call —
/// concurrent saves of the same model each install a complete file via
/// their own rename instead of interleaving writes into a shared tmp
/// (which could tear the snapshot).
pub fn write_snapshot_bytes(bytes: &[u8], path: &Path) -> Result<(), SnapshotError> {
    crate::durable::write_atomic(bytes, path).map_err(SnapshotError::Io)
}

/// Reads a snapshot and checks its magic, version and section table,
/// that every section [`decode_fitted`] requires is present, and every
/// section CRC, without decoding any payload. This is the boot-scan
/// integrity check behind the quarantine policy: bit rot anywhere in the
/// file, or a missing section, surfaces here.
pub fn verify_snapshot(path: &Path) -> Result<(), SnapshotError> {
    let bytes = fs::read(path)?;
    let sections = parse_sections(&bytes)?;
    for required in section::REQUIRED {
        find(&sections, required)?;
    }
    Ok(())
}

/// Saves a fitted session to `path` through
/// [`write_snapshot_bytes`]'s durable install: a uniquely named tmp
/// sibling, fsync, rename over `path`, then fsync of the directory.
///
/// # Examples
///
/// ```
/// use kamino_core::{fit_kamino, KaminoConfig};
/// use kamino_datasets::adult_like;
/// use kamino_dp::Budget;
/// use kamino_serve::{load_fitted, save_fitted};
///
/// let data = adult_like(100, 11);
/// let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
/// cfg.train_scale = 0.02; // doc-test speed; use 1.0 for real runs
/// cfg.seed = 13;
/// let session = fit_kamino(&data.schema, &data.instance, &data.dcs, &cfg);
///
/// let path = std::env::temp_dir()
///     .join(format!("kamino-doc-save-{}.kamino", std::process::id()));
/// save_fitted(&session, &path)?;
/// assert!(path.exists());
/// // ε was spent at fit time; the snapshot can be queried forever
/// let restored = load_fitted(&path)?;
/// assert_eq!(restored.achieved_epsilon(), session.achieved_epsilon());
/// # std::fs::remove_file(&path).ok();
/// # Ok::<(), kamino_serve::SnapshotError>(())
/// ```
pub fn save_fitted(fitted: &FittedKamino, path: &Path) -> Result<(), SnapshotError> {
    write_snapshot_bytes(&encode_fitted(fitted), path)
}

/// Loads a fitted session from `path`. The loaded session continues the
/// sample stream exactly where the saved one stopped, at the ε it
/// originally spent — loading costs no privacy budget.
///
/// # Examples
///
/// ```
/// use kamino_core::{fit_kamino, KaminoConfig};
/// use kamino_datasets::adult_like;
/// use kamino_dp::Budget;
/// use kamino_serve::{load_fitted, save_fitted};
///
/// let data = adult_like(100, 7);
/// let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
/// cfg.train_scale = 0.02; // doc-test speed; use 1.0 for real runs
/// cfg.seed = 9;
/// let mut session = fit_kamino(&data.schema, &data.instance, &data.dcs, &cfg);
/// session.sample(10);
///
/// let path = std::env::temp_dir()
///     .join(format!("kamino-doc-load-{}.kamino", std::process::id()));
/// save_fitted(&session, &path)?;
/// let mut restored = load_fitted(&path)?;
/// // both sessions now produce the same next rows
/// assert_eq!(session.sample(20), restored.sample(20));
/// # std::fs::remove_file(&path).ok();
/// # Ok::<(), kamino_serve::SnapshotError>(())
/// ```
pub fn load_fitted(path: &Path) -> Result<FittedKamino, SnapshotError> {
    let bytes = fs::read(path)?;
    decode_fitted(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamino_constraints::Hardness;
    use kamino_core::model::SubModelKind;
    use kamino_core::{fit_kamino, KaminoConfig};
    use kamino_data::{AttrKind, Value};
    use kamino_dp::Budget;
    use kamino_nn::Attention;

    fn tiny_fitted(seed: u64) -> FittedKamino {
        fit_under(
            Budget::new(1.0, 1e-6),
            seed,
            kamino_obs::ObsHandle::disabled(),
        )
    }

    fn fit_under(budget: Budget, seed: u64, obs: kamino_obs::ObsHandle) -> FittedKamino {
        fit_on(&kamino_datasets::adult_like(80, 3), budget, seed, obs)
    }

    /// A small BR2000 fit: its DCs are all soft, so it learns its weights.
    fn tiny_soft_fitted(seed: u64) -> FittedKamino {
        fit_on(
            &kamino_datasets::br2000_like(80, 3),
            Budget::new(1.0, 1e-6),
            seed,
            kamino_obs::ObsHandle::disabled(),
        )
    }

    fn fit_on(
        d: &kamino_datasets::Dataset,
        budget: Budget,
        seed: u64,
        obs: kamino_obs::ObsHandle,
    ) -> FittedKamino {
        let mut cfg = KaminoConfig::new(budget);
        cfg.train_scale = 0.02;
        cfg.embed_dim = 8;
        cfg.seed = seed;
        cfg.obs = obs;
        fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg)
    }

    #[test]
    fn roundtrip_resumes_exact_stream() {
        let mut live = tiny_fitted(11);
        // advance the stream, snapshot mid-flight
        let _ = live.sample(20);
        let bytes = encode_fitted(&live);
        let mut loaded = decode_fitted(&bytes).unwrap();
        assert_eq!(loaded.achieved_epsilon(), live.achieved_epsilon());
        assert_eq!(loaded.sequence, live.sequence);
        assert_eq!(loaded.weights, live.weights);
        assert_eq!(loaded.n_input(), live.n_input());
        // the next rows must be bit-identical
        assert_eq!(live.sample(40), loaded.sample(40));
        // and stay in lockstep afterwards
        assert_eq!(live.sample(8), loaded.sample(8));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_fitted(&tiny_fitted(1));
        bytes[0] = b'X';
        assert!(matches!(
            decode_fitted(&bytes),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            decode_fitted(b"short"),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = encode_fitted(&tiny_fitted(2));
        bytes[8] = 0xFE; // version LE low byte
        assert!(matches!(
            decode_fitted(&bytes),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let bytes = encode_fitted(&tiny_fitted(3));
        // flip one bit near the end (inside the last section's payload)
        let mut corrupt = bytes.clone();
        let pos = corrupt.len() - 3;
        corrupt[pos] ^= 0x40;
        assert!(matches!(
            decode_fitted(&corrupt),
            Err(SnapshotError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn truncated_file_is_an_error() {
        let bytes = encode_fitted(&tiny_fitted(4));
        for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_fitted(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// Owned copy of a session's model via the codec (DataModel is not
    /// `Clone`).
    fn clone_model(f: &FittedKamino) -> kamino_core::DataModel {
        let mut w = kamino_data::wire::ByteWriter::new();
        core_codec::encode_model(f.model(), &mut w);
        let bytes = w.into_bytes();
        core_codec::decode_model(&mut kamino_data::wire::ByteReader::new(&bytes), f.schema())
            .unwrap()
    }

    /// `f` with its model replaced by `model`.
    fn with_model(f: &FittedKamino, model: kamino_core::DataModel) -> FittedKamino {
        FittedKamino::from_parts(
            f.sequence.clone(),
            f.weights.clone(),
            f.params.clone(),
            f.timings,
            f.schema().clone(),
            f.dcs().to_vec(),
            model,
            f.config().clone(),
            f.n_input(),
            f.rng_state(),
        )
    }

    #[test]
    fn out_of_schema_model_indices_are_rejected() {
        // a structurally valid container whose model points outside the
        // schema must fail validation at load, not panic at sample time
        let fitted = tiny_fitted(6);
        let mut model = clone_model(&fitted);
        model.submodels[0].target = 1_000_000;
        let bytes = encode_fitted(&with_model(&fitted, model));
        assert!(matches!(decode_fitted(&bytes), Err(SnapshotError::Wire(_))));
    }

    #[test]
    fn submodels_out_of_sequence_order_are_rejected() {
        // each sub-model is self-consistent (attention arity = context
        // arity, head shaped for its target) and every index is in range,
        // but sequence position 1 now holds the sub-model for position 2,
        // which the sampler would run on the wrong context and domain
        let fitted = tiny_fitted(14);
        let mut model = clone_model(&fitted);
        model.submodels.swap(0, 1);
        let bytes = encode_fitted(&with_model(&fitted, model));
        assert!(matches!(decode_fitted(&bytes), Err(SnapshotError::Wire(_))));
    }

    #[test]
    fn attention_wider_than_the_store_is_rejected() {
        // a discriminative sub-model whose attention width disagrees with
        // its store: the head still matches the store, so only the
        // attention check can catch it before `sample()` does
        let fitted = tiny_fitted(16);
        let mut model = clone_model(&fitted);
        let dim = model.store.dim();
        let sm = model
            .submodels
            .iter_mut()
            .find(|sm| matches!(sm.kind, SubModelKind::Discriminative { .. }))
            .expect("a discriminative sub-model");
        let SubModelKind::Discriminative { attention, .. } = &mut sm.kind else {
            unreachable!()
        };
        *attention = Attention::from_values(dim + 3, attention.scores.values.clone());
        let bytes = encode_fitted(&with_model(&fitted, model));
        assert!(matches!(
            decode_fitted(&bytes),
            Err(SnapshotError::Wire(WireError::Malformed(msg))) if msg.contains("attention width")
        ));
    }

    #[test]
    fn unbounded_mcmc_ratio_config_is_rejected() {
        // an infinite ratio asks `sample()` for usize::MAX re-samples per
        // column, and 1e9 for 2e10 at n = 20: either would spin with the
        // model mutex held
        let fitted = tiny_fitted(15);
        let above_max = f64::from_bits(kamino_core::MAX_MCMC_RATIO.to_bits() + 1);
        for ratio in [f64::INFINITY, f64::NAN, -1.0, 1e9, above_max] {
            let mut cfg = fitted.config().clone();
            cfg.mcmc_ratio = ratio;
            let bytes = with_config(&fitted, &cfg);
            assert!(
                matches!(
                    decode_fitted(&bytes),
                    Err(SnapshotError::Wire(WireError::Malformed(msg))) if msg.contains("mcmc ratio")
                ),
                "ratio {ratio} was accepted"
            );
        }
    }

    /// `fitted`'s container with its CONFIG section re-encoded from `cfg`.
    fn with_config(fitted: &FittedKamino, cfg: &KaminoConfig) -> Vec<u8> {
        let mut w = kamino_data::wire::ByteWriter::new();
        core_codec::encode_config(cfg, &mut w);
        let config = w.into_bytes();
        rebuild(&encode_fitted(fitted), |id, b| {
            Some(if id == section::CONFIG {
                config.clone()
            } else {
                b.to_vec()
            })
        })
    }

    /// Byte widths of the PARAMS fields in layout order: `non_private`,
    /// σ_g, σ_d, `b`, `t`, `clip`, `learn_weights`, σ_w, `l_w`, `b_w`,
    /// `t_w`, achieved ε.
    const PARAMS_WIDTHS: [usize; 12] = [1, 8, 8, 8, 8, 8, 1, 8, 8, 8, 8, 8];
    /// Byte widths of the CONFIG fields in layout order: ε, δ, `seed`,
    /// `embed_dim`, `lr`, `mcmc_ratio`, `parallel_training`, the sampling
    /// rule tag, `constraint_aware_sequencing`, `train_scale`,
    /// `large_domain_threshold`.
    const CONFIG_WIDTHS: [usize; 11] = [8, 8, 8, 8, 8, 8, 1, 1, 1, 8, 8];

    /// Hostile values for a field of `width` bytes: for 8-byte fields NaN,
    /// ±∞, −0.0, −1.0 and 0.0 as f64s plus 0 and `usize::MAX` as
    /// integers; for 1-byte fields 0 and 255.
    fn hostile_values(width: usize) -> Vec<Vec<u8>> {
        if width == 1 {
            return vec![vec![0], vec![u8::MAX]];
        }
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, -1.0, 0.0]
            .map(|x| x.to_le_bytes().to_vec())
            .into_iter()
            .chain([0u64, usize::MAX as u64].map(|v| v.to_le_bytes().to_vec()))
            .collect()
    }

    /// Every value of `out` lies in its attribute's domain.
    fn assert_in_domain(f: &FittedKamino, out: &kamino_data::Instance) {
        for (j, attr) in f.schema().attrs().iter().enumerate() {
            for row in 0..out.n_rows() {
                let v = out.value(row, j);
                attr.validate(v).unwrap();
                if let (AttrKind::Numeric { min, max, .. }, Value::Num(x)) = (&attr.kind, v) {
                    assert!((*min..=*max).contains(&x), "`{}` = {x}", attr.name);
                }
            }
        }
    }

    /// The bytes of section `id` of a container.
    fn section_bytes(bytes: &[u8], id: u32) -> Vec<u8> {
        let sections = parse_sections(bytes).unwrap();
        sections.iter().find(|s| s.id == id).unwrap().bytes.to_vec()
    }

    /// The fields of `f`'s container (`bytes`) that the hostile test
    /// patches, as (section, byte offset, width): every PARAMS and CONFIG
    /// field, every SESSION weight and `n_input`, and every entry of
    /// MODEL's first-attribute distribution. Panics if a layout drifted.
    fn hostile_fields(f: &FittedKamino, bytes: &[u8]) -> Vec<(u32, usize, usize)> {
        let mut fields = Vec::new();
        for (id, widths) in [
            (section::PARAMS, &PARAMS_WIDTHS[..]),
            (section::CONFIG, &CONFIG_WIDTHS[..]),
        ] {
            let len = section_bytes(bytes, id).len();
            assert_eq!(len, widths.iter().sum::<usize>(), "layout drifted");
            let mut at = 0;
            for &width in widths {
                fields.push((id, at, width));
                at += width;
            }
        }
        // SESSION: the weights' length prefix, the weights, then `n_input`
        let session = section_bytes(bytes, section::SESSION);
        let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let n_weights = f.weights.len();
        for (l, w) in f.weights.iter().enumerate() {
            assert_eq!(word(&session, 4 + 8 * l), w.to_bits(), "layout drifted");
            fields.push((section::SESSION, 4 + 8 * l, 8));
        }
        assert_eq!(word(&session, 4 + 8 * n_weights), f.n_input() as u64);
        fields.push((section::SESSION, 4 + 8 * n_weights, 8));
        // MODEL: the sequence, then the first-attribute distribution
        let model = section_bytes(bytes, section::MODEL);
        let first = 4 + 8 * f.model().sequence.len() + 4;
        for (i, p) in f.model().first_dist.iter().enumerate() {
            assert_eq!(word(&model, first + 8 * i), p.to_bits(), "layout drifted");
            fields.push((section::MODEL, first + 8 * i, 8));
        }
        fields
    }

    /// A CRC-valid file whose PARAMS, CONFIG or SESSION field, or an entry
    /// of MODEL's first-attribute distribution, holds a hostile value
    /// either fails decode as `Malformed` or decodes to a session that
    /// draws 20 rows inside their domains: it never panics, hangs or
    /// reports an ε the fit could not have spent.
    #[test]
    fn hostile_params_and_config_fields_are_refused_or_sample() {
        let sessions = [
            tiny_fitted(18),
            fit_under(Budget::non_private(), 18, kamino_obs::ObsHandle::disabled()),
            tiny_soft_fitted(18),
        ];
        for fitted in &sessions {
            let bytes = encode_fitted(fitted);
            for (id, at, width) in hostile_fields(fitted, &bytes) {
                for value in hostile_values(width) {
                    let patched = rebuild(&bytes, |sid, b| {
                        let mut b = b.to_vec();
                        if sid == id {
                            b[at..at + width].copy_from_slice(&value);
                        }
                        Some(b)
                    });
                    let what = format!("{} byte {at} = {value:02x?}", section_name(id));
                    match decode_fitted(&patched) {
                        Err(SnapshotError::Wire(WireError::Malformed(_))) => {}
                        Err(e) => panic!("{what}: {e}"),
                        Ok(mut loaded) => {
                            let eps = loaded.achieved_epsilon();
                            let budget = loaded.config().budget.epsilon;
                            assert!(eps > 0.0 && eps <= budget, "{what}: ε {eps}");
                            let out = loaded.sample(20);
                            assert_eq!(out.n_rows(), 20, "{what}");
                            assert_in_domain(&loaded, &out);
                        }
                    }
                }
            }
        }
    }

    /// A CRC-valid file cannot switch a hard DC off or make a soft one
    /// hard: a hard DC's weight must be +∞ and a soft DC's finite and
    /// ≥ 0, or decode refuses the file.
    #[test]
    fn session_weights_must_match_their_dcs_hardness() {
        let hard = tiny_fitted(18);
        let soft = tiny_soft_fitted(18);
        assert!(hard.dcs().iter().all(|dc| dc.hardness == Hardness::Hard));
        assert!(soft.dcs().iter().all(|dc| dc.hardness == Hardness::Soft));
        for (fitted, bad) in [
            (&hard, &[0.0, 1.0, f64::NAN, -1.0][..]),
            (&soft, &[f64::NAN, -1.0, f64::INFINITY][..]),
        ] {
            let bytes = encode_fitted(fitted);
            assert!(decode_fitted(&bytes).is_ok());
            for l in 0..fitted.weights.len() {
                for &w in bad {
                    let patched = rebuild(&bytes, |id, b| {
                        let mut b = b.to_vec();
                        if id == section::SESSION {
                            b[4 + 8 * l..12 + 8 * l].copy_from_slice(&w.to_le_bytes());
                        }
                        Some(b)
                    });
                    assert!(
                        matches!(
                            decode_fitted(&patched),
                            Err(SnapshotError::Wire(WireError::Malformed(msg))) if msg.contains("weight")
                        ),
                        "`{}` at weight {w} was not refused",
                        fitted.dcs()[l].name
                    );
                }
            }
        }
    }

    #[test]
    fn traced_session_timings_roundtrip() {
        let mut live = fit_under(Budget::new(1.0, 1e-6), 19, kamino_obs::ObsHandle::enabled());
        let _ = live.sample(10);
        let t = live.timings;
        assert!(t.training > std::time::Duration::ZERO);
        assert!(t.sample_fill > std::time::Duration::ZERO);
        let loaded = decode_fitted(&encode_fitted(&live)).unwrap();
        assert_eq!(loaded.timings, t);
    }

    /// Rebuilds a container from `bytes`, passing each section through
    /// `edit` (`None` drops it) and resealing every CRC.
    fn rebuild(bytes: &[u8], mut edit: impl FnMut(u32, &[u8]) -> Option<Vec<u8>>) -> Vec<u8> {
        let sections = parse_sections(bytes).unwrap();
        let kept: Vec<(u32, Vec<u8>)> = sections
            .iter()
            .filter_map(|s| edit(s.id, s.bytes).map(|b| (s.id, b)))
            .collect();
        let mut header = kamino_data::wire::ByteWriter::new();
        header.put_raw(&MAGIC);
        header.put_u32(FORMAT_VERSION);
        header.put_u32(kept.len() as u32);
        let mut offset = 0u64;
        for (id, b) in &kept {
            header.put_u32(*id);
            header.put_u64(offset);
            header.put_u64(b.len() as u64);
            header.put_u32(crc32(b));
            offset += b.len() as u64;
        }
        let mut out = header.into_bytes();
        for (_, b) in &kept {
            out.extend_from_slice(b);
        }
        out
    }

    /// Rewrites a model section so the shared store lists one embedder
    /// fewer: the embedder for `attr` is cut out and the count drops by 1.
    fn drop_embedder(model: &[u8], attr: usize) -> Vec<u8> {
        let mut r = ByteReader::new(model);
        r.usizes().unwrap(); // sequence
        r.f64s().unwrap(); // first-attribute distribution
        r.usize().unwrap(); // embedding dim
        let count_at = model.len() - r.remaining();
        let n = r.len_prefix().unwrap();
        assert!(attr < n);
        let mut start = 0;
        for _ in 0..=attr {
            start = model.len() - r.remaining();
            match r.u8().unwrap() {
                0 => {
                    kamino_nn::snapshot::decode_embedding(&mut r).unwrap();
                }
                _ => {
                    kamino_nn::snapshot::decode_encoder(&mut r).unwrap();
                    kamino_data::snapshot::decode_standardizer(&mut r).unwrap();
                }
            }
        }
        let end = model.len() - r.remaining();
        let count = (n as u32 - 1).to_le_bytes();
        [
            &model[..count_at],
            &count,
            &model[count_at + 4..start],
            &model[end..],
        ]
        .concat()
    }

    #[test]
    fn unmaterialised_embedder_is_rejected() {
        // a CRC-valid file whose shared store lacks a context attribute's
        // embedder must fail at load, not panic on the first draw
        let fitted = tiny_fitted(10);
        let attr = fitted
            .model()
            .submodels
            .iter()
            .find(|sm| !sm.context.is_empty())
            .map(|sm| sm.context[0])
            .unwrap();
        let bytes = rebuild(&encode_fitted(&fitted), |id, b| {
            Some(if id == section::MODEL {
                drop_embedder(b, attr)
            } else {
                b.to_vec()
            })
        });
        assert!(matches!(
            decode_fitted(&bytes),
            Err(SnapshotError::Wire(WireError::Malformed(msg))) if msg.contains("embedding store covers")
        ));
    }

    /// FNV-1a fingerprint of the `.kamino` bytes of a small seeded,
    /// untraced fit at library defaults: training, weight learning and
    /// the container layout all feed it, so any drift in the fitted model
    /// or its encoding moves this hash.
    #[test]
    fn encoded_snapshot_is_pinned() {
        let fitted = tiny_fitted(12);
        let h = kamino_data::wire::fnv1a64(&encode_fitted(&fitted));
        assert_eq!(
            h, 0xcdf2_b4bb_5da4_3171,
            "encoded snapshot drifted: {h:#018x}"
        );
    }

    #[test]
    fn peek_validates_header_without_decoding() {
        let dir = std::env::temp_dir().join("kamino-serve-test-peek");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.kamino");
        let fitted = tiny_fitted(9);
        save_fitted(&fitted, &path).unwrap();
        verify_snapshot(&path).unwrap();

        // bad magic is rejected before the section table is read
        let garbage = dir.join("garbage.kamino");
        std::fs::write(&garbage, b"not a snapshot at all").unwrap();
        assert!(matches!(
            verify_snapshot(&garbage),
            Err(SnapshotError::BadMagic)
        ));

        // a truncated payload fails the table bounds check
        let bytes = encode_fitted(&fitted);
        let cut = dir.join("cut.kamino");
        std::fs::write(&cut, &bytes[..bytes.len() / 2]).unwrap();
        assert!(verify_snapshot(&cut).is_err());

        // a correctly sealed container that lacks a required section
        let no_rng = dir.join("no-rng.kamino");
        let without_rng = rebuild(&bytes, |id, b| (id != section::RNG).then(|| b.to_vec()));
        std::fs::write(&no_rng, without_rng).unwrap();
        assert!(matches!(
            verify_snapshot(&no_rng),
            Err(SnapshotError::MissingSection { section: "rng" })
        ));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let dir = std::env::temp_dir().join("kamino-serve-test-snapshot");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.kamino");
        let mut live = tiny_fitted(5);
        save_fitted(&live, &path).unwrap();
        let mut loaded = load_fitted(&path).unwrap();
        assert_eq!(live.sample(16), loaded.sample(16));
        std::fs::remove_file(&path).unwrap();
    }
}
