//! The `.kamino` snapshot container: a versioned, endianness-fixed binary
//! format that persists a complete fitted synthesis session.
//!
//! ## Layout
//!
//! ```text
//! ┌─────────────────────────────────────────────────────────┐
//! │ magic  "KAMSNAP\0"                              8 bytes │
//! │ format version (u32 LE, currently 1)            4 bytes │
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
//! versions can append sections without breaking old readers — while a
//! bumped version number (incompatible layout) is refused outright.
//!
//! The sections persist everything [`FittedKamino`] is made of: the
//! schema (which determines quantizers/encoders), the DC list with
//! hardness, the trained model tensors, the selected privacy parameters,
//! the pipeline configuration (budget included), the session trail
//! (sequence, learned DC weights, input size, fit timings) and the RNG
//! cursor. Loading therefore resumes the *exact* deterministic sample
//! stream the saved session would have produced next — sampling spends
//! no privacy budget, so a snapshot can be shared and queried forever at
//! the ε it was fitted under.

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
pub const FORMAT_VERSION: u32 = 1;

/// Section ids of format version 1.
mod section {
    pub const SCHEMA: u32 = 1;
    pub const DCS: u32 = 2;
    pub const MODEL: u32 = 3;
    pub const PARAMS: u32 = 4;
    pub const CONFIG: u32 = 5;
    pub const SESSION: u32 = 6;
    pub const RNG: u32 = 7;
    /// Sample-phase timing breakdown (fill/repair/MCMC), added after v1
    /// shipped. Optional on load: files written before it existed decode
    /// with zeroed sample timings, and readers predating it skip it as an
    /// unknown extra section.
    pub const SAMPLE_TIMINGS: u32 = 8;
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
        section::SAMPLE_TIMINGS => "sample_timings",
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
    let mut sections: Vec<(u32, Vec<u8>)> = Vec::with_capacity(8);

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
    w.put_usizes(&fitted.sequence);
    w.put_f64s(&fitted.weights);
    w.put_usize(fitted.n_input());
    core_codec::encode_timings(&fitted.timings, &mut w);
    sections.push((section::SESSION, w.into_bytes()));

    let mut w = ByteWriter::new();
    for s in fitted.rng_state() {
        w.put_u64(s);
    }
    sections.push((section::RNG, w.into_bytes()));

    let mut w = ByteWriter::new();
    core_codec::encode_sample_timings(&fitted.timings, &mut w);
    sections.push((section::SAMPLE_TIMINGS, w.into_bytes()));

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
    let model = core_codec::decode_model(&mut r)?;
    validate_model(&model, &schema)?;

    let mut r = find(&sections, section::PARAMS)?;
    let params = core_codec::decode_params(&mut r)?;

    let mut r = find(&sections, section::CONFIG)?;
    let cfg = core_codec::decode_config(&mut r)?;

    let mut r = find(&sections, section::SESSION)?;
    let sequence = r.usizes()?;
    let weights = r.f64s()?;
    let n_input = r.usize()?;
    let mut timings = core_codec::decode_timings(&mut r)?;
    // optional: absent from snapshots written before the section existed
    if let Ok(mut r) = find(&sections, section::SAMPLE_TIMINGS) {
        core_codec::decode_sample_timings(&mut r, &mut timings)?;
    }
    if weights.len() != dcs.len() {
        return Err(SnapshotError::Wire(WireError::Malformed(format!(
            "{} weights for {} DCs",
            weights.len(),
            dcs.len()
        ))));
    }
    if sequence != model.sequence {
        return Err(SnapshotError::Wire(WireError::Malformed(
            "session sequence disagrees with the model's sequence".into(),
        )));
    }

    let mut r = find(&sections, section::RNG)?;
    let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];

    Ok(FittedKamino::from_parts(
        sequence, weights, params, timings, schema, dcs, model, cfg, n_input, rng_state,
    ))
}

/// Range-checks every attribute index the model carries against the
/// schema loaded alongside it, so a divergent snapshot fails here
/// instead of panicking mid-`/synthesize` (which would poison the
/// model's mutex). The DC section gets the same treatment inside
/// `kamino_constraints::snapshot::decode_dcs`.
fn validate_model(
    model: &kamino_core::DataModel,
    schema: &kamino_data::Schema,
) -> Result<(), SnapshotError> {
    let k = schema.len();
    let malformed = |msg: String| SnapshotError::Wire(WireError::Malformed(msg));
    if model.sequence.len() != k {
        return Err(malformed(format!(
            "model sequence covers {} attributes, schema has {k}",
            model.sequence.len()
        )));
    }
    let mut seen = vec![false; k];
    for &a in &model.sequence {
        if a >= k || std::mem::replace(&mut seen[a], true) {
            return Err(malformed(format!(
                "model sequence is not a permutation of 0..{k}"
            )));
        }
    }
    if model.first_dist.len() != schema.attr(model.sequence[0]).domain_size() {
        return Err(malformed(format!(
            "first-attribute distribution has {} entries for a domain of {}",
            model.first_dist.len(),
            schema.attr(model.sequence[0]).domain_size()
        )));
    }
    validate_store(&model.store, schema)?;
    for sm in &model.submodels {
        if sm.target >= k {
            return Err(malformed(format!(
                "sub-model target {} out of range",
                sm.target
            )));
        }
        if let Some(&bad) = sm.context.iter().find(|&&c| c >= k) {
            return Err(malformed(format!(
                "sub-model context attribute {bad} out of range"
            )));
        }
        if let Some(store) = &sm.own_store {
            validate_store(store, schema)?;
        }
        let store = sm.own_store.as_ref().unwrap_or(&model.store);
        let target_attr = schema.attr(sm.target);
        match &sm.kind {
            kamino_core::model::SubModelKind::NoisyMarginal { dist } => {
                if dist.len() != target_attr.domain_size() {
                    return Err(malformed(format!(
                        "noisy marginal for `{}` has {} entries for a domain of {}",
                        target_attr.name,
                        dist.len(),
                        target_attr.domain_size()
                    )));
                }
            }
            kamino_core::model::SubModelKind::Discriminative { head, .. } => match head {
                kamino_core::model::Head::Cat(h) => {
                    if !target_attr.is_categorical() || h.card() != target_attr.domain_size() {
                        return Err(malformed(format!(
                            "categorical head for `{}` predicts {} classes over a domain of {}",
                            target_attr.name,
                            h.card(),
                            target_attr.domain_size()
                        )));
                    }
                    if h.linear().n_in() != store.dim() {
                        return Err(malformed("head width disagrees with embedding dim".into()));
                    }
                }
                kamino_core::model::Head::Num(h) => {
                    if target_attr.is_categorical() {
                        return Err(malformed(format!(
                            "Gaussian head for categorical attribute `{}`",
                            target_attr.name
                        )));
                    }
                    if h.linear().n_in() != store.dim() {
                        return Err(malformed("head width disagrees with embedding dim".into()));
                    }
                }
            },
        }
    }
    Ok(())
}

/// Checks a store's embedders against the schema: attribute coverage,
/// kind (categorical vs numeric), domain cardinality and embedding
/// width — each mismatch would otherwise panic inside `sample()` while
/// the model mutex is held, poisoning the slot.
fn validate_store(
    store: &kamino_core::model::EmbeddingStore,
    schema: &kamino_data::Schema,
) -> Result<(), SnapshotError> {
    use kamino_core::model::AttrEmbedder;
    let malformed = |msg: String| SnapshotError::Wire(WireError::Malformed(msg));
    if store.embedders().len() != schema.len() {
        return Err(malformed(format!(
            "embedding store covers {} attributes, schema has {}",
            store.embedders().len(),
            schema.len()
        )));
    }
    for (attr, embedder) in schema.attrs().iter().zip(store.embedders()) {
        match embedder {
            AttrEmbedder::Cat(e) => {
                if !attr.is_categorical() || e.card() != attr.domain_size() {
                    return Err(malformed(format!(
                        "embedder for `{}` covers {} codes over a domain of {}",
                        attr.name,
                        e.card(),
                        attr.domain_size()
                    )));
                }
                if e.dim() != store.dim() {
                    return Err(malformed(format!(
                        "embedder for `{}` has width {} in a dim-{} store",
                        attr.name,
                        e.dim(),
                        store.dim()
                    )));
                }
            }
            AttrEmbedder::Num { enc, .. } => {
                if attr.is_categorical() {
                    return Err(malformed(format!(
                        "numeric encoder for categorical attribute `{}`",
                        attr.name
                    )));
                }
                if enc.dim() != store.dim() {
                    return Err(malformed(format!(
                        "encoder for `{}` has width {} in a dim-{} store",
                        attr.name,
                        enc.dim(),
                        store.dim()
                    )));
                }
            }
        }
    }
    Ok(())
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

/// Saves a fitted session to `path` (atomically: write to a `.tmp`
/// sibling, then rename).
pub fn save_fitted(fitted: &FittedKamino, path: &Path) -> Result<(), SnapshotError> {
    write_snapshot_bytes(&encode_fitted(fitted), path)
}

/// Loads a fitted session from `path`.
pub fn load_fitted(path: &Path) -> Result<FittedKamino, SnapshotError> {
    let bytes = fs::read(path)?;
    decode_fitted(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamino_core::{fit_kamino, KaminoConfig};
    use kamino_dp::Budget;

    fn tiny_fitted(seed: u64) -> FittedKamino {
        let d = kamino_datasets::adult_like(80, 3);
        let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
        cfg.train_scale = 0.02;
        cfg.embed_dim = 8;
        cfg.seed = seed;
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
        core_codec::decode_model(&mut kamino_data::wire::ByteReader::new(&bytes)).unwrap()
    }

    #[test]
    fn out_of_schema_model_indices_are_rejected() {
        // a structurally valid container whose model points outside the
        // schema must fail validation at load, not panic at sample time
        let fitted = tiny_fitted(6);
        let mut model = clone_model(&fitted);
        model.submodels[0].target = 1_000_000;
        let broken = FittedKamino::from_parts(
            fitted.sequence.clone(),
            fitted.weights.clone(),
            fitted.params.clone(),
            fitted.timings,
            fitted.schema().clone(),
            fitted.dcs().to_vec(),
            model,
            fitted.config().clone(),
            fitted.n_input(),
            fitted.rng_state(),
        );
        let bytes = encode_fitted(&broken);
        assert!(matches!(decode_fitted(&bytes), Err(SnapshotError::Wire(_))));
    }

    #[test]
    fn session_model_sequence_divergence_is_rejected() {
        let fitted = tiny_fitted(7);
        let mut sequence = fitted.sequence.clone();
        sequence.swap(0, 1);
        let diverged = FittedKamino::from_parts(
            sequence,
            fitted.weights.clone(),
            fitted.params.clone(),
            fitted.timings,
            fitted.schema().clone(),
            fitted.dcs().to_vec(),
            clone_model(&fitted),
            fitted.config().clone(),
            fitted.n_input(),
            fitted.rng_state(),
        );
        let bytes = encode_fitted(&diverged);
        assert!(matches!(decode_fitted(&bytes), Err(SnapshotError::Wire(_))));
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

    /// Rebuilds a container without section `drop_id` — a stand-in for
    /// files written by older builds.
    fn rebuild_without(bytes: &[u8], drop_id: u32) -> Vec<u8> {
        rebuild(bytes, |id, b| (id != drop_id).then(|| b.to_vec()))
    }

    /// Rewrites a model section so the store's embedder for `attr` is
    /// marked absent (option tag `0`) and its bytes are dropped.
    fn unmaterialise_embedder(model: &[u8], attr: usize) -> Vec<u8> {
        let mut r = ByteReader::new(model);
        r.usizes().unwrap(); // sequence
        r.f64s().unwrap(); // first-attribute distribution
        r.usize().unwrap(); // embedding dim
        let n = r.len_prefix().unwrap();
        assert!(attr < n);
        let mut start = 0;
        for a in 0..=attr {
            start = model.len() - r.remaining();
            assert_eq!(r.u8().unwrap(), 1, "embedder {a} is not materialised");
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
        [&model[..start], &[0u8], &model[end..]].concat()
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
                unmaterialise_embedder(b, attr)
            } else {
                b.to_vec()
            })
        });
        assert!(matches!(decode_fitted(&bytes), Err(SnapshotError::Wire(_))));
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
            h, 0xa4ff_1141_4cc1_7de4,
            "encoded snapshot drifted: {h:#018x}"
        );
    }

    #[test]
    fn old_snapshots_without_sample_timings_still_load() {
        let mut live = tiny_fitted(8);
        // traced, so the dropped section really held non-zero timings
        live.set_obs(kamino_obs::ObsHandle::enabled());
        let _ = live.sample(10);
        assert!(live.timings.sample_fill > std::time::Duration::ZERO);
        let old_format = rebuild_without(&encode_fitted(&live), section::SAMPLE_TIMINGS);
        let mut loaded = decode_fitted(&old_format).unwrap();
        // sample timings default to zero; everything else round-trips,
        // including the exact RNG stream
        assert_eq!(loaded.timings.sample_fill, std::time::Duration::ZERO);
        assert_eq!(loaded.timings.sample_mcmc, std::time::Duration::ZERO);
        assert_eq!(live.sample(24), loaded.sample(24));
    }

    /// Files written while sharded sampling existed may hold any shard
    /// count in the config's last slot and a repair time in the middle
    /// sample-timings slot; both are read and dropped.
    #[test]
    fn old_snapshots_with_a_shard_count_still_load() {
        let mut live = tiny_fitted(13);
        let _ = live.sample(10);
        let patch_u64 = |b: &[u8], at: usize, v: u64| {
            let mut out = b.to_vec();
            out[at..at + 8].copy_from_slice(&v.to_le_bytes());
            out
        };
        let old_format = rebuild(&encode_fitted(&live), |id, b| {
            Some(match id {
                section::CONFIG => patch_u64(b, b.len() - 8, 4),
                section::SAMPLE_TIMINGS => patch_u64(b, 8, 5_000_000),
                _ => b.to_vec(),
            })
        });
        assert_ne!(old_format, encode_fitted(&live));
        let mut loaded = decode_fitted(&old_format).unwrap();
        assert_eq!(encode_fitted(&loaded), encode_fitted(&live));
        assert_eq!(live.sample(24), loaded.sample(24));
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
        std::fs::write(&no_rng, rebuild_without(&bytes, section::RNG)).unwrap();
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
