//! Versioned, checksummed container for engine snapshots.
//!
//! A snapshot file wraps the driver's serialized payload with enough
//! metadata to refuse every unsafe resume: a magic number (is this a
//! snapshot at all?), a format version (can this build parse it?), an
//! engine-version stamp (would this build replay it bit-identically?),
//! and the canonical-config hash (is it a snapshot of *this* run?). The
//! whole container is covered by a trailing checksum, so a torn or
//! corrupted file is detected before any field is trusted.
//!
//! The checksum doubles as the snapshot's canonical content hash: the
//! payload encoding is fixed-width and deterministic
//! ([`hmm_sim_base::snap`]), so equal engine states produce equal bytes
//! and therefore equal hashes.

use hmm_sim_base::snap::{snap_hash, SnapReader, SnapResult};

/// Behavioural version of the simulation engine. Bump this whenever a
/// change alters simulated behaviour (not just performance): a snapshot
/// resumed under a different engine version would silently diverge from
/// the uninterrupted run, so resume refuses mismatched stamps, and the
/// serving layer keys its durable result store by this stamp so stale
/// cached figures are never served across an engine change.
pub const ENGINE_VERSION: &str = "hmm-engine-v1";

/// `b"HMMSNAP1"` as a little-endian u64.
const MAGIC: u64 = u64::from_le_bytes(*b"HMMSNAP1");

/// Container layout version (independent of [`ENGINE_VERSION`]: the
/// format can survive engine changes and vice versa). Format 2 dropped
/// the warm-up completions from the driver payload: the driver discards
/// them at the drain that takes them, so a snapshot no longer grows with
/// the warm-up length.
const FORMAT: u32 = 2;

/// Parsed snapshot header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Container layout version.
    pub format: u32,
    /// Engine-version stamp the snapshot was captured under.
    pub engine: String,
    /// `fxhash64(canonical_json(cfg))` of the run being snapshotted.
    pub config_hash: u64,
    /// Demand accesses submitted when the snapshot was captured.
    pub submitted: u64,
    /// Canonical content hash of the whole snapshot (the trailing
    /// checksum).
    pub content_hash: u64,
}

/// Wrap a serialized engine payload into a sealed snapshot file.
pub fn seal(config_hash: u64, submitted: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + 64);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&FORMAT.to_le_bytes());
    buf.extend_from_slice(&(ENGINE_VERSION.len() as u64).to_le_bytes());
    buf.extend_from_slice(ENGINE_VERSION.as_bytes());
    buf.extend_from_slice(&config_hash.to_le_bytes());
    buf.extend_from_slice(&submitted.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = snap_hash(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

fn parse(bytes: &[u8]) -> SnapResult<(SnapshotMeta, &[u8])> {
    if bytes.len() < 8 {
        return Err("snapshot too short for a checksum".into());
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let sum = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    if snap_hash(body) != sum {
        return Err("snapshot checksum mismatch (torn or corrupted file)".into());
    }
    let mut r = SnapReader::new(body);
    if r.u64()? != MAGIC {
        return Err("not a snapshot file (bad magic)".into());
    }
    let format = r.u32()?;
    if format != FORMAT {
        return Err(format!("unsupported snapshot format {format} (this build reads {FORMAT})"));
    }
    let engine = r.str()?;
    let config_hash = r.u64()?;
    let submitted = r.u64()?;
    let payload = r.bytes()?;
    r.finish()?;
    Ok((SnapshotMeta { format, engine, config_hash, submitted, content_hash: sum }, payload))
}

/// Read a snapshot's header without touching the payload. Verifies the
/// checksum, so success means the file is whole.
pub fn peek(bytes: &[u8]) -> SnapResult<SnapshotMeta> {
    parse(bytes).map(|(meta, _)| meta)
}

/// Open a snapshot for resuming a run whose canonical-config hash is
/// `expect_config_hash`. Refuses engine-version and config mismatches:
/// both would produce a resume that diverges from the uninterrupted run.
pub fn open(bytes: &[u8], expect_config_hash: u64) -> SnapResult<(SnapshotMeta, &[u8])> {
    let (meta, payload) = parse(bytes)?;
    if meta.engine != ENGINE_VERSION {
        return Err(format!(
            "snapshot was captured by engine '{}', this build is '{ENGINE_VERSION}'",
            meta.engine
        ));
    }
    if meta.config_hash != expect_config_hash {
        return Err(format!(
            "snapshot belongs to a different configuration \
             (hash {:#018x}, expected {expect_config_hash:#018x})",
            meta.config_hash
        ));
    }
    Ok((meta, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_and_open_round_trip() {
        let sealed = seal(0xabcd, 512, b"engine state");
        let meta = peek(&sealed).unwrap();
        assert_eq!(meta.format, FORMAT);
        assert_eq!(meta.engine, ENGINE_VERSION);
        assert_eq!(meta.config_hash, 0xabcd);
        assert_eq!(meta.submitted, 512);
        let (meta2, payload) = open(&sealed, 0xabcd).unwrap();
        assert_eq!(meta2, meta);
        assert_eq!(payload, b"engine state");
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let sealed = seal(7, 64, b"payload bytes here");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x40;
            assert!(peek(&bad).is_err(), "flipping byte {i} must fail the checksum");
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let sealed = seal(7, 64, b"payload");
        for cut in 0..sealed.len() {
            assert!(peek(&sealed[..cut]).is_err(), "prefix of {cut} bytes must be rejected");
        }
    }

    #[test]
    fn config_mismatch_refused() {
        let sealed = seal(1, 0, b"");
        assert!(peek(&sealed).is_ok());
        let err = open(&sealed, 2).unwrap_err();
        assert!(err.contains("different configuration"), "{err}");
    }

    /// A well-formed container of config hash 9 with any format and
    /// engine stamp, built by hand (the public API writes only this
    /// build's).
    fn container(format: u32, engine: &str) -> Vec<u8> {
        let payload = b"state";
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&format.to_le_bytes());
        buf.extend_from_slice(&(engine.len() as u64).to_le_bytes());
        buf.extend_from_slice(engine.as_bytes());
        buf.extend_from_slice(&9u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(payload);
        let sum = snap_hash(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    #[test]
    fn engine_stamp_mismatch_refused() {
        let buf = container(FORMAT, "hmm-engine-v0-ancient");
        assert!(peek(&buf).is_ok(), "header itself is well-formed");
        let err = open(&buf, 9).unwrap_err();
        assert!(err.contains("engine"), "{err}");
    }

    #[test]
    fn format_1_refused() {
        // Format 1 carried the warm-up completions in the driver payload;
        // this build cannot parse it. The same container at this build's
        // format is exactly what `seal` writes.
        assert_eq!(container(FORMAT, ENGINE_VERSION), seal(9, 0, b"state"));
        let err = open(&container(1, ENGINE_VERSION), 9).unwrap_err();
        assert!(err.contains("unsupported snapshot format 1"), "{err}");
    }

    #[test]
    fn content_hash_is_deterministic_and_state_sensitive() {
        let a = seal(1, 10, b"state A");
        let b = seal(1, 10, b"state A");
        let c = seal(1, 10, b"state B");
        assert_eq!(peek(&a).unwrap().content_hash, peek(&b).unwrap().content_hash);
        assert_ne!(peek(&a).unwrap().content_hash, peek(&c).unwrap().content_hash);
    }
}
