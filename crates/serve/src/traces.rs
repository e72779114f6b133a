//! The content-addressed, durable trace registry behind `/v1/traces` and
//! `hmm-sim --trace-dir`.
//!
//! The paper's methodology is trace-driven; this is how traces get *into*
//! the system from outside: raw `HMT1` blobs are validated by a full
//! decode, keyed by the content hash of their bytes, kept hot in the
//! process-global replay registry (`hmm_workloads::replay`) for the
//! simulation driver, and — when a directory is configured — persisted
//! in a `blob` directory like the result store's:
//!
//! ```text
//! <dir>/entries/<id>      validated HMT1 blobs, framed with a header
//! <dir>/quarantine/<id>.N bad files moved aside, never served
//! <dir>/tmp/              staging for atomic writes
//! ```
//!
//! Every read (including boot rehydration) re-verifies the header — id,
//! length, content hash — *and* re-decodes the `HMT1` payload, so a blob
//! that cannot replay exactly as uploaded is quarantined rather than
//! served. There is no engine stamp: a trace is input data, versioned by
//! its own `HMT1` magic, and stays valid across engine releases. It is
//! also the one kind of stored data that cannot be recomputed, so every
//! write is synced (file and directory) before the upload is answered.
//!
//! Disk failures degrade, never break, ingestion: a trace whose write
//! failed is still registered for replay (memory-only, like the result
//! store's degraded mode), and the failure is counted in
//! `store_io_errors`.

use crate::blob::{decimal, parse_header, BlobDir, DataClass, ENTRIES};
use crate::metrics::ServerMetrics;
use hmm_sim_base::snap::snap_hash;
use hmm_workloads::replay::{self, TraceSummary};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Magic token of the on-disk entry framing.
const TRACE_MAGIC: &str = "hmm-trace-v1";

/// The durable trace registry. All methods take `&self`; the registry is
/// shared across the serving layer's connection threads.
#[derive(Debug)]
pub struct TraceRegistry {
    blobs: Option<BlobDir>,
    /// id → summary, ordered so listings are deterministic.
    metas: Mutex<BTreeMap<u64, TraceSummary>>,
}

impl TraceRegistry {
    /// An in-memory registry (no durability); used when the server runs
    /// without `--store-dir`.
    pub fn memory() -> Self {
        Self { blobs: None, metas: Mutex::new(BTreeMap::new()) }
    }

    /// Open (creating if needed) a durable registry rooted at `dir`, and
    /// rehydrate every verifiable entry into the replay registry;
    /// quarantines and unreadable files are counted in `metrics`.
    /// Returns the registry and how many traces were restored.
    pub fn open(dir: &Path, metrics: &ServerMetrics) -> std::io::Result<(Self, usize)> {
        let reg = Self {
            blobs: Some(BlobDir::open(dir, &[ENTRIES], DataClass::Input, "trace")?),
            ..Self::memory()
        };
        let restored = reg.rehydrate(metrics);
        Ok((reg, restored))
    }

    /// Registered trace count.
    pub fn len(&self) -> usize {
        self.metas.lock().unwrap().len()
    }

    /// Whether no traces are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validate and register one uploaded trace. Idempotent: the content
    /// hash is the identity, so re-uploading the same bytes returns the
    /// same summary. Errors are malformed-input diagnostics ("not an
    /// HMT1 trace", "truncated varint", ...); disk trouble degrades to
    /// memory-only registration instead of failing the upload.
    pub fn put(&self, bytes: &[u8], metrics: &ServerMetrics) -> Result<TraceSummary, String> {
        let data = replay::decode(bytes)?;
        let summary = data.summary;
        replay::register(Arc::new(data));
        if let Some(blobs) = &self.blobs {
            let header = format!("{TRACE_MAGIC} {:016x} {}\n", summary.hash, bytes.len());
            let path = blobs.path(ENTRIES, summary.hash);
            if let Err(e) = blobs.write(&path, &[header.as_bytes(), bytes]) {
                blobs.io_error("write", &e, metrics);
            }
        }
        self.metas.lock().unwrap().insert(summary.hash, summary);
        Ok(summary)
    }

    /// Summary of a registered trace.
    pub fn get(&self, hash: u64) -> Option<TraceSummary> {
        self.metas.lock().unwrap().get(&hash).copied()
    }

    /// All registered summaries, in id order.
    pub fn list(&self) -> Vec<TraceSummary> {
        self.metas.lock().unwrap().values().copied().collect()
    }

    /// Remove a trace: forget its summary, unregister it from the replay
    /// registry, and delete its blob. Returns whether it existed. Runs
    /// already holding the trace are unaffected.
    pub fn delete(&self, hash: u64, metrics: &ServerMetrics) -> bool {
        let existed = self.metas.lock().unwrap().remove(&hash).is_some();
        if existed {
            replay::unregister(hash);
            if let Some(blobs) = &self.blobs {
                match fs::remove_file(blobs.path(ENTRIES, hash)) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => blobs.io_error("delete", &e, metrics),
                }
            }
        }
        existed
    }

    /// Verify every blob on disk end to end (framing, content hash, full
    /// `HMT1` decode), register the good ones and quarantine the rest.
    /// Called once from `open`.
    fn rehydrate(&self, metrics: &ServerMetrics) -> usize {
        let Some(blobs) = &self.blobs else { return 0 };
        let mut restored = 0;
        for hash in blobs.keys(ENTRIES) {
            let path = blobs.path(ENTRIES, hash);
            let Some(raw) = blobs.read(&path, "read", metrics) else { continue };
            match parse_entry(hash, &raw) {
                Ok(data) => {
                    let summary = data.summary;
                    replay::register(Arc::new(data));
                    self.metas.lock().unwrap().insert(hash, summary);
                    restored += 1;
                }
                Err(why) => blobs.quarantine(&path, &why, metrics),
            }
        }
        restored
    }
}

/// Verify one stored blob end to end and decode it. Any failure is a
/// corruption diagnostic (there is no "stale" arm — traces are
/// engine-independent input data).
fn parse_entry(hash: u64, raw: &[u8]) -> Result<replay::TraceData, String> {
    let ([_, _, len], body) = parse_header(raw, TRACE_MAGIC, 1, hash)?;
    let len = decimal(len).ok_or("unparsable body length")?;
    if body.len() != len {
        return Err(format!("body is {} bytes, header says {len}", body.len()));
    }
    if snap_hash(body) != hash {
        return Err("fails its content hash".into());
    }
    let data = replay::decode(body).map_err(|e| format!("does not decode: {e}"))?;
    debug_assert_eq!(data.summary.hash, hash);
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blob::{entry_name, hostile};
    use hmm_sim_base::config::SimScale;
    use hmm_workloads::{workload, write_binary, WorkloadId};
    use std::path::PathBuf;
    use std::sync::atomic::Ordering;

    /// A stored three-record pgbench trace, byte for byte. The framing
    /// is a compatibility contract: directories written by earlier
    /// builds must read back, so the literal pins it.
    const TRACE_E448: &[u8] = b"hmm-trace-v1 e4489f00ece038a6 18\n\
        HMT1\x0b\x99H\x00\x0e\xb9\xaa\x03\x00\x09\x88\xb1\x03\x01";
    const E448: u64 = 0xe448_9f00_ece0_38a6;

    fn sample_bytes(n: usize, seed: u64) -> Vec<u8> {
        let recs = workload(WorkloadId::Pgbench, &SimScale { divisor: 256 }).records(seed, n);
        let mut buf = Vec::new();
        write_binary(&mut buf, recs).unwrap();
        buf
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hmm-traces-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn quarantined(m: &ServerMetrics) -> u64 {
        m.store_corrupt_quarantined.load(Ordering::Relaxed)
    }

    #[test]
    fn memory_put_get_list_delete() {
        let m = ServerMetrics::default();
        let reg = TraceRegistry::memory();
        let a = reg.put(&sample_bytes(500, 1), &m).unwrap();
        let b = reg.put(&sample_bytes(500, 2), &m).unwrap();
        assert_ne!(a.hash, b.hash);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(a.hash), Some(a));
        let ids: Vec<u64> = reg.list().iter().map(|s| s.hash).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "listing is id-ordered");
        assert!(replay::lookup(a.hash).is_some(), "put registers for replay");
        assert!(reg.delete(a.hash, &m));
        assert!(!reg.delete(a.hash, &m), "second delete is a miss");
        assert!(reg.get(a.hash).is_none());
        assert!(replay::lookup(a.hash).is_none(), "delete unregisters replay");
        reg.delete(b.hash, &m);
    }

    #[test]
    fn put_is_idempotent_by_content() {
        let m = ServerMetrics::default();
        let reg = TraceRegistry::memory();
        let bytes = sample_bytes(300, 3);
        let a = reg.put(&bytes, &m).unwrap();
        let b = reg.put(&bytes, &m).unwrap();
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
        reg.delete(a.hash, &m);
    }

    #[test]
    fn rejects_malformed_uploads() {
        let m = ServerMetrics::default();
        let reg = TraceRegistry::memory();
        assert!(reg.put(b"NOPE", &m).unwrap_err().contains("not an HMT1 trace"));
        let mut truncated = sample_bytes(50, 4);
        truncated.truncate(truncated.len() - 1);
        assert!(reg.put(&truncated, &m).is_err());
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn durable_round_trip_survives_reopen() {
        let dir = tmpdir("reopen");
        let m = ServerMetrics::default();
        let bytes = sample_bytes(400, 5);
        let summary = {
            let (reg, restored) = TraceRegistry::open(&dir, &m).unwrap();
            assert_eq!(restored, 0);
            reg.put(&bytes, &m).unwrap()
        };
        replay::unregister(summary.hash); // simulate process death
        let (reg, restored) = TraceRegistry::open(&dir, &m).unwrap();
        assert_eq!(restored, 1);
        assert_eq!(reg.get(summary.hash), Some(summary));
        assert!(replay::lookup(summary.hash).is_some(), "rehydration re-registers replay");
        reg.delete(summary.hash, &m);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn earlier_blob_reads_back_and_writes_are_byte_identical() {
        let dir = tmpdir("fixture");
        let m = ServerMetrics::default();
        let path = dir.join("entries").join(entry_name(E448));
        {
            let (reg, _) = TraceRegistry::open(&dir, &m).unwrap();
            let summary = reg.put(&sample_bytes(3, 1), &m).unwrap();
            assert_eq!(summary.hash, E448);
        }
        assert_eq!(fs::read(&path).unwrap(), TRACE_E448, "trace framing changed");
        replay::unregister(E448);
        fs::write(&path, TRACE_E448).unwrap();
        let (reg, restored) = TraceRegistry::open(&dir, &m).unwrap();
        assert_eq!(restored, 1);
        assert_eq!(reg.get(E448).map(|s| (s.records, s.last_tick)), Some((3, 34)));
        assert_eq!(quarantined(&m), 0);
        reg.delete(E448, &m);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_headers_are_rejected_without_panicking() {
        hostile::assert_all_rejected(TRACE_E448, E448, |raw| parse_entry(E448, raw).is_ok());
    }

    #[test]
    fn corrupt_blob_is_quarantined_never_served() {
        let dir = tmpdir("corrupt");
        let m = ServerMetrics::default();
        let bytes = sample_bytes(200, 6);
        let summary = {
            let (reg, _) = TraceRegistry::open(&dir, &m).unwrap();
            reg.put(&bytes, &m).unwrap()
        };
        replay::unregister(summary.hash);
        // Flip one payload byte on disk.
        let path = dir.join("entries").join(entry_name(summary.hash));
        let mut raw = fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        fs::write(&path, &raw).unwrap();

        let (reg, restored) = TraceRegistry::open(&dir, &m).unwrap();
        assert_eq!(restored, 0);
        assert_eq!(quarantined(&m), 1);
        assert!(reg.get(summary.hash).is_none(), "corrupt blob must never be served");
        assert!(replay::lookup(summary.hash).is_none());
        assert!(!path.exists(), "bad blob left the live path");
        assert_eq!(fs::read_dir(dir.join("quarantine")).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_blob_is_quarantined() {
        let dir = tmpdir("torn");
        let m = ServerMetrics::default();
        let summary = {
            let (reg, _) = TraceRegistry::open(&dir, &m).unwrap();
            reg.put(&sample_bytes(200, 7), &m).unwrap()
        };
        replay::unregister(summary.hash);
        let path = dir.join("entries").join(entry_name(summary.hash));
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        let (_, restored) = TraceRegistry::open(&dir, &m).unwrap();
        assert_eq!(restored, 0);
        assert_eq!(quarantined(&m), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_failure_still_registers_and_counts() {
        let dir = tmpdir("degrade");
        let m = ServerMetrics::default();
        let (reg, _) = TraceRegistry::open(&dir, &m).unwrap();
        // A plain file where the entries directory was: every rename
        // into it fails, standing in for disk-full or EIO.
        fs::remove_dir_all(dir.join("entries")).unwrap();
        fs::write(dir.join("entries"), b"not a directory").unwrap();
        let summary = reg.put(&sample_bytes(100, 9), &m).unwrap();
        assert_eq!(m.store_io_errors.load(Ordering::Relaxed), 1);
        assert!(replay::lookup(summary.hash).is_some(), "degraded to memory-only");
        reg.delete(summary.hash, &m);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_removes_the_blob_from_disk() {
        let dir = tmpdir("delete");
        let m = ServerMetrics::default();
        let (reg, _) = TraceRegistry::open(&dir, &m).unwrap();
        let summary = reg.put(&sample_bytes(150, 8), &m).unwrap();
        let path = dir.join("entries").join(entry_name(summary.hash));
        assert!(path.exists());
        assert!(reg.delete(summary.hash, &m));
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_leftovers_are_cleared_on_open() {
        let dir = tmpdir("leftover");
        fs::create_dir_all(dir.join("tmp")).unwrap();
        fs::write(dir.join("tmp").join("trace.0"), b"half-written").unwrap();
        let _ = TraceRegistry::open(&dir, &ServerMetrics::default()).unwrap();
        assert_eq!(fs::read_dir(dir.join("tmp")).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
