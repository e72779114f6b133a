//! The durable result store: a content-addressed on-disk mirror of the
//! in-memory result cache, plus the checkpoint shelf for in-flight jobs.
//!
//! Layout under `--store-dir` (the directory discipline — atomic writes,
//! quarantine, staging — is `blob`'s):
//!
//! ```text
//! <dir>/entries/<key>       finished result bodies (one file per key)
//! <dir>/checkpoints/<key>   engine snapshots of in-flight jobs
//! <dir>/quarantine/<key>.N  torn/corrupt files moved aside, never served
//! <dir>/tmp/                staging for atomic writes
//! ```
//!
//! Every read re-verifies the header: key, length, checksum, and the
//! engine-version stamp ([`hmm_simulator::snapshot::ENGINE_VERSION`]). A
//! checksum or framing failure quarantines the file (renamed, kept for
//! forensics, never served); an engine-stamp mismatch deletes it silently
//! — the entry is not corrupt, just stale, and serving it would pin
//! figures from an older simulator behaviour. Results and checkpoints
//! are recomputable from their canonical config, so writes are not
//! synced.
//!
//! The store is bounded by `--store-max-bytes` with least-recently-used
//! eviction over its own recency ledger (independent of the in-memory
//! cache's capacity).

use crate::blob::{decimal, hex16, parse_header, BlobDir, DataClass, ENTRIES};
use crate::cache::LruCache;
use crate::metrics::ServerMetrics;
use hmm_sim_base::snap::snap_hash;
use hmm_sim_base::FxHashMap;
use hmm_simulator::snapshot::ENGINE_VERSION;
use std::fs;
use std::path::Path;
use std::sync::{Arc, Mutex};

const ENTRY_MAGIC: &str = "hmm-store-v1";
const CKPT_MAGIC: &str = "hmm-ckpt-v1";
const CHECKPOINTS: &str = "checkpoints";

/// Recency ledger for the on-disk entries.
#[derive(Debug, Default)]
struct Ledger {
    /// key → (body bytes on disk, last-use stamp).
    entries: FxHashMap<u64, (u64, u64)>,
    total_bytes: u64,
    clock: u64,
}

impl Ledger {
    fn touch(&mut self, key: u64) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.entries.get_mut(&key) {
            e.1 = clock;
        }
    }

    fn insert(&mut self, key: u64, bytes: u64) {
        self.clock += 1;
        if let Some(old) = self.entries.insert(key, (bytes, self.clock)) {
            self.total_bytes -= old.0;
        }
        self.total_bytes += bytes;
    }

    fn remove(&mut self, key: u64) {
        if let Some((bytes, _)) = self.entries.remove(&key) {
            self.total_bytes -= bytes;
        }
    }

    /// The least-recently-used key. O(n), but eviction is rare and the
    /// ledger is small; an intrusive list would buy nothing measurable.
    fn lru(&self) -> Option<u64> {
        self.entries.iter().min_by_key(|(_, (_, used))| *used).map(|(&k, _)| k)
    }
}

/// The content-addressed durable store.
#[derive(Debug)]
pub struct Store {
    blobs: BlobDir,
    /// Byte budget for `entries/`; 0 = unbounded.
    max_bytes: u64,
    ledger: Mutex<Ledger>,
}

impl Store {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: &Path, max_bytes: u64) -> std::io::Result<Store> {
        Ok(Store {
            blobs: BlobDir::open(dir, &[ENTRIES, CHECKPOINTS], DataClass::Derived, "store")?,
            max_bytes,
            ledger: Mutex::new(Ledger::default()),
        })
    }

    /// Bytes of result bodies currently on disk.
    pub fn bytes(&self) -> u64 {
        self.ledger.lock().unwrap().total_bytes
    }

    /// Result entries currently on disk.
    pub fn entries(&self) -> usize {
        self.ledger.lock().unwrap().entries.len()
    }

    /// Store one finished result body. Failures degrade to memory-only
    /// serving; they never fail the request.
    pub fn put(&self, key: u64, body: &str, metrics: &ServerMetrics) {
        let framed = frame_entry(key, body);
        match self.blobs.write(&self.blobs.path(ENTRIES, key), &[framed.as_bytes()]) {
            Ok(()) => {
                let mut ledger = self.ledger.lock().unwrap();
                ledger.insert(key, framed.len() as u64);
                self.evict_over_budget(&mut ledger, metrics);
            }
            Err(e) => self.blobs.io_error("write", &e, metrics),
        }
    }

    fn evict_over_budget(&self, ledger: &mut Ledger, metrics: &ServerMetrics) {
        if self.max_bytes == 0 {
            return;
        }
        while ledger.total_bytes > self.max_bytes {
            let Some(victim) = ledger.lru() else { break };
            ledger.remove(victim);
            if let Err(e) = fs::remove_file(self.blobs.path(ENTRIES, victim)) {
                self.blobs.io_error("evict", &e, metrics);
            }
        }
    }

    /// Fetch a result body by key, verifying it end to end. A corrupt
    /// entry is quarantined and reads as a miss.
    pub fn get(&self, key: u64, metrics: &ServerMetrics) -> Option<String> {
        let path = self.blobs.path(ENTRIES, key);
        let raw = self.blobs.read(&path, "read", metrics)?;
        match parse_entry(key, &raw) {
            Ok(body) => {
                self.ledger.lock().unwrap().touch(key);
                return Some(body);
            }
            // Not corrupt — written by a different engine version. Serving
            // it would resurrect figures the current engine would not
            // produce; drop it without ceremony.
            Err(Stale) => {
                let _ = fs::remove_file(&path);
            }
            Err(Corrupt(why)) => self.blobs.quarantine(&path, &why, metrics),
        }
        self.ledger.lock().unwrap().remove(key);
        None
    }

    /// Load every verifiable entry into `cache`, oldest first (so the
    /// newest entries end up most-recently-used on both sides), and seed
    /// the recency ledger. Returns how many entries were restored.
    pub fn rehydrate(&self, cache: &mut LruCache, metrics: &ServerMetrics) -> usize {
        let mut files: Vec<(std::time::SystemTime, u64)> = self
            .blobs
            .keys(ENTRIES)
            .into_iter()
            .map(|key| {
                let mtime = fs::metadata(self.blobs.path(ENTRIES, key))
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                (mtime, key)
            })
            .collect();
        files.sort();
        let mut restored = 0;
        for (_, key) in files {
            let path = self.blobs.path(ENTRIES, key);
            let Some(raw) = self.blobs.read(&path, "read", metrics) else { continue };
            match parse_entry(key, &raw) {
                Ok(body) => {
                    let mut ledger = self.ledger.lock().unwrap();
                    ledger.insert(key, raw.len() as u64);
                    self.evict_over_budget(&mut ledger, metrics);
                    drop(ledger);
                    cache.insert(key, Arc::new(body));
                    restored += 1;
                }
                Err(Stale) => {
                    let _ = fs::remove_file(&path);
                }
                Err(Corrupt(why)) => self.blobs.quarantine(&path, &why, metrics),
            }
        }
        restored
    }

    /// Persist a checkpoint for an in-flight job: the canonical config
    /// (so a restarted server can re-admit the job) plus the sealed
    /// engine snapshot. Atomic like every other write.
    pub fn write_checkpoint(
        &self,
        key: u64,
        canonical: &str,
        snapshot: &[u8],
        metrics: &ServerMetrics,
    ) {
        debug_assert!(!canonical.contains('\n'), "canonical JSON is single-line");
        let mut sum = canonical.as_bytes().to_vec();
        sum.extend_from_slice(snapshot);
        let header = format!(
            "{CKPT_MAGIC} {ENGINE_VERSION} {key:016x} {} {} {:016x}\n",
            canonical.len(),
            snapshot.len(),
            snap_hash(&sum)
        );
        let mut framed = header.into_bytes();
        framed.extend_from_slice(canonical.as_bytes());
        framed.push(b'\n');
        framed.extend_from_slice(snapshot);
        match self.blobs.write(&self.blobs.path(CHECKPOINTS, key), &[&framed]) {
            Ok(()) => metrics.inc(&metrics.snapshots_written),
            Err(e) => self.blobs.io_error("checkpoint write", &e, metrics),
        }
    }

    /// Read a job checkpoint back: `(canonical config text, sealed
    /// snapshot bytes)`. A torn or corrupt checkpoint is quarantined and
    /// reads as absent — the job simply restarts from scratch.
    pub fn read_checkpoint(&self, key: u64, metrics: &ServerMetrics) -> Option<(String, Vec<u8>)> {
        let path = self.blobs.path(CHECKPOINTS, key);
        let raw = self.blobs.read(&path, "checkpoint read", metrics)?;
        match parse_checkpoint(key, &raw) {
            Ok(parts) => Some(parts),
            Err(Stale) => {
                let _ = fs::remove_file(&path);
                None
            }
            Err(Corrupt(why)) => {
                self.blobs.quarantine(&path, &why, metrics);
                None
            }
        }
    }

    /// Drop a job's checkpoint (its result has been published).
    pub fn remove_checkpoint(&self, key: u64) {
        let _ = fs::remove_file(self.blobs.path(CHECKPOINTS, key));
    }

    /// Keys of every checkpoint currently on the shelf (restart
    /// re-admission scans this).
    pub fn checkpoint_keys(&self) -> Vec<u64> {
        self.blobs.keys(CHECKPOINTS)
    }
}

/// Why a stored file was rejected.
enum Reject {
    /// Written by a different engine version: valid, but must not be
    /// served by this build.
    Stale,
    /// Torn, truncated, or mangled: quarantine it.
    Corrupt(String),
}
use Reject::{Corrupt, Stale};

fn frame_entry(key: u64, body: &str) -> String {
    format!(
        "{ENTRY_MAGIC} {ENGINE_VERSION} {key:016x} {} {:016x}\n{body}",
        body.len(),
        snap_hash(body.as_bytes())
    )
}

fn parse_entry(key: u64, raw: &[u8]) -> Result<String, Reject> {
    let ([_, engine, _, len, sum], body) =
        parse_header(raw, ENTRY_MAGIC, 2, key).map_err(Corrupt)?;
    let len = decimal(len).ok_or_else(|| Corrupt("unparsable body length".into()))?;
    let sum = hex16(sum).ok_or_else(|| Corrupt("unparsable checksum".into()))?;
    if body.len() != len {
        return Err(Corrupt(format!("body is {} bytes, header says {len}", body.len())));
    }
    if snap_hash(body) != sum {
        return Err(Corrupt("fails its checksum".into()));
    }
    // Integrity before staleness: only a file proven whole is trusted to
    // tell us which engine wrote it.
    if engine != ENGINE_VERSION {
        return Err(Stale);
    }
    String::from_utf8(body.to_vec()).map_err(|_| Corrupt("body not UTF-8".into()))
}

fn parse_checkpoint(key: u64, raw: &[u8]) -> Result<(String, Vec<u8>), Reject> {
    let ([_, engine, _, clen, slen, sum], rest) =
        parse_header(raw, CKPT_MAGIC, 2, key).map_err(Corrupt)?;
    let clen = decimal(clen).ok_or_else(|| Corrupt("unparsable config length".into()))?;
    let slen = decimal(slen).ok_or_else(|| Corrupt("unparsable snapshot length".into()))?;
    let sum = hex16(sum).ok_or_else(|| Corrupt("unparsable checksum".into()))?;
    // Lengths come from the file: a sum that overflows is corruption, not
    // a panic (debug) or a wrapped length that passes the check (release).
    if clen.checked_add(1).and_then(|n| n.checked_add(slen)) != Some(rest.len()) {
        return Err(Corrupt(format!(
            "payload is {} bytes, header says {clen} + 1 + {slen}",
            rest.len()
        )));
    }
    let (canonical, snapshot) = (&rest[..clen], &rest[clen + 1..]);
    if rest[clen] != b'\n' {
        return Err(Corrupt("config/snapshot separator missing".into()));
    }
    let mut summed = canonical.to_vec();
    summed.extend_from_slice(snapshot);
    if snap_hash(&summed) != sum {
        return Err(Corrupt("fails its checksum".into()));
    }
    if engine != ENGINE_VERSION {
        return Err(Stale);
    }
    let canonical =
        String::from_utf8(canonical.to_vec()).map_err(|_| Corrupt("config not UTF-8".into()))?;
    Ok((canonical, snapshot.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blob::{entry_name, hostile};
    use std::path::PathBuf;
    use std::sync::atomic::Ordering;

    /// Stored files, byte for byte: key 7 holding `body seven`, and the
    /// checkpoint of key 5. The framing is a compatibility contract:
    /// directories written by earlier builds must read back, so the
    /// literals pin it.
    const ENTRY_7: &[u8] =
        b"hmm-store-v1 hmm-engine-v1 0000000000000007 10 7116941edde3773c\nbody seven";
    const CKPT_5: &[u8] = b"hmm-ckpt-v1 hmm-engine-v1 0000000000000005 17 6 94320ad231d7174c\n\
        {\"workload\":\"mg\"}\n\x00\x01\x02\xfa\xfb\xfc";

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hmm-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trip_and_recency() {
        let dir = tmpdir("roundtrip");
        let m = ServerMetrics::default();
        let s = Store::open(&dir, 0).unwrap();
        s.put(7, "body seven", &m);
        assert_eq!(s.get(7, &m).as_deref(), Some("body seven"));
        assert_eq!(s.get(8, &m), None, "absent key is a clean miss");
        assert_eq!(s.entries(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_not_served() {
        let dir = tmpdir("corrupt");
        let m = ServerMetrics::default();
        let s = Store::open(&dir, 0).unwrap();
        s.put(9, "precious", &m);
        // Flip one body byte on disk.
        let path = dir.join("entries").join(entry_name(9));
        let mut raw = fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x20;
        fs::write(&path, &raw).unwrap();
        assert_eq!(s.get(9, &m), None, "corrupt entry must read as a miss");
        assert!(!path.exists(), "corrupt entry must leave the live path");
        assert_eq!(fs::read_dir(dir.join("quarantine")).unwrap().count(), 1);
        assert_eq!(m.store_corrupt_quarantined.load(Ordering::Relaxed), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_quarantined() {
        let dir = tmpdir("torn");
        let m = ServerMetrics::default();
        let s = Store::open(&dir, 0).unwrap();
        s.put(11, "a body that will be torn in half", &m);
        let path = dir.join("entries").join(entry_name(11));
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        assert_eq!(s.get(11, &m), None);
        assert_eq!(m.store_corrupt_quarantined.load(Ordering::Relaxed), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rehydrate_restores_into_cache() {
        let dir = tmpdir("rehydrate");
        let m = ServerMetrics::default();
        {
            let s = Store::open(&dir, 0).unwrap();
            s.put(1, "one", &m);
            s.put(2, "two", &m);
        }
        // A fresh store over the same directory: simulated restart.
        let s = Store::open(&dir, 0).unwrap();
        let mut cache = LruCache::new(16);
        assert_eq!(s.rehydrate(&mut cache, &m), 2);
        assert_eq!(cache.get(1).as_deref().map(String::as_str), Some("one"));
        assert_eq!(cache.get(2).as_deref().map(String::as_str), Some("two"));
        assert_eq!(s.entries(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let dir = tmpdir("budget");
        let m = ServerMetrics::default();
        let one_entry = frame_entry(0, &"x".repeat(64)).len() as u64;
        let s = Store::open(&dir, 2 * one_entry).unwrap();
        s.put(1, &"a".repeat(64), &m);
        s.put(2, &"b".repeat(64), &m);
        assert!(s.get(1, &m).is_some(), "touch 1 so 2 is the LRU entry");
        s.put(3, &"c".repeat(64), &m);
        assert_eq!(s.entries(), 2);
        assert!(s.get(2, &m).is_none(), "LRU entry evicted from disk");
        assert!(s.get(1, &m).is_some());
        assert!(s.get(3, &m).is_some());
        assert!(s.bytes() <= 2 * one_entry);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_round_trip_and_removal() {
        let dir = tmpdir("ckpt");
        let m = ServerMetrics::default();
        let s = Store::open(&dir, 0).unwrap();
        let snap = vec![0u8, 1, 2, 250, 251, 252];
        s.write_checkpoint(5, r#"{"workload":"mg"}"#, &snap, &m);
        assert_eq!(m.snapshots_written.load(Ordering::Relaxed), 1);
        assert_eq!(s.checkpoint_keys(), vec![5]);
        let (canonical, got) = s.read_checkpoint(5, &m).unwrap();
        assert_eq!(canonical, r#"{"workload":"mg"}"#);
        assert_eq!(got, snap);
        s.remove_checkpoint(5);
        assert!(s.read_checkpoint(5, &m).is_none());
        assert!(s.checkpoint_keys().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_reads_as_absent() {
        let dir = tmpdir("ckpt-corrupt");
        let m = ServerMetrics::default();
        let s = Store::open(&dir, 0).unwrap();
        s.write_checkpoint(6, "{}", b"snapshot", &m);
        let path = dir.join("checkpoints").join(entry_name(6));
        let mut raw = fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 1;
        fs::write(&path, &raw).unwrap();
        assert!(s.read_checkpoint(6, &m).is_none());
        assert_eq!(m.store_corrupt_quarantined.load(Ordering::Relaxed), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_engine_entries_are_dropped_silently() {
        let dir = tmpdir("stale");
        let m = ServerMetrics::default();
        let s = Store::open(&dir, 0).unwrap();
        // Hand-write an entry with a foreign engine stamp but a valid
        // checksum.
        let body = "old figures";
        let framed = format!(
            "{ENTRY_MAGIC} hmm-engine-v0 {:016x} {} {:016x}\n{body}",
            4u64,
            body.len(),
            snap_hash(body.as_bytes())
        );
        let path = dir.join("entries").join(entry_name(4));
        fs::write(&path, framed).unwrap();
        assert_eq!(s.get(4, &m), None);
        assert!(!path.exists(), "stale entry deleted");
        assert_eq!(m.store_corrupt_quarantined.load(Ordering::Relaxed), 0, "stale is not corrupt");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_failure_degrades_and_counts_every_error() {
        let dir = tmpdir("degrade");
        let m = ServerMetrics::default();
        let s = Store::open(&dir, 0).unwrap();
        // Replace the entries directory with a plain file: every rename
        // into it now fails with ENOTDIR, which stands in for disk-full
        // or EIO (permission tricks don't work when tests run as root).
        fs::remove_dir_all(dir.join("entries")).unwrap();
        fs::write(dir.join("entries"), b"not a directory").unwrap();
        s.put(1, "body one", &m);
        s.put(2, "body two", &m);
        assert_eq!(m.store_io_errors.load(Ordering::Relaxed), 2, "every failure counts");
        assert_eq!(s.entries(), 0, "failed writes must not enter the ledger");
        assert_eq!(s.bytes(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn earlier_files_read_back_and_writes_are_byte_identical() {
        let dir = tmpdir("fixtures");
        let m = ServerMetrics::default();
        {
            let s = Store::open(&dir, 0).unwrap();
            s.put(7, "body seven", &m);
            s.write_checkpoint(5, r#"{"workload":"mg"}"#, &[0, 1, 2, 250, 251, 252], &m);
        }
        let entry = dir.join("entries").join(entry_name(7));
        let ckpt = dir.join("checkpoints").join(entry_name(5));
        assert_eq!(fs::read(&entry).unwrap(), ENTRY_7, "result framing changed");
        assert_eq!(fs::read(&ckpt).unwrap(), CKPT_5, "checkpoint framing changed");
        // The literals themselves, placed by hand, restore on a reopen.
        fs::write(&entry, ENTRY_7).unwrap();
        fs::write(&ckpt, CKPT_5).unwrap();
        let s = Store::open(&dir, 0).unwrap();
        let mut cache = LruCache::new(4);
        assert_eq!(s.rehydrate(&mut cache, &m), 1);
        assert_eq!(cache.get(7).as_deref().map(String::as_str), Some("body seven"));
        assert_eq!(s.checkpoint_keys(), vec![5]);
        let (canonical, snap) = s.read_checkpoint(5, &m).unwrap();
        assert_eq!(
            (canonical.as_str(), snap.as_slice()),
            (r#"{"workload":"mg"}"#, &[0, 1, 2, 250, 251, 252][..])
        );
        assert_eq!(m.store_corrupt_quarantined.load(Ordering::Relaxed), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_headers_are_rejected_without_panicking() {
        hostile::assert_all_rejected(ENTRY_7, 7, |raw| parse_entry(7, raw).is_ok());
        hostile::assert_all_rejected(CKPT_5, 5, |raw| parse_checkpoint(5, raw).is_ok());
    }

    #[test]
    fn overflowing_checkpoint_lengths_are_quarantined() {
        let dir = tmpdir("ckpt-overflow");
        let m = ServerMetrics::default();
        let s = Store::open(&dir, 0).unwrap();
        // `clen + 1 + slen` wraps to the payload's length in release, so
        // only checked arithmetic catches it.
        let path = dir.join("checkpoints").join(entry_name(5));
        fs::write(
            &path,
            b"hmm-ckpt-v1 hmm-engine-v1 0000000000000005 18446744073709551615 0 0000000000000000\n",
        )
        .unwrap();
        assert_eq!(s.checkpoint_keys(), vec![5]);
        assert!(s.read_checkpoint(5, &m).is_none());
        assert!(!path.exists(), "the bad checkpoint left the live path");
        assert_eq!(m.store_corrupt_quarantined.load(Ordering::Relaxed), 1);
        assert!(s.checkpoint_keys().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_entries_count_as_io_errors_at_rehydration() {
        let dir = tmpdir("unreadable");
        let m = ServerMetrics::default();
        let s = Store::open(&dir, 0).unwrap();
        // A directory at an entry's path: listed as a key, fails to read.
        fs::create_dir(dir.join("entries").join(entry_name(3))).unwrap();
        assert_eq!(s.rehydrate(&mut LruCache::new(4), &m), 0);
        assert_eq!(m.store_io_errors.load(Ordering::Relaxed), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_leftovers_are_cleared_on_open() {
        let dir = tmpdir("leftover");
        fs::create_dir_all(dir.join("tmp")).unwrap();
        fs::write(dir.join("tmp").join("entry.0"), b"half-written").unwrap();
        let _ = Store::open(&dir, 0).unwrap();
        assert_eq!(fs::read_dir(dir.join("tmp")).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
