//! The content-addressed blob directory under both durable stores: the
//! result store ([`crate::store`]) and the trace registry
//! ([`crate::traces`]).
//!
//! ```text
//! <dir>/<shelf>/<key>       live files, named by their 16-hex-digit key
//! <dir>/quarantine/<key>.N  files that failed verification, never served
//! <dir>/tmp/                staging for atomic writes
//! ```
//!
//! Every write goes temp-file-then-rename, so a crash at any instant
//! leaves either the old file, the new file, or a stray temp (swept at
//! the next open) — never a half-written file at a live path. Every file
//! starts with one header line whose prelude this module checks; each
//! format parses the rest of its header itself. I/O failures degrade,
//! never break, serving: the first one logs a line, every one bumps
//! `store_io_errors`, and quarantines bump `store_corrupt_quarantined`.

use crate::metrics::ServerMetrics;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// What kind of data a directory holds, which decides how durable its
/// writes are. Fixed when the directory is opened, never a user option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DataClass {
    /// Recomputable from its canonical config (results, checkpoints): a
    /// write lost to power failure costs a re-run, so no `fsync`.
    Derived,
    /// User input that cannot be recomputed (uploaded traces): the file
    /// and its parent directory are synced before the write returns.
    Input,
}

/// One blob directory: its shelves of live files plus the shared
/// quarantine and staging areas.
#[derive(Debug)]
pub(crate) struct BlobDir {
    root: PathBuf,
    quarantine: PathBuf,
    tmp: PathBuf,
    class: DataClass,
    /// Names the files in log lines (`store`, `trace`).
    label: &'static str,
    /// Monotone name disambiguator for temp and quarantine files.
    seq: AtomicU64,
    /// First-failure flag: I/O trouble logs once, counts every time.
    io_error_logged: AtomicBool,
}

/// The shelf both stores keep their live files on.
pub(crate) const ENTRIES: &str = "entries";

/// The canonical file name (and header spelling) of `key`.
pub(crate) fn entry_name(key: u64) -> String {
    format!("{key:016x}")
}

/// A 16-hex-digit key, accepted only in its canonical spelling (so `+7`,
/// upper case, or 15 and 17 digits are not keys).
pub(crate) fn hex16(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok().filter(|&k| entry_name(k) == s)
}

/// A decimal length, accepted only as the writer spells it (so `+7`,
/// `07` and `-1` are not lengths).
pub(crate) fn decimal(s: &str) -> Option<usize> {
    s.parse().ok().filter(|n: &usize| n.to_string() == s)
}

/// Split a stored file into its `N` header fields and its payload,
/// checking the prelude every format shares: a newline-terminated UTF-8
/// header of exactly `N` space-separated fields, `magic` first, and the
/// field at `key_at` spelling `key` exactly as the file is named.
pub(crate) fn parse_header<'a, const N: usize>(
    raw: &'a [u8],
    magic: &str,
    key_at: usize,
    key: u64,
) -> Result<([&'a str; N], &'a [u8]), String> {
    let nl = raw.iter().position(|&b| b == b'\n').ok_or("has no header line")?;
    let header = std::str::from_utf8(&raw[..nl]).map_err(|_| "header not UTF-8")?;
    let fields: [&str; N] = header
        .split(' ')
        .collect::<Vec<_>>()
        .try_into()
        .map_err(|f: Vec<&str>| format!("header has {} fields, want {N}", f.len()))?;
    if fields[0] != magic {
        return Err(format!("bad magic '{}'", fields[0]));
    }
    if fields[key_at] != entry_name(key) {
        return Err(format!("header key {} disagrees with file name", fields[key_at]));
    }
    Ok((fields, &raw[nl + 1..]))
}

impl BlobDir {
    /// Open (creating if needed) a blob directory at `root` with the
    /// given shelves, and sweep crash-leftover temp files.
    pub(crate) fn open(
        root: &Path,
        shelves: &[&str],
        class: DataClass,
        label: &'static str,
    ) -> std::io::Result<BlobDir> {
        let dir = BlobDir {
            root: root.to_path_buf(),
            quarantine: root.join("quarantine"),
            tmp: root.join("tmp"),
            class,
            label,
            seq: AtomicU64::new(0),
            io_error_logged: AtomicBool::new(false),
        };
        for shelf in shelves {
            fs::create_dir_all(root.join(shelf))?;
        }
        fs::create_dir_all(&dir.quarantine)?;
        fs::create_dir_all(&dir.tmp)?;
        // No live path refers to a temp file.
        if let Ok(rd) = fs::read_dir(&dir.tmp) {
            for f in rd.flatten() {
                let _ = fs::remove_file(f.path());
            }
        }
        Ok(dir)
    }

    /// The live path of `key` on `shelf`.
    pub(crate) fn path(&self, shelf: &str, key: u64) -> PathBuf {
        self.root.join(shelf).join(entry_name(key))
    }

    /// Keys of every file on `shelf`, ascending. Names that are not a
    /// canonical key are not ours and are left alone.
    pub(crate) fn keys(&self, shelf: &str) -> Vec<u64> {
        let Ok(rd) = fs::read_dir(self.root.join(shelf)) else { return Vec::new() };
        let mut keys: Vec<u64> =
            rd.flatten().filter_map(|f| f.file_name().to_str().and_then(hex16)).collect();
        keys.sort_unstable();
        keys
    }

    /// Count an I/O failure; log only the first.
    pub(crate) fn io_error(&self, what: &str, e: &std::io::Error, metrics: &ServerMetrics) {
        metrics.inc(&metrics.store_io_errors);
        if !self.io_error_logged.swap(true, Ordering::SeqCst) {
            let label = self.label;
            eprintln!(
                "hmm-serve: {label} {what} failed ({e}); continuing memory-only \
                 (further {label} I/O errors are counted, not logged)"
            );
        }
    }

    /// Read a live file. Absence is a quiet `None`; any other failure is
    /// counted as an I/O error.
    pub(crate) fn read(&self, path: &Path, what: &str, metrics: &ServerMetrics) -> Option<Vec<u8>> {
        match fs::read(path) {
            Ok(raw) => Some(raw),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => {
                self.io_error(what, &e, metrics);
                None
            }
        }
    }

    /// Write `parts` to `path` via a temp file and an atomic rename,
    /// synced as the directory's data class requires.
    pub(crate) fn write(&self, path: &Path, parts: &[&[u8]]) -> std::io::Result<()> {
        let staged = self.tmp.join(format!(
            "{}.{}",
            path.file_name().and_then(|n| n.to_str()).unwrap_or(self.label),
            self.seq.fetch_add(1, Ordering::Relaxed)
        ));
        let mut f = fs::File::create(&staged)?;
        for part in parts {
            f.write_all(part)?;
        }
        if self.class == DataClass::Input {
            f.sync_all()?;
        }
        drop(f);
        if let Err(e) = fs::rename(&staged, path) {
            let _ = fs::remove_file(&staged);
            return Err(e);
        }
        if self.class == DataClass::Input {
            // The rename is durable only once the directory is.
            if let Some(parent) = path.parent() {
                fs::File::open(parent)?.sync_all()?;
            }
        }
        Ok(())
    }

    /// Move a file that failed verification into `quarantine/` (never
    /// served again, kept for inspection) and count it.
    pub(crate) fn quarantine(&self, path: &Path, why: &str, metrics: &ServerMetrics) {
        metrics.inc(&metrics.store_corrupt_quarantined);
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or(self.label);
        let dest =
            self.quarantine.join(format!("{name}.{}", self.seq.fetch_add(1, Ordering::Relaxed)));
        eprintln!(
            "hmm-serve: {} entry {name} {why}; quarantined to {}",
            self.label,
            dest.display()
        );
        if fs::rename(path, &dest).is_err() {
            // Can't even move it aside — at least get it off the live
            // path so it is never read again.
            let _ = fs::remove_file(path);
        }
    }
}

/// Shared hostile-input checks for the three framings.
#[cfg(test)]
pub(crate) mod hostile {
    /// Feed `parse` every hostile variant of `good`, the valid file of
    /// `key`: every truncation, every bit flip in the header line, and
    /// each header field replaced by a value no writer produces (`u64`
    /// max, `-1`, `+7`, empty, and the key in 15 and 17 digits). `parse`
    /// returns whether the file was accepted; none may be, and none may
    /// panic.
    pub(crate) fn assert_all_rejected(good: &[u8], key: u64, parse: impl Fn(&[u8]) -> bool) {
        let name = super::entry_name(key);
        let values = ["18446744073709551615", "-1", "+7", "", &name[1..], &format!("0{name}")];
        assert!(parse(good), "the fixture itself must parse");
        for cut in 0..good.len() {
            assert!(!parse(&good[..cut]), "accepted a cut at {cut}");
        }
        let nl = good.iter().position(|&b| b == b'\n').expect("fixture has a header");
        for i in 0..=nl {
            for bit in 0..8 {
                let mut bad = good.to_vec();
                bad[i] ^= 1 << bit;
                assert!(!parse(&bad), "accepted a flip of bit {bit} in byte {i}");
            }
        }
        let header = std::str::from_utf8(&good[..nl]).expect("fixture header is UTF-8");
        let fields: Vec<&str> = header.split(' ').collect();
        for at in 0..fields.len() {
            for value in values {
                let mut f = fields.clone();
                f[at] = value;
                let mut bad = f.join(" ").into_bytes();
                bad.extend_from_slice(&good[nl..]);
                assert!(!parse(&bad), "accepted field {at} = {value:?}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_canonical_spellings_parse() {
        assert_eq!(hex16("00000000000000ff"), Some(255));
        for bad in ["ff", "+0000000000000ff", "00000000000000FF", "000000000000000ff", ""] {
            assert_eq!(hex16(bad), None, "{bad:?}");
        }
        assert_eq!(decimal("0"), Some(0));
        assert_eq!(decimal("18446744073709551615"), Some(usize::MAX));
        for bad in ["+7", "07", "-1", "", " 7", "18446744073709551616"] {
            assert_eq!(decimal(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn stray_names_are_not_keys() {
        let dir = std::env::temp_dir().join(format!("hmm-blob-test-keys-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let blobs = BlobDir::open(&dir, &[ENTRIES], DataClass::Derived, "store").unwrap();
        for name in ["0000000000000002", "0000000000000001", "+000000000000003", "README", "5"] {
            fs::write(dir.join("entries").join(name), b"x").unwrap();
        }
        assert_eq!(blobs.keys(ENTRIES), vec![1, 2]);
        let _ = fs::remove_dir_all(&dir);
    }
}
