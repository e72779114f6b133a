//! Byte-level primitives for deterministic state snapshots.
//!
//! A snapshot serializes the *dynamic* state of a component; immutable
//! configuration (device profiles, timing tables, workload structure) is
//! rebuilt from the run configuration on load. Each component writes one
//! tagged, length-prefixed section, so a reader can verify it consumed
//! exactly the bytes the writer produced — a mismatch is detected at the
//! section boundary instead of corrupting every field after it.
//!
//! Encoding is fixed-width little-endian throughout: the same state
//! always produces the same bytes, which is what makes a snapshot's
//! checksum a canonical content hash.

/// Snapshot (de)serialization error: a human-readable description of the
/// first inconsistency found. Snapshots are validated data, not trusted
/// data — every length is bounds-checked before use so a torn or
/// corrupted file fails cleanly instead of panicking or allocating wildly.
pub type SnapResult<T> = Result<T, String>;

/// FNV-style mixing used for snapshot checksums: the workspace `FxHasher`
/// folded through a SplitMix64 finalizer so single-bit corruption
/// avalanches through the digest.
pub fn snap_hash(bytes: &[u8]) -> u64 {
    use crate::fxhash::FxHasher;
    use std::hash::Hasher;
    let mut h = FxHasher::default();
    h.write(bytes);
    let mut z = h.finish().wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Append-only snapshot encoder.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
    /// Patch positions of open sections (length placeholders).
    open: Vec<usize>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish, returning the encoded bytes. Panics if a section is still
    /// open (a serializer bug, not a runtime condition).
    pub fn into_bytes(self) -> Vec<u8> {
        assert!(self.open.is_empty(), "unclosed snapshot section");
        self.buf
    }

    /// Write a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u128.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a usize as u64 (platform-independent encoding).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write an f64 by bit pattern (exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Write a length-prefixed sequence via `f` per element.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.u64(items.len() as u64);
        for it in items {
            f(self, it);
        }
    }

    /// Write a slice of u64s.
    pub fn u64s(&mut self, items: &[u64]) {
        self.seq(items, |w, &v| w.u64(v));
    }

    /// Open a tagged, length-prefixed section. Must be balanced by
    /// [`SnapWriter::end_section`].
    pub fn section(&mut self, tag: &[u8; 4]) {
        self.buf.extend_from_slice(tag);
        self.open.push(self.buf.len());
        self.u32(0); // length placeholder
    }

    /// Close the innermost open section, patching its length.
    pub fn end_section(&mut self) {
        let mark = self.open.pop().expect("end_section without section");
        let len = (self.buf.len() - mark - 4) as u32;
        self.buf[mark..mark + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Splice `other`'s bytes onto the end of this writer, leaving `other`
    /// empty with its allocation kept for reuse (as `Vec::append` does).
    /// A closed section carries its own length, so sections written into
    /// `other` and appended here are byte-identical to the same calls
    /// made on this writer, inside any section this writer has open.
    /// Panics if `other` still has a section open.
    pub fn append(&mut self, other: &mut SnapWriter) {
        assert!(other.open.is_empty(), "unclosed snapshot section");
        self.buf.append(&mut other.buf);
    }

    /// Discard everything written, open sections included, keeping the
    /// allocations: writing the same state again allocates nothing.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.open.clear();
    }
}

/// Bounds-checked snapshot decoder over a byte slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// End offsets of open sections (innermost last).
    open: Vec<usize>,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0, open: Vec::new() }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Verify every byte was consumed.
    pub fn finish(self) -> SnapResult<()> {
        if self.pos != self.buf.len() {
            return Err(format!("{} trailing bytes after snapshot payload", self.remaining()));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> SnapResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(format!("snapshot truncated: need {n} bytes, have {}", self.remaining()));
        }
        if let Some(&end) = self.open.last() {
            if self.pos + n > end {
                return Err("snapshot section overrun".into());
            }
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> SnapResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool (must be 0 or 1).
    pub fn bool(&mut self) -> SnapResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("invalid bool byte {v:#x}")),
        }
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> SnapResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> SnapResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian u128.
    pub fn u128(&mut self) -> SnapResult<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Read a usize (encoded as u64; must fit).
    pub fn usize(&mut self) -> SnapResult<usize> {
        usize::try_from(self.u64()?).map_err(|_| "usize overflow in snapshot".to_string())
    }

    /// Read an f64 by bit pattern.
    pub fn f64(&mut self) -> SnapResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> SnapResult<&'a [u8]> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> SnapResult<String> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| "invalid UTF-8 string".to_string())
    }

    /// Read a sequence length, bounds-checked against the remaining bytes
    /// (each element costs at least `min_elem_bytes`), so a corrupted
    /// length cannot trigger a huge allocation.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> SnapResult<usize> {
        let n = self.usize()?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(format!("sequence length {n} exceeds remaining snapshot bytes"));
        }
        Ok(n)
    }

    /// Read a length-prefixed sequence via `f` per element.
    pub fn seq<T>(&mut self, mut f: impl FnMut(&mut Self) -> SnapResult<T>) -> SnapResult<Vec<T>> {
        let n = self.seq_len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Read a sequence of u64s.
    pub fn u64s(&mut self) -> SnapResult<Vec<u64>> {
        let n = self.seq_len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// Enter a tagged section, verifying the tag. Must be balanced by
    /// [`SnapReader::end_section`].
    pub fn section(&mut self, tag: &[u8; 4]) -> SnapResult<()> {
        let got = self.take(4)?;
        if got != tag {
            return Err(format!(
                "snapshot section mismatch: expected {:?}, found {:?}",
                String::from_utf8_lossy(tag),
                String::from_utf8_lossy(got)
            ));
        }
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(format!("section {:?} overruns snapshot", String::from_utf8_lossy(tag)));
        }
        self.open.push(self.pos + len);
        Ok(())
    }

    /// Leave the innermost section, verifying it was consumed exactly.
    pub fn end_section(&mut self) -> SnapResult<()> {
        let end = self.open.pop().ok_or("end_section without section")?;
        if self.pos != end {
            return Err(format!("section under-read: {} bytes left", end - self.pos));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_sections() {
        let mut w = SnapWriter::new();
        w.section(b"test");
        w.u8(7);
        w.bool(true);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.u128(u128::MAX - 9);
        w.f64(0.125);
        w.str("hello");
        w.u64s(&[1, 2, 3]);
        w.end_section();
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        r.section(b"test").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.u128().unwrap(), u128::MAX - 9);
        assert_eq!(r.f64().unwrap(), 0.125);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.u64s().unwrap(), vec![1, 2, 3]);
        r.end_section().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn appended_sections_equal_the_same_calls_on_one_writer() {
        // Nested sections, spliced in twice through one reused writer
        // (the second time inside a section the target has open).
        fn inner(w: &mut SnapWriter, v: u64) {
            w.section(b"outr");
            w.u64(v);
            w.section(b"innr");
            w.str("nested");
            w.u64s(&[v, v + 1]);
            w.end_section();
            w.bool(true);
            w.end_section();
        }
        let mut one = SnapWriter::new();
        one.u32(9);
        inner(&mut one, 1);
        one.section(b"wrap");
        inner(&mut one, 2);
        one.end_section();

        let (mut spliced, mut part) = (SnapWriter::new(), SnapWriter::new());
        spliced.u32(9);
        inner(&mut part, 1);
        spliced.append(&mut part);
        assert!(part.is_empty(), "append leaves the source empty");
        let kept = part.buf.capacity();
        spliced.section(b"wrap");
        inner(&mut part, 2);
        assert_eq!(part.buf.capacity(), kept, "the emptied source reuses its allocation");
        spliced.append(&mut part);
        spliced.end_section();

        assert_eq!(spliced.into_bytes(), one.into_bytes());
    }

    #[test]
    #[should_panic(expected = "unclosed snapshot section")]
    fn appending_an_open_section_panics() {
        let mut part = SnapWriter::new();
        part.section(b"open");
        SnapWriter::new().append(&mut part);
    }

    #[test]
    fn cleared_writer_rewrites_without_growing() {
        let write = |w: &mut SnapWriter, v: u64| {
            w.section(b"outr");
            w.section(b"innr");
            w.u64s(&[v, v + 1]);
            w.end_section();
            w.end_section();
        };
        let mut w = SnapWriter::new();
        write(&mut w, 1);
        w.section(b"left");
        w.clear();
        assert!(w.is_empty());
        let kept = (w.buf.capacity(), w.open.capacity());
        write(&mut w, 2);
        assert_eq!((w.buf.capacity(), w.open.capacity()), kept);
        let mut fresh = SnapWriter::new();
        write(&mut fresh, 2);
        assert_eq!(w.into_bytes(), fresh.into_bytes());
    }

    #[test]
    fn wrong_tag_rejected() {
        let mut w = SnapWriter::new();
        w.section(b"aaaa");
        w.u64(1);
        w.end_section();
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.section(b"bbbb").is_err());
    }

    #[test]
    fn under_read_section_rejected() {
        let mut w = SnapWriter::new();
        w.section(b"aaaa");
        w.u64(1);
        w.u64(2);
        w.end_section();
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.section(b"aaaa").unwrap();
        r.u64().unwrap();
        assert!(r.end_section().is_err(), "8 unread bytes must be detected");
    }

    #[test]
    fn truncation_rejected_without_panic() {
        let mut w = SnapWriter::new();
        w.section(b"aaaa");
        w.u64s(&[1, 2, 3, 4]);
        w.end_section();
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            let res = r.section(b"aaaa").and_then(|()| r.u64s().map(|_| ()));
            assert!(res.is_err(), "prefix of {cut} bytes must fail cleanly");
        }
    }

    #[test]
    fn corrupt_length_cannot_allocate_wildly() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX / 2); // absurd sequence length
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.u64s().is_err());
    }

    #[test]
    fn snap_hash_avalanches() {
        let a = snap_hash(b"snapshot payload");
        let b = snap_hash(b"snapshot payloae");
        assert_ne!(a, b);
        assert_ne!(a & 0xffff_ffff, b & 0xffff_ffff, "low bits must differ too");
    }
}
