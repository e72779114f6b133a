//! Trace replay: feeding a recorded access stream back into the driver.
//!
//! The paper's methodology is trace-driven; [`crate::trace_io`] gives the
//! workspace the `HMT1` on-disk format, and this module gives it the
//! runtime half — a decoded, content-addressed trace that the simulation
//! driver can stream exactly the way it streams a synthetic
//! [`TraceIter`]:
//!
//! * [`decode`] validates raw `HMT1` bytes into a [`TraceData`] (records
//!   plus a [`TraceSummary`] of the behaviour-relevant facts: content
//!   hash, record count, tick span, highest line address, read count).
//! * A process-global registry ([`register`]/[`lookup`]/[`unregister`])
//!   maps content hashes to decoded traces, so a `RunConfig` can name a
//!   trace by hash alone and stay `Copy`.
//! * [`ReplayIter`] streams a registered trace in driver-sized blocks,
//!   wrapping around with rebased ticks when the requested access count
//!   exceeds the trace length, and serializes its cursor for
//!   snapshot/resume.
//! * [`TraceSource`] unifies the synthetic and replay paths behind the
//!   one interface the driver loop uses (`next_block` +
//!   `save_state`/`load_state`); the synthetic arm delegates verbatim so
//!   existing snapshots stay byte-identical.

use crate::trace::{TraceIter, TraceRecord};
use crate::trace_io::{BinaryTraceReader, MAGIC};
use hmm_sim_base::addr::PhysAddr;
use hmm_sim_base::snap::{snap_hash, SnapReader, SnapResult, SnapWriter};
use hmm_sim_base::FxHashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The behaviour-relevant facts about a decoded trace. Everything the
/// canonical wire form and the run geometry need — nothing more — so two
/// uploads of the same bytes always agree field-for-field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Content hash (`snap_hash`) of the raw `HMT1` bytes; the trace's
    /// identity everywhere (registry key, wire id, cache-key input).
    pub hash: u64,
    /// Number of records.
    pub records: u64,
    /// Timestamp of the last record (ticks are non-decreasing).
    pub last_tick: u64,
    /// Highest line address (`addr >> 6`) in the trace; the footprint is
    /// `(max_line + 1) << 6`.
    pub max_line: u64,
    /// Number of read records (the rest are writes).
    pub reads: u64,
}

impl TraceSummary {
    /// The canonical 16-hex-digit spelling of the trace id.
    pub fn id(&self) -> String {
        format!("{:016x}", self.hash)
    }

    /// Program-visible footprint implied by the trace's addresses.
    pub fn footprint_bytes(&self) -> u64 {
        (self.max_line + 1) << 6
    }

    /// Fraction of records that are reads.
    pub fn read_fraction(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.reads as f64 / self.records as f64
        }
    }
}

/// A decoded trace: the summary plus the records themselves.
#[derive(Debug)]
pub struct TraceData {
    /// Behaviour-relevant facts (identity, counts, span).
    pub summary: TraceSummary,
    /// The decoded records, in file order, 16 bytes each.
    records: Vec<PackedRecord>,
}

impl TraceData {
    /// The decoded records, in file order.
    pub fn records(&self) -> impl ExactSizeIterator<Item = TraceRecord> + '_ {
        self.records.iter().map(|p| p.unpack())
    }
}

/// One decoded record in 16 bytes instead of a `TraceRecord`'s 24: the
/// tick, and the line address above the `HMT1` flags byte
/// (`line << 8 | write << 7 | cpu`). Lossless, because decoding refuses
/// lines above [`MAX_LINE`](crate::trace_io::MAX_LINE) and a decoded
/// address is always `line << 6`.
#[derive(Debug, Clone, Copy)]
struct PackedRecord {
    tick: u64,
    line_flags: u64,
}

impl PackedRecord {
    fn pack(r: &TraceRecord) -> Self {
        let flags = u64::from(r.cpu & 0x7f) | if r.is_write { 0x80 } else { 0 };
        Self { tick: r.tick, line_flags: (r.addr.0 >> 6) << 8 | flags }
    }

    #[inline]
    fn unpack(self) -> TraceRecord {
        TraceRecord {
            tick: self.tick,
            cpu: (self.line_flags & 0x7f) as u8,
            addr: PhysAddr((self.line_flags >> 8) << 6),
            is_write: self.line_flags & 0x80 != 0,
        }
    }
}

/// Parse a 16-hex-digit trace id back to its hash.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Decode and validate raw `HMT1` bytes. Errors carry the underlying
/// format diagnostic ("not an HMT1 trace", "truncated varint", ...).
///
/// The records are counted first, so the one allocation is made at its
/// final size — never more than `bytes.len() / 3` records, whatever the
/// input — instead of growing by doubling.
pub fn decode(bytes: &[u8]) -> Result<TraceData, String> {
    let mut records = Vec::with_capacity(count_records(bytes));
    let (mut max_line, mut reads) = (0u64, 0u64);
    for rec in BinaryTraceReader::new(bytes) {
        let rec = rec.map_err(|e| e.to_string())?;
        max_line = max_line.max(rec.addr.0 >> 6);
        reads += u64::from(!rec.is_write);
        records.push(PackedRecord::pack(&rec));
    }
    let Some(last) = records.last() else {
        return Err("trace contains no records".into());
    };
    let summary = TraceSummary {
        hash: snap_hash(bytes),
        records: records.len() as u64,
        last_tick: last.tick,
        max_line,
        reads,
    };
    Ok(TraceData { summary, records })
}

/// The records in `HMT1` bytes, counted from their framing without
/// decoding them: each record is two varints and a flags byte. Exact for
/// a well-formed trace; for any input at most `bytes.len() / 3`, since a
/// counted record spans at least three bytes.
fn count_records(bytes: &[u8]) -> usize {
    let body = bytes.get(MAGIC.len()..).unwrap_or_default();
    let (mut records, mut at) = (0, 0);
    loop {
        for _varint in 0..2 {
            while body.get(at).is_some_and(|b| b & 0x80 != 0) {
                at += 1;
            }
            at += 1;
        }
        at += 1; // flags
        if at > body.len() {
            return records;
        }
        records += 1;
    }
}

fn registry() -> &'static Mutex<FxHashMap<u64, Arc<TraceData>>> {
    static REGISTRY: OnceLock<Mutex<FxHashMap<u64, Arc<TraceData>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(FxHashMap::default()))
}

/// Make a decoded trace available for replay by hash. Idempotent: the
/// content hash is the key, so re-registering the same trace is a no-op
/// — the copy already registered, which running replays may hold, stays,
/// and `data` is dropped rather than kept resident beside it.
pub fn register(data: Arc<TraceData>) {
    registry().lock().unwrap().entry(data.summary.hash).or_insert(data);
}

/// Look up a registered trace by content hash.
pub fn lookup(hash: u64) -> Option<Arc<TraceData>> {
    registry().lock().unwrap().get(&hash).cloned()
}

/// Summary of a registered trace, if present.
pub fn summary(hash: u64) -> Option<TraceSummary> {
    registry().lock().unwrap().get(&hash).map(|d| d.summary)
}

/// Remove a trace from the replay registry. Runs already holding an
/// `Arc` to the data are unaffected.
pub fn unregister(hash: u64) {
    registry().lock().unwrap().remove(&hash);
}

/// Streaming cursor over a registered trace, with wrap-around.
///
/// When the driver asks for more records than the trace holds, the
/// cursor wraps to the start and rebases ticks by `last_tick + 1`, so
/// the stream's timestamps stay strictly increasing across laps (the
/// controller's advance cadence requires monotone time).
#[derive(Debug, Clone)]
pub struct ReplayIter {
    data: Arc<TraceData>,
    /// Next record index within the trace.
    pos: usize,
    /// Tick offset accumulated by completed laps.
    tick_base: u64,
}

impl ReplayIter {
    /// Start a cursor at the beginning of `data`.
    pub fn new(data: Arc<TraceData>) -> Self {
        Self { data, pos: 0, tick_base: 0 }
    }

    /// Refill `out` with the next `n` records (same contract as
    /// [`TraceIter::next_block`]).
    pub fn next_block(&mut self, out: &mut Vec<TraceRecord>, n: usize) {
        out.clear();
        out.reserve(n);
        let recs = &self.data.records;
        for _ in 0..n {
            if self.pos == recs.len() {
                self.pos = 0;
                self.tick_base += self.data.summary.last_tick + 1;
            }
            let mut rec = recs[self.pos].unpack();
            rec.tick += self.tick_base;
            out.push(rec);
            self.pos += 1;
        }
    }

    /// Serialize the cursor (snapshot/resume support). The records are
    /// rebuilt from the registered trace on resume, exactly as the
    /// synthetic generator rebuilds its patterns from the config.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.section(b"trcr");
        w.usize(self.pos);
        w.u64(self.tick_base);
        w.end_section();
    }

    /// Restore a cursor saved by [`ReplayIter::save_state`].
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        r.section(b"trcr")?;
        let pos = r.usize()?;
        if pos > self.data.records.len() {
            return Err(format!(
                "replay cursor {pos} is past the trace's {} records",
                self.data.records.len()
            ));
        }
        self.pos = pos;
        self.tick_base = r.u64()?;
        r.end_section()
    }
}

/// The driver's record source: a synthetic generator or a replay cursor.
///
/// Both arms share the `next_block` contract, and `save_state` delegates
/// verbatim — the synthetic arm writes exactly the bytes [`TraceIter`]
/// always wrote (`trce` section), so pre-existing snapshots keep their
/// byte-identical layout; replay snapshots use their own `trcr` section.
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// Records generated by the synthetic workload catalog.
    Synthetic(TraceIter),
    /// Records replayed from a registered trace.
    Replay(ReplayIter),
}

impl TraceSource {
    /// Refill `out` with the next `n` records.
    pub fn next_block(&mut self, out: &mut Vec<TraceRecord>, n: usize) {
        match self {
            TraceSource::Synthetic(it) => it.next_block(out, n),
            TraceSource::Replay(it) => it.next_block(out, n),
        }
    }

    /// Serialize the source's dynamic state.
    pub fn save_state(&self, w: &mut SnapWriter) {
        match self {
            TraceSource::Synthetic(it) => it.save_state(w),
            TraceSource::Replay(it) => it.save_state(w),
        }
    }

    /// Restore state saved by [`TraceSource::save_state`] onto a freshly
    /// built source over the same workload or trace.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        match self {
            TraceSource::Synthetic(it) => it.load_state(r),
            TraceSource::Replay(it) => it.load_state(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{workload, WorkloadId};
    use crate::trace_io::{write_binary, MAX_LINE};
    use hmm_sim_base::config::SimScale;

    fn sample_bytes(n: usize, seed: u64) -> Vec<u8> {
        let recs = workload(WorkloadId::Pgbench, &SimScale { divisor: 256 }).records(seed, n);
        let mut buf = Vec::new();
        write_binary(&mut buf, recs).unwrap();
        buf
    }

    #[test]
    fn decode_builds_an_exact_summary() {
        let bytes = sample_bytes(2_000, 7);
        let data = decode(&bytes).unwrap();
        assert_eq!(data.summary.hash, snap_hash(&bytes));
        assert_eq!(data.summary.records, 2_000);
        assert_eq!(data.summary.last_tick, data.records().last().unwrap().tick);
        let max = data.records().map(|r| r.addr.0 >> 6).max().unwrap();
        assert_eq!(data.summary.max_line, max);
        let reads = data.records().filter(|r| !r.is_write).count() as u64;
        assert_eq!(data.summary.reads, reads);
        assert!(data.summary.footprint_bytes() > 0);
        assert!((0.0..=1.0).contains(&data.summary.read_fraction()));
    }

    /// Every field of `write_binary` output survives the 16-byte packed
    /// form, at the edges of each field's range.
    #[test]
    fn decode_round_trips_every_field() {
        let mut recs = workload(WorkloadId::Pgbench, &SimScale { divisor: 256 }).records(17, 500);
        let mut tick = recs.last().unwrap().tick;
        for (cpu, line, is_write) in
            [(0, 0, false), (127, MAX_LINE, true), (64, MAX_LINE >> 1, false), (1, 1, true)]
        {
            tick += 1 << 40;
            recs.push(TraceRecord { tick, cpu, addr: PhysAddr(line << 6 | 63), is_write });
        }
        let mut bytes = Vec::new();
        write_binary(&mut bytes, recs.iter().copied()).unwrap();
        let data = decode(&bytes).unwrap();
        assert_eq!(data.records().len(), recs.len());
        for (want, got) in recs.iter().zip(data.records()) {
            // The format stores line addresses; everything else is exact.
            let line_addr = PhysAddr(want.addr.0 & !63);
            assert_eq!(got, TraceRecord { addr: line_addr, ..*want });
        }
        assert_eq!(data.summary.max_line, MAX_LINE);
    }

    #[test]
    fn decode_rejects_bad_inputs() {
        assert!(decode(b"NOPE").unwrap_err().contains("not an HMT1 trace"));
        assert!(decode(b"HMT1").unwrap_err().contains("no records"));
        let mut bytes = sample_bytes(50, 1);
        bytes.truncate(bytes.len() - 1);
        assert!(decode(&bytes).is_err());
    }

    fn varint(mut v: u64, out: &mut Vec<u8>) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    /// One hand-encoded record after the magic.
    fn crafted(delta: u64, line: u64) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        varint(delta, &mut bytes);
        varint(line, &mut bytes);
        bytes.push(0);
        bytes
    }

    #[test]
    fn decode_rejects_lines_beyond_the_packed_form() {
        assert!(decode(&crafted(0, MAX_LINE)).is_ok());
        for line in [MAX_LINE + 1, 1 << 58, u64::MAX] {
            let err = decode(&crafted(0, line)).unwrap_err();
            assert!(err.contains("56-bit"), "line {line:#x}: {err}");
        }
        // Ticks that would wrap are refused too, not wrapped (or, in a
        // debug build, panicked on).
        let mut bytes = crafted(u64::MAX, 1);
        bytes.extend_from_slice(&crafted(1, 1)[MAGIC.len()..]);
        assert!(decode(&bytes).unwrap_err().contains("tick"));
    }

    /// A trace cut at any byte either fails with an error or — cut
    /// exactly between records, where `HMT1` has no end marker — decodes
    /// to exactly the records before the cut. It never panics.
    #[test]
    fn every_truncation_errs_or_decodes_a_whole_prefix() {
        let recs = workload(WorkloadId::Pgbench, &SimScale { divisor: 256 }).records(23, 60);
        let mut bytes = Vec::new();
        write_binary(&mut bytes, recs.iter().copied()).unwrap();
        let full: Vec<TraceRecord> = decode(&bytes).unwrap().records().collect();
        let mut boundaries = vec![MAGIC.len()];
        for n in 1..=recs.len() {
            let mut prefix = Vec::new();
            write_binary(&mut prefix, recs[..n].iter().copied()).unwrap();
            boundaries.push(prefix.len());
        }
        for cut in 0..bytes.len() {
            match boundaries.iter().position(|&b| b == cut) {
                Some(n) if n > 0 => {
                    let data = decode(&bytes[..cut]).unwrap();
                    assert!(data.records().eq(full[..n].iter().copied()), "cut {cut}");
                }
                _ => assert!(decode(&bytes[..cut]).is_err(), "cut {cut} decoded"),
            }
        }
    }

    /// The count pass sizes the one allocation; on any input it stays
    /// within a third of the byte count.
    #[test]
    fn record_count_is_exact_and_bounded_by_a_third_of_the_bytes() {
        let bytes = sample_bytes(1_000, 29);
        assert_eq!(count_records(&bytes), 1_000);
        assert!(decode(&bytes).unwrap().records.capacity() <= bytes.len() / 3);
        let mut rng = hmm_sim_base::rng::SimRng::new(31);
        for len in 0..600 {
            let mut hostile = MAGIC.to_vec();
            hostile.extend((0..len).map(|_| rng.next_u64() as u8));
            assert!(count_records(&hostile) <= hostile.len() / 3, "len {len}");
            let _ = decode(&hostile);
        }
        for fill in [0x00, 0x01, 0x7f, 0x80, 0xff] {
            let hostile: Vec<u8> = MAGIC.iter().copied().chain([fill; 999]).collect();
            assert!(count_records(&hostile) <= hostile.len() / 3, "fill {fill:#x}");
        }
    }

    #[test]
    fn register_keeps_the_first_copy() {
        let bytes = sample_bytes(80, 37);
        let first = Arc::new(decode(&bytes).unwrap());
        let hash = first.summary.hash;
        register(first.clone());
        register(Arc::new(decode(&bytes).unwrap()));
        assert!(Arc::ptr_eq(&lookup(hash).unwrap(), &first));
        unregister(hash);
    }

    #[test]
    fn trace_id_round_trips() {
        let bytes = sample_bytes(100, 3);
        let s = decode(&bytes).unwrap().summary;
        assert_eq!(parse_trace_id(&s.id()), Some(s.hash));
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_trace_id("0123456789abcde"), None, "15 digits");
        assert_eq!(parse_trace_id("0123456789abcdef"), Some(0x0123456789abcdef));
    }

    #[test]
    fn registry_round_trips_and_unregisters() {
        let bytes = sample_bytes(64, 9);
        let data = Arc::new(decode(&bytes).unwrap());
        let hash = data.summary.hash;
        register(data.clone());
        assert_eq!(summary(hash), Some(data.summary));
        assert_eq!(lookup(hash).unwrap().summary, data.summary);
        unregister(hash);
        assert!(lookup(hash).is_none());
    }

    #[test]
    fn replay_wraps_with_strictly_increasing_ticks() {
        let bytes = sample_bytes(100, 5);
        let data = Arc::new(decode(&bytes).unwrap());
        let mut it = ReplayIter::new(data.clone());
        let mut block = Vec::new();
        it.next_block(&mut block, 350);
        assert_eq!(block.len(), 350);
        for w in block.windows(2) {
            assert!(w[1].tick > w[0].tick, "{} then {}", w[0].tick, w[1].tick);
        }
        // Lap 2 replays the same addresses.
        assert_eq!(block[100].addr, block[0].addr);
        assert_eq!(block[100].is_write, block[0].is_write);
    }

    #[test]
    fn replay_blocks_are_partition_invariant() {
        let bytes = sample_bytes(300, 11);
        let data = Arc::new(decode(&bytes).unwrap());
        let mut reference = Vec::new();
        ReplayIter::new(data.clone()).next_block(&mut reference, 1_000);
        for block_size in [1usize, 7, 64, 300, 999] {
            let mut it = ReplayIter::new(data.clone());
            let mut got = Vec::new();
            let mut block = Vec::new();
            while got.len() < reference.len() {
                let n = block_size.min(reference.len() - got.len());
                it.next_block(&mut block, n);
                got.extend_from_slice(&block);
            }
            assert_eq!(got, reference, "block size {block_size}");
        }
    }

    #[test]
    fn replay_cursor_snapshots_and_resumes() {
        let bytes = sample_bytes(120, 13);
        let data = Arc::new(decode(&bytes).unwrap());
        let mut reference = Vec::new();
        ReplayIter::new(data.clone()).next_block(&mut reference, 400);

        let mut it = ReplayIter::new(data.clone());
        let mut head = Vec::new();
        it.next_block(&mut head, 250);
        let mut w = SnapWriter::new();
        it.save_state(&mut w);
        let snap = w.into_bytes();

        let mut resumed = ReplayIter::new(data);
        let mut r = SnapReader::new(&snap);
        resumed.load_state(&mut r).unwrap();
        let mut tail = Vec::new();
        resumed.next_block(&mut tail, 150);
        head.extend_from_slice(&tail);
        assert_eq!(head, reference);
    }
}
