//! Trace replay: feeding a recorded access stream back into the driver.
//!
//! The paper's methodology is trace-driven; [`crate::trace_io`] gives the
//! workspace the `HMT1` on-disk format, and this module gives it the
//! runtime half — a validated, content-addressed trace that the
//! simulation driver can stream exactly the way it streams a synthetic
//! [`TraceIter`]:
//!
//! * [`decode`] validates raw `HMT1` bytes into a [`TraceData`]: the
//!   bytes themselves, still encoded, plus a [`TraceSummary`] of the
//!   behaviour-relevant facts (content hash, record count, tick span,
//!   highest line address, read count). A registered trace therefore
//!   costs its file size in memory, not a decoded record array.
//! * A process-global registry ([`register`]/[`lookup`]/[`unregister`])
//!   maps content hashes to validated traces, so a `RunConfig` can name a
//!   trace by hash alone and stay `Copy`.
//! * [`ReplayIter`] decodes a registered trace as it streams it in
//!   driver-sized blocks, wrapping around with rebased ticks when the
//!   requested access count exceeds the trace length, and serializes its
//!   cursor (record position and lap offset) for snapshot/resume.
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

/// A validated trace: its summary and its `HMT1` bytes, kept encoded —
/// one copy, at the file's size — and decoded as it is replayed.
#[derive(Debug)]
pub struct TraceData {
    /// Behaviour-relevant facts (identity, counts, span).
    pub summary: TraceSummary,
    /// The `HMT1` bytes [`decode`] validated, magic included.
    bytes: Box<[u8]>,
}

impl TraceData {
    /// The validated `HMT1` bytes, exactly as decoded: what a peer needs
    /// to register the same trace under the same id.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
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
/// One pass validates every record and builds the summary; the result
/// keeps a copy of `bytes` and nothing else, so a decoded trace holds
/// `bytes.len()` bytes whatever the input.
pub fn decode(bytes: &[u8]) -> Result<TraceData, String> {
    let (mut records, mut last_tick, mut max_line, mut reads) = (0, 0, 0, 0);
    for rec in BinaryTraceReader::new(bytes) {
        let rec = rec.map_err(|e| e.to_string())?;
        records += 1;
        last_tick = rec.tick;
        max_line = max_line.max(rec.addr.0 >> 6);
        reads += u64::from(!rec.is_write);
    }
    if records == 0 {
        return Err("trace contains no records".into());
    }
    let summary = TraceSummary { hash: snap_hash(bytes), records, last_tick, max_line, reads };
    Ok(TraceData { summary, bytes: bytes.into() })
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

/// One LEB128 varint at `*at` of bytes [`decode`] validated, so it is
/// complete and at most ten bytes long.
#[inline(always)]
fn varint(bytes: &[u8], at: &mut usize) -> u64 {
    let mut byte = bytes[*at];
    *at += 1;
    let (mut v, mut shift) = (u64::from(byte & 0x7f), 7);
    while byte & 0x80 != 0 {
        byte = bytes[*at];
        *at += 1;
        v |= u64::from(byte & 0x7f) << shift;
        shift += 7;
    }
    v
}

/// The validated record at `*at`; `*tick` holds the previous record's
/// tick and advances to this one's.
#[inline(always)]
fn next_record(bytes: &[u8], at: &mut usize, tick: &mut u64) -> TraceRecord {
    *tick += varint(bytes, at);
    let line = varint(bytes, at);
    let flags = bytes[*at];
    *at += 1;
    TraceRecord {
        tick: *tick,
        cpu: flags & 0x7f,
        addr: PhysAddr(line << 6),
        is_write: flags & 0x80 != 0,
    }
}

/// Streaming cursor over a registered trace, with wrap-around.
///
/// It decodes the trace's bytes as it advances, so it carries the byte
/// offset of the next record and the running tick the deltas add to.
/// When the driver asks for more records than the trace holds, the
/// cursor wraps to the start and rebases ticks by `last_tick + 1`, so
/// the stream's timestamps stay strictly increasing across laps (the
/// controller's advance cadence requires monotone time).
#[derive(Debug, Clone)]
pub struct ReplayIter {
    data: Arc<TraceData>,
    /// Records of the current lap already streamed: the snapshot cursor.
    pos: usize,
    /// Byte offset of the next record within the trace's bytes.
    at: usize,
    /// Tick of the last record streamed in this lap (0 at a lap's start).
    tick: u64,
    /// Tick offset accumulated by completed laps.
    tick_base: u64,
}

impl ReplayIter {
    /// Start a cursor at the beginning of `data`.
    pub fn new(data: Arc<TraceData>) -> Self {
        Self { data, pos: 0, at: MAGIC.len(), tick: 0, tick_base: 0 }
    }

    /// Refill `out` with the next `n` records (same contract as
    /// [`TraceIter::next_block`]).
    pub fn next_block(&mut self, out: &mut Vec<TraceRecord>, n: usize) {
        out.clear();
        out.reserve(n);
        let bytes = self.data.bytes();
        let (mut pos, mut at, mut tick) = (self.pos, self.at, self.tick);
        for _ in 0..n {
            if at == bytes.len() {
                (pos, at, tick) = (0, MAGIC.len(), 0);
                self.tick_base += self.data.summary.last_tick + 1;
            }
            let mut rec = next_record(bytes, &mut at, &mut tick);
            rec.tick += self.tick_base;
            out.push(rec);
            pos += 1;
        }
        (self.pos, self.at, self.tick) = (pos, at, tick);
    }

    /// Serialize the cursor (snapshot/resume support): the record
    /// position within the lap and the lap's tick offset. The byte
    /// offset and running tick are rebuilt from the registered trace on
    /// resume, exactly as the synthetic generator rebuilds its patterns
    /// from the config.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.section(b"trcr");
        w.usize(self.pos);
        w.u64(self.tick_base);
        w.end_section();
    }

    /// Restore a cursor saved by [`ReplayIter::save_state`], re-seeking
    /// by decoding the lap's first `pos` records.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        r.section(b"trcr")?;
        let pos = r.usize()?;
        if pos as u64 > self.data.summary.records {
            return Err(format!(
                "replay cursor {pos} is past the trace's {} records",
                self.data.summary.records
            ));
        }
        let tick_base = r.u64()?;
        r.end_section()?;
        let bytes = self.data.bytes();
        let (mut at, mut tick) = (MAGIC.len(), 0);
        for _ in 0..pos {
            next_record(bytes, &mut at, &mut tick);
        }
        (self.pos, self.at, self.tick, self.tick_base) = (pos, at, tick, tick_base);
        Ok(())
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

    /// One lap of `data`, as the replay cursor decodes it.
    fn replayed(data: &Arc<TraceData>) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        ReplayIter::new(data.clone()).next_block(&mut out, data.summary.records as usize);
        out
    }

    /// `bytes` as the validating stream reader decodes them.
    fn read_back(bytes: &[u8]) -> Vec<TraceRecord> {
        BinaryTraceReader::new(bytes).collect::<std::io::Result<_>>().unwrap()
    }

    #[test]
    fn decode_builds_an_exact_summary() {
        let bytes = sample_bytes(2_000, 7);
        let data = decode(&bytes).unwrap();
        let records = read_back(&bytes);
        assert_eq!(data.bytes(), &bytes[..]);
        assert_eq!(data.summary.hash, snap_hash(&bytes));
        assert_eq!(data.summary.records, 2_000);
        assert_eq!(data.summary.last_tick, records.last().unwrap().tick);
        let max = records.iter().map(|r| r.addr.0 >> 6).max().unwrap();
        assert_eq!(data.summary.max_line, max);
        let reads = records.iter().filter(|r| !r.is_write).count() as u64;
        assert_eq!(data.summary.reads, reads);
        assert!(data.summary.footprint_bytes() > 0);
        assert!((0.0..=1.0).contains(&data.summary.read_fraction()));
    }

    /// The replay cursor's decoder reproduces every field of
    /// `write_binary` output, at the edges of each field's range.
    #[test]
    fn replay_decodes_every_field() {
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
        let data = Arc::new(decode(&bytes).unwrap());
        let got = replayed(&data);
        assert_eq!(got.len(), recs.len());
        for (want, got) in recs.iter().zip(got) {
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
    fn decode_rejects_lines_beyond_56_bits() {
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
        let full = replayed(&Arc::new(decode(&bytes).unwrap()));
        let mut boundaries = vec![MAGIC.len()];
        for n in 1..=recs.len() {
            let mut prefix = Vec::new();
            write_binary(&mut prefix, recs[..n].iter().copied()).unwrap();
            boundaries.push(prefix.len());
        }
        for cut in 0..bytes.len() {
            match boundaries.iter().position(|&b| b == cut) {
                Some(n) if n > 0 => {
                    let data = Arc::new(decode(&bytes[..cut]).unwrap());
                    assert_eq!(replayed(&data), full[..n], "cut {cut}");
                }
                _ => assert!(decode(&bytes[..cut]).is_err(), "cut {cut} decoded"),
            }
        }
    }

    /// A decoded trace holds `bytes.len()` bytes: the validated input
    /// and nothing else. Hostile input never panics: it fails with a
    /// diagnostic, or it validates, and then the replay cursor — which
    /// trusts validation — streams exactly what the stream reader reads.
    #[test]
    fn decoded_trace_holds_its_bytes_and_hostile_input_errs() {
        let bytes = sample_bytes(1_000, 29);
        let data = decode(&bytes).unwrap();
        assert_eq!(data.summary.records, 1_000);
        assert_eq!(data.bytes(), &bytes[..]);
        let check = |hostile: &[u8]| match decode(hostile) {
            Err(e) => assert!(!e.is_empty()),
            Ok(data) => {
                assert_eq!(data.bytes().len(), hostile.len());
                let data = Arc::new(data);
                assert_eq!(replayed(&data), read_back(hostile));
            }
        };
        let mut rng = hmm_sim_base::rng::SimRng::new(31);
        for len in 0..600 {
            let mut hostile = MAGIC.to_vec();
            hostile.extend((0..len).map(|_| rng.next_u64() as u8));
            check(&hostile);
        }
        for fill in [0x00, 0x01, 0x7f, 0x80, 0xff] {
            let hostile: Vec<u8> = MAGIC.iter().copied().chain([fill; 999]).collect();
            check(&hostile);
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

    /// A snapshot at every record position — the start, inside a lap,
    /// exactly `records` (a wrap due but not taken), and laps past a
    /// wrap — resumes into the uninterrupted stream; a cursor past the
    /// trace's end is refused.
    #[test]
    fn replay_cursor_resumes_from_every_position() {
        let bytes = sample_bytes(40, 13);
        let data = Arc::new(decode(&bytes).unwrap());
        let total = 130;
        let mut reference = Vec::new();
        ReplayIter::new(data.clone()).next_block(&mut reference, total);
        for cut in 0..=total {
            let mut it = ReplayIter::new(data.clone());
            let mut head = Vec::new();
            it.next_block(&mut head, cut);
            let mut w = SnapWriter::new();
            it.save_state(&mut w);
            let snap = w.into_bytes();

            let mut resumed = ReplayIter::new(data.clone());
            resumed.load_state(&mut SnapReader::new(&snap)).unwrap();
            let mut tail = Vec::new();
            resumed.next_block(&mut tail, total - cut);
            head.extend_from_slice(&tail);
            assert_eq!(head, reference, "snapshot after {cut} records");
        }

        let mut w = SnapWriter::new();
        w.section(b"trcr");
        w.usize(41);
        w.u64(0);
        w.end_section();
        let snap = w.into_bytes();
        let err = ReplayIter::new(data).load_state(&mut SnapReader::new(&snap)).unwrap_err();
        assert!(err.contains("past the trace's 40 records"), "{err}");
    }
}
