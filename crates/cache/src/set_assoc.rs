//! A generic set-associative, write-back/write-allocate cache with true
//! LRU replacement (each set ranks its ways by recency).
//!
//! The tag store is one set-major array of blocks. A set's block is its A
//! tag words (`tag << 2 | dirty << 1 | valid`) followed by one
//! replacement word holding a 4-bit recency rank per way, so a way costs
//! 8.5 bytes and one probe reads one block. The L4's 15-way set is
//! exactly 16 words, two 64-byte lines, and the store starts on a 64-byte
//! boundary, so a probe touches those two lines and nothing else: at the
//! benchmark's 1/8 scale the L4 store is 65,536 × 128 B = 8 MiB. A tag
//! store this size is what a multi-gigabyte tags-in-DRAM cache costs the
//! simulator, so the layout matters at the L4's million-way scale. The
//! paper's clock-based pseudo-LRU belongs to on-package slot tracking,
//! not to these caches; it lives in `hmm_core::monitor`.
//!
//! Ranks: rank 0 is the most recently touched way. Touching a way of rank
//! r adds one to every rank below r and zeroes its own, and a full set's
//! victim is the way of rank A − 1. Lanes past A hold 0xF, which no rank
//! is below, so a touch never changes them. An all-zero word means the
//! set was never touched and reads as ranks 0..A in way order; fills of a
//! set with an invalid way take the first invalid way in that same order,
//! so the ranks always order the valid ways by their last touch. A fresh
//! store is therefore one zeroed allocation that set-up never writes.

use hmm_sim_base::addr::LineAddr;
use hmm_sim_base::snap::{SnapReader, SnapResult, SnapWriter};

/// Valid bit of a way's tag word.
const VALID: u64 = 1;
/// Dirty bit of a way's tag word.
const DIRTY: u64 = 2;
/// Most ways a set's replacement word ranks: 16 lanes of 4 bits.
const MAX_WAYS: u32 = 16;
/// Bytes the store's first block is aligned to (a host cache line).
const STORE_ALIGN: usize = 64;
/// One in every 4-bit lane.
const NIBBLES: u64 = 0x1111_1111_1111_1111;
/// One in every byte.
const BYTE_ONES: u64 = 0x0101_0101_0101_0101;
/// The low nibble of every byte.
const LOW_NIBBLES: u64 = 0x0F0F_0F0F_0F0F_0F0F;
/// Bit 4 of every byte.
const BYTE_BIT4: u64 = 0x1010_1010_1010_1010;

/// Static shape of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Ways per set, at most 16.
    pub associativity: u32,
    /// Line size in bytes (64 throughout the paper).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Convenience constructor with 64 B lines.
    pub fn new(capacity_bytes: u64, associativity: u32) -> Self {
        Self { capacity_bytes, associativity, line_bytes: 64 }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (self.associativity as u64 * self.line_bytes as u64)
    }

    /// Validate shape invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity_bytes == 0 || self.associativity == 0 || self.line_bytes == 0 {
            return Err("cache dimensions must be non-zero".into());
        }
        if self.associativity > MAX_WAYS {
            return Err(format!(
                "associativity must be at most {MAX_WAYS} (4-bit recency ranks), got {}",
                self.associativity
            ));
        }
        if !self.line_bytes.is_power_of_two() {
            return Err("line size must be a power of two".into());
        }
        // A block number is a byte address over the line size, so lines
        // of 4 bytes or more keep every tag within the word's 62 bits.
        if self.line_bytes < 4 {
            return Err("line size must be at least 4 bytes".into());
        }
        let sets = self.sets();
        if sets == 0 {
            return Err("capacity must hold at least one full set".into());
        }
        if !sets.is_power_of_two() {
            return Err(format!("set count must be a power of two, got {sets}"));
        }
        Ok(())
    }
}

/// Counters maintained by every cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups performed.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Valid lines evicted to make room.
    pub evictions: u64,
    /// Dirty lines evicted (candidate write-backs).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss rate in `[0, 1]`; 0 when no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The evicted line's address.
    pub line: LineAddr,
    /// Whether it was dirty (needs a write-back).
    pub dirty: bool,
}

/// Result of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; it has been allocated, possibly evicting a
    /// victim.
    Miss(Option<Victim>),
}

impl AccessOutcome {
    /// True for [`AccessOutcome::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// The replacement word of a set never touched, read as ranks 0..`ways`
/// in way order (lanes past `ways` at 0xF).
fn untouched_ranks(ways: usize) -> u64 {
    (0..16).fold(0, |word, lane| word | (if lane < ways { lane as u64 } else { 0xF }) << (4 * lane))
}

/// The ranks after touching `way`: every rank below its rank `r` gains
/// one, and its own becomes 0.
#[inline]
fn touch(ranks: u64, way: usize) -> u64 {
    let r = ranks >> (4 * way) & 0xF;
    // One rank per byte: bit 4 of `(x | 16) - r` is clear exactly when
    // x < r, and no byte borrows from the next.
    let below = |x: u64| x + ((!((x | BYTE_BIT4) - r * BYTE_ONES) & BYTE_BIT4) >> 4);
    let ranks = below(ranks & LOW_NIBBLES) | below(ranks >> 4 & LOW_NIBBLES) << 4;
    ranks & !(0xF << (4 * way))
}

/// The way holding rank `r`: the lowest lane equal to `r`. The
/// zero-nibble test below flags its lowest zero lane exactly, which is
/// the one taken.
#[inline]
fn way_of_rank(ranks: u64, r: u64) -> usize {
    let x = ranks ^ (r * NIBBLES);
    let zero = x.wrapping_sub(NIBBLES) & !x & NIBBLES << 3;
    (zero.trailing_zeros() / 4) as usize
}

/// Whether `ranks` is a replacement word a set can hold: 0 (never
/// touched), or a permutation of ranks 0..`ways` over the first `ways`
/// lanes with 0xF in every lane past them.
fn ranks_are_valid(ranks: u64, ways: usize) -> bool {
    if ranks == 0 {
        return true;
    }
    let mut seen = 0u32;
    for lane in 0..16 {
        let r = ranks >> (4 * lane) & 0xF;
        if lane < ways {
            seen |= 1 << r;
        } else if r != 0xF {
            return false;
        }
    }
    seen == (1 << ways) - 1
}

/// The cache proper.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// The set-major blocks, from word `base` on: each set's A tag words
    /// (`tag << 2 | dirty << 1 | valid`; invalidation clears both flags and
    /// keeps the tag bits), then its replacement word. One zeroed
    /// allocation with room to start the blocks on a 64-byte boundary.
    store: Vec<u64>,
    /// Word of `store` the first block starts at. Any offset is correct;
    /// this one aligns the blocks in the allocation `new` made (a clone
    /// keeps the offset, not necessarily the alignment).
    base: usize,
    /// Words per block: the associativity plus the replacement word.
    stride: usize,
    /// The recency ranks a zero replacement word stands for.
    untouched: u64,
    set_mask: u64,
    set_bits: u32,
    line_shift: u32,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build an empty cache. Panics on invalid configuration (a programming
    /// error, not a runtime condition).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid cache configuration");
        let sets = cfg.sets();
        let ways = cfg.associativity as usize;
        let stride = ways + 1;
        // `vec![0; n]` is one zeroed allocation the OS maps lazily; the 7
        // spare words let the blocks start on a 64-byte boundary.
        let store = vec![0; sets as usize * stride + STORE_ALIGN / 8 - 1];
        let base = store.as_ptr().align_offset(STORE_ALIGN);
        Self {
            cfg,
            store,
            base,
            stride,
            untouched: untouched_ranks(ways),
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset the counters (e.g. after warm-up), keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Every set's block, in set order.
    pub(crate) fn blocks(&self) -> &[u64] {
        &self.store[self.base..self.base + (self.set_mask as usize + 1) * self.stride]
    }

    /// The line's set, and the word a valid dirty copy of it holds (so
    /// `word | DIRTY == key` finds it whatever its dirty bit).
    #[inline]
    fn index(&self, line: LineAddr) -> (usize, u64) {
        // line is addr >> 6; line size may exceed 64 B, so renormalise.
        let block = line.base() >> self.line_shift;
        let set = (block & self.set_mask) as usize;
        let tag = block >> self.set_bits;
        (set, tag << 2 | DIRTY | VALID)
    }

    /// The set's tag words and its replacement word.
    #[inline]
    fn set_block(&mut self, set: usize) -> (&mut [u64], &mut u64) {
        let start = self.base + set * self.stride;
        let (ranks, tags) =
            self.store[start..start + self.stride].split_last_mut().expect("a block has words");
        (tags, ranks)
    }

    /// Index into `store` of the tag word holding `line`, if resident.
    fn find(&self, line: LineAddr) -> Option<usize> {
        let (set, key) = self.index(line);
        let start = self.base + set * self.stride;
        let ways = self.cfg.associativity as usize;
        let i = self.store[start..start + ways].iter().position(|&w| w | DIRTY == key)?;
        Some(start + i)
    }

    /// Look up `line`; on a miss, allocate it (write-allocate). `is_write`
    /// sets the dirty bit.
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> AccessOutcome {
        self.stats.accesses += 1;
        let (set, key) = self.index(line);
        let dirty = if is_write { DIRTY } else { 0 };
        let (set_bits, line_shift, untouched) = (self.set_bits, self.line_shift, self.untouched);
        let (tags, word) = self.set_block(set);
        let ranks = if *word == 0 { untouched } else { *word };

        // Hit path.
        if let Some(i) = tags.iter().position(|&w| w | DIRTY == key) {
            tags[i] |= dirty;
            *word = touch(ranks, i);
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }

        // Miss: the first invalid way, else the least recently used one.
        let best = match tags.iter().position(|&w| w & VALID == 0) {
            Some(i) => i,
            None => way_of_rank(ranks, tags.len() as u64 - 1),
        };
        let old = tags[best];
        tags[best] = key & !DIRTY | dirty;
        *word = touch(ranks, best);
        let victim = (old & VALID != 0).then(|| {
            let block = ((old >> 2) << set_bits) | set as u64;
            Victim { line: LineAddr((block << line_shift) >> 6), dirty: old & DIRTY != 0 }
        });
        if let Some(v) = victim {
            self.stats.evictions += 1;
            if v.dirty {
                self.stats.writebacks += 1;
            }
        }
        AccessOutcome::Miss(victim)
    }

    /// Is the line currently resident?
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Remove a line if present (inclusive back-invalidation). Returns
    /// whether the invalidated copy was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let i = self.find(line)?;
        let w = &mut self.store[i];
        let dirty = *w & DIRTY != 0;
        *w &= !(VALID | DIRTY);
        Some(dirty)
    }

    /// Mark a resident line dirty (used when a lower level writes back into
    /// this one). No-op if absent.
    pub fn mark_dirty(&mut self, line: LineAddr) {
        if let Some(i) = self.find(line) {
            self.store[i] |= DIRTY;
        }
    }

    /// Serialize the dynamic state (the block words, then the counters)
    /// for snapshot/resume. The shape (`cfg`, `set_mask`) is
    /// configuration and is reconstructed, not saved.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u64s(self.blocks());
        w.u64(self.stats.accesses);
        w.u64(self.stats.hits);
        w.u64(self.stats.evictions);
        w.u64(self.stats.writebacks);
    }

    /// Restore state saved by [`SetAssocCache::save_state`] onto a freshly
    /// constructed cache with the same configuration. Refuses a
    /// replacement word that is neither 0 nor a permutation of the set's
    /// ranks.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        let n = r.seq_len(8)?;
        let words = self.blocks().len();
        if n != words {
            return Err(format!("cache store size mismatch: {n} words, expected {words}"));
        }
        let ways = self.cfg.associativity as usize;
        let (base, stride) = (self.base, self.stride);
        for (set, block) in self.store[base..base + words].chunks_exact_mut(stride).enumerate() {
            for word in block.iter_mut() {
                *word = r.u64()?;
            }
            if !ranks_are_valid(block[ways], ways) {
                return Err(format!(
                    "cache set {set}: replacement word {:#018x} is not a ranking of {ways} ways",
                    block[ways]
                ));
            }
        }
        self.stats.accesses = r.u64()?;
        self.stats.hits = r.u64()?;
        self.stats.evictions = r.u64()?;
        self.stats.writebacks = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_sim_base::rng::SimRng;

    fn small() -> SetAssocCache {
        // 2 sets x 2 ways x 64 B = 256 B.
        SetAssocCache::new(CacheConfig::new(256, 2))
    }

    fn line(i: u64) -> LineAddr {
        LineAddr(i)
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::new(8 << 20, 16).validate().is_ok());
        assert!(CacheConfig::new(0, 16).validate().is_err());
        assert!(CacheConfig::new(100, 3).validate().is_err());
        let mut c = CacheConfig::new(8 << 20, 16);
        c.line_bytes = 100;
        assert!(c.validate().is_err());
        c.line_bytes = 2;
        assert!(c.validate().unwrap_err().contains("at least 4 bytes"));
        c.line_bytes = 4;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn sets_math_matches_paper_l3() {
        // 8 MB, 16-way, 64 B lines -> 8192 sets.
        assert_eq!(CacheConfig::new(8 << 20, 16).sets(), 8192);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(matches!(c.access(line(0), false), AccessOutcome::Miss(None)));
        assert!(c.access(line(0), false).is_hit());
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Lines 0, 2, 4 map to set 0 (even line index with 2 sets).
        c.access(line(0), false);
        c.access(line(2), false);
        c.access(line(0), false); // refresh 0
        match c.access(line(4), false) {
            AccessOutcome::Miss(Some(v)) => assert_eq!(v.line, line(2)),
            other => panic!("expected eviction of line 2, got {other:?}"),
        }
        assert!(c.contains(line(0)));
        assert!(!c.contains(line(2)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(line(0), true); // dirty
        c.access(line(2), false);
        match c.access(line(4), false) {
            AccessOutcome::Miss(Some(v)) => {
                assert_eq!(v.line, line(0));
                assert!(v.dirty);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = small();
        c.access(line(0), false);
        c.access(line(0), true); // hit, marks dirty
        c.access(line(2), false);
        match c.access(line(4), false) {
            AccessOutcome::Miss(Some(v)) => assert!(v.dirty),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn victim_address_round_trips() {
        // Bigger cache; check the reconstructed victim address equals the
        // original line.
        let mut c = SetAssocCache::new(CacheConfig::new(64 << 10, 4));
        let probe = LineAddr(0xabcd);
        c.access(probe, false);
        // Force eviction: fill the same set with 4 more distinct tags.
        let sets = c.config().sets();
        let mut victims = Vec::new();
        for k in 1..=4 {
            let conflicting = LineAddr(probe.0 + k * sets);
            if let AccessOutcome::Miss(Some(v)) = c.access(conflicting, false) {
                victims.push(v.line);
            }
        }
        assert!(victims.contains(&probe), "victims: {victims:?}");
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = small();
        c.access(line(0), true);
        assert_eq!(c.invalidate(line(0)), Some(true));
        assert!(!c.contains(line(0)));
        assert_eq!(c.invalidate(line(0)), None);
    }

    #[test]
    fn mark_dirty_causes_writeback_later() {
        let mut c = small();
        c.access(line(0), false);
        c.mark_dirty(line(0));
        c.access(line(2), false);
        match c.access(line(4), false) {
            AccessOutcome::Miss(Some(v)) => assert!(v.dirty),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sequential_sweep_twice_the_cache_always_misses() {
        let mut lru = SetAssocCache::new(CacheConfig::new(4 << 10, 4));
        // A working set twice the cache: LRU misses ~100% on a cyclic
        // sweep.
        for _ in 0..4 {
            for i in 0..128u64 {
                lru.access(line(i), false);
            }
        }
        assert!(lru.stats().miss_rate() > 0.95);
    }

    #[test]
    fn small_working_set_fits() {
        let mut c = SetAssocCache::new(CacheConfig::new(64 << 10, 8));
        for _ in 0..10 {
            for i in 0..512u64 {
                c.access(line(i), false);
            }
        }
        // 512 lines = 32 KB fits in 64 KB: only cold misses.
        assert_eq!(c.stats().misses(), 512);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.access(line(0), false);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(line(0), false).is_hit());
    }

    #[test]
    fn save_load_round_trips_contents_and_stats() {
        let mut c = small();
        c.access(line(0), true);
        c.access(line(2), false);
        c.access(line(4), false); // evicts line 0 (dirty)
        let mut w = SnapWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = small();
        let mut r = SnapReader::new(&bytes);
        fresh.load_state(&mut r).unwrap();
        assert_eq!(fresh.stats(), c.stats());
        assert!(fresh.contains(line(2)));
        assert!(fresh.contains(line(4)));
        assert!(!fresh.contains(line(0)));
        // Replacement metadata restored: behaviour continues identically.
        assert_eq!(fresh.access(line(6), false), c.access(line(6), false));
    }

    #[test]
    fn load_rejects_shape_mismatch() {
        let c = small();
        let mut w = SnapWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut bigger = SetAssocCache::new(CacheConfig::new(512, 2));
        let mut r = SnapReader::new(&bytes);
        assert!(bigger.load_state(&mut r).is_err());
    }

    #[test]
    fn larger_line_size_indexing() {
        // 128 B lines: two 64 B line addresses share one cache block.
        let mut c = SetAssocCache::new(CacheConfig {
            capacity_bytes: 1024,
            associativity: 2,
            line_bytes: 128,
        });
        assert!(!c.access(LineAddr(0), false).is_hit());
        assert!(c.access(LineAddr(1), false).is_hit(), "same 128 B block");
        assert!(!c.access(LineAddr(2), false).is_hit(), "next block");
    }

    /// The tag store as it was before packing: 24 bytes a way, with the
    /// tag, the flags as `bool`s and a per-set LRU stamp in one struct.
    /// Kept as the oracle the block store must match operation for
    /// operation.
    #[derive(Debug, Clone, Copy, Default)]
    struct Way {
        tag: u64,
        valid: bool,
        dirty: bool,
        meta: u64,
    }

    struct Reference {
        cfg: CacheConfig,
        ways: Vec<Way>,
        set_meta: Vec<u64>,
        set_mask: u64,
        stats: CacheStats,
    }

    impl Reference {
        fn new(cfg: CacheConfig) -> Self {
            let sets = cfg.sets();
            Self {
                cfg,
                ways: vec![Way::default(); (sets * cfg.associativity as u64) as usize],
                set_meta: vec![0; sets as usize],
                set_mask: sets - 1,
                stats: CacheStats::default(),
            }
        }

        fn index(&self, line: LineAddr) -> (usize, u64) {
            let block = line.base() / self.cfg.line_bytes as u64;
            ((block & self.set_mask) as usize, block >> self.set_mask.trailing_ones())
        }

        fn set_ways(&mut self, set: usize) -> &mut [Way] {
            let a = self.cfg.associativity as usize;
            &mut self.ways[set * a..(set + 1) * a]
        }

        fn access(&mut self, line: LineAddr, is_write: bool) -> AccessOutcome {
            self.stats.accesses += 1;
            let (set, tag) = self.index(line);
            self.set_meta[set] += 1;
            let tick = self.set_meta[set];
            for w in self.set_ways(set) {
                if w.valid && w.tag == tag {
                    w.dirty |= is_write;
                    w.meta = tick;
                    self.stats.hits += 1;
                    return AccessOutcome::Hit;
                }
            }
            let ways = self.set_ways(set);
            let mut best = 0;
            for (i, w) in ways.iter().enumerate() {
                if !w.valid {
                    best = i;
                    break;
                }
                if w.meta < ways[best].meta {
                    best = i;
                }
            }
            let line_bytes = self.cfg.line_bytes as u64;
            let sets_bits = self.set_mask.trailing_ones();
            let w = &mut self.set_ways(set)[best];
            let victim = w.valid.then(|| {
                let block = (w.tag << sets_bits) | set as u64;
                Victim { line: LineAddr(block * line_bytes / 64), dirty: w.dirty }
            });
            *w = Way { tag, valid: true, dirty: is_write, meta: tick };
            if let Some(v) = victim {
                self.stats.evictions += 1;
                self.stats.writebacks += u64::from(v.dirty);
            }
            AccessOutcome::Miss(victim)
        }

        fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
            let (set, tag) = self.index(line);
            let w = self.set_ways(set).iter_mut().find(|w| w.valid && w.tag == tag)?;
            w.valid = false;
            Some(std::mem::take(&mut w.dirty))
        }

        fn mark_dirty(&mut self, line: LineAddr) {
            let (set, tag) = self.index(line);
            if let Some(w) = self.set_ways(set).iter_mut().find(|w| w.valid && w.tag == tag) {
                w.dirty = true;
            }
        }

        /// Each way of `set` as `(tag, valid, dirty, recency rank)`: the
        /// rank is the way's place when the set's ways are ordered by
        /// latest stamp first, untouched ways last in way order.
        fn set_contents(&self, set: usize) -> Vec<(u64, bool, bool, u64)> {
            let a = self.cfg.associativity as usize;
            let ways = &self.ways[set * a..(set + 1) * a];
            let mut order: Vec<usize> = (0..a).collect();
            order.sort_by_key(|&i| (std::cmp::Reverse(ways[i].meta), i));
            let mut rank = vec![0; a];
            for (r, &i) in order.iter().enumerate() {
                rank[i] = r as u64;
            }
            ways.iter().zip(rank).map(|(w, r)| (w.tag, w.valid, w.dirty, r)).collect()
        }
    }

    impl SetAssocCache {
        /// The block store's view of [`Reference::set_contents`].
        fn set_contents(&self, set: usize) -> Vec<(u64, bool, bool, u64)> {
            let a = self.cfg.associativity as usize;
            let block = &self.blocks()[set * self.stride..(set + 1) * self.stride];
            let ranks = if block[a] == 0 { self.untouched } else { block[a] };
            (0..a)
                .map(|i| {
                    let w = block[i];
                    (w >> 2, w & VALID != 0, w & DIRTY != 0, ranks >> (4 * i) & 0xF)
                })
                .collect()
        }
    }

    fn saved(cache: &SetAssocCache) -> Vec<u8> {
        let mut w = SnapWriter::new();
        cache.save_state(&mut w);
        w.into_bytes()
    }

    /// Seeded streams of accesses, invalidations and dirty marks drive
    /// the block store and the 24-byte oracle over 2-, 4-, 8-, 15- and
    /// 16-way geometries (and one with 128 B lines). Every outcome (the
    /// victim stream with it) must agree, and after every batch the
    /// counters and every way's tag, flags and recency rank. Halfway, the
    /// block store is saved, loaded into a fresh cache, and continued
    /// from there.
    #[test]
    fn packed_store_matches_the_reference_way_layout() {
        let geometries = [
            CacheConfig::new(4 * 2 * 64, 2),
            CacheConfig::new(8 * 4 * 64, 4),
            CacheConfig::new(4 * 8 * 64, 8),
            CacheConfig::new(8 * 15 * 64, 15),
            CacheConfig::new(4 * 16 * 64, 16),
            CacheConfig { capacity_bytes: 4 * 4 * 128, associativity: 4, line_bytes: 128 },
        ];
        for (g, cfg) in geometries.into_iter().enumerate() {
            let mut packed = SetAssocCache::new(cfg);
            let mut reference = Reference::new(cfg);
            let mut rng = SimRng::new(71 + g as u64);
            // Three times the capacity in distinct lines, plus a few far
            // lines with large tags.
            let lines = 3 * cfg.capacity_bytes / 64;
            for batch in 0..40 {
                if batch == 20 {
                    let mut resumed = SetAssocCache::new(cfg);
                    resumed.load_state(&mut SnapReader::new(&saved(&packed))).unwrap();
                    assert_eq!(saved(&resumed), saved(&packed), "geometry {g}: save → load");
                    packed = resumed;
                }
                for op in 0..64 {
                    let l = if rng.chance(0.02) {
                        LineAddr(u64::MAX >> rng.below(8))
                    } else {
                        LineAddr(rng.below(lines))
                    };
                    let ctx = || format!("geometry {g}, batch {batch}, op {op}, line {:#x}", l.0);
                    match rng.below(10) {
                        0 => assert_eq!(packed.invalidate(l), reference.invalidate(l), "{}", ctx()),
                        1 => {
                            packed.mark_dirty(l);
                            reference.mark_dirty(l);
                        }
                        k => {
                            let is_write = k < 5;
                            let got = packed.access(l, is_write);
                            assert_eq!(got, reference.access(l, is_write), "{}", ctx());
                        }
                    }
                }
                assert_eq!(packed.stats(), reference.stats, "geometry {g}, batch {batch}");
                for set in 0..cfg.sets() as usize {
                    assert_eq!(
                        packed.set_contents(set),
                        reference.set_contents(set),
                        "geometry {g}, batch {batch}, set {set}: (tag, valid, dirty, rank) per way"
                    );
                }
            }
            assert!(reference.stats.hits > 0 && reference.stats.writebacks > 0, "geometry {g}");
        }
    }

    /// The SWAR rank update and victim lookup against the rule spelled
    /// out lane by lane, for every associativity and every way.
    #[test]
    fn rank_update_matches_the_naive_rule() {
        let mut rng = SimRng::new(5);
        for a in 1..=16usize {
            let mut ranks = untouched_ranks(a);
            let mut naive: Vec<u64> = (0..a as u64).collect();
            for _ in 0..200 {
                assert!(ranks_are_valid(ranks, a), "{a} ways: {ranks:#018x}");
                for (i, &r) in naive.iter().enumerate() {
                    assert_eq!(ranks >> (4 * i) & 0xF, r, "{a} ways, way {i}");
                    assert_eq!(way_of_rank(ranks, r), i, "{a} ways, rank {r}");
                }
                let way = rng.below(a as u64) as usize;
                let r = naive[way];
                for x in naive.iter_mut().filter(|x| **x < r) {
                    *x += 1;
                }
                naive[way] = 0;
                ranks = touch(ranks, way);
            }
        }
    }

    #[test]
    fn validate_refuses_more_than_16_ways() {
        assert!(CacheConfig::new(16 * 64, 16).validate().is_ok());
        let err = CacheConfig::new(17 * 64, 17).validate().unwrap_err();
        assert!(err.contains("at most 16"), "{err}");
    }

    /// A replacement word that is neither 0 nor a ranking of the set's
    /// ways is refused with an error, never a panic; every ranking and
    /// the zero word load.
    #[test]
    fn load_rejects_a_malformed_replacement_word() {
        let cfg = CacheConfig::new(2 * 4 * 64, 4);
        let mut c = SetAssocCache::new(cfg);
        for l in 0..6 {
            c.access(LineAddr(l), l % 3 == 0);
        }
        let bytes = saved(&c);
        // Set 1's replacement word: after the 8-byte length, set 0's five
        // words and set 1's four tag words.
        let at = 8 + 9 * 8;
        let with_word = |word: u64| {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&word.to_le_bytes());
            b
        };
        let load = |b: &[u8]| SetAssocCache::new(cfg).load_state(&mut SnapReader::new(b));
        let pad = 0xFFFF_FFFF_FFFF_0000;
        for good in [0, pad | 0x3210, pad | 0x0123, pad | 0x2031] {
            load(&with_word(good)).unwrap_or_else(|e| panic!("{good:#x}: {e}"));
        }
        let bad = [pad | 0x3211, pad | 0x4210, 0x3210, 0xFFFF_FFFF_FFF1_3210, u64::MAX, 1];
        for word in bad {
            let err = load(&with_word(word)).unwrap_err();
            assert!(err.contains("set 1") && err.contains("ranking"), "{word:#x}: {err}");
        }
        let mut rng = SimRng::new(9);
        for _ in 0..10_000 {
            let word = rng.next_u64();
            assert_eq!(load(&with_word(word)).is_ok(), ranks_are_valid(word, 4), "{word:#x}");
        }
    }
}
