//! A generic set-associative, write-back/write-allocate cache with true
//! LRU replacement (a per-set access counter stamps each way it touches).
//!
//! The tag store holds 16 bytes per way: one word packing the tag with
//! the valid and dirty bits (`tag << 2 | dirty << 1 | valid`), and the
//! way's LRU stamp. A tag-metadata array this size is what a
//! multi-gigabyte tags-in-DRAM cache costs the simulator, so the layout
//! matters at the L4's million-way scale. The paper's clock-based
//! pseudo-LRU belongs to on-package slot tracking, not to these caches;
//! it lives in `hmm_core::monitor`.

use hmm_sim_base::addr::LineAddr;
use hmm_sim_base::snap::{SnapReader, SnapResult, SnapWriter};

/// Valid bit of a way's tag word.
const VALID: u64 = 1;
/// Dirty bit of a way's tag word.
const DIRTY: u64 = 2;
/// Largest tag a way's word holds above its two flag bits.
const MAX_TAG: u64 = u64::MAX >> 2;

/// Static shape of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Ways per set.
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

/// The cache proper.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// One word per way, set-major: `tag << 2 | dirty << 1 | valid`.
    /// Invalidation clears both flags and keeps the tag bits.
    tags: Vec<u64>,
    /// LRU stamp per way, parallel to `tags`: the set's tick at the way's
    /// last touch.
    stamps: Vec<u64>,
    /// Per-set LRU tick, bumped by every access to the set.
    ticks: Vec<u64>,
    set_mask: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build an empty cache. Panics on invalid configuration (a programming
    /// error, not a runtime condition).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid cache configuration");
        let sets = cfg.sets();
        let ways = (sets * cfg.associativity as u64) as usize;
        Self {
            cfg,
            tags: vec![0; ways],
            stamps: vec![0; ways],
            ticks: vec![0; sets as usize],
            set_mask: sets - 1,
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

    /// The line's set, and the word a valid dirty copy of it holds (so
    /// `word | DIRTY == key` finds it whatever its dirty bit).
    #[inline]
    fn index(&self, line: LineAddr) -> (usize, u64) {
        // line is addr >> 6; line size may exceed 64 B, so renormalise.
        let block = line.base() / self.cfg.line_bytes as u64;
        let set = (block & self.set_mask) as usize;
        let tag = block >> self.set_mask.trailing_ones();
        (set, tag << 2 | DIRTY | VALID)
    }

    /// The set's tag words and LRU stamps.
    #[inline]
    fn set_ways(&mut self, set: usize) -> (&mut [u64], &mut [u64]) {
        let a = self.cfg.associativity as usize;
        let ways = set * a..(set + 1) * a;
        (&mut self.tags[ways.clone()], &mut self.stamps[ways])
    }

    /// Index into `tags` of the way holding `line`, if resident.
    fn find(&self, line: LineAddr) -> Option<usize> {
        let (set, key) = self.index(line);
        let a = self.cfg.associativity as usize;
        let i = self.tags[set * a..(set + 1) * a].iter().position(|&w| w | DIRTY == key)?;
        Some(set * a + i)
    }

    /// Look up `line`; on a miss, allocate it (write-allocate). `is_write`
    /// sets the dirty bit.
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> AccessOutcome {
        self.stats.accesses += 1;
        let (set, key) = self.index(line);
        let tick = {
            let t = &mut self.ticks[set];
            *t += 1;
            *t
        };
        let dirty = if is_write { DIRTY } else { 0 };
        let sets_bits = self.set_mask.trailing_ones();
        let line_bytes = self.cfg.line_bytes as u64;
        let (tags, stamps) = self.set_ways(set);

        // Hit path.
        if let Some(i) = tags.iter().position(|&w| w | DIRTY == key) {
            tags[i] |= dirty;
            stamps[i] = tick;
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }

        // Miss: the first invalid way, else the least recently used one.
        let mut best = 0;
        for (i, &w) in tags.iter().enumerate() {
            if w & VALID == 0 {
                best = i;
                break;
            }
            if stamps[i] < stamps[best] {
                best = i;
            }
        }
        let old = tags[best];
        tags[best] = key & !DIRTY | dirty;
        stamps[best] = tick;
        let victim = (old & VALID != 0).then(|| {
            let block = ((old >> 2) << sets_bits) | set as u64;
            Victim { line: LineAddr(block * line_bytes / 64), dirty: old & DIRTY != 0 }
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
        let w = &mut self.tags[i];
        let dirty = *w & DIRTY != 0;
        *w &= !(VALID | DIRTY);
        Some(dirty)
    }

    /// Mark a resident line dirty (used when a lower level writes back into
    /// this one). No-op if absent.
    pub fn mark_dirty(&mut self, line: LineAddr) {
        if let Some(i) = self.find(line) {
            self.tags[i] |= DIRTY;
        }
    }

    /// Serialize the dynamic state (tags, valid/dirty bits, replacement
    /// metadata, counters) for snapshot/resume. The shape (`cfg`,
    /// `set_mask`) is configuration and is reconstructed, not saved.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.tags.len());
        for (&word, &stamp) in self.tags.iter().zip(&self.stamps) {
            w.u64(word >> 2);
            w.bool(word & VALID != 0);
            w.bool(word & DIRTY != 0);
            w.u64(stamp);
        }
        w.usize(self.ticks.len());
        for &t in &self.ticks {
            w.u64(t);
        }
        w.u64(self.stats.accesses);
        w.u64(self.stats.hits);
        w.u64(self.stats.evictions);
        w.u64(self.stats.writebacks);
    }

    /// Restore state saved by [`SetAssocCache::save_state`] onto a freshly
    /// constructed cache with the same configuration.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        let n = r.usize()?;
        if n != self.tags.len() {
            return Err(format!("cache way count mismatch: expected {}", self.tags.len()));
        }
        for (word, stamp) in self.tags.iter_mut().zip(&mut self.stamps) {
            let tag = r.u64()?;
            if tag > MAX_TAG {
                return Err(format!("cache tag {tag:#x} exceeds the 62-bit maximum"));
            }
            let valid = if r.bool()? { VALID } else { 0 };
            let dirty = if r.bool()? { DIRTY } else { 0 };
            *word = tag << 2 | dirty | valid;
            *stamp = r.u64()?;
        }
        let n = r.usize()?;
        if n != self.ticks.len() {
            return Err(format!("cache set count mismatch: expected {}", self.ticks.len()));
        }
        for t in &mut self.ticks {
            *t = r.u64()?;
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

    /// A saved tag the packed word cannot hold is refused, not truncated
    /// into another line's tag.
    #[test]
    fn load_rejects_a_tag_beyond_62_bits() {
        for (tag, ok) in [(MAX_TAG, true), (MAX_TAG + 1, false), (u64::MAX, false)] {
            let mut reference = Reference::new(CacheConfig::new(256, 2));
            reference.ways[1] = Way { tag, valid: true, dirty: true, meta: 9 };
            let mut w = SnapWriter::new();
            reference.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut c = small();
            let loaded = c.load_state(&mut SnapReader::new(&bytes));
            if ok {
                loaded.unwrap();
                let mut again = SnapWriter::new();
                c.save_state(&mut again);
                assert_eq!(again.into_bytes(), bytes, "tag {tag:#x}");
            } else {
                let err = loaded.unwrap_err();
                assert!(err.contains("62-bit"), "tag {tag:#x}: {err}");
            }
        }
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
    /// tag, the flags as `bool`s and the LRU stamp in one struct. Kept
    /// as the reference the packed store must match operation for
    /// operation, snapshot byte for snapshot byte.
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

        fn save_state(&self, w: &mut SnapWriter) {
            w.usize(self.ways.len());
            for way in &self.ways {
                w.u64(way.tag);
                w.bool(way.valid);
                w.bool(way.dirty);
                w.u64(way.meta);
            }
            w.usize(self.set_meta.len());
            for &m in &self.set_meta {
                w.u64(m);
            }
            w.u64(self.stats.accesses);
            w.u64(self.stats.hits);
            w.u64(self.stats.evictions);
            w.u64(self.stats.writebacks);
        }
    }

    fn saved(save: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new();
        save(&mut w);
        w.into_bytes()
    }

    /// Seeded streams of accesses, invalidations and dirty marks drive
    /// the packed store and the 24-byte reference over 2-, 4- and 15-way
    /// geometries (and one with 128 B lines). Every outcome, and after
    /// every batch the counters and the snapshot bytes, must agree.
    #[test]
    fn packed_store_matches_the_reference_way_layout() {
        let geometries = [
            CacheConfig::new(4 * 2 * 64, 2),
            CacheConfig::new(8 * 4 * 64, 4),
            CacheConfig::new(8 * 15 * 64, 15),
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
                assert_eq!(
                    saved(|w| packed.save_state(w)),
                    saved(|w| reference.save_state(w)),
                    "geometry {g}, batch {batch}: snapshot bytes differ"
                );
            }
            assert!(reference.stats.hits > 0 && reference.stats.writebacks > 0, "geometry {g}");
            // A snapshot of the reference restores into the packed store
            // and continues identically.
            let bytes = saved(|w| reference.save_state(w));
            let mut resumed = SetAssocCache::new(cfg);
            resumed.load_state(&mut SnapReader::new(&bytes)).unwrap();
            for _ in 0..256 {
                let l = LineAddr(rng.below(lines));
                assert_eq!(resumed.access(l, false), reference.access(l, false));
            }
        }
    }
}
