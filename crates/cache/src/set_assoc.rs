//! A generic set-associative, write-back/write-allocate cache.
//!
//! Two replacement policies are provided: true LRU (per-set recency
//! counters) and the clock-based pseudo-LRU the paper uses for its
//! on-package slot tracking ("clock-based pseudo-LRU algorithm, which is
//! used in real microprocessor implementation", Section III-B).

use hmm_sim_base::addr::LineAddr;

/// Replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplPolicy {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Clock (second-chance) pseudo-LRU: one reference bit per way and a
    /// rotating hand.
    Clock,
}

/// Static shape of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Ways per set.
    pub associativity: u32,
    /// Line size in bytes (64 throughout the paper).
    pub line_bytes: u32,
    /// Replacement policy.
    pub policy: ReplPolicy,
}

impl CacheConfig {
    /// Convenience constructor with 64 B lines and LRU.
    pub fn new(capacity_bytes: u64, associativity: u32) -> Self {
        Self { capacity_bytes, associativity, line_bytes: 64, policy: ReplPolicy::Lru }
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

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU recency stamp, or the clock reference bit (0/1).
    meta: u64,
}

/// The cache proper.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    ways: Vec<Way>, // sets * associativity, set-major
    /// Per-set LRU tick or clock hand.
    set_meta: Vec<u64>,
    set_mask: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build an empty cache. Panics on invalid configuration (a programming
    /// error, not a runtime condition).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid cache configuration");
        let sets = cfg.sets();
        Self {
            cfg,
            ways: vec![Way::default(); (sets * cfg.associativity as u64) as usize],
            set_meta: vec![0; sets as usize],
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

    #[inline]
    fn index(&self, line: LineAddr) -> (usize, u64) {
        // line is addr >> 6; line size may exceed 64 B, so renormalise.
        let block = line.base() / self.cfg.line_bytes as u64;
        let set = (block & self.set_mask) as usize;
        let tag = block >> self.set_mask.trailing_ones();
        (set, tag)
    }

    #[inline]
    fn set_ways(&mut self, set: usize) -> &mut [Way] {
        let a = self.cfg.associativity as usize;
        &mut self.ways[set * a..(set + 1) * a]
    }

    /// Look up `line`; on a miss, allocate it (write-allocate). `is_write`
    /// sets the dirty bit.
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> AccessOutcome {
        self.stats.accesses += 1;
        let (set, tag) = self.index(line);
        let policy = self.cfg.policy;
        // set_meta is the LRU tick under Lru and the clock hand under Clock.
        let tick = match policy {
            ReplPolicy::Lru => {
                let t = &mut self.set_meta[set];
                *t += 1;
                *t
            }
            ReplPolicy::Clock => 1,
        };
        let assoc = self.cfg.associativity as usize;

        // Hit path.
        for w in self.set_ways(set) {
            if w.valid && w.tag == tag {
                w.dirty |= is_write;
                w.meta = tick;
                self.stats.hits += 1;
                return AccessOutcome::Hit;
            }
        }

        // Miss: find a victim way.
        let victim_idx = match policy {
            ReplPolicy::Lru => {
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
                best
            }
            ReplPolicy::Clock => {
                let mut hand = self.set_meta[set] as usize;
                let ways = self.set_ways(set);
                let idx = if let Some(i) = ways.iter().position(|w| !w.valid) {
                    i
                } else {
                    // Second chance: clear reference bits under the hand
                    // until an unreferenced way is found.
                    loop {
                        if ways[hand].meta == 0 {
                            break hand;
                        }
                        ways[hand].meta = 0;
                        hand = (hand + 1) % assoc;
                    }
                };
                // Installation advances the hand past the chosen frame.
                self.set_meta[set] = ((idx + 1) % assoc) as u64;
                idx
            }
        };

        let line_bytes = self.cfg.line_bytes as u64;
        let sets_bits = self.set_mask.trailing_ones();
        let victim = {
            let w = &mut self.set_ways(set)[victim_idx];
            let victim = if w.valid {
                let block = (w.tag << sets_bits) | set as u64;
                Some(Victim { line: LineAddr(block * line_bytes / 64), dirty: w.dirty })
            } else {
                None
            };
            *w = Way { tag, valid: true, dirty: is_write, meta: tick };
            victim
        };
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
        let (set, tag) = {
            let block = line.base() / self.cfg.line_bytes as u64;
            ((block & self.set_mask) as usize, block >> self.set_mask.trailing_ones())
        };
        let a = self.cfg.associativity as usize;
        self.ways[set * a..(set + 1) * a].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Remove a line if present (inclusive back-invalidation). Returns
    /// whether the invalidated copy was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let (set, tag) = self.index(line);
        for w in self.set_ways(set) {
            if w.valid && w.tag == tag {
                w.valid = false;
                let dirty = w.dirty;
                w.dirty = false;
                return Some(dirty);
            }
        }
        None
    }

    /// Mark a resident line dirty (used when a lower level writes back into
    /// this one). No-op if absent.
    pub fn mark_dirty(&mut self, line: LineAddr) {
        let (set, tag) = self.index(line);
        for w in self.set_ways(set) {
            if w.valid && w.tag == tag {
                w.dirty = true;
                return;
            }
        }
    }

    /// Serialize the dynamic state (tags, valid/dirty bits, replacement
    /// metadata, counters) for snapshot/resume. The shape (`cfg`,
    /// `set_mask`) is configuration and is reconstructed, not saved.
    pub fn save_state(&self, w: &mut hmm_sim_base::snap::SnapWriter) {
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

    /// Restore state saved by [`SetAssocCache::save_state`] onto a freshly
    /// constructed cache with the same configuration.
    pub fn load_state(
        &mut self,
        r: &mut hmm_sim_base::snap::SnapReader<'_>,
    ) -> hmm_sim_base::snap::SnapResult<()> {
        let n = r.usize()?;
        if n != self.ways.len() {
            return Err(format!("cache way count mismatch: expected {}", self.ways.len()));
        }
        for way in &mut self.ways {
            way.tag = r.u64()?;
            way.valid = r.bool()?;
            way.dirty = r.bool()?;
            way.meta = r.u64()?;
        }
        let n = r.usize()?;
        if n != self.set_meta.len() {
            return Err(format!("cache set count mismatch: expected {}", self.set_meta.len()));
        }
        for m in &mut self.set_meta {
            *m = r.u64()?;
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

    fn small(policy: ReplPolicy) -> SetAssocCache {
        // 2 sets x 2 ways x 64 B = 256 B.
        SetAssocCache::new(CacheConfig {
            capacity_bytes: 256,
            associativity: 2,
            line_bytes: 64,
            policy,
        })
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
    }

    #[test]
    fn sets_math_matches_paper_l3() {
        // 8 MB, 16-way, 64 B lines -> 8192 sets.
        assert_eq!(CacheConfig::new(8 << 20, 16).sets(), 8192);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small(ReplPolicy::Lru);
        assert!(matches!(c.access(line(0), false), AccessOutcome::Miss(None)));
        assert!(c.access(line(0), false).is_hit());
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small(ReplPolicy::Lru);
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
        let mut c = small(ReplPolicy::Lru);
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
        let mut c = small(ReplPolicy::Lru);
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
        let mut c = small(ReplPolicy::Lru);
        c.access(line(0), true);
        assert_eq!(c.invalidate(line(0)), Some(true));
        assert!(!c.contains(line(0)));
        assert_eq!(c.invalidate(line(0)), None);
    }

    #[test]
    fn mark_dirty_causes_writeback_later() {
        let mut c = small(ReplPolicy::Lru);
        c.access(line(0), false);
        c.mark_dirty(line(0));
        c.access(line(2), false);
        match c.access(line(4), false) {
            AccessOutcome::Miss(Some(v)) => assert!(v.dirty),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn clock_policy_gives_second_chance() {
        let mut c = small(ReplPolicy::Clock);
        c.access(line(0), false); // way 0
        c.access(line(2), false); // way 1
                                  // Both ref bits set: the next miss sweeps them clear and evicts the
                                  // first frame under the hand (line 0).
        match c.access(line(4), false) {
            AccessOutcome::Miss(Some(v)) => assert_eq!(v.line, line(0)),
            other => panic!("unexpected {other:?}"),
        }
        // Now line 4 has its ref bit set, line 2 does not. Touch line 4 and
        // miss again: the clock must spare the referenced line 4 and evict
        // the unreferenced line 2 — the second chance in action.
        assert!(c.access(line(4), false).is_hit());
        match c.access(line(8), false) {
            AccessOutcome::Miss(Some(v)) => assert_eq!(v.line, line(2)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(c.contains(line(4)));
    }

    #[test]
    fn clock_and_lru_agree_on_sequential_sweep_miss_rate() {
        let mut lru = SetAssocCache::new(CacheConfig::new(4 << 10, 4));
        let mut clk = SetAssocCache::new(CacheConfig {
            policy: ReplPolicy::Clock,
            ..CacheConfig::new(4 << 10, 4)
        });
        // A working set twice the cache: both policies should miss ~100%
        // on a cyclic sweep.
        for _ in 0..4 {
            for i in 0..128u64 {
                lru.access(line(i), false);
                clk.access(line(i), false);
            }
        }
        assert!(lru.stats().miss_rate() > 0.95);
        assert!(clk.stats().miss_rate() > 0.7); // clock is only pseudo-LRU
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
        let mut c = small(ReplPolicy::Lru);
        c.access(line(0), false);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(line(0), false).is_hit());
    }

    #[test]
    fn save_load_round_trips_contents_and_stats() {
        let mut c = small(ReplPolicy::Lru);
        c.access(line(0), true);
        c.access(line(2), false);
        c.access(line(4), false); // evicts line 0 (dirty)
        let mut w = hmm_sim_base::snap::SnapWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = small(ReplPolicy::Lru);
        let mut r = hmm_sim_base::snap::SnapReader::new(&bytes);
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
        let c = small(ReplPolicy::Lru);
        let mut w = hmm_sim_base::snap::SnapWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut bigger = SetAssocCache::new(CacheConfig::new(512, 2));
        let mut r = hmm_sim_base::snap::SnapReader::new(&bytes);
        assert!(bigger.load_state(&mut r).is_err());
    }

    #[test]
    fn larger_line_size_indexing() {
        // 128 B lines: two 64 B line addresses share one cache block.
        let mut c = SetAssocCache::new(CacheConfig {
            capacity_bytes: 1024,
            associativity: 2,
            line_bytes: 128,
            policy: ReplPolicy::Lru,
        });
        assert!(!c.access(LineAddr(0), false).is_hit());
        assert!(c.access(LineAddr(1), false).is_hit(), "same 128 B block");
        assert!(!c.access(LineAddr(2), false).is_hit(), "next block");
    }
}
