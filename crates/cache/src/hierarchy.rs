//! The SRAM cache hierarchy of the paper's quad-core target (Table II):
//! private L1 (32 KB, 8-way, 2 cycles) and L2 (256 KB, 8-way, 5 cycles) per
//! core, and a shared, inclusive L3 (8 MB, 16-way, 25 cycles).
//!
//! Inclusion is enforced the way the paper's Intel-i7-like target does it:
//! when a line leaves the L3, any copies in the private levels are
//! back-invalidated; a dirty private copy folds its data into the L3
//! victim's write-back.

use crate::set_assoc::{AccessOutcome, CacheConfig, SetAssocCache};
use hmm_sim_base::addr::{LineAddr, PhysAddr};
use hmm_sim_base::cycles::Cycle;

/// Latency and shape of the three SRAM levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of cores (private L1/L2 pairs).
    pub cores: usize,
    /// Per-core L1 data cache shape.
    pub l1: CacheConfig,
    /// L1 hit latency.
    pub l1_latency: Cycle,
    /// Per-core L2 shape.
    pub l2: CacheConfig,
    /// L2 hit latency.
    pub l2_latency: Cycle,
    /// Shared L3 shape.
    pub l3: CacheConfig,
    /// L3 hit latency.
    pub l3_latency: Cycle,
}

impl HierarchyConfig {
    /// The paper's Table II configuration.
    pub fn paper_default() -> Self {
        Self {
            cores: 4,
            l1: CacheConfig::new(32 << 10, 8),
            l1_latency: 2,
            l2: CacheConfig::new(256 << 10, 8),
            l2_latency: 5,
            l3: CacheConfig::new(8 << 20, 16),
            l3_latency: 25,
        }
    }

    /// Same hierarchy with a different L3 capacity (the Fig. 4 sweep).
    pub fn with_l3_capacity(mut self, bytes: u64) -> Self {
        self.l3.capacity_bytes = bytes;
        self
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Hit in the private L1.
    L1,
    /// Hit in the private L2.
    L2,
    /// Hit in the shared L3.
    L3,
    /// Missed the SRAM hierarchy entirely: main memory (or L4) must serve.
    Memory,
}

/// A demand request the hierarchy emits towards memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Line to fetch.
    pub line: LineAddr,
    /// Whether the originating instruction was a store (the memory system
    /// sees a read-for-ownership either way; this flag is kept for power
    /// accounting).
    pub is_write: bool,
}

/// Result of pushing one access through the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessResult {
    /// Deepest level consulted.
    pub level: HitLevel,
    /// SRAM lookup latency (cumulative over the levels consulted). Memory
    /// latency is added by the caller.
    pub latency: Cycle,
    /// Demand fetch to send to memory, if the access missed everywhere.
    pub memory: Option<MemRequest>,
    /// Dirty lines leaving the L3 (write-backs towards memory).
    pub writebacks: Vec<LineAddr>,
}

/// The three-level hierarchy.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    l3: SetAssocCache,
}

impl Hierarchy {
    /// Build an empty hierarchy. Panics on invalid configuration.
    pub fn new(cfg: HierarchyConfig) -> Self {
        assert!(cfg.cores > 0, "need at least one core");
        Self {
            l1: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l2)).collect(),
            l3: SetAssocCache::new(cfg.l3),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Shared-L3 statistics (the "LLC miss rate" of Fig. 4).
    pub fn l3_stats(&self) -> crate::set_assoc::CacheStats {
        self.l3.stats()
    }

    /// Reset all statistics (after warm-up), keeping contents.
    pub fn reset_stats(&mut self) {
        for c in &mut self.l1 {
            c.reset_stats();
        }
        for c in &mut self.l2 {
            c.reset_stats();
        }
        self.l3.reset_stats();
    }

    /// Run one demand access from `core` through the hierarchy.
    pub fn access(&mut self, core: usize, addr: PhysAddr, is_write: bool) -> AccessResult {
        assert!(core < self.cfg.cores, "core index out of range");
        let line = addr.line();
        let mut latency = self.cfg.l1_latency;
        let mut writebacks = Vec::new();

        // L1. A dirty victim's data folds into the inclusive L3 (the line
        // is guaranteed present there), keeping write-back accounting
        // correct without cascading private-level fills.
        match self.l1[core].access(line, is_write) {
            AccessOutcome::Hit => {
                return AccessResult { level: HitLevel::L1, latency, memory: None, writebacks };
            }
            AccessOutcome::Miss(Some(v)) if v.dirty => self.l3.mark_dirty(v.line),
            AccessOutcome::Miss(_) => {}
        }

        latency += self.cfg.l2_latency;
        match self.l2[core].access(line, is_write) {
            AccessOutcome::Hit => {
                return AccessResult { level: HitLevel::L2, latency, memory: None, writebacks };
            }
            AccessOutcome::Miss(Some(v)) if v.dirty => self.l3.mark_dirty(v.line),
            AccessOutcome::Miss(_) => {}
        }

        latency += self.cfg.l3_latency;
        match self.l3.access(line, is_write) {
            AccessOutcome::Hit => {
                AccessResult { level: HitLevel::L3, latency, memory: None, writebacks }
            }
            AccessOutcome::Miss(victim) => {
                if let Some(v) = victim {
                    // Inclusive L3: evicting a line expels it from every
                    // private cache. A dirty private copy makes the
                    // write-back mandatory.
                    let mut dirty = v.dirty;
                    for c in 0..self.cfg.cores {
                        if let Some(d) = self.l1[c].invalidate(v.line) {
                            dirty |= d;
                        }
                        if let Some(d) = self.l2[c].invalidate(v.line) {
                            dirty |= d;
                        }
                    }
                    if dirty {
                        writebacks.push(v.line);
                    }
                }
                AccessResult {
                    level: HitLevel::Memory,
                    latency,
                    memory: Some(MemRequest { line, is_write }),
                    writebacks,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        // Small enough to force evictions quickly.
        Hierarchy::new(HierarchyConfig {
            cores: 2,
            l1: CacheConfig::new(256, 2),
            l1_latency: 2,
            l2: CacheConfig::new(512, 2),
            l2_latency: 5,
            l3: CacheConfig::new(1024, 2),
            l3_latency: 25,
        })
    }

    fn addr(line: u64) -> PhysAddr {
        PhysAddr(line * 64)
    }

    #[test]
    fn paper_config_shapes() {
        let h = Hierarchy::new(HierarchyConfig::paper_default());
        assert_eq!(h.config().l3.sets(), 8192);
        assert_eq!(h.config().cores, 4);
    }

    #[test]
    fn first_access_misses_to_memory_then_l1_hits() {
        let mut h = tiny();
        let r = h.access(0, addr(1), false);
        assert_eq!(r.level, HitLevel::Memory);
        assert!(r.memory.is_some());
        assert_eq!(r.latency, 2 + 5 + 25);
        let r2 = h.access(0, addr(1), false);
        assert_eq!(r2.level, HitLevel::L1);
        assert_eq!(r2.latency, 2);
    }

    #[test]
    fn sibling_core_hits_in_shared_l3() {
        let mut h = tiny();
        h.access(0, addr(1), false);
        let r = h.access(1, addr(1), false);
        assert_eq!(r.level, HitLevel::L3);
        assert_eq!(r.latency, 2 + 5 + 25);
    }

    #[test]
    fn l3_eviction_back_invalidates_private_copies() {
        let mut h = tiny();
        // L3: 1024 B, 2-way, 64 B lines -> 8 sets; lines k, k+8, k+16 share
        // a set.
        h.access(0, addr(1), false);
        h.access(0, addr(9), false);
        // Third conflicting line evicts one of them from L3 -> must also
        // leave the L1.
        h.access(0, addr(17), false);
        let in_l3_1 = h.l3.contains(hmm_sim_base::addr::LineAddr(1));
        let in_l1_1 = h.l1[0].contains(hmm_sim_base::addr::LineAddr(1));
        assert!(!in_l1_1 || in_l3_1, "inclusion violated: line 1 in L1 but not in L3");
    }

    #[test]
    fn dirty_l1_copy_forces_writeback_on_l3_eviction() {
        let mut h = tiny();
        h.access(0, addr(1), true); // dirty in L1 (and allocated everywhere)
        h.access(0, addr(9), false);
        let r = h.access(0, addr(17), false); // evicts line 1 or 9 from L3
        let evicted_dirty = !r.writebacks.is_empty();
        // Line 1 is the LRU victim in L3 set 1; it was dirty in L1.
        assert!(evicted_dirty, "expected a write-back from the dirty private copy");
        assert_eq!(r.writebacks[0], hmm_sim_base::addr::LineAddr(1));
    }

    #[test]
    fn memory_requests_only_on_l3_miss() {
        let mut h = tiny();
        let r1 = h.access(0, addr(1), false);
        assert!(r1.memory.is_some());
        let r2 = h.access(0, addr(1), false);
        assert!(r2.memory.is_none());
        let r3 = h.access(1, addr(1), false);
        assert!(r3.memory.is_none(), "L3 hit needs no memory access");
    }

    #[test]
    fn l3_miss_rate_tracks_working_set() {
        let mut h = Hierarchy::new(HierarchyConfig::paper_default().with_l3_capacity(1 << 20));
        // Working set of 4 MB streamed four times: should miss heavily in a
        // 1 MB L3.
        let lines = (4 << 20) / 64;
        for _ in 0..4 {
            for l in 0..lines {
                h.access((l % 4) as usize, addr(l), false);
            }
        }
        assert!(h.l3_stats().miss_rate() > 0.9);

        // The same working set in an 8 MB L3: exactly the cold misses
        // (one per distinct line), nothing recurring.
        let mut big = Hierarchy::new(HierarchyConfig::paper_default());
        for _ in 0..4 {
            for l in 0..lines {
                big.access((l % 4) as usize, addr(l), false);
            }
        }
        assert_eq!(big.l3_stats().misses(), lines);
    }

    #[test]
    #[should_panic(expected = "core index")]
    fn rejects_bad_core_index() {
        let mut h = tiny();
        h.access(5, addr(0), false);
    }

    #[test]
    fn reset_stats_clears_counts() {
        let mut h = tiny();
        h.access(0, addr(1), false);
        h.reset_stats();
        assert_eq!(h.l3_stats().accesses, 0);
    }
}
