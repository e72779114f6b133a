//! The tags-in-DRAM L4 cache of Section I.
//!
//! Commodity DRAM has no tag arrays, and a multi-gigabyte cache's tags
//! (6.7 % of data) are far too large for the CPU die. The paper therefore
//! "implements a 15-way set associative cache in the space of a 16-way
//! set-associative data array, packing all the tags for a set into the 16th
//! cache line for each set", and accesses *tags first, then data*:
//!
//! * hit  → tag line read + data line read, sequential: **2x** the
//!   on-package DRAM access time (Table II: 140 cycles);
//! * miss → tag line read only (**1x**, 70 cycles), after which the
//!   off-package access proceeds.
//!
//! Functionally it is a 15-way write-back cache; this module wraps
//! [`SetAssocCache`] with that geometry and the sequential-access latency
//! model. The simulator's own tag store mirrors the paper's: a set's 15
//! tag words and its recency ranks fill one 128-byte block (two host
//! cache lines), 8 MiB at the benchmark's 1/8 scale (a 64 MB array) and
//! 64 MiB at Table III's 512 MB.

use crate::set_assoc::{AccessOutcome, CacheConfig, CacheStats, SetAssocCache, Victim};
use hmm_sim_base::addr::LineAddr;
use hmm_sim_base::config::LatencyConfig;
use hmm_sim_base::cycles::Cycle;

/// Shape of the DRAM cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCacheConfig {
    /// Usable *data* capacity in bytes. The paper's 1 GB on-package array
    /// yields 15/16 of that as data: pass the full array size here and the
    /// constructor derives the 15-way usable capacity.
    pub array_bytes: u64,
    /// Line size (64 B).
    pub line_bytes: u32,
}

impl DramCacheConfig {
    /// The paper's 1 GB on-package array.
    pub fn paper_default() -> Self {
        Self { array_bytes: 1 << 30, line_bytes: 64 }
    }

    /// Sets in the array: each set occupies 16 lines (15 data + 1 tag).
    pub fn sets(&self) -> u64 {
        self.array_bytes / (16 * self.line_bytes as u64)
    }

    /// Usable data capacity (15 of every 16 lines).
    pub fn data_bytes(&self) -> u64 {
        self.array_bytes / 16 * 15
    }
}

/// Result of one L4 access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L4Outcome {
    /// Whether the data was present.
    pub hit: bool,
    /// Latency charged for the L4 portion of the access (tag + data on a
    /// hit, tag only on a miss).
    pub latency: Cycle,
    /// A dirty victim that must be written back off-package.
    pub writeback: Option<LineAddr>,
}

/// The DRAM L4 cache.
#[derive(Debug, Clone)]
pub struct DramCache {
    inner: SetAssocCache,
    hit_latency: Cycle,
    tag_latency: Cycle,
}

impl DramCache {
    /// Build the cache. `latency` provides the on-package access time the
    /// sequential tag/data reads are charged at.
    pub fn new(cfg: DramCacheConfig, latency: &LatencyConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "L4 set count must be a power of two");
        let inner = SetAssocCache::new(CacheConfig {
            // 15 ways of data; capacity = sets * 15 * line.
            capacity_bytes: sets * 15 * cfg.line_bytes as u64,
            associativity: 15,
            line_bytes: cfg.line_bytes,
        });
        Self {
            inner,
            hit_latency: latency.l4_hit_analytic(),
            tag_latency: latency.l4_miss_analytic(),
        }
    }

    /// Tag + data hit latency (2x on-package access).
    pub fn hit_latency(&self) -> Cycle {
        self.hit_latency
    }

    /// Miss-determination latency (tag access only).
    pub fn tag_latency(&self) -> Cycle {
        self.tag_latency
    }

    /// Access one line; allocates on miss (the fill happens when the
    /// off-package data returns, which the caller accounts separately).
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> L4Outcome {
        match self.inner.access(line, is_write) {
            AccessOutcome::Hit => {
                L4Outcome { hit: true, latency: self.hit_latency, writeback: None }
            }
            AccessOutcome::Miss(victim) => L4Outcome {
                hit: false,
                latency: self.tag_latency,
                writeback: victim.and_then(|v: Victim| v.dirty.then_some(v.line)),
            },
        }
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Reset counters after warm-up.
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    /// Serialize the tag/data array state for snapshot/resume.
    pub fn save_state(&self, w: &mut hmm_sim_base::snap::SnapWriter) {
        self.inner.save_state(w);
    }

    /// Restore state saved by [`DramCache::save_state`] onto a freshly
    /// constructed cache with the same configuration.
    pub fn load_state(
        &mut self,
        r: &mut hmm_sim_base::snap::SnapReader<'_>,
    ) -> hmm_sim_base::snap::SnapResult<()> {
        self.inner.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> DramCache {
        // A small array for tests: 1 MB.
        DramCache::new(
            DramCacheConfig { array_bytes: 1 << 20, line_bytes: 64 },
            &LatencyConfig::default(),
        )
    }

    #[test]
    fn paper_geometry() {
        let cfg = DramCacheConfig::paper_default();
        // 1 GB / (16 x 64 B) = 1 Mi sets.
        assert_eq!(cfg.sets(), 1 << 20);
        assert_eq!(cfg.data_bytes(), (1u64 << 30) / 16 * 15);
    }

    #[test]
    fn hit_costs_double_access_miss_costs_tag_only() {
        let mut c = mk();
        let miss = c.access(LineAddr(1), false);
        assert!(!miss.hit);
        assert_eq!(miss.latency, 70, "miss determination = one on-package access");
        let hit = c.access(LineAddr(1), false);
        assert!(hit.hit);
        assert_eq!(hit.latency, 140, "hit = sequential tag + data accesses");
    }

    #[test]
    fn fifteen_way_sets() {
        let mut c = mk();
        let sets = DramCacheConfig { array_bytes: 1 << 20, line_bytes: 64 }.sets();
        // Fill one set with 15 distinct lines: all fit.
        for k in 0..15u64 {
            c.access(LineAddr(7 + k * sets), false);
        }
        for k in 0..15u64 {
            assert!(c.access(LineAddr(7 + k * sets), false).hit, "way {k} evicted too early");
        }
        // The 16th conflicting line must evict.
        let out = c.access(LineAddr(7 + 15 * sets), false);
        assert!(!out.hit);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = mk();
        let sets = DramCacheConfig { array_bytes: 1 << 20, line_bytes: 64 }.sets();
        c.access(LineAddr(7), true); // dirty
        for k in 1..=15u64 {
            c.access(LineAddr(7 + k * sets), false);
        }
        // Line 7 was LRU; its eviction must surface as a write-back.
        let evicted: Vec<_> =
            (1..=15u64).map(|k| c.access(LineAddr(7 + k * sets), false)).collect();
        let _ = evicted;
        // Re-fill to make sure the dirty line is gone and was reported.
        // (It was evicted during the loop above.)
        assert!(c.stats().writebacks >= 1);
    }

    /// At 1/8 scale (a 64 MB array) the tag store is 65,536 blocks of
    /// 16 words — 15 tags and the recency ranks, 8.5 bytes a way — and
    /// starts on a 64-byte boundary, so each set fills two host lines.
    #[test]
    fn one_eighth_scale_store_is_65536_blocks_of_16_words() {
        let cfg = DramCacheConfig { array_bytes: 64 << 20, line_bytes: 64 };
        assert_eq!(cfg.sets(), 65_536);
        let c = DramCache::new(cfg, &LatencyConfig::default());
        let blocks = c.inner.blocks();
        assert_eq!(blocks.len(), 65_536 * 16);
        assert_eq!(std::mem::size_of_val(blocks), 8 << 20);
        assert_eq!(blocks.as_ptr() as usize % 64, 0);
    }

    #[test]
    fn latency_model_follows_config() {
        let lat = LatencyConfig { dram_core: 60, ..LatencyConfig::default() };
        let c = DramCache::new(DramCacheConfig { array_bytes: 1 << 20, line_bytes: 64 }, &lat);
        assert_eq!(c.hit_latency(), 2 * lat.on_package_analytic());
        assert_eq!(c.tag_latency(), lat.on_package_analytic());
    }
}
