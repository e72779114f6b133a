//! Cache models for the heterogeneous-main-memory study.
//!
//! Section II of the paper compares using the on-package DRAM as a *cache*
//! (an L4 behind the SRAM hierarchy) against mapping it into main memory.
//! That comparison needs:
//!
//! * [`set_assoc`] — a generic set-associative LRU cache,
//!   write-back/write-allocate, of up to 16 ways: each set is one block
//!   of tag words and a word of 4-bit recency ranks, 8.5 bytes a way.
//! * [`hierarchy`] — the paper's SRAM hierarchy: private 32 KB L1 and
//!   256 KB L2 per core, shared inclusive 8 MB 16-way L3 (Table II), with
//!   back-invalidation on L3 evictions.
//! * [`dram_cache`] — the tags-in-DRAM L4: a 15-way set-associative cache
//!   living in a 16-way data array, with the tags of each set packed into
//!   the 16th line. Tag and data are read *sequentially*, so a hit costs
//!   two on-package DRAM accesses and a miss determination costs one.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dram_cache;
pub mod hierarchy;
pub mod set_assoc;

pub use dram_cache::{DramCache, DramCacheConfig, L4Outcome};
pub use hierarchy::{AccessResult, Hierarchy, HierarchyConfig, HitLevel, MemRequest};
pub use set_assoc::{AccessOutcome, CacheConfig, CacheStats, SetAssocCache, Victim};
