//! The paper's contribution: a heterogeneity-aware on-chip memory
//! controller that manages a main-memory space spanning fast on-package
//! DRAM and conventional off-package DIMMs, migrating hot data across the
//! package boundary through an extra layer of address translation.
//!
//! * [`table`] — the bi-directional (RAM + CAM) physical-to-machine
//!   translation table with the **P** (pending) bit, the **F** (filling)
//!   bit and the per-slot sub-block bitmap of Figs. 6/7/9.
//! * [`monitor`] — hotness tracking: clock-based pseudo-LRU over the
//!   on-package slots and the three-level multi-queue MRU filter over
//!   off-package macro pages (Section III-B).
//! * [`migrate`] — the hottest-coldest swap algorithm in its three
//!   incarnations: **N** (halt-and-copy), **N-1** (one sacrificed slot +
//!   ghost page Ω, Fig. 8 cases a-d) and **N-1 with live migration**
//!   (critical-data-first sub-block filling, Fig. 9).
//! * [`controller`] — the heterogeneity-aware memory controller of Fig. 3:
//!   translation before scheduling, independent per-region scheduling, and
//!   the migration controller driving background copy traffic.
//! * [`tcache`] — a direct-mapped, generation-validated lookup cache in
//!   front of the translation table so the common no-migration case skips
//!   the full row walk on the demand path.
//! * [`overhead`] — the pure-hardware cost model of Fig. 10 (translation
//!   table + bitmaps + multi-queue bits) and the pure-HW vs. OS-assisted
//!   threshold.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod controller;
pub mod migrate;
pub mod monitor;
pub mod overhead;
pub mod scheme;
pub mod table;
pub mod tcache;

pub use controller::{ControllerConfig, ControllerStats, HeteroController, Mode};
pub use migrate::{MigrationDesign, MigrationEngine, SwapStats};
pub use monitor::{MultiQueueMru, SlotClock};
pub use overhead::{hardware_bits, HardwareOverhead, OS_ASSIST_THRESHOLD_BYTES};
pub use scheme::{
    build_scheme, validate_scheme, L4CacheScheme, MigrationPolicy, PlacementScheme, SchemeId,
};
pub use table::{MachinePage, RowState, TranslationTable};
pub use tcache::TranslationCache;
