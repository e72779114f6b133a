//! Foundations shared by every crate in the heterogeneous-main-memory
//! reproduction of Dong et al., *"Simple but Effective Heterogeneous Main
//! Memory with On-Chip Memory Controller Support"* (SC 2010).
//!
//! This crate deliberately contains no simulation logic. It provides the
//! vocabulary the rest of the workspace is written in:
//!
//! * [`cycles`] — the CPU-cycle time base (3.2 GHz in the paper) and
//!   conversions from wall-clock/DRAM-clock units.
//! * [`addr`] — strongly-typed physical and machine addresses, macro-page
//!   and sub-block arithmetic. The extra *physical → machine* indirection is
//!   the paper's core idea, so the type system enforces which address space a
//!   value lives in.
//! * [`config`] — the Table II/Table III machine description (latencies,
//!   capacities, macro-page geometry) with validation.
//! * [`rng`] — a small, deterministic xoshiro256** PRNG so traces are
//!   reproducible across platforms and toolchain bumps.
//! * [`fxhash`] — a deterministic integer-key hasher for the simulator's
//!   hot-path bookkeeping maps (ids, tokens, slot indices).
//! * [`arena`] — an index-handle [`arena::Slab`] arena replacing
//!   hash maps for hot-path object lifetimes (in-flight migration legs).
//! * [`par`] — a scoped-thread `par_map` for the embarrassingly parallel
//!   experiment grids.
//! * [`stats`] — running means, log-scaled histograms and latency-breakdown
//!   accumulators used by the simulator and the figure harness.
//! * [`snap`] — byte-level [`snap::SnapWriter`]/[`snap::SnapReader`]
//!   primitives for the deterministic snapshot/resume format (tagged,
//!   length-prefixed, bounds-checked sections).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addr;
pub mod arena;
pub mod config;
pub mod cycles;
pub mod fxhash;
pub mod par;
pub mod rng;
pub mod snap;
pub mod stats;

pub use addr::{LineAddr, MachineAddr, MacroPageId, PhysAddr, SlotId, SubBlockId};
pub use arena::Slab;
pub use config::{LatencyConfig, MemoryGeometry, SimScale};
pub use cycles::Cycle;
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use par::{par_map, worker_threads};
pub use rng::SimRng;
pub use snap::{SnapReader, SnapResult, SnapWriter};
pub use stats::{Histogram, LatencyBreakdown, RunningMean};
