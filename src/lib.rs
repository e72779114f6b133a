//! # hetero-mem — heterogeneous main memory with on-chip controller support
//!
//! Facade crate for the reproduction of Dong, Xie, Muralimanohar and Jouppi,
//! *"Simple but Effective Heterogeneous Main Memory with On-Chip Memory
//! Controller Support"* (SC 2010). It re-exports the public API of every
//! subsystem crate so applications can depend on a single crate:
//!
//! * [`base`] — cycles, addresses, configuration, statistics.
//! * [`dram`] — the DDR3 timing model with FR-FCFS scheduling.
//! * [`cache`] — SRAM cache hierarchy and the tags-in-DRAM L4 cache.
//! * [`workloads`] — synthetic trace generators for the paper's workloads.
//! * [`core`] — the paper's contribution: the heterogeneity-aware memory
//!   controller with its translation table and migration engine.
//! * [`fault`] — deterministic fault injection: seeded fault plans,
//!   SECDED ECC outcomes, stuck banks, throttle windows, transfer faults.
//! * [`simulator`] — trace-driven system simulation, one run or a parallel grid.
//! * [`power`] — the pJ/bit energy model.
//! * [`serve`] — the concurrent simulation-serving subsystem: HTTP API,
//!   bounded job queue, worker pool, deterministic result cache.
//! * [`telemetry`] — cross-layer event tracing, counters and exporters
//!   (JSONL, Chrome `trace_event`, per-epoch CSV).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use hmm_cache as cache;
pub use hmm_core as core;
pub use hmm_dram as dram;
pub use hmm_fault as fault;
pub use hmm_power as power;
pub use hmm_serve as serve;
pub use hmm_sim_base as base;
pub use hmm_simulator as simulator;
pub use hmm_telemetry as telemetry;
pub use hmm_workloads as workloads;
