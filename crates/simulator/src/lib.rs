//! Trace-driven system simulation tying the workloads, the cache models,
//! the heterogeneity-aware controller and the DRAM timing model together.
//!
//! * [`driver`] — run one workload trace through a configured
//!   [`hmm_core::HeteroController`] and collect latency/traffic statistics
//!   (the Section IV trace methodology); [`driver::run_grid`] runs a list
//!   of such configurations in parallel, which is how the paper's grids
//!   (Table IV, Figs. 11–16) are simulated once a sweep spec has been
//!   expanded into cells.
//! * [`missrate`] — the Fig. 4 experiment: LLC miss rate as a function of
//!   L3 capacity.
//! * [`ipc`] — the Fig. 5 experiment: a blocking in-order core model
//!   comparing baseline / L4 cache / static mapping / all-on-package.
//! * [`snapshot`] — the versioned, checksummed snapshot container behind
//!   [`driver::run_resumable`]'s crash-safe capture/resume.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod driver;
pub mod ipc;
pub mod missrate;
pub mod snapshot;
pub mod wire;

pub use driver::{run, run_grid, run_resumable, run_with_sink, RunConfig, RunResult, SnapshotCtl};
pub use ipc::{ipc_for, Fig5Option, IpcResult};
pub use missrate::l3_miss_rates;
pub use snapshot::{SnapshotMeta, ENGINE_VERSION};
