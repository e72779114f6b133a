//! Synthetic memory-trace generators for the paper's workloads.
//!
//! The original study collected main-memory traces from a full-system
//! simulator (COTSon) running NPB 3.3, a SPEC2006 mixture, pgbench, a Nutch
//! indexer and SPECjbb2005. Those traces are proprietary-toolchain
//! artefacts, so this crate synthesises equivalent streams instead: each
//! workload is described by its memory footprint (paper Table I/III), its
//! memory intensity, and a mixture of access patterns chosen to match the
//! qualitative locality class of the original program (streaming FFT
//! transposes, multigrid V-cycles, zipfian OLTP, pointer chasing, ...).
//! The migration study depends on exactly these properties — footprint and
//! page-level temporal locality — not on instruction semantics, which is
//! why the substitution preserves the experiments (DESIGN.md section 2).
//!
//! * [`trace`] — the trace record type (physical address, CPU ID,
//!   timestamp, read/write — the fields the paper's trace files record).
//! * [`pattern`] — composable address-stream primitives (sweeps, zipf
//!   pages, pointer chases, V-cycles, uniform noise).
//! * [`catalog`] — the named workloads of Tables I and III with their
//!   footprints and pattern mixtures.
//! * [`trace_io`] — trace-file export/import in the compact binary HMT1
//!   format, matching the paper's trace-driven methodology.
//! * [`replay`] — the registry of validated traces, kept `HMT1`-encoded,
//!   and the replay cursor that decodes them back through the simulation
//!   driver.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod pattern;
pub mod replay;
pub mod trace;
pub mod trace_io;

pub use catalog::{footprint_bytes, npb_footprint_mb, workload, WorkloadId};
pub use pattern::Pattern;
pub use replay::{ReplayIter, TraceData, TraceSource, TraceSummary};
pub use trace::{TraceIter, TraceRecord, Workload};
pub use trace_io::{write_binary, BinaryTraceReader};
