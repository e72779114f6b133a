//! `hmm-serve` — the concurrent simulation-serving subsystem.
//!
//! The simulator's entry point, [`hmm_simulator::driver::run`], is a pure
//! function: one [`RunConfig`](hmm_simulator::driver::RunConfig) in, one
//! bit-deterministic [`RunResult`](hmm_simulator::driver::RunResult) out.
//! That makes it exactly the kind of compute kernel a serving layer is
//! built around, and this crate builds that layer with the same
//! no-external-dependencies discipline as the rest of the workspace:
//!
//! * **[`http`]** — minimal HTTP/1.1 framing over `std::net`, with read
//!   and write deadlines so slow clients cannot pin a handler thread.
//! * **[`request`]** — the JSON wire format: request bodies parse into a
//!   validated `RunConfig` plus a *canonical form* whose hash is the
//!   cache key. Two requests that mean the same simulation — whatever
//!   their whitespace or field order — share one key.
//! * **[`queue`]** — a bounded FIFO job queue. When it is full the
//!   server answers `429` immediately instead of letting latency grow
//!   without bound (backpressure, not buffering).
//! * **[`jobs`]** — job lifecycle: queued → running → done / failed,
//!   with cancellation for queued jobs and a bounded-retention registry
//!   backing the async `POST /v1/jobs` + `GET /v1/jobs/<id>` API.
//! * **[`cache`]** — an LRU result cache storing rendered response
//!   bodies. Sound because runs are bit-deterministic: a cache hit is
//!   byte-identical to re-running the simulation.
//! * **[`metrics`]** — server counters (accepted / rejected / cache hit
//!   / in-flight / latency histogram) plus merged per-run
//!   `ControllerStats`/`SwapStats` digests, exported as JSON from
//!   `GET /metrics` and reconciled by `hmm-loadgen --check`.
//! * **[`server`]** — the accept loop, connection handlers, the fixed
//!   worker pool running simulations, and graceful drain: a shutdown
//!   request stops admission, finishes every queued job, then exits.
//! * **[`store`]** — the durable result store behind `--store-dir`: a
//!   content-addressed on-disk mirror of the result cache plus job
//!   checkpoints, written atomically and verified on every read, so a
//!   SIGKILL'd server restarts warm and resumes in-flight jobs.
//! * **[`traces`]** — the durable trace registry behind `/v1/traces`
//!   (and `hmm-sim --trace-dir`): validated `HMT1` uploads keyed by
//!   content hash. It and [`store`] share one private blob-directory
//!   implementation; only their header fields and durability differ.
//! * **[`client`]** — a tiny blocking HTTP client shared by
//!   `hmm-loadgen`, the coordinator's peer RPC, and the end-to-end
//!   tests.
//! * **[`sweeps`]** — `POST /v1/sweeps`: grid expansion (via
//!   `hmm-sweep`), canonical-hash dedup, fan-out across the worker pool
//!   or — with `--peers` — a cluster sharded by consistent hashing,
//!   with work stealing, bounded retries on peer death, and a final
//!   `hmm-sweep-figures-v1` document that is byte-identical to an
//!   in-process run over the same cells.
//!
//! Two binaries ship with the crate: `hmm-serve` (the server; SIGTERM or
//! `POST /admin/shutdown` triggers the graceful drain) and `hmm-loadgen`
//! (a concurrent load generator printing throughput and latency
//! percentiles, with a `--check` mode that reconciles its client-side
//! counts against the server's `/metrics`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod blob;
pub mod cache;
pub mod client;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod queue;
pub mod request;
pub mod response;
pub mod server;
pub mod store;
pub mod sweeps;
pub mod traces;

pub use cache::LruCache;
pub use jobs::{Job, JobRegistry, JobState};
pub use metrics::ServerMetrics;
pub use queue::JobQueue;
pub use request::SimRequest;
pub use server::{Server, ServerConfig};
pub use store::Store;
pub use traces::TraceRegistry;
