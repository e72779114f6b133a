//! `hmm-telemetry` — cross-layer event tracing and metrics for the
//! heterogeneous-memory simulator.
//!
//! The paper's evaluation lives or dies on attribution: demand vs.
//! migration traffic, stall epochs, sub-block fill progress. This crate
//! gives every layer a common way to report those, with three design
//! rules:
//!
//! 1. **Zero cost when disabled.** Instrumented code is generic over
//!    [`TelemetrySink`]; the default [`NullSink`] folds every check to a
//!    constant `false`, so a controller built without telemetry compiles
//!    to the same demand path as before the subsystem existed.
//! 2. **Bounded memory.** The concrete [`Recorder`] counts everything but
//!    stores the event timeline in a fixed-capacity, overwrite-oldest ring
//!    buffer ([`EventRing`]).
//! 3. **Machine-readable export.** Event streams render to JSONL
//!    ([`export::write_jsonl`]), Chrome `trace_event` documents viewable
//!    in Perfetto ([`export::write_chrome_trace`]) and a per-epoch CSV
//!    ([`export::write_epoch_csv`]) whose columns sum exactly to the flat
//!    `ControllerStats`/`SwapStats` counters.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod export;
pub mod json;
pub mod jsonin;
pub mod recorder;
pub mod ring;
pub mod sink;
pub mod stream;

pub use event::{DramOutcome, Event, EventKind, FaultClass, PfBit, PfChange, RegionKind};
pub use export::{
    count_kind, epoch_rows, event_to_json, write_chrome_trace, write_epoch_csv, write_jsonl,
    EpochRow,
};
pub use json::{JsonArray, JsonObject, ToJson};
pub use jsonin::Json;
pub use recorder::{
    bank_key, bank_label, demand_class_key, demand_class_label, Counters, KeyedCounters, Recorder,
    RecorderConfig, TelemetryLevel,
};
pub use ring::EventRing;
pub use sink::{NullSink, TelemetrySink};
pub use stream::{epoch_frame, EpochFrameSink, Frame, FrameHub};
