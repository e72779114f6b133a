//! Scenario: record a synthetic trace to disk and replay it — the exact
//! workflow of the paper's Section IV methodology ("we collected the
//! memory trace from a detailed full-system simulator"), which also lets
//! externally captured traces drive this simulator.
//!
//! The replay takes the same path as `hmm-sim --trace-in <file>`: decode
//! the file, register it under its content hash, and name it in
//! `RunConfig::trace` for the driver.
//!
//! Run with: `cargo run --release --example trace_files`

use hetero_mem::base::config::SimScale;
use hetero_mem::core::{MigrationDesign, Mode};
use hetero_mem::simulator::driver::{run, RunConfig, TraceRef};
use hetero_mem::workloads::{replay, workload, write_binary, WorkloadId};
use std::io;
use std::sync::Arc;

fn main() -> io::Result<()> {
    let scale = SimScale { divisor: 64 };
    let path = std::env::temp_dir().join(format!("indexer-{}.hmt", std::process::id()));

    // 1. Record 200k accesses of the indexer workload.
    let mut bytes = Vec::new();
    let written =
        write_binary(&mut bytes, workload(WorkloadId::Indexer, &scale).iter(42).take(200_000))?;
    std::fs::write(&path, &bytes)?;
    println!("recorded {written} accesses to {}", path.display());
    println!(
        "file size: {} bytes ({:.1} B/record vs 18 B naive)",
        bytes.len(),
        bytes.len() as f64 / written as f64
    );

    // 2. Decode the file and register it for replay.
    let data = replay::decode(&std::fs::read(&path)?)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    std::fs::remove_file(&path)?;
    let summary = data.summary;
    replay::register(Arc::new(data));

    // 3. Replay it through the heterogeneity-aware controller. With a
    //    trace set, the footprint comes from the trace's own addresses.
    let r = run(&RunConfig {
        scale,
        page_shift: 16,
        swap_interval: 1_000,
        accesses: summary.records,
        warmup: summary.records / 10,
        trace: Some(TraceRef::from_summary(&summary)),
        ..RunConfig::paper(WorkloadId::Indexer, Mode::Dynamic(MigrationDesign::LiveMigration))
    });
    println!(
        "replayed trace {}: {} accesses after warm-up, {:.1} cycles average, {} swaps",
        summary.id(),
        r.access.latency.count(),
        r.mean_latency(),
        r.swaps.map_or(0, |s| s.completed)
    );
    Ok(())
}
