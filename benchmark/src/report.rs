//! The benchmark's metric catalogue, checks, spans and result line.

use hmm_telemetry::JsonObject;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Metrics a user of the simulator or the server sees, printed by an
/// untraced run: `(name, unit)`. Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_macc_s", "Macc/s"),
    ("latency_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Metrics of single layers, printed by a traced run. A layer that a
/// workload does not cross reports 0; those metrics are counts and
/// ratios, never times, so every time printed is a measurement.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.next_block_ns_per_acc", "ns"),
    ("workloads.share", "ratio"),
    ("core.access_ns_per_call", "ns"),
    ("core.access_share", "ratio"),
    ("core.advance_ns_per_call", "ns"),
    ("core.advance_ns_p99", "ns"),
    ("core.advance_share", "ratio"),
    ("core.drain_ns_per_call", "ns"),
    ("core.drain_share", "ratio"),
    ("core.flush_ms", "ms"),
    ("stats.record_ns_per_call", "ns"),
    ("stats.share", "ratio"),
    ("trace.layer_coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("core.demand_off_lines", "count"),
    ("core.migration_lines", "count"),
    ("core.stall_cycles", "cycles"),
    ("core.epochs", "count"),
    ("core.swaps_completed", "count"),
    ("core.sub_blocks_copied", "count"),
    ("dram.on.serviced", "count"),
    ("dram.off.serviced", "count"),
    ("dram.on.row_hit_rate", "ratio"),
    ("dram.off.row_hit_rate", "ratio"),
    ("sim.queuing_cycles_mean", "cycles"),
    ("sim.dram_core_cycles_mean", "cycles"),
    ("sim.mean_latency_cycles", "cycles"),
    ("sim.on_package_fraction", "ratio"),
    ("setup.source_ms", "ms"),
    ("setup.scheme_ms", "ms"),
    ("host.cpu_per_wall", "ratio"),
    ("host.sys_share", "ratio"),
    ("host.cpu_s_per_macc", "s/Macc"),
    ("serve.parse_share", "ratio"),
    ("serve.simulate_share", "ratio"),
    ("serve.checkpoint_share", "ratio"),
    ("serve.render_share", "ratio"),
    ("serve.store_put_share", "ratio"),
    ("serve.wait_share", "ratio"),
    ("serve.hit_rate", "ratio"),
    ("serve.sim_runs", "count"),
    ("serve.snapshots_written", "count"),
    ("serve.coalesced", "count"),
    ("serve.hit_over_miss_p50", "ratio"),
    ("serve.miss_p95_over_p50", "ratio"),
];

/// One timed interval: a layer call, a trace block, or a request.
struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log, written out when the benchmark ends. Ids start at
/// 1; parent 0 means "no parent".
pub struct Spans {
    origin: Instant,
    next_id: u64,
    done: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans { origin, next_id: 1, done: Vec::new() }
    }

    /// Reserve an id, so children can name their parent before it ends.
    pub fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    pub fn push(&mut self, name: &'static str, id: u64, parent: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.done.push(Span { name, id, parent, start_ns: ns(start), end_ns: ns(end) });
    }

    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.done {
            let line = JsonObject::new()
                .str("name", s.name)
                .u64("id", s.id)
                .u64("parent", s.parent)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .finish();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// What one benchmark run measured and checked.
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn new() -> Self {
        Report { values: BTreeMap::new(), attempted: 0, failed: 0 }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Count one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {}", what());
        }
    }

    /// Print every metric of the catalogue for this mode, then the result
    /// line, and return whether every check passed. A metric missing from
    /// the run, or one that is not a finite number, fails the run; values
    /// outside this mode's catalogue are not printed.
    pub fn finish(mut self, traced: bool) -> bool {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = JsonObject::new();
        for &(name, unit) in catalogue {
            let value = self.values.remove(name).unwrap_or(f64::NAN);
            if !value.is_finite() {
                self.failed += 1;
                println!("CHECK FAILED: metric {name} was not measured");
            }
            let value = if value.is_finite() { value } else { 0.0 };
            println!("{name} {value} {unit}");
            metrics = metrics
                .raw(name, &JsonObject::new().f64("value", value).str("unit", unit).finish());
        }
        let correct = self.failed == 0;
        println!(
            "{}",
            JsonObject::new()
                .bool("correct", correct)
                .u64("attempted", self.attempted)
                .u64("failed", self.failed)
                .raw("metrics", &metrics.finish())
                .finish()
        );
        correct
    }
}
