//! The traced replica of the driver loop.
//!
//! `hmm_simulator::driver::run` gives no view inside itself, so the traced
//! run rebuilds its per-record loop from the layers' public functions and
//! times each call: `TraceSource::next_block` (workloads),
//! `PlacementScheme::{access, advance, drain_completed_into, flush}`
//! (core, which owns the DRAM channels), and `AccessStats::record`
//! (sim-base). The replica must produce the same `RunResult` digest as
//! `driver::run`, which is how the benchmark knows it traced the same
//! program.

use crate::report::Spans;
use hmm_core::controller::DemandCompletion;
use hmm_core::{build_scheme, ControllerConfig, PlacementScheme};
use hmm_dram::DeviceProfile;
use hmm_sim_base::config::MachineConfig;
use hmm_sim_base::stats::AccessStats;
use hmm_simulator::driver::{RunConfig, RunResult};
use hmm_telemetry::NullSink;
use hmm_workloads::replay::{self, ReplayIter};
use hmm_workloads::{workload, TraceSource};
use std::time::{Duration, Instant};

/// Records per generated block, as in the driver. Block size changes
/// generator locality only, never the record stream.
const TRACE_BLOCK: usize = 4096;

/// The driver's record source for `cfg`, and the run's display name.
pub fn source(cfg: &RunConfig) -> (String, TraceSource) {
    match &cfg.trace {
        Some(t) => {
            let data = replay::lookup(t.hash).expect("replay trace is registered during set-up");
            (format!("trace:{}", t.id()), TraceSource::Replay(ReplayIter::new(data)))
        }
        None => {
            let w = workload(cfg.workload, &cfg.scale);
            (w.name.clone(), TraceSource::Synthetic(w.iter(cfg.seed)))
        }
    }
}

/// The driver's scheme for `cfg`.
pub fn scheme(cfg: &RunConfig) -> Box<dyn PlacementScheme> {
    let machine = MachineConfig { geometry: cfg.geometry(), ..MachineConfig::default() };
    let ctrl = ControllerConfig {
        machine,
        mode: cfg.mode,
        swap_interval: cfg.swap_interval,
        os_assisted: cfg.os_assisted,
        max_outstanding_copies: 16,
        copy_pace_cycles_per_line: 20,
        policy: cfg.policy,
        on_profile: DeviceProfile::on_package(),
        off_profile: DeviceProfile::off_package_ddr3(),
        faults: cfg.faults,
    };
    build_scheme(cfg.scheme, ctrl, cfg.migration, NullSink)
}

/// Host time per layer, summed over every traced run.
#[derive(Debug, Default)]
pub struct Layers {
    source: Vec<f64>,
    scheme: Vec<f64>,
    loop_ns: u64,
    next_block_ns: u64,
    records: u64,
    access_ns: u64,
    advance_ns: u64,
    drain_ns: u64,
    drains: u64,
    record_ns: u64,
    recorded: u64,
    flush_ns: u64,
    flushes: u64,
    /// The 99th percentile of `advance` call times, one per run.
    advance_p99_ns: Vec<f64>,
    advance_samples: Vec<u32>,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

impl Layers {
    /// Run `cfg` through the traced loop. One span covers the run and one
    /// each trace block, under `parent`.
    pub fn run(&mut self, cfg: &RunConfig, spans: &mut Spans, parent: u64) -> RunResult {
        let run_id = spans.id();
        let run_start = Instant::now();
        let (workload_name, mut trace) = source(cfg);
        let t = Instant::now();
        self.source.push(t.duration_since(run_start).as_secs_f64() * 1e3);
        let mut ctrl = scheme(cfg);
        let loop_start = Instant::now();
        self.scheme.push(loop_start.duration_since(t).as_secs_f64() * 1e3);

        let mut access = AccessStats::new();
        let mut warmup_boundary_id = if cfg.warmup == 0 { Some(0u64) } else { None };
        let mut stash: Vec<DemandCompletion> = Vec::new();
        let mut drained: Vec<DemandCompletion> = Vec::new();
        let mut submitted = 0u64;
        let mut block = Vec::new();
        let mut remaining = cfg.accesses as usize;
        self.advance_samples.clear();
        while remaining > 0 {
            let n = remaining.min(TRACE_BLOCK);
            let block_start = Instant::now();
            trace.next_block(&mut block, n);
            // Each layer's time runs from the end of the previous timed
            // call, so the loop's own bookkeeping is charged to the call
            // that follows it and two clock reads per record suffice.
            let mut t = Instant::now();
            self.next_block_ns += ns(t - block_start);
            self.records += n as u64;
            remaining -= n;
            for rec in &block {
                let id = ctrl.access(rec.tick, rec.addr, rec.is_write);
                let t1 = Instant::now();
                submitted += 1;
                if submitted == cfg.warmup {
                    warmup_boundary_id = Some(id);
                }
                ctrl.advance(rec.tick);
                let t2 = Instant::now();
                self.access_ns += ns(t1 - t);
                self.advance_ns += ns(t2 - t1);
                self.advance_samples.push(ns(t2 - t1).min(u64::from(u32::MAX)) as u32);
                t = t2;
                if submitted.is_multiple_of(64) {
                    match warmup_boundary_id {
                        Some(b) => {
                            ctrl.drain_completed_into(&mut drained);
                            let t3 = Instant::now();
                            for c in drained.drain(..) {
                                if c.id > b {
                                    access.record(&c.breakdown, c.is_write, c.on_package);
                                    self.recorded += 1;
                                }
                            }
                            let t4 = Instant::now();
                            self.drain_ns += ns(t3 - t);
                            self.record_ns += ns(t4 - t3);
                            t = t4;
                        }
                        None => {
                            ctrl.drain_completed_into(&mut stash);
                            let t3 = Instant::now();
                            self.drain_ns += ns(t3 - t);
                            t = t3;
                        }
                    }
                    self.drains += 1;
                }
            }
            let id = spans.id();
            spans.push("sim.block", id, run_id, block_start, t);
        }
        let t = Instant::now();
        ctrl.flush();
        let t1 = Instant::now();
        ctrl.drain_completed_into(&mut stash);
        let t2 = Instant::now();
        self.flush_ns += ns(t1 - t);
        self.flushes += 1;
        self.drain_ns += ns(t2 - t1);
        self.drains += 1;
        let boundary = warmup_boundary_id.unwrap_or(u64::MAX);
        for c in stash {
            if c.id > boundary {
                access.record(&c.breakdown, c.is_write, c.on_package);
                self.recorded += 1;
            }
        }
        let end = Instant::now();
        self.record_ns += ns(end - t2);
        self.loop_ns += ns(end - loop_start);
        spans.push("sim.replica", run_id, parent, run_start, end);

        if !self.advance_samples.is_empty() {
            let i = (self.advance_samples.len() - 1) * 99 / 100;
            let (_, p99, _) = self.advance_samples.select_nth_unstable(i);
            self.advance_p99_ns.push(f64::from(*p99));
        }

        let (on_region, off_region) = ctrl.region_stats();
        RunResult {
            workload: workload_name,
            access,
            controller: ctrl.stats(),
            swaps: ctrl.swap_stats(),
            on_region,
            off_region,
            geometry: cfg.geometry(),
            wear: ctrl.wear(),
        }
    }

    /// The per-layer time metrics of the traced loop.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let per = |t: u64, n: u64| t as f64 / n.max(1) as f64;
        let share = |t: u64| t as f64 / self.loop_ns.max(1) as f64;
        let covered = self.next_block_ns
            + self.access_ns
            + self.advance_ns
            + self.drain_ns
            + self.record_ns
            + self.flush_ns;
        vec![
            ("workloads.next_block_ns_per_acc", per(self.next_block_ns, self.records)),
            ("workloads.share", share(self.next_block_ns)),
            ("core.access_ns_per_call", per(self.access_ns, self.records)),
            ("core.access_share", share(self.access_ns)),
            ("core.advance_ns_per_call", per(self.advance_ns, self.records)),
            ("core.advance_ns_p99", crate::stats::median(&self.advance_p99_ns)),
            ("core.advance_share", share(self.advance_ns)),
            ("core.drain_ns_per_call", per(self.drain_ns, self.drains)),
            ("core.drain_share", share(self.drain_ns)),
            ("core.flush_ms", per(self.flush_ns, self.flushes) / 1e6),
            ("stats.record_ns_per_call", per(self.record_ns, self.recorded)),
            ("stats.share", share(self.record_ns)),
            ("trace.layer_coverage", share(covered)),
            ("setup.source_ms", crate::stats::median(&self.source)),
            ("setup.scheme_ms", crate::stats::median(&self.scheme)),
        ]
    }
}

/// Exact simulated counters, summed over runs.
#[derive(Debug, Default)]
pub struct Counters {
    demand_off_lines: u64,
    migration_lines: u64,
    stall_cycles: u64,
    epochs: u64,
    swaps_completed: u64,
    sub_blocks_copied: u64,
    on_serviced: u64,
    on_row_hits: u64,
    off_serviced: u64,
    off_row_hits: u64,
    accesses: u64,
    on_package: u64,
    latency: u128,
    queuing: u128,
    dram_core: u128,
}

impl Counters {
    pub fn absorb(&mut self, r: &RunResult) {
        let c = &r.controller;
        self.demand_off_lines += c.demand_off_lines;
        self.migration_lines += c.migration_on_lines + c.migration_off_lines;
        self.stall_cycles += c.stall_cycles;
        self.epochs += c.epochs;
        if let Some(s) = &r.swaps {
            self.swaps_completed += s.completed;
            self.sub_blocks_copied += s.sub_blocks_copied;
        }
        self.on_serviced += r.on_region.serviced;
        self.on_row_hits += r.on_region.row_hits;
        self.off_serviced += r.off_region.serviced;
        self.off_row_hits += r.off_region.row_hits;
        self.accesses += r.access.latency.count();
        self.on_package += r.access.on_package_hits;
        self.latency += r.access.latency.total();
        self.queuing += r.access.queuing.total();
        self.dram_core += r.access.dram_core.total();
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mean = |t: u128| if self.accesses == 0 { 0.0 } else { t as f64 / self.accesses as f64 };
        vec![
            ("core.demand_off_lines", self.demand_off_lines as f64),
            ("core.migration_lines", self.migration_lines as f64),
            ("core.stall_cycles", self.stall_cycles as f64),
            ("core.epochs", self.epochs as f64),
            ("core.swaps_completed", self.swaps_completed as f64),
            ("core.sub_blocks_copied", self.sub_blocks_copied as f64),
            ("dram.on.serviced", self.on_serviced as f64),
            ("dram.off.serviced", self.off_serviced as f64),
            ("dram.on.row_hit_rate", ratio(self.on_row_hits, self.on_serviced)),
            ("dram.off.row_hit_rate", ratio(self.off_row_hits, self.off_serviced)),
            ("sim.queuing_cycles_mean", mean(self.queuing)),
            ("sim.dram_core_cycles_mean", mean(self.dram_core)),
            ("sim.mean_latency_cycles", mean(self.latency)),
            ("sim.on_package_fraction", ratio(self.on_package, self.accesses)),
        ]
    }
}
