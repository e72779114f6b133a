//! The three simulator workloads, measured through `driver::run`.
//!
//! * `mg-live` — MG under live migration at 1/64 scale. MG's off-package
//!   stream and the live-migration copy legs keep the DRAM channel queues
//!   deep, so `advance` (channel scheduling, copy legs, the per-advance
//!   channel fan-out) dominates. DRAM and migration changes show here.
//! * `pgbench-static-full` — pgbench under static mapping at the paper's
//!   Table III geometry (4 GB / 512 MB, scale 1). No migration and no
//!   fan-out: trace generation, the demand path and statistics over
//!   paper-size tables dominate. The bypass case for migration and DRAM
//!   fan-out changes.
//! * `pgbench-l4cache-replay` — a recorded pgbench trace replayed through
//!   the DRAM-cache strawman (`l4cache`, mode `off`). Cache tag probes
//!   replace translation and migration, and replay replaces generation:
//!   it exercises the cache layer and bypasses both the generator and the
//!   migration engine.

use crate::digest::digest;
use crate::replica::{self, Counters, Layers};
use crate::report::{Report, Spans, PER_LAYER};
use crate::{host, stats, Opts};
use hmm_core::{MigrationDesign, Mode, SchemeId};
use hmm_sim_base::config::SimScale;
use hmm_simulator::driver::{self, RunConfig, RunResult, TraceRef};
use hmm_workloads::{replay, workload, write_binary, WorkloadId};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Timed cycles per run, at least, however short `--seconds` is.
const MIN_CYCLES: usize = 3;
/// Records in the replayed trace.
const TRACE_RECORDS: usize = 1_000_000;
/// Scale the replayed trace is generated at, and replayed at.
const TRACE_SCALE: SimScale = SimScale { divisor: 8 };

#[derive(Debug, Clone, Copy)]
pub enum Sim {
    MgLive,
    PgbenchStaticFull,
    PgbenchL4cacheReplay,
}

impl Sim {
    /// The run configuration, with every size divided by `divisor` (the
    /// epoch too, so a small run still migrates).
    fn config(self, seed: u64, divisor: u64) -> RunConfig {
        let mut cfg = match self {
            Sim::MgLive => RunConfig {
                accesses: 30_000,
                warmup: 3_000,
                ..RunConfig::quick(WorkloadId::Mg, Mode::Dynamic(MigrationDesign::LiveMigration))
            },
            Sim::PgbenchStaticFull => {
                RunConfig { page_shift: 16, ..RunConfig::paper(WorkloadId::Pgbench, Mode::Static) }
            }
            Sim::PgbenchL4cacheReplay => RunConfig {
                scale: TRACE_SCALE,
                page_shift: 16,
                warmup: 100_000,
                scheme: SchemeId::L4Cache,
                ..RunConfig::paper(WorkloadId::Pgbench, Mode::AllOffPackage)
            },
        };
        cfg.seed = seed;
        cfg.accesses /= divisor;
        cfg.warmup /= divisor;
        cfg.swap_interval /= divisor;
        cfg
    }

    /// Traces simulated per cycle, in turn, with seeds derived from
    /// `--seed`. An `mg-live` trace's host cost depends on its seed — one
    /// can cost 1.7 times another's, on every repetition — so `mg-live`
    /// averages eight seeds per cycle. pgbench's cost does not depend on
    /// its seed, and the replay workload replays the one trace it
    /// uploaded.
    fn traces(self) -> u64 {
        match self {
            Sim::MgLive => 8,
            Sim::PgbenchStaticFull | Sim::PgbenchL4cacheReplay => 1,
        }
    }

    /// The recorded trace the replay workload uploads, generated from
    /// `seed`; `None` for the synthetic workloads.
    fn trace_bytes(self, seed: u64, divisor: u64) -> Result<Option<Vec<u8>>, String> {
        let Sim::PgbenchL4cacheReplay = self else { return Ok(None) };
        let records = workload(WorkloadId::Pgbench, &TRACE_SCALE)
            .records(seed, TRACE_RECORDS / divisor as usize);
        let mut bytes = Vec::new();
        write_binary(&mut bytes, records).map_err(|e| format!("encoding the trace: {e}"))?;
        Ok(Some(bytes))
    }
}

/// Build the run's record source and scheme once, as a run does before
/// its first access: `(source ms, scheme ms)`. For the replay workload
/// the source step decodes and registers the trace, and points `cfg` at
/// it.
fn set_up(cfg: &mut RunConfig, trace: Option<&[u8]>) -> Result<(f64, f64), String> {
    let t0 = Instant::now();
    if let Some(bytes) = trace {
        let data = Arc::new(replay::decode(bytes)?);
        cfg.trace = Some(TraceRef::from_summary(&data.summary));
        replay::register(data);
    }
    let source = replica::source(cfg);
    let t1 = Instant::now();
    let scheme = replica::scheme(cfg);
    let t2 = Instant::now();
    black_box((source, scheme));
    Ok(((t1 - t0).as_secs_f64() * 1e3, (t2 - t1).as_secs_f64() * 1e3))
}

pub fn run(which: Sim, opts: &Opts, report: &mut Report, spans: &mut Spans) -> Result<(), String> {
    let trace = which.trace_bytes(opts.seed, opts.divisor)?;
    let traces = which.traces();
    let mut cfgs: Vec<RunConfig> = (0..traces)
        .map(|i| which.config(opts.seed.wrapping_mul(traces).wrapping_add(i), opts.divisor))
        .collect();

    let (mut source_ms, mut scheme_ms, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (s, b) = set_up(&mut cfgs[0], trace.as_deref())?;
        source_ms.push(s);
        scheme_ms.push(b);
        setup_s.push((s + b) / 1e3);
    }
    println!("{}", stats::summary("setup", "s", &setup_s));
    if let Some(t) = &cfgs[0].trace {
        println!("replay trace id {} ({} records)", t.id(), t.records);
    }

    // One untimed pass per trace fills caches and the allocator; its
    // digest is the reference every later run of that trace must
    // reproduce.
    let warm: Vec<RunResult> = cfgs.iter().map(driver::run).collect();
    let want: Vec<u64> = warm.iter().map(digest).collect();
    for (cfg, d) in cfgs.iter().zip(&want) {
        println!("seed {} digest {d:016x}", cfg.seed);
    }

    // A cycle runs every trace once; its throughput is the cycle's
    // accesses over its time, so the per-trace differences average out
    // inside each sample instead of splitting the samples into groups.
    let mut cycle_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut cpu = host::CpuSpan::default();
    let mut layers = Layers::default();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    while cycle_s.len() < MIN_CYCLES || Instant::now() < deadline {
        let mut cycle = 0.0;
        for (cfg, &want) in cfgs.iter().zip(&want) {
            let c0 = host::cpu()?;
            let t = Instant::now();
            let r = driver::run(cfg);
            cycle += t.elapsed().as_secs_f64();
            cpu.add(host::CpuSpan::between(c0, host::cpu()?));
            let got = digest(&r);
            report.check(got == want, || {
                format!("seed {} timed run digest {got:016x}, want {want:016x}", cfg.seed)
            });
            if opts.traced {
                let t = Instant::now();
                let r = layers.run(cfg, spans, 0);
                traced_s.push(t.elapsed().as_secs_f64());
                let got = digest(&r);
                report.check(got == want, || {
                    format!(
                        "seed {} traced replica digest {got:016x}, driver::run {want:016x}",
                        cfg.seed
                    )
                });
            }
        }
        cycle_s.push(cycle);
    }

    let accesses = cfgs.iter().map(|c| c.accesses).sum::<u64>() as f64;
    let macc_s: Vec<f64> = cycle_s.iter().map(|s| accesses / s / 1e6).collect();
    let run_ms: Vec<f64> = cycle_s.iter().map(|s| s * 1e3 / traces as f64).collect();
    println!("{}", stats::summary("run", "ms", &run_ms));
    println!("{}", stats::summary("throughput", "Macc/s", &macc_s));
    report.set("throughput_macc_s", stats::median(&macc_s));
    report.set("latency_ms", stats::median(&run_ms));
    report.set("setup_s", stats::median(&setup_s));
    report.set("peak_rss_mib", host::peak_rss_mib()?);

    if opts.traced {
        println!("{}", stats::summary("traced run", "s", &traced_s));
        for (name, v) in layers.metrics() {
            report.set(name, v);
        }
        let mut counters = Counters::default();
        for r in &warm {
            counters.absorb(r);
        }
        for (name, v) in counters.metrics() {
            report.set(name, v);
        }
        let untraced_s = stats::median(&run_ms) / 1e3;
        report.set("setup.source_ms", stats::median(&source_ms));
        report.set("setup.scheme_ms", stats::median(&scheme_ms));
        report.set("trace.overhead_frac", stats::median(&traced_s) / untraced_s - 1.0);
        for (name, v) in cpu.metrics(accesses * cycle_s.len() as f64 / 1e6) {
            report.set(name, v);
        }
        for &(name, _) in PER_LAYER.iter().filter(|(name, _)| name.starts_with("serve.")) {
            report.set(name, 0.0);
        }
    }
    Ok(())
}
