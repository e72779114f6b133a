//! One trace-driven simulation run (the Section IV methodology).
//!
//! The driver streams a workload trace, synthetic or replayed, into the
//! run's [`PlacementScheme`], advancing simulated time with each record's
//! timestamp, and aggregates post-warm-up latency statistics. Statistics
//! exclude a configurable warm-up prefix, mirroring the paper's
//! warm-up-then-measure protocol (Table II). The trace is generated on a
//! producer thread, one block ahead of the thread that simulates it.

use crate::snapshot;
use crate::wire::{canonical_json, fxhash64};
use hmm_core::controller::DemandCompletion;
use hmm_core::{
    build_scheme, ControllerConfig, ControllerStats, MigrationPolicy, Mode, PlacementScheme,
    SchemeId, SwapStats,
};
use hmm_dram::{DeviceProfile, RegionStats, SchedPolicy, WearStats};
use hmm_fault::FaultPlan;
use hmm_sim_base::config::{MachineConfig, MemoryGeometry, SimScale};
use hmm_sim_base::par_map;
use hmm_sim_base::snap::{SnapReader, SnapWriter};
use hmm_sim_base::stats::AccessStats;
use hmm_telemetry::{NullSink, TelemetrySink};
use hmm_workloads::replay::{self, ReplayIter};
use hmm_workloads::{footprint_bytes, workload, TraceRecord, TraceSource, WorkloadId};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// A recorded trace to replay instead of the synthetic generator,
/// identified by the content hash of its `HMT1` bytes. The summary
/// fields are carried inline so the run geometry and the canonical wire
/// form are pure functions of the config — no registry lookup — while
/// the records themselves are fetched from the process-global replay
/// registry (`hmm_workloads::replay`) when the run starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRef {
    /// `snap_hash` of the raw trace bytes (the trace id).
    pub hash: u64,
    /// Number of records in the trace.
    pub records: u64,
    /// Timestamp of the last record.
    pub last_tick: u64,
    /// Highest line address; the footprint is `(max_line + 1) << 6`.
    pub max_line: u64,
}

impl TraceRef {
    /// Borrow the behaviour-relevant facts from a registry summary.
    pub fn from_summary(s: &replay::TraceSummary) -> Self {
        Self { hash: s.hash, records: s.records, last_tick: s.last_tick, max_line: s.max_line }
    }

    /// The canonical 16-hex-digit spelling of the trace id.
    pub fn id(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload to drive.
    pub workload: WorkloadId,
    /// Controller management mode.
    pub mode: Mode,
    /// log2 of the macro-page (migration granularity), 12..=22 in the
    /// paper's sweep.
    pub page_shift: u32,
    /// log2 of the live-migration sub-block (paper: 12 = 4 KB).
    pub sub_block_shift: u32,
    /// Monitoring-epoch length in demand accesses (paper: 1K/10K/100K).
    pub swap_interval: u64,
    /// On-package capacity before scaling (paper: 512 MB; Fig. 15 sweeps
    /// 128/256/512 MB).
    pub on_package_bytes: u64,
    /// Total memory capacity before scaling (paper Table III: 4 GB; grown
    /// automatically if the workload footprint exceeds it).
    pub total_bytes: u64,
    /// Footprint/capacity scaling for fast runs.
    pub scale: SimScale,
    /// Demand accesses to simulate.
    pub accesses: u64,
    /// Accesses excluded from statistics at the start.
    pub warmup: u64,
    /// Trace seed.
    pub seed: u64,
    /// Table management override (None = paper's 1 MB threshold).
    pub os_assisted: Option<bool>,
    /// DRAM scheduling policy.
    pub policy: SchedPolicy,
    /// Fault-injection plan; `None` runs the fault-free fast path and is
    /// bit-identical to a build without the fault subsystem.
    pub faults: Option<FaultPlan>,
    /// Memory-management scheme. The default ([`SchemeId::Hetero`]) is the
    /// paper's migrating controller and reproduces pre-scheme outputs
    /// bit-for-bit.
    pub scheme: SchemeId,
    /// Swap-trigger rule for the migrating schemes. The default
    /// ([`MigrationPolicy::HotCold`]) is the paper's comparative trigger.
    pub migration: MigrationPolicy,
    /// Replay a recorded trace instead of generating `workload`'s
    /// synthetic stream. When set, `workload` and `seed` are inert (the
    /// canonical wire form normalises them), and the footprint comes
    /// from the trace's own addresses.
    pub trace: Option<TraceRef>,
}

impl RunConfig {
    /// Table III defaults for one workload and mode: 4 GB total, 512 MB
    /// on-package, 4 KB sub-blocks, 10K-access swap interval.
    pub fn paper(workload: WorkloadId, mode: Mode) -> Self {
        Self {
            workload,
            mode,
            page_shift: 22,
            sub_block_shift: 12,
            swap_interval: 10_000,
            on_package_bytes: 512 << 20,
            total_bytes: 4 << 30,
            scale: SimScale::full(),
            accesses: 2_000_000,
            warmup: 200_000,
            seed: 42,
            os_assisted: None,
            policy: SchedPolicy::FrFcfs,
            faults: None,
            scheme: SchemeId::Hetero,
            migration: MigrationPolicy::HotCold,
            trace: None,
        }
    }

    /// A fast configuration for tests: 1/64 scale, short trace.
    pub fn quick(workload: WorkloadId, mode: Mode) -> Self {
        Self {
            scale: SimScale::test_default(),
            accesses: 60_000,
            warmup: 10_000,
            page_shift: 16,
            swap_interval: 2_000,
            ..Self::paper(workload, mode)
        }
    }

    /// The scaled memory geometry for this run. The total capacity grows
    /// to cover the workload footprint (DC.B and FT.C exceed 4 GB), and
    /// everything is rounded to macro-page multiples.
    pub fn geometry(&self) -> MemoryGeometry {
        let page = 1u64 << self.page_shift;
        // A replayed trace's footprint is fixed by its own addresses
        // (never scaled — the addresses are the workload); synthetic
        // footprints scale with the run.
        let fp = match &self.trace {
            Some(t) => (t.max_line + 1) << 6,
            None => footprint_bytes(self.workload, &self.scale),
        };
        let round_up = |v: u64| v.div_ceil(page) * page;
        let round_down = |v: u64| (v / page * page).max(page);
        // One extra page beyond the footprint keeps the reserved ghost
        // page Ω outside the program-visible space; a fault plan reserves
        // further spare pages below Ω for quarantine parking.
        let spares = match (self.faults, self.mode) {
            (Some(p), Mode::Dynamic(d)) if d.sacrifices_slot() => p.spare_slots as u64,
            _ => 0,
        };
        let total = round_up(self.scale.bytes(self.total_bytes).max(fp) + page * (1 + spares));
        let mut on = round_down(self.scale.bytes(self.on_package_bytes));
        if on + 2 * page > total {
            on = (total - 2 * page).max(page);
        }
        MemoryGeometry {
            total_bytes: total,
            on_package_bytes: on,
            page_shift: self.page_shift,
            sub_block_shift: self.sub_block_shift.min(self.page_shift),
        }
    }
}

/// Results of one run. Equality is exact (every counter and histogram
/// bucket), which is what the snapshot/resume property tests compare.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload display name.
    pub workload: String,
    /// Post-warm-up access statistics.
    pub access: AccessStats,
    /// Whole-run controller counters (traffic, stalls, epochs).
    pub controller: ControllerStats,
    /// Migration statistics, when the mode migrates.
    pub swaps: Option<SwapStats>,
    /// Per-channel aggregates for the on-package region (ECC and
    /// throttle counters live here).
    pub on_region: RegionStats,
    /// Per-channel aggregates for the off-package region.
    pub off_region: RegionStats,
    /// The geometry that was simulated.
    pub geometry: MemoryGeometry,
    /// Endurance counters for write-limited off-package media; `Some`
    /// only under schemes with an endurance surface (PCM).
    pub wear: Option<WearStats>,
}

impl RunResult {
    /// Mean end-to-end memory latency (cycles).
    pub fn mean_latency(&self) -> f64 {
        self.access.mean_latency()
    }

    /// Mean DRAM-core component (the "DRAM core latency" row of
    /// Table IV).
    pub fn dram_core_mean(&self) -> f64 {
        self.access.dram_core.mean()
    }

    /// Fraction of accesses served on-package.
    pub fn on_fraction(&self) -> f64 {
        self.access.on_package_fraction()
    }

    /// Traffic summary for the power model.
    pub fn traffic(&self) -> hmm_power::Traffic {
        hmm_power::Traffic {
            demand_on_lines: self.controller.demand_on_lines,
            demand_off_lines: self.controller.demand_off_lines,
            migration_on_lines: self.controller.migration_on_lines,
            migration_off_lines: self.controller.migration_off_lines,
        }
    }
}

/// Records per trace-generation block, which is also the unit the
/// producer thread hands to the simulating thread. The value only affects
/// generator locality and hand-off cost, never behaviour: records are
/// still submitted and advanced one at a time, so any block size
/// produces the identical run.
const TRACE_BLOCK: usize = 4096;

/// Block buffers in circulation: one being simulated, one waiting in the
/// one-deep hand-off, one being generated. They are sized before the
/// producer starts, so neither thread allocates a block.
const BLOCK_BUFFERS: usize = 3;

/// One hand-off from the producer: a block of records and, when the block
/// ends on a capture point of a run that captures, the trace source's
/// state there (empty otherwise).
struct Block {
    records: Vec<TraceRecord>,
    state: SnapWriter,
}

/// The shared [`ControllerConfig`] for a run: everything but the scheme
/// choice itself (`build_scheme` swaps in the PCM `off_profile`).
fn controller_config(cfg: &RunConfig, machine: MachineConfig) -> ControllerConfig {
    ControllerConfig {
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
    }
}

/// Resolve the run's record source and display name. Replay runs panic
/// if the trace is no longer registered (a `DELETE` racing an
/// already-parsed job); the serving layer's `catch_unwind` turns that
/// into a failed job rather than a wrong result.
fn trace_source(cfg: &RunConfig) -> (String, TraceSource) {
    match &cfg.trace {
        Some(t) => {
            let data = replay::lookup(t.hash)
                .unwrap_or_else(|| panic!("trace {} is not registered for replay", t.id()));
            (format!("trace:{}", t.id()), TraceSource::Replay(ReplayIter::new(data)))
        }
        None => {
            let w = workload(cfg.workload, &cfg.scale);
            let name = w.name.clone();
            (name, TraceSource::Synthetic(w.iter(cfg.seed)))
        }
    }
}

/// Execute one simulation run.
pub fn run(cfg: &RunConfig) -> RunResult {
    run_with_sink(cfg, NullSink)
}

/// Run independent configurations in parallel ([`par_map`]), returning
/// their results in input order.
///
/// This is the in-process twin of an `hmm-serve` sweep: the serving
/// layer expands a grid spec into exactly such a list of resolved
/// [`RunConfig`]s, and every run is deterministic, so the result for a
/// cell never depends on how the list was split across threads.
pub fn run_grid(cfgs: &[RunConfig]) -> Vec<RunResult> {
    par_map(cfgs.to_vec(), |cfg| run(&cfg))
}

/// Execute one simulation run, reporting telemetry events into `sink`.
///
/// The sink is threaded through the controller into both DRAM regions, so
/// a [`hmm_telemetry::Recorder`] handed in here observes the demand path,
/// the migration engine, and every bank's row-buffer behaviour of the run.
pub fn run_with_sink<S: TelemetrySink + Clone + Send + 'static>(
    cfg: &RunConfig,
    sink: S,
) -> RunResult {
    run_resumable_with_sink(cfg, SnapshotCtl::none(), sink)
        .expect("a run that neither resumes nor captures has no failure path")
}

/// Snapshot control for [`run_resumable`]: where to resume from, how
/// often to capture, and where captured snapshots go.
#[derive(Default)]
pub struct SnapshotCtl<'a> {
    /// Sealed snapshot bytes (from an earlier run's `sink`) to resume
    /// from; `None` starts from the beginning.
    pub resume_from: Option<&'a [u8]>,
    /// Capture cadence in submitted accesses; 0 disables capture.
    pub every: u64,
    /// Receives `(submitted, sealed snapshot bytes)` at each capture.
    pub sink: Option<&'a mut dyn FnMut(u64, Vec<u8>)>,
}

impl SnapshotCtl<'_> {
    /// Neither resuming nor capturing: [`run_resumable`] behaves exactly
    /// like [`run`].
    pub fn none() -> Self {
        Self::default()
    }
}

/// Execute one simulation run with snapshot capture and resume.
///
/// A run resumed from any snapshot is bit-identical to the uninterrupted
/// run: the snapshot serializes every piece of dynamic state the loop
/// touches (controller, DRAM timing, migration engine, trace generator
/// RNG and cursors, warm-up bookkeeping, undrained completions). This is
/// the only driver loop: [`run`] and [`run_with_sink`] call it with
/// [`SnapshotCtl::none`]. Trace records are generated on a producer
/// thread in blocks aligned to snapshot boundaries; block partitioning is
/// behaviour-invariant (proven by the block-size-invariance test in
/// `hmm_workloads::trace`), so neither the alignment nor the thread
/// changes the record stream. A panic on either thread propagates to the
/// caller.
///
/// Snapshots capture at every multiple of `ctl.every` submitted accesses
/// — including mid-migration, mid-stall, and pre-warm-up points — so any
/// cadence is safe; no "quiescent point" is required.
pub fn run_resumable(cfg: &RunConfig, ctl: SnapshotCtl<'_>) -> Result<RunResult, String> {
    run_resumable_with_sink(cfg, ctl, NullSink)
}

/// [`run_resumable`] with telemetry: the sink observes the run exactly
/// as [`run_with_sink`]'s does, and — because sinks are pure observers —
/// the result and every captured snapshot are byte-identical to the
/// sink-free run.
pub fn run_resumable_with_sink<S: TelemetrySink + Clone + Send + 'static>(
    cfg: &RunConfig,
    mut ctl: SnapshotCtl<'_>,
    sink: S,
) -> Result<RunResult, String> {
    let (workload_name, mut trace) = trace_source(cfg);
    let geometry = cfg.geometry();
    let machine = MachineConfig { geometry, ..MachineConfig::default() };
    let mut ctrl = build_scheme(cfg.scheme, controller_config(cfg, machine), cfg.migration, sink);

    let mut access = AccessStats::new();
    // The id of the last warm-up access once it has been submitted (0
    // without a warm-up); only completions with higher ids are recorded.
    let mut warmup_boundary_id = if cfg.warmup == 0 { Some(0u64) } else { None };
    // Reusable buffer for the completion drains.
    let mut drained: Vec<DemandCompletion> = Vec::new();
    let mut submitted = 0u64;
    let config_hash = fxhash64(canonical_json(cfg).as_bytes());

    if let Some(bytes) = ctl.resume_from {
        let (meta, payload) = snapshot::open(bytes, config_hash)?;
        if meta.submitted > cfg.accesses {
            return Err(format!(
                "snapshot is {} accesses in, past the run's {}",
                meta.submitted, cfg.accesses
            ));
        }
        let mut r = SnapReader::new(payload);
        r.section(b"drvr")?;
        submitted = r.u64()?;
        if submitted != meta.submitted {
            return Err("snapshot header disagrees with payload".into());
        }
        warmup_boundary_id = if r.bool()? { Some(r.u64()?) } else { None };
        r.end_section()?;
        access.load_state(&mut r)?;
        trace.load_state(&mut r)?;
        ctrl.load_state(&mut r)?;
        r.finish()?;
    }

    // A producer thread generates the trace in blocks (amortising the
    // generator's per-record draw setup and keeping generator and
    // simulator code out of each other's instruction stream) while this
    // thread submits the previous block to the controller one record at
    // a time on the exact per-record advance cadence: the controller's
    // stall/copy interactions are cadence-sensitive, so coarsening
    // `advance` would not be bit-identical. The channels live inside the
    // scope, so a panic here drops them and releases a producer waiting
    // on either one before the scope joins it.
    let (start, accesses, every) = (submitted, cfg.accesses, ctl.every);
    let capture = every != 0 && ctl.sink.is_some();
    std::thread::scope(|s| {
        let (full_tx, full_rx) = sync_channel::<Block>(1);
        let (free_tx, free_rx) = sync_channel::<Block>(BLOCK_BUFFERS);
        for _ in 0..BLOCK_BUFFERS {
            let mut block =
                Block { records: Vec::with_capacity(TRACE_BLOCK), state: SnapWriter::new() };
            if capture {
                // The source's state has one size for the whole run, so
                // writing it once here sizes the buffer the producer reuses.
                trace.save_state(&mut block.state);
                block.state.clear();
            }
            free_tx.send(block).expect("the free list holds every buffer");
        }
        let producer =
            s.spawn(move || produce(trace, start, accesses, every, capture, &free_rx, &full_tx));
        for mut block in &full_rx {
            for rec in &block.records {
                let id = ctrl.access(rec.tick, rec.addr, rec.is_write);
                submitted += 1;
                if submitted == cfg.warmup {
                    warmup_boundary_id = Some(id);
                }
                ctrl.advance(rec.tick);
                if submitted.is_multiple_of(64) {
                    record_completed(&mut *ctrl, &mut drained, warmup_boundary_id, &mut access);
                }
            }
            if !block.state.is_empty() {
                let sink = ctl.sink.as_deref_mut().expect("only a capturing run saves state");
                let mut pw = SnapWriter::new();
                pw.section(b"drvr");
                pw.u64(submitted);
                match warmup_boundary_id {
                    None => pw.bool(false),
                    Some(b) => {
                        pw.bool(true);
                        pw.u64(b);
                    }
                }
                pw.end_section();
                access.save_state(&mut pw);
                pw.append(&mut block.state);
                ctrl.save_state(&mut pw);
                sink(submitted, snapshot::seal(config_hash, submitted, &pw.into_bytes()));
            }
            // Fails only once the producer is done; the buffer is then spare.
            let _ = free_tx.send(block);
        }
        if let Err(panic) = producer.join() {
            std::panic::resume_unwind(panic);
        }
    });
    ctrl.flush();
    record_completed(&mut *ctrl, &mut drained, warmup_boundary_id, &mut access);

    let (on_region, off_region) = ctrl.region_stats();
    Ok(RunResult {
        workload: workload_name,
        access,
        controller: ctrl.stats(),
        swaps: ctrl.swap_stats(),
        on_region,
        off_region,
        geometry,
        wear: ctrl.wear(),
    })
}

/// The producer side of a run: generate accesses `submitted..accesses` in
/// blocks of at most [`TRACE_BLOCK`] records, each ending on every
/// multiple of `every` (0: no capture points), into buffers taken from
/// `free` and handed over `full`. When `capture` is set, a block ending on
/// a capture point before the run's end also carries the source's state
/// there. Returns early once the simulating thread hangs up.
fn produce(
    mut trace: TraceSource,
    mut submitted: u64,
    accesses: u64,
    every: u64,
    capture: bool,
    free: &Receiver<Block>,
    full: &SyncSender<Block>,
) {
    while submitted < accesses {
        let mut n = (accesses - submitted).min(TRACE_BLOCK as u64);
        if every != 0 {
            n = n.min(every - submitted % every);
        }
        let Ok(mut block) = free.recv() else { return };
        trace.next_block(&mut block.records, n as usize);
        submitted += n;
        if capture && submitted.is_multiple_of(every) && submitted < accesses {
            trace.save_state(&mut block.state);
        }
        if full.send(block).is_err() {
            return;
        }
    }
}

/// Drain `ctrl`'s finished demand accesses through `buf` and record the
/// ones after the warm-up access, whose id is `boundary`. Demand ids are
/// handed out in submission order, so a completion drained before the
/// warm-up access is submitted (`boundary` still `None`) belongs to the
/// warm-up and is dropped here, at the drain that takes it.
fn record_completed(
    ctrl: &mut dyn PlacementScheme,
    buf: &mut Vec<DemandCompletion>,
    boundary: Option<u64>,
    access: &mut AccessStats,
) {
    ctrl.drain_completed_into(buf);
    let boundary = boundary.unwrap_or(u64::MAX);
    for c in buf.drain(..) {
        if c.id > boundary {
            access.record(&c.breakdown, c.is_write, c.on_package);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_core::MigrationDesign;

    #[test]
    fn quick_run_completes_and_counts() {
        let cfg = RunConfig::quick(WorkloadId::Pgbench, Mode::Static);
        let r = run(&cfg);
        assert_eq!(
            r.access.accesses(),
            cfg.accesses - cfg.warmup,
            "every post-warm-up access must be recorded exactly once"
        );
        assert!(r.mean_latency() > 0.0);
    }

    #[test]
    fn run_grid_keeps_input_order_and_matches_sequential_runs() {
        let live = Mode::Dynamic(MigrationDesign::LiveMigration);
        let cfgs = [
            RunConfig { page_shift: 14, ..RunConfig::quick(WorkloadId::Pgbench, Mode::Static) },
            RunConfig::quick(WorkloadId::Pgbench, live),
            RunConfig::quick(WorkloadId::SpecJbb, live),
        ];
        let results = run_grid(&cfgs);
        assert_eq!(results.len(), cfgs.len());
        for (cfg, r) in cfgs.iter().zip(&results) {
            let seq = run(cfg);
            assert_eq!(r.geometry.page_shift, cfg.page_shift, "results must keep input order");
            assert_eq!(r.workload, seq.workload);
            assert_eq!(r.controller, seq.controller);
            assert_eq!(r.swaps, seq.swaps);
            assert_eq!(r.mean_latency().to_bits(), seq.mean_latency().to_bits());
        }
    }

    #[test]
    fn geometry_covers_footprint() {
        for id in [WorkloadId::Ft, WorkloadId::Dc] {
            let cfg = RunConfig::quick(id, Mode::Static);
            let g = cfg.geometry();
            let fp = workload(id, &cfg.scale).footprint_bytes;
            assert!(g.total_bytes > fp, "{id:?}: ghost page must lie beyond the footprint");
            g.validate().unwrap();
        }
    }

    #[test]
    fn geometry_shrinks_on_package_if_needed() {
        // A workload whose scaled footprint is tiny: on-package must stay
        // strictly smaller than total.
        let mut cfg = RunConfig::quick(WorkloadId::Ep, Mode::Static);
        cfg.scale = SimScale { divisor: 1 << 10 };
        let g = cfg.geometry();
        g.validate().unwrap();
        assert!(g.on_package_bytes < g.total_bytes);
    }

    #[test]
    fn ordering_baseline_static_ideal() {
        // All-off >= static >= all-on in mean latency, for a workload with
        // real off-package traffic.
        let mk = |mode| run(&RunConfig::quick(WorkloadId::Pgbench, mode)).mean_latency();
        let off = mk(Mode::AllOffPackage);
        let stat = mk(Mode::Static);
        let on = mk(Mode::AllOnPackage);
        assert!(off > stat, "off {off:.0} vs static {stat:.0}");
        assert!(stat > on, "static {stat:.0} vs ideal {on:.0}");
    }

    #[test]
    fn migration_beats_static_for_hot_workload() {
        let stat = run(&RunConfig::quick(WorkloadId::Pgbench, Mode::Static));
        let live = run(&RunConfig::quick(
            WorkloadId::Pgbench,
            Mode::Dynamic(MigrationDesign::LiveMigration),
        ));
        assert!(live.swaps.unwrap().completed > 0, "no swaps happened");
        assert!(
            live.mean_latency() < stat.mean_latency(),
            "live {:.0} vs static {:.0}",
            live.mean_latency(),
            stat.mean_latency()
        );
        assert!(live.on_fraction() > stat.on_fraction());
    }

    #[test]
    fn deterministic_runs() {
        let cfg = RunConfig::quick(WorkloadId::SpecJbb, Mode::Dynamic(MigrationDesign::NMinusOne));
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.mean_latency(), b.mean_latency());
        assert_eq!(a.controller.migration_on_lines, b.controller.migration_on_lines);
    }
}
