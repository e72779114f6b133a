//! The heterogeneity-aware on-chip memory controller (Fig. 3).
//!
//! Compared to a conventional controller (Fig. 2), the Address Translation
//! stage moves *ahead* of transaction scheduling: every access is first
//! routed to the on-package or off-package region through the translation
//! table, then each region schedules its own transactions independently.
//! The migration controller monitors recent behaviour, reconfigures the
//! routing and emits background copy traffic.
//!
//! The controller also supports three comparison modes used by Section II:
//! static mapping (the lowest addresses live on-package, no migration), an
//! all-on-package ideal, and an all-off-package baseline.

use crate::migrate::{
    FailureAction, MigrationDesign, MigrationEngine, SwapStats, Transfer, TransferKind,
};
use crate::monitor::{MultiQueueMru, SlotClock};
use crate::scheme::MigrationPolicy;
use crate::table::{RowState, TranslationTable};
use crate::tcache::TranslationCache;
use hmm_dram::{Completion, DeviceProfile, DramRegion, RegionStats, SchedPolicy, Transaction};
use hmm_fault::{FaultPlan, MemFault, TransferFault};
use hmm_sim_base::addr::{PhysAddr, LINE_BYTES};
use hmm_sim_base::arena::Slab;
use hmm_sim_base::config::MachineConfig;
use hmm_sim_base::cycles::Cycle;
use hmm_sim_base::snap::{SnapReader, SnapResult, SnapWriter};
use hmm_sim_base::stats::LatencyBreakdown;
use hmm_telemetry::{Event, EventKind, FaultClass, NullSink, RegionKind, TelemetrySink};

/// How the controller manages the heterogeneous space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Dynamic migration with the given design (Section III).
    Dynamic(MigrationDesign),
    /// Static mapping: "always keeps the lowest memory address space
    /// on-chip" (Section II / Fig. 5 option c).
    Static,
    /// The ideal: all DRAM resources on-package (Fig. 5 option d).
    AllOnPackage,
    /// The baseline: off-package DIMMs only (Fig. 5 option a).
    AllOffPackage,
}

impl Mode {
    /// Canonical lowercase token, round-trippable through [`FromStr`](std::str::FromStr).
    /// This is the spelling used by CLI flags and the `hmm-serve` wire
    /// format, so cache keys and reports agree on one name per mode.
    pub fn token(&self) -> &'static str {
        match self {
            Mode::AllOffPackage => "off",
            Mode::AllOnPackage => "on",
            Mode::Static => "static",
            Mode::Dynamic(MigrationDesign::N) => "n",
            Mode::Dynamic(MigrationDesign::NMinusOne) => "n-1",
            Mode::Dynamic(MigrationDesign::LiveMigration) => "live",
        }
    }
}

impl std::str::FromStr for Mode {
    type Err = String;

    /// Accepts the canonical token plus the historical CLI aliases
    /// (`baseline`, `ideal`, `n1`), case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "off" | "baseline" => Mode::AllOffPackage,
            "on" | "ideal" => Mode::AllOnPackage,
            "static" => Mode::Static,
            "n" => Mode::Dynamic(MigrationDesign::N),
            "n-1" | "n1" => Mode::Dynamic(MigrationDesign::NMinusOne),
            "live" => Mode::Dynamic(MigrationDesign::LiveMigration),
            other => return Err(format!("unknown mode '{other}'")),
        })
    }
}

/// Controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Clock, fixed latencies and memory geometry.
    pub machine: MachineConfig,
    /// Management mode.
    pub mode: Mode,
    /// Demand accesses per monitoring epoch (the paper sweeps 1K / 10K /
    /// 100K).
    pub swap_interval: u64,
    /// Force OS-assisted (`Some(true)`) or pure-hardware (`Some(false)`)
    /// table management; `None` picks by the paper's 1 MB threshold.
    pub os_assisted: Option<bool>,
    /// Maximum outstanding migration sub-block copies (copy-engine flow
    /// control).
    pub max_outstanding_copies: u32,
    /// Copy-engine pacing: cycles between successive copied lines
    /// (0 = unpaced). The default — the off-package burst time — devotes
    /// at most one channel's worth (1/4) of off-package bandwidth to
    /// migration, so demand keeps the lion's share even mid-swap.
    pub copy_pace_cycles_per_line: u64,
    /// DRAM scheduling policy for both regions.
    pub policy: SchedPolicy,
    /// Device profile for the on-package region.
    pub on_profile: DeviceProfile,
    /// Device profile for the off-package region.
    pub off_profile: DeviceProfile,
    /// Deterministic fault-injection plan (`None` = fault-free; the
    /// fault machinery is then never consulted, so runs are bit-identical
    /// to a build without it). When set, program-visible pages must stay
    /// below `TranslationTable::first_reserved_page()` — the plan's
    /// `spare_slots` pages just under the ghost are parking space for
    /// quarantined slots.
    pub faults: Option<FaultPlan>,
}

impl ControllerConfig {
    /// Paper defaults for a given mode.
    pub fn paper_default(mode: Mode) -> Self {
        Self {
            machine: MachineConfig::default(),
            mode,
            swap_interval: 10_000,
            os_assisted: None,
            max_outstanding_copies: 16,
            copy_pace_cycles_per_line: 20,
            policy: SchedPolicy::FrFcfs,
            on_profile: DeviceProfile::on_package(),
            off_profile: DeviceProfile::off_package_ddr3(),
            faults: None,
        }
    }

    /// Is the table managed by the OS for this page size? ("OS-assisted
    /// scheme is used for macro pages smaller than 1 MB".)
    pub fn is_os_assisted(&self) -> bool {
        self.os_assisted.unwrap_or(
            self.machine.geometry.page_bytes() < crate::overhead::OS_ASSIST_THRESHOLD_BYTES,
        )
    }
}

/// A completed demand access, taken by
/// [`HeteroController::drain_completed_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandCompletion {
    /// The token returned by [`HeteroController::access`].
    pub id: u64,
    /// Completion time.
    pub finish: Cycle,
    /// Full latency breakdown (DRAM + queuing + controller + interconnect).
    pub breakdown: LatencyBreakdown,
    /// Served by the on-package region?
    pub on_package: bool,
    /// Store (true) or load.
    pub is_write: bool,
}

/// Aggregate controller counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Demand lines served on-package.
    pub demand_on_lines: u64,
    /// Demand lines served off-package.
    pub demand_off_lines: u64,
    /// Migration lines moved through the on-package region (reads+writes).
    pub migration_on_lines: u64,
    /// Migration lines moved through the off-package region.
    pub migration_off_lines: u64,
    /// Cycles demand accesses spent stalled behind N-design halts or
    /// OS-assisted table updates.
    pub stall_cycles: u64,
    /// Monitoring epochs that considered (and possibly rejected) a swap.
    pub epochs: u64,
    /// Epochs where the trigger comparison rejected the swap (MRU not
    /// hotter than LRU).
    pub rejected_triggers: u64,
    /// Failed migration transfers that were re-issued with backoff.
    pub transfer_retries: u64,
    /// Migration transfers whose copy request was dropped in flight.
    pub transfers_dropped: u64,
    /// Migration transfers that timed out in flight.
    pub transfers_timed_out: u64,
    /// Migration transfers whose read returned uncorrectable data.
    pub transfers_ecc_failed: u64,
    /// Sub-block copies that were in flight when their swap aborted and
    /// whose results were discarded on arrival.
    pub abandoned_sub_blocks: u64,
    /// Translation-table rows found corrupted (and repaired) at epoch
    /// boundaries.
    pub row_corruptions: u64,
    /// Slots retired from the migration pool after repeated uncorrectable
    /// errors.
    pub slots_quarantined: u64,
}

impl ControllerStats {
    /// Fold another counter set into this one (the workspace-wide merge
    /// convention, mirroring `RunningMean::merge`). Used when joining
    /// parallel sweep shards.
    pub fn merge(&mut self, other: &ControllerStats) {
        self.demand_on_lines += other.demand_on_lines;
        self.demand_off_lines += other.demand_off_lines;
        self.migration_on_lines += other.migration_on_lines;
        self.migration_off_lines += other.migration_off_lines;
        self.stall_cycles += other.stall_cycles;
        self.epochs += other.epochs;
        self.rejected_triggers += other.rejected_triggers;
        self.transfer_retries += other.transfer_retries;
        self.transfers_dropped += other.transfers_dropped;
        self.transfers_timed_out += other.transfers_timed_out;
        self.transfers_ecc_failed += other.transfers_ecc_failed;
        self.abandoned_sub_blocks += other.abandoned_sub_blocks;
        self.row_corruptions += other.row_corruptions;
        self.slots_quarantined += other.slots_quarantined;
    }
}

#[derive(Debug, Clone, Copy)]
struct DemandMeta {
    issued_at: Cycle,
    stall: Cycle,
    controller: Cycle,
    interconnect: Cycle,
    on_package: bool,
    is_write: bool,
    /// Physical macro page (telemetry labelling).
    page: u64,
    /// On-package slot serving this access, for attributing uncorrectable
    /// errors to slots (quarantine accounting). `None` off-package.
    slot: Option<u32>,
}

/// What an in-flight transaction id resolves to when its DRAM completion
/// arrives.
#[derive(Debug, Clone)]
enum MetaSlot {
    /// Already consumed (or never issued — defensive only).
    Empty,
    /// A demand access with its latency-attribution metadata.
    Demand(DemandMeta),
    /// A migration copy leg: handle into the controller's leg arena.
    Copy(u32),
}

/// Id-indexed in-flight transaction metadata (hot path: one insert and
/// one remove per transaction). Ids come from the controller's monotone
/// counter, so a deque indexed by `id - base` replaces a hash map — no
/// hashing, O(1) amortised, memory bounded by the in-flight id span.
/// Demand and copy-leg ids draw from the same counter and share the ring:
/// a copy id stores its leg-arena handle instead of occupying a permanent
/// gap slot next to a separate id→token hash map (which is what the
/// previous layout paid two hash operations per leg for).
#[derive(Debug, Default)]
struct MetaRing {
    base: u64,
    slots: std::collections::VecDeque<MetaSlot>,
}

impl MetaRing {
    fn insert(&mut self, id: u64, slot: MetaSlot) {
        if self.slots.is_empty() {
            self.base = id;
        }
        debug_assert!(id >= self.base + self.slots.len() as u64, "ids are monotone");
        while self.base + (self.slots.len() as u64) < id {
            self.slots.push_back(MetaSlot::Empty);
        }
        self.slots.push_back(slot);
    }

    fn remove(&mut self, id: u64) -> MetaSlot {
        let Some(idx) = id.checked_sub(self.base) else { return MetaSlot::Empty };
        let Some(slot) = self.slots.get_mut(idx as usize) else { return MetaSlot::Empty };
        let meta = std::mem::replace(slot, MetaSlot::Empty);
        while matches!(self.slots.front(), Some(MetaSlot::Empty)) {
            self.slots.pop_front();
            self.base += 1;
        }
        meta
    }
}

/// How a migration transfer's copy failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailKind {
    Dropped,
    TimedOut,
    Ecc,
}

/// Bookkeeping for the in-flight line legs of one sub-block transfer,
/// stored in the leg arena and reached directly through the handle each
/// leg id carries in the [`MetaRing`] — no map lookup on completion. The
/// generation is bumped on every swap abort so legs issued for a dead
/// swap are recognised and discarded when their DRAM completions
/// eventually arrive.
#[derive(Debug, Clone, Copy)]
struct LegState {
    remaining: u32,
    /// Set when the transfer is doomed (decided at issue for drops and
    /// timeouts, or when a read leg returns uncorrectable data).
    fail: Option<FailKind>,
    kind: TransferKind,
    /// On-package slot the copy touches, for error attribution.
    slot: Option<u32>,
    /// Transfer generation this leg was issued under.
    gen: u64,
    /// Engine token the last leg reports completion with.
    token: u64,
}

/// Upper bound on buffered demand events between flushes, so a huge epoch
/// (or a run with swaps disabled) cannot grow the buffer unboundedly.
const DEMAND_BATCH_CAP: usize = 4096;

/// Snapshot of the cumulative counters at the last epoch rollover, so
/// [`Event::EpochRollover`] can carry per-epoch deltas that sum exactly to
/// the flat totals.
#[derive(Debug, Clone, Copy, Default)]
struct EpochMark {
    demand_on: u64,
    demand_off: u64,
    migration: u64,
    stall: u64,
    swaps_completed: u64,
}

/// The heterogeneity-aware memory controller.
///
/// Generic over the telemetry sink: the default [`NullSink`] folds every
/// instrumentation branch away, so `HeteroController::new` builds exactly
/// the pre-telemetry controller. Pass a `Recorder` via
/// [`HeteroController::with_sink`] to capture events.
#[derive(Debug)]
pub struct HeteroController<S: TelemetrySink = NullSink> {
    cfg: ControllerConfig,
    sink: S,
    table: TranslationTable,
    /// Direct-mapped lookup cache in front of `table` for the demand path;
    /// invalidated wholesale by the table's generation counter.
    tcache: TranslationCache,
    engine: Option<MigrationEngine>,
    lru: SlotClock,
    mru: MultiQueueMru,
    on_region: DramRegion<S>,
    off_region: DramRegion<S>,
    next_id: u64,
    /// In-flight metadata for every transaction id (demand and copy legs
    /// share the monotone id counter and this ring).
    meta: MetaRing,
    /// Arena of in-flight sub-block leg states; copy ids in the ring hold
    /// handles into it, so a leg completion is two direct index
    /// operations instead of two hash-map lookups.
    copy_legs: Slab<LegState>,
    /// Copy-leg ids currently in flight (ring occupancy of `Copy` slots);
    /// drained-to-zero is the flush convergence condition.
    copy_ids_live: u64,
    /// Current transfer generation; bumped when a swap aborts so stale
    /// legs are dropped instead of reported to the engine.
    copy_gen: u64,
    /// Monotone issue counter hashed by the fault plan to doom transfers.
    copy_seq: u64,
    /// Uncorrectable-error counts per on-package slot, indexed by slot.
    slot_errors: Vec<u32>,
    /// Slots over the quarantine threshold awaiting an idle engine.
    pending_quarantine: Vec<u32>,
    completed: Vec<DemandCompletion>,
    /// Reusable buffer for draining region completions (per-access path;
    /// reuse keeps it allocation-free after warm-up).
    comp_scratch: Vec<Completion>,
    /// Reusable buffer for transfers taken from the engine in
    /// [`HeteroController::advance`]'s copy pump.
    transfer_scratch: Vec<Transfer>,
    /// Demand events buffered between epoch rollovers so the sink takes
    /// one lock per batch instead of one per access. Flushed at every
    /// rollover, at [`HeteroController::flush`], and at a size cap.
    demand_events: Vec<Event>,
    accesses_in_epoch: u64,
    /// Demand traffic stalls until this cycle (N-design halts, OS updates).
    stall_until: Cycle,
    outstanding_copies: u32,
    /// Earliest cycle the paced copy engine may inject its next sub-block.
    copy_release: Cycle,
    now: Cycle,
    stats: ControllerStats,
    /// Counter snapshot at the last epoch rollover (telemetry deltas).
    epoch_mark: EpochMark,
    /// Step index within the in-flight swap (telemetry labelling).
    swap_steps_seen: u32,
    /// `sub_blocks_copied` at the start of the in-flight swap.
    swap_subs_mark: u64,
    /// Which swap-trigger rule `swap_decision` applies. Pure configuration
    /// (not dynamic state), so it is set once after construction and never
    /// snapshotted; the default reproduces the paper's hottest-vs-coldest
    /// comparison bit-for-bit.
    migration: MigrationPolicy,
}

impl HeteroController {
    /// Build a controller with telemetry disabled. Panics on invalid
    /// configuration.
    pub fn new(cfg: ControllerConfig) -> Self {
        Self::with_sink(cfg, NullSink)
    }
}

impl<S: TelemetrySink + Clone + Send> HeteroController<S> {
    /// Build a controller reporting events into `sink`. Panics on invalid
    /// configuration.
    pub fn with_sink(cfg: ControllerConfig, sink: S) -> Self {
        cfg.machine.geometry.validate().expect("invalid geometry");
        let g = &cfg.machine.geometry;
        let slots = g.on_package_slots();
        let sacrifice = match cfg.mode {
            Mode::Dynamic(d) => d.sacrifices_slot(),
            _ => false,
        };
        let engine = match cfg.mode {
            Mode::Dynamic(d) => {
                let mut e = MigrationEngine::new(d, g.sub_blocks_per_page());
                e.set_pf_logging(sink.enabled(EventKind::PfTransition));
                Some(e)
            }
            _ => None,
        };
        // Spare pages (quarantine parking) are only meaningful for the
        // N-1 designs, which are the only ones that can retire a slot.
        let spares = if sacrifice { cfg.faults.map_or(0, |p| p.spare_slots) } else { 0 };
        let faults = cfg.faults;
        let mut this = Self {
            table: TranslationTable::with_spares(slots, g.total_pages(), sacrifice, spares),
            tcache: TranslationCache::default(),
            engine,
            lru: SlotClock::new(slots as usize),
            mru: MultiQueueMru::paper_default(),
            on_region: DramRegion::with_sink(
                cfg.on_profile,
                &cfg.machine.clock,
                cfg.policy,
                hmm_dram::PagePolicy::Open,
                sink.clone(),
                RegionKind::OnPackage,
            ),
            off_region: DramRegion::with_sink(
                cfg.off_profile,
                &cfg.machine.clock,
                cfg.policy,
                hmm_dram::PagePolicy::Open,
                sink.clone(),
                RegionKind::OffPackage,
            ),
            sink,
            next_id: 0,
            meta: MetaRing::default(),
            copy_legs: Slab::new(),
            copy_ids_live: 0,
            copy_gen: 0,
            copy_seq: 0,
            slot_errors: vec![0; slots as usize],
            pending_quarantine: Vec::new(),
            completed: Vec::new(),
            comp_scratch: Vec::new(),
            transfer_scratch: Vec::new(),
            demand_events: Vec::new(),
            accesses_in_epoch: 0,
            stall_until: 0,
            outstanding_copies: 0,
            copy_release: 0,
            now: 0,
            cfg,
            stats: ControllerStats::default(),
            epoch_mark: EpochMark::default(),
            swap_steps_seen: 0,
            swap_subs_mark: 0,
            migration: MigrationPolicy::HotCold,
        };
        if let Some(plan) = faults {
            this.on_region.set_faults(plan);
            this.off_region.set_faults(plan);
        }
        this
    }

    /// The translation table (read-only, for inspection and tests).
    pub fn table(&self) -> &TranslationTable {
        &self.table
    }

    /// Select the swap-trigger rule (default: the paper's comparative
    /// hottest-vs-coldest trigger). Applies from the next epoch boundary.
    pub fn set_migration_policy(&mut self, policy: MigrationPolicy) {
        self.migration = policy;
    }

    /// Swap statistics, if migration is enabled.
    pub fn swap_stats(&self) -> Option<SwapStats> {
        self.engine.as_ref().map(|e| e.stats())
    }

    /// Controller counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// DRAM region statistics: `(on_package, off_package)`.
    pub fn region_stats(&self) -> (RegionStats, RegionStats) {
        (self.on_region.stats(), self.off_region.stats())
    }

    /// Serialize the controller's full dynamic state (snapshot/resume
    /// support): translation table, monitors, migration engine, both DRAM
    /// regions, the in-flight transaction ring and leg arena, and every
    /// counter. The translation cache is deliberately excluded — it is a
    /// pure memo validated by the table's generation counter, so a resumed
    /// run restarts it cold with identical results. Telemetry state cannot
    /// be captured, so snapshots require a [`NullSink`] controller with
    /// flushed event buffers (the driver's default run path).
    pub fn save_state(&self, w: &mut SnapWriter) {
        debug_assert!(
            self.demand_events.is_empty(),
            "snapshots require flushed telemetry buffers (NullSink run path)"
        );
        w.section(b"tabl");
        self.table.save_state(w);
        w.end_section();
        w.section(b"moni");
        self.lru.save_state(w);
        self.mru.save_state(w);
        w.end_section();
        w.section(b"engn");
        match &self.engine {
            None => w.bool(false),
            Some(e) => {
                w.bool(true);
                e.save_state(w);
            }
        }
        w.end_section();
        w.section(b"dram");
        self.on_region.save_state(w);
        self.off_region.save_state(w);
        w.end_section();
        w.section(b"ctrl");
        w.u64(self.next_id);
        w.u64(self.meta.base);
        w.usize(self.meta.slots.len());
        for slot in &self.meta.slots {
            match slot {
                MetaSlot::Empty => w.u8(0),
                MetaSlot::Demand(m) => {
                    w.u8(1);
                    w.u64(m.issued_at);
                    w.u64(m.stall);
                    w.u64(m.controller);
                    w.u64(m.interconnect);
                    w.bool(m.on_package);
                    w.bool(m.is_write);
                    w.u64(m.page);
                    match m.slot {
                        None => w.bool(false),
                        Some(s) => {
                            w.bool(true);
                            w.u32(s);
                        }
                    }
                }
                MetaSlot::Copy(handle) => {
                    w.u8(2);
                    w.u32(*handle);
                }
            }
        }
        self.copy_legs.save_state(w, |w, leg| {
            w.u32(leg.remaining);
            match leg.fail {
                None => w.u8(0),
                Some(FailKind::Dropped) => w.u8(1),
                Some(FailKind::TimedOut) => w.u8(2),
                Some(FailKind::Ecc) => w.u8(3),
            }
            w.u8(match leg.kind {
                TransferKind::Forward => 0,
                TransferKind::Rollback => 1,
                TransferKind::Drain => 2,
            });
            match leg.slot {
                None => w.bool(false),
                Some(s) => {
                    w.bool(true);
                    w.u32(s);
                }
            }
            w.u64(leg.gen);
            w.u64(leg.token);
        });
        w.u64(self.copy_ids_live);
        w.u64(self.copy_gen);
        w.u64(self.copy_seq);
        w.usize(self.slot_errors.len());
        for &e in &self.slot_errors {
            w.u32(e);
        }
        w.seq(&self.pending_quarantine, |w, &s| w.u32(s));
        w.seq(&self.completed, |w, c| {
            w.u64(c.id);
            w.u64(c.finish);
            w.u64(c.breakdown.dram_core);
            w.u64(c.breakdown.queuing);
            w.u64(c.breakdown.controller);
            w.u64(c.breakdown.interconnect);
            w.bool(c.on_package);
            w.bool(c.is_write);
        });
        w.u64(self.accesses_in_epoch);
        w.u64(self.stall_until);
        w.u32(self.outstanding_copies);
        w.u64(self.copy_release);
        w.u64(self.now);
        w.u64(self.stats.demand_on_lines);
        w.u64(self.stats.demand_off_lines);
        w.u64(self.stats.migration_on_lines);
        w.u64(self.stats.migration_off_lines);
        w.u64(self.stats.stall_cycles);
        w.u64(self.stats.epochs);
        w.u64(self.stats.rejected_triggers);
        w.u64(self.stats.transfer_retries);
        w.u64(self.stats.transfers_dropped);
        w.u64(self.stats.transfers_timed_out);
        w.u64(self.stats.transfers_ecc_failed);
        w.u64(self.stats.abandoned_sub_blocks);
        w.u64(self.stats.row_corruptions);
        w.u64(self.stats.slots_quarantined);
        w.u64(self.epoch_mark.demand_on);
        w.u64(self.epoch_mark.demand_off);
        w.u64(self.epoch_mark.migration);
        w.u64(self.epoch_mark.stall);
        w.u64(self.epoch_mark.swaps_completed);
        w.u32(self.swap_steps_seen);
        w.u64(self.swap_subs_mark);
        w.end_section();
    }

    /// Restore controller state saved by [`HeteroController::save_state`]
    /// onto a freshly constructed controller with the same configuration.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        r.section(b"tabl")?;
        self.table.load_state(r)?;
        r.end_section()?;
        r.section(b"moni")?;
        self.lru.load_state(r)?;
        self.mru.load_state(r)?;
        r.end_section()?;
        r.section(b"engn")?;
        let has_engine = r.bool()?;
        if has_engine != self.engine.is_some() {
            return Err("snapshot's migration mode disagrees with configuration".into());
        }
        if let Some(e) = &mut self.engine {
            e.load_state(r)?;
        }
        r.end_section()?;
        r.section(b"dram")?;
        self.on_region.load_state(r)?;
        self.off_region.load_state(r)?;
        r.end_section()?;
        r.section(b"ctrl")?;
        self.next_id = r.u64()?;
        self.meta.base = r.u64()?;
        let n = r.seq_len(1)?;
        self.meta.slots.clear();
        for _ in 0..n {
            let slot = match r.u8()? {
                0 => MetaSlot::Empty,
                1 => {
                    let issued_at = r.u64()?;
                    let stall = r.u64()?;
                    let controller = r.u64()?;
                    let interconnect = r.u64()?;
                    let on_package = r.bool()?;
                    let is_write = r.bool()?;
                    let page = r.u64()?;
                    let slot = if r.bool()? { Some(r.u32()?) } else { None };
                    MetaSlot::Demand(DemandMeta {
                        issued_at,
                        stall,
                        controller,
                        interconnect,
                        on_package,
                        is_write,
                        page,
                        slot,
                    })
                }
                2 => MetaSlot::Copy(r.u32()?),
                t => return Err(format!("invalid meta-slot tag {t}")),
            };
            self.meta.slots.push_back(slot);
        }
        self.copy_legs.load_state(r, |r| {
            let remaining = r.u32()?;
            let fail = match r.u8()? {
                0 => None,
                1 => Some(FailKind::Dropped),
                2 => Some(FailKind::TimedOut),
                3 => Some(FailKind::Ecc),
                t => return Err(format!("invalid fail-kind tag {t}")),
            };
            let kind = match r.u8()? {
                0 => TransferKind::Forward,
                1 => TransferKind::Rollback,
                2 => TransferKind::Drain,
                t => return Err(format!("invalid transfer-kind tag {t}")),
            };
            let slot = if r.bool()? { Some(r.u32()?) } else { None };
            let gen = r.u64()?;
            let token = r.u64()?;
            Ok(LegState { remaining, fail, kind, slot, gen, token })
        })?;
        self.copy_ids_live = r.u64()?;
        self.copy_gen = r.u64()?;
        self.copy_seq = r.u64()?;
        let n = r.usize()?;
        if n != self.slot_errors.len() {
            return Err(format!("slot count mismatch: expected {}", self.slot_errors.len()));
        }
        for e in &mut self.slot_errors {
            *e = r.u32()?;
        }
        self.pending_quarantine = r.seq(|r| r.u32())?;
        self.completed = r.seq(|r| {
            Ok(DemandCompletion {
                id: r.u64()?,
                finish: r.u64()?,
                breakdown: LatencyBreakdown {
                    dram_core: r.u64()?,
                    queuing: r.u64()?,
                    controller: r.u64()?,
                    interconnect: r.u64()?,
                },
                on_package: r.bool()?,
                is_write: r.bool()?,
            })
        })?;
        self.accesses_in_epoch = r.u64()?;
        self.stall_until = r.u64()?;
        self.outstanding_copies = r.u32()?;
        self.copy_release = r.u64()?;
        self.now = r.u64()?;
        self.stats.demand_on_lines = r.u64()?;
        self.stats.demand_off_lines = r.u64()?;
        self.stats.migration_on_lines = r.u64()?;
        self.stats.migration_off_lines = r.u64()?;
        self.stats.stall_cycles = r.u64()?;
        self.stats.epochs = r.u64()?;
        self.stats.rejected_triggers = r.u64()?;
        self.stats.transfer_retries = r.u64()?;
        self.stats.transfers_dropped = r.u64()?;
        self.stats.transfers_timed_out = r.u64()?;
        self.stats.transfers_ecc_failed = r.u64()?;
        self.stats.abandoned_sub_blocks = r.u64()?;
        self.stats.row_corruptions = r.u64()?;
        self.stats.slots_quarantined = r.u64()?;
        self.epoch_mark.demand_on = r.u64()?;
        self.epoch_mark.demand_off = r.u64()?;
        self.epoch_mark.migration = r.u64()?;
        self.epoch_mark.stall = r.u64()?;
        self.epoch_mark.swaps_completed = r.u64()?;
        self.swap_steps_seen = r.u32()?;
        self.swap_subs_mark = r.u64()?;
        r.end_section()?;
        Ok(())
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Submit one demand access. Returns a token matched by the
    /// corresponding [`DemandCompletion`]. `now` must be non-decreasing.
    pub fn access(&mut self, now: Cycle, addr: PhysAddr, is_write: bool) -> u64 {
        debug_assert!(now >= self.now, "time went backwards");
        self.now = now;
        let g = self.cfg.machine.geometry;
        let lat = self.cfg.machine.latency;
        let page = addr.macro_page(g.page_shift);
        let sub = addr.sub_block(g.page_shift, g.sub_block_shift);

        // N-design halting / OS table-update stall.
        let halted = self.engine.as_ref().is_some_and(|e| e.halting());
        let stall_gate = if halted { Cycle::MAX } else { self.stall_until };
        let (effective, stall) = if stall_gate > now && stall_gate != Cycle::MAX {
            (stall_gate, stall_gate - now)
        } else if halted {
            // Halted with unknown completion time: accesses pile up behind
            // the current stall_until estimate (set when the swap started).
            let t = self.stall_until.max(now);
            (t, t - now)
        } else {
            (now, 0)
        };
        self.stats.stall_cycles += stall;

        // Translate (Fig. 3: translation ahead of scheduling).
        let (machine_byte, on_pkg, translated) = match self.cfg.mode {
            Mode::AllOnPackage => (addr.0, true, false),
            Mode::AllOffPackage => (addr.0, false, false),
            Mode::Static => {
                let mp = page.0; // identity mapping
                let on = mp < g.on_package_slots();
                (addr.0, on, false)
            }
            Mode::Dynamic(_) => {
                let mp = self.tcache.translate(&self.table, page, sub);
                let on = self.table.is_on_package(mp);
                let byte = mp.0 * g.page_bytes() + addr.page_offset(g.page_shift);
                (byte, on, true)
            }
        };

        // Monitor touches and epoch bookkeeping (dynamic modes only).
        let mut slot_attr = None;
        if let Mode::Dynamic(_) = self.cfg.mode {
            if on_pkg {
                let slot = (machine_byte / g.page_bytes()) as u32;
                slot_attr = Some(slot);
                self.lru.touch(slot);
            } else {
                self.mru.touch(page.0, sub.0);
            }
            self.accesses_in_epoch += 1;
            if self.accesses_in_epoch >= self.cfg.swap_interval {
                self.accesses_in_epoch = 0;
                self.consider_swap(effective);
            }
        }

        // Fixed-path components.
        let controller = lat.mc_processing
            + 2 * lat.ctl_to_core_each_way
            + if translated { lat.translation_table } else { 0 };
        let interconnect = if on_pkg {
            2 * lat.interposer_pin_each_way + lat.intra_package_round_trip
        } else {
            2 * lat.package_pin_each_way + lat.pcb_wire_round_trip
        };
        // The request-side share of the fixed path leads the DRAM arrival.
        let lead = lat.mc_processing
            + lat.ctl_to_core_each_way
            + if translated { lat.translation_table } else { 0 }
            + if on_pkg { lat.interposer_pin_each_way } else { lat.package_pin_each_way };

        let id = self.fresh_id();
        self.meta.insert(
            id,
            MetaSlot::Demand(DemandMeta {
                issued_at: now,
                stall,
                controller,
                interconnect,
                on_package: on_pkg,
                is_write,
                page: page.0,
                slot: slot_attr,
            }),
        );
        let local = self.region_local(machine_byte, on_pkg);
        let txn = Transaction::demand(id, effective + lead, local, is_write);
        if on_pkg {
            self.stats.demand_on_lines += 1;
            self.on_region.enqueue(txn);
        } else {
            self.stats.demand_off_lines += 1;
            self.off_region.enqueue(txn);
        }
        id
    }

    /// Byte address local to the chosen region.
    fn region_local(&self, machine_byte: u64, on_pkg: bool) -> u64 {
        match self.cfg.mode {
            // Comparison modes address one region with the whole space.
            Mode::AllOnPackage | Mode::AllOffPackage => machine_byte,
            _ => {
                if on_pkg {
                    machine_byte
                } else {
                    machine_byte - self.cfg.machine.geometry.on_package_bytes
                }
            }
        }
    }

    /// Epoch-boundary trigger: compare the off-package MRU candidate with
    /// the on-package LRU slot and start a swap if strictly hotter.
    fn consider_swap(&mut self, now: Cycle) {
        self.stats.epochs += 1;
        // Translation-RAM row corruption check (the table rows are SRAM
        // protected by ECC; the model is detect-and-repair): a corrupted
        // row costs a repair stall akin to a kernel table update, never a
        // wrong translation.
        if let Some(plan) = self.cfg.faults {
            if plan.row_corrupts(self.stats.epochs) {
                self.stats.row_corruptions += 1;
                self.stall_until = self.stall_until.max(now + self.cfg.machine.latency.os_update);
                if self.sink.enabled(EventKind::FaultInjected) {
                    let slot = self.stats.epochs % self.table.slots();
                    self.sink.emit(Event::FaultInjected {
                        cycle: now,
                        class: FaultClass::RowCorruption,
                        detail: slot,
                    });
                }
            }
        }
        // A pending quarantine drain outranks starting a new swap.
        self.maybe_start_quarantine(now);
        let rejected_before = self.stats.rejected_triggers;
        self.swap_decision(now);
        self.lru.new_epoch();
        self.mru.new_epoch();
        // Hand the epoch's buffered demand events to the sink in one batch
        // before the rollover marker (export re-sorts by cycle, so only
        // same-cycle tie-break order depends on this).
        self.sink.emit_batch(&mut self.demand_events);
        if self.sink.enabled(EventKind::EpochRollover) {
            let rejected = self.stats.rejected_triggers > rejected_before;
            self.emit_epoch_rollover(now, self.stats.epochs - 1, rejected);
        }
    }

    /// Emit an [`Event::EpochRollover`] carrying the deltas since the last
    /// rollover, and advance the mark.
    fn emit_epoch_rollover(&mut self, now: Cycle, epoch: u64, rejected: bool) {
        let s = self.stats;
        let completed = self.engine.as_ref().map_or(0, |e| e.stats().completed);
        let migration = s.migration_on_lines + s.migration_off_lines;
        let m = self.epoch_mark;
        self.sink.emit(Event::EpochRollover {
            cycle: now,
            epoch,
            demand_on: s.demand_on_lines - m.demand_on,
            demand_off: s.demand_off_lines - m.demand_off,
            migration_lines: migration - m.migration,
            stall_cycles: s.stall_cycles - m.stall,
            swaps_completed: completed - m.swaps_completed,
            rejected,
        });
        self.epoch_mark = EpochMark {
            demand_on: s.demand_on_lines,
            demand_off: s.demand_off_lines,
            migration,
            stall: s.stall_cycles,
            swaps_completed: completed,
        };
    }

    /// The swap-trigger comparison of `consider_swap`, separated so the
    /// epoch bookkeeping wraps every exit path uniformly.
    fn swap_decision(&mut self, now: Cycle) {
        let Some(engine) = &mut self.engine else { return };
        if engine.busy() {
            // "The existence of P bit and F bit prevents triggering
            // another swap if the previous swap is not complete yet."
            return;
        }
        let table = &self.table;
        let n = table.slots();
        // Skip pages that are already fast or not migratable.
        let hot_candidate = self.mru.hottest_with_level(|p| {
            if p >= n {
                table.cam_lookup(p).is_some() || table.is_reserved(p)
            } else {
                !matches!(table.row_state(p as u32), RowState::Swapped(_))
            }
        });
        if let Some((hot, hot_count, hot_sub, hot_level)) = hot_candidate {
            let empty = table.empty_slot();
            let cold = self.lru.coldest(|s| {
                Some(s) == empty || (hot < n && s as u64 == hot) || table.is_quarantined(s)
            });
            if let Some(cold_slot) = cold {
                let cold_count = self.lru.epoch_count(cold_slot);
                // HotCold is the paper's comparative trigger. The MLQ rule
                // ("Efficient Page Migration in Hybrid Memory Systems")
                // promotes on multi-queue level: a page that climbed past
                // level 0 has demonstrated sustained reuse and migrates
                // even when the victim happens to be warm this epoch;
                // level-0 pages still face the comparative trigger.
                let trigger = match self.migration {
                    MigrationPolicy::HotCold => hot_count > cold_count,
                    MigrationPolicy::Mlq => hot_level > 0 || hot_count > cold_count,
                };
                if trigger {
                    let cases_before = engine.stats().case_counts;
                    if engine.start_swap(&mut self.table, hot, cold_slot, hot_sub) {
                        self.mru.remove(hot);
                        if self.sink.enabled(EventKind::SwapStart) {
                            let after = engine.stats().case_counts;
                            let case =
                                (0..4).find(|&i| after[i] > cases_before[i]).unwrap_or(0) as u8;
                            self.swap_steps_seen = 0;
                            self.swap_subs_mark = engine.stats().sub_blocks_copied;
                            self.sink.emit(Event::SwapStart {
                                cycle: now,
                                hot_page: hot,
                                cold_slot,
                                case,
                            });
                        }
                        if self.sink.enabled(EventKind::PfTransition) {
                            for t in engine.drain_pf_log() {
                                self.sink.emit(Event::PfTransition {
                                    cycle: now,
                                    slot: t.slot,
                                    bit: t.bit,
                                    set: t.set,
                                });
                            }
                        }
                        if engine.halting() {
                            // Halt window estimate: ~3 page moves (the
                            // case-average) at the full off-package
                            // bandwidth — while execution is halted, the
                            // copy engine owns every channel. At 4 KB
                            // pages this is under a thousand cycles
                            // (matching the paper's observation that N and
                            // N-1 converge at fine granularity); at 4 MB
                            // it is ~1M cycles, the paper's 374 us.
                            let g = self.cfg.machine.geometry;
                            let est = g.lines_per_page()
                                * self
                                    .cfg
                                    .machine
                                    .clock
                                    .dram_to_cpu(self.cfg.off_profile.timing.t_burst)
                                * 3
                                / self.cfg.off_profile.channels as u64;
                            self.stall_until = self.stall_until.max(now + est);
                        }
                        if self.cfg.is_os_assisted() {
                            // Kernel entry/exit for the table update.
                            self.stall_until =
                                self.stall_until.max(now + self.cfg.machine.latency.os_update);
                        }
                        self.pump_copies(now);
                    }
                } else {
                    self.stats.rejected_triggers += 1;
                }
            }
        }
    }

    /// Issue migration transfers up to the outstanding limit.
    ///
    /// Each sub-block copy is issued as per-line read and write legs: the
    /// sub-block (4 KB) is the *bookkeeping* granularity of the fill
    /// bitmap, but on the buses the lines stripe across channels exactly
    /// like demand traffic, so a copy soaks up whatever per-channel idle
    /// capacity exists without monopolising any one bus.
    fn pump_copies(&mut self, now: Cycle) {
        let Some(engine) = &mut self.engine else { return };
        let g = self.cfg.machine.geometry;
        let sub_lines = (g.sub_block_bytes() / LINE_BYTES).max(1) as u32;
        let mut allowance = self.cfg.max_outstanding_copies.saturating_sub(self.outstanding_copies);
        // Pacing: one sub-block may be injected per
        // `sub_lines x pace` cycles.
        // While the halting N design stalls execution, the copy engine
        // owns the buses: no pacing.
        let pace = if engine.halting() {
            0
        } else {
            self.cfg.copy_pace_cycles_per_line * sub_lines as u64
        };
        if pace > 0 {
            // Idle time does not bank copy credit: at most one pace
            // quantum may have accumulated, so a newly triggered swap
            // starts as a trickle, not a burst.
            self.copy_release = self.copy_release.max(now.saturating_sub(pace));
            match now.checked_sub(self.copy_release) {
                None => allowance = 0,
                Some(elapsed) => {
                    let window = 1 + elapsed / pace;
                    allowance = allowance.min(window.min(u32::MAX as u64) as u32);
                }
            }
        }
        if allowance == 0 {
            return;
        }
        let mut transfers = std::mem::take(&mut self.transfer_scratch);
        engine.take_transfers(allowance, &mut transfers);
        if pace > 0 && !transfers.is_empty() {
            self.copy_release = self.copy_release.max(now) + pace * transfers.len() as u64;
        }
        for t in transfers.drain(..) {
            self.enqueue_transfer(t, now);
        }
        self.transfer_scratch = transfers;
    }

    /// Issue the per-line read and write legs of one sub-block transfer,
    /// arriving at `arrival` (the future, for retries with backoff). For
    /// forward transfers under a fault plan this is also where the
    /// transfer's fate is sealed: a hash of the monotone issue counter
    /// decides up front whether this copy will be dropped or time out,
    /// which keeps fault placement independent of completion order.
    fn enqueue_transfer(&mut self, t: Transfer, arrival: Cycle) {
        let g = self.cfg.machine.geometry;
        let sub_lines = (g.sub_block_bytes() / LINE_BYTES).max(1) as u32;
        let mut fail = None;
        if t.kind == TransferKind::Forward {
            if let Some(plan) = self.cfg.faults {
                let seq = self.copy_seq;
                self.copy_seq += 1;
                fail = match plan.transfer_fault(seq) {
                    Some(TransferFault::Dropped) => Some(FailKind::Dropped),
                    Some(TransferFault::TimedOut) => Some(FailKind::TimedOut),
                    None => None,
                };
            }
        }
        let src_on = self.table.is_on_package(t.src);
        let dst_on = self.table.is_on_package(t.dst);
        let slot = if src_on {
            Some(t.src.0 as u32)
        } else if dst_on {
            Some(t.dst.0 as u32)
        } else {
            None
        };
        let sub_off = t.sub as u64 * g.sub_block_bytes();
        let src_base = self.region_local(t.src.0 * g.page_bytes() + sub_off, src_on);
        let dst_base = self.region_local(t.dst.0 * g.page_bytes() + sub_off, dst_on);
        // All legs of a sub-block share one arena entry (and the engine
        // token inside it); the last leg to complete reports to the
        // engine.
        let leg = self.copy_legs.insert(LegState {
            remaining: 2 * sub_lines,
            fail,
            kind: t.kind,
            slot,
            gen: self.copy_gen,
            token: t.token,
        });
        for k in 0..sub_lines as u64 {
            let off = k * LINE_BYTES;
            let read_id = self.fresh_id();
            let write_id = self.fresh_id();
            self.meta.insert(read_id, MetaSlot::Copy(leg));
            self.meta.insert(write_id, MetaSlot::Copy(leg));
            self.copy_ids_live += 2;
            let read = Transaction::migration(read_id, arrival, src_base + off, false, 1);
            let write = Transaction::migration(write_id, arrival, dst_base + off, true, 1);
            if src_on {
                self.stats.migration_on_lines += 1;
                self.on_region.enqueue(read);
            } else {
                self.stats.migration_off_lines += 1;
                self.off_region.enqueue(read);
            }
            if dst_on {
                self.stats.migration_on_lines += 1;
                self.on_region.enqueue(write);
            } else {
                self.stats.migration_off_lines += 1;
                self.off_region.enqueue(write);
            }
        }
        self.outstanding_copies += 1;
    }

    /// Advance simulated time; service queues and process completions.
    pub fn advance(&mut self, now: Cycle) {
        self.now = self.now.max(now);
        // The paced copy engine releases work as time passes, not only on
        // completions.
        if self.engine.as_ref().is_some_and(|e| e.busy()) {
            self.pump_copies(now);
        }
        self.on_region.advance_par(now);
        self.off_region.advance_par(now);
        self.process_completions(now);
    }

    /// Drain all queues at end of trace; completes in-flight migration.
    pub fn flush(&mut self) {
        let mut guard = 0;
        loop {
            self.on_region.flush_par();
            self.off_region.flush_par();
            let had = self.process_completions(self.now);
            let busy = self.engine.as_ref().is_some_and(|e| e.busy());
            if !had && !busy && self.copy_ids_live == 0 {
                break;
            }
            if !had && busy {
                // The engine wants to issue more transfers; pacing no
                // longer applies once the trace has ended.
                self.copy_release = 0;
                let saved = self.cfg.copy_pace_cycles_per_line;
                self.cfg.copy_pace_cycles_per_line = 0;
                self.pump_copies(self.now);
                self.cfg.copy_pace_cycles_per_line = saved;
                if self.copy_ids_live == 0 {
                    // Nothing issuable: abandon (trace ended mid-swap).
                    break;
                }
            }
            guard += 1;
            assert!(guard < 1_000_000, "flush did not converge");
        }
        self.sink.emit_batch(&mut self.demand_events);
        if self.sink.enabled(EventKind::EpochRollover) {
            // Tail row covering the partial epoch since the last rollover,
            // so the per-epoch CSV sums exactly to the flat counters.
            self.emit_epoch_rollover(self.now, self.stats.epochs, false);
        }
    }

    fn process_completions(&mut self, now: Cycle) -> bool {
        let lat = self.cfg.machine.latency;
        let mut any = false;
        let mut completions = std::mem::take(&mut self.comp_scratch);
        self.on_region.drain_completions_into(&mut completions);
        self.off_region.drain_completions_into(&mut completions);
        for c in completions.drain(..) {
            any = true;
            match self.meta.remove(c.id) {
                MetaSlot::Demand(meta) => {
                    // Uncorrectable demand reads count against the serving
                    // slot's quarantine budget.
                    if matches!(c.fault, Some(MemFault::Uncorrectable(_))) {
                        if let Some(slot) = meta.slot {
                            self.note_uncorrectable(slot);
                        }
                    }
                    // Response-side share of the fixed path.
                    let tail = lat.ctl_to_core_each_way
                        + if meta.on_package {
                            lat.interposer_pin_each_way + lat.intra_package_round_trip
                        } else {
                            lat.package_pin_each_way + lat.pcb_wire_round_trip
                        };
                    let finish = c.finish + tail;
                    let breakdown = LatencyBreakdown {
                        dram_core: c.breakdown.dram_core,
                        queuing: c.breakdown.queuing + meta.stall,
                        controller: meta.controller,
                        interconnect: meta.interconnect,
                    };
                    debug_assert_eq!(
                        breakdown.total(),
                        finish - meta.issued_at,
                        "latency components must sum to end-to-end latency"
                    );
                    if self.sink.enabled(EventKind::Demand) {
                        self.demand_events.push(Event::Demand {
                            cycle: finish,
                            page: meta.page,
                            on_package: meta.on_package,
                            is_write: meta.is_write,
                            latency: breakdown.total(),
                            queuing: breakdown.queuing,
                        });
                        if self.demand_events.len() >= DEMAND_BATCH_CAP {
                            self.sink.emit_batch(&mut self.demand_events);
                        }
                    }
                    self.completed.push(DemandCompletion {
                        id: c.id,
                        finish,
                        breakdown,
                        on_package: meta.on_package,
                        is_write: meta.is_write,
                    });
                }
                MetaSlot::Copy(leg) => {
                    self.copy_ids_live -= 1;
                    self.handle_copy_leg(leg, c.fault, now.max(c.finish));
                }
                MetaSlot::Empty => {}
            }
        }
        self.comp_scratch = completions;
        any
    }

    fn handle_copy_leg(&mut self, handle: u32, fault: Option<MemFault>, now: Cycle) {
        let leg = self.copy_legs.get_mut(handle).expect("legs tracked per handle");
        if leg.gen != self.copy_gen {
            // A leg issued for a swap that has since aborted: its data is
            // discarded on arrival (the rollback owns those pages now).
            leg.remaining -= 1;
            if leg.remaining == 0 {
                self.copy_legs.remove(handle);
                self.stats.abandoned_sub_blocks += 1;
            }
            return;
        }
        // All line read/write legs of a sub-block share the arena entry;
        // the last one to complete reports to the engine.
        if leg.kind == TransferKind::Forward
            && leg.fail.is_none()
            && matches!(fault, Some(MemFault::Uncorrectable(_)))
        {
            leg.fail = Some(FailKind::Ecc);
        }
        leg.remaining -= 1;
        if leg.remaining > 0 {
            return;
        }
        let leg = self.copy_legs.remove(handle);
        let token = leg.token;
        self.outstanding_copies = self.outstanding_copies.saturating_sub(1);
        if let Some(kind) = leg.fail {
            match kind {
                FailKind::Dropped => {
                    self.stats.transfers_dropped += 1;
                    if self.sink.enabled(EventKind::FaultInjected) {
                        self.sink.emit(Event::FaultInjected {
                            cycle: now,
                            class: FaultClass::TransferDrop,
                            detail: token,
                        });
                    }
                }
                FailKind::TimedOut => {
                    self.stats.transfers_timed_out += 1;
                    if self.sink.enabled(EventKind::FaultInjected) {
                        self.sink.emit(Event::FaultInjected {
                            cycle: now,
                            class: FaultClass::TransferTimeout,
                            detail: token,
                        });
                    }
                }
                // The channel already counted and reported the ECC event;
                // here it only escalates to a transfer failure.
                FailKind::Ecc => {
                    self.stats.transfers_ecc_failed += 1;
                    if let Some(slot) = leg.slot {
                        self.note_uncorrectable(slot);
                    }
                }
            }
            self.transfer_failure(token, now);
            return;
        }
        let Some(engine) = &mut self.engine else { return };
        let progress = engine.transfer_done(token, &mut self.table);
        let subs_copied = engine.stats().sub_blocks_copied;
        if self.sink.enabled(EventKind::PfTransition) {
            for t in engine.drain_pf_log() {
                self.sink.emit(Event::PfTransition {
                    cycle: now,
                    slot: t.slot,
                    bit: t.bit,
                    set: t.set,
                });
            }
        }
        use crate::migrate::SwapProgress;
        match progress {
            SwapProgress::StepDone => {
                if self.sink.enabled(EventKind::SwapStep) {
                    self.sink.emit(Event::SwapStep { cycle: now, step: self.swap_steps_seen });
                    self.swap_steps_seen += 1;
                }
            }
            SwapProgress::SwapDone => {
                if self.sink.enabled(EventKind::SwapComplete) {
                    self.sink.emit(Event::SwapComplete {
                        cycle: now,
                        sub_blocks: subs_copied - self.swap_subs_mark,
                    });
                }
            }
            // The abort itself was reported when the rollback began.
            SwapProgress::RollbackDone => {}
            SwapProgress::DrainDone { slot, parked } => {
                self.stats.slots_quarantined += 1;
                if self.sink.enabled(EventKind::SlotQuarantined) {
                    self.sink.emit(Event::SlotQuarantined {
                        cycle: now,
                        slot,
                        parked_page: parked,
                    });
                }
            }
            SwapProgress::InFlight => {}
        }
        match progress {
            SwapProgress::SwapDone
            | SwapProgress::RollbackDone
            | SwapProgress::DrainDone { .. } => {
                // The halting N design's stall window is the estimate set
                // at trigger time; it is deliberately not shortened here —
                // the controller's effective clock must stay monotone so
                // per-channel arrival order is preserved.
                if self.cfg.is_os_assisted() {
                    self.stall_until =
                        self.stall_until.max(now + self.cfg.machine.latency.os_update);
                }
                // The engine is idle: a pending slot retirement may start.
                self.maybe_start_quarantine(now);
            }
            SwapProgress::StepDone => {
                if self.cfg.is_os_assisted() {
                    self.stall_until =
                        self.stall_until.max(now + self.cfg.machine.latency.os_update);
                }
            }
            SwapProgress::InFlight => {}
        }
        self.pump_copies(now);
    }

    /// The last leg of a transfer arrived with its copy marked failed:
    /// consult the engine for retry-or-abort and carry out the decision.
    fn transfer_failure(&mut self, token: u64, now: Cycle) {
        let plan = self.cfg.faults.expect("transfer failures require a fault plan");
        let action = {
            let Some(engine) = &mut self.engine else { return };
            engine.transfer_failed(token, &mut self.table, plan.max_retries)
        };
        if self.sink.enabled(EventKind::PfTransition) {
            if let Some(engine) = &mut self.engine {
                for t in engine.drain_pf_log() {
                    self.sink.emit(Event::PfTransition {
                        cycle: now,
                        slot: t.slot,
                        bit: t.bit,
                        set: t.set,
                    });
                }
            }
        }
        match action {
            FailureAction::Retry(t) => {
                self.stats.transfer_retries += 1;
                if self.sink.enabled(EventKind::TransferRetried) {
                    self.sink.emit(Event::TransferRetried {
                        cycle: now,
                        sub: t.sub,
                        attempt: t.attempt,
                    });
                }
                // Exponential backoff, capped to keep the shift sane.
                let backoff = plan.retry_backoff_cycles << (t.attempt - 1).min(16);
                self.enqueue_transfer(t, now + backoff);
            }
            FailureAction::RollbackStarted | FailureAction::Aborted => {
                if self.sink.enabled(EventKind::SwapAborted) {
                    self.sink.emit(Event::SwapAborted {
                        cycle: now,
                        step: (token >> 32) as u32,
                        rollback: matches!(action, FailureAction::RollbackStarted),
                    });
                }
                // Outstanding transfers of the dead swap become stale:
                // bump the generation so their completions are discarded.
                self.copy_gen += 1;
                self.outstanding_copies = 0;
                self.maybe_start_quarantine(now);
                self.pump_copies(now);
            }
        }
    }

    /// Count an uncorrectable error against an on-package slot; past the
    /// plan's threshold the slot is queued for quarantine.
    fn note_uncorrectable(&mut self, slot: u32) {
        let Some(plan) = self.cfg.faults else { return };
        let count = &mut self.slot_errors[slot as usize];
        *count += 1;
        if *count >= plan.quarantine_threshold
            && !self.pending_quarantine.contains(&slot)
            && !self.table.is_quarantined(slot)
        {
            self.pending_quarantine.push(slot);
        }
    }

    /// Start a quarantine drain for the oldest pending slot, if the engine
    /// is idle and degrading further still leaves a workable pool (a spare
    /// page to park the occupant, and more than three usable slots so the
    /// hottest-coldest trigger keeps a meaningful choice).
    fn maybe_start_quarantine(&mut self, now: Cycle) {
        if self.pending_quarantine.is_empty() {
            return;
        }
        let Some(engine) = &mut self.engine else {
            self.pending_quarantine.clear();
            return;
        };
        if !engine.design().sacrifices_slot() {
            self.pending_quarantine.clear();
            return;
        }
        if engine.busy() {
            return;
        }
        let mut started = false;
        while let Some(slot) = self.pending_quarantine.first().copied() {
            let usable = self.table.slots() - self.table.quarantined_count();
            if usable <= 3 || !self.table.spare_available() {
                // Degraded as far as allowed; further requests are moot.
                self.pending_quarantine.clear();
                break;
            }
            self.pending_quarantine.remove(0);
            if self.table.is_quarantined(slot) {
                continue;
            }
            if engine.start_quarantine(&mut self.table, slot) {
                started = true;
                break;
            }
        }
        if started {
            self.pump_copies(now);
        }
    }

    /// Append the demand completions accumulated so far to `out`, in
    /// completion order; the same spelling serves the
    /// [`crate::scheme::PlacementScheme`] trait.
    pub fn drain_completed_into(&mut self, out: &mut Vec<DemandCompletion>) {
        out.append(&mut self.completed);
    }

    /// Endurance counters of the off-package region when its media is
    /// non-volatile (a profile without refresh, `t_refi == 0`, such as
    /// [`DeviceProfile::pcm`]); `None` for DRAM, which has no endurance
    /// limit.
    pub fn wear(&self) -> Option<hmm_dram::WearStats> {
        (self.cfg.off_profile.timing.t_refi == 0).then(|| self.off_region.wear())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_sim_base::config::{LatencyConfig, MemoryGeometry};
    use hmm_sim_base::cycles::CpuClock;
    use hmm_sim_base::rng::SimRng;

    /// Tiny geometry: 1 MB total, 128 KB on-package, 16 KB pages -> 8
    /// slots, 64 pages, 4 KB sub-blocks.
    fn tiny_geometry() -> MemoryGeometry {
        MemoryGeometry {
            total_bytes: 1 << 20,
            on_package_bytes: 128 << 10,
            page_shift: 14,
            sub_block_shift: 12,
        }
    }

    fn cfg(mode: Mode) -> ControllerConfig {
        ControllerConfig {
            machine: MachineConfig {
                clock: CpuClock::default(),
                latency: LatencyConfig::default(),
                geometry: tiny_geometry(),
            },
            mode,
            swap_interval: 200,
            os_assisted: Some(false),
            max_outstanding_copies: 8,
            copy_pace_cycles_per_line: 20,
            policy: SchedPolicy::FrFcfs,
            on_profile: DeviceProfile::on_package(),
            off_profile: DeviceProfile::off_package_ddr3(),
            faults: None,
        }
    }

    fn run(
        mode: Mode,
        accesses: usize,
        hot_page: u64,
    ) -> (HeteroController, Vec<DemandCompletion>) {
        let mut c = HeteroController::new(cfg(mode));
        let mut rng = SimRng::new(5);
        let g = tiny_geometry();
        let mut now = 0;
        for _ in 0..accesses {
            now += 40;
            // 80% of accesses to the hot (off-package) page, the rest
            // uniform.
            let addr = if rng.chance(0.8) {
                hot_page * g.page_bytes() + (rng.below(g.page_bytes()) & !63)
            } else {
                rng.below(g.total_bytes - g.page_bytes()) & !63
            };
            c.access(now, PhysAddr(addr), rng.chance(0.3));
            c.advance(now);
        }
        c.flush();
        let mut done = Vec::new();
        c.drain_completed_into(&mut done);
        (c, done)
    }

    #[test]
    fn baseline_modes_route_everything_one_way() {
        let (c, done) = run(Mode::AllOffPackage, 500, 40);
        assert_eq!(c.stats().demand_on_lines, 0);
        assert_eq!(done.len(), 500);
        assert!(done.iter().all(|d| !d.on_package));

        let (c, done) = run(Mode::AllOnPackage, 500, 40);
        assert_eq!(c.stats().demand_off_lines, 0);
        assert!(done.iter().all(|d| d.on_package));
    }

    #[test]
    fn static_mapping_splits_by_address() {
        let (c, done) = run(Mode::Static, 500, 40);
        assert!(c.stats().demand_on_lines > 0);
        assert!(c.stats().demand_off_lines > 0);
        // The hot page (page 40 of 64, beyond the 8 on-package slots) is
        // off-package under static mapping.
        let hot_accesses = done.iter().filter(|d| !d.on_package).count();
        assert!(hot_accesses > done.len() / 2);
    }

    #[test]
    fn fixed_path_latencies_match_table2() {
        // A single idle access in each mode hits the analytic numbers.
        let lat = LatencyConfig::default();
        let (_, done) = run(Mode::AllOffPackage, 1, 40);
        let d = &done[0];
        assert_eq!(d.breakdown.controller, lat.mc_processing + 2 * lat.ctl_to_core_each_way);
        assert_eq!(
            d.breakdown.interconnect,
            2 * lat.package_pin_each_way + lat.pcb_wire_round_trip
        );
        let (_, done) = run(Mode::AllOnPackage, 1, 40);
        let d = &done[0];
        assert_eq!(
            d.breakdown.interconnect,
            2 * lat.interposer_pin_each_way + lat.intra_package_round_trip
        );
    }

    #[test]
    fn dynamic_migration_moves_the_hot_page_on_package() {
        let (c, done) = run(Mode::Dynamic(MigrationDesign::LiveMigration), 4_000, 40);
        let swaps = c.swap_stats().unwrap();
        assert!(swaps.completed >= 1, "at least one swap should complete");
        // The hot page must be on-package at the end.
        assert!(c.table().cam_lookup(40).is_some(), "hot page 40 should be CAM-mapped on-package");
        // Late accesses to the hot page are served on-package.
        let late_hot: Vec<_> = done.iter().rev().take(200).filter(|d| d.on_package).collect();
        assert!(!late_hot.is_empty());
        c.table().check_invariants(true, true).unwrap();
    }

    #[test]
    fn migration_reduces_average_latency_vs_static() {
        let (_, stat) = run(Mode::Static, 6_000, 40);
        let (_, dynv) = run(Mode::Dynamic(MigrationDesign::LiveMigration), 6_000, 40);
        let mean = |v: &[DemandCompletion]| {
            v.iter().map(|d| d.breakdown.total()).sum::<u64>() as f64 / v.len() as f64
        };
        let m_static = mean(&stat);
        let m_dyn = mean(&dynv);
        assert!(
            m_dyn < m_static * 0.95,
            "migration should cut latency: static {m_static:.0} vs dynamic {m_dyn:.0}"
        );
    }

    #[test]
    fn all_three_designs_complete_swaps() {
        for design in
            [MigrationDesign::N, MigrationDesign::NMinusOne, MigrationDesign::LiveMigration]
        {
            let (c, done) = run(Mode::Dynamic(design), 4_000, 40);
            assert_eq!(done.len(), 4_000, "{design:?} lost completions");
            let swaps = c.swap_stats().unwrap();
            assert!(swaps.completed >= 1, "{design:?} completed no swaps");
            c.table().check_invariants(true, design.sacrifices_slot()).unwrap();
        }
    }

    #[test]
    fn n_design_accumulates_stall_cycles() {
        let (c, _) = run(Mode::Dynamic(MigrationDesign::N), 4_000, 40);
        assert!(c.stats().stall_cycles > 0, "the halting design must stall demand");
        let (c2, _) = run(Mode::Dynamic(MigrationDesign::LiveMigration), 4_000, 40);
        assert!(c2.stats().stall_cycles < c.stats().stall_cycles);
    }

    #[test]
    fn os_assisted_adds_update_stalls() {
        let mut base = cfg(Mode::Dynamic(MigrationDesign::LiveMigration));
        base.os_assisted = Some(true);
        let mut hw = cfg(Mode::Dynamic(MigrationDesign::LiveMigration));
        hw.os_assisted = Some(false);
        let run_with = |cc: ControllerConfig| {
            let mut c = HeteroController::new(cc);
            let mut rng = SimRng::new(5);
            let g = tiny_geometry();
            let mut now = 0;
            for _ in 0..4_000 {
                now += 40;
                let addr = if rng.chance(0.8) {
                    40 * g.page_bytes() + (rng.below(g.page_bytes()) & !63)
                } else {
                    rng.below(g.total_bytes - g.page_bytes()) & !63
                };
                c.access(now, PhysAddr(addr), false);
                c.advance(now);
            }
            c.flush();
            c
        };
        let c_os = run_with(base);
        let c_hw = run_with(hw);
        assert!(
            c_os.stats().stall_cycles > c_hw.stats().stall_cycles,
            "OS-assisted updates must add kernel-switch stalls"
        );
    }

    #[test]
    fn completions_match_submissions() {
        let (c, done) = run(Mode::Dynamic(MigrationDesign::NMinusOne), 2_000, 40);
        assert_eq!(done.len(), 2_000);
        let mut ids: Vec<u64> = done.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 2_000, "duplicate or missing completions");
        assert_eq!(c.stats().demand_on_lines + c.stats().demand_off_lines, 2_000);
    }

    #[test]
    fn migration_traffic_is_accounted() {
        let (c, _) = run(Mode::Dynamic(MigrationDesign::LiveMigration), 4_000, 40);
        let s = c.stats();
        let swaps = c.swap_stats().unwrap();
        assert!(s.migration_on_lines > 0);
        assert!(s.migration_off_lines > 0);
        // Every sub-block copy moves sub_block/line lines twice (read +
        // write legs).
        let lines_per_sub = tiny_geometry().sub_block_bytes() / 64;
        assert_eq!(
            s.migration_on_lines + s.migration_off_lines,
            swaps.sub_blocks_copied * lines_per_sub * 2
        );
    }

    /// Like [`run`] but with a fault plan armed; accesses stay below the
    /// program-visible ceiling (spare pages are carved from the top).
    fn run_faulty(
        plan: FaultPlan,
        design: MigrationDesign,
        accesses: usize,
    ) -> (HeteroController, Vec<DemandCompletion>) {
        let mut c = HeteroController::new(ControllerConfig {
            faults: Some(plan),
            ..cfg(Mode::Dynamic(design))
        });
        let mut rng = SimRng::new(5);
        let g = tiny_geometry();
        let visible = c.table().first_reserved_page();
        let mut now = 0;
        for _ in 0..accesses {
            now += 40;
            let addr = if rng.chance(0.8) {
                40 * g.page_bytes() + (rng.below(g.page_bytes()) & !63)
            } else {
                rng.below(visible * g.page_bytes()) & !63
            };
            c.access(now, PhysAddr(addr), rng.chance(0.3));
            c.advance(now);
        }
        c.flush();
        let mut done = Vec::new();
        c.drain_completed_into(&mut done);
        (c, done)
    }

    fn stress_plan() -> FaultPlan {
        FaultPlan {
            drop_rate: 0.05,
            timeout_rate: 0.02,
            flip_rate: 1e-4,
            uflip_rate: 2e-5,
            row_corrupt_rate: 0.05,
            max_retries: 2,
            retry_backoff_cycles: 500,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn faulty_runs_complete_and_reconcile_lines() {
        for design in
            [MigrationDesign::N, MigrationDesign::NMinusOne, MigrationDesign::LiveMigration]
        {
            let (c, done) = run_faulty(stress_plan(), design, 4_000);
            assert_eq!(done.len(), 4_000, "{design:?} lost completions under faults");
            let s = c.stats();
            let swaps = c.swap_stats().unwrap();
            assert!(
                s.transfers_dropped + s.transfers_timed_out > 0,
                "{design:?}: the stress plan should hit some transfers"
            );
            // Every issued sub-block ends exactly one way: copied (engine
            // saw it), failed (dropped/timed out/ECC), or abandoned by an
            // abort — so the line counters reconcile exactly.
            let lines_per_sub = tiny_geometry().sub_block_bytes() / 64;
            let outcomes = swaps.sub_blocks_copied
                + s.transfers_dropped
                + s.transfers_timed_out
                + s.transfers_ecc_failed
                + s.abandoned_sub_blocks;
            assert_eq!(
                s.migration_on_lines + s.migration_off_lines,
                outcomes * lines_per_sub * 2,
                "{design:?}: migration line accounting out of balance"
            );
            // Every started swap ended: completed, or aborted.
            assert_eq!(swaps.triggered, swaps.completed + swaps.aborted, "{design:?}");
            c.table().validate(design.sacrifices_slot()).unwrap();
        }
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let a = run_faulty(stress_plan(), MigrationDesign::LiveMigration, 3_000);
        let b = run_faulty(stress_plan(), MigrationDesign::LiveMigration, 3_000);
        assert_eq!(a.0.stats(), b.0.stats());
        assert_eq!(a.0.swap_stats(), b.0.swap_stats());
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn zero_rate_plan_matches_no_plan_exactly() {
        let plan = FaultPlan::default(); // all rates zero
        assert!(!plan.any_faults());
        let (cf, df) = run_faulty(plan, MigrationDesign::LiveMigration, 3_000);
        // The same run with faults: None — run_faulty's address stream is
        // identical because spare_slots defaults to >0... so compare
        // against a controller built without a plan but with the same
        // spare carve-out.
        let mut c = HeteroController::new(ControllerConfig {
            faults: Some(plan),
            ..cfg(Mode::Dynamic(MigrationDesign::LiveMigration))
        });
        let mut c0 = HeteroController::new(cfg(Mode::Dynamic(MigrationDesign::LiveMigration)));
        // Identical visible ceilings are required for identical streams.
        let visible = c.table().first_reserved_page().min(c0.table().first_reserved_page());
        let g = tiny_geometry();
        let mut rng = SimRng::new(9);
        let mut rng0 = SimRng::new(9);
        let mut now = 0;
        for _ in 0..2_000 {
            now += 40;
            let mk = |r: &mut SimRng| {
                if r.chance(0.8) {
                    40 * g.page_bytes() + (r.below(g.page_bytes()) & !63)
                } else {
                    r.below(visible * g.page_bytes()) & !63
                }
            };
            c.access(now, PhysAddr(mk(&mut rng)), false);
            c0.access(now, PhysAddr(mk(&mut rng0)), false);
            c.advance(now);
            c0.advance(now);
        }
        c.flush();
        c0.flush();
        let (mut done, mut done0) = (Vec::new(), Vec::new());
        c.drain_completed_into(&mut done);
        c0.drain_completed_into(&mut done0);
        assert_eq!(done, done0, "zero-rate plan must not perturb completions");
        assert_eq!(c.stats(), c0.stats());
        assert_eq!(c.swap_stats(), c0.swap_stats());
        // And the faulty-path counters all stayed at zero.
        let s = cf.stats();
        assert_eq!(
            (
                s.transfer_retries,
                s.transfers_dropped,
                s.transfers_timed_out,
                s.transfers_ecc_failed,
                s.abandoned_sub_blocks,
                s.row_corruptions,
                s.slots_quarantined
            ),
            (0, 0, 0, 0, 0, 0, 0)
        );
        assert!(!df.is_empty());
    }

    #[test]
    fn stuck_bank_drives_slot_quarantine() {
        // A stuck on-package bank makes every read through it
        // uncorrectable; with a low threshold the affected slots retire
        // and the run degrades instead of failing.
        let plan = FaultPlan {
            stuck_banks: {
                let mut banks = [None; hmm_fault::MAX_STUCK_BANKS];
                banks[0] = Some(hmm_fault::StuckBank {
                    region: hmm_fault::FaultRegion::On,
                    channel: 0,
                    bank: 0,
                });
                banks
            },
            quarantine_threshold: 2,
            spare_slots: 2,
            max_retries: 1,
            ..FaultPlan::default()
        };
        let (c, done) = run_faulty(plan, MigrationDesign::NMinusOne, 6_000);
        assert_eq!(done.len(), 6_000);
        let s = c.stats();
        assert!(s.slots_quarantined > 0, "stuck bank should retire at least one slot");
        assert!(c.table().quarantined_count() > 0);
        assert_eq!(s.slots_quarantined, c.table().quarantined_count());
        c.table().validate(true).unwrap();
        // Quarantined slots keep their page reachable (degraded, not
        // lost): each parks at a distinct reserved spare.
        let swaps = c.swap_stats().unwrap();
        assert_eq!(swaps.quarantine_drains, s.slots_quarantined);
    }

    #[test]
    fn controller_stats_merge_covers_fault_counters() {
        let mut a = ControllerStats {
            transfer_retries: 1,
            transfers_dropped: 2,
            transfers_timed_out: 3,
            transfers_ecc_failed: 4,
            abandoned_sub_blocks: 5,
            row_corruptions: 6,
            slots_quarantined: 7,
            ..ControllerStats::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.transfer_retries, 2);
        assert_eq!(a.transfers_dropped, 4);
        assert_eq!(a.transfers_timed_out, 6);
        assert_eq!(a.transfers_ecc_failed, 8);
        assert_eq!(a.abandoned_sub_blocks, 10);
        assert_eq!(a.row_corruptions, 12);
        assert_eq!(a.slots_quarantined, 14);
    }
}
