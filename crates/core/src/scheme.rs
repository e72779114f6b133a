//! Pluggable memory-placement schemes.
//!
//! The paper's heterogeneity-aware controller (Section III) is one point in
//! a larger design space it compares against: a flat hardware-managed DRAM
//! L4 cache (Section I), and — in the related work it positions against —
//! off-package media with asymmetric timing such as PCM. This module
//! factors the driver-facing surface of [`HeteroController`] into the
//! [`PlacementScheme`] trait so the same trace driver, telemetry, fault,
//! snapshot and serving layers run any of them unchanged:
//!
//! * [`SchemeId::Hetero`] — the paper's migrating controller, exactly as
//!   before (this is the default; its outputs are bit-identical to the
//!   pre-trait code).
//! * [`SchemeId::L4Cache`] — the on-package array used as a tags-in-DRAM
//!   15-way set-associative cache of off-package memory (the η comparison
//!   of Section I), built on `hmm-cache`'s machinery.
//! * [`SchemeId::Pcm`] — not a scheme of its own but a media profile: the
//!   hetero controller with the off-package DIMMs replaced by phase-change
//!   memory ([`DeviceProfile::pcm`]): asymmetric read/write timing, no
//!   refresh, and per-bank endurance counters surfaced through
//!   [`PlacementScheme::wear`] because the profile is non-volatile.
//!
//! Orthogonally, [`MigrationPolicy`] selects the swap-trigger rule the
//! migrating schemes apply at epoch boundaries: the paper's
//! hottest-vs-coldest comparison, or a multi-level-queue promotion rule
//! that also trusts queue level.

use crate::controller::{
    ControllerConfig, ControllerStats, DemandCompletion, HeteroController, Mode,
};
use crate::migrate::SwapStats;
use hmm_cache::{DramCache, DramCacheConfig};
use hmm_dram::{Completion, DeviceProfile, DramRegion, RegionStats, Transaction, WearStats};
use hmm_sim_base::addr::{LineAddr, PhysAddr};
use hmm_sim_base::cycles::Cycle;
use hmm_sim_base::snap::{SnapReader, SnapResult, SnapWriter};
use hmm_sim_base::stats::LatencyBreakdown;
use hmm_telemetry::{NullSink, RegionKind, TelemetrySink};

/// Which memory-management scheme a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchemeId {
    /// The paper's migrating heterogeneous controller (the default).
    #[default]
    Hetero,
    /// On-package array as a DRAM L4 cache of off-package memory.
    L4Cache,
    /// Hetero controller over off-package PCM instead of DDR3.
    Pcm,
}

impl SchemeId {
    /// Canonical lowercase token, round-trippable through
    /// [`FromStr`](std::str::FromStr); used by CLI flags, the wire format
    /// and sweep grids.
    pub fn token(&self) -> &'static str {
        match self {
            SchemeId::Hetero => "hetero",
            SchemeId::L4Cache => "l4cache",
            SchemeId::Pcm => "pcm",
        }
    }
}

impl std::str::FromStr for SchemeId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "hetero" => SchemeId::Hetero,
            "l4cache" => SchemeId::L4Cache,
            "pcm" => SchemeId::Pcm,
            other => return Err(format!("unknown scheme '{other}'")),
        })
    }
}

/// Swap-trigger rule applied by the migrating schemes at epoch boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrationPolicy {
    /// The paper's rule: swap when the hottest off-package page was touched
    /// strictly more than the coldest on-package slot this epoch.
    #[default]
    HotCold,
    /// Multi-level-queue promotion: any page that climbed out of the lowest
    /// MRU queue level is promoted regardless of the coldest slot's count
    /// (pages still in level 0 fall back to the comparative rule).
    Mlq,
}

impl MigrationPolicy {
    /// Canonical lowercase token, round-trippable through
    /// [`FromStr`](std::str::FromStr).
    pub fn token(&self) -> &'static str {
        match self {
            MigrationPolicy::HotCold => "hotcold",
            MigrationPolicy::Mlq => "mlq",
        }
    }
}

impl std::str::FromStr for MigrationPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "hotcold" => MigrationPolicy::HotCold,
            "mlq" => MigrationPolicy::Mlq,
            other => return Err(format!("unknown migration policy '{other}'")),
        })
    }
}

/// Check that a `(scheme, mode, migration)` combination is meaningful.
/// Call sites (CLI parsing, the wire layer) reject invalid combinations
/// with this message before building anything.
pub fn validate_scheme(
    scheme: SchemeId,
    mode: Mode,
    migration: MigrationPolicy,
) -> Result<(), String> {
    if scheme == SchemeId::L4Cache && mode != Mode::AllOffPackage {
        return Err(format!(
            "scheme 'l4cache' manages placement itself and only composes with mode 'off', got mode '{}'",
            mode.token()
        ));
    }
    if scheme == SchemeId::L4Cache && migration == MigrationPolicy::Mlq {
        return Err(
            "migration policy 'mlq' has no effect under scheme 'l4cache' (no migration engine)"
                .into(),
        );
    }
    Ok(())
}

/// The driver-facing surface every placement scheme implements.
///
/// The contract mirrors [`HeteroController`] exactly, so the trace driver,
/// snapshot/resume machinery and serving layers are scheme-agnostic:
///
/// * [`access`](PlacementScheme::access) submits one demand access and
///   returns a token matched by the corresponding [`DemandCompletion`];
///   `now` must be non-decreasing across calls.
/// * [`advance`](PlacementScheme::advance) services queued work up to
///   `now`; [`flush`](PlacementScheme::flush) runs everything (including
///   in-flight background traffic) to completion at end of trace.
/// * [`drain_completed_into`](PlacementScheme::drain_completed_into)
///   appends finished demand completions in completion order. Schemes must
///   produce the same completion stream for the same access stream on
///   every run (bit-determinism is a workspace invariant).
/// * [`save_state`](PlacementScheme::save_state) /
///   [`load_state`](PlacementScheme::load_state) serialize the complete
///   dynamic state; a resumed run must continue bit-identically. Schemes
///   are not interchangeable at resume time — the snapshot container's
///   config hash covers the scheme, so opening a snapshot under a
///   different scheme fails before `load_state` is reached.
/// * [`wear`](PlacementScheme::wear) reports endurance counters for
///   write-limited media; `None` (the default) means the scheme's media
///   has no endurance concern and reports stay byte-identical to builds
///   without the wear machinery.
pub trait PlacementScheme {
    /// Submit one demand access at `now`; returns its completion token.
    fn access(&mut self, now: Cycle, addr: PhysAddr, is_write: bool) -> u64;
    /// Service queued work up to `now`.
    fn advance(&mut self, now: Cycle);
    /// Run all queues (and any in-flight background work) to completion.
    fn flush(&mut self);
    /// Append finished demand completions to `out` in completion order.
    fn drain_completed_into(&mut self, out: &mut Vec<DemandCompletion>);
    /// Aggregate controller counters.
    fn stats(&self) -> ControllerStats;
    /// Migration statistics, if this scheme migrates.
    fn swap_stats(&self) -> Option<SwapStats>;
    /// DRAM region statistics: `(on_package, off_package)`.
    fn region_stats(&self) -> (RegionStats, RegionStats);
    /// Endurance counters for write-limited off-package media.
    fn wear(&self) -> Option<WearStats> {
        None
    }
    /// Serialize the scheme's full dynamic state for snapshot/resume.
    fn save_state(&self, w: &mut SnapWriter);
    /// Restore state saved by [`PlacementScheme::save_state`] onto a
    /// freshly constructed scheme with the same configuration.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()>;
}

impl<S: TelemetrySink + Clone + Send> PlacementScheme for HeteroController<S> {
    fn access(&mut self, now: Cycle, addr: PhysAddr, is_write: bool) -> u64 {
        HeteroController::access(self, now, addr, is_write)
    }

    fn advance(&mut self, now: Cycle) {
        HeteroController::advance(self, now)
    }

    fn flush(&mut self) {
        HeteroController::flush(self)
    }

    fn drain_completed_into(&mut self, out: &mut Vec<DemandCompletion>) {
        HeteroController::drain_completed_into(self, out)
    }

    fn stats(&self) -> ControllerStats {
        HeteroController::stats(self)
    }

    fn swap_stats(&self) -> Option<SwapStats> {
        HeteroController::swap_stats(self)
    }

    fn region_stats(&self) -> (RegionStats, RegionStats) {
        HeteroController::region_stats(self)
    }

    fn wear(&self) -> Option<WearStats> {
        HeteroController::wear(self)
    }

    fn save_state(&self, w: &mut SnapWriter) {
        HeteroController::save_state(self, w)
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        HeteroController::load_state(self, r)
    }
}

/// In-flight metadata for one L4 transaction id.
#[derive(Debug, Clone, Copy)]
enum L4Slot {
    /// Already consumed.
    Empty,
    /// A demand access: `(issued_at, controller, interconnect, on_package,
    /// is_write)`.
    Demand(Cycle, Cycle, Cycle, bool, bool),
    /// A background fill or write-back leg; dropped on completion.
    Background,
}

/// Tag of the L4 scheme's snapshot section. The tag store is saved as
/// its block words (tags, then each set's recency ranks), so a section
/// written with per-way LRU stamps (`l4ch`) is refused by name.
const L4_SECTION: &[u8; 4] = b"l4c2";

/// The DRAM-L4-cache baseline: the on-package array holds a tags-in-DRAM
/// 15-way set-associative cache of the flat off-package space (Section I's
/// "implements a 15-way set associative cache in the space of a 16-way
/// set-associative data array").
///
/// Every access pays the tag read against the on-package array first
/// (charged at the analytic tag latency the `hmm-cache` model derives),
/// then a hit reads its data line from the on-package region and a miss
/// goes off-package, with a background fill into the array and a
/// background write-back of any dirty victim — both contending with demand
/// traffic in the detailed DRAM model, exactly like migration traffic does
/// under the hetero scheme.
pub struct L4CacheScheme<S: TelemetrySink = NullSink> {
    cfg: ControllerConfig,
    l4: DramCache,
    on_region: DramRegion<S>,
    off_region: DramRegion<S>,
    /// Byte mask mapping a machine address onto the on-package array.
    array_mask: u64,
    next_id: u64,
    meta_base: u64,
    meta: std::collections::VecDeque<L4Slot>,
    completed: Vec<DemandCompletion>,
    comp_scratch: Vec<Completion>,
    stats: ControllerStats,
    now: Cycle,
}

impl<S: TelemetrySink + Clone + Send> L4CacheScheme<S> {
    /// Build the L4-cache baseline. `cfg.mode` must be
    /// [`Mode::AllOffPackage`] (validated by [`validate_scheme`]; asserted
    /// here). The array size is the largest power of two within the
    /// geometry's on-package capacity.
    pub fn with_sink(cfg: ControllerConfig, sink: S) -> Self {
        assert!(
            cfg.mode == Mode::AllOffPackage,
            "L4CacheScheme requires Mode::AllOffPackage (validate_scheme)"
        );
        cfg.machine.geometry.validate().expect("invalid geometry");
        let on_bytes = cfg.machine.geometry.on_package_bytes;
        let array_bytes = 1u64 << (63 - on_bytes.leading_zeros());
        let l4 =
            DramCache::new(DramCacheConfig { array_bytes, line_bytes: 64 }, &cfg.machine.latency);
        let on_region = DramRegion::with_sink(
            cfg.on_profile,
            &cfg.machine.clock,
            cfg.policy,
            hmm_dram::PagePolicy::Open,
            sink.clone(),
            RegionKind::OnPackage,
        );
        let off_region = DramRegion::with_sink(
            cfg.off_profile,
            &cfg.machine.clock,
            cfg.policy,
            hmm_dram::PagePolicy::Open,
            sink,
            RegionKind::OffPackage,
        );
        let mut this = Self {
            cfg,
            l4,
            on_region,
            off_region,
            array_mask: array_bytes - 1,
            next_id: 0,
            meta_base: 0,
            meta: std::collections::VecDeque::new(),
            completed: Vec::new(),
            comp_scratch: Vec::new(),
            stats: ControllerStats::default(),
            now: 0,
        };
        if let Some(plan) = this.cfg.faults {
            this.on_region.set_faults(plan);
            this.off_region.set_faults(plan);
        }
        this
    }

    /// Cache hit/miss counters (tests and reports).
    pub fn cache_stats(&self) -> hmm_cache::CacheStats {
        self.l4.stats()
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn meta_insert(&mut self, id: u64, slot: L4Slot) {
        if self.meta.is_empty() {
            self.meta_base = id;
        }
        debug_assert_eq!(id, self.meta_base + self.meta.len() as u64);
        self.meta.push_back(slot);
    }

    fn meta_remove(&mut self, id: u64) -> L4Slot {
        let idx = (id - self.meta_base) as usize;
        let slot = std::mem::replace(&mut self.meta[idx], L4Slot::Empty);
        while matches!(self.meta.front(), Some(L4Slot::Empty)) {
            self.meta.pop_front();
            self.meta_base += 1;
        }
        slot
    }

    fn process_completions(&mut self, _now: Cycle) -> bool {
        let lat = self.cfg.machine.latency;
        let mut any = false;
        let mut completions = std::mem::take(&mut self.comp_scratch);
        self.on_region.drain_completions_into(&mut completions);
        self.off_region.drain_completions_into(&mut completions);
        for c in completions.drain(..) {
            any = true;
            match self.meta_remove(c.id) {
                L4Slot::Demand(issued_at, controller, interconnect, on_package, is_write) => {
                    let tail = lat.ctl_to_core_each_way
                        + if on_package {
                            lat.interposer_pin_each_way + lat.intra_package_round_trip
                        } else {
                            lat.package_pin_each_way + lat.pcb_wire_round_trip
                        };
                    let finish = c.finish + tail;
                    let breakdown = LatencyBreakdown {
                        dram_core: c.breakdown.dram_core,
                        queuing: c.breakdown.queuing,
                        controller,
                        interconnect,
                    };
                    debug_assert_eq!(
                        breakdown.total(),
                        finish - issued_at,
                        "latency components must sum to end-to-end latency"
                    );
                    self.completed.push(DemandCompletion {
                        id: c.id,
                        finish,
                        breakdown,
                        on_package,
                        is_write,
                    });
                }
                L4Slot::Background | L4Slot::Empty => {}
            }
        }
        self.comp_scratch = completions;
        any
    }
}

impl<S: TelemetrySink + Clone + Send> PlacementScheme for L4CacheScheme<S> {
    fn access(&mut self, now: Cycle, addr: PhysAddr, is_write: bool) -> u64 {
        debug_assert!(now >= self.now, "time went backwards");
        self.now = now;
        let lat = self.cfg.machine.latency;
        let line = LineAddr(addr.0 >> 6);
        let tag = self.l4.tag_latency();
        let out = self.l4.access(line, is_write);

        // Fixed-path components; the tag read against the on-package array
        // serializes ahead of the data access on both paths.
        let controller = lat.mc_processing + 2 * lat.ctl_to_core_each_way + tag;
        let (interconnect, lead) = if out.hit {
            (
                2 * lat.interposer_pin_each_way + lat.intra_package_round_trip,
                lat.mc_processing + lat.ctl_to_core_each_way + tag + lat.interposer_pin_each_way,
            )
        } else {
            (
                2 * lat.package_pin_each_way + lat.pcb_wire_round_trip,
                lat.mc_processing + lat.ctl_to_core_each_way + tag + lat.package_pin_each_way,
            )
        };

        let id = self.fresh_id();
        self.meta_insert(id, L4Slot::Demand(now, controller, interconnect, out.hit, is_write));
        if out.hit {
            self.stats.demand_on_lines += 1;
            self.on_region.enqueue(Transaction::demand(
                id,
                now + lead,
                addr.0 & self.array_mask,
                is_write,
            ));
        } else {
            self.stats.demand_off_lines += 1;
            self.off_region.enqueue(Transaction::demand(id, now + lead, addr.0, is_write));
            // Background fill of the missed line into the array.
            let fill = self.fresh_id();
            self.meta_insert(fill, L4Slot::Background);
            self.stats.migration_on_lines += 1;
            self.on_region.enqueue(Transaction::migration(
                fill,
                now + lead,
                addr.0 & self.array_mask,
                true,
                1,
            ));
            // Dirty victim: read it out of the array, write it back to its
            // off-package home (the tag reconstructs the full address).
            if let Some(victim) = out.writeback {
                let vbyte = victim.0 * 64;
                let vr = self.fresh_id();
                self.meta_insert(vr, L4Slot::Background);
                self.stats.migration_on_lines += 1;
                self.on_region.enqueue(Transaction::migration(
                    vr,
                    now + lead,
                    vbyte & self.array_mask,
                    false,
                    1,
                ));
                let vw = self.fresh_id();
                self.meta_insert(vw, L4Slot::Background);
                self.stats.migration_off_lines += 1;
                self.off_region.enqueue(Transaction::migration(vw, now + lead, vbyte, true, 1));
            }
        }
        id
    }

    fn advance(&mut self, now: Cycle) {
        self.now = self.now.max(now);
        self.on_region.advance_par(now);
        self.off_region.advance_par(now);
        self.process_completions(now);
    }

    fn flush(&mut self) {
        loop {
            self.on_region.flush_par();
            self.off_region.flush_par();
            if !self.process_completions(self.now) {
                break;
            }
        }
    }

    fn drain_completed_into(&mut self, out: &mut Vec<DemandCompletion>) {
        out.append(&mut self.completed);
    }

    fn stats(&self) -> ControllerStats {
        self.stats
    }

    fn swap_stats(&self) -> Option<SwapStats> {
        None
    }

    fn region_stats(&self) -> (RegionStats, RegionStats) {
        (self.on_region.stats(), self.off_region.stats())
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.section(L4_SECTION);
        self.l4.save_state(w);
        w.u64(self.next_id);
        w.u64(self.meta_base);
        w.usize(self.meta.len());
        for slot in &self.meta {
            match slot {
                L4Slot::Empty => w.u8(0),
                L4Slot::Demand(issued_at, controller, interconnect, on, wr) => {
                    w.u8(1);
                    w.u64(*issued_at);
                    w.u64(*controller);
                    w.u64(*interconnect);
                    w.bool(*on);
                    w.bool(*wr);
                }
                L4Slot::Background => w.u8(2),
            }
        }
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
        w.u64(self.stats.demand_on_lines);
        w.u64(self.stats.demand_off_lines);
        w.u64(self.stats.migration_on_lines);
        w.u64(self.stats.migration_off_lines);
        w.u64(self.now);
        w.end_section();
        w.section(b"dram");
        self.on_region.save_state(w);
        self.off_region.save_state(w);
        w.end_section();
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        r.section(L4_SECTION)?;
        self.l4.load_state(r)?;
        self.next_id = r.u64()?;
        self.meta_base = r.u64()?;
        let n = r.seq_len(1)?;
        self.meta.clear();
        for _ in 0..n {
            let slot = match r.u8()? {
                0 => L4Slot::Empty,
                1 => {
                    let issued_at = r.u64()?;
                    let controller = r.u64()?;
                    let interconnect = r.u64()?;
                    let on = r.bool()?;
                    let wr = r.bool()?;
                    L4Slot::Demand(issued_at, controller, interconnect, on, wr)
                }
                2 => L4Slot::Background,
                t => return Err(format!("invalid L4 meta-slot tag {t}")),
            };
            self.meta.push_back(slot);
        }
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
        self.stats.demand_on_lines = r.u64()?;
        self.stats.demand_off_lines = r.u64()?;
        self.stats.migration_on_lines = r.u64()?;
        self.stats.migration_off_lines = r.u64()?;
        self.now = r.u64()?;
        r.end_section()?;
        r.section(b"dram")?;
        self.on_region.load_state(r)?;
        self.off_region.load_state(r)?;
        r.end_section()?;
        Ok(())
    }
}

/// Construct the scheme selected by `(scheme, migration)` over `cfg`.
/// `cfg` carries the shared machine/mode/policy/fault configuration;
/// [`SchemeId::Pcm`] is the hetero controller with `off_profile`
/// overridden here by [`DeviceProfile::pcm`], whatever the caller passed.
/// Combination validity is the caller's job ([`validate_scheme`]).
pub fn build_scheme<S: TelemetrySink + Clone + Send + 'static>(
    scheme: SchemeId,
    mut cfg: ControllerConfig,
    migration: MigrationPolicy,
    sink: S,
) -> Box<dyn PlacementScheme> {
    if scheme == SchemeId::L4Cache {
        return Box::new(L4CacheScheme::with_sink(cfg, sink));
    }
    if scheme == SchemeId::Pcm {
        cfg.off_profile = DeviceProfile::pcm();
    }
    let mut c = HeteroController::with_sink(cfg, sink);
    c.set_migration_policy(migration);
    Box::new(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migrate::MigrationDesign;
    use hmm_sim_base::SimRng;

    fn quick_cfg(mode: Mode) -> ControllerConfig {
        ControllerConfig::paper_default(mode)
    }

    fn drive(scheme: &mut dyn PlacementScheme, accesses: u64, seed: u64) -> Vec<DemandCompletion> {
        let mut rng = SimRng::new(seed);
        let mut out = Vec::new();
        for i in 0..accesses {
            // Span both sides of the 512 MB on-package boundary so traffic
            // reaches the off-package region too.
            let addr = PhysAddr(rng.below(2 << 30) & !63);
            scheme.access(i * 10, addr, rng.chance(0.3));
            if i % 64 == 63 {
                scheme.advance(i * 10);
                scheme.drain_completed_into(&mut out);
            }
        }
        scheme.flush();
        scheme.drain_completed_into(&mut out);
        out
    }

    #[test]
    fn tokens_round_trip() {
        for s in [SchemeId::Hetero, SchemeId::L4Cache, SchemeId::Pcm] {
            assert_eq!(s.token().parse::<SchemeId>().unwrap(), s);
        }
        for p in [MigrationPolicy::HotCold, MigrationPolicy::Mlq] {
            assert_eq!(p.token().parse::<MigrationPolicy>().unwrap(), p);
        }
        assert!("bogus".parse::<SchemeId>().is_err());
        assert!("bogus".parse::<MigrationPolicy>().is_err());
    }

    #[test]
    fn validate_rejects_bad_combinations() {
        let live = Mode::Dynamic(MigrationDesign::LiveMigration);
        assert!(validate_scheme(SchemeId::L4Cache, live, MigrationPolicy::HotCold).is_err());
        assert!(
            validate_scheme(SchemeId::L4Cache, Mode::AllOffPackage, MigrationPolicy::Mlq).is_err()
        );
        assert!(validate_scheme(SchemeId::L4Cache, Mode::AllOffPackage, MigrationPolicy::HotCold)
            .is_ok());
        assert!(validate_scheme(SchemeId::Hetero, live, MigrationPolicy::Mlq).is_ok());
        assert!(validate_scheme(SchemeId::Pcm, live, MigrationPolicy::Mlq).is_ok());
    }

    #[test]
    fn hetero_through_trait_matches_direct_controller() {
        let mut direct = HeteroController::new(quick_cfg(Mode::Dynamic(MigrationDesign::N)));
        let mut rng = SimRng::new(11);
        let addrs: Vec<(u64, bool)> =
            (0..2_000).map(|_| (rng.below(1 << 28) & !63, rng.chance(0.3))).collect();
        let mut want = Vec::new();
        for (i, &(a, w)) in addrs.iter().enumerate() {
            direct.access(i as u64 * 10, PhysAddr(a), w);
            if i % 64 == 63 {
                direct.advance(i as u64 * 10);
                direct.drain_completed_into(&mut want);
            }
        }
        direct.flush();
        direct.drain_completed_into(&mut want);

        let mut boxed = build_scheme(
            SchemeId::Hetero,
            quick_cfg(Mode::Dynamic(MigrationDesign::N)),
            MigrationPolicy::HotCold,
            NullSink,
        );
        let mut got = Vec::new();
        for (i, &(a, w)) in addrs.iter().enumerate() {
            boxed.access(i as u64 * 10, PhysAddr(a), w);
            if i % 64 == 63 {
                boxed.advance(i as u64 * 10);
                boxed.drain_completed_into(&mut got);
            }
        }
        boxed.flush();
        boxed.drain_completed_into(&mut got);
        assert_eq!(want, got, "trait dispatch must be bit-identical to direct calls");
        assert_eq!(direct.stats(), boxed.stats());
    }

    #[test]
    fn l4_cache_serves_hits_on_package() {
        let mut s = L4CacheScheme::with_sink(quick_cfg(Mode::AllOffPackage), NullSink);
        // Touch the same small working set twice: second pass mostly hits.
        let mut out = Vec::new();
        for pass in 0..2u64 {
            for i in 0..512u64 {
                s.access(pass * 100_000 + i * 100, PhysAddr(i * 64), false);
            }
            PlacementScheme::advance(&mut s, pass * 100_000 + 90_000);
        }
        PlacementScheme::flush(&mut s);
        s.drain_completed_into(&mut out);
        assert_eq!(out.len(), 1024);
        let st = PlacementScheme::stats(&s);
        assert_eq!(st.demand_on_lines, s.cache_stats().hits);
        assert!(st.demand_on_lines >= 512, "second pass should hit: {st:?}");
        assert!(st.migration_on_lines >= 512, "misses must fill the array");
        // Latency identity: every completion's breakdown sums.
        assert!(PlacementScheme::swap_stats(&s).is_none());
    }

    #[test]
    fn l4_cache_writeback_traffic_reaches_off_package() {
        let mut s = L4CacheScheme::with_sink(quick_cfg(Mode::AllOffPackage), NullSink);
        // Dirty a working set far larger than one set's 15 ways by walking
        // set-conflicting addresses: evictions must write back.
        let sets = (1u64 << (63 - (512u64 << 20).leading_zeros())) / (16 * 64);
        for k in 0..64u64 {
            s.access(k * 1_000, PhysAddr(k * sets * 64), true);
        }
        PlacementScheme::flush(&mut s);
        let st = PlacementScheme::stats(&s);
        assert!(st.migration_off_lines >= 1, "dirty victims must be written back: {st:?}");
    }

    #[test]
    fn pcm_reports_wear_hetero_does_not() {
        let mut pcm = build_scheme(
            SchemeId::Pcm,
            quick_cfg(Mode::Dynamic(MigrationDesign::N)),
            MigrationPolicy::HotCold,
            NullSink,
        );
        let mut het = build_scheme(
            SchemeId::Hetero,
            quick_cfg(Mode::Dynamic(MigrationDesign::N)),
            MigrationPolicy::HotCold,
            NullSink,
        );
        drive(pcm.as_mut(), 2_000, 5);
        drive(het.as_mut(), 2_000, 5);
        let wear = pcm.wear().expect("pcm reports wear");
        assert!(wear.write_lines > 0, "writes must reach the PCM region");
        assert_eq!(wear.banks, DeviceProfile::pcm().total_banks() as u64);
        assert!(het.wear().is_none(), "hetero media has no endurance surface");
        // The endurance surface follows the off-package profile, not the
        // scheme token: the hetero scheme over a PCM profile reports it.
        let mut cfg = quick_cfg(Mode::Dynamic(MigrationDesign::N));
        cfg.off_profile = DeviceProfile::pcm();
        let mut het_pcm = build_scheme(SchemeId::Hetero, cfg, MigrationPolicy::HotCold, NullSink);
        drive(het_pcm.as_mut(), 2_000, 5);
        assert_eq!(het_pcm.wear(), Some(wear), "same media, same trace, same wear");
    }

    #[test]
    fn pcm_reads_faster_than_writes() {
        // One read and one write to the same idle PCM bank: the write's
        // completion reflects the asymmetric program time.
        let cpu = hmm_sim_base::cycles::CpuClock::default();
        let mut region = DramRegion::new(DeviceProfile::pcm(), &cpu, hmm_dram::SchedPolicy::FrFcfs);
        region.enqueue(Transaction::demand(1, 0, 0, false));
        region.flush();
        let read = region.drain_completions()[0];
        let mut region = DramRegion::new(DeviceProfile::pcm(), &cpu, hmm_dram::SchedPolicy::FrFcfs);
        region.enqueue(Transaction::demand(1, 0, 0, true));
        region.enqueue(Transaction::demand(2, 0, 64 * 4, false));
        region.flush();
        let after_write = region.drain_completions()[1];
        assert!(
            after_write.finish > read.finish,
            "read after a write must see the long PCM program time"
        );
    }

    #[test]
    fn mlq_policy_promotes_more_aggressively() {
        // A workload with a moderately-hot off-package page: MLQ promotes
        // on level alone, HotCold needs the comparative trigger. Drive both
        // and require MLQ to complete at least as many swaps.
        let run = |policy: MigrationPolicy| {
            let mut c = HeteroController::new(ControllerConfig {
                swap_interval: 1_000,
                ..quick_cfg(Mode::Dynamic(MigrationDesign::LiveMigration))
            });
            c.set_migration_policy(policy);
            let mut rng = SimRng::new(21);
            for i in 0..20_000u64 {
                // Hot on-package set plus a recurring off-package page.
                let addr = if rng.chance(0.85) {
                    rng.below(256 << 20) & !63
                } else {
                    (300 << 20) + (rng.below(1 << 16) & !63)
                };
                c.access(i * 10, PhysAddr(addr), rng.chance(0.3));
            }
            c.flush();
            c.swap_stats().unwrap()
        };
        let hot = run(MigrationPolicy::HotCold);
        let mlq = run(MigrationPolicy::Mlq);
        assert!(
            mlq.triggered >= hot.triggered,
            "MLQ must trigger at least as many swaps: mlq {mlq:?} vs hotcold {hot:?}"
        );
    }

    #[test]
    fn l4_snapshot_round_trip_is_bit_identical() {
        let cfg = quick_cfg(Mode::AllOffPackage);
        let mut a = L4CacheScheme::with_sink(cfg, NullSink);
        let mut rng = SimRng::new(31);
        let addrs: Vec<(u64, bool)> =
            (0..3_000).map(|_| (rng.below(1 << 26) & !63, rng.chance(0.4))).collect();
        let mut pre = Vec::new();
        for (i, &(ad, wr)) in addrs.iter().take(1_500).enumerate() {
            PlacementScheme::access(&mut a, i as u64 * 10, PhysAddr(ad), wr);
            if i % 64 == 63 {
                PlacementScheme::advance(&mut a, i as u64 * 10);
                a.drain_completed_into(&mut pre);
            }
        }
        let mut w = SnapWriter::new();
        PlacementScheme::save_state(&a, &mut w);
        let bytes = w.into_bytes();

        let mut b = L4CacheScheme::with_sink(cfg, NullSink);
        let mut r = SnapReader::new(&bytes);
        PlacementScheme::load_state(&mut b, &mut r).unwrap();

        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for (k, &(ad, wr)) in addrs.iter().enumerate().skip(1_500) {
            PlacementScheme::access(&mut a, k as u64 * 10, PhysAddr(ad), wr);
            PlacementScheme::access(&mut b, k as u64 * 10, PhysAddr(ad), wr);
            if k % 64 == 63 {
                PlacementScheme::advance(&mut a, k as u64 * 10);
                PlacementScheme::advance(&mut b, k as u64 * 10);
                a.drain_completed_into(&mut out_a);
                b.drain_completed_into(&mut out_b);
            }
        }
        PlacementScheme::flush(&mut a);
        PlacementScheme::flush(&mut b);
        a.drain_completed_into(&mut out_a);
        b.drain_completed_into(&mut out_b);
        assert_eq!(out_a, out_b, "resumed run must continue bit-identically");
        assert_eq!(PlacementScheme::stats(&a), PlacementScheme::stats(&b));
        assert_eq!(a.cache_stats(), b.cache_stats());
    }
}
