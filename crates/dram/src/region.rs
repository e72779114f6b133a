//! A whole memory region — the on-package DRAM or the off-package DIMMs —
//! composed of independent channels.
//!
//! The region is the unit the heterogeneity-aware memory controller talks
//! to: Fig. 3 of the paper shows separate transaction scheduling for the
//! on-package and off-package regions, "since the transaction-layer
//! optimization for each region is independent of that for the other
//! region". Each [`DramRegion`] therefore owns its own queues and schedules
//! independently.

use crate::channel::{Channel, ChannelStats};
use crate::device::DeviceProfile;
use crate::txn::{Completion, PagePolicy, SchedPolicy, Transaction};
use hmm_sim_base::cycles::{CpuClock, Cycle};
use hmm_sim_base::{par_map, worker_threads};
use hmm_telemetry::{NullSink, RegionKind, TelemetrySink};

/// Queued-transaction floor before [`DramRegion::advance_par`] /
/// [`DramRegion::flush_par`] fan the busy channels out across `par_map`
/// workers. Below this the scoped-thread spawn costs more than the
/// servicing; at or above it each busy channel has enough work to fill a
/// worker. (On a single-core host the gate short-circuits on
/// [`worker_threads`] and the fan-out path is never taken at all.)
const PAR_SERVICE_MIN_QUEUED: usize = 512;

/// Aggregated region statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Transactions serviced.
    pub serviced: u64,
    /// Open-row hits.
    pub row_hits: u64,
    /// Row misses (activate needed).
    pub row_misses: u64,
    /// Sum of data-bus busy cycles over all channels.
    pub data_bus_busy: Cycle,
    /// Reads whose single-bit ECC error was corrected in-line.
    pub correctable_errors: u64,
    /// Reads that returned detected-but-uncorrectable data.
    pub uncorrectable_errors: u64,
    /// Transactions delayed by throttle windows.
    pub throttle_events: u64,
    /// Total issue delay charged by throttle windows, in cycles.
    pub throttle_delay_cycles: u64,
}

impl RegionStats {
    /// Row-hit rate in `[0, 1]`; 0 when idle.
    pub fn row_hit_rate(&self) -> f64 {
        if self.serviced == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.serviced as f64
        }
    }
}

/// Endurance summary for a write-limited region (PCM), aggregated from
/// the per-bank write counters every [`Channel`] maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WearStats {
    /// Total cache lines written across the region.
    pub write_lines: u64,
    /// Lines written to the most-written bank (the wear-leveling hot spot).
    pub max_bank_writes: u64,
    /// Number of banks in the region.
    pub banks: u64,
}

impl WearStats {
    /// Wear imbalance: hottest bank's writes over the perfectly-leveled
    /// share (`write_lines / banks`). 1.0 is ideal leveling; 0 when idle.
    pub fn imbalance(&self) -> f64 {
        if self.write_lines == 0 || self.banks == 0 {
            0.0
        } else {
            self.max_bank_writes as f64 / (self.write_lines as f64 / self.banks as f64)
        }
    }
}

/// One memory region with its channels and scheduler.
#[derive(Debug)]
pub struct DramRegion<S: TelemetrySink = NullSink> {
    profile: DeviceProfile,
    channels: Vec<Channel<S>>,
    policy: SchedPolicy,
    completions: Vec<Completion>,
    /// Transactions enqueued but not yet completed, across all channels
    /// (the fan-out gate's backlog depth).
    queued: usize,
    /// Per-channel share of `queued`: which channels the fan-out services.
    chan_queued: Vec<u32>,
    /// Each channel's [`Channel::next_due`], kept as a dense array so the
    /// `advance` sweep picks the channels with work due off one cache
    /// line instead of dereferencing every `Channel` to discover it has
    /// none. A skipped channel would have issued nothing, so completions
    /// and their order (channel index order) are unchanged. Derived
    /// state: never serialized, rebuilt on load.
    due: Vec<Cycle>,
    /// Minimum of `due`: an `advance` before it touches no channel (the
    /// common case for the quiet region of a mostly-one-sided phase).
    min_due: Cycle,
}

impl DramRegion {
    /// Build a region with the paper's open-page policy. Panics on an
    /// invalid profile (configuration error, not a runtime condition).
    pub fn new(profile: DeviceProfile, clock: &CpuClock, policy: SchedPolicy) -> Self {
        Self::with_page_policy(profile, clock, policy, PagePolicy::Open)
    }

    /// Build a region with an explicit row-buffer policy (the closed-page
    /// variant is the open-vs-closed ablation partner in this module's tests).
    pub fn with_page_policy(
        profile: DeviceProfile,
        clock: &CpuClock,
        policy: SchedPolicy,
        page_policy: PagePolicy,
    ) -> Self {
        Self::with_sink(profile, clock, policy, page_policy, NullSink, RegionKind::OffPackage)
    }
}

impl<S: TelemetrySink + Clone> DramRegion<S> {
    /// Build a region whose channels report DRAM events into `sink`,
    /// labelled with `kind` so exporters can tell the regions apart.
    pub fn with_sink(
        profile: DeviceProfile,
        clock: &CpuClock,
        policy: SchedPolicy,
        page_policy: PagePolicy,
        sink: S,
        kind: RegionKind,
    ) -> Self {
        profile.validate().expect("invalid device profile");
        let timing = profile.timing.to_cpu(clock);
        let channels = (0..profile.channels)
            .map(|i| Channel::with_sink(profile, timing, page_policy, sink.clone(), kind, i))
            .collect();
        let n = profile.channels as usize;
        Self {
            profile,
            channels,
            policy,
            completions: Vec::new(),
            queued: 0,
            chan_queued: vec![0; n],
            due: vec![Cycle::MAX; n],
            min_due: Cycle::MAX,
        }
    }
}

impl<S: TelemetrySink> DramRegion<S> {
    /// The device profile this region models.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Scheduling policy in use.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Submit a transaction. `txn.addr` is a byte address local to this
    /// region (the memory controller subtracts the region base).
    pub fn enqueue(&mut self, txn: Transaction) {
        let coord = self.profile.decode(txn.addr);
        let i = coord.channel as usize;
        self.queued += 1;
        self.chan_queued[i] += 1;
        let ch = &mut self.channels[i];
        ch.enqueue(txn, coord);
        // A new request can only make the channel due earlier, so the
        // running minimum stays exact.
        self.due[i] = ch.next_due();
        self.min_due = self.min_due.min(self.due[i]);
    }

    /// Advance simulated time: service everything that has arrived by
    /// `now`, visiting only the channels with an issue due by then.
    pub fn advance(&mut self, now: Cycle) {
        if now < self.min_due {
            return;
        }
        let mut min_due = Cycle::MAX;
        for (i, (ch, due)) in self.channels.iter_mut().zip(&mut self.due).enumerate() {
            if *due <= now {
                let before = self.completions.len();
                ch.advance(now, self.policy, &mut self.completions);
                let done = self.completions.len() - before;
                self.chan_queued[i] -= done as u32;
                self.queued -= done;
                *due = ch.next_due();
            }
            min_due = min_due.min(*due);
        }
        self.min_due = min_due;
    }

    /// Service all remaining transactions (end of trace).
    pub fn flush(&mut self) {
        for (i, ch) in self.channels.iter_mut().enumerate() {
            if self.chan_queued[i] == 0 {
                continue;
            }
            let before = self.completions.len();
            ch.flush(self.policy, &mut self.completions);
            let done = self.completions.len() - before;
            self.chan_queued[i] -= done as u32;
            self.queued -= done;
        }
        self.refresh_due();
    }

    /// Recompute `due` and `min_due` from the channels, after a service
    /// path that does not maintain them per channel.
    fn refresh_due(&mut self) {
        for (due, ch) in self.due.iter_mut().zip(&self.channels) {
            *due = ch.next_due();
        }
        self.min_due = self.due.iter().copied().min().unwrap_or(Cycle::MAX);
    }

    /// Channels with at least one queued transaction.
    fn busy_channels(&self) -> usize {
        self.chan_queued.iter().filter(|&&q| q != 0).count()
    }

    /// Take all completions accumulated since the last call.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Append all accumulated completions to `out`, keeping this region's
    /// internal buffer (and its capacity) for reuse — the allocation-free
    /// variant of [`DramRegion::drain_completions`] for per-access polling.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completions);
    }

    /// Transactions still waiting across all channels.
    pub fn pending(&self) -> usize {
        self.channels.iter().map(|c| c.pending()).sum()
    }

    /// Aggregate statistics over all channels.
    pub fn stats(&self) -> RegionStats {
        let mut s = RegionStats::default();
        for ch in &self.channels {
            let cs: ChannelStats = ch.stats();
            s.serviced += cs.serviced;
            s.row_hits += cs.row_hits;
            s.row_misses += cs.row_misses;
            s.data_bus_busy += cs.data_bus_busy;
            s.correctable_errors += cs.correctable_errors;
            s.uncorrectable_errors += cs.uncorrectable_errors;
            s.throttle_events += cs.throttle_events;
            s.throttle_delay_cycles += cs.throttle_delay_cycles;
        }
        s
    }

    /// Aggregate the per-bank endurance counters over all channels.
    pub fn wear(&self) -> WearStats {
        let mut s = WearStats::default();
        for ch in &self.channels {
            for &w in ch.writes_per_bank() {
                s.write_lines += w;
                s.max_bank_writes = s.max_bank_writes.max(w);
                s.banks += 1;
            }
        }
        s
    }

    /// Arm a fault plan on every channel of this region.
    pub fn set_faults(&mut self, plan: hmm_fault::FaultPlan) {
        for ch in &mut self.channels {
            ch.set_faults(plan);
        }
    }

    /// Serialize the region's dynamic state (snapshot/resume support):
    /// every channel plus any completions accumulated but not yet drained.
    /// The `queued`/`chan_queued`/`due` accelerators are recomputed on
    /// load.
    pub fn save_state(&self, w: &mut hmm_sim_base::snap::SnapWriter) {
        w.usize(self.channels.len());
        for ch in &self.channels {
            ch.save_state(w);
        }
        w.usize(self.completions.len());
        for c in &self.completions {
            w.u64(c.id);
            w.u64(c.finish);
            w.u64(c.breakdown.dram_core);
            w.u64(c.breakdown.queuing);
            w.u64(c.breakdown.controller);
            w.u64(c.breakdown.interconnect);
            w.bool(c.row_hit);
            match c.fault {
                None => w.u8(0),
                Some(hmm_fault::MemFault::Corrected) => w.u8(1),
                Some(hmm_fault::MemFault::Uncorrectable(
                    hmm_fault::UncorrectableCause::DoubleBit,
                )) => w.u8(2),
                Some(hmm_fault::MemFault::Uncorrectable(
                    hmm_fault::UncorrectableCause::StuckBank,
                )) => w.u8(3),
            }
        }
    }

    /// Restore region state saved by [`DramRegion::save_state`] onto a
    /// freshly constructed region for the same profile.
    pub fn load_state(
        &mut self,
        r: &mut hmm_sim_base::snap::SnapReader<'_>,
    ) -> hmm_sim_base::snap::SnapResult<()> {
        let n = r.usize()?;
        if n != self.channels.len() {
            return Err(format!("channel count mismatch: expected {}", self.channels.len()));
        }
        for ch in &mut self.channels {
            ch.load_state(r)?;
        }
        let n = r.seq_len(1)?;
        self.completions.clear();
        for _ in 0..n {
            let id = r.u64()?;
            let finish = r.u64()?;
            let breakdown = hmm_sim_base::stats::LatencyBreakdown {
                dram_core: r.u64()?,
                queuing: r.u64()?,
                controller: r.u64()?,
                interconnect: r.u64()?,
            };
            let row_hit = r.bool()?;
            let fault = match r.u8()? {
                0 => None,
                1 => Some(hmm_fault::MemFault::Corrected),
                2 => Some(hmm_fault::MemFault::Uncorrectable(
                    hmm_fault::UncorrectableCause::DoubleBit,
                )),
                3 => Some(hmm_fault::MemFault::Uncorrectable(
                    hmm_fault::UncorrectableCause::StuckBank,
                )),
                t => return Err(format!("invalid fault tag {t}")),
            };
            self.completions.push(Completion { id, finish, breakdown, row_hit, fault });
        }
        for (i, ch) in self.channels.iter().enumerate() {
            self.chan_queued[i] = ch.pending() as u32;
        }
        self.queued = self.chan_queued.iter().map(|&q| q as usize).sum();
        self.refresh_due();
        Ok(())
    }
}

impl<S: TelemetrySink + Send> DramRegion<S> {
    /// [`DramRegion::advance`], fanning busy channels out across `par_map`
    /// workers when the backlog is deep enough to pay for them.
    ///
    /// Bit-identical to the sequential sweep by construction: channels
    /// share no state (each owns its banks, ranks, data bus, queue, and
    /// fault plan), and per-channel completions are appended in channel
    /// index order — exactly the order the sequential sweep produces.
    pub fn advance_par(&mut self, now: Cycle) {
        if worker_threads() <= 1 || self.queued < PAR_SERVICE_MIN_QUEUED || self.busy_channels() < 2
        {
            self.advance(now);
        } else {
            self.service_par(Some(now));
        }
    }

    /// [`DramRegion::flush`] with the same channel fan-out as
    /// [`DramRegion::advance_par`].
    pub fn flush_par(&mut self) {
        if worker_threads() <= 1 || self.queued < PAR_SERVICE_MIN_QUEUED || self.busy_channels() < 2
        {
            self.flush();
        } else {
            self.service_par(None);
        }
    }

    /// Service every busy channel on `par_map` workers; `now` selects
    /// between an advance-to-`now` and a full flush.
    fn service_par(&mut self, now: Option<Cycle>) {
        let policy = self.policy;
        let chan_queued = &self.chan_queued;
        let busy: Vec<(usize, &mut Channel<S>)> =
            self.channels.iter_mut().enumerate().filter(|(i, _)| chan_queued[*i] != 0).collect();
        let done: Vec<(usize, Vec<Completion>)> = par_map(busy, |(i, ch)| {
            let mut out = Vec::new();
            match now {
                Some(t) => ch.advance(t, policy, &mut out),
                None => ch.flush(policy, &mut out),
            }
            (i, out)
        });
        for (i, mut out) in done {
            self.chan_queued[i] -= out.len() as u32;
            self.queued -= out.len();
            self.completions.append(&mut out);
        }
        self.refresh_due();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(profile: DeviceProfile) -> DramRegion {
        DramRegion::new(profile, &CpuClock::default(), SchedPolicy::FrFcfs)
    }

    #[test]
    fn routes_by_address_decode() {
        let mut r = mk(DeviceProfile::off_package_ddr3());
        // Lines 0..8 hit channels 0..3 twice (line interleave).
        for i in 0..8u64 {
            r.enqueue(Transaction::demand(i, 0, i * 64, false));
        }
        r.advance(1_000_000);
        let done = r.drain_completions();
        assert_eq!(done.len(), 8);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn streaming_pattern_gets_high_row_hit_rate() {
        let mut r = mk(DeviceProfile::off_package_ddr3());
        // Sequential sweep over 512 lines arriving slowly: open-page policy
        // should turn almost all of it into row hits.
        for i in 0..512u64 {
            r.enqueue(Transaction::demand(i, i * 100, i * 64, false));
        }
        r.advance(u64::MAX / 2);
        r.flush();
        let s = r.stats();
        assert_eq!(s.serviced, 512);
        assert!(s.row_hit_rate() > 0.9, "hit rate {}", s.row_hit_rate());
    }

    #[test]
    fn random_pattern_gets_low_row_hit_rate() {
        let mut r = mk(DeviceProfile::off_package_ddr3());
        let mut rng = hmm_sim_base::SimRng::new(1);
        for i in 0..512u64 {
            let addr = rng.below(1 << 30) & !63;
            r.enqueue(Transaction::demand(i, i * 100, addr, false));
        }
        r.flush();
        let s = r.stats();
        assert!(s.row_hit_rate() < 0.3, "hit rate {}", s.row_hit_rate());
    }

    /// The claim the paper hangs the whole design on: under the same load,
    /// the many-bank on-package device has far lower queuing delay than the
    /// 8-bank DIMMs ("17x cycles vs. under 3x cycles" in Section II).
    #[test]
    fn many_banks_collapse_queuing_delay() {
        let mut rng = hmm_sim_base::SimRng::new(7);
        let addrs: Vec<u64> = (0..2_000).map(|_| rng.below(256 << 20) & !63).collect();

        let run = |profile: DeviceProfile| -> f64 {
            let mut r = mk(profile);
            for (i, &a) in addrs.iter().enumerate() {
                // A demanding arrival rate: one access every 20 cycles.
                r.enqueue(Transaction::demand(i as u64, i as u64 * 20, a, false));
            }
            r.flush();
            let done = r.drain_completions();
            let total: u64 = done.iter().map(|c| c.breakdown.queuing).sum();
            total as f64 / done.len() as f64
        };

        let off = run(DeviceProfile::off_package_ddr3());
        let on = run(DeviceProfile::on_package());
        assert!(
            on < off / 3.0,
            "on-package queuing ({on:.1}) should be far below off-package ({off:.1})"
        );
    }

    #[test]
    fn migration_traffic_does_not_starve_demand() {
        let mut r = mk(DeviceProfile::off_package_ddr3());
        // A page worth of background copy traffic...
        for i in 0..64u64 {
            r.enqueue(Transaction::migration(1000 + i, 0, i * 4096, false, 64));
        }
        // ...and one demand access arriving a little later.
        r.enqueue(Transaction::demand(1, 50, 64, false));
        r.flush();
        let done = r.drain_completions();
        let demand = done.iter().find(|c| c.id == 1).unwrap();
        // The demand access may wait for an in-flight burst but not for the
        // whole copy stream.
        let worst = done.iter().map(|c| c.finish).max().unwrap();
        assert!(demand.finish < worst / 2, "demand {} vs worst {}", demand.finish, worst);
    }

    #[test]
    fn closed_page_policy_kills_streaming_hit_rate() {
        let mut open = mk(DeviceProfile::off_package_ddr3());
        let mut closed = DramRegion::with_page_policy(
            DeviceProfile::off_package_ddr3(),
            &CpuClock::default(),
            SchedPolicy::FrFcfs,
            crate::txn::PagePolicy::Closed,
        );
        for r in [&mut open, &mut closed] {
            for i in 0..256u64 {
                r.enqueue(Transaction::demand(i, i * 100, i * 64, false));
            }
            r.flush();
        }
        assert!(open.stats().row_hit_rate() > 0.9);
        assert_eq!(closed.stats().row_hits, 0, "closed-page never leaves a row open");
    }

    /// The tentpole guarantee behind `advance_par`/`flush_par`: fanning
    /// channels across workers changes nothing observable — completions
    /// (ids, finish cycles, latency breakdowns, fault annotations) and
    /// aggregate stats are bit-identical to the sequential sweep.
    #[test]
    fn parallel_service_matches_sequential_exactly() {
        let mut rng = hmm_sim_base::SimRng::new(99);
        let txns: Vec<Transaction> = (0..2_000)
            .map(|i| Transaction::demand(i, i * 17, rng.below(1 << 30) & !63, rng.chance(0.3)))
            .collect();

        // End-of-trace flush with a deep backlog (the path that engages
        // the fan-out when worker threads exist).
        let mut seq = mk(DeviceProfile::off_package_ddr3());
        let mut par = mk(DeviceProfile::off_package_ddr3());
        for t in &txns {
            seq.enqueue(*t);
            par.enqueue(*t);
        }
        seq.flush();
        par.flush_par();
        assert_eq!(seq.drain_completions(), par.drain_completions());
        assert_eq!(seq.stats(), par.stats());
        assert_due_mirrors_channels(&par);

        // Interleaved timed advances, mirroring the controller's
        // per-access cadence.
        let mut seq = mk(DeviceProfile::off_package_ddr3());
        let mut par = mk(DeviceProfile::off_package_ddr3());
        for (k, t) in txns.iter().enumerate() {
            seq.enqueue(*t);
            par.enqueue(*t);
            if k % 64 == 63 {
                let now = t.arrival + 500;
                seq.advance(now);
                par.advance_par(now);
                assert_due_mirrors_channels(&par);
            }
        }
        seq.flush();
        par.flush_par();
        assert_eq!(seq.drain_completions(), par.drain_completions());
        assert_eq!(seq.stats(), par.stats());
        assert_due_mirrors_channels(&par);
    }

    /// `due` is exact after every service path, and `min_due` is its
    /// minimum.
    fn assert_due_mirrors_channels<S: TelemetrySink>(r: &DramRegion<S>) {
        for (i, ch) in r.channels.iter().enumerate() {
            assert_eq!(r.due[i], ch.next_due(), "channel {i}: due must mirror next_due");
        }
        assert_eq!(r.min_due, r.due.iter().copied().min().unwrap_or(Cycle::MAX));
    }

    /// The reference the due-driven sweep must match: the same channels,
    /// each advanced on every call while it holds any transaction.
    struct EveryBusyChannel {
        profile: DeviceProfile,
        channels: Vec<Channel>,
        out: Vec<Completion>,
    }

    impl EveryBusyChannel {
        fn new(profile: DeviceProfile, kind: RegionKind) -> Self {
            let timing = profile.timing.to_cpu(&CpuClock::default());
            let channels = (0..profile.channels)
                .map(|i| Channel::with_sink(profile, timing, PagePolicy::Open, NullSink, kind, i))
                .collect();
            EveryBusyChannel { profile, channels, out: Vec::new() }
        }

        fn enqueue(&mut self, txn: Transaction) {
            let coord = self.profile.decode(txn.addr);
            self.channels[coord.channel as usize].enqueue(txn, coord);
        }

        fn advance(&mut self, now: Cycle) {
            for ch in self.channels.iter_mut().filter(|ch| ch.pending() > 0) {
                ch.advance(now, SchedPolicy::FrFcfs, &mut self.out);
            }
        }

        fn flush(&mut self) {
            for ch in &mut self.channels {
                ch.flush(SchedPolicy::FrFcfs, &mut self.out);
            }
        }

        fn stats(&self) -> RegionStats {
            let mut s = RegionStats::default();
            for cs in self.channels.iter().map(Channel::stats) {
                s.serviced += cs.serviced;
                s.row_hits += cs.row_hits;
                s.row_misses += cs.row_misses;
                s.data_bus_busy += cs.data_bus_busy;
                s.correctable_errors += cs.correctable_errors;
                s.uncorrectable_errors += cs.uncorrectable_errors;
                s.throttle_events += cs.throttle_events;
                s.throttle_delay_cycles += cs.throttle_delay_cycles;
            }
            s
        }
    }

    /// Boundary cases the seeded runs of [`due_sweep_run`] reached.
    #[derive(Default)]
    struct Reached {
        skipped_whole_region: u64,
        at_due: u64,
        at_gate: u64,
        just_before_due: u64,
    }

    /// Drive a region and the every-busy-channel reference with the same
    /// demand and background traffic and the same advance times, chosen
    /// to land just before, at and just after channels' due cycles, and
    /// require identical completions (ids, order, timing, faults) and
    /// stats after every step.
    fn due_sweep_run(profile: DeviceProfile, kind: RegionKind, seed: u64, reached: &mut Reached) {
        let mut rng = hmm_sim_base::SimRng::new(seed);
        let mut region = DramRegion::with_sink(
            profile,
            &CpuClock::default(),
            SchedPolicy::FrFcfs,
            PagePolicy::Open,
            NullSink,
            kind,
        );
        let mut reference = EveryBusyChannel::new(profile, kind);
        if seed.is_multiple_of(2) {
            // Throttle windows delay issue inside `Channel::issue`; ECC
            // rolls annotate completions. Neither may move `next_due`.
            let plan = hmm_fault::FaultPlan {
                seed,
                flip_rate: 0.01,
                uflip_rate: 0.005,
                throttle: Some(hmm_fault::ThrottleSpec {
                    region: hmm_fault::FaultRegion::Both,
                    period: 20_000,
                    duration: 2_000,
                }),
                ..hmm_fault::FaultPlan::default()
            };
            region.set_faults(plan);
            for ch in &mut reference.channels {
                ch.set_faults(plan);
            }
        }
        let span = profile.channels as u64 * 64 * 8192;
        let (mut clock, mut now, mut id) = (0u64, 0u64, 0u64);
        for _ in 0..3_000 {
            clock += rng.below(40);
            for _ in 0..rng.below(4) {
                let addr = rng.below(span) & !63;
                let txn = if rng.chance(0.3) {
                    let lines = [1, 1, 1, 8, 64][rng.below(5) as usize];
                    Transaction::migration(id, clock + rng.below(200), addr, rng.chance(0.5), lines)
                } else {
                    Transaction::demand(id, clock, addr, rng.chance(0.3))
                };
                id += 1;
                region.enqueue(txn);
                reference.enqueue(txn);
            }
            // Advance to one side of a busy channel's due cycle, or jump.
            let busy: Vec<usize> =
                (0..region.due.len()).filter(|&i| region.due[i] != Cycle::MAX).collect();
            let target = if busy.is_empty() || rng.chance(0.2) {
                clock + rng.below(500)
            } else {
                let i = busy[rng.below(busy.len() as u64) as usize];
                let due = region.due[i];
                if due == region.channels[i].background_gate() {
                    reached.at_gate += 1;
                }
                match rng.below(3) {
                    0 => due.saturating_sub(1),
                    1 => due,
                    _ => due + 1,
                }
            };
            now = now.max(target);
            if now < region.min_due {
                reached.skipped_whole_region += 1;
            }
            reached.at_due += region.due.iter().filter(|&&d| d == now).count() as u64;
            reached.just_before_due += region.due.iter().filter(|&&d| d == now + 1).count() as u64;
            region.advance(now);
            reference.advance(now);
            assert_due_mirrors_channels(&region);
            assert_eq!(region.drain_completions(), std::mem::take(&mut reference.out));
            assert_eq!(region.stats(), reference.stats());
        }
        region.flush();
        reference.flush();
        assert_eq!(region.drain_completions(), reference.out);
        assert_eq!(region.stats(), reference.stats());
        assert_eq!(region.pending(), 0);
        assert_due_mirrors_channels(&region);
        assert_eq!(region.min_due, Cycle::MAX);
    }

    /// The guarantee behind the due-driven sweep: skipping the channels
    /// with nothing due changes nothing observable, on both device
    /// profiles, with and without a fault plan (even seeds arm one).
    #[test]
    fn due_driven_sweep_matches_every_busy_channel_sweep() {
        let mut total = Reached::default();
        for (profile, kind) in [
            (DeviceProfile::off_package_ddr3(), RegionKind::OffPackage),
            (DeviceProfile::on_package(), RegionKind::OnPackage),
        ] {
            for seed in 1..=4 {
                due_sweep_run(profile, kind, seed, &mut total);
            }
        }
        // The seeds must reach every boundary the property is about.
        assert!(total.skipped_whole_region > 0, "no advance skipped the whole region");
        assert!(total.at_due > 0, "no advance landed on a due cycle");
        assert!(total.just_before_due > 0, "no advance landed just before a due cycle");
        assert!(total.at_gate > 0, "no advance targeted a background-gate due cycle");
    }

    #[test]
    fn wear_counts_only_write_lines() {
        let mut r = mk(DeviceProfile::pcm());
        for i in 0..64u64 {
            r.enqueue(Transaction::demand(i, 0, i * 64, i % 2 == 0));
        }
        r.flush();
        let w = r.wear();
        assert_eq!(w.write_lines, 32);
        assert_eq!(w.banks, DeviceProfile::pcm().total_banks() as u64);
        assert!(w.max_bank_writes >= 1);
        assert!(w.imbalance() >= 1.0);
    }

    #[test]
    fn drain_completions_resets() {
        let mut r = mk(DeviceProfile::off_package_ddr3());
        r.enqueue(Transaction::demand(1, 0, 0, false));
        r.flush();
        assert_eq!(r.drain_completions().len(), 1);
        assert!(r.drain_completions().is_empty());
    }
}
