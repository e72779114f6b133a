//! One DRAM channel: banks behind a shared command/data bus, a per-rank
//! refresh schedule and tFAW window, and the FR-FCFS transaction queue.

use crate::bank::BankArray;
use crate::device::{DeviceProfile, DramCoord};
use crate::timing::TimingCpu;
use crate::txn::{Completion, PagePolicy, SchedPolicy, Transaction};
use hmm_fault::{FaultPlan, MemFault, UncorrectableCause};
use hmm_sim_base::cycles::Cycle;
use hmm_sim_base::stats::LatencyBreakdown;
use hmm_telemetry::{DramOutcome, Event, FaultClass, NullSink, RegionKind, TelemetrySink};
use std::collections::VecDeque;

/// Per-channel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Accesses that hit the open row.
    pub row_hits: u64,
    /// Accesses that required an activate (empty or conflict).
    pub row_misses: u64,
    /// Data-bus busy cycles (for bandwidth-utilisation reporting).
    pub data_bus_busy: Cycle,
    /// Transactions serviced.
    pub serviced: u64,
    /// Reads whose single-bit ECC error was corrected in-line.
    pub correctable_errors: u64,
    /// Reads that returned detected-but-uncorrectable data (double-bit
    /// flips and stuck-bank hits).
    pub uncorrectable_errors: u64,
    /// Transactions whose issue was delayed by a throttle window.
    pub throttle_events: u64,
    /// Total cycles of issue delay charged by throttle windows.
    pub throttle_delay_cycles: u64,
}

#[derive(Debug, Clone)]
struct Queued {
    txn: Transaction,
    coord: DramCoord,
}

#[derive(Debug, Clone, Default)]
struct RankState {
    /// Next scheduled refresh boundary.
    next_refresh: Cycle,
    /// Issue times of up to the last four ACTIVATEs (tFAW window).
    recent_activates: VecDeque<Cycle>,
}

/// How many times the oldest request may be bypassed by younger row hits
/// before the scheduler forces it out (FR-FCFS starvation cap, standard in
/// real controllers). A count-based cap preserves row-hit batching under
/// backlog — a time-based cap would degenerate to FCFS exactly when
/// batching matters most.
const STARVATION_BYPASS_CAP: u32 = 16;

/// The scheduler's associative window: only this many eligible requests
/// are considered per arbitration round. Real FR-FCFS arbiters search a
/// 32-64 entry transaction queue, not an unbounded one; the cap also keeps
/// arbitration O(window) when a stall (e.g. the halting N design) dumps
/// thousands of same-cycle arrivals into the queue.
const SCHED_WINDOW: usize = 64;

/// A single DRAM channel.
#[derive(Debug)]
pub struct Channel<S: TelemetrySink = NullSink> {
    profile: DeviceProfile,
    timing: TimingCpu,
    /// Telemetry sink; [`NullSink`] by default, which folds every
    /// instrumentation branch away.
    sink: S,
    /// Which region this channel belongs to (telemetry labelling only).
    region: RegionKind,
    /// Channel index within the region (telemetry labelling only).
    index: u32,
    /// Bank state in structure-of-arrays layout: the arbitration scan in
    /// [`Channel::pick`] touches only the dense open-row array.
    banks: BankArray,
    /// Lines written per bank over the channel's lifetime — the endurance
    /// (wear) counter write-limited backends such as PCM care about.
    /// Always maintained (one add on the write path), aggregated by
    /// [`crate::DramRegion::wear`].
    writes_per_bank: Vec<u64>,
    ranks: Vec<RankState>,
    data_bus_free: Cycle,
    /// Demand transactions awaiting FR-FCFS arbitration, kept in
    /// non-decreasing arrival order (the command path delivers requests
    /// in order, enforced by a monotone clamp at enqueue). Sortedness
    /// makes the oldest-arrival lookup O(1) and keeps arbitration
    /// O(window) even when a stall dumps thousands of arrivals at once.
    queue: VecDeque<Queued>,
    /// Background (migration) transactions, serviced FIFO with whatever
    /// bus capacity demand leaves over. FIFO preserves the copy engine's
    /// critical-data-first ordering.
    bg_queue: VecDeque<Queued>,
    stats: ChannelStats,
    /// The scheduler's decision clock: requests are only visible to
    /// arbitration once their arrival is <= this. It tracks the start of
    /// the most recent data transfer, so a long `advance` (or a flush)
    /// cannot let far-future requests jump the queue.
    clock: Cycle,
    /// Times the oldest queued request has been bypassed by a row hit.
    bypasses: u32,
    /// Row-buffer management policy.
    page_policy: PagePolicy,
    /// Monotone clamp for demand arrivals (command-path FIFO ordering).
    last_demand_arrival: Cycle,
    /// Active fault plan, if any. `None` keeps every fault branch cold so
    /// fault-free runs stay bit-identical to builds without a plan.
    faults: Option<FaultPlan>,
}

impl Channel {
    /// Build an idle channel for `profile` with the given row-buffer
    /// policy and no telemetry.
    pub fn new(profile: DeviceProfile, timing: TimingCpu, page_policy: PagePolicy) -> Self {
        Self::with_sink(profile, timing, page_policy, NullSink, RegionKind::OffPackage, 0)
    }
}

impl<S: TelemetrySink> Channel<S> {
    /// Build an idle channel reporting DRAM events into `sink`, labelled
    /// with the region and channel index it serves.
    pub fn with_sink(
        profile: DeviceProfile,
        timing: TimingCpu,
        page_policy: PagePolicy,
        sink: S,
        region: RegionKind,
        index: u32,
    ) -> Self {
        let total_banks = (profile.ranks_per_channel * profile.banks_per_rank) as usize;
        let mut ranks = Vec::with_capacity(profile.ranks_per_channel as usize);
        for i in 0..profile.ranks_per_channel {
            ranks.push(RankState {
                // Stagger refresh across ranks so they don't align.
                next_refresh: if timing.t_refi > 0 {
                    timing.t_refi + (i as u64 * timing.t_refi / profile.ranks_per_channel as u64)
                } else {
                    Cycle::MAX
                },
                recent_activates: VecDeque::with_capacity(4),
            });
        }
        Self {
            profile,
            timing,
            sink,
            region,
            index,
            banks: BankArray::new(total_banks),
            writes_per_bank: vec![0; total_banks],
            ranks,
            data_bus_free: 0,
            queue: VecDeque::new(),
            bg_queue: VecDeque::new(),
            stats: ChannelStats::default(),
            clock: 0,
            bypasses: 0,
            page_policy,
            last_demand_arrival: 0,
            faults: None,
        }
    }

    /// Arm a fault plan: subsequent reads roll for ECC outcomes and issue
    /// respects the plan's throttle windows.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Lines written per bank so far (endurance/wear counters), indexed by
    /// the channel-local bank index.
    pub fn writes_per_bank(&self) -> &[u64] {
        &self.writes_per_bank
    }

    /// Number of transactions waiting.
    pub fn pending(&self) -> usize {
        self.queue.len() + self.bg_queue.len()
    }

    /// Serialize the channel's dynamic state (snapshot/resume support).
    /// Configuration (profile, timing, policy, fault plan) is rebuilt from
    /// the run configuration on load; queued transactions store only the
    /// transaction itself — the DRAM coordinate is re-decoded from the
    /// address, which is exactly how it was derived at enqueue.
    pub fn save_state(&self, w: &mut hmm_sim_base::snap::SnapWriter) {
        let txn = |w: &mut hmm_sim_base::snap::SnapWriter, q: &Queued| {
            w.u64(q.txn.id);
            w.u64(q.txn.arrival);
            w.u64(q.txn.addr);
            w.bool(q.txn.is_write);
            w.u32(q.txn.lines);
            w.bool(q.txn.background);
        };
        self.banks.save_state(w);
        w.usize(self.ranks.len());
        for rank in &self.ranks {
            w.u64(rank.next_refresh);
            w.usize(rank.recent_activates.len());
            for &t in &rank.recent_activates {
                w.u64(t);
            }
        }
        w.usize(self.queue.len());
        for q in &self.queue {
            txn(w, q);
        }
        w.usize(self.bg_queue.len());
        for q in &self.bg_queue {
            txn(w, q);
        }
        w.u64(self.data_bus_free);
        w.u64(self.clock);
        w.u32(self.bypasses);
        w.u64(self.last_demand_arrival);
        w.u64(self.stats.row_hits);
        w.u64(self.stats.row_misses);
        w.u64(self.stats.data_bus_busy);
        w.u64(self.stats.serviced);
        w.u64(self.stats.correctable_errors);
        w.u64(self.stats.uncorrectable_errors);
        w.u64(self.stats.throttle_events);
        w.u64(self.stats.throttle_delay_cycles);
        w.usize(self.writes_per_bank.len());
        for &v in &self.writes_per_bank {
            w.u64(v);
        }
    }

    /// Restore channel state saved by [`Channel::save_state`] onto a
    /// freshly constructed channel for the same profile.
    pub fn load_state(
        &mut self,
        r: &mut hmm_sim_base::snap::SnapReader<'_>,
    ) -> hmm_sim_base::snap::SnapResult<()> {
        let profile = self.profile;
        let txn =
            |r: &mut hmm_sim_base::snap::SnapReader<'_>| -> hmm_sim_base::snap::SnapResult<Queued> {
                let txn = Transaction {
                    id: r.u64()?,
                    arrival: r.u64()?,
                    addr: r.u64()?,
                    is_write: r.bool()?,
                    lines: r.u32()?,
                    background: r.bool()?,
                };
                let coord = profile.decode(txn.addr);
                Ok(Queued { txn, coord })
            };
        self.banks.load_state(r)?;
        let ranks = r.usize()?;
        if ranks != self.ranks.len() {
            return Err(format!("rank count mismatch: expected {}", self.ranks.len()));
        }
        for rank in &mut self.ranks {
            rank.next_refresh = r.u64()?;
            let n = r.seq_len(8)?;
            rank.recent_activates.clear();
            for _ in 0..n {
                rank.recent_activates.push_back(r.u64()?);
            }
        }
        let n = r.seq_len(1)?;
        self.queue.clear();
        for _ in 0..n {
            let q = txn(r)?;
            self.queue.push_back(q);
        }
        let n = r.seq_len(1)?;
        self.bg_queue.clear();
        for _ in 0..n {
            let q = txn(r)?;
            self.bg_queue.push_back(q);
        }
        self.data_bus_free = r.u64()?;
        self.clock = r.u64()?;
        self.bypasses = r.u32()?;
        self.last_demand_arrival = r.u64()?;
        self.stats.row_hits = r.u64()?;
        self.stats.row_misses = r.u64()?;
        self.stats.data_bus_busy = r.u64()?;
        self.stats.serviced = r.u64()?;
        self.stats.correctable_errors = r.u64()?;
        self.stats.uncorrectable_errors = r.u64()?;
        self.stats.throttle_events = r.u64()?;
        self.stats.throttle_delay_cycles = r.u64()?;
        let n = r.usize()?;
        if n != self.writes_per_bank.len() {
            return Err(format!("bank count mismatch: expected {}", self.writes_per_bank.len()));
        }
        for v in &mut self.writes_per_bank {
            *v = r.u64()?;
        }
        Ok(())
    }

    /// Add a transaction (already decoded to this channel).
    pub fn enqueue(&mut self, txn: Transaction, coord: DramCoord) {
        debug_assert!(txn.lines >= 1);
        if txn.background {
            self.bg_queue.push_back(Queued { txn, coord });
        } else {
            // The arrival-sorted queue relies on the command path
            // delivering requests in order; the memory controller's
            // monotone effective clock guarantees it.
            debug_assert!(
                txn.arrival >= self.last_demand_arrival,
                "demand arrivals must be non-decreasing per channel"
            );
            self.last_demand_arrival = txn.arrival;
            self.queue.push_back(Queued { txn, coord });
        }
    }

    /// Service every queued transaction that has arrived by `now`,
    /// appending completions to `out`.
    ///
    /// The channel maintains its own decision clock: each arbitration round
    /// only sees requests that had arrived by the time the previous data
    /// transfer started, exactly as a real queue-resident FR-FCFS
    /// arbiter would. The clock also lets `flush` (a call with
    /// `now = Cycle::MAX`) behave identically to fine-grained stepping.
    pub fn advance(&mut self, now: Cycle, policy: SchedPolicy, out: &mut Vec<Completion>) {
        loop {
            // Demand first, always. The queue is arrival-sorted, so the
            // oldest eligible arrival is simply the front.
            let min_arrival = self.queue.front().map(|q| q.txn.arrival).filter(|&a| a <= now);
            if let Some(min_arrival) = min_arrival {
                let decision = self.clock.max(min_arrival);
                let idx = self
                    .pick(decision, min_arrival, policy)
                    .expect("min_arrival guarantees at least one candidate");
                let q = self.queue.remove(idx).expect("pick returns a valid index");
                let (completion, data_start) = self.issue(q);
                self.clock = self.clock.max(data_start);
                out.push(completion);
                continue;
            }
            // Background gets the capacity demand leaves over. The gate
            // bounds how far beyond wall-clock the bus may be committed
            // when a background line issues: the bus-free horizon always
            // carries the activate+CAS pipeline lead of the last demand
            // access (~one access pipeline) plus queueing jitter, so the
            // allowance is a few pipelines. Because background legs are
            // single lines, each issue moves the horizon by only one
            // burst, so the lead cannot snowball; demand sees a bounded
            // worst-case inflation, and background throughput converges to
            // the capacity demand leaves idle — which is how demand-first
            // arbitration behaves in hardware.
            let Some(front) = self.bg_queue.front() else { break };
            if front.txn.arrival > now || now < self.background_gate() {
                break;
            }
            let q = self.bg_queue.pop_front().expect("front exists");
            let (completion, data_start) = self.issue(q);
            self.clock = self.clock.max(data_start);
            out.push(completion);
        }
    }

    /// First cycle at which the background gate in [`Channel::advance`]
    /// lets a background line issue: the data bus may be committed at
    /// most one activate+CAS pipeline plus two bursts past `now`.
    pub(crate) fn background_gate(&self) -> Cycle {
        let lead = self.timing.t_rcd + self.timing.t_cl + 2 * self.timing.t_burst;
        self.data_bus_free.saturating_sub(lead)
    }

    /// The earliest `now` at which [`Channel::advance`] would issue
    /// anything; `Cycle::MAX` when both queues are empty. Exact: an
    /// `advance` before it issues nothing and changes no state. Demand
    /// issues once its front request has arrived; background once its
    /// front leg has arrived and the bus gate is open. Throttle windows
    /// and refresh only delay an issue, never decide whether one
    /// happens, so they play no part here.
    pub(crate) fn next_due(&self) -> Cycle {
        let demand = self.queue.front().map_or(Cycle::MAX, |q| q.txn.arrival);
        let background =
            self.bg_queue.front().map_or(Cycle::MAX, |q| q.txn.arrival.max(self.background_gate()));
        demand.min(background)
    }

    /// Service everything left in the queue regardless of arrival time
    /// (end-of-trace drain).
    pub fn flush(&mut self, policy: SchedPolicy, out: &mut Vec<Completion>) {
        self.advance(Cycle::MAX, policy, out);
        debug_assert!(self.queue.is_empty());
        debug_assert!(self.bg_queue.is_empty());
    }

    /// FR-FCFS (or FCFS) winner among demand transactions visible at
    /// `decision` time:
    /// 1. if the oldest request has been bypassed by row hits more than
    ///    the starvation cap allows, it wins unconditionally;
    /// 2. (FR-FCFS only) open-row hits before misses;
    /// 3. oldest arrival.
    fn pick(&mut self, decision: Cycle, min_arrival: Cycle, policy: SchedPolicy) -> Option<usize> {
        // Fast path: the queue is arrival-sorted, so when the second entry
        // has not arrived yet the front is the only candidate — no
        // arbitration scan, and the oldest request trivially wins (same
        // outcome the full scan would produce, including the bypass
        // counter reset).
        if self.queue.get(1).is_none_or(|q| q.txn.arrival > decision) {
            self.bypasses = 0;
            return Some(0);
        }
        let mut best: Option<(usize, (bool, Cycle))> = None;
        let mut oldest: Option<usize> = None;
        for (i, q) in self.queue.iter().enumerate().take(SCHED_WINDOW) {
            if q.txn.arrival > decision {
                // Arrival-sorted: nothing further back is eligible either.
                break;
            }
            if q.txn.arrival == min_arrival && oldest.is_none() {
                oldest = Some(i);
            }
            let row_hit = match policy {
                SchedPolicy::FrFcfs => {
                    // One u64 load + compare against the dense SoA row
                    // array; `NO_ROW` never equals a decoded row, so the
                    // closed-bank case needs no separate branch.
                    self.banks.open_row_raw(q.coord.bank_in_channel(&self.profile)) == q.coord.row
                }
                SchedPolicy::Fcfs => false,
            };
            // Sort key: (!row_hit asc, arrival asc).
            let key = (!row_hit, q.txn.arrival);
            match &best {
                Some((_, bk)) if *bk <= key => {}
                _ => best = Some((i, key)),
            }
        }
        let best_idx = best.map(|(i, _)| i)?;
        if let Some(old_idx) = oldest {
            if old_idx != best_idx {
                self.bypasses += 1;
                if self.bypasses > STARVATION_BYPASS_CAP {
                    self.bypasses = 0;
                    return Some(old_idx);
                }
            } else {
                self.bypasses = 0;
            }
        }
        Some(best_idx)
    }

    /// Issue one transaction; returns its completion and the cycle its data
    /// transfer started (which advances the decision clock).
    fn issue(&mut self, q: Queued) -> (Completion, Cycle) {
        let t = self.timing;
        let rank = q.coord.rank as usize;
        let mut earliest = q.txn.arrival;

        // Throttle gate: a refresh-storm/thermal window from the fault
        // plan holds issue until the window ends, for every transaction
        // in the matching region.
        if let Some(plan) = &self.faults {
            let on = self.region == RegionKind::OnPackage;
            if let Some(release) = plan.throttle_release(on, earliest) {
                self.stats.throttle_events += 1;
                self.stats.throttle_delay_cycles += release - earliest;
                if self.sink.enabled(hmm_telemetry::EventKind::FaultInjected) {
                    self.sink.emit(Event::FaultInjected {
                        cycle: earliest,
                        class: FaultClass::Throttle,
                        detail: release,
                    });
                }
                earliest = release;
            }
        }

        // Refresh gate: if the command would start past the rank's next
        // refresh boundary, the refresh happens first and closes every row
        // in the rank.
        earliest = self.refresh_gate(rank, earliest);

        // tFAW gate, applied only when this access will activate.
        let bank_idx = q.coord.bank_in_channel(&self.profile);
        let needs_activate = self.banks.open_row_raw(bank_idx) != q.coord.row;
        if needs_activate {
            let window = &self.ranks[rank].recent_activates;
            if window.len() == 4 {
                earliest = earliest.max(window[0] + t.t_faw);
            }
            if let Some(&last) = window.back() {
                earliest = earliest.max(last + t.t_rrd);
            }
        }

        let svc = self.banks.service_with_policy(
            bank_idx,
            earliest,
            self.data_bus_free,
            q.coord.row,
            q.txn.is_write,
            q.txn.lines,
            &t,
            self.page_policy == PagePolicy::Closed,
        );

        if svc.activated {
            let window = &mut self.ranks[rank].recent_activates;
            if window.len() == 4 {
                window.pop_front();
            }
            window.push_back(svc.cmd_start);
        }

        self.data_bus_free = svc.finish;
        let burst = t.t_burst * q.txn.lines as u64;
        self.stats.data_bus_busy += burst;
        self.stats.serviced += 1;
        if q.txn.is_write {
            self.writes_per_bank[bank_idx] += q.txn.lines as u64;
        }
        if svc.row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }

        let outcome = if svc.row_hit {
            DramOutcome::RowHit
        } else if svc.conflict {
            DramOutcome::BankConflict
        } else {
            DramOutcome::RowMiss
        };
        let kind = match outcome {
            DramOutcome::RowHit => hmm_telemetry::EventKind::RowHit,
            DramOutcome::RowMiss => hmm_telemetry::EventKind::RowMiss,
            DramOutcome::BankConflict => hmm_telemetry::EventKind::BankConflict,
        };
        if self.sink.enabled(kind) {
            self.sink.emit(Event::DramAccess {
                cycle: svc.cmd_start,
                region: self.region,
                channel: self.index,
                bank: bank_idx as u32,
                outcome,
                background: q.txn.background,
                is_write: q.txn.is_write,
            });
        }

        // ECC check on the returned data: stuck banks always fail, other
        // reads roll the plan's SECDED rates. Writes carry no data back.
        let fault = match &self.faults {
            Some(plan) if !q.txn.is_write => {
                if plan.is_stuck(self.region == RegionKind::OnPackage, self.index, bank_idx as u32)
                {
                    Some(MemFault::Uncorrectable(UncorrectableCause::StuckBank))
                } else {
                    plan.classify_read(q.txn.addr, q.txn.id)
                }
            }
            _ => None,
        };
        if let Some(f) = fault {
            let class = match f {
                MemFault::Corrected => {
                    self.stats.correctable_errors += 1;
                    FaultClass::CorrectedEcc
                }
                MemFault::Uncorrectable(UncorrectableCause::DoubleBit) => {
                    self.stats.uncorrectable_errors += 1;
                    FaultClass::UncorrectableEcc
                }
                MemFault::Uncorrectable(UncorrectableCause::StuckBank) => {
                    self.stats.uncorrectable_errors += 1;
                    FaultClass::StuckBank
                }
            };
            if self.sink.enabled(hmm_telemetry::EventKind::FaultInjected) {
                self.sink.emit(Event::FaultInjected {
                    cycle: svc.finish,
                    class,
                    detail: (self.index as u64) << 32 | bank_idx as u64,
                });
            }
        }

        let total = svc.finish - q.txn.arrival;
        let queuing = total - svc.core_latency;
        let completion = Completion {
            id: q.txn.id,
            finish: svc.finish,
            breakdown: LatencyBreakdown {
                dram_core: svc.core_latency,
                queuing,
                controller: 0,
                interconnect: 0,
            },
            row_hit: svc.row_hit,
            fault,
        };
        (completion, svc.finish - burst)
    }

    /// Apply pending refreshes for `rank`, returning the adjusted earliest
    /// command time. Long idle gaps fast-forward arithmetically instead of
    /// looping per interval.
    fn refresh_gate(&mut self, rank: usize, earliest: Cycle) -> Cycle {
        let t = self.timing;
        if t.t_refi == 0 {
            return earliest;
        }
        let next = self.ranks[rank].next_refresh;
        if earliest < next {
            return earliest;
        }
        // One or more refresh boundaries passed. All but the last completed
        // during idle time; only the most recent one can delay us.
        let missed = (earliest - next) / t.t_refi;
        let last_boundary = next + missed * t.t_refi;
        self.ranks[rank].next_refresh = last_boundary + t.t_refi;
        // Refresh closes every row in the rank.
        let lo = rank * self.profile.banks_per_rank as usize;
        let hi = lo + self.profile.banks_per_rank as usize;
        self.banks.close_rows(lo, hi, last_boundary);
        earliest.max(last_boundary + t.t_rfc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::DramTiming;
    use hmm_sim_base::cycles::CpuClock;

    fn mk() -> Channel {
        let p = DeviceProfile::off_package_ddr3();
        let t = p.timing.to_cpu(&CpuClock::default());
        Channel::new(p, t, PagePolicy::Open)
    }

    fn coord(bank: u32, row: u64) -> DramCoord {
        DramCoord { channel: 0, rank: 0, bank, row, column: 0 }
    }

    #[test]
    fn single_transaction_completes() {
        let mut ch = mk();
        ch.enqueue(Transaction::demand(1, 100, 0, false), coord(0, 0));
        let mut out = Vec::new();
        ch.advance(100, SchedPolicy::FrFcfs, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 1);
        assert!(out[0].finish > 100);
        assert_eq!(ch.pending(), 0);
    }

    #[test]
    fn future_arrivals_wait() {
        let mut ch = mk();
        ch.enqueue(Transaction::demand(1, 500, 0, false), coord(0, 0));
        let mut out = Vec::new();
        ch.advance(100, SchedPolicy::FrFcfs, &mut out);
        assert!(out.is_empty());
        ch.advance(500, SchedPolicy::FrFcfs, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn frfcfs_prefers_row_hit_over_older_miss() {
        let mut ch = mk();
        let mut out = Vec::new();
        // Open row 5 in bank 0.
        ch.enqueue(Transaction::demand(0, 0, 0, false), coord(0, 5));
        ch.advance(0, SchedPolicy::FrFcfs, &mut out);
        out.clear();
        // Older miss (row 9) vs. younger hit (row 5), same bank.
        ch.enqueue(Transaction::demand(1, 10, 0, false), coord(0, 9));
        ch.enqueue(Transaction::demand(2, 20, 0, false), coord(0, 5));
        ch.advance(1_000, SchedPolicy::FrFcfs, &mut out);
        assert_eq!(out[0].id, 2, "row hit should be serviced first");
        assert!(out[0].row_hit);
        assert_eq!(out[1].id, 1);
    }

    #[test]
    fn fcfs_services_in_arrival_order() {
        let mut ch = mk();
        let mut out = Vec::new();
        ch.enqueue(Transaction::demand(0, 0, 0, false), coord(0, 5));
        ch.advance(0, SchedPolicy::Fcfs, &mut out);
        out.clear();
        ch.enqueue(Transaction::demand(1, 10, 0, false), coord(0, 9));
        ch.enqueue(Transaction::demand(2, 20, 0, false), coord(0, 5));
        ch.advance(1_000, SchedPolicy::Fcfs, &mut out);
        assert_eq!(out[0].id, 1);
        assert_eq!(out[1].id, 2);
    }

    #[test]
    fn demand_beats_background() {
        let mut ch = mk();
        let mut out = Vec::new();
        ch.enqueue(Transaction::migration(1, 0, 0, false, 64), coord(0, 1));
        ch.enqueue(Transaction::demand(2, 5, 0, false), coord(1, 1));
        ch.advance(1_000_000, SchedPolicy::FrFcfs, &mut out);
        // One migration burst is already in flight when the demand arrives;
        // the demand must be serviced right after it, ahead of the
        // remaining 63 background transfers.
        let demand_pos = out.iter().position(|c| c.id == 2).unwrap();
        assert!(demand_pos <= 1, "demand serviced at position {demand_pos}");
    }

    #[test]
    fn queuing_delay_accumulates_under_bank_conflict() {
        let mut ch = mk();
        let mut out = Vec::new();
        // Three conflicting accesses to the same bank, different rows,
        // arriving together.
        for (i, row) in [1u64, 2, 3].iter().enumerate() {
            ch.enqueue(Transaction::demand(i as u64, 0, 0, false), coord(0, *row));
        }
        ch.advance(10_000, SchedPolicy::FrFcfs, &mut out);
        assert_eq!(out.len(), 3);
        let mut queuing: Vec<_> = out.iter().map(|c| c.breakdown.queuing).collect();
        queuing.sort_unstable();
        assert_eq!(queuing[0], 0, "first access should not queue");
        assert!(queuing[2] > queuing[1], "later conflicting accesses queue longer");
    }

    #[test]
    fn bank_parallelism_avoids_queuing() {
        let mut ch = mk();
        let mut out = Vec::new();
        // Same-cycle accesses to different banks overlap except on the
        // shared data bus.
        for b in 0..4u32 {
            ch.enqueue(Transaction::demand(b as u64, 0, 0, false), coord(b, 1));
        }
        ch.advance(10_000, SchedPolicy::FrFcfs, &mut out);
        let max_q = out.iter().map(|c| c.breakdown.queuing).max().unwrap();
        let t = DramTiming::ddr3_1333().to_cpu(&CpuClock::default());
        // Queuing is bounded by data-bus serialisation (3 bursts), not by
        // full access serialisation.
        assert!(max_q <= 3 * t.t_burst + t.t_rrd * 3 + t.t_faw, "max queuing {max_q}");
    }

    #[test]
    fn flush_drains_everything() {
        let mut ch = mk();
        let mut out = Vec::new();
        for i in 0..10 {
            ch.enqueue(
                Transaction::demand(i, i * 1_000_000, (i * 64) % 4096, false),
                coord((i % 8) as u32, i),
            );
        }
        ch.flush(SchedPolicy::FrFcfs, &mut out);
        assert_eq!(out.len(), 10);
        assert_eq!(ch.pending(), 0);
    }

    #[test]
    fn refresh_closes_rows_and_delays() {
        let p = DeviceProfile::off_package_ddr3();
        let t = p.timing.to_cpu(&CpuClock::default());
        let mut ch = Channel::new(p, t, PagePolicy::Open);
        let mut out = Vec::new();
        // Open a row well before the first refresh boundary.
        ch.enqueue(Transaction::demand(0, 0, 0, false), coord(0, 5));
        ch.advance(0, SchedPolicy::FrFcfs, &mut out);
        // Arrive just past the refresh boundary: the previously open row
        // must have been closed, so this same-row access is a miss.
        let after_refresh = t.t_refi + 1;
        ch.enqueue(Transaction::demand(1, after_refresh, 0, false), coord(0, 5));
        out.clear();
        ch.advance(after_refresh, SchedPolicy::FrFcfs, &mut out);
        assert!(!out[0].row_hit, "refresh should close the open row");
        assert!(out[0].finish >= t.t_refi + t.t_rfc);
    }

    #[test]
    fn tfaw_limits_activate_rate() {
        let p = DeviceProfile::off_package_ddr3();
        let t = p.timing.to_cpu(&CpuClock::default());
        let mut ch = Channel::new(p, t, PagePolicy::Open);
        let mut out = Vec::new();
        // Five activates to five different banks, same rank, same cycle.
        for b in 0..5u32 {
            ch.enqueue(Transaction::demand(b as u64, 0, 0, false), coord(b, 1));
        }
        ch.advance(100_000, SchedPolicy::FrFcfs, &mut out);
        // The fifth activate cannot start before the first + tFAW.
        let mut finishes: Vec<_> = out.iter().map(|c| c.finish).collect();
        finishes.sort_unstable();
        let first_cmd_finish = finishes[0];
        let intrinsic = t.t_rcd + t.t_cl + t.t_burst;
        assert!(
            finishes[4] >= (first_cmd_finish - intrinsic) + t.t_faw,
            "fifth activate must respect tFAW"
        );
    }

    #[test]
    fn idle_channel_is_never_due() {
        let mut ch = mk();
        assert_eq!(ch.next_due(), Cycle::MAX);
        let mut out = Vec::new();
        ch.enqueue(Transaction::demand(1, 100, 0, false), coord(0, 0));
        ch.advance(100, SchedPolicy::FrFcfs, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(ch.next_due(), Cycle::MAX, "a drained channel is idle again");
    }

    #[test]
    fn demand_issues_exactly_at_next_due() {
        let mut ch = mk();
        let mut out = Vec::new();
        ch.enqueue(Transaction::demand(1, 500, 0, false), coord(0, 0));
        ch.enqueue(Transaction::migration(2, 900, 64, false, 1), coord(1, 0));
        assert_eq!(ch.next_due(), 500, "the earlier of demand and background");
        ch.advance(499, SchedPolicy::FrFcfs, &mut out);
        assert!(out.is_empty(), "nothing issues before the due cycle");
        ch.advance(500, SchedPolicy::FrFcfs, &mut out);
        assert_eq!(out.len(), 1, "now == due issues");
        assert_eq!(ch.next_due(), 900);
    }

    #[test]
    fn background_issues_exactly_when_the_bus_gate_opens() {
        let mut ch = mk();
        let mut out = Vec::new();
        for i in 0..3 {
            ch.enqueue(Transaction::migration(i, 0, 0, false, 64), coord(0, 1));
        }
        // The first 64-line leg commits the bus far past the gate's lead,
        // so the next leg has arrived but waits for the gate.
        ch.advance(0, SchedPolicy::FrFcfs, &mut out);
        assert_eq!(out.len(), 1);
        let due = ch.next_due();
        assert!(due > 0 && due == ch.background_gate(), "gate-bound due {due}");
        ch.advance(due - 1, SchedPolicy::FrFcfs, &mut out);
        assert_eq!(out.len(), 1, "nothing issues before the gate opens");
        ch.advance(due, SchedPolicy::FrFcfs, &mut out);
        assert_eq!(out.len(), 2, "now == due issues one leg");
        assert!(ch.next_due() > due, "the issued leg pushed the gate out");
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut ch = mk();
        let mut out = Vec::new();
        ch.enqueue(Transaction::demand(0, 0, 0, false), coord(0, 1));
        ch.enqueue(Transaction::demand(1, 0, 64 * 4, false), coord(0, 1));
        ch.advance(10_000, SchedPolicy::FrFcfs, &mut out);
        let s = ch.stats();
        assert_eq!(s.serviced, 2);
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 1);
        assert!(s.data_bus_busy > 0);
    }
}
