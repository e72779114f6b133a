//! Typed telemetry events.
//!
//! Every layer of the simulator reports what it does through one flat
//! [`Event`] enum rather than per-layer callback traits: a single type keeps
//! the sink trait object-safe-free and monomorphisable, lets the recorder
//! store everything in one ring, and gives exporters a closed world to
//! pattern-match. All times are CPU [`Cycle`]s of the simulated clock —
//! telemetry never looks at wall time.

use hmm_sim_base::Cycle;

/// Which memory region a DRAM event happened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// The fast on-package DRAM (the paper's 3D-stacked / MCM region).
    OnPackage,
    /// Conventional off-package DIMMs.
    OffPackage,
}

impl RegionKind {
    /// Short label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            RegionKind::OnPackage => "on",
            RegionKind::OffPackage => "off",
        }
    }
}

/// Which translation-table bit a [`Event::PfTransition`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PfBit {
    /// The **P** (pending) bit: the slot is part of an in-flight swap.
    P,
    /// The **F** (filling) bit: the slot is being filled sub-block by
    /// sub-block (live migration, Fig. 9).
    F,
}

impl PfBit {
    /// Short label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            PfBit::P => "P",
            PfBit::F => "F",
        }
    }
}

/// A P/F-bit transition as logged by the migration engine, before the
/// controller attaches the current cycle. The engine is clock-free (it is
/// driven by the controller), so it records *what* changed and the
/// controller records *when*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfChange {
    /// On-package slot index whose table row changed.
    pub slot: u32,
    /// Which bit changed.
    pub bit: PfBit,
    /// New value of the bit.
    pub set: bool,
}

/// Outcome of a DRAM column access at the bank, as seen by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramOutcome {
    /// The addressed row was already open: CAS only.
    RowHit,
    /// The bank was idle (no open row): ACT + CAS.
    RowMiss,
    /// Another row was open: PRE + ACT + CAS (a bank conflict).
    BankConflict,
}

/// Classification of an injected fault, as reported by whichever layer
/// detected it (the DRAM channel for ECC/stuck/throttle events, the
/// controller for transfer and translation-row faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Single-bit ECC error, corrected in-line by the SECDED code.
    CorrectedEcc,
    /// Double-bit ECC error: detected but uncorrectable.
    UncorrectableEcc,
    /// A read serviced by a stuck-at (permanently failed) bank.
    StuckBank,
    /// A refresh/thermal throttle window delayed issue.
    Throttle,
    /// A migration sub-block transfer was dropped in flight.
    TransferDrop,
    /// A migration sub-block transfer timed out.
    TransferTimeout,
    /// A translation-table row took a soft error (detected and repaired).
    RowCorruption,
}

impl FaultClass {
    /// Short label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::CorrectedEcc => "corrected_ecc",
            FaultClass::UncorrectableEcc => "uncorrectable_ecc",
            FaultClass::StuckBank => "stuck_bank",
            FaultClass::Throttle => "throttle",
            FaultClass::TransferDrop => "transfer_drop",
            FaultClass::TransferTimeout => "transfer_timeout",
            FaultClass::RowCorruption => "row_corruption",
        }
    }
}

/// Discriminant of [`Event`], used for cheap `enabled()` checks and for the
/// recorder's per-kind counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum EventKind {
    /// A demand (CPU-issued) memory access completed.
    Demand,
    /// A hot/cold macro-page swap was triggered.
    SwapStart,
    /// One copy step of an in-flight swap finished.
    SwapStep,
    /// A swap fully completed (all legs copied, table settled).
    SwapComplete,
    /// A monitoring epoch ended and the swap decision ran.
    EpochRollover,
    /// A translation-table P or F bit flipped.
    PfTransition,
    /// A DRAM access hit the open row.
    RowHit,
    /// A DRAM access found the bank idle.
    RowMiss,
    /// A DRAM access conflicted with a different open row.
    BankConflict,
    /// A fault from the active fault plan fired.
    FaultInjected,
    /// A failed migration transfer was re-issued with backoff.
    TransferRetried,
    /// A swap exhausted its retry budget and was aborted (rolled back
    /// under the N-1 designs).
    SwapAborted,
    /// An on-package slot was retired from the migration pool.
    SlotQuarantined,
}

impl EventKind {
    /// Number of kinds; sizes the recorder's counter array.
    pub const COUNT: usize = 13;

    /// All kinds, in counter order.
    pub const ALL: [EventKind; Self::COUNT] = [
        EventKind::Demand,
        EventKind::SwapStart,
        EventKind::SwapStep,
        EventKind::SwapComplete,
        EventKind::EpochRollover,
        EventKind::PfTransition,
        EventKind::RowHit,
        EventKind::RowMiss,
        EventKind::BankConflict,
        EventKind::FaultInjected,
        EventKind::TransferRetried,
        EventKind::SwapAborted,
        EventKind::SlotQuarantined,
    ];

    /// Stable name used in JSONL output and counter summaries.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Demand => "demand",
            EventKind::SwapStart => "swap_start",
            EventKind::SwapStep => "swap_step",
            EventKind::SwapComplete => "swap_complete",
            EventKind::EpochRollover => "epoch_rollover",
            EventKind::PfTransition => "pf_transition",
            EventKind::RowHit => "row_hit",
            EventKind::RowMiss => "row_miss",
            EventKind::BankConflict => "bank_conflict",
            EventKind::FaultInjected => "fault_injected",
            EventKind::TransferRetried => "transfer_retried",
            EventKind::SwapAborted => "swap_aborted",
            EventKind::SlotQuarantined => "slot_quarantined",
        }
    }
}

/// One telemetry event. See [`EventKind`] for the taxonomy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A demand access completed service.
    Demand {
        /// Completion cycle.
        cycle: Cycle,
        /// Physical macro-page the access belonged to.
        page: u64,
        /// Whether it was serviced from the on-package region.
        on_package: bool,
        /// Whether it was a write.
        is_write: bool,
        /// End-to-end latency in cycles (issue to completion).
        latency: Cycle,
        /// Cycles spent queued before DRAM service.
        queuing: Cycle,
    },
    /// A swap was triggered at an epoch boundary.
    SwapStart {
        /// Trigger cycle.
        cycle: Cycle,
        /// Hot off-package physical macro-page being promoted.
        hot_page: u64,
        /// Cold on-package slot being evicted into.
        cold_slot: u32,
        /// Which Fig. 8 case (0-3) the engine classified this swap as.
        case: u8,
    },
    /// One copy leg of the in-flight swap completed.
    SwapStep {
        /// Completion cycle of the leg.
        cycle: Cycle,
        /// Zero-based step index within the swap.
        step: u32,
    },
    /// The in-flight swap fully completed.
    SwapComplete {
        /// Completion cycle.
        cycle: Cycle,
        /// Sub-blocks copied by this swap (both directions).
        sub_blocks: u64,
    },
    /// A monitoring epoch rolled over. Carries the *deltas* accumulated
    /// since the previous rollover so the per-epoch CSV is a pure function
    /// of the event stream and sums exactly to the final flat counters.
    EpochRollover {
        /// Rollover cycle.
        cycle: Cycle,
        /// Zero-based epoch index.
        epoch: u64,
        /// Demand lines serviced on-package this epoch.
        demand_on: u64,
        /// Demand lines serviced off-package this epoch.
        demand_off: u64,
        /// Migration (copy) lines moved this epoch, both regions.
        migration_lines: u64,
        /// Demand-stall cycles charged this epoch.
        stall_cycles: u64,
        /// Swaps completed during this epoch.
        swaps_completed: u64,
        /// Whether the swap trigger at this boundary was rejected.
        rejected: bool,
    },
    /// A translation-table P or F bit flipped.
    PfTransition {
        /// Cycle the controller applied the table operation.
        cycle: Cycle,
        /// On-package slot index.
        slot: u32,
        /// Which bit.
        bit: PfBit,
        /// New value.
        set: bool,
    },
    /// A DRAM column access was scheduled.
    DramAccess {
        /// Cycle the command stream started at the bank.
        cycle: Cycle,
        /// Which region the channel belongs to.
        region: RegionKind,
        /// Channel index within the region.
        channel: u32,
        /// Bank index within the channel's decode space.
        bank: u32,
        /// Row-buffer outcome.
        outcome: DramOutcome,
        /// Whether this was background (migration) traffic.
        background: bool,
        /// Whether data moved toward the device (a write burst) — the
        /// endurance-relevant direction for write-limited media like PCM.
        is_write: bool,
    },
    /// A fault from the active fault plan fired.
    FaultInjected {
        /// Cycle the fault was detected.
        cycle: Cycle,
        /// What kind of fault.
        class: FaultClass,
        /// Class-specific location: `channel << 32 | bank` for ECC and
        /// stuck-bank events, the release cycle for throttle windows,
        /// the transfer token for drops/timeouts, the slot for row
        /// corruption.
        detail: u64,
    },
    /// A failed migration transfer was re-issued with backoff.
    TransferRetried {
        /// Cycle the failure was detected and the retry scheduled.
        cycle: Cycle,
        /// Sub-block index within the current copy step.
        sub: u32,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
    },
    /// A swap exhausted its retry budget and was aborted.
    SwapAborted {
        /// Cycle of the abort decision.
        cycle: Cycle,
        /// Copy step the swap had reached when it aborted.
        step: u32,
        /// Whether a rollback (reverse copies restoring the pre-swap
        /// placement) was started; `false` means the table needed no
        /// repair (N design, or abort before any step completed).
        rollback: bool,
    },
    /// An on-package slot was retired from the migration pool.
    SlotQuarantined {
        /// Cycle the quarantine drain completed.
        cycle: Cycle,
        /// The retired on-package slot.
        slot: u32,
        /// Machine page its occupant was parked to.
        parked_page: u64,
    },
}

impl Event {
    /// The discriminant used for `enabled()` gating and counting.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::Demand { .. } => EventKind::Demand,
            Event::SwapStart { .. } => EventKind::SwapStart,
            Event::SwapStep { .. } => EventKind::SwapStep,
            Event::SwapComplete { .. } => EventKind::SwapComplete,
            Event::EpochRollover { .. } => EventKind::EpochRollover,
            Event::PfTransition { .. } => EventKind::PfTransition,
            Event::DramAccess { outcome, .. } => match outcome {
                DramOutcome::RowHit => EventKind::RowHit,
                DramOutcome::RowMiss => EventKind::RowMiss,
                DramOutcome::BankConflict => EventKind::BankConflict,
            },
            Event::FaultInjected { .. } => EventKind::FaultInjected,
            Event::TransferRetried { .. } => EventKind::TransferRetried,
            Event::SwapAborted { .. } => EventKind::SwapAborted,
            Event::SlotQuarantined { .. } => EventKind::SlotQuarantined,
        }
    }

    /// The simulated cycle the event is keyed on.
    pub fn cycle(&self) -> Cycle {
        match *self {
            Event::Demand { cycle, .. }
            | Event::SwapStart { cycle, .. }
            | Event::SwapStep { cycle, .. }
            | Event::SwapComplete { cycle, .. }
            | Event::EpochRollover { cycle, .. }
            | Event::PfTransition { cycle, .. }
            | Event::DramAccess { cycle, .. }
            | Event::FaultInjected { cycle, .. }
            | Event::TransferRetried { cycle, .. }
            | Event::SwapAborted { cycle, .. }
            | Event::SlotQuarantined { cycle, .. } => cycle,
        }
    }
}
