//! The concrete recording sink: exact counters + one bounded event ring.

use std::str::FromStr;
use std::sync::{Arc, Mutex, MutexGuard};

use hmm_sim_base::{FxHashMap, Histogram, RunningMean};

use crate::event::{Event, EventKind, RegionKind};
use crate::ring::EventRing;
use crate::sink::TelemetrySink;

/// How much the recorder captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryLevel {
    /// Record nothing; `enabled()` is false for every kind, so instrumented
    /// code pays only a branch on a cached boolean.
    #[default]
    Off,
    /// Count events and feed the latency histogram, but store no event
    /// records — constant memory, suitable for full-length runs.
    Counters,
    /// Counters plus the event timeline in a bounded ring buffer.
    Full,
}

impl TelemetryLevel {
    /// Stable CLI label.
    pub fn label(self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Counters => "counters",
            TelemetryLevel::Full => "full",
        }
    }
}

impl FromStr for TelemetryLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(TelemetryLevel::Off),
            "counters" => Ok(TelemetryLevel::Counters),
            "full" => Ok(TelemetryLevel::Full),
            other => Err(format!("unknown telemetry level '{other}' (off|counters|full)")),
        }
    }
}

/// One family of labelled counters keyed by *pre-interned integer keys*.
///
/// The hot path never formats a label: callers pack whatever identifies a
/// series (region bit, channel, bank, read/write class) into a `u64` with
/// the `*_key` functions below, and [`KeyedCounters::add`] is an integer
/// hash probe plus a dense-slot increment. Labels are materialised only on
/// the read side ([`demand_class_label`] / [`bank_label`]), where exporters
/// can afford string work.
#[derive(Debug, Clone, Default)]
pub struct KeyedCounters {
    /// Packed key → dense slot index.
    index: FxHashMap<u64, u32>,
    /// `(packed key, count)` in first-seen order; the key rides along so
    /// reads never consult the map.
    slots: Vec<(u64, u64)>,
}

impl KeyedCounters {
    /// Add `n` to the series identified by `key`, creating it on first use.
    #[inline]
    pub fn add(&mut self, key: u64, n: u64) {
        match self.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.slots[*e.get() as usize].1 += n;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.slots.len() as u32);
                self.slots.push((key, n));
            }
        }
    }

    /// Count for `key`; 0 for a series never touched.
    pub fn get(&self, key: u64) -> u64 {
        self.index.get(&key).map_or(0, |&i| self.slots[i as usize].1)
    }

    /// Number of distinct series seen.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no series was ever touched.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Sum over every series.
    pub fn total(&self) -> u64 {
        self.slots.iter().map(|&(_, c)| c).sum()
    }

    /// `(key, count)` pairs sorted by key — the deterministic order
    /// exporters and tests want, independent of first-seen order.
    pub fn sorted(&self) -> Vec<(u64, u64)> {
        let mut out = self.slots.clone();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }
}

/// Pre-interned key for a demand service class: region bit 0, write bit 1.
#[inline]
pub fn demand_class_key(on_package: bool, is_write: bool) -> u64 {
    (on_package as u64) | ((is_write as u64) << 1)
}

/// Read-side label for a [`demand_class_key`], e.g. `on/read`.
pub fn demand_class_label(key: u64) -> String {
    let region = if key & 1 != 0 { "on" } else { "off" };
    let rw = if key & 2 != 0 { "write" } else { "read" };
    format!("{region}/{rw}")
}

/// Pre-interned key for one bank's traffic: bank in bits 0..32, channel in
/// 32..48, demand/background in 48, region in 49. The ordering makes
/// [`KeyedCounters::sorted`] group by region, then traffic class, then
/// channel, then bank.
#[inline]
pub fn bank_key(region: RegionKind, channel: u32, bank: u32, background: bool) -> u64 {
    (((region == RegionKind::OnPackage) as u64) << 49)
        | ((background as u64) << 48)
        | ((channel as u64) << 32)
        | bank as u64
}

/// Read-side label for a [`bank_key`], e.g. `on/ch0/b3/demand`.
pub fn bank_label(key: u64) -> String {
    let region = if key >> 49 & 1 != 0 { "on" } else { "off" };
    let class = if key >> 48 & 1 != 0 { "background" } else { "demand" };
    let channel = (key >> 32) as u16;
    let bank = key as u32;
    format!("{region}/ch{channel}/b{bank}/{class}")
}

/// Aggregated per-kind counts plus the demand-latency distribution.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    counts: [u64; EventKind::COUNT],
    /// Mean end-to-end demand latency.
    pub demand_latency: RunningMean,
    /// Log2-bucketed end-to-end demand latency distribution.
    pub latency_hist: Histogram,
    /// Log2-bucketed demand queuing-delay distribution.
    pub queuing_hist: Histogram,
    /// Demand completions keyed by [`demand_class_key`] (region × r/w).
    pub demand_classes: KeyedCounters,
    /// DRAM column accesses keyed by [`bank_key`] (region × class ×
    /// channel × bank).
    pub bank_accesses: KeyedCounters,
    /// DRAM *write* accesses keyed by [`bank_key`] — the per-bank
    /// endurance (wear) view write-limited backends such as PCM expose.
    pub bank_writes: KeyedCounters,
}

impl Counters {
    /// Count of events of `kind` seen so far.
    pub fn get(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total events of any kind.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn record(&mut self, event: &Event) {
        self.counts[event.kind() as usize] += 1;
        match *event {
            Event::Demand { latency, queuing, on_package, is_write, .. } => {
                self.demand_latency.push(latency);
                self.latency_hist.push(latency);
                self.queuing_hist.push(queuing);
                self.demand_classes.add(demand_class_key(on_package, is_write), 1);
            }
            Event::DramAccess { region, channel, bank, background, is_write, .. } => {
                self.bank_accesses.add(bank_key(region, channel, bank, background), 1);
                if is_write {
                    self.bank_writes.add(bank_key(region, channel, bank, background), 1);
                }
            }
            _ => {}
        }
    }
}

/// Recorder construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct RecorderConfig {
    /// Capture level.
    pub level: TelemetryLevel,
    /// Event ring capacity (only used at `Full`).
    pub capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self { level: TelemetryLevel::Counters, capacity: 1 << 20 }
    }
}

impl RecorderConfig {
    /// Convenience constructor for a level with default sizing.
    pub fn with_level(level: TelemetryLevel) -> Self {
        Self { level, ..Self::default() }
    }
}

struct State {
    ring: EventRing,
    counters: Counters,
}

/// The concrete [`TelemetrySink`]: cheap-to-clone handle over one
/// mutex-protected counter set and event ring.
///
/// Clones share the same underlying state; pass clones to the
/// controller and both DRAM regions.
#[derive(Clone)]
pub struct Recorder {
    level: TelemetryLevel,
    state: Arc<Mutex<State>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("level", &self.level).finish_non_exhaustive()
    }
}

impl Recorder {
    /// Build a recorder from a config.
    pub fn new(cfg: RecorderConfig) -> Self {
        let state = State { ring: EventRing::new(cfg.capacity), counters: Counters::default() };
        Self { level: cfg.level, state: Arc::new(Mutex::new(state)) }
    }

    /// Recorder at a level with default capacity.
    pub fn with_level(level: TelemetryLevel) -> Self {
        Self::new(RecorderConfig::with_level(level))
    }

    /// The capture level this recorder was built with.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("an emitting thread panicked while recording")
    }

    /// The per-kind counters so far.
    pub fn counters(&self) -> Counters {
        self.state().counters.clone()
    }

    /// All recorded events, sorted by cycle (stable, so same-cycle
    /// events keep their emission order).
    pub fn events(&self) -> Vec<Event> {
        let mut out: Vec<Event> = self.state().ring.iter().copied().collect();
        out.sort_by_key(|e| e.cycle());
        out
    }

    /// Events evicted from the ring because capacity was exceeded.
    pub fn dropped(&self) -> u64 {
        self.state().ring.dropped()
    }
}

impl TelemetrySink for Recorder {
    #[inline]
    fn enabled(&self, _kind: EventKind) -> bool {
        self.level != TelemetryLevel::Off
    }

    fn emit(&self, event: Event) {
        let store = self.level == TelemetryLevel::Full;
        let mut state = self.state();
        state.counters.record(&event);
        if store {
            state.ring.push(event);
        }
    }

    /// One lock for the whole batch instead of one per event.
    fn emit_batch(&self, events: &mut Vec<Event>) {
        if events.is_empty() {
            return;
        }
        let store = self.level == TelemetryLevel::Full;
        let mut state = self.state();
        for event in events.drain(..) {
            state.counters.record(&event);
            if store {
                state.ring.push(event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(cycle: u64, latency: u64) -> Event {
        Event::Demand { cycle, page: 0, on_package: true, is_write: false, latency, queuing: 1 }
    }

    #[test]
    fn counters_level_counts_without_storing() {
        let rec = Recorder::with_level(TelemetryLevel::Counters);
        assert!(rec.enabled(EventKind::Demand));
        for c in 0..10 {
            rec.emit(demand(c, 100 + c));
        }
        let counters = rec.counters();
        assert_eq!(counters.get(EventKind::Demand), 10);
        assert_eq!(counters.demand_latency.count(), 10);
        assert!(rec.events().is_empty(), "Counters level stores no events");
    }

    #[test]
    fn full_level_stores_events_sorted_by_cycle() {
        let rec = Recorder::with_level(TelemetryLevel::Full);
        rec.emit(demand(50, 10));
        rec.emit(demand(20, 10));
        rec.emit(demand(90, 10));
        let cycles: Vec<u64> = rec.events().iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![20, 50, 90]);
    }

    #[test]
    fn off_level_disables_everything() {
        let rec = Recorder::with_level(TelemetryLevel::Off);
        for kind in EventKind::ALL {
            assert!(!rec.enabled(kind));
        }
    }

    #[test]
    fn capacity_bounds_storage_and_counts_drops() {
        let rec = Recorder::new(RecorderConfig { level: TelemetryLevel::Full, capacity: 8 });
        for c in 0..20 {
            rec.emit(demand(c, 5));
        }
        assert_eq!(rec.events().len(), 8);
        assert_eq!(rec.dropped(), 12);
        // Counters are not subject to ring capacity.
        assert_eq!(rec.counters().get(EventKind::Demand), 20);
    }

    #[test]
    fn emit_batch_matches_per_event_emit() {
        let one = Recorder::with_level(TelemetryLevel::Full);
        let batched = Recorder::with_level(TelemetryLevel::Full);
        let mut buf = Vec::new();
        for c in 0..100 {
            one.emit(demand(c, 10 + c));
            buf.push(demand(c, 10 + c));
        }
        batched.emit_batch(&mut buf);
        assert!(buf.is_empty(), "emit_batch must drain the buffer");
        assert_eq!(
            one.counters().get(EventKind::Demand),
            batched.counters().get(EventKind::Demand)
        );
        assert_eq!(one.counters().demand_latency.mean(), batched.counters().demand_latency.mean());
        assert_eq!(one.events().len(), batched.events().len());
    }

    #[test]
    fn keyed_families_count_without_hot_path_strings() {
        let rec = Recorder::with_level(TelemetryLevel::Counters);
        rec.emit(Event::Demand {
            cycle: 1,
            page: 0,
            on_package: true,
            is_write: false,
            latency: 10,
            queuing: 1,
        });
        rec.emit(Event::Demand {
            cycle: 2,
            page: 0,
            on_package: true,
            is_write: true,
            latency: 10,
            queuing: 1,
        });
        rec.emit(Event::Demand {
            cycle: 3,
            page: 0,
            on_package: false,
            is_write: false,
            latency: 10,
            queuing: 1,
        });
        for bank in [3u32, 3, 7] {
            rec.emit(Event::DramAccess {
                cycle: 4,
                region: RegionKind::OnPackage,
                channel: 0,
                bank,
                outcome: crate::event::DramOutcome::RowHit,
                background: bank == 7,
                is_write: bank == 3,
            });
        }
        let c = rec.counters();
        assert_eq!(c.demand_classes.get(demand_class_key(true, false)), 1);
        assert_eq!(c.demand_classes.get(demand_class_key(true, true)), 1);
        assert_eq!(c.demand_classes.get(demand_class_key(false, false)), 1);
        assert_eq!(c.demand_classes.get(demand_class_key(false, true)), 0);
        assert_eq!(c.demand_classes.total(), c.get(EventKind::Demand));
        assert_eq!(c.bank_accesses.get(bank_key(RegionKind::OnPackage, 0, 3, false)), 2);
        assert_eq!(c.bank_accesses.get(bank_key(RegionKind::OnPackage, 0, 7, true)), 1);
        assert_eq!(c.bank_accesses.len(), 2);
        assert_eq!(c.bank_writes.get(bank_key(RegionKind::OnPackage, 0, 3, false)), 2);
        assert_eq!(c.bank_writes.len(), 1);
        assert_eq!(demand_class_label(demand_class_key(true, false)), "on/read");
        assert_eq!(demand_class_label(demand_class_key(false, true)), "off/write");
        assert_eq!(bank_label(bank_key(RegionKind::OnPackage, 0, 7, true)), "on/ch0/b7/background");
        assert_eq!(bank_label(bank_key(RegionKind::OffPackage, 2, 1, false)), "off/ch2/b1/demand");
    }

    #[test]
    fn keyed_families_sort_deterministically() {
        let mut a = KeyedCounters::default();
        a.add(5, 2);
        a.add(1, 1);
        a.add(1, 10);
        a.add(9, 4);
        assert_eq!(a.sorted(), vec![(1, 11), (5, 2), (9, 4)]);
        assert_eq!(a.total(), 17);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert_eq!(a.get(42), 0);
    }

    #[test]
    fn parallel_emitters_do_not_lose_counts() {
        let rec = Recorder::new(RecorderConfig { level: TelemetryLevel::Full, capacity: 1 << 16 });
        std::thread::scope(|s| {
            for t in 0..8 {
                let rec = rec.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        rec.emit(demand(t * 1000 + i, 7));
                    }
                });
            }
        });
        assert_eq!(rec.counters().get(EventKind::Demand), 8000);
        assert_eq!(rec.events().len(), 8000);
        assert_eq!(rec.dropped(), 0);
    }
}
