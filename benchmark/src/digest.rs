//! A fingerprint of a run's exact simulated counters.
//!
//! Every input is an integer total, so two runs with equal digests did the
//! same simulated work; the benchmark compares digests to check that
//! repeated, traced and served runs all simulate the same program.

use hmm_simulator::driver::RunResult;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn push_u128(&mut self, v: u128) {
        self.push(v as u64);
        self.push((v >> 64) as u64);
    }
}

/// Digest of every counter in `r`: access statistics, controller and
/// migration counters, both DRAM regions, and the simulated geometry.
pub fn digest(r: &RunResult) -> u64 {
    let mut d = Fnv(0xcbf2_9ce4_8422_2325);
    let a = &r.access;
    for v in [a.reads, a.writes, a.on_package_hits, a.histogram.count(), a.histogram.max()] {
        d.push(v);
    }
    for m in [&a.latency, &a.dram_core, &a.queuing, &a.controller, &a.interconnect] {
        d.push(m.count());
        d.push_u128(m.total());
    }
    let c = &r.controller;
    for v in [
        c.demand_on_lines,
        c.demand_off_lines,
        c.migration_on_lines,
        c.migration_off_lines,
        c.stall_cycles,
        c.epochs,
        c.rejected_triggers,
        c.transfer_retries,
        c.transfers_dropped,
        c.transfers_timed_out,
        c.transfers_ecc_failed,
        c.abandoned_sub_blocks,
        c.row_corruptions,
        c.slots_quarantined,
    ] {
        d.push(v);
    }
    if let Some(s) = &r.swaps {
        for v in [
            s.triggered,
            s.completed,
            s.sub_blocks_copied,
            s.aborted,
            s.rolled_back_sub_blocks,
            s.quarantine_drains,
        ] {
            d.push(v);
        }
        for v in s.case_counts {
            d.push(v);
        }
    }
    for g in [&r.on_region, &r.off_region] {
        for v in [
            g.serviced,
            g.row_hits,
            g.row_misses,
            g.data_bus_busy,
            g.correctable_errors,
            g.uncorrectable_errors,
            g.throttle_events,
            g.throttle_delay_cycles,
        ] {
            d.push(v);
        }
    }
    let geo = &r.geometry;
    for v in [geo.total_bytes, geo.on_package_bytes] {
        d.push(v);
    }
    d.push(u64::from(geo.page_shift));
    d.push(u64::from(geo.sub_block_shift));
    d.0
}
