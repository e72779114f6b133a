//! Property-style tests of the core data structures' invariants, driven by
//! the workspace's own deterministic [`SimRng`] over many seeded cases
//! (the offline-friendly stand-in for a property-testing framework).
//!
//! * The translation table preserves the paper's structural invariants
//!   under arbitrary valid swap sequences, and translation stays a
//!   bijection over macro pages.
//! * The DRAM region never loses or duplicates transactions, and
//!   completions never precede arrivals.
//! * The set-associative cache agrees with a reference model on
//!   hit/miss decisions.
//! * Workload generators never escape their declared footprints.

use std::collections::{HashMap, HashSet};

use hetero_mem::base::addr::{LineAddr, MacroPageId, SubBlockId};
use hetero_mem::base::SimRng;
use hetero_mem::cache::{AccessOutcome, CacheConfig, SetAssocCache};
use hetero_mem::core::migrate::{MigrationDesign, MigrationEngine};
use hetero_mem::core::table::TranslationTable;
use hetero_mem::dram::{DeviceProfile, DramRegion, SchedPolicy, Transaction};

const SLOTS: u64 = 8;
const PAGES: u64 = 32;
const CASES: u64 = 64;

const DESIGNS: [MigrationDesign; 3] =
    [MigrationDesign::N, MigrationDesign::NMinusOne, MigrationDesign::LiveMigration];

/// Drive one full swap synchronously; returns false if rejected.
fn run_swap(
    engine: &mut MigrationEngine,
    table: &mut TranslationTable,
    hot: u64,
    cold: u32,
) -> bool {
    if !engine.start_swap(table, hot, cold, 0) {
        return false;
    }
    let mut guard = 0;
    while engine.busy() {
        let mut ts = Vec::new();
        engine.take_transfers(4, &mut ts);
        assert!(!ts.is_empty(), "busy engine must emit transfers");
        for t in ts {
            engine.transfer_done(t.token, table);
        }
        guard += 1;
        assert!(guard < 10_000, "swap did not converge");
    }
    true
}

/// Any sequence of hottest-coldest swaps leaves the table consistent and
/// translation a bijection: every macro page maps to a unique machine
/// page.
#[test]
fn translation_stays_bijective_under_swaps() {
    for case in 0..CASES {
        let mut rng = SimRng::new(1000 + case);
        let design = DESIGNS[rng.below(3) as usize];
        let mut table = TranslationTable::new(SLOTS, PAGES, design.sacrifices_slot());
        let mut engine = MigrationEngine::new(design, 4);
        let ops = 1 + rng.below(39);
        for _ in 0..ops {
            let hot = rng.below(PAGES);
            let cold = rng.below(SLOTS) as u32;
            let _ = run_swap(&mut engine, &mut table, hot, cold);
            table
                .check_invariants(true, design.sacrifices_slot())
                .unwrap_or_else(|e| panic!("case {case} ({design:?}): {e}"));
        }
        // Bijectivity over all program-visible pages (the reserved ghost
        // page is not program-visible).
        let mut seen = HashMap::new();
        for p in 0..PAGES - 1 {
            let mp = table.translate(MacroPageId(p), SubBlockId(0));
            if let Some(prev) = seen.insert(mp, p) {
                panic!("case {case}: pages {prev} and {p} both translate to machine page {}", mp.0);
            }
        }
    }
}

/// Mid-swap, every page must still translate somewhere valid (the paper:
/// "the program execution will not be halted since all the memory
/// accesses are routed to an available physical location").
#[test]
fn translation_total_mid_swap() {
    for case in 0..CASES {
        let mut rng = SimRng::new(2000 + case);
        let hot = SLOTS + rng.below(PAGES - 1 - SLOTS);
        let cold = rng.below(SLOTS) as u32;
        let completed_transfers = rng.below(8) as u32;
        let mut table = TranslationTable::new(SLOTS, PAGES, true);
        let mut engine = MigrationEngine::new(MigrationDesign::LiveMigration, 4);
        if engine.start_swap(&mut table, hot, cold, 1) {
            let mut ts = Vec::new();
            engine.take_transfers(completed_transfers, &mut ts);
            for t in ts {
                engine.transfer_done(t.token, &mut table);
            }
            for p in 0..PAGES - 1 {
                for sub in 0..4u32 {
                    let mp = table.translate(MacroPageId(p), SubBlockId(sub));
                    assert!(mp.0 < PAGES, "case {case}: page {p} translated out of range");
                }
            }
        }
    }
}

/// The DRAM region services every transaction exactly once, and no
/// completion finishes before its arrival.
#[test]
fn dram_region_conserves_transactions() {
    for case in 0..CASES {
        let mut rng = SimRng::new(3000 + case);
        let n = 1 + rng.below(399) as usize;
        let spacing = 1 + rng.below(199);
        let mut region = DramRegion::new(
            DeviceProfile::off_package_ddr3(),
            &Default::default(),
            SchedPolicy::FrFcfs,
        );
        let mut arrivals = HashMap::new();
        for i in 0..n as u64 {
            let arrival = i * spacing;
            let addr = rng.below(1 << 26) & !63;
            let bg = rng.chance(0.2);
            let txn = if bg {
                Transaction::migration(i, arrival, addr, rng.chance(0.5), 4)
            } else {
                Transaction::demand(i, arrival, addr, rng.chance(0.3))
            };
            arrivals.insert(i, arrival);
            region.enqueue(txn);
            region.advance(arrival);
        }
        region.flush();
        let done = region.drain_completions();
        assert_eq!(done.len(), n, "case {case}: every transaction completes exactly once");
        let mut ids = HashSet::new();
        for c in &done {
            assert!(ids.insert(c.id), "case {case}: duplicate completion {}", c.id);
            assert!(
                c.finish > arrivals[&c.id],
                "case {case}: completion at {} precedes arrival {}",
                c.finish,
                arrivals[&c.id]
            );
            assert_eq!(
                c.breakdown.total(),
                c.finish - arrivals[&c.id],
                "case {case}: breakdown must sum to end-to-end time"
            );
        }
    }
}

/// The set-associative cache (LRU) agrees with a naive reference model.
#[test]
fn cache_matches_reference_lru() {
    for case in 0..CASES {
        let mut rng = SimRng::new(4000 + case);
        let len = 1 + rng.below(299);
        // 2 sets x 4 ways.
        let mut cache = SetAssocCache::new(CacheConfig::new(512, 4));
        let mut reference: Vec<Vec<u64>> = vec![Vec::new(); 2]; // MRU at back
        for _ in 0..len {
            let line = rng.below(64);
            let set = (line % 2) as usize;
            let model_hit = reference[set].contains(&line);
            if model_hit {
                reference[set].retain(|&l| l != line);
            } else if reference[set].len() == 4 {
                reference[set].remove(0);
            }
            reference[set].push(line);
            let got = cache.access(LineAddr(line), false);
            assert_eq!(
                got.is_hit(),
                model_hit,
                "case {case}: line {line} disagreed with the reference model"
            );
            if let AccessOutcome::Miss(Some(victim)) = got {
                assert!(
                    !reference[set].contains(&victim.line.0),
                    "case {case}: evicted a line the reference still holds"
                );
            }
        }
    }
}

/// Workload records stay within the declared footprint at every scale.
#[test]
fn workloads_respect_footprints() {
    use hetero_mem::workloads::{workload, WorkloadId};
    for seed in 0..8u64 {
        for divisor_pow in 0..9u32 {
            let scale = hetero_mem::base::config::SimScale { divisor: 1 << divisor_pow };
            for id in [WorkloadId::Ft, WorkloadId::Pgbench, WorkloadId::SpecJbb] {
                let w = workload(id, &scale);
                for rec in w.iter(seed).take(500) {
                    assert!(
                        rec.addr.0 < w.footprint_bytes,
                        "{id:?} escaped: {:#x} >= {:#x}",
                        rec.addr.0,
                        w.footprint_bytes
                    );
                }
            }
        }
    }
}

/// Random fault schedules against all three migration designs: every
/// access completes (no deadlock), the translation table stays valid
/// afterwards, every started swap either completed or rolled back, and
/// the whole faulty pipeline is bit-for-bit deterministic.
#[test]
fn fault_schedules_preserve_invariants() {
    use hetero_mem::base::addr::PhysAddr;
    use hetero_mem::base::config::MachineConfig;
    use hetero_mem::core::{ControllerConfig, HeteroController, Mode};
    use hetero_mem::dram::{DeviceProfile, SchedPolicy};
    use hetero_mem::fault::FaultPlan;

    let run_case = |case: u64| {
        let mut rng = SimRng::new(6000 + case);
        let design = DESIGNS[(case % 3) as usize];
        let plan = FaultPlan {
            seed: 77 + case,
            flip_rate: rng.below(3) as f64 * 1e-4,
            uflip_rate: rng.below(3) as f64 * 3e-5,
            drop_rate: rng.below(4) as f64 * 2e-3,
            timeout_rate: rng.below(3) as f64 * 1e-3,
            row_corrupt_rate: rng.below(2) as f64 * 0.03,
            max_retries: rng.below(4) as u32,
            retry_backoff_cycles: 200 + rng.below(2000),
            quarantine_threshold: 2 + rng.below(6) as u32,
            spare_slots: 1 + rng.below(2) as u32,
            ..FaultPlan::default()
        };
        let geometry = hetero_mem::base::config::MemoryGeometry {
            total_bytes: 36 << 16,
            on_package_bytes: 8 << 16,
            page_shift: 16,
            sub_block_shift: 14,
        };
        let mut ctrl = HeteroController::new(ControllerConfig {
            machine: MachineConfig { geometry, ..MachineConfig::default() },
            mode: Mode::Dynamic(design),
            swap_interval: 300,
            os_assisted: None,
            max_outstanding_copies: 8,
            copy_pace_cycles_per_line: 10,
            policy: SchedPolicy::FrFcfs,
            on_profile: DeviceProfile::on_package(),
            off_profile: DeviceProfile::off_package_ddr3(),
            faults: Some(plan),
        });
        let page = geometry.page_bytes();
        let visible = ctrl.table().first_reserved_page();
        let hot = 8 + rng.below(visible - 8); // an off-package page to attract swaps
        let mut now = 0u64;
        let accesses = 2_000;
        for _ in 0..accesses {
            now += 37;
            let addr = if rng.chance(0.7) {
                hot * page + (rng.below(page) & !63)
            } else {
                rng.below(visible * page) & !63
            };
            ctrl.access(now, PhysAddr(addr), rng.chance(0.25));
            ctrl.advance(now);
        }
        ctrl.flush();
        let mut done = Vec::new();
        ctrl.drain_completed_into(&mut done);
        assert_eq!(done.len(), accesses, "case {case} ({design:?}): accesses lost under faults");
        ctrl.table()
            .validate(design.sacrifices_slot())
            .unwrap_or_else(|e| panic!("case {case} ({design:?}): {e}"));
        let swaps = ctrl.swap_stats().expect("dynamic mode has swap stats");
        assert_eq!(
            swaps.triggered,
            swaps.completed + swaps.aborted,
            "case {case} ({design:?}): a started swap neither completed nor rolled back"
        );
        (ctrl.stats(), swaps, done)
    };

    for case in 0..24 {
        let a = run_case(case);
        let b = run_case(case);
        assert_eq!(a.0, b.0, "case {case}: controller stats must be deterministic");
        assert_eq!(a.1, b.1, "case {case}: swap stats must be deterministic");
        assert_eq!(a.2, b.2, "case {case}: completions must be deterministic");
    }
}

/// Zipf sampling is deterministic and in-range for arbitrary domains.
#[test]
fn zipf_domain_safety() {
    for case in 0..CASES {
        let mut rng = SimRng::new(5000 + case);
        let n = 1 + rng.below(4999) as usize;
        let theta = rng.below(2000) as f64 / 1000.0;
        let z = hetero_mem::base::rng::Zipf::new(n, theta);
        for _ in 0..100 {
            assert!(z.sample(&mut rng) < n);
        }
    }
}
