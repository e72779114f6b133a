//! End-to-end telemetry checks: a full-capture run's event stream must
//! reconcile exactly with the controller's own statistics, and the
//! exporters must emit well-formed documents.

use hetero_mem::core::{MigrationDesign, Mode};
use hetero_mem::fault::FaultPlan;
use hetero_mem::simulator::driver::{run, run_with_sink, RunConfig};
use hetero_mem::telemetry::{
    count_kind, epoch_rows, write_chrome_trace, write_epoch_csv, EventKind, Recorder,
    RecorderConfig, TelemetryLevel,
};
use hetero_mem::workloads::WorkloadId;

fn quick_cfg() -> RunConfig {
    RunConfig::quick(WorkloadId::Pgbench, Mode::Dynamic(MigrationDesign::LiveMigration))
}

fn full_recorder() -> Recorder {
    // Generous ring so nothing is dropped: reconciliation below must be
    // exact, not approximate.
    Recorder::new(RecorderConfig { level: TelemetryLevel::Full, capacity: 4 << 20 })
}

#[test]
fn full_capture_reconciles_with_controller_stats() {
    let cfg = quick_cfg();
    let rec = full_recorder();
    let r = run_with_sink(&cfg, rec.clone());
    assert_eq!(rec.dropped(), 0, "ring sized to hold the whole run");

    let counters = rec.counters();
    let swaps = r.swaps.expect("live migration collects swap stats");

    // Swap lifecycle events match the migration engine's counters.
    assert!(swaps.completed > 0, "quick pgbench run must migrate");
    assert_eq!(counters.get(EventKind::SwapStart), swaps.triggered);
    assert_eq!(counters.get(EventKind::SwapComplete), swaps.completed);

    // Every demand access produced exactly one Demand event.
    assert_eq!(counters.get(EventKind::Demand), cfg.accesses);

    // The ring agrees with the counters (nothing dropped).
    let events = rec.events();
    assert_eq!(count_kind(&events, EventKind::SwapStart), swaps.triggered);
    assert_eq!(count_kind(&events, EventKind::SwapComplete), swaps.completed);

    // SwapComplete sub-block totals equal the engine's copy counter.
    let copied: u64 = events
        .iter()
        .filter_map(|e| match *e {
            hetero_mem::telemetry::Event::SwapComplete { sub_blocks, .. } => Some(sub_blocks),
            _ => None,
        })
        .sum();
    assert!(copied <= swaps.sub_blocks_copied);
    assert!(copied > 0);

    // Per-epoch rows sum exactly to the run's flat counters.
    let rows = epoch_rows(&events);
    assert_eq!(rows.len() as u64, r.controller.epochs + 1, "one row per epoch plus the tail");
    let sum = |f: fn(&hetero_mem::telemetry::EpochRow) -> u64| rows.iter().map(f).sum::<u64>();
    assert_eq!(sum(|e| e.demand_on), r.controller.demand_on_lines);
    assert_eq!(sum(|e| e.demand_off), r.controller.demand_off_lines);
    assert_eq!(sum(|e| e.stall_cycles), r.controller.stall_cycles);
    assert_eq!(
        sum(|e| e.migration_lines),
        r.controller.migration_on_lines + r.controller.migration_off_lines
    );
    assert_eq!(sum(|e| e.swaps_completed), swaps.completed);

    // Counter-level latency statistics match the driver's access stats
    // over the full run only in count terms (the driver excludes warm-up),
    // so just check the telemetry mean is sane.
    assert!(counters.demand_latency.mean() > 0.0);
}

#[test]
fn exports_are_well_formed() {
    let cfg = quick_cfg();
    let rec = full_recorder();
    run_with_sink(&cfg, rec.clone());
    let events = rec.events();

    let mut trace = Vec::new();
    write_chrome_trace(&mut trace, &events, 3200).unwrap();
    let text = String::from_utf8(trace).unwrap();
    assert!(text.starts_with('{') && text.ends_with('}'));
    assert_eq!(text.matches('{').count(), text.matches('}').count(), "unbalanced JSON");
    assert_eq!(text.matches('[').count(), text.matches(']').count());
    // Async swap spans pair begin/end.
    assert_eq!(
        text.matches("\"ph\":\"b\"").count(),
        count_kind(&events, EventKind::SwapStart) as usize
    );
    assert_eq!(
        text.matches("\"ph\":\"e\"").count(),
        count_kind(&events, EventKind::SwapComplete) as usize
    );

    let rows = epoch_rows(&events);
    let mut csv = Vec::new();
    write_epoch_csv(&mut csv, &rows).unwrap();
    let text = String::from_utf8(csv).unwrap();
    let mut lines = text.lines();
    assert_eq!(
        lines.next().unwrap(),
        "epoch,cycle,demand_on,demand_off,migration_lines,stall_cycles,swaps_completed,rejected"
    );
    assert_eq!(lines.count(), rows.len());
}

#[test]
fn telemetry_does_not_perturb_the_simulation() {
    let cfg = quick_cfg();
    let plain = run(&cfg);
    let recorded = run_with_sink(&cfg, full_recorder());
    assert_eq!(plain.mean_latency(), recorded.mean_latency());
    assert_eq!(plain.controller, recorded.controller);
    assert_eq!(plain.swaps, recorded.swaps);
}

/// Every fault-pipeline event reconciles exactly against the statistics
/// kept by the DRAM regions and the controller: one FaultInjected per
/// injection site, one TransferRetried/SwapAborted/SlotQuarantined per
/// recovery action.
#[test]
fn fault_events_reconcile_with_stats() {
    let mut cfg = quick_cfg();
    cfg.faults = Some(FaultPlan::parse("stress").expect("stress preset parses"));
    let rec = full_recorder();
    let r = run_with_sink(&cfg, rec.clone());
    assert_eq!(rec.dropped(), 0, "ring sized to hold the whole run");
    assert_eq!(r.access.accesses(), cfg.accesses - cfg.warmup, "faults must not lose accesses");

    let counters = rec.counters();
    let swaps = r.swaps.expect("live migration collects swap stats");
    assert!(swaps.completed > 0, "the stress schedule must still migrate");

    let expected_injections = r.on_region.correctable_errors
        + r.on_region.uncorrectable_errors
        + r.on_region.throttle_events
        + r.off_region.correctable_errors
        + r.off_region.uncorrectable_errors
        + r.off_region.throttle_events
        + r.controller.transfers_dropped
        + r.controller.transfers_timed_out
        + r.controller.row_corruptions;
    assert!(expected_injections > 0, "the stress schedule must inject faults");
    assert_eq!(counters.get(EventKind::FaultInjected), expected_injections);
    assert_eq!(counters.get(EventKind::TransferRetried), r.controller.transfer_retries);
    assert_eq!(counters.get(EventKind::SwapAborted), swaps.aborted);
    assert_eq!(counters.get(EventKind::SlotQuarantined), r.controller.slots_quarantined);

    // Swap lifecycle reconciliation still holds under fire, counting
    // aborted swaps as terminated rather than completed.
    assert_eq!(counters.get(EventKind::SwapStart), swaps.triggered);
    assert_eq!(counters.get(EventKind::SwapComplete), swaps.completed);
    assert_eq!(swaps.triggered, swaps.completed + swaps.aborted);

    // The ring retained every one of them (nothing dropped).
    let events = rec.events();
    assert_eq!(count_kind(&events, EventKind::FaultInjected), expected_injections);
    assert_eq!(count_kind(&events, EventKind::SlotQuarantined), r.controller.slots_quarantined);
}

/// An armed plan whose rates are all zero must be invisible: same
/// statistics, same latency, same region counters as no plan at all.
#[test]
fn zero_rate_fault_plan_is_invisible() {
    let mut cfg = quick_cfg();
    let baseline = run(&cfg);
    // spare_slots: 0 keeps the geometry identical to the unarmed run.
    cfg.faults = Some(FaultPlan { spare_slots: 0, ..FaultPlan::default() });
    let armed = run(&cfg);
    assert_eq!(baseline.controller, armed.controller);
    assert_eq!(baseline.swaps, armed.swaps);
    assert_eq!(baseline.mean_latency(), armed.mean_latency());
    assert_eq!(baseline.on_region, armed.on_region);
    assert_eq!(baseline.off_region, armed.off_region);
    let s = armed.controller;
    assert_eq!(
        (s.transfer_retries, s.transfers_dropped, s.transfers_timed_out, s.slots_quarantined),
        (0, 0, 0, 0)
    );
}

#[test]
fn counters_level_counts_without_storing() {
    let cfg = quick_cfg();
    let rec = Recorder::with_level(TelemetryLevel::Counters);
    run_with_sink(&cfg, rec.clone());
    assert!(rec.counters().total() > 0);
    assert!(rec.events().is_empty(), "counters level must not buffer events");
}
