//! Integration test for trace-file replay: a recorded binary trace drives
//! the controller exactly as the live generator does.

use hetero_mem::base::addr::PhysAddr;
use hetero_mem::base::config::{MachineConfig, SimScale};
use hetero_mem::core::{ControllerConfig, HeteroController, MigrationDesign, Mode};
use hetero_mem::simulator::driver::RunConfig;
use hetero_mem::workloads::{
    trace_io::{write_binary, BinaryTraceReader},
    workload, WorkloadId,
};

fn controller_base(w: WorkloadId, scale: SimScale) -> ControllerConfig {
    let rc = RunConfig {
        scale,
        page_shift: 16,
        ..RunConfig::paper(w, Mode::Dynamic(MigrationDesign::LiveMigration))
    };
    ControllerConfig {
        machine: MachineConfig { geometry: rc.geometry(), ..Default::default() },
        swap_interval: 1_000,
        os_assisted: Some(false),
        ..ControllerConfig::paper_default(rc.mode)
    }
}

/// Replaying a recorded binary trace through a fresh controller produces
/// the same routing statistics as driving the generator directly (up to
/// the line-granularity address truncation the format applies).
#[test]
fn trace_replay_matches_live_generation() {
    let scale = SimScale { divisor: 256 };
    let w = workload(WorkloadId::Pgbench, &scale);
    let n = 30_000usize;

    let drive = |records: Vec<hetero_mem::workloads::TraceRecord>| {
        let mut ctrl = HeteroController::new(controller_base(WorkloadId::Pgbench, scale));
        for rec in records {
            ctrl.access(rec.tick, rec.addr, rec.is_write);
            ctrl.advance(rec.tick);
        }
        ctrl.flush();
        let mut done = Vec::new();
        ctrl.drain_completed_into(&mut done);
        let on = done.iter().filter(|c| c.on_package).count();
        (done.len(), on, ctrl.swap_stats().unwrap().completed)
    };

    // Addresses truncated to lines, as the binary format stores them.
    let live: Vec<_> = w
        .iter(3)
        .take(n)
        .map(|mut r| {
            r.addr = PhysAddr(r.addr.0 & !63);
            r
        })
        .collect();

    let mut buf = Vec::new();
    write_binary(&mut buf, live.iter().copied()).unwrap();
    let replayed: Vec<_> =
        BinaryTraceReader::new(&buf[..]).collect::<std::io::Result<_>>().unwrap();
    assert_eq!(live, replayed, "round trip must be lossless at line grain");

    let a = drive(live);
    let b = drive(replayed);
    assert_eq!(a, b, "replay must be bit-identical in behaviour");
}
