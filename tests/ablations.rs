//! DESIGN.md §5's ablations: each design choice against its simpler
//! alternative, asserted on simulated numbers (cycles, rates), never on
//! host time.

use hetero_mem::base::rng::Zipf;
use hetero_mem::base::SimRng;
use hetero_mem::core::{Mode, MultiQueueMru};
use hetero_mem::dram::{DeviceProfile, DramRegion, DramTiming, SchedPolicy, Transaction};
use hetero_mem::simulator::driver::{run, RunConfig};
use hetero_mem::workloads::WorkloadId;

/// Mean DRAM-core plus queuing cycles of `n` demand transactions into
/// one region: 60% inside a hot 2 MB window (row locality), 40% spread
/// over 256 MB, 30% writes, one arrival every 18 cycles.
fn region_mean_latency(profile: DeviceProfile, policy: SchedPolicy, n: u64) -> f64 {
    let mut r = DramRegion::new(profile, &Default::default(), policy);
    let mut rng = SimRng::new(11);
    for i in 0..n {
        let addr =
            if rng.chance(0.6) { rng.below(2 << 20) & !63 } else { rng.below(1 << 28) & !63 };
        r.enqueue(Transaction::demand(i, i * 18, addr, rng.chance(0.3)));
        r.advance(i * 18);
    }
    r.flush();
    let done = r.drain_completions();
    assert_eq!(done.len() as u64, n, "every transaction completes");
    done.iter().map(|c| (c.breakdown.dram_core + c.breakdown.queuing) as f64).sum::<f64>()
        / n as f64
}

/// FR-FCFS serves row hits first, so it beats arrival order once queues
/// hold several requests to one bank, as they do under a full run.
#[test]
fn fr_fcfs_beats_fcfs_through_the_driver() {
    for workload in [WorkloadId::Mg, WorkloadId::Pgbench] {
        let fr_fcfs = RunConfig::quick(workload, Mode::AllOffPackage);
        let fcfs = RunConfig { policy: SchedPolicy::Fcfs, ..fr_fcfs };
        let (fr, fc) = (run(&fr_fcfs).mean_latency(), run(&fcfs).mean_latency());
        assert!(fr < fc, "{workload:?}: FR-FCFS {fr:.1} cycles vs FCFS {fc:.1}");
    }
}

/// Section II: the on-package part's many banks collapse the queuing
/// delay that the same traffic builds up on an 8-bank device.
#[test]
fn many_banks_collapse_queuing() {
    let few = DeviceProfile {
        channels: 8,
        ranks_per_channel: 1,
        banks_per_rank: 1,
        ..DeviceProfile::on_package()
    };
    let few = region_mean_latency(few, SchedPolicy::FrFcfs, 30_000);
    let many = region_mean_latency(DeviceProfile::on_package(), SchedPolicy::FrFcfs, 30_000);
    assert!(few > 10.0 * many, "8 banks {few:.1} cycles vs 128 banks {many:.1}");
}

/// The on-package part's faster I/O (half the burst and CAS-to-CAS time
/// of DDR3-1333) beats the same 128 banks run at commodity timing.
#[test]
fn on_package_io_beats_commodity_io() {
    let commodity =
        DeviceProfile { timing: DramTiming::ddr3_1333(), ..DeviceProfile::on_package() };
    let commodity = region_mean_latency(commodity, SchedPolicy::FrFcfs, 30_000);
    let on_package = region_mean_latency(DeviceProfile::on_package(), SchedPolicy::FrFcfs, 30_000);
    assert!(
        on_package < commodity,
        "on-package I/O {on_package:.1} cycles vs commodity {commodity:.1}"
    );
}

/// Share of 200 rounds in which the monitor's hottest page is one of the
/// 16 hottest Zipf ranks, when every demand touch is followed by a touch
/// to a never-repeated streaming page.
fn hot_page_identification(mut mq: MultiQueueMru) -> f64 {
    let z = Zipf::new(4096, 1.1);
    let mut rng = SimRng::new(5);
    let rounds = 200;
    let mut good = 0;
    for _ in 0..rounds {
        for i in 0..500u64 {
            mq.touch(z.sample(&mut rng) as u64, 0);
            mq.touch(1_000_000 + i, 0);
        }
        if matches!(mq.hottest(|_| false), Some((hot, _, _)) if hot < 16) {
            good += 1;
        }
    }
    f64::from(good) / f64::from(rounds)
}

/// Multi-queue MRU keeps frequently touched pages above the streaming
/// pollution; a single-level recency list, ranking by recency alone,
/// does not.
#[test]
fn multi_queue_mru_finds_hot_pages_a_single_list_misses() {
    let multi = hot_page_identification(MultiQueueMru::paper_default());
    let single = hot_page_identification(MultiQueueMru::new(1, 30));
    assert!(multi - single >= 0.5, "multi-queue {multi:.2} vs single-level {single:.2}");
}
