//! Resume determinism: a run resumed from a snapshot must be
//! bit-identical to the uninterrupted run — at *every* capture boundary,
//! not just convenient ones. This is the property that makes checkpointed
//! serving sound: a job killed and resumed elsewhere reports exactly the
//! figures the unkilled job would have.

use hmm_core::{MigrationDesign, MigrationPolicy, Mode, SchemeId};
use hmm_fault::FaultPlan;
use hmm_sim_base::config::SimScale;
use hmm_sim_base::snap::snap_hash;
use hmm_simulator::driver::{run, run_resumable, RunConfig, SnapshotCtl, TraceRef};
use hmm_simulator::snapshot;
use hmm_simulator::wire::{canonical_json, fxhash64};
use hmm_workloads::{replay, workload, write_binary, WorkloadId};
use std::sync::Arc;

/// Shrink a quick config further so capturing at every boundary stays
/// fast: enough accesses to cross the warm-up boundary, several
/// migration epochs, and several snapshot points.
fn small(workload: WorkloadId, mode: Mode) -> RunConfig {
    RunConfig {
        accesses: 4_000,
        warmup: 500,
        swap_interval: 400,
        ..RunConfig::quick(workload, mode)
    }
}

/// Run uninterrupted while capturing at `every`, then resume from each
/// snapshot and require exact result equality.
fn assert_resume_identical(cfg: &RunConfig, every: u64) {
    let mut snaps: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut sink = |submitted: u64, bytes: Vec<u8>| snaps.push((submitted, bytes));
    let full = run_resumable(cfg, SnapshotCtl { resume_from: None, every, sink: Some(&mut sink) })
        .expect("uninterrupted run");

    // Capture-disabled path must equal the plain driver too.
    assert_eq!(full, run(cfg), "run_resumable must reproduce run()");

    let expected = (cfg.accesses - 1) / every;
    assert_eq!(snaps.len() as u64, expected, "one snapshot per interior boundary");

    for (submitted, bytes) in &snaps {
        let resumed =
            run_resumable(cfg, SnapshotCtl { resume_from: Some(bytes), every: 0, sink: None })
                .unwrap_or_else(|e| panic!("resume from {submitted} failed: {e}"));
        assert_eq!(resumed, full, "resume from snapshot at {submitted}/{} diverged", cfg.accesses);
        // Debug output covers any field a future refactor might exclude
        // from PartialEq.
        assert_eq!(format!("{resumed:?}"), format!("{full:?}"));
    }
}

#[test]
fn static_mode_resumes_identically_at_every_boundary() {
    assert_resume_identical(&small(WorkloadId::Pgbench, Mode::Static), 256);
}

#[test]
fn live_migration_resumes_identically_at_every_boundary() {
    assert_resume_identical(
        &small(WorkloadId::Pgbench, Mode::Dynamic(MigrationDesign::LiveMigration)),
        256,
    );
}

#[test]
fn n_minus_one_resumes_identically_at_every_boundary() {
    assert_resume_identical(
        &small(WorkloadId::SpecJbb, Mode::Dynamic(MigrationDesign::NMinusOne)),
        256,
    );
}

#[test]
fn faulty_run_resumes_identically_at_every_boundary() {
    // Fault injection exercises the retry/rollback/quarantine machinery;
    // its in-flight state must survive a snapshot too.
    let mut cfg = small(WorkloadId::Mg, Mode::Dynamic(MigrationDesign::LiveMigration));
    cfg.faults = Some(FaultPlan {
        seed: 3,
        drop_rate: 0.01,
        timeout_rate: 0.005,
        flip_rate: 1e-4,
        ..FaultPlan::default()
    });
    assert_resume_identical(&cfg, 256);
}

#[test]
fn misaligned_cadence_resumes_identically() {
    // 64-access drain cadence and 100-access snapshot cadence interleave;
    // undrained completions must travel inside the snapshot.
    assert_resume_identical(
        &small(WorkloadId::Pgbench, Mode::Dynamic(MigrationDesign::LiveMigration)),
        100,
    );
}

#[test]
fn pre_warmup_snapshot_resumes_identically() {
    // A snapshot taken before the warm-up boundary carries no boundary
    // id yet; completions drained before it are dropped at the drain, so
    // a resumed run must still record exactly the post-warm-up ones.
    let mut cfg = small(WorkloadId::Pgbench, Mode::Dynamic(MigrationDesign::LiveMigration));
    cfg.warmup = 1_000;
    assert_resume_identical(&cfg, 250);
}

#[test]
fn snapshot_size_does_not_grow_with_the_warm_up() {
    // Warm-up completions are dropped at the drain that takes them, so a
    // capture inside a long warm-up holds in-flight state only.
    let size_at_5000 = |warmup: u64| {
        let cfg = RunConfig {
            accesses: 10_000,
            warmup,
            ..RunConfig::quick(WorkloadId::Pgbench, Mode::Dynamic(MigrationDesign::LiveMigration))
        };
        let mut sizes = Vec::new();
        let mut sink = |_: u64, bytes: Vec<u8>| sizes.push(bytes.len());
        run_resumable(&cfg, SnapshotCtl { resume_from: None, every: 5_000, sink: Some(&mut sink) })
            .unwrap();
        assert_eq!(sizes.len(), 1, "one capture, at access 5,000");
        sizes[0]
    };
    let (in_warmup, no_warmup) = (size_at_5000(8_000), size_at_5000(0));
    assert!(
        in_warmup <= no_warmup,
        "capture inside the warm-up is {in_warmup} bytes, without a warm-up {no_warmup}"
    );
}

#[test]
fn l4cache_scheme_resumes_identically_at_every_boundary() {
    // The L4 scheme snapshots a different state vector entirely (tag
    // array + in-flight slot queue instead of translation table +
    // migration engine); the same every-boundary property must hold.
    let mut cfg = small(WorkloadId::Pgbench, Mode::AllOffPackage);
    cfg.scheme = SchemeId::L4Cache;
    assert_resume_identical(&cfg, 256);
}

/// Every snapshot of `cfg`'s run captured at `every`.
fn capture(cfg: &RunConfig, every: u64) -> Vec<Vec<u8>> {
    let mut snaps = Vec::new();
    let mut sink = |_: u64, bytes: Vec<u8>| snaps.push(bytes);
    run_resumable(cfg, SnapshotCtl { resume_from: None, every, sink: Some(&mut sink) }).unwrap();
    snaps
}

#[test]
fn l4cache_snapshot_of_the_stamp_encoding_is_refused_by_name() {
    // The L4 section used to hold per-way LRU stamps under the tag
    // `l4ch`. A sealed snapshot whose section carries that tag (here a
    // current one, retagged and resealed, so only the tag tells it
    // apart) passes the container checks and is refused at the section.
    let mut cfg = small(WorkloadId::Pgbench, Mode::AllOffPackage);
    cfg.scheme = SchemeId::L4Cache;
    let mut old = capture(&cfg, 1_000).swap_remove(0);
    let at: Vec<usize> =
        old.windows(4).enumerate().filter(|(_, w)| w == b"l4c2").map(|(i, _)| i).collect();
    assert_eq!(at.len(), 1, "one L4 section tag in the snapshot");
    old[at[0]..at[0] + 4].copy_from_slice(b"l4ch");
    let end = old.len() - 8;
    let sum = snap_hash(&old[..end]);
    old[end..].copy_from_slice(&sum.to_le_bytes());

    let hash = fxhash64(canonical_json(&cfg).as_bytes());
    snapshot::open(&old, hash).expect("the container itself is whole and this run's");
    let err = run_resumable(&cfg, SnapshotCtl { resume_from: Some(&old), every: 0, sink: None })
        .unwrap_err();
    assert!(err.contains("expected \"l4c2\", found \"l4ch\""), "{err}");
}

#[test]
fn one_eighth_scale_l4cache_snapshot_is_at_most_8_5_mb() {
    // At 1/8 scale the L4 is a 64 MB array: 65,536 sets of 15 ways, whose
    // tag store is 65,536 blocks of 128 B (8 MiB). The snapshot is that
    // store plus the in-flight state.
    let cfg = RunConfig {
        scale: SimScale { divisor: 8 },
        page_shift: 16,
        accesses: 4_000,
        warmup: 500,
        scheme: SchemeId::L4Cache,
        ..RunConfig::paper(WorkloadId::Pgbench, Mode::AllOffPackage)
    };
    let snaps = capture(&cfg, 2_000);
    assert_eq!(snaps.len(), 1);
    let size = snaps[0].len();
    assert!(size > 8 << 20 && size <= 8_500_000, "1/8-scale l4cache snapshot is {size} bytes");
}

#[test]
fn pcm_scheme_resumes_identically_at_every_boundary() {
    // PCM rides the hetero state vector but adds per-bank wear counters
    // inside the DRAM sections; they must survive capture too (the
    // resumed RunResult embeds the wear report).
    let mut cfg = small(WorkloadId::SpecJbb, Mode::Dynamic(MigrationDesign::LiveMigration));
    cfg.scheme = SchemeId::Pcm;
    assert_resume_identical(&cfg, 256);
}

#[test]
fn mlq_policy_resumes_identically_at_every_boundary() {
    // The MLQ policy changes *which* pages the engine promotes; the
    // monitor state it reads is already snapshotted, so resume must not
    // perturb its decisions either.
    let mut cfg = small(WorkloadId::Mg, Mode::Dynamic(MigrationDesign::LiveMigration));
    cfg.migration = MigrationPolicy::Mlq;
    assert_resume_identical(&cfg, 256);
}

#[test]
fn resume_refuses_foreign_scheme_snapshot() {
    // A hetero snapshot opened under `--scheme l4cache` is a different
    // configuration, hence a different config hash: the sealed container
    // refuses it before any scheme state is deserialised.
    let cfg = small(WorkloadId::Pgbench, Mode::AllOffPackage);
    let mut snaps = Vec::new();
    let mut sink = |_: u64, bytes: Vec<u8>| snaps.push(bytes);
    run_resumable(&cfg, SnapshotCtl { resume_from: None, every: 1000, sink: Some(&mut sink) })
        .unwrap();
    let mut other = cfg;
    other.scheme = SchemeId::L4Cache;
    let err =
        run_resumable(&other, SnapshotCtl { resume_from: Some(&snaps[0]), every: 0, sink: None })
            .unwrap_err();
    assert!(err.contains("different configuration"), "{err}");
}

#[test]
fn resume_refuses_mismatched_config() {
    let cfg = small(WorkloadId::Pgbench, Mode::Static);
    let mut snaps = Vec::new();
    let mut sink = |_: u64, bytes: Vec<u8>| snaps.push(bytes);
    run_resumable(&cfg, SnapshotCtl { resume_from: None, every: 1000, sink: Some(&mut sink) })
        .unwrap();
    let mut other = cfg;
    other.seed += 1;
    let err =
        run_resumable(&other, SnapshotCtl { resume_from: Some(&snaps[0]), every: 0, sink: None })
            .unwrap_err();
    assert!(err.contains("different configuration"), "{err}");
}

#[test]
fn resume_refuses_corrupt_snapshot() {
    let cfg = small(WorkloadId::Pgbench, Mode::Static);
    let mut snaps = Vec::new();
    let mut sink = |_: u64, bytes: Vec<u8>| snaps.push(bytes);
    run_resumable(&cfg, SnapshotCtl { resume_from: None, every: 1000, sink: Some(&mut sink) })
        .unwrap();
    let mut bad = snaps[0].clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 1;
    let err = run_resumable(&cfg, SnapshotCtl { resume_from: Some(&bad), every: 0, sink: None })
        .unwrap_err();
    assert!(err.contains("checksum"), "{err}");
}

#[test]
fn snapshot_metadata_matches_run() {
    let cfg = small(WorkloadId::Pgbench, Mode::Static);
    let hash = fxhash64(canonical_json(&cfg).as_bytes());
    let mut snaps = Vec::new();
    let mut sink = |submitted: u64, bytes: Vec<u8>| snaps.push((submitted, bytes));
    run_resumable(&cfg, SnapshotCtl { resume_from: None, every: 512, sink: Some(&mut sink) })
        .unwrap();
    for (submitted, bytes) in &snaps {
        let meta = snapshot::peek(bytes).expect("valid snapshot");
        assert_eq!(meta.submitted, *submitted);
        assert_eq!(meta.config_hash, hash);
        assert_eq!(meta.engine, snapshot::ENGINE_VERSION);
    }
}

#[test]
fn snapshots_are_content_hashed_deterministically() {
    // Same run captured twice: every snapshot must be byte-identical,
    // which is what makes the content hash canonical.
    let cfg = small(WorkloadId::SpecJbb, Mode::Dynamic(MigrationDesign::LiveMigration));
    let capture = || {
        let mut snaps: Vec<Vec<u8>> = Vec::new();
        let mut sink = |_: u64, bytes: Vec<u8>| snaps.push(bytes);
        run_resumable(&cfg, SnapshotCtl { resume_from: None, every: 500, sink: Some(&mut sink) })
            .unwrap();
        snaps
    };
    let a = capture();
    let b = capture();
    assert_eq!(a, b, "snapshot bytes must be deterministic");
}

/// `snap_hash` of every snapshot a capture run of `cfg` at `every` emits.
fn capture_hashes(cfg: &RunConfig, every: u64) -> Vec<u64> {
    capture(cfg, every).iter().map(|s| snap_hash(s)).collect()
}

#[test]
fn snapshot_bytes_match_their_pinned_hashes() {
    // Constants captured from a build that generated trace blocks inline
    // on the controller's thread: where generation runs must not move a
    // single byte of any checkpoint, so checkpoints keep moving freely
    // between builds.
    let static_256 = [
        0xfd27f323c6957335,
        0x8a03fa5c9bf8d700,
        0x63e94637c0bbb154,
        0xf4f218d58d31ab63,
        0x4f7755065e44f0a6,
        0xbe3e9bffcbfb99a9,
        0x817c2b3a8e5bc8d8,
        0x243c9d2dd69ca921,
        0x3d74fe32559ab341,
        0x9615874096011ca7,
        0x0b2c7f8d186432af,
        0x4a82e609a5a5c856,
        0x51299a75eaa1c70b,
        0x2c161a98099c1f96,
        0xd2a96b371519e110,
    ];
    let live_500 = [
        0x36440465a078f419,
        0xad27a64d1902c530,
        0x46e6c0b4dac8b4b7,
        0x6be50400453dc85f,
        0x9036a8c049873294,
        0x170413bd101ea1d0,
        0x7e323ba9f601fcab,
    ];
    let replay_700 = [
        0x5ab34d39269fa9a3,
        0xefa191241681e1a8,
        0x36b9928e26a14ea8,
        0x9bab378b37e62075,
        0x2a759f6ba915ab6a,
    ];
    let live = Mode::Dynamic(MigrationDesign::LiveMigration);
    assert_eq!(capture_hashes(&small(WorkloadId::Pgbench, Mode::Static), 256), static_256);
    assert_eq!(capture_hashes(&small(WorkloadId::SpecJbb, live), 500), live_500);
    assert_eq!(capture_hashes(&l4cache_replay(), 700), replay_700);
}

/// The l4cache scheme replaying a registered 3,000-record pgbench trace
/// for 4,000 accesses, so the replay cursor wraps once.
fn l4cache_replay() -> RunConfig {
    let mut bytes = Vec::new();
    let scale = SimScale::test_default();
    write_binary(&mut bytes, workload(WorkloadId::Pgbench, &scale).iter(11).take(3_000)).unwrap();
    let data = replay::decode(&bytes).unwrap();
    let trace = TraceRef::from_summary(&data.summary);
    replay::register(Arc::new(data));
    RunConfig {
        scheme: SchemeId::L4Cache,
        trace: Some(trace),
        ..small(WorkloadId::Pgbench, Mode::AllOffPackage)
    }
}

#[test]
fn a_panicking_capture_sink_unwinds_the_run_promptly() {
    // The sink panics at the second capture, by which time the trace
    // producer has normally filled the hand-off and waits on it: the panic
    // must reach the caller instead of leaving either thread blocked. The
    // run goes on a thread of its own, so a hang fails the wait below.
    let cfg = small(WorkloadId::Pgbench, Mode::Dynamic(MigrationDesign::LiveMigration));
    let fresh = run(&cfg);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let mut captures = 0;
        let mut sink = |_: u64, _: Vec<u8>| {
            captures += 1;
            if captures == 2 {
                panic!("sink refuses its second capture");
            }
        };
        let ctl = SnapshotCtl { resume_from: None, every: 256, sink: Some(&mut sink) };
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_resumable(&cfg, ctl)));
        let message = outcome.err().map(|p| p.downcast_ref::<&str>().map(|m| m.to_string()));
        done_tx.send(message).unwrap();
    });
    let message = done_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a run whose sink panicked must unwind, not hang");
    runner.join().expect("the runner catches the run's panic");
    assert_eq!(
        message,
        Some(Some("sink refuses its second capture".to_string())),
        "the sink's own panic reaches the caller"
    );
    assert_eq!(run(&cfg), fresh, "a run after the unwound one is unaffected by it");
}
