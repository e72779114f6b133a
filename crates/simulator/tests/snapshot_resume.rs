//! Resume determinism: a run resumed from a snapshot must be
//! bit-identical to the uninterrupted run — at *every* capture boundary,
//! not just convenient ones. This is the property that makes checkpointed
//! serving sound: a job killed and resumed elsewhere reports exactly the
//! figures the unkilled job would have.

use hmm_core::{MigrationDesign, MigrationPolicy, Mode, SchemeId};
use hmm_fault::FaultPlan;
use hmm_simulator::driver::{run, run_resumable, RunConfig, SnapshotCtl};
use hmm_simulator::snapshot;
use hmm_simulator::wire::{canonical_json, fxhash64};
use hmm_workloads::WorkloadId;

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
