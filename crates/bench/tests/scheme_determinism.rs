//! Bit-determinism regression gate for the scheme framework.
//!
//! The `PlacementScheme` refactor routed every run through trait-object
//! dispatch; these tests pin that the default path did not move by a
//! single byte. Two layers:
//!
//! * the 18 stdout goldens in `tests/goldens/` — `hmm-sim` report text
//!   for every workload × mode combination at the quick golden scale,
//!   compared byte-for-byte (the default scheme must not even gain a
//!   report line);
//! * the sim-stat digests of nine quick runs (the N, N−1 and live
//!   designs × pgbench, SPECjbb and MG), pinned to the values they
//!   produced *before* the refactor — a digest is FNV-1a over the exact
//!   simulated counters, so any behavioural drift (not just formatting)
//!   trips it.
//!
//! If a change legitimately alters simulated behaviour, re-capture the
//! goldens with the commands in `tests/goldens/` CI job and update the
//! pinned digests here — in the same commit, with the reason in its
//! message.

use std::path::PathBuf;
use std::process::Command;

use hmm_core::MigrationDesign::{self, LiveMigration, NMinusOne, N};
use hmm_core::Mode;
use hmm_simulator::driver::{run, RunConfig, RunResult};
use hmm_workloads::WorkloadId::{self, Mg, Pgbench, SpecJbb};

const WORKLOADS: [&str; 3] = ["pgbench", "specjbb", "mg"];
const MODES: [&str; 6] = ["off", "on", "static", "n", "n-1", "live"];

/// The quick golden configuration: small enough for CI, large enough to
/// exercise warm-up, epochs and migration.
const GOLDEN_ARGS: [&str; 10] = [
    "--page",
    "64K",
    "--interval",
    "2000",
    "--accesses",
    "60000",
    "--warmup",
    "10000",
    "--scale",
    "64",
];

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens")
}

fn sim_stdout(args: &[&str]) -> String {
    let bin = env!("CARGO_BIN_EXE_hmm-sim");
    let out = Command::new(bin).args(args).output().unwrap_or_else(|e| panic!("spawn: {e}"));
    assert!(
        out.status.success(),
        "hmm-sim {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("report must be UTF-8")
}

#[test]
fn hetero_stdout_matches_all_18_goldens() {
    for wl in WORKLOADS {
        for mode in MODES {
            let golden_path = goldens_dir().join(format!("hetero_{wl}_{mode}.txt"));
            let golden = std::fs::read_to_string(&golden_path)
                .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
            let mut args = vec!["--workload", wl, "--mode", mode];
            args.extend_from_slice(&GOLDEN_ARGS);
            let got = sim_stdout(&args);
            assert_eq!(
                got,
                golden,
                "stdout drifted from {} — the default scheme must stay bit-identical",
                golden_path.display()
            );
        }
    }
}

/// Spelling the default scheme out loud must not change anything either:
/// `--scheme hetero` and no `--scheme` are the same configuration, not
/// two configurations that happen to agree.
#[test]
fn explicit_default_scheme_is_the_default() {
    for (wl, mode) in [("pgbench", "live"), ("mg", "n")] {
        let mut implicit = vec!["--workload", wl, "--mode", mode];
        implicit.extend_from_slice(&GOLDEN_ARGS);
        let mut explicit = implicit.clone();
        explicit.extend_from_slice(&["--scheme", "hetero", "--policy", "hotcold"]);
        assert_eq!(sim_stdout(&implicit), sim_stdout(&explicit), "{wl}/{mode}");
    }
}

/// The non-default goldens pin the new schemes the same way — they may
/// only change together with a commit that explains why.
#[test]
fn scheme_stdout_matches_goldens() {
    for wl in WORKLOADS {
        for (golden, extra) in [
            (format!("l4cache_{wl}_off.txt"), vec!["--mode", "off", "--scheme", "l4cache"]),
            (format!("pcm_{wl}_live.txt"), vec!["--mode", "live", "--scheme", "pcm"]),
            (format!("mlq_{wl}_live.txt"), vec!["--mode", "live", "--policy", "mlq"]),
        ] {
            let golden_path = goldens_dir().join(&golden);
            let want = std::fs::read_to_string(&golden_path)
                .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
            let mut args = vec!["--workload", wl];
            args.extend(extra);
            args.extend_from_slice(&GOLDEN_ARGS);
            assert_eq!(sim_stdout(&args), want, "stdout drifted from {}", golden_path.display());
        }
    }
}

/// FNV-1a over the exact simulated counters of one run, in a fixed
/// order. Every input is an integer total — no floats — so equal
/// digests mean bit-identical simulated behaviour. A `u128` total
/// enters as its low word, then its high word.
fn digest_of(r: &RunResult) -> u64 {
    let a = &r.access;
    let mut words = vec![a.reads, a.writes, a.on_package_hits, a.latency.count()];
    for total in [
        a.latency.total(),
        a.dram_core.total(),
        a.queuing.total(),
        a.controller.total(),
        a.interconnect.total(),
    ] {
        words.extend([total as u64, (total >> 64) as u64]);
    }
    words.extend([a.histogram.count(), a.histogram.max()]);
    let c = &r.controller;
    words.extend([
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
    ]);
    if let Some(s) = &r.swaps {
        words.extend([
            s.triggered,
            s.completed,
            s.sub_blocks_copied,
            s.aborted,
            s.rolled_back_sub_blocks,
            s.quarantine_drains,
        ]);
    }
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Digests of nine quick runs (seed 42, 150k accesses, 20k warm-up) at
/// the commit *before* the scheme framework landed. [`digest_of`]
/// hashes exact simulated counters, so this catches behavioural drift
/// that formatting-level goldens cannot (and vice versa).
const PINNED_QUICK_DIGESTS: [(MigrationDesign, WorkloadId, u64); 9] = [
    (N, Pgbench, 0xf70153371ccf09d2),
    (N, SpecJbb, 0x04421fab8de99841),
    (N, Mg, 0x32e8f2e81aa76ae2),
    (NMinusOne, Pgbench, 0xb8d9f134ba6b6927),
    (NMinusOne, SpecJbb, 0x34b4c4ffe67ecb29),
    (NMinusOne, Mg, 0x7408f860572b2758),
    (LiveMigration, Pgbench, 0x6023177b129c24c3),
    (LiveMigration, SpecJbb, 0x4f426585f9a8c123),
    (LiveMigration, Mg, 0x36c9eb005f866bff),
];

#[test]
fn perf_suite_digests_match_pre_refactor_values() {
    for (design, workload, want) in PINNED_QUICK_DIGESTS {
        let cfg = RunConfig {
            seed: 42,
            accesses: 150_000,
            warmup: 20_000,
            ..RunConfig::quick(workload, Mode::Dynamic(design))
        };
        let got = digest_of(&run(&cfg));
        assert_eq!(
            got, want,
            "digest for {design:?}/{workload:?} drifted: got {got:#018x}, pinned {want:#018x}"
        );
    }
}
