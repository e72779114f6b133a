//! Crash-recovery end-to-end: SIGKILL the real `hmm-serve` process —
//! no drain, no warning — restart it over the same `--store-dir`, and
//! require that (a) previously answered requests come back as cache
//! hits with byte-identical bodies, (b) a hand-corrupted store entry is
//! quarantined rather than served, (c) a job killed mid-simulation
//! resumes from its last checkpoint and still produces the exact bytes
//! an uninterrupted run produces, and (d) a checkpoint in a snapshot
//! format this build no longer reads, or whose L4 section holds an
//! encoding this build no longer reads, restarts its job from scratch,
//! with the same bytes.

#![cfg(unix)]

use hmm_serve::client::request;
use hmm_serve::request::{parse_body, Limits, SimRequest};
use hmm_serve::response::render_run;
use hmm_serve::{ServerMetrics, Store};
use hmm_sim_base::snap::snap_hash;
use hmm_simulator::driver::{run, run_resumable, SnapshotCtl};
use hmm_telemetry::jsonin;
use std::fs;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hmm-crash-e2e-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Spawn the server binary and parse the bound address off its banner.
fn spawn_server(extra: &[&str]) -> (Child, SocketAddr) {
    let mut args = vec!["--addr", "127.0.0.1:0", "--workers", "2", "--conn-threads", "4"];
    args.extend_from_slice(extra);
    let mut child = Command::new(env!("CARGO_BIN_EXE_hmm-serve"))
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hmm-serve");
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("hmm-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .parse()
        .expect("parse bound address");
    (child, addr)
}

/// SIGKILL — the whole point: no drain, no flush, no goodbye.
fn kill9(child: &mut Child) {
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
}

fn metric(addr: SocketAddr, name: &str) -> f64 {
    let resp = request(addr, "GET", "/metrics", "", TIMEOUT).expect("metrics");
    assert_eq!(resp.status, 200);
    let doc = jsonin::parse(&resp.body).expect("metrics parse");
    doc.get(name)
        .unwrap_or_else(|| panic!("metrics document has no '{name}'"))
        .as_f64()
        .unwrap_or_else(|| panic!("'{name}' is not a number"))
}

fn graceful_exit(mut child: Child, addr: SocketAddr) {
    let _ = request(addr, "POST", "/admin/shutdown", "", TIMEOUT);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            assert_eq!(status.code(), Some(0), "graceful drain must exit 0");
            return;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("server did not exit after drain");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

const BODY_A: &str = r#"{"workload":"pgbench","mode":"static","accesses":3000,"scale":64}"#;
const BODY_B: &str = r#"{"workload":"mg","mode":"live","accesses":3000,"scale":64}"#;

#[test]
fn sigkill_restart_serves_warm_hits_and_quarantines_corruption() {
    let dir = tmpdir("warm");
    let store_dir = dir.to_str().unwrap();

    // Round one: answer two distinct configs, then die without warning.
    let (mut child, addr) = spawn_server(&["--store-dir", store_dir]);
    let a1 = request(addr, "POST", "/v1/simulate", BODY_A, TIMEOUT).expect("simulate A");
    let b1 = request(addr, "POST", "/v1/simulate", BODY_B, TIMEOUT).expect("simulate B");
    assert_eq!((a1.status, b1.status), (200, 200));
    assert_eq!(a1.header("x-cache"), Some("miss"));
    let a2 = request(addr, "POST", "/v1/simulate", BODY_A, TIMEOUT).expect("repeat A");
    assert_eq!(a2.header("x-cache"), Some("hit"));
    assert_eq!(a2.body, a1.body);
    assert_eq!(metric(addr, "store_entries"), 2.0);
    kill9(&mut child);

    // Corrupt one stored entry the way a torn write would: truncate it.
    let entries: Vec<PathBuf> =
        fs::read_dir(dir.join("entries")).unwrap().map(|f| f.unwrap().path()).collect();
    assert_eq!(entries.len(), 2, "both results must be on disk");
    let victim = &entries[0];
    let raw = fs::read(victim).unwrap();
    fs::write(victim, &raw[..raw.len() / 2]).unwrap();

    // Round two: same directory, fresh process.
    let (child, addr) = spawn_server(&["--store-dir", store_dir]);
    assert_eq!(
        metric(addr, "store_corrupt_quarantined"),
        1.0,
        "the truncated entry must be caught at rehydration"
    );
    assert_eq!(metric(addr, "store_entries"), 1.0);
    assert_eq!(fs::read_dir(dir.join("quarantine")).unwrap().count(), 1);

    // The intact entry answers as a warm hit; the quarantined one is
    // re-simulated, never served from the bad file. Either way the body
    // is byte-identical to the pre-kill answer (bit-determinism).
    let a3 = request(addr, "POST", "/v1/simulate", BODY_A, TIMEOUT).expect("A after restart");
    let b3 = request(addr, "POST", "/v1/simulate", BODY_B, TIMEOUT).expect("B after restart");
    assert_eq!(a3.body, a1.body, "A must survive the crash byte-identically");
    assert_eq!(b3.body, b1.body, "B must survive the crash byte-identically");
    let hits = [&a3, &b3].iter().filter(|r| r.header("x-cache") == Some("hit")).count();
    assert_eq!(hits, 1, "exactly one of the two survived on disk");

    // Now both are warm again, and the admission identity still holds.
    let a4 = request(addr, "POST", "/v1/simulate", BODY_A, TIMEOUT).unwrap();
    let b4 = request(addr, "POST", "/v1/simulate", BODY_B, TIMEOUT).unwrap();
    assert_eq!(a4.header("x-cache"), Some("hit"));
    assert_eq!(b4.header("x-cache"), Some("hit"));
    assert_eq!(metric(addr, "accepted"), metric(addr, "cache_hits") + metric(addr, "cache_misses"));

    graceful_exit(child, addr);
    let _ = fs::remove_dir_all(&dir);
}

/// Wait until `dir` contains at least one file, with a deadline.
fn wait_nonempty(dir: &Path, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if fs::read_dir(dir).map(|d| d.count() > 0).unwrap_or(false) {
            return;
        }
        if Instant::now() > deadline {
            panic!("no {what} appeared in {} within 60s", dir.display());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn sigkill_mid_job_resumes_from_checkpoint_bit_identically() {
    // Big enough that the process dies mid-simulation, checkpointed
    // often enough that one lands quickly.
    let body = r#"{"workload":"pgbench","mode":"live","accesses":1000000,"scale":64}"#;

    // Reference: what an uninterrupted run of this exact request renders.
    let sim = parse_body(body, &Limits::default()).expect("reference parse");
    let reference = render_run(&sim.canonical, &run(&sim.cfg));

    let dir = tmpdir("resume");
    let store_dir = dir.to_str().unwrap();
    let flags = [
        "--store-dir",
        store_dir,
        "--snapshot-every",
        "25000",
        "--workers",
        "1",
        "--sync-timeout-ms",
        "110000",
    ];

    let (mut child, addr) = spawn_server(&flags);
    let submit = request(addr, "POST", "/v1/jobs", body, TIMEOUT).expect("submit job");
    assert_eq!(submit.status, 202, "{}", submit.body);
    assert_eq!(submit.header("x-cache"), Some("miss"));

    // Die as soon as the first checkpoint is durable.
    wait_nonempty(&dir.join("checkpoints"), "checkpoint");
    kill9(&mut child);
    assert_eq!(
        fs::read_dir(dir.join("entries")).unwrap().count(),
        0,
        "the job must not have finished before the kill, or this test proves nothing"
    );

    // Restart: the checkpoint is re-admitted and resumed, and a client
    // asking for the same config gets the exact uninterrupted bytes.
    let (child, addr) = spawn_server(&flags);
    let resp = request(addr, "POST", "/v1/simulate", body, Duration::from_secs(120))
        .expect("simulate after restart");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.body, reference, "resumed job must match the uninterrupted run exactly");

    assert_eq!(metric(addr, "resumed_jobs"), 1.0, "the job must have resumed, not restarted");
    assert!(metric(addr, "snapshots_written") >= 1.0);
    assert_eq!(metric(addr, "store_corrupt_quarantined"), 0.0);
    assert_eq!(metric(addr, "accepted"), metric(addr, "cache_hits") + metric(addr, "cache_misses"));

    graceful_exit(child, addr);
    let _ = fs::remove_dir_all(&dir);
}

/// The first snapshot of `sim`'s run at a 5,000-access cadence, with
/// `edit` applied and the trailing checksum resealed, so the container
/// is whole and only the edit tells it apart.
fn edited_first_snapshot(sim: &SimRequest, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut snaps = Vec::new();
    let mut sink = |_submitted: u64, bytes: Vec<u8>| snaps.push(bytes);
    run_resumable(&sim.cfg, SnapshotCtl { resume_from: None, every: 5_000, sink: Some(&mut sink) })
        .expect("capture run");
    let mut snap = snaps.swap_remove(0);
    edit(&mut snap);
    let end = snap.len() - 8;
    let sum = snap_hash(&snap[..end]);
    snap[end..].copy_from_slice(&sum.to_le_bytes());
    snap
}

#[test]
fn format_1_checkpoint_restarts_fresh_with_identical_bytes() {
    let body = r#"{"workload":"pgbench","mode":"live","accesses":20000,"scale":64}"#;
    let sim = parse_body(body, &Limits::default()).expect("reference parse");
    let reference = render_run(&sim.canonical, &run(&sim.cfg));

    // What an older build leaves on the shelf: this run's first snapshot
    // in a format-1 container (format 1 also carried the warm-up
    // completions). Restamp the u32 after the 8-byte magic.
    let old = edited_first_snapshot(&sim, |snap| snap[8..12].copy_from_slice(&1u32.to_le_bytes()));

    let dir = tmpdir("format1");
    Store::open(&dir, 0).expect("open store").write_checkpoint(
        sim.key,
        &sim.canonical,
        &old,
        &ServerMetrics::default(),
    );
    let checkpoints = dir.join("checkpoints");
    assert_eq!(fs::read_dir(&checkpoints).unwrap().count(), 1);

    // Boot re-admits the checkpointed job; its worker finds the snapshot
    // refused, runs the job fresh, and the request gets that answer.
    let flags =
        ["--store-dir", dir.to_str().unwrap(), "--snapshot-every", "5000", "--workers", "1"];
    // Everything is read before the asserts, so a failing one does not
    // leave the server running.
    let (child, addr) = spawn_server(&flags);
    let resp = request(addr, "POST", "/v1/simulate", body, TIMEOUT).expect("simulate");
    let resumed = metric(addr, "resumed_jobs");
    let left = fs::read_dir(&checkpoints).unwrap().count();
    graceful_exit(child, addr);
    let _ = fs::remove_dir_all(&dir);

    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.body, reference, "a fresh restart must match the uninterrupted run exactly");
    assert_eq!(resumed, 0.0, "a format-1 snapshot must not resume");
    assert_eq!(left, 0, "the refused checkpoint must be gone once the job has finished");
}

#[test]
fn stamp_encoded_l4_checkpoint_restarts_fresh_while_hetero_resumes() {
    let l4_body =
        r#"{"workload":"pgbench","mode":"off","scheme":"l4cache","accesses":20000,"scale":64}"#;
    let het_body = r#"{"workload":"mg","mode":"live","accesses":20000,"scale":64}"#;
    let l4 = parse_body(l4_body, &Limits::default()).expect("l4cache parse");
    let het = parse_body(het_body, &Limits::default()).expect("hetero parse");
    let l4_reference = render_run(&l4.canonical, &run(&l4.cfg));
    let het_reference = render_run(&het.canonical, &run(&het.cfg));

    // An older build's l4cache checkpoint: its L4 section is tagged
    // `l4ch` (per-way LRU stamps) in a container of this build's format.
    // The hetero checkpoint is this build's own, and must still resume.
    let l4_old = edited_first_snapshot(&l4, |snap| {
        let at = snap.windows(4).position(|w| w == b"l4c2").expect("an L4 section");
        snap[at..at + 4].copy_from_slice(b"l4ch");
    });
    let het_current = edited_first_snapshot(&het, |_| {});

    let dir = tmpdir("l4stamps");
    let store = Store::open(&dir, 0).expect("open store");
    let metrics = ServerMetrics::default();
    store.write_checkpoint(l4.key, &l4.canonical, &l4_old, &metrics);
    store.write_checkpoint(het.key, &het.canonical, &het_current, &metrics);
    drop(store);
    let checkpoints = dir.join("checkpoints");
    assert_eq!(fs::read_dir(&checkpoints).unwrap().count(), 2);

    let flags =
        ["--store-dir", dir.to_str().unwrap(), "--snapshot-every", "5000", "--workers", "1"];
    // Everything is read before the asserts, so a failing one does not
    // leave the server running.
    let (child, addr) = spawn_server(&flags);
    let l4_resp = request(addr, "POST", "/v1/simulate", l4_body, TIMEOUT).expect("simulate l4");
    let het_resp = request(addr, "POST", "/v1/simulate", het_body, TIMEOUT).expect("simulate het");
    let resumed = metric(addr, "resumed_jobs");
    let left = fs::read_dir(&checkpoints).unwrap().count();
    graceful_exit(child, addr);
    let _ = fs::remove_dir_all(&dir);

    assert_eq!(l4_resp.status, 200, "{}", l4_resp.body);
    assert_eq!(het_resp.status, 200, "{}", het_resp.body);
    assert_eq!(l4_resp.body, l4_reference, "a fresh restart must match the uninterrupted run");
    assert_eq!(het_resp.body, het_reference, "a resumed run must match the uninterrupted run");
    assert_eq!(resumed, 1.0, "the hetero checkpoint resumes, the stamp-encoded L4 one does not");
    assert_eq!(left, 0, "both checkpoints must be gone once their jobs have finished");
}
