//! Cache-key collisions end to end. The serving layer indexes cached
//! and stored results, in-flight jobs, checkpoints and sweep cells by
//! `fxhash64` of the canonical config, and FxHash does not resist
//! collisions between near-identical strings: the two bodies below
//! differ only in their seed and share a key. Every path that reuses
//! work by key must still answer each request with its own
//! configuration's result, byte for byte.

use hmm_serve::client::{request, HttpResponse};
use hmm_serve::request::{parse_body, Limits};
use hmm_serve::response::render_run;
use hmm_serve::{Server, ServerConfig, ServerMetrics, SimRequest, Store};
use hmm_simulator::driver::{run, run_resumable, SnapshotCtl};
use hmm_telemetry::jsonin;
use std::fs;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

const A: &str = r#"{"workload":"pgbench","mode":"live","accesses":10000,"interval":1000,"scale":64,"seed":1669855655857084}"#;
const B: &str = r#"{"workload":"pgbench","mode":"live","accesses":10000,"interval":1000,"scale":64,"seed":1669855655857834}"#;

/// Checkpoint cadence for the resume tests, in submitted accesses.
const EVERY: u64 = 2_000;

fn pair() -> (SimRequest, SimRequest) {
    let a = parse_body(A, &Limits::default()).unwrap();
    let b = parse_body(B, &Limits::default()).unwrap();
    assert_eq!(a.key, b.key, "the pair must share a key for these tests to mean anything");
    assert_ne!(a.canonical, b.canonical);
    (a, b)
}

/// The body an uninterrupted in-process run renders.
fn expected(sim: &SimRequest) -> String {
    render_run(&sim.canonical, &run(&sim.cfg))
}

/// The first checkpoint an uninterrupted run of `sim` captures, as a
/// server killed mid-job would have left it on its shelf.
fn first_checkpoint(sim: &SimRequest) -> Vec<u8> {
    let mut snaps = Vec::new();
    let mut sink = |_submitted: u64, bytes: Vec<u8>| snaps.push(bytes);
    run_resumable(&sim.cfg, SnapshotCtl { resume_from: None, every: EVERY, sink: Some(&mut sink) })
        .unwrap();
    snaps.swap_remove(0)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hmm-collision-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn start(cfg: ServerConfig) -> Server {
    Server::start(ServerConfig { conn_threads: 4, ..cfg }).expect("bind loopback server")
}

fn simulate(addr: SocketAddr, body: &str) -> HttpResponse {
    let resp = request(addr, "POST", "/v1/simulate", body, TIMEOUT).expect("simulate");
    assert_eq!(resp.status, 200, "{}", resp.body);
    resp
}

fn counter(addr: SocketAddr, name: &str) -> u64 {
    let resp = request(addr, "GET", "/metrics", "", TIMEOUT).expect("metrics");
    let doc = jsonin::parse(&resp.body).expect("metrics parse");
    doc.get(name).and_then(|v| v.as_f64()).unwrap_or_else(|| panic!("missing '{name}'")) as u64
}

#[test]
fn a_cached_body_is_served_only_to_its_own_config() {
    let (a, b) = pair();
    let server = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let addr = server.local_addr();

    let first = simulate(addr, A);
    assert_eq!(first.header("x-cache"), Some("miss"));
    assert_eq!(first.body, expected(&a));
    let second = simulate(addr, B);
    assert_eq!(second.header("x-cache"), Some("miss"), "B must not get A's cached body");
    assert_eq!(second.body, expected(&b));
    let again = simulate(addr, B);
    assert_eq!(again.header("x-cache"), Some("hit"));
    assert_eq!(again.body, second.body);
    // B displaced A under the shared key; A runs again, to the same bytes.
    let back = simulate(addr, A);
    assert_eq!(back.header("x-cache"), Some("miss"));
    assert_eq!(back.body, first.body);
    server.shutdown();
}

#[test]
fn a_colliding_request_does_not_join_the_other_configs_job() {
    let (a, b) = pair();
    let server = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let addr = server.local_addr();
    let submit = |body: &str| {
        let resp = request(addr, "POST", "/v1/jobs", body, TIMEOUT).expect("submit");
        assert_eq!(resp.status, 202, "{}", resp.body);
        let doc = jsonin::parse(&resp.body).unwrap();
        doc.get("id").and_then(|v| v.as_f64()).unwrap() as u64
    };
    // Occupy the only worker so A and B are both queued, in flight, when
    // B is admitted.
    submit(r#"{"workload":"mg","mode":"live","accesses":50000,"scale":64}"#);
    let (ja, jb) = (submit(A), submit(B));
    assert_ne!(ja, jb, "B must get a job of its own");
    for (id, sim) in [(ja, &a), (jb, &b)] {
        let deadline = Instant::now() + TIMEOUT;
        let status = loop {
            let resp = request(addr, "GET", &format!("/v1/jobs/{id}"), "", TIMEOUT).unwrap();
            if resp.body.contains(r#""status":"done""#) {
                break resp.body;
            }
            assert!(Instant::now() < deadline, "job {id} never finished: {}", resp.body);
            std::thread::sleep(Duration::from_millis(10));
        };
        let want = format!(r#"{{"id":{id},"status":"done","result":{}}}"#, expected(sim));
        assert_eq!(status, want);
    }
    assert_eq!(counter(addr, "coalesced"), 0);
    server.shutdown();
}

#[test]
fn a_stored_body_is_served_only_to_its_own_config() {
    let (a, b) = pair();
    let dir = tmpdir("store");
    let stored = |cache_entries| ServerConfig {
        workers: 2,
        store_dir: Some(dir.clone()),
        cache_entries,
        ..ServerConfig::default()
    };
    let server = start(stored(256));
    assert_eq!(simulate(server.local_addr(), A).body, expected(&a));
    server.shutdown();

    // Restart over the same store with the memory cache off, so every
    // lookup reads the entry A left on disk under the shared key.
    let server = start(stored(0));
    let addr = server.local_addr();
    let resp = simulate(addr, B);
    assert_eq!(resp.header("x-cache"), Some("miss"), "B must not get A's stored body");
    assert_eq!(resp.body, expected(&b));
    let resp = simulate(addr, A);
    assert_eq!(resp.header("x-cache"), Some("miss"), "B's entry displaced A's");
    assert_eq!(resp.body, expected(&a));
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_checkpoint_resumes_only_its_own_config() {
    let (a, b) = pair();
    let dir = tmpdir("ckpt");
    let server = start(ServerConfig {
        workers: 1,
        store_dir: Some(dir.clone()),
        snapshot_every: EVERY,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    // Shelve A's checkpoint under the shared key, then ask for B. Its
    // snapshot carries the shared key too, so only the stored canonical
    // text tells the two apart.
    let store = Store::open(&dir, 0).unwrap();
    store.write_checkpoint(a.key, &a.canonical, &first_checkpoint(&a), &ServerMetrics::default());
    assert_eq!(simulate(addr, B).body, expected(&b));
    assert_eq!(counter(addr, "resumed_jobs"), 0, "B must not resume from A's checkpoint");
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn restart_resumes_a_checkpoint_whose_key_holds_another_configs_result() {
    let (a, b) = pair();
    let dir = tmpdir("restart");
    // What a killed server may leave behind: B's finished result and A's
    // checkpoint, both under the shared key.
    let store = Store::open(&dir, 0).unwrap();
    let metrics = ServerMetrics::default();
    store.put(b.key, &expected(&b), &metrics);
    store.write_checkpoint(a.key, &a.canonical, &first_checkpoint(&a), &metrics);
    drop(store);

    let server = start(ServerConfig {
        workers: 1,
        store_dir: Some(dir.clone()),
        snapshot_every: EVERY,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    // B's result does not make A's checkpoint moot: A is re-admitted and
    // resumed, and its answer is the uninterrupted run's bytes.
    assert_eq!(simulate(addr, A).body, expected(&a));
    assert_eq!(counter(addr, "resumed_jobs"), 1);
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
