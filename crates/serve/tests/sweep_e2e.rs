//! End-to-end tests for the sweep subsystem: expansion and dedup
//! accounting through `POST /v1/sweeps`, monotone progress, SJF
//! admission, the coordinator topology surviving a SIGKILLed peer, and
//! — the acceptance bar — the served figures document reconciling
//! byte-for-byte with an in-process run over the same cells via
//! `hmm_simulator::run_grid`.

use hmm_serve::client::{request, request_bytes, HttpResponse};
use hmm_serve::request::{parse_body, Limits};
use hmm_serve::response::render_run;
use hmm_serve::{Server, ServerConfig};
use hmm_sim_base::config::SimScale;
use hmm_simulator::run_grid;
use hmm_sweep::spec::render_json;
use hmm_sweep::{expand, Ring, SweepCounts};
use hmm_telemetry::jsonin::{self, Json};
use hmm_workloads::{workload, write_binary, WorkloadId};
use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);

fn post(addr: SocketAddr, path: &str, body: &str) -> HttpResponse {
    request(addr, "POST", path, body, TIMEOUT).expect("request failed")
}

fn get(addr: SocketAddr, path: &str) -> HttpResponse {
    request(addr, "GET", path, "", TIMEOUT).expect("request failed")
}

fn counter(doc: &Json, name: &str) -> u64 {
    doc.get(name).and_then(|v| v.as_f64()).unwrap_or_else(|| panic!("missing '{name}'")) as u64
}

/// Submit a sweep and return its id plus the submit-time accounting.
fn submit_sweep(addr: SocketAddr, spec: &str) -> (u64, u64, u64, u64) {
    let resp = post(addr, "/v1/sweeps", spec);
    assert_eq!(resp.status, 202, "{}", resp.body);
    let doc = jsonin::parse(&resp.body).unwrap();
    (
        counter(&doc, "id"),
        counter(&doc, "expanded"),
        counter(&doc, "deduped"),
        counter(&doc, "cells"),
    )
}

/// Poll a sweep to its terminal state, asserting on every snapshot that
/// the non-quiescent identities hold and that `done` never regresses.
fn wait_sweep(addr: SocketAddr, id: u64) -> (Json, SweepCounts) {
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut last_done = 0u64;
    loop {
        let resp = get(addr, &format!("/v1/sweeps/{id}"));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = jsonin::parse(&resp.body).unwrap();
        let counts = SweepCounts::from_json(doc.get("counts").unwrap()).unwrap();
        counts.check(false).unwrap_or_else(|e| panic!("identities broken mid-flight: {e}"));
        assert!(counts.done >= last_done, "progress regressed: {} -> {}", last_done, counts.done);
        last_done = counts.done;
        if doc.get("status").unwrap().as_str() != Some("running") {
            return (doc, counts);
        }
        assert!(Instant::now() < deadline, "sweep {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The reference path: expand + parse + dedup exactly as the server
/// does, run the cells in-process through the simulator's grid runner,
/// render each result with the serving renderer, and aggregate.
fn in_process_figures(spec: &str) -> String {
    let bodies = expand(spec, 1024).unwrap();
    let limits = Limits::default();
    let mut sims = Vec::new();
    let mut seen = HashSet::new();
    for body in &bodies {
        let sim = parse_body(body, &limits).unwrap();
        if seen.insert(sim.canonical.clone()) {
            sims.push(sim);
        }
    }
    let cfgs: Vec<_> = sims.iter().map(|s| s.cfg).collect();
    let results = run_grid(&cfgs);
    let rendered: Vec<String> =
        sims.iter().zip(&results).map(|(s, r)| render_run(&s.canonical, r)).collect();
    hmm_sweep::aggregate::figures_doc(&rendered).unwrap()
}

/// Extract the figures document from a status document as raw text.
/// Both sides of every comparison go through the same parse→render
/// round trip, which is the identity on workspace-rendered JSON.
fn figures_text(status_doc: &Json) -> String {
    let figures = status_doc.get("figures").expect("status lacks 'figures'");
    assert!(!matches!(figures, Json::Null), "finished sweep must carry figures");
    render_json(figures)
}

#[test]
fn sweep_expands_dedups_and_matches_in_process_aggregate() {
    let server =
        Server::start(ServerConfig { workers: 2, conn_threads: 8, ..ServerConfig::default() })
            .unwrap();
    let addr = server.local_addr();

    // "64K" and 65536 are two spellings of one page size, so the 2×2
    // grid holds only two distinct simulations.
    let spec = r#"{"workload":"pgbench","mode":"live","page":["64K",65536],
                   "interval":[1000,10000],"accesses":3000,"scale":64}"#;
    let (id, expanded, deduped, cells) = submit_sweep(addr, spec);
    assert_eq!(expanded, 4);
    assert_eq!(deduped, 2, "spelling variants must coalesce by canonical hash");
    assert_eq!(cells, 2);

    let (doc, counts) = wait_sweep(addr, id);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));
    counts.check(true).unwrap();
    assert_eq!(counts.done, 2);
    assert_eq!(counts.failed, 0);
    assert_eq!(counts.dispatched, 2, "local cells dispatch exactly once");

    // Per-cell entries carry the canonical config and terminal states.
    let cell_list = match doc.get("cells").unwrap() {
        Json::Arr(items) => items,
        other => panic!("cells must be an array, got {other:?}"),
    };
    assert_eq!(cell_list.len(), 2);
    for cell in cell_list {
        assert_eq!(cell.get("status").unwrap().as_str(), Some("done"));
        assert!(cell.get("config").unwrap().get("page_shift").is_some());
    }

    // The acceptance bar: byte-identical to the in-process aggregate.
    assert_eq!(
        figures_text(&doc),
        render_json(&jsonin::parse(&in_process_figures(spec)).unwrap()),
        "served figures must be byte-identical to the in-process run"
    );

    // The raw figures endpoint serves the document verbatim — including
    // the full-range u64 digests no f64 round trip can represent — so
    // this comparison needs no render normalisation at all.
    let raw = get(addr, &format!("/v1/sweeps/{id}/figures"));
    assert_eq!(raw.status, 200);
    assert_eq!(raw.body, in_process_figures(spec), "raw figures must match byte-for-byte");

    // Unknown sweeps and malformed specs answer with structured errors.
    assert_eq!(get(addr, "/v1/sweeps/99999").status, 404);
    assert_eq!(get(addr, "/v1/sweeps/99999/figures").status, 404);
    assert_eq!(get(addr, "/v1/sweeps/nope/figures").status, 404);
    assert_eq!(post(addr, "/v1/sweeps", r#"{"workload":[]}"#).status, 400);
    assert_eq!(post(addr, "/v1/sweeps", r#"{"workload":"x","mode":"live"}"#).status, 400);
    assert_eq!(get(addr, "/v1/sweeps").status, 405);

    server.shutdown();
}

/// Dedup is by canonical text: two seeds whose canonical configs share
/// an `fxhash64` cache key are still two cells with two results.
#[test]
fn cells_sharing_a_cache_key_are_not_deduped() {
    let server =
        Server::start(ServerConfig { workers: 2, conn_threads: 8, ..ServerConfig::default() })
            .unwrap();
    let addr = server.local_addr();
    let spec = r#"{"workload":"pgbench","mode":"live","accesses":10000,"interval":1000,
                   "scale":64,"seed":[1669855655857084,1669855655857834]}"#;
    let keys: HashSet<u64> = expand(spec, 16)
        .unwrap()
        .iter()
        .map(|body| parse_body(body, &Limits::default()).unwrap().key)
        .collect();
    assert_eq!(keys.len(), 1, "the two cells must share a key for this test to mean anything");

    let (id, expanded, deduped, cells) = submit_sweep(addr, spec);
    assert_eq!((expanded, deduped, cells), (2, 0, 2));
    let (doc, counts) = wait_sweep(addr, id);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));
    assert_eq!(counts.done, 2);
    let raw = get(addr, &format!("/v1/sweeps/{id}/figures"));
    assert_eq!(raw.body, in_process_figures(spec), "each cell carries its own result");
    server.shutdown();
}

/// Sweep cells flow through the same admission path as clients, so the
/// result cache absorbs a resubmission of the same grid: zero new
/// simulations, same bytes.
#[test]
fn resubmitted_sweep_is_served_from_the_cache() {
    let server =
        Server::start(ServerConfig { workers: 2, conn_threads: 8, ..ServerConfig::default() })
            .unwrap();
    let addr = server.local_addr();
    let spec = r#"{"workload":"mg","mode":"static","accesses":3000,"scale":64,"seed":[5,6]}"#;

    let (id1, ..) = submit_sweep(addr, spec);
    let (doc1, _) = wait_sweep(addr, id1);
    let metrics = jsonin::parse(&get(addr, "/metrics").body).unwrap();
    let runs_after_first = counter(&metrics, "sim_runs");

    let (id2, ..) = submit_sweep(addr, spec);
    assert_ne!(id2, id1);
    let (doc2, _) = wait_sweep(addr, id2);
    assert_eq!(figures_text(&doc1), figures_text(&doc2));

    let metrics = jsonin::parse(&get(addr, "/metrics").body).unwrap();
    assert_eq!(
        counter(&metrics, "sim_runs"),
        runs_after_first,
        "the second sweep must be answered entirely from the cache"
    );
    assert_eq!(counter(&metrics, "sweeps_completed"), 2);

    server.shutdown();
}

/// One worker, six cells: `done` climbs strictly through intermediate
/// values — the progress report is live, not a final-state artifact.
#[test]
fn progress_is_monotone_and_live() {
    let server = Server::start(ServerConfig {
        workers: 1,
        conn_threads: 4,
        queue_depth: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let spec =
        r#"{"workload":"pgbench","mode":"live","accesses":60000,"scale":64,"seed":[1,2,3,4,5,6]}"#;
    let (id, _, _, cells) = submit_sweep(addr, spec);
    assert_eq!(cells, 6);

    let mut observed = HashSet::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let doc = jsonin::parse(&get(addr, &format!("/v1/sweeps/{id}")).body).unwrap();
        let counts = SweepCounts::from_json(doc.get("counts").unwrap()).unwrap();
        counts.check(false).unwrap();
        observed.insert(counts.done);
        if doc.get("status").unwrap().as_str() != Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "sweep never finished");
        std::thread::sleep(Duration::from_millis(5));
    }
    // wait_sweep already pins monotonicity elsewhere; here we pin
    // liveness: with one worker and ~150ms cells, polling every 5ms
    // must catch the count somewhere strictly between start and end.
    assert!(observed.contains(&6), "must observe completion");
    assert!(
        observed.iter().any(|&d| d > 0 && d < 6),
        "never observed partial progress: {observed:?}"
    );

    server.shutdown();
}

/// With `--sjf`, a small job submitted behind a big one overtakes it in
/// the queue (flag-gated shortest-job-first admission).
#[test]
fn sjf_lets_small_cells_overtake_big_ones() {
    let server = Server::start(ServerConfig {
        workers: 1,
        conn_threads: 4,
        queue_depth: 8,
        sjf: true,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    // Occupy the only worker so the next two jobs queue up together.
    let blocker = r#"{"workload":"pgbench","mode":"live","accesses":300000,"scale":64,"seed":41}"#;
    assert_eq!(post(addr, "/v1/jobs", blocker).status, 202);
    std::thread::sleep(Duration::from_millis(150));

    let big = r#"{"workload":"pgbench","mode":"live","accesses":900000,"scale":64,"seed":42}"#;
    let small = r#"{"workload":"pgbench","mode":"live","accesses":3000,"scale":64,"seed":43}"#;
    let big_resp = post(addr, "/v1/jobs", big);
    let small_resp = post(addr, "/v1/jobs", small);
    assert_eq!(big_resp.status, 202, "{}", big_resp.body);
    assert_eq!(small_resp.status, 202, "{}", small_resp.body);
    let big_id = counter(&jsonin::parse(&big_resp.body).unwrap(), "id");
    let small_id = counter(&jsonin::parse(&small_resp.body).unwrap(), "id");

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let doc = jsonin::parse(&get(addr, &format!("/v1/jobs/{small_id}")).body).unwrap();
        if doc.get("status").unwrap().as_str() == Some("done") {
            break;
        }
        assert!(Instant::now() < deadline, "small job never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    let doc = jsonin::parse(&get(addr, &format!("/v1/jobs/{big_id}")).body).unwrap();
    assert_ne!(
        doc.get("status").unwrap().as_str(),
        Some("done"),
        "the big job must not finish before the small one under SJF"
    );

    server.shutdown();
}

/// Spawn a real peer server process and parse its bound address off the
/// banner line.
fn spawn_peer() -> (Child, SocketAddr) {
    let bin = env!("CARGO_BIN_EXE_hmm-serve");
    let mut child = Command::new(bin)
        .args(["--addr", "127.0.0.1:0", "--workers", "2", "--conn-threads", "4"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn peer");
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("hmm-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .parse()
        .expect("parse peer address");
    (child, addr)
}

/// The distributed acceptance test: two real peer processes, one
/// SIGKILLed mid-run. The coordinator re-shards the dead peer's cells
/// onto the survivor, completes every cell, keeps the dispatch ledger
/// balanced, and still produces the byte-identical aggregate.
#[test]
fn coordinator_survives_a_sigkilled_peer() {
    let (mut peer_a, addr_a) = spawn_peer();
    let (mut peer_b, addr_b) = spawn_peer();
    let peers = vec![addr_a.to_string(), addr_b.to_string()];

    let coordinator = Server::start(ServerConfig {
        workers: 1,
        conn_threads: 4,
        peers: peers.clone(),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = coordinator.local_addr();

    // ~0.8s per cell in debug builds: long enough that the victim peer
    // is provably still working when the kill lands.
    let spec =
        r#"{"workload":"pgbench","mode":"live","accesses":300000,"scale":64,"seed":[1,2,3,4]}"#;

    // The ring is a pure function of (peer set, key), so the test can
    // compute which peer owns the first cell and kill exactly that one,
    // guaranteeing the retry path runs.
    let first_cell = parse_body(&expand(spec, 16).unwrap()[0], &Limits::default()).unwrap();
    let victim = Ring::new(&peers).assign(first_cell.key);

    let (id, _, _, cells) = submit_sweep(addr, spec);
    assert_eq!(cells, 4);
    std::thread::sleep(Duration::from_millis(100));
    let victim_child = if victim == 0 { &mut peer_a } else { &mut peer_b };
    victim_child.kill().expect("SIGKILL the victim peer");

    let (doc, counts) = wait_sweep(addr, id);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("done"), "{}", counts.to_json());
    counts.check(true).unwrap();
    assert_eq!(counts.done, 4, "every cell must complete despite the kill");
    assert_eq!(counts.failed, 0);
    assert!(counts.retries >= 1, "the victim's cells must have been re-dispatched");

    assert_eq!(
        figures_text(&doc),
        render_json(&jsonin::parse(&in_process_figures(spec)).unwrap()),
        "peer-computed figures must be byte-identical to the in-process run"
    );

    let _ = peer_a.kill();
    let _ = peer_b.kill();
    let _ = peer_a.wait();
    let _ = peer_b.wait();
    coordinator.shutdown();
}

/// A trace sweep through a coordinator whose peers have never seen the
/// trace: each peer is sent the trace's bytes before its first cell, so
/// every cell completes, and the figures document equals the same sweep
/// run on one server.
#[test]
fn coordinator_pushes_traces_to_its_peers() {
    let (mut peer_a, addr_a) = spawn_peer();
    let (mut peer_b, addr_b) = spawn_peer();
    let peers = vec![addr_a.to_string(), addr_b.to_string()];
    let coordinator = Server::start(ServerConfig {
        workers: 1,
        conn_threads: 4,
        peers: peers.clone(),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = coordinator.local_addr();

    let recs = workload(WorkloadId::Pgbench, &SimScale { divisor: 256 }).records(0x5EED, 3_000);
    let mut bytes = Vec::new();
    write_binary(&mut bytes, recs).unwrap();
    let resp = request_bytes(addr, "POST", "/v1/traces", &bytes, TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let id = jsonin::parse(&resp.body).unwrap().get("id").unwrap().as_str().unwrap().to_string();

    let spec = format!(
        r#"{{"workload":{{"trace":"{id}"}},"mode":"live","accesses":8000,"scale":64,
            "interval":[500,1000,2000,4000,8000,16000]}}"#
    );
    // Both peers own cells, so both must be sent the trace.
    let ring = Ring::new(&peers);
    let owners: HashSet<usize> = expand(&spec, 16)
        .unwrap()
        .iter()
        .map(|body| ring.assign(parse_body(body, &Limits::default()).unwrap().key))
        .collect();
    assert_eq!(owners.len(), 2, "the grid must shard onto both peers");

    let (id_sweep, _, _, cells) = submit_sweep(addr, &spec);
    assert_eq!(cells, 6);
    let (doc, counts) = wait_sweep(addr, id_sweep);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("done"), "{}", counts.to_json());
    counts.check(true).unwrap();
    assert_eq!((counts.done, counts.failed), (6, 0));
    let cluster = get(addr, &format!("/v1/sweeps/{id_sweep}/figures"));
    assert_eq!(cluster.status, 200, "{}", cluster.body);
    for peer in [addr_a, addr_b] {
        assert_eq!(get(peer, &format!("/v1/traces/{id}")).status, 200, "peer {peer}");
    }

    let single =
        Server::start(ServerConfig { workers: 2, conn_threads: 4, ..ServerConfig::default() })
            .unwrap();
    let resp = request_bytes(single.local_addr(), "POST", "/v1/traces", &bytes, TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let (id_single, ..) = submit_sweep(single.local_addr(), &spec);
    wait_sweep(single.local_addr(), id_single);
    let local = get(single.local_addr(), &format!("/v1/sweeps/{id_single}/figures"));
    assert_eq!(cluster.body, local.body, "cluster figures must equal the single-server run");

    single.shutdown();
    let _ = peer_a.kill();
    let _ = peer_b.kill();
    let _ = peer_a.wait();
    let _ = peer_b.wait();
    coordinator.shutdown();
}

/// `hmm-loadgen --sweep --check` drives the whole client-side protocol:
/// submit, poll monotonically, verify the identities, and reconcile the
/// figures totals against the embedded results.
#[test]
fn loadgen_sweep_mode_reconciles() {
    let server =
        Server::start(ServerConfig { workers: 2, conn_threads: 8, ..ServerConfig::default() })
            .unwrap();
    let addr = server.local_addr();
    let spec = r#"{"workload":"pgbench","mode":"live","accesses":3000,"scale":64,"seed":[1,2]}"#;
    let figures_path =
        std::env::temp_dir().join(format!("hmm-sweep-fig-{}.json", std::process::id()));
    let figures_path = figures_path.to_str().unwrap().to_string();

    let out = Command::new(env!("CARGO_BIN_EXE_hmm-loadgen"))
        .args(["--addr", &addr.to_string(), "--sweep", spec, "--check"])
        .args(["--figures-out", &figures_path])
        .output()
        .expect("run hmm-loadgen");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("figures totals reconcile"), "{stdout}");

    // The saved document must be byte-identical to the in-process run of
    // the same grid — this is the comparison the CI sweep-smoke job makes
    // with `cmp` against `hmm-bench sweep --out`.
    let saved = std::fs::read_to_string(&figures_path).expect("saved figures");
    assert_eq!(saved, format!("{}\n", in_process_figures(spec)));
    std::fs::remove_file(&figures_path).ok();

    server.shutdown();
}
