//! End-to-end tests for the trace-ingest subsystem: upload, registry
//! CRUD, simulate-by-id byte-identity against an in-process replay,
//! durable rehydration across a restart, adversarial uploads, and the
//! live job event stream.

use hmm_serve::client::{request, request_bytes, stream_lines, HttpResponse};
use hmm_serve::request::{parse_body, Limits};
use hmm_serve::response::render_run;
use hmm_serve::{Server, ServerConfig};
use hmm_sim_base::config::SimScale;
use hmm_simulator::driver::run;
use hmm_telemetry::jsonin;
use hmm_workloads::{workload, write_binary, WorkloadId};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hmm-trace-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_server() -> Server {
    Server::start(ServerConfig {
        workers: 2,
        conn_threads: 8,
        queue_depth: 8,
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> HttpResponse {
    request(addr, "POST", path, body, TIMEOUT).expect("request failed")
}

fn get(addr: SocketAddr, path: &str) -> HttpResponse {
    request(addr, "GET", path, "", TIMEOUT).expect("request failed")
}

/// A small deterministic HMT1 trace; `seed` varies the content (and so
/// the id) to keep tests independent despite the process-global replay
/// registry.
fn trace_bytes(seed: u64, n: usize) -> Vec<u8> {
    let recs = workload(WorkloadId::Pgbench, &SimScale { divisor: 256 }).records(seed, n);
    let mut bytes = Vec::new();
    write_binary(&mut bytes, recs).unwrap();
    bytes
}

fn upload(addr: SocketAddr, bytes: &[u8]) -> String {
    let resp = request_bytes(addr, "POST", "/v1/traces", bytes, TIMEOUT).expect("upload failed");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = jsonin::parse(&resp.body).unwrap();
    doc.get("id").unwrap().as_str().unwrap().to_string()
}

#[test]
fn upload_simulate_by_id_matches_in_process_replay() {
    let server = small_server();
    let addr = server.local_addr();

    let bytes = trace_bytes(0xA11CE, 4_000);
    let id = upload(addr, &bytes);

    // The summary round-trips through list and get.
    let listed = get(addr, "/v1/traces");
    assert_eq!(listed.status, 200);
    assert!(listed.body.contains(&id), "{}", listed.body);
    let one = get(addr, &format!("/v1/traces/{id}"));
    assert_eq!(one.status, 200);
    let doc = jsonin::parse(&one.body).unwrap();
    assert_eq!(doc.get("records").unwrap().as_f64(), Some(4_000.0));

    // Simulate by id over HTTP; replay the same trace in-process through
    // the same request parser. Byte-identity is the acceptance bar: the
    // HTTP path and a local `hmm-sim --trace-in` must agree exactly.
    let body = format!(r#"{{"workload":{{"trace":"{id}"}},"mode":"live","accesses":3000}}"#);
    let over_wire = post(addr, "/v1/simulate", &body);
    assert_eq!(over_wire.status, 200, "{}", over_wire.body);
    let sim = parse_body(&body, &Limits::default()).unwrap();
    let local = render_run(&sim.canonical, &run(&sim.cfg));
    assert_eq!(over_wire.body, local, "HTTP replay must be byte-identical to local replay");

    // An inline summary that disagrees with the registered trace is an
    // integrity failure, not an override.
    let forged = format!(r#"{{"workload":{{"trace":"{id}","records":1}},"mode":"live"}}"#);
    let resp = post(addr, "/v1/simulate", &forged);
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("disagrees"), "{}", resp.body);

    // Deleting the trace invalidates simulate-by-id with a structured 400.
    let resp = request(addr, "DELETE", &format!("/v1/traces/{id}"), "", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let resp = post(addr, "/v1/simulate", &body);
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("upload it first"), "{}", resp.body);

    server.shutdown();
}

#[test]
fn adversarial_uploads_are_refused_with_structured_errors() {
    let dir = tmpdir("adversarial");
    let server = Server::start(ServerConfig {
        workers: 1,
        conn_threads: 4,
        max_trace_bytes: 4096,
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = server.local_addr();

    // Wrong magic.
    let resp = request_bytes(addr, "POST", "/v1/traces", b"XXXX not a trace", TIMEOUT).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("not an HMT1 trace"), "{}", resp.body);

    // Truncated mid-record.
    let bytes = trace_bytes(0xBAD, 100);
    let resp =
        request_bytes(addr, "POST", "/v1/traces", &bytes[..bytes.len() - 2], TIMEOUT).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("truncated"), "{}", resp.body);

    // Empty body.
    let resp = request_bytes(addr, "POST", "/v1/traces", b"", TIMEOUT).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);

    // Over the per-route limit: refused before the body is read.
    let big = trace_bytes(0xB16, 3_000);
    assert!(big.len() > 4096, "test needs an oversized trace, got {}", big.len());
    let resp = request_bytes(addr, "POST", "/v1/traces", &big, TIMEOUT).unwrap();
    assert_eq!(resp.status, 413, "{}", resp.body);
    assert!(resp.body.contains("4096-byte limit"), "{}", resp.body);

    // Unknown and malformed ids.
    let resp = get(addr, "/v1/traces/00000000000000ff");
    assert_eq!(resp.status, 404, "{}", resp.body);
    let resp = get(addr, "/v1/traces/zz");
    assert_eq!(resp.status, 404, "{}", resp.body);
    let resp = request(addr, "DELETE", "/v1/traces/00000000000000ff", "", TIMEOUT).unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);

    // Nothing adversarial landed in the registry.
    let doc = jsonin::parse(&get(addr, "/v1/traces").body).unwrap();
    assert_eq!(doc.get("traces").unwrap().as_arr().unwrap().len(), 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_rehydrates_across_restart() {
    let dir = tmpdir("rehydrate");
    let config = || ServerConfig {
        workers: 1,
        conn_threads: 4,
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let bytes = trace_bytes(0xD15C, 2_000);
    let body_template: String;
    let first_body: String;
    {
        let server = Server::start(config()).expect("bind first server");
        let addr = server.local_addr();
        let id = upload(addr, &bytes);
        body_template =
            format!(r#"{{"workload":{{"trace":"{id}"}},"mode":"static","accesses":2500}}"#);
        let resp = post(addr, "/v1/simulate", &body_template);
        assert_eq!(resp.status, 200, "{}", resp.body);
        first_body = resp.body;
        server.shutdown();
    }
    // Second server, same store dir: the trace must be listed, resolvable
    // by id, and replay to the byte-identical body (served from the
    // durable result store or re-run — indistinguishable by design).
    let server = Server::start(config()).expect("bind second server");
    let addr = server.local_addr();
    let listed = get(addr, "/v1/traces");
    assert!(listed.body.contains("\"records\":2000"), "{}", listed.body);
    let resp = post(addr, "/v1/simulate", &body_template);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.body, first_body, "replay must survive a restart byte-identically");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_blob_is_quarantined_at_restart_and_counted_in_metrics() {
    let dir = tmpdir("quarantine");
    let config = || ServerConfig {
        workers: 1,
        conn_threads: 4,
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let id = {
        let server = Server::start(config()).expect("bind first server");
        let id = upload(server.local_addr(), &trace_bytes(0xBAD5EED, 1_500));
        server.shutdown();
        id
    };
    let blob = dir.join("traces").join("entries").join(&id);
    let mut raw = std::fs::read(&blob).unwrap();
    let last = raw.len() - 1;
    raw[last] ^= 0x01;
    std::fs::write(&blob, &raw).unwrap();
    // The first server registered the trace in this process's replay
    // registry; only the disk copy is under test.
    hmm_workloads::replay::unregister(u64::from_str_radix(&id, 16).unwrap());

    let server = Server::start(config()).expect("bind second server");
    let addr = server.local_addr();
    let metrics = jsonin::parse(&get(addr, "/metrics").body).unwrap();
    assert_eq!(metrics.get("store_corrupt_quarantined").unwrap().as_f64(), Some(1.0));
    assert_eq!(metrics.get("store_io_errors").unwrap().as_f64(), Some(0.0));
    assert_eq!(metrics.get("traces_stored").unwrap().as_f64(), Some(0.0));
    assert_eq!(get(addr, &format!("/v1/traces/{id}")).status, 404, "never served");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn job_event_stream_is_monotone_and_eofs_at_completion() {
    let server = small_server();
    let addr = server.local_addr();

    let bytes = trace_bytes(0xE7E27, 3_000);
    let id = upload(addr, &bytes);
    let body = format!(r#"{{"workload":{{"trace":"{id}"}},"mode":"live","accesses":60000}}"#);
    let resp = post(addr, "/v1/jobs", &body);
    assert_eq!(resp.status, 202, "{}", resp.body);
    let job = jsonin::parse(&resp.body).unwrap().get("id").unwrap().as_f64().unwrap() as u64;

    // Live subscriber: sees monotone epoch frames, then a clean EOF
    // exactly when the job turns terminal.
    let stream = stream_lines(addr, &format!("/v1/jobs/{job}/events"), TIMEOUT, |_| ()).unwrap();
    assert_eq!(stream.status, 200);
    assert!(stream.clean_eof, "stream must end with the terminating chunk");
    assert!(!stream.lines.is_empty(), "expected at least one epoch frame");
    let mut last = None;
    for line in &stream.lines {
        let doc = jsonin::parse(line).unwrap_or_else(|e| panic!("bad frame {line:?}: {e}"));
        assert!(doc.get("dropped").is_none(), "no subscriber lag expected here: {line}");
        let epoch = doc.get("epoch").unwrap().as_f64().unwrap() as u64;
        if let Some(prev) = last {
            assert!(epoch > prev, "epochs must be monotone: {epoch} after {prev}");
        }
        last = Some(epoch);
        assert!(doc.get("cycle").unwrap().as_f64().is_some(), "{line}");
    }

    // EOF implies terminal: the job must already be done.
    let status = get(addr, &format!("/v1/jobs/{job}"));
    let doc = jsonin::parse(&status.body).unwrap();
    assert_eq!(doc.get("status").unwrap().as_str(), Some("done"), "{}", status.body);

    // A late subscriber still drains the retained frames and gets the
    // same clean EOF.
    let late = stream_lines(addr, &format!("/v1/jobs/{job}/events"), TIMEOUT, |_| ()).unwrap();
    assert_eq!(late.status, 200);
    assert!(late.clean_eof);
    assert_eq!(late.lines, stream.lines, "retained frames replay identically");

    // Unknown job: 404, not a stream.
    let missing = stream_lines(addr, "/v1/jobs/999999/events", TIMEOUT, |_| ()).unwrap();
    assert_eq!(missing.status, 404);
    assert!(!missing.clean_eof);

    let doc = jsonin::parse(&get(addr, "/metrics").body).unwrap();
    let counter = |n: &str| doc.get(n).unwrap().as_f64().unwrap() as u64;
    assert_eq!(counter("event_subscribers"), 2, "the 404 probe must not count");
    assert_eq!(counter("traces_uploaded"), 1);
    assert_eq!(counter("trace_sim_runs"), 1);

    server.shutdown();
}
