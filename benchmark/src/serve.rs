//! `serve-mixed`: an in-process `hmm_serve::Server` under a closed loop of
//! simulate requests over loopback HTTP.
//!
//! A closed loop fits because the server's callers (the load generator,
//! the sweep coordinator, the CLI) each wait for their reply. Each client
//! sends its requests one after another; every fourth one resends that
//! client's previous body, which the result cache answers (a hit), and
//! the rest are fresh bodies, which cost a simulation, a checkpoint and
//! a store write (a miss). Fresh bodies cycle through
//! {pgbench, specjbb, mg} × {n-1, live} with seeds unique within a run,
//! so a round of requests covers the whole HTTP → parse → admit → queue →
//! simulate → render → store path, with writes next to reads.

use crate::digest::digest;
use crate::replica::{Counters, Layers};
use crate::report::{Report, Spans};
use crate::{host, stats, Opts};
use hmm_serve::client::{request, HttpResponse};
use hmm_serve::request::{parse_body, Limits};
use hmm_serve::response::render_run;
use hmm_serve::{Server, ServerConfig, ServerMetrics, Store};
use hmm_simulator::driver::{self, SnapshotCtl};
use hmm_telemetry::jsonin::{self, Json};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The fresh-body mix: `(workload, mode)`.
const CONFIGS: [(&str, &str); 6] = [
    ("pgbench", "n-1"),
    ("pgbench", "live"),
    ("specjbb", "n-1"),
    ("specjbb", "live"),
    ("mg", "n-1"),
    ("mg", "live"),
];
/// Simulated accesses per request, at scale 64.
const ACCESSES: u64 = 10_000;
/// Monitoring epoch of the requests, in accesses (the wire default).
const INTERVAL: u64 = 1_000;
/// Checkpoint cadence of the server, in simulated accesses.
const SNAPSHOT_EVERY: u64 = 5_000;
/// Requests per client per round: 6 fresh bodies and 2 resends, so each
/// client's round holds every configuration once.
const PER_CLIENT: usize = 8;
/// Server start-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Rounds per run, at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One request of the load and what came back.
struct Sample {
    body: String,
    config: usize,
    /// Index (within the same client's samples) of the miss a resend
    /// repeats; `None` for a fresh body.
    repeats: Option<usize>,
    start: Instant,
    end: Instant,
    response: std::io::Result<HttpResponse>,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fresh body number `f` of a run seeded with `seed`, its sizes divided
/// by `divisor`. Seeds stay below 2^53 so they survive the wire's JSON
/// numbers exactly.
fn fresh_body(seed: u64, f: u64, divisor: u64) -> (String, usize) {
    let config = (f % CONFIGS.len() as u64) as usize;
    let (workload, mode) = CONFIGS[config];
    let seed = (splitmix64(seed) >> 13) + f;
    let (accesses, interval) = (ACCESSES / divisor, INTERVAL / divisor);
    let body = format!(
        r#"{{"workload":"{workload}","mode":"{mode}","accesses":{accesses},"interval":{interval},"scale":64,"seed":{seed}}}"#
    );
    (body, config)
}

/// The requests one client sends in one round.
fn client_plan(seed: u64, first_fresh: u64, divisor: u64) -> Vec<(String, usize, Option<usize>)> {
    let mut plan: Vec<(String, usize, Option<usize>)> = Vec::with_capacity(PER_CLIENT);
    let mut f = first_fresh;
    for j in 0..PER_CLIENT {
        if j % 4 == 3 {
            let (body, config, _) = plan[j - 1].clone();
            plan.push((body, config, Some(j - 1)));
        } else {
            let (body, config) = fresh_body(seed, f, divisor);
            plan.push((body, config, None));
            f += 1;
        }
    }
    plan
}

const FRESH_PER_CLIENT: u64 = (PER_CLIENT - PER_CLIENT / 4) as u64;

fn simulate(addr: SocketAddr, body: &str) -> std::io::Result<HttpResponse> {
    request(addr, "POST", "/v1/simulate", body, IO_TIMEOUT)
}

/// Start a server over a fresh store and wait for its first `/healthz`
/// 200; returns the server and the seconds that took.
fn start(cfg: &ServerConfig) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = Server::start(cfg.clone()).map_err(|e| format!("starting the server: {e}"))?;
    loop {
        match request(server.local_addr(), "GET", "/healthz", "", IO_TIMEOUT) {
            Ok(r) if r.status == 200 => return Ok((server, t.elapsed().as_secs_f64())),
            _ if t.elapsed() > IO_TIMEOUT => {
                server.shutdown();
                return Err("the server never answered /healthz".into());
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Counters of `GET /metrics`.
fn server_counters(addr: SocketAddr) -> Result<Json, String> {
    let r =
        request(addr, "GET", "/metrics", "", IO_TIMEOUT).map_err(|e| format!("/metrics: {e}"))?;
    jsonin::parse(&r.body).map_err(|e| format!("/metrics is not JSON: {e}"))
}

fn delta(before: &Json, after: &Json, name: &str) -> f64 {
    let get = |j: &Json| j.get(name).and_then(Json::as_f64).unwrap_or(f64::NAN);
    get(after) - get(before)
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

pub fn run(opts: &Opts, report: &mut Report, spans: &mut Spans) -> Result<(), String> {
    let scratch = Scratch(Path::new(".bench_tmp").join(format!("serve-{}", std::process::id())));
    let accesses = ACCESSES / opts.divisor;
    let every = SNAPSHOT_EVERY / opts.divisor;
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    println!("clients {clients} (available parallelism capped at 2)");

    let mut setup_s = Vec::new();
    let mut server = None;
    for i in 0..SETUP_REPS {
        let cfg = ServerConfig {
            workers: 2,
            conn_threads: 2,
            store_dir: Some(scratch.0.join(format!("store-{i}"))),
            snapshot_every: every,
            ..ServerConfig::default()
        };
        let (s, secs) = start(&cfg)?;
        setup_s.push(secs);
        if let Some(previous) = server.replace(s) {
            previous.shutdown();
        }
    }
    let server = server.expect("at least one start-up");
    let addr = server.local_addr();
    println!("{}", stats::summary("setup", "s", &setup_s));

    // Untimed warm-up: one miss per configuration, then one hit, from a
    // body range the timed rounds never use.
    for f in 0..CONFIGS.len() as u64 {
        let (body, _) = fresh_body(opts.seed, (1 << 40) + f, opts.divisor);
        let first = simulate(addr, &body).map_err(|e| format!("warm-up request: {e}"))?;
        let again = simulate(addr, &body).map_err(|e| format!("warm-up request: {e}"))?;
        let same = again.body == first.body;
        report.check(first.status == 200 && same, || {
            format!("warm-up body {body}: status {}, resend equal: {same}", first.status)
        });
    }

    let before = server_counters(addr)?;
    let c0 = host::cpu()?;
    let load_seconds = if opts.traced { opts.seconds / 3.0 } else { opts.seconds };
    let deadline = Instant::now() + Duration::from_secs_f64(load_seconds);
    let mut round_macc_s = Vec::new();
    let mut round_miss_ms = Vec::new();
    let mut samples: Vec<Vec<Sample>> = Vec::new();
    while round_macc_s.len() < MIN_ROUNDS || Instant::now() < deadline {
        let round = round_macc_s.len() as u64;
        let round_id = spans.id();
        let t = Instant::now();
        let done: Vec<Vec<Sample>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients as u64)
                .map(|c| {
                    let plan = client_plan(
                        opts.seed,
                        (round * clients as u64 + c) * FRESH_PER_CLIENT,
                        opts.divisor,
                    );
                    scope.spawn(move || {
                        plan.into_iter()
                            .map(|(body, config, repeats)| {
                                let start = Instant::now();
                                let response = simulate(addr, &body);
                                Sample {
                                    body,
                                    config,
                                    repeats,
                                    start,
                                    end: Instant::now(),
                                    response,
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let end = Instant::now();
        let requests = done.iter().map(Vec::len).sum::<usize>();
        round_macc_s.push(requests as f64 * accesses as f64 / (end - t).as_secs_f64() / 1e6);
        let miss_ms: Vec<f64> =
            done.iter().flatten().filter(|s| s.repeats.is_none()).map(Sample::ms).collect();
        round_miss_ms.push(miss_ms.iter().sum::<f64>() / miss_ms.len() as f64);
        for s in done.iter().flatten() {
            let id = spans.id();
            spans.push("serve.request", id, round_id, s.start, s.end);
        }
        spans.push("serve.round", round_id, 0, t, end);
        samples.extend(done);
    }
    let cpu = host::CpuSpan::between(c0, host::cpu()?);
    let after = server_counters(addr)?;
    server.shutdown();

    // Check every answer: a miss against the body this process renders
    // for the same request, a hit against the miss it repeats.
    let misses: Vec<&Sample> = samples.iter().flatten().filter(|s| s.repeats.is_none()).collect();
    let hits = samples.iter().flatten().count() - misses.len();
    let mut replica = ServeLayers::default();
    let expected: Vec<Result<String, String>> = if opts.traced {
        let store_dir = scratch.0.join("replica");
        let store =
            Store::open(&store_dir, 0).map_err(|e| format!("opening {store_dir:?}: {e}"))?;
        let bodies: Vec<&str> = misses.iter().map(|s| s.body.as_str()).collect();
        replica.run(&bodies, every, &store, report, spans)
    } else {
        reference_bodies(&misses, clients)
    };
    let mut miss_ms = vec![Vec::new(); CONFIGS.len()];
    let mut hit_ms = Vec::new();
    let mut expected = expected.into_iter();
    for client in &samples {
        for s in client {
            let answer = s.response.as_ref().map_err(|e| e.to_string());
            let (ok, what) = match (answer, s.repeats) {
                (Err(e), _) => (false, format!("request failed: {e}")),
                (Ok(r), None) => {
                    miss_ms[s.config].push(s.ms());
                    match expected.next().expect("one expected body per miss") {
                        Ok(want) => (
                            r.status == 200
                                && r.header("x-cache") == Some("miss")
                                && r.body == want,
                            format!(
                                "miss answered {} {:?}, body equal: {}",
                                r.status,
                                r.header("x-cache"),
                                r.body == want
                            ),
                        ),
                        Err(e) => (false, format!("reference run: {e}")),
                    }
                }
                (Ok(r), Some(j)) => {
                    hit_ms.push(s.ms());
                    let first = client[j].response.as_ref().map(|m| m.body.as_str()).ok();
                    (
                        r.status == 200
                            && r.header("x-cache") == Some("hit")
                            && Some(r.body.as_str()) == first,
                        format!(
                            "resend answered {} {:?}, equal to its miss: {}",
                            r.status,
                            r.header("x-cache"),
                            Some(r.body.as_str()) == first
                        ),
                    )
                }
            };
            report.check(ok, || format!("{what} for {}", s.body));
        }
    }

    let n_miss = misses.len() as f64;
    let captures = ((accesses - 1) / every) as f64;
    let reconciled = [
        ("sim_runs", n_miss),
        ("cache_misses", n_miss),
        ("cache_hits", hits as f64),
        ("coalesced", 0.0),
        ("snapshots_written", n_miss * captures),
    ];
    for (name, want) in reconciled {
        let got = delta(&before, &after, name);
        report.check(got == want, || format!("/metrics {name} moved by {got}, want {want}"));
    }

    let all_miss_ms: Vec<f64> = miss_ms.iter().flatten().copied().collect();
    for (i, ms) in miss_ms.iter().enumerate() {
        let (w, m) = CONFIGS[i];
        println!("{}", stats::summary(&format!("miss {w}/{m}"), "ms", ms));
    }
    println!("{}", stats::summary("miss", "ms", &all_miss_ms));
    println!("{}", stats::summary("hit", "ms", &hit_ms));
    println!("{}", stats::summary("round throughput", "Macc/s", &round_macc_s));
    println!("{}", stats::summary("round mean miss", "ms", &round_miss_ms));
    let requests = samples.iter().map(Vec::len).sum::<usize>() as f64;
    println!(
        "requests {requests} ({n_miss} misses, {hits} hits), {:.1} req/s",
        requests / cpu.wall_s
    );

    let miss_p50 = stats::median(&all_miss_ms);
    report.set("throughput_macc_s", stats::median(&round_macc_s));
    report.set("latency_ms", stats::median(&round_miss_ms));
    report.set("setup_s", stats::median(&setup_s));
    report.set("peak_rss_mib", host::peak_rss_mib()?);

    if opts.traced {
        for (name, v) in replica.metrics(&misses) {
            report.set(name, v);
        }
        report.set(
            "serve.hit_rate",
            delta(&before, &after, "cache_hits") / delta(&before, &after, "accepted"),
        );
        report.set("serve.sim_runs", delta(&before, &after, "sim_runs"));
        report.set("serve.snapshots_written", delta(&before, &after, "snapshots_written"));
        report.set("serve.coalesced", delta(&before, &after, "coalesced"));
        report.set("serve.hit_over_miss_p50", stats::median(&hit_ms) / miss_p50);
        report.set("serve.miss_p95_over_p50", stats::quantile(&all_miss_ms, 0.95) / miss_p50);
        for (name, v) in cpu.metrics(n_miss * accesses as f64 / 1e6) {
            report.set(name, v);
        }
    }
    Ok(())
}

/// `render_run(canonical, run(cfg))` for every miss, computed on
/// `threads` threads after the load has finished.
fn reference_bodies(misses: &[&Sample], threads: usize) -> Vec<Result<String, String>> {
    let reference = |body: &str| {
        let sim = parse_body(body, &Limits::default())?;
        Ok(render_run(&sim.canonical, &driver::run(&sim.cfg)))
    };
    let chunk = misses.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = misses
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || part.iter().map(|s| reference(&s.body)).collect::<Vec<_>>())
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("reference thread panicked")).collect()
    })
}

/// Host time of the server's miss path, replayed in this process: parse,
/// simulate (with checkpoints into a store of its own), render, store
/// write — plus the traced driver loop over the same configuration.
#[derive(Default)]
struct ServeLayers {
    parse_s: Vec<f64>,
    simulate_s: Vec<f64>,
    checkpoint_s: Vec<f64>,
    render_s: Vec<f64>,
    put_s: Vec<f64>,
    layers: Layers,
    counters: Counters,
    traced_s: Vec<f64>,
}

impl ServeLayers {
    fn run(
        &mut self,
        bodies: &[&str],
        every: u64,
        store: &Store,
        report: &mut Report,
        spans: &mut Spans,
    ) -> Vec<Result<String, String>> {
        let metrics = ServerMetrics::default();
        bodies
            .iter()
            .map(|body| {
                let id = spans.id();
                let t0 = Instant::now();
                let sim = parse_body(body, &Limits::default())?;
                let t1 = Instant::now();
                let mut checkpoint = Duration::ZERO;
                let mut sink = |_submitted: u64, bytes: Vec<u8>| {
                    let t = Instant::now();
                    store.write_checkpoint(sim.key, &sim.canonical, &bytes, &metrics);
                    checkpoint += t.elapsed();
                };
                let ctl = SnapshotCtl { resume_from: None, every, sink: Some(&mut sink) };
                let result = driver::run_resumable(&sim.cfg, ctl)?;
                let t2 = Instant::now();
                let rendered = render_run(&sim.canonical, &result);
                let t3 = Instant::now();
                store.put(sim.key, &rendered, &metrics);
                let t4 = Instant::now();
                for (name, a, b) in [
                    ("serve.parse", t0, t1),
                    ("serve.simulate", t1, t2),
                    ("serve.render", t2, t3),
                    ("serve.store_put", t3, t4),
                ] {
                    let child = spans.id();
                    spans.push(name, child, id, a, b);
                }
                spans.push("serve.replica", id, 0, t0, t4);
                self.parse_s.push((t1 - t0).as_secs_f64());
                self.simulate_s.push((t2 - t1 - checkpoint).as_secs_f64());
                self.checkpoint_s.push(checkpoint.as_secs_f64());
                self.render_s.push((t3 - t2).as_secs_f64());
                self.put_s.push((t4 - t3).as_secs_f64());

                let t = Instant::now();
                let traced = self.layers.run(&sim.cfg, spans, id);
                self.traced_s.push(t.elapsed().as_secs_f64());
                let (got, want) = (digest(&traced), digest(&result));
                report.check(got == want, || {
                    format!("traced replica digest {got:016x}, run_resumable digest {want:016x}")
                });
                self.counters.absorb(&result);
                Ok(rendered)
            })
            .collect()
    }

    /// Each stage's share of the misses' client latency; `wait` is what
    /// the in-process stages leave unexplained (HTTP, admission, queue
    /// wait, contention).
    fn metrics(&self, misses: &[&Sample]) -> Vec<(&'static str, f64)> {
        let latency_s: f64 = misses.iter().map(|s| (s.end - s.start).as_secs_f64()).sum();
        let share = |v: &[f64]| v.iter().sum::<f64>() / latency_s;
        let stages = [
            ("serve.parse_share", share(&self.parse_s)),
            ("serve.simulate_share", share(&self.simulate_s)),
            ("serve.checkpoint_share", share(&self.checkpoint_s)),
            ("serve.render_share", share(&self.render_s)),
            ("serve.store_put_share", share(&self.put_s)),
        ];
        let wait = 1.0 - stages.iter().map(|(_, v)| v).sum::<f64>();
        let simulate: Vec<f64> =
            self.simulate_s.iter().zip(&self.checkpoint_s).map(|(s, c)| s + c).collect();
        let mut out = stages.to_vec();
        out.push(("serve.wait_share", wait));
        out.push((
            "trace.overhead_frac",
            stats::median(&self.traced_s) / stats::median(&simulate) - 1.0,
        ));
        out.extend(self.layers.metrics());
        out.extend(self.counters.metrics());
        out
    }
}
