//! The serving core: accept loop, request dispatch, worker pool, and
//! graceful drain.
//!
//! Threading model: `conn_threads` handler threads share one *blocking*
//! listener — each accepts a connection, serves exactly one request on
//! it (the framing layer closes after every response), and goes back to
//! accepting. Blocking accepts mean a request is picked up the moment it
//! arrives (no poll interval on the request path); drain wakes the
//! parked acceptors with short-lived loopback connections. `workers`
//! worker threads block on the bounded job queue and run simulations.
//! Synchronous requests park their handler thread on [`Job::wait_done`];
//! asynchronous ones return a job id immediately.
//!
//! Admission is a single decision under one lock (`AdmitState` holds
//! the result cache *and* the in-flight map together): cache hit → serve
//! the stored body; identical request already in flight → join it
//! (single-flight, no duplicate simulation); otherwise enqueue a new
//! job or refuse with `429`/`503`. Workers publish under the same lock —
//! insert into the cache and leave the in-flight map atomically — so an
//! identical request admitted at any moment either sees the cache entry
//! or joins the running job; it can never start a duplicate run.
//!
//! Both maps are indexed by the 64-bit cache key, but a request's
//! identity is its canonical text: two configurations can share a key,
//! so every reuse found by key — cached or stored body, in-flight job,
//! checkpoint — is taken only if its canonical text matches, and is
//! otherwise treated as absent.
//!
//! Graceful drain ([`Server::shutdown`], triggered by SIGTERM/ctrl-c in
//! the binary or `POST /admin/shutdown`): stop accepting connections,
//! stop admitting jobs (`503`), let the workers finish every queued job,
//! join all threads, exit. Every request the server said yes to gets its
//! answer.

use crate::cache::LruCache;
use crate::http::{
    finish_chunked, read_request_with, write_chunk, write_chunked_head, write_response, ReadError,
    Request, Response,
};
use crate::jobs::{Job, JobRegistry, JobState};
use crate::metrics::{GaugeSample, ServerMetrics};
use crate::queue::{Discipline, JobQueue, PushError};
use crate::request::{parse_body, Limits, SimRequest};
use crate::response::{error_body, job_status, render_run, renders_config, trace_summary_json};
use crate::store::Store;
use crate::sweeps::{self, SweepRegistry};
use crate::traces::TraceRegistry;
use hmm_sim_base::FxHashMap;
use hmm_simulator::driver::{run_resumable_with_sink, run_with_sink, RunResult, SnapshotCtl};
use hmm_telemetry::{EpochFrameSink, Frame, JsonObject};
use hmm_workloads::replay;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Everything tunable about one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Simulation worker threads.
    pub workers: usize,
    /// Connection handler threads (each serves one request at a time).
    pub conn_threads: usize,
    /// Bounded job-queue depth; beyond it requests get `429`.
    pub queue_depth: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_entries: usize,
    /// Admission limits applied while parsing request bodies.
    pub limits: Limits,
    /// Largest accepted request body on the JSON routes.
    pub max_body_bytes: usize,
    /// Largest accepted trace upload (`POST /v1/traces` only; binary
    /// traces are legitimately much bigger than any JSON body).
    pub max_trace_bytes: usize,
    /// Socket read/write deadline — a slow client cannot hold a handler
    /// longer than this per direction.
    pub io_timeout: Duration,
    /// Default (and maximum) synchronous wait for `POST /v1/simulate`.
    pub sync_timeout: Duration,
    /// Finished jobs kept queryable by id.
    pub job_retention: usize,
    /// Order queued jobs shortest-first (by requested `accesses`)
    /// instead of FIFO, so a sweep's small cells are not starved behind
    /// its big ones.
    pub sjf: bool,
    /// Peer `host:port` addresses for coordinator mode. When non-empty,
    /// sweep cells are sharded across these peers by consistent hashing
    /// instead of running on the local worker pool.
    pub peers: Vec<String>,
    /// Largest grid `POST /v1/sweeps` will expand.
    pub max_sweep_cells: usize,
    /// Root of the durable result store (`--store-dir`); `None` serves
    /// memory-only.
    pub store_dir: Option<PathBuf>,
    /// Byte budget for stored result bodies (`--store-max-bytes`);
    /// 0 = unbounded.
    pub store_max_bytes: u64,
    /// Checkpoint running jobs every this many submitted accesses
    /// (`--snapshot-every`); 0 disables checkpointing.
    pub snapshot_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            conn_threads: 16,
            queue_depth: 32,
            cache_entries: 256,
            limits: Limits::default(),
            max_body_bytes: 64 << 10,
            max_trace_bytes: 8 << 20,
            io_timeout: Duration::from_secs(10),
            sync_timeout: Duration::from_secs(30),
            job_retention: 1024,
            sjf: false,
            peers: Vec::new(),
            max_sweep_cells: 1024,
            store_dir: None,
            store_max_bytes: 0,
            snapshot_every: 0,
        }
    }
}

/// The result cache and the single-flight map, guarded together so
/// admission and publication are atomic with respect to each other.
#[derive(Debug)]
struct AdmitState {
    cache: LruCache,
    inflight: FxHashMap<u64, Arc<Job>>,
}

#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    queue: JobQueue<Arc<Job>>,
    registry: JobRegistry,
    admit: Mutex<AdmitState>,
    pub(crate) metrics: ServerMetrics,
    pub(crate) draining: AtomicBool,
    /// Bound address, used by the drain waker to unblock parked accepts.
    local_addr: SocketAddr,
    /// Acceptor threads still in their accept loop; the drain waker keeps
    /// poking the listener until this reaches zero.
    live_acceptors: AtomicUsize,
    next_job_id: AtomicU64,
    /// Durable mirror of the result cache plus the checkpoint shelf;
    /// `None` when `--store-dir` was not given.
    store: Option<Store>,
    /// The uploaded-trace registry (durable under `store_dir/traces`
    /// when a store is configured, memory-only otherwise).
    pub(crate) traces: TraceRegistry,
    pub(crate) sweeps: SweepRegistry,
    /// Sweep runner threads, joined on shutdown.
    pub(crate) runners: Mutex<Vec<JoinHandle<()>>>,
}

/// How an admission attempt resolved.
pub(crate) enum Admitted {
    /// Cache hit; here is the body.
    Cached(Arc<String>),
    /// Joined or started a job; wait on it.
    Pending(Arc<Job>),
    /// Refused; answer with this status and message.
    Refused(u16, String),
}

impl Shared {
    /// The single admission decision for the simulate endpoints and the
    /// sweep runner.
    pub(crate) fn admit(&self, req: &SimRequest) -> Admitted {
        let mut admit = self.admit.lock().unwrap();
        let for_req = |body: &Arc<String>| renders_config(body, &req.canonical);
        if let Some(body) = admit.cache.get(req.key).filter(for_req) {
            self.metrics.inc(&self.metrics.accepted);
            self.metrics.inc(&self.metrics.cache_hits);
            return Admitted::Cached(body);
        }
        // Memory miss: a result evicted from the in-memory cache may
        // still be on disk. The read happens under the admission lock so
        // the promotion back into the cache stays atomic with the
        // single-flight check; store reads are small and local.
        if let Some(store) = &self.store {
            if let Some(body) = store.get(req.key, &self.metrics).map(Arc::new).filter(for_req) {
                admit.cache.insert(req.key, Arc::clone(&body));
                self.metrics.inc(&self.metrics.accepted);
                self.metrics.inc(&self.metrics.cache_hits);
                return Admitted::Cached(body);
            }
        }
        if let Some(job) = admit.inflight.get(&req.key).filter(|j| j.canonical == req.canonical) {
            self.metrics.inc(&self.metrics.accepted);
            self.metrics.inc(&self.metrics.cache_misses);
            self.metrics.inc(&self.metrics.coalesced);
            return Admitted::Pending(Arc::clone(job));
        }
        let id = self.next_job_id.fetch_add(1, Ordering::Relaxed);
        let job = Job::new(id, req.key, req.canonical.clone(), req.cfg);
        match self.queue.try_push_cost(Arc::clone(&job), req.cfg.accesses) {
            Ok(()) => {
                admit.inflight.insert(req.key, Arc::clone(&job));
                self.registry.insert(Arc::clone(&job));
                self.metrics.inc(&self.metrics.accepted);
                self.metrics.inc(&self.metrics.cache_misses);
                Admitted::Pending(job)
            }
            Err(PushError::Full) => {
                self.metrics.inc(&self.metrics.rejected_busy);
                Admitted::Refused(
                    429,
                    format!("queue full ({} jobs); retry later", self.queue.capacity()),
                )
            }
            Err(PushError::ShuttingDown) => {
                self.metrics.inc(&self.metrics.rejected_draining);
                Admitted::Refused(503, "server is draining".into())
            }
        }
    }

    /// Remove `job` from the single-flight map if it still owns its key.
    fn leave_inflight(&self, job: &Job) {
        let mut admit = self.admit.lock().unwrap();
        if admit.inflight.get(&job.key).is_some_and(|j| j.id == job.id) {
            admit.inflight.remove(&job.key);
        }
    }

    /// Begin a drain: refuse new admissions, shut the queue down, and wake
    /// every acceptor parked in a blocking `accept` with short-lived
    /// loopback connections (an accepted wake connection reads as EOF and
    /// the acceptor re-checks the draining flag). The waker is bounded: it
    /// stops once every acceptor has exited or after a hard deadline.
    fn start_drain(self: &Arc<Self>) {
        let already = self.draining.swap(true, Ordering::SeqCst);
        self.queue.shutdown();
        if already {
            return;
        }
        let shared = Arc::clone(self);
        let _ = thread::Builder::new().name("hmm-serve-drain-waker".into()).spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(10);
            while shared.live_acceptors.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
                // Each wake connection unparks at most one acceptor; keep
                // poking until the last one has observed the flag.
                let _ = TcpStream::connect_timeout(&shared.local_addr, Duration::from_millis(100));
                thread::sleep(Duration::from_millis(1));
            }
        });
    }

    fn metrics_doc(&self) -> String {
        let (cache_len, cache_evictions) = {
            let admit = self.admit.lock().unwrap();
            (admit.cache.len(), admit.cache.evictions())
        };
        self.metrics.to_json(&GaugeSample {
            workers: self.cfg.workers,
            queue_capacity: self.queue.capacity(),
            queue_len: self.queue.len(),
            cache_capacity: self.cfg.cache_entries,
            cache_len,
            cache_evictions,
            draining: self.draining.load(Ordering::SeqCst),
            store_configured: self.store.is_some(),
            store_entries: self.store.as_ref().map_or(0, Store::entries),
            store_bytes: self.store.as_ref().map_or(0, Store::bytes),
            traces_stored: self.traces.len(),
            _marker: std::marker::PhantomData,
        })
    }
}

/// A running server; dropping it without [`Server::shutdown`] aborts the
/// threads with the process (tests should always call `shutdown`).
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and handler threads, and start
    /// serving.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let discipline = if cfg.sjf { Discipline::Sjf } else { Discipline::Fifo };
        // A store that cannot even be opened is a configuration error
        // (bad path, permissions) and fails startup; I/O trouble *after*
        // this point only degrades to memory-only serving.
        let store = match &cfg.store_dir {
            Some(dir) => Some(Store::open(dir, cfg.store_max_bytes)?),
            None => None,
        };
        let metrics = ServerMetrics::default();
        // The trace registry rehydrates *before* checkpoint re-admission
        // below: a checkpointed trace-replay job can only re-parse once
        // its trace is back in the replay registry.
        let traces = match &cfg.store_dir {
            Some(dir) => {
                let (traces, restored) = TraceRegistry::open(&dir.join("traces"), &metrics)?;
                if restored > 0 {
                    eprintln!("hmm-serve: trace registry restored {restored} traces");
                }
                traces
            }
            None => TraceRegistry::memory(),
        };
        let shared = Arc::new(Shared {
            queue: JobQueue::with_discipline(cfg.queue_depth, discipline),
            registry: JobRegistry::new(cfg.job_retention),
            admit: Mutex::new(AdmitState {
                cache: LruCache::new(cfg.cache_entries),
                inflight: FxHashMap::default(),
            }),
            metrics,
            draining: AtomicBool::new(false),
            local_addr: addr,
            live_acceptors: AtomicUsize::new(cfg.conn_threads.max(1)),
            next_job_id: AtomicU64::new(1),
            store,
            traces,
            sweeps: SweepRegistry::new(),
            runners: Mutex::new(Vec::new()),
            cfg,
        });

        // Warm up from disk before any thread serves: finished results
        // go back into the cache, and every resumable checkpoint is
        // re-admitted so the (not yet started) workers pick the jobs up
        // from where the previous process was killed.
        if let Some(store) = &shared.store {
            let restored = {
                let mut admit = shared.admit.lock().unwrap();
                store.rehydrate(&mut admit.cache, &shared.metrics)
            };
            let mut readmitted = 0usize;
            for key in store.checkpoint_keys() {
                let Some((canonical, _)) = store.read_checkpoint(key, &shared.metrics) else {
                    continue;
                };
                let cached = shared.admit.lock().unwrap().cache.get(key);
                if cached.is_some_and(|body| renders_config(&body, &canonical)) {
                    // The result made it to disk before the crash; the
                    // checkpoint is moot.
                    store.remove_checkpoint(key);
                    continue;
                }
                match parse_body(&canonical, &shared.cfg.limits) {
                    Ok(sim) if sim.key == key => {
                        if matches!(shared.admit(&sim), Admitted::Pending(_)) {
                            readmitted += 1;
                        }
                        // A refused re-admission (full queue) leaves the
                        // checkpoint on the shelf for the next restart.
                    }
                    // The embedded config no longer parses or hashes to
                    // its key: not resumable by this build.
                    _ => store.remove_checkpoint(key),
                }
            }
            if restored > 0 || readmitted > 0 {
                eprintln!(
                    "hmm-serve: store restored {restored} cached results, \
                     re-admitted {readmitted} checkpointed jobs"
                );
            }
        }

        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("hmm-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let acceptors = (0..shared.cfg.conn_threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let listener = listener.try_clone().expect("clone listener");
                thread::Builder::new()
                    .name(format!("hmm-serve-conn-{i}"))
                    .spawn(move || accept_loop(&shared, &listener))
                    .expect("spawn handler thread")
            })
            .collect();

        Ok(Server { shared, addr, acceptors, workers })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a drain has been requested (by [`Server::shutdown`] or
    /// `POST /admin/shutdown`).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Current `/metrics` document, for out-of-band inspection.
    pub fn metrics_doc(&self) -> String {
        self.shared.metrics_doc()
    }

    /// Graceful drain: stop accepting, finish every queued job, join all
    /// threads. Returns the final metrics document.
    pub fn shutdown(self) -> String {
        self.shared.start_drain();
        for w in self.workers {
            let _ = w.join();
        }
        for a in self.acceptors {
            let _ = a.join();
        }
        // Sweep runners observe the drain (admission refuses, the
        // draining flag stops peer dispatch) and conclude every cell, so
        // these joins terminate.
        let runners = std::mem::take(&mut *self.shared.runners.lock().unwrap());
        for r in runners {
            let _ = r.join();
        }
        self.shared.metrics_doc()
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // A drain waker's connection closes without sending a
                // request; `read_request` sees EOF and the handler
                // returns, after which the loop re-checks the flag.
                shared.metrics.inc(&shared.metrics.conns_accepted);
                handle_connection(shared, stream);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // Accept errors (EMFILE, aborted handshakes) are transient;
            // back off briefly instead of killing the handler thread.
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
    shared.live_acceptors.fetch_sub(1, Ordering::SeqCst);
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
    // The body limit is per route: trace uploads are binary and big, so
    // only `POST /v1/traces` gets the raised budget; everything else
    // keeps the tight JSON limit (and its `413`).
    let req = match read_request_with(&mut stream, |head| {
        if head.method == "POST" && head.path == "/v1/traces" {
            shared.cfg.max_trace_bytes
        } else {
            shared.cfg.max_body_bytes
        }
    }) {
        Ok(req) => req,
        Err(ReadError::Eof) | Err(ReadError::Io(_)) => return,
        Err(ReadError::Bad(status, msg)) => {
            shared.metrics.inc(&shared.metrics.bad_requests);
            let _ = write_response(&mut stream, &Response::json(status, error_body(&msg)));
            // Lingering close: a 413 answers before the client finished
            // sending its body. Closing with unread bytes in the receive
            // buffer sends RST, which destroys the response in flight —
            // drain briefly so a plain blocking client actually sees it.
            if status == 413 {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                let mut scratch = [0u8; 16 * 1024];
                for _ in 0..4096 {
                    match stream.read(&mut scratch) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                }
            }
            return;
        }
    };
    shared.metrics.inc(&shared.metrics.requests);
    // The event stream takes the socket over (chunked transfer until
    // the job completes); every other route answers one framed body.
    if req.method == "GET" && req.path.starts_with("/v1/jobs/") && req.path.ends_with("/events") {
        stream_events(shared, &mut stream, &req.path);
        return;
    }
    let response = dispatch(shared, &req);
    let _ = write_response(&mut stream, &response);
}

/// Parse the body of a JSON route, or answer 400 on non-UTF-8 bytes.
macro_rules! utf8_body {
    ($shared:expr, $req:expr) => {
        match $req.body_str() {
            Ok(s) => s,
            Err(msg) => return bad($shared, 400, &msg),
        }
    };
}

fn dispatch(shared: &Arc<Shared>, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::json(
            200,
            JsonObject::new()
                .bool("ok", true)
                .bool("draining", shared.draining.load(Ordering::SeqCst))
                .finish(),
        ),
        ("GET", "/metrics") => Response::json(200, shared.metrics_doc()),
        ("POST", "/v1/simulate") => simulate_sync(shared, req),
        ("POST", "/v1/jobs") => submit_job(shared, req),
        ("GET", path) if path.starts_with("/v1/jobs/") => job_get(shared, path),
        ("DELETE", path) if path.starts_with("/v1/jobs/") => job_cancel(shared, path),
        ("POST", "/v1/sweeps") => sweeps::submit(shared, utf8_body!(shared, req)),
        ("GET", path) if path.starts_with("/v1/sweeps/") => sweeps::get(shared, path),
        ("POST", "/v1/traces") => trace_upload(shared, req),
        ("GET", "/v1/traces") => trace_list(shared),
        ("GET", path) if path.starts_with("/v1/traces/") => trace_get(shared, path),
        ("DELETE", path) if path.starts_with("/v1/traces/") => trace_delete(shared, path),
        ("POST", "/admin/shutdown") => {
            shared.start_drain();
            Response::json(200, JsonObject::new().bool("draining", true).finish())
        }
        (
            _,
            "/healthz" | "/metrics" | "/v1/simulate" | "/v1/jobs" | "/v1/sweeps" | "/v1/traces"
            | "/admin/shutdown",
        ) => bad(shared, 405, &format!("method {} not allowed here", req.method)),
        _ => bad(shared, 404, &format!("no such endpoint '{}'", req.path)),
    }
}

/// `POST /v1/traces`: validate the raw HMT1 body, register it, answer
/// its summary. Content-addressing makes the route idempotent.
fn trace_upload(shared: &Shared, req: &Request) -> Response {
    if req.body.is_empty() {
        return bad(shared, 400, "trace upload body is empty");
    }
    match shared.traces.put(&req.body, &shared.metrics) {
        Ok(summary) => {
            shared.metrics.inc(&shared.metrics.traces_uploaded);
            Response::json(200, trace_summary_json(&summary))
        }
        Err(msg) => bad(shared, 400, &format!("invalid trace: {msg}")),
    }
}

fn trace_list(shared: &Shared) -> Response {
    let mut arr = hmm_telemetry::JsonArray::new();
    for s in shared.traces.list() {
        arr = arr.raw(&trace_summary_json(&s));
    }
    Response::json(200, JsonObject::new().raw("traces", &arr.finish()).finish())
}

fn trace_id_from(shared: &Shared, path: &str) -> Result<u64, Response> {
    let id = path.strip_prefix("/v1/traces/").unwrap_or_default();
    replay::parse_trace_id(id)
        .ok_or_else(|| bad(shared, 404, &format!("malformed trace id '{id}' (want 16 hex digits)")))
}

fn trace_get(shared: &Shared, path: &str) -> Response {
    let hash = match trace_id_from(shared, path) {
        Ok(hash) => hash,
        Err(resp) => return resp,
    };
    match shared.traces.get(hash) {
        Some(s) => Response::json(200, trace_summary_json(&s)),
        None => bad(shared, 404, &format!("unknown trace '{hash:016x}'")),
    }
}

fn trace_delete(shared: &Shared, path: &str) -> Response {
    let hash = match trace_id_from(shared, path) {
        Ok(hash) => hash,
        Err(resp) => return resp,
    };
    if shared.traces.delete(hash, &shared.metrics) {
        Response::json(
            200,
            JsonObject::new().str("id", &format!("{hash:016x}")).bool("deleted", true).finish(),
        )
    } else {
        bad(shared, 404, &format!("unknown trace '{hash:016x}'"))
    }
}

fn job_events_id(path: &str) -> Option<u64> {
    path.strip_prefix("/v1/jobs/")?.strip_suffix("/events")?.parse().ok()
}

/// `GET /v1/jobs/<id>/events`: stream the job's epoch frames as chunked
/// JSONL until the job completes. Each subscriber holds its own cursor;
/// one that lags past the hub's retention gets an explicit
/// `{"dropped":N}` frame. The terminating zero chunk is written exactly
/// when the job turns terminal.
fn stream_events(shared: &Arc<Shared>, stream: &mut TcpStream, path: &str) {
    let Some(id) = job_events_id(path) else {
        let resp = bad(shared, 404, &format!("malformed job id in '{path}'"));
        let _ = write_response(stream, &resp);
        return;
    };
    let Some(job) = shared.registry.get(id) else {
        let resp = bad(shared, 404, &format!("no such job {id} (expired or never existed)"));
        let _ = write_response(stream, &resp);
        return;
    };
    shared.metrics.inc(&shared.metrics.event_subscribers);
    if write_chunked_head(stream, 200).is_err() {
        return;
    }
    // Nothing more is expected *from* the client; a short read timeout
    // turns the liveness probe below into a non-blocking peek.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(1)));
    let mut cursor = 0u64;
    loop {
        match job.hub.next(&mut cursor, Duration::from_millis(250)) {
            Frame::Data(line) => {
                let mut msg = line.into_bytes();
                msg.push(b'\n');
                if write_chunk(stream, &msg).is_err() {
                    return;
                }
            }
            Frame::Dropped(n) => {
                shared.metrics.event_frames_dropped.fetch_add(n, Ordering::Relaxed);
                let mut msg = JsonObject::new().u64("dropped", n).finish().into_bytes();
                msg.push(b'\n');
                if write_chunk(stream, &msg).is_err() {
                    return;
                }
            }
            Frame::Eof => {
                let _ = finish_chunked(stream);
                return;
            }
            Frame::Pending => {
                // A disconnected subscriber must not park this handler
                // for the job's whole runtime: a closed peer peeks as
                // `Ok(0)`, a live quiet one as a timeout.
                let mut probe = [0u8; 1];
                match stream.peek(&mut probe) {
                    Ok(0) => return,
                    Ok(_) => {}
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(_) => return,
                }
            }
        }
    }
}

fn bad(shared: &Shared, status: u16, msg: &str) -> Response {
    shared.metrics.inc(&shared.metrics.bad_requests);
    Response::json(status, error_body(msg))
}

/// `POST /v1/simulate`: admit, wait for the result, answer in-line.
fn simulate_sync(shared: &Shared, req: &Request) -> Response {
    let sim = match parse_body(utf8_body!(shared, req), &shared.cfg.limits) {
        Ok(sim) => sim,
        Err(msg) => return bad(shared, 400, &msg),
    };
    let started = Instant::now();
    match shared.admit(&sim) {
        Admitted::Cached(body) => {
            shared.metrics.record_latency(started.elapsed());
            Response::json(200, body.as_ref().clone()).with_header("x-cache", "hit".into())
        }
        Admitted::Refused(status, msg) => Response::json(status, error_body(&msg)),
        Admitted::Pending(job) => {
            let wait = sim
                .timeout_ms
                .map(Duration::from_millis)
                .unwrap_or(shared.cfg.sync_timeout)
                .min(shared.cfg.sync_timeout);
            match job.wait_done(wait) {
                Some(JobState::Done(body)) => {
                    shared.metrics.record_latency(started.elapsed());
                    Response::json(200, body.as_ref().clone())
                        .with_header("x-cache", "miss".into())
                        .with_header("x-job-id", job.id.to_string())
                }
                Some(JobState::Failed(msg)) => Response::json(500, error_body(&msg)),
                Some(_) => {
                    Response::json(409, error_body(&format!("job {} was cancelled", job.id)))
                }
                None => {
                    shared.metrics.inc(&shared.metrics.sync_timeouts);
                    Response::json(
                        504,
                        JsonObject::new()
                            .str("error", "deadline exceeded; poll the job instead")
                            .u64("id", job.id)
                            .finish(),
                    )
                }
            }
        }
    }
}

/// `POST /v1/jobs`: admit and answer `202` with the job id immediately.
/// A cache hit manufactures an already-done job so the client's polling
/// flow is uniform.
fn submit_job(shared: &Shared, req: &Request) -> Response {
    let sim = match parse_body(utf8_body!(shared, req), &shared.cfg.limits) {
        Ok(sim) => sim,
        Err(msg) => return bad(shared, 400, &msg),
    };
    match shared.admit(&sim) {
        Admitted::Cached(body) => {
            let id = shared.next_job_id.fetch_add(1, Ordering::Relaxed);
            let job = Job::new(id, sim.key, sim.canonical, sim.cfg);
            job.claim();
            job.complete(body);
            shared.registry.insert(Arc::clone(&job));
            shared.registry.retire(id);
            Response::json(202, JsonObject::new().u64("id", id).str("status", "done").finish())
                .with_header("x-cache", "hit".into())
        }
        Admitted::Pending(job) => Response::json(
            202,
            JsonObject::new().u64("id", job.id).str("status", job.state().label()).finish(),
        )
        .with_header("x-cache", "miss".into()),
        Admitted::Refused(status, msg) => Response::json(status, error_body(&msg)),
    }
}

fn job_id_from(path: &str) -> Option<u64> {
    path.strip_prefix("/v1/jobs/")?.parse().ok()
}

fn job_get(shared: &Shared, path: &str) -> Response {
    let Some(id) = job_id_from(path) else {
        return bad(shared, 404, &format!("malformed job id in '{path}'"));
    };
    match shared.registry.get(id) {
        Some(job) => Response::json(200, job_status(id, &job.state())),
        None => bad(shared, 404, &format!("no such job {id} (expired or never existed)")),
    }
}

fn job_cancel(shared: &Shared, path: &str) -> Response {
    let Some(id) = job_id_from(path) else {
        return bad(shared, 404, &format!("malformed job id in '{path}'"));
    };
    let Some(job) = shared.registry.get(id) else {
        return bad(shared, 404, &format!("no such job {id} (expired or never existed)"));
    };
    if job.cancel() {
        // The worker that eventually pops this job sees the cancelled
        // state and skips it; clean up the admission side now so an
        // identical request starts fresh instead of joining a corpse.
        shared.leave_inflight(&job);
        shared.registry.retire(id);
        shared.metrics.inc(&shared.metrics.cancelled);
        Response::json(200, job_status(id, &JobState::Cancelled))
    } else {
        Response::json(
            409,
            error_body(&format!("job {id} is {} and cannot be cancelled", job.state().label())),
        )
    }
}

/// One worker thread: pop, claim, simulate, publish, until the queue is
/// shut down and drained.
fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        if !job.claim() {
            // Cancelled while queued; the cancel path already retired it.
            continue;
        }
        shared.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(shared, &job)));
        match outcome {
            Ok(result) => {
                shared.metrics.inc(&shared.metrics.sim_runs);
                if job.cfg.trace.is_some() {
                    shared.metrics.inc(&shared.metrics.trace_sim_runs);
                }
                shared.metrics.record_run(&result);
                let body = Arc::new(render_run(&job.canonical, &result));
                if let Some(store) = &shared.store {
                    // Write-through before publication: a crash after
                    // this line still answers this request from disk on
                    // restart. (A crash before it re-runs the job from
                    // its last checkpoint — both end bit-identical.)
                    store.put(job.key, body.as_str(), &shared.metrics);
                    store.remove_checkpoint(job.key);
                }
                {
                    // Publish atomically: once the key leaves the
                    // in-flight map, the cache already has the body.
                    let mut admit = shared.admit.lock().unwrap();
                    admit.cache.insert(job.key, Arc::clone(&body));
                    if admit.inflight.get(&job.key).is_some_and(|j| j.id == job.id) {
                        admit.inflight.remove(&job.key);
                    }
                }
                job.complete(body);
            }
            Err(_) => {
                shared.metrics.inc(&shared.metrics.sim_failures);
                shared.leave_inflight(&job);
                job.fail("simulation panicked; see server log".into());
            }
        }
        shared.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        shared.registry.retire(job.id);
    }
}

/// Run one job, checkpointing and resuming through the durable store
/// when one is configured. `run_resumable` is proven bit-identical to
/// `run` (the `snapshot_resume` property tests), so which path a job
/// takes never changes its answer.
fn run_job(shared: &Shared, job: &Job) -> RunResult {
    // The frame sink is a pure observer feeding the job's event stream:
    // results, counters, and snapshot bytes are identical with or
    // without a subscriber, so cached and streamed runs agree.
    let frames = EpochFrameSink::new(Arc::clone(&job.hub));
    let every = shared.cfg.snapshot_every;
    let store = match &shared.store {
        Some(store) if every > 0 => store,
        _ => return run_with_sink(&job.cfg, frames),
    };
    // The checkpoint shelf is keyed like the cache: a checkpoint of a
    // configuration that shares this job's key is not this job's. Its
    // snapshot would pass `snapshot::open`, which checks only the key.
    let own = store
        .read_checkpoint(job.key, &shared.metrics)
        .filter(|(canonical, _)| *canonical == job.canonical);
    if let Some((_, snap)) = own {
        let mut sink = |_submitted: u64, bytes: Vec<u8>| {
            store.write_checkpoint(job.key, &job.canonical, &bytes, &shared.metrics);
        };
        match run_resumable_with_sink(
            &job.cfg,
            SnapshotCtl { resume_from: Some(&snap), every, sink: Some(&mut sink) },
            frames.clone(),
        ) {
            Ok(result) => {
                shared.metrics.inc(&shared.metrics.resumed_jobs);
                return result;
            }
            Err(e) => {
                // The snapshot container refused the resume (foreign
                // engine stamp, config mismatch, failed checksum).
                // Restarting from scratch gives the same final answer.
                eprintln!(
                    "hmm-serve: checkpoint for job {} not resumable ({e}); restarting fresh",
                    job.id
                );
                store.remove_checkpoint(job.key);
            }
        }
    }
    let mut sink = |_submitted: u64, bytes: Vec<u8>| {
        store.write_checkpoint(job.key, &job.canonical, &bytes, &shared.metrics);
    };
    run_resumable_with_sink(
        &job.cfg,
        SnapshotCtl { resume_from: None, every, sink: Some(&mut sink) },
        frames,
    )
    .expect("a fresh capture run has no resume input and cannot fail")
}
