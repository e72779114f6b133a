//! Sweep orchestration: `POST /v1/sweeps` grid fan-out over the local
//! worker pool or a peer cluster.
//!
//! A sweep submission expands its grid spec (via [`hmm_sweep::expand`]),
//! parses every cell through the same [`parse_body`] that guards
//! `POST /v1/simulate`, and deduplicates cells by canonical text — two
//! spellings of one configuration coalesce exactly as they would in the
//! result cache, and two configurations that merely share a cache key
//! stay two cells. A background runner thread then drives the cells to
//! completion:
//!
//! * **Local mode** (no peers configured): every cell goes through
//!   `Shared::admit` — cache hits conclude instantly, identical
//!   in-flight work coalesces, and a full queue is backpressure to wait
//!   out, not an error.
//! * **Coordinator mode** (`hmm-serve --peers a,b,c`): cells are sharded
//!   across peers by consistent hashing on the canonical hash
//!   ([`hmm_sweep::Ring`]), so a given cell always lands on the peer
//!   whose cache has seen it before. One dispatcher thread per peer
//!   POSTs each cell's *canonical config text* — itself a valid request
//!   body — to the peer's `/v1/simulate`; the peer re-derives the same
//!   key. An idle dispatcher steals from the longest remaining queue
//!   (stragglers), and a dead peer's cells are re-dispatched to the
//!   survivors with the same bounded-retry/backoff discipline
//!   `hmm-fault` applies to DRAM transfers, lifted to the cluster layer.
//!   Before a peer's first cell of a recorded trace, its dispatcher
//!   POSTs the trace's `HMT1` bytes to the peer's `/v1/traces`; traces
//!   are content-addressed, so the peer registers them under the same
//!   id and a repeated upload changes nothing.
//!
//! Accounting is exact and checkable ([`SweepCounts::check`]): every
//! assignment of a cell to an executor bumps `dispatched`, every
//! re-assignment (steal or peer death) bumps `retries` (steals also
//! `stolen`), so at quiescence `dispatched == done + failed + retries`,
//! alongside `expanded == unique + deduped`. Progress is monotone: a
//! cell's visible state only moves forward, and `GET /v1/sweeps/<id>`
//! derives its counts from a single scan over the cells.
//!
//! When every cell succeeds, the runner renders the
//! `hmm-sweep-figures-v1` document over the result bodies *in cell
//! order*. Because bodies are byte-deterministic and embedded verbatim,
//! the document is byte-identical whether the cells ran here, on peers,
//! or in-process via `hmm-bench sweep`.

use crate::client;
use crate::http::Response;
use crate::jobs::{Job, JobState};
use crate::request::{parse_body, SimRequest};
use crate::response::error_body;
use crate::server::{Admitted, Shared};
use hmm_sim_base::FxHashMap;
use hmm_sweep::aggregate::figures_doc;
use hmm_sweep::{expand, CellState, Ring, SweepCounts};
use hmm_telemetry::{JsonArray, JsonObject};
use hmm_workloads::replay;
use std::collections::{HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Re-dispatches allowed per cell before it is declared failed — the
/// cluster-layer mirror of `hmm-fault`'s transfer retry budget.
const CELL_MAX_RETRIES: u64 = 3;

/// Base backoff before a re-dispatch; doubles with each consumed retry.
const RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// Socket deadline for one peer RPC. Generous: a peer that answers
/// `504` keeps the simulation running, and the retry loop coalesces
/// onto it; a SIGKILLed peer surfaces as a fast transport error.
const PEER_TIMEOUT: Duration = Duration::from_secs(60);

/// Finished sweeps kept queryable; running sweeps are never evicted.
const SWEEP_RETENTION: usize = 64;

/// Where one cell currently lives.
#[derive(Debug)]
enum Slot {
    /// Not yet (or no longer) assigned to an executor.
    Pending,
    /// Admitted to the local pool; the job carries the live state.
    Local(Arc<Job>),
    /// An RPC to a peer is in flight.
    Remote,
    /// Concluded with a result body.
    Done(Arc<String>),
    /// Concluded in permanent failure.
    Failed(String),
}

#[derive(Debug)]
struct Cell {
    sim: SimRequest,
    slot: Mutex<Slot>,
    /// Retries consumed by failed dispatch attempts (not steals).
    attempts: AtomicU64,
}

impl Cell {
    fn state(&self) -> CellState {
        match &*self.slot.lock().unwrap() {
            Slot::Pending => CellState::Pending,
            Slot::Remote => CellState::Running,
            Slot::Local(job) => match job.state() {
                JobState::Done(_) => CellState::Done,
                JobState::Failed(_) | JobState::Cancelled => CellState::Failed,
                JobState::Queued | JobState::Running => CellState::Running,
            },
            Slot::Done(_) => CellState::Done,
            Slot::Failed(_) => CellState::Failed,
        }
    }
}

/// One tracked sweep.
#[derive(Debug)]
pub(crate) struct Sweep {
    id: u64,
    expanded: u64,
    deduped: u64,
    cells: Vec<Cell>,
    dispatched: AtomicU64,
    retries: AtomicU64,
    stolen: AtomicU64,
    finished: AtomicBool,
    figures: Mutex<Option<Arc<String>>>,
}

impl Sweep {
    /// Snapshot the counters. States come from one scan over the cells,
    /// so `unique == pending + running + done + failed` holds in every
    /// snapshot; the dispatch ledger balances once the sweep finishes.
    fn counts(&self) -> SweepCounts {
        let mut c = SweepCounts {
            expanded: self.expanded,
            deduped: self.deduped,
            unique: self.cells.len() as u64,
            dispatched: self.dispatched.load(Ordering::SeqCst),
            retries: self.retries.load(Ordering::SeqCst),
            stolen: self.stolen.load(Ordering::SeqCst),
            ..SweepCounts::default()
        };
        for cell in &self.cells {
            match cell.state() {
                CellState::Pending => c.pending += 1,
                CellState::Running => c.running += 1,
                CellState::Done => c.done += 1,
                CellState::Failed => c.failed += 1,
            }
        }
        c
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    sweeps: FxHashMap<u64, Arc<Sweep>>,
    /// Insertion order, for bounded retention.
    order: VecDeque<u64>,
}

/// The server's table of live and recently-finished sweeps.
#[derive(Debug, Default)]
pub(crate) struct SweepRegistry {
    inner: Mutex<RegistryInner>,
    next_id: AtomicU64,
}

impl SweepRegistry {
    pub(crate) fn new() -> Self {
        SweepRegistry { inner: Mutex::default(), next_id: AtomicU64::new(1) }
    }

    fn insert(&self, sweep: Arc<Sweep>) {
        let mut inner = self.inner.lock().unwrap();
        inner.order.push_back(sweep.id);
        inner.sweeps.insert(sweep.id, sweep);
        while inner.sweeps.len() > SWEEP_RETENTION {
            let retired = inner
                .order
                .iter()
                .position(|id| {
                    inner.sweeps.get(id).is_some_and(|s| s.finished.load(Ordering::SeqCst))
                })
                .and_then(|pos| inner.order.remove(pos));
            let Some(id) = retired else { break };
            inner.sweeps.remove(&id);
        }
    }

    fn get(&self, id: u64) -> Option<Arc<Sweep>> {
        self.inner.lock().unwrap().sweeps.get(&id).cloned()
    }
}

fn bad(shared: &Shared, status: u16, msg: &str) -> Response {
    shared.metrics.inc(&shared.metrics.bad_requests);
    Response::json(status, error_body(msg))
}

/// `POST /v1/sweeps`: expand, validate, dedup, start the runner, and
/// answer `202` with the sweep id and expansion accounting.
pub(crate) fn submit(shared: &Arc<Shared>, body: &str) -> Response {
    let bodies = match expand(body, shared.cfg.max_sweep_cells) {
        Ok(bodies) => bodies,
        Err(msg) => return bad(shared, 400, &format!("sweep spec: {msg}")),
    };
    let expanded = bodies.len() as u64;
    let mut cells: Vec<Cell> = Vec::new();
    let mut seen = HashSet::new();
    for (i, cell_body) in bodies.iter().enumerate() {
        let sim = match parse_body(cell_body, &shared.cfg.limits) {
            Ok(sim) => sim,
            Err(msg) => return bad(shared, 400, &format!("cell {i}: {msg}")),
        };
        if !seen.insert(sim.canonical.clone()) {
            continue; // identical canonical text: coalesce
        }
        cells.push(Cell { sim, slot: Mutex::new(Slot::Pending), attempts: AtomicU64::new(0) });
    }
    if shared.draining.load(Ordering::SeqCst) {
        return Response::json(503, error_body("server is draining"));
    }
    let deduped = expanded - cells.len() as u64;
    let id = shared.sweeps.next_id.fetch_add(1, Ordering::Relaxed);
    let sweep = Arc::new(Sweep {
        id,
        expanded,
        deduped,
        cells,
        dispatched: AtomicU64::new(0),
        retries: AtomicU64::new(0),
        stolen: AtomicU64::new(0),
        finished: AtomicBool::new(false),
        figures: Mutex::new(None),
    });
    shared.sweeps.insert(Arc::clone(&sweep));
    shared.metrics.inc(&shared.metrics.sweeps_submitted);

    let runner_shared = Arc::clone(shared);
    let runner_sweep = Arc::clone(&sweep);
    let handle = thread::Builder::new()
        .name(format!("hmm-sweep-runner-{id}"))
        .spawn(move || run_sweep(&runner_shared, &runner_sweep))
        .expect("spawn sweep runner");
    shared.runners.lock().unwrap().push(handle);

    Response::json(
        202,
        JsonObject::new()
            .u64("id", id)
            .str("status", "running")
            .u64("expanded", expanded)
            .u64("deduped", deduped)
            .u64("cells", sweep.cells.len() as u64)
            .finish(),
    )
}

/// `GET /v1/sweeps/<id>`: the live status document.
pub(crate) fn get(shared: &Arc<Shared>, path: &str) -> Response {
    let rest = path.strip_prefix("/v1/sweeps/").unwrap_or("");
    let (id, figures_only) = match rest.strip_suffix("/figures") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let Some(id) = id.parse::<u64>().ok() else {
        return bad(shared, 404, &format!("malformed sweep id in '{path}'"));
    };
    let Some(sweep) = shared.sweeps.get(id) else {
        return bad(shared, 404, &format!("no such sweep {id} (expired or never existed)"));
    };
    if !figures_only {
        return Response::json(200, status_doc(&sweep));
    }
    // The figures document served *verbatim*: the embedded result bodies
    // carry full-range u64 digests that any f64-based JSON round trip
    // would corrupt, so byte-exact consumers (CI's `cmp` against an
    // in-process run, `hmm-bench sweep --doc`) read this endpoint
    // instead of carving the document out of the status body.
    let figures = sweep.figures.lock().unwrap().clone();
    match figures {
        Some(figures) => Response::json(200, figures.as_ref().clone()),
        None => bad(shared, 409, &format!("sweep {id} has no figures document (yet)")),
    }
}

fn status_doc(sweep: &Sweep) -> String {
    let counts = sweep.counts();
    let finished = sweep.finished.load(Ordering::SeqCst);
    let status = if !finished {
        "running"
    } else if counts.failed > 0 {
        "failed"
    } else {
        "done"
    };
    let mut cells = JsonArray::new();
    for cell in &sweep.cells {
        let mut entry = JsonObject::new()
            .str("key", &format!("{:016x}", cell.sim.key))
            .str("status", cell.state().label())
            .raw("config", &cell.sim.canonical);
        if let Slot::Failed(why) = &*cell.slot.lock().unwrap() {
            entry = entry.str("error", why);
        }
        cells = cells.raw(&entry.finish());
    }
    let figures = sweep.figures.lock().unwrap().clone();
    JsonObject::new()
        .str("schema", "hmm-sweep-status-v1")
        .u64("id", sweep.id)
        .str("status", status)
        .raw("counts", &counts.to_json())
        .raw("cells", &cells.finish())
        .raw("figures", figures.as_ref().map_or("null", |f| f.as_str()))
        .finish()
}

fn run_sweep(shared: &Arc<Shared>, sweep: &Sweep) {
    if shared.cfg.peers.is_empty() {
        run_local(shared, sweep);
    } else {
        Cluster::new(shared, sweep).run();
    }
    finish(shared, sweep);
}

/// Terminal bookkeeping: fold cell outcomes into the server metrics and
/// render the figures document when every cell succeeded.
fn finish(shared: &Shared, sweep: &Sweep) {
    let mut bodies: Vec<Arc<String>> = Vec::with_capacity(sweep.cells.len());
    let mut failed = 0u64;
    for cell in &sweep.cells {
        match &*cell.slot.lock().unwrap() {
            Slot::Done(body) => bodies.push(Arc::clone(body)),
            _ => failed += 1,
        }
    }
    shared.metrics.sweep_cells_done.fetch_add(bodies.len() as u64, Ordering::Relaxed);
    shared.metrics.sweep_cells_failed.fetch_add(failed, Ordering::Relaxed);
    if failed == 0 {
        let texts: Vec<&str> = bodies.iter().map(|b| b.as_str()).collect();
        // Result bodies always aggregate (they were rendered by this
        // workspace); a parse failure here would be a bug, and leaving
        // `figures` null keeps the status document honest about it.
        if let Ok(doc) = figures_doc(&texts) {
            *sweep.figures.lock().unwrap() = Some(Arc::new(doc));
        }
    }
    shared.metrics.inc(&shared.metrics.sweeps_completed);
    sweep.finished.store(true, Ordering::SeqCst);
}

/// Local mode: dispatch every cell through the shared admission path,
/// then harvest. Admission gives sweeps the same semantics as clients —
/// cache hits conclude instantly and identical in-flight work coalesces
/// (including across concurrent sweeps).
fn run_local(shared: &Shared, sweep: &Sweep) {
    for cell in &sweep.cells {
        loop {
            match shared.admit(&cell.sim) {
                Admitted::Cached(body) => {
                    sweep.dispatched.fetch_add(1, Ordering::SeqCst);
                    *cell.slot.lock().unwrap() = Slot::Done(body);
                    break;
                }
                Admitted::Pending(job) => {
                    sweep.dispatched.fetch_add(1, Ordering::SeqCst);
                    *cell.slot.lock().unwrap() = Slot::Local(job);
                    break;
                }
                // Full queue: backpressure, not failure. Wait it out.
                Admitted::Refused(429, _) => thread::sleep(Duration::from_millis(2)),
                Admitted::Refused(_, msg) => {
                    sweep.dispatched.fetch_add(1, Ordering::SeqCst);
                    *cell.slot.lock().unwrap() = Slot::Failed(msg);
                    break;
                }
            }
        }
    }
    // Every admitted job concludes even during a drain (workers finish
    // the queue before exiting), so these waits terminate.
    for cell in &sweep.cells {
        let job = match &*cell.slot.lock().unwrap() {
            Slot::Local(job) => Arc::clone(job),
            _ => continue,
        };
        let state = loop {
            if let Some(s) = job.wait_done(Duration::from_secs(60)) {
                break s;
            }
        };
        let outcome = match state {
            JobState::Done(body) => Slot::Done(body),
            JobState::Failed(msg) => Slot::Failed(msg),
            _ => Slot::Failed("cancelled while queued".into()),
        };
        *cell.slot.lock().unwrap() = outcome;
    }
}

/// Coordinator mode: per-peer dispatchers over a consistent-hash ring,
/// with work stealing and bounded re-dispatch on peer death.
struct Cluster<'a> {
    shared: &'a Shared,
    sweep: &'a Sweep,
    ring: Ring,
    addrs: Vec<Option<SocketAddr>>,
    alive: Vec<AtomicBool>,
    /// Pending cell indices assigned to each peer.
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Content hashes of the traces each peer has been sent.
    sent: Vec<Mutex<HashSet<u64>>>,
    /// Cells not yet concluded (done or failed).
    remaining: AtomicU64,
}

impl<'a> Cluster<'a> {
    fn new(shared: &'a Shared, sweep: &'a Sweep) -> Self {
        let peers = &shared.cfg.peers;
        let addrs: Vec<Option<SocketAddr>> = peers.iter().map(|p| p.parse().ok()).collect();
        Cluster {
            ring: Ring::new(peers),
            alive: addrs.iter().map(|a| AtomicBool::new(a.is_some())).collect(),
            queues: peers.iter().map(|_| Mutex::new(VecDeque::new())).collect(),
            sent: peers.iter().map(|_| Mutex::new(HashSet::new())).collect(),
            remaining: AtomicU64::new(sweep.cells.len() as u64),
            shared,
            sweep,
            addrs,
        }
    }

    fn run(&self) {
        // Initial assignment: shard by canonical hash so repeats of a
        // cell (across sweeps and retries) land on a warm cache.
        let alive_now: Vec<bool> = self.alive.iter().map(|a| a.load(Ordering::SeqCst)).collect();
        for (i, cell) in self.sweep.cells.iter().enumerate() {
            self.sweep.dispatched.fetch_add(1, Ordering::SeqCst);
            match self.ring.assign_among(cell.sim.key, &alive_now) {
                Some(p) => self.queues[p].lock().unwrap().push_back(i),
                None => self.conclude(i, Slot::Failed("no reachable peers".into())),
            }
        }
        thread::scope(|scope| {
            for p in 0..self.shared.cfg.peers.len() {
                scope.spawn(move || self.dispatcher(p));
            }
        });
    }

    /// Replace the cell's slot and strike it off the ledger. Called
    /// exactly once per cell: queue pops grant exclusive ownership.
    fn conclude(&self, idx: usize, outcome: Slot) {
        *self.sweep.cells[idx].slot.lock().unwrap() = outcome;
        self.remaining.fetch_sub(1, Ordering::SeqCst);
    }

    /// Put a failed dispatch back on the ring (bounded by the retry
    /// budget), or fail the cell when nothing is alive to take it.
    fn reassign(&self, idx: usize, why: &str) {
        let cell = &self.sweep.cells[idx];
        let attempts = cell.attempts.fetch_add(1, Ordering::SeqCst) + 1;
        if attempts > CELL_MAX_RETRIES {
            self.conclude(idx, Slot::Failed(format!("retry budget exhausted: {why}")));
            return;
        }
        if self.shared.draining.load(Ordering::SeqCst) {
            self.conclude(idx, Slot::Failed("coordinator draining".into()));
            return;
        }
        let alive_now: Vec<bool> = self.alive.iter().map(|a| a.load(Ordering::SeqCst)).collect();
        match self.ring.assign_among(cell.sim.key, &alive_now) {
            Some(q) => {
                self.sweep.retries.fetch_add(1, Ordering::SeqCst);
                self.shared.metrics.inc(&self.shared.metrics.sweep_retries);
                self.sweep.dispatched.fetch_add(1, Ordering::SeqCst);
                *cell.slot.lock().unwrap() = Slot::Pending;
                self.queues[q].lock().unwrap().push_back(idx);
            }
            None => self.conclude(idx, Slot::Failed(format!("no reachable peers: {why}"))),
        }
    }

    /// Take a cell from the back of the longest other queue — work the
    /// straggler would reach last. Counted as a re-assignment so the
    /// dispatch ledger stays exact.
    fn steal(&self, thief: usize) -> Option<usize> {
        let (mut victim, mut victim_len) = (None, 0usize);
        for (q, queue) in self.queues.iter().enumerate() {
            if q == thief {
                continue;
            }
            let len = queue.lock().unwrap().len();
            if len > victim_len {
                victim = Some(q);
                victim_len = len;
            }
        }
        let idx = self.queues[victim?].lock().unwrap().pop_back()?;
        self.sweep.retries.fetch_add(1, Ordering::SeqCst);
        self.sweep.stolen.fetch_add(1, Ordering::SeqCst);
        self.sweep.dispatched.fetch_add(1, Ordering::SeqCst);
        self.shared.metrics.inc(&self.shared.metrics.sweep_retries);
        self.shared.metrics.inc(&self.shared.metrics.sweep_stolen);
        Some(idx)
    }

    /// One peer's dispatcher. Runs until every cell has concluded; a
    /// dispatcher whose peer died keeps janitoring its queue (cells can
    /// race in) but executes nothing.
    fn dispatcher(&self, p: usize) {
        loop {
            if self.remaining.load(Ordering::SeqCst) == 0 {
                return;
            }
            if self.shared.draining.load(Ordering::SeqCst) {
                while let Some(idx) = self.pop_own(p) {
                    self.conclude(idx, Slot::Failed("coordinator draining".into()));
                }
                return;
            }
            if !self.alive[p].load(Ordering::SeqCst) {
                while let Some(idx) = self.pop_own(p) {
                    self.reassign(idx, "peer died");
                }
                thread::sleep(Duration::from_millis(3));
                continue;
            }
            let idx = self.pop_own(p).or_else(|| self.steal(p));
            let Some(idx) = idx else {
                thread::sleep(Duration::from_millis(3));
                continue;
            };
            self.execute(p, idx);
        }
    }

    fn pop_own(&self, p: usize) -> Option<usize> {
        self.queues[p].lock().unwrap().pop_front()
    }

    /// Before peer `p`'s first cell of a trace, POST the registered
    /// trace's bytes to its `/v1/traces`, since a peer replays only the
    /// traces it holds. Returns false when cell `idx` was concluded or
    /// reassigned instead: the same outcomes, for the same answers, as
    /// the simulate request below.
    fn push_trace(&self, p: usize, addr: SocketAddr, idx: usize, hash: u64) -> bool {
        if self.sent[p].lock().unwrap().contains(&hash) {
            return true;
        }
        // Deleted since the sweep was submitted: the peer's "unknown
        // trace" answer to the cell says so.
        let Some(data) = replay::lookup(hash) else { return true };
        match client::request_bytes(addr, "POST", "/v1/traces", data.bytes(), PEER_TIMEOUT) {
            Ok(resp) if resp.status == 200 => {
                self.sent[p].lock().unwrap().insert(hash);
                true
            }
            Ok(resp) if resp.status == 400 || resp.status == 413 => {
                let why = format!("peer refused the trace: {}: {}", resp.status, resp.body);
                self.conclude(idx, Slot::Failed(why));
                false
            }
            Ok(_) | Err(_) => {
                self.alive[p].store(false, Ordering::SeqCst);
                self.reassign(idx, &format!("peer {} unreachable", self.shared.cfg.peers[p]));
                false
            }
        }
    }

    /// Run one cell on peer `p`: POST the canonical config text to the
    /// peer's `/v1/simulate` and conclude, retry, or reassign.
    fn execute(&self, p: usize, idx: usize) {
        let cell = &self.sweep.cells[idx];
        let Some(addr) = self.addrs[p] else {
            self.alive[p].store(false, Ordering::SeqCst);
            self.reassign(idx, "unresolvable peer address");
            return;
        };
        let attempts = cell.attempts.load(Ordering::SeqCst);
        if attempts > 0 {
            // Doubling backoff before each re-dispatch, mirroring the
            // fault layer's transfer retry discipline — plus bounded
            // jitter in [0, base/2) so the cells a dead peer strands all
            // at once fan back out instead of re-dispatching in
            // lockstep. The jitter is a pure hash of (cell key,
            // attempt): deterministic for replay, decorrelated across
            // cells, and invisible to the retry-budget ledger.
            let base = RETRY_BACKOFF * (1u32 << (attempts.min(4) as u32 - 1));
            let mut seed = [0u8; 16];
            seed[..8].copy_from_slice(&cell.sim.key.to_le_bytes());
            seed[8..].copy_from_slice(&attempts.to_le_bytes());
            let jitter_ns = hmm_sim_base::snap::snap_hash(&seed) % (base.as_nanos() as u64 / 2);
            thread::sleep(base + Duration::from_nanos(jitter_ns));
        }
        *cell.slot.lock().unwrap() = Slot::Remote;
        if let Some(trace) = cell.sim.cfg.trace {
            if !self.push_trace(p, addr, idx, trace.hash) {
                return;
            }
        }
        loop {
            match client::request(addr, "POST", "/v1/simulate", &cell.sim.canonical, PEER_TIMEOUT) {
                Ok(resp) if resp.status == 200 => {
                    self.conclude(idx, Slot::Done(Arc::new(resp.body)));
                    return;
                }
                // Peer backpressure (429) or a still-running simulation
                // (504): stay on this peer — its single-flight map will
                // coalesce the retry onto the same run.
                Ok(resp) if resp.status == 429 || resp.status == 504 => {
                    if self.shared.draining.load(Ordering::SeqCst) {
                        self.conclude(idx, Slot::Failed("coordinator draining".into()));
                        return;
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                // The cell itself is unacceptable or the simulation
                // deterministically fails; no other peer will disagree.
                Ok(resp) if resp.status == 400 || resp.status == 500 => {
                    self.conclude(
                        idx,
                        Slot::Failed(format!("peer answered {}: {}", resp.status, resp.body)),
                    );
                    return;
                }
                // Draining peer, unexpected status, or transport error
                // (a SIGKILLed peer shows up here as a refused or reset
                // connection): the peer is gone — hand its cells to the
                // survivors.
                Ok(_) | Err(_) => {
                    self.alive[p].store(false, Ordering::SeqCst);
                    self.reassign(idx, &format!("peer {} unreachable", self.shared.cfg.peers[p]));
                    return;
                }
            }
        }
    }
}
