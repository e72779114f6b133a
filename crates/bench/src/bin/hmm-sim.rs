//! Command-line driver for one-off simulations.
//!
//! ```text
//! hmm-sim --workload <name> --mode <mode> [--page <size>] [--interval <n>] \
//!         [--accesses <n>] [--warmup <n>] [--scale <divisor>] [--seed <n>] \
//!         [--on-package <size>] [--fcfs] \
//!         [--scheme hetero|l4cache|pcm] [--policy hotcold|mlq] \
//!         [--faults stress] [--fault-seed 7] \
//!         [--trace-out t.hmt] [--trace-in <id|path>] [--trace-dir dir] \
//!         [--body-out body.json] \
//!         [--telemetry off|counters|full] [--chrome-out t.json] \
//!         [--metrics-out m.csv] [--events-out e.jsonl]
//!
//! modes: off | on | static | n | n-1 | live
//! workloads: bt cg dc ep ft is lu mg sp ua spec2006 pgbench indexer specjbb
//! ```
//!
//! `--scheme` selects the placement scheme (default `hetero`, the
//! paper's controller; `l4cache` is the tags-in-DRAM L4 baseline and
//! composes only with `--mode off`; `pcm` swaps the off-package region
//! for a PCM profile and adds an endurance report line). `--policy`
//! selects the migration policy (`hotcold` default, `mlq` multi-queue
//! promotion). The default scheme's report is byte-identical to the
//! pre-scheme binary — new lines appear only for non-default schemes.
//!
//! Each configuration flag is one field of the `POST /v1/simulate` body
//! of the equivalent request, and `hmm_serve::request::parse_body`
//! resolves that body: the defaults, the checks (power-of-two page,
//! scheme/mode composition, memory geometry) and the warm-up rule
//! (`--warmup` defaults to a fifth of `--accesses` and must be smaller)
//! are the server's, without its admission cap on `--accesses`. The flag
//! names are the field names, except that `--policy` sets `migration`,
//! `--fcfs` sets `"policy":"fcfs"`, and `--on-package`/`--fault-seed`
//! set `on_package`/`fault_seed`.
//!
//! Prints a latency/traffic report for the run; exit code 2 on bad usage
//! (invalid flags and invalid values get a one-line error, never a panic).
//! `--faults` arms the deterministic fault injector; the spec is a
//! comma-separated list (`stress`, `flip=2e-4`, `drop=1e-3`,
//! `stuck=on:0:5`, `throttle=off:300000:3000`, ... — see
//! `hmm_fault::FaultPlan::parse`), and the report gains a fault/recovery
//! section reconciled against the DRAM regions' ECC counters.
//!
//! `--trace-out` records the run's access stream as an `HMT1` binary
//! trace (uploadable via `POST /v1/traces` and replayable here), and
//! `--trace-in` replays one: a path is decoded directly, a 16-hex id is
//! resolved against the registry directory named by `--trace-dir` (an
//! `hmm-serve --store-dir`'s `traces/` subdirectory). A replay takes the
//! workload slot, so `--workload`/`--seed`/`--scale` are not needed.
//! `--body-out` writes the serving layer's rendered response body for
//! the run, byte-identical to what `POST /v1/simulate` returns for the
//! equivalent request — the hook the CI smoke test uses to `cmp` an
//! HTTP simulate-by-id against a local replay.
//!
//! With `--telemetry full` the run streams cross-layer events into a
//! recorder: `--chrome-out` writes a Chrome `trace_event` file for
//! `ui.perfetto.dev`, `--metrics-out` a per-epoch CSV, `--events-out` a
//! raw JSONL dump, and the report gains a counter summary that is
//! reconciled against the controller's own statistics.

use std::fs::File;
use std::io::BufWriter;

use hmm_bench::{f1, f2, human_bytes};
use hmm_core::{MigrationPolicy, SchemeId};
use hmm_power::{normalized_power, EnergyParams};
use hmm_serve::request::{parse_body, Limits};
use hmm_sim_base::cycles::CpuClock;
use hmm_simulator::driver::run_with_sink;
use hmm_telemetry::{
    count_kind, epoch_rows, write_chrome_trace, write_epoch_csv, write_jsonl, EventKind,
    JsonObject, Recorder, RecorderConfig, TelemetryLevel,
};
use hmm_workloads::{replay, write_binary};
use std::path::Path;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: hmm-sim --workload <name> --mode <mode> [--page <size>] \
         [--interval <accesses>] [--accesses <n>] [--warmup <n>] \
         [--scale <divisor>] [--seed <n>] [--on-package <size>] [--fcfs] \
         [--scheme hetero|l4cache|pcm] [--policy hotcold|mlq] \
         [--faults <spec>] [--fault-seed <n>] \
         [--trace-out <file>] [--trace-in <id|path>] [--trace-dir <dir>] \
         [--body-out <file>] \
         [--telemetry off|counters|full] [--chrome-out <file>] \
         [--metrics-out <file>] [--events-out <file>]\n\
         modes: off on static n n-1 live\n\
         workloads: bt cg dc ep ft is lu mg sp ua spec2006 pgbench indexer specjbb\n\
         fault specs: stress | flip/uflip/drop/timeout/rowcorrupt=<rate>, \
         stuck=<on|off>:<ch>:<bank>, throttle=<on|off>:<period>:<dur>, \
         retries/backoff/qthresh/spares/seed=<n> (comma-separated)"
    );
    std::process::exit(2)
}

/// One-line diagnostic and exit 2 — invalid input must never panic.
fn fail(msg: &str) -> ! {
    eprintln!("hmm-sim: {msg}");
    std::process::exit(2)
}

/// Resolve `--trace-in` to a trace id: a 16-hex id against the
/// `--trace-dir` registry, anything else as a path to an `HMT1` file.
/// Either way the trace ends up registered for replay.
fn resolve_trace(spec: &str, dir: Option<&str>) -> String {
    if let Some(hash) = replay::parse_trace_id(spec) {
        let Some(dir) = dir else {
            fail("--trace-in with a trace id requires --trace-dir <registry dir>")
        };
        let metrics = hmm_serve::ServerMetrics::default();
        let (registry, _restored) = hmm_serve::TraceRegistry::open(Path::new(dir), &metrics)
            .unwrap_or_else(|e| fail(&format!("cannot open trace registry {dir}: {e}")));
        let summary = registry
            .get(hash)
            .unwrap_or_else(|| fail(&format!("unknown trace '{spec}' in registry {dir}")));
        summary.id()
    } else {
        let bytes = std::fs::read(spec)
            .unwrap_or_else(|e| fail(&format!("cannot read trace file {spec}: {e}")));
        let data =
            replay::decode(&bytes).unwrap_or_else(|e| fail(&format!("invalid trace {spec}: {e}")));
        let id = data.summary.id();
        replay::register(Arc::new(data));
        id
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage()
    }
    // The run's configuration as a request body, one field per flag.
    let mut body = JsonObject::new();
    let mut telemetry: Option<TelemetryLevel> = None;
    let mut trace_out: Option<String> = None;
    let mut trace_in: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut body_out: Option<String> = None;
    let mut chrome_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut events_out: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val =
            || it.next().cloned().unwrap_or_else(|| fail(&format!("{a} requires a value")));
        let num = |flag: &str, v: &str| {
            v.parse::<u64>().unwrap_or_else(|_| fail(&format!("invalid number for {flag}: {v}")))
        };
        match a.as_str() {
            "--workload" | "-w" => body = body.str("workload", &val()),
            "--mode" | "-m" => body = body.str("mode", &val()),
            "--page" | "-p" => body = body.str("page", &val()),
            "--interval" | "-i" => body = body.u64("interval", num("--interval", &val())),
            "--accesses" | "-n" => body = body.u64("accesses", num("--accesses", &val())),
            "--warmup" => body = body.u64("warmup", num("--warmup", &val())),
            "--scale" | "-s" => body = body.u64("scale", num("--scale", &val())),
            "--seed" => body = body.u64("seed", num("--seed", &val())),
            "--on-package" => body = body.str("on_package", &val()),
            "--fcfs" => body = body.str("policy", "fcfs"),
            "--scheme" => body = body.str("scheme", &val()),
            "--policy" => body = body.str("migration", &val()),
            "--faults" | "-f" => body = body.str("faults", &val()),
            "--fault-seed" => body = body.u64("fault_seed", num("--fault-seed", &val())),
            "--telemetry" => telemetry = Some(val().parse().unwrap_or_else(|e: String| fail(&e))),
            "--trace-out" => trace_out = Some(val()),
            "--trace-in" => trace_in = Some(val()),
            "--trace-dir" => trace_dir = Some(val()),
            "--body-out" => body_out = Some(val()),
            "--chrome-out" => chrome_out = Some(val()),
            "--metrics-out" => metrics_out = Some(val()),
            "--events-out" => events_out = Some(val()),
            "--help" | "-h" => usage(),
            other => {
                if let Some(level) = other.strip_prefix("--telemetry=") {
                    telemetry = Some(level.parse().unwrap_or_else(|e: String| fail(&e)));
                } else if let Some(spec) = other.strip_prefix("--faults=") {
                    body = body.str("faults", spec);
                } else if let Some(s) = other.strip_prefix("--fault-seed=") {
                    body = body.u64("fault_seed", num("--fault-seed", s));
                } else {
                    fail(&format!("unknown argument '{other}' (try --help)"))
                }
            }
        }
    }
    if trace_in.is_some() && trace_out.is_some() {
        fail("--trace-out cannot be combined with --trace-in (a replay would only copy the file)")
    }
    // A replayed trace takes the workload slot, where it outranks any
    // `--workload` token (exactly as in the serving layer).
    if let Some(spec) = &trace_in {
        let id = resolve_trace(spec, trace_dir.as_deref());
        body = body.raw("workload", &JsonObject::new().str("trace", &id).finish());
    }
    // Local runs are not admission-controlled: no cap on `--accesses`.
    let sim =
        parse_body(&body.finish(), &Limits { max_accesses: u64::MAX }).unwrap_or_else(|e| fail(&e));
    let cfg = &sim.cfg;

    // Any export flag implies full capture: the exporters need the event
    // stream, not just counters. (`--trace-out` records the access
    // stream, not telemetry events, so it does not count.)
    let exports_requested = chrome_out.is_some() || metrics_out.is_some() || events_out.is_some();
    let telemetry = match telemetry {
        Some(level) => {
            if exports_requested && level != TelemetryLevel::Full {
                eprintln!("note: export flags require --telemetry full; upgrading");
                TelemetryLevel::Full
            } else {
                level
            }
        }
        None if exports_requested => TelemetryLevel::Full,
        None => TelemetryLevel::Off,
    };

    // Record before running: the trace is a pure function of the
    // workload generator, so a crash mid-simulation still leaves a
    // usable recording.
    if let Some(path) = &trace_out {
        let recs = hmm_workloads::workload(cfg.workload, &cfg.scale)
            .iter(cfg.seed)
            .take(cfg.accesses as usize);
        let mut bytes = Vec::new();
        let written = write_binary(&mut bytes, recs)
            .unwrap_or_else(|e| fail(&format!("encoding trace: {e}")));
        let id = format!("{:016x}", hmm_sim_base::snap::snap_hash(&bytes));
        if let Err(e) = std::fs::write(path, &bytes) {
            eprintln!("error: writing trace to {path}: {e}");
            std::process::exit(1);
        }
        println!("trace recorded    : {path} ({written} records, id {id})");
    }

    let recorder = (telemetry != TelemetryLevel::Off).then(|| {
        Recorder::new(RecorderConfig {
            level: telemetry,
            // Sized to hold a whole run (demand + DRAM + migration events);
            // the recorder degrades to overwrite-oldest if this is exceeded.
            capacity: (cfg.accesses as usize).saturating_mul(8).clamp(1 << 20, 8 << 20),
        })
    });
    let r = match &recorder {
        Some(rec) => run_with_sink(cfg, rec.clone()),
        None => run_with_sink(cfg, hmm_telemetry::NullSink),
    };
    println!("workload          : {}", r.workload);
    println!("mode              : {:?}", cfg.mode);
    // Only printed off the default path: hetero/hotcold output must stay
    // byte-identical to the pre-scheme report (the goldens pin it).
    if cfg.scheme != SchemeId::Hetero || cfg.migration != MigrationPolicy::HotCold {
        println!(
            "scheme            : {} (migration policy {})",
            cfg.scheme.token(),
            cfg.migration.token()
        );
    }
    println!(
        "geometry          : {} total, {} on-package, {} pages, {} sub-blocks",
        human_bytes(r.geometry.total_bytes),
        human_bytes(r.geometry.on_package_bytes),
        human_bytes(r.geometry.page_bytes()),
        human_bytes(r.geometry.sub_block_bytes()),
    );
    println!("accesses measured : {}", r.access.accesses());
    println!("mean latency      : {} cycles", f1(r.mean_latency()));
    println!(
        "  breakdown       : core {} + queue {} + ctrl {} + wires {}",
        f1(r.access.dram_core.mean()),
        f1(r.access.queuing.mean()),
        f1(r.access.controller.mean()),
        f1(r.access.interconnect.mean()),
    );
    println!("p99 latency       : {} cycles", r.access.histogram.quantile(0.99));
    println!("on-package share  : {}", f2(r.on_fraction()));
    if let Some(s) = r.swaps {
        println!(
            "migration         : {} swaps ({} sub-blocks copied; cases a/b/c/d = {:?})",
            s.completed, s.sub_blocks_copied, s.case_counts
        );
        if let Some(p) = normalized_power(&EnergyParams::default(), &r.traffic()) {
            println!("normalized power  : {}x of off-package-only", f2(p));
        }
    }
    if let Some(w) = &r.wear {
        println!(
            "endurance         : {} lines written, hottest bank {} ({} banks, imbalance {})",
            w.write_lines,
            w.max_bank_writes,
            w.banks,
            f2(w.imbalance()),
        );
    }
    if let Some(plan) = cfg.faults {
        let s = &r.controller;
        let (on, off) = (&r.on_region, &r.off_region);
        println!(
            "faults            : seed {:#x}{}",
            plan.seed,
            if plan.any_faults() { "" } else { " (all rates zero)" },
        );
        println!(
            "  ecc             : {} corrected, {} uncorrectable ({} on-package)",
            on.correctable_errors + off.correctable_errors,
            on.uncorrectable_errors + off.uncorrectable_errors,
            on.uncorrectable_errors,
        );
        println!(
            "  throttling      : {} stalls, {} cycles of issue delay",
            on.throttle_events + off.throttle_events,
            on.throttle_delay_cycles + off.throttle_delay_cycles,
        );
        println!(
            "  transfers       : {} dropped, {} timed out, {} ecc-failed, {} retries",
            s.transfers_dropped, s.transfers_timed_out, s.transfers_ecc_failed, s.transfer_retries,
        );
        if let Some(sw) = r.swaps {
            println!(
                "  recovery        : {} aborted swaps, {} sub-blocks rolled back, {} abandoned",
                sw.aborted, sw.rolled_back_sub_blocks, s.abandoned_sub_blocks,
            );
            println!(
                "  degradation     : {} slots quarantined, {} row corruptions repaired",
                s.slots_quarantined, s.row_corruptions,
            );
        }
    }

    // The serving layer's rendered body for this exact run: `render_run`
    // is a pure function of (canonical config, result), so this file is
    // byte-identical to what `POST /v1/simulate` returns for the
    // equivalent request — CI `cmp`s the two.
    if let Some(path) = &body_out {
        let body = hmm_serve::response::render_run(&sim.canonical, &r);
        if let Err(e) = std::fs::write(path, &body) {
            eprintln!("error: writing body to {path}: {e}");
            std::process::exit(1);
        }
        println!("body written      : {path}");
    }

    let Some(recorder) = recorder else { return };
    let counters = recorder.counters();
    println!(
        "telemetry         : level {}, {} events counted",
        telemetry.label(),
        counters.total()
    );
    println!(
        "  demand events   : {} (mean latency {} cyc, p99 bucket {} cyc)",
        counters.get(EventKind::Demand),
        f1(counters.demand_latency.mean()),
        counters.latency_hist.quantile(0.99),
    );
    println!(
        "  dram outcomes   : {} row hits, {} row misses, {} bank conflicts",
        counters.get(EventKind::RowHit),
        counters.get(EventKind::RowMiss),
        counters.get(EventKind::BankConflict),
    );
    // Counters are exact (never dropped), so they must agree with the
    // controller's own statistics — a cheap cross-layer sanity check.
    let (start, done) = (counters.get(EventKind::SwapStart), counters.get(EventKind::SwapComplete));
    let (s_trig, s_done) = r.swaps.map_or((0, 0), |s| (s.triggered, s.completed));
    let swaps_ok = start == s_trig && done == s_done;
    println!(
        "  swap events     : {start} started / {done} completed vs stats {s_trig}/{s_done} -> {}",
        if swaps_ok { "ok" } else { "MISMATCH" },
    );
    // The fault pipeline reconciles the same way: each injection site
    // reports exactly one FaultInjected, and each recovery action exactly
    // one event of its kind. (All-zero when no plan is armed.)
    let expected_faults = r.on_region.correctable_errors
        + r.on_region.uncorrectable_errors
        + r.on_region.throttle_events
        + r.off_region.correctable_errors
        + r.off_region.uncorrectable_errors
        + r.off_region.throttle_events
        + r.controller.transfers_dropped
        + r.controller.transfers_timed_out
        + r.controller.row_corruptions;
    let faults_ok = counters.get(EventKind::FaultInjected) == expected_faults
        && counters.get(EventKind::TransferRetried) == r.controller.transfer_retries
        && counters.get(EventKind::SwapAborted) == r.swaps.map_or(0, |s| s.aborted)
        && counters.get(EventKind::SlotQuarantined) == r.controller.slots_quarantined;
    if cfg.faults.is_some() {
        println!(
            "  fault events    : {} injected vs expected {expected_faults}, \
             {} retries / {} aborts / {} quarantines -> {}",
            counters.get(EventKind::FaultInjected),
            counters.get(EventKind::TransferRetried),
            counters.get(EventKind::SwapAborted),
            counters.get(EventKind::SlotQuarantined),
            if faults_ok { "ok" } else { "MISMATCH" },
        );
    }

    if telemetry == TelemetryLevel::Full {
        let events = recorder.events();
        if recorder.dropped() > 0 {
            eprintln!(
                "warning: event ring overflowed ({} events dropped); exports are truncated",
                recorder.dropped()
            );
        }
        let rows = epoch_rows(&events);
        let (ep_on, ep_off): (u64, u64) =
            rows.iter().fold((0, 0), |(a, b), r| (a + r.demand_on, b + r.demand_off));
        let epochs_ok =
            ep_on == r.controller.demand_on_lines && ep_off == r.controller.demand_off_lines;
        println!(
            "  epoch rows      : {} rows; demand lines on/off {ep_on}/{ep_off} vs stats {}/{} -> {}",
            rows.len(),
            r.controller.demand_on_lines,
            r.controller.demand_off_lines,
            if epochs_ok { "ok" } else { "MISMATCH" },
        );
        let demand_events = count_kind(&events, EventKind::Demand);
        println!("  ring            : {} events retained ({demand_events} demand)", events.len());

        let write = |path: &str, what: &str, f: &dyn Fn(BufWriter<File>) -> std::io::Result<()>| {
            match File::create(path).and_then(|file| f(BufWriter::new(file))) {
                Ok(()) => println!("  wrote {what}    : {path}"),
                Err(e) => {
                    eprintln!("error: writing {what} to {path}: {e}");
                    std::process::exit(1);
                }
            }
        };
        if let Some(path) = &chrome_out {
            let mhz = CpuClock::default().cpu_mhz;
            write(path, "chrome", &|w| write_chrome_trace(w, &events, mhz));
        }
        if let Some(path) = &metrics_out {
            write(path, "csv   ", &|w| write_epoch_csv(w, &rows));
        }
        if let Some(path) = &events_out {
            write(path, "jsonl ", &|w| write_jsonl(w, &events));
        }
        if !(swaps_ok && epochs_ok && faults_ok) && recorder.dropped() == 0 {
            eprintln!("error: telemetry counters disagree with controller statistics");
            std::process::exit(1);
        }
    }
}
