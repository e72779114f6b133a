//! `hmm-bench` — the repo's performance benchmark CLI.
//!
//! The `perf` subcommand runs the pinned scenario suite (see
//! `hmm_bench::perf`) — nine simulator cells plus the loopback serve
//! path — prints a human-readable table, writes the stable
//! `BENCH_*.json` report, and optionally gates against a committed
//! baseline. The `sweep` subcommand renders the paper's figure tables
//! from a sweep: either an `hmm-sweep-figures-v1` document saved from
//! `GET /v1/sweeps/<id>` (`--doc`), or a grid spec run in-process
//! through the same pipeline the server uses (`--spec`).
//!
//! ```text
//! hmm-bench perf  [--quick] [--samples <k>] [--out <file>]
//!                 [--baseline <file>] [--threshold <pct>]
//!                 [--scenario <id>]...
//! hmm-bench perf  --compare <new.json> <baseline.json> [--threshold <pct>]
//! hmm-bench sweep (--spec <json|@file> | --doc <file>)
//!                 [--max-cells <n>] [--out <file>]
//! ```
//!
//! `--scenario` (repeatable) restricts the run to the named rows for
//! local iteration; unknown ids are rejected. `--compare` diffs two
//! existing reports offline — nothing is measured or written — and exits
//! 1 if any scenario regressed beyond the threshold.
//!
//! Exit codes: 0 success, 1 runtime failure (regression vs baseline,
//! unreadable input, failed sweep), 2 invalid usage.

use std::fs;

use hmm_bench::{cells, f1, render_table};
use hmm_bench::{perf, sweep};
use hmm_serve::request::Limits;

fn usage() -> ! {
    eprintln!(
        "usage: hmm-bench perf [--quick] [--samples <k>] [--out <file>] \
         [--baseline <file>] [--threshold <pct>] [--scenario <id>]...\n\
         \x20      hmm-bench perf --compare <new.json> <baseline.json> \
         [--threshold <pct>]\n\
         \x20      hmm-bench sweep (--spec <json|@file> | --doc <file>) \
         [--max-cells <n>] [--out <file>]"
    );
    std::process::exit(2)
}

/// One-line diagnostic and exit 2 — invalid input must never panic.
fn fail(msg: &str) -> ! {
    eprintln!("hmm-bench: {msg}");
    std::process::exit(2)
}

struct PerfArgs {
    quick: bool,
    samples: usize,
    out: String,
    baseline: Option<String>,
    threshold: f64,
    scenarios: Vec<String>,
    compare: Option<(String, String)>,
}

fn parse_perf_args(args: &[String]) -> PerfArgs {
    let mut quick = false;
    let mut samples: Option<usize> = None;
    let mut out = String::from("BENCH_7.json");
    let mut baseline = None;
    let mut threshold = perf::DEFAULT_THRESHOLD;
    let mut scenarios = Vec::new();
    let mut compare = None;
    let mut measure_flag_seen = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if matches!(arg.as_str(), "--quick" | "--samples" | "--out" | "--baseline" | "--scenario") {
            measure_flag_seen = true;
        }
        match arg.as_str() {
            "--quick" => quick = true,
            "--samples" => {
                let v = it.next().unwrap_or_else(|| fail("--samples needs a value"));
                samples = match v.parse() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => fail(&format!("invalid --samples '{v}' (positive integer)")),
                };
            }
            "--out" => {
                out = it.next().unwrap_or_else(|| fail("--out needs a path")).clone();
            }
            "--baseline" => {
                baseline =
                    Some(it.next().unwrap_or_else(|| fail("--baseline needs a path")).clone());
            }
            "--threshold" => {
                let v = it.next().unwrap_or_else(|| fail("--threshold needs a value"));
                threshold = match v.trim_end_matches('%').parse::<f64>() {
                    Ok(p) if p > 0.0 && p < 100.0 => p / 100.0,
                    _ => fail(&format!("invalid --threshold '{v}' (percent in 0..100)")),
                };
            }
            "--scenario" => {
                scenarios.push(it.next().unwrap_or_else(|| fail("--scenario needs an id")).clone());
            }
            "--compare" => {
                let new = it.next().unwrap_or_else(|| fail("--compare needs two paths")).clone();
                let base = it.next().unwrap_or_else(|| fail("--compare needs two paths")).clone();
                compare = Some((new, base));
            }
            other => fail(&format!("unknown argument '{other}' for perf")),
        }
    }
    if compare.is_some() && measure_flag_seen {
        fail("--compare is an offline diff; it takes only --threshold");
    }
    // Quick mode defaults to fewer samples so the CI gate stays fast.
    let samples = samples.unwrap_or(if quick { 3 } else { 5 });
    PerfArgs { quick, samples, out, baseline, threshold, scenarios, compare }
}

/// Offline `--compare` mode: diff two existing reports, print the
/// per-scenario lines, and exit 1 on any regression beyond the
/// threshold. Nothing is measured and nothing is written.
fn perf_compare_offline(new_path: &str, base_path: &str, threshold: f64) -> ! {
    let read = |path: &str| {
        fs::read_to_string(path).unwrap_or_else(|e| abort(&format!("reading {path}: {e}")))
    };
    let (new_json, base_json) = (read(new_path), read(base_path));
    match perf::compare(&new_json, &base_json, threshold) {
        Ok(cmp) => {
            println!("comparing {new_path} vs {base_path} (threshold {:.0}%):", threshold * 100.0);
            for line in &cmp.lines {
                println!("  {line}");
            }
            if cmp.regressions.is_empty() {
                println!("no regressions");
                std::process::exit(0)
            }
            eprintln!(
                "hmm-bench: {} scenario(s) regressed beyond {:.0}%: {}",
                cmp.regressions.len(),
                threshold * 100.0,
                cmp.regressions.join(", ")
            );
            std::process::exit(1)
        }
        Err(e) => abort(&format!("compare failed: {e}")),
    }
}

fn cmd_perf(args: &[String]) -> ! {
    let a = parse_perf_args(args);
    if let Some((new_path, base_path)) = &a.compare {
        perf_compare_offline(new_path, base_path, a.threshold);
    }
    let selected = match perf::filter_ids(&a.scenarios) {
        Ok(ids) => ids,
        Err(e) => fail(&e),
    };
    // Snapshot the baseline before anything is written: `--out` defaults to
    // the committed baseline's path, so reading it only after the write
    // would silently compare the fresh report against itself (and the gate
    // would always pass).
    let baseline_text = a.baseline.as_ref().map(|path| match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hmm-bench: reading baseline {path}: {e}");
            std::process::exit(1);
        }
    });
    let rows = if selected.is_empty() {
        eprintln!(
            "running pinned perf suite ({} sim scenarios + serve path, {} samples each{})...",
            perf::suite().len(),
            a.samples,
            if a.quick { ", quick" } else { "" }
        );
        perf::measure_suite(a.quick, a.samples)
    } else {
        eprintln!(
            "running {} selected scenario(s), {} samples each{}...",
            selected.len(),
            a.samples,
            if a.quick { ", quick" } else { "" }
        );
        perf::measure_suite_filtered(a.quick, a.samples, &selected)
    };

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            cells([
                r.id.clone(),
                format!("{:.2}", r.wall_ns_p50 as f64 / 1e6),
                format!("{:.0}", r.spread * 100.0),
                format!("{:.2}", r.accesses_per_sec / 1e6),
                f1(r.mean_latency),
                format!("{:.1}", r.on_fraction * 100.0),
                perf::Digest::from_value(r.digest).hex(),
            ])
        })
        .collect();
    println!(
        "{}",
        render_table(
            "hmm-bench perf",
            &["scenario", "wall p50 (ms)", "spread%", "Macc/s", "mean lat", "on%", "digest"],
            &table,
        )
    );

    let json = perf::report_json(a.quick, a.samples, &rows);
    if let Err(e) = fs::write(&a.out, format!("{json}\n")) {
        eprintln!("hmm-bench: writing {}: {e}", a.out);
        std::process::exit(1);
    }
    println!("wrote {}", a.out);

    if let (Some(path), Some(base)) = (&a.baseline, &baseline_text) {
        match perf::compare(&json, base, a.threshold) {
            Ok(cmp) => {
                println!("\nbaseline comparison ({path}, threshold {:.0}%):", a.threshold * 100.0);
                for line in &cmp.lines {
                    println!("  {line}");
                }
                if cmp.regressions.is_empty() {
                    println!("no regressions");
                } else {
                    eprintln!(
                        "hmm-bench: {} scenario(s) regressed beyond {:.0}%: {}",
                        cmp.regressions.len(),
                        a.threshold * 100.0,
                        cmp.regressions.join(", ")
                    );
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("hmm-bench: baseline compare failed: {e}");
                std::process::exit(1);
            }
        }
    }
    std::process::exit(0)
}

/// One-line diagnostic and exit 1 — a well-formed invocation that failed
/// at runtime (unreadable file, failed run).
fn abort(msg: &str) -> ! {
    eprintln!("hmm-bench: {msg}");
    std::process::exit(1)
}

struct SweepArgs {
    spec: Option<String>,
    doc: Option<String>,
    max_cells: usize,
    out: Option<String>,
}

fn parse_sweep_args(args: &[String]) -> SweepArgs {
    let mut a = SweepArgs { spec: None, doc: None, max_cells: 1024, out: None };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => {
                a.spec = Some(it.next().unwrap_or_else(|| fail("--spec needs a value")).clone());
            }
            "--doc" => {
                a.doc = Some(it.next().unwrap_or_else(|| fail("--doc needs a path")).clone());
            }
            "--max-cells" => {
                let v = it.next().unwrap_or_else(|| fail("--max-cells needs a value"));
                a.max_cells = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => fail(&format!("invalid --max-cells '{v}' (positive integer)")),
                };
            }
            "--out" => {
                a.out = Some(it.next().unwrap_or_else(|| fail("--out needs a path")).clone());
            }
            other => fail(&format!("unknown argument '{other}' for sweep")),
        }
    }
    if a.spec.is_some() == a.doc.is_some() {
        fail("sweep needs exactly one of --spec or --doc");
    }
    a
}

fn cmd_sweep(args: &[String]) -> ! {
    let a = parse_sweep_args(args);
    let doc = if let Some(spec) = &a.spec {
        let spec_text = match spec.strip_prefix('@') {
            Some(path) => fs::read_to_string(path)
                .unwrap_or_else(|e| abort(&format!("reading sweep spec '{path}': {e}"))),
            None => spec.clone(),
        };
        // The server's default admission limit, so the document equals
        // what a default `hmm-serve` answers for the same spec.
        sweep::figures_from_spec(&spec_text, a.max_cells, &Limits::default())
            .unwrap_or_else(|e| abort(&format!("sweep failed: {e}")))
    } else {
        let path = a.doc.as_deref().unwrap();
        fs::read_to_string(path)
            .unwrap_or_else(|e| abort(&format!("reading figures document '{path}': {e}")))
    };
    let tables = sweep::render_figures(&doc).unwrap_or_else(|e| abort(&e));
    println!("{tables}");
    if let Some(out) = &a.out {
        if let Err(e) = fs::write(out, format!("{}\n", doc.trim_end())) {
            abort(&format!("writing {out}: {e}"));
        }
        println!("wrote {out}");
    }
    std::process::exit(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("perf") => cmd_perf(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some(other) => fail(&format!("unknown subcommand '{other}' (expected 'perf' or 'sweep')")),
        None => usage(),
    }
}
