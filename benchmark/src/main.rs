//! The hetero-mem benchmark: end-to-end metrics of four workloads, and a
//! traced run that breaks each workload's time down by layer.
//!
//! ```text
//! cargo run --offline --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//! ```
//!
//! One invocation measures one workload in a process of its own, so host
//! counters and warm state belong to that workload alone. The last line
//! of standard output is the result: `correct`, `attempted`, `failed` and
//! the metrics by name, each with its unit. Any failed check makes the
//! process exit with status 1 after printing that line. See README.md.

mod digest;
mod host;
mod replica;
mod report;
mod serve;
mod sim;
mod stats;

use report::{Report, Spans};
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] =
    ["mg-live", "pgbench-static-full", "pgbench-l4cache-replay", "serve-mixed"];

/// What one run measures.
pub struct Opts {
    /// Drives every generated input: simulation seeds, the replayed
    /// trace's bytes, and the served request bodies.
    pub seed: u64,
    /// How long the timed phase lasts.
    pub seconds: f64,
    /// Measure layer by layer instead of end to end.
    pub traced: bool,
    /// Divides every workload size; 1 for a real measurement.
    pub divisor: u64,
}

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--spans-out <file>]";

/// Run one workload, printing its report; returns whether every check
/// passed.
fn run(workload: &str, opts: &Opts, spans: &mut Spans) -> Result<bool, String> {
    let mut report = Report::new();
    match workload {
        "mg-live" => sim::run(sim::Sim::MgLive, opts, &mut report, spans)?,
        "pgbench-static-full" => sim::run(sim::Sim::PgbenchStaticFull, opts, &mut report, spans)?,
        "pgbench-l4cache-replay" => {
            sim::run(sim::Sim::PgbenchL4cacheReplay, opts, &mut report, spans)?
        }
        "serve-mixed" => serve::run(opts, &mut report, spans)?,
        other => {
            return Err(format!("unknown workload '{other}' (one of {})", WORKLOADS.join(", ")))
        }
    }
    Ok(report.finish(opts.traced))
}

fn main() {
    let origin = Instant::now();
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut spans_out) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            eprintln!("{flag} needs a value\n{USAGE}");
            std::process::exit(2);
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--spans-out" => spans_out = Some(value),
            _ => {
                eprintln!("unknown flag {flag}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };

    println!("workload {workload} seed {seed} seconds {seconds} trace {}", u8::from(traced));
    let opts = Opts { seed, seconds, traced, divisor: 1 };
    let mut spans = Spans::new(origin);
    let correct = match run(&workload, &opts, &mut spans) {
        Ok(correct) => correct,
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = spans_out {
        let written = std::fs::File::create(&path)
            .and_then(|f| spans.write_jsonl(&mut std::io::BufWriter::new(f)));
        if let Err(e) = written {
            eprintln!("benchmark: writing spans to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("{} spans written to {path}", spans.len());
    }
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_telemetry::jsonin::{self, Json};
    use report::{END_TO_END, PER_LAYER};

    /// Whether `name` follows the metric-name grammar `[A-Za-z0-9_.-]+`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn metric_names_follow_the_grammar_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        assert!(valid_name("a.b-c_9"));
        for bad in ["", "a b", "a/b", "é", "a\"b"] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn benchmark_json_names_what_the_benchmark_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = jsonin::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else { panic!("{key} is not a list") };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let printed = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), printed(END_TO_END));
        assert_eq!(listed("per_layer"), printed(PER_LAYER));
        let Some(Json::Arr(workloads)) = doc.get("workloads") else { panic!("no workloads") };
        let names: Vec<&str> =
            workloads.iter().map(|w| w.get("name").and_then(Json::as_str).unwrap()).collect();
        assert_eq!(names, WORKLOADS);
    }

    /// Every workload at 1/100 size, untraced and traced: all checks pass
    /// (including the traced replica's digest against `driver::run`), and
    /// every metric of the mode is printed.
    #[test]
    fn every_workload_runs_at_one_hundredth_size() {
        for workload in WORKLOADS {
            for traced in [false, true] {
                let opts = Opts { seed: 7, seconds: 0.01, traced, divisor: 100 };
                let mut spans = Spans::new(Instant::now());
                assert_eq!(
                    run(workload, &opts, &mut spans),
                    Ok(true),
                    "{workload} traced={traced}"
                );
                assert_eq!(spans.len() > 0, traced || workload == "serve-mixed", "{workload}");
            }
        }
    }
}
