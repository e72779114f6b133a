//! `hmm-bench` — renders the paper's figure tables from a sweep.
//!
//! The `sweep` subcommand takes either an `hmm-sweep-figures-v1`
//! document saved from `GET /v1/sweeps/<id>` (`--doc`), or a grid spec
//! run in-process through the same pipeline the server uses (`--spec`).
//! Host-time measurement lives in the `benchmark/` package
//! (`BENCHMARK.json`), not here.
//!
//! ```text
//! hmm-bench sweep (--spec <json|@file> | --doc <file>)
//!                 [--max-cells <n>] [--out <file>]
//! ```
//!
//! Exit codes: 0 success, 1 runtime failure (unreadable input, failed
//! sweep), 2 invalid usage.

use std::fs;

use hmm_bench::sweep;
use hmm_serve::request::Limits;

fn usage() -> ! {
    eprintln!(
        "usage: hmm-bench sweep (--spec <json|@file> | --doc <file>) \
         [--max-cells <n>] [--out <file>]"
    );
    std::process::exit(2)
}

/// One-line diagnostic and exit 2 — invalid input must never panic.
fn fail(msg: &str) -> ! {
    eprintln!("hmm-bench: {msg}");
    std::process::exit(2)
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
        Some("sweep") => cmd_sweep(&args[1..]),
        Some(other) => fail(&format!("unknown subcommand '{other}' (expected 'sweep')")),
        None => usage(),
    }
}
