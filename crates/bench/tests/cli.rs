//! Negative CLI tests: every binary in this crate answers invalid input
//! with a one-line diagnostic on stderr and exit code 2 — never a panic,
//! never a silent fallback. (The serve crate holds the same tests for
//! `hmm-serve` and `hmm-loadgen`.)

use hmm_serve::request::{parse_body, Limits};
use hmm_serve::response::render_run;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

/// The shared convention: exit 2, exactly one stderr line, naming the
/// offending input.
fn assert_one_line_exit2(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "diagnostic must be one line, got: {stderr:?}"
    );
    assert!(stderr.contains(needle), "wanted '{needle}' in: {stderr}");
    assert!(!stderr.to_lowercase().contains("panic"), "{stderr}");
}

#[test]
fn hmm_sim_rejects_invalid_input_with_one_line() {
    let bin = env!("CARGO_BIN_EXE_hmm-sim");
    let base = ["--workload", "pgbench", "--mode", "live"];
    fn with<'a>(base: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
        let mut args = base.to_vec();
        args.extend_from_slice(extra);
        args
    }
    assert_one_line_exit2(&run(bin, &with(&base, &["--bogus"])), "--bogus");
    assert_one_line_exit2(&run(bin, &["--workload", "warehouse", "--mode", "live"]), "warehouse");
    assert_one_line_exit2(&run(bin, &["--workload", "pgbench", "--mode", "turbo"]), "turbo");
    assert_one_line_exit2(&run(bin, &with(&base, &["--page", "3K"])), "power of two");
    assert_one_line_exit2(&run(bin, &with(&base, &["--accesses", "many"])), "many");
    assert_one_line_exit2(&run(bin, &with(&base, &["--seed"])), "--seed");
    assert_one_line_exit2(&run(bin, &with(&base, &["--faults", "bogus=1"])), "bogus");
    // A warm-up that covers the whole run would measure nothing; the
    // server refuses it, and so does the CLI.
    assert_one_line_exit2(
        &run(bin, &with(&base, &["--accesses", "1000", "--warmup", "1000"])),
        "must be smaller",
    );
    // 2^53 + 1 would read as 2^53 through the JSON reader: refused, not
    // rounded into another configuration's seed.
    assert_one_line_exit2(
        &run(bin, &with(&base, &["--seed", "9007199254740993"])),
        "'seed' must be below 2^53",
    );
}

/// hmm-sim resolves its flags through the server's `parse_body`, so a
/// synthetic run's `--body-out` is the rendered answer to the equivalent
/// `POST /v1/simulate` request, defaults included.
#[test]
fn hmm_sim_body_out_answers_the_equivalent_request() {
    let bin = env!("CARGO_BIN_EXE_hmm-sim");
    let dir = std::env::temp_dir().join(format!("hmm-sim-body-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("body.json");
    let flags = ["--workload", "pgbench", "--mode", "live", "--accesses", "4000", "--scale", "64"];
    let mut args = flags.to_vec();
    args.extend(["--body-out", path.to_str().unwrap()]);
    let out = run(bin, &args);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let request = r#"{"workload":"pgbench","mode":"live","accesses":4000,"scale":64}"#;
    let s = parse_body(request, &Limits::default()).unwrap();
    let want = render_run(&s.canonical, &hmm_simulator::driver::run(&s.cfg));
    assert_eq!(std::fs::read_to_string(&path).unwrap(), want);
    std::fs::remove_dir_all(&dir).ok();
}

/// `--scheme`/`--policy` validation: unknown tokens, scheme/mode
/// conflicts and no-effect policies all answer with the same one-line
/// exit-2 convention before any simulation state is built.
#[test]
fn hmm_sim_rejects_scheme_misuse_with_one_line() {
    let bin = env!("CARGO_BIN_EXE_hmm-sim");
    let base = ["--workload", "pgbench"];
    fn with<'a>(base: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
        let mut args = base.to_vec();
        args.extend_from_slice(extra);
        args
    }
    assert_one_line_exit2(&run(bin, &with(&base, &["--mode", "live", "--scheme", "l5"])), "l5");
    assert_one_line_exit2(&run(bin, &with(&base, &["--mode", "live", "--policy", "fifo"])), "fifo");
    // The L4-cache baseline manages placement itself: any migration mode
    // is a contradiction, caught before the run starts.
    for mode in ["on", "static", "n", "n-1", "live"] {
        assert_one_line_exit2(
            &run(bin, &with(&base, &["--mode", mode, "--scheme", "l4cache"])),
            "only composes with mode 'off'",
        );
    }
    // A migration policy without a migration engine is silently dead
    // configuration; refuse it loudly instead.
    assert_one_line_exit2(
        &run(bin, &with(&base, &["--mode", "off", "--scheme", "l4cache", "--policy", "mlq"])),
        "no effect",
    );
    assert_one_line_exit2(&run(bin, &with(&base, &["--mode", "live", "--scheme"])), "--scheme");
}

/// The positive side of the same surface: each scheme actually runs, and
/// only non-default schemes add report lines (the hetero report is
/// pinned byte-for-byte by the goldens).
#[test]
fn hmm_sim_runs_every_scheme() {
    let bin = env!("CARGO_BIN_EXE_hmm-sim");
    let quick = ["--accesses", "4000", "--warmup", "1000", "--scale", "64"];
    fn with<'a>(extra: &[&'a str], quick: &[&'a str]) -> Vec<&'a str> {
        let mut args = extra.to_vec();
        args.extend_from_slice(quick);
        args
    }
    let hetero = run(bin, &with(&["--workload", "pgbench", "--mode", "live"], &quick));
    assert!(hetero.status.success());
    let text = String::from_utf8_lossy(&hetero.stdout).to_string();
    assert!(!text.contains("scheme"), "default report must not name a scheme:\n{text}");
    assert!(!text.contains("endurance"), "hetero must not report wear:\n{text}");

    let l4 =
        run(bin, &with(&["--workload", "pgbench", "--mode", "off", "--scheme", "l4cache"], &quick));
    assert!(l4.status.success(), "stderr: {}", String::from_utf8_lossy(&l4.stderr));
    let text = String::from_utf8_lossy(&l4.stdout).to_string();
    assert!(text.contains("scheme            : l4cache"), "{text}");

    let pcm =
        run(bin, &with(&["--workload", "pgbench", "--mode", "live", "--scheme", "pcm"], &quick));
    assert!(pcm.status.success(), "stderr: {}", String::from_utf8_lossy(&pcm.stderr));
    let text = String::from_utf8_lossy(&pcm.stdout).to_string();
    assert!(text.contains("scheme            : pcm"), "{text}");
    assert!(text.contains("endurance"), "pcm must report wear counters:\n{text}");

    let mlq =
        run(bin, &with(&["--workload", "pgbench", "--mode", "live", "--policy", "mlq"], &quick));
    assert!(mlq.status.success(), "stderr: {}", String::from_utf8_lossy(&mlq.stderr));
    let text = String::from_utf8_lossy(&mlq.stdout).to_string();
    assert!(text.contains("migration policy mlq"), "{text}");
}

#[test]
fn hmm_bench_rejects_invalid_input_with_one_line() {
    let bin = env!("CARGO_BIN_EXE_hmm-bench");
    assert_one_line_exit2(&run(bin, &["frobnicate"]), "frobnicate");
    // Host time is measured by the `benchmark/` package; `perf` is an
    // unknown subcommand like any other.
    assert_one_line_exit2(&run(bin, &["perf"]), "perf");
    assert_one_line_exit2(&run(bin, &["sweep"]), "--spec or --doc");
    assert_one_line_exit2(&run(bin, &["sweep", "--spec"]), "--spec");
    assert_one_line_exit2(&run(bin, &["sweep", "--spec", "{}", "--doc", "x"]), "exactly one");
    assert_one_line_exit2(&run(bin, &["sweep", "--spec", "{}", "--max-cells", "0"]), "0");
}

/// Runtime failures in `hmm-bench sweep` (missing files, failed runs)
/// exit 1 with a one-line diagnostic, distinct from usage errors.
#[test]
fn hmm_bench_sweep_reports_runtime_errors() {
    let bin = env!("CARGO_BIN_EXE_hmm-bench");
    for (args, needle) in [
        (vec!["sweep", "--spec", "@/nonexistent/spec.json"], "reading sweep spec"),
        (vec!["sweep", "--doc", "/nonexistent/figures.json"], "reading figures document"),
        (vec!["sweep", "--spec", "not json"], "sweep failed"),
        // A scheme axis with a bogus value expands fine but fails cell
        // validation — same runtime-error surface, same one line.
        (
            vec!["sweep", "--spec", r#"{"workload":"pgbench","mode":"live","scheme":"l5"}"#],
            "sweep failed",
        ),
    ] {
        let out = run(bin, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "one line, got: {stderr:?}");
        assert!(stderr.contains(needle), "wanted '{needle}' in: {stderr}");
    }
}

/// A tiny grid runs in-process and renders both tables; `--out` saves
/// the figures document, which `--doc` then renders identically.
#[test]
fn hmm_bench_sweep_runs_a_small_grid() {
    let bin = env!("CARGO_BIN_EXE_hmm-bench");
    let spec = r#"{"workload":"pgbench","mode":["static","live"],"accesses":3000,"scale":64}"#;
    let dir = std::env::temp_dir().join(format!("hmm-bench-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc_path = dir.join("figures.json");
    let doc_path = doc_path.to_str().unwrap();

    let out = run(bin, &["sweep", "--spec", spec, "--out", doc_path]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== sweep figures =="), "{stdout}");
    assert!(stdout.contains("== sweep totals =="), "{stdout}");
    assert!(stdout.contains(&format!("wrote {doc_path}")), "{stdout}");

    let again = run(bin, &["sweep", "--doc", doc_path]);
    assert!(again.status.success(), "stderr: {}", String::from_utf8_lossy(&again.stderr));
    let rendered = String::from_utf8_lossy(&again.stdout);
    let tables = stdout.strip_suffix(&format!("wrote {doc_path}\n")).unwrap();
    assert_eq!(rendered, tables, "--doc must render the saved document identically");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figures_rejects_invalid_input_with_one_line() {
    let bin = env!("CARGO_BIN_EXE_figures");
    assert_one_line_exit2(&run(bin, &["fig99"]), "fig99");
    assert_one_line_exit2(&run(bin, &["adaptive"]), "adaptive");
    assert_one_line_exit2(&run(bin, &["--fast"]), "--fast");
    assert_one_line_exit2(&run(bin, &["table1", "table2"]), "more than one");
    // A figure's machine-readable form is its sweep document
    // (`hmm-bench sweep --spec @crates/bench/specs/<grid>.json --out`).
    assert_one_line_exit2(&run(bin, &["table4", "--json"]), "--json");
}

/// Valid invocations of the cheap experiments still succeed after the
/// flag-parsing tightening.
#[test]
fn figures_still_runs_static_tables() {
    let bin = env!("CARGO_BIN_EXE_figures");
    let out = run(bin, &["table1", "--quick"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table I"), "{stdout}");
}
