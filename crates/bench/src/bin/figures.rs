//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! figures <experiment> [--quick|--bench|--full]
//!
//! experiments: table1 table2 table3 table4 fig4 fig5 fig10 fig11 fig12
//!              fig13 fig14 fig15 fig16 all
//! ```
//!
//! `--quick` (default) uses 1/64-scale footprints for a smoke run;
//! `--bench` uses 1/8 scale (the setting used for EXPERIMENTS.md);
//! `--full` uses the paper's exact sizes (hours of CPU time).
//!
//! Table IV and Figs. 11–16 are sweep specs checked in under
//! `crates/bench/specs/`, one per grid. A spec carries only its figure's
//! axes: the request defaults, which equal `--bench`, fill in the rest,
//! and the other presets overlay their scale, access count and warm-up.
//! Each grid runs through the sweep pipeline
//! ([`hmm_bench::sweep::figures_from_spec`]) and its table is read from
//! the result bodies of the `hmm-sweep-figures-v1` document, the same
//! document `hmm-bench sweep --spec @<spec> --out <file>` writes and
//! `POST /v1/sweeps` serves.

use hmm_bench::sweep::figures_from_spec;
use hmm_bench::{cells, f1, f2, human_bytes, pct, render_table};
use hmm_core::hardware_bits;
use hmm_serve::request::Limits;
use hmm_serve::ServerConfig;
use hmm_sim_base::config::{LatencyConfig, MemoryGeometry, SimScale};
use hmm_sim_base::stats::effectiveness;
use hmm_simulator::ipc::{ipc_for, Fig5Option};
use hmm_simulator::missrate::{fig4_capacities, l3_miss_rates};
use hmm_sweep::spec::render_json;
use hmm_telemetry::jsonin::{self, Json};
use hmm_workloads::{npb_footprint_mb, WorkloadId};

const TABLE4: &str = include_str!("../../specs/table4.json");
const FIG11: &str = include_str!("../../specs/fig11.json");
const FIG12: &str = include_str!("../../specs/fig12.json");
const FIG13: &str = include_str!("../../specs/fig13.json");
const FIG14: &str = include_str!("../../specs/fig14.json");
const FIG15: &str = include_str!("../../specs/fig15.json");
const FIG16: &str = include_str!("../../specs/fig16.json");

/// The trace seed of every experiment; the grid specs leave it to the
/// request default, which is the same.
const SEED: u64 = 42;

/// The run size every simulated experiment shares.
#[derive(Debug, Clone, Copy)]
struct Preset {
    scale: SimScale,
    accesses: u64,
    warmup: u64,
}

impl Preset {
    fn for_flag(size: &str) -> Self {
        let (divisor, accesses, warmup) = match size {
            "--full" => (1, 20_000_000, 2_000_000),
            // The sweep request defaults: 400K accesses, a fifth of them warm-up.
            "--bench" => (8, 400_000, 80_000),
            _ => (64, 60_000, 10_000),
        };
        Self { scale: SimScale { divisor }, accesses, warmup }
    }
}

/// One cell of a grid, read back from its `hmm-serve-sim-v1` result body.
#[derive(Debug)]
struct Cell {
    workload: String,
    mode: String,
    page_shift: u32,
    interval: u64,
    on_package: u64,
    latency: f64,
    dram_core: f64,
    on_fraction: f64,
    power: f64,
}

/// `spec` with every field of the JSON object `fields` set, replacing the
/// spec's own value where it has one (jq's `. + fields`).
fn overlay(spec: &str, fields: &str) -> String {
    let (Ok(Json::Obj(mut obj)), Ok(Json::Obj(extra))) =
        (jsonin::parse(spec), jsonin::parse(fields))
    else {
        panic!("grid specs and their overlays are JSON objects");
    };
    for (name, value) in extra {
        match obj.iter_mut().find(|(k, _)| *k == name) {
            Some((_, slot)) => *slot = value,
            None => obj.push((name, value)),
        }
    }
    render_json(&Json::Obj(obj))
}

/// Run a checked-in grid at `preset`, with each of `narrow` overlaid in
/// turn, and read its cells back in sweep order.
fn run_spec(spec: &str, preset: &Preset, narrow: &[&str]) -> Vec<Cell> {
    let size = format!(
        r#"{{"scale":{},"accesses":{},"warmup":{}}}"#,
        preset.scale.divisor, preset.accesses, preset.warmup
    );
    let spec = narrow.iter().fold(overlay(spec, &size), |spec, fields| overlay(&spec, fields));
    // No access cap: a `--full` cell runs 20M accesses, ten times what a
    // default server admits.
    let no_cap = Limits { max_accesses: u64::MAX };
    let doc = figures_from_spec(&spec, ServerConfig::default().max_sweep_cells, &no_cap)
        .unwrap_or_else(|e| panic!("grid spec failed: {e}"));
    result_cells(&doc)
}

/// The cells of a figures document, from its embedded result bodies.
fn result_cells(doc: &str) -> Vec<Cell> {
    let doc = jsonin::parse(doc).expect("the sweep pipeline renders valid JSON");
    let bodies = doc.get("results").and_then(Json::as_arr).expect("document embeds its results");
    let text = |v: Option<&Json>, name: &str| {
        let s = v.and_then(|v| v.get(name)).and_then(Json::as_str);
        s.unwrap_or_else(|| panic!("result body lacks '{name}'")).to_string()
    };
    let num = |v: Option<&Json>, name: &str| {
        let n = v.and_then(|v| v.get(name)).and_then(Json::as_f64);
        n.unwrap_or_else(|| panic!("result body lacks '{name}'"))
    };
    bodies
        .iter()
        .map(|body| {
            let (config, access) = (body.get("config"), body.get("access"));
            Cell {
                workload: text(Some(body), "workload"),
                mode: text(config, "mode"),
                page_shift: num(config, "page_shift") as u32,
                interval: num(config, "interval") as u64,
                on_package: num(config, "on_package") as u64,
                latency: num(access, "mean_latency_cycles"),
                dram_core: num(access, "dram_core_mean"),
                on_fraction: num(access, "on_package_fraction"),
                // A run with no off-package traffic has no power ratio.
                power: body.get("normalized_power").and_then(Json::as_f64).unwrap_or(0.0),
            }
        })
        .collect()
}

/// A grid's cells, split per workload. The workload is the outermost
/// sweep axis, so each workload's cells are contiguous.
fn per_workload(grid: &[Cell]) -> impl Iterator<Item = &[Cell]> {
    grid.chunk_by(|a, b| a.workload == b.workload)
}

fn table1() {
    let rows: Vec<Vec<String>> = WorkloadId::npb_all()
        .iter()
        .map(|&id| cells([id.name().to_string(), format!("{}MB", npb_footprint_mb(id))]))
        .collect();
    print!(
        "{}",
        render_table("Table I: NPB 3.3 memory footprints", &["Workload", "Memory"], &rows)
    );
}

fn table2() {
    let l = LatencyConfig::default();
    let rows = vec![
        cells(["Memory controller processing".into(), format!("{}-cycle", l.mc_processing)]),
        cells([
            "Controller-to-core delay".into(),
            format!("{}-cycle each way", l.ctl_to_core_each_way),
        ]),
        cells(["Package pin delay".into(), format!("{}-cycle each way", l.package_pin_each_way)]),
        cells(["PCB wire delay".into(), format!("{}-cycle round-trip", l.pcb_wire_round_trip)]),
        cells([
            "Interposer pin delay".into(),
            format!("{}-cycle each way", l.interposer_pin_each_way),
        ]),
        cells([
            "Intra-package delay".into(),
            format!("{}-cycle round-trip", l.intra_package_round_trip),
        ]),
        cells(["DRAM core delay (analytic)".into(), format!("{}-cycle", l.dram_core)]),
        cells(["Queuing delay (analytic)".into(), format!("{}-cycle", l.queuing)]),
        cells(["On-package memory access".into(), format!("{}-cycle", l.on_package_analytic())]),
        cells(["Off-package memory access".into(), format!("{}-cycle", l.off_package_analytic())]),
        cells(["L4 cache hit".into(), format!("{}-cycle", l.l4_hit_analytic())]),
        cells(["L4 cache miss determination".into(), format!("{}-cycle", l.l4_miss_analytic())]),
    ];
    print!(
        "{}",
        render_table(
            "Table II: baseline configuration (reconstructed latencies)",
            &["Parameter", "Value"],
            &rows
        )
    );
}

fn table3() {
    let g = MemoryGeometry::paper_default();
    let rows = vec![
        cells(["Total memory capacity".into(), human_bytes(g.total_bytes)]),
        cells(["On-package memory capacity".into(), human_bytes(g.on_package_bytes)]),
        cells(["Macro page size".into(), "4KB to 4MB".to_string()]),
        cells(["Sub-block size".into(), human_bytes(g.sub_block_bytes())]),
        cells([
            "Workloads".into(),
            "FT.C, MG.C, SPEC2006 Mixture, pgbench, indexer, SPECjbb".to_string(),
        ]),
    ];
    print!(
        "{}",
        render_table("Table III: trace-simulation parameters", &["Parameter", "Value"], &rows)
    );
}

/// Table IV's reduction of one workload's cells: the static-mapping
/// baseline, the best live-migration cell, and that cell's effectiveness η.
///
/// A static result does not depend on page size or interval, so the first
/// static cell is the baseline. The best cell is the first minimum in cell
/// order (page size outer, interval inner).
fn table4_row(cells: &[Cell]) -> (&Cell, &Cell, f64) {
    let stat = cells.iter().find(|c| c.mode == "static").expect("a static cell per workload");
    let best = cells
        .iter()
        .filter(|c| c.mode == "live")
        .min_by(|a, b| a.latency.total_cmp(&b.latency))
        .expect("a live cell per workload");
    let eta =
        effectiveness(stat.latency, best.latency, best.dram_core).unwrap_or(0.0).clamp(0.0, 100.0);
    (stat, best, eta)
}

fn table4(preset: &Preset) {
    let grid = run_spec(TABLE4, preset, &[]);
    let mut etas = Vec::new();
    let rows: Vec<Vec<String>> = per_workload(&grid)
        .map(|w| {
            let (stat, best, eta) = table4_row(w);
            etas.push(eta);
            cells([
                best.workload.clone(),
                f1(best.dram_core),
                f1(stat.latency),
                f1(best.latency),
                human_bytes(1 << best.page_shift),
                best.interval.to_string(),
                pct(eta),
            ])
        })
        .collect();
    let avg = etas.iter().sum::<f64>() / etas.len() as f64;
    print!(
        "{}",
        render_table(
            "Table IV: effectiveness of controller-based data migration",
            &[
                "Workload",
                "DRAM core (cyc)",
                "Lat w/o mig",
                "Best lat w/ mig",
                "Best page",
                "Best interval",
                "Effectiveness",
            ],
            &rows
        )
    );
    println!("Average effectiveness: {avg:.1}%  (paper: 83%)");
}

fn fig4(preset: &Preset) {
    let caps = fig4_capacities();
    let mut rows = Vec::new();
    for id in WorkloadId::npb_all() {
        let rates = l3_miss_rates(id, &caps, preset.accesses.min(2_000_000), &preset.scale, SEED);
        let mut row = vec![id.name().to_string()];
        row.extend(rates.iter().map(|(_, r)| pct(r * 100.0)));
        rows.push(row);
    }
    let mut headers: Vec<String> = vec!["Workload".into()];
    headers.extend(caps.iter().map(|c| human_bytes(*c)));
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print!("{}", render_table("Fig. 4: LLC miss rate vs. capacity", &hdr_refs, &rows));
}

fn fig5(preset: &Preset) {
    let gb = 1u64 << 30;
    let n = preset.accesses.min(1_000_000);
    let mut rows = Vec::new();
    for id in WorkloadId::npb_all() {
        let base = ipc_for(id, Fig5Option::Baseline, gb, n, &preset.scale, SEED);
        let mut row = vec![id.name().to_string(), f2(base.ipc)];
        for opt in [Fig5Option::L4Cache, Fig5Option::StaticMapping, Fig5Option::AllOnPackage] {
            let r = ipc_for(id, opt, gb, n, &preset.scale, SEED);
            row.push(format!("{:+.1}%", (r.ipc / base.ipc - 1.0) * 100.0));
        }
        rows.push(row);
    }
    print!(
        "{}",
        render_table(
            "Fig. 5: IPC improvement over baseline",
            &["Workload", "Base IPC", "L4 Cache 1GB", "On-Chip Mem 1GB", "All On-Chip"],
            &rows
        )
    );
}

fn fig10() {
    let rows: Vec<Vec<String>> = [4u64 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20]
        .iter()
        .map(|&p| {
            let o = hardware_bits(1 << 30, p, (4u64 << 10).min(p));
            cells([
                human_bytes(p),
                o.translation_table.to_string(),
                o.fill_bitmap.to_string(),
                o.lru_bitmap.to_string(),
                o.multi_queue.to_string(),
                o.total().to_string(),
            ])
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Fig. 10: hardware overhead (bits) to manage 1GB on-package memory",
            &["Page", "Table", "Fill bitmap", "LRU bitmap", "Multi-queue", "Total"],
            &rows
        )
    );
    println!("(paper: 9,228 bits at 4MB granularity)");
}

/// `--quick` narrows Figs. 11–14 to 16K, 64K and 256K pages.
fn quick_pages(preset: &Preset) -> &'static str {
    if preset.scale.divisor > 16 {
        r#"{"page_shift":[14,16,18]}"#
    } else {
        "{}"
    }
}

/// The figures' name for a migration design's mode token.
fn design_label(mode: &str) -> &str {
    match mode {
        "n" => "N",
        "n-1" => "N-1",
        "live" => "Live",
        other => other,
    }
}

/// Fig. 11 rows at one swap interval. Cells expand as workload × design ×
/// page size; the figure reads workload × page size × design.
fn fig11_rows(grid: &[Cell], interval: u64) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for w in per_workload(grid) {
        let mut at: Vec<&Cell> = w.iter().filter(|c| c.interval == interval).collect();
        // A stable sort: each page size keeps the designs in spec order.
        at.sort_by_key(|c| c.page_shift);
        rows.extend(at.iter().map(|c| {
            cells([
                c.workload.clone(),
                human_bytes(1 << c.page_shift),
                design_label(&c.mode).to_string(),
                f1(c.latency),
                f2(c.on_fraction),
            ])
        }));
    }
    rows
}

/// Fig. 11: one table per swap interval in the grid.
fn fig11(preset: &Preset, narrow: &[&str]) {
    let grid = run_spec(FIG11, preset, narrow);
    let mut intervals: Vec<u64> = grid.iter().map(|c| c.interval).collect();
    intervals.sort_unstable();
    intervals.dedup();
    for interval in intervals {
        print!(
            "{}",
            render_table(
                &format!("Fig. 11: average memory latency (swap interval = {interval} accesses)"),
                &["Workload", "Page", "Design", "Avg latency (cyc)", "On-pkg frac"],
                &fig11_rows(&grid, interval)
            )
        );
    }
}

fn fig12_14(preset: &Preset, spec: &str, fig: u32) {
    let grid = run_spec(spec, preset, &[quick_pages(preset)]);
    let rows: Vec<Vec<String>> = grid
        .iter()
        .map(|c| {
            cells([
                c.workload.clone(),
                human_bytes(1 << c.page_shift),
                f1(c.latency),
                f2(c.on_fraction),
            ])
        })
        .collect();
    let interval = grid[0].interval;
    print!(
        "{}",
        render_table(
            &format!("Fig. {fig}: live-migration average memory latency (interval = {interval})"),
            &["Workload", "Page", "Avg latency (cyc)", "On-pkg frac"],
            &rows
        )
    );
}

/// Fig. 15's bar groups: each live-migration cell with the static-mapping
/// cell of the same workload and on-package capacity.
fn fig15_pairs(grid: &[Cell]) -> Vec<(&Cell, &Cell)> {
    grid.iter()
        .filter(|c| c.mode == "live")
        .map(|live| {
            let stat = grid.iter().find(|c| {
                c.mode == "static" && c.workload == live.workload && c.on_package == live.on_package
            });
            (live, stat.expect("a static cell per workload and capacity"))
        })
        .collect()
}

fn fig15(preset: &Preset) {
    let grid = run_spec(FIG15, preset, &[]);
    let rows: Vec<Vec<String>> = fig15_pairs(&grid)
        .iter()
        .map(|(live, stat)| {
            cells([
                live.workload.clone(),
                human_bytes(live.on_package),
                f1(live.dram_core),
                f1(live.latency),
                f1(stat.latency),
            ])
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Fig. 15: sensitivity to on-package capacity",
            &["Workload", "On-pkg", "DRAM core", "With migration", "Without migration"],
            &rows
        )
    );
}

fn fig16(preset: &Preset) {
    let grid = run_spec(FIG16, preset, &[]);
    let rows: Vec<Vec<String>> = grid
        .iter()
        .map(|c| {
            cells([
                c.workload.clone(),
                human_bytes(1 << c.page_shift),
                c.interval.to_string(),
                f2(c.power),
            ])
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Fig. 16: memory power relative to off-package-DRAM-only",
            &["Workload", "Page", "Interval", "Normalized power"],
            &rows
        )
    );
}

/// One-line diagnostic and exit 2 — invalid input must never panic.
/// (Same convention as `hmm-sim`, `hmm-bench`, and `hmm-serve`.)
fn fail(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut what: Option<String> = None;
    let mut size = "--quick";
    for a in &args {
        match a.as_str() {
            s @ ("--quick" | "--bench" | "--full") => size = s,
            flag if flag.starts_with('-') => {
                fail(&format!("unknown flag '{flag}' (flags: --quick --bench --full)"))
            }
            exp => {
                if let Some(prev) = &what {
                    fail(&format!("more than one experiment named ('{prev}' and '{exp}')"));
                }
                what = Some(exp.to_string());
            }
        }
    }
    let what = what.as_deref().unwrap_or("all");
    const EXPERIMENTS: [&str; 14] = [
        "table1", "table2", "table3", "table4", "fig4", "fig5", "fig10", "fig11", "fig12", "fig13",
        "fig14", "fig15", "fig16", "all",
    ];
    if !EXPERIMENTS.contains(&what) {
        fail(&format!("unknown experiment '{what}' (experiments: {})", EXPERIMENTS.join(" ")));
    }
    let preset = Preset::for_flag(size);
    eprintln!(
        "[figures] {what} at scale 1/{} ({} accesses per run)",
        preset.scale.divisor, preset.accesses
    );

    match what {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(),
        "table4" => table4(&preset),
        "fig4" => fig4(&preset),
        "fig5" => fig5(&preset),
        "fig10" => fig10(),
        "fig11" => fig11(&preset, &[quick_pages(&preset)]),
        "fig12" => fig12_14(&preset, FIG12, 12),
        "fig13" => fig12_14(&preset, FIG13, 13),
        "fig14" => fig12_14(&preset, FIG14, 14),
        "fig15" => fig15(&preset),
        "fig16" => fig16(&preset),
        "all" => {
            table1();
            table2();
            table3();
            fig10();
            fig4(&preset);
            fig5(&preset);
            fig11(&preset, &[quick_pages(&preset), r#"{"interval":1000}"#]);
            fig12_14(&preset, FIG12, 12);
            fig12_14(&preset, FIG13, 13);
            fig12_14(&preset, FIG14, 14);
            fig15(&preset);
            fig16(&preset);
            table4(&preset);
        }
        other => unreachable!("'{other}' was validated against EXPERIMENTS above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_serve::request::parse_body;
    use hmm_sweep::expand;

    fn quick() -> Preset {
        Preset::for_flag("--quick")
    }

    #[test]
    fn a_default_server_accepts_every_checked_in_spec() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/specs");
        let max_cells = ServerConfig::default().max_sweep_cells;
        let mut specs = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let spec = std::fs::read_to_string(&path).unwrap();
            let cells =
                expand(&spec, max_cells).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            for body in &cells {
                parse_body(body, &Limits::default())
                    .unwrap_or_else(|e| panic!("{}: {body}: {e}", path.display()));
            }
            specs += 1;
        }
        assert_eq!(specs, 7, "one spec per grid: Table IV and Figs. 11-16");
    }

    #[test]
    fn overlay_replaces_and_appends_fields() {
        let spec = overlay(
            r#"{"workload":["mg"],"page_shift":[12,14]}"#,
            r#"{"page_shift":16,"scale":64}"#,
        );
        assert_eq!(spec, r#"{"workload":["mg"],"page_shift":16,"scale":64}"#);
    }

    #[test]
    fn fig11_rows_read_workload_then_page_then_design() {
        let narrow =
            r#"{"workload":"pgbench","mode":["n-1","live"],"page_shift":[14,16],"interval":2000}"#;
        let grid = run_spec(FIG11, &quick(), &[narrow]);
        assert_eq!(grid.len(), 4);
        assert!(grid.iter().all(|c| c.latency > 0.0 && c.interval == 2_000), "{grid:?}");
        let axes: Vec<(String, String)> =
            fig11_rows(&grid, 2_000).into_iter().map(|r| (r[1].clone(), r[2].clone())).collect();
        let want = [("16KB", "N-1"), ("16KB", "Live"), ("64KB", "N-1"), ("64KB", "Live")];
        assert_eq!(axes, want.map(|(p, d)| (p.to_string(), d.to_string())));
    }

    #[test]
    fn table4_row_is_consistent() {
        let narrow = r#"{"workload":"pgbench","page_shift":16,"interval":2000}"#;
        let grid = run_spec(TABLE4, &quick(), &[narrow]);
        let (stat, best, eta) = table4_row(&grid);
        assert!(best.latency < stat.latency, "{best:?} vs {stat:?}");
        assert!(eta > 0.0 && eta <= 100.0, "{eta}");
        assert!(best.dram_core < best.latency, "{best:?}");
    }

    #[test]
    fn fig15_migration_tracks_capacity() {
        let narrow = r#"{"workload":"specjbb","interval":2000,"on_package":["128M","512M"]}"#;
        let grid = run_spec(FIG15, &quick(), &[narrow]);
        let pairs = fig15_pairs(&grid);
        assert_eq!(pairs.len(), 2);
        let (small, large) = (pairs[0].0, pairs[1].0);
        assert_eq!((small.on_package, large.on_package), (128 << 20, 512 << 20));
        // Larger on-package memory can only help (allow small noise).
        assert!(large.latency <= small.latency * 1.05, "large {large:?} vs small {small:?}");
        // Migration stays below no-migration at every capacity (the
        // paper's Fig. 15 observation).
        for (live, stat) in &pairs {
            assert!(live.latency < stat.latency, "{live:?} vs {stat:?}");
        }
    }

    #[test]
    fn fig16_power_rises_with_migration_frequency() {
        let narrow = r#"{"workload":"pgbench","page_shift":14,"interval":[1000,20000]}"#;
        let grid = run_spec(FIG16, &quick(), &[narrow]);
        let (fast, slow) = (&grid[0], &grid[1]);
        assert_eq!((fast.interval, slow.interval), (1_000, 20_000));
        assert!(
            fast.power >= slow.power,
            "more frequent swapping must not cost less power: fast {} slow {}",
            fast.power,
            slow.power
        );
    }
}
