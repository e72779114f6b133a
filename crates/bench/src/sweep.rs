//! Figure rendering from sweep documents, behind `hmm-bench sweep`.
//!
//! Two entry points, one contract:
//!
//! - [`figures_from_spec`] runs a grid spec in-process — the exact
//!   pipeline a sweep takes through the serving layer (expand → request
//!   parse/dedup → grid run → serve renderer → aggregate) — and returns
//!   the `hmm-sweep-figures-v1` document. Because every stage is
//!   byte-deterministic, the document is byte-identical to what
//!   `GET /v1/sweeps/<id>` reports for the same spec, whether the sweep
//!   ran on one server or across a coordinator's peers.
//! - [`render_figures`] turns any figures document — fetched over HTTP
//!   or produced locally — into one text row per cell plus the merged
//!   totals. (The `figures` binary prints the paper's own layouts for
//!   the grids checked in under `crates/bench/specs/`.)

use std::collections::HashSet;

use hmm_serve::request::{parse_body, Limits};
use hmm_serve::response::render_run;
use hmm_simulator::run_grid;
use hmm_sweep::aggregate::{figures_doc, FIGURES_SCHEMA};
use hmm_sweep::expand;

use crate::{cells, f1, render_table};
use hmm_telemetry::jsonin::{self, Json};

/// Expand a grid spec, run every unique cell in-process, and aggregate
/// the rendered results into the `hmm-sweep-figures-v1` document.
///
/// Cells are admitted under `limits`, as a server admits them:
/// `Limits::default()` makes the document match a default `hmm-serve`'s,
/// refusals included.
pub fn figures_from_spec(
    spec_text: &str,
    max_cells: usize,
    limits: &Limits,
) -> Result<String, String> {
    let bodies = expand(spec_text, max_cells)?;
    let mut sims = Vec::new();
    let mut seen = HashSet::new();
    for (i, body) in bodies.iter().enumerate() {
        let sim = parse_body(body, limits).map_err(|e| format!("cell {i}: {e}"))?;
        // Dedup by canonical text, as the server does: configurations
        // sharing a cache key are still distinct cells.
        if seen.insert(sim.canonical.clone()) {
            sims.push(sim);
        }
    }
    let cfgs: Vec<_> = sims.iter().map(|s| s.cfg).collect();
    let results = run_grid(&cfgs);
    let rendered: Vec<String> =
        sims.iter().zip(&results).map(|(s, r)| render_run(&s.canonical, r)).collect();
    figures_doc(&rendered)
}

fn need_f64(v: &Json, name: &str) -> Result<f64, String> {
    v.get(name).and_then(Json::as_f64).ok_or_else(|| format!("figure row missing '{name}'"))
}

fn need_str<'a>(v: &'a Json, name: &str) -> Result<&'a str, String> {
    v.get(name).and_then(Json::as_str).ok_or_else(|| format!("figure row missing '{name}'"))
}

/// Render a figures document as text tables: one row per cell plus the
/// merged controller/swap totals the document reconciles against.
pub fn render_figures(doc_text: &str) -> Result<String, String> {
    let doc = jsonin::parse(doc_text).map_err(|e| format!("invalid figures document: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(FIGURES_SCHEMA) => {}
        Some(other) => return Err(format!("unsupported schema '{other}' (want {FIGURES_SCHEMA})")),
        None => return Err("document lacks a schema field".into()),
    }
    let rows =
        doc.get("figure_rows").and_then(Json::as_arr).ok_or("document lacks 'figure_rows'")?;
    // A condensed row carries no on-package capacity, so that column is
    // read from the embedded result body of the same cell.
    let bodies = doc.get("results").and_then(Json::as_arr).ok_or("document lacks 'results'")?;
    if bodies.len() != rows.len() {
        return Err(format!("{} figure rows but {} results", rows.len(), bodies.len()));
    }
    let mut table = Vec::with_capacity(rows.len());
    for (row, body) in rows.iter().zip(bodies) {
        let config = body.get("config").ok_or("result body lacks 'config'")?;
        let power = match row.get("normalized_power") {
            Some(Json::Num(p)) => format!("{p:.3}"),
            _ => "-".into(),
        };
        // Documents aggregated before the scheme axis existed lack the
        // field; they were all implicitly the paper's controller.
        let scheme = row.get("scheme").and_then(Json::as_str).unwrap_or("hetero");
        table.push(cells([
            need_str(row, "workload")?.to_string(),
            need_str(row, "mode")?.to_string(),
            scheme.to_string(),
            format!("{:.0}", need_f64(row, "page_bytes")?),
            format!("{:.0}", need_f64(config, "on_package")?),
            format!("{:.0}", need_f64(row, "interval")?),
            format!("{:.0}", need_f64(row, "seed")?),
            f1(need_f64(row, "mean_latency_cycles")?),
            format!("{:.0}", need_f64(row, "p99_latency_cycles")?),
            format!("{:.1}", need_f64(row, "on_package_fraction")? * 100.0),
            power,
        ]));
    }
    let mut out = render_table(
        "sweep figures",
        &[
            "workload", "mode", "scheme", "page B", "on-pkg B", "interval", "seed", "mean lat",
            "p99 lat", "on%", "power",
        ],
        &table,
    );

    let totals = doc.get("totals").ok_or("document lacks 'totals'")?;
    let ctrl = totals.get("controller").ok_or("totals lack 'controller'")?;
    let swaps = totals.get("swaps").ok_or("totals lack 'swaps'")?;
    let t = |v: &Json, n: &str| need_f64(v, n).map(|f| format!("{f:.0}"));
    out.push_str(&render_table(
        "sweep totals",
        &[
            "cells",
            "demand on",
            "demand off",
            "migr on",
            "migr off",
            "stalls",
            "epochs",
            "swaps done",
            "blocks copied",
            "aborted",
        ],
        &[cells([
            t(&doc, "cells")?,
            t(ctrl, "demand_on_lines")?,
            t(ctrl, "demand_off_lines")?,
            t(ctrl, "migration_on_lines")?,
            t(ctrl, "migration_off_lines")?,
            t(ctrl, "stall_cycles")?,
            t(ctrl, "epochs")?,
            t(swaps, "completed")?,
            t(swaps, "sub_blocks_copied")?,
            t(swaps, "aborted")?,
        ])],
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"workload":"pgbench","mode":["static","live"],
        "accesses":3000,"scale":64,"seed":7}"#;

    #[test]
    fn spec_runs_deterministically_and_renders() {
        let a = figures_from_spec(SPEC, 16, &Limits::default()).unwrap();
        let b = figures_from_spec(SPEC, 16, &Limits::default()).unwrap();
        assert_eq!(a, b, "in-process figures must be byte-deterministic");
        let doc = jsonin::parse(&a).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(FIGURES_SCHEMA));
        assert_eq!(doc.get("cells").unwrap().as_f64(), Some(2.0));

        let text = render_figures(&a).unwrap();
        assert!(text.contains("== sweep figures =="), "{text}");
        assert!(text.contains("== sweep totals =="), "{text}");
        assert!(text.contains("pgbench"), "{text}");
        assert!(text.contains("live"), "{text}");
    }

    #[test]
    fn duplicate_cells_coalesce() {
        let spec = r#"{"workload":"pgbench","mode":"static","accesses":3000,
            "scale":64,"page":["64K",65536]}"#;
        let doc = jsonin::parse(&figures_from_spec(spec, 16, &Limits::default()).unwrap()).unwrap();
        assert_eq!(doc.get("cells").unwrap().as_f64(), Some(1.0), "two spellings, one cell");
    }

    #[test]
    fn cells_sharing_a_cache_key_stay_distinct() {
        // These two seeds' canonical configs share one `fxhash64` key.
        let spec = r#"{"workload":"pgbench","mode":"live","accesses":10000,"interval":1000,
            "scale":64,"seed":[1669855655857084,1669855655857834]}"#;
        let doc = jsonin::parse(&figures_from_spec(spec, 16, &Limits::default()).unwrap()).unwrap();
        assert_eq!(doc.get("cells").unwrap().as_f64(), Some(2.0), "two configs, two cells");
    }

    #[test]
    fn scheme_column_renders_in_figure_tables() {
        let spec = r#"{"workload":"pgbench","mode":"live","accesses":3000,
            "scale":64,"seed":7,"scheme":["hetero","pcm"]}"#;
        let doc_text = figures_from_spec(spec, 16, &Limits::default()).unwrap();
        let doc = jsonin::parse(&doc_text).unwrap();
        let rows = doc.get("figure_rows").unwrap().as_arr().unwrap();
        let schemes: Vec<&str> =
            rows.iter().map(|r| r.get("scheme").unwrap().as_str().unwrap()).collect();
        assert_eq!(schemes, ["hetero", "pcm"], "one row per scheme, in cell order");

        let text = render_figures(&doc_text).unwrap();
        let header = text.lines().find(|l| l.contains("workload")).unwrap();
        assert!(header.contains("scheme"), "missing scheme column: {header}");
        assert!(text.lines().any(|l| l.contains("pcm")), "{text}");
        // A pre-scheme document (rows without the field) still renders,
        // defaulting to the paper's controller.
        let legacy =
            doc_text.replace(r#","scheme":"pcm""#, "").replace(r#","scheme":"hetero""#, "");
        let text = render_figures(&legacy).unwrap();
        assert!(!text.contains("pcm"), "{text}");
        assert!(text.lines().filter(|l| l.contains("hetero")).count() >= 2, "{text}");
    }

    #[test]
    fn on_package_column_tells_capacity_cells_apart() {
        let spec = r#"{"workload":"pgbench","mode":"static","accesses":3000,
            "scale":64,"on_package":["128M","512M"]}"#;
        let text =
            render_figures(&figures_from_spec(spec, 16, &Limits::default()).unwrap()).unwrap();
        let header = text.lines().find(|l| l.contains("workload")).unwrap();
        assert!(header.contains("on-pkg B"), "missing on-package column: {header}");
        let rows: Vec<&str> = text.lines().filter(|l| l.starts_with("pgbench")).collect();
        assert_eq!(rows.len(), 2, "{text}");
        assert!(rows[0].contains(&(128u64 << 20).to_string()), "{}", rows[0]);
        assert!(rows[1].contains(&(512u64 << 20).to_string()), "{}", rows[1]);
        assert_ne!(rows[0], rows[1]);
    }

    #[test]
    fn access_limit_is_the_callers() {
        let spec = r#"{"workload":"pgbench","mode":"static","accesses":3000,"scale":64}"#;
        let tight = Limits { max_accesses: 2_999 };
        assert!(figures_from_spec(spec, 16, &tight).unwrap_err().contains("exceeds"));
        assert!(figures_from_spec(spec, 16, &Limits::default()).is_ok());
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(figures_from_spec("[", 16, &Limits::default())
            .unwrap_err()
            .contains("invalid JSON"));
        assert!(figures_from_spec(r#"{"workload":"warehouse"}"#, 16, &Limits::default())
            .unwrap_err()
            .contains("cell 0"));
        assert!(render_figures("{").unwrap_err().contains("invalid figures document"));
        assert!(render_figures("{}").unwrap_err().contains("schema"));
        assert!(render_figures(r#"{"schema":"other-v9"}"#).unwrap_err().contains("other-v9"));
    }
}
