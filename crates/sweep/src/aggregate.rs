//! Exact aggregation of per-cell results into the sweep figures
//! document.
//!
//! The serving layer renders every completed run as an
//! `hmm-serve-sim-v1` body — a pure, byte-deterministic function of the
//! canonical config. Aggregation therefore works on *bodies*, not live
//! `RunResult`s: fold the counters parsed back out of each body and
//! embed the bodies themselves verbatim. Any path that produces the
//! same bodies in the same cell order — the coordinator collecting from
//! peers over HTTP, a single server's worker pool, or `hmm-bench sweep`
//! simulating in-process — produces a byte-identical figures document,
//! which is the property the sweep e2e suite and the CI smoke job pin.
//!
//! Counter parse-back is exact: every `ControllerStats`/`SwapStats`
//! field is a `u64` far below 2^53, so the `f64`-typed JSON reader
//! loses nothing, and the merged totals equal the
//! [`ControllerStats::merge`]/[`SwapStats::merge`] fold of the same
//! cells' `RunResult`s field for field. The renderers these parsers
//! invert ([`controller_json`], [`swaps_json`]) live here so the
//! contract has one home; `hmm-serve` re-exports them.

use hmm_core::{ControllerStats, SwapStats};
use hmm_telemetry::jsonin::{self, Json};
use hmm_telemetry::{JsonArray, JsonObject};

/// Schema tag of the figures document.
pub const FIGURES_SCHEMA: &str = "hmm-sweep-figures-v1";

/// Render merged `ControllerStats` with stable field names.
pub fn controller_json(s: &ControllerStats) -> String {
    JsonObject::new()
        .u64("demand_on_lines", s.demand_on_lines)
        .u64("demand_off_lines", s.demand_off_lines)
        .u64("migration_on_lines", s.migration_on_lines)
        .u64("migration_off_lines", s.migration_off_lines)
        .u64("stall_cycles", s.stall_cycles)
        .u64("epochs", s.epochs)
        .u64("rejected_triggers", s.rejected_triggers)
        .u64("transfer_retries", s.transfer_retries)
        .u64("transfers_dropped", s.transfers_dropped)
        .u64("transfers_timed_out", s.transfers_timed_out)
        .u64("transfers_ecc_failed", s.transfers_ecc_failed)
        .u64("abandoned_sub_blocks", s.abandoned_sub_blocks)
        .u64("row_corruptions", s.row_corruptions)
        .u64("slots_quarantined", s.slots_quarantined)
        .finish()
}

/// Render merged `SwapStats` with stable field names.
pub fn swaps_json(s: &SwapStats) -> String {
    JsonObject::new()
        .u64("triggered", s.triggered)
        .u64("completed", s.completed)
        .u64("case_a", s.case_counts[0])
        .u64("case_b", s.case_counts[1])
        .u64("case_c", s.case_counts[2])
        .u64("case_d", s.case_counts[3])
        .u64("sub_blocks_copied", s.sub_blocks_copied)
        .u64("aborted", s.aborted)
        .u64("rolled_back_sub_blocks", s.rolled_back_sub_blocks)
        .u64("quarantine_drains", s.quarantine_drains)
        .finish()
}

fn counter(v: &Json, name: &str) -> Result<u64, String> {
    let f =
        v.get(name).and_then(Json::as_f64).ok_or_else(|| format!("missing counter '{name}'"))?;
    if f.fract() != 0.0 || !(0.0..=9.007_199_254_740_992e15).contains(&f) {
        return Err(format!("counter '{name}' is not an exact integer: {f}"));
    }
    Ok(f as u64)
}

/// Parse a [`controller_json`] rendering back; exact for all counters.
pub fn controller_from_json(v: &Json) -> Result<ControllerStats, String> {
    Ok(ControllerStats {
        demand_on_lines: counter(v, "demand_on_lines")?,
        demand_off_lines: counter(v, "demand_off_lines")?,
        migration_on_lines: counter(v, "migration_on_lines")?,
        migration_off_lines: counter(v, "migration_off_lines")?,
        stall_cycles: counter(v, "stall_cycles")?,
        epochs: counter(v, "epochs")?,
        rejected_triggers: counter(v, "rejected_triggers")?,
        transfer_retries: counter(v, "transfer_retries")?,
        transfers_dropped: counter(v, "transfers_dropped")?,
        transfers_timed_out: counter(v, "transfers_timed_out")?,
        transfers_ecc_failed: counter(v, "transfers_ecc_failed")?,
        abandoned_sub_blocks: counter(v, "abandoned_sub_blocks")?,
        row_corruptions: counter(v, "row_corruptions")?,
        slots_quarantined: counter(v, "slots_quarantined")?,
    })
}

/// Parse a [`swaps_json`] rendering back; exact for all counters.
pub fn swaps_from_json(v: &Json) -> Result<SwapStats, String> {
    Ok(SwapStats {
        triggered: counter(v, "triggered")?,
        completed: counter(v, "completed")?,
        case_counts: [
            counter(v, "case_a")?,
            counter(v, "case_b")?,
            counter(v, "case_c")?,
            counter(v, "case_d")?,
        ],
        sub_blocks_copied: counter(v, "sub_blocks_copied")?,
        aborted: counter(v, "aborted")?,
        rolled_back_sub_blocks: counter(v, "rolled_back_sub_blocks")?,
        quarantine_drains: counter(v, "quarantine_drains")?,
    })
}

/// Counters accumulated across a sweep's cells, built from result
/// bodies: the exact merge of the cells' controller and swap counters.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Result bodies folded in.
    pub cells: u64,
    /// Summed controller counters over all cells.
    pub controller: ControllerStats,
    /// Summed migration counters over all migrating cells.
    pub swaps: SwapStats,
}

impl Totals {
    /// Fold one `hmm-serve-sim-v1` body's counters into the totals.
    pub fn absorb_body(&mut self, body: &str) -> Result<(), String> {
        let doc = jsonin::parse(body).map_err(|e| format!("invalid result body: {e}"))?;
        let ctrl = doc.get("controller").ok_or("result body lacks 'controller'")?;
        self.controller.merge(&controller_from_json(ctrl)?);
        match doc.get("swaps") {
            Some(Json::Null) | None => {}
            Some(s) => self.swaps.merge(&swaps_from_json(s)?),
        }
        self.cells += 1;
        Ok(())
    }

    /// Render the totals with stable field names.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .u64("cells", self.cells)
            .raw("controller", &controller_json(&self.controller))
            .raw("swaps", &swaps_json(&self.swaps))
            .finish()
    }
}

/// One condensed figure row, extracted from a result body: the axes the
/// paper plots against plus the headline metrics. Everything is
/// re-rendered through the workspace's shortest-round-trip formatting,
/// so extraction is deterministic given the body.
fn figure_row(body: &Json) -> Result<String, String> {
    let config = body.get("config").ok_or("result body lacks 'config'")?;
    let access = body.get("access").ok_or("result body lacks 'access'")?;
    let need_str = |v: &Json, n: &str| {
        v.get(n).and_then(Json::as_str).map(str::to_string).ok_or(format!("missing '{n}'"))
    };
    let need_f64 =
        |v: &Json, n: &str| v.get(n).and_then(Json::as_f64).ok_or(format!("missing '{n}'"));
    let page_shift = counter(config, "page_shift")?;
    // The canonical config omits the default scheme, so the row spells
    // it out: scheme is a sweep axis, and rows from different schemes
    // must stay distinguishable once condensed.
    let scheme = match config.get("scheme") {
        Some(v) => v.as_str().ok_or("'scheme' is not a string")?.to_string(),
        None => "hetero".to_string(),
    };
    let mut row = JsonObject::new()
        .str("workload", &need_str(body, "workload")?)
        .str("mode", &need_str(config, "mode")?)
        .str("scheme", &scheme)
        .u64("page_bytes", 1u64 << page_shift.min(63))
        .u64("interval", counter(config, "interval")?)
        .u64("seed", counter(config, "seed")?)
        .f64("mean_latency_cycles", need_f64(access, "mean_latency_cycles")?)
        .u64("p99_latency_cycles", counter(access, "p99_latency_cycles")?)
        .f64("on_package_fraction", need_f64(access, "on_package_fraction")?);
    row = match body.get("normalized_power") {
        Some(Json::Num(p)) => row.f64("normalized_power", *p),
        _ => row.raw("normalized_power", "null"),
    };
    Ok(row.finish())
}

/// Render the `hmm-sweep-figures-v1` document from the sweep's result
/// bodies, in cell order. The bodies are embedded verbatim under
/// `results`, so the document inherits their byte determinism; `totals`
/// and the condensed `figure_rows` are derived from the same bytes.
pub fn figures_doc(bodies: &[impl AsRef<str>]) -> Result<String, String> {
    let mut totals = Totals::default();
    let mut rows = JsonArray::new();
    let mut results = JsonArray::new();
    for (i, body) in bodies.iter().enumerate() {
        let body = body.as_ref();
        totals.absorb_body(body).map_err(|e| format!("cell {i}: {e}"))?;
        let doc = jsonin::parse(body).map_err(|e| format!("cell {i}: {e}"))?;
        rows = rows.raw(&figure_row(&doc).map_err(|e| format!("cell {i}: {e}"))?);
        results = results.raw(body);
    }
    Ok(JsonObject::new()
        .str("schema", FIGURES_SCHEMA)
        .u64("cells", totals.cells)
        .raw("totals", &totals.to_json())
        .raw("figure_rows", &rows.finish())
        .raw("results", &results.finish())
        .finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_controller() -> ControllerStats {
        ControllerStats {
            demand_on_lines: 10,
            demand_off_lines: 20,
            migration_on_lines: 5,
            migration_off_lines: 5,
            stall_cycles: 100,
            epochs: 3,
            rejected_triggers: 1,
            transfer_retries: 2,
            ..ControllerStats::default()
        }
    }

    fn sample_swaps() -> SwapStats {
        SwapStats {
            triggered: 4,
            completed: 3,
            case_counts: [1, 1, 1, 1],
            sub_blocks_copied: 64,
            aborted: 1,
            ..SwapStats::default()
        }
    }

    fn sample_body(seed: u64, with_swaps: bool) -> String {
        let swaps = if with_swaps { swaps_json(&sample_swaps()) } else { "null".into() };
        let config = JsonObject::new()
            .str("mode", "live")
            .u64("page_shift", 16)
            .u64("interval", 1000)
            .u64("seed", seed)
            .finish();
        let access = JsonObject::new()
            .f64("mean_latency_cycles", 123.5)
            .u64("p99_latency_cycles", 900)
            .f64("on_package_fraction", 0.75)
            .finish();
        JsonObject::new()
            .str("schema", "hmm-serve-sim-v1")
            .str("workload", "pgbench")
            .raw("config", &config)
            .raw("access", &access)
            .raw("controller", &controller_json(&sample_controller()))
            .raw("swaps", &swaps)
            .f64("normalized_power", 0.5)
            .u64("digest", u64::MAX)
            .finish()
    }

    #[test]
    fn stats_round_trip_exactly() {
        let c = sample_controller();
        let parsed = controller_from_json(&jsonin::parse(&controller_json(&c)).unwrap()).unwrap();
        assert_eq!(parsed, c);
        let s = sample_swaps();
        let parsed = swaps_from_json(&jsonin::parse(&swaps_json(&s)).unwrap()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn totals_fold_bodies_with_and_without_swaps() {
        let mut t = Totals::default();
        t.absorb_body(&sample_body(1, true)).unwrap();
        t.absorb_body(&sample_body(2, false)).unwrap();
        assert_eq!(t.cells, 2);
        assert_eq!(t.controller.demand_on_lines, 20, "two bodies merged");
        assert_eq!(t.swaps.triggered, 4, "swap-free body adds nothing");
    }

    #[test]
    fn figures_doc_is_deterministic_and_embeds_bodies_verbatim() {
        let bodies = vec![sample_body(1, true), sample_body(2, false)];
        let a = figures_doc(&bodies).unwrap();
        let b = figures_doc(&bodies).unwrap();
        assert_eq!(a, b);
        // The full-range u64 digest survives because bodies are embedded
        // textually, never re-rendered through f64.
        assert!(a.contains(&u64::MAX.to_string()));
        let doc = jsonin::parse(&a).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(FIGURES_SCHEMA));
        assert_eq!(doc.get("cells").unwrap().as_f64(), Some(2.0));
        let rows = doc.get("figure_rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("page_bytes").unwrap().as_f64(), Some(65536.0));
        assert_eq!(rows[0].get("mean_latency_cycles").unwrap().as_f64(), Some(123.5));
        assert_eq!(rows[1].get("seed").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("results").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn malformed_bodies_are_rejected_with_cell_context() {
        let err = figures_doc(&["{}".to_string()]).unwrap_err();
        assert!(err.contains("cell 0"), "{err}");
    }
}
