//! Deterministic rendering of simulation results to wire JSON.
//!
//! [`render_run`] is a pure function of the canonical request and the
//! `RunResult`, with a fixed field order and the workspace's fixed
//! `f64` formatting — so two runs of the same request produce
//! byte-identical bodies, which is what makes whole-response caching
//! sound. Cache status deliberately never appears in the body (it rides
//! in the `X-Cache` response header): a hit and a miss for the same
//! request must be indistinguishable on the wire.

use crate::metrics::{controller_json, swaps_json};
use hmm_power::{normalized_power, EnergyParams};
use hmm_simulator::driver::RunResult;
use hmm_telemetry::JsonObject;

/// Render the response body for one completed run. `canonical` is the
/// canonical JSON of the resolved configuration (embedded verbatim, so
/// clients can see exactly what was simulated, defaults and all).
pub fn render_run(canonical: &str, result: &RunResult) -> String {
    let geometry = JsonObject::new()
        .u64("total_bytes", result.geometry.total_bytes)
        .u64("on_package_bytes", result.geometry.on_package_bytes)
        .u64("page_shift", u64::from(result.geometry.page_shift))
        .u64("sub_block_shift", u64::from(result.geometry.sub_block_shift))
        .finish();
    let access = JsonObject::new()
        .u64("accesses", result.access.accesses())
        .u64("reads", result.access.reads)
        .u64("writes", result.access.writes)
        .f64("mean_latency_cycles", result.access.mean_latency())
        .f64("dram_core_mean", result.access.dram_core.mean())
        .f64("queuing_mean", result.access.queuing.mean())
        .f64("controller_mean", result.access.controller.mean())
        .f64("interconnect_mean", result.access.interconnect.mean())
        .u64("p99_latency_cycles", result.access.histogram.quantile(0.99))
        .f64("on_package_fraction", result.access.on_package_fraction())
        .finish();
    let traffic = result.traffic();
    let mut out = JsonObject::new()
        .str("schema", "hmm-serve-sim-v1")
        .str("workload", &result.workload)
        .raw("config", canonical)
        .raw("geometry", &geometry)
        .raw("access", &access)
        .raw("controller", &controller_json(&result.controller));
    out = match &result.swaps {
        Some(s) => out.raw("swaps", &swaps_json(s)),
        None => out.raw("swaps", "null"),
    };
    out = match normalized_power(&EnergyParams::default(), &traffic) {
        Some(p) => out.f64("normalized_power", p),
        None => out.raw("normalized_power", "null"),
    };
    // Endurance-tracking schemes (PCM) report wear; the field is absent —
    // not null — otherwise, so pre-existing scheme bodies stay
    // byte-identical.
    if let Some(w) = &result.wear {
        let wear = JsonObject::new()
            .u64("write_lines", w.write_lines)
            .u64("max_bank_writes", w.max_bank_writes)
            .u64("banks", w.banks)
            .f64("imbalance", w.imbalance())
            .finish();
        out = out.raw("wear", &wear);
    }
    out.u64("digest", digest(result)).finish()
}

/// True when `body`, a [`render_run`] output, was rendered for
/// `canonical`. The canonical text is a request's identity; the cache key
/// is only its 64-bit `fxhash64`, which near-identical configurations can
/// share, so every reuse found by key checks this before serving.
pub fn renders_config(body: &str, canonical: &str) -> bool {
    // The first `,"config":` is the field itself: a JSON string cannot
    // hold an unescaped quote, so the workload name before it cannot
    // fake one. The canonical text is one complete object, so matching
    // it as a prefix up to the next field's comma matches it exactly.
    const FIELD: &str = ",\"config\":";
    body.find(FIELD)
        .and_then(|at| body[at + FIELD.len()..].strip_prefix(canonical))
        .is_some_and(|rest| rest.starts_with(','))
}

/// A stable fingerprint of the run's counters, included in the body so
/// clients (and the determinism tests) can compare runs cheaply.
fn digest(result: &RunResult) -> u64 {
    use hmm_sim_base::fxhash::FxHasher;
    use std::hash::Hasher;
    let mut h = FxHasher::default();
    let c = &result.controller;
    for v in [
        result.access.accesses(),
        result.access.reads,
        result.access.writes,
        result.access.on_package_hits,
        result.access.latency.total() as u64,
        c.demand_on_lines,
        c.demand_off_lines,
        c.migration_on_lines,
        c.migration_off_lines,
        c.stall_cycles,
        c.epochs,
    ] {
        h.write_u64(v);
    }
    if let Some(s) = &result.swaps {
        h.write_u64(s.triggered);
        h.write_u64(s.completed);
        h.write_u64(s.sub_blocks_copied);
    }
    h.finish()
}

/// Render a structured error body.
pub fn error_body(message: &str) -> String {
    JsonObject::new().str("error", message).finish()
}

/// Render one trace-registry entry (`POST`/`GET /v1/traces`).
pub fn trace_summary_json(s: &hmm_workloads::TraceSummary) -> String {
    JsonObject::new()
        .str("id", &s.id())
        .u64("records", s.records)
        .u64("ticks", s.last_tick)
        .u64("max_line", s.max_line)
        .u64("footprint_bytes", s.footprint_bytes())
        .f64("read_fraction", s.read_fraction())
        .finish()
}

/// Render the status document for a job (`GET /v1/jobs/<id>`). The
/// `body` of a done job is embedded raw under `result`.
pub fn job_status(id: u64, state: &crate::jobs::JobState) -> String {
    use crate::jobs::JobState;
    let mut out = JsonObject::new().u64("id", id).str("status", state.label());
    out = match state {
        JobState::Done(body) => out.raw("result", body),
        JobState::Failed(msg) => out.str("error", msg),
        _ => out,
    };
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobState;
    use hmm_core::Mode;
    use hmm_simulator::driver::{run, RunConfig};
    use hmm_telemetry::jsonin;
    use hmm_workloads::WorkloadId;
    use std::sync::Arc;

    fn quick_result() -> RunResult {
        run(&RunConfig {
            accesses: 5_000,
            warmup: 500,
            ..RunConfig::quick(WorkloadId::Pgbench, "live".parse::<Mode>().unwrap())
        })
    }

    #[test]
    fn render_is_deterministic_and_parseable() {
        let canonical = r#"{"workload":"pgbench"}"#;
        let a = render_run(canonical, &quick_result());
        let b = render_run(canonical, &quick_result());
        assert_eq!(a, b, "same config renders byte-identical bodies");
        let doc = jsonin::parse(&a).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("hmm-serve-sim-v1"));
        assert_eq!(
            doc.get("config").unwrap().get("workload").unwrap().as_str(),
            Some("pgbench"),
            "canonical config embedded verbatim"
        );
        assert!(
            doc.get("access").unwrap().get("mean_latency_cycles").unwrap().as_f64().unwrap() > 0.0
        );
        assert!(doc.get("digest").unwrap().as_f64().is_some());
    }

    #[test]
    fn renders_config_matches_only_the_embedded_config() {
        let result = quick_result();
        let canonical = r#"{"workload":"pgbench","seed":1}"#;
        let body = render_run(canonical, &result);
        assert!(renders_config(&body, canonical));
        assert!(!renders_config(&body, r#"{"workload":"pgbench","seed":2}"#));
        assert!(!renders_config(&body, r#"{"workload":"pgbench","seed":1"#), "a strict prefix");
        assert!(!renders_config(&body, r#"{"workload":"pgbench"}"#));
        assert!(!renders_config(r#"{"error":"x"}"#, canonical), "not a result body");
    }

    #[test]
    fn digest_tracks_counters() {
        let base = quick_result();
        let mut other = base.clone();
        other.controller.demand_on_lines += 1;
        assert_ne!(digest(&base), digest(&other));
    }

    #[test]
    fn job_status_embeds_result_or_error() {
        let done = job_status(7, &JobState::Done(Arc::new(r#"{"x":1}"#.into())));
        let doc = jsonin::parse(&done).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(doc.get("result").unwrap().get("x").unwrap().as_f64(), Some(1.0));

        let failed = job_status(8, &JobState::Failed("boom".into()));
        let doc = jsonin::parse(&failed).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("failed"));
        assert_eq!(doc.get("error").unwrap().as_str(), Some("boom"));

        let queued = job_status(9, &JobState::Queued);
        let doc = jsonin::parse(&queued).unwrap();
        assert!(doc.get("result").is_none());
    }
}
