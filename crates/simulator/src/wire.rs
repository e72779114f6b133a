//! The canonical wire form of a [`RunConfig`] — one JSON spelling per
//! configuration, shared by every component that names simulations over
//! a byte boundary.
//!
//! `hmm-serve` hashes this rendering for its result-cache key, the sweep
//! subsystem uses the same hash to deduplicate grid cells and to shard
//! them across peers, and coordinator→peer RPC ships the canonical text
//! itself as the `POST /v1/simulate` body. All of that is only sound if
//! the mapping is *bijective on behaviour*: equal configurations — and
//! only equal configurations — produce equal strings, and the string
//! reads back as the exact configuration it came from. The one reader
//! is `hmm_serve::request::parse_body`, which accepts the canonical
//! spelling as a request body; `hmm-sim` resolves its flags through the
//! same function.
//!
//! Fault plans are rendered *structurally* (every [`FaultPlan`] field as
//! a nested JSON object) rather than through `Debug`, so the canonical
//! text survives `Debug`-format churn and can be parsed back by
//! [`fault_plan_from_json`] without a Rust compiler in the loop.
//!
//! One representational limit, inherited from the `jsonin` reader: JSON
//! numbers travel as `f64`, so integers above 2^53 are not exactly
//! representable on this wire. Every counter and knob the simulator
//! exposes stays far below that; the ingestion layer (`hmm-serve`
//! request parsing) already passes numbers through `f64`, so the
//! canonical form is no lossier than the requests that feed it.

use crate::driver::{RunConfig, TraceRef};
use hmm_core::{MigrationPolicy, SchemeId};
use hmm_dram::SchedPolicy;
use hmm_fault::{FaultPlan, FaultRegion, StuckBank, ThrottleSpec, MAX_STUCK_BANKS};
use hmm_sim_base::FxHasher;
use hmm_telemetry::jsonin::Json;
use hmm_telemetry::{JsonArray, JsonObject};
use std::hash::Hasher;

/// The workspace's deterministic 64-bit hash over a byte string: the
/// result-cache key and the sweep-cell identity are both
/// `fxhash64(canonical_json(cfg))`.
pub fn fxhash64(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Canonical token of a scheduling policy (round-trips through
/// [`policy_from_token`]).
pub fn policy_token(p: SchedPolicy) -> &'static str {
    match p {
        SchedPolicy::FrFcfs => "frfcfs",
        SchedPolicy::Fcfs => "fcfs",
    }
}

/// Parse a policy token (accepts the `fr-fcfs` alias used by CLI flags).
pub fn policy_from_token(s: &str) -> Result<SchedPolicy, String> {
    match s.to_ascii_lowercase().as_str() {
        "frfcfs" | "fr-fcfs" => Ok(SchedPolicy::FrFcfs),
        "fcfs" => Ok(SchedPolicy::Fcfs),
        other => Err(format!("unknown policy '{other}'")),
    }
}

fn region_token(r: FaultRegion) -> &'static str {
    match r {
        FaultRegion::On => "on",
        FaultRegion::Off => "off",
        FaultRegion::Both => "both",
    }
}

fn region_from_token(s: &str) -> Result<FaultRegion, String> {
    match s {
        "on" => Ok(FaultRegion::On),
        "off" => Ok(FaultRegion::Off),
        "both" => Ok(FaultRegion::Both),
        other => Err(format!("unknown fault region '{other}'")),
    }
}

/// Render a fault plan as a self-contained JSON object, every field
/// explicit. `stuck_banks` is compacted to its populated entries: plans
/// that differ only in where the `None` holes sit behave identically
/// (the fault hash iterates populated entries), so they canonicalise
/// identically too.
pub fn fault_plan_to_json(plan: &FaultPlan) -> String {
    let mut banks = JsonArray::new();
    for b in plan.stuck_banks.iter().flatten() {
        banks = banks.raw(
            &JsonObject::new()
                .str("region", region_token(b.region))
                .u64("channel", b.channel as u64)
                .u64("bank", b.bank as u64)
                .finish(),
        );
    }
    let mut obj = JsonObject::new()
        .u64("seed", plan.seed)
        .f64("flip_rate", plan.flip_rate)
        .f64("uflip_rate", plan.uflip_rate)
        .f64("drop_rate", plan.drop_rate)
        .f64("timeout_rate", plan.timeout_rate)
        .f64("row_corrupt_rate", plan.row_corrupt_rate)
        .raw("stuck_banks", &banks.finish());
    if let Some(t) = &plan.throttle {
        obj = obj.raw(
            "throttle",
            &JsonObject::new()
                .str("region", region_token(t.region))
                .u64("period", t.period)
                .u64("duration", t.duration)
                .finish(),
        );
    }
    obj.u64("max_retries", plan.max_retries as u64)
        .u64("retry_backoff_cycles", plan.retry_backoff_cycles)
        .u64("quarantine_threshold", plan.quarantine_threshold as u64)
        .u64("spare_slots", plan.spare_slots as u64)
        .finish()
}

fn num_f64(v: &Json, name: &str) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| format!("field '{name}' must be a number"))
}

fn num_u64(v: &Json, name: &str) -> Result<u64, String> {
    let n = num_f64(v, name)?;
    if n.fract() != 0.0 || !(0.0..=(u64::MAX as f64)).contains(&n) {
        return Err(format!("field '{name}' must be a non-negative integer, got {n}"));
    }
    Ok(n as u64)
}

fn num_u32(v: &Json, name: &str) -> Result<u32, String> {
    let n = num_u64(v, name)?;
    u32::try_from(n).map_err(|_| format!("field '{name}' exceeds u32 range"))
}

fn str_field<'a>(v: &'a Json, name: &str) -> Result<&'a str, String> {
    v.as_str().ok_or_else(|| format!("field '{name}' must be a string"))
}

fn require<'a>(obj: &'a Json, name: &str) -> Result<&'a Json, String> {
    obj.get(name).ok_or_else(|| format!("missing field '{name}'"))
}

/// Render a [`TraceRef`] as the canonical workload-slot object.
pub fn trace_ref_to_json(t: &TraceRef) -> String {
    JsonObject::new()
        .str("trace", &t.id())
        .u64("records", t.records)
        .u64("ticks", t.last_tick)
        .u64("max_line", t.max_line)
        .finish()
}

/// Parse a fault plan back from its [`fault_plan_to_json`] form.
pub fn fault_plan_from_json(v: &Json) -> Result<FaultPlan, String> {
    let Json::Obj(_) = v else {
        return Err("'faults' must be an object".into());
    };
    let mut plan = FaultPlan {
        seed: num_u64(require(v, "seed")?, "seed")?,
        flip_rate: num_f64(require(v, "flip_rate")?, "flip_rate")?,
        uflip_rate: num_f64(require(v, "uflip_rate")?, "uflip_rate")?,
        drop_rate: num_f64(require(v, "drop_rate")?, "drop_rate")?,
        timeout_rate: num_f64(require(v, "timeout_rate")?, "timeout_rate")?,
        row_corrupt_rate: num_f64(require(v, "row_corrupt_rate")?, "row_corrupt_rate")?,
        stuck_banks: [None; MAX_STUCK_BANKS],
        throttle: None,
        max_retries: num_u32(require(v, "max_retries")?, "max_retries")?,
        retry_backoff_cycles: num_u64(require(v, "retry_backoff_cycles")?, "retry_backoff_cycles")?,
        quarantine_threshold: num_u32(require(v, "quarantine_threshold")?, "quarantine_threshold")?,
        spare_slots: num_u32(require(v, "spare_slots")?, "spare_slots")?,
    };
    let banks =
        require(v, "stuck_banks")?.as_arr().ok_or("field 'stuck_banks' must be an array")?;
    if banks.len() > MAX_STUCK_BANKS {
        return Err(format!("at most {MAX_STUCK_BANKS} stuck banks"));
    }
    for (slot, b) in plan.stuck_banks.iter_mut().zip(banks) {
        *slot = Some(StuckBank {
            region: region_from_token(str_field(require(b, "region")?, "region")?)?,
            channel: num_u32(require(b, "channel")?, "channel")?,
            bank: num_u32(require(b, "bank")?, "bank")?,
        });
    }
    if let Some(t) = v.get("throttle") {
        plan.throttle = Some(ThrottleSpec {
            region: region_from_token(str_field(require(t, "region")?, "region")?)?,
            period: num_u64(require(t, "period")?, "period")?,
            duration: num_u64(require(t, "duration")?, "duration")?,
        });
    }
    Ok(plan)
}

/// Render a resolved configuration in a fixed field order with canonical
/// value spellings. Equal configurations — and only equal configurations
/// — produce equal strings (modulo `stuck_banks` hole placement, which
/// does not change behaviour).
pub fn canonical_json(cfg: &RunConfig) -> String {
    // A replayed trace takes the workload slot as a self-contained
    // object: the content hash is the identity and the summary fields
    // make geometry (and hence behaviour) a pure function of the text.
    // The synthetic-only knobs a replay ignores (`workload` token,
    // `seed`) are normalised away so two requests that replay the same
    // trace can never canonicalise differently.
    let mut obj = JsonObject::new();
    obj = match &cfg.trace {
        Some(t) => obj.raw("workload", &trace_ref_to_json(t)),
        None => obj.str("workload", cfg.workload.token()),
    };
    obj = obj
        .str("mode", cfg.mode.token())
        .u64("page_shift", cfg.page_shift as u64)
        .u64("sub_block_shift", cfg.sub_block_shift as u64)
        .u64("interval", cfg.swap_interval)
        .u64("accesses", cfg.accesses)
        .u64("warmup", cfg.warmup)
        .u64("scale", cfg.scale.divisor)
        .u64("seed", if cfg.trace.is_some() { 0 } else { cfg.seed })
        .u64("on_package", cfg.on_package_bytes)
        .u64("total", cfg.total_bytes)
        .str("policy", policy_token(cfg.policy));
    // Scheme and migration-policy fields are emitted only when they differ
    // from the defaults: every pre-scheme configuration keeps its exact
    // canonical text, so result-cache keys, sweep-cell identities and
    // snapshot config hashes are all unchanged for existing runs.
    if cfg.scheme != SchemeId::Hetero {
        obj = obj.str("scheme", cfg.scheme.token());
    }
    if cfg.migration != MigrationPolicy::HotCold {
        obj = obj.str("migration", cfg.migration.token());
    }
    if let Some(v) = cfg.os_assisted {
        obj = obj.bool("os_assisted", v);
    }
    if let Some(plan) = &cfg.faults {
        obj = obj.raw("faults", &fault_plan_to_json(plan));
    }
    obj.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_core::Mode;
    use hmm_telemetry::jsonin;
    use hmm_workloads::WorkloadId;

    fn sample_plan() -> FaultPlan {
        FaultPlan {
            seed: 9,
            flip_rate: 1e-4,
            uflip_rate: 2.5e-7,
            drop_rate: 0.001,
            timeout_rate: 0.0005,
            row_corrupt_rate: 1e-3,
            stuck_banks: [
                Some(StuckBank { region: FaultRegion::On, channel: 1, bank: 3 }),
                Some(StuckBank { region: FaultRegion::Both, channel: 0, bank: 7 }),
                None,
                None,
            ],
            throttle: Some(ThrottleSpec {
                region: FaultRegion::Off,
                period: 10_000,
                duration: 500,
            }),
            ..FaultPlan::default()
        }
    }

    #[test]
    fn fault_plan_round_trips_structurally() {
        let plan = sample_plan();
        let text = fault_plan_to_json(&plan);
        let parsed = fault_plan_from_json(&jsonin::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, plan);
        assert_eq!(fault_plan_to_json(&parsed), text, "render must be a fixed point");
    }

    #[test]
    fn stuck_bank_holes_do_not_change_the_canonical_form() {
        let mut a = sample_plan();
        let mut b = sample_plan();
        // Same populated banks, different hole placement: behaviourally
        // identical, so the canonical text must coincide.
        a.stuck_banks = [a.stuck_banks[0], None, a.stuck_banks[1], None];
        b.stuck_banks = [None, b.stuck_banks[0], None, b.stuck_banks[1]];
        assert_eq!(fault_plan_to_json(&a), fault_plan_to_json(&b));
    }

    #[test]
    fn trace_canonical_normalises_synthetic_knobs() {
        let t = TraceRef {
            hash: 0x0123456789abcdef,
            records: 5_000,
            last_tick: 99_000,
            max_line: 1 << 18,
        };
        let mut cfg = RunConfig::quick(WorkloadId::Pgbench, Mode::Static);
        cfg.trace = Some(t);
        cfg.seed = 77; // inert under replay; must not leak into the text
        let text = canonical_json(&cfg);
        assert!(text.starts_with(r#"{"workload":{"trace":"0123456789abcdef""#), "{text}");
        assert!(text.contains(r#""seed":0"#), "{text}");

        // Same trace, different inert knobs: identical canonical text.
        let mut other = cfg;
        other.seed = 123;
        other.workload = WorkloadId::Mg;
        // (workload token is also normalised away under replay)
        let mut other_text = canonical_json(&other);
        // `workload` only affects the synthetic arm; under replay both
        // configs must share one canonical spelling.
        assert_eq!(other_text, text);
        // A different trace hash must change the text.
        other.trace = Some(TraceRef { hash: 1, ..t });
        other_text = canonical_json(&other);
        assert_ne!(other_text, text);
    }

    #[test]
    fn distinct_plans_get_distinct_canonical_text() {
        let base = sample_plan();
        let mut variants = Vec::new();
        for f in [
            |p: &mut FaultPlan| p.seed += 1,
            |p: &mut FaultPlan| p.flip_rate *= 2.0,
            |p: &mut FaultPlan| p.max_retries += 1,
            |p: &mut FaultPlan| p.throttle = None,
            |p: &mut FaultPlan| p.stuck_banks[1] = None,
            |p: &mut FaultPlan| p.spare_slots += 1,
        ] {
            let mut v = base;
            f(&mut v);
            variants.push(fault_plan_to_json(&v));
        }
        let canonical = fault_plan_to_json(&base);
        for v in variants {
            assert_ne!(v, canonical);
        }
    }
}
