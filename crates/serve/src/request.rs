//! The JSON wire format of `POST /v1/simulate` and `POST /v1/jobs`, and
//! the canonical form behind the result cache.
//!
//! A request body selects a simulation the same way the `hmm-sim` CLI
//! does — same field names, same value spellings, same defaults — because
//! `hmm-sim` writes its configuration flags into a body and resolves it
//! with [`parse_body`] too:
//!
//! ```json
//! {"workload": "pgbench", "mode": "live", "page": "64K",
//!  "interval": 1000, "accesses": 60000, "warmup": 10000,
//!  "scale": 64, "seed": 42, "on_package": "512M",
//!  "policy": "fcfs", "faults": "stress", "fault_seed": 7,
//!  "timeout_ms": 5000}
//! ```
//!
//! Only `workload` and `mode` are required. Unknown fields are rejected
//! with a structured `400` rather than ignored — a typo like
//! `"intreval"` must not silently simulate something else.
//!
//! **Canonicalisation.** The cache key is `fxhash64` over the canonical
//! JSON rendering of the *resolved* [`RunConfig`]
//! ([`hmm_simulator::wire::canonical_json`]) — every default filled in,
//! sizes reduced to shifts and byte counts, workload and mode reduced to
//! their canonical tokens, fault specs reduced to a structural rendering
//! of the parsed [`FaultPlan`]. Requests that differ in whitespace,
//! field order, or alias spelling (`"jbb"` vs `"specjbb"`) therefore
//! share a cache entry, while any field that changes simulated behaviour
//! changes the key. `timeout_ms` is deliberately *excluded*: it shapes
//! how long the client waits, not what is simulated.
//!
//! The parser also accepts the canonical spelling itself — `page_shift`
//! / `sub_block_shift` instead of sizes, `total`, `os_assisted`, a
//! structural `faults` object, and a summary-carrying trace object — so a
//! canonical rendering is a valid request body, and [`parse_body`] is the
//! one reader of that text. That closes the loop the sweep coordinator
//! relies on: it ships a cell's canonical text verbatim as a peer's
//! `POST /v1/simulate` body, and the peer re-derives the same canonical
//! form, hence the same cache key, on its side of the wire.

use hmm_core::{validate_scheme, MigrationPolicy, Mode, SchemeId};
use hmm_fault::FaultPlan;
use hmm_sim_base::config::{parse_size, SimScale};
use hmm_simulator::driver::{RunConfig, TraceRef};
use hmm_simulator::wire::{self, field_u64};
use hmm_telemetry::jsonin::{self, Json};
use hmm_workloads::{replay, WorkloadId};

// The canonical rendering and its hash live in `hmm_simulator::wire` so
// the sweep subsystem and the coordinator share one definition; they are
// re-exported here because they *are* this module's cache-key contract.
pub use hmm_simulator::wire::{canonical_json, fxhash64};

/// Admission limits enforced while parsing, before anything is queued.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Largest demand-access count one request may ask for.
    pub max_accesses: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_accesses: 2_000_000 }
    }
}

/// One parsed, validated simulation request.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// The fully resolved run configuration.
    pub cfg: RunConfig,
    /// Canonical JSON rendering of `cfg` (echoed in responses; its hash
    /// is the cache key).
    pub canonical: String,
    /// `fxhash64` of `canonical`.
    pub key: u64,
    /// Per-request override of the server's synchronous wait deadline.
    pub timeout_ms: Option<u64>,
}

/// Sizes may be spelled as JSON numbers (bytes) or strings (`"64K"`).
fn field_size(v: &Json, name: &str) -> Result<u64, String> {
    match v {
        Json::Str(s) => parse_size(s).ok_or_else(|| format!("invalid size for '{name}': '{s}'")),
        _ => field_u64(v, name),
    }
}

/// A log2 field (the canonical spelling of a size): must fit a shift.
fn field_shift(v: &Json, name: &str) -> Result<u32, String> {
    let n = field_u64(v, name)?;
    if n >= 64 {
        return Err(format!("field '{name}' must be below 64, got {n}"));
    }
    Ok(n as u32)
}

/// Resolve an object-valued `workload` — `{"trace": "<id>", ...}` — to
/// a [`TraceRef`] against the process-global replay registry.
///
/// The bare form `{"trace": "<id>"}` is what clients write; the
/// canonical rendering additionally carries the summary fields
/// (`records`, `ticks`, `max_line`), and when those are present they
/// must *agree* with the registered trace — an inline summary is an
/// integrity claim, never an override, so a forged summary cannot mint
/// a cache key for a simulation that was not run.
fn trace_from_request(v: &Json) -> Result<TraceRef, String> {
    let Json::Obj(fields) = v else {
        return Err("field 'workload' must be a string or a trace object".into());
    };
    for (name, _) in fields {
        if !["trace", "records", "ticks", "max_line"].contains(&name.as_str()) {
            return Err(format!("unknown trace field '{name}'"));
        }
    }
    let id = v
        .get("trace")
        .ok_or("trace object requires field 'trace'")?
        .as_str()
        .ok_or("field 'trace' must be a string")?;
    let hash = replay::parse_trace_id(id)
        .ok_or_else(|| format!("invalid trace id '{id}' (want 16 hex digits)"))?;
    let Some(summary) = replay::summary(hash) else {
        return Err(format!("unknown trace '{id}' (upload it first via POST /v1/traces)"));
    };
    let t = TraceRef::from_summary(&summary);
    for (name, want) in [("records", t.records), ("ticks", t.last_tick), ("max_line", t.max_line)] {
        if let Some(val) = v.get(name) {
            let got = field_u64(val, name)?;
            if got != want {
                return Err(format!(
                    "trace '{name}' of {got} disagrees with the registered trace ({want})"
                ));
            }
        }
    }
    Ok(t)
}

/// Parse one request body into a resolved, validated [`SimRequest`].
pub fn parse_body(body: &str, limits: &Limits) -> Result<SimRequest, String> {
    let doc = jsonin::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let Json::Obj(fields) = &doc else {
        return Err("request body must be a JSON object".into());
    };

    let mut workload: Option<WorkloadId> = None;
    let mut trace: Option<TraceRef> = None;
    let mut mode: Option<Mode> = None;
    let mut page = 64u64 << 10;
    let mut sub_block: Option<u64> = None;
    let mut interval = 1_000u64;
    let mut accesses = 400_000u64;
    let mut warmup: Option<u64> = None;
    let mut scale = 8u64;
    let mut seed = 42u64;
    let mut on_package = 512u64 << 20;
    let mut total: Option<u64> = None;
    let mut os_assisted: Option<bool> = None;
    let mut policy = hmm_dram::SchedPolicy::FrFcfs;
    let mut scheme = SchemeId::Hetero;
    let mut migration = MigrationPolicy::HotCold;
    let mut faults: Option<FaultPlan> = None;
    let mut fault_seed: Option<u64> = None;
    let mut timeout_ms: Option<u64> = None;

    for (name, value) in fields {
        let as_str = || {
            value.as_str().ok_or_else(|| format!("field '{name}' must be a string")).map(str::trim)
        };
        match name.as_str() {
            "workload" => match value {
                Json::Obj(_) => trace = Some(trace_from_request(value)?),
                _ => workload = Some(as_str()?.parse()?),
            },
            "mode" => mode = Some(as_str()?.parse()?),
            "page" => page = field_size(value, name)?,
            "page_shift" => page = 1u64 << field_shift(value, name)?,
            "sub_block" => sub_block = Some(field_size(value, name)?),
            "sub_block_shift" => sub_block = Some(1u64 << field_shift(value, name)?),
            "interval" => interval = field_u64(value, name)?,
            "accesses" => accesses = field_u64(value, name)?,
            "warmup" => warmup = Some(field_u64(value, name)?),
            "scale" => scale = field_u64(value, name)?.max(1),
            "seed" => seed = field_u64(value, name)?,
            "on_package" => on_package = field_size(value, name)?,
            "total" => total = Some(field_size(value, name)?),
            "os_assisted" => {
                os_assisted = Some(
                    value.as_bool().ok_or_else(|| format!("field '{name}' must be a boolean"))?,
                )
            }
            "policy" => policy = wire::policy_from_token(as_str()?)?,
            "scheme" => scheme = as_str()?.parse()?,
            "migration" => migration = as_str()?.parse()?,
            "faults" => {
                faults = Some(match value {
                    // The canonical structural form...
                    Json::Obj(_) => wire::fault_plan_from_json(value)?,
                    // ...or the CLI's compact spec string.
                    _ => FaultPlan::parse(as_str()?).map_err(|e| format!("faults: {e}"))?,
                })
            }
            "fault_seed" => fault_seed = Some(field_u64(value, name)?),
            "timeout_ms" => timeout_ms = Some(field_u64(value, name)?),
            other => return Err(format!("unknown field '{other}'")),
        }
    }

    // A trace replay fills the workload slot; the synthetic id becomes
    // an inert placeholder (the canonical form renders neither it nor
    // the seed, so they cannot split cache keys).
    let workload = match &trace {
        Some(_) => WorkloadId::Pgbench,
        None => workload.ok_or("field 'workload' is required")?,
    };
    let mode = mode.ok_or("field 'mode' is required")?;
    if !page.is_power_of_two() {
        return Err(format!("'page' must be a power of two, got {page}"));
    }
    if let Some(sb) = sub_block {
        if !sb.is_power_of_two() {
            return Err(format!("'sub_block' must be a power of two, got {sb}"));
        }
    }
    if interval == 0 {
        return Err("'interval' must be at least 1".into());
    }
    if accesses == 0 {
        return Err("'accesses' must be at least 1".into());
    }
    if accesses > limits.max_accesses {
        return Err(format!(
            "'accesses' of {accesses} exceeds this server's limit of {}",
            limits.max_accesses
        ));
    }
    let warmup = warmup.unwrap_or(accesses / 5);
    if warmup >= accesses {
        return Err(format!("'warmup' ({warmup}) must be smaller than 'accesses' ({accesses})"));
    }
    match (&mut faults, fault_seed) {
        (Some(plan), Some(s)) => plan.seed = s,
        (None, Some(_)) => return Err("'fault_seed' requires 'faults'".into()),
        _ => {}
    }
    validate_scheme(scheme, mode, migration)?;

    let base = RunConfig::paper(workload, mode);
    let cfg = RunConfig {
        workload,
        mode,
        page_shift: page.trailing_zeros(),
        sub_block_shift: sub_block.map_or(base.sub_block_shift, |sb| sb.trailing_zeros()),
        swap_interval: interval,
        on_package_bytes: on_package,
        total_bytes: total.unwrap_or(base.total_bytes),
        scale: SimScale { divisor: scale },
        accesses,
        warmup,
        seed,
        os_assisted,
        policy,
        faults,
        scheme,
        migration,
        trace,
    };
    cfg.geometry().validate().map_err(|e| format!("invalid memory geometry: {e}"))?;

    let canonical = canonical_json(&cfg);
    Ok(SimRequest { key: fxhash64(canonical.as_bytes()), cfg, canonical, timeout_ms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_core::MigrationDesign;

    const MINIMAL: &str = r#"{"workload":"pgbench","mode":"live"}"#;

    #[test]
    fn minimal_request_resolves_cli_defaults() {
        let r = parse_body(MINIMAL, &Limits::default()).unwrap();
        assert_eq!(r.cfg.workload, WorkloadId::Pgbench);
        assert_eq!(r.cfg.mode, Mode::Dynamic(MigrationDesign::LiveMigration));
        assert_eq!(r.cfg.page_shift, 16, "64K default page");
        assert_eq!(r.cfg.accesses, 400_000);
        assert_eq!(r.cfg.warmup, 80_000, "accesses/5 default");
        assert_eq!(r.cfg.scale.divisor, 8);
        assert_eq!(r.timeout_ms, None);
    }

    #[test]
    fn key_ignores_whitespace_field_order_and_aliases() {
        let a = parse_body(r#"{"workload":"specjbb","mode":"n-1","seed":7}"#, &Limits::default())
            .unwrap();
        let b = parse_body(
            "{ \"seed\": 7,\n  \"mode\": \"N1\",\n  \"workload\": \"jbb\" }",
            &Limits::default(),
        )
        .unwrap();
        assert_eq!(a.canonical, b.canonical);
        assert_eq!(a.key, b.key);
    }

    #[test]
    fn key_tracks_every_behavioural_field() {
        let base = parse_body(MINIMAL, &Limits::default()).unwrap();
        for variant in [
            r#"{"workload":"pgbench","mode":"n"}"#,
            r#"{"workload":"mg","mode":"live"}"#,
            r#"{"workload":"pgbench","mode":"live","seed":43}"#,
            r#"{"workload":"pgbench","mode":"live","page":"128K"}"#,
            r#"{"workload":"pgbench","mode":"live","interval":999}"#,
            r#"{"workload":"pgbench","mode":"live","accesses":400001}"#,
            r#"{"workload":"pgbench","mode":"live","warmup":1}"#,
            r#"{"workload":"pgbench","mode":"live","scale":64}"#,
            r#"{"workload":"pgbench","mode":"live","on_package":"256M"}"#,
            r#"{"workload":"pgbench","mode":"live","policy":"fcfs"}"#,
            r#"{"workload":"pgbench","mode":"live","faults":"flip=1e-4"}"#,
            r#"{"workload":"pgbench","mode":"live","sub_block":"8K"}"#,
            r#"{"workload":"pgbench","mode":"live","total":"8G"}"#,
            r#"{"workload":"pgbench","mode":"live","os_assisted":true}"#,
            r#"{"workload":"pgbench","mode":"off","scheme":"l4cache"}"#,
            r#"{"workload":"pgbench","mode":"live","scheme":"pcm"}"#,
            r#"{"workload":"pgbench","mode":"live","migration":"mlq"}"#,
        ] {
            let v = parse_body(variant, &Limits::default()).unwrap();
            assert_ne!(v.key, base.key, "{variant} must change the cache key");
        }
    }

    #[test]
    fn trace_requests_resolve_against_the_replay_registry() {
        use hmm_sim_base::config::SimScale;
        use std::sync::Arc;
        // Register a real trace; its id becomes addressable in requests.
        let recs = hmm_workloads::workload(WorkloadId::Pgbench, &SimScale { divisor: 256 })
            .records(0x7e57_0001, 300);
        let mut bytes = Vec::new();
        hmm_workloads::write_binary(&mut bytes, recs).unwrap();
        let data = replay::decode(&bytes).unwrap();
        let summary = data.summary;
        replay::register(Arc::new(data));
        let id = summary.id();

        let bare = format!(r#"{{"workload":{{"trace":"{id}"}},"mode":"live"}}"#);
        let r = parse_body(&bare, &Limits::default()).unwrap();
        assert_eq!(r.cfg.trace, Some(TraceRef::from_summary(&summary)));
        assert!(r.canonical.contains(&id), "{}", r.canonical);
        assert!(r.canonical.contains(r#""seed":0"#), "seed is inert under replay");

        // The canonical (summary-carrying) spelling maps to the same key,
        // and the seed — which only feeds the synthetic generator — is
        // inert. (`scale` stays live: it scales the geometry either way.)
        let full = format!(
            r#"{{"workload":{{"trace":"{id}","records":{},"ticks":{},"max_line":{}}},
                "mode":"live","seed":99}}"#,
            summary.records, summary.last_tick, summary.max_line
        );
        let f = parse_body(&full, &Limits::default()).unwrap();
        assert_eq!(f.key, r.key, "summary spelling and the seed must not change the key");

        // The canonical text itself, summary included, reads back to the
        // same text and key: it is a fixed point of the one parser.
        let echoed = parse_body(&r.canonical, &Limits::default()).unwrap();
        assert_eq!(echoed.canonical, r.canonical);
        assert_eq!(echoed.key, r.key);

        // A forged summary is an integrity failure, not an override.
        let forged = format!(r#"{{"workload":{{"trace":"{id}","records":7}},"mode":"live"}}"#);
        let err = parse_body(&forged, &Limits::default()).unwrap_err();
        assert!(err.contains("disagrees"), "{err}");

        // Unknown ids, malformed ids, and junk fields are rejected.
        for (body, want) in [
            (
                r#"{"workload":{"trace":"00000000000000aa"},"mode":"live"}"#.to_string(),
                "unknown trace",
            ),
            (r#"{"workload":{"trace":"xyz"},"mode":"live"}"#.to_string(), "invalid trace id"),
            (
                format!(r#"{{"workload":{{"trace":"{id}","evil":1}},"mode":"live"}}"#),
                "unknown trace field",
            ),
            (r#"{"workload":{},"mode":"live"}"#.to_string(), "requires field 'trace'"),
        ] {
            let err = parse_body(&body, &Limits::default()).unwrap_err();
            assert!(err.contains(want), "{body} -> {err}");
        }
        replay::unregister(summary.hash);
    }

    #[test]
    fn timeout_is_excluded_from_the_key() {
        let a = parse_body(MINIMAL, &Limits::default()).unwrap();
        let b = parse_body(
            r#"{"workload":"pgbench","mode":"live","timeout_ms":5}"#,
            &Limits::default(),
        )
        .unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(b.timeout_ms, Some(5));
    }

    #[test]
    fn equivalent_fault_specs_share_a_key() {
        let a = parse_body(
            r#"{"workload":"pgbench","mode":"live","faults":"flip=1e-4,seed=9"}"#,
            &Limits::default(),
        )
        .unwrap();
        let b = parse_body(
            r#"{"workload":"pgbench","mode":"live","faults":"flip=0.0001","fault_seed":9}"#,
            &Limits::default(),
        )
        .unwrap();
        assert_eq!(a.key, b.key, "spec spelling must not leak into the key");
    }

    #[test]
    fn canonical_text_is_a_valid_request_body() {
        // The coordinator ships a cell's canonical rendering verbatim as
        // a peer's request body; the peer must resolve it to the same
        // canonical form and hence the same cache key.
        let body = r#"{"workload":"pgbench","mode":"live","page":"128K","sub_block":"8K",
                       "interval":1500,"accesses":50000,"warmup":5000,"scale":64,"seed":7,
                       "os_assisted":false,"faults":"flip=1e-4,drop=0.001","fault_seed":3}"#;
        let r = parse_body(body, &Limits::default()).unwrap();
        let echoed = parse_body(&r.canonical, &Limits::default()).unwrap();
        assert_eq!(echoed.canonical, r.canonical);
        assert_eq!(echoed.key, r.key);
        assert_eq!(echoed.cfg.faults, r.cfg.faults);
    }

    #[test]
    fn structural_and_spec_faults_share_a_key() {
        let spec = parse_body(
            r#"{"workload":"pgbench","mode":"live","faults":"flip=1e-4,seed=9"}"#,
            &Limits::default(),
        )
        .unwrap();
        // Extract the structural rendering from the canonical text and
        // feed it back as an object-valued `faults` field.
        let plan = spec.cfg.faults.unwrap();
        let body = format!(
            r#"{{"workload":"pgbench","mode":"live","faults":{}}}"#,
            hmm_simulator::wire::fault_plan_to_json(&plan)
        );
        let structural = parse_body(&body, &Limits::default()).unwrap();
        assert_eq!(structural.key, spec.key);
        assert_eq!(structural.cfg.faults, Some(plan));
    }

    #[test]
    fn rejects_malformed_bodies() {
        let cases = [
            ("", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"mode":"live"}"#, "'workload' is required"),
            (r#"{"workload":"pgbench"}"#, "'mode' is required"),
            (r#"{"workload":"warehouse","mode":"live"}"#, "unknown workload"),
            (r#"{"workload":"pgbench","mode":"turbo"}"#, "unknown mode"),
            (r#"{"workload":"pgbench","mode":"live","intreval":5}"#, "unknown field"),
            (r#"{"workload":"pgbench","mode":"live","page":"3K"}"#, "power of two"),
            (r#"{"workload":"pgbench","mode":"live","page":"nope"}"#, "invalid size"),
            (r#"{"workload":"pgbench","mode":"live","accesses":0}"#, "at least 1"),
            (r#"{"workload":"pgbench","mode":"live","seed":1.5}"#, "non-negative integer"),
            (
                r#"{"workload":"pgbench","mode":"live","seed":9007199254740992}"#,
                "'seed' must be below 2^53",
            ),
            (
                r#"{"workload":"pgbench","mode":"live","seed":9007199254740993}"#,
                "'seed' must be below 2^53",
            ),
            (r#"{"workload":"pgbench","mode":"live","warmup":400000}"#, "must be smaller"),
            (r#"{"workload":"pgbench","mode":"live","fault_seed":1}"#, "requires 'faults'"),
            (r#"{"workload":"pgbench","mode":"live","faults":"bogus=1"}"#, "faults:"),
            (r#"{"workload":"pgbench","mode":"live","policy":"elevator"}"#, "unknown policy"),
            (r#"{"workload":"pgbench","mode":"live","scheme":"l5"}"#, "unknown scheme"),
            (r#"{"workload":"pgbench","mode":"live","migration":"fifo"}"#, "unknown migration"),
            (r#"{"workload":"pgbench","mode":"live","scheme":"l4cache"}"#, "only composes"),
            (
                r#"{"workload":"pgbench","mode":"off","scheme":"l4cache","migration":"mlq"}"#,
                "no effect under scheme 'l4cache'",
            ),
            (r#"{"workload":7,"mode":"live"}"#, "must be a string"),
        ];
        for (body, want) in cases {
            let err = parse_body(body, &Limits::default()).unwrap_err();
            assert!(err.contains(want), "{body}: got '{err}', wanted '{want}'");
        }
        // 2^53 - 1 is the largest integer a JSON number holds exactly.
        let top = parse_body(
            r#"{"workload":"pgbench","mode":"live","seed":9007199254740991}"#,
            &Limits::default(),
        )
        .unwrap();
        assert_eq!(top.cfg.seed, 9_007_199_254_740_991);
        assert!(top.canonical.contains(r#""seed":9007199254740991"#), "{}", top.canonical);
    }

    #[test]
    fn enforces_the_accesses_limit() {
        let err = parse_body(
            r#"{"workload":"pgbench","mode":"live","accesses":100000}"#,
            &Limits { max_accesses: 50_000 },
        )
        .unwrap_err();
        assert!(err.contains("exceeds this server's limit"), "{err}");
    }
}
