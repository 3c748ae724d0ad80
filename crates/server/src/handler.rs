//! Request execution: one frame in, exactly one reply frame out.
//!
//! Every failure mode — malformed JSON, unsupported version, unknown
//! design, solver error, missed deadline, even a panic in the solve —
//! becomes a typed error reply (`{"ok": false, "error": {"code": …}}`);
//! nothing a client sends can take the process down. Error codes are
//! either envelope codes ([`wire::WireError::code`]) or the stable
//! [`SolveError::kind`] names, plus the transport-level codes
//! `too-large`, `io`, `net-parse`, `lib-parse`, `edit-parse`,
//! `unknown-design`, `deadline`, and `internal`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbuf_api::wire::{self, error_frame, ok_frame, parse_frame, Json, Op, SolveParams, Source};
use fastbuf_api::{
    parse_scenario_lines, NetOutcome, Objective, Outcome, Scenario, Session, SolveError,
};
use fastbuf_incremental::{parse_edits, Edit};
use fastbuf_rctree::{io as netio, model_by_name, DelayModel, RoutingTree};

use crate::registry::{Design, DesignRegistry, DesignState, EcoState};
use crate::ServerConfig;

/// What the transport should do with the reply.
#[derive(Debug)]
pub enum FrameOutcome {
    /// Send the reply; keep serving.
    Reply(String),
    /// Send the reply, then begin graceful shutdown (stop accepting,
    /// drain in-flight work).
    Shutdown(String),
}

impl FrameOutcome {
    /// The reply frame to send in either case.
    pub fn reply(&self) -> &str {
        match self {
            FrameOutcome::Reply(s) | FrameOutcome::Shutdown(s) => s,
        }
    }
}

/// Executes one request frame against the registry.
///
/// `received` is when the transport read the frame; deadlines count from
/// there, so time spent queued behind other requests is charged to the
/// request — a client's `deadline_ms` bounds its observed latency, not
/// just compute.
pub fn handle_frame(
    registry: &DesignRegistry,
    config: &ServerConfig,
    frame: &str,
    received: Instant,
) -> FrameOutcome {
    if frame.len() > config.max_frame_bytes {
        return FrameOutcome::Reply(error_frame(
            None,
            "too-large",
            &format!(
                "frame is {} bytes, limit is {}",
                frame.len(),
                config.max_frame_bytes
            ),
        ));
    }
    let (id, op) = parse_frame(frame);
    let id = id.as_ref();
    let op = match op {
        Ok(op) => op,
        Err(e) => return FrameOutcome::Reply(error_frame(id, e.code(), &e.to_string())),
    };
    if let Op::Shutdown = op {
        return FrameOutcome::Shutdown(ok_frame(id, Json::obj([("stopping", true.into())])));
    }
    // Solves can panic only on internal invariant violations; turn even
    // those into an error reply so one poisoned request cannot take the
    // server down. (A panic may poison that design's lock — subsequent
    // requests against it then also reply `internal` — but every other
    // design and the process itself stay healthy.)
    let result = catch_unwind(AssertUnwindSafe(|| {
        execute(registry, config, &op, received)
    }));
    FrameOutcome::Reply(match result {
        Ok(Ok(result)) => ok_frame(id, result),
        Ok(Err(e)) => error_frame(id, e.code, &e.message),
        Err(panic) => {
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_owned());
            // Panic payloads name internal paths and invariants; keep
            // the detail in the server log, off the wire.
            eprintln!("fastbuf-server: request panicked: {what}");
            error_frame(id, "internal", "internal error while handling the request")
        }
    })
}

/// A typed handler error: a stable code plus a human-readable message.
struct HandlerError {
    code: &'static str,
    message: String,
}

impl HandlerError {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        HandlerError {
            code,
            message: message.into(),
        }
    }
}

impl From<SolveError> for HandlerError {
    fn from(e: SolveError) -> Self {
        HandlerError {
            code: e.kind(),
            message: e.to_string(),
        }
    }
}

fn deadline_of(params: &SolveParams, config: &ServerConfig) -> Option<Duration> {
    params
        .deadline_ms
        .map(Duration::from_millis)
        .or(config.default_deadline)
}

fn check_deadline(
    deadline: Option<Duration>,
    received: Instant,
    when: &str,
) -> Result<(), HandlerError> {
    if let Some(limit) = deadline {
        let spent = received.elapsed();
        if spent > limit {
            return Err(HandlerError::new(
                "deadline",
                format!(
                    "{when}: {:.1} ms spent against a {} ms deadline",
                    spent.as_secs_f64() * 1e3,
                    limit.as_millis()
                ),
            ));
        }
    }
    Ok(())
}

fn execute(
    registry: &DesignRegistry,
    config: &ServerConfig,
    op: &Op,
    received: Instant,
) -> Result<Json, HandlerError> {
    match op {
        Op::Ping => Ok(Json::obj([("pong", true.into())])),
        Op::Stats => Ok(stats(registry)),
        Op::Shutdown => unreachable!("shutdown is intercepted before execute"),
        Op::Load {
            design,
            net,
            lib,
            model,
        } => load(registry, design, net, lib, model.as_deref()),
        Op::Unload { design } => {
            if registry.unload(design) {
                Ok(Json::obj([
                    ("design", design.as_str().into()),
                    ("unloaded", true.into()),
                ]))
            } else {
                Err(unknown_design(design))
            }
        }
        Op::Solve(params) => solve(registry, config, params, received),
        Op::Eco { params, edits } => eco(registry, config, params, edits, received),
        // `Op` is non-exhaustive: a future wire op this build predates.
        _ => Err(HandlerError::new(
            "unknown-op",
            "op not supported by this server build",
        )),
    }
}

fn unknown_design(id: &str) -> HandlerError {
    HandlerError::new(
        "unknown-design",
        format!("no design loaded under id `{id}`"),
    )
}

fn stats(registry: &DesignRegistry) -> Json {
    let rows: Vec<Json> = registry
        .stats()
        .iter()
        .map(|d| {
            Json::obj([
                ("design", d.id.as_str().into()),
                ("sinks", d.sinks.into()),
                ("sites", d.sites.into()),
                ("eco_warm", d.eco_warm.into()),
                ("solves", d.solves.into()),
                ("variations", d.variations.into()),
                ("ecos", d.ecos.into()),
                ("eco_warm_hits", d.eco_warm_hits.into()),
                ("eco_rebuilds", d.eco_rebuilds.into()),
                ("eco_reuse", d.eco_reuse().into()),
            ])
        })
        .collect();
    Json::obj([("resident", rows.len().into()), ("designs", rows.into())])
}

fn read_source(source: &Source, what: &str) -> Result<String, HandlerError> {
    match source {
        Source::Text(text) => Ok(text.clone()),
        Source::Path(path) => std::fs::read_to_string(path)
            .map_err(|e| HandlerError::new("io", format!("cannot read {what} `{path}`: {e}"))),
    }
}

fn load(
    registry: &DesignRegistry,
    design: &str,
    net: &Source,
    lib: &Source,
    model: Option<&str>,
) -> Result<Json, HandlerError> {
    let net_text = read_source(net, "net")?;
    let lib_text = read_source(lib, "library")?;
    let tree =
        netio::parse(&net_text).map_err(|e| HandlerError::new("net-parse", e.to_string()))?;
    let library = fastbuf_buflib::BufferLibrary::from_text(&lib_text)
        .map_err(|e| HandlerError::new("lib-parse", e.to_string()))?;
    let model = resolve_model(model)?
        .unwrap_or_else(|| model_by_name("elmore").expect("elmore always exists"));
    let session = Session::builder(library).delay_model(model).build();
    let sinks = tree.sink_count();
    let sites = tree.buffer_site_count();
    let buffers = session.library().len();
    let (_, evicted) = registry.load(design, session, tree);
    Ok(Json::obj([
        ("design", design.into()),
        ("sinks", sinks.into()),
        ("sites", sites.into()),
        ("buffers", buffers.into()),
        ("evicted", evicted.into_iter().map(Json::from).collect()),
    ]))
}

fn resolve_model(name: Option<&str>) -> Result<Option<Arc<dyn DelayModel>>, HandlerError> {
    match name {
        None => Ok(None),
        Some(name) => model_by_name(name)
            .map(Some)
            .ok_or_else(|| SolveError::UnknownModel(name.to_owned()).into()),
    }
}

/// Builds the request's scenario list: explicit lines through the shared
/// [`parse_scenario_lines`] path (the CLI's `--scenarios` parser), or the
/// one anonymous default scenario. The request-level `algo`/`model` are
/// defaults, never overrides — a line's own `algo=`/`model=` wins.
fn build_scenarios(params: &SolveParams) -> Result<Vec<Scenario>, HandlerError> {
    let model = resolve_model(params.model.as_deref())?;
    match &params.scenarios {
        Some(lines) => Ok(parse_scenario_lines(
            &lines.join("\n"),
            params.algorithm,
            model.as_ref(),
        )?),
        None => {
            let mut scenario = Scenario::default();
            if let Some(algorithm) = params.algorithm {
                scenario = scenario.algorithm(algorithm);
            }
            scenario.delay_model = model;
            Ok(vec![scenario])
        }
    }
}

/// A solve/eco reply body: the outcome's summary, the op's own `extra`
/// members, then the per-scenario `results`.
fn result_body(
    design: &str,
    outcome: &Outcome,
    extra: Vec<(&str, Json)>,
    results: Vec<Json>,
) -> Json {
    let mut body = Json::obj([
        ("design", design.into()),
        ("scenarios", results.len().into()),
        (
            "worst_slack_ps",
            outcome.worst_slack().map(|s| s.picos()).into(),
        ),
        ("elapsed_us", (outcome.elapsed.as_secs_f64() * 1e6).into()),
    ]);
    for (key, value) in extra {
        body.push(key, value);
    }
    body.push("results", results);
    body
}

fn solve(
    registry: &DesignRegistry,
    config: &ServerConfig,
    params: &SolveParams,
    received: Instant,
) -> Result<Json, HandlerError> {
    let deadline = deadline_of(params, config);
    check_deadline(deadline, received, "not started")?;
    let design = registry
        .get(&params.design)
        .ok_or_else(|| unknown_design(&params.design))?;
    if params.variation.is_none() {
        for (name, present) in [
            ("samples", params.samples.is_some()),
            ("quantile", params.quantile.is_some()),
        ] {
            if present {
                return Err(HandlerError::new(
                    "bad-request",
                    format!("\"{name}\" needs a \"variation\" block"),
                ));
            }
        }
    }
    let scenarios = build_scenarios(params)?;
    let named = params.scenarios.is_some();
    // Snapshot the tree, then drop the lock: concurrent solves against
    // one design proceed in parallel; only ECO edits serialize. A
    // variation solve samples from this snapshot alone, so an ECO edit
    // committed mid-request can never bleed into its sample family.
    let tree: Arc<RoutingTree> = {
        let state = design.state.read().expect("design lock poisoned");
        Arc::clone(&state.tree)
    };
    if let Some(spec_text) = &params.variation {
        let spec = fastbuf_api::parse_variation_spec(spec_text)?;
        let samples = params.samples.unwrap_or(64) as usize;
        let quantile = params.quantile.unwrap_or(0.5);
        let outcome = design
            .session
            .request(&tree)
            .objective(Objective::YieldTarget { samples, quantile })
            .variation(spec)
            .scenarios(scenarios)
            .workers(1)
            .solve()?;
        let records = outcome
            .scenarios
            .iter()
            .map(|corner| wire::variation_record(corner, named, true).map_err(HandlerError::from))
            .collect::<Result<Vec<_>, _>>()?;
        check_deadline(deadline, received, "completed late")?;
        design.metrics.variations.fetch_add(1, Ordering::Relaxed);
        return Ok(result_body(&params.design, &outcome, Vec::new(), records));
    }
    // One workspace per request — cross-request parallelism comes from
    // the server's worker pool, not from fanning out inside a request.
    let outcome = design
        .session
        .request(&tree)
        .scenarios(scenarios)
        .workers(1)
        .solve()?;
    let records = records_of(
        &params.design,
        &tree,
        &design.session,
        &outcome,
        named,
        params,
    )?;
    // Read-only op: a blown deadline discards the result.
    check_deadline(deadline, received, "completed late")?;
    design.metrics.solves.fetch_add(1, Ordering::Relaxed);
    Ok(result_body(&params.design, &outcome, Vec::new(), records))
}

/// Each scenario's per-net record, as its JSON object. With `verify` on,
/// each scenario's answer must first pass [`NetOutcome::verify`] (slack,
/// slew limit, skew), the check every front end applies.
fn records_of(
    design: &str,
    tree: &RoutingTree,
    session: &Session,
    outcome: &Outcome,
    named: bool,
    params: &SolveParams,
) -> Result<Vec<Json>, HandlerError> {
    outcome
        .scenarios
        .iter()
        .map(|corner| {
            let net = NetOutcome::measure(0, tree, session.library(), corner)?;
            if params.verify {
                net.verify().map_err(|error| SolveError::Verify {
                    scenario: corner.scenario.name.clone(),
                    error,
                })?;
            }
            let scenario = named.then_some(corner.scenario.name.as_str());
            Ok(net.to_value(design, scenario, params.placements))
        })
        .collect()
}

fn eco(
    registry: &DesignRegistry,
    config: &ServerConfig,
    params: &SolveParams,
    edit_lines: &[String],
    received: Instant,
) -> Result<Json, HandlerError> {
    let deadline = deadline_of(params, config);
    // ECO commits atomically once started, so the deadline is enforced
    // at admission only (see docs/PROTOCOL.md).
    check_deadline(deadline, received, "not started")?;
    if params.variation.is_some() || params.samples.is_some() || params.quantile.is_some() {
        return Err(HandlerError::new(
            "bad-request",
            "variation solves go through op \"solve\"; \"eco\" commits one deterministic tree",
        ));
    }
    let design = registry
        .get(&params.design)
        .ok_or_else(|| unknown_design(&params.design))?;
    let edits =
        parse_edits(&edit_lines.join("\n")).map_err(|e| HandlerError::new("edit-parse", e))?;
    let scenarios = build_scenarios(params)?;
    let named = params.scenarios.is_some();
    // Fingerprint of the scenario set this request wants; a warm solver
    // built for the same set is reused (its per-corner subtree caches are
    // the payoff of staying resident), anything else is rebuilt.
    let key = format!(
        "{:?}|{:?}|{:?}",
        params.scenarios, params.algorithm, params.model
    );

    let mut state = design.state.write().expect("design lock poisoned");
    let result = eco_locked(&design, params, &edits, scenarios, key, named, &mut state);
    if result.is_err() {
        // Edits apply into the warm engine one at a time, so a failure
        // anywhere in the locked section (an edit rejected partway
        // through the batch, a solve or verify error) can leave the
        // engine ahead of the committed tree. Drop it: the next request
        // rebuilds from `state.tree` and the failed request's edits are
        // never visible — the commit stays atomic (docs/PROTOCOL.md).
        state.eco = None;
    }
    result
}

/// The write-locked half of [`eco`]: ensure a warm solver for `key`,
/// apply, solve, verify, and only then commit the new tree. Nothing
/// fallible runs after the `state.tree` assignment; on any `Err` the
/// caller invalidates `state.eco`.
fn eco_locked(
    design: &Design,
    params: &SolveParams,
    edits: &[Edit],
    scenarios: Vec<Scenario>,
    key: String,
    named: bool,
    state: &mut DesignState,
) -> Result<Json, HandlerError> {
    if state.eco.as_ref().is_none_or(|e| e.key != key) {
        design.metrics.eco_rebuilds.fetch_add(1, Ordering::Relaxed);
        let solver = design.session.eco(&state.tree, scenarios)?;
        state.eco = Some(EcoState { key, solver });
    } else {
        design.metrics.eco_warm_hits.fetch_add(1, Ordering::Relaxed);
    }
    let eco_state = state.eco.as_mut().expect("just ensured");
    eco_state.solver.apply_all(edits)?;
    let outcome = eco_state.solver.solve()?;
    let tree = Arc::new(eco_state.solver.tree().clone());
    let cache: Json = eco_state
        .solver
        .cache_report()
        .iter()
        .map(|(name, cached, applied)| {
            Json::obj([
                ("scenario", (*name).into()),
                ("cached_nodes", (*cached).into()),
                ("edits_applied", (*applied).into()),
            ])
        })
        .collect();
    let records = records_of(
        &params.design,
        &tree,
        &design.session,
        &outcome,
        named,
        params,
    )?;
    state.tree = tree;
    design.metrics.ecos.fetch_add(1, Ordering::Relaxed);
    let extra = vec![("edits", edits.len().into()), ("cache", cache)];
    Ok(result_body(&params.design, &outcome, extra, records))
}

// Re-exported so integration tests can assert against the same wire
// helpers the handler uses.
pub use wire::WIRE_VERSION;

#[cfg(test)]
mod tests {
    use super::*;
    use fastbuf_api::json::json_str;
    use fastbuf_buflib::units::{Microns, Seconds};
    use fastbuf_buflib::BufferLibrary;

    fn loaded_registry() -> DesignRegistry {
        let registry = DesignRegistry::new(4);
        let session = Session::new(BufferLibrary::paper_synthetic(6).unwrap());
        let tree = fastbuf_netgen::line_net(Microns::new(8_000.0), 10);
        registry.load("d1", session, tree);
        registry
    }

    fn reply(registry: &DesignRegistry, frame: &str) -> Json {
        let outcome = handle_frame(registry, &ServerConfig::default(), frame, Instant::now());
        Json::parse(outcome.reply()).expect("replies are valid JSON")
    }

    #[test]
    fn solve_matches_a_direct_session_solve_bit_for_bit() {
        let registry = loaded_registry();
        let session = Session::new(BufferLibrary::paper_synthetic(6).unwrap());
        let tree = fastbuf_netgen::line_net(Microns::new(8_000.0), 10);
        // A slew-limited corner with `verify` on runs the same per-net
        // check as `fastbuf solve`: slack agreement and the slew limit.
        let limit = Seconds::from_pico(200.0);
        let cases = [
            (
                r#"{"v": 1, "id": 1, "op": "solve", "design": "d1", "placements": true}"#,
                Scenario::default(),
            ),
            (
                r#"{"v": 1, "id": 2, "op": "solve", "design": "d1", "placements": true,
                    "scenarios": ["tight slew-limit-ps=200"], "verify": true}"#,
                Scenario::named("tight").slew_limit(limit),
            ),
        ];
        for (frame, scenario) in cases {
            let v = reply(&registry, frame);
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
            let result = v.get("result").unwrap();
            let record = &result.get("results").and_then(Json::as_array).unwrap()[0];

            // The same solve done directly through the Session API.
            let outcome = session.request(&tree).scenario(scenario).solve().unwrap();
            let direct = outcome.scenarios[0].solution().unwrap();
            let net =
                NetOutcome::measure(0, &tree, session.library(), &outcome.scenarios[0]).unwrap();

            let served = record.get("slack_after_ps").and_then(Json::as_f64).unwrap();
            assert_eq!(served.to_bits(), direct.slack.picos().to_bits());
            assert_eq!(
                record.get("buffers").and_then(Json::as_u64).unwrap() as usize,
                direct.placements.len()
            );
            assert_eq!(
                result
                    .get("worst_slack_ps")
                    .and_then(Json::as_f64)
                    .unwrap()
                    .to_bits(),
                outcome.worst_slack().unwrap().picos().to_bits()
            );
            let served_slew = record.get("max_slew_ps").and_then(Json::as_f64).unwrap();
            assert_eq!(served_slew.to_bits(), net.max_slew.picos().to_bits());
            assert_eq!(
                record.get("slew_ok").and_then(Json::as_bool),
                Some(net.slew_ok)
            );
            // The 200 ps limit binds (the line's free answer slews about
            // 240 ps) and is met, so the served answer passed the slew rule.
            if let Some(limit) = net.slew_limit {
                assert!(net.slew_ok && net.max_slew <= limit, "{net:?}");
            }
        }
    }

    #[test]
    fn typed_errors_never_kill_the_handler() {
        let registry = loaded_registry();
        let code = |frame: &str| {
            reply(&registry, frame)
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                .map(str::to_owned)
                .expect("an error reply")
        };
        assert_eq!(code("garbage"), "parse");
        assert_eq!(code(r#"{"v": 9, "op": "ping"}"#), "unsupported-version");
        assert_eq!(code(r#"{"v": 1, "op": "warp"}"#), "unknown-op");
        assert_eq!(code(r#"{"v": 1, "op": "solve"}"#), "bad-request");
        assert_eq!(
            code(r#"{"v": 1, "op": "solve", "design": "nope"}"#),
            "unknown-design"
        );
        assert_eq!(
            code(r#"{"v": 1, "op": "solve", "design": "d1", "model": "spice"}"#),
            "unknown-model"
        );
        assert_eq!(
            code(r#"{"v": 1, "op": "solve", "design": "d1", "scenarios": ["a a="]}"#),
            "scenario-parse"
        );
        assert_eq!(
            code(r#"{"v": 1, "op": "eco", "design": "d1", "edits": ["explode n1"]}"#),
            "edit-parse"
        );
        assert_eq!(
            code(r#"{"v": 1, "op": "solve", "design": "d1", "deadline_ms": 0}"#),
            "deadline"
        );
        // …and the handler still works afterwards.
        let v = reply(&registry, r#"{"v": 1, "op": "ping"}"#);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn a_huge_sample_count_is_refused_and_the_handler_keeps_serving() {
        let registry = loaded_registry();
        let v = reply(
            &registry,
            r#"{"v": 1, "op": "solve", "design": "d1",
                "variation": "wire-r normal 1.0 0.05\nseed 7", "samples": 1000000000000}"#,
        );
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{v:?}");
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("bad-request")
        );
        let v = reply(&registry, r#"{"v": 1, "op": "ping"}"#);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    }

    /// A node count is checked against the text before anything is
    /// allocated for it: this frame once asked for terabytes, an abort no
    /// `catch_unwind` can stop.
    #[test]
    fn a_huge_node_count_is_a_net_parse_error_and_the_handler_keeps_serving() {
        let registry = loaded_registry();
        let lib = BufferLibrary::paper_synthetic(2).unwrap().to_text();
        for count in ["99999999999", "1e30", "-5", "nan", "2.7"] {
            let net = format!("fastbuf-net v1\nnodes {count}\nnode 0 source 100\n");
            let v = reply(
                &registry,
                &format!(
                    "{{\"v\": 1, \"op\": \"load\", \"design\": \"big\", \"net\": {}, \"lib\": {}}}",
                    json_str(&net),
                    json_str(&lib)
                ),
            );
            let error = v.get("error").expect("an error reply");
            assert_eq!(error.get("code").and_then(Json::as_str), Some("net-parse"));
            let message = error.get("message").and_then(Json::as_str).unwrap();
            assert!(message.starts_with("line 2: "), "{message}");
        }
        let v = reply(&registry, r#"{"v": 1, "op": "solve", "design": "d1"}"#);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    }

    #[test]
    fn eco_updates_state_and_reuses_the_warm_solver() {
        let registry = loaded_registry();
        let frame = r#"{"v": 1, "op": "eco", "design": "d1", "edits": ["rat n11 1200"]}"#;
        let v = reply(&registry, frame);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        let result = v.get("result").unwrap();
        assert_eq!(result.get("edits").and_then(Json::as_u64), Some(1));

        // Same scenario set again: the warm solver must be reused, so the
        // edit counter keeps counting instead of resetting.
        let frame2 =
            r#"{"v": 1, "op": "eco", "design": "d1", "edits": ["rat n11 900", "wire n2 400"]}"#;
        let v2 = reply(&registry, frame2);
        let result2 = v2.get("result").unwrap();
        let cache = result2.get("cache").and_then(Json::as_array).unwrap();
        assert_eq!(
            cache[0].get("edits_applied").and_then(Json::as_u64),
            Some(3),
            "warm solver was rebuilt instead of reused"
        );

        // A different scenario set rebuilds (edits_applied resets).
        let frame3 = r#"{"v": 1, "op": "eco", "design": "d1", "edits": ["rat n11 800"],
                         "scenarios": ["slow derate=0.9"]}"#;
        let v3 = reply(&registry, frame3);
        let cache3 = v3
            .get("result")
            .unwrap()
            .get("cache")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(
            cache3[0].get("edits_applied").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            cache3[0].get("scenario").and_then(Json::as_str),
            Some("slow")
        );
    }

    #[test]
    fn failed_eco_batch_never_leaks_into_committed_state() {
        let registry = loaded_registry();
        // Commit one edit so a warm engine exists.
        let v = reply(
            &registry,
            r#"{"v": 1, "op": "eco", "design": "d1", "edits": ["rat n11 1200"]}"#,
        );
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");

        // Second batch: the first edit applies into the warm engine,
        // then the second is rejected (n2 is a buffer site, not a sink).
        // The whole request must fail...
        let v = reply(
            &registry,
            r#"{"v": 1, "op": "eco", "design": "d1", "edits": ["rat n11 500", "rat n2 0"]}"#,
        );
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("edit")
        );

        // ...and leave no trace: the next request rebuilds the engine
        // from the committed tree (its edit counter restarts at 1, not
        // 3) and solves exactly as if the failed batch never happened.
        let v = reply(
            &registry,
            r#"{"v": 1, "op": "eco", "design": "d1", "edits": ["wire n2 700"]}"#,
        );
        let result = v.get("result").expect("eco after failure succeeds");
        let cache = result.get("cache").and_then(Json::as_array).unwrap();
        assert_eq!(
            cache[0].get("edits_applied").and_then(Json::as_u64),
            Some(1),
            "warm engine survived a failed batch"
        );

        let session = Session::new(BufferLibrary::paper_synthetic(6).unwrap());
        let tree = fastbuf_netgen::line_net(Microns::new(8_000.0), 10);
        let mut solver = session.eco(&tree, vec![Scenario::default()]).unwrap();
        solver
            .apply_all(&parse_edits("rat n11 1200\nwire n2 700").unwrap())
            .unwrap();
        let outcome = solver.solve().unwrap();
        let direct = outcome.scenarios[0].solution().unwrap();
        let served = result.get("results").and_then(Json::as_array).unwrap()[0]
            .get("slack_after_ps")
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(served.to_bits(), direct.slack.picos().to_bits());
    }

    #[test]
    fn stats_reports_per_design_request_metrics() {
        let registry = loaded_registry();
        let ok = |frame: &str| {
            let v = reply(&registry, frame);
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        };
        // Two plain solves, one variation solve, two committed ECOs (the
        // second a warm hit), and one failed ECO batch (must not count).
        ok(r#"{"v": 1, "op": "solve", "design": "d1"}"#);
        ok(r#"{"v": 1, "op": "solve", "design": "d1"}"#);
        ok(r#"{"v": 1, "op": "solve", "design": "d1",
                "variation": "wire-r normal 1.0 0.05\nseed 7", "samples": 4}"#);
        ok(r#"{"v": 1, "op": "eco", "design": "d1", "edits": ["rat n11 1200"]}"#);
        ok(r#"{"v": 1, "op": "eco", "design": "d1", "edits": ["rat n11 900"]}"#);
        let failed = reply(
            &registry,
            r#"{"v": 1, "op": "eco", "design": "d1", "edits": ["rat n2 0"]}"#,
        );
        assert_eq!(failed.get("ok").and_then(Json::as_bool), Some(false));

        let v = reply(&registry, r#"{"v": 1, "op": "stats"}"#);
        let row = &v
            .get("result")
            .unwrap()
            .get("designs")
            .and_then(Json::as_array)
            .unwrap()[0];
        let count = |key: &str| row.get(key).and_then(Json::as_u64).unwrap();
        assert_eq!(count("solves"), 2);
        assert_eq!(count("variations"), 1);
        assert_eq!(count("ecos"), 2);
        // Lookups: rebuild, warm, warm (the failed batch still hit the
        // warm engine before its edit was rejected).
        assert_eq!(count("eco_rebuilds"), 1);
        assert_eq!(count("eco_warm_hits"), 2);
        let reuse = row.get("eco_reuse").and_then(Json::as_f64).unwrap();
        assert!((reuse - 2.0 / 3.0).abs() < 1e-12, "eco_reuse = {reuse}");
    }

    #[test]
    fn shutdown_is_signalled_to_the_transport() {
        let registry = loaded_registry();
        let outcome = handle_frame(
            &registry,
            &ServerConfig::default(),
            r#"{"v": 1, "id": "bye", "op": "shutdown"}"#,
            Instant::now(),
        );
        match &outcome {
            FrameOutcome::Shutdown(reply) => {
                let v = Json::parse(reply).unwrap();
                assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
                assert_eq!(v.get("id").and_then(Json::as_str), Some("bye"));
            }
            other => panic!("expected shutdown, got {other:?}"),
        }
    }

    #[test]
    fn load_and_lru_eviction_over_the_wire() {
        let registry = DesignRegistry::new(1);
        let config = ServerConfig::default();
        let net = netio::write(&fastbuf_netgen::line_net(Microns::new(4_000.0), 5));
        let lib = BufferLibrary::paper_synthetic(4).unwrap().to_text();
        let load_frame = |id: &str| {
            format!(
                "{{\"v\": 1, \"op\": \"load\", \"design\": {}, \"net\": {}, \"lib\": {}}}",
                json_str(id),
                json_str(&net),
                json_str(&lib)
            )
        };
        let v =
            Json::parse(handle_frame(&registry, &config, &load_frame("a"), Instant::now()).reply())
                .unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");

        let v =
            Json::parse(handle_frame(&registry, &config, &load_frame("b"), Instant::now()).reply())
                .unwrap();
        let evicted = v
            .get("result")
            .unwrap()
            .get("evicted")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(evicted[0].as_str(), Some("a"));
    }
}
