//! Byte-identity goldens for every JSON producer outside the CLI: the
//! batch and global reports, the wire envelope, the per-scenario records
//! and every `fastbuf serve` reply. The expected bytes live in
//! `tests/golden/`; wall-clock fields (`elapsed_us`, `elapsed_ms`,
//! `nets_per_sec`) are replaced by a fixed token before comparing, and
//! APIs that take a `Duration` get a fixed one.

use std::path::Path;
use std::time::{Duration, Instant};

use fastbuf::api::wire::{self, error_frame, ok_frame, Json};
use fastbuf::api::{NetOutcome, Objective, Scenario};
use fastbuf::global::{GlobalNet, GlobalSolver, SiteCapacityMap};
use fastbuf::netgen::{SharedSuiteSpec, SuiteSpec, VariationSpec};
use fastbuf::prelude::*;
use fastbuf::server::handler::handle_frame;
use fastbuf::server::registry::DesignRegistry;
use fastbuf::server::ServerConfig;

/// Replaces the value of every wall-clock key with `T`.
fn normalize(text: &str) -> String {
    let mut out = text.to_owned();
    for key in ["\"elapsed_us\": ", "\"elapsed_ms\": ", "\"nets_per_sec\": "] {
        let mut from = 0;
        while let Some(at) = out[from..].find(key) {
            let start = from + at + key.len();
            let len = out[start..]
                .find([',', '}', '\n'])
                .unwrap_or(out.len() - start);
            out.replace_range(start..start + len, "T");
            from = start + 1;
        }
    }
    out
}

/// Compares `actual` (normalized) with `tests/golden/<name>.json`.
fn golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"));
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        normalize(actual),
        expected,
        "{name} drifted from its golden"
    );
}

fn lib() -> BufferLibrary {
    BufferLibrary::paper_synthetic(6).unwrap()
}

fn line() -> RoutingTree {
    fastbuf::netgen::line_net(Microns::new(8_000.0), 10)
}

#[test]
fn batch_report_bytes() {
    let nets = SuiteSpec {
        nets: 3,
        max_sinks: 8,
        seed: 4,
        ..SuiteSpec::default()
    }
    .build();
    let lib = lib();
    let mut report = BatchSolver::new(&nets, &lib).workers(1).solve();
    report.elapsed = Duration::from_micros(2_500);
    for (k, o) in report.outcomes.iter_mut().enumerate() {
        o.elapsed = Duration::from_micros(40 + k as u64);
    }
    let names: Vec<String> = (0..nets.len()).map(|k| format!("suite/{k}")).collect();
    golden("batch_placements", &report.to_json(Some(&names), true));
    golden("batch_plain", &report.to_json(None, false));

    let mut empty = BatchSolver::new(&[], &lib).solve();
    empty.elapsed = Duration::ZERO;
    golden("batch_empty", &empty.to_json(None, false));
}

#[test]
fn global_report_bytes() {
    let spec = SharedSuiteSpec {
        nets: 3,
        pool_sites: 12,
        sites_per_net: 6,
        seed: 2,
        ..SharedSuiteSpec::default()
    };
    let fleet = spec
        .build()
        .into_iter()
        .enumerate()
        .map(|(i, net)| GlobalNet::new(format!("shared/{i}"), net.tree, net.site_of))
        .collect();
    let outcome = GlobalSolver::new(fleet, lib(), SiteCapacityMap::uniform(spec.pool_sites, 1))
        .max_iters(6)
        .solve()
        .unwrap();
    let mut report = outcome.report;
    report.elapsed = Duration::from_micros(1_250);
    golden("global_report", &report.to_json());
}

#[test]
fn envelope_bytes() {
    let result = Json::parse("{\"pong\": true}").unwrap();
    let str_id = Json::Str("req-\"1\"".into());
    let num_id = Json::Num(7.0);
    let frames = [
        ok_frame(Some(&str_id), result.clone()),
        ok_frame(Some(&num_id), result.clone()),
        ok_frame(None, result),
        error_frame(Some(&str_id), "deadline", "took 12 ms"),
        error_frame(Some(&num_id), "parse", "json error at byte 0: \"x\"\n"),
        error_frame(None, "internal", "internal error"),
    ];
    golden("envelope", &frames.join("\n"));
}

#[test]
fn scenario_and_skew_record_bytes() {
    let session = Session::new(lib());
    let tree = line();
    let outcome = session
        .request(&tree)
        .scenario(Scenario::named("typical"))
        .scenario(Scenario::named("slow").rat_derate(0.9))
        .solve()
        .unwrap();
    let records: Vec<String> = outcome
        .scenarios
        .iter()
        .map(|corner| {
            NetOutcome::measure(3, &tree, session.library(), corner)
                .unwrap()
                .to_value("net-a", Some(&corner.scenario.name), true)
                .to_json()
        })
        .collect();
    golden("scenario_record", &records.join("\n"));

    let clock = fastbuf::netgen::h_tree(1);
    let skew = |max_skew: Option<Seconds>, placements: bool| {
        let outcome = session
            .request(&clock)
            .objective(Objective::SkewTarget { max_skew })
            .solve()
            .unwrap();
        let corner = &outcome.scenarios[0];
        let net = NetOutcome::measure(0, &clock, session.library(), corner).unwrap();
        wire::skew_record("clk", &net, corner, false, placements, max_skew).unwrap()
    };
    let bounded = skew(Some(Seconds::from_pico(5.0)), true);
    let free = skew(None, false);
    golden("skew_record", &format!("{bounded}\n{free}"));
}

#[test]
fn variation_record_bytes() {
    let session = Session::new(lib());
    let tree = line();
    let outcome = session
        .request(&tree)
        .objective(Objective::YieldTarget {
            samples: 4,
            quantile: 0.5,
        })
        .variation(VariationSpec::gaussian(0.05, 0.3, 11))
        .scenario(Scenario::named("typical"))
        .solve()
        .unwrap();
    let corner = &outcome.scenarios[0];
    let with = wire::variation_record(corner, true, true).unwrap();
    let without = wire::variation_record(corner, false, false).unwrap();
    golden("variation_record", &format!("{with}\n{without}"));
}

#[test]
fn server_reply_bytes() {
    let registry = DesignRegistry::new(4);
    registry.load("d1", Session::new(lib()), line());
    let config = ServerConfig::default();
    let net = fastbuf::rctree::io::write(&fastbuf::netgen::line_net(Microns::new(4_000.0), 5));
    let lib_text = BufferLibrary::paper_synthetic(4).unwrap().to_text();
    let load = format!(
        "{{\"v\": 1, \"id\": \"L\", \"op\": \"load\", \"design\": \"d2\", \"net\": {}, \"lib\": {}}}",
        fastbuf::api::json::json_str(&net),
        fastbuf::api::json::json_str(&lib_text)
    );
    let frames = [
        r#"{"v": 1, "id": 1, "op": "ping"}"#,
        load.as_str(),
        r#"{"v": 1, "id": 2, "op": "solve", "design": "d1", "placements": true}"#,
        r#"{"v": 1, "id": 3, "op": "solve", "design": "d1", "placements": true,
            "scenarios": ["typical", "slow derate=0.9"]}"#,
        r#"{"v": 1, "id": 4, "op": "eco", "design": "d1", "edits": ["rat n11 1200", "wire n2 400"]}"#,
        r#"{"v": 1, "id": 5, "op": "solve", "design": "d1",
            "variation": "wire-r normal 1.0 0.05\nseed 7", "samples": 4}"#,
        r#"{"v": 1, "id": 6, "op": "stats"}"#,
        r#"{"v": 1, "id": 7, "op": "unload", "design": "d2"}"#,
        "not json",
        r#"{"v": 1, "id": "w", "op": "warp"}"#,
        r#"{"v": 1, "id": 8, "op": "solve", "design": "nope"}"#,
        r#"{"v": 1, "id": 9, "op": "shutdown"}"#,
    ];
    let mut replies: Vec<String> = frames
        .iter()
        .map(|frame| {
            handle_frame(&registry, &config, frame, Instant::now())
                .reply()
                .to_owned()
        })
        .collect();
    let tiny = ServerConfig {
        max_frame_bytes: 16,
        ..ServerConfig::default()
    };
    replies.push(
        handle_frame(&registry, &tiny, frames[0], Instant::now())
            .reply()
            .to_owned(),
    );
    golden("server_replies", &replies.join("\n"));
}
