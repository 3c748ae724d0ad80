//! Fuzzing of the server's wire frames.
//!
//! `fastbuf_server::handler::handle_frame` is what every transport calls
//! with one request line. Three kinds of input go into it, against a
//! private `DesignRegistry` that holds a small resident design:
//!
//! * arbitrary bytes, read as lossy UTF-8;
//! * a token soup: frame keywords, ops, punctuation, numbers and payload
//!   texts strung together at random, most of it not JSON;
//! * request envelopes with random members and values (nets, libraries,
//!   edit, scenario and variation lines, some of them malformed), a
//!   quarter of them then truncated or spliced.
//!
//! Every reply must parse as JSON, carry a boolean `ok`, and never carry
//! the `internal` error code, which is what the handler answers when it
//! catches a panic: every bad frame has to be turned away by a typed
//! check rather than by a caught panic.

use proptest::prelude::*;

use fastbuf::api::json::json_str;
use fastbuf::api::wire::Json;
use fastbuf::api::Session;
use fastbuf::buflib::units::Microns;
use fastbuf::buflib::BufferLibrary;
use fastbuf::server::handler::handle_frame;
use fastbuf::server::registry::DesignRegistry;
use fastbuf::server::ServerConfig;
use std::time::Instant;

/// SplitMix64: the draws of one case, reproducible from its seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &'a [String]) -> &'a str {
        &items[self.below(items.len())]
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn net_text() -> String {
    fastbuf::rctree::io::write(&fastbuf::netgen::line_net(Microns::new(3_000.0), 4))
}

fn lib_text() -> String {
    BufferLibrary::paper_synthetic(3).unwrap().to_text()
}

/// The members a request may carry (and one it may not), each with
/// candidate values, already JSON-encoded: valid ones and malformed ones
/// of the right type.
fn members() -> Vec<(&'static str, Vec<String>)> {
    let net = net_text();
    let lib = lib_text();
    let strings = |texts: &[&str]| texts.iter().map(|t| json_str(t)).collect::<Vec<_>>();
    let arrays = |rows: &[&[&str]]| {
        rows.iter()
            .map(|row| format!("[{}]", strings(row).join(", ")))
            .collect::<Vec<_>>()
    };
    let scalars = |texts: &[&str]| texts.iter().map(|t| (*t).to_owned()).collect::<Vec<_>>();
    vec![
        ("v", scalars(&["1", "2", "-1", "\"1\""])),
        (
            "id",
            scalars(&["7", "\"r1\"", "null", "[1, 2]", "{\"k\": true}"]),
        ),
        (
            "op",
            strings(&[
                "ping", "stats", "load", "load", "unload", "solve", "solve", "solve", "eco", "eco",
                "eco", "shutdown", "warp",
            ]),
        ),
        ("design", strings(&["d1", "d1", "d1", "d2", "nope", ""])),
        (
            "net",
            strings(&[
                &net,
                &net.replace("edge 0 1", "edge 0 9"),
                &net.replace("nodes", "nodes 99"),
                &net[..net.len() / 2],
                "fastbuf-net v1\nnodes 1e30\n",
                "",
            ]),
        ),
        (
            "lib",
            strings(&[&lib, &lib[..lib.len() / 3], "b 100 1 1 1\nb 200 1 1 1", "x"]),
        ),
        ("net_path", strings(&["", "no/such/net.net"])),
        ("lib_path", strings(&["", "no/such/buf.lib"])),
        ("model", strings(&["elmore", "scaled-elmore", "fast", ""])),
        (
            "algo",
            strings(&["lishi", "lillis", "lishi-permanent", "fast"]),
        ),
        (
            "scenarios",
            arrays(&[
                &["typical"],
                &["typical", "slow derate=0.9 slew-limit-ps=350"],
                &["typical", "typical"],
                &["x derate=-1"],
                &["y derate=nan algo=lillis"],
                &["z slew-limit-ps=0 model=fast"],
                &[""],
                &[],
            ]),
        ),
        ("placements", scalars(&["true", "false", "1"])),
        ("verify", scalars(&["true", "false", "null"])),
        (
            "deadline_ms",
            scalars(&["60000", "60000", "0", "-5", "1e999"]),
        ),
        (
            "variation",
            strings(&[
                "wire-r normal 1.0 0.05\nseed 7",
                "sink-cap uniform 0.9 1.1\nrat normal 1.0 0.02\nlocality 0.5",
                "buffer-drive uniform 1.1 0.9",
                "wire-c normal 1.0 -5",
                "locality 7",
                "seed",
            ]),
        ),
        (
            "samples",
            scalars(&["0", "1", "3", "-1", "0.5", "18446744073709551616"]),
        ),
        (
            "quantile",
            scalars(&["0.5", "0", "1", "1.5", "-0.1", "\"median\""]),
        ),
        (
            "edits",
            arrays(&[
                &["rat n3 1200"],
                &["rat n3 1200", "wire n2 400"],
                &["block n1", "unblock n1"],
                &["cap n4 -3"],
                &["rat n99 1"],
                &["wirerc n2 10 20", "derate n1 1.1 0.9"],
                &["derate n1 0 1"],
                &["swaplib 4 2"],
                &["swaplib 0"],
                &["wire n0 5"],
                &[""],
                &[],
            ]),
        ),
        ("trace", scalars(&["true"])),
    ]
}

/// Soup tokens: punctuation, quoted member names, and every value.
fn soup_tokens(members: &[(&'static str, Vec<String>)]) -> Vec<String> {
    let mut out: Vec<String> = ["{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\n", "1"]
        .map(str::to_owned)
        .to_vec();
    for (key, values) in members {
        out.push(json_str(key));
        out.extend(values.iter().cloned());
    }
    out
}

fn random_bytes(rng: &mut Mix, len: usize) -> String {
    let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

fn soup(rng: &mut Mix, tokens: &[String], len: usize) -> String {
    let mut out = String::new();
    for _ in 0..len {
        out.push_str(rng.pick(tokens));
        if rng.below(2) == 0 {
            out.push(' ');
        }
    }
    out
}

/// A request object: `v`, an `op`, the members that op needs (each left
/// out one time in eight) and up to four other distinct members. `v` is
/// 1 and every other value comes from its own member's pool, except one
/// value in sixteen, which comes from any pool; one frame in four is then
/// truncated or has a soup token spliced in.
fn envelope(rng: &mut Mix, members: &[(&'static str, Vec<String>)], tokens: &[String]) -> String {
    let index = |key: &str| members.iter().position(|m| m.0 == key).unwrap();
    let op = rng.pick(&members[index("op")].1).to_owned();
    let needs: &[&str] = match op.as_str() {
        "\"load\"" => &["design", "net", "lib"],
        "\"eco\"" => &["design", "edits"],
        "\"solve\"" | "\"unload\"" => &["design"],
        _ => &[],
    };
    let mut chosen: Vec<usize> = needs
        .iter()
        .filter(|_| rng.below(8) != 0)
        .map(|key| index(key))
        .collect();
    let mut extras: Vec<usize> = (0..members.len())
        .filter(|&m| !chosen.contains(&m) && !["v", "op"].contains(&members[m].0))
        .collect();
    rng.shuffle(&mut extras);
    chosen.extend(&extras[..rng.below(5)]);
    let mut fields = vec![format!("\"op\": {op}")];
    chosen.push(index("v"));
    for m in chosen {
        let (key, own) = &members[m];
        let value = match rng.below(16) {
            0 => {
                let other = rng.below(members.len());
                rng.pick(&members[other].1)
            }
            _ if *key == "v" => "1",
            _ => rng.pick(own),
        };
        fields.push(format!("{}: {value}", json_str(key)));
    }
    rng.shuffle(&mut fields);
    let mut frame = format!("{{{}}}", fields.join(", "));
    let mut at = rng.below(frame.len() + 1);
    while !frame.is_char_boundary(at) {
        at -= 1;
    }
    match rng.below(8) {
        0 => frame.truncate(at),
        1 => frame.insert_str(at, rng.pick(tokens)),
        _ => {}
    }
    frame
}

/// Sends `frame` and checks the reply.
fn check(registry: &DesignRegistry, config: &ServerConfig, frame: &str) {
    let outcome = handle_frame(registry, config, frame, Instant::now());
    let reply = outcome.reply();
    let json = Json::parse(reply)
        .unwrap_or_else(|e| panic!("reply is not JSON ({e}): {reply}\nframe: {frame:?}"));
    assert!(
        matches!(json.get("ok"), Some(Json::Bool(_))),
        "reply has no boolean `ok`: {reply}\nframe: {frame:?}"
    );
    let code = json
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str);
    assert_ne!(
        code,
        Some("internal"),
        "a frame reached a panic: {reply}\nframe: {frame:?}"
    );
}

fn registry() -> DesignRegistry {
    let registry = DesignRegistry::new(4);
    let tree = fastbuf::rctree::io::parse(&net_text()).unwrap();
    registry.load(
        "d1",
        Session::new(BufferLibrary::paper_synthetic(3).unwrap()),
        tree,
    );
    registry
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_get_a_typed_json_reply(seed in 0u64..u64::MAX, len in 0usize..600) {
        let (registry, config) = (registry(), ServerConfig::default());
        let mut rng = Mix(seed);
        check(&registry, &config, &random_bytes(&mut rng, len));
    }

    #[test]
    fn keyword_soup_gets_a_typed_json_reply(seed in 0u64..u64::MAX, len in 0usize..40) {
        let (registry, config) = (registry(), ServerConfig::default());
        let tokens = soup_tokens(&members());
        let mut rng = Mix(seed);
        let mut frame = soup(&mut rng, &tokens, len);
        if rng.below(2) == 0 {
            frame.insert(0, '{');
        }
        check(&registry, &config, &frame);
    }

    #[test]
    fn random_envelopes_get_a_typed_json_reply(seed in 0u64..u64::MAX, frames in 1usize..8) {
        let (registry, config) = (registry(), ServerConfig::default());
        let members = members();
        let tokens = soup_tokens(&members);
        let mut rng = Mix(seed);
        for _ in 0..frames {
            let frame = envelope(&mut rng, &members, &tokens);
            check(&registry, &config, &frame);
        }
    }
}
