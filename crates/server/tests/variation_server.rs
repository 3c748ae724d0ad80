//! Variation solves under concurrent ECO pressure.
//!
//! Clients hammer one resident design with Monte-Carlo yield solves while
//! other clients interleave an (idempotent) ECO edit against the same
//! design. The contract under test: every variation reply is bit-identical
//! to a direct in-process [`Session`] yield solve of one of the two trees
//! the design can legally be in (pristine, or post-edit) — never a blend.
//! A mid-request edit bleeding into another client's sample family would
//! produce per-sample slacks matching neither signature and fail here.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;

use fastbuf_api::wire::{self, Json};
use fastbuf_api::{Objective, Scenario, Session};
use fastbuf_buflib::units::Microns;
use fastbuf_buflib::BufferLibrary;
use fastbuf_incremental::parse_edits;
use fastbuf_netgen::line_net;
use fastbuf_rctree::{io as netio, RoutingTree};
use fastbuf_server::{Server, ServerConfig};

/// The spec every client sends: wire R/C variation over half the tree.
const SPEC: &str = "wire-r normal 1.0 0.05\nwire-c normal 1.0 0.05\nlocality 0.5\nseed 5\n";
const SAMPLES: usize = 12;
/// Idempotent: any number of applications leaves the same tree.
const ECO_EDIT: &str = "rat n11 -250";

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn ok(&mut self, id: &str, frame: &str) -> Json {
        writeln!(self.writer, "{frame}").expect("send");
        self.writer.flush().expect("flush");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply");
        let reply = Json::parse(line.trim()).expect("reply is valid JSON");
        assert_eq!(reply.get("id").and_then(Json::as_str), Some(id));
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "expected ok reply: {}",
            reply.to_json()
        );
        reply.get("result").expect("result").clone()
    }
}

fn lib_text() -> String {
    BufferLibrary::paper_synthetic(6).unwrap().to_text()
}

/// The tree as the server sees it (round-tripped through the text format).
fn net_a() -> RoutingTree {
    netio::parse(&netio::write(&line_net(Microns::new(8_000.0), 10))).unwrap()
}

/// Every float of a variation record as exact bit patterns, including the
/// full per-sample array — "close" is not "equal" here.
fn vsig(record: &Json) -> Vec<u64> {
    let f = |k: &str| {
        record
            .get(k)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("missing {k}"))
            .to_bits()
    };
    let u = |k: &str| record.get(k).and_then(Json::as_u64).unwrap();
    let mut sig = vec![
        u("samples"),
        f("quantile"),
        f("quantile_slack_ps"),
        f("min_slack_ps"),
        f("max_slack_ps"),
        f("mean_slack_ps"),
        f("yield"),
    ];
    for sample in record.get("per_sample").and_then(Json::as_array).unwrap() {
        sig.push(sample.get("index").and_then(Json::as_u64).unwrap());
        sig.push(
            sample
                .get("slack_ps")
                .and_then(Json::as_f64)
                .unwrap()
                .to_bits(),
        );
        sig.push(u64::from(
            sample.get("slew_ok").and_then(Json::as_bool).unwrap(),
        ));
    }
    sig
}

/// A direct in-process yield solve of `tree`, serialized through the same
/// wire record the server replies with.
fn direct_variation_sig(tree: &RoutingTree) -> Vec<u64> {
    let session = Session::builder(BufferLibrary::from_text(&lib_text()).unwrap()).build();
    let spec = fastbuf_api::parse_variation_spec(SPEC).unwrap();
    let outcome = session
        .request(tree)
        .objective(Objective::YieldTarget {
            samples: SAMPLES,
            quantile: 0.5,
        })
        .variation(spec)
        .scenarios(vec![Scenario::default()])
        .workers(1)
        .solve()
        .unwrap();
    let record = wire::variation_record(&outcome.scenarios[0], false, true).unwrap();
    vsig(&Json::parse(&record.to_json()).unwrap())
}

#[test]
fn variation_solves_stay_bit_identical_under_interleaved_ecos() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 6;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Server::new(ServerConfig {
        workers: 4,
        max_inflight: 8,
        ..ServerConfig::default()
    });
    let server_thread = thread::spawn(move || server.serve_tcp(listener).unwrap());

    let mut admin = Client::connect(addr);
    admin.ok(
        "load-a",
        &format!(
            r#"{{"v": 1, "id": "load-a", "op": "load", "design": "a", "net": {}, "lib": {}}}"#,
            Json::Str(netio::write(&net_a())).to_json(),
            Json::Str(lib_text()).to_json(),
        ),
    );

    // The two legal sample families: the pristine tree, and the tree after
    // the idempotent edit has committed.
    let want_pristine = direct_variation_sig(&net_a());
    let edited_tree = {
        let session = Session::builder(BufferLibrary::from_text(&lib_text()).unwrap()).build();
        let mut solver = session.eco(&net_a(), vec![Scenario::default()]).unwrap();
        solver.apply_all(&parse_edits(ECO_EDIT).unwrap()).unwrap();
        solver.tree().clone()
    };
    let want_edited = direct_variation_sig(&edited_tree);
    assert_ne!(
        want_pristine, want_edited,
        "the edit must move the slack distribution, or the test is vacuous"
    );

    let yield_frame = |id: &str| {
        format!(
            r#"{{"v": 1, "id": "{id}", "op": "solve", "design": "a", "variation": {}, "samples": {SAMPLES}, "quantile": 0.5}}"#,
            Json::Str(SPEC.to_owned()).to_json(),
        )
    };

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let yield_frame = yield_frame(&format!("c{c}"));
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut sigs = Vec::new();
                for i in 0..REQUESTS {
                    if c % 2 == 0 {
                        let frame = yield_frame.replace(&format!("c{c}"), &format!("c{c}-r{i}"));
                        let result = client.ok(&format!("c{c}-r{i}"), &frame);
                        let records = result.get("results").and_then(Json::as_array).unwrap();
                        assert_eq!(records.len(), 1);
                        sigs.push(vsig(&records[0]));
                    } else {
                        let id = format!("c{c}-r{i}");
                        client.ok(
                            &id,
                            &format!(
                                r#"{{"v": 1, "id": "{id}", "op": "eco", "design": "a", "edits": ["{ECO_EDIT}"]}}"#
                            ),
                        );
                    }
                }
                sigs
            })
        })
        .collect();

    let all_sigs: Vec<Vec<u64>> = workers
        .into_iter()
        .flat_map(|w| w.join().unwrap())
        .collect();
    assert!(!all_sigs.is_empty());
    for (i, sig) in all_sigs.iter().enumerate() {
        assert!(
            *sig == want_pristine || *sig == want_edited,
            "reply {i} matches neither legal sample family — an ECO edit \
             bled into a variation solve mid-request"
        );
    }

    // After the dust settles the committed tree is the edited one, and a
    // fresh variation solve must match it exactly.
    let result = admin.ok("final", &yield_frame("final"));
    let records = result.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(vsig(&records[0]), want_edited);

    // Yield parameters without a variation block are a typed error, and
    // eco refuses variation blocks outright.
    let mut hostile = Client::connect(addr);
    for (id, frame) in [
        (
            "orphan",
            r#"{"v": 1, "id": "orphan", "op": "solve", "design": "a", "samples": 4}"#.to_owned(),
        ),
        (
            "vareco",
            format!(
                r#"{{"v": 1, "id": "vareco", "op": "eco", "design": "a", "edits": ["{ECO_EDIT}"], "variation": {}}}"#,
                Json::Str(SPEC.to_owned()).to_json(),
            ),
        ),
    ] {
        writeln!(hostile.writer, "{frame}").unwrap();
        hostile.writer.flush().unwrap();
        let mut line = String::new();
        hostile.reader.read_line(&mut line).unwrap();
        let reply = Json::parse(line.trim()).unwrap();
        assert_eq!(reply.get("id").and_then(Json::as_str), Some(id));
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            reply
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("bad-request"),
            "{line}"
        );
    }
    // A malformed spec maps to the solver's typed parse error.
    writeln!(
        hostile.writer,
        r#"{{"v": 1, "id": "badspec", "op": "solve", "design": "a", "variation": "wire-r normal 1.0 -0.5"}}"#
    )
    .unwrap();
    hostile.writer.flush().unwrap();
    let mut line = String::new();
    hostile.reader.read_line(&mut line).unwrap();
    let reply = Json::parse(line.trim()).unwrap();
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("variation-parse"),
        "{line}"
    );

    admin.ok("bye", r#"{"v": 1, "id": "bye", "op": "shutdown"}"#);
    server_thread.join().expect("server thread");
}
