//! Concurrent clients hammering one TCP server.
//!
//! Four client threads interleave `solve` and `eco` requests across two
//! resident designs while the test asserts the server's core contract:
//! every response is routed to the connection that asked (the echoed
//! `id`), solve results are **bit-identical** to a direct in-process
//! [`Session`] solve and eco results to a direct [`EcoSolver`] run,
//! malformed frames and over-deadline requests get typed error replies,
//! and the process stays up through all of it until a `shutdown` op
//! drains the pool.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;

use fastbuf_api::wire::Json;
use fastbuf_api::{NetOutcome, Scenario, Session};
use fastbuf_buflib::units::Microns;
use fastbuf_buflib::BufferLibrary;
use fastbuf_incremental::parse_edits;
use fastbuf_netgen::line_net;
use fastbuf_rctree::{io as netio, RoutingTree};
use fastbuf_server::{Server, ServerConfig};

/// One synchronous client: a request frame in, its reply frame out.
/// Each thread keeps one in-flight request per connection, so replies
/// landing on the *wrong* connection would surface as an id mismatch.
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

    fn roundtrip(&mut self, id: &str, frame: &str) -> Json {
        writeln!(self.writer, "{frame}").expect("send");
        self.writer.flush().expect("flush");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply");
        let reply = Json::parse(line.trim()).expect("reply is valid JSON");
        assert_eq!(
            reply.get("id").and_then(Json::as_str),
            Some(id),
            "reply routed to the wrong request: {line}"
        );
        reply
    }

    fn ok(&mut self, id: &str, frame: &str) -> Json {
        let reply = self.roundtrip(id, frame);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "expected ok reply: {}",
            reply.to_json()
        );
        reply
            .get("result")
            .expect("ok replies carry a result")
            .clone()
    }

    fn err_code(&mut self, id: &str, frame: &str) -> String {
        let reply = self.roundtrip(id, frame);
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .expect("error replies carry a code")
            .to_owned()
    }
}

fn lib_text() -> String {
    BufferLibrary::paper_synthetic(6).unwrap().to_text()
}

/// Nets round-trip through the text format: the server parses what the
/// `load` frame carried, so a bit-identity check must solve the *parsed*
/// tree, not the generator's in-memory one.
fn net_a() -> RoutingTree {
    netio::parse(&netio::write(&line_net(Microns::new(8_000.0), 10))).unwrap()
}

fn net_b() -> RoutingTree {
    netio::parse(&netio::write(&line_net(Microns::new(6_000.0), 8))).unwrap()
}

fn load_frame(id: &str, design: &str, tree: &RoutingTree) -> String {
    format!(
        r#"{{"v": 1, "id": "{id}", "op": "load", "design": "{design}", "net": {}, "lib": {}}}"#,
        Json::Str(netio::write(tree)).to_json(),
        Json::Str(lib_text()).to_json(),
    )
}

/// The bit-pattern signature of a solve record: every float compared by
/// `to_bits`, so "close" is not "equal" — only the exact same bits pass.
#[derive(Debug, PartialEq, Eq, Clone)]
struct Signature {
    slack_before: u64,
    slack_after: u64,
    slew_before: u64,
    max_slew: u64,
    cost: u64,
    buffers: u64,
    sinks: u64,
    sites: u64,
    slew_ok: bool,
}

impl Signature {
    fn of_reply(result: &Json) -> Signature {
        let records = result
            .get("results")
            .and_then(Json::as_array)
            .expect("solve results");
        assert_eq!(records.len(), 1, "one default scenario");
        Signature::of_record(&records[0])
    }

    fn of_record(record: &Json) -> Signature {
        let f = |key: &str| {
            record
                .get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("missing {key}"))
                .to_bits()
        };
        let u = |key: &str| record.get(key).and_then(Json::as_u64).unwrap();
        Signature {
            slack_before: f("slack_before_ps"),
            slack_after: f("slack_after_ps"),
            slew_before: f("slew_before_ps"),
            max_slew: f("max_slew_ps"),
            cost: f("cost"),
            buffers: u("buffers"),
            sinks: u("sinks"),
            sites: u("sites"),
            slew_ok: record.get("slew_ok").and_then(Json::as_bool).unwrap(),
        }
    }

    fn of_direct(record: &Json) -> Signature {
        // Round-trip through the shared serializer so float formatting is
        // byte-for-byte the same code path as the server's replies.
        Signature::of_record(&Json::parse(&record.to_json()).unwrap())
    }
}

/// What a direct, in-process solve of design `a` produces (the server
/// serves with one intra-request worker; cross-request parallelism comes
/// from its pool).
fn direct_solve_signature() -> Signature {
    let session = Session::builder(BufferLibrary::from_text(&lib_text()).unwrap()).build();
    let tree = net_a();
    let outcome = session
        .request(&tree)
        .scenarios(vec![Scenario::default()])
        .workers(1)
        .solve()
        .unwrap();
    let record = NetOutcome::measure(0, &tree, session.library(), &outcome.scenarios[0])
        .unwrap()
        .to_value("a", None, false);
    Signature::of_direct(&record)
}

/// What a direct [`EcoSolver`] run produces for design `b` after the
/// (idempotent) edit every eco request applies.
fn direct_eco_signature(edit: &str) -> Signature {
    let session = Session::builder(BufferLibrary::from_text(&lib_text()).unwrap()).build();
    let mut solver = session.eco(&net_b(), vec![Scenario::default()]).unwrap();
    solver.apply_all(&parse_edits(edit).unwrap()).unwrap();
    let outcome = solver.solve().unwrap();
    let record = NetOutcome::measure(0, solver.tree(), session.library(), &outcome.scenarios[0])
        .unwrap()
        .to_value("b", None, false);
    Signature::of_direct(&record)
}

#[test]
fn newline_free_floods_are_capped_with_too_large_and_dropped() {
    const MAX_FRAME: usize = 1024;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Server::new(ServerConfig {
        workers: 2,
        max_frame_bytes: MAX_FRAME,
        ..ServerConfig::default()
    });
    let server_thread = thread::spawn(move || server.serve_tcp(listener).unwrap());

    // A newline-free line at the reader's hard cap (frame limit plus
    // newline slack): the server must answer `too-large` after reading
    // at most that many bytes — not buffer until a newline shows up —
    // and then hang up on the connection.
    let mut flood = Client::connect(addr);
    flood.writer.write_all(&vec![b'x'; MAX_FRAME + 2]).unwrap();
    flood.writer.flush().unwrap();
    let mut line = String::new();
    flood.reader.read_line(&mut line).unwrap();
    let reply = Json::parse(line.trim()).expect("typed too-large reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("too-large")
    );
    line.clear();
    assert_eq!(
        flood.reader.read_line(&mut line).unwrap(),
        0,
        "over-cap connection must be dropped"
    );

    // The server itself is unharmed: fresh connections keep working.
    let mut fresh = Client::connect(addr);
    fresh.ok("alive", r#"{"v": 1, "id": "alive", "op": "ping"}"#);
    fresh.ok("bye", r#"{"v": 1, "id": "bye", "op": "shutdown"}"#);
    server_thread.join().expect("server thread");
}

#[test]
fn concurrent_clients_get_isolated_bit_identical_results() {
    // `rat` edits are idempotent, so any interleaving of eco requests
    // leaves design `b` in the same state and every eco reply must carry
    // the same result — a determinism check that needs no edit ordering.
    const ECO_EDIT: &str = "rat n9 -250";
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 8;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Server::new(ServerConfig {
        workers: 4,
        max_inflight: 8,
        ..ServerConfig::default()
    });
    let server_thread = thread::spawn(move || server.serve_tcp(listener).unwrap());

    let mut admin = Client::connect(addr);
    admin.ok("load-a", &load_frame("load-a", "a", &net_a()));
    admin.ok("load-b", &load_frame("load-b", "b", &net_b()));

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                (0..REQUESTS)
                    .map(|i| {
                        let id = format!("c{c}-r{i}");
                        // Even clients solve design `a`; odd clients eco
                        // design `b` — interleaved across the shared pool.
                        let frame = if c % 2 == 0 {
                            format!(
                                r#"{{"v": 1, "id": "{id}", "op": "solve", "design": "a"}}"#
                            )
                        } else {
                            format!(
                                r#"{{"v": 1, "id": "{id}", "op": "eco", "design": "b", "edits": ["{ECO_EDIT}"]}}"#
                            )
                        };
                        Signature::of_reply(&client.ok(&id, &frame))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let per_client: Vec<Vec<Signature>> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    let want_solve = direct_solve_signature();
    let want_eco = direct_eco_signature(ECO_EDIT);
    for (c, signatures) in per_client.iter().enumerate() {
        let want = if c % 2 == 0 { &want_solve } else { &want_eco };
        for (i, got) in signatures.iter().enumerate() {
            assert_eq!(got, want, "client {c} request {i} diverged");
        }
    }

    // The hammered server is still healthy and still has both designs.
    let stats = admin.ok("stats", r#"{"v": 1, "id": "stats", "op": "stats"}"#);
    assert_eq!(stats.get("resident").and_then(Json::as_u64), Some(2));

    // Failure modes are typed replies on the same connection, never a
    // dead process.
    let mut hostile = Client::connect(addr);
    {
        // A malformed frame has no parseable id; check the raw reply.
        writeln!(hostile.writer, "{{not json").unwrap();
        let mut line = String::new();
        hostile.reader.read_line(&mut line).unwrap();
        let reply = Json::parse(line.trim()).expect("typed reply to garbage");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            reply
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("parse")
        );
    }
    let code = hostile.err_code("v9", r#"{"v": 9, "id": "v9", "op": "ping"}"#);
    assert_eq!(code, "unsupported-version");
    let code = hostile.err_code(
        "ghost",
        r#"{"v": 1, "id": "ghost", "op": "solve", "design": "nope"}"#,
    );
    assert_eq!(code, "unknown-design");
    let code = hostile.err_code(
        "late",
        r#"{"v": 1, "id": "late", "op": "solve", "design": "a", "deadline_ms": 0}"#,
    );
    assert_eq!(code, "deadline");
    // ...and the connection still works afterwards.
    hostile.ok("alive", r#"{"v": 1, "id": "alive", "op": "ping"}"#);

    // Graceful shutdown: the op is acknowledged, in-flight work drains,
    // and serve_tcp returns.
    admin.ok("bye", r#"{"v": 1, "id": "bye", "op": "shutdown"}"#);
    server_thread.join().expect("server thread");
}
