//! The serve core both transports share: one bounded job queue and one
//! worker pool, driven over TCP and over an in-memory byte stream.
//!
//! The TCP burst fills a one-slot queue from a single pipelining client,
//! so the reader blocks on every admission (the backpressure path) and
//! the shutdown drains what is still queued. The stream test runs the
//! `--stdio` path on byte buffers.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;

use fastbuf_api::wire::Json;
use fastbuf_api::{NetOutcome, Scenario, Session};
use fastbuf_buflib::units::Microns;
use fastbuf_buflib::BufferLibrary;
use fastbuf_netgen::line_net;
use fastbuf_rctree::io as netio;
use fastbuf_server::{Server, ServerConfig};

fn ok_result(reply: &Json) -> &Json {
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected ok reply: {}",
        reply.to_json()
    );
    reply.get("result").expect("ok replies carry a result")
}

#[test]
fn a_pipelined_burst_through_a_one_slot_queue_is_answered_exactly_once() {
    const PINGS: usize = 50;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Server::new(ServerConfig {
        workers: 2,
        max_inflight: 1,
        ..ServerConfig::default()
    });
    let server_thread = thread::spawn(move || server.serve_tcp(listener).unwrap());

    // Every frame goes out before any reply is read.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut burst = String::new();
    for i in 0..PINGS {
        burst.push_str(&format!(r#"{{"v": 1, "id": "p{i}", "op": "ping"}}"#));
        burst.push('\n');
    }
    burst.push_str(r#"{"v": 1, "id": "bye", "op": "shutdown"}"#);
    burst.push('\n');
    stream.write_all(burst.as_bytes()).unwrap();
    stream.flush().unwrap();

    // The server closes the connection once every queued reply is out,
    // so reading to EOF sees each reply the burst produced.
    let mut answered: BTreeMap<String, usize> = BTreeMap::new();
    for line in BufReader::new(stream).lines() {
        let reply = Json::parse(line.unwrap().trim()).expect("reply is valid JSON");
        ok_result(&reply);
        let id = reply.get("id").and_then(Json::as_str).expect("echoed id");
        *answered.entry(id.to_owned()).or_default() += 1;
    }
    let mut want: Vec<String> = (0..PINGS).map(|i| format!("p{i}")).collect();
    want.push("bye".into());
    want.sort();
    assert_eq!(answered.keys().cloned().collect::<Vec<_>>(), want);
    assert!(
        answered.values().all(|&n| n == 1),
        "an id was answered more than once: {answered:?}"
    );
    server_thread
        .join()
        .expect("serve_tcp returns after shutdown");
}

#[test]
fn the_stream_transport_serves_load_solve_and_shutdown_on_byte_buffers() {
    let lib = BufferLibrary::paper_synthetic(6).unwrap();
    let tree = netio::parse(&netio::write(&line_net(Microns::new(8_000.0), 10))).unwrap();
    let input = format!(
        "{}\n{}\n{}\n",
        format_args!(
            r#"{{"v": 1, "id": "load", "op": "load", "design": "d", "net": {}, "lib": {}}}"#,
            Json::Str(netio::write(&tree)).to_json(),
            Json::Str(lib.to_text()).to_json(),
        ),
        r#"{"v": 1, "id": "solve", "op": "solve", "design": "d"}"#,
        r#"{"v": 1, "id": "bye", "op": "shutdown"}"#,
    );
    // One worker answers in arrival order, so `solve` sees the loaded design.
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut output = Vec::new();
    server.serve_stream(input.as_bytes(), &mut output);

    let replies: Vec<Json> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|line| Json::parse(line).expect("reply is valid JSON"))
        .collect();
    let ids: Vec<&str> = replies
        .iter()
        .map(|r| r.get("id").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(ids, ["load", "solve", "bye"]);
    for reply in &replies {
        ok_result(reply);
    }

    // The served solve carries the same slack bits as a direct solve.
    let session = Session::new(BufferLibrary::from_text(&lib.to_text()).unwrap());
    let outcome = session
        .request(&tree)
        .scenarios(vec![Scenario::default()])
        .workers(1)
        .solve()
        .unwrap();
    let direct = NetOutcome::measure(0, &tree, session.library(), &outcome.scenarios[0])
        .unwrap()
        .to_value("d", None, false);
    let slack = |record: &Json| {
        record
            .get("slack_after_ps")
            .and_then(Json::as_f64)
            .unwrap()
            .to_bits()
    };
    let served = ok_result(&replies[1])
        .get("results")
        .and_then(Json::as_array)
        .expect("solve results");
    assert_eq!(served.len(), 1, "one default scenario");
    assert_eq!(
        slack(&served[0]),
        slack(&Json::parse(&direct.to_json()).unwrap())
    );
}
