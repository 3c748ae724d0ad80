//! Soak: a long run of sequential clients must not leak descriptors or
//! memory.
//!
//! One in-process server on loopback serves 40 client connections in
//! turn, each about 100 frames: load a design, a mix of solve, yield,
//! eco and stats requests, one malformed frame, unload. After five
//! warm-up connections the test records the process's open descriptors
//! (`/proc/self/fd`) and resident memory (`VmRSS`); at the end the
//! descriptor count must be back at the warm-up count once the handler
//! threads close their sockets, and resident memory must have grown by
//! less than 2 MiB. Both readings are printed (`-- --nocapture`).

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use fastbuf_api::wire::Json;
use fastbuf_buflib::units::Microns;
use fastbuf_buflib::BufferLibrary;
use fastbuf_netgen::line_net;
use fastbuf_rctree::io as netio;
use fastbuf_server::{Server, ServerConfig};

const CONNECTIONS: usize = 40;
const WARM_UP: usize = 5;
/// Request frames between a connection's load and its malformed frame.
const MIXED: usize = 96;
const SPEC: &str = "wire-r normal 1.0 0.05\nwire-c normal 1.0 0.05\nlocality 0.5\nseed 5\n";

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

    fn reply(&mut self, frame: &str) -> Json {
        writeln!(self.writer, "{frame}").expect("send");
        self.writer.flush().expect("flush");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply");
        Json::parse(line.trim()).expect("reply is valid JSON")
    }

    fn ok(&mut self, frame: &str) {
        let reply = self.reply(frame);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "expected ok reply to {frame}: {}",
            reply.to_json()
        );
    }
}

/// One connection: load the design, the mixed frames, a malformed frame,
/// unload.
fn session(addr: SocketAddr, load: &str, c: usize) {
    let mut client = Client::connect(addr);
    client.ok(load);
    let variation = Json::Str(SPEC.to_owned()).to_json();
    for i in 0..MIXED {
        let id = format!("c{c}-r{i}");
        let frame = match i % 6 {
            0 | 1 => format!(r#"{{"v": 1, "id": "{id}", "op": "solve", "design": "soak"}}"#),
            2 => format!(
                r#"{{"v": 1, "id": "{id}", "op": "solve", "design": "soak", "variation": {variation}, "samples": 6, "quantile": 0.5}}"#
            ),
            3 | 4 => format!(
                r#"{{"v": 1, "id": "{id}", "op": "eco", "design": "soak", "edits": ["rat n11 -{}"]}}"#,
                200 + i
            ),
            _ => format!(r#"{{"v": 1, "id": "{id}", "op": "stats"}}"#),
        };
        client.ok(&frame);
    }
    let garbage = client.reply("{not json");
    assert_eq!(
        garbage
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("parse")
    );
    client.ok(r#"{"v": 1, "id": "unload", "op": "unload", "design": "soak"}"#);
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd is readable")
        .count()
}

fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("a VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmRSS in kB")
}

/// The descriptor count once it has fallen to `target`, or the last
/// reading after a second of polling: a handler thread closes its socket
/// shortly after its client hangs up.
fn settled_fds(target: usize) -> usize {
    let start = Instant::now();
    loop {
        let fds = open_fds();
        if fds <= target || start.elapsed() > Duration::from_secs(1) {
            return fds;
        }
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn sequential_clients_leak_no_descriptors_or_memory() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Server::new(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let server_thread = thread::spawn(move || server.serve_tcp(listener).unwrap());

    let load = format!(
        r#"{{"v": 1, "id": "load", "op": "load", "design": "soak", "net": {}, "lib": {}}}"#,
        Json::Str(netio::write(&line_net(Microns::new(8_000.0), 10))).to_json(),
        Json::Str(BufferLibrary::paper_synthetic(6).unwrap().to_text()).to_json(),
    );
    let fds_idle = open_fds();
    for c in 0..WARM_UP {
        session(addr, &load, c);
    }
    let (fds_warm, rss_warm) = (settled_fds(fds_idle), rss_kib());
    for c in WARM_UP..CONNECTIONS {
        session(addr, &load, c);
    }
    let (fds_end, rss_end) = (settled_fds(fds_warm), rss_kib());
    println!(
        "soak: {CONNECTIONS} connections of {} frames; open fds {fds_warm} after warm-up, \
         {fds_end} at the end; VmRSS {rss_warm} KiB after warm-up, {rss_end} KiB at the end",
        MIXED + 3
    );
    assert_eq!(fds_end, fds_warm, "descriptors leaked");
    assert!(
        rss_end < rss_warm + 2048,
        "VmRSS grew from {rss_warm} to {rss_end} KiB"
    );

    Client::connect(addr).ok(r#"{"v": 1, "id": "bye", "op": "shutdown"}"#);
    server_thread.join().expect("server thread");
}
