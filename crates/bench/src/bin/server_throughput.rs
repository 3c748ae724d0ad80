//! Server throughput: requests/sec of `fastbuf serve` vs client count,
//! warm vs cold.
//!
//! The warm mode measures the point of the server: an in-process TCP
//! server with one resident design (library parsed once, `Session` and
//! workspaces warm) hammered by 1/2/4/8 concurrent closed-loop clients,
//! each waiting for its reply before sending the next solve. The cold
//! mode is the status quo it replaces: the same solve as a fresh
//! `fastbuf solve` **process per request** (binary discovered next to
//! this harness, or `$FASTBUF_BIN`), paying process spawn + net parse +
//! library parse + session build every time. When the CLI binary is not
//! built the cold runs fall back to an in-process cold path (full parse +
//! session build per request, no spawn) and the JSON says so.
//!
//! Writes `BENCH_server.json` (current directory) with a `runs` array so
//! successive runs can be compared.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin server_throughput --
//!       [--sinks N] [--requests K] [--seed S] [--out FILE] [--quick]`

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;

use fastbuf_api::wire::Json;
use fastbuf_api::Session;
use fastbuf_bench::{
    at_least, fixed, options, print_runs, time_arms, write_bench, Arm, Stopwatch, REPEATS,
};
use fastbuf_buflib::BufferLibrary;
use fastbuf_netgen::RandomNetSpec;
use fastbuf_rctree::io as netio;
use fastbuf_server::{Server, ServerConfig};

/// Sends `frame` on `stream` and blocks for an `"ok": true` reply.
fn call(stream: &mut BufReader<TcpStream>, frame: Json) {
    writeln!(stream.get_mut(), "{frame}").expect("send");
    let mut line = String::new();
    stream.read_line(&mut line).expect("reply");
    let reply = Json::parse(line.trim()).expect("reply parses");
    let ok = reply.get("ok").and_then(Json::as_bool);
    assert_eq!(ok, Some(true), "request failed: {line}");
}

/// A connection to the server at `addr`.
fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    BufReader::new(stream)
}

/// One closed-loop client: send a solve, block for the reply, repeat.
fn warm_client(addr: SocketAddr, requests: usize, client: usize) {
    let mut stream = connect(addr);
    for i in 0..requests {
        let id = format!("c{client}-{i}");
        let frame = [("id", &*id), ("op", "solve"), ("design", "bench")];
        call(&mut stream, frame_of(frame));
    }
}

/// A v1 request frame with the given string members.
fn frame_of<'a>(members: impl IntoIterator<Item = (&'a str, &'a str)>) -> Json {
    let mut frame = Json::obj([("v", 1u64.into())]);
    for (key, value) in members {
        frame.push(key, value);
    }
    frame
}

/// The `fastbuf` binary, if it was built alongside this harness.
fn fastbuf_binary() -> Option<PathBuf> {
    if let Ok(path) = std::env::var("FASTBUF_BIN") {
        let path = PathBuf::from(path);
        return path.is_file().then_some(path);
    }
    let mut path = std::env::current_exe().ok()?;
    path.set_file_name("fastbuf");
    path.is_file().then_some(path)
}

enum ColdMode {
    /// `fastbuf solve` process per request.
    Spawn(PathBuf),
    /// No CLI binary around: full parse + session build per request,
    /// in-process (still cold state, no spawn cost).
    InProcess,
}

fn cold_request(mode: &ColdMode, net_path: &str, lib_path: &str) {
    match mode {
        ColdMode::Spawn(bin) => {
            let status = std::process::Command::new(bin)
                .args(["solve", "--net", net_path, "--lib", lib_path])
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .status()
                .expect("spawn fastbuf");
            assert!(status.success(), "cold solve failed");
        }
        ColdMode::InProcess => {
            let net = std::fs::read_to_string(net_path).expect("read net");
            let tree = netio::parse(&net).expect("parse net");
            let lib = std::fs::read_to_string(lib_path).expect("read lib");
            let lib = BufferLibrary::from_text(&lib).expect("parse lib");
            let session = Session::new(lib);
            let outcome = session.request(&tree).workers(1).solve().expect("solve");
            outcome
                .verify(&tree, session.library())
                .expect("cold solve verifies");
        }
    }
}

fn main() {
    let (sinks, requests, seed, out) = options(
        "server_throughput [--sinks N] [--requests K] [--seed S] [--out FILE] [--quick]",
        "sinks requests seed out",
        "quick",
        |a| {
            // `--quick` is CI's smoke size: the real pipeline in seconds.
            let quick = a.switch("quick");
            Ok((
                at_least(a, "sinks", if quick { 12 } else { 64 }, 2)?,
                at_least(a, "requests", if quick { 3 } else { 16 }, 1)?,
                a.parsed_or("seed", 1)?,
                a.parsed_or("out", "BENCH_server.json".to_owned())?,
            ))
        },
    );
    let tree = RandomNetSpec {
        seed,
        ..RandomNetSpec::paper(sinks)
    }
    .build();
    let net_text = netio::write(&tree);
    let lib = BufferLibrary::paper_synthetic(16).expect("nonzero library");
    let lib_text = lib.to_text();

    // Cold requests read real files, like any CLI invocation would.
    let dir = std::env::temp_dir().join(format!("fastbuf-server-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let net_path = dir.join("bench.net");
    let lib_path = dir.join("bench.lib");
    std::fs::write(&net_path, &net_text).expect("write net");
    std::fs::write(&lib_path, &lib_text).expect("write lib");
    let net_path = net_path.to_str().expect("utf8 path").to_owned();
    let lib_path = lib_path.to_str().expect("utf8 path").to_owned();

    let cold_mode = match fastbuf_binary() {
        Some(bin) => {
            println!("# cold mode: spawning {}", bin.display());
            ColdMode::Spawn(bin)
        }
        None => {
            println!("# cold mode: in-process (fastbuf binary not found; build it for spawn cost)");
            ColdMode::InProcess
        }
    };

    // One resident server for every warm measurement; the design loads
    // once, exactly the deployment the server exists for.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = Server::new(ServerConfig {
        workers: 8,
        ..ServerConfig::default()
    });
    let stop = server.stop_flag();
    let server_thread = std::thread::spawn(move || server.serve_tcp(listener).expect("serve"));
    let load = [("op", "load"), ("design", "bench"), ("id", "load")];
    let load = load
        .into_iter()
        .chain([("net", &*net_text), ("lib", &*lib_text)]);
    call(&mut connect(addr), frame_of(load));

    println!(
        "# server throughput: {} sinks, {} buffer positions, {} requests/client\n",
        tree.sink_count(),
        tree.buffer_site_count(),
        requests
    );

    let client_counts = [1usize, 2, 4, 8];
    let mut runs = Vec::new();
    for &clients in &client_counts {
        let total = clients * requests;

        // Both arms fan out over client threads (and, cold, processes),
        // so only wall time means anything.
        let (cold_mode, net_path, lib_path) = (&cold_mode, &net_path, &lib_path);
        let timed = time_arms(
            vec![
                Arm::wall_only(|w: &mut Stopwatch| {
                    w.time(|| {
                        std::thread::scope(|scope| {
                            for c in 0..clients {
                                scope.spawn(move || warm_client(addr, requests, c));
                            }
                        })
                    })
                }),
                Arm::wall_only(|w: &mut Stopwatch| {
                    w.time(|| {
                        std::thread::scope(|scope| {
                            for _ in 0..clients {
                                scope.spawn(|| {
                                    for _ in 0..requests {
                                        cold_request(cold_mode, net_path, lib_path);
                                    }
                                });
                            }
                        })
                    })
                }),
            ],
            REPEATS,
        );
        let (warm, cold) = (&timed[0], &timed[1]);

        let warm_rps = total as f64 / warm.secs();
        let cold_rps = total as f64 / cold.secs();
        let mut run = Json::obj([
            ("clients", clients.into()),
            ("warm_req_per_sec", fixed(warm_rps, 2)),
            ("cold_req_per_sec", fixed(cold_rps, 2)),
            ("warm_over_cold", fixed(warm_rps / cold_rps, 3)),
        ]);
        warm.record(&mut run, "warm_");
        cold.record(&mut run, "cold_");
        runs.push(run);
    }
    print_runs(
        &runs,
        "clients warm_secs warm_req_per_sec cold_secs cold_req_per_sec warm_over_cold",
    );

    // Drain the server before reporting, so the numbers above are from a
    // healthy run end to end.
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    server_thread.join().expect("server thread");
    std::fs::remove_dir_all(&dir).ok();

    let cold_mode = match cold_mode {
        ColdMode::Spawn(_) => "process-spawn",
        ColdMode::InProcess => "in-process",
    };
    write_bench(
        &out,
        [
            ("sinks", tree.sink_count().into()),
            ("sites", tree.buffer_site_count().into()),
            ("seed", seed.into()),
            ("requests_per_client", requests.into()),
            ("cold_mode", cold_mode.into()),
        ],
        runs,
    );
}
