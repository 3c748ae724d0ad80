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
use std::time::Instant;

use fastbuf_api::wire::Json;
use fastbuf_api::Session;
use fastbuf_bench::{fixed, fmt_duration, print_table, write_bench};
use fastbuf_buflib::BufferLibrary;
use fastbuf_netgen::RandomNetSpec;
use fastbuf_rctree::io as netio;
use fastbuf_server::{Server, ServerConfig};

struct Options {
    sinks: usize,
    requests: usize,
    seed: u64,
    out: String,
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: server_throughput [--sinks N] [--requests K] [--seed S] [--out FILE] [--quick]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn parse_args() -> Options {
    let mut opts = Options {
        sinks: 64,
        requests: 16,
        seed: 1,
        out: "BENCH_server.json".to_owned(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |what: &str| args.next().unwrap_or_else(|| usage(what));
        match arg.as_str() {
            "--sinks" => {
                opts.sinks = next("--sinks needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --sinks"))
            }
            "--requests" => {
                opts.requests = next("--requests needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --requests"))
            }
            "--seed" => {
                opts.seed = next("--seed needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--out" => opts.out = next("--out needs a value"),
            "--quick" => {
                // CI smoke size: exercise the real pipeline in seconds.
                opts.sinks = 12;
                opts.requests = 3;
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if opts.sinks < 2 {
        usage("--sinks must be at least 2");
    }
    if opts.requests == 0 {
        usage("--requests must be at least 1");
    }
    opts
}

/// One closed-loop client: send a frame, block for the reply, repeat.
fn warm_client(addr: SocketAddr, requests: usize, client: usize) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    for i in 0..requests {
        let frame = Json::obj([
            ("v", 1u64.into()),
            ("id", format!("c{client}-{i}").into()),
            ("op", "solve".into()),
            ("design", "bench".into()),
        ]);
        writeln!(writer, "{frame}").expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        let reply = Json::parse(line.trim()).expect("reply parses");
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "solve failed: {line}"
        );
    }
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
    let opts = parse_args();
    let tree = RandomNetSpec {
        seed: opts.seed,
        ..RandomNetSpec::paper(opts.sinks)
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
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let frame = Json::obj([
            ("v", 1u64.into()),
            ("id", "load".into()),
            ("op", "load".into()),
            ("design", "bench".into()),
            ("net", net_text.as_str().into()),
            ("lib", lib_text.as_str().into()),
        ]);
        writeln!(writer, "{frame}").expect("send load");
        let mut line = String::new();
        reader.read_line(&mut line).expect("load reply");
        let reply = Json::parse(line.trim()).expect("load reply parses");
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "load failed: {line}"
        );
    }

    println!(
        "# server throughput: {} sinks, {} buffer positions, {} requests/client\n",
        tree.sink_count(),
        tree.buffer_site_count(),
        opts.requests
    );

    let client_counts = [1usize, 2, 4, 8];
    let (mut rows, mut runs) = (Vec::new(), Vec::new());
    for &clients in &client_counts {
        let total = clients * opts.requests;

        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..clients {
                scope.spawn(move || warm_client(addr, opts.requests, c));
            }
        });
        let warm = t0.elapsed();

        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..clients {
                scope.spawn(|| {
                    for _ in 0..opts.requests {
                        cold_request(&cold_mode, &net_path, &lib_path);
                    }
                });
            }
        });
        let cold = t0.elapsed();

        let warm_rps = total as f64 / warm.as_secs_f64();
        let cold_rps = total as f64 / cold.as_secs_f64();
        rows.push(vec![
            clients.to_string(),
            fmt_duration(warm),
            format!("{warm_rps:.1}"),
            fmt_duration(cold),
            format!("{cold_rps:.1}"),
            format!("{:.2}x", warm_rps / cold_rps),
        ]);
        runs.push(Json::obj([
            ("clients", clients.into()),
            ("warm_secs", fixed(warm.as_secs_f64(), 6)),
            ("warm_req_per_sec", fixed(warm_rps, 2)),
            ("cold_secs", fixed(cold.as_secs_f64(), 6)),
            ("cold_req_per_sec", fixed(cold_rps, 2)),
            ("warm_over_cold", fixed(warm_rps / cold_rps, 3)),
        ]));
    }
    print_table(
        &[
            "clients",
            "warm wall",
            "warm req/s",
            "cold wall",
            "cold req/s",
            "warm/cold",
        ],
        &rows,
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
        &opts.out,
        [
            ("sinks", tree.sink_count().into()),
            ("sites", tree.buffer_site_count().into()),
            ("seed", opts.seed.into()),
            ("requests_per_client", opts.requests.into()),
            ("cold_mode", cold_mode.into()),
        ],
        runs,
    );
}
