//! `serve_eco`: the write path of the resident server.
//!
//! An in-process `Server` on loopback TCP with one client connection. Set-up
//! loads a 128-sink paper-density net (b = 16) **inline** with one `load`
//! frame, so `setup_s` includes parsing that frame. Each op is one `eco`
//! frame with 2 edits from a fixed edit script (locality 0.1, no
//! verification): wire parse, handler, `EcoSolver` and subtree-cache
//! splicing, with the DP recomputing only the edited root paths. Edits
//! accumulate, so op `i` always sees the tree that ops `0..i` left.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use fastbuf_api::json::json_str;
use fastbuf_api::wire::Json;
use fastbuf_api::{EcoSolver, Scenario, Session};
use fastbuf_buflib::BufferLibrary;
use fastbuf_incremental::{parse_edits, Edit, IncrementalSolver};
use fastbuf_netgen::eco::EditScriptSpec;
use fastbuf_netgen::RandomNetSpec;
use fastbuf_rctree::{io as netio, RoutingTree};
use fastbuf_server::handler::handle_frame;
use fastbuf_server::registry::DesignRegistry;
use fastbuf_server::{Server, ServerConfig};

use super::{counters, maybe_span, p50_ms, same_bits, Layer, Workload, INPUT_SEED};
use crate::trace::{Tracer, SETUP_OP};

const SINKS: usize = 128;
const LIBRARY: usize = 16;
const EDITS_PER_OP: usize = 2;
const LOCALITY: f64 = 0.1;
const DESIGN: &str = "bench";
/// Every this many ops (and after the last) the reply's slack is checked
/// against a from-scratch solve of the same edited tree.
const SCRATCH_EVERY: usize = 64;

pub struct ServeEco {
    conn: Connection,
    tree: RoutingTree,
    library: BufferLibrary,
    /// The edited tree as the checks expect it.
    mirror: IncrementalSolver,
    /// Slack bits of the last checked reply.
    last_bits: u64,
    replay: Option<Replay>,
}

/// What set-up builds: the frames and a server holding the loaded design,
/// with one client connection to it.
pub struct Connection {
    stop: Arc<AtomicBool>,
    server: Option<JoinHandle<std::io::Result<()>>>,
    client: TcpStream,
    replies: BufReader<TcpStream>,
    /// One `eco` frame per op, newline-terminated.
    frames: Vec<String>,
    /// The edits of each frame, parsed back from its text as the server
    /// parses them.
    edits: Vec<Vec<Edit>>,
    load_frame: String,
    net_text: String,
    lib_text: String,
}

/// Private copies of each layer below the transport, fed the same frames.
struct Replay {
    registry: DesignRegistry,
    config: ServerConfig,
    eco: EcoSolver,
    incremental: IncrementalSolver,
    recomputed: u64,
    reused: u64,
    wire_ops: u64,
}

impl Workload for ServeEco {
    const NAME: &'static str = "serve_eco";
    const RATE: f64 = 650.0;
    const SETUPS: usize = 3;
    type Setup = Connection;
    type Out = std::io::Result<String>;

    fn setup(ops: usize, tr: &mut Tracer) -> Result<Connection, String> {
        let (tree, library, script) = tr.span("netgen.generate", SETUP_OP, |_| {
            let tree = RandomNetSpec {
                seed: INPUT_SEED,
                ..RandomNetSpec::paper(SINKS)
            }
            .build();
            let script = EditScriptSpec {
                edits: ops * EDITS_PER_OP,
                locality: LOCALITY,
                seed: INPUT_SEED,
                swap_library_every: 0,
            }
            .generate(&tree);
            (tree, BufferLibrary::paper_synthetic(LIBRARY), script)
        });
        let library = library.map_err(|e| e.to_string())?;
        let lib_text = library.to_text();
        let net_text = netio::write(&tree);
        let load_frame = format!(
            "{{\"v\": 1, \"id\": \"load\", \"op\": \"load\", \"design\": {}, \"net\": {}, \
             \"lib\": {}}}\n",
            json_str(DESIGN),
            json_str(&net_text),
            json_str(&lib_text),
        );
        let mut frames = Vec::with_capacity(ops);
        let mut edits = Vec::with_capacity(ops);
        for (i, pair) in script.chunks(EDITS_PER_OP).enumerate() {
            let lines: Vec<String> = pair.iter().map(ToString::to_string).collect();
            let quoted: Vec<String> = lines.iter().map(|l| json_str(l)).collect();
            frames.push(format!(
                "{{\"v\": 1, \"id\": {i}, \"op\": \"eco\", \"design\": {}, \"edits\": [{}], \
                 \"verify\": false}}\n",
                json_str(DESIGN),
                quoted.join(", ")
            ));
            edits.push(parse_edits(&lines.join("\n"))?);
        }

        let (stop, server, client) = tr.span("server.start", SETUP_OP, |_| {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            let addr = listener.local_addr().map_err(|e| e.to_string())?;
            let server = Server::new(ServerConfig::default());
            let stop = server.stop_flag();
            let handle = std::thread::spawn(move || server.serve_tcp(listener));
            let client = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            client.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok::<_, String>((stop, handle, client))
        })?;
        let replies = BufReader::new(client.try_clone().map_err(|e| e.to_string())?);
        let mut conn = Connection {
            stop,
            server: Some(server),
            client,
            replies,
            frames,
            edits,
            load_frame,
            net_text,
            lib_text,
        };
        let reply = tr.span("server.load", SETUP_OP, |_| {
            conn.round_trip(&conn.load_frame.clone())
        });
        let reply = reply.map_err(|e| format!("load: {e}"))?;
        ok_result(&reply).map_err(|e| format!("load: {e}"))?;
        Ok(conn)
    }

    fn prepare(conn: Connection, _tr: &mut Tracer) -> Result<Self, String> {
        // The checks start from the net and library exactly as the
        // server parsed them.
        let tree = netio::parse(&conn.net_text).map_err(|e| e.to_string())?;
        let library = BufferLibrary::from_text(&conn.lib_text)?;
        Ok(ServeEco {
            mirror: IncrementalSolver::new(tree.clone(), library.clone()),
            conn,
            tree,
            library,
            last_bits: 0,
            replay: None,
        })
    }

    fn op(&mut self, i: usize, mut tr: Option<&mut Tracer>) -> Self::Out {
        let conn = &mut self.conn;
        let (frame, client, replies) = (&conn.frames[i], &mut conn.client, &mut conn.replies);
        maybe_span(&mut tr, "server.rtt", i, || {
            client.write_all(frame.as_bytes())?;
            let mut reply = String::new();
            replies.read_line(&mut reply)?;
            Ok(reply)
        })
    }

    fn check(&mut self, i: usize, out: Self::Out) -> Result<(), String> {
        let reply = out.map_err(|e| e.to_string())?;
        let bits = eco_result(&reply, i)?;
        self.last_bits = bits;
        self.mirror
            .apply_all(&self.conn.edits[i])
            .map_err(|e| e.to_string())?;
        if i % SCRATCH_EVERY == SCRATCH_EVERY - 1 || i + 1 == self.conn.frames.len() {
            let scratch = self.mirror.solve_scratch();
            same_bits(
                "eco reply slack",
                f64::from_bits(bits),
                scratch.slack.picos(),
            )?;
        }
        Ok(())
    }

    fn replay_setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        tr.span("api.wire_parse", SETUP_OP, |_| {
            Json::parse(self.conn.load_frame.trim())
        })
        .map_err(|e| e.to_string())?;
        tr.span("rctree.parse", SETUP_OP, |_| {
            netio::parse(&self.conn.net_text)
        })
        .map_err(|e| e.to_string())?;
        let registry = DesignRegistry::new(1);
        let config = ServerConfig::default();
        let reply = handle_frame(
            &registry,
            &config,
            self.conn.load_frame.trim(),
            Instant::now(),
        );
        ok_result(reply.reply())?;
        let eco = Session::new(self.library.clone())
            .eco(&self.tree, vec![Scenario::default()])
            .map_err(|e| e.to_string())?;
        self.replay = Some(Replay {
            registry,
            config,
            eco,
            incremental: IncrementalSolver::new(self.tree.clone(), self.library.clone()),
            recomputed: 0,
            reused: 0,
            wire_ops: 0,
        });
        Ok(())
    }

    fn replay(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let r = self.replay.as_mut().ok_or("replay before replay_setup")?;
        let (frame, edits, op) = (self.conn.frames[i].trim(), &self.conn.edits[i], i as u64);
        let reply = tr.span("server.handle", op, |_| {
            handle_frame(&r.registry, &r.config, frame, Instant::now())
        });
        let handled = eco_result(reply.reply(), i)?;
        same_bits(
            "handler slack",
            f64::from_bits(handled),
            f64::from_bits(self.last_bits),
        )?;

        let outcome = tr.span("api.eco", op, |_| {
            r.eco.apply_all(edits)?;
            r.eco.solve()
        });
        let outcome = outcome.map_err(|e| e.to_string())?;
        let api = outcome.solution().ok_or("eco outcome without a solution")?;
        let solution = tr.span("incremental.solve", op, |_| {
            r.incremental
                .apply_all(edits)
                .map(|()| r.incremental.solve())
        });
        let solution = solution.map_err(|e| e.to_string())?;
        same_bits(
            "api eco slack",
            api.slack.picos(),
            f64::from_bits(self.last_bits),
        )?;
        same_bits(
            "incremental slack",
            solution.slack.picos(),
            f64::from_bits(self.last_bits),
        )?;
        if counters(&api.stats) != counters(&solution.stats) {
            return Err("api eco and incremental work counters differ".to_owned());
        }
        r.recomputed += solution.stats.nodes_recomputed;
        r.reused += solution.stats.nodes_reused;
        r.wire_ops += solution.stats.wire_ops;
        Ok(())
    }

    fn layers(&self, tr: &Tracer) -> Vec<Layer> {
        let rtt = p50_ms(tr, "server.rtt");
        let handle = p50_ms(tr, "server.handle");
        let (recomputed, reused, wire_ops) = self
            .replay
            .as_ref()
            .map_or((0, 0, 0), |r| (r.recomputed, r.reused, r.wire_ops));
        vec![
            Layer::new("server.rtt_ms_p50", "ms", rtt),
            Layer::new("server.handle_ms_p50", "ms", handle),
            Layer::new("server.transport_ms", "ms", rtt - handle),
            Layer::new("api.eco_ms_p50", "ms", p50_ms(tr, "api.eco")),
            Layer::new(
                "incremental.solve_ms_p50",
                "ms",
                p50_ms(tr, "incremental.solve"),
            ),
            Layer::new(
                "incremental.reuse_ratio",
                "ratio",
                reused as f64 / (reused + recomputed).max(1) as f64,
            ),
            Layer::count("core.nodes_recomputed", recomputed),
            Layer::count("core.nodes_reused", reused),
            Layer::count("core.wire_ops", wire_ops),
            Layer::new("api.wire_parse_ms", "ms", p50_ms(tr, "api.wire_parse")),
            Layer::new("rctree.parse_ms", "ms", p50_ms(tr, "rctree.parse")),
            Layer::new("server.load_ms", "ms", p50_ms(tr, "server.load")),
            Layer::new("netgen.generate_ms", "ms", p50_ms(tr, "netgen.generate")),
        ]
    }
}

impl Connection {
    fn round_trip(&mut self, frame: &str) -> std::io::Result<String> {
        self.client.write_all(frame.as_bytes())?;
        let mut reply = String::new();
        self.replies.read_line(&mut reply)?;
        Ok(reply)
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.client.shutdown(std::net::Shutdown::Both);
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

/// The `result` object of a successful reply frame.
fn ok_result(reply: &str) -> Result<Json, String> {
    let frame = Json::parse(reply.trim()).map_err(|e| format!("reply does not parse: {e}"))?;
    if frame.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("request failed: {}", reply.trim()));
    }
    frame
        .get("result")
        .cloned()
        .ok_or_else(|| "reply without a result".to_owned())
}

/// Checks the reply to `eco` frame `i` and returns its worst-slack bits.
fn eco_result(reply: &str, i: usize) -> Result<u64, String> {
    let result = ok_result(reply)?;
    if result.get("edits").and_then(Json::as_u64) != Some(EDITS_PER_OP as u64) {
        return Err(format!(
            "op {i}: reply does not report {EDITS_PER_OP} edits"
        ));
    }
    let applied = result
        .get("cache")
        .and_then(Json::as_array)
        .and_then(|rows| rows.first())
        .and_then(|row| row.get("edits_applied"))
        .and_then(Json::as_u64);
    if applied != Some(((i + 1) * EDITS_PER_OP) as u64) {
        return Err(format!(
            "op {i}: warm engine did not keep every earlier edit"
        ));
    }
    result
        .get("worst_slack_ps")
        .and_then(Json::as_f64)
        .filter(|s| s.is_finite())
        .map(f64::to_bits)
        .ok_or_else(|| format!("op {i}: no finite worst slack"))
}
