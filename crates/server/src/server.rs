//! Transports: newline-delimited JSON over TCP or any byte stream
//! (stdin/stdout for `fastbuf serve --stdio`).
//!
//! Both transports run on one serve core: reader loops turn input lines
//! into jobs, a **bounded** `std::sync::mpsc::sync_channel` (capacity
//! [`ServerConfig::max_inflight`]) carries them to a worker pool that
//! shares the receiver behind a mutex, and workers write reply frames
//! under a per-connection writer lock.
//! The bounded queue is the backpressure invariant: when
//! `max_inflight` requests are admitted but unfinished, readers block on
//! `send`, the kernel's TCP buffers fill, and remote clients stall on
//! `write` — memory use is bounded no matter how fast clients push.
//! Line reads themselves are capped at [`ServerConfig::max_frame_bytes`]
//! (plus newline slack): a newline-free flood gets a `too-large` reply
//! and the connection is dropped, so one hostile client cannot grow a
//! line buffer without bound either.
//!
//! Graceful shutdown (a `shutdown` op, or storing `true` in
//! [`Server::stop_flag`]): the accept loop stops admitting connections
//! and shuts down the **read** half of every open socket, so readers
//! drain at EOF while in-flight replies still go out on the write half;
//! once every reader exits, the last job sender drops, workers drain the
//! queue to disconnect, and [`Server::serve_tcp`] returns.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

use fastbuf_api::wire::error_frame;

use crate::handler::{handle_frame, FrameOutcome};
use crate::registry::DesignRegistry;
use crate::ServerConfig;

/// One client connection's reply sink. Workers may finish out of order;
/// each reply is one line written under this lock, and clients correlate
/// via the echoed `id`.
struct Conn<'w> {
    writer: Mutex<Box<dyn Write + Send + 'w>>,
}

impl<'w> Conn<'w> {
    fn new(writer: impl Write + Send + 'w) -> Arc<Self> {
        Arc::new(Conn {
            writer: Mutex::new(Box::new(writer)),
        })
    }

    fn send_line(&self, line: &str) {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        // A client that hung up mid-reply is not a server error.
        let _ = writeln!(writer, "{line}");
        let _ = writer.flush();
    }
}

struct Job<'w> {
    frame: String,
    received: Instant,
    conn: Arc<Conn<'w>>,
}

/// A resident solve server (see the crate docs for the protocol).
#[derive(Debug)]
pub struct Server {
    config: ServerConfig,
    registry: Arc<DesignRegistry>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// A server with an empty design registry.
    pub fn new(config: ServerConfig) -> Self {
        let registry = Arc::new(DesignRegistry::new(config.max_designs));
        Server {
            config,
            registry,
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The design registry (for preloading designs before serving).
    pub fn registry(&self) -> &Arc<DesignRegistry> {
        &self.registry
    }

    /// Handle for stopping the server from another thread: storing `true`
    /// stops accepting, drains in-flight work and returns from the serve
    /// call.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    fn worker_loop(&self, jobs: &Mutex<Receiver<Job<'_>>>) {
        loop {
            // The queue lock is held while waiting for a job, never while
            // handling one.
            let next = jobs.lock().expect("job queue poisoned").recv();
            let Ok(job) = next else { break };
            let outcome = handle_frame(&self.registry, &self.config, &job.frame, job.received);
            job.conn.send_line(outcome.reply());
            if let FrameOutcome::Shutdown(_) = outcome {
                self.stop.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Reads newline-delimited frames from `input`, blocking on the
    /// bounded job queue when the pool is saturated (that block is the
    /// backpressure). Each line is read through a hard cap just above
    /// [`ServerConfig::max_frame_bytes`], so a newline-free flood cannot
    /// grow memory without bound: an over-cap line gets a `too-large`
    /// reply and the connection is dropped (a truncated frame cannot be
    /// parsed, and resynchronising would mean scanning unbounded
    /// garbage). Returns at EOF, on a read error, at shutdown, or on an
    /// over-cap line.
    fn reader_loop<'w>(&self, input: impl Read, conn: &Arc<Conn<'w>>, jobs: &SyncSender<Job<'w>>) {
        // +2 leaves room for a frame of exactly `max_frame_bytes` plus
        // its `\r\n`, so at-the-limit frames still reach the handler's
        // own `too-large` check rather than being cut off here.
        let cap = (self.config.max_frame_bytes as u64).saturating_add(2);
        let mut reader = BufReader::new(input);
        let mut buf = Vec::new();
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            buf.clear();
            let n = match (&mut reader).take(cap).read_until(b'\n', &mut buf) {
                Ok(0) => break, // EOF
                Ok(n) => n,
                Err(_) => break,
            };
            if buf.last() == Some(&b'\n') {
                buf.pop();
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
            } else if n as u64 == cap {
                conn.send_line(&error_frame(
                    None,
                    "too-large",
                    &format!(
                        "line exceeds the {} byte frame limit",
                        self.config.max_frame_bytes
                    ),
                ));
                break;
            }
            // Invalid UTF-8 becomes U+FFFD and fails JSON parsing, so it
            // gets a typed `parse` reply instead of ending the loop.
            let frame = String::from_utf8_lossy(&buf).into_owned();
            if frame.trim().is_empty() {
                continue;
            }
            let job = Job {
                frame,
                received: Instant::now(),
                conn: Arc::clone(conn),
            };
            if jobs.send(job).is_err() {
                break;
            }
        }
    }

    /// The serve core both transports share: starts
    /// [`ServerConfig::workers`] pool threads on one bounded job queue,
    /// runs `readers` (which may spawn one reader thread per connection on
    /// the scope), then drops the last sender so the workers drain the
    /// queue and exit, and joins them.
    fn serve<'env, 'w: 'env>(
        &'env self,
        readers: impl for<'scope> FnOnce(&'scope Scope<'scope, 'env>, &SyncSender<Job<'w>>),
    ) {
        // A capacity of 0 would make std's channel a rendezvous; keep at
        // least one slot.
        let (jobs_tx, jobs_rx) = sync_channel(self.config.max_inflight.max(1));
        // Scoped threads may only borrow what outlives the caller's `'env`,
        // which this local does not, so the workers share it by `Arc`.
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        std::thread::scope(|scope| {
            for _ in 0..self.config.workers.max(1) {
                let jobs_rx = Arc::clone(&jobs_rx);
                scope.spawn(move || self.worker_loop(&jobs_rx));
            }
            readers(scope, &jobs_tx);
            // Dropping the last sender lets workers drain and exit.
            drop(jobs_tx);
        });
    }

    /// Serves concurrent clients on `listener` until a `shutdown` op or
    /// [`Server::stop_flag`]. Each connection gets a reader thread; request
    /// execution is spread over [`ServerConfig::workers`] pool threads.
    ///
    /// # Errors
    ///
    /// Only setup errors (making the listener non-blocking); per-client
    /// I/O failures just end that client's connection.
    pub fn serve_tcp(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        // Read halves of open connections, for unblocking readers at
        // shutdown while their write halves finish delivering replies.
        // Each reader removes its own entry on exit, so long-running
        // servers do not accumulate file descriptors for dead clients.
        let open: Mutex<Vec<(u64, TcpStream)>> = Mutex::new(Vec::new());
        let open = &open;
        let mut next_conn: u64 = 0;

        self.serve(|scope, jobs| {
            while !self.stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        // Replies are small frames on a request/reply
                        // rhythm; leaving Nagle on costs a delayed-ACK
                        // stall (tens of ms) per round trip.
                        let _ = stream.set_nodelay(true);
                        let Ok(read_half) = stream.try_clone() else {
                            continue;
                        };
                        let conn_id = next_conn;
                        next_conn += 1;
                        open.lock()
                            .expect("open list poisoned")
                            .push(match stream.try_clone() {
                                Ok(s) => (conn_id, s),
                                Err(_) => continue,
                            });
                        // Readers block on socket reads; the listener's
                        // non-blocking mode must not leak onto them.
                        let _ = read_half.set_nonblocking(false);
                        let conn = Conn::new(stream);
                        let jobs = jobs.clone();
                        scope.spawn(move || {
                            self.reader_loop(read_half, &conn, &jobs);
                            // This connection is done reading; drop its
                            // shutdown handle so the socket can close
                            // once in-flight replies finish.
                            open.lock()
                                .expect("open list poisoned")
                                .retain(|(id, _)| *id != conn_id);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }

            // Shutdown: unblock every reader by closing the read half;
            // replies already in flight still go out on the write half.
            for (_, stream) in open.lock().expect("open list poisoned").iter() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        });
        Ok(())
    }

    /// Serves one client over a byte stream: frames are read from `input`
    /// on the calling thread, executed on the same worker pool and
    /// protocol as TCP, and answered on `output`. Returns at `input` EOF or
    /// after a `shutdown` op, once every admitted request is answered —
    /// note a `shutdown` is only observed once the blocking read returns,
    /// i.e. on the next input line or EOF.
    pub fn serve_stream(&self, input: impl Read, output: impl Write + Send) {
        let conn = Conn::new(output);
        self.serve(|_, jobs| self.reader_loop(input, &conn, jobs));
    }

    /// [`Server::serve_stream`] over stdin/stdout.
    pub fn serve_stdio(&self) {
        self.serve_stream(std::io::stdin().lock(), std::io::stdout());
    }
}
