//! The resident daemon: listeners, sessions, and the gateway thread.
//!
//! One thread accepts connections; each session gets a reader thread
//! (socket → decoded requests) and a writer thread (verdict frames →
//! socket). Every request funnels into **one** gateway thread over an
//! mpsc channel — the channel's consumption order is the daemon's
//! canonical serial order, so concurrent sessions are exactly as
//! deterministic as some interleaving of their request streams (see
//! `DESIGN.md` §15 for the contract). The gateway drains the channel in
//! waves: runs of mutations form group commits, runs of read-only
//! queries are answered together on the `tg-par` pool.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use tg_hierarchy::Monitor;
use tg_log::CommitLog;
use tg_par::Pool;

use crate::gateway::{parse_request, Gateway, Request, Verdict};
use crate::proto::{read_frame, read_magic, write_frame, Frame, Opcode, ProtoError};

/// Where the daemon listens.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Bind {
    /// A TCP address (`host:port`; port `0` picks a free one).
    Tcp(String),
    /// A Unix domain socket path. Binding fails if the path exists —
    /// an occupied or stale socket is never silently stolen.
    Unix(std::path::PathBuf),
}

/// Daemon tuning knobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServeConfig {
    /// Admission batch window: the largest group commit — how many
    /// consecutive mutations share one commit-log persist before a forced
    /// flush. The gateway also flushes before answering queries and at
    /// the end of every drain of the request channel, so a large window
    /// never delays a verdict past the requests already queued.
    pub batch_window: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { batch_window: 16 }
    }
}

/// What the daemon did over its lifetime, reported at shutdown.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServerReport {
    /// Sessions that completed the preamble.
    pub sessions: u64,
    /// Frames read, decoded and routed.
    pub frames: u64,
    /// Connections dropped for framing violations (fail closed).
    pub protocol_errors: u64,
    /// Admission batches flushed by the gateway.
    pub batches: u64,
    /// Mutations the monitor refused.
    pub refusals: u64,
}

/// Shared per-server tallies, written by session threads.
#[derive(Default)]
struct Tallies {
    sessions: AtomicU64,
    frames: AtomicU64,
    protocol_errors: AtomicU64,
}

/// One request's routing tag: where the verdict frame goes.
struct Tag {
    reply: mpsc::Sender<Frame>,
    request_id: u64,
}

impl Tag {
    fn send(&self, verdict: Verdict) {
        // A session that vanished mid-request is not an error.
        let _ = self.reply.send(verdict.into_frame(self.request_id));
    }
}

/// One queued unit of work for the gateway thread.
type Job = (Tag, Request);

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`Server::join`] (blocks until a `Shutdown` frame arrives) or
/// [`Server::shutdown_now`] first.
pub struct Server {
    addr: String,
    unix_path: Option<std::path::PathBuf>,
    accept: thread::JoinHandle<()>,
    gateway: GatewayHandle,
    tallies: Arc<Tallies>,
    shutdown: Arc<AtomicBool>,
}

type GatewayResult = (u64, u64, Result<(Monitor, Option<CommitLog>), String>);
type GatewayHandle = thread::JoinHandle<GatewayResult>;

impl Server {
    /// Binds `bind` and starts the accept, session and gateway threads.
    /// `monitor` (and the commit `log` it is already sinking into, if
    /// any) become the gateway's guarded state.
    ///
    /// # Errors
    ///
    /// A bind failure — malformed address, occupied port or socket
    /// path, missing directory — is returned as text; nothing has been
    /// spawned at that point, so failing closed is just returning.
    pub fn start(
        bind: Bind,
        monitor: Monitor,
        log: Option<CommitLog>,
        config: ServeConfig,
        pool: Pool,
    ) -> Result<Server, String> {
        let (listener, addr, unix_path) = match &bind {
            Bind::Tcp(spec) => {
                let listener =
                    TcpListener::bind(spec).map_err(|e| format!("cannot bind {spec}: {e}"))?;
                let addr = listener
                    .local_addr()
                    .map_err(|e| format!("cannot resolve bound address: {e}"))?
                    .to_string();
                (Listener::Tcp(listener), addr, None)
            }
            Bind::Unix(path) => {
                #[cfg(unix)]
                {
                    if path.exists() {
                        return Err(format!(
                            "cannot bind {}: socket path already exists",
                            path.display()
                        ));
                    }
                    let listener = std::os::unix::net::UnixListener::bind(path)
                        .map_err(|e| format!("cannot bind {}: {e}", path.display()))?;
                    (
                        Listener::Unix(listener),
                        path.display().to_string(),
                        Some(path.clone()),
                    )
                }
                #[cfg(not(unix))]
                {
                    return Err(format!(
                        "cannot bind {}: unix sockets are unsupported on this platform",
                        path.display()
                    ));
                }
            }
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let tallies = Arc::new(Tallies::default());
        let (tx, rx) = mpsc::channel::<Job>();
        let gateway = {
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || gateway_loop(monitor, log, config, pool, rx, shutdown))
        };
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let tallies = Arc::clone(&tallies);
            thread::spawn(move || accept_loop(listener, tx, shutdown, tallies))
        };
        Ok(Server {
            addr,
            unix_path,
            accept,
            gateway,
            tallies,
            shutdown,
        })
    }

    /// The bound address: `ip:port` for TCP (the real port, resolved
    /// after a `:0` bind), the socket path for Unix.
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Requests an immediate stop without waiting for a `Shutdown`
    /// frame (used by tests and signal handling; in-flight batches
    /// still flush and the log still persists).
    pub fn shutdown_now(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the daemon to stop (a `Shutdown` frame, or
    /// [`Server::shutdown_now`]), then returns its lifetime report and
    /// the final guarded state for inspection.
    ///
    /// # Errors
    ///
    /// Commit-log persistence failures surface here as text; the
    /// gateway refused all admissions after the first such failure.
    pub fn join(self) -> Result<(ServerReport, Monitor, Option<CommitLog>), String> {
        let _ = self.accept.join();
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        let (batches, refusals, state) = self
            .gateway
            .join()
            .map_err(|_| "gateway thread panicked".to_string())?;
        let (monitor, log) = state?;
        let report = ServerReport {
            sessions: self.tallies.sessions.load(Ordering::SeqCst),
            frames: self.tallies.frames.load(Ordering::SeqCst),
            protocol_errors: self.tallies.protocol_errors.load(Ordering::SeqCst),
            batches,
            refusals,
        };
        Ok((report, monitor, log))
    }
}

/// A blocking reader that turns socket read timeouts into polls of the
/// shutdown flag: when the daemon is stopping, pending reads yield EOF
/// so idle sessions unwind instead of hanging `join` forever.
struct PatientReader<R: Read> {
    inner: R,
    shutdown: Arc<AtomicBool>,
}

impl<R: Read> Read for PatientReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return Ok(0);
                    }
                }
                other => return other,
            }
        }
    }
}

fn accept_loop(
    listener: Listener,
    tx: mpsc::Sender<Job>,
    shutdown: Arc<AtomicBool>,
    tallies: Arc<Tallies>,
) {
    match &listener {
        Listener::Tcp(l) => l.set_nonblocking(true).expect("nonblocking listener"),
        #[cfg(unix)]
        Listener::Unix(l) => l.set_nonblocking(true).expect("nonblocking listener"),
    }
    let mut sessions: Vec<thread::JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        // Accept one connection as a (reader, writer) pair of stream
        // handles; `None` means "nothing pending, sleep briefly".
        let accepted: Option<(Box<dyn Read + Send>, Box<dyn Write + Send>)> = match &listener {
            Listener::Tcp(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).expect("blocking stream");
                    // Verdicts are small frames written as soon as they
                    // are final; Nagle would hold them for a delayed ACK.
                    stream.set_nodelay(true).expect("TCP_NODELAY");
                    stream
                        .set_read_timeout(Some(Duration::from_millis(50)))
                        .expect("read timeout");
                    let writer = stream.try_clone().expect("clone tcp stream");
                    Some((Box::new(stream), Box::new(writer)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                Err(_) => break,
            },
            #[cfg(unix)]
            Listener::Unix(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).expect("blocking stream");
                    stream
                        .set_read_timeout(Some(Duration::from_millis(50)))
                        .expect("read timeout");
                    let writer = stream.try_clone().expect("clone unix stream");
                    Some((Box::new(stream), Box::new(writer)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                Err(_) => break,
            },
        };
        match accepted {
            Some((reader, writer)) => {
                let tx = tx.clone();
                let shutdown = Arc::clone(&shutdown);
                let tallies = Arc::clone(&tallies);
                sessions.push(thread::spawn(move || {
                    session_loop(reader, writer, tx, shutdown, tallies)
                }));
            }
            None => thread::sleep(Duration::from_millis(5)),
        }
    }
    // The master job sender drops here; once every session follows, the
    // gateway's channel disconnects and it finishes.
    drop(tx);
    for session in sessions {
        let _ = session.join();
    }
}

/// One session: preamble check, then frames until EOF, error or
/// shutdown. A companion writer thread owns the socket's write half so
/// pipelined verdicts never interleave with the read loop.
fn session_loop(
    reader: Box<dyn Read + Send>,
    mut writer: Box<dyn Write + Send>,
    tx: mpsc::Sender<Job>,
    shutdown: Arc<AtomicBool>,
    tallies: Arc<Tallies>,
) {
    let mut reader = PatientReader {
        inner: reader,
        shutdown: Arc::clone(&shutdown),
    };
    {
        let _span = tg_obs::span(tg_obs::SpanKind::ServeAccept);
        if let Err(e) = read_magic(&mut reader) {
            tallies.protocol_errors.fetch_add(1, Ordering::SeqCst);
            let _ = write_frame(&mut writer, &Frame::text(0, Opcode::Error, &e.to_string()));
            return;
        }
    }
    tallies.sessions.fetch_add(1, Ordering::SeqCst);
    tg_obs::add(tg_obs::Counter::ServeSessionsOpened, 1);
    let (reply_tx, reply_rx) = mpsc::channel::<Frame>();
    let writer_thread = thread::spawn(move || {
        for frame in reply_rx {
            if write_frame(&mut writer, &frame).is_err() {
                break;
            }
            let _ = writer.flush();
        }
        writer
    });
    loop {
        let frame = {
            let _span = tg_obs::span(tg_obs::SpanKind::ServeFrame);
            read_frame(&mut reader)
        };
        let frame = match frame {
            Ok(frame) => frame,
            Err(ProtoError::Closed) => break,
            Err(e) => {
                // Framing violation: answer once, then fail closed by
                // dropping the connection.
                tallies.protocol_errors.fetch_add(1, Ordering::SeqCst);
                let _ = reply_tx.send(Frame::text(0, Opcode::Error, &e.to_string()));
                break;
            }
        };
        tallies.frames.fetch_add(1, Ordering::SeqCst);
        tg_obs::add(tg_obs::Counter::ServeFrames, 1);
        let request_id = frame.request_id;
        let request = match parse_request(&frame) {
            Ok(request) => request,
            Err(message) => {
                // Well-framed but unusable: an error verdict, and the
                // session continues.
                let _ = reply_tx.send(Frame::text(request_id, Opcode::Error, &message));
                continue;
            }
        };
        let tag = Tag {
            reply: reply_tx.clone(),
            request_id,
        };
        if tx.send((tag, request)).is_err() {
            // The gateway is gone (shutdown drain): nothing more can be
            // answered.
            break;
        }
    }
    drop(reply_tx);
    let _ = writer_thread.join();
    tg_obs::add(tg_obs::Counter::ServeSessionsClosed, 1);
}

/// The gateway thread: consumes the job channel one drain at a time
/// (everything already queued, up to 512 jobs) until a shutdown request
/// (or channel disconnect) stops it. Every drain ends with a flush, so
/// nothing is pending while the thread blocks for the next job.
fn gateway_loop(
    monitor: Monitor,
    log: Option<CommitLog>,
    config: ServeConfig,
    pool: Pool,
    rx: mpsc::Receiver<Job>,
    shutdown: Arc<AtomicBool>,
) -> GatewayResult {
    let mut gw: Gateway<Tag> = Gateway::new(monitor, log, config.batch_window);
    let mut stopping = false;
    loop {
        // Normally block for the next job; once stopping, take only what
        // is already queued and end at the first empty read.
        let first = if stopping {
            rx.try_recv().ok()
        } else {
            rx.recv().ok()
        };
        let Some(first) = first else { break };
        // Drain what else is already queued: this is where pipelined and
        // concurrent requests coalesce into groups.
        let mut jobs = vec![first];
        while jobs.len() < 512 {
            match rx.try_recv() {
                Ok(job) => jobs.push(job),
                Err(_) => break,
            }
        }
        if gw.drain(jobs, &pool, |tag, verdict| tag.send(verdict)) {
            shutdown.store(true, Ordering::SeqCst);
            stopping = true;
        }
    }
    let batches = gw.batches();
    let refusals = gw.refusals();
    (batches, refusals, gw.finish())
}
