//! A pooled HTTP/1.1 server and keep-alive client for the [`crate::front`]
//! protocol over TCP — the prototype's stand-in for the paper's
//! "HTTPS-enabled web interface".
//!
//! # Threading model
//!
//! The server is **readiness-driven**: one reactor thread
//! ([`crate::reactor`], epoll via the in-repo `libc` shim) multiplexes
//! the accept listener and *every* connection between turns, and a
//! **fixed worker pool** ([`smacs_primitives::pool`]) does all the
//! serving — so concurrent keep-alive clients cost `O(workers)` threads
//! and an *idle* connection costs zero CPU (one registered fd, no sweep):
//!
//! - the **reactor** (one thread) blocks in `epoll_wait` until a parked
//!   connection has bytes (or closed), the listener has a pending accept
//!   burst, or a parked connection's deadline passes. Readable
//!   connections go to the pool's **high-priority lane** (or, while it is
//!   full, wait in the reactor's retry backlog); an accept burst becomes
//!   one **low-priority lane** drain job, so under a connection storm
//!   signing and serving always cut ahead of new accepts.
//! - a **worker turn** never blocks on a socket read: it reads what the
//!   socket holds up to the end of the first request, serves every
//!   complete request ([`parse_head`]) in order, and parks the connection
//!   again with any partial request buffered. Level-triggered one-shot
//!   re-arming makes that fair: a pipelining client's further requests
//!   fire again, behind the others. Workers block only on response writes
//!   (10 s write timeout) and the service's own work (signing, votes).
//! - every **parked connection** carries its own deadline:
//!   [`HttpServerConfig::idle_timeout`] from now (or none) when its buffer
//!   is empty, [`REQUEST_DEADLINE`] from the first byte of a partial
//!   request; the reactor closes it then.
//! - the **accept-drain job** (low lane) parks each new connection, or
//!   past [`HttpServerConfig::max_connections`] answers a fast `503`,
//!   then re-arms the listener.
//!
//! [`HttpClient`] is the wire implementation of [`TsApi`]; it frames
//! responses with the same [`parse_head`]. Every body the server writes,
//! its own refusals (405, 400, 413, 503, injected 500s) included, is a v2
//! response envelope, so the client always decodes an error code.

use std::io::{ErrorKind, Write};
use std::mem::MaybeUninit;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smacs_primitives::json::{self, FromJson, Json, ToJson};
use smacs_primitives::pool::Priority;
use smacs_primitives::{Address, WorkerPool};
use smacs_token::{Token, TokenRequest};

use crate::api::{
    ApiError, BatchRequestBody, BatchResponseBody, DiscoverBody, DiscoverResponseBody, ErrorCode,
    IssueBody, RequestEnvelope, ResponseEnvelope, SetRulesBody, TsApi, PROTOCOL_VERSION,
};
use crate::discovery::ContractMetadata;
use crate::fault::FaultPlan;
use crate::front::{decode_token_hex, EndpointScope, FrontEnd};
use crate::reactor::{Reactor, ReactorClient};
use crate::rules::RuleBook;

/// Request bodies above this size are refused (HTTP 413). Generous: a
/// full 256-request argument-token batch with kilobyte calldata fits.
pub const MAX_BODY_BYTES: usize = 8 << 20;

/// How long one request may take to arrive, counted from the read that
/// delivered its first byte. A connection still holding a partial request
/// at this deadline is closed, however steadily it trickles.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Socket timeout for writing a response: a peer that stops reading
/// loses the connection instead of pinning a worker.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Most bytes one `recv` reads. It is a stack buffer on every reading
/// thread, so it stays small; a turn reads chunk after chunk until the
/// request at the front of the buffer is whole or the socket is empty.
const READ_CHUNK: usize = 16 << 10;

/// Kernel listen backlog. A connection storm queues here (absorbed at
/// kernel cost, drained at low priority) instead of seeing resets.
const ACCEPT_BACKLOG: libc::c_int = 1_024;

/// Bound on a server-owned pool's **low-priority lane** (accept-drain
/// jobs).
const ACCEPT_QUEUE_CAPACITY: usize = 64;

/// Longest request, status or header line either end accepts, terminator
/// included. A longer line is refused instead of buffered without limit.
const MAX_HEADER_LINE_BYTES: usize = 8 << 10;

/// Most header lines one message may carry.
const MAX_HEADERS: usize = 64;

/// The body answered when [`HttpServerConfig::max_connections`] is
/// reached: a protocol-v2 error envelope a [`HttpClient`] decodes into
/// [`ErrorCode::Internal`].
const OVERLOADED_BODY: &str =
    r#"{"v":2,"ok":false,"error":{"code":"internal","message":"server overloaded"}}"#;

/// The body answered for a non-`POST` request (HTTP 405).
const METHOD_NOT_ALLOWED_BODY: &str =
    r#"{"v":2,"ok":false,"error":{"code":"bad_envelope","message":"POST only"}}"#;

/// The body answered for a `POST` without a parseable `Content-Length`
/// (HTTP 400).
const UNFRAMEABLE_BODY: &str = r#"{"v":2,"ok":false,"error":{"code":"bad_envelope","message":"missing or invalid Content-Length"}}"#;

/// The body answered for a request line or header line over
/// [`MAX_HEADER_LINE_BYTES`], more than [`MAX_HEADERS`] header lines, or a
/// head that is not UTF-8 (HTTP 400).
const BAD_HEAD_BODY: &str = r#"{"v":2,"ok":false,"error":{"code":"bad_envelope","message":"request head too large or malformed"}}"#;

/// The body answered for a body over [`MAX_BODY_BYTES`] (HTTP 413).
const TOO_LARGE_BODY: &str =
    r#"{"v":2,"ok":false,"error":{"code":"bad_envelope","message":"body too large"}}"#;

/// The body answered for a fault-injected service failure ([`FaultPlan::
/// fail_requests`]): an HTTP 500 whose envelope decodes to `internal`.
const FAULTED_BODY: &str =
    r#"{"v":2,"ok":false,"error":{"code":"internal","message":"injected service fault"}}"#;

/// Tuning knobs for [`HttpServer::start_with`]: set what you need in a
/// struct literal, e.g. `HttpServerConfig { workers: 1,
/// ..Default::default() }`.
#[derive(Clone)]
pub struct HttpServerConfig {
    /// Connection/signing worker threads. Defaults to
    /// `2 × available_parallelism` (min 2): a worker never waits on a
    /// socket read, but it does block on response writes and on vote round
    /// trips to other replicas, so running more workers than cores keeps
    /// the CPU busy. Ignored when [`HttpServerConfig::pool`] supplies a
    /// pool.
    pub workers: usize,
    /// Bound on the pool's **high-priority lane** (request-serving and
    /// signing jobs). When full, ready connections wait in the reactor's
    /// retry backlog — their bytes sit in the socket; nothing is lost.
    /// Ignored when [`HttpServerConfig::pool`] supplies a pool.
    pub queue_capacity: usize,
    /// Parked connections with no partial request are closed once idle
    /// this long (`None`: kept forever). Enforced by the reactor as each
    /// connection's own deadline, not by per-connection polling.
    pub idle_timeout: Option<Duration>,
    /// Share an existing pool (e.g. the one the wrapped `TokenService`
    /// fans batch signing across) instead of creating a server-owned one;
    /// the fan-out's caller participation keeps that safe when every
    /// worker is busy. A shared pool is *not* shut down when the server
    /// stops.
    pub pool: Option<Arc<WorkerPool>>,
    /// Bind to this exact address instead of an OS-assigned loopback port.
    /// [`crate::cluster::ReplicaSet`] uses it to restart a recovered
    /// replica on the address clients already know.
    pub bind: Option<SocketAddr>,
    /// Transport/service fault injection for availability tests. `None`
    /// (the default) serves faithfully.
    pub faults: Option<Arc<FaultPlan>>,
    /// Which op families this listener dispatches. The default
    /// ([`EndpointScope::Public`]) refuses the replica-internal
    /// `counter_*` vote ops; only a dedicated vote endpoint
    /// ([`crate::cluster::ReplicaSet`]'s counter listeners) runs with
    /// [`EndpointScope::Vote`].
    pub scope: EndpointScope,
    /// Ceiling on concurrently open (parked + in-flight) connections.
    /// Beyond it, new accepts are answered with a fast 503 and closed —
    /// bounding fds and memory instead of growing without limit.
    pub max_connections: usize,
}

impl Default for HttpServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        HttpServerConfig {
            workers: (2 * cores).max(2),
            queue_capacity: 1024,
            idle_timeout: None,
            pool: None,
            bind: None,
            faults: None,
            scope: EndpointScope::Public,
            max_connections: 65_536,
        }
    }
}

/// Decrements the server's open-connection count when the connection
/// drops (however it drops: served close, reaped idle, shutdown).
struct ConnCount {
    open: Arc<AtomicUsize>,
    total_after_increment: usize,
}

impl ConnCount {
    fn track(open: Arc<AtomicUsize>) -> ConnCount {
        let total_after_increment = open.fetch_add(1, Ordering::SeqCst) + 1;
        ConnCount {
            open,
            total_after_increment,
        }
    }
}

impl Drop for ConnCount {
    fn drop(&mut self) {
        self.open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One keep-alive connection: the socket, and the bytes read off it but
/// not yet served — between turns, at most one partial request.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// What is known of the request at the front of `buf`.
    framer: Framer,
    /// When the read that delivered the buffered request's first byte
    /// began; [`REQUEST_DEADLINE`] counts from here.
    started: Instant,
    _count: ConnCount,
}

impl Conn {
    fn new(stream: TcpStream, count: ConnCount) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            framer: Framer::default(),
            started: Instant::now(),
            _count: count,
        })
    }
}

impl AsRawFd for Conn {
    fn as_raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }
}

/// State shared by the reactor thread and connection jobs.
struct ServerShared {
    front: Arc<FrontEnd>,
    pool: Arc<WorkerPool>,
    reactor: Arc<Reactor<Conn>>,
    shutdown: AtomicBool,
    faults: Option<Arc<FaultPlan>>,
    scope: EndpointScope,
    idle_timeout: Option<Duration>,
    max_connections: usize,
    open_connections: Arc<AtomicUsize>,
    /// Self-reference so reactor callbacks can hand `Arc` clones to jobs.
    me: Weak<ServerShared>,
}

impl ReactorClient<Conn> for ServerShared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// A parked connection became readable (or closed): dispatch a serve
    /// turn on the pool's high-priority lane. On a full lane the
    /// connection goes back to the reactor's retry backlog — data waits
    /// in the socket, no request is dropped.
    fn on_ready(&self, conn: Conn) -> Result<(), Conn> {
        if self.shutting_down() {
            return Ok(()); // drop: shutdown closes keep-alive connections
        }
        let Some(me) = self.me.upgrade() else {
            return Ok(());
        };
        // The connection rides in a shared slot so a refused submission
        // can reclaim it (a consumed closure can't give it back).
        let slot = Arc::new(Mutex::new(Some(conn)));
        let job_slot = slot.clone();
        let submitted = self.pool.try_execute(move || {
            let conn = job_slot.lock().expect("conn slot").take();
            if let Some(conn) = conn {
                serve_turn(&me, conn);
            }
        });
        submitted.map_err(|_| {
            let conn = slot.lock().expect("conn slot").take();
            conn.expect("a refused job never ran")
        })
    }

    /// The listener has a pending burst: queue one low-priority drain job.
    fn on_accept_ready(&self) -> bool {
        let Some(me) = self.me.upgrade() else {
            return true;
        };
        self.pool
            .try_execute_prio(Priority::Low, move || accept_drain(&me))
            .is_ok()
    }
}

/// A running HTTP front-end server.
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    owns_pool: bool,
    reactor_handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Start serving `front` on an OS-assigned loopback port with default
    /// pooling.
    pub fn start(front: Arc<FrontEnd>) -> std::io::Result<HttpServer> {
        HttpServer::start_with(front, HttpServerConfig::default())
    }

    /// Start serving `front` with explicit reactor/pool tuning.
    pub fn start_with(
        front: Arc<FrontEnd>,
        config: HttpServerConfig,
    ) -> std::io::Result<HttpServer> {
        let listener = match config.bind {
            Some(addr) => TcpListener::bind(addr)?,
            None => TcpListener::bind("127.0.0.1:0")?,
        };
        let addr = listener.local_addr()?;
        // Deepen the kernel accept backlog past std's default so a
        // connection storm queues (drained at low priority) instead of
        // seeing resets. Re-calling listen(2) on a listening socket only
        // updates the backlog.
        unsafe {
            libc::listen(listener.as_raw_fd(), ACCEPT_BACKLOG);
        }
        let owns_pool = config.pool.is_none();
        let pool = config.pool.unwrap_or_else(|| {
            WorkerPool::with_lanes(config.workers, config.queue_capacity, ACCEPT_QUEUE_CAPACITY)
        });
        let reactor = Arc::new(Reactor::new(listener)?);
        let shared = Arc::new_cyclic(|me| ServerShared {
            front,
            pool,
            reactor,
            shutdown: AtomicBool::new(false),
            faults: config.faults,
            scope: config.scope,
            idle_timeout: config.idle_timeout,
            max_connections: config.max_connections.max(1),
            open_connections: Arc::new(AtomicUsize::new(0)),
            me: me.clone(),
        });

        let run_shared = shared.clone();
        let reactor_handle = std::thread::Builder::new()
            .name("smacs-http-reactor".into())
            .spawn(move || run_shared.reactor.run(&*run_shared))?;

        Ok(HttpServer {
            addr,
            shared,
            owns_pool,
            reactor_handle: Some(reactor_handle),
        })
    }

    /// The bound address (`127.0.0.1:port`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service URL for [`crate::discovery`] metadata.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// The worker pool serving connections (shared with batch signing
    /// when configured so).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.shared.pool
    }

    /// Connections currently parked idle (diagnostics for probes/tests).
    pub fn parked_connections(&self) -> usize {
        self.shared.reactor.parked_len()
    }

    /// Connections currently open — parked plus in-flight (diagnostics).
    pub fn open_connections(&self) -> usize {
        self.shared.open_connections.load(Ordering::SeqCst)
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the (possibly indefinitely blocked) epoll wait through the
        // reactor's eventfd; it closes the listener and every parked
        // connection, then exits.
        self.shared.reactor.wake();
        if let Some(handle) = self.reactor_handle.take() {
            let _ = handle.join();
        }
        if self.owns_pool {
            // In-flight connection turns finish their current request and
            // observe the shutdown flag; queued-but-unstarted ones are
            // dropped (their connections close).
            self.shared.pool.shutdown();
        }
    }

    /// Graceful shutdown, deterministic: wake the reactor (eventfd), which
    /// closes the listener and parked (idle) keep-alive connections and
    /// exits; finish in-flight requests; join the reactor thread and
    /// (when server-owned) the worker pool.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One low-priority pool job: drain the kernel accept backlog, parking
/// each new connection in the reactor (its first request then arrives as
/// a readiness event), and re-arm the listener registration when empty.
/// Running at low priority is the storm defence: queued request/signing
/// jobs always cut ahead of taking on new connections.
fn accept_drain(shared: &Arc<ServerShared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match shared.reactor.try_accept() {
            Ok((stream, _)) => {
                let count = ConnCount::track(shared.open_connections.clone());
                if count.total_after_increment > shared.max_connections {
                    // Fast, decodable refusal; dropping `count` (with the
                    // stream) keeps the book balanced.
                    let mut stream = stream;
                    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                    let _ = stream.write_all(&http_response(503, true, OVERLOADED_BODY));
                    continue;
                }
                let Ok(conn) = Conn::new(stream, count) else {
                    continue;
                };
                let idle = shared.idle_timeout.map(|idle| Instant::now() + idle);
                let _ = shared.reactor.park(conn, idle); // failure drops (closes)
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => {
                // Listener closed (shutdown) or transient failure (EMFILE
                // etc.): back off briefly so the level-triggered re-arm
                // below cannot spin a worker hot on a persistent error.
                std::thread::sleep(Duration::from_millis(10));
                break;
            }
        }
    }
    shared.reactor.rearm_accept();
}

/// One pool job: non-blocking reads of what the socket holds, up to the
/// end of the request at the front of the buffer, then every complete
/// request in the buffer served in order. The connection is parked again
/// with any partial request still buffered, or dropped (closed) on peer
/// close, error, refusal, `Connection: close`, an expired
/// [`REQUEST_DEADLINE`], or shutdown.
fn serve_turn(shared: &Arc<ServerShared>, mut conn: Conn) {
    let now = Instant::now();
    if conn.buf.is_empty() {
        conn.started = now;
    }
    // Reading stops once the front request is whole, so a pipelining
    // client's further requests wait in its socket, which fires again
    // behind the other ready connections.
    let peer_closed = loop {
        match recv_into(&conn.stream, &mut conn.buf, libc::MSG_DONTWAIT) {
            Ok(0) => break true,
            Ok(_) if conn.framer.whole(&conn.buf) => break false,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
            Err(_) => return,
        }
    };
    // Serve every complete request now: bytes already in the buffer never
    // make the socket readable again.
    loop {
        if shared.shutting_down() {
            return; // drop: shutdown closes keep-alive connections
        }
        let refusal = match conn.framer.frame(&conn.buf) {
            Framing::NeedMore => break,
            Framing::Refuse(Refusal::Malformed) => (400, BAD_HEAD_BODY),
            _ if start_word(&conn.buf, 0) != Some("POST") => (405, METHOD_NOT_ALLOWED_BODY),
            // Guessing a length would leave body bytes in the stream and
            // desynchronize later keep-alive requests.
            Framing::Refuse(Refusal::NoLength) => (400, UNFRAMEABLE_BODY),
            Framing::Refuse(Refusal::TooLarge) => (413, TOO_LARGE_BODY),
            Framing::Complete(head) => {
                let end = head.len + head.body_len;
                let Some(body) = conn.buf.get(head.len..end) else {
                    break; // the body is still arriving
                };
                let served = serve_request(shared, &mut conn.stream, body, head.close);
                if !matches!(served, Ok(false)) {
                    return; // explicit close or broken pipe
                }
                conn.buf.drain(..end);
                // Any leftover is the next request, starting now.
                (conn.framer, conn.started) = (Framer::default(), now);
                continue;
            }
        };
        refuse(&mut conn, refusal);
        return;
    }
    let deadline = if conn.buf.is_empty() {
        conn.buf = Vec::new(); // an idle connection holds no buffer
        shared.idle_timeout.map(|idle| Instant::now() + idle)
    } else if conn.started + REQUEST_DEADLINE > Instant::now() {
        Some(conn.started + REQUEST_DEADLINE)
    } else {
        return; // the partial request ran out of time: close
    };
    if !peer_closed {
        let _ = shared.reactor.park(conn, deadline); // failure drops (closes)
    }
}

/// Answer a request the server will not serve, then close: first discard
/// what the client already sent, so the close sends FIN rather than a
/// RST that could destroy the answer before the client reads it.
fn refuse(conn: &mut Conn, (code, body): (u16, &str)) {
    if conn
        .stream
        .write_all(&http_response(code, true, body))
        .is_err()
    {
        return;
    }
    let mut discarded = 0;
    while discarded < MAX_BODY_BYTES {
        conn.buf.clear();
        match recv_into(&conn.stream, &mut conn.buf, libc::MSG_DONTWAIT) {
            Ok(n) if n > 0 => discarded += n,
            _ => break,
        }
    }
}

/// Serve one framed `POST` body. `Ok(close)` reports whether the
/// connection must close afterwards; any `Err` means the response could
/// not be written and the caller drops the connection.
fn serve_request(
    shared: &ServerShared,
    stream: &mut TcpStream,
    body: &[u8],
    client_close: bool,
) -> std::io::Result<bool> {
    let body = String::from_utf8_lossy(body);

    // Pre-dispatch faults: the request is fully read but *never* reaches
    // the service — what a crash between receive and dispatch looks like.
    if let Some(faults) = &shared.faults {
        if faults.take_drop() {
            return Ok(true); // close silently, no response
        }
        if faults.take_fail() {
            stream.write_all(&http_response(500, true, FAULTED_BODY))?;
            return Ok(true);
        }
    }

    let response = shared.front.handle_json_scoped(&body, shared.scope);

    // Post-dispatch faults: the service's effects (minted tokens, burned
    // one-time indexes) are real; only the answer is delayed or lost.
    if let Some(faults) = &shared.faults {
        if let Some(delay) = faults.response_delay() {
            std::thread::sleep(delay);
        }
        if faults.take_truncate() {
            // Half the announced body, then close: the client hits EOF and
            // must treat the exchange as a failure *after* dispatch.
            let full = http_response(200, true, &response);
            stream.write_all(&full[..full.len() - response.len().div_ceil(2)])?;
            return Ok(true);
        }
    }

    stream.write_all(&http_response(200, client_close, &response))?;
    Ok(client_close)
}

/// What [`parse_head`] found at the front of a buffer: no whole head yet,
/// a head announcing a body within bounds, or a message that cannot be
/// framed (the connection must close).
#[derive(Debug, PartialEq, Eq)]
enum Framing {
    NeedMore,
    Complete(Head),
    Refuse(Refusal),
}

/// A complete message head: `len` bytes (blank line included, so the body
/// starts there), the announced `Content-Length`, and whether the sender
/// asked to close after this message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Head {
    len: usize,
    body_len: usize,
    close: bool,
}

/// Why a head cannot be framed: a line over [`MAX_HEADER_LINE_BYTES`],
/// more than [`MAX_HEADERS`] header lines or a line that is not UTF-8; no
/// parseable `Content-Length`; or one over [`MAX_BODY_BYTES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Refusal {
    Malformed,
    NoLength,
    TooLarge,
}

/// Frame the message head at the front of `buf`: the one parser for the
/// server's requests and the client's responses, so the two ends can
/// never disagree on framing. Pure, and stable under appending: once a
/// buffer answers `Complete` or `Refuse`, every extension of it answers
/// the same. Callers check the start line themselves ([`start_word`]).
fn parse_head(buf: &[u8]) -> Framing {
    let (mut pos, mut lines, mut content_length, mut close) = (0, 0, None, false);
    loop {
        let window = &buf[pos..buf.len().min(pos + MAX_HEADER_LINE_BYTES)];
        let Some(end) = window.iter().position(|&b| b == b'\n') else {
            return match window.len() {
                MAX_HEADER_LINE_BYTES => Framing::Refuse(Refusal::Malformed),
                _ => Framing::NeedMore,
            };
        };
        let Ok(line) = std::str::from_utf8(&window[..end]) else {
            return Framing::Refuse(Refusal::Malformed);
        };
        let line = line.trim_end();
        (pos, lines) = (pos + end + 1, lines + 1);
        if lines > 1 && line.is_empty() {
            return match content_length {
                None => Framing::Refuse(Refusal::NoLength),
                Some(n) if n > MAX_BODY_BYTES => Framing::Refuse(Refusal::TooLarge),
                Some(body_len) => Framing::Complete(Head {
                    len: pos,
                    body_len,
                    close,
                }),
            };
        }
        if lines > 1 + MAX_HEADERS {
            return Framing::Refuse(Refusal::Malformed);
        }
        // A start line posing as a header fails its caller's method or
        // status check, so it needs no skipping here.
        let (name, value) = line.split_once(':').unwrap_or_default();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.trim().eq_ignore_ascii_case("close");
        }
    }
}

/// [`parse_head`] for a buffer that grows between calls, without framing
/// it from scratch on every read. An incomplete head is scanned again only
/// once its open line ends or reaches [`MAX_HEADER_LINE_BYTES`] (nothing
/// else can change the answer), so a head cut into single bytes costs one
/// scan per line; a whole head is kept while its body arrives.
#[derive(Default)]
struct Framer {
    /// Where the open line starts, as of the last `NeedMore` scan.
    line_start: usize,
    /// The head, once whole.
    head: Option<Head>,
}

impl Framer {
    /// Answer [`parse_head`]`(buf)`, where `buf` extends the buffer of the
    /// previous call.
    fn frame(&mut self, buf: &[u8]) -> Framing {
        if let Some(head) = self.head {
            return Framing::Complete(head);
        }
        let open = &buf[self.line_start..];
        if !open.contains(&b'\n') && open.len() < MAX_HEADER_LINE_BYTES {
            return Framing::NeedMore;
        }
        let framing = parse_head(buf);
        match framing {
            Framing::NeedMore => {
                self.line_start = buf.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
            }
            Framing::Complete(head) => self.head = Some(head),
            Framing::Refuse(_) => {}
        }
        framing
    }

    /// Whether `buf` starts with a whole request, or one already refused:
    /// a turn reads no further.
    fn whole(&mut self, buf: &[u8]) -> bool {
        match self.frame(buf) {
            Framing::NeedMore => false,
            Framing::Complete(head) => buf.len() >= head.len + head.body_len,
            Framing::Refuse(_) => true,
        }
    }
}

/// The `n`th word of the start line at the front of `buf`: a request's
/// method (`n = 0`) or a response's status code (`n = 1`).
fn start_word(buf: &[u8], n: usize) -> Option<&str> {
    let line = buf.split(|&b| b == b'\n').next()?;
    std::str::from_utf8(line).ok()?.split_whitespace().nth(n)
}

/// One `recv(2)` of at most [`READ_CHUNK`] bytes, appended to `buf`, so a
/// buffer grows only by bytes that arrived: the count read, 0 at end of
/// stream. The server passes `MSG_DONTWAIT` (an empty socket is a
/// `WouldBlock` error); the client blocks under its read timeout.
fn recv_into(stream: &TcpStream, buf: &mut Vec<u8>, flags: libc::c_int) -> std::io::Result<usize> {
    let fd = stream.as_raw_fd();
    let mut chunk = [MaybeUninit::<u8>::uninit(); READ_CHUNK];
    loop {
        // SAFETY: `chunk` is a live, writable buffer of READ_CHUNK bytes
        // for the whole call; recv writes at most that many.
        let n = unsafe { libc::recv(fd, chunk.as_mut_ptr().cast(), READ_CHUNK, flags) };
        if n >= 0 {
            // SAFETY: recv initialized the first `n` bytes of `chunk`.
            let read = unsafe { std::slice::from_raw_parts(chunk.as_ptr().cast(), n as usize) };
            buf.extend_from_slice(read);
            return Ok(n as usize);
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// A whole response, to be sent in one `write_all`: a `write!` straight to
/// the socket would send every formatted piece as its own segment.
fn http_response(code: u16, close: bool, body: &str) -> Vec<u8> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Method Not Allowed",
    };
    let connection = if close { "close" } else { "keep-alive" };
    format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Read one HTTP response off `stream`, framed by [`parse_head`]: the
/// status code, the body, and whether the connection can carry another
/// request (no `Connection: close` and no bytes past the response). An
/// unframeable response poisons the whole persistent connection, so it
/// is an io::Error — round_trip drops the connection on any io::Error,
/// forcing a clean reconnect.
fn read_response(stream: &TcpStream) -> std::io::Result<(u16, String, bool)> {
    let mut buf = Vec::new();
    loop {
        let invalid = match parse_head(&buf) {
            Framing::Refuse(refusal) => format!("unframeable response: {refusal:?}"),
            Framing::Complete(head) if buf.len() >= head.len + head.body_len => {
                let end = head.len + head.body_len;
                let body = String::from_utf8_lossy(&buf[head.len..end]).into_owned();
                match start_word(&buf, 1).and_then(|code| code.parse().ok()) {
                    Some(code) => return Ok((code, body, !head.close && buf.len() == end)),
                    None => "unparseable status line".into(),
                }
            }
            _ => {
                if recv_into(stream, &mut buf, 0)? == 0 {
                    return Err(ErrorKind::UnexpectedEof.into());
                }
                continue;
            }
        };
        return Err(std::io::Error::new(ErrorKind::InvalidData, invalid));
    }
}

/// Socket tuning for [`HttpClient`]: every phase of a round trip is
/// bounded, so a hung or partitioned server costs a finite, configurable
/// wait instead of blocking the caller forever.
#[derive(Clone, Debug)]
pub struct HttpClientConfig {
    /// Ceiling on establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Ceiling on each blocking read while awaiting the response.
    pub read_timeout: Duration,
    /// Ceiling on each blocking write while sending the request.
    pub write_timeout: Duration,
}

impl Default for HttpClientConfig {
    fn default() -> Self {
        HttpClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// How far a failed round trip got — the fact a failover layer needs to
/// decide whether a retry is safe.
#[derive(Debug)]
pub(crate) enum CallError {
    /// The transport failed. `sent` reports whether any request bytes may
    /// have reached the server: `false` means the failure happened while
    /// connecting (nothing transmitted — always safe to retry), `true`
    /// means the request may have been received and even executed.
    Transport {
        /// Whether request bytes may have gone out.
        sent: bool,
        /// The decoded failure.
        error: ApiError,
    },
    /// The server answered an HTTP 5xx (overload or injected fault). The
    /// request reached the server; whether it was dispatched is unknown.
    Server {
        /// The HTTP status code.
        status: u16,
        /// The decoded (or synthesized) error body.
        error: ApiError,
    },
    /// A well-formed application-level error envelope (rule violation,
    /// `counter_unavailable`, …). The operation definitively ran; there
    /// is nothing for a transport-level retry to fix.
    Api(ApiError),
}

impl CallError {
    /// Collapse to the plain [`ApiError`] a single-endpoint caller sees,
    /// preserving the HTTP status of a server-level failure in the message.
    pub(crate) fn into_api(self) -> ApiError {
        match self {
            CallError::Transport { error, .. } | CallError::Api(error) => error,
            CallError::Server { status, error } => {
                ApiError::new(error.code, format!("http {status}: {}", error.message))
            }
        }
    }
}

/// An I/O failure as a [`CallError::Transport`]: `sent` is false while
/// connecting, true once the request may have gone out. Timeouts are named
/// as such (`set_read_timeout`/`set_write_timeout` expirations surface as
/// `WouldBlock`/`TimedOut` depending on platform).
fn transport(sent: bool, e: std::io::Error) -> CallError {
    let phase = if sent { "round trip" } else { "connect" };
    let outcome = match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => "timed out",
        _ => "failed",
    };
    let error = ApiError::new(ErrorCode::Transport, format!("{phase} {outcome}: {e}"));
    CallError::Transport { sent, error }
}

/// The wire implementation of [`TsApi`]: protocol-v2 envelopes over one
/// keep-alive HTTP connection.
///
/// The connection is lazy (opened on first use) and persistent. Before
/// each reuse the client probes the pooled connection with a non-blocking
/// peek: a connection the server has since closed (restart, idle timeout)
/// is detected *before* the request is sent and replaced transparently —
/// safe for every op, because nothing was transmitted yet. Failures after
/// the request went out are retried on a fresh connection only for
/// idempotent ops. Every socket phase is bounded by [`HttpClientConfig`]
/// timeouts, so a hung server surfaces as a distinguishable "timed out"
/// [`ErrorCode::Transport`] error instead of blocking forever.
pub struct HttpClient {
    addr: SocketAddr,
    config: HttpClientConfig,
    conn: parking_lot::Mutex<Option<TcpStream>>,
}

impl HttpClient {
    /// A client for the server at `addr` with default timeouts. No I/O
    /// happens until the first call.
    pub fn connect(addr: SocketAddr) -> HttpClient {
        HttpClient::connect_with(addr, HttpClientConfig::default())
    }

    /// A client with explicit socket timeouts.
    pub fn connect_with(addr: SocketAddr, config: HttpClientConfig) -> HttpClient {
        HttpClient {
            addr,
            config,
            conn: parking_lot::Mutex::new(None),
        }
    }

    /// A client from a discovery URL (`http://ip:port`, as published in
    /// [`ContractMetadata::token_service_url`]).
    pub fn from_url(url: &str) -> Option<HttpClient> {
        let addr = url.strip_prefix("http://")?.parse().ok()?;
        Some(HttpClient::connect(addr))
    }

    /// The server address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn round_trip_once(
        &self,
        conn: &mut Option<TcpStream>,
        body: &str,
    ) -> Result<(u16, String), CallError> {
        if conn.is_none() {
            let stream = (|| {
                let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(self.config.read_timeout))?;
                stream.set_write_timeout(Some(self.config.write_timeout))?;
                Ok(stream)
            })()
            .map_err(|e| transport(false, e))?;
            *conn = Some(stream);
        }
        let stream = conn.as_mut().expect("connection just ensured");
        let request = format!(
            "POST / HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        stream
            .write_all(request.as_bytes())
            .map_err(|e| transport(true, e))?;
        let (status, text, reusable) = read_response(stream).map_err(|e| transport(true, e))?;
        if !reusable {
            *conn = None;
        }
        Ok((status, text))
    }

    /// One keep-alive round trip.
    ///
    /// A pooled connection is preflighted first: if the server already
    /// closed it (restart, idle timeout) it is replaced before anything is
    /// sent — a transparent reconnect that is safe for *all* ops. After
    /// the request has been written, a failure is retried on a fresh
    /// connection only for `idempotent` operations: a lost *response* is
    /// indistinguishable from a lost *request*, and replaying an issuance
    /// could mint twice (burning one-time counter indexes).
    fn round_trip(&self, body: &str, idempotent: bool) -> Result<(u16, String), CallError> {
        let mut conn = self.conn.lock();
        if conn.as_ref().is_some_and(connection_is_stale) {
            *conn = None;
        }
        let had_connection = conn.is_some();
        match self.round_trip_once(&mut conn, body) {
            Ok(response) => Ok(response),
            Err(first) => {
                *conn = None;
                let sent = matches!(first, CallError::Transport { sent: true, .. });
                if !had_connection || (sent && !idempotent) {
                    // Fresh connection already failed (retry won't help),
                    // or replay is unsafe for this op.
                    return Err(first);
                }
                self.round_trip_once(&mut conn, body)
                    .inspect_err(|_| *conn = None)
            }
        }
    }

    /// Send one v2 op, reporting failures with enough detail for a
    /// failover layer to decide whether retrying elsewhere is safe.
    pub(crate) fn call_detailed(
        &self,
        op: &str,
        body: Option<Json>,
        idempotent: bool,
    ) -> Result<Json, CallError> {
        let envelope = RequestEnvelope {
            v: PROTOCOL_VERSION,
            op: op.into(),
            body,
        };
        let (status, text) = self.round_trip(&json::to_string(&envelope), idempotent)?;
        let decoded = Json::parse(&text)
            .ok()
            .and_then(|json| ResponseEnvelope::from_json(&json).ok());
        if status >= 500 {
            // Overload (503) or injected fault (500): surface the decoded
            // envelope error when one came along, but tagged as a server
            // failure so failover can route around it.
            let error = decoded
                .and_then(|r| r.error)
                .map(ApiError::from)
                .unwrap_or_else(|| {
                    ApiError::new(ErrorCode::Internal, format!("server error {status}"))
                });
            return Err(CallError::Server { status, error });
        }
        let response = decoded.ok_or_else(|| {
            CallError::Api(ApiError::new(
                ErrorCode::Internal,
                "undecodable response envelope",
            ))
        })?;
        if response.ok {
            Ok(response.body.unwrap_or(Json::Null))
        } else {
            Err(CallError::Api(
                response
                    .error
                    .map(ApiError::from)
                    .unwrap_or_else(|| ApiError::new(ErrorCode::Internal, "error without detail")),
            ))
        }
    }

    /// Send one v2 op and return the success body (or the decoded error).
    fn call(&self, op: &str, body: Option<Json>) -> Result<Json, ApiError> {
        // Replaying `set_rules` re-applies the same whole-book replacement;
        // `discover`/`ping` are reads. Issuance is the non-idempotent pair.
        let idempotent = matches!(op, "ping" | "discover" | "set_rules");
        self.call_detailed(op, body, idempotent)
            .map_err(CallError::into_api)
    }
}

/// Whether a pooled client connection can no longer carry a request:
/// orderly FIN or error from the peer, or (never expected) stray unread
/// bytes that would desynchronize the response framing. One
/// non-blocking peek; only an empty, open socket is fresh.
fn connection_is_stale(stream: &TcpStream) -> bool {
    let mut probe = 0u8;
    // SAFETY: `probe` is a live, writable byte and recv is asked for one.
    let n = unsafe {
        libc::recv(
            stream.as_raw_fd(),
            (&mut probe as *mut u8).cast(),
            1,
            libc::MSG_DONTWAIT | libc::MSG_PEEK,
        )
    };
    n >= 0 || std::io::Error::last_os_error().kind() != ErrorKind::WouldBlock
}

impl TsApi for HttpClient {
    fn issue(&self, request: &TokenRequest) -> Result<Token, ApiError> {
        let body = IssueBody::from_json(&self.call("issue", Some(request.to_json()))?)
            .map_err(|e| ApiError::new(ErrorCode::Internal, format!("bad issue body: {e}")))?;
        decode_token_hex(&body.token_hex)
            .ok_or_else(|| ApiError::new(ErrorCode::Internal, "undecodable token_hex"))
    }

    fn issue_batch(
        &self,
        requests: &[TokenRequest],
    ) -> Result<Vec<Result<Token, ApiError>>, ApiError> {
        let body = BatchRequestBody {
            requests: requests.to_vec(),
        };
        let response =
            BatchResponseBody::from_json(&self.call("issue_batch", Some(body.to_json()))?)
                .map_err(|e| ApiError::new(ErrorCode::Internal, format!("bad batch body: {e}")))?;
        Ok(response
            .results
            .into_iter()
            .map(|item| item.into_result())
            .collect())
    }

    fn set_rules(&self, owner_secret: &str, rules: RuleBook) -> Result<(), ApiError> {
        let body = SetRulesBody {
            owner_secret: owner_secret.into(),
            rules,
        };
        self.call("set_rules", Some(body.to_json())).map(|_| ())
    }

    fn discover(&self, contract: Address) -> Result<Option<ContractMetadata>, ApiError> {
        let body = DiscoverResponseBody::from_json(
            &self.call("discover", Some(DiscoverBody { contract }.to_json()))?,
        )
        .map_err(|e| ApiError::new(ErrorCode::Internal, format!("bad discover body: {e}")))?;
        Ok(body.metadata)
    }

    fn ping(&self) -> Result<(), ApiError> {
        self.call("ping", None).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleBook;
    use crate::service::{TokenService, TokenServiceConfig};
    use proptest::prelude::*;
    use smacs_crypto::Keypair;
    use smacs_primitives::Address;
    use smacs_token::TokenRequest;

    fn front() -> Arc<FrontEnd> {
        let service = TokenService::new(
            Keypair::from_seed(1),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        );
        Arc::new(FrontEnd::new(service, "secret", 0))
    }

    fn running_server() -> HttpServer {
        HttpServer::start(front()).unwrap()
    }

    fn request(low: u64) -> TokenRequest {
        TokenRequest::super_token(Address::from_low_u64(1), Address::from_low_u64(low))
    }

    #[test]
    fn token_issuance_over_http_v2_client() {
        let server = running_server();
        let client = HttpClient::connect(server.addr());
        client.ping().unwrap();
        let token = client.issue(&request(2)).unwrap();
        assert_eq!(token.expire, 3_600);
        // Batch over the same kept-alive connection.
        let results = client.issue_batch(&[request(3), request(4)]).unwrap();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.is_ok()));
        server.shutdown();
    }

    #[test]
    fn http_client_surfaces_transport_errors_after_shutdown() {
        let server = running_server();
        let established = HttpClient::connect(server.addr());
        established.ping().unwrap();
        let addr = server.addr();
        server.shutdown();
        // Graceful shutdown closes parked keep-alive connections and the
        // listener: both the established client (whose reconnect attempt
        // finds the listener gone) and a fresh one must surface a
        // transport error, not hang.
        let err = established.ping().unwrap_err();
        assert_eq!(err.code, ErrorCode::Transport);
        let fresh = HttpClient::connect(addr);
        let err = fresh.issue(&request(2)).unwrap_err();
        assert_eq!(err.code, ErrorCode::Transport);
    }

    #[test]
    fn client_transparently_reconnects_after_server_idle_timeout() {
        // The server reaps connections idle > 40 ms; the client's pooled
        // connection goes stale, and the next call — *including* the
        // non-idempotent issue — must succeed via the preflight reconnect
        // instead of surfacing a transport error.
        let server = HttpServer::start_with(
            front(),
            HttpServerConfig {
                idle_timeout: Some(Duration::from_millis(40)),
                ..Default::default()
            },
        )
        .unwrap();
        let client = HttpClient::connect(server.addr());
        client.ping().unwrap();
        std::thread::sleep(Duration::from_millis(150));
        assert!(
            client.issue(&request(2)).is_ok(),
            "stale pooled connection must be replaced transparently"
        );
        server.shutdown();
    }

    #[test]
    fn connections_beyond_max_are_refused_with_fast_503() {
        // Two established keep-alive connections saturate a
        // max_connections(2) server: the third accept must be answered
        // with a fast, decodable 503 and closed — the bounded-overload
        // path — while the established two keep being served.
        let server = HttpServer::start_with(
            front(),
            HttpServerConfig {
                max_connections: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let held: Vec<HttpClient> = (0..2).map(|_| HttpClient::connect(server.addr())).collect();
        for client in &held {
            client.ping().unwrap(); // establish (and count) both
        }
        assert_eq!(server.open_connections(), 2);
        let refused = HttpClient::connect(server.addr());
        let start = Instant::now();
        let err = refused.ping().unwrap_err();
        assert!(
            matches!(err.code, ErrorCode::Internal | ErrorCode::Transport),
            "unexpected overload surface: {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "503 path must be fast, took {:?}",
            start.elapsed()
        );
        // The held connections are unaffected by the refusal…
        for client in &held {
            client.ping().unwrap();
        }
        // …and capacity freed by a closing client is reusable.
        drop(held);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            std::thread::sleep(Duration::from_millis(5));
            if HttpClient::connect(server.addr()).ping().is_ok() {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "freed capacity never became accept-able"
            );
        }
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let server = running_server();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let client = HttpClient::connect(addr);
                    client.issue(&request(100 + i)).is_ok()
                })
            })
            .collect();
        for handle in handles {
            assert!(handle.join().unwrap());
        }
        server.shutdown();
    }

    #[test]
    fn transport_refusals_answer_v2_bad_envelope() {
        let server = running_server();
        for (head, code) in [
            ("GET / HTTP/1.1\r\nHost: x\r\n\r\n".to_string(), 405),
            (
                format!(
                    "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY_BYTES + 1
                ),
                413,
            ),
        ] {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(head.as_bytes()).unwrap();
            let (status, body, reusable) = read_response(&stream).unwrap();
            assert!(!reusable, "a refusal closes the connection");
            assert_eq!(status, code);
            // Decoded the way `HttpClient` decodes any non-5xx answer.
            let envelope = ResponseEnvelope::from_json(&Json::parse(&body).unwrap()).unwrap();
            assert!(!envelope.ok);
            let err = ApiError::from(envelope.error.unwrap());
            assert_eq!(err.code, ErrorCode::BadEnvelope, "{code}: {err}");
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_unblocks_the_accept_loop_promptly() {
        let server = running_server();
        let start = std::time::Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "shutdown took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn idle_connections_park_instead_of_pinning_workers() {
        let server = HttpServer::start_with(
            front(),
            HttpServerConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        // More idle keep-alive clients than workers: all must get served
        // (so none is starved by a pinned worker) and then sit parked.
        let clients: Vec<HttpClient> = (0..6).map(|_| HttpClient::connect(server.addr())).collect();
        for client in &clients {
            client.ping().unwrap();
        }
        // Each turn parks its connection as it ends; wait for the last.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.parked_connections() < clients.len() {
            assert!(
                Instant::now() < deadline,
                "only {} of {} connections parked",
                server.parked_connections(),
                clients.len()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // Parked connections still answer when spoken to.
        for client in &clients {
            client.ping().unwrap();
        }
        server.shutdown();
    }

    /// One request as bytes, with the head [`parse_head`] must frame:
    /// extra header lines, an optional `Connection: close`, and a body of
    /// arbitrary bytes (framing never looks inside a body).
    fn message(headers: &[(String, String)], body: &[u8], close: bool) -> (Vec<u8>, Head) {
        let mut head = String::from("POST / HTTP/1.1\r\n");
        for (name, value) in headers {
            head += &format!("X-{name}: {value}\r\n");
        }
        head += &format!("Content-Length: {}\r\n", body.len());
        if close {
            head += "Connection: close\r\n";
        }
        head += "\r\n";
        let framed = Head {
            len: head.len(),
            body_len: body.len(),
            close,
        };
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(body);
        (bytes, framed)
    }

    /// Bytes drawn from the alphabet framing cares about, so generated
    /// garbage reaches the line, header and length paths.
    const HEAD_ALPHABET: &[u8] = b"\r\n\r\n:: Content-Length: Connection: close 0123456789\xff\xc3";

    proptest! {
        #[test]
        fn every_prefix_of_a_pipelined_stream_needs_more_or_frames_the_same_head(
            requests in prop::collection::vec(
                (
                    prop::collection::vec(("[a-z]{1,8}", "[a-z0-9 ]{0,16}"), 0..4),
                    prop::collection::vec(any::<u8>(), 0..48),
                    any::<bool>(),
                ),
                1..4,
            )
        ) {
            let mut stream = Vec::new();
            let mut heads = Vec::new();
            for (headers, body, close) in &requests {
                let (bytes, head) = message(headers, body, *close);
                heads.push((stream.len(), head));
                stream.extend_from_slice(&bytes);
            }
            for (start, head) in heads {
                let rest = &stream[start..];
                for end in 0..=rest.len() {
                    let expected = if end < head.len {
                        Framing::NeedMore
                    } else {
                        Framing::Complete(head)
                    };
                    prop_assert_eq!(parse_head(&rest[..end]), expected, "prefix {}", end);
                }
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_framer(
            raw in prop::collection::vec(any::<u8>(), 0..600),
            picks in prop::collection::vec(0usize..HEAD_ALPHABET.len(), 0..600),
        ) {
            let shaped: Vec<u8> = picks.iter().map(|&i| HEAD_ALPHABET[i]).collect();
            for bytes in [raw, shaped] {
                if let Framing::Complete(head) = parse_head(&bytes) {
                    prop_assert!(head.len <= bytes.len());
                    prop_assert!(head.body_len <= MAX_BODY_BYTES);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn the_framer_answers_as_parse_head_however_the_buffer_grows(
            picks in prop::collection::vec(0usize..HEAD_ALPHABET.len(), 0..400),
            with_long_line in any::<bool>(),
            at in 0usize..400,
            len in MAX_HEADER_LINE_BYTES - 16..MAX_HEADER_LINE_BYTES + 16,
            cuts in prop::collection::vec(1usize..3000, 1..40),
        ) {
            let mut bytes: Vec<u8> = picks.iter().map(|&i| HEAD_ALPHABET[i]).collect();
            if with_long_line {
                let at = at.min(bytes.len());
                bytes.splice(at..at, std::iter::repeat_n(b'a', len));
            }
            let mut framer = Framer::default();
            let mut end = 0;
            for cut in cuts.iter().cycle() {
                end = (end + cut).min(bytes.len());
                let prefix = &bytes[..end];
                prop_assert_eq!(framer.frame(prefix), parse_head(prefix), "prefix {}", end);
                if end == bytes.len() {
                    break;
                }
            }
        }
    }

    #[test]
    fn a_near_cap_head_and_its_body_trickled_byte_by_byte_frame_in_linear_time() {
        // 63 header lines one byte short of the cap, then a body: framing
        // from scratch on every byte would scan ~10^11 bytes; the framer
        // scans the head once per line and never while the body arrives.
        let pad = format!("X-Pad: {}\r\n", "a".repeat(MAX_HEADER_LINE_BYTES - 10));
        let body = vec![b'b'; 64 << 10];
        let mut bytes = format!(
            "POST / HTTP/1.1\r\n{}Content-Length: {}\r\n\r\n",
            pad.repeat(MAX_HEADERS - 1),
            body.len()
        )
        .into_bytes();
        let head_len = bytes.len();
        bytes.extend_from_slice(&body);
        let start = Instant::now();
        let mut framer = Framer::default();
        for end in 1..=bytes.len() {
            let framing = framer.frame(&bytes[..end]);
            if end < head_len {
                assert_eq!(framing, Framing::NeedMore, "prefix {end}");
            } else {
                let head = Head {
                    len: head_len,
                    body_len: body.len(),
                    close: false,
                };
                assert_eq!(framing, Framing::Complete(head), "prefix {end}");
            }
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "framing stalled at byte {end} of {}",
                bytes.len()
            );
        }
        // A line that never ends is refused once it reaches the cap, byte
        // by byte as well.
        let endless = format!(
            "POST / HTTP/1.1\r\nX-Pad: {}",
            "a".repeat(MAX_HEADER_LINE_BYTES)
        );
        let line_start = "POST / HTTP/1.1\r\n".len();
        let mut framer = Framer::default();
        for end in 1..=endless.len() {
            let expected = if end < line_start + MAX_HEADER_LINE_BYTES {
                Framing::NeedMore
            } else {
                Framing::Refuse(Refusal::Malformed)
            };
            assert_eq!(
                framer.frame(&endless.as_bytes()[..end]),
                expected,
                "prefix {end}"
            );
        }
    }

    #[test]
    fn framer_refuses_what_breaks_a_cap_or_cannot_be_framed() {
        let with = |extra: &str| format!("POST / HTTP/1.1\r\n{extra}Content-Length: 0\r\n\r\n");
        // A line of exactly the cap, terminator included, still frames;
        // one byte more is refused, as soon as the cap is buffered.
        let at_cap = format!("X-Pad: {}\r\n", "a".repeat(MAX_HEADER_LINE_BYTES - 9));
        assert_eq!(at_cap.len(), MAX_HEADER_LINE_BYTES);
        assert!(matches!(
            parse_head(with(&at_cap).as_bytes()),
            Framing::Complete(_)
        ));
        let over_cap = format!("X-Pad: {}\r\n", "a".repeat(MAX_HEADER_LINE_BYTES - 8));
        assert_eq!(
            parse_head(with(&over_cap).as_bytes()),
            Framing::Refuse(Refusal::Malformed)
        );
        let endless = format!(
            "POST / HTTP/1.1\r\nX-Pad: {}",
            "a".repeat(MAX_HEADER_LINE_BYTES)
        );
        assert_eq!(
            parse_head(endless.as_bytes()),
            Framing::Refuse(Refusal::Malformed)
        );
        // 64 header lines frame; a 65th is refused without waiting for
        // the blank line.
        let pads = |n: usize| "X-Pad: a\r\n".repeat(n);
        assert!(matches!(
            parse_head(with(&pads(MAX_HEADERS - 1)).as_bytes()),
            Framing::Complete(_)
        ));
        let too_many = format!("POST / HTTP/1.1\r\n{}", pads(MAX_HEADERS + 1));
        assert_eq!(
            parse_head(too_many.as_bytes()),
            Framing::Refuse(Refusal::Malformed)
        );
        // A head that is not UTF-8.
        let mut bad = b"POST / HTTP/1.1\r\nX-Bad: \xff\r\n".to_vec();
        bad.extend_from_slice(b"Content-Length: 0\r\n\r\n");
        assert_eq!(parse_head(&bad), Framing::Refuse(Refusal::Malformed));
        // Content-Length missing, unparseable, or past the body cap.
        for (head, refusal) in [
            (
                "POST / HTTP/1.1\r\nHost: t\r\n\r\n".to_string(),
                Refusal::NoLength,
            ),
            (
                "POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n".to_string(),
                Refusal::NoLength,
            ),
            (
                format!(
                    "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY_BYTES + 1
                ),
                Refusal::TooLarge,
            ),
        ] {
            assert_eq!(
                parse_head(head.as_bytes()),
                Framing::Refuse(refusal),
                "{head:?}"
            );
        }
    }
}
