//! The daemon: a readiness reactor, a worker pool, and graceful
//! shutdown.
//!
//! One reactor thread owns the listener and every connection through a
//! level-triggered [`crate::poller::Poller`] (epoll on Linux, `poll(2)`
//! on other Unix systems). It accepts, reads, parses — the incremental
//! [`parse_request`] turns each connection into a keep-alive HTTP/1.1
//! state machine with bounded pipelining — and hands every complete
//! request to the bounded [`crate::queue::Bounded`] admission queue. A
//! full queue answers 429 inline *without closing the connection*:
//! backpressure is a response, not an eviction. Worker threads pop
//! requests, compute behind panic isolation, record telemetry, and
//! push completions back; a [`crate::poller::Waker`] nudges the
//! reactor, which writes responses **in request order** per connection
//! no matter how the computations interleave.
//!
//! [`Server::shutdown`] starts the drain: accepting stops, parsing
//! stops, the queue closes, every admitted request — including
//! pipelined ones still in flight — is answered, then connections
//! close and the threads exit (bounded by a grace period for peers
//! that stop reading).

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hls_explore::default_threads;
use hls_telemetry::{TraceEvent, TraceSink};

use crate::api::{self, AppState};
use crate::http::{parse_request, HttpError, Parsed, Request, Response};
use crate::poller::{self, Poller, Waker, READ, WRITE};
use crate::queue::Bounded;

/// Reactor tick: the upper bound on how stale a timeout sweep or a
/// shutdown check can be. Readiness and completions interrupt the wait
/// through the poller, so this is never on the request latency path.
const TICK: Duration = Duration::from_millis(25);

/// How long a drain waits for peers to read their final responses
/// before force-closing what is left.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Per-connection input buffer cap: one maximal head plus one maximal
/// body of slack past `max_body_bytes` (parse errors fire well before
/// this; it only bounds a pipelining client's burst).
const READ_SLACK: usize = 64 * 1024;

/// Poller tokens 0 and 1 are the listener and the waker; connections
/// start here.
const LISTENER: u64 = 0;
const WAKER: u64 = 1;
const FIRST_CONN: u64 = 2;

/// Daemon configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7433` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads; 0 means [`default_threads`].
    pub workers: usize,
    /// Bounded admission queue capacity; a full queue answers 429.
    pub queue_cap: usize,
    /// Result-cache entry cap (LRU past this).
    pub cache_cap: usize,
    /// Default per-request deadline in ms (`None` = no deadline unless
    /// the request asks for one).
    pub default_deadline_ms: Option<u64>,
    /// Largest accepted request body; beyond it the answer is 413.
    pub max_body_bytes: usize,
    /// How long a connection may sit on a partial request or an
    /// unread response before it is dropped (slow-loris bound).
    pub read_timeout_ms: u64,
    /// How long a fully idle keep-alive connection is kept before
    /// eviction.
    pub idle_timeout_ms: u64,
    /// Most requests a connection may have in flight (parsed, not yet
    /// answered) before the reactor stops reading from it.
    pub pipeline_depth: usize,
    /// Most simultaneously open connections; past it, accepts answer
    /// 503 and close.
    pub max_conns: usize,
    /// On-disk result cache directory (`None` = memory-only). Survives
    /// restarts; shared by every worker.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7433".into(),
            workers: 0,
            queue_cap: 64,
            cache_cap: hls_explore::DEFAULT_RESULTS_CAP,
            default_deadline_ms: None,
            max_body_bytes: 1024 * 1024,
            read_timeout_ms: 5000,
            idle_timeout_ms: 5000,
            pipeline_depth: 8,
            max_conns: 1024,
            cache_dir: None,
        }
    }
}

/// One admitted request on its way to a worker.
struct Work {
    conn: u64,
    seq: u64,
    request: Request,
    enqueued: Instant,
}

/// One computed response on its way back to the reactor.
struct Done {
    conn: u64,
    seq: u64,
    response: Response,
}

struct Shared {
    app: AppState,
    sink: Mutex<Box<dyn TraceSink + Send>>,
    queue: Bounded<Work>,
    completions: Mutex<Vec<Done>>,
    waker: Waker,
    shutdown: AtomicBool,
    gate: Gate,
}

/// Where workers park between popping a request and computing it while
/// a [`WorkerHold`] is alive: `(held, parked)` under one lock.
#[derive(Default)]
struct Gate {
    state: Mutex<(bool, usize)>,
    changed: Condvar,
}

impl Gate {
    fn lock(&self) -> std::sync::MutexGuard<'_, (bool, usize)> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn wait<'a>(
        &self,
        guard: std::sync::MutexGuard<'a, (bool, usize)>,
    ) -> std::sync::MutexGuard<'a, (bool, usize)> {
        self.changed
            .wait(guard)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Returns at once unless held; otherwise parks until released.
    fn pass(&self) {
        let mut state = self.lock();
        if !state.0 {
            return;
        }
        state.1 += 1;
        self.changed.notify_all();
        while state.0 {
            state = self.wait(state);
        }
        state.1 -= 1;
    }

    fn set(&self, held: bool) {
        self.lock().0 = held;
        self.changed.notify_all();
    }
}

/// A test seam that keeps the worker pool busy: while it is alive,
/// every worker that pops a request parks before computing it, so a
/// test can make "the pool is occupied" a fact instead of a race
/// against compute time. Dropping it releases the workers.
#[doc(hidden)]
pub struct WorkerHold<'a> {
    gate: &'a Gate,
}

impl WorkerHold<'_> {
    /// Blocks until `n` workers are parked at the hold.
    pub fn wait_parked(&self, n: usize) {
        let mut state = self.gate.lock();
        while state.1 < n {
            state = self.gate.wait(state);
        }
    }
}

impl Drop for WorkerHold<'_> {
    fn drop(&mut self) {
        self.gate.set(false);
    }
}

/// A running daemon. Dropping it without [`Server::join`] detaches the
/// threads; the intended lifecycle is `start` → `shutdown` → `join`.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the daemon; per-request access-log events go to
    /// `sink`.
    pub fn start(config: ServeConfig, sink: Box<dyn TraceSink + Send>) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (waker, waker_rx) = Waker::pair()?;
        let poller = Poller::new()?;
        let worker_count = if config.workers == 0 {
            default_threads()
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            app: AppState::with_options(
                config.cache_cap,
                config.default_deadline_ms,
                config.cache_dir.as_deref(),
            )?,
            sink: Mutex::new(sink),
            queue: Bounded::new(config.queue_cap),
            completions: Mutex::new(Vec::new()),
            waker,
            shutdown: AtomicBool::new(false),
            gate: Gate::default(),
        });

        let reactor = {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            std::thread::spawn(move || {
                Reactor::new(shared, config, poller, listener, waker_rx).run();
            })
        };
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Server {
            addr,
            shared,
            reactor: Some(reactor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared application state (metrics, cache) — for tests.
    pub fn app(&self) -> &AppState {
        &self.shared.app
    }

    /// Holds every worker before its next computation until the
    /// returned guard is dropped (a test seam, see [`WorkerHold`]).
    #[doc(hidden)]
    pub fn hold_workers(&self) -> WorkerHold<'_> {
        self.shared.gate.set(true);
        WorkerHold {
            gate: &self.shared.gate,
        }
    }

    /// Requests admitted and waiting for a worker (a test seam).
    #[doc(hidden)]
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// Whether the drain has begun: the admission queue is closed (a
    /// test seam).
    #[doc(hidden)]
    pub fn draining(&self) -> bool {
        self.shared.queue.is_closed()
    }

    /// Requests a graceful shutdown: stop accepting, answer everything
    /// admitted, then drain.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.waker.wake();
    }

    /// Waits for the reactor and all workers to finish. Call
    /// [`Server::shutdown`] first, or this blocks forever.
    pub fn join(mut self) {
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The answer to a request whose handling panicked, counted in
/// `serve.panics`.
fn panic_response(app: &AppState) -> Response {
    app.inc("serve.panics", 1);
    Response::error(500, "internal error")
}

fn worker_loop(shared: &Shared) {
    while let Some(work) = shared.queue.pop() {
        shared.gate.pass();
        let started = Instant::now();
        let queue_ns = started.saturating_duration_since(work.enqueued).as_nanos() as u64;
        // A panic in parsing/scheduling answers 500 instead of
        // unwinding through the worker thread: the pool must keep its
        // full size no matter what a request does.
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            api::handle(&shared.app, &work.request, work.enqueued)
        }))
        .unwrap_or_else(|_| panic_response(&shared.app));
        let compute_ns = started.elapsed().as_nanos() as u64;
        record(
            shared,
            &work.request.method,
            &work.request.path,
            &response,
            started,
            queue_ns,
            compute_ns,
        );
        shared
            .completions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Done {
                conn: work.conn,
                seq: work.seq,
                response,
            });
        shared.waker.wake();
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Unparsed input.
    buf: Vec<u8>,
    /// Rendered output not yet written, and how far it got.
    out: Vec<u8>,
    out_pos: usize,
    /// The next sequence number to assign at parse time; responses are
    /// written strictly in sequence order.
    next_seq: u64,
    next_write: u64,
    /// Completed responses waiting for their turn in the write order.
    ready: BTreeMap<u64, Response>,
    /// Requests parsed but not yet moved into `out`.
    in_flight: usize,
    /// No more requests will be parsed; close once everything assigned
    /// is flushed.
    closing: bool,
    read_eof: bool,
    last_activity: Instant,
    interest: u8,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            next_write: 0,
            ready: BTreeMap::new(),
            in_flight: 0,
            closing: false,
            read_eof: false,
            last_activity: Instant::now(),
            interest: 0,
        }
    }

    /// Nothing buffered, computing, or unwritten.
    fn is_quiet(&self) -> bool {
        self.buf.is_empty()
            && self.in_flight == 0
            && self.ready.is_empty()
            && self.out_pos >= self.out.len()
    }
}

struct Reactor {
    shared: Arc<Shared>,
    cfg: ServeConfig,
    poller: Poller,
    listener: Option<TcpListener>,
    waker_rx: TcpStream,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    draining: bool,
    drain_deadline: Option<Instant>,
    events: Vec<poller::Event>,
}

impl Reactor {
    fn new(
        shared: Arc<Shared>,
        cfg: ServeConfig,
        mut poller: Poller,
        listener: TcpListener,
        waker_rx: TcpStream,
    ) -> Reactor {
        shared
            .app
            .inc(format!("serve.poller.{}", poller.backend()), 1);
        let _ = poller.add(LISTENER, &listener, READ);
        let _ = poller.add(WAKER, &waker_rx, READ);
        Reactor {
            shared,
            cfg,
            poller,
            listener: Some(listener),
            waker_rx,
            conns: HashMap::new(),
            next_token: FIRST_CONN,
            draining: false,
            drain_deadline: None,
            events: Vec::new(),
        }
    }

    fn run(mut self) {
        loop {
            if !self.draining && self.shared.shutdown.load(Ordering::Acquire) {
                self.begin_drain();
            }
            if self.draining {
                if self.conns.is_empty() {
                    break;
                }
                if self.drain_deadline.is_some_and(|at| Instant::now() >= at) {
                    break; // grace expired; remaining peers stopped reading
                }
            }
            if self.poller.wait(&mut self.events, Some(TICK)).is_err() {
                std::thread::sleep(TICK); // poller failure: degrade, don't spin
            }
            let events = std::mem::take(&mut self.events);
            for &(token, readiness) in &events {
                match token {
                    LISTENER => self.accept_ready(),
                    WAKER => poller::drain_waker(&mut self.waker_rx),
                    _ => self.conn_event(token, readiness),
                }
            }
            self.events = events;
            self.apply_completions();
            self.sweep_timeouts();
        }
        // Force-close what is left (grace expired, or nothing left).
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    /// Drain entry: stop accepting, stop parsing, close the queue so
    /// workers exit once the backlog is answered.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
        if let Some(listener) = self.listener.take() {
            self.poller.remove(LISTENER, &listener);
        }
        self.shared.queue.close();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.closing = true;
            }
            self.service(token);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.cfg.max_conns.max(1) {
                        self.reject_conn(stream);
                        continue;
                    }
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let mut conn = Conn::new(stream);
                    if self.poller.add(token, &conn.stream, READ).is_err() {
                        continue; // kernel said no; drop the socket
                    }
                    conn.interest = READ;
                    self.conns.insert(token, conn);
                    self.shared.app.inc("serve.conns.accepted", 1);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// 503s a connection past the cap: one best-effort write, then
    /// drop. The peer that caused the pressure never gets a slot.
    fn reject_conn(&mut self, mut stream: TcpStream) {
        let response = Response::error(503, "connection limit reached");
        let mut out = Vec::with_capacity(160);
        response.render_into(&mut out, true);
        let _ = stream.set_nonblocking(true);
        let _ = stream.write(&out);
        self.shared.app.inc("serve.conns.rejected", 1);
        record(&self.shared, "?", "?", &response, Instant::now(), 0, 0);
    }

    fn conn_event(&mut self, token: u64, readiness: u8) {
        if readiness & READ != 0 && self.do_read(token) {
            self.close_conn(token);
            return;
        }
        let _ = readiness; // writes are retried by `service` regardless
        self.service(token);
    }

    /// Reads everything available; returns `true` when the connection
    /// died mid-read and must be torn down.
    fn do_read(&mut self, token: u64) -> bool {
        let read_cap = self.cfg.max_body_bytes + READ_SLACK;
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        if conn.read_eof || conn.closing {
            return false;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if conn.buf.len() >= read_cap {
                return false; // stop reading until the backlog drains
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_eof = true;
                    return false;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.shared.app.inc("serve.io_errors", 1);
                    return conn.in_flight == 0; // answers pending: let them flush
                }
            }
        }
    }

    /// Advances one connection's state machine: parse what is
    /// buffered, move in-order responses to the wire, write, then
    /// update poller interest or tear the connection down.
    fn service(&mut self, token: u64) {
        let shared = Arc::clone(&self.shared);
        let depth = self.cfg.pipeline_depth.max(1);
        let max_body = self.cfg.max_body_bytes;
        let read_cap = max_body + READ_SLACK;
        let mut dead = false;
        let mut finished = false;
        if let Some(conn) = self.conns.get_mut(&token) {
            // 1. Parse complete requests off the buffer, up to the
            //    pipeline bound.
            while !conn.closing && conn.in_flight < depth && !conn.buf.is_empty() {
                match parse_request(&conn.buf, max_body) {
                    Ok(Parsed::Partial) => break,
                    Ok(Parsed::Complete {
                        request,
                        consumed,
                        keep_alive,
                    }) => {
                        conn.buf.drain(..consumed);
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.in_flight += 1;
                        if seq > 0 {
                            shared.app.inc("serve.keepalive.reused", 1);
                        }
                        if conn.in_flight > 1 {
                            shared.app.inc("serve.pipeline.pipelined", 1);
                        }
                        shared
                            .app
                            .observe("serve.pipeline.depth", conn.in_flight as u64);
                        if !keep_alive {
                            conn.closing = true;
                        }
                        let work = Work {
                            conn: token,
                            seq,
                            request,
                            enqueued: Instant::now(),
                        };
                        // Inline warm path: a memory-tier cache hit is
                        // answered on the event loop itself — no queue,
                        // no worker handoff, no context switch. Cold
                        // requests (and everything that computes, does
                        // I/O or can block) still go to the pool.
                        // It parses the job, so it gets the workers'
                        // panic backstop: the reactor must never unwind.
                        let warm = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            api::try_warm(&shared.app, &work.request, work.enqueued)
                        }))
                        .unwrap_or_else(|_| Some(panic_response(&shared.app)));
                        if let Some(response) = warm {
                            record(
                                &shared,
                                &work.request.method,
                                &work.request.path,
                                &response,
                                work.enqueued,
                                0,
                                0,
                            );
                            conn.ready.insert(seq, response);
                        } else if let Err(work) = shared.queue.try_push(work) {
                            // Backpressure answers in-line and in
                            // order; the connection stays usable.
                            let response = Response::error(429, "job queue is full, retry later");
                            shared.app.inc("serve.queue.rejected", 1);
                            record(
                                &shared,
                                &work.request.method,
                                &work.request.path,
                                &response,
                                Instant::now(),
                                0,
                                0,
                            );
                            conn.ready.insert(seq, response);
                        }
                    }
                    Err(e) => {
                        // Framing is unrecoverable after a parse
                        // error: answer it (in order, behind anything
                        // already admitted) and close.
                        let response = match e {
                            HttpError::TooLarge => Response::error(413, "request body too large"),
                            HttpError::BadRequest(m) => Response::error(400, &m),
                        };
                        record(&shared, "?", "?", &response, Instant::now(), 0, 0);
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.in_flight += 1;
                        conn.ready.insert(seq, response);
                        conn.closing = true;
                        conn.buf.clear();
                    }
                }
            }
            if conn.read_eof {
                conn.closing = true;
            }
            // 2. Move in-order completed responses onto the wire. The
            //    `Connection: close` header goes on the connection's
            //    final response only.
            while let Some(response) = conn.ready.remove(&conn.next_write) {
                conn.in_flight -= 1;
                let last = conn.next_write + 1 == conn.next_seq;
                response.render_into(&mut conn.out, conn.closing && last);
                conn.next_write += 1;
            }
            // 3. Write as much as the socket takes.
            while conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        shared.app.inc("serve.io_errors", 1);
                        dead = true;
                        break;
                    }
                }
            }
            if conn.out_pos >= conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
            }
            finished = conn.closing && conn.is_quiet();
            // A closing connection with in-flight work but a dead
            // input is still waiting on workers — keep it.
            if !dead && !finished {
                let mut want = 0u8;
                if !conn.read_eof
                    && !conn.closing
                    && conn.in_flight < depth
                    && conn.buf.len() < read_cap
                {
                    want |= READ;
                }
                if conn.out_pos < conn.out.len() {
                    want |= WRITE;
                }
                if want != conn.interest {
                    let stream = &conn.stream;
                    if self.poller.modify(token, stream, want).is_ok() {
                        conn.interest = want;
                    }
                }
            }
        }
        if dead || finished {
            self.close_conn(token);
        }
    }

    fn apply_completions(&mut self) {
        let done: Vec<Done> = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        let mut touched = Vec::new();
        for d in done {
            if let Some(conn) = self.conns.get_mut(&d.conn) {
                conn.ready.insert(d.seq, d.response);
                if !touched.contains(&d.conn) {
                    touched.push(d.conn);
                }
            }
            // else: the connection died while its request computed;
            // the answer has no one to go to.
        }
        for token in touched {
            self.service(token);
        }
    }

    /// Evicts stalled and idle connections. Connections with requests
    /// in flight are exempt — compute time is governed by deadlines,
    /// not socket timeouts.
    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        let read_to = Duration::from_millis(self.cfg.read_timeout_ms.max(1));
        let idle_to = Duration::from_millis(self.cfg.idle_timeout_ms.max(1));
        let mut evict: Vec<(u64, &'static str)> = Vec::new();
        for (&token, conn) in &self.conns {
            if conn.in_flight > 0 {
                continue;
            }
            let stale = now.saturating_duration_since(conn.last_activity);
            if conn.is_quiet() {
                if stale >= idle_to {
                    evict.push((token, "serve.timeouts.idle"));
                }
            } else if stale >= read_to {
                // A partial request or an unread response, stalled:
                // the slow-loris bound.
                evict.push((token, "serve.timeouts.read"));
            }
        }
        for (token, counter) in evict {
            self.shared.app.inc(counter, 1);
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.remove(token, &conn.stream);
        }
    }
}

/// The fixed latency-histogram family a request path belongs to. Paths
/// map onto a closed set of endpoint classes so a scanning client
/// cannot mint unbounded metric families.
fn endpoint_class(path: &str) -> &'static str {
    match path {
        "/schedule" => "schedule",
        "/batch" => "batch",
        "/metrics" => "metrics",
        "/healthz" => "healthz",
        "/" => "index",
        _ => "other",
    }
}

/// Counts the response, records the per-endpoint latency histograms
/// and emits the access-log event.
fn record(
    shared: &Shared,
    method: &str,
    path: &str,
    response: &Response,
    started: Instant,
    queue_ns: u64,
    compute_ns: u64,
) {
    let dur_ns = started.elapsed().as_nanos() as u64;
    shared.app.inc("serve.requests", 1);
    shared.app.inc(format!("serve.http.{}", response.status), 1);
    shared.app.observe("serve.request.wall_ns", dur_ns);
    let ep = endpoint_class(path);
    shared
        .app
        .observe(format!("serve.latency.{ep}.ns"), queue_ns + dur_ns);
    shared
        .app
        .observe(format!("serve.queue_wait.{ep}.ns"), queue_ns);
    shared
        .app
        .observe(format!("serve.compute.{ep}.ns"), compute_ns);
    let deadline_remaining_ms = response.deadline.map(|at| {
        let now = Instant::now();
        if now <= at {
            (at - now).as_millis() as i64
        } else {
            -((now - at).as_millis() as i64)
        }
    });
    // Recover a poisoned lock: a panic in one access-log write must not
    // take logging (or the worker that trips over it) down with it.
    let mut sink = shared
        .sink
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if sink.enabled() {
        sink.record(TraceEvent::HttpRequest {
            method: method.into(),
            path: path.into(),
            status: response.status,
            bytes: response.body.len() as u64,
            dur_ns,
            queue_ns,
            deadline_remaining_ms,
        });
    }
}
