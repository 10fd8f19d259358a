//! The nonblocking serving core: one thread, a `poll(2)` readiness
//! loop, and a bounded connection table of per-connection state
//! machines.
//!
//! This replaces the thread-per-connection model: concurrency is no
//! longer capped by spawnable threads, an idle keep-alive client costs
//! one table slot instead of a parked thread, and a slowloris client
//! dripping bytes holds nothing but its own slot until the read
//! deadline reaps it. Each connection walks
//!
//! ```text
//! reading (head → body, incremental) ──► dispatched
//!    ▲                                      │ inline (GETs, registration)
//!    │                                      ▼
//!    │                       ┌─── queued (awaiting a worker)
//!    │                       ▼
//!    └──────────── writing response ──► keep-alive idle / close / linger-drain
//! ```
//!
//! Worker threads never touch sockets: they push [`Completion`]s (token,
//! response, trace notes) onto [`RoutingService`]'s list and nudge the
//! reactor through a loopback [`Waker`] pair, and the reactor writes
//! the bytes when the socket is ready. Tokens are generation-stamped so
//! a completion for a connection that was reaped (and whose slot was
//! reused) is dropped instead of answering the wrong client.
//!
//! Deadline semantics, deliberately different per direction:
//! - **read**: an absolute budget per request, armed at its first byte —
//!   progress-based resets are exactly what a 1-byte-per-second client
//!   exploits;
//! - **write**: progress-based — a slow-but-live reader keeps its
//!   connection, one that stopped reading entirely is reaped;
//! - **idle**: parked keep-alive connections are closed quietly.

use std::io::{self, Read, Write};
use std::net::{self, IpAddr, Ipv4Addr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sabre_trace::{is_valid_trace_id, next_trace_id, unix_ms_now, RequestTrace, TraceNotes};

use crate::admission::RateLimiter;
use crate::http::{Parsed, Request, RequestParser, Response};
use crate::metrics::Counter;
use crate::poll::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::service::{dispatch, AdmitCtx, Completion, Outcome, RoutingService};

/// How long shutdown lets stalled reads/writes finish before
/// force-closing them (connections awaiting a worker are exempt — their
/// completion is guaranteed by the shutdown sequence).
pub(crate) const CONNECTION_DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Post-error drain bounds (e.g. a `413` whose client is still sending
/// the oversized body): closing immediately would RST the connection and
/// destroy the response before the client reads it, so discard input —
/// but never for longer than this, nor more than [`LINGER_BYTE_CAP`].
const LINGER_TIMEOUT: Duration = Duration::from_secs(2);
const LINGER_BYTE_CAP: usize = 1 << 20;
/// Per-`read` buffer size.
const READ_CHUNK: usize = 16 * 1024;
/// Fairness bound: how much one readiness event may pull from a single
/// connection before the loop moves on (the rest stays in the kernel
/// buffer; level-triggered polling reports it again next iteration).
const MAX_READ_PER_EVENT: usize = 256 * 1024;
/// Poll timeout when no deadline is pending.
const IDLE_POLL_MS: i32 = 1000;

/// The write half of the reactor's self-wake channel (a loopback socket
/// pair). Cloneable across worker threads via `Arc`; writes are one
/// byte and failures (including a full pipe — a wake is already
/// pending) are deliberately ignored.
pub(crate) struct Waker {
    tx: TcpStream,
}

impl Waker {
    /// Interrupts the reactor's `poll` so it re-checks completions and
    /// the draining flag.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// Builds the waker pair: `(tx half for workers, rx half the reactor
/// polls)`. Uses a throwaway loopback listener since `std` exposes no
/// `socketpair(2)`; the accepted peer is verified against our own
/// connecting address so a stranger racing the listener cannot become
/// the waker.
pub(crate) fn waker_pair() -> io::Result<(Waker, TcpStream)> {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    let addr = listener.local_addr()?;
    for _ in 0..8 {
        let tx = TcpStream::connect(addr)?;
        let local = tx.local_addr()?;
        let (rx, peer) = listener.accept()?;
        if peer == local {
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            let _ = tx.set_nodelay(true);
            return Ok((Waker { tx }, rx));
        }
        // A stranger connected between bind and connect: drop both ends
        // and try again (our own connection is still in the backlog).
    }
    Err(io::Error::other("cannot establish the reactor waker pair"))
}

/// Where a connection is in its request/response cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnState {
    /// Feeding bytes to the parser (idle keep-alive when the parser is
    /// not mid-request).
    Reading,
    /// A job was queued for this connection; the worker's completion
    /// will carry the response.
    AwaitingJob,
    /// Flushing `out` to the socket.
    Writing,
    /// Response sent after an early error; discarding the client's
    /// remaining upload before closing.
    Linger,
}

/// What to do once `out` is fully flushed.
#[derive(Clone, Copy, Debug)]
enum AfterWrite {
    /// Back to `Reading` (keep-alive, or an interim `100 Continue`).
    Resume,
    /// Graceful close: send our FIN, then drain until the peer's.
    Close,
    /// Enter the post-error linger drain, then close.
    Linger,
}

/// Which deadline is armed (at most one per connection; the states are
/// mutually exclusive).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeadlineKind {
    Idle,
    Read,
    Write,
    Linger,
}

/// The trace of the request currently in flight on a connection: born
/// when the request parses or the parser rejects it, finalized (stamped,
/// pushed into the trace ring, slow log checked) once its response is
/// fully flushed.
struct ActiveTrace {
    /// The record the ring receives. Its `status` is `0` until the
    /// *final* response is queued — an interim `100 Continue` never stamps
    /// it, so it never finalizes the trace — and `unix_ms` and `total_ns`
    /// are set when the trace is sealed.
    record: RequestTrace,
    /// The request's first byte.
    started: Instant,
    /// When the final response was queued (the `write` phase's start).
    write_started: Instant,
}

impl ActiveTrace {
    /// Opens the trace of `request` — `None` when the parser rejected it,
    /// leaving method and target empty — whose first byte arrived at
    /// `started`, under trace id `id`, with its `read` phase.
    fn open(id: String, request: Option<&Request>, started: Instant) -> ActiveTrace {
        let (method, target) = match request {
            None => (String::new(), String::new()),
            Some(r) if r.query.is_empty() => (r.method.clone(), r.path.clone()),
            Some(r) => (r.method.clone(), format!("{}?{}", r.path, r.query)),
        };
        ActiveTrace {
            record: RequestTrace {
                id,
                method,
                target,
                status: 0,
                unix_ms: 0,
                total_ns: 0,
                notes: TraceNotes {
                    phases: vec![("read", elapsed_ns(started))],
                    ..TraceNotes::default()
                },
            },
            started,
            write_started: started,
        }
    }
}

/// One connection's full state.
struct Conn {
    stream: TcpStream,
    peer: IpAddr,
    parser: RequestParser,
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    after_write: AfterWrite,
    /// Requests served (dispatch counted), for the keep-alive cap.
    served: usize,
    /// Keep-alive decision captured at admission, applied when the
    /// worker's response is delivered (draining can still veto it).
    keep_after_job: bool,
    deadline: Option<(DeadlineKind, Instant)>,
    linger_budget: usize,
    /// The peer half-closed its send side; close once the in-flight
    /// response (if any) is written.
    saw_eof: bool,
    /// Trace ID minted at accept time; the connection's first request
    /// adopts it unless the client supplied its own `X-Request-Id`.
    accept_trace_id: Option<String>,
    /// When the current request's first byte arrived (the start of its
    /// `read` phase); taken when the request parses.
    read_started: Option<Instant>,
    /// Trace of the request currently being answered.
    trace: Option<ActiveTrace>,
}

impl Conn {
    fn new(stream: TcpStream, peer: IpAddr, max_body: usize, idle_timeout: Duration) -> Conn {
        Conn {
            stream,
            peer,
            parser: RequestParser::new(max_body),
            out: Vec::new(),
            out_pos: 0,
            state: ConnState::Reading,
            after_write: AfterWrite::Close,
            served: 0,
            keep_after_job: false,
            deadline: Some((DeadlineKind::Idle, Instant::now() + idle_timeout)),
            linger_budget: 0,
            saw_eof: false,
            accept_trace_id: Some(next_trace_id()),
            read_started: None,
            trace: None,
        }
    }

    /// Opens the trace of the request whose bytes just parsed (or were
    /// rejected): its `read` phase began at the first byte, and a valid
    /// client-supplied `X-Request-Id` wins over the ID minted at accept,
    /// so callers can correlate against their own tracing systems.
    fn open_trace(&mut self, request: Option<&Request>) -> ActiveTrace {
        let started = self.read_started.take().unwrap_or_else(Instant::now);
        let id = request
            .and_then(|r| r.header("x-request-id"))
            .filter(|id| is_valid_trace_id(id))
            .map(str::to_string)
            .unwrap_or_else(|| self.accept_trace_id.take().unwrap_or_else(next_trace_id));
        ActiveTrace::open(id, request, started)
    }

    fn queue_response(&mut self, response: &Response, after: AfterWrite, write_deadline: Duration) {
        response
            .write_to(&mut self.out)
            .expect("serializing into a Vec cannot fail");
        if let Some(trace) = &mut self.trace {
            if trace.record.status == 0 {
                trace.record.status = response.status();
                trace.write_started = Instant::now();
            }
        }
        self.state = ConnState::Writing;
        self.after_write = after;
        self.deadline = Some((DeadlineKind::Write, Instant::now() + write_deadline));
    }
}

/// Generation-stamped connection table. A token is `slot << 32 | gen`;
/// removing a connection bumps the slot's generation, so a stale token
/// (late completion, stale poll entry) resolves to `None` instead of a
/// recycled connection.
struct Slab {
    slots: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    len: usize,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, conn: Conn) -> u64 {
        self.len += 1;
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some(conn);
                token(idx, self.gens[idx])
            }
            None => {
                self.slots.push(Some(conn));
                self.gens.push(0);
                token(self.slots.len() - 1, 0)
            }
        }
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut Conn> {
        let (idx, gen) = split(token);
        if *self.gens.get(idx)? != gen {
            return None;
        }
        self.slots.get_mut(idx)?.as_mut()
    }

    fn remove(&mut self, token: u64) -> Option<Conn> {
        let (idx, gen) = split(token);
        if *self.gens.get(idx)? != gen {
            return None;
        }
        let conn = self.slots.get_mut(idx)?.take()?;
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        self.len -= 1;
        Some(conn)
    }

    fn tokens(&self) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
            .map(|(idx, _)| token(idx, self.gens[idx]))
            .collect()
    }
}

fn token(idx: usize, gen: u32) -> u64 {
    ((idx as u64) << 32) | u64::from(gen)
}

fn split(token: u64) -> (usize, u32) {
    ((token >> 32) as usize, token as u32)
}

fn elapsed_ns(at: Instant) -> u64 {
    at.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Runs the reactor until shutdown completes. Spawned as the
/// `sabre-serve-reactor` thread by [`crate::start`].
pub(crate) fn run(service: Arc<RoutingService>, listener: TcpListener, waker_rx: TcpStream) {
    let config = &service.config;
    let limiter = RateLimiter::new(config.rate_limit_per_sec, config.rate_limit_burst);
    let mut table_full = Vec::new();
    Response::error(503, "connection table is full")
        .with_header("Retry-After", config.retry_after_secs.to_string())
        .write_to(&mut table_full)
        .expect("serializing into a Vec cannot fail");
    let mut reactor = Reactor {
        read_deadline: Duration::from_millis(config.read_deadline_ms),
        write_deadline: Duration::from_millis(config.write_deadline_ms),
        idle_timeout: Duration::from_millis(config.idle_timeout_ms),
        max_connections: config.max_connections,
        max_requests: config.max_requests_per_connection,
        max_body: config.max_body_bytes,
        service,
        listener,
        waker_rx,
        conns: Slab::new(),
        limiter,
        drain_deadline: None,
        table_full,
    };
    reactor.run();
}

struct Reactor {
    service: Arc<RoutingService>,
    listener: TcpListener,
    waker_rx: TcpStream,
    conns: Slab,
    limiter: RateLimiter,
    drain_deadline: Option<Instant>,
    /// Canned `503` bytes for connections refused at accept time.
    table_full: Vec<u8>,
    read_deadline: Duration,
    write_deadline: Duration,
    idle_timeout: Duration,
    max_connections: usize,
    max_requests: usize,
    max_body: usize,
}

impl Reactor {
    fn draining(&self) -> bool {
        self.service.draining.load(Ordering::Acquire)
    }

    fn run(&mut self) {
        loop {
            let draining = self.draining();
            if draining && self.drain_deadline.is_none() {
                self.drain_deadline = Some(Instant::now() + CONNECTION_DRAIN_TIMEOUT);
            }
            self.deliver_completions();
            if draining && self.drain_step() {
                break;
            }

            // Registration set: waker first, listener second (unless
            // draining), then every connection with socket interest.
            let mut fds = vec![PollFd::new(poll::raw_fd(&self.waker_rx), POLLIN)];
            let mut owners: Vec<Option<u64>> = vec![None];
            let listener_slot = if draining {
                None
            } else {
                fds.push(PollFd::new(poll::raw_fd(&self.listener), POLLIN));
                owners.push(None);
                Some(fds.len() - 1)
            };
            for tok in self.conns.tokens() {
                let Some(conn) = self.conns.get_mut(tok) else {
                    continue;
                };
                let events = match conn.state {
                    ConnState::Reading | ConnState::Linger => POLLIN,
                    ConnState::Writing => POLLOUT,
                    // No socket interest: the completion (via the
                    // waker) is this connection's next event.
                    ConnState::AwaitingJob => continue,
                };
                fds.push(PollFd::new(poll::raw_fd(&conn.stream), events));
                owners.push(Some(tok));
            }

            let timeout = self.poll_timeout_ms();
            if poll::poll(&mut fds, timeout).is_err() {
                // EINVAL/ENOMEM: don't spin on a hot error loop.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }

            if fds[0].ready(POLLIN | POLLERR | POLLHUP) {
                self.drain_waker();
            }
            // Connection events before new accepts, so a slot freed in
            // this pass cannot be reused while its poll entry is live.
            for (i, fd) in fds.iter().enumerate() {
                if fd.revents == 0 {
                    continue;
                }
                if let Some(tok) = owners[i] {
                    self.conn_event(tok, fd.revents);
                }
            }
            self.reap_deadlines();
            if listener_slot.is_some_and(|i| fds[i].ready(POLLIN | POLLERR)) {
                self.accept_ready();
            }
        }
    }

    /// Per-iteration shutdown bookkeeping. Returns `true` when the
    /// reactor is done: every connection resolved and no completion
    /// left to deliver.
    fn drain_step(&mut self) -> bool {
        // Idle keep-alive clients get no further requests; close them
        // so they cannot stall the drain.
        for tok in self.conns.tokens() {
            let Some(conn) = self.conns.get_mut(tok) else {
                continue;
            };
            if conn.state == ConnState::Reading && !conn.parser.is_mid_request() {
                self.close(tok);
            }
        }
        if self.drain_deadline.is_some_and(|dd| Instant::now() >= dd) {
            // Time is up for stalled reads/writes/lingers. Connections
            // awaiting a worker stay: the shutdown sequence guarantees
            // their completion (drained by workers or failed en masse),
            // and dropping them here would drop a client's response.
            for tok in self.conns.tokens() {
                if let Some(conn) = self.conns.get_mut(tok) {
                    if conn.state != ConnState::AwaitingJob {
                        self.close(tok);
                    }
                }
            }
        }
        self.conns.len() == 0 && self.service.completions().is_empty()
    }

    fn poll_timeout_ms(&mut self) -> i32 {
        let mut next: Option<Instant> = self.drain_deadline;
        for tok in self.conns.tokens() {
            if let Some(conn) = self.conns.get_mut(tok) {
                if let Some((_, at)) = conn.deadline {
                    next = Some(next.map_or(at, |n| n.min(at)));
                }
            }
        }
        match next {
            None => IDLE_POLL_MS,
            Some(at) => at
                .saturating_duration_since(Instant::now())
                .as_millis()
                .min(IDLE_POLL_MS as u128) as i32,
        }
    }

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match self.waker_rx.read(&mut sink) {
                Ok(0) => return, // waker tx dropped: shutdown under way
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Applies worker completions: resolve each token, merge the
    /// worker's notes into the request's trace, and send its response.
    /// Stale tokens (connection reaped while the job ran) drop the
    /// response — the generation stamp guarantees it can never reach a
    /// recycled slot's new owner.
    fn deliver_completions(&mut self) {
        let completed = std::mem::take(&mut *self.service.completions());
        for Completion {
            token: tok,
            response,
            notes,
        } in completed
        {
            let Some(conn) = self.conns.get_mut(tok) else {
                continue;
            };
            if conn.state != ConnState::AwaitingJob {
                continue;
            }
            if let Some(trace) = &mut conn.trace {
                trace.record.notes.merge(notes);
            }
            let keep = conn.keep_after_job;
            self.respond(tok, response, keep);
            // Pipelined bytes may already hold the next request.
            self.advance_requests(tok);
        }
    }

    /// Sends the final response to a connection's current request: stamps
    /// the trace's `X-Request-Id`, keeps the connection alive when the
    /// request allowed it and the server is not draining, queues the bytes
    /// and flushes what the socket takes.
    fn respond(&mut self, tok: u64, mut response: Response, keep: bool) {
        let keep = keep && !self.draining();
        let write_deadline = self.write_deadline;
        let Some(conn) = self.conns.get_mut(tok) else {
            return;
        };
        if let Some(trace) = &conn.trace {
            response = response.with_header("X-Request-Id", trace.record.id.clone());
        }
        if keep {
            response = response.keep_alive();
        }
        let after = if keep {
            AfterWrite::Resume
        } else {
            AfterWrite::Close
        };
        conn.queue_response(&response, after, write_deadline);
        self.conn_writable(tok);
    }

    fn conn_event(&mut self, tok: u64, revents: i16) {
        if revents & (POLLERR | POLLNVAL) != 0 {
            self.close(tok);
            return;
        }
        let Some(conn) = self.conns.get_mut(tok) else {
            return;
        };
        match conn.state {
            // POLLHUP without POLLIN still goes through the read path:
            // a half-closed peer may have readable data pending, and
            // `read` reports the EOF either way.
            ConnState::Reading => self.conn_readable(tok),
            ConnState::Writing => self.conn_writable(tok),
            ConnState::Linger => self.conn_lingering(tok),
            ConnState::AwaitingJob => {}
        }
    }

    /// Pulls whatever the socket has (bounded per event for fairness)
    /// into the parser, then advances the request state machine.
    fn conn_readable(&mut self, tok: u64) {
        let mut eof = false;
        {
            let Some(conn) = self.conns.get_mut(tok) else {
                return;
            };
            let mut chunk = [0u8; READ_CHUNK];
            let mut pulled = 0usize;
            while pulled < MAX_READ_PER_EVENT {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.parser.feed(&chunk[..n]);
                        pulled += n;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
            if eof {
                conn.saw_eof = true;
            }
            if pulled > 0 && conn.read_started.is_none() {
                // First byte of a (potential) request: the read phase
                // starts here and ends when the request parses.
                conn.read_started = Some(Instant::now());
            }
        }
        self.advance_requests(tok);
        if eof {
            if let Some(conn) = self.conns.get_mut(tok) {
                // Still reading after EOF means no more requests can
                // arrive: mid-request it is a truncated upload, idle it
                // is a clean hang-up — close either way. A connection
                // that moved to Writing/AwaitingJob half-closed its
                // send side and still wants its response.
                if conn.state == ConnState::Reading {
                    self.close(tok);
                }
            }
        }
    }

    /// Drives the parser while the connection is in `Reading`:
    /// dispatches completed requests, emits interim `100 Continue`s,
    /// turns parse errors into error responses + linger.
    fn advance_requests(&mut self, tok: u64) {
        loop {
            let advanced = {
                let Some(conn) = self.conns.get_mut(tok) else {
                    return;
                };
                if conn.state != ConnState::Reading {
                    return;
                }
                conn.parser.advance()
            };
            match advanced {
                Ok(Parsed::Incomplete) => {
                    self.rearm_read(tok);
                    return;
                }
                Ok(Parsed::Continue) => {
                    let write_deadline = self.write_deadline;
                    let Some(conn) = self.conns.get_mut(tok) else {
                        return;
                    };
                    conn.out.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                    conn.state = ConnState::Writing;
                    conn.after_write = AfterWrite::Resume;
                    conn.deadline = Some((DeadlineKind::Write, Instant::now() + write_deadline));
                    self.conn_writable(tok);
                    // If the interim flushed, state is Reading again and
                    // the loop proceeds into the body; otherwise the
                    // writable path resumes parsing later.
                }
                Ok(Parsed::Request(request)) => {
                    let (peer, served, mut trace) = {
                        let Some(conn) = self.conns.get_mut(tok) else {
                            return;
                        };
                        conn.served += 1;
                        (conn.peer, conn.served, conn.open_trace(Some(&request)))
                    };
                    let keep = request.wants_keep_alive() && served < self.max_requests;
                    let outcome = dispatch(
                        &self.service,
                        &request,
                        &mut AdmitCtx {
                            peer,
                            token: tok,
                            limiter: &mut self.limiter,
                            trace_id: &trace.record.id,
                            notes: &mut trace.record.notes,
                        },
                    );
                    let Some(conn) = self.conns.get_mut(tok) else {
                        return;
                    };
                    // Install the trace first, so the response stamps its
                    // status and the start of its write phase.
                    conn.trace = Some(trace);
                    match outcome {
                        Outcome::Respond(response) => {
                            self.respond(tok, response, keep);
                            // Loop: if the write completed and the
                            // connection is back to Reading, pipelined
                            // bytes may hold the next request.
                        }
                        Outcome::Queued => {
                            conn.state = ConnState::AwaitingJob;
                            conn.keep_after_job = keep;
                            conn.deadline = None;
                            return;
                        }
                    }
                }
                Err(error) => {
                    let write_deadline = self.write_deadline;
                    match error.response() {
                        Some(response) => {
                            // Traced like every final response, then the
                            // linger drain instead of keep-alive.
                            if let Some(conn) = self.conns.get_mut(tok) {
                                let trace = conn.open_trace(None);
                                let response =
                                    response.with_header("X-Request-Id", trace.record.id.clone());
                                conn.trace = Some(trace);
                                conn.queue_response(&response, AfterWrite::Linger, write_deadline);
                            }
                            self.conn_writable(tok);
                        }
                        None => self.close(tok),
                    }
                    return;
                }
            }
        }
    }

    /// Flushes `out` until the socket pushes back; on completion,
    /// transitions per `after_write`. Each successful `write` resets
    /// the (progress-based) write deadline.
    fn conn_writable(&mut self, tok: u64) {
        let write_deadline = self.write_deadline;
        loop {
            let Some(conn) = self.conns.get_mut(tok) else {
                return;
            };
            if conn.state != ConnState::Writing {
                return;
            }
            if conn.out_pos >= conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
                let after = conn.after_write;
                // A stamped trace (final response queued) is complete
                // once its bytes are flushed; an interim 100 Continue
                // leaves status at 0 and the trace in place.
                let finished = if conn.trace.as_ref().is_some_and(|t| t.record.status != 0) {
                    conn.trace.take()
                } else {
                    None
                };
                if let Some(trace) = finished {
                    self.finish_trace(trace);
                }
                let Some(conn) = self.conns.get_mut(tok) else {
                    return;
                };
                match after {
                    AfterWrite::Resume => {
                        if conn.saw_eof {
                            self.close(tok);
                        } else {
                            conn.state = ConnState::Reading;
                            self.rearm_read(tok);
                        }
                        return;
                    }
                    AfterWrite::Close => {
                        // A hard close while the client is pipelining one
                        // more request would turn into a RST that can
                        // destroy this response before the client reads
                        // it. Send our FIN first, then drain (and
                        // discard) whatever the peer still sends until
                        // its FIN — bounded by the linger budget below.
                        let _ = conn.stream.shutdown(net::Shutdown::Write);
                        self.enter_linger(tok);
                        return;
                    }
                    AfterWrite::Linger => {
                        self.enter_linger(tok);
                        return;
                    }
                }
            }
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close(tok);
                    return;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    conn.deadline = Some((DeadlineKind::Write, Instant::now() + write_deadline));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(tok);
                    return;
                }
            }
        }
    }

    /// Switches a flushed connection into the bounded read-and-discard
    /// drain and processes anything already buffered.
    fn enter_linger(&mut self, tok: u64) {
        let Some(conn) = self.conns.get_mut(tok) else {
            return;
        };
        conn.state = ConnState::Linger;
        conn.linger_budget = LINGER_BYTE_CAP;
        conn.deadline = Some((DeadlineKind::Linger, Instant::now() + LINGER_TIMEOUT));
        self.conn_lingering(tok);
    }

    /// Discards the client's remaining bytes (a rejected upload, or
    /// requests pipelined past a close), bounded by bytes and (via the
    /// deadline) time.
    fn conn_lingering(&mut self, tok: u64) {
        let Some(conn) = self.conns.get_mut(tok) else {
            return;
        };
        let mut sink = [0u8; READ_CHUNK];
        loop {
            if conn.linger_budget == 0 {
                self.close(tok);
                return;
            }
            match conn.stream.read(&mut sink) {
                Ok(0) => {
                    self.close(tok);
                    return;
                }
                Ok(n) => conn.linger_budget = conn.linger_budget.saturating_sub(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(tok);
                    return;
                }
            }
        }
    }

    /// Re-arms the reading-state deadline: an absolute per-request
    /// budget once the parser is mid-request (kept, not reset, across
    /// events — the slowloris guard), the idle timeout otherwise.
    fn rearm_read(&mut self, tok: u64) {
        let read_deadline = self.read_deadline;
        let idle_timeout = self.idle_timeout;
        let Some(conn) = self.conns.get_mut(tok) else {
            return;
        };
        if conn.parser.is_mid_request() {
            if !matches!(conn.deadline, Some((DeadlineKind::Read, _))) {
                conn.deadline = Some((DeadlineKind::Read, Instant::now() + read_deadline));
            }
        } else {
            conn.deadline = Some((DeadlineKind::Idle, Instant::now() + idle_timeout));
        }
    }

    fn reap_deadlines(&mut self) {
        let now = Instant::now();
        for tok in self.conns.tokens() {
            let Some(conn) = self.conns.get_mut(tok) else {
                continue;
            };
            let Some((kind, at)) = conn.deadline else {
                continue;
            };
            if now < at {
                continue;
            }
            match kind {
                DeadlineKind::Read => self.service.metrics.add(Counter::ReapedReadDeadline, 1),
                DeadlineKind::Write => self.service.metrics.add(Counter::ReapedWriteDeadline, 1),
                DeadlineKind::Idle => self.service.metrics.add(Counter::ReapedIdle, 1),
                DeadlineKind::Linger => {} // already served its response
            }
            self.close(tok);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if self.draining() {
                        continue; // drop: shutdown has begun
                    }
                    if self.conns.len() >= self.max_connections {
                        // No slot to park the request in, so this is the
                        // one rejection that cannot be priced: a canned
                        // 503. The single small write fits a fresh
                        // socket buffer, so best-effort is reliable.
                        self.service.metrics.add(Counter::ShedTableFull, 1);
                        let _ = stream.set_nonblocking(true);
                        let _ = (&stream).write(&self.table_full);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let tok = self.conns.insert(Conn::new(
                        stream,
                        peer.ip(),
                        self.max_body,
                        self.idle_timeout,
                    ));
                    let _ = tok;
                    self.sync_open_gauge();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Seals a completed request trace: appends the write phase, stamps
    /// its completion time, records it against the slow-request log, and
    /// retains it in the debug ring.
    fn finish_trace(&self, trace: ActiveTrace) {
        let mut record = trace.record;
        record
            .notes
            .phases
            .push(("write", elapsed_ns(trace.write_started)));
        record.unix_ms = unix_ms_now();
        record.total_ns = elapsed_ns(trace.started);
        self.service.slow_log.record(&record);
        self.service.traces.push(record);
    }

    fn close(&mut self, tok: u64) {
        if self.conns.remove(tok).is_some() {
            self.sync_open_gauge();
        }
    }

    fn sync_open_gauge(&self) {
        self.service
            .open_connections
            .store(self.conns.len(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_conn() -> Conn {
        // A socket pair just to have a stream; never used.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        Conn::new(
            stream,
            IpAddr::V4(Ipv4Addr::LOCALHOST),
            1024,
            Duration::from_secs(5),
        )
    }

    #[test]
    fn slab_tokens_are_generation_stamped() {
        let mut slab = Slab::new();
        let a = slab.insert(dummy_conn());
        let b = slab.insert(dummy_conn());
        assert_eq!(slab.len(), 2);
        assert!(slab.get_mut(a).is_some());
        assert!(slab.remove(a).is_some());
        assert_eq!(slab.len(), 1);
        // The stale token no longer resolves…
        assert!(slab.get_mut(a).is_none());
        assert!(slab.remove(a).is_none());
        // …even after the slot is reused.
        let c = slab.insert(dummy_conn());
        assert_eq!(split(c).0, split(a).0, "slot is recycled");
        assert_ne!(c, a, "generation differs");
        assert!(slab.get_mut(a).is_none());
        assert!(slab.get_mut(c).is_some());
        assert!(slab.get_mut(b).is_some());
    }

    #[test]
    fn token_roundtrip() {
        for (idx, gen) in [(0usize, 0u32), (17, 3), (u32::MAX as usize, u32::MAX)] {
            assert_eq!(split(token(idx, gen)), (idx, gen));
        }
    }
}
