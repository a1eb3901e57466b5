//! The front end: `threads` event loops, each a `poll(2)` thread that
//! owns a share of the connections and runs their requests inline.
//!
//! Loop 0 owns the listener and places each accepted socket on the
//! loop with the fewest open connections (a message on that loop's
//! `LoopHandle`). From then on that loop alone reads, incrementally
//! parses (via the shared [`http::RequestParser`]), routes
//! ([`handlers::route`]) and writes that connection's exchanges, on
//! readiness events. Ten thousand idle
//! keep-alive connections therefore cost ten thousand poller
//! registrations — not ten thousand threads — and no request crosses a
//! thread on its way to a handler.
//!
//! **Trade-off.** A slow handler delays the other connections on its
//! loop. With at most `threads` busy connections, each sits on its own
//! loop, which is what a pool of `threads` workers would give. Bounding
//! handler time itself is the executor's job, not the front end's.
//!
//! **Serial per-connection processing.** While a response is being
//! written the connection's read interest is off: pipelined bytes just
//! sit in the kernel buffer (and then in the connection's read buffer),
//! which is exactly the backpressure HTTP/1.1 pipelining wants.
//! Leftover buffered bytes are re-parsed the moment the previous
//! response finishes, so a burst of N pipelined requests in one segment
//! yields N in-order responses on one connection.
//!
//! **Streaming on a lent socket.** A [`Reply::Streaming`] body cannot
//! run on the loop thread: it blocks on extraction work for as long as
//! the client takes to read it. For the length of the reply the loop
//! lends the connection's socket to a per-stream *streamer* thread: it
//! deregisters the connection and hands over a clone of the socket,
//! with any pending bytes and the response head. The streamer writes
//! the body straight to the blocking socket (through
//! [`http::ChunkedWriter`] for 1.1 peers), so the kernel send buffer is
//! the only buffer and a slow client blocks the producer. It then drops
//! its handle and sends the socket back; the loop re-registers it and
//! finishes the exchange as for a full reply.
//!
//! **Self-defence.** Connections that dribble a request head
//! ([slowloris]) are answered `408` at `header_timeout`; idle
//! keep-alive connections close at `idle_timeout`; clients that stop
//! draining a response are dropped at `write_stall_timeout`; and past
//! `max_conns` open connections across all loops, new arrivals are shed
//! with a best-effort `503` + `Connection: close` rather than accepted
//! into a state the server cannot serve.
//!
//! [slowloris]: https://en.wikipedia.org/wiki/Slowloris_(computer_security)

use crate::http::{self, Reply, Request, RequestParser, Response, StreamBody};
use crate::metrics::Endpoint;
use crate::{handlers, ServerConfig, ServiceState};
use retroweb_netpoll::{wake_pair, Event, Interest, Poller, Token, WakeReader, Waker};
use std::collections::VecDeque;
use std::io::{self, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// Connection slab slot `i` registers under `Token(i + CONN_BASE)`.
const CONN_BASE: usize = 2;

/// Most bytes read from one connection per readiness event; `poll` is
/// level-triggered, so a bigger payload just re-fires. Keeps one
/// fast-talking peer from starving the rest of the loop.
const READ_BUDGET: usize = 256 * 1024;
/// Read granularity within the budget.
const READ_CHUNK: usize = 16 * 1024;
/// Most connections accepted per listener readiness event, for the same
/// fairness reason as [`READ_BUDGET`].
const ACCEPT_BURST: usize = 64;

/// What another thread sends a loop.
enum LoopMsg {
    /// A socket the accepting loop placed on this loop.
    Adopt(TcpStream),
    /// A streamer thread is done with this connection's socket and has
    /// dropped its handle; `ok` says whether the whole reply left.
    Returned { token: Token, ok: bool },
}

/// A full response's wire bytes, or a streamed reply to run on a
/// streamer thread.
enum ReadyReply {
    Full { bytes: Vec<u8>, close: bool },
    Stream { streamer: Streamer, close: bool },
}

/// Cloneable channel into one loop: push a message, poke the waker so a
/// blocked `poll` returns.
#[derive(Clone)]
struct LoopHandle {
    queue: Arc<Mutex<VecDeque<LoopMsg>>>,
    waker: Waker,
    /// Connections placed on this loop and not yet released: what
    /// placement balances on, and what a draining loop waits out.
    open: Arc<AtomicUsize>,
}

impl LoopHandle {
    fn send(&self, msg: LoopMsg) {
        self.queue.lock().expect("loop queue poisoned").push_back(msg);
        self.waker.wake();
    }
}

/// Byte counter for the HTTP/1.0 EOF-delimited stream path (the 1.1
/// path gets its count from [`http::ChunkedWriter::finish`]).
struct CountBytes<W: Write> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for CountBytes<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.inner.write_all(data)?;
        self.bytes += data.len() as u64;
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

// ---- per-connection state --------------------------------------------------

/// Where a connection is in its request/response cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Accumulating request bytes (read interest on).
    Reading,
    /// The response is being written; reads are paused — that pause
    /// *is* the pipelining backpressure.
    Responding,
    /// The socket is lent to a streamer thread and deregistered; the
    /// loop touches neither until `LoopMsg::Returned`.
    Lent,
}

/// Which deadline is armed, so a stale `timed_out` event (state moved
/// on in the same event batch) is recognised and ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeadlineKind {
    None,
    /// Partial (or zeroth) request head outstanding → `408` on expiry.
    Header,
    /// Idle keep-alive → quiet close on expiry.
    Idle,
    /// Pending response bytes the peer is not draining → drop on expiry.
    WriteStall,
}

struct EConn {
    stream: TcpStream,
    token: Token,
    buf: Vec<u8>,
    parser: RequestParser,
    /// Pending wire bytes; `out_pos` is how far they have been written.
    out: Vec<u8>,
    out_pos: usize,
    phase: Phase,
    deadline: DeadlineKind,
    close_after_write: bool,
    peer_eof: bool,
    /// A request is being answered (for the active-requests gauge to
    /// balance even when the connection dies early).
    in_request: bool,
    /// Completed at least one exchange (fresh connections get the
    /// header deadline, veterans the idle deadline).
    served_any: bool,
}

impl EConn {
    /// Write pending output until it is gone (`Ok(true)`) or the socket
    /// would block (`Ok(false)`).
    fn write_out(&mut self) -> io::Result<bool> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(true)
    }
}

// ---- the loops -------------------------------------------------------------

/// The running loops. [`Loops::wake_all`] after raising the shutdown
/// flag makes each one drain; [`Loops::join`] waits for all of them.
pub(crate) struct Loops {
    threads: Vec<JoinHandle<()>>,
    wakers: Vec<Waker>,
}

impl Loops {
    pub(crate) fn wake_all(&self) {
        for waker in &self.wakers {
            waker.wake();
        }
    }

    pub(crate) fn join(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

struct EventLoop {
    /// The listener, on the accepting loop only.
    listener: Option<TcpListener>,
    /// Every loop's handle, in loop order; filled on the accepting loop
    /// only, which places connections through it.
    peers: Vec<LoopHandle>,
    /// Where the next placement starts looking, for round-robin ties.
    next_peer: usize,
    state: Arc<ServiceState>,
    handle: LoopHandle,
    wake_rx: WakeReader,
    poller: Poller,
    conns: Vec<Option<EConn>>,
    free: Vec<usize>,
    /// Slots freed mid-batch; merged into `free` only after the batch,
    /// so a stale event cannot land on a same-batch replacement.
    freed_this_batch: Vec<usize>,
    draining: bool,
    /// Pre-encoded `503` shed response.
    shed_bytes: Vec<u8>,
    max_conns: usize,
    header_timeout: Duration,
    idle_timeout: Duration,
    write_stall_timeout: Duration,
}

/// Spawn `config.threads` event loops; loop 0 owns `listener`.
pub(crate) fn spawn_loops(
    listener: TcpListener,
    state: Arc<ServiceState>,
    config: &ServerConfig,
) -> io::Result<Loops> {
    listener.set_nonblocking(true)?;
    let count = config.threads.max(1);
    let mut loops = (0..count)
        .map(|_| EventLoop::new(&state, config, count))
        .collect::<io::Result<Vec<_>>>()?;
    loops[0].poller.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
    loops[0].listener = Some(listener);
    loops[0].peers = loops.iter().map(|ev| ev.handle.clone()).collect();
    let wakers = loops.iter().map(|ev| ev.handle.waker.clone()).collect();
    let mut running = Loops { threads: Vec::with_capacity(count), wakers };
    for (i, mut ev) in loops.into_iter().enumerate() {
        let spawned =
            std::thread::Builder::new().name(format!("retroweb-loop-{i}")).spawn(move || ev.run());
        match spawned {
            Ok(thread) => running.threads.push(thread),
            Err(err) => {
                state.shutting_down.store(true, Ordering::SeqCst);
                running.wake_all();
                running.join();
                return Err(err);
            }
        }
    }
    Ok(running)
}

impl EventLoop {
    fn new(state: &Arc<ServiceState>, config: &ServerConfig, loops: usize) -> io::Result<Self> {
        let (waker, wake_rx) = wake_pair()?;
        let mut poller = Poller::new();
        poller.register(wake_rx.as_raw_fd(), WAKER, Interest::READABLE)?;
        let max_conns = config.max_conns.max(1);
        Ok(EventLoop {
            listener: None,
            peers: Vec::new(),
            next_peer: 0,
            state: Arc::clone(state),
            handle: LoopHandle {
                queue: Arc::new(Mutex::new(VecDeque::new())),
                waker,
                open: Arc::new(AtomicUsize::new(0)),
            },
            wake_rx,
            poller,
            // Placement spreads `max_conns` over the loops; reserve a
            // share up front so steady state never reallocates on the
            // hot path.
            conns: Vec::with_capacity((max_conns / loops + 1).min(16 * 1024)),
            free: Vec::new(),
            freed_this_batch: Vec::new(),
            draining: false,
            shed_bytes: http::encode_full_response(
                &Response::error(503, "connection limit reached").closed(),
            ),
            max_conns,
            header_timeout: config.header_timeout,
            idle_timeout: config.idle_timeout,
            write_stall_timeout: config.write_stall_timeout,
        })
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.state.shutting_down() && !self.draining {
                self.begin_drain();
            }
            if self.draining && self.handle.open.load(Ordering::SeqCst) == 0 {
                return;
            }
            if let Err(err) = self.poller.wait(&mut events, None) {
                // poll(2) failing outright is unrecoverable for the
                // whole loop; drain what we can and stop.
                eprintln!("retroweb-loop: poll failed: {err}");
                return;
            }
            for &ev in &events {
                match ev.token {
                    LISTENER => self.on_listener(),
                    WAKER => self.wake_rx.drain(),
                    token => self.on_conn_event(token, ev),
                }
            }
            self.drain_messages();
            // Only now may same-batch-freed slots be reused (stale
            // events for them have all been processed).
            self.free.append(&mut self.freed_this_batch);
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(LISTENER);
            drop(listener);
        }
        for slot in 0..self.conns.len() {
            let Some(conn) = &mut self.conns[slot] else { continue };
            match conn.phase {
                // Nothing in flight: close now. A half-read request is
                // abandoned — its response was never promised.
                Phase::Reading => self.close_conn(slot),
                // In-flight work completes, then the connection closes.
                Phase::Responding | Phase::Lent => conn.close_after_write = true,
            }
        }
    }

    // ---- accept ------------------------------------------------------------

    fn on_listener(&mut self) {
        for _ in 0..ACCEPT_BURST {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.state.metrics().open_connections() >= self.max_conns as u64 {
                        self.shed(stream);
                    } else {
                        self.place(stream);
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (ECONNABORTED etc): move on.
                Err(_) => return,
            }
        }
    }

    /// Best-effort `503` + close for an arrival past `max_conns`. One
    /// nonblocking write — if the socket buffer cannot take ~120 bytes
    /// the peer gets a bare RST/FIN, which is still "go away".
    fn shed(&mut self, mut stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = (&stream).write(&self.shed_bytes);
        // The client may already have written its request; dropping the
        // socket with those bytes unread turns the close into an RST
        // that can destroy the 503 in flight. Discard what is queued
        // (bounded) so the close is an orderly FIN.
        let mut scratch = [0u8; READ_CHUNK];
        let mut discarded = 0usize;
        while discarded < READ_BUDGET {
            match stream.read(&mut scratch) {
                Ok(0) | Err(_) => break,
                Ok(n) => discarded += n,
            }
        }
        self.state.metrics().add_shed();
    }

    /// Count an accepted connection against `max_conns` and hand it to
    /// the loop with the fewest open connections. Ties go round-robin:
    /// a loop's count lags its peers' closes, so clients that reconnect
    /// together would otherwise pile onto the first loop of a stale tie.
    fn place(&mut self, stream: TcpStream) {
        self.state.metrics().add_connection();
        self.state.metrics().conn_opened();
        let loops = self.peers.len();
        let target = (0..loops)
            .map(|i| (self.next_peer + i) % loops)
            .min_by_key(|&i| self.peers[i].open.load(Ordering::Relaxed))
            .expect("the accepting loop lists itself");
        self.next_peer = target + 1;
        let peer = &self.peers[target];
        peer.open.fetch_add(1, Ordering::SeqCst);
        if target == 0 {
            self.admit(stream);
        } else {
            peer.send(LoopMsg::Adopt(stream));
        }
    }

    /// Register a connection placed on this loop.
    fn admit(&mut self, stream: TcpStream) {
        let configured = stream.set_nodelay(true).and_then(|()| stream.set_nonblocking(true));
        if self.draining || configured.is_err() {
            self.disown();
            return;
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let token = Token(slot + CONN_BASE);
        if self.poller.register(stream.as_raw_fd(), token, Interest::READABLE).is_err() {
            self.free.push(slot);
            self.disown();
            return;
        }
        // A fresh connection owes us a request head: header deadline,
        // not the (longer) idle one, so slowloris herds die early.
        let _ = self.poller.set_deadline(token, Instant::now() + self.header_timeout);
        self.conns[slot] = Some(EConn {
            stream,
            token,
            buf: Vec::new(),
            parser: RequestParser::new(),
            out: Vec::new(),
            out_pos: 0,
            phase: Phase::Reading,
            deadline: DeadlineKind::Header,
            close_after_write: false,
            peer_eof: false,
            in_request: false,
            served_any: false,
        });
    }

    /// Undo a placement's counts: the connection is gone.
    fn disown(&self) {
        self.handle.open.fetch_sub(1, Ordering::SeqCst);
        self.state.metrics().conn_closed();
    }

    // ---- connection events -------------------------------------------------

    /// Whether the loop may act on this slot's connection: open, and
    /// its socket not lent to a streamer.
    fn owns(&self, slot: usize) -> bool {
        matches!(self.conns.get(slot), Some(Some(conn)) if conn.phase != Phase::Lent)
    }

    fn on_conn_event(&mut self, token: Token, event: Event) {
        let slot = token.0 - CONN_BASE;
        if !self.owns(slot) {
            return;
        }
        if event.timed_out {
            self.on_deadline(slot);
            return;
        }
        if event.error {
            self.close_conn(slot);
            return;
        }
        // Hangup still delivers buffered request bytes; fall through to
        // the read path, which observes EOF once the buffer is dry.
        if event.readable || event.hangup {
            self.on_readable(slot);
        }
        if event.writable && self.owns(slot) && self.flush_out(slot) {
            self.advance_parser(slot);
        }
    }

    fn on_deadline(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else { return };
        let kind = conn.deadline;
        conn.deadline = DeadlineKind::None;
        match kind {
            // Stale: the state advanced in the same event batch.
            DeadlineKind::None => {}
            DeadlineKind::Idle => self.close_conn(slot),
            DeadlineKind::Header => {
                self.state.metrics().add_timed_out();
                let resp = Response::error(408, "timed out waiting for request head").closed();
                self.queue_error_response(slot, &resp);
            }
            DeadlineKind::WriteStall => {
                self.state.metrics().add_timed_out();
                self.close_conn(slot);
            }
        }
    }

    fn on_readable(&mut self, slot: usize) {
        let (fatal, tighten) = {
            let conn = self.conns[slot].as_mut().expect("readable on a freed slot");
            if conn.phase != Phase::Reading {
                return;
            }
            let was_empty = conn.buf.is_empty();
            let mut fatal = false;
            let mut taken = 0;
            let mut chunk = [0u8; READ_CHUNK];
            while taken < READ_BUDGET {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.buf.extend_from_slice(&chunk[..n]);
                        taken += n;
                        // A short read drained the socket; skip the
                        // read that would only say so. `poll` is
                        // level-triggered, so later bytes re-fire.
                        if n < READ_CHUNK {
                            break;
                        }
                    }
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        fatal = true;
                        break;
                    }
                }
            }
            // First bytes of a new request on an idle connection tighten
            // the clock from idle to header — but never per-byte, which
            // is what would let a slowloris drip reset its own timer.
            let tighten = was_empty && !conn.buf.is_empty() && conn.deadline == DeadlineKind::Idle;
            (fatal, tighten)
        };
        if fatal {
            self.close_conn(slot);
            return;
        }
        if tighten {
            self.arm_deadline(slot, DeadlineKind::Header, self.header_timeout);
        }
        self.advance_parser(slot);
    }

    /// Run the shared incremental parser over whatever is buffered and
    /// answer every complete request in it, in order, until the buffer
    /// needs more bytes or a response cannot leave at once. Iterative,
    /// so a long pipelined burst costs no stack depth.
    fn advance_parser(&mut self, slot: usize) {
        loop {
            let conn = self.conns[slot].as_mut().expect("parse on a freed slot");
            debug_assert_eq!(conn.phase, Phase::Reading);
            let progress = conn.parser.advance(&mut conn.buf);
            if conn.parser.take_continue() {
                conn.out.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
            }
            match progress {
                http::ParseProgress::Complete(req) => {
                    if !self.dispatch(slot, req) {
                        return;
                    }
                }
                http::ParseProgress::Malformed(status, why) => {
                    let resp = Response::error(status, why).closed();
                    self.queue_error_response(slot, &resp);
                    return;
                }
                http::ParseProgress::NeedMore => {
                    if conn.peer_eof {
                        // Mid-request EOF is abandonment; between-request
                        // EOF is a clean close. Either way we are done.
                        self.close_conn(slot);
                        return;
                    }
                    if conn.deadline == DeadlineKind::None {
                        let partial = !conn.buf.is_empty() || conn.parser.mid_body();
                        if partial || !conn.served_any {
                            self.arm_deadline(slot, DeadlineKind::Header, self.header_timeout);
                        } else {
                            self.arm_deadline(slot, DeadlineKind::Idle, self.idle_timeout);
                        }
                    }
                    self.flush_out(slot);
                    return;
                }
            }
        }
    }

    /// Answer a complete request on this loop and start writing the
    /// reply, with reads paused (the pipelining backpressure point).
    /// Returns whether the exchange already finished and the connection
    /// is reading again.
    fn dispatch(&mut self, slot: usize, req: Request) -> bool {
        let conn = self.conns[slot].as_mut().expect("dispatch on a freed slot");
        conn.phase = Phase::Responding;
        conn.in_request = true;
        conn.deadline = DeadlineKind::None;
        let token = conn.token;
        let _ = self.poller.clear_deadline(token);
        self.state.metrics().request_started();
        let reply = respond(&self.state, req);
        let conn = self.conns[slot].as_mut().expect("dispatch on a freed slot");
        match reply {
            ReadyReply::Full { bytes, close } => {
                conn.out.extend_from_slice(&bytes);
                conn.close_after_write |= close;
                self.flush_out(slot)
            }
            ReadyReply::Stream { streamer, close } => {
                conn.close_after_write |= close;
                self.lend(slot, streamer);
                false
            }
        }
    }

    /// Hand the connection's socket to a streamer thread for the length
    /// of a streamed reply. Bytes still pending (a queued `100
    /// Continue`) go ahead of the response head. The socket stays
    /// deregistered until the streamer sends it back.
    fn lend(&mut self, slot: usize, mut streamer: Streamer) {
        let conn = self.conns[slot].as_mut().expect("lend on a freed slot");
        conn.phase = Phase::Lent;
        let token = conn.token;
        streamer.head.splice(0..0, conn.out.drain(conn.out_pos..));
        conn.out.clear();
        conn.out_pos = 0;
        let socket = conn.stream.try_clone();
        let _ = self.poller.deregister(token);
        let state = Arc::clone(&self.state);
        let handle = self.handle.clone();
        let stall = self.write_stall_timeout;
        let spawned = socket.and_then(|socket| {
            std::thread::Builder::new().name("retroweb-streamer".to_string()).spawn(move || {
                let ok = streamer.run(socket, stall, &state);
                handle.send(LoopMsg::Returned { token, ok });
            })
        });
        if let Err(err) = spawned {
            // No thread, no body: closing shows the client a truncated
            // reply.
            eprintln!("retroweb-loop: streamer spawn failed: {err}");
            self.close_conn(slot);
        }
    }

    /// Queue a loop-generated error response (`408`, `431`, `400`…) and
    /// stop reading; the connection closes once it is written.
    fn queue_error_response(&mut self, slot: usize, resp: &Response) {
        let conn = self.conns[slot].as_mut().expect("error response on a freed slot");
        // Discard input already queued in the kernel (bounded): closing
        // with unread bytes makes the kernel send RST, which can destroy
        // the error response before the client reads it. An oversized
        // head (431) is exactly the case where the client outran us.
        conn.buf.clear();
        let mut scratch = [0u8; READ_CHUNK];
        let mut discarded = 0usize;
        while discarded < 4 * READ_BUDGET {
            match conn.stream.read(&mut scratch) {
                Ok(0) | Err(_) => break,
                Ok(n) => discarded += n,
            }
        }
        conn.out.extend_from_slice(&http::encode_full_response(resp));
        conn.close_after_write = true;
        conn.phase = Phase::Responding;
        self.flush_out(slot);
    }

    // ---- writing -----------------------------------------------------------

    /// Write as much pending output as the socket takes, and finish the
    /// exchange when nothing is left. Safe to call whenever `out` gains
    /// bytes: it tries immediately and falls back to write interest.
    /// Returns whether an exchange finished with the connection reading
    /// again — the caller then parses any pipelined leftovers.
    fn flush_out(&mut self, slot: usize) -> bool {
        let conn = self.conns[slot].as_mut().expect("flush on a freed slot");
        match conn.write_out() {
            Err(_) => {
                self.close_conn(slot);
                false
            }
            // Peer not draining: (re-)arm the stall clock — a writable
            // event between stalls means progress was made, so
            // steady-but-slow clients keep living.
            Ok(false) => {
                self.arm_deadline(slot, DeadlineKind::WriteStall, self.write_stall_timeout);
                self.update_interest(slot);
                false
            }
            Ok(true) => {
                let responding = conn.phase == Phase::Responding;
                self.clear_stall_deadline(slot);
                if responding {
                    self.finish_exchange(slot)
                } else {
                    // Interim bytes (`100 Continue`) drained.
                    self.update_interest(slot);
                    false
                }
            }
        }
    }

    fn clear_stall_deadline(&mut self, slot: usize) {
        let conn = self.conns[slot].as_mut().expect("deadline on a freed slot");
        if conn.deadline == DeadlineKind::WriteStall {
            conn.deadline = DeadlineKind::None;
            let token = conn.token;
            let _ = self.poller.clear_deadline(token);
        }
    }

    /// A final response has fully left the socket: count it, then close
    /// if asked, otherwise return to reading. Returns whether the
    /// connection is reading again.
    fn finish_exchange(&mut self, slot: usize) -> bool {
        let conn = self.conns[slot].as_mut().expect("finish on a freed slot");
        debug_assert_eq!(conn.phase, Phase::Responding);
        if conn.in_request {
            conn.in_request = false;
            self.state.metrics().request_finished();
        }
        if conn.close_after_write || self.draining {
            self.close_conn(slot);
            return false;
        }
        conn.served_any = true;
        conn.phase = Phase::Reading;
        if !conn.buf.is_empty() {
            self.state.metrics().add_pipelined();
        }
        self.update_interest(slot);
        true
    }

    // ---- messages ----------------------------------------------------------

    fn drain_messages(&mut self) {
        loop {
            let msg = self.handle.queue.lock().expect("loop queue poisoned").pop_front();
            match msg {
                None => return,
                Some(LoopMsg::Adopt(stream)) => self.admit(stream),
                Some(LoopMsg::Returned { token, ok }) => self.on_returned(token, ok),
            }
        }
    }

    /// Take back a lent socket: restore nonblocking, re-register, and
    /// finish the exchange as for a full reply. A failed or stalled
    /// stream closes the connection — without the terminal chunk, the
    /// client sees the reply was truncated.
    fn on_returned(&mut self, token: Token, ok: bool) {
        let slot = token.0 - CONN_BASE;
        let conn = self.conns[slot].as_mut().expect("a lent connection keeps its slot");
        debug_assert_eq!(conn.phase, Phase::Lent);
        conn.phase = Phase::Responding;
        let back = ok
            && conn.stream.set_nonblocking(true).is_ok()
            && self.poller.register(conn.stream.as_raw_fd(), token, Interest::NONE).is_ok();
        if !back {
            self.close_conn(slot);
        } else if self.finish_exchange(slot) {
            self.advance_parser(slot);
        }
    }

    // ---- teardown ----------------------------------------------------------

    /// Close a connection now and release its slot (reused only after
    /// this event batch).
    fn close_conn(&mut self, slot: usize) {
        let conn = self.conns[slot].take().expect("close on a freed slot");
        if conn.in_request {
            self.state.metrics().request_finished();
        }
        let _ = self.poller.deregister(conn.token);
        self.freed_this_batch.push(slot);
        self.disown();
    }

    // ---- plumbing ----------------------------------------------------------

    fn arm_deadline(&mut self, slot: usize, kind: DeadlineKind, after: Duration) {
        let conn = self.conns[slot].as_mut().expect("deadline on a freed slot");
        conn.deadline = kind;
        let token = conn.token;
        let _ = self.poller.set_deadline(token, Instant::now() + after);
    }

    /// Recompute poll interest from connection state: reads only while
    /// `Reading`, writes only while output is pending. A registration
    /// with no interest still reports hangups, so a parked connection's
    /// death is noticed.
    fn update_interest(&mut self, slot: usize) {
        let conn = self.conns[slot].as_ref().expect("interest on a freed slot");
        let mut interest = Interest::NONE;
        if conn.phase == Phase::Reading && !conn.peer_eof {
            interest = interest.with(Interest::READABLE);
        }
        if conn.out_pos < conn.out.len() {
            interest = interest.with(Interest::WRITABLE);
        }
        let token = conn.token;
        let _ = self.poller.set_interest(token, interest);
    }
}

// ---- request processing ----------------------------------------------------

/// Route one request on the loop thread and encode the response, or
/// prepare a streamed one. A panicking handler costs its request a
/// `500`, not the loop.
fn respond(state: &Arc<ServiceState>, req: Request) -> ReadyReply {
    let started = Instant::now();
    state.metrics().handler_entered();
    let routed =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handlers::route(state, &req)));
    state.metrics().handler_left();
    let (endpoint, reply) = routed.unwrap_or_else(|_| {
        (Endpoint::Other, Response::error(500, "internal error in request handler").closed().into())
    });
    match reply {
        Reply::Full(mut resp) => {
            state.metrics().observe(endpoint, resp.status, started.elapsed());
            if req.wants_close() || state.shutting_down() {
                resp.close = true;
            }
            ReadyReply::Full { bytes: http::encode_full_response(&resp), close: resp.close }
        }
        Reply::Streaming(resp) => {
            // Chunked framing needs an HTTP/1.1 peer; a 1.0 client gets
            // the stream EOF-delimited, which forces close.
            let chunked = !req.http10;
            let close = !chunked || req.wants_close() || state.shutting_down();
            let head = http::encode_streaming_head(
                resp.status,
                resp.content_type,
                &resp.headers,
                chunked,
                close,
            );
            let streamer =
                Streamer { head, body: resp.body, chunked, endpoint, status: resp.status, started };
            ReadyReply::Stream { streamer, close }
        }
    }
}

/// A streamed reply, run on its own thread over a lent socket.
struct Streamer {
    /// Wire bytes owed ahead of the body: the response head, after any
    /// pending interim bytes.
    head: Vec<u8>,
    body: StreamBody,
    chunked: bool,
    endpoint: Endpoint,
    status: u16,
    started: Instant,
}

impl Streamer {
    /// Write the head and body to the socket, blocking, and report
    /// whether the whole reply left. A client that takes nothing for
    /// `stall` fails the write and counts as timed out. Latency is
    /// measured to the end of the body: the handler's work happens
    /// while streaming. A panicking body fails the stream like a
    /// failed write, so the loop still gets the socket back and closes
    /// it. Consumes (and so drops) the socket handle.
    fn run(self, socket: TcpStream, stall: Duration, state: &ServiceState) -> bool {
        let Streamer { head, body, chunked, endpoint, status, started } = self;
        let write = || {
            socket
                .set_nonblocking(false)
                .and_then(|()| socket.set_write_timeout(Some(stall)))
                .and_then(|()| (&socket).write_all(&head))
                .and_then(|()| {
                    if chunked {
                        let mut sink = http::ChunkedWriter::new(&socket);
                        body(&mut sink).and_then(|()| sink.finish())
                    } else {
                        // The sinks write in small pieces; batch them
                        // into chunk-sized socket writes.
                        let buffered = BufWriter::with_capacity(http::CHUNK_FLUSH_BYTES, &socket);
                        let mut sink = CountBytes { inner: buffered, bytes: 0 };
                        let written =
                            body(&mut sink).and_then(|()| sink.flush()).map(|()| sink.bytes);
                        // Dropping a `BufWriter` retries its buffer,
                        // which would stall a failed stream a second
                        // time.
                        let _ = sink.inner.into_parts();
                        written
                    }
                })
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(write))
            .unwrap_or_else(|_| Err(io::Error::other("streamed body panicked")));
        match result.as_ref().map_err(io::Error::kind) {
            Ok(&bytes) => state.metrics().add_bytes_streamed(bytes),
            // The write timeout: the client took nothing for `stall`.
            Err(io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                state.metrics().add_timed_out()
            }
            Err(_) => {}
        }
        state.metrics().observe(endpoint, status, started.elapsed());
        result.is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retrozilla::{DurableRepository, ShardedRepository};
    use std::sync::atomic::AtomicBool;

    fn state() -> ServiceState {
        ServiceState {
            durable: DurableRepository::ephemeral(Arc::new(ShardedRepository::new(1))),
            metrics: crate::Metrics::new(),
            strict_lint: false,
            shutting_down: AtomicBool::new(false),
            threads: 1,
        }
    }

    /// A streamed body that panics after its first bytes fails the
    /// stream: `run` returns `false` instead of unwinding the streamer
    /// thread (which would leave the connection lent for good), and the
    /// peer reads EOF after a truncated reply, with no terminal chunk.
    #[test]
    fn panicking_stream_body_fails_the_stream_and_closes_the_socket() {
        for chunked in [true, false] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let head = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
            let streamer = Streamer {
                head: head.clone(),
                body: Box::new(|out: &mut dyn Write| {
                    out.write_all(b"first page")?;
                    out.flush()?;
                    panic!("sink failed mid-batch");
                }),
                chunked,
                endpoint: Endpoint::Other,
                status: 200,
                started: Instant::now(),
            };
            let state = state();
            let ok =
                std::thread::spawn(move || streamer.run(server, Duration::from_secs(5), &state))
                    .join()
                    .expect("the panic stays inside `Streamer::run`");
            assert!(!ok, "chunked={chunked}: a panicking body must fail the stream");
            let mut received = Vec::new();
            client.read_to_end(&mut received).expect("the peer reads EOF, not a timeout");
            assert!(received.starts_with(&head), "chunked={chunked}: {received:?}");
            assert!(!received.ends_with(b"0\r\n\r\n"), "chunked={chunked}: {received:?}");
        }
    }
}
