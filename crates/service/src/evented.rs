//! Evented front end: one `poll(2)` loop thread owns every socket.
//!
//! The worker-pool front end spends a thread per *connection*; this one
//! spends a thread per *ready request*. The loop accepts, reads and
//! incrementally parses on readiness events (via the shared
//! [`http::RequestParser`], so framing behaviour is identical to the
//! blocking path), hands each complete [`Request`] to the existing
//! bounded worker pool, and writes the encoded response back on
//! write-readiness. Ten thousand idle keep-alive connections therefore
//! cost ten thousand poller registrations — not ten thousand worker
//! threads.
//!
//! **Serial per-connection processing.** While a request is with a
//! worker the connection's read interest is off: pipelined bytes just
//! sit in the kernel buffer (and then in the connection's read buffer),
//! which is exactly the backpressure HTTP/1.1 pipelining wants.
//! Leftover buffered bytes are re-parsed the moment the previous
//! response finishes, so a burst of N pipelined requests in one segment
//! yields N in-order responses on one connection.
//!
//! **Streaming with a bounded in-flight budget.** A
//! [`Reply::Streaming`] body cannot run on the loop thread (it blocks
//! on extraction work) nor hold a worker hostage to a slow client. The
//! worker instead spawns a per-stream *streamer* thread that drives the
//! producer into a `BodyPipe` — a condvar-bounded byte buffer — while
//! the loop drains pipe bytes to the socket on write-readiness. The
//! producer writes through the same [`http::ChunkedWriter`] the
//! blocking path uses, so the framed wire bytes are identical; when the
//! client reads slowly the pipe fills and the *producer* blocks
//! (bounded memory), and when the connection dies the pipe aborts and
//! the producer sees an error instead of streaming into the void.
//!
//! **Self-defence.** Connections that dribble a request head
//! ([slowloris]) are answered `408` at `header_timeout`; idle
//! keep-alive connections close at `idle_timeout`; clients that stop
//! draining a response are dropped at `write_stall_timeout`; and past
//! `max_conns` open connections, new arrivals are shed with a
//! best-effort `503` + `Connection: close` rather than accepted into a
//! state the loop cannot serve.
//!
//! [slowloris]: https://en.wikipedia.org/wiki/Slowloris_(computer_security)

use crate::http::{self, Reply, Request, RequestParser, Response};
use crate::pipe::BodyPipe;
use crate::pool::ThreadPool;
use crate::{handlers, ServerConfig, ServiceState};
use retroweb_netpoll::{wake_pair, Event, Interest, Poller, Token, WakeReader, Waker};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
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

/// What a worker (or streamer) sends back to the loop.
enum LoopMsg {
    /// The routed response for the request dispatched from this token:
    /// pre-encoded wire bytes, or a streaming head plus its pipe.
    Reply(Token, ReadyReply),
    /// The streaming pipe for this token has new bytes or finished.
    Stream(Token),
}

enum ReadyReply {
    Full { bytes: Vec<u8>, close: bool },
    Stream { head: Vec<u8>, pipe: Arc<BodyPipe>, close: bool },
}

/// Cloneable channel back into the loop: push a message, poke the
/// waker so a blocked `poll` returns.
#[derive(Clone)]
struct LoopHandle {
    queue: Arc<Mutex<VecDeque<LoopMsg>>>,
    waker: Waker,
}

impl LoopHandle {
    fn send(&self, msg: LoopMsg) {
        self.queue.lock().expect("loop queue poisoned").push_back(msg);
        self.waker.wake();
    }
}

/// `Write` adapter a streamer thread hands to the body producer (via
/// [`http::ChunkedWriter`] for 1.1 peers): pushes into the pipe and
/// pokes the loop on the first bytes after each drain.
struct PipeWriter {
    pipe: Arc<BodyPipe>,
    handle: LoopHandle,
    token: Token,
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.pipe.push(data)? {
            self.handle.send(LoopMsg::Stream(self.token));
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Byte counter for the HTTP/1.0 EOF-delimited stream path (the 1.1
/// path gets its count from `ChunkedWriter::finish`).
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
    /// A complete request is with the worker pool; reads are paused —
    /// that pause *is* the pipelining backpressure.
    Dispatched,
    /// The final response (or stream) is being written.
    Responding,
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
    stream_src: Option<Arc<BodyPipe>>,
    phase: Phase,
    deadline: DeadlineKind,
    close_after_write: bool,
    peer_eof: bool,
    /// A request was dispatched and not yet finished (for the active-
    /// requests gauge to balance even when the connection dies early).
    in_request: bool,
    /// Completed at least one exchange (fresh connections get the
    /// header deadline, veterans the idle deadline).
    served_any: bool,
    /// Closed while a worker reply was still in flight: the slot (and
    /// token) stay reserved until the reply arrives, so a reused token
    /// can never receive another connection's response.
    dead: bool,
}

// ---- the loop --------------------------------------------------------------

struct EventLoop {
    listener: Option<TcpListener>,
    state: Arc<ServiceState>,
    pool: Arc<ThreadPool>,
    handle: LoopHandle,
    wake_rx: WakeReader,
    poller: Poller,
    conns: Vec<Option<EConn>>,
    free: Vec<usize>,
    /// Slots freed mid-batch; merged into `free` only after the batch,
    /// so a stale event cannot land on a same-batch replacement.
    freed_this_batch: Vec<usize>,
    /// Occupied slots, tombstones included.
    open: usize,
    draining: bool,
    /// Pre-encoded `503` shed response.
    shed_bytes: Vec<u8>,
    header_timeout: Duration,
    idle_timeout: Duration,
    write_stall_timeout: Duration,
    stream_budget: usize,
}

/// Spawn the evented front-end thread. Returned handle joins once the
/// loop has drained (on shutdown) and the worker pool is down.
pub(crate) fn spawn_loop(
    listener: TcpListener,
    state: Arc<ServiceState>,
    pool: Arc<ThreadPool>,
    config: &ServerConfig,
) -> io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let (waker, wake_rx) = wake_pair()?;
    let handle = LoopHandle { queue: Arc::new(Mutex::new(VecDeque::new())), waker };
    let mut poller = Poller::new();
    poller.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
    poller.register(wake_rx.as_raw_fd(), WAKER, Interest::READABLE)?;
    let max_conns = config.max_conns.max(1);
    let mut ev = EventLoop {
        listener: Some(listener),
        state,
        pool,
        handle,
        wake_rx,
        poller,
        conns: Vec::new(),
        free: Vec::new(),
        freed_this_batch: Vec::new(),
        open: 0,
        draining: false,
        shed_bytes: http::encode_full_response(
            &Response::error(503, "connection limit reached").closed(),
        ),
        header_timeout: config.header_timeout,
        idle_timeout: config.idle_timeout,
        write_stall_timeout: config.write_stall_timeout,
        stream_budget: config.stream_budget,
    };
    // `max_conns` caps the slab; reserve up front so steady state never
    // reallocates on the hot path.
    ev.conns.reserve(max_conns.min(16 * 1024));
    std::thread::Builder::new().name("retroweb-evented".to_string()).spawn(move || {
        ev.run(max_conns);
        ev.pool.shutdown();
    })
}

impl EventLoop {
    fn run(&mut self, max_conns: usize) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.state.shutting_down() && !self.draining {
                self.begin_drain();
            }
            if self.draining && self.open == 0 {
                return;
            }
            if let Err(err) = self.poller.wait(&mut events, None) {
                // poll(2) failing outright is unrecoverable for the
                // whole loop; drain what we can and stop.
                eprintln!("retroweb-evented: poll failed: {err}");
                return;
            }
            for &ev in &events {
                match ev.token {
                    LISTENER => self.on_listener(max_conns),
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
            if conn.dead {
                continue;
            }
            match conn.phase {
                // Nothing in flight: close now. A half-read request is
                // abandoned — its response was never promised.
                Phase::Reading => self.close_conn(slot),
                // In-flight work completes, then the connection closes.
                Phase::Dispatched | Phase::Responding => conn.close_after_write = true,
            }
        }
    }

    // ---- accept ------------------------------------------------------------

    fn on_listener(&mut self, max_conns: usize) {
        for _ in 0..ACCEPT_BURST {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.draining {
                        continue;
                    }
                    if self.open >= max_conns {
                        self.shed(stream);
                        continue;
                    }
                    self.admit(stream);
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

    fn admit(&mut self, stream: TcpStream) {
        if crate::http::configure_accepted(&stream, None).is_err() {
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
            stream_src: None,
            phase: Phase::Reading,
            deadline: DeadlineKind::Header,
            close_after_write: false,
            peer_eof: false,
            in_request: false,
            served_any: false,
            dead: false,
        });
        self.open += 1;
        self.state.metrics().add_connection();
        self.state.metrics().conn_opened();
    }

    // ---- connection events -------------------------------------------------

    fn on_conn_event(&mut self, token: Token, event: Event) {
        let slot = token.0 - CONN_BASE;
        let Some(Some(conn)) = self.conns.get(slot) else { return };
        if conn.dead {
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
        if let Some(Some(conn)) = self.conns.get(slot) {
            if !conn.dead && event.writable {
                self.on_writable(slot);
            }
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
    /// act on the outcome. Used from the read path and (for pipelined
    /// leftovers) from `finish_exchange`.
    fn advance_parser(&mut self, slot: usize) {
        let conn = self.conns[slot].as_mut().expect("parse on a freed slot");
        debug_assert_eq!(conn.phase, Phase::Reading);
        let progress = conn.parser.advance(&mut conn.buf);
        if conn.parser.take_continue() {
            conn.out.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
        }
        match progress {
            http::ParseProgress::Complete(req) => self.dispatch(slot, req),
            http::ParseProgress::Malformed(status, why) => {
                let resp = Response::error(status, why).closed();
                self.queue_error_response(slot, &resp);
            }
            http::ParseProgress::NeedMore => {
                let conn = self.conns[slot].as_mut().expect("parse on a freed slot");
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
            }
        }
    }

    /// Hand a complete request to the worker pool and pause reads (the
    /// pipelining backpressure point).
    fn dispatch(&mut self, slot: usize, req: Request) {
        let conn = self.conns[slot].as_mut().expect("dispatch on a freed slot");
        conn.phase = Phase::Dispatched;
        conn.in_request = true;
        conn.deadline = DeadlineKind::None;
        let token = conn.token;
        let _ = self.poller.clear_deadline(token);
        self.state.metrics().request_started();
        self.update_interest(slot);
        let state = Arc::clone(&self.state);
        let handle = self.handle.clone();
        let budget = self.stream_budget;
        let job = Box::new(move || process_request(&state, &handle, token, req, budget));
        if self.pool.submit(job).is_err() {
            // Pool already shutting down: no reply will ever come, so
            // leave `Dispatched` before closing or the slot would
            // tombstone forever waiting for one.
            let conn = self.conns[slot].as_mut().expect("dispatch on a freed slot");
            conn.phase = Phase::Reading;
            self.close_conn(slot);
        } else {
            self.flush_out(slot);
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

    fn on_writable(&mut self, slot: usize) {
        self.flush_out(slot);
    }

    /// Write as much pending output as the socket takes, pull more from
    /// an active stream when the queue drains, and finish the exchange
    /// when nothing is left. Safe to call whenever `out` gains bytes:
    /// it tries immediately and falls back to write interest.
    fn flush_out(&mut self, slot: usize) {
        enum Step {
            Fatal,
            Stalled,
            /// Pulled more stream bytes into `out`: write again.
            More,
            /// Stream producer still running, nothing buffered: wait
            /// for its next message (no poll interest needed).
            WaitProducer,
            StreamDone,
            StreamFailed,
            /// No stream; queue drained while a final response was out.
            ExchangeDone,
            /// No stream; interim bytes (`100 Continue`) drained.
            Interim,
        }
        loop {
            let step = {
                let conn = self.conns[slot].as_mut().expect("flush on a freed slot");
                let mut step = None;
                while conn.out_pos < conn.out.len() {
                    match conn.stream.write(&conn.out[conn.out_pos..]) {
                        Ok(0) => {
                            step = Some(Step::Fatal);
                            break;
                        }
                        Ok(n) => conn.out_pos += n,
                        Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                            step = Some(Step::Stalled);
                            break;
                        }
                        Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            step = Some(Step::Fatal);
                            break;
                        }
                    }
                }
                step.unwrap_or_else(|| {
                    conn.out.clear();
                    conn.out_pos = 0;
                    match &conn.stream_src {
                        Some(pipe) => {
                            let (bytes, done) = pipe.take();
                            if !bytes.is_empty() {
                                conn.out = bytes;
                                Step::More
                            } else {
                                match done {
                                    None => Step::WaitProducer,
                                    Some(Ok(_)) => {
                                        conn.stream_src = None;
                                        Step::StreamDone
                                    }
                                    Some(Err(())) => Step::StreamFailed,
                                }
                            }
                        }
                        None => match conn.phase {
                            Phase::Responding => Step::ExchangeDone,
                            Phase::Reading | Phase::Dispatched => Step::Interim,
                        },
                    }
                })
            };
            match step {
                Step::More => continue,
                // Peer not draining: (re-)arm the stall clock — a
                // writable event between stalls means progress was
                // made, so steady-but-slow clients keep living.
                Step::Stalled => {
                    self.arm_deadline(slot, DeadlineKind::WriteStall, self.write_stall_timeout);
                    self.update_interest(slot);
                    return;
                }
                Step::Fatal => {
                    self.close_conn(slot);
                    return;
                }
                Step::WaitProducer => {
                    self.clear_stall_deadline(slot);
                    self.update_interest(slot);
                    return;
                }
                Step::StreamDone => {
                    self.clear_stall_deadline(slot);
                    self.finish_exchange(slot);
                    return;
                }
                // Producer failed mid-body: the terminal chunk was never
                // written, so closing tells the client the stream is
                // truncated.
                Step::StreamFailed => {
                    self.close_conn(slot);
                    return;
                }
                Step::ExchangeDone => {
                    self.clear_stall_deadline(slot);
                    self.finish_exchange(slot);
                    return;
                }
                Step::Interim => {
                    self.clear_stall_deadline(slot);
                    self.update_interest(slot);
                    return;
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

    /// A final response has fully left the socket: count it, close if
    /// asked, otherwise return to reading — first re-parsing any
    /// pipelined leftovers already buffered.
    fn finish_exchange(&mut self, slot: usize) {
        let conn = self.conns[slot].as_mut().expect("finish on a freed slot");
        debug_assert_eq!(conn.phase, Phase::Responding);
        if conn.in_request {
            conn.in_request = false;
            self.state.metrics().request_finished();
        }
        if conn.close_after_write || self.draining {
            self.close_conn(slot);
            return;
        }
        conn.served_any = true;
        conn.phase = Phase::Reading;
        let pipelined = !conn.buf.is_empty();
        if pipelined {
            self.state.metrics().add_pipelined();
        }
        self.update_interest(slot);
        self.advance_parser(slot);
    }

    // ---- worker / streamer messages ----------------------------------------

    fn drain_messages(&mut self) {
        loop {
            let msg = self.handle.queue.lock().expect("loop queue poisoned").pop_front();
            let Some(msg) = msg else { return };
            match msg {
                LoopMsg::Reply(token, reply) => self.on_reply(token, reply),
                LoopMsg::Stream(token) => self.on_stream(token),
            }
        }
    }

    fn on_reply(&mut self, token: Token, reply: ReadyReply) {
        let slot = token.0 - CONN_BASE;
        let Some(Some(conn)) = self.conns.get_mut(slot) else { return };
        if conn.dead {
            // The connection died while the worker ran; the reserved
            // tombstone can finally be released. Abort a stream so its
            // producer unblocks and exits.
            if let ReadyReply::Stream { pipe, .. } = reply {
                pipe.abort();
            }
            self.release_slot(slot);
            return;
        }
        debug_assert_eq!(conn.phase, Phase::Dispatched);
        conn.phase = Phase::Responding;
        match reply {
            ReadyReply::Full { bytes, close } => {
                conn.out.extend_from_slice(&bytes);
                conn.close_after_write |= close;
            }
            ReadyReply::Stream { head, pipe, close } => {
                conn.out.extend_from_slice(&head);
                conn.close_after_write |= close;
                conn.stream_src = Some(pipe);
            }
        }
        self.flush_out(slot);
    }

    fn on_stream(&mut self, token: Token) {
        let slot = token.0 - CONN_BASE;
        let Some(Some(conn)) = self.conns.get_mut(slot) else { return };
        // Stale stream pokes (the connection moved on, or the slot was
        // reused) are benign: the pull below only touches the pipe this
        // connection currently owns, and only when its queue is empty.
        if conn.dead || conn.stream_src.is_none() {
            return;
        }
        if conn.out_pos >= conn.out.len() {
            self.flush_out(slot);
        }
    }

    // ---- teardown ----------------------------------------------------------

    /// Close a connection now. If a worker reply is still owed, the
    /// slot is tombstoned (reserved) until it arrives; otherwise it is
    /// released immediately (but reused only after this event batch).
    fn close_conn(&mut self, slot: usize) {
        let conn = self.conns[slot].as_mut().expect("close on a freed slot");
        if conn.dead {
            return;
        }
        if conn.in_request {
            conn.in_request = false;
            self.state.metrics().request_finished();
        }
        if let Some(pipe) = conn.stream_src.take() {
            pipe.abort();
        }
        let token = conn.token;
        let awaiting_reply = conn.phase == Phase::Dispatched;
        let _ = self.poller.deregister(token);
        self.state.metrics().conn_closed();
        if awaiting_reply {
            // Keep the slot: the worker's reply addresses this token
            // and must find a tombstone, not a new connection. The TCP
            // conversation ends now; only the bookkeeping stays.
            let conn = self.conns[slot].as_mut().expect("close on a freed slot");
            conn.dead = true;
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        } else {
            self.release_slot(slot);
        }
    }

    fn release_slot(&mut self, slot: usize) {
        self.conns[slot] = None;
        self.freed_this_batch.push(slot);
        self.open -= 1;
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

// ---- worker-side request processing ----------------------------------------

/// Runs on a worker thread: route the request, encode the response (or
/// set up the streaming pipe) and message the loop. Mirrors the
/// blocking front end's `serve_connection` body so both modes answer
/// byte-identically.
fn process_request(
    state: &Arc<ServiceState>,
    handle: &LoopHandle,
    token: Token,
    req: Request,
    stream_budget: usize,
) {
    let started = Instant::now();
    let (endpoint, reply) = handlers::route(state, &req);
    match reply {
        Reply::Full(mut resp) => {
            state.metrics().observe(endpoint, resp.status, started.elapsed());
            if req.wants_close() || state.shutting_down() {
                resp.close = true;
            }
            let close = resp.close;
            let bytes = http::encode_full_response(&resp);
            handle.send(LoopMsg::Reply(token, ReadyReply::Full { bytes, close }));
        }
        Reply::Streaming(resp) => {
            let chunked = !req.http10;
            let close = !chunked || req.wants_close() || state.shutting_down();
            let status = resp.status;
            let head = http::encode_streaming_head(
                status,
                resp.content_type,
                &resp.headers,
                chunked,
                close,
            );
            let pipe = Arc::new(BodyPipe::new(stream_budget));
            let writer = PipeWriter { pipe: Arc::clone(&pipe), handle: handle.clone(), token };
            handle.send(LoopMsg::Reply(
                token,
                ReadyReply::Stream { head, pipe: Arc::clone(&pipe), close },
            ));
            // The producer must not run on this worker (a slow client
            // would pin it — the exact disease this front end cures)
            // nor on the loop. A per-stream thread, bounded by the
            // pipe's budget, carries it instead.
            let state = Arc::clone(state);
            let body = resp.body;
            let thread_pipe = Arc::clone(&pipe);
            let thread_handle = handle.clone();
            let spawned = std::thread::Builder::new().name("retroweb-streamer".to_string()).spawn(
                move || {
                    let result = if chunked {
                        let mut sink = http::ChunkedWriter::new(writer);
                        match body(&mut sink).and_then(|()| sink.finish()) {
                            Ok(bytes) => Ok(bytes),
                            Err(_) => Err(()),
                        }
                    } else {
                        let mut sink = CountBytes { inner: writer, bytes: 0 };
                        match body(&mut sink) {
                            Ok(()) => Ok(sink.bytes),
                            Err(_) => Err(()),
                        }
                    };
                    if let Ok(bytes) = result {
                        state.metrics().add_bytes_streamed(bytes);
                    }
                    state.metrics().observe(endpoint, status, started.elapsed());
                    if thread_pipe.finish(result) {
                        thread_handle.send(LoopMsg::Stream(token));
                    }
                },
            );
            if let Err(err) = spawned {
                // No thread, no body: fail the stream so the loop
                // closes the connection (truncation is visible to the
                // client via the missing terminal chunk).
                eprintln!("retroweb-evented: streamer spawn failed: {err}");
                if pipe.finish(Err(())) {
                    handle.send(LoopMsg::Stream(token));
                }
            }
        }
    }
}

// The pipe's unit tests moved with it to `crate::pipe` (and gained a
// model-checked twin in `tests/conc_model.rs`).
