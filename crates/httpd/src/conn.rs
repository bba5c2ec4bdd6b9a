//! The per-connection HTTP/1.1 state machine driven by the reactor.
//!
//! [`HttpConn`] implements [`Driven`]: every `drive` call advances the
//! connection as far as readiness allows — flush queued response bytes,
//! read whatever the transport has buffered, parse complete heads/bodies,
//! dispatch the handler — and then parks until the next readiness wake or
//! timer deadline. No call ever blocks, so thousands of connections share a
//! handful of shard threads.
//!
//! All time-based behaviour lives in the reactor's timer wheel rather than
//! in transport read timeouts (which the simulated network cannot honour
//! uniformly): the *idle* timeout runs while waiting for a request to start,
//! and the *header-read* timeout runs from the first byte of a request until
//! its head and body have fully arrived — a slowloris client trickling one
//! header byte per second is evicted with `408 Request Timeout` when that
//! budget expires, having cost one timer-wheel entry instead of a thread.
//!
//! Request bodies are framed by [`httpwire::parse::BodyFraming`], the same
//! state machine the client reads responses with; its rustdoc states the
//! framing rules. The connection feeds it whatever the read buffer holds,
//! and it resumes at any byte boundary when more arrives.

use crate::server::{encode_response, Handler, Request, Response, ServerConfig, ServerStats};
use davix_sync::{AtomicUsize, Ordering};
use httpwire::parse::{read_request_head, request_body_len, BodyFraming, MAX_HEAD_BYTES};
use httpwire::{RequestHead, StatusCode, Version};
use netsim::{BoxedStream, DriveOutcome, Driven, Signal};
use std::io::{self, Cursor};
use std::sync::Arc;
use std::time::Duration;

/// Bytes read from the transport per `try_read` call.
const READ_CHUNK: usize = 16 * 1024;
/// Stop reading new requests while more than this much response data is
/// queued unsent (a pipelining client that never reads cannot balloon the
/// write buffer).
const MAX_WBUF: usize = 256 * 1024;
/// How long a closing connection may take to drain its final response
/// before it is dropped.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Shared live-connection accounting between the accept loop (which blocks
/// when the table is full) and the connections (which free their slot on
/// drop).
pub(crate) struct ConnSlots {
    /// Connections currently owned by the reactor.
    pub(crate) open: AtomicUsize,
    /// Set whenever a slot frees, waking a backpressured accept loop.
    pub(crate) freed: Arc<dyn Signal>,
}

/// RAII slot held by one connection; dropping it (connection closed, however
/// that happened) frees the slot and wakes the accept loop.
pub(crate) struct ConnSlotGuard(pub(crate) Arc<ConnSlots>);

impl Drop for ConnSlotGuard {
    fn drop(&mut self) {
        self.0.open.fetch_sub(1, Ordering::SeqCst);
        self.0.freed.set();
    }
}

/// Where the connection is in its request/response cycle. Each phase owns
/// the instant its timeout clock started.
enum Phase {
    /// Between requests, awaiting the first byte (idle timeout).
    Idle { since: Duration },
    /// A request head is partially buffered (header-read timeout, measured
    /// from the request's first byte).
    Head { since: Duration },
    /// Head parsed; collecting the body (same total budget as the head).
    Body { head: RequestHead, body: Vec<u8>, framing: BodyFraming, since: Duration },
    /// Request fully read; dispatch the handler at `at` (the configured
    /// `process_delay` is a timer deadline, not a sleeping thread).
    Respond { req: Option<Request>, at: Duration },
    /// Final response queued; flush and close (bounded by a drain timeout).
    Closing { since: Duration },
}

/// What one phase-step decided.
enum Step {
    /// State changed: run the loop again.
    Again,
    /// Nothing to do until the next wake.
    Park,
    /// Connection is finished.
    Close,
}

enum Fill {
    Grew,
    Eof,
    WouldBlock,
    Err,
}

/// One HTTP connection as a reactor task.
pub(crate) struct HttpConn {
    stream: BoxedStream,
    peer: String,
    handler: Arc<dyn Handler>,
    cfg: Arc<ServerConfig>,
    stats: Arc<ServerStats>,
    phase: Phase,
    /// Received-but-unparsed bytes.
    rbuf: Vec<u8>,
    /// How far `rbuf` has been scanned for the head terminator (so repeated
    /// scans of a slowly-arriving head stay linear).
    scanned: usize,
    /// Queued response bytes and how much of them has been written.
    wbuf: Vec<u8>,
    wpos: usize,
    served: u64,
    eof: bool,
    shutting_down: bool,
    _slot: ConnSlotGuard,
}

impl HttpConn {
    pub(crate) fn new(
        stream: BoxedStream,
        peer: String,
        handler: Arc<dyn Handler>,
        cfg: Arc<ServerConfig>,
        stats: Arc<ServerStats>,
        slot: ConnSlotGuard,
        now: Duration,
    ) -> Self {
        HttpConn {
            stream,
            peer,
            handler,
            cfg,
            stats,
            phase: Phase::Idle { since: now },
            rbuf: Vec::new(),
            scanned: 0,
            wbuf: Vec::new(),
            wpos: 0,
            served: 0,
            eof: false,
            shutting_down: false,
            _slot: slot,
        }
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Write queued bytes until done or the transport pushes back.
    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.try_write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "stream closed")),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.wpos > 0 && self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    fn fill(&mut self) -> Fill {
        let mut buf = [0u8; READ_CHUNK];
        match self.stream.try_read(&mut buf) {
            Ok(0) => Fill::Eof,
            Ok(n) => {
                self.rbuf.extend_from_slice(&buf[..n]);
                Fill::Grew
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Fill::WouldBlock,
            Err(_) => Fill::Err,
        }
    }

    /// Find the end of the buffered head (`\r\n\r\n`, tolerating bare-LF
    /// line endings like the blocking parser), resuming from the last scan.
    fn find_head_end(&mut self) -> Option<usize> {
        let buf = &self.rbuf;
        let mut i = self.scanned;
        while i < buf.len() {
            if buf[i] == b'\n' {
                if buf.len() > i + 1 && buf[i + 1] == b'\n' {
                    return Some(i + 2);
                }
                if buf.len() > i + 2 && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
                    return Some(i + 3);
                }
            }
            i += 1;
        }
        // A terminator may straddle this data and the next read.
        self.scanned = buf.len().saturating_sub(2);
        None
    }

    /// Queue an error response and transition to `Closing`.
    fn reject(&mut self, status: StatusCode, now: Duration) {
        let out = encode_response(&self.cfg, &httpwire::Method::Get, Response::error(status), true);
        self.wbuf.extend_from_slice(&out);
        self.stats.closes.fetch_add(1, Ordering::Relaxed);
        self.phase = Phase::Closing { since: now };
    }

    /// Head parsed: answer `Expect: 100-continue`, set up body collection
    /// (or go straight to dispatch for bodyless requests).
    fn begin_request(&mut self, head: RequestHead, started: Duration, now: Duration) {
        // RFC 7231 §5.1.1: the client parks its (possibly huge) body until
        // told to proceed; queue the interim response before the body so
        // streaming uploads do not stall for the client's fallback timeout.
        if head.version == Version::Http11
            && head
                .headers
                .get("expect")
                .map(|v| v.trim().eq_ignore_ascii_case("100-continue"))
                .unwrap_or(false)
        {
            self.wbuf.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
        }
        match request_body_len(&head).map(BodyFraming::new) {
            Err(_) => self.reject(StatusCode::BAD_REQUEST, now),
            Ok(framing) if framing.is_done() => self.finish_request(head, Vec::new(), now),
            Ok(framing) => {
                self.phase = Phase::Body { head, body: Vec::new(), framing, since: started };
            }
        }
    }

    /// Request fully read: schedule dispatch after the configured
    /// processing delay (zero means the same drive call dispatches).
    fn finish_request(&mut self, head: RequestHead, body: Vec<u8>, now: Duration) {
        let req = Request { head, body, peer: self.peer.clone() };
        self.phase = Phase::Respond { req: Some(req), at: now + self.cfg.process_delay };
    }

    /// Run the handler and queue its response.
    fn dispatch(&mut self, req: Request, now: Duration) {
        self.served += 1;
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let method = req.head.method.clone();
        let client_keep_alive =
            req.head.headers.keep_alive(req.head.version == Version::Http11) && !self.cfg.http10;
        let resp = self.handler.handle(req);
        let cap_hit = self.cfg.max_requests_per_conn.map(|cap| self.served >= cap).unwrap_or(false);
        let close = resp.close || !client_keep_alive || cap_hit || self.shutting_down;
        let out = encode_response(&self.cfg, &method, resp, close);
        self.wbuf.extend_from_slice(&out);
        if close {
            self.stats.closes.fetch_add(1, Ordering::Relaxed);
            self.phase = Phase::Closing { since: now };
        } else {
            self.phase = Phase::Idle { since: now };
        }
    }

    fn drive_idle(&mut self, now: Duration) -> Step {
        let Phase::Idle { since } = &self.phase else { unreachable!() };
        let since = *since;
        if !self.rbuf.is_empty() {
            // Pipelined bytes already buffered: the next request has begun.
            self.phase = Phase::Head { since: now };
            return Step::Again;
        }
        if self.shutting_down {
            self.phase = Phase::Closing { since: now };
            return Step::Again;
        }
        if self.eof {
            return Step::Close; // clean close between requests
        }
        if let Some(t) = self.cfg.idle_timeout {
            if now >= since + t {
                return Step::Close; // idle keep-alive expired
            }
        }
        if self.pending_write() > MAX_WBUF {
            return Step::Park;
        }
        match self.fill() {
            Fill::Grew => {
                self.phase = Phase::Head { since: now };
                Step::Again
            }
            Fill::Eof => {
                self.eof = true;
                Step::Again
            }
            Fill::WouldBlock => Step::Park,
            Fill::Err => Step::Close,
        }
    }

    fn drive_head(&mut self, now: Duration) -> Step {
        let Phase::Head { since } = &self.phase else { unreachable!() };
        let started = *since;
        if let Some(t) = self.cfg.header_read_timeout {
            if now >= started + t {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                self.reject(StatusCode::REQUEST_TIMEOUT, now);
                return Step::Again;
            }
        }
        loop {
            match self.find_head_end() {
                Some(end) => {
                    let parsed = read_request_head(&mut Cursor::new(&self.rbuf[..end]));
                    self.rbuf.drain(..end);
                    self.scanned = 0;
                    match parsed {
                        Ok(Some(head)) => {
                            self.begin_request(head, started, now);
                            return Step::Again;
                        }
                        // Only stray blank lines (RFC 7230 §3.5): skip them.
                        Ok(None) => {
                            if self.rbuf.is_empty() {
                                self.phase = Phase::Idle { since: now };
                                return Step::Again;
                            }
                        }
                        Err(_) => {
                            self.reject(StatusCode::BAD_REQUEST, now);
                            return Step::Again;
                        }
                    }
                }
                None => {
                    if self.rbuf.len() > MAX_HEAD_BYTES {
                        self.reject(StatusCode::REQUEST_HEADER_FIELDS_TOO_LARGE, now);
                        return Step::Again;
                    }
                    if self.eof {
                        return Step::Close; // peer died mid-head
                    }
                    if self.pending_write() > MAX_WBUF {
                        return Step::Park;
                    }
                    match self.fill() {
                        Fill::Grew => continue,
                        Fill::Eof => {
                            self.eof = true;
                            continue;
                        }
                        Fill::WouldBlock => return Step::Park,
                        Fill::Err => return Step::Close,
                    }
                }
            }
        }
    }

    fn drive_body(&mut self, now: Duration) -> Step {
        let Phase::Body { since, .. } = &self.phase else { unreachable!() };
        let started = *since;
        if let Some(t) = self.cfg.header_read_timeout {
            if now >= started + t {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                self.reject(StatusCode::REQUEST_TIMEOUT, now);
                return Step::Again;
            }
        }
        loop {
            let decoded = {
                let Phase::Body { body, framing, .. } = &mut self.phase else { unreachable!() };
                framing.decode(&self.rbuf, body).map(|used| (used, framing.is_done()))
            };
            let Ok((used, done)) = decoded else {
                self.reject(StatusCode::BAD_REQUEST, now);
                return Step::Again;
            };
            self.rbuf.drain(..used);
            if done {
                let prev = std::mem::replace(&mut self.phase, Phase::Idle { since: now });
                let Phase::Body { head, body, .. } = prev else { unreachable!() };
                self.finish_request(head, body, now);
                return Step::Again;
            }
            if self.eof {
                return Step::Close; // peer died mid-body
            }
            match self.fill() {
                Fill::Grew => continue,
                Fill::Eof => {
                    self.eof = true;
                    continue;
                }
                Fill::WouldBlock => return Step::Park,
                Fill::Err => return Step::Close,
            }
        }
    }

    fn drive_respond(&mut self, now: Duration) -> Step {
        let Phase::Respond { at, .. } = &self.phase else { unreachable!() };
        if now < *at {
            return Step::Park; // the timer wheel wakes us at `at`
        }
        let Phase::Respond { req, .. } = &mut self.phase else { unreachable!() };
        let req = req.take().expect("request dispatched exactly once");
        self.dispatch(req, now);
        Step::Again
    }

    fn drive_closing(&mut self, now: Duration) -> Step {
        if self.pending_write() == 0 {
            return Step::Close;
        }
        let Phase::Closing { since } = &self.phase else { unreachable!() };
        if now >= *since + DRAIN_TIMEOUT {
            return Step::Close; // peer is not draining the final response
        }
        Step::Park
    }
}

impl Driven for HttpConn {
    fn drive(&mut self, now: Duration) -> DriveOutcome {
        loop {
            if self.flush().is_err() {
                return DriveOutcome::Done;
            }
            let step = match self.phase {
                Phase::Idle { .. } => self.drive_idle(now),
                Phase::Head { .. } => self.drive_head(now),
                Phase::Body { .. } => self.drive_body(now),
                Phase::Respond { .. } => self.drive_respond(now),
                Phase::Closing { .. } => self.drive_closing(now),
            };
            match step {
                Step::Again => continue,
                Step::Park => return DriveOutcome::Continue,
                Step::Close => return DriveOutcome::Done,
            }
        }
    }

    fn deadline(&self) -> Option<Duration> {
        match &self.phase {
            Phase::Idle { since } => self.cfg.idle_timeout.map(|t| *since + t),
            Phase::Head { since } | Phase::Body { since, .. } => {
                self.cfg.header_read_timeout.map(|t| *since + t)
            }
            Phase::Respond { at, .. } => Some(*at),
            Phase::Closing { since } => {
                if self.pending_write() == 0 {
                    None
                } else {
                    Some(*since + DRAIN_TIMEOUT)
                }
            }
        }
    }

    fn set_waker(&mut self, waker: Option<Arc<dyn Signal>>) {
        // Transports waited on via `poll_fd` report `Unsupported` here.
        let _ = self.stream.set_waker(waker);
    }

    fn poll_fd(&self) -> Option<i32> {
        self.stream.poll_fd()
    }

    fn wants_write(&self) -> bool {
        self.pending_write() > 0
    }

    fn begin_shutdown(&mut self) {
        self.shutting_down = true;
    }
}
