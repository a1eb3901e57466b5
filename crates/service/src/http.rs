//! Minimal HTTP/1.1 framing over `std::net::TcpStream`.
//!
//! No network crates are available in this build environment, so the
//! service speaks just enough HTTP itself: request-line + headers +
//! `Content-Length` bodies, keep-alive by default, `Connection: close`
//! honoured. Chunked transfer encoding is not accepted on *requests*
//! (every client this crate ships sends sized bodies), but **is
//! produced on responses**: a [`StreamingResponse`] writes its body
//! through a [`ChunkedWriter`] as the handler generates it, so a batch
//! extraction's first bytes hit the wire after the first page instead
//! of after the last. HTTP/1.0 clients, which predate chunked framing,
//! get the same stream EOF-delimited with `Connection: close`. The
//! loopback [`Client`] decodes both framings.
//!
//! The server half is sans-I/O: the event loops feed socket bytes to a
//! [`RequestParser`] and write what [`encode_full_response`] and
//! [`encode_streaming_head`] produce. A small blocking [`Client`] is
//! included for loopback use.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on an accepted request body (64 MiB — a generous batch).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Upper bound on the request head (request line + headers); past it
/// the server answers `431 Request Header Fields Too Large` instead of
/// growing the read buffer without limit.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// One parsed HTTP request. `PartialEq` exists for the parser property
/// tests (incremental == one-shot), not for application logic.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub method: String,
    /// Path without the query string, e.g. `/extract/movies/batch`.
    pub path: String,
    /// Raw query string (empty when absent).
    pub query: String,
    /// Header names are lower-cased; values are trimmed.
    pub headers: BTreeMap<String, String>,
    pub body: Vec<u8>,
    /// Request came in as HTTP/1.0 (close-by-default semantics).
    pub http10: bool,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(&name.to_ascii_lowercase()).map(String::as_str)
    }

    /// Should the connection close after this exchange? `Connection:
    /// close`, or an HTTP/1.0 request without an explicit keep-alive —
    /// 1.0 clients read the body to EOF, so keeping the connection open
    /// would hang them.
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) => v.eq_ignore_ascii_case("close"),
            None => self.http10,
        }
    }

    /// Raw value of a `k=v` query parameter (no percent-decoding; use
    /// [`decoded_query_param`](Self::decoded_query_param) for values
    /// that may carry escapes).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }

    /// Percent-decoded value of a `k=v` query parameter. Keys are
    /// decoded before matching too, so `thr%65ads=4` still names
    /// `threads`. [`InvalidEscape`] means the matched pair carries an
    /// invalid escape — the caller should answer 400, not guess.
    pub fn decoded_query_param(&self, name: &str) -> Result<Option<String>, InvalidEscape> {
        for pair in self.query.split('&') {
            let Some((k, v)) = pair.split_once('=') else { continue };
            // An undecodable *key* can't match any caller's name; an
            // undecodable value on the matched key is the caller's 400.
            let Some(k) = percent_decode(k) else { continue };
            if k == name {
                return percent_decode(v).map(|v| Some(v.into_owned())).ok_or(InvalidEscape);
            }
        }
        Ok(None)
    }

    pub fn body_utf8(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// Marker error: a percent-escaped component failed to decode (bad hex
/// digits or non-UTF-8 result). Maps to a 400 at the handler layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidEscape;

impl std::fmt::Display for InvalidEscape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("invalid percent-escape")
    }
}

impl std::error::Error for InvalidEscape {}

/// Incremental progress from [`RequestParser::advance`].
#[derive(Debug)]
pub enum ParseProgress {
    /// The buffer does not yet hold a complete request.
    NeedMore,
    /// One complete request was parsed and drained from the buffer.
    Complete(Request),
    /// Unparseable, unsupported or oversized input; respond with the
    /// given status and close.
    Malformed(u16, &'static str),
}

/// Parsed request head waiting for its `Content-Length` body.
#[derive(Debug)]
struct PendingBody {
    method: String,
    path: String,
    query: String,
    headers: BTreeMap<String, String>,
    http10: bool,
    head_end: usize,
    /// Bytes (head + `\r\n\r\n` + body) the full request occupies.
    total: usize,
}

/// Incremental HTTP/1.1 request parser over an external byte buffer,
/// fed by the event loops between readiness events. Feed bytes into the
/// buffer however they arrive, call
/// [`advance`](RequestParser::advance) after each arrival, and a
/// [`ParseProgress::Complete`] drains exactly that request from the
/// buffer — leftover pipelined bytes stay for the next call.
///
/// State is O(1) per connection: a `scanned` offset so the
/// `\r\n\r\n` search never rescans bytes (a byte-at-a-time trickle
/// stays linear, not quadratic), and the parsed head while its body is
/// in flight (the head parses once, not once per arrival).
#[derive(Debug)]
pub struct RequestParser {
    max_head_bytes: usize,
    /// Buffer prefix already scanned for the head terminator.
    scanned: usize,
    pending: Option<PendingBody>,
    /// Set once per request when the peer sent `Expect: 100-continue`
    /// (HTTP/1.1, body not yet complete); consumed by
    /// [`take_continue`](RequestParser::take_continue).
    send_continue: bool,
}

impl Default for RequestParser {
    fn default() -> RequestParser {
        RequestParser::new()
    }
}

impl RequestParser {
    pub fn new() -> RequestParser {
        RequestParser::with_max_head(MAX_HEAD_BYTES)
    }

    pub fn with_max_head(max_head_bytes: usize) -> RequestParser {
        RequestParser { max_head_bytes, scanned: 0, pending: None, send_continue: false }
    }

    /// A request head has been parsed but its body is incomplete.
    pub fn mid_body(&self) -> bool {
        self.pending.is_some()
    }

    /// True exactly once per request whose head asked for a
    /// `100 Continue` nod; the caller writes the interim response.
    pub fn take_continue(&mut self) -> bool {
        std::mem::take(&mut self.send_continue)
    }

    /// Try to complete one request from `buf`. On `Complete` the
    /// request's bytes are drained from the buffer; on `Malformed` the
    /// connection must be closed after the error response (parser state
    /// is not recoverable).
    pub fn advance(&mut self, buf: &mut Vec<u8>) -> ParseProgress {
        if self.pending.is_none() {
            // Resume the terminator scan where the last call stopped;
            // back up 3 bytes so a terminator split across arrivals is
            // still seen.
            let start = self.scanned.saturating_sub(3);
            let head_end = match buf[start..].windows(4).position(|w| w == b"\r\n\r\n") {
                Some(pos) => start + pos,
                None => {
                    self.scanned = buf.len();
                    if buf.len() > self.max_head_bytes {
                        return ParseProgress::Malformed(431, "request header fields too large");
                    }
                    return ParseProgress::NeedMore;
                }
            };
            if head_end > self.max_head_bytes {
                return ParseProgress::Malformed(431, "request header fields too large");
            }
            let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
                return ParseProgress::Malformed(400, "request head is not UTF-8");
            };
            let Some((method, path, query, headers, http10)) = parse_head(head) else {
                return ParseProgress::Malformed(400, "malformed request line or headers");
            };
            // Unsupported framing must be rejected, not misread as an
            // empty body — leftover chunk bytes would desync the
            // connection.
            if headers.contains_key("transfer-encoding") {
                return ParseProgress::Malformed(
                    400,
                    "Transfer-Encoding is not supported; send a Content-Length body",
                );
            }
            let content_length = match headers.get("content-length") {
                None => 0,
                Some(v) => match v.parse::<usize>() {
                    Ok(n) => n,
                    Err(_) => return ParseProgress::Malformed(400, "bad Content-Length"),
                },
            };
            if content_length > MAX_BODY_BYTES {
                return ParseProgress::Malformed(413, "request body too large");
            }
            let total = head_end + 4 + content_length;
            // An `Expect: 100-continue` client (curl does this for any
            // body over ~1 KiB) holds the body back until the server
            // nods — ignoring it costs a fixed ~1 s stall per large
            // request. Never for HTTP/1.0 peers: 1xx interim responses
            // postdate 1.0 (RFC 7231 §5.1.1 says ignore their Expect),
            // and a 1.0 client would misread the nod as the final
            // response.
            if !http10
                && buf.len() < total
                && headers.get("expect").is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
            {
                self.send_continue = true;
            }
            self.pending =
                Some(PendingBody { method, path, query, headers, http10, head_end, total });
        }
        let total = self.pending.as_ref().expect("pending head").total;
        if buf.len() < total {
            return ParseProgress::NeedMore;
        }
        let p = self.pending.take().expect("pending head");
        let body = buf[p.head_end + 4..p.total].to_vec();
        buf.drain(..p.total);
        self.scanned = 0;
        self.send_continue = false;
        ParseProgress::Complete(Request {
            method: p.method,
            path: p.path,
            query: p.query,
            headers: p.headers,
            body,
            http10: p.http10,
        })
    }
}

/// Wire bytes for a full (non-streamed) response: head + body in one
/// buffer, so it leaves in a single write with no Nagle/delayed-ACK
/// stall between the two halves.
pub fn encode_full_response(resp: &Response) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len(),
        if resp.close { "close" } else { "keep-alive" },
    );
    for (name, value) in &resp.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(&resp.body);
    out
}

/// Wire bytes for a streamed response's head: chunked framing when
/// `chunked` (HTTP/1.1), EOF-delimited (which forces `close`)
/// otherwise. Takes the head fields rather than the whole
/// [`StreamingResponse`] because the event loop hands the body producer
/// to a streamer thread and keeps only the metadata.
pub fn encode_streaming_head(
    status: u16,
    content_type: &str,
    headers: &[(String, String)],
    chunked: bool,
    close: bool,
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\n{}connection: {}\r\n",
        status,
        status_text(status),
        content_type,
        if chunked { "transfer-encoding: chunked\r\n" } else { "" },
        if close && chunked {
            "close"
        } else if chunked {
            "keep-alive"
        } else {
            "close"
        },
    );
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head.into_bytes()
}

/// Body producer of a [`StreamingResponse`]: writes the whole body into
/// the given sink (a [`ChunkedWriter`] toward the connection), returning
/// an error to abort mid-stream.
pub type StreamBody = Box<dyn FnOnce(&mut dyn Write) -> std::io::Result<()> + Send>;

/// A response whose body is produced incrementally while it is written
/// to the connection — the status and headers must be decidable up
/// front, which is why handlers validate everything *before* returning
/// one. Memory stays bounded by the producer's working set, not the
/// body size.
pub struct StreamingResponse {
    pub status: u16,
    pub content_type: &'static str,
    /// Extra headers beyond content-type/transfer-encoding/connection.
    pub headers: Vec<(String, String)>,
    pub body: StreamBody,
}

impl std::fmt::Debug for StreamingResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingResponse")
            .field("status", &self.status)
            .field("content_type", &self.content_type)
            .field("headers", &self.headers)
            .finish_non_exhaustive()
    }
}

/// What a handler hands back: a fully materialised [`Response`] or a
/// [`StreamingResponse`] driven while writing.
#[derive(Debug)]
pub enum Reply {
    Full(Response),
    Streaming(StreamingResponse),
}

impl From<Response> for Reply {
    fn from(resp: Response) -> Reply {
        Reply::Full(resp)
    }
}

/// Buffer threshold before a chunk is flushed: large enough that chunk
/// framing overhead is noise, small enough that the first page of a
/// batch reaches the client promptly and peak buffering stays constant.
pub(crate) const CHUNK_FLUSH_BYTES: usize = 16 * 1024;

/// An [`io::Write`](Write) adapter producing HTTP chunked framing:
/// accumulates writes into a fixed-threshold buffer, emits each full
/// buffer as one `<len-hex>\r\n…\r\n` chunk, and
/// [`finish`](ChunkedWriter::finish) flushes the tail plus the terminal
/// `0\r\n\r\n` chunk.
///
/// Generic over the sink: the server frames straight into the
/// connection's socket, and an in-process caller can frame into a plain
/// buffer with the identical bytes.
pub struct ChunkedWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
    /// Body bytes accepted (pre-framing), for metrics.
    bytes: u64,
}

impl<W: Write> ChunkedWriter<W> {
    pub fn new(inner: W) -> ChunkedWriter<W> {
        ChunkedWriter { inner, buf: Vec::with_capacity(CHUNK_FLUSH_BYTES + 1024), bytes: 0 }
    }

    fn flush_chunk(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let mut framed = format!("{:x}\r\n", self.buf.len()).into_bytes();
        framed.extend_from_slice(&self.buf);
        framed.extend_from_slice(b"\r\n");
        self.buf.clear();
        self.inner.write_all(&framed)
    }

    /// Flush the remaining buffer and write the terminal chunk. Returns
    /// the total body bytes streamed (pre-framing).
    pub fn finish(mut self) -> std::io::Result<u64> {
        self.flush_chunk()?;
        self.inner.write_all(b"0\r\n\r\n")?;
        Ok(self.bytes)
    }
}

impl<W: Write> Write for ChunkedWriter<W> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        self.bytes += data.len() as u64;
        if self.buf.len() >= CHUNK_FLUSH_BYTES {
            self.flush_chunk()?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flush_chunk()?;
        self.inner.flush()
    }
}

/// Decode `%XX` percent-escapes in a path segment or query component.
/// Escape-free input (the hot path: every well-known route) borrows —
/// no allocation. Returns `None` for an invalid escape (`%` not
/// followed by two hex digits) or when the decoded bytes are not
/// UTF-8 — both are client errors, never silently passed through. `+`
/// is left literal: these are URI components, not
/// `application/x-www-form-urlencoded` bodies.
pub fn percent_decode(s: &str) -> Option<std::borrow::Cow<'_, str>> {
    if !s.contains('%') {
        return Some(std::borrow::Cow::Borrowed(s));
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hi = (hex[0] as char).to_digit(16)?;
            let lo = (hex[1] as char).to_digit(16)?;
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok().map(std::borrow::Cow::Owned)
}

/// Position of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[allow(clippy::type_complexity)]
fn parse_head(head: &str) -> Option<(String, String, String, BTreeMap<String, String>, bool)> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next()?;
    let mut parts = request_line.split(' ');
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") || parts.next().is_some() || method.is_empty() {
        return None;
    }
    let http10 = version == "HTTP/1.0";
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':')?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    Some((method, path, query, headers, http10))
}

/// An HTTP response about to be written.
#[derive(Clone, Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    /// Extra headers beyond content-type/length/connection.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Close the connection after this response.
    pub close: bool,
}

impl Response {
    pub fn new(status: u16, content_type: &'static str, body: Vec<u8>) -> Response {
        Response { status, content_type, headers: Vec::new(), body, close: false }
    }

    pub fn json(status: u16, json: &retroweb_json::Json) -> Response {
        Response::new(status, "application/json", json.to_string_pretty().into_bytes())
    }

    pub fn xml(body: String) -> Response {
        Response::new(200, "application/xml; charset=UTF-8", body.into_bytes())
    }

    pub fn text(status: u16, body: &str) -> Response {
        Response::new(status, "text/plain; charset=UTF-8", body.as_bytes().to_vec())
    }

    /// `{"error": message}` with the given status.
    pub fn error(status: u16, message: &str) -> Response {
        let json = retroweb_json::Json::object(vec![(
            "error".to_string(),
            retroweb_json::Json::from(message),
        )]);
        Response::json(status, &json)
    }

    pub fn with_header(mut self, name: &str, value: impl std::fmt::Display) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    pub fn closed(mut self) -> Response {
        self.close = true;
        self
    }
}

pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

// ---- loopback client ------------------------------------------------------

/// A parsed client-side response.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    pub status: u16,
    pub headers: BTreeMap<String, String>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(&name.to_ascii_lowercase()).map(String::as_str)
    }

    pub fn body_utf8(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }

    pub fn body_json(&self) -> Result<retroweb_json::Json, retroweb_json::ParseError> {
        retroweb_json::parse(&self.body_utf8())
    }
}

/// Blocking keep-alive HTTP client for loopback tests and benches.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, buf: Vec::new() })
    }

    /// Send one request and read the sized response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: loopback\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
        let mut out = head.into_bytes();
        out.extend_from_slice(body);
        self.stream.write_all(&out)?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            let mut chunk = [0u8; 16 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed before response head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default().to_string();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "bad status line"))?;
        let mut headers = BTreeMap::new();
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
            }
        }
        self.buf.drain(..head_end + 4);
        let chunked =
            headers.get("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        let body = if chunked {
            self.read_chunked_body()?
        } else if let Some(len) =
            headers.get("content-length").and_then(|v| v.parse::<usize>().ok())
        {
            self.read_sized_body(len)?
        } else if headers.get("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")) {
            // EOF-delimited (the HTTP/1.0-style streamed fallback).
            self.read_to_close()?
        } else {
            return Err(std::io::Error::new(ErrorKind::InvalidData, "missing content-length"));
        };
        Ok(ClientResponse { status, headers, body })
    }

    /// Read `n` more bytes into the buffer, erroring on EOF.
    fn fill_buf(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_sized_body(&mut self, len: usize) -> std::io::Result<Vec<u8>> {
        while self.buf.len() < len {
            self.fill_buf()?;
        }
        let body = self.buf[..len].to_vec();
        self.buf.drain(..len);
        Ok(body)
    }

    /// Decode a chunked body: `<len-hex>\r\n<data>\r\n`… `0\r\n\r\n`.
    /// A truncated stream (server aborted mid-body) surfaces as
    /// `UnexpectedEof`, never as a silently short body.
    fn read_chunked_body(&mut self) -> std::io::Result<Vec<u8>> {
        let mut body = Vec::new();
        loop {
            let line_end = loop {
                if let Some(pos) = self.buf.windows(2).position(|w| w == b"\r\n") {
                    break pos;
                }
                self.fill_buf()?;
            };
            let size_line = String::from_utf8_lossy(&self.buf[..line_end]).into_owned();
            self.buf.drain(..line_end + 2);
            let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
                std::io::Error::new(ErrorKind::InvalidData, format!("bad chunk size '{size_line}'"))
            })?;
            while self.buf.len() < size + 2 {
                self.fill_buf()?;
            }
            body.extend_from_slice(&self.buf[..size]);
            if &self.buf[size..size + 2] != b"\r\n" {
                return Err(std::io::Error::new(ErrorKind::InvalidData, "chunk missing CRLF"));
            }
            self.buf.drain(..size + 2);
            if size == 0 {
                return Ok(body);
            }
        }
    }

    fn read_to_close(&mut self) -> std::io::Result<Vec<u8>> {
        loop {
            let mut chunk = [0u8; 16 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                let body = std::mem::take(&mut self.buf);
                return Ok(body);
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// One-shot convenience: connect, send with `Connection: close`, read.
pub fn request_once(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<ClientResponse> {
    let mut client = Client::connect(addr)?;
    let mut all: Vec<(&str, &str)> = vec![("connection", "close")];
    all.extend_from_slice(headers);
    client.request(method, path, &all, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parsing() {
        let (method, path, query, headers, http10) = parse_head(
            "POST /extract/m/batch?threads=4 HTTP/1.1\r\nContent-Length: 3\r\nX-Page-Uri: u1",
        )
        .unwrap();
        assert_eq!(method, "POST");
        assert_eq!(path, "/extract/m/batch");
        assert_eq!(query, "threads=4");
        assert_eq!(headers.get("content-length").map(String::as_str), Some("3"));
        assert_eq!(headers.get("x-page-uri").map(String::as_str), Some("u1"));
        assert!(!http10);
        assert!(parse_head("GET /x HTTP/1.0").unwrap().4);
        assert!(parse_head("GARBAGE").is_none());
        assert!(parse_head("GET /x SPDY/9").is_none());
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("plain").as_deref(), Some("plain"));
        assert!(
            matches!(percent_decode("plain"), Some(std::borrow::Cow::Borrowed(_))),
            "escape-free input must not allocate"
        );
        assert_eq!(percent_decode("my%20cluster").as_deref(), Some("my cluster"));
        assert_eq!(percent_decode("a%2Fb").as_deref(), Some("a/b"));
        assert_eq!(percent_decode("caf%C3%A9").as_deref(), Some("café"));
        assert_eq!(
            percent_decode("a+b").as_deref(),
            Some("a+b"),
            "+ stays literal in URI components"
        );
        // Invalid escapes and non-UTF-8 results are rejected, not guessed.
        assert_eq!(percent_decode("bad%"), None);
        assert_eq!(percent_decode("bad%2"), None);
        assert_eq!(percent_decode("bad%zz"), None);
        assert_eq!(percent_decode("lone%FF"), None, "0xFF alone is not UTF-8");
    }

    #[test]
    fn decoded_query_params() {
        let req = Request {
            method: "GET".into(),
            path: "/x".into(),
            query: "name=my%20cluster&thr%65ads=4&bad=%zz".into(),
            headers: BTreeMap::new(),
            body: Vec::new(),
            http10: false,
        };
        assert_eq!(req.decoded_query_param("name"), Ok(Some("my cluster".into())));
        assert_eq!(req.decoded_query_param("threads"), Ok(Some("4".into())), "escaped key matches");
        assert_eq!(
            req.decoded_query_param("bad"),
            Err(InvalidEscape),
            "invalid escape in value is an error"
        );
        assert_eq!(req.decoded_query_param("missing"), Ok(None));
    }

    #[test]
    fn query_params_and_close_semantics() {
        let mut req = Request {
            method: "GET".into(),
            path: "/x".into(),
            query: "a=1&threads=8".into(),
            headers: BTreeMap::new(),
            body: Vec::new(),
            http10: false,
        };
        assert_eq!(req.query_param("threads"), Some("8"));
        assert_eq!(req.query_param("missing"), None);
        // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
        assert!(!req.wants_close());
        req.http10 = true;
        assert!(req.wants_close());
        req.headers.insert("connection".into(), "keep-alive".into());
        assert!(!req.wants_close());
        req.headers.insert("connection".into(), "close".into());
        assert!(req.wants_close());
    }
}
