//! Incremental message parsing: heads and body framing.

use crate::{HeaderMap, Method, RequestHead, ResponseHead, StatusCode, Version, WireError};
use std::io::{BufRead, Read, Write};

/// Upper bound on a message head (start line + headers), matching common
/// server defaults.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Read one CRLF- (or bare-LF-) terminated line, without the terminator.
/// `Ok(None)` means EOF before any byte was read.
fn read_line<R: BufRead>(r: &mut R, budget: &mut usize) -> Result<Option<String>, WireError> {
    let mut buf = Vec::with_capacity(64);
    let n = r.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.len() > *budget {
        return Err(WireError::HeadTooLarge(MAX_HEAD_BYTES));
    }
    *budget -= buf.len();
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else {
        // EOF mid-line.
        return Err(WireError::UnexpectedEof);
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| WireError::BadHeader("non-UTF-8 bytes in message head".to_string()))
}

/// Read header fields until the blank line.
fn read_headers<R: BufRead>(r: &mut R, budget: &mut usize) -> Result<HeaderMap, WireError> {
    let mut headers = HeaderMap::new();
    loop {
        let line = read_line(r, budget)?.ok_or(WireError::UnexpectedEof)?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) =
            line.split_once(':').ok_or_else(|| WireError::BadHeader(line.clone()))?;
        if name.is_empty() || name.contains(' ') {
            return Err(WireError::BadHeader(line.clone()));
        }
        headers.append(name, value.trim());
    }
}

/// Read a request head. `Ok(None)` signals a clean EOF before the request
/// started (the peer closed an idle keep-alive connection).
pub fn read_request_head<R: BufRead>(r: &mut R) -> Result<Option<RequestHead>, WireError> {
    let mut budget = MAX_HEAD_BYTES;
    // RFC 7230 §3.5: robustly skip one stray empty line before the request.
    let start = loop {
        match read_line(r, &mut budget)? {
            None => return Ok(None),
            Some(l) if l.is_empty() => continue,
            Some(l) => break l,
        }
    };
    let mut parts = start.split(' ');
    let (m, t, v) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(WireError::BadStartLine(start.clone())),
    };
    let method: Method = m.parse()?;
    let version = Version::parse(v)?;
    if t.is_empty() {
        return Err(WireError::BadStartLine(start));
    }
    let headers = read_headers(r, &mut budget)?;
    Ok(Some(RequestHead { method, target: t.to_string(), version, headers }))
}

/// Read a response head. EOF before the status line is an error (the client
/// was expecting a response).
pub fn read_response_head<R: BufRead>(r: &mut R) -> Result<ResponseHead, WireError> {
    let mut budget = MAX_HEAD_BYTES;
    let start = read_line(r, &mut budget)?.ok_or(WireError::UnexpectedEof)?;
    // "HTTP/1.1 206 Partial Content" — the reason phrase may contain spaces
    // or be empty.
    let mut parts = start.splitn(3, ' ');
    let v = parts.next().unwrap_or("");
    let code = parts.next().ok_or_else(|| WireError::BadStartLine(start.clone()))?;
    let reason = parts.next().unwrap_or("").to_string();
    let version = Version::parse(v)?;
    let code: u16 = code.parse().map_err(|_| WireError::BadStartLine(start.clone()))?;
    if !(100..600).contains(&code) {
        return Err(WireError::BadStartLine(start));
    }
    let headers = read_headers(r, &mut budget)?;
    Ok(ResponseHead { version, status: StatusCode(code), reason, headers })
}

/// How a message body is delimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyLen {
    /// No body at all (HEAD responses, 204/304, bodyless requests).
    None,
    /// Exactly this many bytes.
    Fixed(u64),
    /// `Transfer-Encoding: chunked`.
    Chunked,
    /// Body runs until the connection closes (HTTP/1.0 style responses).
    Close,
}

/// Body length of a request per RFC 9112 §6.3 (requests never use
/// read-to-close). A request whose framing is ambiguous is an error, to be
/// answered with 400 and a close: a transfer coding that does not end in
/// `chunked`, `Transfer-Encoding` together with `Content-Length`, or
/// `Content-Length` values that are malformed or disagree.
pub fn request_body_len(head: &RequestHead) -> Result<BodyLen, WireError> {
    let headers = &head.headers;
    let bad = |why: &str| Err(WireError::BadHeader(why.to_string()));
    let has_length = headers.contains("content-length");
    if headers.contains("transfer-encoding") {
        return match (headers.is_chunked(), has_length) {
            (true, false) => Ok(BodyLen::Chunked),
            (false, _) => bad("request transfer coding does not end in chunked"),
            (true, true) => bad("both Transfer-Encoding and Content-Length"),
        };
    }
    match headers.content_length() {
        Some(0) => Ok(BodyLen::None),
        Some(n) => Ok(BodyLen::Fixed(n)),
        None if has_length => bad("invalid Content-Length"),
        None => Ok(BodyLen::None),
    }
}

/// Body length of a response to `req_method` per RFC 7230 §3.3.3.
pub fn response_body_len(req_method: &Method, head: &ResponseHead) -> BodyLen {
    let code = head.status.0;
    if *req_method == Method::Head || (100..200).contains(&code) || code == 204 || code == 304 {
        return BodyLen::None;
    }
    if head.headers.is_chunked() {
        return BodyLen::Chunked;
    }
    if let Some(n) = head.headers.content_length() {
        return if n == 0 { BodyLen::None } else { BodyLen::Fixed(n) };
    }
    BodyLen::Close
}

/// Longest chunk-size line, extension and line ending included.
const MAX_SIZE_LINE: usize = 1024;
/// Largest trailer section, final empty line included.
const MAX_TRAILERS: usize = 8 * 1024;
/// Most hex digits in a chunk size: any more could overflow a `u64`.
const MAX_SIZE_DIGITS: u8 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// The body is complete.
    Done,
    /// Payload runs until the peer closes.
    Close,
    /// `left` payload bytes come next, then the body ends.
    Fixed,
    /// `left` bytes of chunk data come next, then [`State::DataCr`].
    Chunk,
    /// Expecting the CR, then the LF, after chunk data.
    DataCr,
    DataLf,
    /// Chunk-size digits.
    Size,
    /// Whitespace after the chunk-size digits.
    SizeWs,
    /// A chunk extension, skipped up to the line's LF.
    Ext,
    /// A CR ended the chunk size; only LF may follow.
    SizeLf,
    /// At the start of a trailer line or of the empty line ending the body.
    TrailerStart,
    /// Inside a trailer field, skipped up to the line's LF.
    Trailer,
    /// A CR opened the final empty line; only LF may follow.
    TrailerLf,
}

/// The body-framing state machine, shared by the client and the server.
///
/// It never buffers input. It consumes framing bytes (chunk-size lines, the
/// CRLF after chunk data, trailers) one at a time, so it can stop at any
/// byte and resume with the next, and it knows how many payload bytes come
/// next, so the two ways of running it move payload with their own I/O:
///
/// * [`read`](BodyFraming::read) pulls from a `BufRead` and reads payload
///   straight into the caller's buffer (the client);
/// * [`decode`](BodyFraming::decode) takes bytes already in memory and
///   appends payload to a `Vec` (the server's read buffer).
///
/// Both stop exactly at the message boundary, so the stream stays
/// positioned at the next message (essential for keep-alive connections).
/// Holding the state *by value* lets an owner of the underlying stream
/// (e.g. a pooled session wrapped in a streaming response) drive the
/// framing without a self-referential borrow; [`BodyReader`] remains the
/// one-shot borrowing convenience.
///
/// # Chunked framing rules
///
/// RFC 9112 §7.1, with bounds so a peer cannot make the recipient scan
/// framing without limit:
///
/// * a chunk size is 1 to 16 hex digits: `+5`, ` 5` and `0x5` are rejected;
/// * SP or HTAB may follow the digits, before `;` or the line end;
/// * a size line, extension and line ending included, is at most 1024
///   bytes;
/// * extension bytes are skipped unparsed, so any byte but LF may appear
///   after the `;`;
/// * the trailer section, final empty line included, is at most 8 KiB, and
///   its fields are skipped unparsed;
/// * a bare LF may end a size or trailer line, but the bytes after chunk
///   data must be exactly CRLF.
pub struct BodyFraming {
    state: State,
    /// The chunk size being read, then the payload bytes left to move.
    left: u64,
    /// Hex digits of the chunk size read so far.
    digits: u8,
    /// Bytes the current size line or trailer section may still use.
    budget: usize,
}

fn bad_chunk(why: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why)
}

impl BodyFraming {
    /// Start framing a body of the given length.
    pub fn new(len: BodyLen) -> Self {
        let (state, left) = match len {
            BodyLen::None | BodyLen::Fixed(0) => (State::Done, 0),
            BodyLen::Fixed(n) => (State::Fixed, n),
            BodyLen::Chunked => (State::Size, 0),
            BodyLen::Close => (State::Close, 0),
        };
        BodyFraming { state, left, digits: 0, budget: MAX_SIZE_LINE }
    }

    /// Whether the body has been fully consumed (the underlying stream is
    /// positioned at the next message). `Close`-delimited bodies only reach
    /// this state once a read observes EOF.
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// Read body bytes from `inner` into `buf`, honouring the framing.
    /// `Ok(0)` (for non-empty `buf`) means the body is complete.
    pub fn read<R: BufRead>(&mut self, inner: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        while !self.is_done() {
            let ahead = self.payload_ahead();
            if ahead == 0 {
                let input = inner.fill_buf()?;
                if input.is_empty() {
                    return Err(closed_mid_body());
                }
                let n = self.scan(input)?;
                inner.consume(n);
                continue;
            }
            let want = ahead.min(buf.len() as u64) as usize;
            let n = inner.read(&mut buf[..want])?;
            if n > 0 {
                self.payload_moved(n);
                return Ok(n);
            }
            if self.state != State::Close {
                return Err(closed_mid_body());
            }
            self.state = State::Done;
        }
        Ok(0)
    }

    /// Decode as much of `input` as the framing allows, appending payload
    /// to `body`. Returns the bytes consumed: all of `input`, unless the
    /// body ends inside it and the rest belongs to the next message. A body
    /// not yet complete resumes with the next call's `input`.
    pub fn decode(&mut self, input: &[u8], body: &mut Vec<u8>) -> Result<usize, WireError> {
        let mut used = 0;
        while used < input.len() && !self.is_done() {
            let rest = &input[used..];
            used += match self.payload_ahead() {
                0 => self.scan(rest).map_err(wire_error_from_io)?,
                ahead => {
                    let n = ahead.min(rest.len() as u64) as usize;
                    body.extend_from_slice(&rest[..n]);
                    self.payload_moved(n);
                    n
                }
            };
        }
        Ok(used)
    }

    /// Payload bytes that come next, before any framing byte.
    fn payload_ahead(&self) -> u64 {
        match self.state {
            State::Close => u64::MAX,
            State::Fixed | State::Chunk => self.left,
            _ => 0,
        }
    }

    /// Record that the caller moved `n` payload bytes.
    fn payload_moved(&mut self, n: usize) {
        if matches!(self.state, State::Fixed | State::Chunk) {
            self.left -= n as u64;
            if self.left == 0 {
                self.state = if self.state == State::Chunk { State::DataCr } else { State::Done };
            }
        }
    }

    /// Consume framing bytes from the front of `input`, stopping where
    /// payload starts, where the body ends, or at the end of `input`.
    /// Returns the bytes consumed.
    fn scan(&mut self, input: &[u8]) -> std::io::Result<usize> {
        let mut used = 0;
        for &b in input {
            if self.is_done() || self.payload_ahead() > 0 {
                break;
            }
            if !matches!(self.state, State::DataCr | State::DataLf) {
                self.budget = self.budget.checked_sub(1).ok_or_else(|| {
                    bad_chunk(match self.state {
                        State::TrailerStart | State::Trailer | State::TrailerLf => {
                            "trailer section exceeds 8192 bytes"
                        }
                        _ => "chunk size line exceeds 1024 bytes",
                    })
                })?;
            }
            self.state = self.step(b)?;
            used += 1;
        }
        Ok(used)
    }

    /// The state after framing byte `b`.
    fn step(&mut self, b: u8) -> std::io::Result<State> {
        use State::*;
        Ok(match (self.state, b) {
            (DataCr, b'\r') => DataLf,
            (DataLf, b'\n') => {
                (self.digits, self.budget) = (0, MAX_SIZE_LINE);
                Size
            }
            (DataCr | DataLf, _) => return Err(bad_chunk("chunk data not followed by CRLF")),
            (Size, _) if b.is_ascii_hexdigit() => {
                if self.digits == MAX_SIZE_DIGITS {
                    return Err(bad_chunk("chunk size exceeds 16 hex digits"));
                }
                let digit = (b as char).to_digit(16).map_or(0, u64::from);
                (self.left, self.digits) = (self.left << 4 | digit, self.digits + 1);
                Size
            }
            (Size, _) if self.digits == 0 => return Err(bad_chunk("chunk size is not hex")),
            (Size | SizeWs, b' ' | b'\t') => SizeWs,
            (Size | SizeWs, b';') => Ext,
            (Ext, _) if b != b'\n' => Ext,
            (Size | SizeWs, b'\r') => SizeLf,
            (Size | SizeWs | Ext | SizeLf, b'\n') if self.left == 0 => {
                self.budget = MAX_TRAILERS;
                TrailerStart
            }
            (Size | SizeWs | Ext | SizeLf, b'\n') => Chunk,
            (TrailerStart | TrailerLf, b'\n') => Done,
            (TrailerStart, b'\r') => TrailerLf,
            (Trailer, b'\n') => TrailerStart,
            (TrailerStart | Trailer, _) => Trailer,
            _ => return Err(bad_chunk("invalid byte in chunk size line or trailers")),
        })
    }
}

fn closed_mid_body() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed mid-body")
}

/// Convert a framing-read error into the corresponding [`WireError`].
pub(crate) fn wire_error_from_io(e: std::io::Error) -> WireError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        WireError::UnexpectedEof
    } else if e.kind() == std::io::ErrorKind::InvalidData {
        WireError::BadChunk(e.to_string())
    } else {
        WireError::Io(e)
    }
}

/// A body reader that borrows a stream and enforces the message framing
/// (see [`BodyFraming`] for the state machine and boundary guarantees).
pub struct BodyReader<'a, R: BufRead> {
    inner: &'a mut R,
    framing: BodyFraming,
}

impl<'a, R: BufRead> BodyReader<'a, R> {
    /// Wrap `inner` for a body of the given length.
    pub fn new(inner: &'a mut R, len: BodyLen) -> Self {
        BodyReader { inner, framing: BodyFraming::new(len) }
    }

    /// Whether the body has been fully consumed.
    pub fn is_done(&self) -> bool {
        self.framing.is_done()
    }

    /// Read the whole body into a `Vec`.
    pub fn read_all(mut self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        Read::read_to_end(&mut self, &mut out).map_err(wire_error_from_io)?;
        Ok(out)
    }

    /// Consume and discard the rest of the body (so the connection can be
    /// reused). Returns the number of bytes drained.
    pub fn drain(mut self) -> Result<u64, WireError> {
        let mut sink = [0u8; 8192];
        let mut total = 0u64;
        loop {
            match Read::read(&mut self, &mut sink) {
                Ok(0) => return Ok(total),
                Ok(n) => total += n as u64,
                Err(e) => return Err(wire_error_from_io(e)),
            }
        }
    }
}

impl<R: BufRead> Read for BodyReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.framing.read(self.inner, buf)
    }
}

/// Writes a body using chunked transfer encoding. Call [`finish`] to emit the
/// terminating zero chunk.
///
/// [`finish`]: ChunkedWriter::finish
pub struct ChunkedWriter<W: Write> {
    w: W,
    finished: bool,
}

impl<W: Write> ChunkedWriter<W> {
    /// Wrap a sink.
    pub fn new(w: W) -> Self {
        ChunkedWriter { w, finished: false }
    }

    /// Emit the last-chunk marker and (empty) trailer section, returning the
    /// underlying writer.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.finished = true;
        Ok(self.w)
    }
}

impl<W: Write> Write for ChunkedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        // One chunk per write call: header, payload, CRLF.
        let mut head = [0u8; 18];
        let mut cursor = std::io::Cursor::new(&mut head[..]);
        write!(cursor, "{:x}\r\n", buf.len())?;
        let n = cursor.position() as usize;
        self.w.write_all(&head[..n])?;
        self.w.write_all(buf)?;
        self.w.write_all(b"\r\n")?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn req(s: &str) -> Result<Option<RequestHead>, WireError> {
        read_request_head(&mut Cursor::new(s.as_bytes().to_vec()))
    }

    #[test]
    fn parse_simple_request() {
        let r = req("GET /x?q=1 HTTP/1.1\r\nHost: h\r\nRange: bytes=0-9\r\n\r\n").unwrap().unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path(), "/x");
        assert_eq!(r.query(), Some("q=1"));
        assert_eq!(r.headers.get("host"), Some("h"));
    }

    #[test]
    fn eof_before_request_is_none() {
        assert!(req("").unwrap().is_none());
    }

    #[test]
    fn leading_blank_line_is_tolerated() {
        let r = req("\r\nGET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(r.method, Method::Get);
    }

    #[test]
    fn malformed_requests_rejected() {
        assert!(req("GET /\r\n\r\n").is_err());
        assert!(req("GET / HTTP/1.1 extra\r\n\r\n").is_err());
        assert!(req("GET / HTTP/3.0\r\n\r\n").is_err());
        assert!(req("GET / HTTP/1.1\r\nNoColonHere\r\n\r\n").is_err());
        assert!(req("GET / HTTP/1.1\r\nBad Header: x\r\n\r\n").is_err());
    }

    #[test]
    fn truncated_head_is_unexpected_eof() {
        let e = req("GET / HTTP/1.1\r\nHost: h").unwrap_err();
        assert!(matches!(e, WireError::UnexpectedEof));
    }

    #[test]
    fn parse_response_with_spaced_reason() {
        let mut c =
            Cursor::new(b"HTTP/1.1 206 Partial Content\r\nContent-Length: 3\r\n\r\nabc".to_vec());
        let r = read_response_head(&mut c).unwrap();
        assert_eq!(r.status, StatusCode::PARTIAL_CONTENT);
        assert_eq!(r.reason, "Partial Content");
        assert_eq!(r.headers.content_length(), Some(3));
    }

    #[test]
    fn parse_response_without_reason() {
        let mut c = Cursor::new(b"HTTP/1.1 404\r\n\r\n".to_vec());
        // The bare form "HTTP/1.1 404" lacks the trailing space; accept it.
        let r = read_response_head(&mut c).unwrap();
        assert_eq!(r.status, StatusCode::NOT_FOUND);
        assert_eq!(r.reason, "");
    }

    #[test]
    fn body_len_rules_for_responses() {
        let mk = |status: u16, cl: Option<&str>, te: Option<&str>| {
            let mut h = ResponseHead::new(StatusCode(status));
            if let Some(cl) = cl {
                h.headers.set("Content-Length", cl);
            }
            if let Some(te) = te {
                h.headers.set("Transfer-Encoding", te);
            }
            h
        };
        assert_eq!(response_body_len(&Method::Head, &mk(200, Some("10"), None)), BodyLen::None);
        assert_eq!(response_body_len(&Method::Get, &mk(204, None, None)), BodyLen::None);
        assert_eq!(response_body_len(&Method::Get, &mk(304, Some("9"), None)), BodyLen::None);
        assert_eq!(response_body_len(&Method::Get, &mk(200, Some("10"), None)), BodyLen::Fixed(10));
        assert_eq!(
            response_body_len(&Method::Get, &mk(200, None, Some("chunked"))),
            BodyLen::Chunked
        );
        assert_eq!(response_body_len(&Method::Get, &mk(200, None, None)), BodyLen::Close);
    }

    #[test]
    fn body_len_rules_for_requests() {
        let mk = |fields: &[(&str, &str)]| {
            let mut r = RequestHead::new(Method::Put, "/x");
            for (name, value) in fields {
                r.headers.append(name, *value);
            }
            request_body_len(&r)
        };
        let (cl, te) = ("Content-Length", "Transfer-Encoding");
        assert_eq!(mk(&[]).unwrap(), BodyLen::None);
        assert_eq!(mk(&[(cl, "5")]).unwrap(), BodyLen::Fixed(5));
        assert_eq!(mk(&[(cl, "5"), (cl, "5")]).unwrap(), BodyLen::Fixed(5));
        assert_eq!(mk(&[(cl, "5, 5")]).unwrap(), BodyLen::Fixed(5));
        assert!(mk(&[(cl, "bogus")]).is_err());
        assert!(mk(&[(cl, "5"), (cl, "6")]).is_err());
        assert!(mk(&[(cl, "5, 6")]).is_err());
        assert_eq!(mk(&[(te, "chunked")]).unwrap(), BodyLen::Chunked);
        assert_eq!(mk(&[(te, "gzip"), (te, "chunked")]).unwrap(), BodyLen::Chunked);
        assert!(mk(&[(te, "gzip")]).is_err());
        assert!(mk(&[(te, "chunked"), (te, "gzip")]).is_err());
        assert!(mk(&[(te, "chunked"), (cl, "5")]).is_err());
    }

    #[test]
    fn fixed_body_reader_stops_at_boundary() {
        let mut c = Cursor::new(b"hellorest".to_vec());
        let body = BodyReader::new(&mut c, BodyLen::Fixed(5)).read_all().unwrap();
        assert_eq!(body, b"hello");
        let mut rest = Vec::new();
        c.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"rest");
    }

    #[test]
    fn fixed_body_truncated_is_error() {
        let mut c = Cursor::new(b"he".to_vec());
        let err = BodyReader::new(&mut c, BodyLen::Fixed(5)).read_all().unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEof));
    }

    #[test]
    fn chunked_roundtrip() {
        let mut wire = Vec::new();
        {
            let mut w = ChunkedWriter::new(&mut wire);
            w.write_all(b"hello ").unwrap();
            w.write_all(b"world").unwrap();
            w.finish().unwrap();
        }
        let mut c = Cursor::new(wire);
        let body = BodyReader::new(&mut c, BodyLen::Chunked).read_all().unwrap();
        assert_eq!(body, b"hello world");
    }

    #[test]
    fn chunked_with_extensions_and_trailers() {
        let wire = b"5;ext=1\r\nhello\r\n0\r\nX-Trailer: v\r\n\r\nNEXT";
        let mut c = Cursor::new(wire.to_vec());
        let body = BodyReader::new(&mut c, BodyLen::Chunked).read_all().unwrap();
        assert_eq!(body, b"hello");
        let mut rest = Vec::new();
        c.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"NEXT", "reader must stop exactly after the trailer section");
    }

    #[test]
    fn chunked_bad_size_is_error() {
        let long_line = [b"5;".as_slice(), &[b'a'; 2000], b"\r\nhello\r\n0\r\n\r\n"].concat();
        for (wire, why) in
            [(&b"zz\r\nhello\r\n0\r\n\r\n"[..], "not hex"), (&long_line, "1024 bytes")]
        {
            let err = BodyReader::new(&mut Cursor::new(wire), BodyLen::Chunked).read_all();
            assert!(matches!(&err, Err(WireError::BadChunk(m)) if m.contains(why)), "{err:?}");
        }
    }

    #[test]
    fn chunked_missing_crlf_is_error() {
        let mut c = Cursor::new(b"5\r\nhelloXX0\r\n\r\n".to_vec());
        assert!(BodyReader::new(&mut c, BodyLen::Chunked).read_all().is_err());
    }

    #[test]
    fn close_delimited_reads_to_eof() {
        let mut c = Cursor::new(b"everything".to_vec());
        let body = BodyReader::new(&mut c, BodyLen::Close).read_all().unwrap();
        assert_eq!(body, b"everything");
    }

    #[test]
    fn drain_discards_remaining() {
        let mut c = Cursor::new(b"0123456789AFTER".to_vec());
        let drained = BodyReader::new(&mut c, BodyLen::Fixed(10)).drain().unwrap();
        assert_eq!(drained, 10);
        let mut rest = Vec::new();
        c.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"AFTER");
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut s = String::from("GET / HTTP/1.1\r\n");
        for i in 0..8000 {
            s.push_str(&format!("X-Header-{i}: {}\r\n", "v".repeat(32)));
        }
        s.push_str("\r\n");
        assert!(matches!(req(&s), Err(WireError::HeadTooLarge(_))));
    }
}
