//! `multipart/byteranges` — the response body format for multi-range GETs
//! (RFC 7233 §4.1, Appendix A).
//!
//! This is the wire format behind the paper's vectored I/O (§2.3): davix
//! packs many fragment reads into one `Range` header, and the server answers
//! with one `206` whose body interleaves `Content-Range`-labelled parts.

use crate::parse::wire_error_from_io;
use crate::{ContentRange, HeaderMap, WireError};
use std::io::{BufRead, Write};

/// The `Content-Type` a multi-range response must carry, minus the boundary
/// parameter.
pub const MULTIPART_BYTERANGES: &str = "multipart/byteranges";

/// Extract the `boundary` parameter from a `Content-Type` header value.
pub fn boundary_from_content_type(value: &str) -> Option<String> {
    let mut it = value.split(';');
    let mime = it.next()?.trim();
    if !mime.eq_ignore_ascii_case(MULTIPART_BYTERANGES) {
        return None;
    }
    for param in it {
        let (k, v) = param.split_once('=')?;
        if k.trim().eq_ignore_ascii_case("boundary") {
            let v = v.trim().trim_matches('"');
            if v.is_empty() {
                return None;
            }
            return Some(v.to_string());
        }
    }
    None
}

/// Serializer for a multipart/byteranges body.
///
/// The total body length is knowable up front (via [`MultipartWriter::part_overhead`]
/// and [`MultipartWriter::final_overhead`]), so servers can send
/// `Content-Length` instead of chunked encoding.
pub struct MultipartWriter<W: Write> {
    w: W,
    boundary: String,
}

impl<W: Write> MultipartWriter<W> {
    /// Start a body using `boundary`.
    pub fn new(w: W, boundary: &str) -> Self {
        MultipartWriter { w, boundary: boundary.to_string() }
    }

    /// Emit one part: delimiter, part headers, payload.
    pub fn write_part(
        &mut self,
        content_type: &str,
        range: ContentRange,
        data: &[u8],
    ) -> std::io::Result<()> {
        debug_assert_eq!(range.len(), data.len() as u64, "part length must match range");
        write!(self.w, "\r\n--{}\r\n", self.boundary)?;
        write!(self.w, "Content-Type: {content_type}\r\n")?;
        write!(self.w, "Content-Range: {range}\r\n\r\n")?;
        self.w.write_all(data)?;
        Ok(())
    }

    /// Emit the closing delimiter and return the sink.
    pub fn finish(mut self) -> std::io::Result<W> {
        write!(self.w, "\r\n--{}--\r\n", self.boundary)?;
        Ok(self.w)
    }

    /// Bytes of framing added per part *before* the payload, for a part with
    /// the given header values.
    pub fn part_overhead(boundary: &str, content_type: &str, range: ContentRange) -> u64 {
        // "\r\n--B\r\n" + "Content-Type: T\r\n" + "Content-Range: R\r\n\r\n"
        (4 + boundary.len()
            + 2
            + "Content-Type: ".len()
            + content_type.len()
            + 2
            + "Content-Range: ".len()
            + range.to_string().len()
            + 4) as u64
    }

    /// Bytes of the closing delimiter.
    pub fn final_overhead(boundary: &str) -> u64 {
        (4 + boundary.len() + 4) as u64
    }

    /// Exact body length of a multi-range response with the given parts.
    pub fn body_length(boundary: &str, content_type: &str, parts: &[ContentRange]) -> u64 {
        parts.iter().map(|r| Self::part_overhead(boundary, content_type, *r) + r.len()).sum::<u64>()
            + Self::final_overhead(boundary)
    }
}

/// One decoded part of a multipart/byteranges body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Part {
    /// Part headers (at least `Content-Range`).
    pub headers: HeaderMap,
    /// The byte range this part covers.
    pub range: ContentRange,
    /// Payload bytes (exactly `range.len()` of them).
    pub data: Vec<u8>,
}

/// Streaming reader for multipart/byteranges bodies.
///
/// Relies on each part carrying a `Content-Range` header (mandatory for
/// byteranges) to read payloads exactly, then verifies the delimiter.
pub struct MultipartReader<R: BufRead> {
    r: R,
    boundary: String,
    done: bool,
    started: bool,
    max_part_len: Option<u64>,
}

impl<R: BufRead> MultipartReader<R> {
    /// Decode the body available from `r` using `boundary`.
    pub fn new(r: R, boundary: &str) -> Self {
        MultipartReader {
            r,
            boundary: boundary.to_string(),
            done: false,
            started: false,
            max_part_len: None,
        }
    }

    /// Refuse parts whose `Content-Range` declares more than `limit` bytes.
    /// Part payloads are allocated from the length the *server* claims; a
    /// client that knows how many bytes it asked for should cap it so a
    /// lying header cannot force an enormous allocation.
    pub fn with_part_limit(mut self, limit: u64) -> Self {
        self.max_part_len = Some(limit);
        self
    }

    fn read_line(&mut self) -> Result<String, WireError> {
        let mut buf = Vec::with_capacity(80);
        let n = self.r.read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Err(WireError::UnexpectedEof);
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        String::from_utf8(buf)
            .map_err(|_| WireError::BadMultipart("non-UTF-8 part header".to_string()))
    }

    /// Next part, or `None` after the closing delimiter.
    pub fn next_part(&mut self) -> Result<Option<Part>, WireError> {
        if self.done {
            return Ok(None);
        }
        // Position on a delimiter line. Before the first part there may be a
        // preamble (we emit "\r\n" there; others may emit more).
        let delim = format!("--{}", self.boundary);
        let close = format!("--{}--", self.boundary);
        loop {
            let line = self.read_line()?;
            if line == close {
                self.done = true;
                return Ok(None);
            }
            if line == delim {
                break;
            }
            if self.started {
                return Err(WireError::BadMultipart(format!("expected boundary, got {line:?}")));
            }
            // otherwise: preamble line, skip
        }
        self.started = true;

        // Part headers until blank line.
        let mut headers = HeaderMap::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| WireError::BadMultipart(format!("bad part header {line:?}")))?;
            headers.append(name, value.trim());
        }
        let cr = headers
            .get("content-range")
            .ok_or_else(|| WireError::BadMultipart("part without Content-Range".to_string()))?;
        let range = ContentRange::parse(cr)?;
        if let Some(cap) = self.max_part_len {
            if range.len() > cap {
                return Err(WireError::BadMultipart(format!(
                    "part Content-Range {range} declares {} bytes, over the {cap}-byte limit",
                    range.len()
                )));
            }
        }
        // A transport failure stays `WireError::Io`, so callers can retry it.
        let mut data = vec![0u8; range.len() as usize];
        std::io::Read::read_exact(&mut self.r, &mut data).map_err(wire_error_from_io)?;
        // The CRLF after the payload belongs to the next delimiter.
        let mut crlf = [0u8; 2];
        std::io::Read::read_exact(&mut self.r, &mut crlf).map_err(wire_error_from_io)?;
        if &crlf != b"\r\n" {
            return Err(WireError::BadMultipart("payload not followed by CRLF".to_string()));
        }
        Ok(Some(Part { headers, range, data }))
    }

    /// Decode every part eagerly.
    pub fn read_all_parts(mut self) -> Result<Vec<Part>, WireError> {
        let mut parts = Vec::new();
        while let Some(p) = self.next_part()? {
            parts.push(p);
        }
        Ok(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const CT: &str = "application/octet-stream";

    fn build(parts: &[(u64, &[u8])], total: u64, boundary: &str) -> Vec<u8> {
        let mut w = MultipartWriter::new(Vec::new(), boundary);
        for (off, data) in parts {
            let range = ContentRange {
                first: *off,
                last: *off + data.len() as u64 - 1,
                total: Some(total),
            };
            w.write_part(CT, range, data).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_multiple_parts() {
        let body = build(&[(0, b"hello"), (100, b"world!"), (200, b"x")], 1000, "B0UND");
        let parts = MultipartReader::new(Cursor::new(body), "B0UND").read_all_parts().unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].data, b"hello");
        assert_eq!(parts[0].range, ContentRange { first: 0, last: 4, total: Some(1000) });
        assert_eq!(parts[1].data, b"world!");
        assert_eq!(parts[2].range.first, 200);
    }

    #[test]
    fn body_length_formula_is_exact() {
        let parts = [(0u64, &b"hello"[..]), (50, b"worlds")];
        let ranges: Vec<ContentRange> = parts
            .iter()
            .map(|(off, d)| ContentRange {
                first: *off,
                last: *off + d.len() as u64 - 1,
                total: Some(100),
            })
            .collect();
        let body = build(&[(0, b"hello"), (50, b"worlds")], 100, "XYZ");
        assert_eq!(body.len() as u64, MultipartWriter::<Vec<u8>>::body_length("XYZ", CT, &ranges));
    }

    #[test]
    fn binary_payload_containing_boundary_text_survives() {
        // Because parts are length-delimited by Content-Range, payload bytes
        // that *look like* a boundary must not confuse the reader.
        let evil = b"\r\n--EVIL\r\nnot a real boundary";
        let body = build(&[(10, evil)], 100, "EVIL");
        let parts = MultipartReader::new(Cursor::new(body), "EVIL").read_all_parts().unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].data, evil);
    }

    #[test]
    fn part_limit_rejects_oversized_declared_ranges() {
        // The payload allocation is sized by the *server's* Content-Range
        // claim; a capped reader must refuse before allocating.
        let body = build(&[(0, b"hello")], 100, "B");
        let err = MultipartReader::new(Cursor::new(body.clone()), "B")
            .with_part_limit(4)
            .read_all_parts()
            .unwrap_err();
        assert!(matches!(err, WireError::BadMultipart(_)));
        // At or under the limit decodes fine.
        let parts = MultipartReader::new(Cursor::new(body), "B")
            .with_part_limit(5)
            .read_all_parts()
            .unwrap();
        assert_eq!(parts[0].data, b"hello");
    }

    #[test]
    fn missing_content_range_is_error() {
        let body = b"\r\n--B\r\nContent-Type: text/plain\r\n\r\nabc\r\n--B--\r\n";
        let err =
            MultipartReader::new(Cursor::new(body.to_vec()), "B").read_all_parts().unwrap_err();
        assert!(matches!(err, WireError::BadMultipart(_)));
    }

    #[test]
    fn truncated_part_is_eof() {
        let mut body = build(&[(0, b"hello")], 10, "B");
        body.truncate(body.len() - 20);
        let err = MultipartReader::new(Cursor::new(body), "B").read_all_parts().unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEof));
    }

    #[test]
    fn empty_body_with_close_delimiter_only() {
        let w = MultipartWriter::new(Vec::new(), "B");
        let body = w.finish().unwrap();
        let parts = MultipartReader::new(Cursor::new(body), "B").read_all_parts().unwrap();
        assert!(parts.is_empty());
    }

    #[test]
    fn boundary_extraction_from_content_type() {
        assert_eq!(
            boundary_from_content_type("multipart/byteranges; boundary=abc123"),
            Some("abc123".to_string())
        );
        assert_eq!(
            boundary_from_content_type("Multipart/Byteranges; boundary=\"q q\""),
            Some("q q".to_string())
        );
        assert_eq!(boundary_from_content_type("text/plain; boundary=x"), None);
        assert_eq!(boundary_from_content_type("multipart/byteranges"), None);
        assert_eq!(boundary_from_content_type("multipart/byteranges; boundary="), None);
    }
}
