//! httpwire costs, measured by replaying the wire bytes a traced run
//! captured through the public parse, encode and multipart functions. A
//! message kind the traffic did not carry costs 0.

use crate::probe::Capture;
use davix_repro::httpwire::multipart::boundary_from_content_type;
use davix_repro::httpwire::{
    read_request_head, read_response_head, Method, MultipartReader, RequestHead,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long each replay loop runs at least.
const REPLAY_TIME: Duration = Duration::from_millis(40);

/// Per-operation costs of the httpwire layer.
#[derive(Debug, Default)]
pub struct WireCosts {
    pub response_head_parse_ns: f64,
    pub request_head_parse_ns: f64,
    pub request_head_encode_ns: f64,
    pub multipart_decode_ns_per_kib: f64,
    /// Distinct samples replayed: (response heads, request heads, multipart bodies).
    pub samples: (usize, usize, usize),
}

fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Messages found in the captured bytes of one connection.
#[derive(Default)]
struct Messages<'a> {
    request_heads: Vec<&'a [u8]>,
    response_heads: Vec<&'a [u8]>,
    /// `(boundary, body)` of each complete multipart/byteranges response.
    multipart: Vec<(String, &'a [u8])>,
}

/// Split one connection's captured bytes into messages. Stops at the first
/// message the capture cut short or that this replay cannot frame.
fn split<'a>(out: &'a [u8], inb: &'a [u8], m: &mut Messages<'a>) {
    let (mut out, mut inb) = (out, inb);
    let mut methods = Vec::new();
    while let Some(end) = head_end(out) {
        let Ok(Some(head)) = read_request_head(&mut &out[..end]) else { break };
        m.request_heads.push(&out[..end]);
        methods.push(head.method.clone());
        let body = head.headers.content_length().unwrap_or(0) as usize;
        if head.headers.contains("transfer-encoding") || end + body > out.len() {
            break;
        }
        out = &out[end + body..];
    }
    let mut methods = methods.into_iter();
    while let Some(end) = head_end(inb) {
        let Ok(head) = read_response_head(&mut &inb[..end]) else { break };
        m.response_heads.push(&inb[..end]);
        if head.status.0 == 100 {
            inb = &inb[end..];
            continue;
        }
        let Some(method) = methods.next() else { break };
        let body = match (method, head.headers.content_length()) {
            (Method::Head, _) => 0,
            (_, Some(n)) => n as usize,
            (_, None) => break,
        };
        if end + body > inb.len() {
            break;
        }
        if let Some(b) = head.headers.get("content-type").and_then(boundary_from_content_type) {
            m.multipart.push((b, &inb[end..end + body]));
        }
        inb = &inb[end + body..];
    }
}

/// Mean nanoseconds per item of `f` over `items`, looping for at least
/// [`REPLAY_TIME`]. `weight` gives each item's share of the unit (1 for
/// "per item", bytes/1024 for "per KiB").
fn mean_ns<T>(items: &[T], weight: impl Fn(&T) -> f64, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let per_round: f64 = items.iter().map(&weight).sum();
    let (t, mut rounds) = (Instant::now(), 0u64);
    while rounds < 3 || t.elapsed() < REPLAY_TIME {
        for item in items {
            f(item);
        }
        rounds += 1;
    }
    t.elapsed().as_nanos() as f64 / (rounds as f64 * per_round)
}

/// Replay the captured connections through httpwire.
pub fn replay(captures: &[Arc<Capture>]) -> WireCosts {
    let bytes: Vec<_> = captures
        .iter()
        .map(|c| {
            let out = c.outbound.lock().expect("capture lock poisoned").clone();
            let inb = c.inbound.lock().expect("capture lock poisoned").clone();
            (out, inb)
        })
        .collect();
    let mut m = Messages::default();
    for (out, inb) in &bytes {
        split(out, inb, &mut m);
    }

    let parsed: Vec<RequestHead> = m
        .request_heads
        .iter()
        .filter_map(|h| read_request_head(&mut &h[..]).ok().flatten())
        .collect();

    let mut buf = Vec::with_capacity(1024);
    WireCosts {
        response_head_parse_ns: mean_ns(
            &m.response_heads,
            |_| 1.0,
            |h| {
                black_box(read_response_head(&mut black_box(*h)).ok());
            },
        ),
        request_head_parse_ns: mean_ns(
            &m.request_heads,
            |_| 1.0,
            |h| {
                black_box(read_request_head(&mut black_box(*h)).ok());
            },
        ),
        request_head_encode_ns: mean_ns(
            &parsed,
            |_| 1.0,
            |h| {
                buf.clear();
                black_box(h).write_to(&mut buf).expect("writing to a Vec");
                black_box(&buf);
            },
        ),
        multipart_decode_ns_per_kib: mean_ns(
            &m.multipart,
            |(_, body)| body.len() as f64 / 1024.0,
            |(boundary, body)| {
                let parts = MultipartReader::new(black_box(*body), boundary).read_all_parts();
                black_box(parts.ok());
            },
        ),
        samples: (m.response_heads.len(), m.request_heads.len(), m.multipart.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use davix_repro::httpwire::{ContentRange, MultipartWriter};

    #[test]
    fn splits_a_ranged_exchange_and_a_multipart_reply() {
        let payload: Vec<u8> = (0..8192u32).map(|i| i as u8).collect();
        let boundary = "test-boundary";
        let mut w = MultipartWriter::new(Vec::new(), boundary);
        for first in (0..64u64).map(|i| i * 128) {
            let range = ContentRange { first, last: first + 63, total: Some(8192) };
            w.write_part("application/octet-stream", range, &payload[first as usize..][..64])
                .unwrap();
        }
        let body = w.finish().unwrap();
        let out = b"HEAD /f HTTP/1.1\r\nHost: h\r\n\r\n\
                    GET /f HTTP/1.1\r\nHost: h\r\nRange: bytes=0-1\r\n\r\n"
            .to_vec();
        let mut inb = b"HTTP/1.1 200 OK\r\nContent-Length: 8192\r\n\r\n".to_vec();
        inb.extend_from_slice(
            format!(
                "HTTP/1.1 206 Partial Content\r\nContent-Type: multipart/byteranges; \
                 boundary={boundary}\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        inb.extend_from_slice(&body);
        let mut m = Messages::default();
        split(&out, &inb, &mut m);
        assert_eq!(m.request_heads.len(), 2);
        assert_eq!(m.response_heads.len(), 2);
        assert_eq!(m.multipart.len(), 1);
        let parts = MultipartReader::new(m.multipart[0].1, boundary).read_all_parts().unwrap();
        assert_eq!(parts.len(), 64);
        let costs = replay(&[]);
        assert_eq!((costs.multipart_decode_ns_per_kib, costs.samples), (0.0, (0, 0, 0)));
    }
}
