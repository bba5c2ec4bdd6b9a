//! Tracing for the traced run: spans recorded around the benchmark's own
//! calls into each layer, plus wrappers around the public seams of the
//! stack (a `Connector`, an `httpd::Handler` and an `ioapi::RandomAccess`).
//!
//! Nothing here is inside the program under test: every wrapper forwards to
//! the real implementation and only observes. Spans are kept in memory and
//! written out once, when the run ends.

use crate::rng::Rng;
use davix_repro::httpd::{Handler, Request, Response};
use davix_repro::httpwire::Method;
use davix_repro::ioapi::{IoStatsSnapshot, RandomAccess};
use davix_repro::netsim::{BoxedStream, Connector, Pollable, Signal, Stream};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Spans kept for the span file; later ones are counted as dropped. The
/// metrics do not depend on this cap: every span also goes into the
/// [`SpanStats`] of its name.
const SPAN_CAP: usize = 500_000;
/// Durations sampled per span name for percentiles.
const RESERVOIR: usize = 100_000;
/// Connections whose wire bytes are captured for the httpwire replay.
const CAPTURE_CONNS: usize = 8;
/// Bytes captured per connection and direction.
const CAPTURE_BYTES: usize = 4 << 20;

/// One timed interval. `parent` is 0 for a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Every span of one name: its count and total time, and a uniform sample
/// of its durations (reservoir sampling) for percentiles.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    pub count: u64,
    pub sum_ns: u64,
    pub sample_ns: Vec<u64>,
}

impl SpanStats {
    fn record(&mut self, ns: u64, rng: &mut Rng) {
        self.count += 1;
        self.sum_ns += ns;
        if self.sample_ns.len() < RESERVOIR {
            self.sample_ns.push(ns);
        } else {
            let slot = rng.below(self.count) as usize;
            if slot < RESERVOIR {
                self.sample_ns[slot] = ns;
            }
        }
    }
}

/// What the span recorder holds, under one lock.
struct Recorded {
    spans: Vec<Span>,
    dropped: u64,
    stats: BTreeMap<&'static str, SpanStats>,
    rng: Rng,
}

thread_local! {
    /// The innermost open span on this thread (0 = none).
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

/// Wire bytes of one client connection, in each direction.
#[derive(Default)]
pub struct Capture {
    pub inbound: Mutex<Vec<u8>>,
    pub outbound: Mutex<Vec<u8>>,
}

fn capture_into(buf: &Mutex<Vec<u8>>, bytes: &[u8]) {
    let mut buf = buf.lock().expect("capture lock poisoned");
    let room = CAPTURE_BYTES.saturating_sub(buf.len());
    buf.extend_from_slice(&bytes[..bytes.len().min(room)]);
}

/// Everything one traced run records.
pub struct Probe {
    epoch: Instant,
    next_id: AtomicU32,
    recorded: Mutex<Recorded>,
    /// Client stream `read` calls and the time spent inside them.
    pub reads: AtomicU64,
    pub read_ns: AtomicU64,
    /// Client stream `write` calls and the time spent inside them.
    pub writes: AtomicU64,
    pub write_ns: AtomicU64,
    /// Request bodies the server's PUT handler received.
    pub put_bytes: AtomicU64,
    captures: Mutex<Vec<Arc<Capture>>>,
}

impl Probe {
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            recorded: Mutex::new(Recorded {
                spans: Vec::with_capacity(SPAN_CAP),
                dropped: 0,
                stats: BTreeMap::new(),
                rng: Rng::new(0x5eed),
            }),
            reads: AtomicU64::new(0),
            read_ns: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_ns: AtomicU64::new(0),
            put_bytes: AtomicU64::new(0),
            captures: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of this thread's open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Relaxed) + 1;
        let parent = CURRENT.with(|c| c.replace(id));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(parent));
        let mut rec = self.recorded.lock().expect("span lock poisoned");
        let Recorded { spans, dropped, stats, rng } = &mut *rec;
        stats.entry(name).or_default().record(end_ns - start_ns, rng);
        if spans.len() < SPAN_CAP {
            spans.push(Span { id, parent, name, start_ns, end_ns });
        } else {
            *dropped += 1;
        }
        out
    }

    /// Forget spans and counters recorded so far (after a warm-up). Wire
    /// captures are kept: they only feed the replay.
    pub fn reset(&self) {
        let mut rec = self.recorded.lock().expect("span lock poisoned");
        rec.spans.clear();
        rec.dropped = 0;
        rec.stats.clear();
        drop(rec);
        for c in [&self.reads, &self.read_ns, &self.writes, &self.write_ns, &self.put_bytes] {
            c.store(0, Relaxed);
        }
    }

    /// Every span, by name, whether or not the span file kept it.
    pub fn span_stats(&self) -> BTreeMap<&'static str, SpanStats> {
        self.recorded.lock().expect("span lock poisoned").stats.clone()
    }

    /// Spans kept for the span file, and spans past its cap.
    pub fn kept_and_dropped(&self) -> (usize, u64) {
        let rec = self.recorded.lock().expect("span lock poisoned");
        (rec.spans.len(), rec.dropped)
    }

    /// Captured connections, in connect order.
    pub fn captures(&self) -> Vec<Arc<Capture>> {
        self.captures.lock().expect("capture lock poisoned").clone()
    }

    fn new_capture(&self) -> Option<Arc<Capture>> {
        let mut all = self.captures.lock().expect("capture lock poisoned");
        (all.len() < CAPTURE_CONNS).then(|| {
            let c = Arc::new(Capture::default());
            all.push(Arc::clone(&c));
            c
        })
    }

    /// Write the kept spans as tab-separated `id parent name start_ns end_ns`.
    pub fn write_spans(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in self.recorded.lock().expect("span lock poisoned").spans.iter() {
            writeln!(out, "{}\t{}\t{}\t{}\t{}", s.id, s.parent, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A `Connector` whose streams time every `read` and `write` and capture
/// the bytes of the first few connections.
pub struct TimedConnector {
    pub inner: Arc<dyn Connector>,
    pub probe: Arc<Probe>,
}

impl Connector for TimedConnector {
    fn connect(&self, host: &str, port: u16, timeout: Option<Duration>) -> io::Result<BoxedStream> {
        let inner = self.inner.connect(host, port, timeout)?;
        Ok(Box::new(TimedStream {
            inner,
            probe: Arc::clone(&self.probe),
            capture: self.probe.new_capture(),
        }))
    }
}

struct TimedStream {
    inner: BoxedStream,
    probe: Arc<Probe>,
    capture: Option<Arc<Capture>>,
}

impl Read for TimedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let t = Instant::now();
        let r = self.inner.read(buf);
        self.probe.read_ns.fetch_add(elapsed_ns(t), Relaxed);
        self.probe.reads.fetch_add(1, Relaxed);
        if let (Ok(n), Some(c)) = (&r, &self.capture) {
            capture_into(&c.inbound, &buf[..*n]);
        }
        r
    }
}

impl Write for TimedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let t = Instant::now();
        let r = self.inner.write(buf);
        self.probe.write_ns.fetch_add(elapsed_ns(t), Relaxed);
        self.probe.writes.fetch_add(1, Relaxed);
        if let (Ok(n), Some(c)) = (&r, &self.capture) {
            capture_into(&c.outbound, &buf[..*n]);
        }
        r
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Pollable for TimedStream {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.try_read(buf)
    }

    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.try_write(buf)
    }

    fn set_waker(&mut self, waker: Option<Arc<dyn Signal>>) -> io::Result<()> {
        self.inner.set_waker(waker)
    }

    fn poll_fd(&self) -> Option<i32> {
        self.inner.poll_fd()
    }
}

impl Stream for TimedStream {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }

    fn try_clone(&self) -> io::Result<BoxedStream> {
        Ok(Box::new(TimedStream {
            inner: self.inner.try_clone()?,
            probe: Arc::clone(&self.probe),
            capture: self.capture.clone(),
        }))
    }

    fn shutdown_write(&mut self) -> io::Result<()> {
        self.inner.shutdown_write()
    }
}

/// An `httpd::Handler` that times the storage handler per method.
pub struct TimedHandler {
    pub inner: Arc<dyn Handler>,
    pub probe: Arc<Probe>,
}

impl Handler for TimedHandler {
    fn handle(&self, req: Request) -> Response {
        let name = match req.head.method {
            Method::Get => "objstore.get",
            Method::Put => {
                self.probe.put_bytes.fetch_add(req.body.len() as u64, Relaxed);
                "objstore.put"
            }
            Method::Head => "objstore.head",
            _ => "objstore.other",
        };
        self.probe.span(name, || self.inner.handle(req))
    }
}

/// An `ioapi::RandomAccess` under `TreeReader` that times every read and
/// forwards everything else unchanged, prefetch included.
pub struct TimedSource {
    pub inner: Arc<dyn RandomAccess>,
    pub probe: Arc<Probe>,
}

impl RandomAccess for TimedSource {
    fn size(&self) -> io::Result<u64> {
        self.inner.size()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.probe.span("davix.read_at", || self.inner.read_at(offset, buf))
    }

    fn read_vec(&self, fragments: &[(u64, usize)]) -> io::Result<Vec<Vec<u8>>> {
        self.probe.span("davix.read_vec", || self.inner.read_vec(fragments))
    }

    fn prefetch_vec(&self, fragments: &[(u64, usize)]) {
        self.inner.prefetch_vec(fragments)
    }

    fn supports_prefetch(&self) -> bool {
        self.inner.supports_prefetch()
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_on_one_thread() {
        let p = Probe::new();
        p.span("outer", || p.span("inner", || ()));
        let spans = p.recorded.lock().unwrap().spans.clone();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (spans[0], spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn stats_count_every_span_and_sample_at_most_the_reservoir() {
        let (mut st, mut rng) = (SpanStats::default(), Rng::new(1));
        for ns in 1..=(RESERVOIR as u64 + 5000) {
            st.record(ns, &mut rng);
        }
        assert_eq!(st.count, RESERVOIR as u64 + 5000);
        assert_eq!(st.sum_ns, st.count * (st.count + 1) / 2);
        assert_eq!(st.sample_ns.len(), RESERVOIR);
        assert!(st.sample_ns.iter().any(|&ns| ns > RESERVOIR as u64), "late spans are sampled");
    }

    #[test]
    fn capture_stops_at_its_cap() {
        let c = Capture::default();
        capture_into(&c.inbound, &vec![1u8; CAPTURE_BYTES - 3]);
        capture_into(&c.inbound, &[2u8; 10]);
        assert_eq!(c.inbound.lock().unwrap().len(), CAPTURE_BYTES);
    }
}
