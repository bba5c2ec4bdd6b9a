//! The four workloads. Each is a closed loop: a load thread sends its next
//! request only after the previous reply, so a slower stack receives less
//! load. Every operation checks its output and counts, not unwraps, its
//! errors.

use crate::check::{self, ExpectedJob};
use crate::probe::{Probe, TimedSource};
use crate::procfs::{self, ThreadSample};
use crate::rng::Rng;
use crate::stack::{Loopback, Sim};
use bytes::Bytes;
use davix_repro::davix::{DavFile, DavixClient, MetricsSnapshot, PreparedRequest};
use davix_repro::httpwire::StatusCode;
use davix_repro::ioapi::RandomAccess;
use davix_repro::netsim::{RealRuntime, Runtime};
use davix_repro::objstore::ObjectStore;
use davix_repro::rootio::{
    write_tree, AnalysisJob, Generator, JobReport, Schema, TreeCacheOptions, TreeReader,
    WriterOptions,
};
use davix_repro::testbed::paper_links;
use std::collections::BTreeMap;
use std::io::Read;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIB: usize = 1 << 20;
/// The object `random-reads` and `bulk-transfer` read.
const OBJECT: &str = "/data/object.bin";
const OBJECT_SIZE: usize = 64 * MIB;
const READ_SIZE: usize = 4096;
const PUT_SIZE: usize = 16 * MIB;
/// The analysis tree, as in the Fig. 4 experiment.
const TREE: &str = "/data/events.root";
const TREE_EVENTS: u64 = 12_000;
const CAL_CELLS: usize = 256;
const EVENTS_PER_BASKET: usize = 40;
const WINDOW_EVENTS: u64 = 120;
/// Simulated per-event CPU on the WAN: small, so I/O waits dominate.
const WAN_EVENT_CPU: Duration = Duration::from_micros(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    RandomReads,
    BulkTransfer,
    AnalysisLoopback,
    AnalysisWan,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::RandomReads, Kind::BulkTransfer, Kind::AnalysisLoopback, Kind::AnalysisWan];

    pub fn name(self) -> &'static str {
        match self {
            Kind::RandomReads => "random-reads",
            Kind::BulkTransfer => "bulk-transfer",
            Kind::AnalysisLoopback => "analysis-loopback",
            Kind::AnalysisWan => "analysis-wan",
        }
    }

    /// Load threads of the closed loop.
    pub fn threads(self) -> usize {
        match self {
            Kind::RandomReads => 2,
            _ => 1,
        }
    }

    pub fn is_analysis(self) -> bool {
        matches!(self, Kind::AnalysisLoopback | Kind::AnalysisWan)
    }

    /// Whether operation times are virtual (simulated clock) times.
    pub fn is_virtual(self) -> bool {
        self == Kind::AnalysisWan
    }
}

/// Counters one simulated job leaves behind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimJob {
    pub virtual_ns: u64,
    pub client: MetricsSnapshot,
    pub conns_created: u64,
    pub bytes_delivered: u64,
    pub clock_advances: u64,
    pub events_applied: u64,
    pub server_requests: u64,
    pub server_conns: u64,
    pub server_peak_open: u64,
}

/// What one operation did. Times are virtual on the WAN, real elsewhere.
#[derive(Debug, Default)]
struct Op {
    ok: bool,
    ns: u64,
    real_ns: u64,
    read_bytes: u64,
    read_ns: u64,
    put_bytes: u64,
    put_ns: u64,
    events: u64,
    windows: u64,
    sim: Option<SimJob>,
    /// Per-group CPU spent during the op (WAN jobs, traced only).
    cpu_us: BTreeMap<&'static str, u64>,
    error: Option<String>,
}

/// The accumulated result of one measured window.
#[derive(Debug, Default)]
pub struct Window {
    pub threads: usize,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Duration of each successful operation.
    pub op_ns: Vec<u64>,
    pub real_ns: u64,
    pub read_bytes: u64,
    pub read_ns: u64,
    pub put_bytes: u64,
    pub put_ns: u64,
    pub events: u64,
    pub windows: u64,
    pub sim_jobs: Vec<SimJob>,
    /// Client counters over the window (summed over clients on the WAN).
    pub client: MetricsSnapshot,
    /// Server counters: requests in the window, and connections, requests
    /// and peak open connections over the server's life.
    pub server_window_requests: u64,
    pub server_life: (u64, u64, u64),
    pub cpu_us: BTreeMap<&'static str, u64>,
    pub process_cpu_us: u64,
    pub threads_peak: usize,
}

impl Window {
    fn add(&mut self, op: Op) {
        self.attempted += 1;
        self.real_ns += op.real_ns;
        for (g, us) in op.cpu_us {
            *self.cpu_us.entry(g).or_insert(0) += us;
        }
        if !op.ok {
            self.failed += 1;
            if let Some(e) = op.error {
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
            }
            return;
        }
        self.op_ns.push(op.ns);
        self.read_bytes += op.read_bytes;
        self.read_ns += op.read_ns;
        self.put_bytes += op.put_bytes;
        self.put_ns += op.put_ns;
        self.events += op.events;
        self.windows += op.windows;
        self.sim_jobs.extend(op.sim);
    }

    /// Fold in another window's operations. The counters `measure` samples
    /// around a window (client, server, CPU, threads) are not merged.
    pub fn merge(&mut self, other: Window) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.op_ns.extend(other.op_ns);
        self.real_ns += other.real_ns;
        self.read_bytes += other.read_bytes;
        self.read_ns += other.read_ns;
        self.put_bytes += other.put_bytes;
        self.put_ns += other.put_ns;
        self.events += other.events;
        self.windows += other.windows;
        self.sim_jobs.extend(other.sim_jobs);
        for (g, us) in other.cpu_us {
            *self.cpu_us.entry(g).or_insert(0) += us;
        }
    }

    /// Successful operations.
    pub fn ops(&self) -> u64 {
        self.op_ns.len() as u64
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn traced<T>(probe: Option<&Arc<Probe>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match probe {
        Some(p) => p.span(name, f),
        None => f(),
    }
}

fn failed(error: String) -> Op {
    Op { error: Some(error), ..Op::default() }
}

/// The seeded inputs of a workload. Only these reach the program.
pub struct Inputs {
    /// The object (`random-reads`, `bulk-transfer`) or the tree file.
    pub payload: Bytes,
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let payload = match kind {
            Kind::RandomReads | Kind::BulkTransfer => Rng::new(seed).bytes(OBJECT_SIZE),
            Kind::AnalysisLoopback | Kind::AnalysisWan => write_tree(
                &mut Generator::new(Schema::hep(CAL_CELLS), seed),
                TREE_EVENTS,
                &WriterOptions { events_per_basket: EVENTS_PER_BASKET, compress: true },
            ),
        };
        Inputs { payload: Bytes::from(payload) }
    }
}

/// The reference outputs of one seed, computed once per run, outside any
/// set-up, and without the program under test (see `check`).
pub struct Checks {
    job: Option<ExpectedJob>,
}

impl Checks {
    pub fn new(kind: Kind, seed: u64) -> Result<Checks, String> {
        check::library_checksums_agree(&Rng::new(seed).bytes(MIB))?;
        let job = kind.is_analysis().then(|| {
            let generator = Generator::new(Schema::hep(CAL_CELLS), seed);
            ExpectedJob::generate(generator, TREE_EVENTS, EVENTS_PER_BASKET, WINDOW_EVENTS)
        });
        Ok(Checks { job })
    }
}

/// A started workload: the stack plus the reference outputs to check
/// against.
pub struct Workload {
    kind: Kind,
    inputs: Arc<Inputs>,
    checks: Arc<Checks>,
    probe: Option<Arc<Probe>>,
    /// The server's namespace, filled once from the inputs.
    store: Arc<ObjectStore>,
    loopback: Option<Loopback>,
    /// `random-reads` keeps one open file for all reads.
    file: Option<DavFile>,
}

fn analysis_cache() -> TreeCacheOptions {
    TreeCacheOptions { window_events: WINDOW_EVENTS, enabled: true, prefetch: false }
}

/// One analysis job as a user runs it: open the file, open the tree, loop
/// over every event. Returns the report and the payload bytes read.
fn analysis_job(
    client: &DavixClient,
    url: &str,
    rt: &Arc<dyn Runtime>,
    per_event_cpu: Duration,
    probe: Option<&Arc<Probe>>,
) -> Result<(JobReport, u64), String> {
    let file = traced(probe, "davix.open", || client.open(url)).map_err(|e| e.to_string())?;
    let file = Arc::new(file);
    let source: Arc<dyn RandomAccess> = match probe {
        Some(p) => Arc::new(TimedSource { inner: file.clone(), probe: Arc::clone(p) }),
        None => file.clone(),
    };
    let reader = Arc::new(TreeReader::open(source).map_err(|e| e.to_string())?);
    let job = AnalysisJob { per_event_cpu, ..AnalysisJob::default() };
    let report = job.run(reader, analysis_cache(), rt).map_err(|e| e.to_string())?;
    Ok((report, file.io_stats().bytes_read))
}

impl Workload {
    /// Fill the store, start the server and client, and make the first
    /// connection. This is what `setup_s` times, together with input
    /// generation.
    pub fn start(
        kind: Kind,
        inputs: Arc<Inputs>,
        checks: Arc<Checks>,
        probe: Option<Arc<Probe>>,
    ) -> Result<Workload, String> {
        let store = Arc::new(ObjectStore::new());
        let path = if kind.is_analysis() { TREE } else { OBJECT };
        store.put(path, inputs.payload.clone());
        let mut w = Workload { kind, inputs, checks, probe, store, loopback: None, file: None };
        let p = w.probe.as_ref();
        if kind == Kind::AnalysisWan {
            // Each WAN job builds its own network, server and client. Set-up
            // starts one the same way and makes its first connection, to
            // check the stack starts; no job uses it.
            let sim = Sim::start(&w.store, wan_link(), p)
                .map_err(|e| format!("start simulated server: {e}"))?;
            sim.client().posix().stat(&sim.url(TREE)).map_err(|e| format!("stat: {e}"))?;
            return Ok(w);
        }
        let lb = Loopback::start(&w.store, p).map_err(|e| format!("start server: {e}"))?;
        if kind.is_analysis() {
            lb.client.posix().stat(&lb.url(TREE)).map_err(|e| format!("stat: {e}"))?;
        } else {
            let file = lb.client.open(&lb.url(OBJECT)).map_err(|e| format!("open: {e}"))?;
            w.file = Some(file);
        }
        w.loopback = Some(lb);
        Ok(w)
    }

    /// The workload's generated input bytes.
    pub fn payload(&self) -> Bytes {
        self.inputs.payload.clone()
    }

    fn client_snapshot(&self) -> MetricsSnapshot {
        self.loopback.as_ref().map(|lb| lb.client.metrics()).unwrap_or_default()
    }

    fn server_counts(&self) -> (u64, u64, u64) {
        self.loopback.as_ref().map_or((0, 0, 0), |lb| {
            let s = lb.server.stats();
            let (conns, reqs) = s.snapshot();
            (conns, reqs, s.peak_open.load(std::sync::atomic::Ordering::Relaxed))
        })
    }

    /// Run the closed loop for `seconds` and account every operation.
    /// `sample_threads` polls the thread count while the loop runs.
    pub fn measure(&self, seconds: f64, seed: u64, sample_threads: bool) -> Window {
        let threads = self.kind.threads();
        let client0 = self.client_snapshot();
        let server0 = self.server_counts();
        let tasks0 = ThreadSample::take();
        let cpu0 = procfs::process_cpu_us();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut threads_peak = tasks0.len();

        let mut window = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    std::thread::Builder::new()
                        .name(format!("load-{i}"))
                        .spawn_scoped(s, move || self.load_thread(i, seed, deadline))
                        .expect("spawn load thread")
                })
                .collect();
            if sample_threads {
                while !handles.iter().all(|h| h.is_finished()) {
                    threads_peak = threads_peak.max(ThreadSample::take().len());
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            let mut total = Window::default();
            for h in handles {
                total.merge(h.join().expect("load thread panicked"));
            }
            total
        });

        window.threads = threads;
        window.process_cpu_us = procfs::process_cpu_us().saturating_sub(cpu0);
        for (g, us) in ThreadSample::take().cpu_us_since(&tasks0) {
            *window.cpu_us.entry(g).or_insert(0) += us;
        }
        window.threads_peak = threads_peak;
        if self.kind == Kind::AnalysisWan {
            for j in &window.sim_jobs {
                add_snapshot(&mut window.client, &j.client);
            }
            window.server_window_requests = window.sim_jobs.iter().map(|j| j.server_requests).sum();
            window.server_life = (
                window.sim_jobs.iter().map(|j| j.server_conns).sum(),
                window.server_window_requests,
                window.sim_jobs.iter().map(|j| j.server_peak_open).max().unwrap_or(0),
            );
        } else {
            window.client = self.client_snapshot().since(&client0);
            let server1 = self.server_counts();
            window.server_window_requests = server1.1 - server0.1;
            window.server_life = server1;
        }
        window
    }

    /// One load thread: operations until the deadline. Its own CPU time is
    /// read here, since the thread is gone when the caller samples.
    fn load_thread(&self, index: usize, seed: u64, deadline: Instant) -> Window {
        let cpu0 = procfs::thread_cpu_us();
        let mut rng = Rng::new(seed ^ (index as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        let mut buf = self.read_buffer();
        let mut w = Window::default();
        while Instant::now() < deadline {
            let op = match self.kind {
                Kind::RandomReads => self.random_read(&mut rng, &mut buf),
                Kind::BulkTransfer => self.bulk_round(index, &mut rng, &mut buf),
                Kind::AnalysisLoopback => self.loopback_job(),
                Kind::AnalysisWan => self.wan_job(),
            };
            w.add(op);
        }
        w.cpu_us.insert("load", procfs::thread_cpu_us().saturating_sub(cpu0));
        w
    }

    /// A buffer for one read, written once so that first-touch page faults
    /// stay out of the timed reads.
    fn read_buffer(&self) -> Vec<u8> {
        vec![0xA5; if self.kind == Kind::BulkTransfer { OBJECT_SIZE } else { READ_SIZE }]
    }

    /// Run a few operations untimed, so pools and lazy set-up are warm.
    pub fn warm_up(&self, seed: u64) -> Result<(), String> {
        let ops = match self.kind {
            Kind::RandomReads => 2000,
            Kind::BulkTransfer | Kind::AnalysisLoopback => 1,
            Kind::AnalysisWan => 0,
        };
        let mut rng = Rng::new(!seed);
        let mut buf = self.read_buffer();
        for _ in 0..ops {
            let op = match self.kind {
                Kind::RandomReads => self.random_read(&mut rng, &mut buf),
                Kind::BulkTransfer => self.bulk_round(0, &mut rng, &mut buf),
                _ => self.loopback_job(),
            };
            if !op.ok {
                return Err(format!("warm-up: {}", op.error.unwrap_or_default()));
            }
        }
        Ok(())
    }

    fn random_read(&self, rng: &mut Rng, buf: &mut [u8]) -> Op {
        let file = self.file.as_ref().expect("random-reads keeps its file open");
        let off = rng.below((OBJECT_SIZE - READ_SIZE) as u64);
        let t = Instant::now();
        let r = traced(self.probe.as_ref(), "davix.pread", || file.pread(off, buf));
        let ns = ns_since(t);
        let expect = &self.inputs.payload[off as usize..off as usize + READ_SIZE];
        match r {
            Ok(n) if n == READ_SIZE && buf[..] == expect[..] => Op {
                ok: true,
                ns,
                real_ns: ns,
                read_bytes: READ_SIZE as u64,
                read_ns: ns,
                ..Op::default()
            },
            Ok(n) => failed(format!("pread at {off}: {n} bytes, content mismatch or short")),
            Err(e) => failed(format!("pread at {off}: {e}")),
        }
    }

    /// GET the whole object into `buf`, then PUT a 16 MiB slice of it.
    fn bulk_round(&self, index: usize, rng: &mut Rng, buf: &mut [u8]) -> Op {
        let lb = self.loopback.as_ref().expect("bulk-transfer runs on loopback");
        let probe = self.probe.as_ref();
        let url = lb.url(OBJECT);
        let t = Instant::now();
        let got = traced(probe, "davix.get", || -> Result<(), String> {
            let uri = lb.client.parse_url(&url).map_err(|e| e.to_string())?;
            let req = PreparedRequest::get(uri);
            let mut resp =
                lb.client.executor().execute_streaming(&req).map_err(|e| e.to_string())?;
            if resp.status() != StatusCode::OK {
                return Err(format!("GET status {}", resp.status()));
            }
            resp.read_exact(buf).map_err(|e| e.to_string())?;
            if resp.read(&mut [0u8; 1]).map_err(|e| e.to_string())? != 0 {
                return Err("GET body longer than the object".to_string());
            }
            resp.finish();
            Ok(())
        });
        let get_ns = ns_since(t);
        if let Err(e) = got {
            return failed(format!("get: {e}"));
        }
        if buf[..] != self.inputs.payload[..] {
            return failed("get: content mismatch".to_string());
        }

        let off = rng.below((OBJECT_SIZE - PUT_SIZE + 1) as u64) as usize;
        let body = self.inputs.payload.slice(off..off + PUT_SIZE);
        let path = format!("/data/put-{index}.bin");
        let put_url = lb.url(&path);
        let t = Instant::now();
        let put =
            traced(probe, "davix.put_stream", || lb.client.posix().put_stream(&put_url, &body));
        let put_ns = ns_since(t);
        if let Err(e) = put {
            return failed(format!("put: {e}"));
        }
        // The stored bytes must be the body, and the store's checksums those
        // the benchmark computes itself.
        let Some(meta) = self.store.get(&path) else {
            return failed(format!("put: {path} missing after success"));
        };
        if meta.data[..] != body[..] {
            return failed(format!("put: stored {} bytes differ from the body", meta.data.len()));
        }
        let (crc, adler) = (check::crc32(&body), check::adler32(&body));
        if (meta.crc32, meta.adler32) != (crc, adler) {
            return failed(format!(
                "put: stored crc32 {:08x} adler32 {:08x}, expected {crc:08x} {adler:08x}",
                meta.crc32, meta.adler32
            ));
        }
        Op {
            ok: true,
            ns: get_ns + put_ns,
            real_ns: get_ns + put_ns,
            read_bytes: OBJECT_SIZE as u64,
            read_ns: get_ns,
            put_bytes: PUT_SIZE as u64,
            put_ns,
            ..Op::default()
        }
    }

    fn check_job(&self, r: Result<(JobReport, u64), String>) -> Result<(JobReport, u64), String> {
        let (report, bytes) = r?;
        let expected = self.checks.job.as_ref().expect("analysis checks are computed");
        match expected.differs(&report) {
            Some(e) => Err(e),
            None => Ok((report, bytes)),
        }
    }

    fn loopback_job(&self) -> Op {
        let lb = self.loopback.as_ref().expect("analysis-loopback runs on loopback");
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let url = lb.url(TREE);
        let probe = self.probe.as_ref();
        let t = Instant::now();
        let r =
            traced(probe, "op.job", || analysis_job(&lb.client, &url, &rt, Duration::ZERO, probe));
        let ns = ns_since(t);
        match self.check_job(r) {
            Ok((report, bytes)) => Op {
                ok: true,
                ns,
                real_ns: ns,
                read_bytes: bytes,
                read_ns: ns,
                events: report.events_processed,
                windows: report.windows_loaded,
                ..Op::default()
            },
            Err(e) => failed(format!("job: {e}")),
        }
    }

    /// One job on a fresh simulated network, so every job starts from the
    /// same state and its virtual time is reproducible.
    fn wan_job(&self) -> Op {
        let probe = self.probe.as_ref();
        let real = Instant::now();
        let tasks0 = probe.map(|_| ThreadSample::take());
        let sim = match Sim::start(&self.store, wan_link(), probe) {
            Ok(s) => s,
            Err(e) => return failed(format!("start simulated server: {e}")),
        };
        let url = sim.url(TREE);
        let v0 = sim.net.now();
        let r = traced(probe, "op.job", || {
            analysis_job(sim.client(), &url, &sim.rt, WAN_EVENT_CPU, probe)
        });
        let virtual_ns = (sim.net.now() - v0).as_nanos() as u64;
        let net = sim.net.stats();
        let sched = sim.net.sched_stats();
        let client = sim.client().metrics();
        let stats = sim.server.stats();
        let (server_conns, server_requests) = stats.snapshot();
        let mut cpu_us =
            tasks0.map(|t0| ThreadSample::take().cpu_us_since(&t0)).unwrap_or_default();
        // The load thread reports its own CPU for the whole window.
        cpu_us.remove("load");
        let job = SimJob {
            virtual_ns,
            client,
            conns_created: net.conns_created,
            bytes_delivered: net.bytes_delivered,
            clock_advances: sched.clock_advances,
            events_applied: sched.events_applied,
            server_requests,
            server_conns,
            server_peak_open: stats.peak_open.load(std::sync::atomic::Ordering::Relaxed),
        };
        drop(sim);
        let real_ns = ns_since(real);
        match self.check_job(r) {
            Ok((report, bytes)) => Op {
                ok: true,
                ns: virtual_ns,
                real_ns,
                read_bytes: bytes,
                read_ns: virtual_ns,
                events: report.events_processed,
                windows: report.windows_loaded,
                sim: Some(job),
                cpu_us,
                ..Op::default()
            },
            Err(e) => Op { real_ns, cpu_us, error: Some(format!("job: {e}")), ..Op::default() },
        }
    }
}

/// Sum the client counters this benchmark reads; the buffer peak is a
/// high-water mark, so it takes the larger.
fn add_snapshot(total: &mut MetricsSnapshot, s: &MetricsSnapshot) {
    total.requests += s.requests;
    total.retries += s.retries;
    total.sessions_created += s.sessions_created;
    total.sessions_reused += s.sessions_reused;
    total.vectored_requests += s.vectored_requests;
    total.bytes_in += s.bytes_in;
    total.peak_body_buffer = total.peak_body_buffer.max(s.peak_body_buffer);
}

/// The USA(BNL)↔CERN link of the paper's Fig. 4, at full bandwidth.
fn wan_link() -> davix_repro::netsim::LinkSpec {
    paper_links(1.0).into_iter().nth(2).expect("paper_links has three links").1
}
