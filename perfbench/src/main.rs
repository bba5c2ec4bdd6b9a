//! perfbench: one workload of the davix stack, measured end to end or, with
//! `--trace 1`, layer by layer. See README.md for the workloads and for
//! which layer metric should move which end-to-end metric.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload random-reads --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! The lines before it give every metric by name with its unit, the seed and
//! the failure counts. Any wrong byte, wrong checksum, wrong histogram or
//! failed operation makes `correct` false and the exit code 1.

mod check;
mod probe;
mod procfs;
mod rng;
mod stack;
mod wire;
mod workloads;

use probe::{Probe, SpanStats};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{Checks, Inputs, Kind, Window, Workload};

const USAGE: &str = "usage: perfbench --workload <random-reads|bulk-transfer|analysis-loopback|\
                     analysis-wan> --seed <u64> --seconds <n> --trace <0|1>";
/// Measured segments per untraced run. Each starts with a full set-up, so
/// where the threads land on the cores is drawn anew each time and the
/// set-ups sample the whole run. The run reports the median over its
/// segments, and `setup_s` is the median of its set-ups.
const SEGMENTS: usize = 16;
const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
fn percentile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    *v.select_nth_unstable(rank).1 as f64
}

fn median_f64(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Metrics in print order: (name, value, unit).
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Metric-by-metric median of runs that report the same metrics.
    fn median(runs: &[Metrics]) -> Metrics {
        let mut m = Metrics::default();
        for (i, &(name, _, unit)) in runs[0].0.iter().enumerate() {
            m.put(name, median_f64(runs.iter().map(|r| r.0[i].1).collect()), unit);
        }
        m
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Input generation plus stack start-up and first connection, then an
/// untimed warm-up.
fn set_up(
    kind: Kind,
    seed: u64,
    checks: &Arc<Checks>,
    probe: Option<Arc<Probe>>,
) -> Result<(Workload, f64), String> {
    let t = Instant::now();
    let inputs = Arc::new(Inputs::generate(kind, seed));
    let w = Workload::start(kind, inputs, Arc::clone(checks), probe)?;
    let setup_s = t.elapsed().as_secs_f64();
    w.warm_up(seed)?;
    Ok((w, setup_s))
}

/// Rate per second over the load threads' busy time.
fn rate(amount: f64, busy_ns: u64, threads: usize) -> f64 {
    amount / (busy_ns as f64 / threads as f64 / 1e9)
}

/// The end-to-end metrics of `BENCHMARK.json` but `setup_s`, defined on
/// every workload. On `analysis-wan` times are virtual (the simulated
/// clock).
fn end_to_end(w: &Window) -> Metrics {
    let busy: u64 = w.op_ns.iter().sum();
    let mut m = Metrics::default();
    m.put("ops_per_s", rate(w.ops() as f64, busy, w.threads), "1/s");
    m.put("op_p50_us", percentile(&w.op_ns, 0.5) / 1e3, "us");
    m.put("get_mb_per_s", rate(w.read_bytes as f64 / 1e6, w.read_ns, w.threads), "MB/s");
    m
}

/// The workload's own headline metrics, printed by name for readers.
fn headline(kind: Kind, w: &Window) -> Metrics {
    let busy: u64 = w.op_ns.iter().sum();
    let mut m = Metrics::default();
    match kind {
        Kind::RandomReads => {
            m.put("ops_per_s", rate(w.ops() as f64, busy, w.threads), "1/s");
            m.put("op_p50_us", percentile(&w.op_ns, 0.5) / 1e3, "us");
            m.put("op_p99_us", percentile(&w.op_ns, 0.99) / 1e3, "us");
        }
        Kind::BulkTransfer => {
            m.put("get_mb_per_s", rate(w.read_bytes as f64 / 1e6, w.read_ns, 1), "MB/s");
            m.put("put_mb_per_s", rate(w.put_bytes as f64 / 1e6, w.put_ns, 1), "MB/s");
        }
        Kind::AnalysisLoopback => {
            m.put("events_per_s", rate(w.events as f64, busy, 1), "1/s");
            m.put("job_p50_ms", percentile(&w.op_ns, 0.5) / 1e6, "ms");
        }
        Kind::AnalysisWan => m.put("job_virtual_s", percentile(&w.op_ns, 0.5) / 1e9, "s"),
    }
    m
}

type Spans = BTreeMap<&'static str, SpanStats>;

/// Total time of every span whose name matches.
fn sum_spans(spans: &Spans, pred: impl Fn(&str) -> bool) -> f64 {
    spans.iter().filter(|(n, _)| pred(n)).map(|(_, s)| s.sum_ns as f64).sum()
}

/// Median duration over the sampled spans whose names match.
fn p50_spans(spans: &Spans, pred: impl Fn(&str) -> bool) -> f64 {
    let v: Vec<u64> = spans
        .iter()
        .filter(|(n, _)| pred(n))
        .flat_map(|(_, s)| s.sample_ns.iter().copied())
        .collect();
    percentile(&v, 0.5)
}

fn is_read(name: &str) -> bool {
    matches!(name, "davix.pread" | "davix.get" | "davix.read_at" | "davix.read_vec")
}

/// Milliseconds per MiB of `f` over `data`, repeated for a stable figure.
fn ms_per_mib(data: &[u8], f: fn(&[u8]) -> u32) -> f64 {
    let (t, mut rounds) = (Instant::now(), 0u32);
    while rounds < 3 || t.elapsed() < Duration::from_millis(60) {
        std::hint::black_box(f(std::hint::black_box(data)));
        rounds += 1;
    }
    t.elapsed().as_secs_f64() * 1e3 / (rounds as f64 * data.len() as f64 / MIB)
}

/// The per-layer metrics of one traced window.
fn per_layer(
    kind: Kind,
    w: &Window,
    probe: &Probe,
    payload: &[u8],
    untraced_real_per_op: f64,
) -> Metrics {
    let spans = probe.span_stats();
    let ops = w.ops().max(1) as f64;
    let c = &w.client;
    let cpu = |g: &str| w.cpu_us.get(g).copied().unwrap_or(0) as f64;
    let analysis = kind.is_analysis();
    let davix_ns = sum_spans(&spans, |n| n.starts_with("davix."));
    let transport_ns = (probe.read_ns.load(Relaxed) + probe.write_ns.load(Relaxed)) as f64;
    let wire = wire::replay(&probe.captures());
    let jobs = w.sim_jobs.len().max(1) as f64;
    let sim_sum = |f: fn(&workloads::SimJob) -> u64| w.sim_jobs.iter().map(f).sum::<u64>() as f64;
    let sample = &payload[..payload.len().min(16 << 20)];
    let (server_conns, server_requests, server_peak) = w.server_life;
    let mut m = Metrics::default();

    m.put("core.pread_us", p50_spans(&spans, is_read) / 1e3, "us");
    m.put("core.self_us_per_op", (davix_ns - transport_ns) / ops / 1e3, "us");
    m.put("core.requests_per_op", c.requests as f64 / ops, "count");
    let sessions = (c.sessions_created + c.sessions_reused).max(1) as f64;
    m.put("core.session_reuse_ratio", c.sessions_reused as f64 / sessions, "ratio");
    m.put("core.retries", c.retries as f64, "count");
    m.put("core.vectored_requests_per_job", c.vectored_requests as f64 / ops, "count");
    m.put("core.bytes_in_per_op", c.bytes_in as f64 / ops, "bytes");
    m.put("core.peak_body_buffer_bytes", c.peak_body_buffer as f64, "bytes");

    m.put("transport.read_wait_us_per_op", probe.read_ns.load(Relaxed) as f64 / ops / 1e3, "us");
    m.put("transport.reads_per_op", probe.reads.load(Relaxed) as f64 / ops, "count");
    m.put("transport.writes_per_op", probe.writes.load(Relaxed) as f64 / ops, "count");

    m.put("httpwire.response_head_parse_ns", wire.response_head_parse_ns, "ns");
    m.put("httpwire.request_head_parse_ns", wire.request_head_parse_ns, "ns");
    m.put("httpwire.request_head_encode_ns", wire.request_head_encode_ns, "ns");
    m.put("httpwire.multipart_decode_ns_per_kib", wire.multipart_decode_ns_per_kib, "ns/KiB");

    let per_server = if kind.is_virtual() { jobs } else { 1.0 };
    m.put("httpd.requests_per_conn", server_requests as f64 / server_conns.max(1) as f64, "count");
    m.put("httpd.connections", server_conns as f64 / per_server, "count");
    m.put("httpd.peak_open", server_peak as f64, "count");
    let httpd_cpu = cpu("httpd-shard") + cpu("httpd-accept");
    m.put("httpd.cpu_us_per_request", httpd_cpu / w.server_window_requests.max(1) as f64, "us");

    m.put("objstore.handle_get_us", p50_spans(&spans, |n| n == "objstore.get") / 1e3, "us");
    let put_mib = probe.put_bytes.load(Relaxed) as f64 / MIB;
    let put_ms = sum_spans(&spans, |n| n == "objstore.put") / 1e6;
    m.put(
        "objstore.handle_put_ms_per_mib",
        if put_mib > 0.0 { put_ms / put_mib } else { 0.0 },
        "ms/MiB",
    );

    m.put(
        "ioapi.crc32_ms_per_mib",
        ms_per_mib(sample, davix_repro::ioapi::checksum::crc32),
        "ms/MiB",
    );
    m.put(
        "ioapi.adler32_ms_per_mib",
        ms_per_mib(sample, davix_repro::ioapi::checksum::adler32),
        "ms/MiB",
    );

    let (io_ms, self_ms, windows) = if analysis {
        let io = sum_spans(&spans, |n| n == "davix.read_at" || n == "davix.read_vec");
        let job = sum_spans(&spans, |n| n == "op.job");
        (io / ops / 1e6, (job - davix_ns) / ops / 1e6, w.windows as f64 / ops)
    } else {
        (0.0, 0.0, 0.0)
    };
    m.put("rootio.io_ms_per_job", io_ms, "ms");
    m.put("rootio.self_ms_per_job", self_ms, "ms");
    m.put("rootio.windows_loaded_per_job", windows, "count");

    m.put("netsim.conns_created_per_job", sim_sum(|j| j.conns_created) / jobs, "count");
    m.put("netsim.bytes_delivered_per_job", sim_sum(|j| j.bytes_delivered) / jobs, "bytes");
    m.put("netsim.clock_advances_per_job", sim_sum(|j| j.clock_advances) / jobs, "count");
    m.put("netsim.events_applied_per_job", sim_sum(|j| j.events_applied) / jobs, "count");
    let clock_ms = if kind.is_virtual() { cpu("netsim-clock") / jobs / 1e3 } else { 0.0 };
    m.put("netsim.cpu_ms_per_job", clock_ms, "ms");

    m.put("proc.cpu_us_per_op", w.process_cpu_us as f64 / ops, "us");
    let all_cpu: f64 = w.cpu_us.values().sum::<u64>() as f64;
    m.put("proc.client_cpu_share", (cpu("load") + cpu("davix-io")) / all_cpu.max(1.0), "ratio");
    m.put("proc.threads_peak", w.threads_peak as f64, "count");

    m.put("op_p99_us", percentile(&w.op_ns, 0.99) / 1e3, "us");
    m.put(
        "put_mb_per_s",
        if w.put_ns > 0 { rate(w.put_bytes as f64 / 1e6, w.put_ns, 1) } else { 0.0 },
        "MB/s",
    );
    let traced_real_per_op = w.real_ns as f64 / w.attempted.max(1) as f64;
    m.put("trace.overhead_pct", (traced_real_per_op / untraced_real_per_op - 1.0) * 100.0, "%");

    let (kept, dropped) = probe.kept_and_dropped();
    println!(
        "layers: {} spans ({} kept for the span file, {} past its cap); sessions \
         created+reused {}; wire samples (response heads, request heads, multipart bodies) {:?}",
        spans.values().map(|s| s.count).sum::<u64>(),
        kept,
        dropped,
        c.sessions_created + c.sessions_reused,
        wire.samples,
    );
    let cpu_groups: Vec<String> = w.cpu_us.iter().map(|(g, us)| format!("{g}={us}")).collect();
    println!("layers: thread CPU us by group: {}", cpu_groups.join(" "));
    m
}

/// On `analysis-wan`, every job of one seed must leave identical virtual
/// time, request count and connection count. Returns the jobs that differ
/// from the first.
fn determinism_failures(w: &Window) -> u64 {
    let key = |j: &workloads::SimJob| (j.virtual_ns, j.client.requests, j.conns_created);
    let Some(first) = w.sim_jobs.first() else { return 0 };
    let bad = w.sim_jobs.iter().filter(|j| key(j) != key(first)).count() as u64;
    println!(
        "determinism: {} jobs, {} differ from the first (virtual_ns={} requests={} conns={})",
        w.sim_jobs.len(),
        bad,
        first.virtual_ns,
        first.client.requests,
        first.conns_created
    );
    bad
}

/// Checks and accounting shared by both modes: returns (attempted, failed).
fn account(kind: Kind, w: &Window) -> (u64, u64) {
    for e in &w.errors {
        println!("error: {e}");
    }
    let bad = if kind.is_virtual() { determinism_failures(w) } else { 0 };
    (w.attempted, w.failed + bad)
}

fn run(args: &Args) -> Result<(u64, u64, Metrics), String> {
    let (kind, seed) = (args.kind, args.seed);
    println!(
        "workload={} seed={} seconds={} trace={} load_threads={} nproc={}",
        kind.name(),
        seed,
        args.seconds,
        u8::from(args.trace),
        kind.threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let checks = Arc::new(Checks::new(kind, seed)?);
    if !args.trace {
        let mut setups = Vec::new();
        let (mut e2e, mut heads, mut all) = (Vec::new(), Vec::new(), Window::default());
        for i in 0..SEGMENTS {
            let (w, s) = set_up(kind, seed, &checks, None)?;
            setups.push(s);
            let seg = w.measure(args.seconds / SEGMENTS as f64, seed.wrapping_add(i as u64), false);
            // The stack is torn down before the next set-up.
            drop(w);
            e2e.push(end_to_end(&seg));
            heads.push(headline(kind, &seg));
            all.merge(seg);
        }
        let setup_s = median_f64(setups.clone());
        let (attempted, failed) = account(kind, &all);
        println!("metric setup_s {setup_s} s (set-ups: {setups:?})");
        let ratio = failed as f64 / attempted.max(1) as f64;
        println!("metric failed_op_ratio {ratio} ratio ({failed} failed of {attempted} attempted)");
        println!("medians over {SEGMENTS} segments, each after its own set-up:");
        for (n, v, u) in Metrics::median(&heads).0 {
            println!("metric {n} {v} {u}");
        }
        let mut out = Metrics::default();
        out.put("setup_s", setup_s, "s");
        out.0.extend(Metrics::median(&e2e).0);
        for (n, v, u) in &out.0 {
            println!("end_to_end {n} {v} {u}");
        }
        return Ok((attempted, failed, out));
    }

    // Traced: half the time untraced, half traced on a wrapped stack.
    let half = args.seconds / 2.0;
    let (plain, _) = set_up(kind, seed, &checks, None)?;
    let base = plain.measure(half, seed, false);
    drop(plain);
    let probe = Probe::new();
    let (traced, _) = set_up(kind, seed, &checks, Some(Arc::clone(&probe)))?;
    probe.reset();
    let window = traced.measure(half, seed, true);
    let (a0, f0) = account(kind, &base);
    let (a1, f1) = account(kind, &window);
    let payload = traced.payload();
    let base_real_per_op = base.real_ns as f64 / base.attempted.max(1) as f64;
    let layers = per_layer(kind, &window, &probe, &payload, base_real_per_op);
    for (n, v, u) in &layers.0 {
        println!("per_layer {n} {v} {u}");
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.tsv", kind.name()));
    probe.write_spans(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok((a0 + a1, f0 + f1, layers))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((attempted, failed, metrics)) => {
            let correct = failed == 0 && attempted > 0;
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
                 \"metrics\": {}}}",
                metrics.json()
            );
            // Exit without waiting on the stack's parked server threads.
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_has_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "ms");
        m.put("b", f64::NAN, "s");
        assert_eq!(
            m.json(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}"
        );
    }
}
