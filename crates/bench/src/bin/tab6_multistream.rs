//! **§2.4 (multi-stream strategy)**: parallel chunked download from several
//! replicas.
//!
//! Claim: multi-stream "maximize\[s\] the network bandwidth usage on the
//! client side" with the same resiliency as fail-over, at the cost of
//! "overload\[ing\] considerably the servers" (more connections per client).
//!
//! Experiment: a 16 MiB file on three replicas, each behind a 4 MB/s link;
//! sweep the stream count and also run with one replica dead.
//!
//! The harness *asserts* the claim after writing its report: every row
//! returns the source bytes, throughput with every replica up never falls
//! as streams are added, and two streams beat one. A regression exits
//! non-zero in CI.

use bytes::Bytes;
use davix::{multistream_download, Config, MultistreamOptions};
use davix_bench::{env_usize, secs, BenchReport, Table};
use davix_repro::testbed::{Testbed, TestbedConfig};
use netsim::LinkSpec;
use std::time::Duration;

/// File size; `DAVIX_BENCH_MULTISTREAM_MIB` shrinks it for CI smoke runs.
fn size() -> usize {
    env_usize("DAVIX_BENCH_MULTISTREAM_MIB", 16).max(1) * 1024 * 1024
}

fn testbed(data: &[u8]) -> Testbed {
    let link = LinkSpec {
        delay: Duration::from_millis(15),
        bandwidth: Some(4_000_000),
        ..Default::default()
    };
    Testbed::start(TestbedConfig {
        replicas: vec![
            ("r1.example".to_string(), link),
            ("r2.example".to_string(), link),
            ("r3.example".to_string(), link),
        ],
        data: Bytes::from(data.to_vec()),
        ..Default::default()
    })
}

fn main() {
    println!("== §2.4: multi-stream download, bandwidth vs server load ==");
    let size = size();
    println!("file: {} MiB; 3 replicas, 4 MB/s per replica link, 30 ms RTT\n", size / 1024 / 1024);
    let data: Vec<u8> = (0..size).map(|i| ((i / 13) % 256) as u8).collect();

    let mut report = BenchReport::new("tab6_multistream");
    report.label("workload", format!("{} MiB, 3 replicas @ 4 MB/s", size / 1024 / 1024));
    let mut table =
        Table::new(&["streams", "dead", "time (s)", "throughput (MB/s)", "connections", "ok"]);
    let mut rows = Vec::new();

    for (streams, dead) in [(1usize, 0usize), (2, 0), (3, 0), (6, 0), (3, 1)] {
        let tb = testbed(&data);
        for host in tb.hosts.iter().take(dead) {
            tb.net.set_host_down(host, true);
        }
        let _g = tb.net.enter();
        let client = tb.davix_client(Config::default().no_retry());
        let replicas: Vec<httpwire::Uri> = (0..3).map(|i| tb.url(i).parse().unwrap()).collect();
        let t0 = tb.net.now();
        let result = multistream_download(
            &client,
            &replicas,
            &MultistreamOptions { streams, chunk_size: 1024 * 1024, ..Default::default() },
        );
        let elapsed = tb.net.now() - t0;
        let ok = match &result {
            Ok(got) => got == &data,
            Err(_) => false,
        };
        let mb_per_s = size as f64 / elapsed.as_secs_f64() / 1e6;
        report.metric(&format!("s{streams}_dead{dead}.mb_per_s"), mb_per_s);
        rows.push((streams, dead, mb_per_s, ok));
        table.row(vec![
            streams.to_string(),
            dead.to_string(),
            secs(elapsed),
            format!("{mb_per_s:.2}"),
            tb.net.stats().conns_created.to_string(),
            if ok { "yes".into() } else { "NO".into() },
        ]);
    }
    table.print();
    report.table("main", &table);
    report.write();

    for &(streams, dead, _, ok) in &rows {
        assert!(ok, "s{streams}_dead{dead}: downloaded bytes differ from the source");
    }
    let all_up: Vec<(usize, f64)> = rows
        .iter()
        .filter(|r| r.1 == 0)
        .map(|&(streams, _, mb_per_s, _)| (streams, mb_per_s))
        .collect();
    for pair in all_up.windows(2) {
        let ((fewer, slower), (more, faster)) = (pair[0], pair[1]);
        assert!(
            faster >= slower,
            "throughput fell from {slower:.2} MB/s at {fewer} streams to {faster:.2} MB/s at {more}"
        );
    }
    let (s1, s2) = (all_up[0].1, all_up[1].1);
    assert!(s2 > s1, "2 streams ({s2:.2} MB/s) must beat 1 stream ({s1:.2} MB/s)");
    println!(
        "\nclaim check: throughput rises with streams (aggregating per-replica\n\
         bandwidth) while the connection count — the server-load price §2.4\n\
         warns about — rises with it; a dead replica degrades throughput but\n\
         not correctness."
    );
}
