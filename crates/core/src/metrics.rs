//! Client-wide counters. Benchmarks difference these to report the paper's
//! key quantities: requests, round trips, connection reuse.

use davix_sync::{AtomicU64, Ordering};

/// Declares every client counter once and generates [`Metrics`],
/// [`Metrics::snapshot`], [`MetricsSnapshot`] and [`MetricsSnapshot::since`]
/// from that list. A `count` entry is a plain counter, which `since`
/// differences; a `peak` entry is a high-water gauge, which `since` keeps
/// as-is.
macro_rules! metrics {
    (@since count, $now:expr, $earlier:expr) => { $now - $earlier };
    (@since peak, $now:expr, $earlier:expr) => { $now };
    ($($(#[doc = $doc:literal])* $kind:ident $name:ident,)+) => {
        /// Atomic counters shared by all components of one client.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[doc = $doc])* pub $name: AtomicU64,)+
        }

        impl Metrics {
            /// Plain-value copy of all counters.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot { $($name: self.$name.load(Ordering::Relaxed)),+ }
            }
        }

        /// Value snapshot of [`Metrics`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[doc = $doc])* pub $name: u64,)+
        }

        impl MetricsSnapshot {
            /// Counter-wise difference against an earlier snapshot.
            /// High-water gauges (`peak_*`) are not counters: the newer
            /// snapshot's value is kept as-is.
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot { $($name: metrics!(@since $kind, self.$name, earlier.$name)),+ }
            }
        }
    };
}

metrics! {
    /// HTTP requests written to the wire (including retries and redirects).
    count requests,
    /// Requests that were retried after a failure.
    count retries,
    /// Redirect hops followed.
    count redirects,
    /// New TCP sessions established.
    count sessions_created,
    /// Sessions checked out from the idle pool (recycled).
    count sessions_reused,
    /// Idle sessions dropped (TTL or pool overflow).
    count sessions_discarded,
    /// Response body bytes received.
    count bytes_in,
    /// Request bytes sent (heads + bodies).
    count bytes_out,
    /// Body bytes delivered through [`ResponseStream`](crate::ResponseStream)
    /// reads (every response body flows through here, including the
    /// collect-to-`Vec` path of [`HttpExecutor::execute`](crate::HttpExecutor::execute)).
    count bytes_streamed,
    /// High-water mark of any single collected body buffer, in bytes.
    /// Stays 0 while every consumer streams — the Fig. 2/3 benches use this
    /// to show the read path allocates nothing proportional to the body.
    peak peak_body_buffer,
    /// Multi-range (vectored) GETs issued.
    count vectored_requests,
    /// Vectored reads that had to fall back to per-fragment requests.
    count vector_fallbacks,
    /// Range requests a server answered with `200` + the full entity
    /// instead of `206` (the client then reads only the requested window).
    count range_downgrades,
    /// Metalink documents fetched.
    count metalinks_fetched,
    /// Replica fail-overs performed.
    count failovers,
    /// Replicas blacklisted by the scheduler (consecutive-failure eviction).
    count replicas_blacklisted,
    /// Active `OPTIONS` health probes sent to replicas.
    count replica_probes,
    /// Multistream workers that switched to another replica after theirs
    /// failed (instead of dying and shrinking the stream pool).
    count streams_respawned,
    /// Block-cache reads served from memory (no upstream request), including
    /// reads that joined another caller's in-flight fetch.
    count cache_hits,
    /// Block-cache blocks that had to be fetched upstream.
    count cache_misses,
    /// Bytes landed in the block cache by background read-ahead/prefetch.
    count bytes_prefetched,
    /// Readers that parked on another caller's in-flight block fetch
    /// instead of issuing a duplicate request (single-flight dedup).
    count singleflight_waits,
    /// Request-body payload bytes written to the wire by uploads
    /// (streaming bodies and buffered `PUT`s; retried bodies count every
    /// transmission). Protocol chatter with a body — PROPFIND XML,
    /// multipart-complete documents — is not an upload and is excluded.
    count bytes_uploaded,
    /// Chunks committed by [`multistream_upload`](crate::multistream_upload)
    /// workers (successful segment/part PUTs, not counting retries).
    count chunks_uploaded,
    /// Upload exchanges that were retried after a failure (5xx or a
    /// transport fault with the body partially sent).
    count upload_retries,
    /// High-water mark of chunk payload resident in upload buffers, in
    /// bytes. Bounded by `upload_chunk_size × upload_streams` — the write
    /// path never buffers the whole object.
    peak peak_upload_buffer,
}

impl Metrics {
    /// Add one to a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise a high-water-mark gauge to at least `n`.
    pub fn record_max(gauge: &AtomicU64, n: u64) {
        gauge.fetch_max(n, Ordering::Relaxed);
    }
}

impl MetricsSnapshot {
    /// Fraction of cache lookups served from memory.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of session checkouts served from the pool.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.sessions_created + self.sessions_reused;
        if total == 0 {
            0.0
        } else {
            self.sessions_reused as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_diff() {
        let m = Metrics::default();
        Metrics::bump(&m.requests);
        Metrics::add(&m.bytes_in, 100);
        Metrics::record_max(&m.peak_upload_buffer, 64);
        let a = m.snapshot();
        assert_eq!(a.requests, 1);
        assert_eq!(a.bytes_in, 100);
        Metrics::bump(&m.requests);
        let d = m.snapshot().since(&a);
        assert_eq!(d.requests, 1);
        assert_eq!(d.bytes_in, 0);
        // High-water gauges are kept as-is, not differenced.
        assert_eq!(d.peak_upload_buffer, 64);
    }

    #[test]
    fn reuse_ratio() {
        let s = MetricsSnapshot { sessions_created: 1, sessions_reused: 3, ..Default::default() };
        assert!((s.reuse_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(MetricsSnapshot::default().reuse_ratio(), 0.0);
    }
}
