//! Multi-stream downloads (§2.4, the "multi-stream" strategy).
//!
//! Split an entity into chunks and fetch them in parallel from *several
//! replicas at once*. Maximizes client-side bandwidth and inherits the
//! fail-over resilience (a chunk that fails on one replica is retried on
//! another), at the cost the paper is upfront about: higher server load
//! (more connections per client).
//!
//! Replica choice is delegated to the same [`ReplicaScheduler`] the
//! fail-over path uses: workers ask the scheduler which replica their slot
//! should draw from before every chunk, so a stream whose replica dies is
//! *respawned on the next-best replica* instead of permanently shrinking
//! the worker pool, and a blacklisted replica that recovers (cooldown
//! expiry or active probe) starts contributing chunks again mid-download.
//! Every chunk completion feeds a latency sample back into the scores.

use crate::client::DavixClient;
use crate::error::{DavixError, Result};
use crate::file::DavFile;
use crate::iopool::{chunk_spans, Step};
use crate::metrics::Metrics;
use crate::scheduler::{ReplicaId, ReplicaScheduler};
use httpwire::Uri;
use parking_lot::Mutex;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Tuning for [`multistream_download`].
#[derive(Debug, Clone)]
pub struct MultistreamOptions {
    /// Total parallel streams across all replicas.
    pub streams: usize,
    /// Chunk size in bytes.
    pub chunk_size: usize,
    /// Give up after this many total chunk failures.
    pub max_chunk_failures: usize,
}

impl Default for MultistreamOptions {
    fn default() -> Self {
        MultistreamOptions { streams: 4, chunk_size: 4 * 1024 * 1024, max_chunk_failures: 64 }
    }
}

/// One finished chunk: which replica served it, and when (runtime clock).
#[derive(Debug, Clone)]
pub struct ChunkCompletion {
    /// Chunk index within the entity.
    pub chunk: usize,
    /// Replica that served it.
    pub replica: Uri,
    /// Runtime timestamp of completion (virtual time under simulation).
    pub at: Duration,
}

/// What happened during a multi-stream download: the per-chunk completion
/// timeline plus how often workers had to switch replica.
#[derive(Debug, Clone, Default)]
pub struct MultistreamReport {
    /// Completion record per chunk, in completion order.
    pub completions: Vec<ChunkCompletion>,
    /// Times a worker abandoned its replica for the scheduler's next-best.
    pub respawns: u64,
}

/// Download a whole entity from `replicas` using `opts.streams` parallel
/// streams spread over the healthiest replicas. Returns the assembled
/// bytes.
pub fn multistream_download(
    client: &DavixClient,
    replicas: &[Uri],
    opts: &MultistreamOptions,
) -> Result<Vec<u8>> {
    multistream_download_with_report(client, replicas, opts).map(|(data, _)| data)
}

/// As [`multistream_download`], also returning the [`MultistreamReport`]
/// (chunk completion timeline + replica switches) for benchmarks and
/// diagnostics.
pub fn multistream_download_with_report(
    client: &DavixClient,
    replicas: &[Uri],
    opts: &MultistreamOptions,
) -> Result<(Vec<u8>, MultistreamReport)> {
    let scheduler = Arc::new(ReplicaScheduler::from_config(
        replicas.to_vec(),
        Arc::clone(client.inner.executor.runtime()),
        &client.inner.cfg,
        Some(Arc::clone(client.inner.executor.metrics())),
    ));
    multistream_download_scheduled(client, &scheduler, opts)
}

/// The core multi-stream engine, drawing replicas from a caller-provided
/// [`ReplicaScheduler`] — share one scheduler between fail-over reads and
/// multi-stream downloads and both feed (and benefit from) the same health
/// picture.
pub fn multistream_download_scheduled(
    client: &DavixClient,
    scheduler: &Arc<ReplicaScheduler>,
    opts: &MultistreamOptions,
) -> Result<(Vec<u8>, MultistreamReport)> {
    if scheduler.is_empty() {
        return Err(DavixError::InvalidArgument("no replicas given".to_string()));
    }
    if opts.streams == 0 || opts.chunk_size == 0 {
        return Err(DavixError::InvalidArgument("streams and chunk_size must be > 0".to_string()));
    }
    let rt = Arc::clone(client.inner.executor.runtime());

    // Find the size from the best replica that answers. Any failure on one
    // replica — refused TCP, failed HEAD, bad size — moves on to the next
    // and feeds the scheduler, instead of killing the whole download.
    let mut size = None;
    let mut tried: Vec<ReplicaId> = Vec::new();
    let mut last_err = None;
    while let Some((id, uri)) = scheduler.pick_excluding(&tried) {
        let t0 = rt.now();
        match DavFile::open_uncached(Arc::clone(&client.inner), uri).and_then(|f| f.size_hint()) {
            Ok(sz) => {
                // A HEAD is liveness evidence plus an RTT bootstrap for the
                // ranking, but no bandwidth signal — record it as a probe.
                scheduler.record_probe(id, rt.now() - t0);
                size = Some(sz);
                break;
            }
            Err(e) => {
                scheduler.record_failure(id);
                tried.push(id);
                last_err = Some(e);
            }
        }
    }
    let size = size.ok_or_else(|| DavixError::AllReplicasFailed {
        tried: tried.len(),
        last: Box::new(last_err.unwrap_or_else(|| DavixError::Metalink("unreachable".into()))),
    })?;

    let report = Arc::new(Mutex::new(MultistreamReport::default()));
    let worker = {
        let (client, scheduler, report) =
            (client.clone(), Arc::clone(scheduler), Arc::clone(&report));
        move |slot| stream_worker(client.clone(), slot, Arc::clone(&scheduler), Arc::clone(&report))
    };
    let chunks = client
        .inner
        .io_pool
        .fan_out(chunk_spans(size, opts.chunk_size), opts.streams, opts.max_chunk_failures, worker)?
        .results;
    // Assemble the entity in chunk order (the only copy on this whole
    // path). Each chunk is freed right after it is copied, so resident
    // memory peaks near one entity plus one chunk, not two entities.
    let mut out = Vec::with_capacity(size as usize);
    for chunk in chunks {
        out.extend_from_slice(&chunk);
    }
    let report = std::mem::take(&mut *report.lock());
    Ok((out, report))
}

/// Resolve `url`'s Metalink, multi-stream-download from its replicas, and
/// **verify the result against the Metalink checksum** when one is declared
/// (§2.4 lists the checksum among the Metalink metadata; real davix checks
/// it). `crc32` and `adler32` digests are understood — matched
/// case-insensitively, like [`ReplicaSet::hash`], so a Metalink declaring
/// `Adler32` or `CRC32` is verified, not silently skipped. Unknown
/// algorithms are ignored. Returns [`DavixError::ChecksumMismatch`] on
/// corruption.
///
/// [`ReplicaSet::hash`]: crate::ReplicaSet::hash
pub fn multistream_download_verified(
    client: &DavixClient,
    url: &str,
    opts: &MultistreamOptions,
) -> Result<Vec<u8>> {
    let origin = client.parse_url(url)?;
    let set = crate::replicas::fetch_replica_set(&client.inner, &origin)?;
    let data = multistream_download(client, &set.uris, opts)?;
    if let Some(size) = set.size {
        if data.len() as u64 != size {
            return Err(DavixError::Protocol(format!(
                "metalink declares {size} bytes, downloaded {}",
                data.len()
            )));
        }
    }
    for (algo, expected) in &set.hashes {
        let got = match algo.to_ascii_lowercase().as_str() {
            "crc32" => ioapi::checksum::to_hex(ioapi::checksum::crc32(&data)),
            "adler32" => ioapi::checksum::to_hex(ioapi::checksum::adler32(&data)),
            _ => continue, // unknown algorithm: cannot verify, skip
        };
        if got != expected.to_ascii_lowercase() {
            return Err(DavixError::ChecksumMismatch {
                algo: algo.clone(),
                expected: expected.clone(),
                got,
            });
        }
    }
    Ok(data)
}

/// Build the chunk closure of multi-stream worker `slot`; it keeps the
/// worker's replica assignment and open files across chunks.
fn stream_worker(
    client: DavixClient,
    slot: usize,
    scheduler: Arc<ReplicaScheduler>,
    report: Arc<Mutex<MultistreamReport>>,
) -> impl FnMut(usize, &(u64, usize)) -> Step<Vec<u8>> {
    let rt = Arc::clone(client.inner.executor.runtime());
    let metrics = Arc::clone(client.inner.executor.metrics());
    // The worker's replica assignment is re-validated against the scheduler
    // before every chunk: if the health picture moved (our replica got
    // blacklisted, a better one recovered) the worker follows it. Open
    // files are cached per replica so a benign rank flip between
    // near-equal replicas costs nothing — only a *failure-driven* switch
    // (a respawn) pays a fresh HEAD, and only those are counted as
    // respawns.
    let mut files: HashMap<ReplicaId, DavFile> = HashMap::new();
    let mut current: Option<ReplicaId> = None;
    let mut last_chunk_failed = false;
    move |idx, &(off, len)| {
        let Some((id, uri)) = scheduler.assign(slot) else {
            return Step::Fatal(DavixError::AllReplicasFailed {
                tried: scheduler.len(),
                last: Box::new(DavixError::Metalink("all streams died".to_string())),
            });
        };
        if current.is_some() && current != Some(id) && last_chunk_failed {
            // Respawn: the worker abandons its failed replica for the
            // scheduler's next-best instead of dying with it.
            Metrics::bump(&metrics.streams_respawned);
            report.lock().respawns += 1;
        }
        current = Some(id);
        if let Entry::Vacant(vacant) = files.entry(id) {
            // A successful open records nothing (a HEAD answering is not
            // evidence the reads will work — see `ReplicaFile::file_for`);
            // the chunk read right after feeds the scheduler.
            match DavFile::open_uncached(Arc::clone(&client.inner), uri.clone()) {
                Ok(f) => {
                    vacant.insert(f);
                }
                Err(_) => {
                    last_chunk_failed = true;
                    return requeue(&scheduler, id, &metrics);
                }
            }
        }
        // `pread` streams the part body straight into the chunk's final
        // resting place — no intermediate buffer.
        let t0 = rt.now();
        let mut chunk = vec![0u8; len];
        match files.get(&id).expect("file ensured above").pread(off, &mut chunk) {
            Ok(n) if n == len => {
                scheduler.record_success(id, rt.now() - t0);
                last_chunk_failed = false;
                report.lock().completions.push(ChunkCompletion {
                    chunk: idx,
                    replica: uri,
                    at: rt.now(),
                });
                Step::Done(chunk)
            }
            Ok(_) | Err(_) => {
                // Drop the suspect file too: its pooled sessions may be
                // broken.
                files.remove(&id);
                last_chunk_failed = true;
                requeue(&scheduler, id, &metrics)
            }
        }
    }
}

/// Record a failed chunk and hand it back to the queue, for whichever
/// worker gets to it next on whatever replica ranks best by then.
fn requeue(scheduler: &ReplicaScheduler, id: ReplicaId, metrics: &Metrics) -> Step<Vec<u8>> {
    scheduler.record_failure(id);
    Metrics::bump(&metrics.failovers);
    Step::Requeue(DavixError::AllReplicasFailed {
        tried: scheduler.len(),
        last: Box::new(DavixError::Metalink("multistream failure budget exhausted".to_string())),
    })
}
