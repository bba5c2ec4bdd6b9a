//! The harness's upload step, and the `unsync-metric` canary that rides on
//! it ([`Canary::UnsyncMetric`](crate::Canary::UnsyncMetric)).

use bytes::Bytes;
use davix::{multistream_upload, ChunkSource, DavixClient, UploadOptions, UploadProtocol};
use davix_sync::CheckedCell;
use netsim::{Runtime as _, SimNet};
use std::sync::Arc;

/// Multistream-upload `data` to `url` through `writer`; `true` when it
/// committed.
///
/// With a `canary` cell, the upload is preceded by a deliberate data race
/// on it: one write from a job on the writer's I/O pool and one from this
/// thread after the submit and before waiting for the job. No
/// happens-before edge orders the two writes — exactly the bug the
/// `race-detect` sanitizer exists to catch. Both are writes on purpose: a
/// write/write pair normalizes to the same report whichever side the OS
/// happened to run first, keeping the violation text replay-stable.
pub(crate) fn put_object(
    net: &SimNet,
    writer: &DavixClient,
    url: &str,
    data: Bytes,
    protocol: UploadProtocol,
    canary: Option<&Arc<CheckedCell<u64>>>,
) -> bool {
    if let Some(cell) = canary {
        let job_done = net.runtime().signal();
        let (job_cell, job_signal) = (Arc::clone(cell), Arc::clone(&job_done));
        writer.io_pool().submit(move || {
            job_cell.set(1);
            job_signal.set();
        });
        cell.set(1);
        job_done.wait(None);
    }
    let opts = UploadOptions { protocol, max_chunk_failures: 2, ..Default::default() };
    multistream_upload(writer, url, Arc::new(data) as Arc<dyn ChunkSource>, &opts).is_ok()
}
