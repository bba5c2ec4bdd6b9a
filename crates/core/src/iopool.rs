//! A bounded, spawn-on-demand worker pool for the client's background I/O,
//! and the one driver every parallel transfer runs on.
//!
//! Multi-stream downloads, parallel uploads, the single-range fallback of
//! vectored reads, replica fan-out and cache read-ahead all need worker
//! threads. Before this pool each call site spawned its own (`streams`
//! threads per download, one per prefetch batch, …), so a busy client's
//! thread count was the *sum* of every concurrent operation's appetite.
//! [`IoPool`] caps it at [`Config::io_threads`] for the whole client: jobs
//! queue, workers are spawned only while fewer than the cap are live, and a
//! worker exits as soon as the queue is drained — an idle client holds zero
//! pool threads, and (under simulation) a drained pool leaves no parked
//! waiters or pending timers to perturb virtual time.
//!
//! # Fan-out
//!
//! Every transfer that splits into pieces — download chunks, upload chunks,
//! single-range fragments, per-replica batches — runs through one private
//! driver, `IoPool::fan_out`. It owns the work queue, requeues failed
//! items, charges them to a failure budget, keeps the first fatal error and
//! returns the results in item order. The **calling thread works the queue
//! as one of the `width` workers**; only `width - 1` helpers are submitted
//! to the pool, and each keeps its own per-worker state (a multi-stream
//! worker's replica and open files) in the closure the caller's factory
//! built for it. Two consequences:
//!
//! * a fan-out started from inside a pool job (read-ahead calling a
//!   replica fan-out) completes even when the pool is saturated: the
//!   caller drains the queue alone, and a helper that only starts after
//!   the caller has left exits without touching anything;
//! * the caller returns only after every helper that started has exited,
//!   so nothing is still in flight when a failed transfer reports its
//!   error (no late chunk PUT racing an abort, no download stream still
//!   pulling bytes nobody will read).
//!
//! [`Config::io_threads`]: crate::Config::io_threads

use crate::error::{DavixError, Result};
use netsim::Runtime;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

type Job = Box<dyn FnOnce() + Send>;

struct PoolState {
    queue: VecDeque<Job>,
    /// Workers currently running (or committed to spawn).
    live: usize,
    /// High-water mark of `live`, for tests and diagnostics.
    peak_live: usize,
    /// Monotonic spawn counter (names threads).
    spawned: u64,
    /// Happens-before clock for the submit→run handoff: everything the
    /// submitter did before `submit` is ordered before the job body, even
    /// though the job may run on a worker that skipped the submitter's
    /// unlock (no-op without the `race-detect` feature).
    handoff: davix_sync::race::SyncObj,
}

/// Bounded spawn-on-demand worker pool shared by one client.
pub struct IoPool {
    rt: Arc<dyn Runtime>,
    max: usize,
    state: Mutex<PoolState>,
}

impl IoPool {
    /// Create a pool that runs at most `max` jobs concurrently on `rt`
    /// (clamped to at least 1).
    pub fn new(rt: Arc<dyn Runtime>, max: usize) -> Arc<IoPool> {
        Arc::new(IoPool {
            rt,
            max: max.max(1),
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                live: 0,
                peak_live: 0,
                spawned: 0,
                handoff: davix_sync::race::SyncObj::new(),
            }),
        })
    }

    /// Queue `job`; it runs as soon as a worker is free (immediately, on a
    /// freshly spawned worker, while fewer than the cap are live). A job
    /// must not wait for a job queued behind it: on a saturated pool that
    /// would deadlock. Fan-outs avoid it by having the caller do the work
    /// (see the module docs).
    pub fn submit(self: &Arc<Self>, job: impl FnOnce() + Send + 'static) {
        let spawn_name = {
            let mut st = self.state.lock();
            st.queue.push_back(Box::new(job));
            st.handoff.release();
            if st.live < self.max {
                st.live += 1;
                st.peak_live = st.peak_live.max(st.live);
                st.spawned += 1;
                Some(format!("davix-io-{}", st.spawned))
            } else {
                None // a live worker will loop back and pick it up
            }
        };
        if let Some(name) = spawn_name {
            let pool = Arc::clone(self);
            self.rt.spawn(&name, Box::new(move || pool.worker()));
        }
    }

    /// Pop-and-run until the queue is empty, then exit. The exit decision
    /// happens under the state lock, so a concurrent `submit` either hands
    /// this worker the job or observes the decremented `live` and spawns.
    fn worker(self: &Arc<Self>) {
        loop {
            let job = {
                let mut st = self.state.lock();
                match st.queue.pop_front() {
                    Some(j) => {
                        st.handoff.acquire();
                        j
                    }
                    None => {
                        st.live -= 1;
                        return;
                    }
                }
            };
            job();
        }
    }

    /// Concurrency cap.
    pub fn max_workers(&self) -> usize {
        self.max
    }

    /// Workers currently live.
    pub fn live_workers(&self) -> usize {
        self.state.lock().live
    }

    /// High-water mark of concurrently live workers.
    pub fn peak_workers(&self) -> usize {
        self.state.lock().peak_live
    }

    /// Work `items` with up to `width` workers — the caller plus `width - 1`
    /// pool helpers — and return one result per item, in item order (see
    /// the module docs). `worker(w)` builds worker `w`'s closure on its own
    /// thread (`w = 0` is the caller); the closure is handed each item it
    /// pops with the item's index. A [`Step::Requeue`] puts the item back
    /// at the end of the queue and counts against `budget`: the requeue
    /// that overdraws it ends the fan-out with its error, as does the first
    /// [`Step::Fatal`]. Returns only after every helper that started has
    /// exited.
    pub(crate) fn fan_out<T, R, W, F>(
        self: &Arc<Self>,
        items: Vec<T>,
        width: usize,
        budget: usize,
        worker: F,
    ) -> Result<FanOut<R>>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize) -> W + Send + Sync + 'static,
        W: FnMut(usize, &T) -> Step<R>,
    {
        let n = items.len();
        let fan = Arc::new(Mutex::new(Fan {
            queue: items.into_iter().enumerate().collect(),
            results: (0..n).map(|_| None).collect(),
            requeues: 0,
            fatal: None,
            active: 0,
            caller_done: false,
        }));
        let all_out = self.rt.signal();
        let worker = Arc::new(worker);
        for w in 1..width.clamp(1, n.max(1)) {
            let (fan, all_out, worker) =
                (Arc::clone(&fan), Arc::clone(&all_out), Arc::clone(&worker));
            self.submit(move || {
                {
                    let mut st = fan.lock();
                    if st.caller_done {
                        return; // started too late: the caller has moved on
                    }
                    st.active += 1;
                }
                work_queue(&fan, budget, worker(w));
                let last_out = {
                    let mut st = fan.lock();
                    st.active -= 1;
                    st.active == 0 && st.caller_done
                };
                if last_out {
                    all_out.set();
                }
            });
        }
        work_queue(&fan, budget, worker(0));
        let wait = {
            let mut st = fan.lock();
            st.caller_done = true;
            st.active > 0
        };
        if wait {
            all_out.wait(None);
        }
        let mut st = fan.lock();
        if let Some(e) = st.fatal.take() {
            return Err(e);
        }
        let results = st.results.drain(..).map(|r| r.expect("every item finished")).collect();
        Ok(FanOut { results, requeues: st.requeues })
    }
}

/// What one item of an [`IoPool::fan_out`] came to.
pub(crate) enum Step<R> {
    /// Finished: the value lands in the item's result slot.
    Done(R),
    /// Failed, but another try may work: the item goes to the back of the
    /// queue and the failure counts against the budget.
    Requeue(DavixError),
    /// Failed for good: the fan-out ends with this error.
    Fatal(DavixError),
}

/// A finished [`IoPool::fan_out`].
pub(crate) struct FanOut<R> {
    /// One result per item, in item order.
    pub(crate) results: Vec<R>,
    /// Requeues it took to get there.
    pub(crate) requeues: u64,
}

struct Fan<T, R> {
    queue: VecDeque<(usize, T)>,
    results: Vec<Option<R>>,
    requeues: u64,
    fatal: Option<DavixError>,
    /// Helpers inside their work loop.
    active: usize,
    /// The caller has left its work loop; no helper starts after this.
    caller_done: bool,
}

/// One worker's loop: pop, work, record — until the queue is empty or the
/// fan-out has failed.
fn work_queue<T, R>(
    fan: &Mutex<Fan<T, R>>,
    budget: usize,
    mut work: impl FnMut(usize, &T) -> Step<R>,
) {
    loop {
        let (idx, item) = {
            let mut st = fan.lock();
            if st.fatal.is_some() {
                return;
            }
            match st.queue.pop_front() {
                Some(next) => next,
                None => return,
            }
        };
        let step = work(idx, &item);
        let mut st = fan.lock();
        match step {
            Step::Done(r) => st.results[idx] = Some(r),
            Step::Requeue(e) => {
                st.queue.push_back((idx, item));
                st.requeues += 1;
                if st.requeues > budget as u64 {
                    st.fatal.get_or_insert(e);
                }
            }
            Step::Fatal(e) => {
                st.fatal.get_or_insert(e);
            }
        }
    }
}

/// Split `size` bytes into `(offset, len)` spans of `chunk` bytes (the
/// last one shorter).
pub(crate) fn chunk_spans(size: u64, chunk: usize) -> Vec<(u64, usize)> {
    (0..size).step_by(chunk).map(|off| (off, chunk.min((size - off) as usize))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use davix_sync::{AtomicUsize, Ordering};
    use netsim::SimNet;
    use std::time::Duration;

    #[test]
    fn runs_every_job_with_bounded_concurrency() {
        let net = SimNet::new();
        net.add_host("h");
        let rt = net.runtime() as Arc<dyn Runtime>;
        let pool = IoPool::new(Arc::clone(&rt), 2);
        let _g = net.enter();

        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let finished = Arc::new(AtomicUsize::new(0));
        let done = rt.signal();
        let n = 7;
        for _ in 0..n {
            let rt = Arc::clone(&rt);
            let running = Arc::clone(&running);
            let peak = Arc::clone(&peak);
            let finished = Arc::clone(&finished);
            let done = Arc::clone(&done);
            pool.submit(move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                rt.sleep(Duration::from_millis(10));
                running.fetch_sub(1, Ordering::SeqCst);
                if finished.fetch_add(1, Ordering::SeqCst) + 1 == n {
                    done.set();
                }
            });
        }
        done.wait(None);
        assert_eq!(finished.load(Ordering::SeqCst), n);
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "at most 2 jobs may overlap, saw {}",
            peak.load(Ordering::SeqCst)
        );
        assert_eq!(pool.peak_workers(), 2);
    }

    #[test]
    fn workers_exit_when_drained_and_respawn_on_demand() {
        let net = SimNet::new();
        net.add_host("h");
        let rt = net.runtime() as Arc<dyn Runtime>;
        let pool = IoPool::new(Arc::clone(&rt), 4);
        let _g = net.enter();

        for round in 0..3 {
            let done = rt.signal();
            let d2 = Arc::clone(&done);
            pool.submit(move || d2.set());
            done.wait(None);
            // The worker may still be between `job()` and its exit check;
            // give it a virtual instant to drain.
            while pool.live_workers() > 0 {
                rt.sleep(Duration::from_millis(1));
            }
            assert_eq!(pool.live_workers(), 0, "drained after round {round}");
        }
    }

    fn real_pool(max: usize) -> Arc<IoPool> {
        IoPool::new(Arc::new(netsim::RealRuntime::new()), max)
    }

    #[test]
    fn fan_out_keeps_item_order() {
        let pool = real_pool(8);
        let out =
            pool.fan_out((0..50).collect(), 8, 0, |_| |_, x: &i32| Step::Done(x * 2)).unwrap();
        assert_eq!(out.results, (0..50).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(out.requeues, 0);
    }

    #[test]
    fn fan_out_of_nothing_is_empty() {
        let pool = real_pool(4);
        let out = pool.fan_out(Vec::<i32>::new(), 4, 0, |_| |_, x: &i32| Step::Done(*x)).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(pool.peak_workers(), 0, "nothing to do, no helper");
    }

    #[test]
    fn width_one_runs_inline() {
        let pool = real_pool(4);
        let out = pool.fan_out(vec![1, 2, 3], 1, 0, |_| |_, x: &i32| Step::Done(x + 1)).unwrap();
        assert_eq!(out.results, vec![2, 3, 4]);
        assert_eq!(pool.peak_workers(), 0, "width 1 must not touch the pool");
    }

    #[test]
    fn fan_out_overlaps_in_virtual_time() {
        // 8 items, 10 ms of virtual sleep each, 4 workers → 20 ms total,
        // not 80 ms: the caller and three pool helpers really overlap.
        let net = SimNet::new();
        net.add_host("h");
        let rt = net.runtime() as Arc<dyn Runtime>;
        let pool = IoPool::new(Arc::clone(&rt), 16);
        let _g = net.enter();
        let t0 = net.now();
        let out = pool
            .fan_out((0..8).collect(), 4, 0, move |_| {
                let rt = Arc::clone(&rt);
                move |_, x: &i32| {
                    rt.sleep(Duration::from_millis(10));
                    Step::Done(*x)
                }
            })
            .unwrap();
        assert_eq!(out.results, (0..8).collect::<Vec<_>>());
        assert_eq!(net.now() - t0, Duration::from_millis(20), "4-way overlap expected");
        assert_eq!(pool.peak_workers(), 3, "the caller is the fourth worker");
    }

    #[test]
    fn requeues_are_retried_within_the_budget() {
        // Item 2 fails twice before it succeeds.
        let run = |budget| {
            let failures_left = Arc::new(AtomicUsize::new(2));
            real_pool(4).fan_out((0..4).collect(), 3, budget, move |_| {
                let failures_left = Arc::clone(&failures_left);
                move |_, x: &usize| {
                    let failing = *x == 2
                        && failures_left
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                            .is_ok();
                    if failing {
                        Step::Requeue(DavixError::Protocol(format!("item {x} failed")))
                    } else {
                        Step::Done(*x)
                    }
                }
            })
        };
        let out = run(2).unwrap();
        assert_eq!(out.results, vec![0, 1, 2, 3]);
        assert_eq!(out.requeues, 2);
        let err = run(1).err().expect("the second requeue overdraws a budget of 1");
        assert!(matches!(err, DavixError::Protocol(ref m) if m == "item 2 failed"), "{err}");
    }

    #[test]
    fn fatal_error_waits_for_started_workers() {
        // Item 0 takes 50 ms, item 1 fails at once: whichever worker hits
        // the fatal error, the fan-out returns only once item 0 is done.
        let net = SimNet::new();
        net.add_host("h");
        let rt = net.runtime() as Arc<dyn Runtime>;
        let pool = IoPool::new(Arc::clone(&rt), 4);
        let _g = net.enter();
        let slow_done = Arc::new(AtomicUsize::new(0));
        let t0 = net.now();
        let err = pool
            .fan_out(vec![0, 1], 2, 0, {
                let slow_done = Arc::clone(&slow_done);
                move |_| {
                    let (rt, slow_done) = (Arc::clone(&rt), Arc::clone(&slow_done));
                    move |_, x: &i32| {
                        if *x == 1 {
                            return Step::Fatal(DavixError::Protocol("boom".to_string()));
                        }
                        rt.sleep(Duration::from_millis(50));
                        slow_done.store(1, Ordering::SeqCst);
                        Step::Done(())
                    }
                }
            })
            .err()
            .expect("item 1 is fatal");
        assert!(matches!(err, DavixError::Protocol(ref m) if m == "boom"), "{err}");
        assert_eq!(slow_done.load(Ordering::SeqCst), 1, "returned while a worker was mid-item");
        assert_eq!(net.now() - t0, Duration::from_millis(50));
    }

    #[test]
    fn fan_out_from_a_job_on_a_saturated_pool_completes() {
        // The job holds the pool's only thread, so its helpers cannot run
        // until it returns: the job must work all four items itself.
        let net = SimNet::new();
        net.add_host("h");
        let rt = net.runtime() as Arc<dyn Runtime>;
        let pool = IoPool::new(Arc::clone(&rt), 1);
        let _g = net.enter();
        let done = rt.signal();
        let results = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let t0 = net.now();
        {
            let (pool2, rt, done, results) =
                (Arc::clone(&pool), Arc::clone(&rt), Arc::clone(&done), Arc::clone(&results));
            pool.submit(move || {
                let out = pool2
                    .fan_out((0..4).collect(), 3, 0, move |_| {
                        let rt = Arc::clone(&rt);
                        move |_, x: &i32| {
                            rt.sleep(Duration::from_millis(10));
                            Step::Done(*x)
                        }
                    })
                    .unwrap();
                *results.lock() = out.results;
                done.set();
            });
        }
        done.wait(None);
        assert_eq!(*results.lock(), vec![0, 1, 2, 3]);
        assert_eq!(net.now() - t0, Duration::from_millis(40), "the job worked every item alone");
        assert_eq!(pool.peak_workers(), 1);
    }
}
