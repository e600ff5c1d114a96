//! One bounded FIFO job queue shared by a fixed pool of workers.
//!
//! Jobs go into one [`std::sync::mpsc::sync_channel`] of `queue_depth`
//! slots and every worker takes the next job from its shared receiver,
//! so an idle worker always takes the oldest queued job, whichever
//! worker is busy. Admission is the channel's `try_send`: once
//! `queue_depth` jobs wait, a submission is rejected instead of
//! buffered without limit, surfacing overload to the client
//! immediately (`server.queue.rejected`). Dropping the queue drops the
//! sender: the workers drain what is queued, then exit.
//!
//! Telemetry: `server.queue.rejected`, `server.queue.depth`
//! (histogram of jobs already waiting, sampled at each admission).

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Queue-depth histogram buckets (jobs waiting at submit time).
const DEPTH_BUCKETS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128];

/// A fixed-size pool of worker threads fed by one bounded FIFO queue.
pub struct JobQueue<T: Send + 'static> {
    /// `None` only while dropping.
    tx: Option<SyncSender<T>>,
    /// Jobs admitted and not yet taken by a worker; a statistic only.
    queued: Arc<AtomicUsize>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> JobQueue<T> {
    /// Starts `workers` threads running `handler(job)` for every
    /// admitted job. At most `queue_depth` jobs may wait at once;
    /// further [`submit`](JobQueue::submit)s are rejected.
    ///
    /// A handler panic is contained to that job: the worker survives
    /// and moves on. (The server layer converts panics into error
    /// responses; the queue just must not lose its workers.)
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `queue_depth` is zero.
    pub fn start<F>(workers: usize, queue_depth: usize, handler: F) -> JobQueue<T>
    where
        F: Fn(T) + Send + Sync + 'static,
    {
        assert!(workers > 0, "JobQueue needs at least one worker");
        assert!(queue_depth > 0, "JobQueue needs a nonzero queue depth");
        let (tx, rx) = mpsc::sync_channel::<T>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let queued = Arc::new(AtomicUsize::new(0));
        let handler = Arc::new(handler);
        let threads = (0..workers)
            .map(|w| {
                let rx = Arc::clone(&rx);
                let queued = Arc::clone(&queued);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("databp-worker-{w}"))
                    .spawn(move || loop {
                        // The guard drops at the end of this statement:
                        // one idle worker waits in `recv`, the others
                        // wait for the lock.
                        let job = rx
                            .lock()
                            .expect("no worker panics while holding the queue lock")
                            .recv();
                        let Ok(job) = job else {
                            return; // sender dropped and queue drained
                        };
                        queued.fetch_sub(1, Ordering::Relaxed);
                        let result = std::panic::catch_unwind(AssertUnwindSafe(|| handler(job)));
                        drop(result); // panic contained; worker lives on
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        JobQueue {
            tx: Some(tx),
            queued,
            workers: threads,
        }
    }

    /// Queues a job for the next free worker. Returns the job back as
    /// `Err` when `queue_depth` jobs are already waiting (admission
    /// control).
    pub fn submit(&self, job: T) -> Result<(), T> {
        let tx = self.tx.as_ref().expect("the sender lives until drop");
        // Counted before the send so a worker's decrement never runs
        // first.
        let prior = self.queued.fetch_add(1, Ordering::Relaxed);
        match tx.try_send(job) {
            Ok(()) => {
                databp_telemetry::observe!("server.queue.depth", DEPTH_BUCKETS, prior as u64);
                Ok(())
            }
            Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) => {
                self.queued.fetch_sub(1, Ordering::Relaxed);
                databp_telemetry::count!("server.queue.rejected");
                Err(job)
            }
        }
    }

    /// Runs every queued job, then stops and joins every worker.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl<T: Send + 'static> Drop for JobQueue<T> {
    fn drop(&mut self) {
        drop(self.tx.take());
        for h in self.workers.drain(..) {
            // Handler panics are caught inside the worker, so a join
            // error cannot carry one; nothing to report.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc::Receiver;
    use std::time::Duration;

    /// A handler that reports each job's start on a channel, then waits
    /// for a release on its gate before finishing.
    fn gated() -> (
        impl Fn(u32) + Send + Sync + 'static,
        Receiver<u32>,
        SyncSender<()>,
    ) {
        let (started_tx, started) = mpsc::channel();
        let (release, gate) = mpsc::sync_channel::<()>(0);
        let (started_tx, gate) = (Mutex::new(started_tx), Mutex::new(gate));
        let handler = move |job: u32| {
            started_tx.lock().unwrap().send(job).unwrap();
            gate.lock().unwrap().recv().unwrap();
        };
        (handler, started, release)
    }

    #[test]
    fn runs_every_submitted_job_across_workers() {
        let sum = Arc::new(AtomicU64::new(0));
        let queue = {
            let sum = Arc::clone(&sum);
            JobQueue::start(4, 256, move |job: u64| {
                sum.fetch_add(job, Ordering::SeqCst);
            })
        };
        for i in 1..=100u64 {
            queue.submit(i).unwrap();
        }
        queue.shutdown();
        assert_eq!(sum.load(Ordering::SeqCst), 5050);
    }

    #[test]
    fn saturated_pool_rejects_deterministically() {
        // One worker, held inside its first job: the queue fills to
        // exactly `depth`, and the next submit must bounce.
        let (handler, started, release) = gated();
        let queue = JobQueue::start(1, 3, handler);
        queue.submit(0).unwrap();
        assert_eq!(started.recv().unwrap(), 0, "first job is running");
        for i in 1..=3 {
            queue.submit(i).unwrap();
        }
        assert_eq!(queue.submit(99), Err(99), "admission control rejects");
        for _ in 0..4 {
            release.send(()).unwrap();
        }
        queue.shutdown();
    }

    #[test]
    fn idle_worker_takes_queued_work_while_another_is_busy() {
        // Two workers; the first job holds one of them until every other
        // job has run, so the other worker must take them all.
        let (release, gate) = mpsc::sync_channel::<()>(0);
        let (done_tx, done) = mpsc::channel::<()>();
        let (gate, done_tx) = (Mutex::new(gate), Mutex::new(done_tx));
        let queue = JobQueue::start(2, 64, move |slow: bool| {
            if slow {
                gate.lock().unwrap().recv().unwrap();
            } else {
                done_tx.lock().unwrap().send(()).unwrap();
            }
        });
        queue.submit(true).unwrap();
        for _ in 0..20 {
            queue.submit(false).unwrap();
        }
        for _ in 0..20 {
            done.recv_timeout(Duration::from_secs(30))
                .expect("the idle worker runs the queued jobs");
        }
        release.send(()).unwrap();
        queue.shutdown();
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let done = Arc::new(AtomicU64::new(0));
        let queue = {
            let done = Arc::clone(&done);
            JobQueue::start(1, 64, move |explode: bool| {
                if explode {
                    panic!("job panic");
                }
                done.fetch_add(1, Ordering::SeqCst);
            })
        };
        queue.submit(true).unwrap();
        queue.submit(false).unwrap();
        queue.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 1, "worker survived the panic");
    }

    #[test]
    fn shutdown_drains_the_queued_jobs() {
        // The only worker is held in job 0 while jobs 1..=3 wait; the
        // queue hangs up (what `Drop` does first) before any of them
        // runs, and they all still run.
        let (handler, started, release) = gated();
        let mut queue = JobQueue::start(1, 8, handler);
        for i in 0..4 {
            queue.submit(i).unwrap();
        }
        assert_eq!(started.recv().unwrap(), 0);
        drop(queue.tx.take());
        for _ in 0..4 {
            release.send(()).unwrap();
        }
        queue.shutdown();
        assert_eq!(started.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }
}
