//! Background disk scheduler: a dedicated IO thread servicing read/write
//! requests from a bounded queue.
//!
//! The tiered store (see [`crate::bufferpool`]) must never do file IO on
//! an ingest worker or an assembling reader directly — those threads hold
//! shard locks, and a slow disk would stall every producer behind the
//! lock. Instead, every segment read or write is queued to the
//! scheduler thread; the requester gets a [`Completion`] it can
//! wait on (spill waits before flipping rows cold, so a failed write
//! leaves its rows hot, and a page-in waits because it cannot proceed
//! without the bytes). Queueing decouples
//! *submission* from *service*: a spill submits every segment write up
//! front and the encode of segment *n+1* overlaps the write of segment
//! *n*.
//!
//! This is the `disk_scheduler.rs` shape of the bustub-style buffer pool
//! the ROADMAP points at, minus `io_uring`: one worker thread, a bounded
//! MPSC queue, one completion channel per request.
//!
//! Together with [`crate::persist`], this module is one of the two places
//! in the sync-scoped crates allowed to touch `std::fs` — clippy's
//! `disallowed_methods`/`disallowed_types`, denied at the crate root,
//! enforce that confinement.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the disk scheduler is one of the two storage IO modules (with persist.rs)"
)]

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread;

/// One queued IO operation.
#[derive(Debug)]
enum DiskOp {
    /// Read the whole file at `path`.
    Read { path: PathBuf },
    /// Create/overwrite the file at `path` with `bytes` (parent
    /// directories are created as needed).
    Write { path: PathBuf, bytes: Vec<u8> },
}

/// A request on the scheduler's queue: the operation plus the completion
/// channel the worker answers on.
#[derive(Debug)]
struct DiskRequest {
    op: DiskOp,
    done: SyncSender<io::Result<Vec<u8>>>,
}

/// Handle to a scheduled request; [`Completion::wait`] blocks until the
/// IO thread has serviced it.
#[derive(Debug)]
pub struct Completion {
    rx: Receiver<io::Result<Vec<u8>>>,
}

impl Completion {
    /// Block until the request is serviced. Reads resolve to the file
    /// bytes; writes resolve to an empty vec. A scheduler shut down with
    /// the request still queued resolves to an error.
    pub fn wait(self) -> io::Result<Vec<u8>> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "disk scheduler shut down before servicing the request",
            ))
        })
    }
}

/// Counters the scheduler thread maintains (monotonic).
#[derive(Debug)]
struct SchedCounters {
    reads: AtomicUsize,
    writes: AtomicUsize,
    read_bytes: AtomicUsize,
    written_bytes: AtomicUsize,
}

impl SchedCounters {
    fn new() -> Self {
        SchedCounters {
            reads: AtomicUsize::new(0),
            writes: AtomicUsize::new(0),
            read_bytes: AtomicUsize::new(0),
            written_bytes: AtomicUsize::new(0),
        }
    }
}

/// Snapshot of [`DiskScheduler`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Read requests serviced.
    pub reads: usize,
    /// Write requests serviced.
    pub writes: usize,
    /// Total bytes read.
    pub read_bytes: usize,
    /// Total bytes written.
    pub written_bytes: usize,
}

/// The background disk scheduler: one owned IO thread draining a bounded
/// request queue. Dropping the scheduler disconnects the queue and joins
/// the thread (queued requests are serviced first; their completions
/// resolve normally).
#[derive(Debug)]
pub struct DiskScheduler {
    tx: Option<SyncSender<DiskRequest>>,
    worker: Option<thread::JoinHandle<()>>,
    counters: Arc<SchedCounters>,
}

impl Default for DiskScheduler {
    fn default() -> Self {
        DiskScheduler::new(128)
    }
}

impl DiskScheduler {
    /// Scheduler with a queue holding at most `queue_depth` outstanding
    /// requests; a full queue blocks the submitter (backpressure), which
    /// bounds the memory pinned by in-flight write payloads.
    pub fn new(queue_depth: usize) -> Self {
        let (tx, rx) = sync_channel::<DiskRequest>(queue_depth.max(1));
        let counters = Arc::new(SchedCounters::new());
        let worker_counters = Arc::clone(&counters);
        let worker = thread::Builder::new()
            .name("df-disk-sched".to_string())
            .spawn(move || service_loop(rx, worker_counters))
            .expect("spawn disk scheduler thread");
        DiskScheduler {
            tx: Some(tx),
            worker: Some(worker),
            counters,
        }
    }

    /// Queue a read of the whole file at `path`.
    pub fn read(&self, path: PathBuf) -> Completion {
        self.schedule(DiskOp::Read { path })
    }

    /// Queue a create/overwrite of `path` with `bytes`.
    pub fn write(&self, path: PathBuf, bytes: Vec<u8>) -> Completion {
        self.schedule(DiskOp::Write { path, bytes })
    }

    fn schedule(&self, op: DiskOp) -> Completion {
        // Rendezvous completion: the worker's send blocks until the
        // requester waits (or parks the result if the requester is late).
        let (done, rx) = sync_channel::<io::Result<Vec<u8>>>(1);
        // The send cannot fail while `self` owns the worker; if it ever
        // did, the request drops with `done` and the completion resolves
        // to the shut-down error.
        let _ = self
            .tx
            .as_ref()
            .expect("scheduler queue present until drop")
            .send(DiskRequest { op, done });
        Completion { rx }
    }

    /// Monotonic IO counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            reads: self.counters.reads.load(Ordering::Relaxed),
            writes: self.counters.writes.load(Ordering::Relaxed),
            read_bytes: self.counters.read_bytes.load(Ordering::Relaxed),
            written_bytes: self.counters.written_bytes.load(Ordering::Relaxed),
        }
    }
}

impl Drop for DiskScheduler {
    fn drop(&mut self) {
        self.tx = None; // disconnect: the worker drains and exits
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// The IO thread: service requests until every sender is gone. This is
/// the only function in the tiered-storage stack that reads or writes a
/// file (persist.rs only lists a shard's segment files for recovery).
fn service_loop(rx: Receiver<DiskRequest>, counters: Arc<SchedCounters>) {
    while let Ok(req) = rx.recv() {
        let result = match req.op {
            DiskOp::Read { path } => {
                let r = std::fs::read(&path);
                if let Ok(bytes) = &r {
                    counters.reads.fetch_add(1, Ordering::Relaxed);
                    counters
                        .read_bytes
                        .fetch_add(bytes.len(), Ordering::Relaxed);
                }
                r
            }
            DiskOp::Write { path, bytes } => {
                let n = bytes.len();
                let r = write_all(&path, &bytes);
                if r.is_ok() {
                    counters.writes.fetch_add(1, Ordering::Relaxed);
                    counters.written_bytes.fetch_add(n, Ordering::Relaxed);
                }
                r.map(|()| Vec::new())
            }
        };
        // A requester that dropped its Completion without waiting is fine.
        let _ = req.done.send(result);
    }
}

fn write_all(path: &std::path::Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::test_dir;

    #[test]
    fn write_then_read_round_trips_off_the_io_thread() {
        let dir = test_dir("disk-sched-rw");
        let path = dir.path().join("nested/dir/blob.bin");
        let sched = DiskScheduler::new(4);
        sched
            .write(path.clone(), vec![1, 2, 3, 4])
            .wait()
            .expect("write serviced");
        let back = sched.read(path).wait().expect("read serviced");
        assert_eq!(back, vec![1, 2, 3, 4]);
        let st = sched.stats();
        assert_eq!((st.reads, st.writes), (1, 1));
        assert_eq!(st.written_bytes, 4);
        assert_eq!(st.read_bytes, 4);
    }

    #[test]
    fn read_of_missing_file_resolves_to_an_error() {
        let dir = test_dir("disk-sched-missing");
        let sched = DiskScheduler::default();
        let err = sched.read(dir.path().join("nope.bin")).wait();
        assert!(err.is_err());
    }

    #[test]
    fn queued_requests_survive_drop_and_many_waiters_interleave() {
        let dir = test_dir("disk-sched-drop");
        let sched = DiskScheduler::new(2);
        let completions: Vec<Completion> = (0..8)
            .map(|i| sched.write(dir.path().join(format!("f{i}")), vec![i as u8; 16]))
            .collect();
        drop(sched); // drains the queue before joining
        for c in completions {
            c.wait().expect("queued write serviced before shutdown");
        }
        for i in 0..8 {
            let meta = std::fs::metadata(dir.path().join(format!("f{i}"))).expect("file exists");
            assert_eq!(meta.len(), 16);
        }
    }
}
