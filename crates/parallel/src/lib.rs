//! A minimal scoped worker pool.
//!
//! The sharded cycle engine dispatches one short job per simulated cycle,
//! so per-dispatch cost dominates: spawning OS threads each cycle (as
//! `std::thread::scope` would) costs tens of microseconds, while this pool
//! re-dispatches onto parked threads with two barrier waits. The API is a
//! scoped run — `scoped_run` does not return until every worker has
//! finished the job — which is what makes handing the workers references
//! into caller-owned data sound. The lifetime erasure that enables it is
//! the one `unsafe` block in the workspace, kept here behind a safe
//! signature so `rfnoc-sim` can stay `#![forbid(unsafe_code)]`.

#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;

/// The job a worker picks up at the start barrier.
#[derive(Clone, Copy)]
enum Job {
    /// No job published (initial state only; workers never observe it
    /// after a start barrier).
    Idle,
    /// Exit the worker loop.
    Shutdown,
    /// Run the published closure with the worker's index.
    Run(JobPtr),
}

/// A lifetime-erased pointer to the caller's `&(dyn Fn(usize) + Sync)`.
///
/// Soundness: the pointer is published before the start barrier and only
/// dereferenced between the start and end barriers of one `scoped_run`
/// call, which itself borrows the closure for at least that long — so the
/// pointee is alive and the shared borrow rules are respected (`Sync`
/// bounds the concurrent calls).
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared access from many threads is part
// of its contract) and outlives every dereference (see `JobPtr` docs), so
// sending the pointer to the worker threads is sound.
unsafe impl Send for JobPtr {}

struct Shared {
    /// Start/end rendezvous for `workers + 1` participants (the caller
    /// counts as worker 0).
    barrier: Barrier,
    job: Mutex<Job>,
    panicked: AtomicBool,
}

/// A fixed-size pool of parked worker threads executing scoped jobs.
///
/// `WorkerPool::new(n)` owns `n - 1` OS threads; the calling thread acts
/// as worker 0 during [`WorkerPool::scoped_run`], so a pool of `n` runs
/// jobs at parallelism `n`.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers).finish()
    }
}

impl WorkerPool {
    /// Creates a pool running jobs at parallelism `workers` (spawning
    /// `workers - 1` threads; the caller is worker 0).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        let shared = Arc::new(Shared {
            barrier: Barrier::new(workers),
            job: Mutex::new(Job::Idle),
            panicked: AtomicBool::new(false),
        });
        let handles = (1..workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rfnoc-shard-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn worker thread")
            })
            .collect();
        Self { shared, handles, workers }
    }

    /// Parallelism of this pool (including the calling thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(i)` once for every worker index `i in 0..workers`,
    /// concurrently, and returns only when all calls have finished.
    /// `f(0)` runs on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if any `f(i)` panicked. The panic surfaces only after every
    /// worker has reached the end barrier, so no borrow of `f` outlives
    /// the call; the pool is not usable afterwards (a worker's panic
    /// stays recorded and every later call panics too) — treat a panic
    /// as fatal to the simulation.
    pub fn scoped_run(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.workers == 1 {
            f(0);
            return;
        }
        // SAFETY: lifetime erasure only — the erased borrow is dereferenced
        // exclusively between the two barrier waits below, while `f` is
        // still borrowed by this call (see `JobPtr`).
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        {
            let mut job = self.shared.job.lock().expect("pool mutex");
            *job = Job::Run(JobPtr(erased));
        }
        self.shared.barrier.wait(); // start: workers read the job
        let caller_panic = catch_unwind(AssertUnwindSafe(|| f(0)));
        self.shared.barrier.wait(); // end: every dereference is done
        if let Err(payload) = caller_panic {
            std::panic::resume_unwind(payload);
        }
        assert!(
            !self.shared.panicked.load(Ordering::SeqCst),
            "a shard worker panicked"
        );
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if self.workers > 1 {
            {
                let mut job = self.shared.job.lock().expect("pool mutex");
                *job = Job::Shutdown;
            }
            self.shared.barrier.wait();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, idx: usize) {
    loop {
        shared.barrier.wait();
        let job = *shared.job.lock().expect("pool mutex");
        match job {
            Job::Shutdown => return,
            Job::Run(ptr) => {
                // SAFETY: see `JobPtr` — alive between the barriers.
                let f = unsafe { &*ptr.0 };
                if catch_unwind(AssertUnwindSafe(|| f(idx))).is_err() {
                    shared.panicked.store(true, Ordering::SeqCst);
                }
                shared.barrier.wait();
            }
            Job::Idle => unreachable!("start barrier without a published job"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_worker_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits = [const { AtomicUsize::new(0) }; 4];
        for _ in 0..100 {
            pool.scoped_run(&|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn single_worker_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let hit = AtomicUsize::new(0);
        pool.scoped_run(&|i| {
            assert_eq!(i, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn scoped_borrows_of_caller_data_work() {
        let pool = WorkerPool::new(3);
        let data: Vec<Mutex<u64>> = (0..3).map(|_| Mutex::new(0)).collect();
        pool.scoped_run(&|i| {
            *data[i].lock().unwrap() += (i as u64) + 1;
        });
        let total: u64 = data.iter().map(|m| *m.lock().unwrap()).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn worker_panic_is_reported() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped_run(&|i| {
                if i == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
    }
}
