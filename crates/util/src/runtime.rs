//! Shared parallel runtime: one process-wide worker pool reused by every
//! kernel instead of spawning scoped threads per call.
//!
//! The pool is std-only (no external dependencies) and work-stealing in the
//! sense that matters for these kernels: a job is a counter over `tasks`
//! indices, and every participating thread repeatedly claims the next
//! unclaimed index, so fast workers automatically absorb the slow workers'
//! share. Compared to the previous per-call `crossbeam::thread::scope`
//! pattern this removes thread spawn/join from every kernel invocation and
//! gives all layers (linalg, stats, MapReduce simulation, engines) one
//! parallelism story governed by `ExecOpts.threads`.
//!
//! Scheduling is dynamic but **results stay deterministic**: kernels assign
//! each output region to exactly one task and keep a fixed reduction order
//! inside the task, so outputs are bit-identical across thread counts and
//! runs.
//!
//! The submitting thread always participates in its own job, which makes
//! nested `parallel_for` calls deadlock-free: a worker that submits a job
//! mid-task drives that job to completion itself even if every other worker
//! is busy.

use crate::lock;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// One submitted parallel job: a task counter plus completion bookkeeping.
struct Job {
    /// Lifetime-erased task body. Safety: the submitter blocks in
    /// [`Runtime::run`] until `pending` reaches zero, and no worker touches
    /// this reference after its final `pending` decrement, so the borrow
    /// outlives every use despite the `'static` lie.
    body: &'static (dyn Fn(usize) + Sync),
    /// Next task index to claim.
    next: AtomicUsize,
    /// Total tasks in the job.
    tasks: usize,
    /// Tasks claimed-and-finished accounting; starts at `tasks`.
    pending: AtomicUsize,
    /// Threads currently participating (the submitter occupies one slot).
    workers: AtomicUsize,
    /// Participation cap — `ExecOpts.threads` for kernel jobs.
    max_workers: usize,
    /// Set when any task panicked; stops further task execution.
    poisoned: AtomicBool,
    /// First panic payload, rethrown on the submitting thread.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Completion flag + condvar the submitter waits on.
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Job {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.tasks
    }

    /// Claim indices and run tasks until the job is exhausted. Assumes the
    /// caller already holds a `workers` slot.
    fn participate(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                break;
            }
            if !self.poisoned.load(Ordering::Relaxed) {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(i))) {
                    self.poisoned.store(true, Ordering::Relaxed);
                    let mut slot = lock(&self.panic);
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut done = lock(&self.done);
                *done = true;
                self.done_cv.notify_all();
            }
        }
        self.workers.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The shared pool. One long-lived instance per process (see [`global`]);
/// separate instances are only constructed by tests.
pub struct Runtime {
    inject: Mutex<Vec<Arc<Job>>>,
    available: Condvar,
    pool_size: usize,
}

impl Runtime {
    /// Pool with `workers` background threads. The submitting thread always
    /// works too, so `workers = cores - 1` saturates the machine.
    fn with_workers(workers: usize) -> Arc<Runtime> {
        let rt = Arc::new(Runtime {
            inject: Mutex::new(Vec::new()),
            available: Condvar::new(),
            pool_size: workers,
        });
        for w in 0..workers {
            let rt = Arc::clone(&rt);
            std::thread::Builder::new()
                .name(format!("genbase-worker-{w}"))
                .spawn(move || rt.worker_loop())
                .expect("spawn pool worker");
        }
        rt
    }

    /// Background worker threads in the pool (excluding submitters).
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = lock(&self.inject);
                loop {
                    q.retain(|j| !j.exhausted());
                    if let Some(job) = q.iter().find_map(|j| self.try_join(j)) {
                        break job;
                    }
                    q = self
                        .available
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            job.participate();
        }
    }

    /// Reserve a `workers` slot on `job` if it still has unclaimed tasks and
    /// spare capacity.
    fn try_join(&self, job: &Arc<Job>) -> Option<Arc<Job>> {
        if job.exhausted() {
            return None;
        }
        let prev = job.workers.fetch_add(1, Ordering::AcqRel);
        if prev >= job.max_workers {
            job.workers.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(Arc::clone(job))
    }

    /// Run `body(0..tasks)` using at most `threads` concurrent threads
    /// (including the caller). Blocks until every task finished; panics from
    /// tasks are rethrown here after the job drains.
    pub fn run(&self, threads: usize, tasks: usize, body: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        let threads = threads.max(1);
        if threads == 1 || tasks == 1 || self.pool_size == 0 {
            for i in 0..tasks {
                body(i);
            }
            return;
        }
        // Erase the borrow's lifetime; see the safety note on `Job::body`.
        let body: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
        let job = Arc::new(Job {
            body,
            next: AtomicUsize::new(0),
            tasks,
            pending: AtomicUsize::new(tasks),
            workers: AtomicUsize::new(1), // the submitter
            max_workers: threads,
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        {
            let mut q = lock(&self.inject);
            q.push(Arc::clone(&job));
        }
        self.available.notify_all();
        job.participate();
        let mut done = lock(&job.done);
        while !*done {
            done = job
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(done);
        lock(&self.inject).retain(|j| !Arc::ptr_eq(j, &job));
        let payload = lock(&job.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// The process-wide pool, created on first use with `cores - 1` workers.
pub fn global() -> &'static Runtime {
    static GLOBAL: OnceLock<Arc<Runtime>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Runtime::with_workers(cores.saturating_sub(1))
    })
}

/// Run `body` for every index in `0..tasks` on the global pool, capped at
/// `threads` concurrent threads.
pub fn parallel_for(threads: usize, tasks: usize, body: impl Fn(usize) + Sync) {
    global().run(threads, tasks, &body);
}

/// Collect `f(i)` for `i in 0..tasks` in index order, computed in parallel.
pub fn parallel_map<T, F>(threads: usize, tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    struct Slots<'a, T>(&'a [UnsafeCell<Option<T>>]);
    // SAFETY: each task writes only its own slot, so slots are never aliased.
    unsafe impl<T: Send> Sync for Slots<'_, T> {}
    impl<T> Slots<'_, T> {
        /// SAFETY: each index must be written by at most one live task.
        unsafe fn set(&self, i: usize, value: T) {
            *self.0[i].get() = Some(value);
        }
    }

    let slots: Vec<UnsafeCell<Option<T>>> = (0..tasks).map(|_| UnsafeCell::new(None)).collect();
    let shared = Slots(&slots);
    global().run(threads, tasks, &|i| {
        // SAFETY: index i is claimed by exactly one task (see Slots).
        unsafe { shared.set(i, f(i)) };
    });
    slots
        .into_iter()
        .map(|c| c.into_inner().expect("task ran to completion"))
        .collect()
}

/// Fallible [`parallel_for`]: runs every task, then reports the first error
/// in task order (deterministic regardless of which thread hit it first).
pub fn try_parallel_for<E, F>(threads: usize, tasks: usize, f: F) -> Result<(), E>
where
    E: Send,
    F: Fn(usize) -> Result<(), E> + Sync,
{
    parallel_map(threads, tasks, f).into_iter().collect()
}

/// A `&mut [T]` that parallel tasks may carve into **disjoint** regions.
///
/// Kernels use this to let each task write its own rows/blocks of a shared
/// output buffer without locking. All methods that hand out overlapping
/// ranges are `unsafe`; callers must guarantee disjointness across
/// concurrently live slices.
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: access is only possible through `slice_mut`, whose contract makes
// concurrent regions disjoint.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wrap a uniquely borrowed slice.
    pub fn new(data: &'a mut [T]) -> SharedSlice<'a, T> {
        SharedSlice {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _marker: PhantomData,
        }
    }

    /// Total length of the underlying buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable view of `start..start + len`.
    ///
    /// # Safety
    /// The range must be in bounds and must not overlap any other range
    /// handed out while both borrows are live.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len, "SharedSlice range out of bounds");
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }

    /// Read the element at `idx` without forming a reference (so it may
    /// coexist with live `slice_mut` views of *other* elements).
    ///
    /// # Safety
    /// `idx` must be in bounds and no thread may be concurrently writing it.
    pub unsafe fn read(&self, idx: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(idx < self.len, "SharedSlice read out of bounds");
        std::ptr::read(self.ptr.add(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_order() {
        for threads in [1, 2, 8] {
            let out = parallel_map(threads, 100, |i| i * i);
            assert_eq!(out.len(), 100);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i, "threads={threads}");
            }
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
        parallel_for(8, 500, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_and_one_task_edge_cases() {
        parallel_for(4, 0, |_| panic!("no tasks to run"));
        let out = parallel_map(4, 1, |i| i + 41);
        assert_eq!(out, vec![41]);
    }

    #[test]
    fn nested_jobs_complete() {
        let out = parallel_map(4, 8, |i| {
            let inner = parallel_map(4, 8, |j| i * 8 + j);
            inner.iter().sum::<usize>()
        });
        for (i, v) in out.iter().enumerate() {
            let expect: usize = (0..8).map(|j| i * 8 + j).sum();
            assert_eq!(*v, expect);
        }
    }

    #[test]
    fn panics_propagate_to_submitter() {
        let result = std::panic::catch_unwind(|| {
            parallel_for(4, 64, |i| {
                if i == 13 {
                    panic!("boom");
                }
            })
        });
        assert!(result.is_err());
        // Pool must stay usable after a poisoned job.
        let out = parallel_map(4, 16, |i| i);
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn errors_report_first_in_task_order() {
        let r = try_parallel_for(8, 100, |i| if i >= 40 { Err(i) } else { Ok(()) });
        assert_eq!(r, Err(40));
        assert_eq!(try_parallel_for(8, 100, |_| Ok::<(), usize>(())), Ok(()));
    }

    #[test]
    fn shared_slice_disjoint_writes() {
        let mut buf = vec![0usize; 64];
        let shared = SharedSlice::new(&mut buf);
        parallel_for(8, 8, |i| {
            let chunk = unsafe { shared.slice_mut(i * 8, 8) };
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = i * 8 + k;
            }
        });
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    /// The container running CI may expose a single core, which would leave
    /// the global pool with zero workers and every job inline. Force a
    /// multi-worker pool so the concurrent claim/complete/panic paths are
    /// exercised regardless of the host.
    #[test]
    fn forced_multiworker_pool_executes_concurrently() {
        let rt = Runtime::with_workers(3);
        assert_eq!(rt.pool_size(), 3);
        let hits: Vec<AtomicU64> = (0..256).map(|_| AtomicU64::new(0)).collect();
        rt.run(4, 256, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        // Back-to-back jobs reuse the same pool.
        for round in 0..20 {
            let total = AtomicU64::new(0);
            rt.run(4, 64, &|i| {
                total.fetch_add(i as u64 + round, Ordering::Relaxed);
            });
            assert_eq!(
                total.load(Ordering::Relaxed),
                (0..64).sum::<u64>() + 64 * round
            );
        }
    }

    #[test]
    fn forced_multiworker_pool_propagates_panics() {
        let rt = Runtime::with_workers(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.run(3, 128, &|i| {
                if i == 77 {
                    panic!("worker boom");
                }
            })
        }));
        assert!(result.is_err());
        // Pool survives and completes later jobs.
        let count = AtomicU64::new(0);
        rt.run(3, 32, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn results_thread_count_invariant() {
        let compute = |threads: usize| {
            parallel_map(threads, 37, |i| {
                let mut acc = 0.0f64;
                for k in 0..1000 {
                    acc += ((i * 1000 + k) as f64).sqrt();
                }
                acc.to_bits()
            })
        };
        let serial = compute(1);
        for threads in [2, 3, 8] {
            assert_eq!(compute(threads), serial, "threads={threads}");
        }
    }
}
