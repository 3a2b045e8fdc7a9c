//! Shared parallel runtime: one process-wide worker pool reused by every
//! kernel instead of spawning scoped threads per call.
//!
//! The pool is std-only (no external dependencies) and hands out work in two
//! shapes:
//!
//! - **Jobs** ([`parallel_for`], [`parallel_map`], [`try_parallel_for`]). A
//!   job is a counter over `tasks` indices, and every participating thread
//!   repeatedly claims the next unclaimed index, so fast workers absorb the
//!   slow workers' share. One job costs a worker wake-up (≈ 40 µs on a
//!   2-core host), so a kernel pays it once per call, not once per step.
//! - **Teams** ([`team`]). A kernel that runs many short steps (Cheng–Church
//!   deletes ≈ 1000 nodes one at a time, each step a few hundred µs) makes
//!   the whole call one job: the caller *leads*, and up to `threads − 1` pool
//!   workers join as *helpers* when they are free. The leader runs
//!   [`Team::round`]s; each round splits a fixed list of tasks into
//!   contiguous runs over the members present when it starts. Between
//!   rounds, members spin for a bounded time, then yield. The leader never
//!   waits for a helper that has not joined, so a busy pool or a 1-core host
//!   leaves the caller working alone, never hung.
//!
//! Scheduling is dynamic but **results stay deterministic**: kernels assign
//! each output region to exactly one task and keep a fixed reduction order
//! inside the task, so outputs are bit-identical across thread counts and
//! runs.
//!
//! The submitting thread always participates in its own job, which makes
//! nested `parallel_for` calls deadlock-free: a worker that submits a job
//! mid-task drives that job to completion itself even if every other worker
//! is busy. A team's leader is its submitting thread in the same way.
//!
//! A panic ends a job or a team the same way: the remaining work is skipped
//! and the first payload is rethrown on the submitting thread once every
//! participant has let go of the job. An `Err` the team's leader returns
//! ends the team and releases its helpers.

use crate::lock;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// One submitted parallel job: a task counter plus completion bookkeeping.
struct Job {
    /// Lifetime-erased task body. Safety: the submitter blocks in
    /// [`Runtime::complete`] until `pending` reaches zero, and no worker touches
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
        // SAFETY: `complete` runs before `body`'s borrow ends.
        let job = unsafe { self.submit(threads, tasks, body) };
        self.complete(&job);
    }

    /// Run `lead` on the calling thread as the leader of a team of at most
    /// `threads` members; pool workers join as helpers while it runs. See
    /// the module docs and [`Team::round`].
    pub fn team<R>(&self, threads: usize, lead: impl FnOnce(&Team<'_>) -> R) -> R {
        let state = TeamState::new();
        let team = Team {
            state: &state,
            _leader_only: PhantomData,
        };
        let helpers = threads.max(1).min(self.pool_size + 1) - 1;
        if helpers == 0 {
            return lead(&team);
        }
        let help = |_: usize| state.help();
        // SAFETY: `complete` runs before `help` (and `state`) go out of
        // scope, including when `lead` panics: the panic is caught first.
        let job = unsafe { self.submit(threads, helpers, &help) };
        let out = catch_unwind(AssertUnwindSafe(|| lead(&team)));
        state.end();
        // Helper slots no worker claimed are claimed here and return at
        // once; helpers that joined see the end and return.
        self.complete(&job);
        out.unwrap_or_else(|payload| resume_unwind(payload))
    }

    /// Queue a job of `tasks` tasks over at most `threads` threads, the
    /// caller counted as one of them.
    ///
    /// # Safety
    /// The caller must pass the returned job to [`Runtime::complete`] before
    /// `body`'s borrow ends: the job holds `body` with its lifetime erased.
    unsafe fn submit(
        &self,
        threads: usize,
        tasks: usize,
        body: &(dyn Fn(usize) + Sync),
    ) -> Arc<Job> {
        // Erase the borrow's lifetime; see the safety note on `Job::body`.
        let body: &'static (dyn Fn(usize) + Sync) = std::mem::transmute(body);
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
        lock(&self.inject).push(Arc::clone(&job));
        self.available.notify_all();
        job
    }

    /// Work on `job` until no task is left unclaimed, wait for every task
    /// to finish, then rethrow the first panic a task raised.
    fn complete(&self, job: &Arc<Job>) {
        job.participate();
        let mut done = lock(&job.done);
        while !*done {
            done = job
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(done);
        lock(&self.inject).retain(|j| !Arc::ptr_eq(j, job));
        let payload = lock(&job.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// How long a team member busy-waits before it starts yielding its core
/// between checks: a helper waiting for the next round, or the leader
/// waiting for the round's other members. Cheng–Church's leader spends a
/// few µs between rounds (folding band partials, picking the node to
/// delete), so a helper is still spinning when the next round starts. On a
/// quiet 2-core host the bound does not show: `find_biclusters` at Large, 2
/// threads, best of 8 over three alternations, read 68–75 ms at 20 µs,
/// 72–76 at 200 µs and 67–74 at 2 ms. It matters when threads outnumber
/// cores: a member that has waited this long yields, so the thread it
/// waits for can run.
const SPIN: Duration = Duration::from_micros(200);

/// Busy-wait, then yield, until `ready` returns a value.
fn wait_for<T>(mut ready: impl FnMut() -> Option<T>) -> T {
    let start = Instant::now();
    loop {
        if let Some(v) = ready() {
            return v;
        }
        if start.elapsed() < SPIN {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// The members of a round: the leader (member 0) and the helpers with ids
/// `1..members`. `state` packs the round number (high 32 bits) with the
/// member count (low 32 bits); a count of 0 means the team has ended.
const MEMBERS: u64 = 0xffff_ffff;

/// One round's work, published by the leader before the round starts.
struct Round {
    body: &'static (dyn Fn(usize) + Sync),
    tasks: usize,
}

/// Shared state of one team; lives on the leader's stack for the team's
/// lifetime.
struct TeamState {
    /// Round number and member count, see [`MEMBERS`].
    state: AtomicU64,
    /// Helpers that have joined; helper ids are `1..=joined`.
    joined: AtomicUsize,
    /// Helpers done with the current round.
    finished: AtomicUsize,
    /// The current round's work. Written only by the leader, while no
    /// helper is inside a round.
    round: UnsafeCell<Round>,
    /// First panic a helper's run raised in the current round.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: `state`, `joined`, `finished` and `panic` are thread-safe. `round`
// is written by the leader only between rounds — before it publishes a round
// in `state` (a SeqCst store, which a helper's SeqCst load of that round
// synchronises with) and after every member of the previous round has
// counted itself in `finished` (Release, read with Acquire) — and read by a
// helper only inside a round it takes part in. The body it holds is `Sync`.
unsafe impl Sync for TeamState {}

impl TeamState {
    fn new() -> TeamState {
        TeamState {
            state: AtomicU64::new(1),
            joined: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            round: UnsafeCell::new(Round {
                body: &|_| {},
                tasks: 0,
            }),
            panic: Mutex::new(None),
        }
    }

    /// A helper's life in the team: join, then take part in every round
    /// that counts it until the team ends.
    fn help(&self) {
        // Read the state before joining: a round that counts this helper
        // was published after the join, so it differs from `seen`.
        let mut seen = self.state.load(Ordering::SeqCst);
        let id = self.joined.fetch_add(1, Ordering::SeqCst) + 1;
        while seen & MEMBERS != 0 {
            seen = wait_for(|| {
                let now = self.state.load(Ordering::SeqCst);
                (now != seen).then_some(now)
            });
            let members = (seen & MEMBERS) as usize;
            if id >= members {
                continue; // joined after this round started, or the end
            }
            // SAFETY: this helper is a member of the published round, so the
            // leader does not touch `round` until it counts itself finished.
            let round = unsafe { &*self.round.get() };
            let run = share(round.tasks, id, members);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run.for_each(round.body))) {
                lock(&self.panic).get_or_insert(payload);
            }
            self.finished.fetch_add(1, Ordering::Release);
        }
    }

    /// Tell every helper the team is over.
    fn end(&self) {
        let round = self.state.load(Ordering::SeqCst) >> 32;
        self.state.store((round + 1) << 32, Ordering::SeqCst);
    }
}

/// Member `id`'s contiguous run of `0..tasks` in a round of `members`.
fn share(tasks: usize, id: usize, members: usize) -> std::ops::Range<usize> {
    tasks * id / members..tasks * (id + 1) / members
}

/// A kernel's team, handed to the leader by [`team`]. See the module docs.
/// Only the leader's thread holds it (it is neither `Send` nor `Sync`), so
/// rounds never overlap: a round's body cannot start another round.
pub struct Team<'a> {
    state: &'a TeamState,
    _leader_only: PhantomData<*const ()>,
}

impl Team<'_> {
    /// Run `body(i)` for every `i in 0..tasks`: the tasks are split into
    /// contiguous runs over the members present now, the leader taking the
    /// first. Returns once every run has finished, rethrowing the first
    /// panic any of them raised. A kernel whose tasks write disjoint
    /// outputs with a fixed order inside each task gets the same bits
    /// whoever runs which run.
    pub fn round(&self, tasks: usize, body: impl Fn(usize) + Sync) {
        let st = self.state;
        let members = st.joined.load(Ordering::SeqCst) + 1;
        if members == 1 {
            (0..tasks).for_each(body);
            return;
        }
        let body: &(dyn Fn(usize) + Sync) = &body;
        // SAFETY: every member of the previous round has finished (checked
        // below before the last round returned), so no helper reads `round`;
        // `body`'s lifetime is erased, and this function does not return
        // before every member of this round has finished with it.
        unsafe {
            *st.round.get() = Round {
                body: std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                    body,
                ),
                tasks,
            };
        }
        // No helper touches `finished` before it sees the round published
        // below, so the reset needs no ordering of its own.
        st.finished.store(0, Ordering::Relaxed);
        let round = (st.state.load(Ordering::Relaxed) >> 32) + 1;
        st.state
            .store(round << 32 | members as u64, Ordering::SeqCst);
        let mine = catch_unwind(AssertUnwindSafe(|| share(tasks, 0, members).for_each(body)));
        wait_for(|| (st.finished.load(Ordering::Acquire) == members - 1).then_some(()));
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        let payload = lock(&st.panic).take();
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

/// Run `lead` as the leader of a team of at most `threads` members on the
/// global pool, returning what it returns. See [`Runtime::team`].
pub fn team<R>(threads: usize, lead: impl FnOnce(&Team<'_>) -> R) -> R {
    global().team(threads, lead)
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

    /// Run `f` on its own thread and return its result, failing the test if
    /// it takes longer than `secs` (a hung team). A hung thread is left
    /// behind: it cannot be joined.
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(std::time::Duration::from_secs(secs))
            .expect("finished in time, without panicking")
    }

    /// Rounds of `members` tasks until one round ran on `members` distinct
    /// threads, so every helper of a `members`-thread team has joined.
    fn await_helpers(team: &Team<'_>, members: usize) {
        loop {
            let ids = Mutex::new(Vec::new());
            team.round(members, |_| lock(&ids).push(std::thread::current().id()));
            let mut ids = ids.into_inner().expect("no round panicked");
            ids.sort_by_key(|id| format!("{id:?}"));
            ids.dedup();
            if ids.len() == members {
                return;
            }
        }
    }

    /// Every worker of `rt` is free: a job of `threads` tasks that each
    /// wait for all the others completes.
    fn pool_is_free(rt: &Runtime, threads: usize) {
        let barrier = std::sync::Barrier::new(threads);
        rt.run(threads, threads, &|_| {
            barrier.wait();
        });
    }

    /// Ten rounds of 40 tasks, each task adding into its own slot.
    fn team_sums(team: &Team<'_>) -> Vec<u64> {
        let sums: Vec<AtomicU64> = (0..40).map(|_| AtomicU64::new(0)).collect();
        for round in 0..10u64 {
            team.round(40, |i| {
                sums[i].fetch_add(round * 40 + i as u64, Ordering::Relaxed);
            });
        }
        sums.into_iter().map(AtomicU64::into_inner).collect()
    }

    #[test]
    fn team_leader_finishes_alone_when_every_worker_is_busy() {
        within(60, || {
            let rt = Runtime::with_workers(2);
            let want = rt.team(1, team_sums);
            let started = AtomicUsize::new(0);
            let released = AtomicBool::new(false);
            // An outer job holds all three threads; one of its tasks leads a
            // team that no worker is free to join.
            rt.run(3, 3, &|i| {
                if i > 0 {
                    started.fetch_add(1, Ordering::SeqCst);
                    while !released.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    return;
                }
                while started.load(Ordering::SeqCst) < 2 {
                    std::thread::yield_now();
                }
                let leader = std::thread::current().id();
                let got = rt.team(3, |team| {
                    let ran = AtomicUsize::new(0);
                    team.round(64, |_| {
                        assert_eq!(std::thread::current().id(), leader);
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                    assert_eq!(ran.into_inner(), 64);
                    team_sums(team)
                });
                released.store(true, Ordering::SeqCst);
                assert_eq!(got, want);
            });
        });
    }

    #[test]
    fn team_results_match_with_helpers() {
        within(60, || {
            let rt = Runtime::with_workers(3);
            let want = rt.team(1, team_sums);
            let got = rt.team(4, |team| {
                await_helpers(team, 4);
                team_sums(team)
            });
            assert_eq!(got, want);
        });
    }

    #[test]
    fn team_panic_reaches_the_caller_and_every_helper_exits() {
        within(60, || {
            let rt = Runtime::with_workers(2);
            let result = catch_unwind(AssertUnwindSafe(|| {
                rt.team(3, |team| {
                    await_helpers(team, 3);
                    // Task 2 of 3 is the last helper's run.
                    team.round(3, |i| {
                        if i == 2 {
                            panic!("helper boom");
                        }
                    });
                    unreachable!("the round rethrows the helper's panic");
                })
            }));
            let payload = result.expect_err("the panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper boom"));
            // Both workers left the team: a job that needs all three
            // threads at once completes, and so does a new team.
            pool_is_free(&rt, 3);
            assert_eq!(rt.team(3, team_sums), rt.team(1, team_sums));
        });
    }

    #[test]
    fn team_leader_panic_waits_for_its_helpers() {
        within(60, || {
            let rt = Runtime::with_workers(2);
            let result = catch_unwind(AssertUnwindSafe(|| {
                rt.team(3, |team| {
                    await_helpers(team, 3);
                    team.round(3, |i| {
                        if i == 0 {
                            panic!("leader boom");
                        }
                    });
                })
            }));
            let payload = result.expect_err("the panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"leader boom"));
            pool_is_free(&rt, 3);
        });
    }

    #[test]
    fn team_runs_inside_a_parallel_for_task() {
        within(60, || {
            let want = team(1, team_sums);
            parallel_for(2, 4, |_| {
                assert_eq!(team(2, team_sums), want);
            });
        });
    }

    #[test]
    fn team_err_mid_loop_releases_the_helpers() {
        within(60, || {
            let rt = Runtime::with_workers(2);
            let out: Result<(), usize> = rt.team(3, |team| {
                await_helpers(team, 3);
                for round in 0..100 {
                    team.round(6, |_| {});
                    if round == 10 {
                        return Err(round);
                    }
                }
                Ok(())
            });
            assert_eq!(out, Err(10));
            pool_is_free(&rt, 3);
        });
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
