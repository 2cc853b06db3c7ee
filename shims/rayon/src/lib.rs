//! Offline stand-in for the `rayon` crate (no registry access in this build
//! environment; see `shims/README.md`).
//!
//! Covers the surface this workspace uses and keeps it genuinely parallel
//! on a persistent worker pool instead of a work-stealing one:
//!
//! * `slice.par_chunks_mut(n).enumerate().for_each(f)` — each part owns a
//!   contiguous run of chunks,
//! * `range.into_par_iter().map(f).collect()` / `.for_each(f)` — the index
//!   space is split into one contiguous span per part.
//!
//! Work is split eagerly into one part per worker (`available_parallelism()`,
//! read once per process), which is the right shape for the regular,
//! equal-cost blocks these kernels produce. The first parallel call starts
//! `current_num_threads() − 1` workers that live for the process, as real
//! rayon's global registry does. Each call publishes one job; the caller
//! and at most `parts − 1` workers claim its parts from a shared counter,
//! and the caller returns once every part is done. Idle workers spin for
//! `SPIN_WINDOW` after their last part and then park on a condvar.
//!
//! A call runs inline on the caller, part by part in order, when only one
//! thread is available or another job is in flight — which includes a
//! parallel call nested inside a part, so nesting never deadlocks. A panic
//! in any part is re-raised on the caller once every part is done, and the
//! pool stays usable.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Global worker cap installed by [`ThreadPoolBuilder::build_global`];
/// `0` means uncapped (use the hardware parallelism).
static GLOBAL_THREAD_CAP: AtomicUsize = AtomicUsize::new(0);

/// Whether [`ThreadPoolBuilder::build_global`] already ran (it is
/// first-wins, like real rayon's global pool initialization).
static GLOBAL_POOL_BUILT: AtomicUsize = AtomicUsize::new(0);

/// How long an idle worker, or a caller waiting on the workers' last
/// parts, spins before it parks. On a 2-vCPU AVX-512 host a two-part call
/// taken up by a spinning worker costs ~1.3 µs end to end, while a parked
/// worker joins 8–27 µs after the publish. 50 µs covers the glue between
/// consecutive kernel calls of a decode step (99.8% of those gaps in a
/// traced half-Llama decode run, p99 35 µs), so the worker is still
/// spinning when the next call comes; a worker that finds no job in that
/// window parks and stops competing with other threads for the cores.
const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// The hardware parallelism, read once per process: real rayon sizes its
/// pool once, and `available_parallelism` is not free (on Linux it reads
/// the cgroup CPU quota on every call).
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The number of threads (the caller included) a parallel call fans out
/// to at most — mirrors `rayon::current_num_threads`.
pub fn current_num_threads() -> usize {
    let hw = hardware_threads();
    match GLOBAL_THREAD_CAP.load(Ordering::Relaxed) {
        0 => hw,
        cap => cap.min(hw),
    }
}

/// Error returned when the global pool was already initialized — mirrors
/// `rayon::ThreadPoolBuildError`.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the global thread pool has already been initialized")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Mirror of `rayon::ThreadPoolBuilder`, reduced to the one knob the shim
/// can honor: a cap on how many threads a parallel call fans out to. The
/// cap bounds how many parts a call is split into, so it holds even when
/// the pool was started before the cap was installed.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with the default (uncapped) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap the worker count; `0` keeps the hardware default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Install the configuration globally. First call wins; later calls
    /// fail with [`ThreadPoolBuildError`], matching real rayon's
    /// first-initialization-wins semantics for the global pool.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        if GLOBAL_POOL_BUILT.swap(1, Ordering::SeqCst) != 0 {
            return Err(ThreadPoolBuildError);
        }
        GLOBAL_THREAD_CAP.store(self.num_threads, Ordering::Relaxed);
        Ok(())
    }
}

/// One parallel call: `parts` indices handed out from `next`, each run
/// through the caller's closure exactly once.
struct Job {
    /// The caller's closure, its lifetime erased. Dereferenced only by
    /// [`Job::work`], after claiming a part (see the `SAFETY` note there).
    f: *const (dyn Fn(usize) + Sync),
    parts: usize,
    /// Workers still allowed to join: `parts − 1` at the start, since the
    /// caller works too. Workers that find none left sit the job out.
    seats: AtomicUsize,
    /// The next unclaimed part; claims past `parts` find nothing to do.
    next: AtomicUsize,
    /// Parts finished. The caller returns only once it reaches `parts`.
    done: AtomicUsize,
    /// The first panic payload of any part, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Unparked by whichever thread finishes the last part.
    caller: Thread,
}

// SAFETY: `f` points at a `Sync` closure, so sharing it across threads is
// sound while it lives, and `Job::work` dereferences it only while the
// caller is still inside `run` (see there). Every other field is `Send +
// Sync` on its own.
unsafe impl Send for Job {}
// SAFETY: as for `Send` above.
unsafe impl Sync for Job {}

impl Job {
    /// A job running `f` over `parts` parts for the current thread.
    fn new(parts: usize, f: &(dyn Fn(usize) + Sync)) -> Self {
        // SAFETY: only the lifetime is erased (same fat-pointer layout);
        // see `Job::work` for why the closure outlives every dereference.
        let f: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(f) };
        Job {
            f,
            parts,
            seats: AtomicUsize::new(parts.saturating_sub(1)),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
            caller: std::thread::current(),
        }
    }

    /// Take one of the job's worker seats; `false` once they are gone.
    fn take_seat(&self) -> bool {
        self.seats
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| s.checked_sub(1))
            .is_ok()
    }

    /// Claim and run parts until none are left.
    fn work(&self) {
        loop {
            let p = self.next.fetch_add(1, Ordering::Relaxed);
            if p >= self.parts {
                return;
            }
            // SAFETY: `p < parts`, and part `p` is counted in `done` only
            // after this call returns, so `done < parts` until then. The
            // caller does not leave `run` — and the closure `f` borrows
            // from its frame stays alive — before `done` reaches `parts`.
            let f = unsafe { &*self.f };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(p))) {
                self.panic
                    .lock()
                    .expect("panic slot lock is never held across a part")
                    .get_or_insert(payload);
            }
            // Release pairs with the caller's Acquire load of `done`: the
            // part's writes are visible once the caller sees it counted.
            if self.done.fetch_add(1, Ordering::Release) + 1 == self.parts {
                self.caller.unpark();
            }
        }
    }
}

/// The process-wide worker pool.
struct Pool {
    /// Held by the caller whose job is in flight; any other call (a
    /// nested one, or another thread's) runs inline.
    busy: AtomicBool,
    /// Bumped (under `slot`'s lock) on every publish; idle workers watch it.
    epoch: AtomicU64,
    slot: Mutex<Slot>,
    wake: Condvar,
}

/// The in-flight job, and how many workers wait on [`Pool::wake`].
struct Slot {
    job: Option<Arc<Job>>,
    sleepers: usize,
}

/// The pool, started on first use with one worker per thread beyond the
/// caller's.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        for i in 1..current_num_threads() {
            // Workers run every part under `catch_unwind` and hold no
            // lock across one, so they never exit; like real rayon's
            // registry they live for the process and are never joined.
            std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(|| worker(POOL.wait()))
                .expect("spawn rayon shim worker");
        }
        Pool {
            busy: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            slot: Mutex::new(Slot {
                job: None,
                sleepers: 0,
            }),
            wake: Condvar::new(),
        }
    })
}

/// A worker's life: wait for a new epoch (spinning until [`SPIN_WINDOW`]
/// after its last part, then parked), then help with that epoch's job if
/// it gets a seat.
fn worker(pool: &'static Pool) {
    let mut seen = 0;
    // A job the worker sits out does not restart its spin window, so
    // workers beyond a call's parts go on to park.
    let mut idle_since = Instant::now();
    loop {
        while pool.epoch.load(Ordering::Acquire) == seen && idle_since.elapsed() < SPIN_WINDOW {
            std::hint::spin_loop();
        }
        let job = {
            let mut slot = pool
                .slot
                .lock()
                .expect("pool lock is never held across a part");
            while pool.epoch.load(Ordering::Acquire) == seen {
                slot.sleepers += 1;
                slot = pool
                    .wake
                    .wait(slot)
                    .expect("pool lock is never held across a part");
                slot.sleepers -= 1;
            }
            seen = pool.epoch.load(Ordering::Acquire);
            slot.job.clone()
        };
        if let Some(job) = job.filter(|job| job.take_seat()) {
            job.work();
            idle_since = Instant::now();
        }
    }
}

/// Run `f(p)` once for every part `p` in `0..parts`, on the pool when it
/// can take the call, else inline in order. Returns once every part is
/// done; a panic in any part is re-raised here after that.
fn run(parts: usize, f: &(dyn Fn(usize) + Sync)) {
    if parts <= 1 || current_num_threads() <= 1 {
        return (0..parts).for_each(f);
    }
    let pool = pool();
    if pool
        .busy
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        return (0..parts).for_each(f);
    }
    let job = Arc::new(Job::new(parts, f));
    {
        let mut slot = pool
            .slot
            .lock()
            .expect("pool lock is never held across a part");
        slot.job = Some(job.clone());
        pool.epoch.fetch_add(1, Ordering::Release);
        for _ in 0..slot.sleepers.min(parts - 1) {
            pool.wake.notify_one();
        }
    }
    job.work();
    let start = Instant::now();
    while job.done.load(Ordering::Acquire) < parts {
        if start.elapsed() < SPIN_WINDOW {
            std::hint::spin_loop();
        } else {
            std::thread::park();
        }
    }
    pool.slot
        .lock()
        .expect("pool lock is never held across a part")
        .job = None;
    pool.busy.store(false, Ordering::Release);
    let payload = job
        .panic
        .lock()
        .expect("panic slot lock is never held across a part")
        .take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Split `0..n` into one contiguous, near-equal span per thread (at
/// least one span, at most `n`).
fn spans(n: usize) -> Vec<(usize, usize)> {
    let parts = current_num_threads().min(n).max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push((lo, lo + len));
        lo += len;
    }
    out
}

/// Parallel mutable chunking of slices, mirroring `rayon::slice::ParallelSliceMut`.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel counterpart of `chunks_mut`.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(
            chunk_size > 0,
            "par_chunks_mut: chunk size must be non-zero"
        );
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

/// Parallel iterator over mutable chunks of a slice.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair each chunk with its index.
    pub fn enumerate(self) -> EnumerateChunksMut<'a, T> {
        EnumerateChunksMut { inner: self }
    }

    /// Run `f` on every chunk across the pool.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// Index-carrying parallel iterator over mutable chunks.
pub struct EnumerateChunksMut<'a, T> {
    inner: ParChunksMut<'a, T>,
}

impl<T: Send> EnumerateChunksMut<'_, T> {
    /// Run `f(chunk_index, chunk)` on every chunk across the pool.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let ParChunksMut { slice, chunk_size } = self.inner;
        let chunks = slice.len().div_ceil(chunk_size);
        // Each part owns the elements of its run of chunks; a part runs
        // once, so its lock is never contended.
        let mut rest = slice;
        let parts: Vec<(usize, Mutex<&mut [T]>)> = spans(chunks)
            .into_iter()
            .map(|(lo, hi)| {
                let len = ((hi - lo) * chunk_size).min(rest.len());
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                (lo, Mutex::new(head))
            })
            .collect();
        run(parts.len(), &|p| {
            let (lo, span) = &parts[p];
            let mut span = span.lock().expect("a part runs once");
            for (j, chunk) in span.chunks_mut(chunk_size).enumerate() {
                f((lo + j, chunk));
            }
        });
    }
}

/// Conversion into a parallel iterator, mirroring `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// The parallel iterator produced.
    type Iter;
    /// Convert `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = ParRange;

    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Parallel iterator over a `Range<usize>`.
pub struct ParRange {
    range: std::ops::Range<usize>,
}

impl ParRange {
    /// Parallel map over the index space.
    pub fn map<T, F>(self, f: F) -> ParMap<F>
    where
        F: Fn(usize) -> T + Sync,
        T: Send,
    {
        ParMap {
            range: self.range,
            f,
        }
    }

    /// Run `f` for every index across the pool.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.map(f).run_vec();
    }
}

/// Mapped parallel range, consumed by [`ParMap::collect`].
pub struct ParMap<F> {
    range: std::ops::Range<usize>,
    f: F,
}

impl<F> ParMap<F> {
    fn run_vec<T>(self) -> Vec<T>
    where
        F: Fn(usize) -> T + Sync,
        T: Send,
    {
        let lo = self.range.start;
        let n = self.range.end.saturating_sub(lo);
        let f = &self.f;
        let spans = spans(n);
        let outs: Vec<Mutex<Vec<T>>> = spans.iter().map(|_| Mutex::new(Vec::new())).collect();
        run(spans.len(), &|p| {
            let (a, b) = spans[p];
            let got: Vec<T> = (lo + a..lo + b).map(f).collect();
            *outs[p].lock().expect("a part runs once") = got;
        });
        let mut out = Vec::with_capacity(n);
        for part in outs {
            out.extend(part.into_inner().expect("a part runs once"));
        }
        out
    }

    /// Gather results in index order.
    pub fn collect<C, T>(self) -> C
    where
        F: Fn(usize) -> T + Sync,
        T: Send,
        C: FromIterator<T>,
    {
        self.run_vec().into_iter().collect()
    }
}

/// Glob-import module, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    #[test]
    fn par_chunks_mut_visits_every_chunk_once() {
        let mut data = vec![0u32; 103];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v += 1 + i as u32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, 1 + (i / 10) as u32, "element {i}");
        }
    }

    #[test]
    fn par_map_collect_preserves_order() {
        let got: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        let want: Vec<usize> = (0..1000).map(|i| i * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn global_pool_is_first_wins_and_caps_workers() {
        // First build_global succeeds and installs the cap; the second
        // fails like real rayon. (Runs in one process with the other
        // tests, so the assertions only rely on first-wins semantics.)
        let first = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build_global();
        let second = crate::ThreadPoolBuilder::new()
            .num_threads(8)
            .build_global();
        assert!(second.is_err() || first.is_ok());
        if first.is_ok() {
            assert!(crate::current_num_threads() <= 2);
        }
        assert!(crate::current_num_threads() >= 1);
        // Parallel calls still visit everything under the cap.
        let mut data = [0u8; 50];
        data.par_chunks_mut(7).for_each(|c| c.fill(1));
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn empty_and_single_inputs() {
        let got: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(got.is_empty());
        let got: Vec<usize> = (5..6).into_par_iter().map(|i| i).collect();
        assert_eq!(got, vec![5]);
        let mut one = [1u8; 3];
        one.par_chunks_mut(8).enumerate().for_each(|(_, c)| {
            for v in c.iter_mut() {
                *v = 9;
            }
        });
        assert_eq!(one, [9, 9, 9]);
        let mut none: [u8; 0] = [];
        none.par_chunks_mut(4)
            .for_each(|_| unreachable!("no chunks"));
    }

    #[test]
    fn every_part_runs_exactly_once() {
        for n in [1, 2, 3, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            (0..n).into_par_iter().for_each(|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "n = {n}"
            );

            let mut data = vec![0u32; n];
            data.par_chunks_mut(1)
                .enumerate()
                .for_each(|(i, c)| c[0] += i as u32 + 1);
            let want: Vec<u32> = (1..=n as u32).collect();
            assert_eq!(data, want, "n = {n}");
        }
        // More parts than threads: the caller and workers keep claiming.
        for parts in [1, 2, 7, 100] {
            let hits: Vec<AtomicUsize> = (0..parts).map(|_| AtomicUsize::new(0)).collect();
            super::run(parts, &|p| {
                hits[p].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "parts = {parts}"
            );
        }
    }

    #[test]
    fn nested_calls_run_inline_with_correct_output() {
        let got: Vec<Vec<usize>> = (0..8)
            .into_par_iter()
            .map(|i| (0..50).into_par_iter().map(|j| i * 100 + j).collect())
            .collect();
        for (i, row) in got.iter().enumerate() {
            let want: Vec<usize> = (0..50).map(|j| i * 100 + j).collect();
            assert_eq!(row, &want, "row {i}");
        }

        let mut data = vec![0u32; 64];
        data.par_chunks_mut(16).enumerate().for_each(|(i, chunk)| {
            chunk
                .par_chunks_mut(4)
                .enumerate()
                .for_each(|(j, c)| c.fill((i * 4 + j) as u32));
        });
        for (e, v) in data.iter().enumerate() {
            assert_eq!(*v, (e / 4) as u32, "element {e}");
        }

        // Inline means on the nesting thread, even while another thread
        // of the pool sits idle: one part is trivial, the other nests.
        // Only a call nested in a pooled part must stay inline; when the
        // outer call itself ran inline (another test held the pool), the
        // nested one may take the pool.
        let caller = std::thread::current().id();
        for _ in 0..20 {
            (0..2).into_par_iter().for_each(|i| {
                if i == 1 && pooled_for(caller) {
                    let me = std::thread::current().id();
                    for _ in 0..50 {
                        let ran_on: Vec<_> = (0..8)
                            .into_par_iter()
                            .map(|_| std::thread::current().id())
                            .collect();
                        assert!(
                            ran_on.iter().all(|&t| t == me),
                            "a nested call left its thread"
                        );
                    }
                }
            });
        }
    }

    /// Whether the pool's in-flight job is `caller`'s, i.e. whether a
    /// call `caller` is making went to the pool rather than inline.
    fn pooled_for(caller: ThreadId) -> bool {
        super::pool()
            .slot
            .lock()
            .expect("pool lock")
            .job
            .as_ref()
            .is_some_and(|job| job.caller.id() == caller)
    }

    /// A two-part call whose parts wait (up to 100 ms) for each other to
    /// start when the call went to the pool, so one of them runs on a
    /// worker; an inline call does not wait. `f` gets whether its part
    /// runs off the caller's thread; returns whether either did — `false`
    /// means the call ran inline.
    fn two_overlapping_parts(f: &(dyn Fn(bool) + Sync)) -> bool {
        let caller = std::thread::current().id();
        let started = AtomicUsize::new(0);
        let on_worker = AtomicBool::new(false);
        super::run(2, &|_| {
            started.fetch_add(1, Ordering::SeqCst);
            let pooled = pooled_for(caller);
            let t0 = Instant::now();
            while pooled
                && started.load(Ordering::SeqCst) < 2
                && t0.elapsed() < Duration::from_millis(100)
            {
                std::hint::spin_loop();
            }
            let off_caller = std::thread::current().id() != caller;
            on_worker.fetch_or(off_caller, Ordering::SeqCst);
            f(off_caller);
        });
        on_worker.load(Ordering::SeqCst)
    }

    /// Retry `two_overlapping_parts(f)` until a call reaches a worker
    /// (another test may hold the pool for a while); `false` if none did
    /// within 10 s.
    fn reaches_a_worker(f: &(dyn Fn(bool) + Sync)) -> bool {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(10) {
            if two_overlapping_parts(f) {
                return true;
            }
            std::thread::yield_now();
        }
        false
    }

    #[test]
    fn a_panicking_part_re_raises_on_the_caller_and_the_pool_recovers() {
        // Through the public API: a panic in the last index's part and in
        // the first's.
        for bad in [63, 0] {
            let caught = std::panic::catch_unwind(|| {
                (0..64).into_par_iter().for_each(|i| {
                    if i == bad {
                        panic!("index {i} failed");
                    }
                })
            });
            let payload = caught.expect_err("the part's panic reaches the caller");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some(format!("index {bad} failed").as_str()));
        }
        let got: Vec<usize> = (0..1000).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(got, (1..=1000).collect::<Vec<_>>());

        if crate::current_num_threads() < 2 {
            return;
        }
        // A worker's part panics, then the caller's: each payload reaches
        // the caller, and the pool still hands the next call to a worker.
        for worker_side in [true, false] {
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                reaches_a_worker(&|off_caller| {
                    if off_caller == worker_side {
                        panic!("share failed");
                    }
                })
            }));
            let payload = caught.expect_err("a pooled call's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"share failed"));
            assert!(
                reaches_a_worker(&|_| {}),
                "after a panic on the {} side the pool must take calls again",
                if worker_side { "worker" } else { "caller" }
            );
        }
    }

    #[test]
    fn a_job_seats_at_most_parts_minus_one_workers() {
        for parts in [1, 2, 3, 8] {
            let job = super::Job::new(parts, &|_| {});
            let seated = std::thread::scope(|s| {
                let takers: Vec<_> = (0..10).map(|_| s.spawn(|| job.take_seat())).collect();
                takers
                    .into_iter()
                    .map(|t| t.join().expect("seat taker"))
                    .filter(|&seated| seated)
                    .count()
            });
            assert_eq!(seated, parts - 1, "parts = {parts}");
        }
    }

    #[test]
    fn concurrent_callers_both_get_ordered_results() {
        // Caller A's first index holds its call open until caller B's
        // whole call has run, so B's call always overlaps A's job.
        let (started, finished) = (Barrier::new(2), Barrier::new(2));
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| -> Vec<usize> {
                (0..64)
                    .into_par_iter()
                    .map(|i| {
                        if i == 0 {
                            started.wait();
                            finished.wait();
                        }
                        i * 10
                    })
                    .collect()
            });
            let b = s.spawn(|| -> Vec<usize> {
                started.wait();
                let got = (0..97).into_par_iter().map(|i| i * 10 + 1).collect();
                finished.wait();
                got
            });
            (a.join().expect("caller A"), b.join().expect("caller B"))
        });
        assert_eq!(a, (0..64).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(b, (0..97).map(|i| i * 10 + 1).collect::<Vec<_>>());

        // Unforced: both callers race for the pool on every call.
        let results: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    s.spawn(move || {
                        (0..200)
                            .flat_map(|_| {
                                let got: Vec<usize> =
                                    (0..97).into_par_iter().map(|i| i * 10 + t).collect();
                                got
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .collect()
        });
        for (t, got) in results.iter().enumerate() {
            let want: Vec<usize> = (0..200)
                .flat_map(|_| (0..97).map(move |i| i * 10 + t))
                .collect();
            assert_eq!(got, &want, "caller {t}");
        }
    }
}
