//! Offline stand-in for the `rayon` crate (no registry access in this build
//! environment; see `shims/README.md`).
//!
//! Covers the surface this workspace uses and keeps it genuinely parallel
//! with `std::thread::scope` instead of a work-stealing pool:
//!
//! * `slice.par_chunks_mut(n).enumerate().for_each(f)` — each worker thread
//!   owns a contiguous run of chunks,
//! * `range.into_par_iter().map(f).collect()` / `.for_each(f)` — the index
//!   space is split into one contiguous span per worker.
//!
//! Work is split eagerly into one span per worker (`available_parallelism()`,
//! read once per process), which is the right shape for the regular,
//! equal-cost blocks these kernels produce.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Global worker cap installed by [`ThreadPoolBuilder::build_global`];
/// `0` means uncapped (use the hardware parallelism).
static GLOBAL_THREAD_CAP: AtomicUsize = AtomicUsize::new(0);

/// Whether [`ThreadPoolBuilder::build_global`] already ran (it is
/// first-wins, like real rayon's global pool initialization).
static GLOBAL_POOL_BUILT: AtomicUsize = AtomicUsize::new(0);

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

/// The number of worker threads the shim will fan out to at most —
/// mirrors `rayon::current_num_threads`.
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
/// can honor: a cap on how many worker threads a parallel call fans out
/// to. The shim spawns scoped threads per call rather than keeping a
/// pool, so the cap is the entire configuration.
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

/// Number of worker threads to fan out to for `n` independent items.
fn workers_for(n: usize) -> usize {
    current_num_threads().min(n).max(1)
}

/// Split `0..n` into at most `parts` contiguous, near-equal spans.
fn spans(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.min(n).max(1);
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

    /// Run `f` on every chunk across worker threads.
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
    /// Run `f(chunk_index, chunk)` on every chunk across worker threads.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let chunk_size = self.inner.chunk_size;
        let chunks: Vec<(usize, &mut [T])> = self
            .inner
            .slice
            .chunks_mut(chunk_size)
            .enumerate()
            .collect();
        let n = chunks.len();
        if n <= 1 {
            for item in chunks {
                f(item);
            }
            return;
        }
        let mut buckets: Vec<Vec<(usize, &mut [T])>> = spans(n, workers_for(n))
            .iter()
            .map(|_| Vec::new())
            .collect();
        let parts = buckets.len();
        for (i, item) in chunks.into_iter().enumerate() {
            buckets[i * parts / n.max(1)].push(item);
        }
        std::thread::scope(|scope| {
            for bucket in buckets {
                let f = &f;
                scope.spawn(move || {
                    for item in bucket {
                        f(item);
                    }
                });
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

    /// Run `f` for every index across worker threads.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.map(f).run();
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
        if n <= 1 {
            return self.range.map(self.f).collect();
        }
        let f = &self.f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = spans(n, workers_for(n))
                .into_iter()
                .map(|(a, b)| scope.spawn(move || (lo + a..lo + b).map(f).collect::<Vec<T>>()))
                .collect();
            let mut out = Vec::with_capacity(n);
            for h in handles {
                out.extend(h.join().expect("rayon shim worker panicked"));
            }
            out
        })
    }

    fn run<T>(self)
    where
        F: Fn(usize) -> T + Sync,
        T: Send,
    {
        let _ = self.run_vec();
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
    }
}
