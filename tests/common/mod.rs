//! Helpers shared by the parity suites.

/// `f` pinned to one rayon worker: the sequential run the parity suites
/// hold the all-worker kernel to, bit for bit.
pub fn one_worker<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build();
    pool.expect("a one-thread pool").install(f)
}
