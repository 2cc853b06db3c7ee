//! The continuous batcher: the single worker that drains the submission
//! queue, stacks queued decode vectors, and dispatches them through the
//! prepared layer.
//!
//! ## Dispatch policy
//!
//! One batch per loop iteration, popped from the front of one FIFO queue,
//! so dispatch order is submission order, always. A batch stacks up to
//! [`ServerConfig::max_decode_batch`] vectors into one skinny `forward`
//! call — bit-identical per row to serving them individually, but
//! streaming the packed `B′` once for the whole stack (the memory-bound
//! regime's goodput win).
//!
//! ## Deadline shedding
//!
//! Expired requests are shed at **batch formation** — after queueing,
//! before any compute — resolving their tickets with
//! [`NmError::DeadlineExceeded`]. The admission counter decrements at the
//! same point, so "queued" means exactly "admitted but not yet
//! dispatched or shed".
//!
//! ## Kernel faults
//!
//! A panic inside a batch's kernel call (the rayon pool re-raises a
//! worker's panic on the calling thread) is caught on the batcher
//! thread: every ticket of that batch resolves with
//! [`NmError::Canceled`] naming the panic, and the batcher goes on to the
//! next batch with the admission count it already gave back.

use crate::config::ServerConfig;
use crate::request::{Completion, DispatchInfo, Request, RequestTiming};
use crate::stats::Recorder;
use nm_core::error::{NmError, Result};
use nm_core::matrix::MatrixF32;
use nm_kernels::session::PreparedLayer;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the idle worker blocks on the channel before re-checking the
/// paused flag and queue state.
const IDLE_TICK: Duration = Duration::from_millis(2);

/// State shared between the [`Server`](crate::Server) front and the
/// batcher thread.
#[derive(Debug)]
pub(crate) struct Shared {
    /// Requests admitted but not yet dispatched or shed — the
    /// authoritative queue depth the admission bound is enforced on.
    pub(crate) depth: AtomicUsize,
    /// Harness hook: while set, the batcher keeps draining the channel
    /// into its queue but forms no batches.
    pub(crate) paused: AtomicBool,
    /// Counters + rolling latency window.
    pub(crate) stats: Recorder,
    /// Test hook: when set, the next batch's kernel call panics.
    #[cfg(test)]
    pub(crate) inject_panic: AtomicBool,
}

impl Shared {
    pub(crate) fn new() -> Self {
        Self {
            depth: AtomicUsize::new(0),
            paused: AtomicBool::new(false),
            stats: Recorder::new(),
            #[cfg(test)]
            inject_panic: AtomicBool::new(false),
        }
    }
}

pub(crate) struct Batcher {
    rx: crossbeam_channel::Receiver<Request>,
    layer: Arc<PreparedLayer>,
    shared: Arc<Shared>,
    cfg: ServerConfig,
    /// Admitted requests in submission order.
    queue: VecDeque<Request>,
    next_order: u64,
}

impl Batcher {
    pub(crate) fn new(
        rx: crossbeam_channel::Receiver<Request>,
        layer: Arc<PreparedLayer>,
        shared: Arc<Shared>,
        cfg: ServerConfig,
    ) -> Self {
        Self {
            rx,
            layer,
            shared,
            cfg,
            queue: VecDeque::new(),
            next_order: 0,
        }
    }

    /// The worker loop: drain → (maybe linger) → dispatch one batch →
    /// repeat, until every sender is gone and the queue is dry.
    pub(crate) fn run(mut self) {
        let mut connected = true;
        loop {
            if connected {
                connected = self.fill();
            }
            // Once the server is gone nothing can unpause us, so force
            // the drain rather than strand admitted requests.
            self.dispatch_one(!connected);
            if !connected && self.queue.is_empty() {
                break;
            }
        }
    }

    fn paused(&self) -> bool {
        self.shared.paused.load(Ordering::Acquire)
    }

    /// Drain the channel into the queue; block briefly when idle, or
    /// linger for joiners when a non-full batch is ready. Returns `false`
    /// once every sender has disconnected.
    fn fill(&mut self) -> bool {
        loop {
            match self.rx.try_recv() {
                Ok(r) => self.queue.push_back(r),
                Err(crossbeam_channel::TryRecvError::Empty) => break,
                Err(crossbeam_channel::TryRecvError::Disconnected) => return false,
            }
        }
        if self.paused() || self.queue.is_empty() {
            return match self.rx.recv_timeout(IDLE_TICK) {
                Ok(r) => {
                    self.queue.push_back(r);
                    true
                }
                Err(crossbeam_channel::RecvTimeoutError::Timeout) => true,
                Err(crossbeam_channel::RecvTimeoutError::Disconnected) => false,
            };
        }
        // Continuous batching: hold the door open while the next batch
        // still has room — joiners ride along. Each arrival re-arms the
        // `linger_gap` timer, so a concurrent burst coalesces fully, but
        // the window closes as soon as arrivals stop (or at the `linger`
        // hard cap) instead of taxing every batch the full window.
        let deadline = Instant::now() + self.cfg.linger;
        while self.queue.len() < self.cfg.max_decode_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let wait = self.cfg.linger_gap.min(deadline - now);
            match self.rx.recv_timeout(wait) {
                Ok(r) => self.queue.push_back(r),
                Err(crossbeam_channel::RecvTimeoutError::Timeout) => break,
                Err(crossbeam_channel::RecvTimeoutError::Disconnected) => return false,
            }
        }
        true
    }

    /// Form and execute at most one batch.
    fn dispatch_one(&mut self, force: bool) {
        if !force {
            if self.paused() {
                return;
            }
            // Dispatch only from a drained channel: an unpause racing the
            // idle tick could otherwise dispatch a partial batch while
            // already-submitted joiners still sit in the channel. The
            // emptiness check reads after the `paused` acquire load, so
            // every send that preceded the resume is visible to it; a
            // non-empty channel just loops back through `fill`.
            if !self.rx.is_empty() {
                return;
            }
        }
        if let Some(batch) = self.form_batch(Instant::now()) {
            self.execute(batch);
        }
    }

    /// Pop up to `max_decode_batch` live requests off the front of the
    /// queue; expired requests met on the way are shed (structured error,
    /// no compute).
    fn form_batch(&mut self, now: Instant) -> Option<Vec<Request>> {
        let mut batch = Vec::new();
        while batch.len() < self.cfg.max_decode_batch {
            let Some(r) = self.queue.pop_front() else {
                break;
            };
            // Leaving the queue — whether into the batch or shed — is
            // where the admission counter gives its slot back.
            self.shared.depth.fetch_sub(1, Ordering::AcqRel);
            if r.expired(now) {
                self.shed(r, now);
            } else {
                batch.push(r);
            }
        }
        (!batch.is_empty()).then_some(batch)
    }

    fn shed(&self, r: Request, now: Instant) {
        self.shared.stats.shed();
        let queued = now.duration_since(r.enqueued);
        let budget = r.deadline.unwrap_or_default();
        r.resolve(Err(NmError::DeadlineExceeded {
            deadline_ms: budget.as_millis() as u64,
            queued_ms: queued.as_millis() as u64,
        }));
    }

    /// Stack one formed batch into a skinny matrix, run it through the
    /// layer, and resolve every ticket.
    fn execute(&mut self, batch: Vec<Request>) {
        self.next_order += 1;
        let dispatch = DispatchInfo {
            order: self.next_order,
            batch_size: batch.len(),
        };
        self.shared.stats.batch_dispatched(dispatch.batch_size);
        let dispatched = Instant::now();

        // The fused call streams B′ once for the whole stack, and each
        // row of the product is bit-identical to the member's own
        // `forward_vec` result.
        let k = self.layer.weights().k();
        let mut rows = Vec::with_capacity(batch.len() * k);
        for r in &batch {
            rows.extend_from_slice(&r.x);
        }
        let stacked = MatrixF32::from_vec(batch.len(), k, rows);
        let run = match self.contained(|| self.layer.forward(&stacked)) {
            Ok(run) => run,
            // Shapes are validated at submission, so a kernel error is
            // exceptional — but it still resolves every ticket.
            Err(e) => {
                for r in batch {
                    r.resolve(Err(e.clone()));
                }
                return;
            }
        };
        let compute = Duration::from_secs_f64(run.wall_seconds);
        let n = run.c.cols();
        for (i, r) in batch.into_iter().enumerate() {
            let timing = RequestTiming {
                queue_wait: dispatched.duration_since(r.enqueued),
                compute,
            };
            self.shared.stats.completed(timing);
            r.resolve(Ok(Completion {
                c: MatrixF32::from_vec(1, n, run.c.row(i).to_vec()),
                timing,
                dispatch,
            }));
        }
    }

    /// Run one batch's kernel call with a panic turned into a structured
    /// error, so the batcher thread survives a kernel fault and every
    /// ticket of the batch still resolves.
    fn contained<T>(&self, call: impl FnOnce() -> Result<T>) -> Result<T> {
        let guarded = std::panic::AssertUnwindSafe(|| {
            #[cfg(test)]
            if self.shared.inject_panic.swap(false, Ordering::AcqRel) {
                panic!("injected kernel fault");
            }
            call()
        });
        std::panic::catch_unwind(guarded).unwrap_or_else(|payload| {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "a non-string payload".into());
            Err(NmError::Canceled {
                reason: format!("the batch's kernel call panicked: {what}"),
            })
        })
    }
}
