//! The continuous batcher: the single worker that drains the submission
//! queue, coalesces compatible requests, and dispatches them through the
//! prepared layer.
//!
//! ## Dispatch policy
//!
//! One batch per loop iteration, always from the highest-priority
//! non-empty pool; within a pool, dispatch is strictly FIFO and a batch
//! coalesces the **contiguous same-band prefix** (all-decode or
//! all-prefill) so reordering never happens. Decode requests stack into
//! one skinny `forward` call — bit-identical per row to serving them
//! individually, but streaming the packed `B′` once for the whole stack
//! (the memory-bound regime's goodput win). Prefill requests fan through
//! `forward_batch`.
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

use crate::config::{Priority, ServerConfig};
use crate::request::{BatchKind, Completion, DispatchInfo, Request, RequestTiming, Workload};
use crate::stats::Recorder;
use nm_core::error::{NmError, Result};
use nm_core::matrix::MatrixF32;
use nm_kernels::session::PreparedLayer;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the idle worker blocks on the channel before re-checking the
/// paused flag and pool state.
const IDLE_TICK: Duration = Duration::from_millis(2);

/// State shared between the [`Server`](crate::Server) front and the
/// batcher thread.
#[derive(Debug)]
pub(crate) struct Shared {
    /// Requests admitted but not yet dispatched or shed — the
    /// authoritative queue depth the admission bound is enforced on.
    pub(crate) depth: AtomicUsize,
    /// Harness hook: while set, the batcher keeps draining the channel
    /// into its pools but forms no batches.
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

/// One batch member after formation: where to reply and what it waited.
struct Member {
    reply: crossbeam_channel::Sender<Result<Completion>>,
    queue_wait: Duration,
}

pub(crate) struct Batcher {
    rx: crossbeam_channel::Receiver<Request>,
    layer: Arc<PreparedLayer>,
    shared: Arc<Shared>,
    cfg: ServerConfig,
    /// Per-priority FIFO pools, indexed by `Priority as usize`.
    pools: [VecDeque<Request>; 2],
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
            pools: [VecDeque::new(), VecDeque::new()],
            next_order: 0,
        }
    }

    /// The worker loop: drain → (maybe linger) → dispatch one batch →
    /// repeat, until every sender is gone and the pools are dry.
    pub(crate) fn run(mut self) {
        let mut connected = true;
        loop {
            if connected {
                connected = self.fill();
            }
            // Once the server is gone nothing can unpause us, so force
            // the drain rather than strand admitted requests.
            self.dispatch_one(!connected);
            if !connected && self.pools_empty() {
                break;
            }
        }
    }

    fn paused(&self) -> bool {
        self.shared.paused.load(Ordering::Acquire)
    }

    fn pools_empty(&self) -> bool {
        self.pools.iter().all(VecDeque::is_empty)
    }

    fn pool_push(&mut self, r: Request) {
        self.pools[r.priority as usize].push_back(r);
    }

    /// Drain the channel into the pools; block briefly when idle, or
    /// linger for joiners when a non-full batch is ready. Returns `false`
    /// once every sender has disconnected.
    fn fill(&mut self) -> bool {
        loop {
            match self.rx.try_recv() {
                Ok(r) => self.pool_push(r),
                Err(crossbeam_channel::TryRecvError::Empty) => break,
                Err(crossbeam_channel::TryRecvError::Disconnected) => return false,
            }
        }
        if self.paused() || self.pools_empty() {
            return match self.rx.recv_timeout(IDLE_TICK) {
                Ok(r) => {
                    self.pool_push(r);
                    true
                }
                Err(crossbeam_channel::RecvTimeoutError::Timeout) => true,
                Err(crossbeam_channel::RecvTimeoutError::Disconnected) => false,
            };
        }
        // Continuous batching: hold the door open while the leading batch
        // still has room — joiners ride along. Each arrival re-arms the
        // `linger_gap` timer, so a concurrent burst coalesces fully, but
        // the window closes as soon as arrivals stop (or at the `linger`
        // hard cap) instead of taxing every batch the full window.
        let deadline = Instant::now() + self.cfg.linger;
        while !self.leading_batch_full() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let wait = self.cfg.linger_gap.min(deadline - now);
            match self.rx.recv_timeout(wait) {
                Ok(r) => self.pool_push(r),
                Err(crossbeam_channel::RecvTimeoutError::Timeout) => break,
                Err(crossbeam_channel::RecvTimeoutError::Disconnected) => return false,
            }
        }
        true
    }

    /// Whether the batch that would dispatch next already coalesces its
    /// band's maximum — lingering further buys nothing.
    fn leading_batch_full(&self) -> bool {
        for p in Priority::ALL {
            let pool = &self.pools[p as usize];
            let Some(front) = pool.front() else { continue };
            let kind = front.workload.kind();
            let cap = self.batch_cap(kind);
            let prefix = pool
                .iter()
                .take_while(|r| r.workload.kind() == kind)
                .count();
            return prefix >= cap;
        }
        false
    }

    fn batch_cap(&self, kind: BatchKind) -> usize {
        match kind {
            BatchKind::Decode => self.cfg.max_decode_batch,
            BatchKind::Prefill => self.cfg.max_batch,
        }
    }

    /// Form and execute at most one batch, highest priority first.
    fn dispatch_one(&mut self, force: bool) {
        if !force {
            if self.paused() {
                return;
            }
            // Dispatch only from a drained queue: an unpause racing the
            // idle tick could otherwise dispatch a stale pool prefix
            // while already-submitted joiners — possibly higher-priority
            // ones — still sit in the channel. The emptiness check reads
            // after the `paused` acquire load, so every send that
            // preceded the resume is visible to it; a non-empty channel
            // just loops back through `fill`.
            if !self.rx.is_empty() {
                return;
            }
        }
        let now = Instant::now();
        for p in Priority::ALL {
            if let Some((batch, kind)) = self.form_batch(p as usize, now) {
                self.execute(batch, kind);
                return;
            }
        }
    }

    /// Pop the FIFO prefix of one pool into a batch: expired requests are
    /// shed (structured error, no compute), live requests coalesce while
    /// they stay on one band and under its cap.
    fn form_batch(&mut self, pool: usize, now: Instant) -> Option<(Vec<Request>, BatchKind)> {
        let mut batch: Vec<Request> = Vec::new();
        let mut kind: Option<BatchKind> = None;
        while let Some(front) = self.pools[pool].front() {
            let front_kind = front.workload.kind();
            if let Some(k) = kind {
                if front_kind != k || batch.len() >= self.batch_cap(k) {
                    break;
                }
            }
            let r = self.pools[pool].pop_front().expect("front exists");
            // Leaving the queue — whether into the batch or shed — is
            // where the admission counter gives its slot back.
            self.shared.depth.fetch_sub(1, Ordering::AcqRel);
            if r.expired(now) {
                self.shed(r, now);
                continue;
            }
            kind = Some(front_kind);
            batch.push(r);
        }
        kind.map(|k| (batch, k))
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

    /// Run one formed batch through the layer and resolve every ticket.
    fn execute(&mut self, batch: Vec<Request>, kind: BatchKind) {
        self.next_order += 1;
        let order = self.next_order;
        let size = batch.len();
        self.shared.stats.batch_dispatched(size);
        let dispatched = Instant::now();

        let mut members = Vec::with_capacity(size);
        let mut decode_rows: Vec<f32> = Vec::new();
        let mut prefill_mats: Vec<MatrixF32> = Vec::new();
        for r in batch {
            members.push(Member {
                reply: r.reply,
                queue_wait: dispatched.duration_since(r.enqueued),
            });
            match r.workload {
                Workload::Decode(x) => decode_rows.extend_from_slice(&x),
                Workload::Prefill(a) => prefill_mats.push(a),
            }
        }
        let info = |n| DispatchInfo {
            order,
            batch_size: size,
            kind: n,
        };

        match kind {
            BatchKind::Decode => {
                // Stack the vectors into one skinny matrix: the fused
                // call streams B′ once for the whole stack, and each row
                // of the product is bit-identical to the member's own
                // `forward_vec` result.
                let k = self.layer.weights().k();
                let stacked = MatrixF32::from_vec(size, k, decode_rows);
                match self.contained(|| self.layer.forward(&stacked)) {
                    Ok(run) => {
                        let compute = Duration::from_secs_f64(run.wall_seconds);
                        let n = run.c.cols();
                        for (i, m) in members.into_iter().enumerate() {
                            let timing = RequestTiming {
                                queue_wait: m.queue_wait,
                                compute,
                            };
                            self.shared.stats.completed(timing);
                            let _ = m.reply.send(Ok(Completion {
                                c: MatrixF32::from_vec(1, n, run.c.row(i).to_vec()),
                                timing,
                                dispatch: info(kind),
                            }));
                        }
                    }
                    Err(e) => fail_batch(members, &e),
                }
            }
            BatchKind::Prefill => {
                match self.contained(|| self.layer.forward_batch(&prefill_mats)) {
                    Ok(batch_run) => {
                        for (m, run) in members.into_iter().zip(batch_run.runs) {
                            let timing = RequestTiming {
                                queue_wait: m.queue_wait,
                                compute: Duration::from_secs_f64(run.wall_seconds),
                            };
                            self.shared.stats.completed(timing);
                            let _ = m.reply.send(Ok(Completion {
                                c: run.c,
                                timing,
                                dispatch: info(kind),
                            }));
                        }
                    }
                    Err(e) => fail_batch(members, &e),
                }
            }
        }
    }
}

impl Batcher {
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

/// Shapes are validated at submission, so a mid-batch kernel error is
/// exceptional — but it still resolves every ticket structurally instead
/// of dropping them.
fn fail_batch(members: Vec<Member>, e: &NmError) {
    for m in members {
        let _ = m.reply.send(Err(e.clone()));
    }
}
