//! The server front: admission control over a bounded queue, submission
//! of decode vectors, pause/resume, stats, and drain-on-drop.

use crate::batcher::{Batcher, Shared};
use crate::config::{ServerConfig, SubmitOptions};
use crate::request::{Request, Ticket};
use crate::stats::ServerStats;
use nm_core::error::{NmError, Result};
use nm_kernels::session::PreparedLayer;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A serving front-end over one [`PreparedLayer`]: a bounded submission
/// queue with admission control, a continuous batcher, per-request
/// deadlines, and a [`ServerStats`] snapshot API.
///
/// ```
/// use gpu_sim::device::a100_80g;
/// use nm_core::matrix::MatrixF32;
/// use nm_core::pattern::NmConfig;
/// use nm_core::sparse::NmSparseMatrix;
/// use nm_kernels::SessionBuilder;
/// use nm_serve::{Server, ServerConfig, SubmitOptions};
///
/// let cfg = NmConfig::new(2, 8, 16).expect("config");
/// let b = MatrixF32::random(64, 32, 1);
/// let sb = NmSparseMatrix::prune_magnitude(&b, cfg).expect("prune");
/// let mut session = SessionBuilder::new(a100_80g()).build().expect("session");
/// let layer = session.load(sb, 4).expect("load");
///
/// let server = Server::start(layer, ServerConfig::default()).expect("server");
/// let ticket = server
///     .submit_decode(vec![1.0; 64], SubmitOptions::default())
///     .expect("admitted");
/// let done = ticket.wait().expect("served");
/// assert_eq!(done.c.shape(), (1, 32));
/// ```
///
/// Dropping the server **drains** it: every admitted request still
/// resolves (served or shed), then the batcher thread exits and is
/// joined. No request is ever dropped without a structured answer.
#[derive(Debug)]
pub struct Server {
    tx: Option<crossbeam_channel::Sender<Request>>,
    worker: Option<std::thread::JoinHandle<()>>,
    shared: Arc<Shared>,
    layer: Arc<PreparedLayer>,
    cfg: ServerConfig,
}

impl Server {
    /// Validate `cfg`, then start the batcher thread over `layer`.
    ///
    /// # Errors
    /// [`NmError::InvalidConfig`] for out-of-band knobs (zero capacities,
    /// decode coalescing past the planner's decode band).
    pub fn start(layer: impl Into<Arc<PreparedLayer>>, cfg: ServerConfig) -> Result<Server> {
        cfg.validate()?;
        let layer = layer.into();
        let (tx, rx) = crossbeam_channel::bounded(cfg.queue_capacity);
        let shared = Arc::new(Shared::new());
        let batcher = Batcher::new(rx, layer.clone(), shared.clone(), cfg.clone());
        let worker = std::thread::Builder::new()
            .name("nm-serve-batcher".into())
            .spawn(move || batcher.run())
            .expect("spawn batcher thread");
        Ok(Server {
            tx: Some(tx),
            worker: Some(worker),
            shared,
            layer,
            cfg,
        })
    }

    /// The prepared layer this server executes on.
    pub fn layer(&self) -> &PreparedLayer {
        &self.layer
    }

    /// Submit one decode request — a single activation vector, stacked
    /// with concurrent decode requests into one skinny `forward` call
    /// (bit-identical per row to serving it alone).
    ///
    /// # Errors
    /// [`NmError::DimensionMismatch`] before queueing when `x.len()`
    /// disagrees with the layer's reduction depth;
    /// [`NmError::Overloaded`] when the queue is at capacity — the
    /// structured backpressure signal, never silent blocking.
    pub fn submit_decode(&self, x: Vec<f32>, opts: SubmitOptions) -> Result<Ticket> {
        if x.len() != self.layer.weights().k() {
            return Err(NmError::DimensionMismatch {
                expected: format!("x of length k = {}", self.layer.weights().k()),
                found: format!("x of length {}", x.len()),
            });
        }
        // Admission: the atomic depth counter is the authoritative bound.
        // It only decrements at batch formation (or shed), so "admitted"
        // slots cover both the channel and the batcher's queue.
        let cap = self.cfg.queue_capacity;
        let mut cur = self.shared.depth.load(Ordering::Relaxed);
        loop {
            if cur >= cap {
                self.shared.stats.rejected();
                return Err(NmError::Overloaded { capacity: cap });
            }
            match self.shared.depth.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        let (reply, rx) = crossbeam_channel::bounded(1);
        let request = Request {
            x,
            enqueued: Instant::now(),
            deadline: opts.deadline,
            reply,
        };
        let tx = self.tx.as_ref().expect("sender alive while server alive");
        if tx.try_send(request).is_err() {
            // Unreachable while the invariant above holds (channel
            // occupancy ≤ depth ≤ capacity), but give the slot back and
            // answer structurally rather than trust it blindly.
            self.shared.depth.fetch_sub(1, Ordering::AcqRel);
            self.shared.stats.rejected();
            return Err(NmError::Overloaded { capacity: cap });
        }
        self.shared.stats.submitted();
        Ok(Ticket { rx })
    }

    /// Requests currently queued: admitted but not yet dispatched into a
    /// batch or shed.
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(Ordering::Acquire)
    }

    /// Point-in-time counters + rolling latency distribution.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot(self.queue_depth())
    }

    /// Harness hook: hold the batcher — requests keep being admitted (and
    /// the queue keeps filling toward its bound) but no batch forms until
    /// [`Server::resume`]. This is what makes backpressure and ordering
    /// tests deterministic; production callers never need it.
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::Release);
    }

    /// Release a [`Server::pause`] hold.
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::Release);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A paused server still owes answers: release the hold, hang up
        // the submission side, and wait for the batcher to drain.
        self.resume();
        drop(self.tx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::a100_80g;
    use nm_core::matrix::MatrixF32;
    use nm_core::pattern::NmConfig;
    use nm_core::sparse::NmSparseMatrix;
    use nm_core::spmm::spmm_reference;
    use nm_kernels::SessionBuilder;
    use std::time::Duration;

    fn layer(k: usize, n: usize, rows: usize) -> (PreparedLayer, NmSparseMatrix) {
        let cfg = NmConfig::new(2, 8, 16).unwrap();
        let sb = NmSparseMatrix::prune_magnitude(&MatrixF32::random(k, n, 3), cfg).unwrap();
        let mut s = SessionBuilder::new(a100_80g()).build().unwrap();
        (s.load(sb.clone(), rows).unwrap(), sb)
    }

    #[test]
    fn serves_decode_with_cost_split() {
        let (layer, sb) = layer(96, 64, 8);
        let server = Server::start(layer, ServerConfig::default()).unwrap();

        for seed in [5, 6] {
            let x = MatrixF32::random(1, 96, seed);
            let done = server
                .submit_decode(x.row(0).to_vec(), SubmitOptions::default())
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(done.c.shape(), (1, 64));
            assert!(done.c.allclose(&spmm_reference(&x, &sb), 1e-3, 1e-4));
            assert!(done.timing.compute > Duration::ZERO);
            assert!(done.timing.e2e() >= done.timing.queue_wait);
        }

        let stats = server.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.rejected + stats.shed, 0);
        assert!(stats.p50_ms > 0.0);
    }

    #[test]
    fn bad_shapes_are_refused_before_queueing() {
        let (layer, _) = layer(64, 32, 4);
        let server = Server::start(layer, ServerConfig::default()).unwrap();
        let err = server
            .submit_decode(vec![0.0; 63], SubmitOptions::default())
            .unwrap_err();
        assert!(matches!(err, NmError::DimensionMismatch { .. }), "{err}");
        assert_eq!(server.stats().submitted, 0);
    }

    #[test]
    fn queue_bound_rejects_with_overloaded() {
        let (layer, _) = layer(64, 32, 4);
        let server = Server::start(
            layer,
            ServerConfig {
                queue_capacity: 3,
                ..Default::default()
            },
        )
        .unwrap();
        server.pause();
        let mut tickets = Vec::new();
        for _ in 0..3 {
            tickets.push(
                server
                    .submit_decode(vec![1.0; 64], SubmitOptions::default())
                    .unwrap(),
            );
        }
        assert_eq!(server.queue_depth(), 3);
        let err = server
            .submit_decode(vec![1.0; 64], SubmitOptions::default())
            .unwrap_err();
        assert!(matches!(err, NmError::Overloaded { capacity: 3 }), "{err}");
        server.resume();
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = server.stats();
        assert_eq!((stats.completed, stats.rejected), (3, 1));
        assert_eq!(server.queue_depth(), 0);
    }

    #[test]
    fn expired_requests_are_shed_without_compute() {
        let (layer, _) = layer(64, 32, 4);
        let server = Server::start(layer, ServerConfig::default()).unwrap();
        server.pause();
        let doomed = server
            .submit_decode(
                vec![1.0; 64],
                SubmitOptions::default().with_deadline(Duration::from_millis(1)),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        server.resume();
        let err = doomed.wait().unwrap_err();
        match err {
            NmError::DeadlineExceeded {
                deadline_ms,
                queued_ms,
            } => {
                assert_eq!(deadline_ms, 1);
                assert!(queued_ms >= 10, "queued {queued_ms} ms");
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        let stats = server.stats();
        assert_eq!((stats.shed, stats.completed), (1, 0));
    }

    #[test]
    fn a_kernel_panic_fails_its_batch_and_the_server_recovers() {
        let (layer, sb) = layer(64, 32, 4);
        let server = Server::start(layer, ServerConfig::default()).unwrap();
        // A batch of three hit by a kernel panic: every ticket resolves
        // with a structured error.
        server.pause();
        let tickets: Vec<Ticket> = (0..3)
            .map(|_| {
                server
                    .submit_decode(vec![1.0; 64], SubmitOptions::default())
                    .unwrap()
            })
            .collect();
        server.shared.inject_panic.store(true, Ordering::Release);
        server.resume();
        for t in tickets {
            match t.wait().unwrap_err() {
                NmError::Canceled { reason } => {
                    assert!(reason.contains("injected kernel fault"), "{reason}")
                }
                other => panic!("expected Canceled, got {other}"),
            }
        }
        assert_eq!(server.queue_depth(), 0, "admission depth restored");
        // The batcher survived: the next submission is served correctly.
        let x = MatrixF32::random(1, 64, 7);
        let done = server
            .submit_decode(x.row(0).to_vec(), SubmitOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        assert!(done.c.allclose(&spmm_reference(&x, &sb), 1e-3, 1e-4));
        assert_eq!(server.queue_depth(), 0);
    }

    #[test]
    fn drop_drains_pending_requests() {
        let (layer, sb) = layer(64, 32, 4);
        let server = Server::start(layer, ServerConfig::default()).unwrap();
        server.pause();
        let x = MatrixF32::random(1, 64, 9);
        let t = server
            .submit_decode(x.row(0).to_vec(), SubmitOptions::default())
            .unwrap();
        drop(server); // drop while paused: must still resolve the ticket
        let done = t.wait().unwrap();
        assert!(done.c.allclose(&spmm_reference(&x, &sb), 1e-3, 1e-4));
    }
}
