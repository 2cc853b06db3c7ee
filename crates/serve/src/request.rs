//! In-flight request plumbing: the internal queued request, the caller's
//! [`Ticket`], and the [`Completion`] a resolved ticket yields.

use nm_core::error::{NmError, Result};
use nm_core::matrix::MatrixF32;
use std::time::{Duration, Instant};

/// One request as it travels the queue: a single activation vector,
/// stacked with other queued vectors into one skinny `forward` call.
#[derive(Debug)]
pub(crate) struct Request {
    pub(crate) x: Vec<f32>,
    pub(crate) enqueued: Instant,
    pub(crate) deadline: Option<Duration>,
    pub(crate) reply: crossbeam_channel::Sender<Result<Completion>>,
}

impl Request {
    /// Whether the deadline budget has expired as of `now`.
    pub(crate) fn expired(&self, now: Instant) -> bool {
        match self.deadline {
            Some(budget) => now.duration_since(self.enqueued) > budget,
            None => false,
        }
    }

    /// Resolve the ticket; a dropped receiver (caller gave up) is fine.
    pub(crate) fn resolve(self, result: Result<Completion>) {
        let _ = self.reply.send(result);
    }
}

/// The two halves of one served request's latency — the split the stats
/// pipeline and the bench artifact report.
///
/// * `queue_wait` — submission to batch formation: admission, the linger
///   window, and any time spent behind earlier work. This is the
///   serving layer's own cost.
/// * `compute` — the prepared layer's kernel wall for this request
///   ([`ExecRun::wall_seconds`](nm_kernels::backend::ExecRun)); for a
///   coalesced decode batch it is the wall of the **fused** call, shared
///   by every member — that sharing is the point of batching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestTiming {
    /// Submission → dispatch into a batch.
    pub queue_wait: Duration,
    /// Kernel wall attributed to this request.
    pub compute: Duration,
}

impl RequestTiming {
    /// End-to-end latency: queue wait plus compute.
    pub fn e2e(&self) -> Duration {
        self.queue_wait + self.compute
    }
}

/// How the batcher dispatched the batch a request rode in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchInfo {
    /// Monotonic batch sequence number — every member of one batch shares
    /// it, and a lower number dispatched earlier. The FIFO ordering
    /// proof reads this field.
    pub order: u64,
    /// Members in the batch this request rode in.
    pub batch_size: usize,
}

/// A successfully served request: the product plus the cost accounting.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The result row, a `1 × n` matrix.
    pub c: MatrixF32,
    /// Queue-wait / compute split for this request.
    pub timing: RequestTiming,
    /// Batch placement — order and size.
    pub dispatch: DispatchInfo,
}

/// The caller's handle to one submitted request. Resolve it with
/// [`Ticket::wait`]; every admitted request resolves exactly once — with
/// a [`Completion`] or a structured [`NmError`] — no request is ever
/// silently dropped.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) rx: crossbeam_channel::Receiver<Result<Completion>>,
}

impl Ticket {
    /// Block until the request resolves. A server torn down before
    /// resolving (impossible through the public API, which drains on
    /// drop) maps to [`NmError::Canceled`] rather than a panic.
    pub fn wait(self) -> Result<Completion> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(NmError::Canceled {
                reason: "server shut down before the request resolved".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_adds_up() {
        let t = RequestTiming {
            queue_wait: Duration::from_millis(2),
            compute: Duration::from_millis(3),
        };
        assert_eq!(t.e2e(), Duration::from_millis(5));
    }

    #[test]
    fn expiry_is_budget_relative_to_enqueue() {
        let (tx, _rx) = crossbeam_channel::bounded(1);
        let r = Request {
            x: vec![0.0],
            enqueued: Instant::now(),
            deadline: Some(Duration::from_millis(1)),
            reply: tx,
        };
        assert!(!r.expired(r.enqueued));
        assert!(r.expired(r.enqueued + Duration::from_millis(2)));
    }

    #[test]
    fn ticket_maps_disconnect_to_canceled() {
        let (tx, rx) = crossbeam_channel::bounded::<Result<Completion>>(1);
        drop(tx);
        let t = Ticket { rx };
        assert!(matches!(t.wait().unwrap_err(), NmError::Canceled { .. }));
    }
}
