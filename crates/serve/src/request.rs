//! In-flight request plumbing: the internal queued request, the caller's
//! [`Ticket`], and the [`Completion`] a resolved ticket yields.

use crate::config::Priority;
use nm_core::error::{NmError, Result};
use nm_core::matrix::MatrixF32;
use std::time::{Duration, Instant};

/// What one queued request asks the layer to do.
#[derive(Debug)]
pub(crate) enum Workload {
    /// A full activation matrix — the prefill band, coalesced into
    /// `forward_batch` calls.
    Prefill(MatrixF32),
    /// A single activation vector — the decode band, stacked with other
    /// decode requests into one skinny `forward` call.
    Decode(Vec<f32>),
}

impl Workload {
    pub(crate) fn kind(&self) -> BatchKind {
        match self {
            Workload::Prefill(_) => BatchKind::Prefill,
            Workload::Decode(_) => BatchKind::Decode,
        }
    }
}

/// Which band a dispatched batch ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchKind {
    /// Members were full matrices, fanned through `forward_batch`.
    Prefill,
    /// Members were vectors, stacked into one skinny `forward` call.
    Decode,
}

impl BatchKind {
    /// Stable identifier (`prefill`, `decode`) for artifacts and logs.
    pub fn name(&self) -> &'static str {
        match self {
            BatchKind::Prefill => "prefill",
            BatchKind::Decode => "decode",
        }
    }
}

impl std::fmt::Display for BatchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One request as it travels the queue.
#[derive(Debug)]
pub(crate) struct Request {
    pub(crate) workload: Workload,
    pub(crate) priority: Priority,
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
    /// it, and a lower number dispatched earlier. The FIFO-per-priority
    /// ordering proof reads this field.
    pub order: u64,
    /// Members in the batch this request rode in.
    pub batch_size: usize,
    /// Which band the batch ran on.
    pub kind: BatchKind,
}

/// A successfully served request: the product plus the cost accounting.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The result matrix — `rows × n` for prefill, `1 × n` for decode.
    pub c: MatrixF32,
    /// Queue-wait / compute split for this request.
    pub timing: RequestTiming,
    /// Batch placement — order, size, band.
    pub dispatch: DispatchInfo,
}

/// The caller's handle to one submitted request. Resolve it with
/// [`Ticket::wait`]; every admitted request resolves exactly once — with
/// a [`Completion`] or a structured [`NmError`] — no request is ever
/// silently dropped.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) id: u64,
    pub(crate) rx: crossbeam_channel::Receiver<Result<Completion>>,
}

impl Ticket {
    /// The request id this ticket tracks (monotonic per server).
    pub fn id(&self) -> u64 {
        self.id
    }

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
    fn timing_adds_up_and_kinds_name_themselves() {
        let t = RequestTiming {
            queue_wait: Duration::from_millis(2),
            compute: Duration::from_millis(3),
        };
        assert_eq!(t.e2e(), Duration::from_millis(5));
        assert_eq!(BatchKind::Decode.to_string(), "decode");
        assert_eq!(BatchKind::Prefill.name(), "prefill");
    }

    #[test]
    fn expiry_is_budget_relative_to_enqueue() {
        let (tx, _rx) = crossbeam_channel::bounded(1);
        let r = Request {
            workload: Workload::Decode(vec![0.0]),
            priority: Priority::Interactive,
            enqueued: Instant::now(),
            deadline: Some(Duration::from_millis(1)),
            reply: tx,
        };
        assert!(!r.expired(r.enqueued));
        assert!(r.expired(r.enqueued + Duration::from_millis(2)));
        assert_eq!(r.workload.kind(), BatchKind::Decode);
    }

    #[test]
    fn ticket_maps_disconnect_to_canceled() {
        let (tx, rx) = crossbeam_channel::bounded::<Result<Completion>>(1);
        drop(tx);
        let t = Ticket { id: 7, rx };
        assert_eq!(t.id(), 7);
        assert!(matches!(t.wait().unwrap_err(), NmError::Canceled { .. }));
    }
}
