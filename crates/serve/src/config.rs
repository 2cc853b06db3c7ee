//! Server configuration and per-request submission options.

use nm_core::error::{NmError, Result};
use nm_kernels::DECODE_MAX_ROWS;
use std::time::Duration;

/// Per-request options for
/// [`Server::submit_decode`](crate::Server::submit_decode).
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Deadline budget measured from submission. A request still queued
    /// when its budget expires is **shed before any compute is spent**,
    /// resolving its ticket with [`NmError::DeadlineExceeded`]. `None`
    /// falls back to [`ServerConfig::default_deadline`].
    pub deadline: Option<Duration>,
}

impl SubmitOptions {
    /// Set the deadline budget.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Configuration for a [`Server`](crate::Server).
///
/// The defaults suit a latency bench on one host: a 64-deep submission
/// queue, decode coalescing up to the full planner decode band
/// ([`DECODE_MAX_ROWS`]), and a 200 µs linger window for joiners.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission bound: the maximum number of requests queued (submitted
    /// but not yet dispatched into a batch). Submissions beyond it fail
    /// fast with [`NmError::Overloaded`] — never silent blocking.
    pub queue_capacity: usize,
    /// Maximum decode vectors stacked into one skinny
    /// [`forward`](nm_kernels::session::PreparedLayer::forward) call.
    /// Capped by [`DECODE_MAX_ROWS`] — the planner's decode band is the
    /// evidence that stacking beyond it stops paying.
    pub max_decode_batch: usize,
    /// The **hard cap** on how long a forming batch waits for joiners
    /// before dispatching when it is not yet full. Continuous-batching
    /// style: requests arriving inside the window ride along.
    pub linger: Duration,
    /// The arrival-gap cutoff inside the linger window: once no new
    /// request arrives for this long, the window closes early and the
    /// batch dispatches. A burst of concurrent submissions coalesces
    /// fully (each arrival re-arms the gap), while a lone request only
    /// ever waits one gap — not the whole cap.
    pub linger_gap: Duration,
    /// Deadline applied to requests whose [`SubmitOptions::deadline`] is
    /// unset. `None` means such requests never expire.
    pub default_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            max_decode_batch: DECODE_MAX_ROWS,
            linger: Duration::from_micros(200),
            linger_gap: Duration::from_micros(50),
            default_deadline: None,
        }
    }
}

impl ServerConfig {
    /// Validate the knobs: non-zero capacities, decode coalescing within
    /// the planner's decode band.
    pub fn validate(&self) -> Result<()> {
        if self.queue_capacity == 0 {
            return Err(NmError::InvalidConfig {
                reason: "queue_capacity must be at least 1".into(),
            });
        }
        if self.max_decode_batch == 0 {
            return Err(NmError::InvalidConfig {
                reason: "max_decode_batch must be at least 1".into(),
            });
        }
        if self.max_decode_batch > DECODE_MAX_ROWS {
            return Err(NmError::InvalidConfig {
                reason: format!(
                    "max_decode_batch {} exceeds the decode band (DECODE_MAX_ROWS = {})",
                    self.max_decode_batch, DECODE_MAX_ROWS
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_stay_in_the_decode_band() {
        let cfg = ServerConfig::default();
        cfg.validate().unwrap();
        assert!(cfg.max_decode_batch <= DECODE_MAX_ROWS);
    }

    #[test]
    fn bad_knobs_are_structured_errors() {
        for cfg in [
            ServerConfig {
                queue_capacity: 0,
                ..Default::default()
            },
            ServerConfig {
                max_decode_batch: 0,
                ..Default::default()
            },
            ServerConfig {
                max_decode_batch: DECODE_MAX_ROWS + 1,
                ..Default::default()
            },
        ] {
            assert!(matches!(
                cfg.validate().unwrap_err(),
                NmError::InvalidConfig { .. }
            ));
        }
    }

    #[test]
    fn submit_options_compose() {
        assert_eq!(SubmitOptions::default().deadline, None);
        let o = SubmitOptions::default().with_deadline(Duration::from_millis(5));
        assert_eq!(o.deadline, Some(Duration::from_millis(5)));
    }
}
