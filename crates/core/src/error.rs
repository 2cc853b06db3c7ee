//! Error types shared across the NM-SpMM crates.

use std::fmt;

/// Errors produced by format construction, compression and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NmError {
    /// An invalid setting: an `N:M` / `L` combination that violates the
    /// format rules (`0 < N <= M`, `L >= 1`, `M` a power of two for
    /// bit-packed indices), or any other value out of its domain — a
    /// server knob, the `NM_SPMM_ISA` pin, a sliced layout bound.
    InvalidConfig {
        /// Human-readable reason for the rejection.
        reason: String,
    },
    /// Two operands whose shapes do not agree for the requested operation.
    DimensionMismatch {
        /// Description of the expected shape.
        expected: String,
        /// Description of the shape that was provided.
        found: String,
    },
    /// An index-matrix entry that points outside its pruning window, or is
    /// not strictly increasing within a window.
    CorruptIndex {
        /// Row of the index matrix `D` where the fault was found.
        row: usize,
        /// Column (pruning-window index) of the faulty entry.
        col: usize,
        /// The offending value.
        value: u32,
        /// Upper bound (exclusive) the value had to respect.
        bound: u32,
    },
    /// Blocking parameters that violate a hardware constraint
    /// (shared-memory capacity, register budget, warp geometry).
    InvalidBlocking {
        /// Human-readable reason for the rejection.
        reason: String,
    },
    /// A persistence failure: on-disk artifact I/O, or a malformed
    /// serialized document (e.g. the JSON plan cache).
    Persist {
        /// Human-readable reason for the failure.
        reason: String,
    },
    /// A capability the current host (or build target) does not provide —
    /// e.g. requesting the AVX-512 micro-kernel on a machine without
    /// `avx512f`, or the NEON kernel on x86.
    Unsupported {
        /// Human-readable reason for the rejection.
        reason: String,
    },
    /// A serving request rejected at admission because the bounded
    /// submission queue is at capacity — structured backpressure, never
    /// silent blocking or a silent drop. Retry later or shed load.
    Overloaded {
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// A serving request shed before any compute was spent on it because
    /// its deadline had already passed while it sat in the queue.
    DeadlineExceeded {
        /// The request's latency budget, in milliseconds.
        deadline_ms: u64,
        /// How long the request had been queued when it was shed, in
        /// milliseconds.
        queued_ms: u64,
    },
    /// Work abandoned for a reason other than load or deadline — e.g. the
    /// serving front-end shut down while the request was still queued.
    /// Every abandoned request receives this structured error; nothing is
    /// ever dropped silently.
    Canceled {
        /// Human-readable reason for the cancellation.
        reason: String,
    },
}

impl fmt::Display for NmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NmError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            NmError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            NmError::CorruptIndex {
                row,
                col,
                value,
                bound,
            } => write!(
                f,
                "corrupt index matrix at D[{row}][{col}]: value {value} out of bound {bound}"
            ),
            NmError::InvalidBlocking { reason } => {
                write!(f, "invalid blocking parameters: {reason}")
            }
            NmError::Persist { reason } => {
                write!(f, "persistence failure: {reason}")
            }
            NmError::Unsupported { reason } => {
                write!(f, "unsupported on this host: {reason}")
            }
            NmError::Overloaded { capacity } => {
                write!(
                    f,
                    "server overloaded: submission queue at capacity {capacity}"
                )
            }
            NmError::DeadlineExceeded {
                deadline_ms,
                queued_ms,
            } => write!(
                f,
                "deadline exceeded: {deadline_ms} ms budget, shed after {queued_ms} ms queued"
            ),
            NmError::Canceled { reason } => {
                write!(f, "request canceled: {reason}")
            }
        }
    }
}

impl std::error::Error for NmError {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, NmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = NmError::InvalidConfig {
            reason: "N must not exceed M".into(),
        };
        assert!(e.to_string().contains("N must not exceed M"));
        // One prefix for every bad input, so a setting that has nothing to
        // do with the N:M pattern does not read as one.
        let e = NmError::InvalidConfig {
            reason: "NM_SPMM_ISA=`avx` is not an ISA".into(),
        };
        assert_eq!(
            e.to_string(),
            "invalid configuration: NM_SPMM_ISA=`avx` is not an ISA"
        );

        let e = NmError::DimensionMismatch {
            expected: "k=128".into(),
            found: "k=64".into(),
        };
        assert!(e.to_string().contains("k=128"));
        assert!(e.to_string().contains("k=64"));

        let e = NmError::CorruptIndex {
            row: 3,
            col: 7,
            value: 9,
            bound: 8,
        };
        let s = e.to_string();
        assert!(s.contains("D[3][7]"));
        assert!(s.contains('9'));

        let e = NmError::InvalidBlocking {
            reason: "shared memory exceeded".into(),
        };
        assert!(e.to_string().contains("shared memory"));

        let e = NmError::Persist {
            reason: "cache file truncated".into(),
        };
        assert!(e.to_string().contains("cache file truncated"));

        let e = NmError::Unsupported {
            reason: "avx512 micro-kernel needs avx512f".into(),
        };
        assert!(e.to_string().contains("avx512f"));

        let e = NmError::Overloaded { capacity: 128 };
        assert!(e.to_string().contains("128"));

        let e = NmError::DeadlineExceeded {
            deadline_ms: 50,
            queued_ms: 75,
        };
        let s = e.to_string();
        assert!(s.contains("50") && s.contains("75"));

        let e = NmError::Canceled {
            reason: "server shut down".into(),
        };
        assert!(e.to_string().contains("server shut down"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = NmError::InvalidConfig { reason: "x".into() };
        let b = NmError::InvalidConfig { reason: "x".into() };
        assert_eq!(a, b);
    }
}
