//! The N:M vector-wise sparsity configuration.
//!
//! A configuration `(N, M, L)` means: walk the `k` (row) dimension of the
//! weight matrix `B[k][n]` in *pruning windows* of `M` consecutive rows and
//! `L` consecutive columns; inside each window keep exactly `N` of the `M`
//! row-vectors (each vector is `1×L`). Sparsity is therefore `1 − N/M`
//! regardless of `L`; `L` trades network accuracy (small `L`) against kernel
//! efficiency (large `L`) — paper §III-A.

use crate::error::{NmError, Result};
use serde::{Deserialize, Serialize};

/// Sparsity classification used by the sparsity-aware optimizations.
///
/// The paper defines sparsity below 70% as *moderate* (compute bound on the
/// evaluated GPUs) and above as *high* (memory bound) — §III-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SparsityClass {
    /// `1 − N/M < 0.70`: the non-packing path and the
    /// compute-hides-load pipeline are selected.
    Moderate,
    /// `1 − N/M ≥ 0.70`: the packing path and the
    /// load-hides-compute pipeline are selected.
    High,
}

/// The paper's moderate/high threshold (70%).
pub const SPARSITY_THRESHOLD: f64 = 0.70;

/// Largest window depth `M`: the index matrix stores each offset in a `u8`.
pub const MAX_M: usize = 256;

/// An `N:M` vector-wise sparsity configuration with vector length `L`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NmConfig {
    /// Vectors kept per pruning window.
    pub n: usize,
    /// Window depth along `k`.
    pub m: usize,
    /// Vector length along the `n` dimension.
    pub l: usize,
}

impl NmConfig {
    /// Validated constructor. Requires `1 ≤ N ≤ M ≤` [`MAX_M`] and `L ≥ 1`.
    pub fn new(n: usize, m: usize, l: usize) -> Result<Self> {
        if n == 0 || m == 0 || l == 0 {
            return Err(NmError::InvalidConfig {
                reason: format!("N, M, L must all be positive (got N={n}, M={m}, L={l})"),
            });
        }
        if n > m {
            return Err(NmError::InvalidConfig {
                reason: format!("N must not exceed M (got N={n}, M={m})"),
            });
        }
        if m > MAX_M {
            return Err(NmError::InvalidConfig {
                reason: format!(
                    "M must not exceed {MAX_M}, the offsets a u8 index holds (got M={m})"
                ),
            });
        }
        Ok(Self { n, m, l })
    }

    /// The dense configuration used for the paper's 0%-sparsity experiments
    /// (`N = M = 32`), with vector length `l`.
    pub fn dense32(l: usize) -> Self {
        Self { n: 32, m: 32, l }
    }

    /// Fraction of `B` that is pruned away: `1 − N/M`.
    #[inline]
    pub fn sparsity(&self) -> f64 {
        1.0 - self.n as f64 / self.m as f64
    }

    /// Fraction of `B` that survives pruning: `N/M`.
    #[inline]
    pub fn density(&self) -> f64 {
        self.n as f64 / self.m as f64
    }

    /// Ideal speedup over dense GEMM from the computation reduction: `M/N`.
    #[inline]
    pub fn ideal_speedup(&self) -> f64 {
        self.m as f64 / self.n as f64
    }

    /// Moderate/high classification against [`SPARSITY_THRESHOLD`].
    pub fn class(&self) -> SparsityClass {
        if self.sparsity() >= SPARSITY_THRESHOLD {
            SparsityClass::High
        } else {
            SparsityClass::Moderate
        }
    }

    /// Compressed row count `w = ⌈k/M⌉·N` for a `k`-row dense matrix
    /// (exact `k·N/M` when `M | k`, matching the paper's padding rule).
    pub fn compressed_rows(&self, k: usize) -> usize {
        self.window_rows(k) * self.n
    }

    /// Number of pruning windows along the column dimension:
    /// `q = ⌈n/L⌉`.
    pub fn window_cols(&self, n: usize) -> usize {
        n.div_ceil(self.l)
    }

    /// Number of pruning windows along the `k` dimension: `⌈k/M⌉`.
    pub fn window_rows(&self, k: usize) -> usize {
        k.div_ceil(self.m)
    }

    /// Bits needed to store one index entry: `⌈log₂ M⌉` (at least 1).
    pub fn index_bits(&self) -> u32 {
        if self.m <= 1 {
            1
        } else {
            usize::BITS - (self.m - 1).leading_zeros()
        }
    }

    /// The four sparsity levels benchmarked throughout the paper
    /// (50%, 62.5%, 75%, 87.5%), expressed at window depth `m = 16` with
    /// vector length `l`.
    pub fn paper_levels(l: usize) -> [NmConfig; 4] {
        [
            NmConfig { n: 8, m: 16, l }, // 50.0%
            NmConfig { n: 6, m: 16, l }, // 62.5%
            NmConfig { n: 4, m: 16, l }, // 75.0%
            NmConfig { n: 2, m: 16, l }, // 87.5%
        ]
    }

    /// Short human-readable form, e.g. `2:4(L=4)`.
    pub fn label(&self) -> String {
        format!("{}:{}(L={})", self.n, self.m, self.l)
    }
}

impl std::fmt::Display for NmConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{} (L={})", self.n, self.m, self.l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validation() {
        assert!(NmConfig::new(2, 4, 4).is_ok());
        assert!(NmConfig::new(4, 4, 1).is_ok(), "dense N=M is legal");
        assert!(NmConfig::new(0, 4, 4).is_err());
        assert!(NmConfig::new(2, 0, 4).is_err());
        assert!(NmConfig::new(2, 4, 0).is_err());
        assert!(NmConfig::new(5, 4, 4).is_err(), "N>M must be rejected");
        assert!(NmConfig::new(1, 256, 1).is_ok());
        let err = NmConfig::new(1, 300, 1).unwrap_err();
        assert!(err.to_string().contains("M=300"), "{err}");
    }

    #[test]
    fn sparsity_levels() {
        assert_eq!(NmConfig::new(2, 4, 4).unwrap().sparsity(), 0.5);
        assert_eq!(NmConfig::new(6, 16, 4).unwrap().sparsity(), 0.625);
        assert_eq!(NmConfig::new(4, 16, 4).unwrap().sparsity(), 0.75);
        assert_eq!(NmConfig::new(2, 16, 4).unwrap().sparsity(), 0.875);
        assert_eq!(NmConfig::dense32(4).sparsity(), 0.0);
    }

    #[test]
    fn classification_threshold() {
        assert_eq!(
            NmConfig::new(2, 4, 4).unwrap().class(),
            SparsityClass::Moderate
        );
        assert_eq!(
            NmConfig::new(6, 16, 4).unwrap().class(),
            SparsityClass::Moderate
        );
        assert_eq!(
            NmConfig::new(4, 16, 4).unwrap().class(),
            SparsityClass::High
        );
        assert_eq!(
            NmConfig::new(2, 16, 4).unwrap().class(),
            SparsityClass::High
        );
        // Exactly 70% is high per the >= convention.
        assert_eq!(
            NmConfig::new(3, 10, 1).unwrap().class(),
            SparsityClass::High
        );
    }

    #[test]
    fn compressed_rows_with_and_without_padding() {
        let cfg = NmConfig::new(2, 4, 4).unwrap();
        assert_eq!(cfg.compressed_rows(16), 8);
        // 17 rows pad to 20 -> 5 windows -> 10 compressed rows.
        assert_eq!(cfg.compressed_rows(17), 10);
        assert_eq!(cfg.window_rows(16), 4);
        assert_eq!(cfg.window_rows(17), 5);
    }

    #[test]
    fn window_cols_padding() {
        let cfg = NmConfig::new(2, 4, 8).unwrap();
        assert_eq!(cfg.window_cols(64), 8);
        assert_eq!(cfg.window_cols(65), 9);
    }

    #[test]
    fn index_bits_matches_log2_ceiling() {
        assert_eq!(NmConfig::new(1, 2, 1).unwrap().index_bits(), 1);
        assert_eq!(NmConfig::new(2, 4, 1).unwrap().index_bits(), 2);
        assert_eq!(NmConfig::new(2, 16, 1).unwrap().index_bits(), 4);
        assert_eq!(NmConfig::new(2, 5, 1).unwrap().index_bits(), 3);
        assert_eq!(NmConfig::new(1, 1, 1).unwrap().index_bits(), 1);
        assert_eq!(NmConfig::dense32(1).index_bits(), 5);
    }

    #[test]
    fn ideal_speedup_is_m_over_n() {
        assert_eq!(NmConfig::new(2, 16, 4).unwrap().ideal_speedup(), 8.0);
        assert_eq!(NmConfig::new(8, 16, 4).unwrap().ideal_speedup(), 2.0);
    }

    #[test]
    fn paper_levels_cover_expected_sparsities() {
        let levels = NmConfig::paper_levels(4);
        let got: Vec<f64> = levels.iter().map(|c| c.sparsity()).collect();
        assert_eq!(got, vec![0.5, 0.625, 0.75, 0.875]);
        assert!(levels.iter().all(|c| c.l == 4));
    }

    #[test]
    fn display_and_label() {
        let cfg = NmConfig::new(2, 4, 8).unwrap();
        assert_eq!(cfg.label(), "2:4(L=8)");
        assert_eq!(format!("{cfg}"), "2:4 (L=8)");
    }
}
