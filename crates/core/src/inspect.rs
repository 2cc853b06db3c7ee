//! Pattern inspection: structural statistics of a compressed matrix.
//!
//! Answers the questions the performance model asks of a *specific* pruned
//! matrix (rather than of the random-pattern expectation): how are offsets
//! distributed, how much do neighbouring windows' selections overlap, and
//! what packing ratio will a given blocking actually achieve. Useful for
//! diagnosing why a particular network prunes well or badly.

use crate::colinfo::preprocess;
use crate::sparse::NmSparseMatrix;
use serde::{Deserialize, Serialize};

/// Structural statistics of one compressed matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternStats {
    /// Histogram of selected offsets (length `M`): how often each
    /// within-window position survives pruning.
    pub offset_histogram: Vec<u64>,
    /// Mean Jaccard similarity of the offset sets selected by horizontally
    /// adjacent pruning windows (1.0 = identical patterns — the packing
    /// best case; `N/M`-ish = independent).
    pub adjacent_window_jaccard: f64,
    /// Fraction of windows whose selection equals the row-uniform
    /// (identical-across-columns) pattern of their k-window.
    pub uniform_window_fraction: f64,
    /// Total selections counted.
    pub selections: u64,
}

impl PatternStats {
    /// χ²-style imbalance of the offset histogram: 0 = perfectly uniform.
    pub fn offset_imbalance(&self) -> f64 {
        let total: u64 = self.offset_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let expect = total as f64 / self.offset_histogram.len() as f64;
        self.offset_histogram
            .iter()
            .map(|&c| {
                let d = c as f64 - expect;
                d * d / expect
            })
            .sum::<f64>()
            / total as f64
    }
}

/// Compute [`PatternStats`] for a compressed matrix.
pub fn pattern_stats(sb: &NmSparseMatrix) -> PatternStats {
    let cfg = sb.cfg();
    let d = sb.indices();
    let (w, q) = (sb.w(), sb.q());
    let windows_k = w / cfg.n.max(1);

    let mut histogram = vec![0u64; cfg.m];
    let mut jaccard_sum = 0.0f64;
    let mut jaccard_n = 0u64;
    let mut uniform = 0u64;

    for wi in 0..windows_k {
        let set_of =
            |j: usize| -> Vec<u8> { (0..cfg.n).map(|r| d.get(wi * cfg.n + r, j)).collect() };
        let first = set_of(0);
        let mut all_same = true;
        for j in 0..q {
            let s = set_of(j);
            for &off in &s {
                histogram[off as usize] += 1;
            }
            if j > 0 {
                let prev = set_of(j - 1);
                let inter = s.iter().filter(|o| prev.contains(o)).count();
                let union = 2 * cfg.n - inter;
                jaccard_sum += inter as f64 / union as f64;
                jaccard_n += 1;
                if s != first {
                    all_same = false;
                }
            }
        }
        if all_same && q > 0 {
            uniform += 1;
        }
    }

    PatternStats {
        offset_histogram: histogram,
        adjacent_window_jaccard: if jaccard_n > 0 {
            jaccard_sum / jaccard_n as f64
        } else {
            1.0
        },
        uniform_window_fraction: if windows_k > 0 {
            uniform as f64 / windows_k as f64
        } else {
            0.0
        },
        selections: (w * q) as u64,
    }
}

/// Measured packing ratio this matrix achieves under a concrete blocking —
/// the ground truth the expected-union model approximates.
pub fn measured_packing_ratio(sb: &NmSparseMatrix, ks: usize, ns: usize) -> Option<f64> {
    preprocess(sb, ks, ns).ok().map(|c| c.mean_packing_ratio())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixF32;
    use crate::pattern::NmConfig;
    use crate::prune::PrunePolicy;

    fn sparse(policy: PrunePolicy) -> NmSparseMatrix {
        let cfg = NmConfig::new(2, 16, 8).unwrap();
        let b = MatrixF32::random(64, 64, 5);
        NmSparseMatrix::prune(&b, cfg, policy).unwrap()
    }

    #[test]
    fn histogram_counts_every_selection() {
        let sb = sparse(PrunePolicy::Random { seed: 1 });
        let stats = pattern_stats(&sb);
        let total: u64 = stats.offset_histogram.iter().sum();
        assert_eq!(total, stats.selections);
        assert_eq!(stats.selections, (sb.w() * sb.q()) as u64);
    }

    #[test]
    fn strided_pattern_is_uniform_and_identical() {
        let sb = sparse(PrunePolicy::Strided);
        let stats = pattern_stats(&sb);
        assert_eq!(stats.adjacent_window_jaccard, 1.0);
        assert_eq!(stats.uniform_window_fraction, 1.0);
        // Offsets 0 and 8 are the only ones used.
        assert!(stats.offset_histogram[0] > 0);
        assert!(stats.offset_histogram[8] > 0);
        assert_eq!(stats.offset_histogram[1], 0);
        assert!(
            stats.offset_imbalance() > 1.0,
            "two spikes = very imbalanced"
        );
    }

    #[test]
    fn random_pattern_is_dissimilar_and_balanced() {
        let sb = sparse(PrunePolicy::Random { seed: 7 });
        let stats = pattern_stats(&sb);
        assert!(
            stats.adjacent_window_jaccard < 0.4,
            "independent selections overlap rarely: {}",
            stats.adjacent_window_jaccard
        );
        assert!(stats.uniform_window_fraction < 0.2);
        assert!(stats.offset_imbalance() < 1.0);
    }

    #[test]
    fn measured_ratio_tracks_pattern_structure() {
        let uniform = measured_packing_ratio(&sparse(PrunePolicy::Strided), 32, 32).unwrap();
        let random =
            measured_packing_ratio(&sparse(PrunePolicy::Random { seed: 9 }), 32, 32).unwrap();
        assert!(
            uniform < random,
            "identical windows must pack tighter: {uniform} !< {random}"
        );
        assert!((uniform - 2.0 / 16.0).abs() < 1e-9, "strided packs to N/M");
    }

    #[test]
    fn invalid_blocking_yields_none() {
        let sb = sparse(PrunePolicy::Magnitude);
        assert!(measured_packing_ratio(&sb, 30, 32).is_none(), "ks % M != 0");
    }
}
