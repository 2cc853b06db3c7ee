//! Seeded problem-instance generators shared by tests, examples and the
//! bench harness.

use nm_core::matrix::MatrixF32;
use nm_core::pattern::NmConfig;
use nm_core::prune::PrunePolicy;
use nm_core::sparse::NmSparseMatrix;
use serde::{Deserialize, Serialize};

/// A problem description: shapes plus sparsity configuration
/// (no data — cheap to copy around the harness).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProblemSpec {
    /// Rows of `A`/`C`.
    pub m: usize,
    /// Columns of `B`/`C`.
    pub n: usize,
    /// Reduction dimension.
    pub k: usize,
    /// Sparsity configuration for `B`.
    pub cfg: NmConfig,
}

impl ProblemSpec {
    /// Compressed row count `w`.
    pub fn w(&self) -> usize {
        self.cfg.compressed_rows(self.k)
    }

    /// Useful FLOPs: `2·m·n·w`.
    pub fn useful_flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.w() as f64
    }

    /// Dense-problem FLOPs: `2·m·n·k` (the cuBLAS workload).
    pub fn dense_flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }
}

/// A materialized problem: `A` dense, `B` pruned and compressed.
#[derive(Debug, Clone)]
pub struct ProblemInstance {
    /// The spec this instance realizes.
    pub spec: ProblemSpec,
    /// Dense input activations `A[m][k]`.
    pub a: MatrixF32,
    /// The original dense weights `B[k][n]` (kept for baselines/oracles).
    pub b_dense: MatrixF32,
    /// The compressed N:M weights.
    pub b_sparse: NmSparseMatrix,
}

impl ProblemInstance {
    /// Generate with the magnitude pruner (the realistic policy).
    pub fn generate(spec: ProblemSpec, seed: u64) -> Self {
        Self::generate_with_policy(spec, seed, PrunePolicy::Magnitude)
    }

    /// Generate with an explicit pruning policy.
    pub fn generate_with_policy(spec: ProblemSpec, seed: u64, policy: PrunePolicy) -> Self {
        let a = MatrixF32::random(spec.m, spec.k, seed);
        let b_dense = MatrixF32::random(spec.k, spec.n, seed.wrapping_add(0x9E37_79B9));
        let b_sparse =
            NmSparseMatrix::prune(&b_dense, spec.cfg, policy).expect("spec produces valid config");
        Self {
            spec,
            a,
            b_dense,
            b_sparse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ProblemSpec {
        ProblemSpec {
            m: 64,
            n: 96,
            k: 128,
            cfg: NmConfig::new(4, 16, 8).unwrap(),
        }
    }

    #[test]
    fn flops_accounting() {
        let s = spec();
        assert_eq!(s.w(), 32);
        assert_eq!(s.useful_flops(), 2.0 * 64.0 * 96.0 * 32.0);
        assert_eq!(s.dense_flops(), 2.0 * 64.0 * 96.0 * 128.0);
    }

    #[test]
    fn generation_is_reproducible() {
        let a = ProblemInstance::generate(spec(), 7);
        let b = ProblemInstance::generate(spec(), 7);
        assert_eq!(a.a, b.a);
        assert_eq!(a.b_sparse.panels(), b.b_sparse.panels());
        let c = ProblemInstance::generate(spec(), 8);
        assert_ne!(a.a, c.a);
    }

    #[test]
    fn sparse_matches_dense_support() {
        let p = ProblemInstance::generate(spec(), 3);
        let dec = p.b_sparse.decompress();
        for i in 0..p.spec.k {
            for j in 0..p.spec.n {
                let v = dec.get(i, j);
                if v != 0.0 {
                    assert_eq!(v, p.b_dense.get(i, j));
                }
            }
        }
    }
}
